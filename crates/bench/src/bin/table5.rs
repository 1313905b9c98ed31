//! Table 5 — Doduo's performance on the 15 most numeric VizNet types,
//! with the measured numeric fraction (`%num`) of each type.
//!
//! Paper: strong F1 on most numeric types (age 98.5, year 98.9, rank 94.5)
//! but weak on `ranking` (33.2) and `capacity` (62.6); average ≈ 86.9,
//! comparable to the overall macro F1 (84.6).
//!
//! A type with no column in the test split has neither a `%num` nor an F1:
//! its row prints `n/a` beside a test-column count of 0, the average runs
//! over the types that have test columns, and a check that compares such a
//! type says so in its label.

use doduo_bench::report::{pct, Report};
use doduo_bench::{ExpOptions, ModelSpec, World};
use doduo_core::Task;
use doduo_datagen::NUMERIC_STRESS_TYPES;
use doduo_eval::per_class_prf;
use doduo_table::is_numeric_like;

fn main() {
    let opts = ExpOptions::from_args_for("Table 5: Doduo's F1 on the 15 most numeric VizNet types");
    let world = World::bootstrap(opts);
    let splits = world.viznet();
    let cfg = world.train_config();

    let m = world.trained_model(
        "viz-doduo-full",
        &ModelSpec::doduo(),
        &splits,
        &[Task::ColumnType],
        false,
        &cfg,
    );
    let (dp, dg) = m.types.single_label();
    let n_types = splits.train.type_vocab.len();
    let per_class = per_class_prf(&dp, &dg, n_types);

    // Per type over the test split: (columns, numeric values, values).
    let mut support = vec![(0usize, 0usize, 0usize); n_types];
    for at in &splits.test.tables {
        for (c, col) in at.table.columns.iter().enumerate() {
            let s = &mut support[at.col_types[c][0] as usize];
            s.0 += 1;
            s.1 += col.values.iter().filter(|v| is_numeric_like(v)).count();
            s.2 += col.values.len();
        }
    }

    let paper: &[(&str, f64, f64)] = &[
        ("plays", 100.00, 88.55),
        ("rank", 93.01, 94.52),
        ("depth", 92.86, 88.45),
        ("sales", 92.05, 75.13),
        ("year", 91.47, 98.94),
        ("fileSize", 87.84, 88.23),
        ("elevation", 87.39, 92.14),
        ("ranking", 86.88, 33.21),
        ("age", 81.04, 98.53),
        ("birthDate", 67.85, 95.64),
        ("grades", 67.18, 97.68),
        ("weight", 60.41, 97.59),
        ("isbn", 43.77, 96.51),
        ("capacity", 42.06, 62.55),
        ("code", 35.93, 95.43),
    ];

    let mut r = Report::new(
        "Table 5: Doduo on the 15 most numeric VizNet types (paper vs measured)",
        &["type", "test cols", "%num (ours)", "F1 (ours)", "%num (paper)", "F1 (paper)"],
    );
    // (type, F1), `None` where the test split has no column of the type.
    let mut measured = Vec::new();
    for &(ty, p_num, p_f1) in paper {
        let id = splits.train.type_vocab.id(ty).expect("type in vocab") as usize;
        let (cols, numeric, values) = support[id];
        let f1 = (cols > 0).then_some(per_class[id].f1);
        let na = || "n/a".to_string();
        let num = (values > 0).then(|| format!("{:.1}", 100.0 * numeric as f64 / values as f64));
        r.row(&[
            ty.into(),
            cols.to_string(),
            num.unwrap_or_else(na),
            f1.map_or_else(na, pct),
            format!("{p_num:.1}"),
            format!("{p_f1:.1}"),
        ]);
        measured.push((ty, f1));
    }
    assert_eq!(paper.len(), NUMERIC_STRESS_TYPES.len());

    let tested: Vec<f64> = measured.iter().filter_map(|m| m.1).collect();
    let avg = tested.iter().sum::<f64>() / tested.len().max(1) as f64;
    let f1_of = |ty: &str| measured.iter().find(|m| m.0 == ty).expect("a Table 5 type").1;
    let (rank_f1, ranking_f1) = (f1_of("rank"), f1_of("ranking"));
    r.check(
        format!(
            "average numeric-type F1 over the {} of {} types with test columns ({}) is not \
             catastrophic (paper: 86.9 avg)",
            tested.len(),
            measured.len(),
            pct(avg)
        ),
        avg > 0.4,
    );
    let untested: Vec<&str> = [("rank", rank_f1), ("ranking", ranking_f1)]
        .into_iter()
        .filter_map(|(ty, f1)| f1.is_none().then_some(ty))
        .collect();
    let untested = if untested.is_empty() {
        String::new()
    } else {
        format!("; no test column: {}", untested.join(", "))
    };
    r.check(
        format!(
            "`ranking` is the confusable weak class: rank F1 > ranking F1 (paper: 94.5 vs \
             33.2{untested})"
        ),
        rank_f1.unwrap_or(0.0) > ranking_f1.unwrap_or(0.0),
    );
    r.print();
    eprintln!("[table5] total elapsed {:?}", world.elapsed());
}
