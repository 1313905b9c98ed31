//! Table 6 — ablation study on the WikiTable-style benchmark.
//!
//! Rows: Doduo, Doduo trained+evaluated with shuffled rows, with shuffled
//! columns, Dosolo (no multi-task learning), DosoloSCol (single-column).
//!
//! Paper (micro F1, %): Doduo 92.50/91.90, shuffled rows 91.94/91.61,
//! shuffled cols 92.68/91.98, Dosolo 91.37/91.24, DosoloSCol 82.45/83.08.

use doduo_bench::report::{pct, Report};
use doduo_bench::{shuffled_dataset, ExpOptions, ModelSpec, Splits, World};
use doduo_core::Task;

fn main() {
    let opts = ExpOptions::from_args_for(
        "Table 6: WikiTable ablations (shuffled rows/columns, Dosolo, DosoloSCol)",
    );
    let world = World::bootstrap(opts);
    let splits = world.wikitable();
    let cfg = world.train_config();
    let both = [Task::ColumnType, Task::ColumnRelation];

    let doduo = world.trained_model("wiki-doduo", &ModelSpec::doduo(), &splits, &both, true, &cfg);

    // Shuffled variants: the permutations are applied to train/valid/test
    // alike, as in the paper ("trained and evaluated Doduo on two versions").
    let shuf = |rows: bool, cols: bool, salt: u64| Splits {
        train: shuffled_dataset(&splits.train, rows, cols, world.opts.seed ^ salt),
        valid: shuffled_dataset(&splits.valid, rows, cols, world.opts.seed ^ salt ^ 1),
        test: shuffled_dataset(&splits.test, rows, cols, world.opts.seed ^ salt ^ 2),
    };
    let rows_splits = shuf(true, false, 0xa0);
    let cols_splits = shuf(false, true, 0xc0);
    let shuf_rows = world.trained_model(
        "wiki-doduo-shufrows",
        &ModelSpec::doduo(),
        &rows_splits,
        &both,
        true,
        &cfg,
    );
    let shuf_cols = world.trained_model(
        "wiki-doduo-shufcols",
        &ModelSpec::doduo(),
        &cols_splits,
        &both,
        true,
        &cfg,
    );

    // Dosolo: same architecture, single task each.
    let dosolo_type = world.trained_model(
        "wiki-dosolo-type",
        &ModelSpec::doduo(),
        &splits,
        &[Task::ColumnType],
        true,
        &cfg,
    );
    let dosolo_rel = world.trained_model(
        "wiki-dosolo-rel",
        &ModelSpec::doduo(),
        &splits,
        &[Task::ColumnRelation],
        true,
        &cfg,
    );
    // DosoloSCol: single-column serialization, single task each.
    let scol_type = world.trained_model(
        "wiki-scol-type",
        &ModelSpec::single_column(),
        &splits,
        &[Task::ColumnType],
        true,
        &cfg,
    );
    let scol_rel = world.trained_model(
        "wiki-scol-rel",
        &ModelSpec::single_column(),
        &splits,
        &[Task::ColumnRelation],
        true,
        &cfg,
    );

    let mut r = Report::new(
        "Table 6: WikiTable ablation, micro-F1 (paper vs measured)",
        &["method", "type F1", "rel F1", "paper type", "paper rel"],
    );
    let rel = |s: &doduo_core::EvalScores| s.rel_micro.map(|x| pct(x.f1)).unwrap_or("-".into());
    r.row(&[
        "Doduo".into(),
        pct(doduo.scores.type_micro.f1),
        rel(&doduo.scores),
        "92.5".into(),
        "91.9".into(),
    ]);
    r.row(&[
        "w/ shuffled rows".into(),
        pct(shuf_rows.scores.type_micro.f1),
        rel(&shuf_rows.scores),
        "91.9".into(),
        "91.6".into(),
    ]);
    r.row(&[
        "w/ shuffled cols".into(),
        pct(shuf_cols.scores.type_micro.f1),
        rel(&shuf_cols.scores),
        "92.7".into(),
        "92.0".into(),
    ]);
    r.row(&[
        "Dosolo".into(),
        pct(dosolo_type.scores.type_micro.f1),
        rel(&dosolo_rel.scores),
        "91.4".into(),
        "91.2".into(),
    ]);
    r.row(&[
        "DosoloSCol".into(),
        pct(scol_type.scores.type_micro.f1),
        rel(&scol_rel.scores),
        "82.5".into(),
        "83.1".into(),
    ]);

    let d_t = doduo.scores.type_micro.f1;
    let d_r = doduo.scores.rel_micro.unwrap().f1;
    r.check(
        "multi-task >= single-task (type): Doduo >= Dosolo (paper: 92.50 > 91.37)",
        d_t >= dosolo_type.scores.type_micro.f1 - 0.01,
    );
    r.check(
        "multi-task >= single-task (rel): Doduo >= Dosolo (paper: 91.90 > 91.24)",
        d_r >= dosolo_rel.scores.rel_micro.unwrap().f1 - 0.01,
    );
    r.check(
        "table-wise >> single-column (type): Dosolo > DosoloSCol (paper: 91.37 > 82.45)",
        dosolo_type.scores.type_micro.f1 > scol_type.scores.type_micro.f1,
    );
    r.check(
        "table-wise >> single-column (rel) (paper: 91.24 > 83.08)",
        dosolo_rel.scores.rel_micro.unwrap().f1 > scol_rel.scores.rel_micro.unwrap().f1,
    );
    r.check(
        "row shuffling degrades only mildly (paper: −0.56 type F1, here ≤ 8 pts)",
        (d_t - shuf_rows.scores.type_micro.f1) < 0.08,
    );
    r.check(
        "column shuffling roughly neutral (paper: +0.18 type F1, here |Δ| ≤ 8 pts)",
        (d_t - shuf_cols.scores.type_micro.f1).abs() < 0.08,
    );
    r.print();
    eprintln!("[table6] total elapsed {:?}", world.elapsed());
}
