//! Table 8 — input-data efficiency on WikiTable: Doduo trained with
//! different `MaxToken/col` budgets.
//!
//! Paper: 8 tokens → 89.8 type / 88.9 rel F1 (56 max cols @ 512);
//! 16 → 91.4 / 90.7 (30); 32 → 92.4 / 91.7 (15). The claim: 8 tokens per
//! column already beat the TURL baseline for type prediction.

use doduo_bench::report::{pct, Report};
use doduo_bench::{ExpOptions, ModelSpec, World};
use doduo_core::Task;
use doduo_table::SerializeConfig;

fn main() {
    let opts = ExpOptions::from_args_for("Table 8: WikiTable F1 vs the MaxToken/col budget");
    let world = World::bootstrap(opts);
    let splits = world.wikitable();
    let cfg = world.train_config();
    let both = [Task::ColumnType, Task::ColumnRelation];

    let paper: &[(usize, &str, &str, usize)] =
        &[(8, "89.8", "88.9", 56), (16, "91.4", "90.7", 30), (32, "92.4", "91.7", 15)];

    // TURL reference for the "8 tokens already beat TURL" claim.
    let turl = world.trained_model("wiki-turl", &ModelSpec::turl(), &splits, &both, true, &cfg);

    let mut r = Report::new(
        "Table 8: MaxToken/col sweep on WikiTable (paper vs measured)",
        &[
            "budget",
            "type F1",
            "rel F1",
            "max cols (ours)",
            "paper type",
            "paper rel",
            "max cols (paper@512)",
        ],
    );
    let mut results = Vec::new();
    for &(budget, p_type, p_rel, p_cols) in paper {
        let m = world.trained_model(
            &format!("wiki-doduo-b{budget}"),
            &ModelSpec::doduo().with_budget(budget),
            &splits,
            &both,
            true,
            &cfg,
        );
        let ours_cols = SerializeConfig::new(budget, world.lm.config.max_seq).max_supported_cols();
        r.row(&[
            budget.to_string(),
            pct(m.scores.type_micro.f1),
            pct(m.scores.rel_micro.unwrap().f1),
            ours_cols.to_string(),
            p_type.into(),
            p_rel.into(),
            p_cols.to_string(),
        ]);
        results.push((budget, m.scores.type_micro.f1, m.scores.rel_micro.unwrap().f1));
    }

    r.check(
        "more tokens help type F1: 32 >= 8 (paper: 92.4 > 89.8)",
        results[2].1 >= results[0].1 - 0.01,
    );
    r.check(
        "more tokens help rel F1: 32 >= 8 (paper: 91.7 > 88.9)",
        results[2].2 >= results[0].2 - 0.01,
    );
    r.check(
        "8 tokens/col already competitive with TURL on types (paper: 89.8 > 88.86)",
        results[0].1 > turl.scores.type_micro.f1 - 0.03,
    );
    r.check(
        "relations need more tokens than types (paper: rel catches TURL only at 32)",
        (results[2].2 - results[0].2) >= (results[2].1 - results[0].1) - 0.02,
    );
    r.print();
    eprintln!("[table8] total elapsed {:?}", world.elapsed());
}
