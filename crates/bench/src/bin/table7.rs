//! Table 7 — ablation on VizNet (Full): Doduo vs the single-column
//! DosoloSCol.
//!
//! Paper (macro / micro F1, %): Doduo 84.6/94.3, DosoloSCol 77.4/90.2 —
//! and DosoloSCol still outperforms Sato, showing how strong the pretrained
//! LM is even without table context.

use doduo_bench::report::{pct, Report};
use doduo_bench::{ExpOptions, ModelSpec, World};
use doduo_core::Task;
use doduo_eval::macro_f1;

fn main() {
    let opts = ExpOptions::from_args_for("Table 7: single-column vs multi-column input");
    let world = World::bootstrap(opts);
    let splits = world.viznet();
    let cfg = world.train_config();
    let n_types = splits.train.type_vocab.len();

    let mut rows = Vec::new();
    for (name, spec, key) in [
        ("Doduo", ModelSpec::doduo(), "viz-doduo-full"),
        ("DosoloSCol", ModelSpec::single_column(), "viz-scol"),
    ] {
        let m = world.trained_model(key, &spec, &splits, &[Task::ColumnType], false, &cfg);
        let (p, g) = m.types.single_label();
        let micro = doduo_eval::multi_class_micro(&p, &g).f1;
        let mac = macro_f1(&p, &g, n_types);
        rows.push((name, mac, micro));
    }

    let mut r = Report::new(
        "Table 7: VizNet (Full) ablation (paper vs measured)",
        &["method", "macro F1", "micro F1", "paper macro", "paper micro"],
    );
    let paper = [("84.6", "94.3"), ("77.4", "90.2")];
    for ((name, mac, mic), (pm, pi)) in rows.iter().zip(paper.iter()) {
        r.row(&[(*name).into(), pct(*mac), pct(*mic), (*pm).into(), (*pi).into()]);
    }
    r.check(
        "multi-column beats single-column on micro F1 (paper: 94.3 > 90.2)",
        rows[0].2 > rows[1].2,
    );
    r.check(
        "multi-column beats single-column on macro F1 (paper: 84.6 > 77.4)",
        rows[0].1 > rows[1].1,
    );
    r.print();
    eprintln!("[table7] total elapsed {:?}", world.elapsed());
}
