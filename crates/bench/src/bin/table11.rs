//! Table 11 — MaxToken/col sweep on VizNet (Full): Doduo vs DosoloSCol at
//! budgets 8 / 16 / 32.
//!
//! Paper (macro / micro F1, %): Doduo 81.0/92.5, 83.6/93.6, 83.4/94.2;
//! DosoloSCol 72.7/87.2, 76.1/89.1, 77.4/90.2. Claims: Doduo at 8 tokens
//! already beats Sato (88.4 micro); the multi-column gap persists at every
//! budget because self-attention captures inter-column context.

use doduo_bench::report::{pct, Report};
use doduo_bench::{ExpOptions, ModelSpec, World};
use doduo_core::Task;
use doduo_eval::macro_f1;

fn main() {
    let opts = ExpOptions::from_args_for(
        "Table 11: VizNet F1 vs the MaxToken/col budget (Doduo vs DosoloSCol)",
    );
    let world = World::bootstrap(opts);
    let splits = world.viznet();
    let cfg = world.train_config();
    let n_types = splits.train.type_vocab.len();

    let paper: &[(&str, usize, &str, &str)] = &[
        ("Doduo", 8, "81.0", "92.5"),
        ("Doduo", 16, "83.6", "93.6"),
        ("Doduo", 32, "83.4", "94.2"),
        ("DosoloSCol", 8, "72.7", "87.2"),
        ("DosoloSCol", 16, "76.1", "89.1"),
        ("DosoloSCol", 32, "77.4", "90.2"),
    ];

    let mut r = Report::new(
        "Table 11: VizNet MaxToken/col sweep (paper vs measured)",
        &["method", "budget", "macro F1", "micro F1", "paper macro", "paper micro"],
    );
    let mut measured = Vec::new();
    for &(name, budget, pm, pi) in paper {
        let spec = match name {
            "Doduo" => ModelSpec::doduo().with_budget(budget),
            _ => ModelSpec::single_column().with_budget(budget),
        };
        // Budget 32 rows reuse the Table 4 / Table 7 checkpoints.
        let key = match (name, budget) {
            ("Doduo", 32) => "viz-doduo-full".to_string(),
            ("DosoloSCol", 32) => "viz-scol".to_string(),
            _ => format!("viz-{}-b{budget}", name.to_lowercase()),
        };
        let m = world.trained_model(&key, &spec, &splits, &[Task::ColumnType], false, &cfg);
        let (p, g) = m.types.single_label();
        let micro = doduo_eval::multi_class_micro(&p, &g).f1;
        let mac = macro_f1(&p, &g, n_types);
        r.row(&[name.into(), budget.to_string(), pct(mac), pct(micro), pm.into(), pi.into()]);
        measured.push((name, budget, mac, micro));
    }

    for budget in [8usize, 16, 32] {
        let doduo = measured.iter().find(|m| m.0 == "Doduo" && m.1 == budget).unwrap();
        let scol = measured.iter().find(|m| m.0 == "DosoloSCol" && m.1 == budget).unwrap();
        r.check(
            format!(
                "budget {budget}: Doduo micro > DosoloSCol micro (paper holds at every budget)"
            ),
            doduo.3 > scol.3,
        );
    }
    let d8 = measured.iter().find(|m| m.0 == "Doduo" && m.1 == 8).unwrap();
    let d32 = measured.iter().find(|m| m.0 == "Doduo" && m.1 == 32).unwrap();
    r.check("Doduo@8 already close to Doduo@32 micro (paper: 92.5 vs 94.2)", d32.3 - d8.3 < 0.1);
    r.print();
    eprintln!("[table11] total elapsed {:?}", world.elapsed());
}
