//! Table 4 — main results on the VizNet-style benchmark (single-label
//! column typing): Sherlock, Sato, Doduo, on both the Full dataset and the
//! Multi-column-only variant.
//!
//! Paper (macro / micro F1, %): Full — Sherlock 69.2/86.7, Sato 75.6/88.4,
//! Doduo 84.6/94.3. Multi-column only — Sherlock 64.2/87.9, Sato 73.5/92.5,
//! Doduo 83.8/96.4.

use doduo_baselines::{Sato, SatoConfig, SherlockConfig};
use doduo_bench::report::{pct, Report};
use doduo_bench::{run_sherlock, ExpOptions, ModelSpec, Scale, Splits, World};
use doduo_core::Task;
use doduo_datagen::multi_column_only;
use doduo_eval::{macro_f1, multi_label_micro};

fn eval_variant(world: &World, splits: &Splits, tag: &str) -> [(String, f64, f64); 3] {
    let n_types = splits.train.type_vocab.len();

    // Sherlock.
    let (sher_pred, sher_gold) = run_sherlock(splits, false, world.opts.scale, world.opts.seed);
    let sher_micro = multi_label_micro(&sher_pred, &sher_gold).f1;
    let sp: Vec<u32> = sher_pred.iter().map(|s| s[0]).collect();
    let sg: Vec<u32> = sher_gold.iter().map(|s| s[0]).collect();
    let sher_macro = macro_f1(&sp, &sg, n_types);

    // Sato.
    let sato = Sato::train(
        &splits.train,
        SatoConfig {
            mlp: SherlockConfig {
                epochs: if world.opts.scale == Scale::Full { 80 } else { 30 },
                seed: world.opts.seed,
                ..Default::default()
            },
            ..Default::default()
        },
    );
    let (sato_p, sato_g) = sato.predict_single(&splits.test);
    let sato_micro = doduo_eval::multi_class_micro(&sato_p, &sato_g).f1;
    let sato_macro = macro_f1(&sato_p, &sato_g, n_types);

    // Doduo (type task only — VizNet has no relation labels, §5.4).
    let cfg = world.train_config();
    let m = world.trained_model(
        &format!("viz-doduo-{tag}"),
        &ModelSpec::doduo(),
        splits,
        &[Task::ColumnType],
        false,
        &cfg,
    );
    let (dp, dg) = m.types.single_label();
    let doduo_micro = doduo_eval::multi_class_micro(&dp, &dg).f1;
    let doduo_macro = macro_f1(&dp, &dg, n_types);

    [
        ("Sherlock".to_string(), sher_macro, sher_micro),
        ("Sato".to_string(), sato_macro, sato_micro),
        ("Doduo".to_string(), doduo_macro, doduo_micro),
    ]
}

fn main() {
    let opts = ExpOptions::from_args_for(
        "Table 4: micro/macro-F1 on VizNet column types (Doduo vs Sherlock)",
    );
    let world = World::bootstrap(opts);
    let full = world.viznet();
    let multi = Splits {
        train: multi_column_only(&full.train),
        valid: multi_column_only(&full.valid),
        test: multi_column_only(&full.test),
    };

    let full_rows = eval_variant(&world, &full, "full");
    let multi_rows = eval_variant(&world, &multi, "multi");

    let paper_full = [("69.2", "86.7"), ("75.6", "88.4"), ("84.6", "94.3")];
    let paper_multi = [("64.2", "87.9"), ("73.5", "92.5"), ("83.8", "96.4")];

    let mut r = Report::new(
        "Table 4: VizNet macro/micro F1 (paper vs measured)",
        &["variant", "method", "macro F1", "micro F1", "paper macro", "paper micro"],
    );
    for (rows, papers, tag) in
        [(&full_rows, &paper_full, "Full"), (&multi_rows, &paper_multi, "Multi-col")]
    {
        for ((name, mac, mic), (p_mac, p_mic)) in rows.iter().zip(papers.iter()) {
            r.row(&[
                tag.into(),
                name.clone(),
                pct(*mac),
                pct(*mic),
                (*p_mac).into(),
                (*p_mic).into(),
            ]);
        }
    }

    for (rows, tag) in [(&full_rows, "Full"), (&multi_rows, "Multi-col")] {
        r.check(
            format!("{tag}: Doduo micro > Sato micro (paper: 94.3 > 88.4)"),
            rows[2].2 > rows[1].2,
        );
        r.check(
            format!("{tag}: Doduo macro > Sato macro (paper: 84.6 > 75.6)"),
            rows[2].1 > rows[1].1,
        );
        r.check(
            format!("{tag}: Sato >= Sherlock micro (paper: 88.4 > 86.7)"),
            rows[1].2 >= rows[0].2 - 0.02,
        );
    }
    r.print();
    eprintln!("[table4] total elapsed {:?}", world.elapsed());
}
