//! Figure 5 — per-class F1 of Doduo vs Sato on VizNet, Full and
//! Multi-column-only variants.
//!
//! The paper's reading: Doduo is consistently at least as good as Sato on
//! nearly every class, and Sato collapses (zero or near-zero F1) on rare
//! classes (religion, education, organisation) while Doduo stays robust.

use doduo_baselines::{Sato, SatoConfig, SherlockConfig};
use doduo_bench::report::{pct, Report};
use doduo_bench::{ExpOptions, ModelSpec, Scale, Splits, World};
use doduo_core::Task;
use doduo_datagen::multi_column_only;
use doduo_eval::{class_support, per_class_prf};

fn variant(world: &World, splits: &Splits, tag: &str) -> (Vec<f64>, Vec<f64>, Vec<usize>) {
    let n_types = splits.train.type_vocab.len();
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
    let sato_f1: Vec<f64> = per_class_prf(&sato_p, &sato_g, n_types).iter().map(|p| p.f1).collect();

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
    let doduo_f1: Vec<f64> = per_class_prf(&dp, &dg, n_types).iter().map(|p| p.f1).collect();
    (doduo_f1, sato_f1, class_support(&dg, n_types))
}

fn main() {
    let opts = ExpOptions::from_args_for("Figure 5: per-class F1 on VizNet (Doduo vs Sato)");
    let world = World::bootstrap(opts);
    let full = world.viznet();
    let multi = Splits {
        train: multi_column_only(&full.train),
        valid: multi_column_only(&full.valid),
        test: multi_column_only(&full.test),
    };

    for (splits, tag, title) in [
        (&full, "full", "Figure 5 (Full): per-class F1, Doduo vs Sato"),
        (&multi, "multi", "Figure 5 (Multi-column only): per-class F1, Doduo vs Sato"),
    ] {
        let (doduo_f1, sato_f1, support) = variant(&world, splits, tag);
        let vocab = &splits.train.type_vocab;
        // Sort classes by Doduo F1 descending, as the figure does.
        let mut order: Vec<usize> = (0..vocab.len()).filter(|&c| support[c] > 0).collect();
        order.sort_by(|&a, &b| doduo_f1[b].partial_cmp(&doduo_f1[a]).expect("finite"));

        let mut r = Report::new(title, &["class", "support", "Doduo F1", "Sato F1"]);
        for &c in &order {
            r.row(&[
                vocab.name(c as u32).into(),
                support[c].to_string(),
                pct(doduo_f1[c]),
                pct(sato_f1[c]),
            ]);
        }
        let wins = order.iter().filter(|&&c| doduo_f1[c] >= sato_f1[c] - 1e-9).count();
        let sato_zero = order.iter().filter(|&&c| sato_f1[c] < 1e-9).count();
        let doduo_zero = order.iter().filter(|&&c| doduo_f1[c] < 1e-9).count();
        r.check(
            format!("Doduo >= Sato on a large majority of classes ({wins}/{})", order.len()),
            wins * 3 >= order.len() * 2,
        );
        r.check(
            format!("Doduo has <= as many zero-F1 classes as Sato ({doduo_zero} vs {sato_zero})"),
            doduo_zero <= sato_zero,
        );
        r.print();
    }
    eprintln!("[figure5] total elapsed {:?}", world.elapsed());
}
