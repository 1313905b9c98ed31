//! Figure 6 — inter-column dependency from attention analysis (Appendix
//! A.4): last-layer `[CLS]`→`[CLS]` attention averaged over heads and
//! tables, normalized by type co-occurrence so the reference point is zero.
//!
//! The paper's reading: the matrix is asymmetric (e.g. `age` relies on
//! `origin` but not vice versa) — the model learned directional
//! inter-column dependencies that raw co-occurrence cannot explain.

use doduo_bench::report::Report;
use doduo_bench::{ExpOptions, ModelSpec, Splits, World};
use doduo_core::{attention_dependency, Task};
use doduo_datagen::multi_column_only;

fn main() {
    let opts = ExpOptions::from_args_for("Figure 6: inter-column dependency from attention");
    let world = World::bootstrap(opts);
    let full = world.viznet();
    let splits = Splits {
        train: multi_column_only(&full.train),
        valid: multi_column_only(&full.valid),
        test: multi_column_only(&full.test),
    };
    let cfg = world.train_config();
    let m = world.trained_model(
        "viz-doduo-multi",
        &ModelSpec::doduo(),
        &splits,
        &[Task::ColumnType],
        false,
        &cfg,
    );

    let acc = attention_dependency(&m.model, &m.store, &splits.test, &world.lm.tokenizer);
    let matrix = acc.normalized();
    let n = acc.n_types();
    let vocab = &splits.train.type_vocab;

    // Strongest positive dependencies.
    let mut entries: Vec<(usize, usize, f64)> = Vec::new();
    for i in 0..n {
        for j in 0..n {
            let v = matrix[i * n + j];
            if i != j && v.is_finite() {
                entries.push((i, j, v));
            }
        }
    }
    entries.sort_by(|a, b| b.2.partial_cmp(&a.2).expect("finite"));

    let mut r = Report::new(
        "Figure 6: strongest inter-column attention dependencies (top 15)",
        &["relies-on (y)", "source (x)", "normalized weight"],
    );
    for &(i, j, v) in entries.iter().take(15) {
        r.row(&[vocab.name(i as u32).into(), vocab.name(j as u32).into(), format!("{v:+.4}")]);
    }

    // Asymmetry statistics (the paper's headline observation).
    let mut asym = 0usize;
    let mut pairs = 0usize;
    for i in 0..n {
        for j in (i + 1)..n {
            let a = matrix[i * n + j];
            let b = matrix[j * n + i];
            if a.is_finite() && b.is_finite() {
                pairs += 1;
                if (a - b).abs() > 0.01 {
                    asym += 1;
                }
            }
        }
    }
    r.check(
        format!("dependencies are asymmetric for many pairs ({asym}/{pairs} with |Δ|>0.01)"),
        pairs > 0 && asym * 4 >= pairs,
    );
    r.check(
        format!("matrix covers many co-occurring type pairs ({} observed)", acc.observed_pairs()),
        acc.observed_pairs() >= 20,
    );
    r.check(
        "positive and negative dependencies both exist (centered at 0)",
        entries.first().map(|e| e.2 > 0.0).unwrap_or(false)
            && entries.last().map(|e| e.2 < 0.0).unwrap_or(false),
    );
    r.print();
    eprintln!("[figure6] total elapsed {:?}", world.elapsed());
}
