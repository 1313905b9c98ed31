//! Table 9 — the §7 case study: clustering semantically similar columns of
//! an enterprise HR database (10 jobsearch/review tables, ~50 columns,
//! 15 ground-truth clusters).
//!
//! Six methods, scored with Homogeneity (Precision) / Completeness (Recall)
//! / V-Measure (F1). Paper: Doduo+value emb 68.2/70.4/69.3,
//! Doduo+predicted type 44.9/61.3/51.8, fastText+value 35.9/76.6/48.9,
//! fastText+name 56.6/74.7/64.4, COMA 58.5/66.1/62.0,
//! DistributionBased 23.9/69.5/35.5.
//!
//! Key claims: contextualized embeddings win on Precision and F1; the Doduo
//! model transfers *out of domain* (trained on WikiTable, applied to HR
//! data); fastText's static embeddings over-merge (high recall, low
//! precision).

use doduo_baselines::{coma_matches, distribution_matches, FastText, FastTextConfig};
use doduo_bench::report::{pct, Report};
use doduo_bench::{ExpOptions, ModelSpec, World};
use doduo_core::{Annotator, Task};
use doduo_datagen::{generate_case_study, generate_corpus};
use doduo_eval::{completeness, connected_components, homogeneity, kmeans, v_measure};

type Hcv = (f64, f64, f64);

fn scores(gold: &[usize], pred: &[usize]) -> Hcv {
    (homogeneity(gold, pred), completeness(gold, pred), v_measure(gold, pred))
}

fn main() {
    let opts =
        ExpOptions::from_args_for("Table 9: clustering the columns of an HR database (case study)");
    let world = World::bootstrap(opts);

    // The Doduo model is trained on WikiTable (a *different domain*, §7).
    let splits = world.wikitable();
    let cfg = world.train_config();
    let doduo = world.trained_model(
        "wiki-doduo",
        &ModelSpec::doduo(),
        &splits,
        &[Task::ColumnType, Task::ColumnRelation],
        true,
        &cfg,
    );
    let annotator = Annotator {
        model: &doduo.model,
        store: &doduo.store,
        tokenizer: &world.lm.tokenizer,
        type_vocab: &splits.train.type_vocab,
        rel_vocab: &splits.train.rel_vocab,
    };

    let study = generate_case_study(&world.kb, world.opts.seed);
    let gold: Vec<usize> = study.columns.iter().map(|c| c.cluster as usize).collect();
    let k = doduo_datagen::ALL_CLUSTERS.len();
    let n_cols = gold.len();

    // --- Doduo + contextualized column value embeddings.
    let mut doduo_embs = Vec::with_capacity(n_cols);
    for table in &study.tables {
        doduo_embs.extend(annotator.column_embeddings(table));
    }
    let doduo_pred = kmeans(&doduo_embs, k, 100, world.opts.seed);

    // --- Doduo + predicted type as the cluster id.
    let mut type_pred = Vec::with_capacity(n_cols);
    for table in &study.tables {
        type_pred.extend(annotator.predicted_type_ids(table).into_iter().map(|t| t as usize));
    }

    // --- fastText embeddings (trained on the same pretraining corpus).
    let corpus = generate_corpus(&world.kb, world.opts.seed);
    let ft =
        FastText::train(&corpus, FastTextConfig { seed: world.opts.seed, ..Default::default() });
    let mut ft_value_embs = Vec::with_capacity(n_cols);
    let mut ft_name_embs = Vec::with_capacity(n_cols);
    for table in &study.tables {
        for col in &table.columns {
            ft_value_embs.push(ft.embed_column_values(&col.values));
            ft_name_embs.push(ft.embed_text(col.name.as_deref().unwrap_or("")));
        }
    }
    let ft_value_pred = kmeans(&ft_value_embs, k, 100, world.opts.seed);
    let ft_name_pred = kmeans(&ft_name_embs, k, 100, world.opts.seed);

    // --- Schema matchers → connected components.
    let coma_pred = connected_components(n_cols, &coma_matches(&study.tables, 0.55));
    let dist_pred = connected_components(n_cols, &distribution_matches(&study.tables, 0.35));

    let rows: Vec<(&str, Hcv, [&str; 3])> = vec![
        ("Doduo+column value emb", scores(&gold, &doduo_pred), ["68.2", "70.4", "69.3"]),
        ("Doduo+predicted type", scores(&gold, &type_pred), ["44.9", "61.3", "51.8"]),
        ("fastText+column value emb", scores(&gold, &ft_value_pred), ["35.9", "76.6", "48.9"]),
        ("fastText+column name emb", scores(&gold, &ft_name_pred), ["56.6", "74.7", "64.4"]),
        ("COMA (with column name)", scores(&gold, &coma_pred), ["58.5", "66.1", "62.0"]),
        ("DistributionBased", scores(&gold, &dist_pred), ["23.9", "69.5", "35.5"]),
    ];

    let mut r = Report::new(
        "Table 9: case-study column clustering (paper vs measured)",
        &["method", "Prec(H)", "Rec(C)", "F1(V)", "paper P", "paper R", "paper F1"],
    );
    for (name, (h, c, v), paper) in &rows {
        r.row(&[
            (*name).into(),
            pct(*h),
            pct(*c),
            pct(*v),
            paper[0].into(),
            paper[1].into(),
            paper[2].into(),
        ]);
    }

    let best_f1 = rows.iter().map(|r| r.1 .2).fold(f64::NEG_INFINITY, f64::max);
    r.check(
        "Doduo value embeddings have the best F1 (paper: 69.3 best)",
        (rows[0].1 .2 - best_f1).abs() < 1e-9,
    );
    r.check(
        "contextual embeddings beat predicted-type clustering (paper: 69.3 > 51.8)",
        rows[0].1 .2 > rows[1].1 .2,
    );
    r.check(
        "fastText value emb: recall > precision (over-merging, paper: 76.6 vs 35.9)",
        rows[2].1 .1 > rows[2].1 .0,
    );
    r.check(
        "Doduo value emb precision > fastText value emb precision (paper: 68.2 > 35.9)",
        rows[0].1 .0 > rows[2].1 .0,
    );
    r.check(
        "DistributionBased falls short on precision (paper: 23.9 lowest)",
        rows[5].1 .0 < rows[0].1 .0,
    );
    r.print();
    eprintln!("[table9] total elapsed {:?}", world.elapsed());
}
