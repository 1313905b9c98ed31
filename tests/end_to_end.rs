//! Cross-crate integration tests: the full DODUO pipeline at miniature
//! scale — knowledge base → corpus → pretrained LM → fine-tuned annotator →
//! predictions on raw tables.

use doduo_core::{
    build_finetune_model, evaluate, prepare, pretrain_lm, train, Annotator, DoduoConfig,
    PretrainRecipe, Task, TrainConfig,
};
use doduo_datagen::{
    generate_case_study, generate_corpus, generate_wikitable, KbConfig, KnowledgeBase,
    WikiTableConfig,
};
use doduo_eval::{kmeans, v_measure};
use doduo_table::SerializeConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;

struct Pipeline {
    lm: doduo_core::PretrainedLm,
    kb: KnowledgeBase,
    train_ds: doduo_table::Dataset,
    valid_ds: doduo_table::Dataset,
    test_ds: doduo_table::Dataset,
    store: doduo_tensor::ParamStore,
    model: doduo_core::DoduoModel,
}

/// One shared miniature pipeline (pretraining + fine-tuning are the
/// expensive parts, so tests share a lazily-built instance).
fn pipeline() -> &'static Pipeline {
    use std::sync::OnceLock;
    static PIPE: OnceLock<Pipeline> = OnceLock::new();
    PIPE.get_or_init(|| {
        let seed = 42;
        let kb = KnowledgeBase::generate(&KbConfig::default(), seed);
        let corpus = generate_corpus(&kb, seed);
        let mut recipe = PretrainRecipe::tiny();
        recipe.mlm.epochs = 12;
        let lm = pretrain_lm(&corpus, &recipe, seed);
        let ds = generate_wikitable(
            &kb,
            &WikiTableConfig { n_tables: 220, min_rows: 2, max_rows: 4, seed },
        );
        let mut rng = StdRng::seed_from_u64(seed);
        let (train_ds, valid_ds, test_ds) = ds.split(0.75, 0.1, &mut rng);
        let (mut store, model) = build_finetune_model(
            &lm,
            |enc| {
                let max_seq = enc.max_seq;
                DoduoConfig::new(enc, train_ds.type_vocab.len(), train_ds.rel_vocab.len(), true)
                    .with_serialize(SerializeConfig::new(8, max_seq))
            },
            seed,
        );
        let train_p = prepare(&model, &train_ds, &lm.tokenizer);
        let valid_p = prepare(&model, &valid_ds, &lm.tokenizer);
        train(
            &model,
            &mut store,
            &train_p,
            &valid_p,
            &[Task::ColumnType, Task::ColumnRelation],
            &TrainConfig { epochs: 40, batch_size: 8, lr: 3e-3, ..Default::default() },
        );
        Pipeline { lm, kb, train_ds, valid_ds, test_ds, store, model }
    })
}

#[test]
fn fine_tuned_model_generalizes_to_held_out_tables() {
    let p = pipeline();
    let test_p = prepare(&p.model, &p.test_ds, &p.lm.tokenizer);
    let scores = evaluate(&p.model, &p.store, &test_p, doduo_tensor::default_threads());
    assert!(scores.type_micro.f1 > 0.55, "held-out type F1 too low: {}", scores.type_micro.f1);
    let rel = scores.rel_micro.expect("relation task was trained");
    assert!(rel.f1 > 0.45, "held-out relation F1 too low: {}", rel.f1);
}

#[test]
fn annotator_handles_raw_unseen_tables() {
    let p = pipeline();
    let annotator = Annotator {
        model: &p.model,
        store: &p.store,
        tokenizer: &p.lm.tokenizer,
        type_vocab: &p.train_ds.type_vocab,
        rel_vocab: &p.train_ds.rel_vocab,
    };
    // A hand-built film table with the full Figure 2(a) shape
    // (film / director / producer / country).
    let f = &p.kb.films[3];
    let g = &p.kb.films[4];
    let table = doduo_table::Table::new(
        "unseen",
        vec![
            doduo_table::Column::new(vec![f.title.clone(), g.title.clone()]),
            doduo_table::Column::new(vec![
                p.kb.person_name(f.directors[0]).to_string(),
                p.kb.person_name(g.directors[0]).to_string(),
            ]),
            doduo_table::Column::new(vec![
                p.kb.person_name(f.producers[0]).to_string(),
                p.kb.person_name(g.producers[0]).to_string(),
            ]),
            doduo_table::Column::new(vec![
                p.kb.country_name(f.country).to_string(),
                p.kb.country_name(g.country).to_string(),
            ]),
        ],
    );
    let ann = annotator.annotate(&table);
    assert_eq!(ann.types.len(), 4);
    assert_eq!(ann.relations.len(), 3);
    // The film column should be typed film.film among the top labels.
    let film_labels: Vec<&str> = ann.types[0].labels.iter().map(|(n, _)| n.as_str()).collect();
    assert!(film_labels.contains(&"film.film"), "film column labels: {film_labels:?}");
    // The person column should carry people.person.
    let person_labels: Vec<&str> = ann.types[1].labels.iter().map(|(n, _)| n.as_str()).collect();
    assert!(person_labels.contains(&"people.person"), "person column labels: {person_labels:?}");
}

#[test]
fn contextual_embeddings_cluster_hr_columns_better_than_chance() {
    let p = pipeline();
    let annotator = Annotator {
        model: &p.model,
        store: &p.store,
        tokenizer: &p.lm.tokenizer,
        type_vocab: &p.train_ds.type_vocab,
        rel_vocab: &p.train_ds.rel_vocab,
    };
    let study = generate_case_study(&p.kb, 42);
    let gold: Vec<usize> = study.columns.iter().map(|c| c.cluster as usize).collect();
    let mut embs = Vec::new();
    for table in &study.tables {
        embs.extend(annotator.column_embeddings(table));
    }
    let pred = kmeans(&embs, 15, 100, 1);
    let v = v_measure(&gold, &pred);
    // Random assignment scores near 0.35-0.45 V-measure for 15 clusters of
    // ~50 items; contextual embeddings must do clearly better.
    assert!(v > 0.5, "case-study v-measure too low: {v}");
}

#[test]
fn validation_checkpointing_returns_best_scores() {
    // The multi-task trainer must hand back the best-validation weights:
    // re-evaluating equals the recorded best.
    let p = pipeline();
    let valid_p = prepare(&p.model, &p.valid_ds, &p.lm.tokenizer);
    let scores = evaluate(&p.model, &p.store, &valid_p, 4);
    assert!(scores.type_micro.f1 > 0.5, "valid type F1 {}", scores.type_micro.f1);
}
