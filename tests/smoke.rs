//! Build-guard smoke test: a seeded, tiny, from-scratch model trains one
//! mini epoch through `doduo_core::trainer` and `Annotator` predictions
//! round-trip — same input twice, and through a checkpoint save/load —
//! so silent API breakage anywhere on the train → annotate → serialize
//! path fails fast without the cost of the full end-to-end suite.

use doduo_core::{
    prepare, train, Annotator, DoduoConfig, DoduoModel, Task, TrainConfig, ENC_PREFIX,
};
use doduo_datagen::{generate_wikitable, KbConfig, KnowledgeBase, WikiTableConfig};
use doduo_table::{Dataset, SerializeConfig};
use doduo_tensor::serialize::{save, Records};
use doduo_tensor::ParamStore;
use doduo_tokenizer::{TrainConfig as TokTrainConfig, WordPiece};
use doduo_transformer::EncoderConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn tiny_setup() -> (WordPiece, Dataset, Dataset) {
    let kb = KnowledgeBase::generate(&KbConfig::default(), 11);
    let ds = generate_wikitable(
        &kb,
        &WikiTableConfig { n_tables: 24, min_rows: 2, max_rows: 3, seed: 11 },
    );
    let cells: Vec<String> = ds
        .tables
        .iter()
        .flat_map(|t| t.table.columns.iter())
        .flat_map(|c| c.values.iter().cloned())
        .collect();
    let tok = WordPiece::train(
        cells.iter().map(String::as_str),
        &TokTrainConfig { merges: 120, min_pair_count: 1, max_word_len: 24 },
    );
    let mut rng = StdRng::seed_from_u64(11);
    let (train_ds, valid_ds, _test) = ds.split(0.8, 0.2, &mut rng);
    (tok, train_ds, valid_ds)
}

fn tiny_model(tok: &WordPiece, ds: &Dataset, seed: u64) -> (ParamStore, DoduoModel) {
    let enc = EncoderConfig::tiny(tok.vocab_size());
    let max_seq = enc.max_seq;
    let cfg = DoduoConfig::new(enc, ds.type_vocab.len(), ds.rel_vocab.len(), true)
        .with_serialize(SerializeConfig::new(4, max_seq));
    let mut store = ParamStore::new();
    let mut rng = StdRng::seed_from_u64(seed);
    let model = DoduoModel::new(&mut store, cfg, ENC_PREFIX, &mut rng);
    (store, model)
}

#[test]
fn one_epoch_train_and_annotate_roundtrip() {
    let (tok, train_ds, valid_ds) = tiny_setup();
    let (mut store, model) = tiny_model(&tok, &train_ds, 5);

    // One mini epoch of Algorithm 1 on both tasks must run end to end and
    // produce finite losses.
    let train_p = prepare(&model, &train_ds, &tok);
    let valid_p = prepare(&model, &valid_ds, &tok);
    let report = train(
        &model,
        &mut store,
        &train_p,
        &valid_p,
        &[Task::ColumnType, Task::ColumnRelation],
        &TrainConfig { epochs: 1, batch_size: 4, threads: 2, ..Default::default() },
    );
    assert_eq!(report.epochs.len(), 1);
    for &(_, loss) in &report.epochs[0].task_losses {
        assert!(loss.is_finite(), "non-finite epoch loss: {loss}");
    }

    // Annotations must be well-formed: one prediction per column, scores in
    // [0, 1] sorted descending, and every label drawn from the vocabularies.
    let annotator = Annotator {
        model: &model,
        store: &store,
        tokenizer: &tok,
        type_vocab: &train_ds.type_vocab,
        rel_vocab: &train_ds.rel_vocab,
    };
    let table = &train_ds.tables[0].table;
    let ann = annotator.annotate(table);
    assert_eq!(ann.types.len(), table.n_cols());
    let type_names: Vec<&str> =
        (0..train_ds.type_vocab.len()).map(|i| train_ds.type_vocab.name(i as u32)).collect();
    let rel_names: Vec<&str> =
        (0..train_ds.rel_vocab.len()).map(|i| train_ds.rel_vocab.name(i as u32)).collect();
    for tp in &ann.types {
        assert!(!tp.labels.is_empty());
        for w in tp.labels.windows(2) {
            assert!(w[0].1 >= w[1].1, "scores not sorted: {:?}", tp.labels);
        }
        for (name, score) in &tp.labels {
            assert!((0.0..=1.0).contains(score), "score out of range: {score}");
            assert!(type_names.contains(&name.as_str()), "unknown type label {name:?}");
        }
    }
    if table.n_cols() > 1 {
        assert_eq!(ann.relations.len(), table.n_cols() - 1);
    }
    for rp in &ann.relations {
        for (name, score) in &rp.labels {
            assert!((0.0..=1.0).contains(score), "score out of range: {score}");
            assert!(rel_names.contains(&name.as_str()), "unknown rel label {name:?}");
        }
    }

    // Round-trip 1: annotation is deterministic for the same input.
    let again = annotator.annotate(table);
    assert_eq!(format!("{ann:?}"), format!("{again:?}"), "annotate() must be deterministic");

    // Round-trip 2: predictions survive a checkpoint save/load — a second
    // model of the same configuration built from the saved weight records.
    let blob = save(&store);
    let mut records = Records::parse(&blob).expect("checkpoint must parse");
    let mut store2 = ParamStore::new();
    let model2 = DoduoModel::new(&mut store2, model.config().clone(), ENC_PREFIX, &mut records);
    records.finish().expect("every parameter must round-trip");
    let annotator2 = Annotator {
        model: &model2,
        store: &store2,
        tokenizer: &tok,
        type_vocab: &train_ds.type_vocab,
        rel_vocab: &train_ds.rel_vocab,
    };
    let reloaded = annotator2.annotate(table);
    assert_eq!(
        format!("{ann:?}"),
        format!("{reloaded:?}"),
        "annotations must round-trip through save/load"
    );
}
