//! Learning sanity on VizNet: the single-label training path can fit a
//! small training set it sees every epoch.
//!
//! Doduo scores far below Sherlock, Sato and its own single-column variant
//! (DosoloSCol) on VizNet while the same encoder and recipe do well on
//! WikiTable. VizNet is the only dataset that trains the single-label
//! `softmax_ce` loss and decodes by argmax, so this test asks whether that
//! path learns at all: both models, from scratch, must overfit 20 tables
//! (50 columns, 78 types). Passing rules out the trainer's single-label
//! loss and decoding as the cause of the gap.

use doduo_core::{
    predict_types, prepare, train, DoduoConfig, DoduoModel, InputMode, Prepared, Task, TrainConfig,
};
use doduo_datagen::{generate_viznet, KbConfig, KnowledgeBase, VizNetConfig};
use doduo_tensor::ParamStore;
use doduo_tokenizer::{TrainConfig as TokTrain, WordPiece};
use doduo_transformer::EncoderConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Train micro-F1 after 60 epochs of `mode` on 20 VizNet tables.
fn train_f1(mode: InputMode) -> f64 {
    let kb = KnowledgeBase::generate(&KbConfig::default(), 42);
    let ds = generate_viznet(&kb, &VizNetConfig { n_tables: 20, ..VizNetConfig::default() });
    assert_eq!((ds.n_columns(), ds.type_vocab.len()), (50, 78));
    let values = ds.tables.iter().flat_map(|t| t.table.columns.iter()).flat_map(|c| &c.values);
    let tok = WordPiece::train(
        values.map(String::as_str),
        &TokTrain { merges: 400, min_pair_count: 2, max_word_len: 24 },
    );

    let cfg =
        DoduoConfig::new(EncoderConfig::tiny(tok.vocab_size()), 78, 1, false).with_input_mode(mode);
    let mut store = ParamStore::new();
    let model = DoduoModel::new(&mut store, cfg, "m", &mut StdRng::seed_from_u64(42));
    let data = prepare(&model, &ds, &tok);
    let none = Prepared { types: Vec::new(), rels: Vec::new(), rels_single: Vec::new() };
    let tc = TrainConfig {
        epochs: 60,
        batch_size: 4,
        lr: 5e-3,
        threads: 2,
        select_best: false,
        ..TrainConfig::default()
    };
    let report = train(&model, &mut store, &data, &none, &[Task::ColumnType], &tc);
    let loss = |epoch: usize| report.epochs[epoch].task_losses[0].1;
    assert!(loss(59) < loss(0), "{mode:?} loss {} -> {}", loss(0), loss(59));
    predict_types(&model, &store, &data.types, 2).micro().f1
}

#[test]
fn table_wise_doduo_overfits_twenty_viznet_tables() {
    let f1 = train_f1(InputMode::TableWise);
    assert!(f1 >= 0.95, "table-wise train micro-F1 {f1}");
}

#[test]
fn dosolo_scol_overfits_twenty_viznet_tables() {
    let f1 = train_f1(InputMode::SingleColumn);
    assert!(f1 >= 0.7, "single-column train micro-F1 {f1}");
}
