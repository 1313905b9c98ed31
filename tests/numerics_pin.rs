//! Pins the numerics to literals: the first tier-1 test that fails when a
//! value depends on the host rather than on (code, seed).
//!
//! Four digests, so a mismatch says where to look. The first covers the
//! in-repo transcendentals alone — `+ - * /` and bit casts on a fixed grid,
//! a pure function of `vmath`'s code on every host, vector tier and libm.
//! The second covers the bytes the system renders for `ci/smoke_table.json`
//! from the seeded synthetic world, f32 and int8: it also rides on weight
//! initialisation (`Tensor::randn` still calls libm's `ln`/`cos`), the GEMM
//! tiers and the JSON float formatting. The third covers the backward
//! pass: a short seeded MLM + two-task fine-tune (dropout on, Adam steps)
//! on that same world, digested as the checkpoint it would save — the
//! only test faster than `repro --only tables` that notices a moved
//! gradient bit. The fourth covers the training paths the third does not
//! take: the single-label loss only VizNet trains, the single-column
//! (DosoloSCol) relation head and the Sherlock MLP. Beside the digests, the
//! seeded world's checkpoint CRC is pinned: it is half of every
//! `x-model-version` label. Regenerate a literal only with a change that
//! means to move values, and name it in CHANGES.md.

use doduo_baselines::{featurize, Sherlock, SherlockConfig};
use doduo_core::{
    blob_crc, prepare, train, AnnotatorBundle, DoduoConfig, DoduoModel, InputMode, Task,
    TrainConfig,
};
use doduo_datagen::{
    generate_viznet, generate_wikitable, KbConfig, KnowledgeBase, VizNetConfig, WikiTableConfig,
};
use doduo_serve::BatchConfig;
use doduo_served::bootstrap::synthetic_world;
use doduo_served::validate::{offline_response, offline_response_quant};
use doduo_served::Lifecycle;
use doduo_table::SerializeConfig;
use doduo_tensor::{serialize, vmath, ParamStore};
use doduo_tokenizer::{TrainConfig as TokTrain, WordPiece};
use doduo_transformer::{pretrain_mlm, EncoderConfig, MlmConfig, MlmHead};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes
        .into_iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ b as u64).wrapping_mul(0x100_0000_01b3))
}

#[test]
fn transcendental_kernels_match_their_pinned_digest() {
    // 4,001 points of [-20, 20] (exact multiples of 0.01 would not be
    // representable; i/100 rounds the same everywhere), a length that
    // leaves a tail behind the lane arrays.
    let grid: Vec<f32> = (-2000..=2000).map(|i| i as f32 / 100.0).collect();
    let mut out = Vec::new();
    for kernel in [vmath::exp, vmath::tanh, vmath::sigmoid, vmath::gelu, vmath::softmax_row] {
        let mut v = grid.clone();
        kernel(&mut v);
        out.extend(v);
    }
    let mut g = vec![1.0f32; grid.len()];
    vmath::gelu_grad(&mut g, &grid);
    out.extend(g);
    let digest = fnv1a(out.iter().flat_map(|v| v.to_bits().to_le_bytes()));
    assert_eq!(digest, 0x7739_6191_9a7a_5ea1, "vmath results moved: {digest:#018x}");
}

#[test]
fn smoke_table_annotation_matches_its_pinned_digest() {
    let world = synthetic_world(true, 42);
    let body = include_str!("../ci/smoke_table.json");
    let f32_bytes = offline_response(&world.bundle, body).expect("f32 annotate");
    let int8_bytes = offline_response_quant(&world.bundle, body).expect("int8 annotate");
    let digests = (fnv1a(f32_bytes.bytes()), fnv1a(int8_bytes.bytes()));
    assert_eq!(
        digests,
        (0xc35e_49da_dbbd_b97a, 0x69ad_faf3_e570_c123),
        "(f32, int8) responses moved: {digests:#018x?}\nf32: {f32_bytes}\nint8: {int8_bytes}"
    );
}

/// The seeded world's checkpoint CRC is the fingerprint half of the daemon's
/// `x-model-version` label, so it is pinned like the bytes. A `--synthetic`
/// boot (the bundle serializes itself once) and a `--checkpoint` boot of
/// the same model (the CRC its file was verified against) report one label.
#[test]
fn synthetic_and_checkpoint_boots_report_the_pinned_model_version() {
    let world = synthetic_world(true, 42);
    let blob = world.bundle.save();
    let crc = blob_crc(&blob).expect("a saved bundle has a header CRC");
    assert_eq!(crc, 0xbb37_af60, "the seeded world's checkpoint CRC moved: {crc:#010x}");
    let boot = |bundle| Lifecycle::new(bundle, BatchConfig::default()).current().label();
    let from_file = Arc::new(AnnotatorBundle::load(&blob).expect("own checkpoint loads"));
    assert_eq!(boot(world.bundle.clone()), format!("1-{crc:08x}"), "--synthetic");
    assert_eq!(boot(from_file), format!("1-{crc:08x}"), "--checkpoint");
}

#[test]
fn seeded_training_matches_its_pinned_digest() {
    // The world's own labelled corpus (same knowledge base, same generator
    // config, so label ids line up with the model's heads): 16 tables to
    // train on, 4 to validate.
    let world = synthetic_world(true, 42);
    let kb = KnowledgeBase::generate(&KbConfig::default(), 42);
    let mut train_ds = generate_wikitable(
        &kb,
        &WikiTableConfig { n_tables: 64, min_rows: 4, max_rows: 8, seed: 42 },
    );
    let mut valid_ds = train_ds.clone();
    valid_ds.tables.drain(..16);
    valid_ds.tables.truncate(4);
    train_ds.tables.truncate(16);

    let mut bundle = AnnotatorBundle::load(&world.bundle.save()).expect("own checkpoint loads");
    let train_p = prepare(&bundle.model, &train_ds, &bundle.tokenizer);
    let valid_p = prepare(&bundle.model, &valid_ds, &bundle.tokenizer);
    assert!(!train_p.rels.is_empty(), "the relation task must take steps too");

    // Four MLM steps over the training sequences. The head lives outside
    // the model's parameter prefix, so the checkpoint below holds exactly
    // the model's weights.
    let cfg = bundle.model.config().encoder.clone();
    let head = MlmHead::new(&mut bundle.store, &cfg, "pin", &mut StdRng::seed_from_u64(42));
    let seqs: Vec<Vec<u32>> = train_p.types.iter().take(8).map(|ex| ex.st.ids.clone()).collect();
    let mlm = MlmConfig { epochs: 2, batch_size: 4, threads: 2, ..MlmConfig::default() };
    pretrain_mlm(&bundle.model.encoder, &head, &mut bundle.store, &seqs, &mlm);

    // One epoch of Algorithm 1 over both tasks: two optimizer steps each.
    let tc = TrainConfig { epochs: 1, batch_size: 8, threads: 2, ..TrainConfig::default() };
    let tasks = [Task::ColumnType, Task::ColumnRelation];
    train(&bundle.model, &mut bundle.store, &train_p, &valid_p, &tasks, &tc);

    let digest = fnv1a(bundle.save());
    assert_eq!(digest, 0x5311_6dde_f467_7382, "trained checkpoint moved: {digest:#018x}");
}

#[test]
fn single_label_single_column_and_sherlock_training_match_their_pinned_digest() {
    let kb = KnowledgeBase::generate(&KbConfig::default(), 42);
    let viznet = generate_viznet(&kb, &VizNetConfig { n_tables: 12, ..VizNetConfig::default() });
    let wiki = generate_wikitable(
        &kb,
        &WikiTableConfig { n_tables: 12, min_rows: 2, max_rows: 4, seed: 42 },
    );
    let corpus = (viznet.tables.iter().chain(&wiki.tables))
        .flat_map(|t| t.table.columns.iter())
        .flat_map(|c| c.values.iter().map(String::as_str));
    let tok =
        WordPiece::train(corpus, &TokTrain { merges: 200, min_pair_count: 2, max_word_len: 24 });

    // One epoch each, from seeded tiny models, digested as per-task losses,
    // validation F1s and the trained weights: table-wise Doduo on VizNet
    // (single-label, so every type loss is `softmax_ce`), then two-task
    // DosoloSCol on WikiTable (one sequence per column and per relation
    // pair, so relations run through `rel_logits_single`).
    let runs = [
        (&viznet, InputMode::TableWise, false, &[Task::ColumnType][..]),
        (&wiki, InputMode::SingleColumn, true, &[Task::ColumnType, Task::ColumnRelation][..]),
    ];
    let mut bytes = Vec::new();
    for (ds, mode, multi_label, tasks) in runs {
        let enc = EncoderConfig::tiny(tok.vocab_size());
        let max_seq = enc.max_seq;
        let cfg =
            DoduoConfig::new(enc, ds.type_vocab.len(), ds.rel_vocab.len().max(1), multi_label)
                .with_input_mode(mode)
                .with_serialize(SerializeConfig::new(8, max_seq));
        let mut store = ParamStore::new();
        let model = DoduoModel::new(&mut store, cfg, "m", &mut StdRng::seed_from_u64(42));
        let data = prepare(&model, ds, &tok);
        let tc = TrainConfig { epochs: 1, batch_size: 4, threads: 2, ..TrainConfig::default() };
        let report = train(&model, &mut store, &data, &data, tasks, &tc);
        let epoch = &report.epochs[0];
        assert!(epoch.task_losses.iter().all(|(_, l)| l.is_finite()), "every task takes steps");
        bytes.extend(epoch.task_losses.iter().flat_map(|(_, l)| l.to_bits().to_le_bytes()));
        bytes.extend(epoch.valid.type_micro.f1.to_bits().to_le_bytes());
        bytes.extend(epoch.valid.rel_micro.map_or(0, |r| r.f1.to_bits()).to_le_bytes());
        bytes.extend_from_slice(&serialize::save(&store));
    }

    // Sherlock on the same VizNet columns: its epoch losses and weights.
    let mut store = ParamStore::new();
    let sherlock_cfg = SherlockConfig { epochs: 2, threads: 2, ..SherlockConfig::default() };
    let sherlock = Sherlock::new(
        &mut store,
        viznet.type_vocab.len(),
        sherlock_cfg,
        &mut StdRng::seed_from_u64(42),
    );
    let losses = sherlock.train(&mut store, &featurize(&viznet));
    bytes.extend(losses.iter().flat_map(|l| l.to_bits().to_le_bytes()));
    bytes.extend_from_slice(&serialize::save(&store));

    let digest = fnv1a(bytes);
    assert_eq!(digest, 0xe4fa_1b46_eee2_3ce9, "trained weights moved: {digest:#018x}");
}
