//! Criterion micro-benchmarks for the hot substrate paths: a tape dense
//! layer and the GEMM kernels under it, fused attention and one whole
//! training step (`train_step/*`), checkpoint load and save
//! (`bundle_{load,save}_mini`), tokenization, table serialization,
//! Sherlock featurization, LDA inference and k-means. `cargo bench` runs
//! these; the per-table experiment *binaries* regenerate the paper's
//! numbers (`cargo run --release -p doduo-bench --bin table3 ...`).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use doduo_baselines::column_features;
use doduo_core::AnnotatorBundle;
use doduo_datagen::{
    generate_viznet, generate_wikitable, KbConfig, KnowledgeBase, VizNetConfig, WikiTableConfig,
};
use doduo_eval::kmeans;
use doduo_served::bootstrap::synthetic_world;
use doduo_table::{serialize_table, SerializeConfig};
use doduo_tensor::kernels::Tier;
use doduo_tensor::{
    kernels, quantize_row_u8, vmath, AttnBlock, Executor, Gradients, ParamStore, QuantScratch,
    QuantizedLinear, Tape, Tensor,
};
use doduo_tokenizer::{TrainConfig, WordPiece};
use doduo_transformer::{all_rows, BatchSeq, Encoder, EncoderConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn bench_matmul(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(0);
    let a = Tensor::randn(76, 96, 1.0, &mut rng);
    let b = Tensor::randn(96, 96, 1.0, &mut rng);
    // A tape dense layer forward and backward — `X W + b`, then `G Wᵀ`,
    // `Xᵀ G` and the bias sums behind a softmax cross-entropy (whose row
    // softmax is cheap beside the three products), what every trainer
    // records — beside the product's two kernels alone, so a regression in
    // either path or in the size policy shows up; the `gemm` bin sweeps the
    // full shape grid.
    let mut store = ParamStore::new();
    let (x, w) = (store.add("x", a.clone()), store.add("w", b.clone()));
    let bias = store.add_randn("b", 1, 96, 1.0, &mut rng);
    let targets: Vec<u32> = (0..76).collect();
    c.bench_function("linear_fwd_bwd_76x96x96", |bench| {
        bench.iter(|| {
            let mut tape = Tape::new(&store);
            let xn = tape.param(x);
            let y = tape.linear(xn, w, bias);
            let loss = tape.softmax_ce(y, &targets);
            let mut grads = Gradients::new(&store);
            tape.backward(loss, &mut grads);
            black_box(grads.get(w));
        })
    });
    c.bench_function("matmul_naive_76x96x96", |bench| {
        bench.iter(|| black_box(kernels::matmul_naive(black_box(&a), black_box(&b))))
    });
    c.bench_function("matmul_blocked_76x96x96", |bench| {
        bench.iter(|| black_box(kernels::matmul_blocked(black_box(&a), black_box(&b))))
    });
}

/// The encoder's widest dense product (`rows`×96×384) with B packed into
/// the thread's scratch on every call — a tape's weights — against the same
/// product over a [`kernels::PackedB`] packed once — what the serving
/// executor borrows from its `ParamStore`. 19 rows is `bulk_narrow`'s
/// sequence (where the constant packing is a quarter of the call), 166
/// `bulk_wide`'s (where it is amortised over the rows).
fn bench_dense_b_source(c: &mut Criterion) {
    // Every f32 cell of this file runs on this tier (`kernels::Tier`): the
    // micro-kernel, and the lane width of GELU.
    println!("f32 vector tier dispatched on this host: {}", kernels::Tier::detect().name());
    let mut rng = StdRng::seed_from_u64(2);
    let w = Tensor::randn(96, 384, 1.0, &mut rng);
    let panel = kernels::PackedB::pack(&w);
    for rows in [19usize, 166] {
        let x = Tensor::randn(rows, 96, 1.0, &mut rng);
        let mut y = vec![0.0f32; rows * 384];
        c.bench_function(&format!("dense_{rows}x96x384_per_call_pack"), |bench| {
            bench.iter(|| {
                let (x, w) = (kernels::View::of(black_box(&x)), kernels::View::of(black_box(&w)));
                kernels::gemm_nn(&mut y, 384, 0, (rows, 384, 96), x, w);
                black_box(&mut y);
            })
        });
        c.bench_function(&format!("dense_{rows}x96x384_borrowed_panel"), |bench| {
            bench.iter(|| {
                let x = kernels::View::of(black_box(&x));
                kernels::gemm_nn_packed(&mut y, 384, 0, rows, x, black_box(&panel), None);
                black_box(&mut y);
            })
        });
    }
}

/// `bulk_wide_int8`'s two FFN products at its 166 rows, `166×96×384` and
/// `166×384×96`, on each int8 vector tier the host has (`vnni`: the AVX-512
/// tile; `avx2`: its tile, forced), through `forward_into` with a held
/// [`QuantScratch`] so no allocation is timed: activation quantization, the
/// integer product and dequantization. Beside them the VNNI tier's
/// one-pass activation quantizer alone over `166×384`.
fn bench_int8_dense(c: &mut Criterion) {
    let int8 = Tier::detect_int8();
    println!("int8 tier dispatched on this host: {}", int8.name());
    let mut rng = StdRng::seed_from_u64(7);
    for (k, n) in [(96usize, 384usize), (384, 96)] {
        let q = QuantizedLinear::from_f32(
            &Tensor::randn(k, n, 0.1, &mut rng),
            &Tensor::randn(1, n, 0.1, &mut rng),
        );
        let x = Tensor::randn(166, k, 1.0, &mut rng);
        let mut y = vec![0.0f32; 166 * n];
        let mut scratch = QuantScratch::default();
        for (tier, name) in [(Tier::Avx512, "vnni"), (Tier::Avx2, "avx2")] {
            if tier > int8 {
                continue;
            }
            c.bench_function(&format!("int8_dense_166x{k}x{n}_{name}"), |bench| {
                bench.iter(|| {
                    q.forward_into_on(tier, black_box(x.data()), 166, &mut y, &mut scratch);
                    black_box(&mut y);
                })
            });
        }
    }
    if int8 == Tier::Avx512 {
        let x = Tensor::randn(166, 384, 1.0, &mut rng);
        let mut codes = vec![0u8; 166 * 384];
        c.bench_function("int8_quantize_166x384", |bench| {
            bench.iter(|| {
                for (row, out) in black_box(x.data()).chunks(384).zip(codes.chunks_mut(384)) {
                    black_box(quantize_row_u8(row, out));
                }
            })
        });
    }
}

/// One `mini`-shaped block on the serving executor (a one-layer encoder, so
/// its only block is the top one; the embedding gather and LayerNorm ride
/// along in both arms), computing every row against only the `[CLS]` rows
/// the heads read: `bulk_narrow`'s 19-token 2-column sequence and
/// `bulk_wide`'s 166-token 5-column one.
fn bench_encoder_top_block(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(4);
    let mut store = ParamStore::new();
    let cfg = EncoderConfig { layers: 1, ..EncoderConfig::mini(500) };
    let enc = Encoder::new(&mut store, cfg, "enc", &mut rng);
    for (len, n_cols) in [(19usize, 2usize), (166, 5)] {
        let ids: Vec<u32> = (0..len as u32).map(|i| 5 + i % 400).collect();
        let cls: Vec<u32> = (0..n_cols).map(|col| (col * len / n_cols) as u32).collect();
        let seq = std::iter::once(BatchSeq { ids: &ids, mask: None });
        c.bench_function(&format!("encoder_top_block_{len}x{n_cols}_all_rows"), |bench| {
            bench.iter(|| {
                let mut ex = Executor::new(&store);
                let out = enc.encode(&mut ex, seq.clone(), all_rows(), &mut rng);
                black_box(ex.value(&out));
            })
        });
        c.bench_function(&format!("encoder_top_block_{len}x{n_cols}_kept_rows"), |bench| {
            bench.iter(|| {
                let mut ex = Executor::new(&store);
                let keep = std::iter::once(Some(cls.as_slice()));
                let out = enc.encode(&mut ex, seq.clone(), keep, &mut rng);
                black_box(ex.value(&out));
            })
        });
    }
}

/// Single ops of one `mini` encoder block on the serving executor, at
/// `bulk_narrow`'s 19 and `bulk_wide`'s 166 rows: GELU over the FFN's
/// `[166, 384]` activation, LayerNorm over `[rows, 96]`, four-head
/// attention over a `[166, 288]` Q|K|V — every query row (`full`) and the
/// top block's five `[CLS]` rows only (`kept5`) — and, of that attention,
/// the four heads' `[166, 166]` softmax alone; beside them the FFN's first
/// dense layer with its bias (`Executor::linear`, on the store's panel).
/// Each consumed input is an embedding gather made in the untimed setup.
fn bench_executor_ops(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(5);
    let mut store = ParamStore::new();
    let act = store.add_randn("act", 166, 384, 1.0, &mut rng);
    let hid = store.add_randn("hid", 166, 96, 1.0, &mut rng);
    let qkv = store.add_randn("qkv", 166, 288, 0.3, &mut rng);
    let gamma = store.add_randn("gamma", 1, 96, 1.0, &mut rng);
    let beta = store.add_randn("beta", 1, 96, 1.0, &mut rng);
    let w1 = store.add_randn("w1", 96, 384, 0.1, &mut rng);
    let b1 = store.add_randn("b1", 1, 384, 0.1, &mut rng);
    let input = |param, rows: usize| {
        let mut ex = Executor::new(&store);
        let x = ex.embedding(param, rows, 0..rows as u32);
        (ex, x)
    };
    c.bench_function("gelu_166x384", |bench| {
        bench.iter_batched(
            || input(act, 166),
            |(mut ex, x)| {
                let y = ex.gelu(x);
                black_box(ex.value(&y));
            },
            BatchSize::SmallInput,
        )
    });
    for rows in [19usize, 166] {
        c.bench_function(&format!("layer_norm_{rows}x96"), |bench| {
            bench.iter_batched(
                || input(hid, rows),
                |(mut ex, x)| {
                    let y = ex.layer_norm(x, gamma, beta);
                    black_box(ex.value(&y));
                },
                BatchSize::SmallInput,
            )
        });
    }
    c.bench_function("dense_166x96x384_bias", |bench| {
        let (mut ex, x) = input(hid, 166);
        bench.iter(|| {
            let y = ex.linear(&x, w1, b1);
            black_box(ex.value(&y));
            ex.free(y);
        })
    });
    // Four heads' scores at `mini`'s 1/√24, softmaxed in place: each round
    // takes the last one's probabilities, and no step of the kernel
    // branches on a value.
    let mut scores = Tensor::randn(4 * 166, 166, 3.0, &mut rng).into_vec();
    c.bench_function("softmax_166x166_h4", |bench| {
        bench.iter(|| {
            vmath::softmax_rows_scaled(black_box(&mut scores), 166, 0.204_124_15, None);
        })
    });
    let cls: Vec<u32> = (0..5).map(|col| col * 166 / 5).collect();
    for (name, keep) in [("full", None), ("kept5", Some(cls.as_slice()))] {
        c.bench_function(&format!("attention_166_h4_{name}"), |bench| {
            bench.iter_batched(
                || input(qkv, 166),
                |(mut ex, x)| {
                    let block = AttnBlock { len: 166, mask: None, keep };
                    let y = ex.attention(x, 4, std::iter::once(block));
                    black_box(ex.value(&y));
                },
                BatchSize::SmallInput,
            )
        });
    }
}

fn bench_mha(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(1);
    let store = ParamStore::new();
    let qkv = Tensor::randn(76, 3 * 96, 0.3, &mut rng);
    c.bench_function("mha_fused_s76_d96_h4", |bench| {
        bench.iter_batched(
            || Tape::new(&store),
            |mut tape| {
                let qkv = tape.input(qkv.clone());
                black_box(tape.mha_batch_qkv(qkv, 4, &[None], None));
            },
            BatchSize::SmallInput,
        )
    });
}

/// One training step's tape work on the full `mini` encoder at `finetune`'s
/// shape — 52 tokens, 3 columns, dropout on: forward, a dense head and BCE
/// over the `[CLS]` rows, `backward` — with the top block computing and
/// differentiating every row then selecting (`all_rows`) against only the
/// rows the loss reads (`kept`, what the trainers record). Same loss and
/// gradient bits either way (`tests/grad_bits.rs`).
fn bench_train_step(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(6);
    let mut store = ParamStore::new();
    let enc = Encoder::new(&mut store, EncoderConfig::mini(500), "enc", &mut rng);
    let (w, b) =
        (store.add_randn("head.w", 96, 12, 0.02, &mut rng), store.add_zeros("head.b", 1, 12));
    let (len, n_cols) = (52usize, 3usize);
    let ids: Vec<u32> = (0..len as u32).map(|i| 5 + i % 400).collect();
    let cls: Vec<u32> = (0..n_cols).map(|col| (col * len / n_cols) as u32).collect();
    let targets = Tensor::zeros(n_cols, 12);
    let seq = std::iter::once(BatchSeq { ids: &ids, mask: None });
    for kept in [false, true] {
        let name = if kept { "train_step/kept" } else { "train_step/all_rows" };
        c.bench_function(name, |bench| {
            bench.iter(|| {
                let mut tape = Tape::new(&store);
                let cols = if kept {
                    let keep = std::iter::once(Some(cls.as_slice()));
                    enc.encode(&mut tape, seq.clone(), keep, &mut rng)
                } else {
                    let every_row = enc.encode(&mut tape, seq.clone(), all_rows(), &mut rng);
                    tape.row_select(every_row, &cls)
                };
                let logits = tape.linear(cols, w, b);
                let loss = tape.bce_logits_weighted(logits, &targets, 3.0);
                let mut grads = Gradients::new(&store);
                tape.backward(loss, &mut grads);
                black_box(grads.get(w));
            })
        });
    }
}

/// The `mini` checkpoint every replica boot, `POST /v1/model` swap and
/// benchmark workload starts from (the seeded serving world's, ~1.7 MB):
/// `load` is CRC, section parse and a model built from the weight records;
/// `save` is serialization and CRC.
fn bench_checkpoint(c: &mut Criterion) {
    let bundle = synthetic_world(true, 42).bundle;
    let blob = bundle.save();
    c.bench_function("bundle_load_mini", |bench| {
        bench.iter(|| black_box(AnnotatorBundle::load(black_box(&blob)).expect("own blob loads")))
    });
    c.bench_function("bundle_save_mini", |bench| bench.iter(|| black_box(bundle.save())));
    c.bench_function("quantize_mini", |bench| bench.iter(|| black_box(bundle.quantized())));
}

fn bench_tokenize_and_serialize(c: &mut Criterion) {
    let kb = KnowledgeBase::generate(&KbConfig::default(), 42);
    let ds = generate_wikitable(&kb, &WikiTableConfig { n_tables: 50, ..Default::default() });
    let corpus: Vec<String> = ds
        .tables
        .iter()
        .flat_map(|t| t.table.columns.iter())
        .flat_map(|col| col.values.iter().cloned())
        .collect();
    let tok = WordPiece::train(
        corpus.iter().map(String::as_str),
        &TrainConfig { merges: 500, min_pair_count: 2, max_word_len: 32 },
    );
    c.bench_function("wordpiece_encode_sentence", |bench| {
        bench.iter(|| {
            black_box(
                tok.encode(black_box("george miller directed the crimson horizon in westoria")),
            )
        })
    });
    let cfg = SerializeConfig::new(32, 192);
    c.bench_function("serialize_table_32tok", |bench| {
        bench.iter(|| black_box(serialize_table(black_box(&ds.tables[0].table), &tok, &cfg)))
    });
}

fn bench_sherlock_features(c: &mut Criterion) {
    let kb = KnowledgeBase::generate(&KbConfig::default(), 42);
    let ds = generate_viznet(&kb, &VizNetConfig { n_tables: 10, ..Default::default() });
    let col = &ds.tables[0].table.columns[0];
    c.bench_function("sherlock_column_features", |bench| {
        bench.iter(|| black_box(column_features(black_box(col))))
    });
}

fn bench_kmeans(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(3);
    let points: Vec<Vec<f32>> =
        (0..50).map(|_| Tensor::randn(1, 96, 1.0, &mut rng).into_vec()).collect();
    c.bench_function("kmeans_50x96_k15", |bench| {
        bench.iter(|| black_box(kmeans(black_box(&points), 15, 30, 7)))
    });
}

criterion_group!(
    benches,
    bench_matmul,
    bench_dense_b_source,
    bench_int8_dense,
    bench_encoder_top_block,
    bench_executor_ops,
    bench_mha,
    bench_train_step,
    bench_checkpoint,
    bench_tokenize_and_serialize,
    bench_sherlock_features,
    bench_kmeans
);
criterion_main!(benches);
