//! What the serving forward costs besides arithmetic, pinned: a warm
//! engine thread allocates nothing for encoder + heads, an engine with one
//! thread never leaves its caller's, and only the f32 executor ever holds
//! packed weight panels — which then keep its dense layers out of the
//! per-call packing scratch.
//!
//! The binary installs a counting allocator (per-thread counts, so tests
//! running side by side do not see each other).

use doduo_core::{AnnotatorBundle, DoduoConfig, DoduoModel, Logits, TableAnnotation};
use doduo_datagen::{generate_wikitable, KbConfig, KnowledgeBase, WikiTableConfig};
use doduo_serve::{BatchAnnotator, BatchConfig};
use doduo_table::{SerializeConfig, SerializedTable, Table};
use doduo_tensor::{exec, kernels, ParamStore, Tape};
use doduo_tokenizer::{TrainConfig as TokTrain, WordPiece};
use doduo_transformer::EncoderConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::HashSet;
use std::sync::{Arc, Mutex};
use std::thread::{self, ThreadId};

struct CountingAlloc;

thread_local! {
    /// Allocator calls (alloc, alloc_zeroed, realloc) made by this thread.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // No destructor, so the slot outlives every allocation of its thread;
    // `try_with` only guards the allocator against ever panicking.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: defers every call to `System` unchanged; the only addition is a
// thread-local counter bump that neither allocates nor panics.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocator calls this thread makes while running `f`.
fn allocations<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCS.get();
    let out = f();
    (ALLOCS.get() - before, out)
}

/// A seeded corpus of WikiTable-style tables (1–4 columns) and a randomly
/// initialized table-wise model with a relation head.
fn world() -> (Arc<AnnotatorBundle>, Vec<Table>) {
    let kb = KnowledgeBase::generate(&KbConfig::default(), 11);
    let ds = generate_wikitable(
        &kb,
        &WikiTableConfig { n_tables: 24, min_rows: 2, max_rows: 3, seed: 11 },
    );
    let cells = ds.tables.iter().flat_map(|t| &t.table.columns).flat_map(|c| &c.values);
    let tok = WordPiece::train(
        cells.map(String::as_str),
        &TokTrain { merges: 300, min_pair_count: 2, max_word_len: 24 },
    );
    let mut store = ParamStore::new();
    let enc = EncoderConfig::tiny(tok.vocab_size());
    let max_seq = enc.max_seq;
    let cfg = DoduoConfig::new(enc, ds.type_vocab.len(), ds.rel_vocab.len().max(1), true)
        .with_serialize(SerializeConfig::new(8, max_seq));
    let model = DoduoModel::new(&mut store, cfg, "m", &mut StdRng::seed_from_u64(5));
    let tables = ds.tables.into_iter().map(|t| t.table).collect();
    (Arc::new(AnnotatorBundle::new(store, model, tok, ds.type_vocab, ds.rel_vocab, "m")), tables)
}

fn engine(bundle: &Arc<AnnotatorBundle>, threads: usize) -> BatchAnnotator {
    let cfg = BatchConfig { max_batch: 4, threads, ..BatchConfig::default() };
    BatchAnnotator::with_config(Arc::clone(bundle), cfg)
}

#[test]
fn steady_state_forward_allocates_nothing() {
    let (bundle, tables) = world();
    let engine = engine(&bundle, 1);
    let groups: Vec<Vec<SerializedTable>> =
        tables.iter().map(|t| engine.serialize_table(t)).collect();
    let all: Vec<&[SerializedTable]> = groups.iter().map(Vec::as_slice).collect();
    assert!(all.iter().any(|g| g[0].n_cols() > 1), "the warm-up must exercise the relation head");
    let annotator = bundle.annotator();
    let quantized = bundle.quantized();
    let checksum = |l: Logits<'_>| l.types.iter().chain(l.rels).sum::<f32>();

    for quant in [None, Some(&quantized)] {
        // One warm-up call at the largest size grows the arena, the GEMM
        // pack panels and (int8) the activation staging ...
        annotator.with_logits(quant, &all, checksum);
        // What it grew to is no more than before the top block stopped at
        // the `[CLS]` rows (137,824 pooled floats and a 1,156-float
        // attention scratch, either tier, on this world): the top layer's
        // buffers now hold a row per column, and the kept queries' scores
        // plus their gathered Q rows fit inside the lower blocks' `len²`.
        let (pool, scratch) = exec::arena_len();
        assert!(pool <= 137_824, "executor pool grew to {pool} floats");
        assert!(scratch <= 1_156, "attention scratch grew to {scratch} floats");
        // ... after which encoder + heads over the same micro-batch, or any
        // smaller one, never reach the allocator.
        for batch in [&all[..], &all[..7], &all[3..4], &all[10..]] {
            let (n, sum) = allocations(|| annotator.with_logits(quant, batch, checksum));
            assert!(sum.is_finite());
            assert_eq!(n, 0, "forward over {} tables allocated {n} times", batch.len());
        }

        // Building the returned annotations is the call's output: what it
        // allocates is bounded by the labels it returns, not by the tokens,
        // layers or ops of the forward that scored them.
        let (n, anns): (u64, Vec<TableAnnotation>) = allocations(|| match quant {
            None => annotator.annotate_serialized(&all),
            Some(q) => q.annotate_serialized(&annotator, &all),
        });
        let rows = |a: &TableAnnotation| a.types.len() + a.relations.len();
        let labels = |a: &TableAnnotation| {
            let types = a.types.iter().map(|t| t.labels.len());
            types.chain(a.relations.iter().map(|r| r.labels.len())).sum::<usize>()
        };
        let bound: usize = 8 + anns.iter().map(|a| 4 + 12 * rows(a) + labels(a)).sum::<usize>();
        assert!(n as usize <= bound, "annotating allocated {n} times, output bound {bound}");
    }
}

#[test]
fn only_the_f32_executor_builds_weight_panels() {
    let (bundle, tables) = world();
    let engine = engine(&bundle, 1);
    let groups: Vec<Vec<SerializedTable>> =
        tables.iter().map(|t| engine.serialize_table(t)).collect();
    let all: Vec<&[SerializedTable]> = groups.iter().map(Vec::as_slice).collect();
    let annotator = bundle.annotator();
    let store = &bundle.store;

    // A training tape's weights move every step: its dense layers pack per
    // call and never ask the store for a panel.
    let mut rng = StdRng::seed_from_u64(1);
    for st in groups.iter().flatten() {
        let mut tape = Tape::new(store);
        let logits = bundle.model.type_logits(&mut tape, st, &mut rng);
        assert!(tape.value(logits).data().iter().all(|v| v.is_finite()));
    }
    assert_eq!(store.panel_stats(), (0, 0), "a tape forward built a panel");

    // The int8 tier's encoder and heads are `QuantizedLinear`s with their
    // own packed codes: no f32 panel either.
    let quantized = bundle.quantized();
    let anns = quantized.annotate_serialized(&annotator, &all);
    assert_eq!(anns.len(), all.len());
    assert_eq!(store.panel_stats(), (0, 0), "an int8 forward built an f32 panel");

    // The f32 executor builds one per dense weight it multiplies by (where
    // dense layers run the packed kernel at all: it needs AVX2), and so
    // packs nothing for them. On a thread that has run nothing else, the
    // B-side scratch ends up holding what attention's per-head K and V
    // panels of the longest sequence need — less than any one of the
    // encoder's weight matrices would.
    let scratch = thread::scope(|s| {
        let forward = s.spawn(|| {
            annotator.annotate_serialized(&all);
            kernels::pack_scratch_len().1
        });
        forward.join().expect("forward thread")
    });
    let enc = &bundle.model.config().encoder;
    let (d, dh) = (enc.hidden, enc.hidden / enc.heads);
    let longest = groups.iter().flatten().map(|st| st.ids.len()).max().expect("tables");
    let attention_need = (longest.div_ceil(kernels::NR) * kernels::NR * dh)
        .max(dh.div_ceil(kernels::NR) * kernels::NR * longest);
    assert!(attention_need < d * d, "the bound must tell attention from a dense layer");
    assert!(
        scratch <= attention_need,
        "dense layers grew the B scratch: {scratch} floats, attention needs {attention_need}"
    );
    if kernels::Tier::detect() >= kernels::Tier::Avx2 {
        let (built, bytes) = store.panel_stats();
        assert!(built >= 6 * enc.layers, "{built} panels for {} layers", enc.layers);
        assert!(bytes >= enc.layers * (4 * d * d + 2 * d * enc.ffn) * 4);
    }
}

#[test]
fn single_engine_thread_runs_on_the_caller() {
    let (bundle, tables) = world();
    let one_by_one: Vec<TableAnnotation> =
        tables.iter().map(|t| bundle.annotator().annotate(t)).collect();
    let rendered = |a: &TableAnnotation| {
        let bits = |ls: &[(String, f32)]| {
            ls.iter().map(|(n, s)| format!("{n}={:08x}", s.to_bits())).collect::<Vec<_>>()
        };
        let types: Vec<_> = a.types.iter().map(|t| bits(&t.labels)).collect();
        let rels: Vec<_> = a.relations.iter().map(|r| (r.object, bits(&r.labels))).collect();
        format!("{types:?} {rels:?}")
    };
    let caller = thread::current().id();

    for threads in [1usize, 3] {
        let engine = engine(&bundle, threads);
        let groups: Vec<Vec<SerializedTable>> =
            tables.iter().map(|t| engine.serialize_table(t)).collect();
        let seen: Mutex<HashSet<ThreadId>> = Mutex::new(HashSet::new());
        let done: Vec<Mutex<Option<String>>> = tables.iter().map(|_| Mutex::new(None)).collect();
        engine.annotate_groups_each(&groups, &|i, ann| {
            seen.lock().expect("seen lock").insert(thread::current().id());
            let old = done[i].lock().expect("slot lock").replace(rendered(&ann));
            assert!(old.is_none(), "table {i} delivered twice");
        });

        let seen = seen.into_inner().expect("seen lock");
        assert!(seen.contains(&caller), "stripe 0 runs on the calling thread");
        if threads == 1 {
            assert_eq!(seen.len(), 1, "one engine thread must not spawn: {seen:?}");
        } else {
            assert!(seen.len() <= threads, "caller + at most {} workers: {seen:?}", threads - 1);
        }
        for (i, (slot, want)) in done.into_iter().zip(&one_by_one).enumerate() {
            let got = slot.into_inner().expect("slot lock").expect("every table delivered");
            assert_eq!(got, rendered(want), "table {i} with {threads} engine thread(s)");
        }
    }
}
