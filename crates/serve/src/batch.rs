//! The batched annotation engine.
//!
//! [`BatchAnnotator::annotate_batch`] turns a slice of tables into
//! annotations in four deterministic stages:
//!
//! 1. serialize every table, memoizing per-column tokenization in the
//!    [`TokenCache`](crate::TokenCache);
//! 2. order tables by sequence length (longest first) so micro-batches
//!    carry similar-sized work items (packing is ragged — composition
//!    never changes compute, only scheduling balance);
//! 3. cut the ordered list into micro-batches of at most
//!    [`BatchConfig::max_batch`] sequences;
//! 4. stripe micro-batches across the calling thread and
//!    [`BatchConfig::threads`]` − 1` scoped workers, each running
//!    `Annotator::annotate_serialized` (one packed, tape-free forward per
//!    micro-batch on the thread's executor arena), and scatter results back
//!    into input order. With one engine thread — a one-core host, the
//!    daemon's dispatcher — no thread is created per call, so the arena,
//!    the GEMM pack panels and the allocator stay warm between calls.
//!
//! Stages 2–4 never change the numbers — only how they are scheduled — so
//! the output is bit-identical to sequential `Annotator::annotate` calls.
//!
//! With [`BatchConfig::quant`] set, stage 4 dispatches through an int8
//! [`QuantizedModel`] instead. The scheduling guarantee is unchanged —
//! quantized activations are per-row and integer accumulation is exact, so
//! batch composition and thread count still never change the numbers — but
//! the numbers themselves are the quantized tier's, not the f32 reference's.
//!
//! The engine *owns* its model: construction takes an
//! `Arc<AnnotatorBundle>`, not a borrowed [`Annotator`]. That makes a whole
//! engine a swappable unit — the serving daemon hot-swaps models by
//! building a fresh `BatchAnnotator` around a new bundle and exchanging one
//! `Arc` for another, while in-flight batches keep annotating on the engine
//! (and therefore the exact model) they started with.

use crate::cache::{CacheStats, TokenCache};
use doduo_core::{Annotator, AnnotatorBundle, InputMode, QuantizedModel, TableAnnotation};
use doduo_table::{
    assemble_single_column, assemble_table_wise, column_tokens, single_column_budget,
    table_wise_budget, SerializedTable, Table,
};
use std::cmp::Reverse;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};

/// Tuning knobs for [`BatchAnnotator`].
#[derive(Clone, Debug)]
pub struct BatchConfig {
    /// Maximum sequences packed into one forward pass (tables in table-wise
    /// mode, columns in single-column mode). Bigger batches amortize more
    /// per-pass overhead.
    pub max_batch: usize,
    /// Maximum total tokens packed into one forward pass. Packed
    /// activations are `[tokens, hidden]`; on CPU, keeping them inside the
    /// cache hierarchy is worth more than amortizing a few more tape
    /// setups, so batches are cut at whichever bound (`max_batch`,
    /// `max_batch_tokens`) hits first. The default is tuned for per-core
    /// cache sizes; raise it on accelerators where big uniform launches
    /// win.
    pub max_batch_tokens: usize,
    /// Threads to fan micro-batches across, the calling thread included.
    pub threads: usize,
    /// Columns the tokenization cache keeps resident.
    pub cache_capacity: usize,
    /// Opt-in int8 inference: when `true`, the dense layers run the
    /// quantized kernels (built once from the f32 weights at construction)
    /// instead of the bit-identical f32 path. Accuracy-gated rather than
    /// bit-equal — see the two-tier numerics policy in
    /// `doduo_tensor::quant`.
    pub quant: bool,
}

impl Default for BatchConfig {
    fn default() -> Self {
        BatchConfig {
            max_batch: 32,
            max_batch_tokens: 192,
            threads: doduo_tensor::default_threads(),
            cache_capacity: 4096,
            quant: false,
        }
    }
}

/// A multi-table, multi-threaded front end over a trained model: same
/// results as single-table annotation, serving throughput. Owns its
/// [`AnnotatorBundle`] behind an `Arc`, so the whole engine — weights,
/// tokenizer, vocabularies, caches, and the optional int8 twin — is one
/// swappable unit.
pub struct BatchAnnotator {
    bundle: Arc<AnnotatorBundle>,
    cfg: BatchConfig,
    cache: Mutex<TokenCache>,
    /// Present iff [`BatchConfig::quant`]: the int8 twin every micro-batch
    /// dispatches through instead of the f32 annotator. Rebuilt from the
    /// new bundle's f32 weights on every hot-swap, so both tiers always
    /// answer from the same model version.
    quant: Option<QuantizedModel>,
}

impl BatchAnnotator {
    /// Wraps a bundle with the default [`BatchConfig`].
    pub fn new(bundle: Arc<AnnotatorBundle>) -> Self {
        Self::with_config(bundle, BatchConfig::default())
    }

    /// Wraps a bundle with explicit batching/threading/caching knobs.
    /// When [`BatchConfig::quant`] is set, the int8 model is quantized
    /// here, once, from the bundle's f32 weights.
    pub fn with_config(bundle: Arc<AnnotatorBundle>, cfg: BatchConfig) -> Self {
        let cache = Mutex::new(TokenCache::new(cfg.cache_capacity));
        let quant = cfg.quant.then(|| bundle.quantized());
        BatchAnnotator { bundle, cfg, cache, quant }
    }

    /// A borrowed single-table annotator over the owned bundle.
    pub fn annotator(&self) -> Annotator<'_> {
        self.bundle.annotator()
    }

    /// The owned bundle (shared, not cloned).
    pub fn bundle(&self) -> &Arc<AnnotatorBundle> {
        &self.bundle
    }

    /// The active configuration.
    pub fn config(&self) -> &BatchConfig {
        &self.cfg
    }

    /// Tokenization-cache counters (hits, misses, occupancy).
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.lock().expect("cache lock").stats()
    }

    /// Whether micro-batches run the int8 path instead of f32.
    pub fn is_quantized(&self) -> bool {
        self.quant.is_some()
    }

    /// Annotates every table, returning annotations in input order that are
    /// bit-identical to calling `Annotator::annotate` per table.
    pub fn annotate_batch(&self, tables: &[Table]) -> Vec<TableAnnotation> {
        // Stage 1: serialize through the tokenization cache. Cheap relative
        // to the forward passes, so it stays on the calling thread.
        let groups: Vec<Vec<SerializedTable>> =
            tables.iter().map(|t| self.serialize_table(t)).collect();
        self.annotate_groups(&groups)
    }

    /// Stages 2–4 of [`BatchAnnotator::annotate_batch`] over pre-serialized
    /// tables (one group per table, as produced by
    /// [`BatchAnnotator::serialize_table`]). Split out so callers that must
    /// know sequence sizes *before* committing to a batch — the
    /// `doduo-served` daemon's token-budget queue serializes on its
    /// connection threads, then batches whatever the dispatcher drained —
    /// reuse the exact same scheduling and keep its bit-identical guarantee.
    pub fn annotate_groups(&self, groups: &[Vec<SerializedTable>]) -> Vec<TableAnnotation> {
        let slots: Vec<Mutex<Option<TableAnnotation>>> =
            (0..groups.len()).map(|_| Mutex::new(None)).collect();
        self.annotate_groups_each(groups, &|i, ann| {
            *slots[i].lock().expect("slot lock") = Some(ann);
        });
        slots
            .into_iter()
            .map(|s| s.into_inner().expect("slot lock").expect("every table annotated"))
            .collect()
    }

    /// Like [`BatchAnnotator::annotate_groups`], but delivers each group's
    /// annotation through `on_done(group_index, annotation)` *as soon as its
    /// micro-batch finishes* instead of waiting for the whole call. The
    /// callback runs on whichever thread completed the micro-batch — the
    /// caller's own for stripe 0, always so with one engine thread (hence
    /// `Sync`) — at most once per group, with indices into `groups`.
    /// Streaming front ends (the daemon's `/annotate_stream`) use this to
    /// push per-table results while later micro-batches are still running;
    /// the annotations themselves are bit-identical to
    /// `Annotator::annotate`, exactly as in the collecting variant.
    pub fn annotate_groups_each(
        &self,
        groups: &[Vec<SerializedTable>],
        on_done: &(dyn Fn(usize, TableAnnotation) + Sync),
    ) {
        if groups.is_empty() {
            return;
        }
        // Stage 2: longest-first order groups similar lengths together so
        // micro-batches are comparable units of work for the stripe.
        let mut order: Vec<usize> = (0..groups.len()).collect();
        order.sort_by_key(|&i| Reverse(groups[i].iter().map(SerializedTable::len).max()));

        // Stage 3: micro-batches bounded by sequence count and total tokens
        // (always at least one table per batch, even if a table alone
        // exceeds a bound).
        let max_batch = self.cfg.max_batch.max(1);
        let max_tokens = self.cfg.max_batch_tokens.max(1);
        let mut batches: Vec<Vec<usize>> = Vec::new();
        let mut cur: Vec<usize> = Vec::new();
        let (mut cur_seqs, mut cur_tokens) = (0usize, 0usize);
        for &i in &order {
            let n = groups[i].len();
            let t: usize = groups[i].iter().map(SerializedTable::len).sum();
            if !cur.is_empty() && (cur_seqs + n > max_batch || cur_tokens + t > max_tokens) {
                batches.push(std::mem::take(&mut cur));
                cur_seqs = 0;
                cur_tokens = 0;
            }
            cur.push(i);
            cur_seqs += n;
            cur_tokens += t;
        }
        if !cur.is_empty() {
            batches.push(cur);
        }

        // Stage 4: stripe micro-batches across the calling thread (stripe 0)
        // and `threads - 1` scoped workers sharing the read-only parameter
        // store, delivering each group's annotation the moment its
        // micro-batch completes. With one engine thread nothing is spawned:
        // the caller's executor arena, GEMM pack panels and allocator stay
        // warm from one call to the next.
        let threads = self.cfg.threads.clamp(1, batches.len());
        let annotator = self.bundle.annotator();
        let run_stripe = |w: usize| {
            for batch in batches.iter().skip(w).step_by(threads) {
                let sliced: Vec<&[SerializedTable]> =
                    batch.iter().map(|&i| groups[i].as_slice()).collect();
                let anns = match &self.quant {
                    Some(qm) => qm.annotate_serialized(&annotator, &sliced),
                    None => annotator.annotate_serialized(&sliced),
                };
                for (&i, ann) in batch.iter().zip(anns) {
                    on_done(i, ann);
                }
            }
        };
        std::thread::scope(|scope| {
            let run_stripe = &run_stripe;
            let handles: Vec<_> =
                (1..threads).map(|w| scope.spawn(move || run_stripe(w))).collect();
            run_stripe(0);
            for h in handles {
                h.join().expect("annotation worker panicked");
            }
        });
    }

    /// Serializes one table exactly as `DoduoModel::serialize_for_types`
    /// would, but sourcing per-column tokens from the LRU cache. Public so
    /// serving front ends can measure a table's token cost (for batching
    /// budgets) while warming the cache the later forward pass will hit.
    pub fn serialize_table(&self, table: &Table) -> Vec<SerializedTable> {
        let cfg = self.bundle.model.config();
        let ser = &cfg.serialize;
        match cfg.input_mode {
            InputMode::TableWise => {
                let budget = table_wise_budget(ser, table.n_cols());
                let toks: Vec<Arc<Vec<u32>>> = (0..table.n_cols())
                    .map(|c| self.cached_column(table, c, budget, ser.include_metadata))
                    .collect();
                let slices: Vec<&[u32]> = toks.iter().map(|t| t.as_slice()).collect();
                vec![assemble_table_wise(&slices)]
            }
            InputMode::SingleColumn => {
                let budget = single_column_budget(ser);
                (0..table.n_cols())
                    .map(|c| {
                        assemble_single_column(&self.cached_column(
                            table,
                            c,
                            budget,
                            ser.include_metadata,
                        ))
                    })
                    .collect()
            }
        }
    }

    /// Cached [`column_tokens`]: the key is the serialized column text plus
    /// everything tokenization depends on (budget and metadata flag), so
    /// equal columns under equal policies share one cache entry. Each text
    /// fragment is length-prefixed, so no cell content (including
    /// separator-like characters) can make two distinct columns collide.
    fn cached_column(
        &self,
        table: &Table,
        col: usize,
        budget: usize,
        include_metadata: bool,
    ) -> Arc<Vec<u32>> {
        let column = &table.columns[col];
        // Sized for the whole key (each fragment carries a short length
        // prefix), so building it is one allocation.
        let name_len = column.name.as_ref().map_or(0, String::len);
        let mut key = String::with_capacity(
            32 + name_len + column.values.iter().map(|v| v.len() + 6).sum::<usize>(),
        );
        // (`write!` into a `String` cannot fail.)
        let _ = write!(key, "b{budget}|m{}|", include_metadata as u8);
        if include_metadata {
            if let Some(name) = &column.name {
                let _ = write!(key, "n{}:{name}", name.len());
            }
        }
        for v in &column.values {
            let _ = write!(key, "|{}:{v}", v.len());
        }
        self.cache.lock().expect("cache lock").get_or_insert_with(&key, || {
            column_tokens(table, col, &self.bundle.tokenizer, budget, include_metadata)
        })
    }
}
