//! The staged replay of one engine call, shared by every inference
//! workload's traced run, and the per-layer metrics derived from it.
//!
//! One call (`serialize_table` per table, then `annotate_groups`) is timed
//! at its public seam; everything below that seam is replayed afterwards, a
//! layer at a time, on the same inputs: tokenization (`column_tokens`, `WordPiece::
//! encode`, `assemble_table_wise`), each micro-batch through
//! `annotate_serialized`, through `forward_batch`, and through the encoder
//! op by op. In the bulk workloads the seam spans are real; in the daemon
//! workloads the whole call is itself a replay, laid inside the client's
//! wait for the response.

use crate::common::{same_annotation, well_formed};
use crate::metrics::Outcome;
use crate::replay::{
    assert_same_bits, cut_microbatches, forward_batch_reference, EncoderReplay, OpTimes,
};
use crate::trace::{SpanId, Trace, NO_PARENT};
use doduo_core::{AnnotatorBundle, QuantizedModel, TableAnnotation};
use doduo_serve::BatchAnnotator;
use doduo_table::{assemble_table_wise, column_tokens, table_wise_budget, SerializedTable, Table};
use doduo_transformer::QuantEncoder;
use std::time::Instant;

/// Counts taken where the replayed work happens.
#[derive(Clone, Copy, Debug, Default)]
struct Counts {
    tokenizer_tokens: u64,
    seqs: u64,
    seq_tokens: u64,
    microbatches: u64,
    /// Token-cache lookups and hits of the seam calls alone.
    cache_lookups: u64,
    cache_hits: u64,
    tape_nodes: u64,
    gemm_flops: u64,
}

/// One engine call as timed at its seam, kept so that its layers can be
/// replayed later without disturbing the next call's timing.
pub struct Call {
    groups: Vec<Vec<SerializedTable>>,
    pub anns: Vec<TableAnnotation>,
    annotate_groups: SpanId,
}

pub struct StagedReplay<'a> {
    engine: &'a BatchAnnotator,
    bundle: &'a AnnotatorBundle,
    qmodel: Option<QuantizedModel>,
    qencoder: Option<QuantEncoder>,
    encoder: EncoderReplay<'a>,
    counts: Counts,
    /// Outputs that were malformed or that the layer-by-layer replay did
    /// not reproduce.
    pub failed: u64,
}

fn ns_since(start: Instant) -> u64 {
    start.elapsed().as_nanos() as u64
}

impl<'a> StagedReplay<'a> {
    pub fn new(engine: &'a BatchAnnotator) -> StagedReplay<'a> {
        let bundle: &AnnotatorBundle = engine.bundle();
        let int8 = engine.is_quantized();
        StagedReplay {
            engine,
            bundle,
            qmodel: int8.then(|| bundle.quantized()),
            qencoder: int8
                .then(|| QuantEncoder::from_encoder(&bundle.model.encoder, &bundle.store)),
            encoder: EncoderReplay::new(bundle, int8),
            counts: Counts::default(),
            failed: 0,
        }
    }

    fn core_name(&self) -> &'static str {
        if self.qmodel.is_some() {
            "core.quant_annotate_serialized"
        } else {
            "core.annotate_serialized"
        }
    }

    fn fwd_name(&self) -> &'static str {
        if self.qmodel.is_some() {
            "transformer.quant_forward_batch"
        } else {
            "transformer.forward_batch"
        }
    }

    /// Runs one engine call over `tables`, timed at its seam. With
    /// `seam_is_real` the two seam spans are recorded where they happened
    /// under `parent`; otherwise they are re-based into `parent` like any
    /// other replayed span. Returns what [`StagedReplay::replay`] needs and
    /// when the call returned.
    pub fn seam(
        &mut self,
        trace: &mut Trace,
        op: u32,
        parent: SpanId,
        seam_is_real: bool,
        tables: &[Table],
    ) -> (Call, Instant) {
        let cache0 = self.engine.cache_stats();
        let t0 = Instant::now();
        let groups: Vec<Vec<SerializedTable>> =
            tables.iter().map(|t| self.engine.serialize_table(t)).collect();
        let t1 = Instant::now();
        let anns = self.engine.annotate_groups(&groups);
        let t2 = Instant::now();
        let cache1 = self.engine.cache_stats();
        self.counts.cache_hits += cache1.hits - cache0.hits;
        self.counts.cache_lookups += (cache1.hits + cache1.misses) - (cache0.hits + cache0.misses);
        let annotate_groups = if seam_is_real {
            trace.real(op, "serve.serialize_table", parent, t0, t1);
            trace.real(op, "serve.annotate_groups", parent, t1, t2)
        } else {
            trace.replayed(op, "serve.serialize_table", parent, t0, (t1 - t0).as_nanos() as u64);
            trace.replayed(op, "serve.annotate_groups", parent, t1, (t2 - t1).as_nanos() as u64)
        };
        (Call { groups, anns, annotate_groups }, t2)
    }

    /// Replays the layers below the seam of `call` (which ran over
    /// `tables`) and checks that they reproduce its outputs.
    pub fn replay(&mut self, trace: &mut Trace, op: u32, call: &Call, tables: &[Table]) {
        self.replay_tokenization(trace, op, tables);
        let replayed = self.replay_microbatches(trace, op, call.annotate_groups, &call.groups);
        let has_rel = !self.bundle.rel_vocab.is_empty();
        for ((ann, rep), t) in call.anns.iter().zip(&replayed).zip(tables) {
            let ok = well_formed(ann, t.n_cols(), has_rel)
                && rep.as_ref().is_some_and(|r| same_annotation(r, ann));
            self.failed += u64::from(!ok);
        }
    }

    /// Tokenization replayed whether or not the token cache skipped it in
    /// the call, as detached spans: `table.column_tokens` with the time in
    /// `WordPiece::encode` as its child, and `table.assemble`.
    fn replay_tokenization(&mut self, trace: &mut Trace, op: u32, tables: &[Table]) {
        let bundle = self.bundle;
        let ser = &bundle.model.config().serialize;
        let tok = &bundle.tokenizer;
        for t in tables {
            let budget = table_wise_budget(ser, t.n_cols());
            let start = Instant::now();
            let toks: Vec<Vec<u32>> = (0..t.n_cols())
                .map(|c| column_tokens(t, c, tok, budget, ser.include_metadata))
                .collect();
            let ct = trace.replayed(op, "table.column_tokens", NO_PARENT, start, ns_since(start));

            // The same walk as `column_tokens`, timing only the encoder.
            let mut encode_ns = 0u64;
            for col in &t.columns {
                let mut have = 0usize;
                for v in &col.values {
                    if budget > 0 && have >= budget {
                        break;
                    }
                    let s = Instant::now();
                    let ids = std::hint::black_box(tok.encode(v));
                    encode_ns += ns_since(s);
                    have += ids.len();
                    self.counts.tokenizer_tokens += ids.len() as u64;
                }
            }
            trace.replayed(op, "tokenizer.encode", ct, start, encode_ns);

            let start = Instant::now();
            std::hint::black_box(assemble_table_wise(&toks));
            trace.replayed(op, "table.assemble", NO_PARENT, start, ns_since(start));
        }
    }

    /// The micro-batches the engine cut from `groups`, each through
    /// `annotate_serialized`, `forward_batch` and the op-by-op encoder.
    fn replay_microbatches(
        &mut self,
        trace: &mut Trace,
        op: u32,
        annotate_groups: SpanId,
        groups: &[Vec<SerializedTable>],
    ) -> Vec<Option<TableAnnotation>> {
        let (engine, bundle) = (self.engine, self.bundle);
        let cfg = engine.config();
        let annotator = bundle.annotator();
        let mut replayed: Vec<Option<TableAnnotation>> = vec![None; groups.len()];
        for batch in cut_microbatches(groups, cfg.max_batch, cfg.max_batch_tokens) {
            let sliced: Vec<&[SerializedTable]> =
                batch.iter().map(|&i| groups[i].as_slice()).collect();
            let start = Instant::now();
            let anns = match &self.qmodel {
                Some(qm) => qm.annotate_serialized(&annotator, &sliced),
                None => annotator.annotate_serialized(&sliced),
            };
            let core =
                trace.replayed(op, self.core_name(), annotate_groups, start, ns_since(start));
            for (&i, ann) in batch.iter().zip(anns) {
                replayed[i] = Some(ann);
            }

            let ids: Vec<&[u32]> =
                sliced.iter().flat_map(|g| g.iter()).map(|st| st.ids.as_slice()).collect();
            let lens: Vec<usize> = ids.iter().map(|s| s.len()).collect();
            let (reference, fwd_ns) = forward_batch_reference(bundle, self.qencoder.as_ref(), &ids);
            let fwd = trace.replayed(op, self.fwd_name(), core, start, fwd_ns);
            let mut times = OpTimes::default();
            let out = self.encoder.forward(&ids, &mut times);
            assert_same_bits(&out, &reference, "encoder replay");
            for (name, ns) in times.named() {
                trace.replayed(op, name, fwd, start, ns);
            }
            self.counts.tape_nodes += times.tape_nodes;
            self.counts.microbatches += 1;
            self.counts.seqs += ids.len() as u64;
            self.counts.seq_tokens += lens.iter().sum::<usize>() as u64;
            self.counts.gemm_flops += self.encoder.gemm_flops(&lens);
        }
        replayed
    }

    /// Derives the `tokenizer`, `table`, `serve`, `core`, `transformer` and
    /// `tensor` metrics from the trace and the counts. Differences of
    /// totals are signed: a replay that ran slower than the span it
    /// explains shows as a negative self time, not as zero. Returns the
    /// sum of the stages' busy seconds (for `bench.stage_sum_ratio`).
    pub fn fill_metrics(&self, trace: &Trace, out: &mut Outcome) -> f64 {
        let totals = trace.totals();
        let total = |name: &str| totals.get(name).map_or(0.0, |t| t.total_ns as f64 / 1e9);
        let self_of = |name: &str| totals.get(name).map_or(0.0, |t| t.self_ns as f64 / 1e9);
        let (core, fwd) = (self.core_name(), self.fwd_name());
        let op_sum: f64 = OpTimes::default().named().iter().map(|(n, _)| total(n)).sum();
        let c = &self.counts;

        out.set("tokenizer.encode_s", total("tokenizer.encode"));
        out.set("tokenizer.tokens", c.tokenizer_tokens as f64);
        out.set("table.column_tokens_s", self_of("table.column_tokens"));
        out.set("table.assemble_s", total("table.assemble"));
        out.set("table.seqs", c.seqs as f64);
        out.set("table.seq_tokens", c.seq_tokens as f64);
        out.set("serve.serialize_s", total("serve.serialize_table"));
        out.set("serve.cache_hit_ratio", c.cache_hits as f64 / c.cache_lookups.max(1) as f64);
        out.set("serve.annotate_groups_s", total("serve.annotate_groups"));
        out.set("serve.sched_self_s", total("serve.annotate_groups") - total(core));
        out.set("serve.microbatches", c.microbatches as f64);
        out.set("serve.microbatch_tokens_mean", c.seq_tokens as f64 / c.microbatches.max(1) as f64);
        out.set(&format!("{core}_s"), total(core));
        out.set("core.heads_self_s", total(core) - total(fwd));
        out.set(&format!("{fwd}_s"), total(fwd));
        for (name, _) in OpTimes::default().named() {
            out.set(&format!("{name}_s"), total(name));
        }
        if self.qmodel.is_some() {
            out.set(
                "tensor.int8_linear_s",
                total("tensor.qkv") + total("tensor.attn_out") + total("tensor.ffn"),
            );
        }
        out.set("tensor.tape_nodes", c.tape_nodes as f64 / c.microbatches.max(1) as f64);
        out.set("tensor.gemm_flops", c.gemm_flops as f64);
        out.set("tensor.replay_gap_s", total(fwd) - op_sum);
        total("serve.serialize_table")
            + (total("serve.annotate_groups") - total(core))
            + (total(core) - total(fwd))
            + op_sum
    }
}

/// Prints the per-name totals of a trace, for the warning that the
/// replayed stages do not add up.
pub fn eprint_stage_table(trace: &Trace) {
    for (name, t) in &trace.totals() {
        eprintln!(
            "[benchmark]   {name:<36} total {:>9.4} s  self {:>9.4} s  x{}",
            t.total_ns as f64 / 1e9,
            t.self_ns as f64 / 1e9,
            t.count
        );
    }
}
