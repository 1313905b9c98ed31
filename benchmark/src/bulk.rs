//! The in-process inference workloads: `bulk_wide`, `bulk_narrow` and
//! `bulk_wide_int8`, each an untraced timed window over
//! `BatchAnnotator::annotate_batch` or a traced staged replay of the same
//! calls.

use crate::common::{
    digest_of, fill_end_to_end, fill_trace_latency, same_annotation, sample_indices, setup_median,
    timed_window, well_formed, EndToEnd, Pace, RunCfg, GATE_SAMPLES,
};
use crate::host;
use crate::metrics::{Outcome, END_TO_END, PER_LAYER};
use crate::staged::{eprint_stage_table, StagedReplay};
use crate::trace::{Trace, NO_PARENT};
use crate::world::{read_tables, Inputs, CHECKPOINT_FILE};
use doduo_core::{AnnotatorBundle, TableAnnotation};
use doduo_serve::{BatchAnnotator, BatchConfig};
use doduo_served::json::annotations_response;
use doduo_served::validate::{offline_response, offline_response_quant};
use doduo_table::Table;
use std::sync::Arc;
use std::time::Instant;

/// Tables whose timed calls run back to back before their layers are
/// replayed, in a traced run.
const REPLAY_BLOCK_TABLES: usize = 64;

/// What distinguishes the three bulk workloads.
#[derive(Clone, Copy, Debug)]
pub struct Bulk {
    pub inputs: Inputs,
    /// Tables per `annotate_batch` call.
    pub per_call: usize,
    pub int8: bool,
}

impl Bulk {
    pub fn of(workload: &str) -> Option<Bulk> {
        match workload {
            "bulk_wide" => Some(Bulk { inputs: Inputs::Wide, per_call: 64, int8: false }),
            "bulk_narrow" => Some(Bulk { inputs: Inputs::Narrow, per_call: 1, int8: false }),
            "bulk_wide_int8" => Some(Bulk { inputs: Inputs::Wide, per_call: 64, int8: true }),
            _ => None,
        }
    }

    /// The engine as shipped, with only the numeric tier chosen.
    fn engine_config(&self) -> BatchConfig {
        BatchConfig { quant: self.int8, ..BatchConfig::default() }
    }
}

fn load_engine(cfg: &RunCfg, bulk: &Bulk) -> BatchAnnotator {
    let bundle = AnnotatorBundle::load_from(cfg.dir.join(CHECKPOINT_FILE))
        .unwrap_or_else(|e| panic!("generated checkpoint must load: {e}"));
    BatchAnnotator::with_config(Arc::new(bundle), bulk.engine_config())
}

/// Checks the outputs of one call against structure and against the first
/// output seen for the same input; returns how many tables failed.
fn check_call(
    engine: &BatchAnnotator,
    tables: &[Table],
    first: &mut [Option<TableAnnotation>],
    at: usize,
    anns: Vec<TableAnnotation>,
) -> u64 {
    let has_rel = !engine.bundle().rel_vocab.is_empty();
    let mut failed = 0;
    for (k, ann) in anns.into_iter().enumerate() {
        let i = at + k;
        let ok = well_formed(&ann, tables[i].n_cols(), has_rel)
            && first[i].as_ref().is_none_or(|f| same_annotation(f, &ann));
        failed += u64::from(!ok);
        first[i].get_or_insert(ann);
    }
    failed
}

pub fn run(bulk: Bulk, cfg: &RunCfg) -> Outcome {
    if cfg.trace {
        run_traced(bulk, cfg)
    } else {
        run_untraced(bulk, cfg)
    }
}

fn run_untraced(bulk: Bulk, cfg: &RunCfg) -> Outcome {
    let (setup_s, engine) = setup_median(|| load_engine(cfg, &bulk));
    let (bodies, tables): (Vec<String>, Vec<Table>) =
        read_tables(&cfg.dir, bulk.inputs).expect("generated inputs must read").into_iter().unzip();
    assert_eq!(tables.len() % bulk.per_call, 0, "calls must tile the input set");
    let mut first: Vec<Option<TableAnnotation>> = vec![None; tables.len()];
    let mut out = Outcome { correct: true, ..Outcome::default() };
    let (mut at, mut failed) = (0usize, 0u64);
    // One call: its duration in seconds and the tables it annotated.
    let mut next_call = || -> (f64, u64) {
        let slice = &tables[at..at + bulk.per_call];
        let start = Instant::now();
        let anns = engine.annotate_batch(slice);
        let secs = start.elapsed().as_secs_f64();
        failed += check_call(&engine, &tables, &mut first, at, anns);
        at = (at + bulk.per_call) % tables.len();
        (secs, bulk.per_call as u64)
    };

    let warm_until = Instant::now() + cfg.warm();
    while Instant::now() < warm_until {
        next_call();
    }
    let mut timed = timed_window(cfg.seconds, &mut next_call);
    let peak = host::peak_rss_mb(std::process::id()).unwrap_or(0.0);
    out.attempted = timed.tables;
    out.failed = failed;

    out.failed += gate(&engine, &bulk, cfg, &bodies, &tables, &mut first, &mut out);
    out.correct = out.failed == 0;
    let ok = out.attempted - out.failed.min(out.attempted);
    let e = EndToEnd::of_timed(&timed, Pace::Gauged, setup_s, peak, ok);
    fill_end_to_end(&mut out, &e, &mut timed.latencies_ms);
    out.note("cache_hit_ratio", engine.cache_stats().hit_rate());
    out.fill_missing(END_TO_END);
    out
}

/// Outside the timed window: annotates whatever inputs the window did not
/// reach, digests every rendered output, and compares a seeded sample byte
/// for byte with the offline reference of the same numeric tier. Returns
/// the number of mismatches.
fn gate(
    engine: &BatchAnnotator,
    bulk: &Bulk,
    cfg: &RunCfg,
    bodies: &[String],
    tables: &[Table],
    first: &mut [Option<TableAnnotation>],
    out: &mut Outcome,
) -> u64 {
    for i in 0..first.len() {
        if first[i].is_none() {
            first[i] = engine.annotate_batch(std::slice::from_ref(&tables[i])).pop();
        }
    }
    let rendered: Vec<String> = first
        .iter()
        .map(|a| annotations_response(std::slice::from_ref(a.as_ref().expect("filled")), false))
        .collect();
    out.note("output_digest", format!("\"{}\"", digest_of(rendered.iter().map(|r| r.as_bytes()))));
    let bundle = engine.bundle();
    let mut mismatches = 0;
    for i in sample_indices(cfg.seed, bodies.len(), GATE_SAMPLES) {
        let reference = if bulk.int8 {
            offline_response_quant(bundle, &bodies[i])
        } else {
            offline_response(bundle, &bodies[i])
        };
        if reference.as_deref() != Ok(rendered[i].as_str()) {
            mismatches += 1;
            eprintln!("[benchmark] output {i} differs from the offline reference");
        }
    }
    out.note("gate_samples", GATE_SAMPLES.min(bodies.len()));
    mismatches
}

fn run_traced(bulk: Bulk, cfg: &RunCfg) -> Outcome {
    let path = cfg.dir.join(CHECKPOINT_FILE);
    let (load_s, bundle) =
        setup_median(|| AnnotatorBundle::load_from(&path).expect("generated checkpoint must load"));
    let quantize_s = if bulk.int8 { setup_median(|| bundle.quantized()).0 } else { 0.0 };
    let engine = BatchAnnotator::with_config(Arc::new(bundle), bulk.engine_config());
    let inputs = read_tables(&cfg.dir, bulk.inputs).expect("generated inputs must read");
    let tables: Vec<Table> = inputs.into_iter().map(|(_, t)| t).collect();
    let calls = cfg.trace_tables / bulk.per_call;
    let call = |c: usize, shift: usize| {
        let at = (c * bulk.per_call + shift) % tables.len();
        &tables[at..at + bulk.per_call]
    };

    // Warm-up from the plain pass's half of the inputs: the whole set for
    // the narrow workload (so that the traced calls find it cached), two
    // calls for the wide ones (whose traced half must stay uncached).
    let warm_calls = if bulk.per_call == 1 { tables.len() } else { 2 };
    for c in 0..warm_calls {
        std::hint::black_box(engine.annotate_batch(call(c, cfg.trace_tables)));
    }

    // Plain calls (`annotate_batch`, untraced, over the other half of the
    // inputs) alternate with the calls timed at their seam, so that both
    // see the same machine. The layers of a block of timed calls are
    // replayed right after the block: soon enough to see the same machine
    // as well, yet with no replay between two calls of a block (a replay
    // leaves the caches in a state no untraced call ever finds).
    let mut trace = Trace::new();
    let mut staged = StagedReplay::new(&engine);
    let mut out = Outcome { correct: true, ..Outcome::default() };
    let mut plain_s = 0.0;
    let traced_start = Instant::now();
    let block = (REPLAY_BLOCK_TABLES / bulk.per_call).max(1);
    let mut seams = Vec::with_capacity(block);
    for c in 0..calls {
        let start = Instant::now();
        std::hint::black_box(engine.annotate_batch(call(c, cfg.trace_tables)));
        plain_s += start.elapsed().as_secs_f64();

        let start = Instant::now();
        let root = trace.real(c as u32, "op", NO_PARENT, start, start);
        let (seam, end) = staged.seam(&mut trace, c as u32, root, true, call(c, 0));
        trace.close(root, end);
        seams.push((c, seam));
        out.attempted += bulk.per_call as u64;
        if seams.len() == block || c + 1 == calls {
            for (c, seam) in seams.drain(..) {
                staged.replay(&mut trace, c as u32, &seam, call(c, 0));
            }
        }
    }
    let traced_s = traced_start.elapsed().as_secs_f64() - plain_s;
    out.failed = staged.failed;
    out.correct = out.failed == 0;

    let stage_sum_ratio = staged.fill_metrics(&trace, &mut out) / plain_s;
    out.set("core.bundle_load_s", load_s);
    out.set("core.quantize_s", quantize_s);
    fill_trace_latency(&mut out, trace.durations_ms_of("op"));
    out.set("bench.stage_sum_ratio", stage_sum_ratio);
    out.set("bench.trace_overhead_ratio", traced_s / plain_s);
    out.note("trace_spans", trace.spans.len());
    out.note("plain_pass_s", plain_s);
    if !(0.9..=1.1).contains(&stage_sum_ratio) {
        eprintln!(
            "[benchmark] warning: bench.stage_sum_ratio = {stage_sum_ratio:.3} on {} is outside \
             0.9-1.1: the replayed stages do not add up to the untraced time",
            cfg.workload
        );
        eprint_stage_table(&trace);
    }
    cfg.write_trace(&trace);
    out.fill_missing(PER_LAYER);
    out
}
