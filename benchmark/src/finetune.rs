//! The `finetune` workload: repeated one-epoch `trainer::train` calls over
//! a fixed labelled set, every call from the checkpoint's initial weights.
//! It guards the write side of `tensor`/`transformer` (training tape,
//! backward, Adam, gradient fan-out) while inference work touches the same
//! tape and kernels.

use crate::common::{
    fill_end_to_end, fill_trace_latency, setup_median, timed_window, EndToEnd, Pace, RunCfg,
};
use crate::host;
use crate::metrics::{Outcome, END_TO_END, PER_LAYER};
use crate::trace::{Trace, NO_PARENT};
use crate::world::{read_finetune, CHECKPOINT_FILE, FINETUNE_TRAIN};
use doduo_core::{prepare, train, AnnotatorBundle, Prepared, Task, TrainConfig};
use doduo_tensor::{Adam, Gradients, LrSchedule, Tape};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

const TASKS: [Task; 2] = [Task::ColumnType, Task::ColumnRelation];

/// The trainer as shipped, one epoch per call.
fn train_config() -> TrainConfig {
    TrainConfig { epochs: 1, ..TrainConfig::default() }
}

struct Setup {
    bundle: AnnotatorBundle,
    train: Prepared,
    valid: Prepared,
}

/// Loads the model and serializes both labelled sets; returns the median
/// time of the whole and of `prepare` alone.
fn set_up(cfg: &RunCfg) -> (f64, f64, Setup) {
    let path = cfg.dir.join(CHECKPOINT_FILE);
    let probe = AnnotatorBundle::load_from(&path).expect("generated checkpoint must load");
    let (train_ds, valid_ds) = read_finetune(&cfg.dir, &probe).expect("labelled set must read");
    drop(probe);
    let mut prepare_times = Vec::new();
    let (setup_s, setup) = setup_median(|| {
        let bundle = AnnotatorBundle::load_from(&path).expect("generated checkpoint must load");
        let start = Instant::now();
        let train = prepare(&bundle.model, &train_ds, &bundle.tokenizer);
        let valid = prepare(&bundle.model, &valid_ds, &bundle.tokenizer);
        prepare_times.push(start.elapsed().as_secs_f64());
        Setup { bundle, train, valid }
    });
    (setup_s, crate::stats::median(&prepare_times), setup)
}

/// One training call from the initial weights; returns its duration in
/// seconds and the bits of the per-task training losses.
fn train_call(s: &Setup) -> (f64, Vec<u32>) {
    let mut store = s.bundle.store.clone();
    let start = Instant::now();
    let report = train(&s.bundle.model, &mut store, &s.train, &s.valid, &TASKS, &train_config());
    let secs = start.elapsed().as_secs_f64();
    let losses = report.epochs[0].task_losses.iter().map(|(_, l)| l.to_bits()).collect();
    (secs, losses)
}

/// A call is correct when every loss is finite and bit-identical to the
/// first call's: same weights, same data, same seed.
fn losses_ok(first: &[u32], got: &[u32]) -> bool {
    got.len() == TASKS.len() && got == first && got.iter().all(|b| f32::from_bits(*b).is_finite())
}

pub fn run(cfg: &RunCfg) -> Outcome {
    if cfg.trace {
        run_traced(cfg)
    } else {
        run_untraced(cfg)
    }
}

fn run_untraced(cfg: &RunCfg) -> Outcome {
    let (setup_s, _, setup) = set_up(cfg);
    let mut out = Outcome { correct: true, ..Outcome::default() };
    let (_, first) = train_call(&setup);
    // One call: its duration in seconds and the tables it trained on.
    let mut failed = 0u64;
    let mut next_call = || -> (f64, u64) {
        let (secs, losses) = train_call(&setup);
        failed += u64::from(!losses_ok(&first, &losses)) * FINETUNE_TRAIN as u64;
        (secs, FINETUNE_TRAIN as u64)
    };
    let warm_until = Instant::now() + cfg.warm();
    while Instant::now() < warm_until {
        next_call();
    }
    let mut timed = timed_window(cfg.seconds, &mut next_call);
    let peak = host::peak_rss_mb(std::process::id()).unwrap_or(0.0);
    out.attempted = timed.tables;
    out.failed = failed;
    out.correct = out.failed == 0;
    let ok = out.attempted - out.failed.min(out.attempted);
    let e = EndToEnd::of_timed(&timed, Pace::Fastest, setup_s, peak, ok);
    fill_end_to_end(&mut out, &e, &mut timed.latencies_ms);
    let digest = first.iter().map(|b| format!("{b:08x}")).collect::<String>();
    out.note("output_digest", format!("\"{digest}\""));
    out.fill_missing(END_TO_END);
    out
}

/// Replays one epoch's tape work example by example: the training-path
/// encoder forward alone, then forward + loss + `backward`, then the Adam
/// steps, as children of the call span `parent`.
fn replay_epoch(s: &Setup, trace: &mut Trace, op: u32, parent: i32) {
    let (model, store) = (&s.bundle.model, &s.bundle.store);
    let batch = train_config().batch_size;
    let mut store_for_adam = store.clone();
    let (mut fwd_ns, mut bwd_ns, mut adam_ns) = (0u64, 0u64, 0u64);
    let start = Instant::now();
    let n_types = s.train.types.len();
    // Examples in order: every type example, then every relation example.
    let examples = (0..n_types)
        .map(|i| (Task::ColumnType, i))
        .chain((0..s.train.rels.len()).map(|i| (Task::ColumnRelation, i)));
    let mut adam = Adam::new(store, LrSchedule::LinearDecay { lr0: 5e-3, total_steps: 64 });
    let mut grads = Gradients::new(store);
    let mut in_batch = 0usize;
    for (task, i) in examples {
        let st = match task {
            Task::ColumnType => &s.train.types[i].st,
            Task::ColumnRelation => &s.train.rels[i].st,
        };
        let mut rng = StdRng::seed_from_u64(i as u64);
        {
            let mut tape = Tape::new(store);
            let t = Instant::now();
            std::hint::black_box(model.encoder.forward(&mut tape, &st.ids, None, &mut rng));
            fwd_ns += t.elapsed().as_nanos() as u64;
        }
        let mut tape = Tape::new(store);
        let loss = match task {
            Task::ColumnType => {
                let ex = &s.train.types[i];
                let logits = model.type_logits(&mut tape, &ex.st, &mut rng);
                tape.bce_logits_weighted(logits, ex.multi_hot.as_ref().expect("multi-label"), 1.0)
            }
            Task::ColumnRelation => {
                let ex = &s.train.rels[i];
                let logits = model.rel_logits(&mut tape, &ex.st, &ex.pairs, &mut rng);
                tape.bce_logits_weighted(logits, ex.multi_hot.as_ref().expect("multi-label"), 1.0)
            }
        };
        let t = Instant::now();
        tape.backward(loss, &mut grads);
        bwd_ns += t.elapsed().as_nanos() as u64;
        in_batch += 1;
        if in_batch == batch {
            let t = Instant::now();
            adam.step(&mut store_for_adam, &grads);
            adam_ns += t.elapsed().as_nanos() as u64;
            grads.zero();
            in_batch = 0;
        }
    }
    trace.replayed(op, "transformer.forward_single", parent, start, fwd_ns);
    trace.replayed(op, "tensor.backward", parent, start, bwd_ns);
    trace.replayed(op, "tensor.adam", parent, start, adam_ns);
}

fn run_traced(cfg: &RunCfg) -> Outcome {
    let (_, prepare_s, setup) = set_up(cfg);
    let calls = (cfg.trace_tables / FINETUNE_TRAIN).max(1);
    let mut out = Outcome { correct: true, ..Outcome::default() };
    let (_, first) = train_call(&setup);

    let mut trace = Trace::new();
    let traced_start = Instant::now();
    for c in 0..calls {
        let start = Instant::now();
        let (_, losses) = train_call(&setup);
        let call = trace.real(c as u32, "core.train_call", NO_PARENT, start, Instant::now());
        replay_epoch(&setup, &mut trace, c as u32, call);
        out.attempted += FINETUNE_TRAIN as u64;
        out.failed += u64::from(!losses_ok(&first, &losses)) * FINETUNE_TRAIN as u64;
    }
    let traced_s = traced_start.elapsed().as_secs_f64();
    out.correct = out.failed == 0;

    let totals = trace.totals();
    let total = |name: &str| totals.get(name).map_or(0.0, |t| t.total_ns as f64 / 1e9);
    fill_trace_latency(&mut out, trace.durations_ms_of("core.train_call"));
    out.set("core.prepare_s", prepare_s);
    out.set("core.train_call_s", total("core.train_call"));
    out.set("transformer.forward_single_s", total("transformer.forward_single"));
    out.set("tensor.backward_s", total("tensor.backward"));
    out.set("tensor.adam_s", total("tensor.adam"));
    out.set("table.seqs", (calls * (setup.train.types.len() + setup.train.rels.len())) as f64);
    let tokens: usize = setup.train.types.iter().map(|e| e.st.len()).sum::<usize>()
        + setup.train.rels.iter().map(|e| e.st.len()).sum::<usize>();
    out.set("table.seq_tokens", (calls * tokens) as f64);
    // The timed calls are untraced inside; the overhead is the replay.
    out.set("bench.trace_overhead_ratio", traced_s / total("core.train_call"));
    out.note("trace_spans", trace.spans.len());
    cfg.write_trace(&trace);
    out.fill_missing(PER_LAYER);
    out
}
