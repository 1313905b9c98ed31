//! What the workloads share: run configuration, the timed window, the
//! process-under-test meters, and the correctness checks on annotations.

use crate::gauge::{calibrate, Gauge, Stretch};
use crate::host;
use crate::metrics::Outcome;
use crate::stats::{self, Digest};
use crate::trace::Trace;
use doduo_core::TableAnnotation;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Times set-up is repeated in one run; the median is reported, so that a
/// single slow page-in or fork does not decide `setup_s`.
pub const SETUP_REPEATS: usize = 5;
/// Outputs compared byte for byte against the offline reference per run.
pub const GATE_SAMPLES: usize = 256;
/// Tables a traced run pushes through the staged replay, per workload.
pub const TRACE_TABLES: usize = 512;

/// How one workload run was asked to behave.
#[derive(Clone, Debug)]
pub struct RunCfg {
    pub workload: String,
    /// Directory holding the generated checkpoint and inputs.
    pub dir: PathBuf,
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// Length of the warm-up before it (token cache fill, thread-local GEMM
    /// panels, lazy initialisation).
    pub warm_s: f64,
    pub trace: bool,
    /// Tables of a traced run.
    pub trace_tables: usize,
    /// Where to write `trace-<workload>.json`, if anywhere.
    pub trace_out: Option<PathBuf>,
}

impl RunCfg {
    pub fn window(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }

    pub fn warm(&self) -> Duration {
        Duration::from_secs_f64(self.warm_s)
    }

    /// Dumps the spans of a traced run, when the run was asked to.
    pub fn write_trace(&self, trace: &Trace) {
        if let Some(path) = &self.trace_out {
            std::fs::write(path, trace.to_json(&self.workload, self.seed))
                .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
        }
    }
}

/// Runs `f` [`SETUP_REPEATS`] times and returns the median duration in
/// seconds with the last value built.
pub fn setup_median<T>(mut f: impl FnMut() -> T) -> (f64, T) {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        drop(last.take());
        let start = Instant::now();
        last = Some(f());
        times.push(start.elapsed().as_secs_f64());
    }
    (stats::median(&times), last.expect("SETUP_REPEATS > 0"))
}

/// CPU seconds and wall clock of the process under test at one instant.
pub struct Meter {
    pid: u32,
    cpu0: f64,
    start: Instant,
}

impl Meter {
    pub fn start(pid: u32) -> Meter {
        Meter { pid, cpu0: host::cpu_seconds(pid).unwrap_or(0.0), start: Instant::now() }
    }

    /// CPU seconds the process used since `start`.
    pub fn cpu_s(&self) -> f64 {
        host::cpu_seconds(self.pid).unwrap_or(0.0) - self.cpu0
    }

    pub fn elapsed_s(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }
}

/// Work an in-process stretch holds before the gauge is read again: long
/// enough that the readings cost a few percent, short enough that a stretch
/// sees one level of host speed. A call longer than this is a stretch of
/// its own.
const STRETCH_S: f64 = 0.02;

/// What a timed window of back-to-back in-process calls measured.
pub struct Timed {
    pub stretches: Vec<Stretch>,
    /// Duration of every call, in milliseconds.
    pub latencies_ms: Vec<f64>,
    pub tables: u64,
    /// CPU seconds of this process over the window, gauge readings excluded.
    pub cpu_s: f64,
}

/// Runs `call` back to back for `seconds`. `call` does one operation and
/// returns how long the program took over it, in seconds, and how many
/// tables it handled; whatever else it does (checking outputs) is not
/// counted as work. The gauge is read between stretches of calls.
pub fn timed_window(seconds: f64, mut call: impl FnMut() -> (f64, u64)) -> Timed {
    let gauge = Gauge::new();
    let mut timed =
        Timed { stretches: Vec::new(), latencies_ms: Vec::new(), tables: 0, cpu_s: 0.0 };
    let mut gauge_s = 0.0;
    let read = |gauge_s: &mut f64| {
        let start = Instant::now();
        let ms = gauge.read_ms();
        *gauge_s += start.elapsed().as_secs_f64();
        ms
    };
    let meter = Meter::start(std::process::id());
    let mut before = read(&mut gauge_s);
    while meter.elapsed_s() < seconds {
        let (mut work_s, mut tables) = (0.0, 0u64);
        while work_s < STRETCH_S {
            let (s, n) = call();
            timed.latencies_ms.push(s * 1e3);
            work_s += s;
            tables += n;
        }
        let after = read(&mut gauge_s);
        timed.stretches.push(Stretch { work_s, tables, gauge_ms: (before + after) / 2.0 });
        timed.tables += tables;
        before = after;
    }
    // The gauge runs on this thread and never sleeps: its wall time is CPU time.
    timed.cpu_s = (meter.cpu_s() - gauge_s).max(0.0);
    timed
}

/// The measurements the end-to-end metrics are made of.
pub struct EndToEnd {
    pub setup_s: f64,
    /// Correct tables completed in the window.
    pub tables_done: u64,
    /// Throughput as reported: calibrated to the reference host, or, where
    /// the arrival rate fixes it, as counted.
    pub tables_per_s: f64,
    /// The same by wall clock.
    pub raw_tables_per_s: f64,
    /// CPU seconds of the process under test over the window.
    pub cpu_s: f64,
    /// Wall clock over reported time: how much slower than the pace
    /// reported the window ran as a whole ([`crate::gauge`]). CPU time is
    /// divided by it.
    pub slowdown: f64,
    pub peak_rss_mb: f64,
    /// Operations attempted that came back correct and inside the
    /// workload's latency limit (all correct ones where there is no limit).
    pub within_limit: u64,
}

/// How a window of in-process calls becomes one speed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Pace {
    /// The median stretch, scaled by the host gauge: for work whose time
    /// moves in proportion to the gauge (the inference path).
    Gauged,
    /// The fastest stretch, unscaled: for work the gauge does not track
    /// (training, see the README). A neighbour only ever slows the host
    /// down, so the fastest stretch is the one it disturbed least.
    Fastest,
}

impl EndToEnd {
    /// An in-process window.
    pub fn of_timed(
        timed: &Timed,
        pace: Pace,
        setup_s: f64,
        peak_rss_mb: f64,
        ok: u64,
    ) -> EndToEnd {
        let cal = calibrate(&timed.stretches);
        let per_table_ms = match pace {
            Pace::Gauged => cal.per_table_ms,
            Pace::Fastest => timed
                .stretches
                .iter()
                .map(|s| 1e3 * s.work_s / s.tables as f64)
                .fold(f64::INFINITY, f64::min),
        };
        EndToEnd {
            setup_s,
            tables_done: timed.tables,
            tables_per_s: 1e3 / per_table_ms,
            raw_tables_per_s: 1e3 / cal.raw_per_table_ms,
            cpu_s: timed.cpu_s,
            slowdown: cal.raw_per_table_ms / per_table_ms,
            peak_rss_mb,
            within_limit: ok,
        }
    }
}

/// Fills the end-to-end metrics every workload reports the same way, and
/// notes the raw figures and the window's latency percentiles beside them.
/// `latencies_ms` are per-operation latencies of the measured window, by
/// wall clock.
pub fn fill_end_to_end(out: &mut Outcome, e: &EndToEnd, latencies_ms: &mut [f64]) {
    let tail = stats::tail(latencies_ms);
    let raw_cpu_ms = 1e3 * e.cpu_s / e.tables_done.max(1) as f64;
    out.set("setup_s", e.setup_s);
    out.set("tables_per_s", e.tables_per_s);
    out.set("cpu_ms_per_table", raw_cpu_ms / e.slowdown);
    out.set("peak_rss_mb", e.peak_rss_mb);
    out.set("slo_ok_ratio", e.within_limit as f64 / out.attempted.max(1) as f64);
    // By wall clock, uncalibrated: what this host did in this window.
    out.note("raw_tables_per_s", e.raw_tables_per_s);
    out.note("raw_cpu_ms_per_table", raw_cpu_ms);
    out.note("host_slowdown", e.slowdown);
    // Operation latencies of the window: diagnostics here, metrics of the
    // traced run (their run-to-run spread on the bench host is too wide to
    // bound; see the README).
    out.note("latency_p50_ms", stats::percentile_sorted(latencies_ms, 50.0));
    out.note("latency_p99_ms", tail.value);
    out.note("latency_tail_percentile", tail.percentile);
    out.note("latency_samples", latencies_ms.len());
    out.note("tables", e.tables_done);
    out.note("failed_ratio", out.failed as f64 / out.attempted.max(1) as f64);
}

/// Structural check of one annotation: a prediction for every column (and
/// every `(0, j)` pair when the model has relations), each with at least
/// one label and only finite scores.
pub fn well_formed(ann: &TableAnnotation, n_cols: usize, has_relations: bool) -> bool {
    let labels_ok = |labels: &[(String, f32)]| {
        !labels.is_empty() && labels.iter().all(|(_, score)| score.is_finite())
    };
    ann.types.len() == n_cols
        && ann.types.iter().all(|t| labels_ok(&t.labels))
        && ann.relations.len() == if has_relations { n_cols - 1 } else { 0 }
        && ann.relations.iter().all(|r| labels_ok(&r.labels))
}

/// True when two annotations are the same down to the bits of each score.
pub fn same_annotation(a: &TableAnnotation, b: &TableAnnotation) -> bool {
    let same = |x: &[(String, f32)], y: &[(String, f32)]| {
        x.len() == y.len()
            && x.iter().zip(y).all(|(p, q)| p.0 == q.0 && p.1.to_bits() == q.1.to_bits())
    };
    a.types.len() == b.types.len()
        && a.relations.len() == b.relations.len()
        && a.types
            .iter()
            .zip(&b.types)
            .all(|(p, q)| p.column == q.column && same(&p.labels, &q.labels))
        && a.relations.iter().zip(&b.relations).all(|(p, q)| {
            (p.subject, p.object) == (q.subject, q.object) && same(&p.labels, &q.labels)
        })
}

/// Sets the two latency metrics of a traced run from its operations'
/// durations.
pub fn fill_trace_latency(out: &mut Outcome, mut latencies_ms: Vec<f64>) {
    if latencies_ms.is_empty() {
        return;
    }
    let tail = stats::tail(&mut latencies_ms);
    out.set("latency_p50_ms", stats::percentile_sorted(&latencies_ms, 50.0));
    out.set("latency_p99_ms", tail.value);
    out.note("latency_tail_percentile", tail.percentile);
    out.note("latency_samples", latencies_ms.len());
}

/// Digest of every rendered output, in input order.
pub fn digest_of<'a>(outputs: impl IntoIterator<Item = &'a [u8]>) -> String {
    let mut d = Digest::new();
    for o in outputs {
        d.push(o);
    }
    d.hex()
}

/// A seeded sample of `k` distinct indices below `n` (all of them when
/// `n <= k`), ascending.
pub fn sample_indices(seed: u64, n: usize, k: usize) -> Vec<usize> {
    use rand::{rngs::StdRng, Rng, SeedableRng};
    let mut idx: Vec<usize> = (0..n).collect();
    if n > k {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5A4D_91E5);
        for i in 0..k {
            idx.swap(i, rng.gen_range(i..n));
        }
        idx.truncate(k);
        idx.sort_unstable();
    }
    idx
}

#[cfg(test)]
mod tests {
    use super::*;
    use doduo_core::{ColumnTypePrediction, RelationPrediction};

    fn ann(score: f32) -> TableAnnotation {
        TableAnnotation {
            types: (0..2)
                .map(|column| ColumnTypePrediction { column, labels: vec![("t".into(), score)] })
                .collect(),
            relations: vec![RelationPrediction {
                subject: 0,
                object: 1,
                labels: vec![("r".into(), 0.5)],
            }],
        }
    }

    #[test]
    fn malformed_outputs_are_caught() {
        assert!(well_formed(&ann(0.25), 2, true));
        assert!(!well_formed(&ann(0.25), 3, true), "a column is missing");
        assert!(!well_formed(&ann(f32::NAN), 2, true), "a score is not finite");
        assert!(!well_formed(&ann(0.25), 2, false), "relations from a model without any");
        assert!(same_annotation(&ann(0.25), &ann(0.25)));
        assert!(!same_annotation(&ann(0.25), &ann(0.250_000_03)), "one bit differs");
    }

    #[test]
    fn samples_are_seeded_and_distinct() {
        let a = sample_indices(4, 1000, 256);
        assert_eq!(a, sample_indices(4, 1000, 256));
        assert_ne!(a, sample_indices(5, 1000, 256));
        assert_eq!(a.len(), 256);
        assert!(a.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(sample_indices(4, 10, 256), (0..10).collect::<Vec<_>>());
    }
}
