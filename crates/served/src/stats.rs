//! Serving statistics: per-request latency percentiles and aggregate
//! counters, exposed by the daemon at `/v1/stats`.
//!
//! Latencies go into a fixed-size ring (most recent `CAP` requests) so the
//! daemon's memory stays bounded no matter how long it runs; counters are
//! plain atomics so the hot path never takes the ring lock unless it is
//! recording a completed request.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

const CAP: usize = 16 * 1024;

/// Aggregate serving counters plus a latency ring.
#[derive(Default)]
pub struct ServerStats {
    /// Annotation requests answered with 200.
    pub requests_ok: AtomicU64,
    /// Requests rejected (4xx) or failed (5xx).
    pub requests_failed: AtomicU64,
    /// Tables annotated (a multi-table request counts all of them).
    pub tables: AtomicU64,
    /// Sequences (tables in table-wise mode, columns in single-column mode).
    pub seqs: AtomicU64,
    /// Tokens pushed through the encoder.
    pub tokens: AtomicU64,
    /// Batches flushed because a budget was reached.
    pub flush_budget: AtomicU64,
    /// Batches flushed because the deadline expired.
    pub flush_deadline: AtomicU64,
    /// Batches flushed by shutdown drain.
    pub flush_shutdown: AtomicU64,
    /// Jobs bounced off the full queue (HTTP 503).
    pub rejected_full: AtomicU64,
    /// Connections accepted by the reactor.
    pub conns_accepted: AtomicU64,
    /// Connections turned away with 503 at the accept loop.
    pub conns_rejected: AtomicU64,
    /// Requests served on an already-used connection (keep-alive reuse).
    pub keepalive_reused: AtomicU64,
    /// `/annotate_stream` streams completed without a stream-level error.
    pub streams_ok: AtomicU64,
    /// Streams that ended with an in-band error object.
    pub streams_failed: AtomicU64,
    /// Tables annotated through streams (also counted in `tables`).
    pub stream_tables: AtomicU64,
    latencies_us: Mutex<Ring>,
    batch_tables: Mutex<Ring>,
}

#[derive(Default)]
struct Ring {
    buf: Vec<u64>,
    next: usize,
    total: u64,
}

impl Ring {
    fn push(&mut self, v: u64) {
        if self.buf.len() < CAP {
            self.buf.push(v);
        } else {
            self.buf[self.next] = v;
            self.next = (self.next + 1) % CAP;
        }
        self.total += 1;
    }

    fn snapshot(&self) -> Vec<u64> {
        self.buf.clone()
    }

    /// `(retained_window_len, lifetime_push_count)` — the ring only keeps
    /// the most recent `CAP` samples, but `total` counts every push, so
    /// `/stats` can report both without pretending the window is complete.
    fn counts(&self) -> (usize, u64) {
        (self.buf.len(), self.total)
    }
}

/// The live-model snapshot `/stats` renders as its `model` block; the
/// values belong to [`crate::lifecycle::Lifecycle`].
#[derive(Clone, Debug, Default)]
pub struct ModelStatus {
    /// Current engine label, `"{version}-{crc:08x}"`.
    pub model_version: String,
    /// Completed hot-swaps since boot.
    pub swaps: u64,
}

/// A percentile summary of one metric window.
#[derive(Clone, Copy, Debug, Default)]
pub struct Percentiles {
    /// Samples in the window.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// 50th percentile.
    pub p50: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Maximum.
    pub max: f64,
}

/// Nearest-rank percentiles over raw samples.
pub fn percentiles(samples: &[u64]) -> Percentiles {
    if samples.is_empty() {
        return Percentiles::default();
    }
    let mut s: Vec<u64> = samples.to_vec();
    s.sort_unstable();
    let rank = |p: f64| -> f64 {
        let idx = ((p / 100.0) * s.len() as f64).ceil() as usize;
        s[idx.clamp(1, s.len()) - 1] as f64
    };
    Percentiles {
        count: s.len(),
        mean: s.iter().sum::<u64>() as f64 / s.len() as f64,
        p50: rank(50.0),
        p99: rank(99.0),
        max: *s.last().expect("non-empty") as f64,
    }
}

impl ServerStats {
    /// Records one completed (or failed) `/annotate_stream` stream of
    /// `tables` annotated tables.
    pub fn record_stream(&self, tables: u64, ok: bool) {
        if ok { &self.streams_ok } else { &self.streams_failed }.fetch_add(1, Ordering::Relaxed);
        self.stream_tables.fetch_add(tables, Ordering::Relaxed);
        self.tables.fetch_add(tables, Ordering::Relaxed);
    }

    /// Records one successfully answered annotation request.
    pub fn record_request(&self, latency: Duration, tables: u64, seqs: u64, tokens: u64) {
        self.requests_ok.fetch_add(1, Ordering::Relaxed);
        self.tables.fetch_add(tables, Ordering::Relaxed);
        self.seqs.fetch_add(seqs, Ordering::Relaxed);
        self.tokens.fetch_add(tokens, Ordering::Relaxed);
        self.latencies_us.lock().expect("stats lock").push(latency.as_micros() as u64);
    }

    /// Records one flushed batch of `tables` tables.
    pub fn record_batch(&self, reason: crate::queue::FlushReason, tables: u64) {
        use crate::queue::FlushReason;
        match reason {
            FlushReason::Budget => &self.flush_budget,
            FlushReason::Deadline => &self.flush_deadline,
            FlushReason::Shutdown => &self.flush_shutdown,
        }
        .fetch_add(1, Ordering::Relaxed);
        self.batch_tables.lock().expect("stats lock").push(tables);
    }

    /// Latency percentiles over the retained window, in milliseconds.
    pub fn latency_ms(&self) -> Percentiles {
        let p = percentiles(&self.latencies_us.lock().expect("stats lock").snapshot());
        Percentiles {
            count: p.count,
            mean: p.mean / 1e3,
            p50: p.p50 / 1e3,
            p99: p.p99 / 1e3,
            max: p.max / 1e3,
        }
    }

    /// Batch-size (tables per flush) percentiles over the retained window.
    pub fn batch_tables_stats(&self) -> Percentiles {
        percentiles(&self.batch_tables.lock().expect("stats lock").snapshot())
    }

    /// Renders the `/stats` JSON body. `model` is the lifecycle snapshot
    /// (current version label, swap count).
    pub fn to_json(
        &self,
        uptime: Duration,
        queue_depth: usize,
        cache_hit_rate: f64,
        model: &ModelStatus,
    ) -> String {
        let lat = self.latency_ms();
        let bat = self.batch_tables_stats();
        // The percentile window is the retained ring; the `total_count`
        // beside it is the lifetime sample count, so a reader can tell
        // "p99 over the last 16384 requests of 2 million" from "p99 over
        // all 40 requests ever" — the ring used to track the total but
        // never report it.
        let (lat_window, lat_total) = self.latencies_us.lock().expect("stats lock").counts();
        let (bat_window, bat_total) = self.batch_tables.lock().expect("stats lock").counts();
        let mut model_version = String::new();
        crate::json::push_escaped(&mut model_version, &model.model_version);
        format!(
            "{{\"uptime_secs\":{:.3},\"requests_ok\":{},\"requests_failed\":{},\
             \"rejected_queue_full\":{},\"tables\":{},\"sequences\":{},\"tokens\":{},\
             \"queue_depth\":{queue_depth},\"cache_hit_rate\":{cache_hit_rate:.4},\
             \"model\":{{\"version\":{model_version},\"swaps\":{}}},\
             \"connections\":{{\"accepted\":{},\"rejected\":{},\"keepalive_reused\":{}}},\
             \"streams\":{{\"ok\":{},\"failed\":{},\"tables\":{}}},\
             \"flushes\":{{\"budget\":{},\"deadline\":{},\"shutdown\":{}}},\
             \"latency_ms\":{{\"window_count\":{lat_window},\"total_count\":{lat_total},\
             \"mean\":{:.3},\"p50\":{:.3},\"p99\":{:.3},\"max\":{:.3}}},\
             \"batch_tables\":{{\"window_count\":{bat_window},\"total_count\":{bat_total},\
             \"mean\":{:.3},\"p50\":{:.0},\"p99\":{:.0}}}}}\n",
            uptime.as_secs_f64(),
            self.requests_ok.load(Ordering::Relaxed),
            self.requests_failed.load(Ordering::Relaxed),
            self.rejected_full.load(Ordering::Relaxed),
            self.tables.load(Ordering::Relaxed),
            self.seqs.load(Ordering::Relaxed),
            self.tokens.load(Ordering::Relaxed),
            model.swaps,
            self.conns_accepted.load(Ordering::Relaxed),
            self.conns_rejected.load(Ordering::Relaxed),
            self.keepalive_reused.load(Ordering::Relaxed),
            self.streams_ok.load(Ordering::Relaxed),
            self.streams_failed.load(Ordering::Relaxed),
            self.stream_tables.load(Ordering::Relaxed),
            self.flush_budget.load(Ordering::Relaxed),
            self.flush_deadline.load(Ordering::Relaxed),
            self.flush_shutdown.load(Ordering::Relaxed),
            lat.mean,
            lat.p50,
            lat.p99,
            lat.max,
            bat.mean,
            bat.p50,
            bat.p99,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::FlushReason;

    #[test]
    fn percentiles_match_nearest_rank() {
        let s: Vec<u64> = (1..=100).collect();
        let p = percentiles(&s);
        assert_eq!(p.count, 100);
        assert_eq!(p.p50, 50.0);
        assert_eq!(p.p99, 99.0);
        assert_eq!(p.max, 100.0);
        assert_eq!(percentiles(&[]).count, 0);
        assert_eq!(percentiles(&[7]).p99, 7.0);
    }

    #[test]
    fn stats_json_is_valid_json() {
        let s = ServerStats::default();
        s.record_request(Duration::from_micros(1500), 1, 1, 40);
        s.record_batch(FlushReason::Deadline, 1);
        let model = ModelStatus { model_version: "2-0badf00d".into(), swaps: 1 };
        let body = s.to_json(Duration::from_secs(3), 2, 0.5, &model);
        let v = crate::json::Json::parse(body.trim()).expect("stats body parses");
        assert_eq!(v.get("requests_ok").and_then(|j| j.as_f64()), Some(1.0));
        assert_eq!(v.get("queue_depth").and_then(|j| j.as_f64()), Some(2.0));
        let m = v.get("model").expect("model");
        assert_eq!(m.get("version").and_then(|j| j.as_str()), Some("2-0badf00d"));
        assert_eq!(m.get("swaps").and_then(|j| j.as_f64()), Some(1.0));
        let fl = v.get("flushes").expect("flushes");
        assert_eq!(fl.get("deadline").and_then(|j| j.as_f64()), Some(1.0));
        assert!(v.get("latency_ms").unwrap().get("p50").unwrap().as_f64().unwrap() > 1.0);
    }

    #[test]
    fn ring_stays_bounded() {
        let mut r = Ring::default();
        for i in 0..(CAP as u64 + 10) {
            r.push(i);
        }
        assert_eq!(r.buf.len(), CAP);
        assert_eq!(r.total, CAP as u64 + 10);
    }

    /// The `/stats` misreporting fix: once the latency ring wraps, the
    /// percentile window and the lifetime request count diverge, and the
    /// JSON must expose both instead of silently presenting a truncated
    /// window as the whole history.
    #[test]
    fn overflowed_ring_reports_window_and_total_separately() {
        let s = ServerStats::default();
        for _ in 0..(CAP + 10) {
            s.record_request(Duration::from_micros(100), 1, 1, 1);
        }
        let body = s.to_json(Duration::from_secs(1), 0, 0.0, &ModelStatus::default());
        let v = crate::json::Json::parse(body.trim()).expect("stats body parses");
        let lat = v.get("latency_ms").expect("latency_ms");
        assert_eq!(lat.get("window_count").and_then(|j| j.as_f64()), Some(CAP as f64));
        assert_eq!(
            lat.get("total_count").and_then(|j| j.as_f64()),
            Some((CAP + 10) as f64),
            "total pushes must survive the ring wrapping"
        );
    }
}
