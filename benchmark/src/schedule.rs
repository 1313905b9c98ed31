//! The open-loop arrival schedule.
//!
//! Independent users make an open loop: requests are sent on a schedule
//! fixed before the run, whether or not earlier ones have come back. Each
//! request is timed from when it was *due*, so a stall that delays later
//! sends still counts against them.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Due times, in nanoseconds from the start of the run, of one connection's
/// share of a Poisson process of `rate_per_s` split over `lanes`
/// connections, conditioned on its count: given how many arrivals a Poisson
/// process has in an interval, they are independent uniform draws over it.
/// Fixing the count at its expectation keeps Poisson's bunching and gaps
/// while every seed offers the same load. The same `(seed, lane)` always
/// yields the same times.
pub fn poisson_due_ns(
    seed: u64,
    lane: usize,
    lanes: usize,
    rate_per_s: f64,
    until_ns: u64,
) -> Vec<u64> {
    assert!(rate_per_s > 0.0 && lanes > 0, "rate and lane count must be positive");
    let mut rng =
        StdRng::seed_from_u64(seed ^ (lane as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let count = (rate_per_s * until_ns as f64 / 1e9 / lanes as f64).round() as usize;
    let mut due: Vec<u64> = (0..count).map(|_| rng.gen_range(0..until_ns.max(1))).collect();
    due.sort_unstable();
    due
}

/// Latency and lateness of one open-loop request, all in nanoseconds from
/// the start of the run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Timing {
    /// `done - due`: what the user saw.
    pub latency_ns: u64,
    /// `sent - due`: how late the generator was.
    pub late_ns: u64,
}

pub fn timing(due_ns: u64, sent_ns: u64, done_ns: u64) -> Timing {
    Timing { latency_ns: done_ns.saturating_sub(due_ns), late_ns: sent_ns.saturating_sub(due_ns) }
}

/// True when the number of requests in flight trends upward over the
/// window: the least-squares slope of `(time, outstanding)` predicts a gain
/// of more than two requests from the first sample to the last.
pub fn backlog_growing(samples: &[(u64, u32)]) -> bool {
    if samples.len() < 2 {
        return false;
    }
    let n = samples.len() as f64;
    let mx = samples.iter().map(|s| s.0 as f64).sum::<f64>() / n;
    let my = samples.iter().map(|s| s.1 as f64).sum::<f64>() / n;
    let (mut sxy, mut sxx) = (0.0, 0.0);
    for &(x, y) in samples {
        sxy += (x as f64 - mx) * (y as f64 - my);
        sxx += (x as f64 - mx) * (x as f64 - mx);
    }
    if sxx == 0.0 {
        return false;
    }
    let span = (samples[samples.len() - 1].0 - samples[0].0) as f64;
    sxy / sxx * span > 2.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_due_times() {
        let a = poisson_due_ns(7, 0, 2, 140.0, 10_000_000_000);
        let b = poisson_due_ns(7, 0, 2, 140.0, 10_000_000_000);
        assert_eq!(a, b);
        assert_ne!(a, poisson_due_ns(8, 0, 2, 140.0, 10_000_000_000), "seed changes the times");
        assert_ne!(a, poisson_due_ns(7, 1, 2, 140.0, 10_000_000_000), "lanes are independent");
        assert!(a.windows(2).all(|w| w[0] <= w[1]), "due times ascend");
        assert!(a.iter().all(|&t| t < 10_000_000_000));
    }

    #[test]
    fn lanes_add_up_to_the_rate() {
        let total: usize =
            (0..2).map(|lane| poisson_due_ns(3, lane, 2, 200.0, 50_000_000_000).len()).sum();
        assert_eq!(total, 10_000);
        // Gaps are exponential-like: some arrivals bunch far closer than the mean gap.
        let due = poisson_due_ns(3, 0, 2, 200.0, 50_000_000_000);
        let close = due.windows(2).filter(|w| w[1] - w[0] < 1_000_000).count();
        assert!(close > due.len() / 20, "{close} of {} gaps under a tenth of the mean", due.len());
    }

    #[test]
    fn latency_counts_from_the_due_time_when_a_send_is_late() {
        // Due at 1 ms, sent 4 ms late, answered 3 ms after the send.
        let t = timing(1_000_000, 5_000_000, 8_000_000);
        assert_eq!(t, Timing { latency_ns: 7_000_000, late_ns: 4_000_000 });
        // An on-time send has no lateness.
        assert_eq!(timing(1_000_000, 1_000_000, 2_000_000).late_ns, 0);
    }

    #[test]
    fn backlog_trend_is_detected() {
        let flat: Vec<(u64, u32)> = (0..100).map(|i| (i * 1000, (i % 3) as u32)).collect();
        assert!(!backlog_growing(&flat));
        let rising: Vec<(u64, u32)> = (0..100).map(|i| (i * 1000, (i / 10) as u32)).collect();
        assert!(backlog_growing(&rising));
    }
}
