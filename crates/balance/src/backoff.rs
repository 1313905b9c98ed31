//! Capped exponential backoff with deterministic jitter.
//!
//! Both retry sites in the balancer — re-dispatching a failed request and
//! re-spawning a crashed replica — use the same discipline: the delay
//! doubles per consecutive failure up to a cap, and each delay is jittered
//! uniformly in `[base/2, base]` so a thundering herd of retries decorrelates.
//! Jitter is drawn from a seeded [`StdRng`] stream, so tests that fix
//! the seed observe identical schedules run to run.

use rand::rngs::StdRng;
use rand::Rng;
use std::time::Duration;

/// One exponential-backoff schedule. Construct per failure episode (or
/// call [`Backoff::reset`] after a success).
#[derive(Debug)]
pub struct Backoff {
    base: Duration,
    cap: Duration,
    attempt: u32,
}

impl Backoff {
    /// A schedule starting at `base` and never exceeding `cap`.
    pub fn new(base: Duration, cap: Duration) -> Backoff {
        Backoff { base, cap, attempt: 0 }
    }

    /// The next delay: `min(base << attempt, cap)`, jittered down by up to
    /// half. Advances the attempt counter.
    pub fn next_delay(&mut self, rng: &mut StdRng) -> Duration {
        let exp = self
            .base
            .checked_mul(1u32.checked_shl(self.attempt).unwrap_or(u32::MAX))
            .unwrap_or(self.cap)
            .min(self.cap);
        self.attempt = self.attempt.saturating_add(1);
        // Uniform in [exp/2, exp]: never zero, never past the cap.
        exp / 2 + exp.mul_f64(0.5 * rng.gen::<f64>())
    }

    /// Consecutive failures so far (delays handed out).
    pub fn attempts(&self) -> u32 {
        self.attempt
    }

    /// Starts the schedule over after a success.
    pub fn reset(&mut self) {
        self.attempt = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn delays_grow_to_the_cap_and_stay_jittered() {
        let base = Duration::from_millis(20);
        let cap = Duration::from_millis(250);
        let mut b = Backoff::new(base, cap);
        let mut rng = StdRng::seed_from_u64(1);
        let mut prev_max = Duration::ZERO;
        for i in 0..10 {
            let d = b.next_delay(&mut rng);
            let exp = base.checked_mul(1 << i.min(20)).unwrap_or(cap).min(cap);
            assert!(d >= exp / 2, "attempt {i}: {d:?} below half of {exp:?}");
            assert!(d <= exp, "attempt {i}: {d:?} above {exp:?}");
            assert!(d <= cap);
            prev_max = prev_max.max(d);
        }
        assert!(prev_max > Duration::from_millis(125), "the schedule reached the cap region");
    }

    #[test]
    fn schedule_is_deterministic_for_a_seed() {
        let run = || {
            let mut b = Backoff::new(Duration::from_millis(10), Duration::from_secs(1));
            let mut rng = StdRng::seed_from_u64(42);
            (0..8).map(|_| b.next_delay(&mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn reset_starts_over() {
        let mut b = Backoff::new(Duration::from_millis(100), Duration::from_secs(10));
        let mut rng = StdRng::seed_from_u64(0);
        let first = b.next_delay(&mut rng);
        let _ = b.next_delay(&mut rng);
        assert_eq!(b.attempts(), 2);
        b.reset();
        assert_eq!(b.attempts(), 0);
        let after = b.next_delay(&mut rng);
        // Both draws come from attempt 0, so both sit in [base/2, base].
        for d in [first, after] {
            assert!(d >= Duration::from_millis(50) && d <= Duration::from_millis(100));
        }
    }

    #[test]
    fn huge_attempt_counts_do_not_overflow() {
        let mut b = Backoff::new(Duration::from_millis(20), Duration::from_millis(300));
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..100 {
            let d = b.next_delay(&mut rng);
            assert!(d <= Duration::from_millis(300));
        }
    }
}
