//! Deterministic fault injection for the daemon (`--chaos`).
//!
//! The replicated-serving stack (`doduo-balance`) is only trustworthy if
//! its failure handling is *tested against real failures*: processes that
//! die mid-load, replicas that stall, connections that reset after a
//! partial response. This module makes those failures injectable and — the
//! part that matters for CI — **reproducible**: every decision is driven
//! by a request counter and a seeded [`StdRng`] stream (the workspace's one
//! seeded generator), never by wall clock or OS entropy, so a chaos test
//! that passes once passes always.
//!
//! The spec grammar is a comma-separated key=value list:
//!
//! ```text
//! --chaos crash_after=40,delay_ms=250,reset_prob=0.5,seed=7
//! ```
//!
//! * `crash_after=N` — the process exits (code 86, before any response
//!   byte) on the Nth `/v1/annotate` request it sees, counting from 1;
//!   `crash_after=0` crashes on the first. Because no response byte was
//!   written, a balancer may safely retry the request elsewhere.
//! * `delay_ms=D` — hold each finished `/v1/annotate` response back D ms
//!   before writing it (a slow replica; still answers correctly). The
//!   response waits on the reactor's timer heap: delayed requests overlap,
//!   and nothing else the daemon serves waits behind them.
//! * `reset_prob=P` — with probability P per request, write roughly half
//!   of the response and then sever the connection (a torn, *mid-response*
//!   failure — the one case a correct balancer must NOT retry).
//! * `seed=S` — seed for the `reset_prob` coin flips.
//!
//! Determinism under concurrency: there is one draw per `/v1/annotate`
//! request, made on the reactor thread when the request has fully arrived —
//! so the Nth request to arrive gets the Nth value of the seeded stream,
//! whatever the engine threads are doing. Two daemons with one seed, fed
//! the same requests one after another, fail the same ones; concurrent
//! clients race only for their arrival order.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// Parsed `--chaos` specification.
#[derive(Clone, Debug, PartialEq)]
pub struct ChaosConfig {
    /// Exit the process on the Nth `/v1/annotate` request (1-based;
    /// `Some(0)` crashes on the first request).
    pub crash_after: Option<u64>,
    /// Hold each finished `/v1/annotate` response back this long (on the
    /// reactor's timer heap; no thread sleeps).
    pub delay: Duration,
    /// Probability, per request, of writing a partial response and then
    /// severing the connection.
    pub reset_prob: f64,
    /// Seed for the `reset_prob` coin flips.
    pub seed: u64,
}

impl ChaosConfig {
    /// Parses a spec like `crash_after=40,delay_ms=250,reset_prob=0.5,seed=7`.
    /// Every key is optional; unknown keys are errors.
    pub fn parse(spec: &str) -> Result<ChaosConfig, String> {
        let mut cfg =
            ChaosConfig { crash_after: None, delay: Duration::ZERO, reset_prob: 0.0, seed: 0 };
        for part in spec.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let (key, value) =
                part.split_once('=').ok_or_else(|| format!("chaos: expected key=value: {part}"))?;
            match key.trim() {
                "crash_after" => {
                    cfg.crash_after = Some(
                        value.parse().map_err(|_| format!("chaos: bad crash_after: {value}"))?,
                    )
                }
                "delay_ms" => {
                    let ms: u64 =
                        value.parse().map_err(|_| format!("chaos: bad delay_ms: {value}"))?;
                    cfg.delay = Duration::from_millis(ms);
                }
                "reset_prob" => {
                    let p: f64 =
                        value.parse().map_err(|_| format!("chaos: bad reset_prob: {value}"))?;
                    if !(0.0..=1.0).contains(&p) {
                        return Err(format!("chaos: reset_prob out of [0,1]: {value}"));
                    }
                    cfg.reset_prob = p;
                }
                "seed" => {
                    cfg.seed = value.parse().map_err(|_| format!("chaos: bad seed: {value}"))?
                }
                other => return Err(format!("chaos: unknown key: {other}")),
            }
        }
        Ok(cfg)
    }
}

/// The faults to inject into one `/v1/annotate` request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChaosPlan {
    /// Exit the process before any response byte (retryable by a balancer).
    pub crash: bool,
    /// Hold the finished response back this long before writing it.
    pub delay: Option<Duration>,
    /// Write a partial response, then sever the connection (NOT retryable).
    pub reset: bool,
}

/// Per-process chaos state: the request counter and the seeded RNG stream.
#[derive(Debug)]
pub struct ChaosState {
    cfg: ChaosConfig,
    served: AtomicU64,
    rng: Mutex<StdRng>,
}

impl ChaosState {
    /// Chaos state at request zero for `cfg`.
    pub fn new(cfg: ChaosConfig) -> ChaosState {
        let rng = Mutex::new(StdRng::seed_from_u64(cfg.seed));
        ChaosState { cfg, served: AtomicU64::new(0), rng }
    }

    /// Called once per `/v1/annotate` request, in arrival order, on the
    /// reactor thread; returns the faults to inject.
    pub fn on_annotate(&self) -> ChaosPlan {
        let n = self.served.fetch_add(1, Ordering::SeqCst) + 1; // 1-based
        let coin = if self.cfg.reset_prob > 0.0 {
            self.rng.lock().expect("chaos rng lock").gen::<f64>()
        } else {
            1.0
        };
        plan(&self.cfg, n, coin)
    }
}

/// The pure decision rule: request number + one uniform draw → plan.
/// Split out so tests can table-drive it without a process to crash.
fn plan(cfg: &ChaosConfig, request: u64, coin: f64) -> ChaosPlan {
    ChaosPlan {
        crash: cfg.crash_after.is_some_and(|n| request >= n.max(1)),
        delay: (cfg.delay > Duration::ZERO).then_some(cfg.delay),
        reset: coin < cfg.reset_prob,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_full_spec() {
        let cfg = ChaosConfig::parse("crash_after=40,delay_ms=250,reset_prob=0.5,seed=7").unwrap();
        assert_eq!(
            cfg,
            ChaosConfig {
                crash_after: Some(40),
                delay: Duration::from_millis(250),
                reset_prob: 0.5,
                seed: 7,
            }
        );
    }

    #[test]
    fn parses_partial_and_empty_specs() {
        let cfg = ChaosConfig::parse("delay_ms=5").unwrap();
        assert_eq!(cfg.crash_after, None);
        assert_eq!(cfg.delay, Duration::from_millis(5));
        assert_eq!(cfg.reset_prob, 0.0);
        let empty = ChaosConfig::parse("").unwrap();
        assert_eq!(empty.crash_after, None);
    }

    #[test]
    fn rejects_bad_specs() {
        assert!(ChaosConfig::parse("crash_after").is_err());
        assert!(ChaosConfig::parse("crash_after=x").is_err());
        assert!(ChaosConfig::parse("reset_prob=1.5").is_err());
        assert!(ChaosConfig::parse("reset_prob=-0.1").is_err());
        assert!(ChaosConfig::parse("frob=1").is_err());
    }

    #[test]
    fn crash_fires_at_and_after_threshold() {
        let cfg = ChaosConfig::parse("crash_after=3").unwrap();
        assert!(!plan(&cfg, 1, 1.0).crash);
        assert!(!plan(&cfg, 2, 1.0).crash);
        assert!(plan(&cfg, 3, 1.0).crash);
        assert!(plan(&cfg, 4, 1.0).crash, "still armed after the threshold");
        // crash_after=0 behaves as "first request".
        let zero = ChaosConfig::parse("crash_after=0").unwrap();
        assert!(plan(&zero, 1, 1.0).crash);
    }

    #[test]
    fn reset_decision_follows_the_coin() {
        let cfg = ChaosConfig::parse("reset_prob=0.5").unwrap();
        assert!(plan(&cfg, 1, 0.49).reset);
        assert!(!plan(&cfg, 1, 0.5).reset);
        let always = ChaosConfig::parse("reset_prob=1.0").unwrap();
        assert!(plan(&always, 1, 0.999_999).reset);
        let never = ChaosConfig::parse("reset_prob=0").unwrap();
        assert!(!plan(&never, 1, 0.0).reset);
    }

    #[test]
    fn state_is_deterministic_for_a_seed() {
        let mk = || ChaosState::new(ChaosConfig::parse("reset_prob=0.5,seed=9").unwrap());
        let (a, b) = (mk(), mk());
        let plans_a: Vec<ChaosPlan> = (0..64).map(|_| a.on_annotate()).collect();
        let plans_b: Vec<ChaosPlan> = (0..64).map(|_| b.on_annotate()).collect();
        assert_eq!(plans_a, plans_b);
        assert!(plans_a.iter().any(|p| p.reset) && plans_a.iter().any(|p| !p.reset));
    }
}
