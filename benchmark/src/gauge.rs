//! The host gauge: how the benchmark keeps a shared host's changing speed
//! out of its speed metrics.
//!
//! The bench host is a small guest on a shared machine. The speed of
//! arithmetic-bound code on one of its processors moves between levels up
//! to 1.4x apart and stays there for seconds to minutes (a neighbour on the
//! same core), so the same build measured twice differs by tens of percent
//! and no window the contract allows averages that away. What does hold
//! still is the *ratio* of the program's time to the time of a fixed piece
//! of arithmetic run on the same processor a moment earlier or later.
//!
//! So every measured window is cut into stretches of work, a fixed kernel
//! of the harness's own (the gauge: fused multiply-adds over two small
//! arrays, nothing of the program's) is timed between them, and each
//! stretch's time per table is scaled by `REFERENCE_MS / reading`: what the
//! stretch would have taken on the bench host at its quiet level. The
//! window reports the median stretch. Raw wall-clock numbers are kept
//! beside every calibrated one (`raw_*` in a result's `info`).

use crate::stats;
use std::time::Instant;

/// One gauge reading on the quiet bench host, in milliseconds: the unit
/// calibrated times are expressed in. Frozen; on another host calibrated
/// times are still comparable with each other, only not with wall clock.
pub const REFERENCE_MS: f64 = 0.185;

/// Kernel runs per reading; the reading is their median, so that one
/// pre-empted run does not decide it.
const RUNS_PER_READING: usize = 3;
const LEN: usize = 2048;
const LANES: usize = 64;
const SWEEPS: usize = 2000;

/// The arrays the kernel sweeps (16 KiB, resident in the first-level cache).
pub struct Gauge {
    a: Vec<f32>,
    b: Vec<f32>,
}

#[inline(always)]
fn sweep(a: &[f32], b: &[f32], acc: &mut [f32; LANES]) {
    for _ in 0..SWEEPS {
        for (x, y) in a.chunks_exact(LANES).zip(b.chunks_exact(LANES)) {
            for k in 0..LANES {
                acc[k] = x[k].mul_add(y[k], acc[k]);
            }
        }
    }
}

/// The same loop compiled for the vector unit the program's own kernels
/// use, so that the gauge slows down when they do.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn sweep_avx2(a: &[f32], b: &[f32], acc: &mut [f32; LANES]) {
    sweep(a, b, acc)
}

impl Gauge {
    pub fn new() -> Gauge {
        Gauge {
            a: (0..LEN).map(|i| (i % 17) as f32 * 0.01).collect(),
            b: (0..LEN).map(|i| (i % 13) as f32 * 0.01).collect(),
        }
    }

    fn run_ms(&self) -> f64 {
        let mut acc = [0f32; LANES];
        let start = Instant::now();
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("fma")
            {
                // SAFETY: both features were just detected.
                unsafe { sweep_avx2(&self.a, &self.b, &mut acc) };
            } else {
                sweep(&self.a, &self.b, &mut acc);
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        sweep(&self.a, &self.b, &mut acc);
        std::hint::black_box(acc);
        start.elapsed().as_secs_f64() * 1e3
    }

    /// One reading, in milliseconds, on the processor the caller runs on.
    pub fn read_ms(&self) -> f64 {
        let runs: Vec<f64> = (0..RUNS_PER_READING).map(|_| self.run_ms()).collect();
        stats::median(&runs)
    }
}

/// A stretch of measured work and the gauge reading that belongs to it
/// (the mean of the readings before and after it).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Stretch {
    pub work_s: f64,
    pub tables: u64,
    pub gauge_ms: f64,
}

/// A window's stretches reduced to one calibrated figure.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Calibrated {
    /// Median over the stretches of wall time per table scaled to the
    /// reference host, in milliseconds.
    pub per_table_ms: f64,
    /// All work time over all tables, unscaled.
    pub raw_per_table_ms: f64,
    /// `raw / calibrated`: how much slower than the reference the host ran
    /// this window. CPU time is divided by it.
    pub slowdown: f64,
}

pub fn calibrate(stretches: &[Stretch]) -> Calibrated {
    let live: Vec<&Stretch> =
        stretches.iter().filter(|s| s.tables > 0 && s.gauge_ms > 0.0).collect();
    assert!(!live.is_empty(), "a window holds at least one stretch of work");
    let scaled: Vec<f64> =
        live.iter().map(|s| 1e3 * s.work_s / s.tables as f64 * REFERENCE_MS / s.gauge_ms).collect();
    let per_table_ms = stats::median(&scaled);
    let work_s: f64 = live.iter().map(|s| s.work_s).sum();
    let tables: u64 = live.iter().map(|s| s.tables).sum();
    let raw_per_table_ms = 1e3 * work_s / tables as f64;
    Calibrated { per_table_ms, raw_per_table_ms, slowdown: raw_per_table_ms / per_table_ms }
}

/// How much slower than the reference the host ran, from readings alone
/// (for a window whose throughput is fixed by its arrival rate).
pub fn slowdown_of(readings_ms: &[f64]) -> f64 {
    if readings_ms.is_empty() {
        1.0
    } else {
        stats::median(readings_ms) / REFERENCE_MS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_slow_host_cancels_out_of_the_calibrated_time() {
        // The same work on a quiet host and on one running 1.4x slower:
        // work time and gauge reading rise together.
        let quiet = Stretch { work_s: 0.010, tables: 8, gauge_ms: REFERENCE_MS };
        let slow = Stretch { work_s: 0.014, tables: 8, gauge_ms: 1.4 * REFERENCE_MS };
        let c = calibrate(&[quiet, slow, slow]);
        assert!((c.per_table_ms - 1.25).abs() < 1e-9);
        assert!(c.raw_per_table_ms > 1.25 * 1.2);
        assert!((c.slowdown - c.raw_per_table_ms / 1.25).abs() < 1e-9);
    }

    #[test]
    fn the_median_stretch_ignores_one_interrupted_stretch() {
        let ok = Stretch { work_s: 0.010, tables: 10, gauge_ms: REFERENCE_MS };
        let hit = Stretch { work_s: 0.050, tables: 10, gauge_ms: REFERENCE_MS };
        assert!((calibrate(&[ok, hit, ok]).per_table_ms - 1.0).abs() < 1e-9);
        // Empty stretches (a session cut short by the window's end) are skipped.
        let empty = Stretch { work_s: 0.0, tables: 0, gauge_ms: REFERENCE_MS };
        assert!((calibrate(&[ok, empty]).per_table_ms - 1.0).abs() < 1e-9);
    }

    #[test]
    fn readings_are_positive_and_repeat_roughly() {
        let g = Gauge::new();
        let (a, b) = (g.read_ms(), g.read_ms());
        assert!(a > 0.0 && b > 0.0);
        assert!(a / b < 5.0 && b / a < 5.0, "{a} vs {b}");
        assert!((slowdown_of(&[2.0 * REFERENCE_MS]) - 2.0).abs() < 1e-12);
        assert_eq!(slowdown_of(&[]), 1.0);
    }
}
