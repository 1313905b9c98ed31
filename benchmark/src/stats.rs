//! Order statistics, the spread rule and the output digest.

/// Median of `values` (mean of the two middle values for an even count).
/// Panics on an empty slice: every caller has at least one sample.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The three quartile cut points, computed exactly as Python's
/// `statistics.quantiles(values, n=4)` (the "exclusive" method) does, since
/// that is the rule the acceptance check applies. Needs two samples.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need at least two samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len();
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Distance between the first and third quartile as a share of the median.
pub fn relative_spread(values: &[f64]) -> f64 {
    let q = quartiles(values);
    let med = median(values);
    if med == 0.0 {
        0.0
    } else {
        (q[2] - q[0]) / med.abs()
    }
}

/// A tail latency and the percentile it stands for.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The percentile reported, in percent (at most 99).
    pub percentile: f64,
    /// The sample at that percentile (nearest rank).
    pub value: f64,
}

/// The highest percentile, capped at p99, that still has at least ten
/// samples beyond it, and never less than the median: a run of fewer than
/// twenty operations has no tail to speak of, and its "tail" is its
/// median. Sorts `samples` in place.
pub fn tail(samples: &mut [f64]) -> Tail {
    assert!(!samples.is_empty(), "tail of no samples");
    samples.sort_by(f64::total_cmp);
    let n = samples.len();
    // Nearest ranks of p99 and of the median.
    let p99_rank = ((n as f64) * 0.99).ceil() as usize;
    let p50_rank = n.div_ceil(2);
    let rank = p99_rank.min(n.saturating_sub(10)).max(p50_rank);
    let percentile = if rank == p99_rank { 99.0 } else { 100.0 * rank as f64 / n as f64 };
    Tail { percentile, value: samples[rank - 1] }
}

/// Nearest-rank percentile (`p` in percent) of an already sorted slice.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = ((sorted.len() as f64) * p / 100.0).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// FNV-1a (64 bit) over a sequence of byte strings, each closed by a
/// separator so that moving bytes between outputs changes the digest.
#[derive(Clone, Copy)]
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn push(&mut self, bytes: &[u8]) {
        for &b in bytes.iter().chain(std::iter::once(&0xffu8)) {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
        assert_eq!(quartiles(&[3.0, 1.0, 4.0, 1.0, 5.0]), [1.0, 3.0, 4.5]);
        // Two points extrapolate: quantiles([10, 20], n=4) == [7.5, 15, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), [7.5, 15.0, 22.5]);
    }

    #[test]
    fn spread_is_interquartile_distance_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((relative_spread(&v) - 1.0).abs() < 1e-12);
        assert_eq!(relative_spread(&[5.0, 5.0, 5.0]), 0.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        // 2,000 samples: p99 is rank 1980 and has 20 beyond it.
        let mut big: Vec<f64> = (1..=2000).map(f64::from).collect();
        assert_eq!(tail(&mut big), Tail { percentile: 99.0, value: 1980.0 });
        // 1,000 samples: exactly ten beyond p99.
        let mut k: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&mut k), Tail { percentile: 99.0, value: 990.0 });
        // 40 samples: p99 would have none beyond it, so rank 30 = p75.
        let mut small: Vec<f64> = (1..=40).rev().map(f64::from).collect();
        assert_eq!(tail(&mut small), Tail { percentile: 75.0, value: 30.0 });
        // Fewer than twenty: ten beyond would fall below the median, which
        // is reported instead.
        let mut few: Vec<f64> = (1..=12).map(f64::from).collect();
        assert_eq!(tail(&mut few), Tail { percentile: 50.0, value: 6.0 });
        let mut one = vec![3.0];
        assert_eq!(tail(&mut one), Tail { percentile: 99.0, value: 3.0 });
    }

    #[test]
    fn median_and_percentile_use_nearest_rank() {
        assert_eq!(median(&[4.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_sorted(&s, 50.0), 50.0);
        assert_eq!(percentile_sorted(&s, 99.0), 99.0);
    }

    #[test]
    fn digest_separates_outputs() {
        let mut a = Digest::new();
        a.push(b"ab");
        a.push(b"c");
        let mut b = Digest::new();
        b.push(b"a");
        b.push(b"bc");
        assert_ne!(a.hex(), b.hex());
        let mut c = Digest::new();
        c.push(b"ab");
        c.push(b"c");
        assert_eq!(a.hex(), c.hex());
    }
}
