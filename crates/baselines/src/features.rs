//! Sherlock-style hand-crafted column features (§5.2).
//!
//! Sherlock extracts "character embeddings, word embeddings, paragraph
//! embeddings, and column statistics" per column. This reproduction keeps
//! the same information sources at reduced dimensionality: character-class
//! statistics, cell-length statistics, numeric-value statistics, and hashed
//! character-n-gram / word buckets standing in for the embedding feature
//! sets. All features are deterministic functions of the column content —
//! crucially *no table context*, which is exactly Sherlock's limitation the
//! paper contrasts against.

use doduo_table::Column;

/// Number of hashed character-trigram buckets.
pub const NGRAM_BUCKETS: usize = 64;
/// Number of hashed word buckets.
pub const WORD_BUCKETS: usize = 32;
/// Fixed statistics preceding the hashed buckets.
pub const STAT_DIMS: usize = 18;
/// Total feature dimensionality.
pub const FEATURE_DIMS: usize = STAT_DIMS + NGRAM_BUCKETS + WORD_BUCKETS;

/// FNV-1a — a small, dependency-free, stable hash for feature and n-gram
/// bucketing.
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

fn mean_std(xs: &[f32]) -> (f32, f32) {
    if xs.is_empty() {
        return (0.0, 0.0);
    }
    let mean = xs.iter().sum::<f32>() / xs.len() as f32;
    let var = xs.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / xs.len() as f32;
    (mean, var.sqrt())
}

/// Extracts the feature vector for one column.
pub fn column_features(col: &Column) -> Vec<f32> {
    let mut out = vec![0.0f32; FEATURE_DIMS];
    let n = col.values.len().max(1) as f32;

    // Character-class fractions, averaged over cells.
    let mut digit = 0.0;
    let mut alpha = 0.0;
    let mut punct = 0.0;
    let mut space = 0.0;
    let mut lengths = Vec::with_capacity(col.values.len());
    let mut word_counts = Vec::with_capacity(col.values.len());
    let mut numeric_vals = Vec::new();
    let mut distinct = std::collections::HashSet::new();
    for v in &col.values {
        let chars = v.chars().count().max(1) as f32;
        digit += v.chars().filter(|c| c.is_ascii_digit()).count() as f32 / chars;
        alpha += v.chars().filter(|c| c.is_alphabetic()).count() as f32 / chars;
        punct += v.chars().filter(|c| c.is_ascii_punctuation()).count() as f32 / chars;
        space += v.chars().filter(|c| c.is_whitespace()).count() as f32 / chars;
        lengths.push(v.chars().count() as f32);
        word_counts.push(v.split_whitespace().count() as f32);
        if let Ok(x) = v.trim().parse::<f64>() {
            numeric_vals.push(x as f32);
        }
        distinct.insert(v.as_str());
    }
    let (len_mean, len_std) = mean_std(&lengths);
    let (wc_mean, wc_std) = mean_std(&word_counts);
    let (num_mean, num_std) = mean_std(&numeric_vals);
    let len_min = lengths.iter().copied().fold(f32::INFINITY, f32::min);
    let len_max = lengths.iter().copied().fold(0.0f32, f32::max);
    let num_min = numeric_vals.iter().copied().fold(f32::INFINITY, f32::min);
    let num_max = numeric_vals.iter().copied().fold(f32::NEG_INFINITY, f32::max);

    let stats = [
        digit / n,
        alpha / n,
        punct / n,
        space / n,
        len_mean / 32.0,
        len_std / 16.0,
        if len_min.is_finite() { len_min / 32.0 } else { 0.0 },
        len_max / 64.0,
        wc_mean / 8.0,
        wc_std / 4.0,
        numeric_vals.len() as f32 / n, // fraction numeric
        soft_log(num_mean),
        soft_log(num_std),
        soft_log(num_min),
        soft_log(num_max),
        distinct.len() as f32 / n, // distinct ratio
        col.values.len() as f32 / 16.0,
        col.values.iter().filter(|v| v.trim().is_empty()).count() as f32 / n,
    ];
    out[..STAT_DIMS].copy_from_slice(&stats);

    // Hashed character trigrams (with boundary markers), L1-normalized.
    let mut total_tri = 0.0f32;
    for v in &col.values {
        let padded = format!("^{}$", v.to_lowercase());
        let bytes: Vec<char> = padded.chars().collect();
        for w in bytes.windows(3) {
            let s: String = w.iter().collect();
            let b = (fnv1a(s.as_bytes()) % NGRAM_BUCKETS as u64) as usize;
            out[STAT_DIMS + b] += 1.0;
            total_tri += 1.0;
        }
    }
    if total_tri > 0.0 {
        for v in &mut out[STAT_DIMS..STAT_DIMS + NGRAM_BUCKETS] {
            *v /= total_tri;
        }
    }

    // Hashed word unigrams, L1-normalized.
    let mut total_w = 0.0f32;
    for v in &col.values {
        for w in v.to_lowercase().split_whitespace() {
            let b = (fnv1a(w.as_bytes()) % WORD_BUCKETS as u64) as usize;
            out[STAT_DIMS + NGRAM_BUCKETS + b] += 1.0;
            total_w += 1.0;
        }
    }
    if total_w > 0.0 {
        for v in &mut out[STAT_DIMS + NGRAM_BUCKETS..] {
            *v /= total_w;
        }
    }
    out
}

/// Signed log compression for unbounded numeric statistics.
fn soft_log(x: f32) -> f32 {
    if !x.is_finite() {
        return 0.0;
    }
    x.signum() * x.abs().ln_1p() / 16.0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn col(vals: &[&str]) -> Column {
        Column::new(vals.iter().map(|s| s.to_string()).collect())
    }

    #[test]
    fn feature_vector_has_fixed_dims_and_is_finite() {
        for vals in [
            vec!["hello", "world"],
            vec!["1", "2", "3"],
            vec![""],
            vec!["3.14", "abc", "x y z", "192.168.0.1"],
        ] {
            let f = column_features(&col(&vals));
            assert_eq!(f.len(), FEATURE_DIMS);
            assert!(f.iter().all(|v| v.is_finite()), "{vals:?} -> non-finite");
        }
    }

    #[test]
    fn numeric_columns_have_high_numeric_fraction() {
        let numeric = column_features(&col(&["1", "22", "333"]));
        let textual = column_features(&col(&["alpha", "beta", "gamma"]));
        // stats[10] is the numeric fraction.
        assert!(numeric[10] > 0.99);
        assert!(textual[10] < 0.01);
        // digit fraction (stats[0]) separates them too.
        assert!(numeric[0] > textual[0]);
    }

    #[test]
    fn distinct_ratio_detects_repetition() {
        let repeated = column_features(&col(&["yes", "yes", "yes", "yes"]));
        let unique = column_features(&col(&["a", "b", "c", "d"]));
        assert!(repeated[15] < unique[15]);
    }

    #[test]
    fn features_are_deterministic_and_content_sensitive() {
        let a = column_features(&col(&["george miller", "john lasseter"]));
        let b = column_features(&col(&["george miller", "john lasseter"]));
        assert_eq!(a, b);
        let c = column_features(&col(&["12:30", "14:55"]));
        assert_ne!(a, c);
    }

    #[test]
    fn empty_column_is_safe() {
        let f = column_features(&col(&[]));
        assert_eq!(f.len(), FEATURE_DIMS);
        assert!(f.iter().all(|v| v.is_finite()));
    }
}
