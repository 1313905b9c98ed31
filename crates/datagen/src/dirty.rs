//! Dirty-data injection (the paper's §B "Clean data vs. dirty data"
//! limitation): DODUO assumes "correct and clean" table values; follow-up
//! work on LM-based data tasks reports robustness to missing or misplaced
//! values. This module corrupts tables in controlled ways so that
//! robustness can be measured (the `ablation_dirty` experiment binary).

use doduo_table::Dataset;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// What fraction of cells receive each corruption.
#[derive(Clone, Debug)]
pub struct DirtyConfig {
    /// Cell emptied ("missing value").
    pub missing: f64,
    /// Cell swapped with a random cell from a *different column* of the same
    /// table ("misplaced value").
    pub misplaced: f64,
    /// One character typo (swap of two adjacent characters).
    pub typo: f64,
    pub seed: u64,
}

impl DirtyConfig {
    /// A mild corruption level (≈10% of cells affected overall).
    pub fn mild(seed: u64) -> Self {
        DirtyConfig { missing: 0.04, misplaced: 0.03, typo: 0.03, seed }
    }

    /// A heavy corruption level (≈30% of cells affected overall).
    pub fn heavy(seed: u64) -> Self {
        DirtyConfig { missing: 0.12, misplaced: 0.09, typo: 0.09, seed }
    }

    /// Total corruption probability per cell.
    pub fn total(&self) -> f64 {
        self.missing + self.misplaced + self.typo
    }
}

fn typo(s: &str, rng: &mut StdRng) -> String {
    let chars: Vec<char> = s.chars().collect();
    if chars.len() < 2 {
        return s.to_string();
    }
    let i = rng.gen_range(0..chars.len() - 1);
    let mut out = chars;
    out.swap(i, i + 1);
    out.into_iter().collect()
}

/// Returns a corrupted copy of the dataset; annotations are untouched (the
/// evaluation question is whether models still recover them).
pub fn corrupt_dataset(ds: &Dataset, cfg: &DirtyConfig) -> Dataset {
    assert!(cfg.total() <= 1.0, "corruption probabilities exceed 1");
    let mut out = ds.clone();
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    for at in &mut out.tables {
        let n_cols = at.table.n_cols();
        for c in 0..n_cols {
            for r in 0..at.table.columns[c].values.len() {
                let x: f64 = rng.gen();
                if x < cfg.missing {
                    at.table.columns[c].values[r] = String::new();
                } else if x < cfg.missing + cfg.misplaced && n_cols > 1 {
                    // Swap with a random cell of another column.
                    let mut oc = rng.gen_range(0..n_cols);
                    if oc == c {
                        oc = (oc + 1) % n_cols;
                    }
                    if !at.table.columns[oc].values.is_empty() {
                        let orow = rng.gen_range(0..at.table.columns[oc].values.len());
                        let tmp = at.table.columns[c].values[r].clone();
                        at.table.columns[c].values[r] = at.table.columns[oc].values[orow].clone();
                        at.table.columns[oc].values[orow] = tmp;
                    }
                } else if x < cfg.total() {
                    let v = at.table.columns[c].values[r].clone();
                    at.table.columns[c].values[r] = typo(&v, &mut rng);
                }
            }
        }
    }
    out
}

/// Measures the realized corruption rate (fraction of cells that differ
/// from the clean dataset) — used by tests and reports.
pub fn corruption_rate(clean: &Dataset, dirty: &Dataset) -> f64 {
    let mut total = 0usize;
    let mut changed = 0usize;
    for (a, b) in clean.tables.iter().zip(dirty.tables.iter()) {
        for (ca, cb) in a.table.columns.iter().zip(b.table.columns.iter()) {
            for (va, vb) in ca.values.iter().zip(cb.values.iter()) {
                total += 1;
                changed += usize::from(va != vb);
            }
        }
    }
    if total == 0 {
        0.0
    } else {
        changed as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kb::{KbConfig, KnowledgeBase};
    use crate::wikitable::{generate_wikitable, WikiTableConfig};

    fn clean() -> Dataset {
        let kb = KnowledgeBase::generate(&KbConfig::default(), 42);
        generate_wikitable(&kb, &WikiTableConfig { n_tables: 60, ..Default::default() })
    }

    #[test]
    fn corruption_rate_tracks_config() {
        let ds = clean();
        let mild = corrupt_dataset(&ds, &DirtyConfig::mild(1));
        let heavy = corrupt_dataset(&ds, &DirtyConfig::heavy(1));
        let r_mild = corruption_rate(&ds, &mild);
        let r_heavy = corruption_rate(&ds, &heavy);
        // Typos on 1-char cells and swaps with identical values can no-op,
        // so the realized rate sits at or below the configured rate.
        assert!(r_mild > 0.03 && r_mild < 0.15, "mild rate {r_mild}");
        assert!(r_heavy > 0.15 && r_heavy < 0.40, "heavy rate {r_heavy}");
        assert!(r_heavy > r_mild);
    }

    #[test]
    fn annotations_are_preserved() {
        let ds = clean();
        let dirty = corrupt_dataset(&ds, &DirtyConfig::heavy(2));
        dirty.validate().expect("corrupted dataset stays structurally valid");
        for (a, b) in ds.tables.iter().zip(dirty.tables.iter()) {
            assert_eq!(a.col_types, b.col_types);
            assert_eq!(a.relations, b.relations);
            assert_eq!(a.table.n_cols(), b.table.n_cols());
            assert_eq!(a.table.n_rows(), b.table.n_rows());
        }
    }

    #[test]
    fn corruption_is_deterministic() {
        let ds = clean();
        let a = corrupt_dataset(&ds, &DirtyConfig::mild(7));
        let b = corrupt_dataset(&ds, &DirtyConfig::mild(7));
        for (x, y) in a.tables.iter().zip(b.tables.iter()) {
            assert_eq!(x.table, y.table);
        }
    }

    #[test]
    fn typo_swaps_adjacent_chars() {
        let mut rng = StdRng::seed_from_u64(3);
        let t = typo("abcd", &mut rng);
        assert_eq!(t.len(), 4);
        assert_ne!(t, "abcd");
        let mut sorted: Vec<char> = t.chars().collect();
        sorted.sort_unstable();
        assert_eq!(sorted, vec!['a', 'b', 'c', 'd']);
        assert_eq!(typo("x", &mut rng), "x", "single chars are left alone");
    }

    #[test]
    fn zero_config_is_identity() {
        let ds = clean();
        let same =
            corrupt_dataset(&ds, &DirtyConfig { missing: 0.0, misplaced: 0.0, typo: 0.0, seed: 1 });
        assert_eq!(corruption_rate(&ds, &same), 0.0);
    }
}
