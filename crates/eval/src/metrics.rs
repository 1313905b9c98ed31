//! Precision / recall / F1 metrics, following §5.3:
//! * WikiTable tasks are multi-label → micro P/R/F1 over (item, label) pairs;
//! * VizNet is single-label multi-class → micro F1 (= accuracy) and macro F1
//!   (unweighted mean of per-class F1).
//!
//! [`decode_labels`] turns a row of logits into the label set these score,
//! for Doduo and the Sherlock/Sato baselines alike.

#![allow(clippy::needless_range_loop)] // index loops over matrix coordinates are clearest here
/// A precision/recall/F1 triple (fractions in `[0, 1]`).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Prf {
    pub precision: f64,
    pub recall: f64,
    pub f1: f64,
}

impl Prf {
    pub fn from_counts(tp: usize, fp: usize, fn_: usize) -> Prf {
        let p = if tp + fp == 0 { 0.0 } else { tp as f64 / (tp + fp) as f64 };
        let r = if tp + fn_ == 0 { 0.0 } else { tp as f64 / (tp + fn_) as f64 };
        let f1 = if p + r == 0.0 { 0.0 } else { 2.0 * p * r / (p + r) };
        Prf { precision: p, recall: r, f1 }
    }
}

/// Running TP/FP/FN counts for micro-averaged metrics.
#[derive(Clone, Copy, Debug, Default)]
pub struct Counts {
    pub tp: usize,
    pub fp: usize,
    pub fn_: usize,
}

impl Counts {
    /// Adds one item's predicted and gold label sets.
    pub fn add(&mut self, pred: &[u32], gold: &[u32]) {
        for p in pred {
            if gold.contains(p) {
                self.tp += 1;
            } else {
                self.fp += 1;
            }
        }
        for g in gold {
            if !pred.contains(g) {
                self.fn_ += 1;
            }
        }
    }

    pub fn merge(&mut self, other: Counts) {
        self.tp += other.tp;
        self.fp += other.fp;
        self.fn_ += other.fn_;
    }

    pub fn prf(&self) -> Prf {
        Prf::from_counts(self.tp, self.fp, self.fn_)
    }
}

/// Micro-averaged P/R/F1 over multi-label predictions.
pub fn multi_label_micro(pred: &[Vec<u32>], gold: &[Vec<u32>]) -> Prf {
    assert_eq!(pred.len(), gold.len(), "prediction/gold length mismatch");
    let mut c = Counts::default();
    for (p, g) in pred.iter().zip(gold.iter()) {
        c.add(p, g);
    }
    c.prf()
}

/// Micro F1 for single-label multi-class predictions (equals accuracy).
pub fn multi_class_micro(pred: &[u32], gold: &[u32]) -> Prf {
    assert_eq!(pred.len(), gold.len());
    if pred.is_empty() {
        return Prf::default();
    }
    let correct = pred.iter().zip(gold.iter()).filter(|(p, g)| p == g).count();
    let acc = correct as f64 / pred.len() as f64;
    Prf { precision: acc, recall: acc, f1: acc }
}

/// Per-class P/R/F1 for single-label predictions over `n_classes`.
pub fn per_class_prf(pred: &[u32], gold: &[u32], n_classes: usize) -> Vec<Prf> {
    assert_eq!(pred.len(), gold.len());
    let mut counts = vec![Counts::default(); n_classes];
    for (&p, &g) in pred.iter().zip(gold.iter()) {
        if p == g {
            counts[p as usize].tp += 1;
        } else {
            if (p as usize) < n_classes {
                counts[p as usize].fp += 1;
            }
            counts[g as usize].fn_ += 1;
        }
    }
    counts.iter().map(Counts::prf).collect()
}

/// Per-class P/R/F1 for multi-label predictions.
pub fn per_class_prf_multi(pred: &[Vec<u32>], gold: &[Vec<u32>], n_classes: usize) -> Vec<Prf> {
    assert_eq!(pred.len(), gold.len());
    let mut counts = vec![Counts::default(); n_classes];
    for (p, g) in pred.iter().zip(gold.iter()) {
        for &l in p {
            if g.contains(&l) {
                counts[l as usize].tp += 1;
            } else {
                counts[l as usize].fp += 1;
            }
        }
        for &l in g {
            if !p.contains(&l) {
                counts[l as usize].fn_ += 1;
            }
        }
    }
    counts.iter().map(Counts::prf).collect()
}

/// Macro F1: unweighted mean of per-class F1 over classes that actually
/// occur in the gold labels (Sato's protocol).
pub fn macro_f1(pred: &[u32], gold: &[u32], n_classes: usize) -> f64 {
    let per = per_class_prf(pred, gold, n_classes);
    let mut sum = 0.0;
    let mut n = 0usize;
    for c in 0..n_classes {
        if gold.iter().any(|&g| g as usize == c) {
            sum += per[c].f1;
            n += 1;
        }
    }
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

/// Decodes logits into a label set: multi-label → sigmoid > 0.5 with argmax
/// fallback (every column predicts at least one type, matching TURL's
/// protocol); single-label → argmax.
pub fn decode_labels(logits: &[f32], multi_label: bool) -> Vec<u32> {
    if multi_label {
        let mut out: Vec<u32> = logits
            .iter()
            .enumerate()
            .filter(|&(_, &z)| z > 0.0) // sigmoid(z) > 0.5 ⇔ z > 0
            .map(|(i, _)| i as u32)
            .collect();
        if out.is_empty() {
            out.push(argmax(logits) as u32);
        }
        out
    } else {
        vec![argmax(logits) as u32]
    }
}

fn argmax(xs: &[f32]) -> usize {
    let mut best = 0;
    for (i, &x) in xs.iter().enumerate() {
        if x > xs[best] {
            best = i;
        }
    }
    best
}

/// Class support (gold occurrence counts) for reporting.
pub fn class_support(gold: &[u32], n_classes: usize) -> Vec<usize> {
    let mut s = vec![0usize; n_classes];
    for &g in gold {
        s[g as usize] += 1;
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decode_labels_multi_and_single() {
        assert_eq!(decode_labels(&[-1.0, 2.0, 0.5], true), vec![1, 2]);
        assert_eq!(decode_labels(&[-3.0, -2.0, -1.0], true), vec![2], "argmax fallback");
        assert_eq!(decode_labels(&[0.1, 5.0, -1.0], false), vec![1]);
    }

    #[test]
    fn perfect_predictions_score_one() {
        let pred = vec![vec![0, 1], vec![2]];
        let gold = pred.clone();
        let m = multi_label_micro(&pred, &gold);
        assert_eq!(m.f1, 1.0);
        assert_eq!(m.precision, 1.0);
        assert_eq!(m.recall, 1.0);
    }

    #[test]
    fn disjoint_predictions_score_zero() {
        let pred = vec![vec![0u32]];
        let gold = vec![vec![1u32]];
        let m = multi_label_micro(&pred, &gold);
        assert_eq!(m.f1, 0.0);
    }

    #[test]
    fn micro_counts_are_pairwise() {
        // pred {0,1} vs gold {1,2}: tp=1 (label 1), fp=1 (label 0), fn=1 (2).
        let m = multi_label_micro(&[vec![0, 1]], &[vec![1, 2]]);
        assert!((m.precision - 0.5).abs() < 1e-9);
        assert!((m.recall - 0.5).abs() < 1e-9);
        assert!((m.f1 - 0.5).abs() < 1e-9);
    }

    #[test]
    fn multi_class_micro_is_accuracy() {
        let m = multi_class_micro(&[0, 1, 2, 2], &[0, 1, 1, 2]);
        assert!((m.f1 - 0.75).abs() < 1e-9);
    }

    #[test]
    fn per_class_prf_basic() {
        // gold: [0,0,1], pred: [0,1,1]
        let per = per_class_prf(&[0, 1, 1], &[0, 0, 1], 2);
        // class 0: tp=1, fn=1, fp=0 -> p=1, r=0.5, f1=2/3
        assert!((per[0].f1 - 2.0 / 3.0).abs() < 1e-9);
        // class 1: tp=1, fp=1, fn=0 -> p=0.5, r=1 -> f1=2/3
        assert!((per[1].f1 - 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn macro_ignores_absent_classes() {
        // Class 2 never appears in gold; macro over classes 0 and 1 only.
        let m = macro_f1(&[0, 1], &[0, 1], 3);
        assert_eq!(m, 1.0);
    }

    #[test]
    fn macro_differs_from_micro_under_imbalance() {
        // 9 correct majority, 1 wrong minority.
        let gold: Vec<u32> = (0..10).map(|i| if i < 9 { 0 } else { 1 }).collect();
        let pred: Vec<u32> = vec![0; 10];
        let micro = multi_class_micro(&pred, &gold).f1;
        let mac = macro_f1(&pred, &gold, 2);
        assert!(micro > 0.89);
        assert!(mac < 0.5, "macro punishes the missed minority class: {mac}");
    }

    #[test]
    fn counts_merge() {
        let mut a = Counts::default();
        a.add(&[0], &[0]);
        let mut b = Counts::default();
        b.add(&[1], &[2]);
        a.merge(b);
        assert_eq!((a.tp, a.fp, a.fn_), (1, 1, 1));
    }

    #[test]
    fn per_class_multi_label() {
        let per = per_class_prf_multi(&[vec![0, 1]], &[vec![0]], 2);
        assert_eq!(per[0].f1, 1.0);
        assert_eq!(per[1].f1, 0.0);
    }

    #[test]
    fn empty_inputs() {
        assert_eq!(multi_class_micro(&[], &[]).f1, 0.0);
        let m = multi_label_micro(&[], &[]);
        assert_eq!(m.f1, 0.0);
    }
}
