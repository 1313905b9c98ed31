//! Sherlock (Hulsebos et al., KDD 2019) — the single-column baseline.
//!
//! Per-column hand-crafted features feed a small feed-forward network
//! ("sub networks" + "primary network" in the original; here one fused MLP
//! since our feature blocks are already compact). No table context: each
//! column is classified independently, which is the property the paper's
//! comparisons isolate.

use crate::features::{column_features, FEATURE_DIMS};
use doduo_eval::{decode_labels, multi_label_micro, Prf};
use doduo_table::Dataset;
use doduo_tensor::{train_epoch, Adam, LrSchedule, ParamId, ParamStore, Tape, Tensor};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// MLP hyper-parameters.
#[derive(Clone, Debug)]
pub struct SherlockConfig {
    pub hidden: usize,
    pub epochs: usize,
    pub batch_size: usize,
    pub lr: f32,
    pub dropout: f32,
    pub seed: u64,
    pub threads: usize,
    /// Multi-label (BCE) vs multi-class (CE) — matches the dataset regime.
    pub multi_label: bool,
    /// Positive-class weight for BCE (see the trainer's discussion).
    pub pos_weight: f32,
}

impl Default for SherlockConfig {
    fn default() -> Self {
        SherlockConfig {
            hidden: 96,
            epochs: 60,
            batch_size: 32,
            lr: 2e-3,
            dropout: 0.2,
            seed: 42,
            threads: doduo_tensor::default_threads(),
            multi_label: false,
            pos_weight: 10.0,
        }
    }
}

/// A featurized column example.
#[derive(Clone, Debug)]
pub struct ColumnExample {
    pub features: Vec<f32>,
    pub gold: Vec<u32>,
}

/// Featurizes every annotated column of a dataset.
pub fn featurize(ds: &Dataset) -> Vec<ColumnExample> {
    let mut out = Vec::with_capacity(ds.n_columns());
    for at in &ds.tables {
        for (c, col) in at.table.columns.iter().enumerate() {
            out.push(ColumnExample {
                features: column_features(col),
                gold: at.col_types[c].clone(),
            });
        }
    }
    out
}

/// The trained Sherlock model.
pub struct Sherlock {
    cfg: SherlockConfig,
    n_classes: usize,
    w1: ParamId,
    b1: ParamId,
    w2: ParamId,
    b2: ParamId,
    w_out: ParamId,
    b_out: ParamId,
}

impl Sherlock {
    pub fn new<R: Rng + ?Sized>(
        store: &mut ParamStore,
        n_classes: usize,
        cfg: SherlockConfig,
        rng: &mut R,
    ) -> Self {
        Self::with_input_dim(store, FEATURE_DIMS, n_classes, cfg, rng)
    }

    /// Variant with a custom input width — Sato appends LDA topic features
    /// to the Sherlock feature vector, widening the input.
    pub fn with_input_dim<R: Rng + ?Sized>(
        store: &mut ParamStore,
        input_dim: usize,
        n_classes: usize,
        cfg: SherlockConfig,
        rng: &mut R,
    ) -> Self {
        let h = cfg.hidden;
        // He-style init for ReLU layers.
        let s1 = (2.0 / input_dim as f32).sqrt();
        let s2 = (2.0 / h as f32).sqrt();
        Sherlock {
            w1: store.add_randn("sherlock.w1", input_dim, h, s1, rng),
            b1: store.add_zeros("sherlock.b1", 1, h),
            w2: store.add_randn("sherlock.w2", h, h, s2, rng),
            b2: store.add_zeros("sherlock.b2", 1, h),
            w_out: store.add_randn("sherlock.w_out", h, n_classes, s2, rng),
            b_out: store.add_zeros("sherlock.b_out", 1, n_classes),
            n_classes,
            cfg,
        }
    }

    fn logits<R: Rng + ?Sized>(
        &self,
        tape: &mut Tape<'_>,
        features: &[f32],
        rng: &mut R,
    ) -> doduo_tensor::NodeId {
        let x = tape.input(Tensor::row_vector(features.to_vec()));
        let h1 = tape.linear(x, self.w1, self.b1);
        let a1 = tape.relu(h1);
        let a1 = tape.dropout(a1, self.cfg.dropout, rng);
        let h2 = tape.linear(a1, self.w2, self.b2);
        let a2 = tape.relu(h2);
        let a2 = tape.dropout(a2, self.cfg.dropout, rng);
        tape.linear(a2, self.w_out, self.b_out)
    }

    /// Trains on featurized columns; returns mean loss per epoch.
    pub fn train(&self, store: &mut ParamStore, examples: &[ColumnExample]) -> Vec<f32> {
        assert!(!examples.is_empty(), "no training columns");
        let cfg = &self.cfg;
        let steps = cfg.epochs * examples.len().div_ceil(cfg.batch_size);
        let mut opt = Adam::new(store, LrSchedule::LinearDecay { lr0: cfg.lr, total_steps: steps });
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut order: Vec<usize> = (0..examples.len()).collect();
        (0..cfg.epochs)
            .map(|_| {
                let total = train_epoch(
                    store,
                    &mut opt,
                    &mut order,
                    cfg.batch_size,
                    cfg.threads,
                    &mut rng,
                    |tape, idx, rng| {
                        let ex = &examples[idx];
                        let logits = self.logits(tape, &ex.features, rng);
                        if cfg.multi_label {
                            let mut t = Tensor::zeros(1, self.n_classes);
                            for &g in &ex.gold {
                                t.set(0, g as usize, 1.0);
                            }
                            tape.bce_logits_weighted(logits, &t, cfg.pos_weight)
                        } else {
                            tape.softmax_ce(logits, &[ex.gold[0]])
                        }
                    },
                );
                total / examples.len() as f32
            })
            .collect()
    }

    /// Raw logits for one feature vector (inference).
    pub fn predict_logits(&self, store: &ParamStore, features: &[f32]) -> Vec<f32> {
        let mut rng = StdRng::seed_from_u64(0);
        let mut tape = Tape::inference(store);
        let logits = self.logits(&mut tape, features, &mut rng);
        tape.value(logits).row(0).to_vec()
    }

    /// Label-set predictions for a batch of examples.
    pub fn predict(&self, store: &ParamStore, examples: &[ColumnExample]) -> Vec<Vec<u32>> {
        examples
            .iter()
            .map(|ex| {
                let logits = self.predict_logits(store, &ex.features);
                decode_labels(&logits, self.cfg.multi_label)
            })
            .collect()
    }

    /// Micro P/R/F1 on a featurized evaluation set.
    pub fn evaluate(&self, store: &ParamStore, examples: &[ColumnExample]) -> Prf {
        let pred = self.predict(store, examples);
        let gold: Vec<Vec<u32>> = examples.iter().map(|e| e.gold.clone()).collect();
        multi_label_micro(&pred, &gold)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use doduo_datagen::{generate_viznet, KbConfig, KnowledgeBase, VizNetConfig};

    #[test]
    fn sherlock_learns_viznet_types() {
        let kb = KnowledgeBase::generate(&KbConfig::default(), 42);
        let ds = generate_viznet(&kb, &VizNetConfig { n_tables: 250, ..Default::default() });
        let mut rng = StdRng::seed_from_u64(1);
        let n_types = ds.type_vocab.len();
        let (train_ds, _valid, test_ds) = ds.split(0.8, 0.0, &mut rng);
        let train_ex = featurize(&train_ds);
        let test_ex = featurize(&test_ds);
        let mut store = ParamStore::new();
        let cfg = SherlockConfig { epochs: 40, ..Default::default() };
        let model = Sherlock::new(&mut store, n_types, cfg, &mut rng);
        let losses = model.train(&mut store, &train_ex);
        assert!(losses.last().unwrap() < &losses[0], "loss must drop: {losses:?}");
        let prf = model.evaluate(&store, &test_ex);
        // Many VizNet types are recognizable from values alone; Sherlock
        // should clearly beat random (1/78) but stay imperfect.
        assert!(prf.f1 > 0.35, "sherlock F1 {}", prf.f1);
    }

    #[test]
    fn multilabel_mode_emits_at_least_one_label() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(2);
        let cfg = SherlockConfig { multi_label: true, ..Default::default() };
        let model = Sherlock::new(&mut store, 5, cfg, &mut rng);
        let ex = ColumnExample { features: vec![0.1; FEATURE_DIMS], gold: vec![0] };
        let pred = model.predict(&store, &[ex]);
        assert!(!pred[0].is_empty());
    }
}
