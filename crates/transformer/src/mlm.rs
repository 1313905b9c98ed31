//! Masked-language-model pretraining (§3.2 of the paper).
//!
//! The paper relies on BERT's pretraining to give the encoder "semantic
//! knowledge" about entities before fine-tuning; its probing analysis
//! (Appendix A.5) shows that a randomly-initialized model is useless and
//! that fact knowledge is retrievable by perplexity templates. This module
//! reproduces that machinery: BERT-style 80/10/10 token masking, the MLM
//! head, pretraining (epochs of [`doduo_tensor::train_epoch`], the
//! mini-batch loop fine-tuning runs too), and pseudo-perplexity scoring.

use crate::config::EncoderConfig;
use crate::encoder::{BatchSeq, Encoder};
use doduo_tensor::{train_epoch, Adam, Fill, Init, LrSchedule, NodeId, ParamId, ParamStore, Tape};
use doduo_tokenizer::MASK;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The MLM output head: dense + GELU + decoder to vocabulary logits.
pub struct MlmHead {
    dense_w: ParamId,
    dense_b: ParamId,
    dec_w: ParamId,
    dec_b: ParamId,
}

impl MlmHead {
    /// Registers the head's parameters under `prefix`, valued by `init`
    /// (see [`Encoder::new`]).
    pub fn new<I: Init + ?Sized>(
        store: &mut ParamStore,
        cfg: &EncoderConfig,
        prefix: &str,
        init: &mut I,
    ) -> Self {
        let (d, v, w) = (cfg.hidden, cfg.vocab_size, Fill::Randn(0.02));
        MlmHead {
            dense_w: store.init(format!("{prefix}.mlm.dense.w"), d, d, w, init),
            dense_b: store.init(format!("{prefix}.mlm.dense.b"), 1, d, Fill::Zeros, init),
            dec_w: store.init(format!("{prefix}.mlm.dec.w"), d, v, w, init),
            dec_b: store.init(format!("{prefix}.mlm.dec.b"), 1, v, Fill::Zeros, init),
        }
    }

    /// Vocabulary logits for each row of `picked` — the top-layer rows of
    /// the positions being predicted.
    pub fn logits(&self, tape: &mut Tape<'_>, picked: NodeId) -> NodeId {
        let h = tape.linear(picked, self.dense_w, self.dense_b);
        let act = tape.gelu(h);
        tape.linear(act, self.dec_w, self.dec_b)
    }

    /// Encodes `ids` and returns the vocabulary logits at `positions`
    /// (strictly ascending) — all the MLM loss reads of the sequence, so
    /// the encoder keeps exactly those top-layer rows: its last block
    /// computes, and `backward` differentiates, nothing else.
    pub fn logits_at<R: Rng + ?Sized>(
        &self,
        tape: &mut Tape<'_>,
        encoder: &Encoder,
        ids: &[u32],
        positions: &[u32],
        rng: &mut R,
    ) -> NodeId {
        let seq = std::iter::once(BatchSeq { ids, mask: None });
        let picked = encoder.encode(tape, seq, std::iter::once(Some(positions)), rng);
        self.logits(tape, picked)
    }
}

/// One masked training example.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MaskedExample {
    /// Ids after masking.
    pub input: Vec<u32>,
    /// Positions that were selected for prediction.
    pub positions: Vec<u32>,
    /// Original ids at those positions.
    pub targets: Vec<u32>,
}

/// BERT's masking recipe: each non-special position is selected with
/// probability `mask_prob`; a selected position becomes `[MASK]` 80% of the
/// time, a random token 10%, and stays unchanged 10%. At least one position
/// is always selected.
pub fn mask_tokens<R: Rng + ?Sized>(
    ids: &[u32],
    vocab_size: usize,
    mask_prob: f32,
    rng: &mut R,
) -> MaskedExample {
    let eligible: Vec<usize> = (0..ids.len()).filter(|&i| ids[i] > 4).collect();
    let mut input = ids.to_vec();
    let mut positions = Vec::new();
    let mut targets = Vec::new();
    for &i in &eligible {
        if rng.gen::<f32>() < mask_prob {
            positions.push(i as u32);
            targets.push(ids[i]);
            let r: f32 = rng.gen();
            if r < 0.8 {
                input[i] = MASK;
            } else if r < 0.9 {
                input[i] = rng.gen_range(5..vocab_size as u32);
            } // else keep the original token
        }
    }
    if positions.is_empty() && !eligible.is_empty() {
        let i = eligible[rng.gen_range(0..eligible.len())];
        positions.push(i as u32);
        targets.push(ids[i]);
        input[i] = MASK;
    }
    MaskedExample { input, positions, targets }
}

/// Pretraining hyper-parameters.
#[derive(Clone, Debug)]
pub struct MlmConfig {
    pub epochs: usize,
    pub batch_size: usize,
    pub lr: f32,
    pub mask_prob: f32,
    pub seed: u64,
    pub threads: usize,
}

impl Default for MlmConfig {
    fn default() -> Self {
        MlmConfig {
            epochs: 8,
            batch_size: 64,
            lr: 1e-3,
            mask_prob: 0.15,
            seed: 42,
            threads: doduo_tensor::default_threads(),
        }
    }
}

/// Runs MLM pretraining over tokenized `sequences` (each already includes
/// any special tokens the caller wants). Returns the mean loss per epoch.
pub fn pretrain_mlm(
    encoder: &Encoder,
    head: &MlmHead,
    store: &mut ParamStore,
    sequences: &[Vec<u32>],
    cfg: &MlmConfig,
) -> Vec<f32> {
    assert!(!sequences.is_empty(), "pretraining corpus is empty");
    let vocab_size = encoder.config().vocab_size;
    let steps = cfg.epochs * sequences.len().div_ceil(cfg.batch_size);
    let mut opt = Adam::new(store, LrSchedule::LinearDecay { lr0: cfg.lr, total_steps: steps });
    let mut order: Vec<usize> = (0..sequences.len()).collect();
    let mut rng = StdRng::seed_from_u64(cfg.seed);
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
                    let ex = mask_tokens(&sequences[idx], vocab_size, cfg.mask_prob, rng);
                    let logits = head.logits_at(tape, encoder, &ex.input, &ex.positions, rng);
                    tape.softmax_ce(logits, &ex.targets)
                },
            );
            total / sequences.len() as f32
        })
        .collect()
}

/// Pseudo-perplexity of a token sequence under the masked LM (eq. 3 of the
/// paper's appendix): each eligible position is masked in turn and scored.
///
/// Lower is "more natural" to the LM; the probing experiments (Tables
/// 12-13) rank candidate type/relation words by this score.
pub fn pseudo_perplexity(
    encoder: &Encoder,
    head: &MlmHead,
    store: &ParamStore,
    ids: &[u32],
) -> f32 {
    let eligible: Vec<usize> = (0..ids.len()).filter(|&i| ids[i] > 4).collect();
    if eligible.is_empty() {
        return f32::INFINITY;
    }
    let mut nll = 0.0f32;
    let mut rng = StdRng::seed_from_u64(0); // inference tapes ignore dropout
    for &i in &eligible {
        let mut input = ids.to_vec();
        input[i] = MASK;
        let mut tape = Tape::inference(store);
        let logits = head.logits_at(&mut tape, encoder, &input, &[i as u32], &mut rng);
        // softmax_ce with the original token as target = -log p(token|ctx).
        let loss = tape.softmax_ce(logits, &[ids[i]]);
        nll += tape.value(loss).scalar_value();
    }
    (nll / eligible.len() as f32).exp()
}

#[cfg(test)]
mod tests {
    use super::*;
    use doduo_tokenizer::{TrainConfig, WordPiece, CLS, SEP};

    fn toy_corpus() -> Vec<&'static str> {
        vec![
            "george miller is a director",
            "george miller directed happy feet",
            "john lasseter is a director",
            "john lasseter directed cars",
            "brisbane is a city",
            "brisbane is a city in australia",
            "paris is a city",
            "paris is a city in france",
            "happy feet is a film",
            "cars is a film",
            "alabama is a team",
            "derrick henry plays for alabama",
        ]
    }

    fn setup() -> (WordPiece, ParamStore, Encoder, MlmHead, Vec<Vec<u32>>) {
        let corpus = toy_corpus();
        let tok = WordPiece::train(
            corpus.iter().copied(),
            &TrainConfig { merges: 300, min_pair_count: 1, max_word_len: 24 },
        );
        let mut rng = StdRng::seed_from_u64(0);
        let mut store = ParamStore::new();
        let cfg = EncoderConfig::tiny(tok.vocab_size());
        let enc = Encoder::new(&mut store, cfg.clone(), "enc", &mut rng);
        let head = MlmHead::new(&mut store, &cfg, "enc", &mut rng);
        let seqs: Vec<Vec<u32>> = corpus
            .iter()
            .map(|s| {
                let mut ids = vec![CLS];
                ids.extend(tok.encode(s));
                ids.push(SEP);
                ids
            })
            .collect();
        (tok, store, enc, head, seqs)
    }

    #[test]
    fn masking_preserves_length_and_targets() {
        let mut rng = StdRng::seed_from_u64(1);
        let ids = vec![CLS, 10, 11, 12, 13, 14, SEP];
        let ex = mask_tokens(&ids, 50, 0.5, &mut rng);
        assert_eq!(ex.input.len(), ids.len());
        assert_eq!(ex.positions.len(), ex.targets.len());
        assert!(!ex.positions.is_empty(), "always selects at least one position");
        for (&p, &t) in ex.positions.iter().zip(ex.targets.iter()) {
            assert_eq!(ids[p as usize], t, "target must be the original token");
            assert!(ids[p as usize] > 4, "special tokens are never masked");
        }
    }

    #[test]
    fn masking_specials_only_sequence_selects_nothing() {
        let mut rng = StdRng::seed_from_u64(2);
        let ids = vec![CLS, SEP];
        let ex = mask_tokens(&ids, 50, 0.9, &mut rng);
        assert!(ex.positions.is_empty());
        assert_eq!(ex.input, ids);
    }

    #[test]
    fn pretraining_reduces_loss() {
        let (_tok, mut store, enc, head, seqs) = setup();
        let cfg = MlmConfig {
            epochs: 80,
            batch_size: 12,
            lr: 3e-3,
            mask_prob: 0.3,
            threads: 2,
            ..Default::default()
        };
        let losses = pretrain_mlm(&enc, &head, &mut store, &seqs, &cfg);
        assert_eq!(losses.len(), 80);
        let last = *losses.last().unwrap();
        assert!(last < losses[0] * 0.7, "MLM loss should drop: {} -> {last}", losses[0]);
    }

    #[test]
    fn pretrained_lm_prefers_true_facts() {
        // After pretraining on "george miller is a director" style text, the
        // template "george miller is a ___" must rank `director` better than
        // an unrelated filler — the mechanism behind Tables 12-13.
        let (tok, mut store, enc, head, seqs) = setup();
        let cfg = MlmConfig {
            epochs: 300,
            batch_size: 12,
            lr: 3e-3,
            mask_prob: 0.3,
            threads: 4,
            ..Default::default()
        };
        pretrain_mlm(&enc, &head, &mut store, &seqs, &cfg);

        let encode = |s: &str| {
            let mut ids = vec![CLS];
            ids.extend(tok.encode(s));
            ids.push(SEP);
            ids
        };
        let good = pseudo_perplexity(&enc, &head, &store, &encode("george miller is a director"));
        let bad = pseudo_perplexity(&enc, &head, &store, &encode("george miller is a city"));
        assert!(
            good < bad,
            "LM should find the true fact more natural: director {good} vs city {bad}"
        );
    }

    #[test]
    fn pseudo_perplexity_empty_is_infinite() {
        let (_tok, store, enc, head, _seqs) = setup();
        assert_eq!(pseudo_perplexity(&enc, &head, &store, &[CLS, SEP]), f32::INFINITY);
    }
}
