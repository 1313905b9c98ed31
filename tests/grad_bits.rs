//! The invariant that lets every trainer keep only the top-layer rows its
//! loss reads, held as bits: on a **training** tape (dropout on, masks drawn
//! from the caller's `rng`), `encode(.., keep)` → head → loss → `backward`
//! gives the same loss, the same `Gradients` parameter by parameter under
//! `to_bits`, and leaves `rng` where `encode(.., all_rows())` + `row_select`
//! of those rows leaves it. The reference is built explicitly at full width
//! here — the tape's kept attention node and the pruned block are what is
//! under test, not what they are checked against.
//!
//! Two shapes: a dense → GELU → dense → BCE head over kept rows of a ragged
//! batch (what fine-tuning reads: the `[CLS]` rows), and [`MlmHead`] →
//! cross-entropy over the masked positions of one sequence (what MLM
//! pre-training reads).

use doduo_tensor::{AttnMask, Gradients, NodeId, ParamStore, Tape, Tensor};
use doduo_transformer::{
    all_rows, mask_from_fn, mask_tokens, BatchSeq, Encoder, EncoderConfig, MlmHead,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const VOCAB: usize = 60;

/// `tiny` or `mini` widths with `dropout`, every weight re-drawn wide enough
/// that each op's output (and gradient) has bits worth comparing.
fn encoder(mini: bool, dropout: f32, rng: &mut StdRng) -> (ParamStore, Encoder, MlmHead) {
    let mut cfg = if mini { EncoderConfig::mini(VOCAB) } else { EncoderConfig::tiny(VOCAB) };
    cfg.dropout = dropout;
    let mut store = ParamStore::new();
    let enc = Encoder::new(&mut store, cfg.clone(), "enc", rng);
    let mlm = MlmHead::new(&mut store, &cfg, "enc", rng);
    for p in 0..store.len() {
        let (r, c) = store.get(p).shape();
        *store.get_mut(p) = Tensor::randn(r, c, 0.2, rng);
    }
    (store, enc, mlm)
}

/// `1..=6` strictly ascending positions of a `len`-token sequence, the first
/// and the last row each forced in half the time.
fn kept_positions(len: usize, rng: &mut StdRng) -> Vec<u32> {
    let n = rng.gen_range(1..=6usize.min(len));
    let mut picked: Vec<u32> = (0..n).map(|_| rng.gen_range(0..len as u32)).collect();
    if rng.gen_bool(0.5) {
        picked.push(0);
    }
    if rng.gen_bool(0.5) {
        picked.push(len as u32 - 1);
    }
    picked.sort_unstable();
    picked.dedup();
    picked.truncate(6);
    picked
}

/// What one forward + backward leaves behind, as bits.
#[derive(Debug, PartialEq)]
struct Outcome {
    loss: u32,
    /// Per parameter (by name, for the failure message), its gradient.
    grads: Vec<(String, Option<Vec<u32>>)>,
    /// The draw after the last dropout mask.
    next_draw: u64,
}

/// Runs `forward` (encoder + head + loss) on a fresh training tape with a
/// dropout stream seeded by `seed`, then `backward`.
fn outcome(
    store: &ParamStore,
    seed: u64,
    forward: impl FnOnce(&mut Tape<'_>, &mut StdRng) -> NodeId,
) -> Outcome {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut tape = Tape::new(store);
    let loss = forward(&mut tape, &mut rng);
    let mut grads = Gradients::new(store);
    tape.backward(loss, &mut grads);
    Outcome {
        loss: tape.value(loss).scalar_value().to_bits(),
        grads: (0..store.len())
            .map(|p| {
                let bits = |g: &Tensor| g.data().iter().map(|v| v.to_bits()).collect();
                (store.name(p).to_string(), grads.get(p).map(bits))
            })
            .collect(),
        next_draw: rng.gen(),
    }
}

fn assert_same(kept: &Outcome, full: &Outcome, what: &str) {
    assert_eq!(kept.loss, full.loss, "{what}: loss bits");
    for ((name, k), (_, f)) in kept.grads.iter().zip(&full.grads) {
        assert_eq!(k, f, "{what}: gradient of {name}");
    }
    assert_eq!(kept.next_draw, full.next_draw, "{what}: the dropout stream ended elsewhere");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Fine-tuning's shape: a ragged batch, a few kept rows per sequence
    /// (some sequences under a visibility mask, some kept whole), a
    /// two-layer head and BCE over the kept rows.
    #[test]
    fn kept_rows_train_like_every_row_then_select(
        lens in proptest::collection::vec(1usize..65, 1..4),
        mini in 0u8..2,
        dropout in 0u8..2,
        seed in 0u64..1_000_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (mut store, enc, _) = encoder(mini == 1, f32::from(dropout) * 0.1, &mut rng);
        let d = enc.config().hidden;
        let w1 = store.add_randn("head.w1", d, d, 0.2, &mut rng);
        let b1 = store.add_randn("head.b1", 1, d, 0.2, &mut rng);
        let w2 = store.add_randn("head.w2", d, 7, 0.2, &mut rng);
        let b2 = store.add_randn("head.b2", 1, 7, 0.2, &mut rng);

        let ids: Vec<Vec<u32>> = lens
            .iter()
            .map(|&len| (0..len).map(|_| rng.gen_range(0..VOCAB as u32)).collect())
            .collect();
        // One sequence in three attends under a random visibility mask
        // (the diagonal stays visible), one in four is kept whole.
        let masks: Vec<Option<AttnMask>> = lens
            .iter()
            .map(|&len| {
                let hide: Vec<bool> = (0..len * len).map(|_| rng.gen_bool(0.3)).collect();
                rng.gen_bool(0.33).then(|| mask_from_fn(len, |i, j| i == j || !hide[i * len + j]))
            })
            .collect();
        let keeps: Vec<Option<Vec<u32>>> = lens
            .iter()
            .map(|&len| rng.gen_bool(0.75).then(|| kept_positions(len, &mut rng)))
            .collect();
        let seqs = || ids.iter().zip(&masks).map(|(ids, m)| BatchSeq { ids, mask: m.as_ref() });
        // The kept rows of the packed full-width activation.
        let rows: Vec<u32> = lens
            .iter()
            .zip(&keeps)
            .scan(0u32, |row0, (&len, keep)| {
                let first = *row0;
                *row0 += len as u32;
                let keep = keep.clone().unwrap_or_else(|| (0..len as u32).collect());
                Some(keep.into_iter().map(move |p| first + p))
            })
            .flatten()
            .collect();
        let targets = Tensor::from_vec(
            rows.len(),
            7,
            (0..rows.len() * 7).map(|_| f32::from(u8::from(rng.gen_bool(0.3)))).collect(),
        );
        let head = |tape: &mut Tape<'_>, cols: NodeId| {
            let h = tape.linear(cols, w1, b1);
            let act = tape.gelu(h);
            let logits = tape.linear(act, w2, b2);
            tape.bce_logits_weighted(logits, &targets, 3.0)
        };

        let kept = outcome(&store, seed, |tape, rng| {
            let cols = enc.encode(tape, seqs(), keeps.iter().map(|k| k.as_deref()), rng);
            head(tape, cols)
        });
        let full = outcome(&store, seed, |tape, rng| {
            let every_row = enc.encode(tape, seqs(), all_rows(), rng);
            let cols = tape.row_select(every_row, &rows);
            head(tape, cols)
        });
        assert_same(&kept, &full, &format!("lens {lens:?} keeps {keeps:?}"));
    }

    /// MLM pre-training's shape: one sequence, BERT's masking recipe, the
    /// MLM head and cross-entropy over the masked positions.
    #[test]
    fn masked_positions_train_like_every_row_then_select(
        len in 1usize..65,
        mini in 0u8..2,
        dropout in 0u8..2,
        seed in 0u64..1_000_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (store, enc, mlm) = encoder(mini == 1, f32::from(dropout) * 0.1, &mut rng);
        // Ids above the special tokens, so every position is maskable.
        let ids: Vec<u32> = (0..len).map(|_| rng.gen_range(5..VOCAB as u32)).collect();
        let ex = mask_tokens(&ids, VOCAB, 0.15, &mut rng);

        let kept = outcome(&store, seed, |tape, rng| {
            let logits = mlm.logits_at(tape, &enc, &ex.input, &ex.positions, rng);
            tape.softmax_ce(logits, &ex.targets)
        });
        let full = outcome(&store, seed, |tape, rng| {
            let every_row = enc.forward(tape, &ex.input, None, rng);
            let picked = tape.row_select(every_row, &ex.positions);
            let logits = mlm.logits(tape, picked);
            tape.softmax_ce(logits, &ex.targets)
        });
        assert_same(&kept, &full, &format!("len {len} positions {:?}", ex.positions));
    }
}
