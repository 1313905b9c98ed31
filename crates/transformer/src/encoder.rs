//! The Transformer encoder (Figure 3 of the paper).
//!
//! Post-LayerNorm BERT blocks, written down once: `encode` embeds a
//! batch of sequences packed row-wise and unpadded into one ragged
//! `[sum(len), d]` activation and walks the one loop over encoder layers.
//! Attention is block-diagonal over the packed sequences and optionally
//! restricted per sequence by an additive visibility mask — how the TURL
//! baseline's attention is expressed (§5.4: TURL removes "cross-column"
//! edges; Doduo uses full attention). Every other op (dense layers,
//! LayerNorm, GELU, residual adds) is row-wise, so what a sequence's rows
//! come out as does not depend on what else is packed with them.
//!
//! The loop is parameterised by two things only (and told one fact about
//! its caller: which top-layer rows will be read — `keep`, see
//! [`Encoder::encode`] — so that the last block can stop at them):
//!
//! * *how a dense layer is applied* — [`Dense`]: f32 parameters
//!   ([`Encoder`]) or their int8 twins (`QuantEncoder` in [`crate::quant`]);
//! * *what executes the ops* — [`Ops`]: a recording [`Tape`]
//!   (differentiable — what fine-tuning and MLM pre-training use, one
//!   table = one tape, gradient fan-out across tapes in
//!   `doduo_tensor::train_epoch`) or the tape-free
//!   `doduo_tensor::Executor` that serving and the trainer's evaluators run
//!   on. [`Encoder::encode`] takes either and honours `keep` on both;
//!   [`Encoder::forward_batch`], and [`Encoder::forward`] as the batch of
//!   one, are the every-row calls on a tape for callers that read every row
//!   or an attention node (Figure 6's analysis).
//!
//! Batched ≡ sequential, serving ≡ training and executor ≡ tape therefore
//! hold by construction: there is no second op sequence to drift from, and
//! both backends call the same arithmetic. So does pruned ≡ unpruned,
//! forward *and backward*, dropout on: the top block's kept rows go through
//! the same ops as everyone else's, only fewer of them, their dropout masks
//! are the ones the full-width block draws for them, and the rows left out
//! only ever sent `+0.0` down the backward pass (the argument is on
//! `encode`; the proofs are `executor_matches_tape_bitwise` in `doduo-core`
//! and `tests/grad_bits.rs` at the workspace root).

use crate::config::EncoderConfig;
use crate::ops::{kept_rows, Dense, Ops};
use doduo_tensor::Fill::{Ones, Randn, Zeros};
use doduo_tensor::{AttnMask, Init, NodeId, ParamId, ParamStore, Tape, MASK_NEG};
use rand::Rng;
use std::sync::Arc;

/// The embedding tables and their LayerNorm — always f32, shared by id
/// between the f32 encoder and its int8 twin.
#[derive(Clone, Copy)]
pub(crate) struct Embeddings {
    tok: ParamId,
    pos: ParamId,
    ln_g: ParamId,
    ln_b: ParamId,
}

/// One Transformer block as the layer loop sees it: four dense layers and
/// two LayerNorms `(gain, bias)`.
pub(crate) struct Block<'a> {
    pub(crate) qkv: Dense<'a>,
    pub(crate) wo: Dense<'a>,
    pub(crate) w1: Dense<'a>,
    pub(crate) w2: Dense<'a>,
    pub(crate) ln1: (ParamId, ParamId),
    pub(crate) ln2: (ParamId, ParamId),
}

pub(crate) struct LayerParams {
    pub(crate) wq: ParamId,
    pub(crate) bq: ParamId,
    pub(crate) wk: ParamId,
    pub(crate) bk: ParamId,
    pub(crate) wv: ParamId,
    pub(crate) bv: ParamId,
    pub(crate) wo: ParamId,
    pub(crate) bo: ParamId,
    pub(crate) ln1: (ParamId, ParamId),
    pub(crate) w1: ParamId,
    pub(crate) b1: ParamId,
    pub(crate) w2: ParamId,
    pub(crate) b2: ParamId,
    pub(crate) ln2: (ParamId, ParamId),
}

impl LayerParams {
    fn block(&self) -> Block<'static> {
        Block {
            qkv: Dense::FusedQkv {
                ws: [self.wq, self.wk, self.wv],
                bs: [self.bq, self.bk, self.bv],
            },
            wo: Dense::F32 { w: self.wo, b: self.bo },
            w1: Dense::F32 { w: self.w1, b: self.b1 },
            w2: Dense::F32 { w: self.w2, b: self.b2 },
            ln1: self.ln1,
            ln2: self.ln2,
        }
    }
}

/// A BERT-style encoder whose weights live in a shared [`ParamStore`].
pub struct Encoder {
    cfg: EncoderConfig,
    pub(crate) emb: Embeddings,
    pub(crate) layers: Vec<LayerParams>,
}

const INIT_STD: f32 = 0.02;

impl Encoder {
    /// Registers all encoder parameters under `prefix` (e.g. `"enc"`),
    /// valued by `init`: a random source initializes them BERT-style
    /// (`N(0, 0.02^2)`, zero biases, unit LN gains); a checkpoint's
    /// records restore them.
    pub fn new<I: Init + ?Sized>(
        store: &mut ParamStore,
        cfg: EncoderConfig,
        prefix: &str,
        init: &mut I,
    ) -> Self {
        cfg.validate();
        let d = cfg.hidden;
        let w = Randn(INIT_STD);
        let emb = Embeddings {
            tok: store.init(format!("{prefix}.emb.tok"), cfg.vocab_size, d, w, init),
            pos: store.init(format!("{prefix}.emb.pos"), cfg.max_seq, d, w, init),
            ln_g: store.init(format!("{prefix}.emb.ln.g"), 1, d, Ones, init),
            ln_b: store.init(format!("{prefix}.emb.ln.b"), 1, d, Zeros, init),
        };
        let mut layers = Vec::with_capacity(cfg.layers);
        for l in 0..cfg.layers {
            let p = |s: &str| format!("{prefix}.l{l}.{s}");
            layers.push(LayerParams {
                wq: store.init(p("attn.wq"), d, d, w, init),
                bq: store.init(p("attn.bq"), 1, d, Zeros, init),
                wk: store.init(p("attn.wk"), d, d, w, init),
                bk: store.init(p("attn.bk"), 1, d, Zeros, init),
                wv: store.init(p("attn.wv"), d, d, w, init),
                bv: store.init(p("attn.bv"), 1, d, Zeros, init),
                wo: store.init(p("attn.wo"), d, d, w, init),
                bo: store.init(p("attn.bo"), 1, d, Zeros, init),
                ln1: (
                    store.init(p("ln1.g"), 1, d, Ones, init),
                    store.init(p("ln1.b"), 1, d, Zeros, init),
                ),
                w1: store.init(p("ffn.w1"), d, cfg.ffn, w, init),
                b1: store.init(p("ffn.b1"), 1, cfg.ffn, Zeros, init),
                w2: store.init(p("ffn.w2"), cfg.ffn, d, w, init),
                b2: store.init(p("ffn.b2"), 1, d, Zeros, init),
                ln2: (
                    store.init(p("ln2.g"), 1, d, Ones, init),
                    store.init(p("ln2.b"), 1, d, Zeros, init),
                ),
            });
        }
        Encoder { cfg, emb, layers }
    }

    pub fn config(&self) -> &EncoderConfig {
        &self.cfg
    }

    /// Encodes `ids`, returning the `[S, d]` top-layer representation node:
    /// [`Encoder::forward_batch`] on a batch of one.
    pub fn forward<R: Rng + ?Sized>(
        &self,
        tape: &mut Tape<'_>,
        ids: &[u32],
        mask: Option<&AttnMask>,
        rng: &mut R,
    ) -> NodeId {
        self.forward_batch(tape, &[BatchSeq { ids, mask }], rng).node
    }

    /// Encodes a batch of sequences in one packed forward pass on a tape.
    ///
    /// Sequences are concatenated row-wise with **no padding** (the ragged
    /// layout): the returned [`BatchEncoding`] points at the
    /// `[sum(len_b), d]` top-layer activation, with sequence `b` occupying
    /// rows `[offset_b, offset_b + len_b)` (see [`BatchEncoding::row_of`]).
    /// Attention stays block-diagonal via `Tape::mha_batch_qkv`'s per-block
    /// lengths, so every sequence pays exactly its own `O(len^2)` attention
    /// and `O(len)` dense-layer work — batching adds zero wasted compute.
    /// Per-sequence visibility masks (the TURL baseline) apply at their
    /// native `[len_b, len_b]` shape.
    ///
    /// On an inference tape each sequence's rows are bit-identical to
    /// encoding it alone. On a training tape the dropout masks are drawn
    /// from `rng` over the packed activation, so a sequence's rows also
    /// depend on its position in the batch (the trainer packs one).
    pub fn forward_batch<R: Rng + ?Sized>(
        &self,
        tape: &mut Tape<'_>,
        seqs: &[BatchSeq<'_>],
        rng: &mut R,
    ) -> BatchEncoding {
        let blocks = self.layers.iter().map(LayerParams::block);
        encode_on_tape(tape, &self.cfg, &self.emb, blocks, seqs, rng)
    }

    /// The same packed forward on whichever backend `f` is — a [`Tape`] or
    /// the tape-free `doduo_tensor::Executor` serving uses — returning just
    /// the top-layer activation. `keep` names, sequence by sequence, the
    /// positions whose top-layer rows the caller will read (Doduo's heads
    /// read the `[CLS]` rows only): the result holds exactly those rows,
    /// sequence after sequence, and the last block computes nothing else.
    /// `None` keeps a sequence whole; under [`all_rows`] the result is the
    /// `[sum(len_b), d]` activation with sequence `b`'s token `t` at row
    /// `sum(len[..b]) + t`. A kept row's bits do not depend on what else
    /// was kept, nor on the backend — on a training tape either: dropout
    /// masks are drawn for the whole packed activation whatever is kept, so
    /// kept rows, the gradients `backward` gives, and where `rng` ends are
    /// those of [`all_rows`] followed by a `row_select`. A tape
    /// differentiates over the kept rows in order: each sequence's
    /// positions must be strictly ascending there.
    pub fn encode<'a, F: Ops, R: Rng + ?Sized>(
        &self,
        f: &mut F,
        seqs: impl Iterator<Item = BatchSeq<'a>> + Clone,
        keep: impl Iterator<Item = Option<&'a [u32]>> + Clone,
        rng: &mut R,
    ) -> F::Node {
        let blocks = self.layers.iter().map(LayerParams::block);
        encode(f, &self.cfg, &self.emb, blocks, seqs, keep, rng, |_| {})
    }
}

/// The `keep` of a caller that reads every top-layer row of every sequence.
pub fn all_rows<'a>() -> impl Iterator<Item = Option<&'a [u32]>> + Clone {
    std::iter::repeat(None)
}

/// The one forward definition: embeds `seqs` packed back to back and runs
/// the layer loop on backend `f`, applying each block's dense layers
/// however its [`Dense`]s say. Dropout is active on training tapes only (a
/// no-op that draws nothing from `rng` otherwise). Each layer's attention
/// node is shown to `on_attention` before it is consumed (a tape's caller
/// keeps the ids; the executor's has nothing to keep).
///
/// `keep` is what the caller will read of the result (see
/// [`Encoder::encode`]). Blocks below the top run every row — the block
/// above needs each token's K and V. The top block still projects Q|K|V for
/// every token, but computes attention for the kept query rows only, takes
/// the residual input at those rows, and runs everything after on them. All
/// of that is row-wise, and a GEMM element is one accumulator over
/// increasing k whatever rows surround it, so a kept row comes out with the
/// bits the full-width block gives it. When nothing is dropped the top block
/// is a block like the others: same ops, same recorded nodes.
///
/// That holds on a training tape too, which is what lets every trainer keep
/// only what its loss reads. Dropout inside the block is defined on the
/// full-width activation ([`Ops::dropout`]): all `total` rows' masks are
/// drawn, the kept rows get theirs. And `backward` loses nothing: a row the
/// loss never reads has a gradient of exactly `+0.0`, every reduction over
/// rows (bias and LayerNorm gradients, `Aᵀ G` weight gradients, attention's
/// `dK` and `dV`) is one accumulator from `+0.0` in row order, and adding
/// `±0.0` to such an accumulator never changes it — so reducing over the
/// kept rows alone, in ascending order, gives every gradient its full-width
/// bits.
#[allow(clippy::too_many_arguments)] // the loop's backend, weights, inputs and the two things a caller may ask of it
pub(crate) fn encode<'a, 'q, F: Ops, R: Rng + ?Sized>(
    f: &mut F,
    cfg: &EncoderConfig,
    emb: &Embeddings,
    blocks: impl Iterator<Item = Block<'q>>,
    seqs: impl Iterator<Item = BatchSeq<'a>> + Clone,
    keep: impl Iterator<Item = Option<&'a [u32]>> + Clone,
    rng: &mut R,
    mut on_attention: impl FnMut(&F::Node),
) -> F::Node {
    let mut total = 0usize;
    for seq in seqs.clone() {
        let len = seq.ids.len();
        assert!(len > 0, "cannot encode an empty sequence");
        assert!(len <= cfg.max_seq, "sequence length {len} exceeds max_seq {}", cfg.max_seq);
        total += len;
    }
    assert!(total > 0, "cannot encode an empty batch");
    let drops_rows = seqs.clone().zip(keep.clone()).any(|(_, k)| k.is_some());

    // Dropout only where it is live: elsewhere (the executor, an inference
    // tape) a node passes as it came and the rows it holds are never even
    // enumerated.
    let (p, training) = (cfg.dropout, f.is_training());
    let tok = f.embedding(emb.tok, total, seqs.clone().flat_map(|s| s.ids.iter().copied()));
    let pos = f.embedding(emb.pos, total, seqs.clone().flat_map(|s| 0..s.ids.len() as u32));
    let sum = f.add(tok, pos);
    let mut x = f.layer_norm(sum, emb.ln_g, emb.ln_b);
    if training {
        x = f.dropout(x, total, 0..total as u32, p, rng);
    }

    for (l, block) in blocks.enumerate() {
        let top = l + 1 == cfg.layers;
        let kept = keep.clone().map(move |k| k.filter(|_| top));
        let qkv = f.dense(&x, block.qkv);
        let att = f.attention(qkv, cfg.heads, seqs.clone(), kept.clone());
        on_attention(&att);
        if top && drops_rows {
            let rows = kept_rows(seqs.clone(), kept.clone());
            let x_kept = f.row_select(&x, rows.clone().count(), rows);
            f.free(std::mem::replace(&mut x, x_kept));
        }
        // The rows of the `total`-row activation this block's later ops
        // hold: the kept ones in the top block, all of them below it.
        let held = || kept_rows(seqs.clone(), kept.clone());
        let mut proj = f.dense(&att, block.wo);
        f.free(att);
        if training {
            proj = f.dropout(proj, total, held(), p, rng);
        }
        let res1 = f.add(x, proj);
        let h = f.layer_norm(res1, block.ln1.0, block.ln1.1);

        let f1 = f.dense(&h, block.w1);
        let act = f.gelu(f1);
        let mut f2 = f.dense(&act, block.w2);
        f.free(act);
        if training {
            f2 = f.dropout(f2, total, held(), p, rng);
        }
        let res2 = f.add(h, f2);
        x = f.layer_norm(res2, block.ln2.0, block.ln2.1);
    }
    x
}

/// [`encode`] of every row on a tape, keeping what only a tape can give
/// back: each layer's attention node and the packed sequences' row offsets.
pub(crate) fn encode_on_tape<'q, R: Rng + ?Sized>(
    tape: &mut Tape<'_>,
    cfg: &EncoderConfig,
    emb: &Embeddings,
    blocks: impl Iterator<Item = Block<'q>>,
    seqs: &[BatchSeq<'_>],
    rng: &mut R,
) -> BatchEncoding {
    let mut attn = Vec::with_capacity(cfg.layers);
    let seq_iter = seqs.iter().copied();
    let node = encode(tape, cfg, emb, blocks, seq_iter, all_rows(), rng, |&att| attn.push(att));
    let mut offsets = Vec::with_capacity(seqs.len());
    let mut row = 0usize;
    for seq in seqs {
        offsets.push(row);
        row += seq.ids.len();
    }
    BatchEncoding { node, attn, offsets }
}

/// One sequence of a batched forward pass.
#[derive(Clone, Copy)]
pub struct BatchSeq<'a> {
    /// Token ids, unpadded — and they stay that way: sequences are packed
    /// back to back, nothing is ever padded.
    pub ids: &'a [u32],
    /// Optional additive visibility mask sized `[ids.len(), ids.len()]`
    /// (e.g. the TURL baseline's column-visibility matrix).
    pub mask: Option<&'a AttnMask>,
}

/// Output of [`Encoder::forward_batch`].
pub struct BatchEncoding {
    /// The packed `[sum(len_b), hidden]` top-layer activation node;
    /// sequence `b`'s token `t` lives at row `offsets[b] + t`.
    pub node: NodeId,
    /// Each layer's attention node, bottom layer first; sequence `b`'s
    /// attention probabilities are `Tape::attn_probs(attn[l], b)`
    /// (Figure 6's analysis reads the last layer).
    pub attn: Vec<NodeId>,
    /// Starting activation row of each packed sequence.
    pub(crate) offsets: Vec<usize>,
}

impl BatchEncoding {
    /// The activation row holding token `t` of sequence `b`.
    pub fn row_of(&self, b: usize, t: usize) -> usize {
        self.offsets[b] + t
    }
}

/// Builds an additive attention mask from a visibility predicate:
/// `visible(i, j)` says whether token `i` may attend to token `j`.
pub fn mask_from_fn(s: usize, visible: impl Fn(usize, usize) -> bool) -> AttnMask {
    let mut m = vec![0.0f32; s * s];
    for i in 0..s {
        for j in 0..s {
            if !visible(i, j) {
                m[i * s + j] = MASK_NEG;
            }
        }
    }
    Arc::new(m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use doduo_tensor::{Gradients, Tensor};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn build() -> (ParamStore, Encoder) {
        let mut rng = StdRng::seed_from_u64(1);
        let mut store = ParamStore::new();
        let enc = Encoder::new(&mut store, EncoderConfig::tiny(50), "enc", &mut rng);
        (store, enc)
    }

    #[test]
    fn forward_shape_is_seq_by_hidden() {
        let (store, enc) = build();
        let mut rng = StdRng::seed_from_u64(2);
        let mut tape = Tape::inference(&store);
        let out = enc.forward(&mut tape, &[2, 7, 8, 9, 3], None, &mut rng);
        assert_eq!(tape.value(out).shape(), (5, 32));
        assert!(!tape.value(out).has_non_finite());
    }

    #[test]
    fn deterministic_in_inference_mode() {
        let (store, enc) = build();
        let ids = [2u32, 10, 11, 3];
        let run = || {
            let mut rng = StdRng::seed_from_u64(9);
            let mut tape = Tape::inference(&store);
            let out = enc.forward(&mut tape, &ids, None, &mut rng);
            tape.value(out).clone()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn contextual_embeddings_differ_with_context() {
        // The same token id in two different contexts must get different
        // representations — the polysemy property of §3.2.
        let (store, enc) = build();
        let mut rng = StdRng::seed_from_u64(3);
        let mut tape = Tape::inference(&store);
        let a = enc.forward(&mut tape, &[2, 20, 21, 3], None, &mut rng);
        let b = enc.forward(&mut tape, &[2, 20, 35, 3], None, &mut rng);
        let va = tape.value(a).row(1).to_vec();
        let vb = tape.value(b).row(1).to_vec();
        let diff: f32 = va.iter().zip(&vb).map(|(x, y)| (x - y).abs()).sum();
        assert!(diff > 1e-4, "token 20 should be contextualized, diff={diff}");
    }

    #[test]
    fn gradients_flow_to_all_parameters() {
        let (store, enc) = build();
        let mut rng = StdRng::seed_from_u64(4);
        let mut tape = Tape::inference(&store);
        let out = enc.forward(&mut tape, &[2, 12, 13, 14, 3], None, &mut rng);
        // Mean-pool to a scalar through a fake loss: select row 0 and BCE it.
        let cls = tape.row_select(out, &[0]);
        let t = Tensor::full(1, 32, 1.0);
        let loss = tape.bce_logits(cls, &t);
        let mut grads = Gradients::new(&store);
        tape.backward(loss, &mut grads);
        let with_grad = (0..store.len()).filter(|&p| grads.get(p).is_some()).count();
        // Position embeddings beyond the sequence obviously get zero rows but
        // the tensors themselves must all be touched.
        assert_eq!(with_grad, store.len(), "every parameter should receive gradient");
    }

    #[test]
    fn full_mask_equals_no_mask() {
        let (store, enc) = build();
        let ids = [2u32, 5, 6, 7, 3];
        let mask = mask_from_fn(ids.len(), |_, _| true);
        let mut rng = StdRng::seed_from_u64(5);
        let mut t1 = Tape::inference(&store);
        let a = enc.forward(&mut t1, &ids, None, &mut rng);
        let mut t2 = Tape::inference(&store);
        let b = enc.forward(&mut t2, &ids, Some(&mask), &mut rng);
        for (x, y) in t1.value(a).data().iter().zip(t2.value(b).data().iter()) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn restrictive_mask_changes_output() {
        let (store, enc) = build();
        let ids = [2u32, 5, 6, 7, 3];
        // Tokens only see themselves.
        let mask = mask_from_fn(ids.len(), |i, j| i == j);
        let mut rng = StdRng::seed_from_u64(6);
        let mut t1 = Tape::inference(&store);
        let a = enc.forward(&mut t1, &ids, None, &mut rng);
        let mut t2 = Tape::inference(&store);
        let b = enc.forward(&mut t2, &ids, Some(&mask), &mut rng);
        let diff: f32 = t1
            .value(a)
            .data()
            .iter()
            .zip(t2.value(b).data().iter())
            .map(|(x, y)| (x - y).abs())
            .sum();
        assert!(diff > 1e-3);
    }

    #[test]
    #[should_panic(expected = "exceeds max_seq")]
    fn oversized_sequence_panics() {
        let (store, enc) = build();
        let mut rng = StdRng::seed_from_u64(7);
        let mut tape = Tape::inference(&store);
        let ids = vec![5u32; 100];
        enc.forward(&mut tape, &ids, None, &mut rng);
    }

    #[test]
    fn batched_forward_matches_sequential_bitwise() {
        // Three sequences of different lengths, one with a visibility mask:
        // the packed forward must reproduce each single-sequence forward
        // bit for bit at the real (non-padded) positions.
        let (store, enc) = build();
        let seqs: Vec<Vec<u32>> =
            vec![vec![2, 7, 8, 9, 3], vec![2, 10, 3], vec![2, 20, 21, 22, 35, 3]];
        let mask1 = mask_from_fn(seqs[1].len(), |i, j| i == j || j == 0);
        let masks = [None, Some(&mask1), None];

        let mut rng = StdRng::seed_from_u64(11);
        let mut batch_tape = Tape::inference(&store);
        let batch_seqs: Vec<BatchSeq<'_>> = seqs
            .iter()
            .zip(masks.iter())
            .map(|(ids, mask)| BatchSeq { ids, mask: *mask })
            .collect();
        let out = enc.forward_batch(&mut batch_tape, &batch_seqs, &mut rng);
        let bv = batch_tape.value(out.node);
        let total: usize = seqs.iter().map(Vec::len).sum();
        assert_eq!(bv.shape(), (total, enc.config().hidden));
        assert!(!bv.has_non_finite());

        for (b, (ids, mask)) in seqs.iter().zip(masks.iter()).enumerate() {
            let mut tape = Tape::inference(&store);
            let mut rng = StdRng::seed_from_u64(99);
            let single = enc.forward(&mut tape, ids, *mask, &mut rng);
            let sv = tape.value(single);
            for t in 0..ids.len() {
                for c in 0..enc.config().hidden {
                    assert_eq!(
                        bv.get(out.row_of(b, t), c).to_bits(),
                        sv.get(t, c).to_bits(),
                        "seq {b} token {t} dim {c}"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "empty batch")]
    fn empty_batch_panics() {
        let (store, enc) = build();
        let mut rng = StdRng::seed_from_u64(13);
        let mut tape = Tape::inference(&store);
        enc.forward_batch(&mut tape, &[], &mut rng);
    }

    #[test]
    fn encoding_carries_one_attention_node_per_layer() {
        let (store, enc) = build();
        let mut rng = StdRng::seed_from_u64(8);
        let mut tape = Tape::inference(&store);
        let seqs =
            [BatchSeq { ids: &[2, 5, 3], mask: None }, BatchSeq { ids: &[2, 3], mask: None }];
        let out = enc.forward_batch(&mut tape, &seqs, &mut rng);
        assert_eq!(out.attn.len(), enc.config().layers);
        for (b, s) in [3usize, 2].into_iter().enumerate() {
            let (probs, heads) = tape.attn_probs(out.attn[0], b).unwrap();
            assert_eq!(heads, enc.config().heads);
            assert_eq!(probs.len(), heads * s * s);
            // Each attention row sums to 1.
            for row in probs.chunks_exact(s) {
                assert!((row.iter().sum::<f32>() - 1.0).abs() < 1e-4);
            }
        }
    }
}
