//! The ops the forward definition is written in, and its two backends.
//!
//! `encoder::encode` (the layer loop) and `doduo-core`'s classification
//! heads are generic over [`Ops`] — the dozen operations a BERT-style
//! forward needs. Two backends implement them, both over the same
//! arithmetic in `doduo-tensor` (so they agree bit for bit):
//!
//! * [`Tape`] *records*: every op pushes a node, values are kept, and
//!   `backward` can differentiate the result. Training, the attention
//!   analysis and anything that wants to look at an intermediate use it.
//! * [`Executor`] *runs*: outputs land in a per-thread pool of reusable
//!   buffers, a consumed input's buffer goes straight back to the pool, and
//!   nothing is recorded. Serving uses it.
//!
//! Attention is the one op that can be asked for less than its input's rows
//! ([`Ops::attention`]'s `keep`), and on both backends it then computes the
//! named query rows and nothing else: the executor through
//! `AttnBlock::keep`, the tape through the same kernel in an attention node
//! that remembers which rows it holds and differentiates exactly those
//! (`Tape::mha_batch_qkv_kept`). A test that wants the full-width reference
//! builds it: every row, then a `row_select`.
//!
//! Dropout is the one op that draws, and it is *defined on the full-width
//! activation* ([`Ops::dropout`]'s `total` and `rows`): a caller holding
//! only some rows of an activation says which, the mask stream is drawn for
//! all of it, and the held rows get their own masks. So a forward that
//! stops computing rows nobody reads consumes the random stream, and trains
//! the model, exactly as the forward that computes them all.
//!
//! [`Ops::Node`] is deliberately not required to be `Copy`: an op that
//! takes a node by value consumes it, and generic code can neither reuse
//! it nor forget to hand it on — which is what lets the executor recycle a
//! buffer the moment its last reader is done. (The tape's nodes are plain
//! indices that stay valid; it simply ignores the protocol.)

use crate::encoder::BatchSeq;
use doduo_tensor::{AttnBlock, AttnMask, Executor, NodeId, ParamId, QuantizedLinear, Slot, Tape};
use rand::Rng;
use std::sync::Arc;

/// How one dense layer `y = x W + b` is applied — the seam between the
/// f32 and int8 tiers, shared by the encoder's layer loop and the
/// classification heads in `doduo-core`.
#[derive(Clone, Copy)]
pub enum Dense<'a> {
    /// f32, differentiable on a tape.
    F32 {
        /// Weight `[d_in, d_out]`.
        w: ParamId,
        /// Bias `[1, d_out]`.
        b: ParamId,
    },
    /// The three attention projections as one `[rows, 3d]` activation, f32
    /// (bit-identical to three `F32` layers, forward and backward).
    FusedQkv {
        /// Weights `[wq, wk, wv]`.
        ws: [ParamId; 3],
        /// Biases `[bq, bk, bv]`.
        bs: [ParamId; 3],
    },
    /// The int8 kernels. On a tape the dequantized output re-enters as a
    /// constant input, so no gradient flows (inference only).
    Int8(&'a QuantizedLinear),
}

/// The operations a forward pass is written in; see the module docs.
pub trait Ops {
    /// Handle to a `[rows, cols]` activation.
    type Node;

    /// True when dropout is active (training tapes only).
    fn is_training(&self) -> bool;

    /// Gathers the `rows` embedding rows `ids` of parameter `weight`.
    fn embedding(
        &mut self,
        weight: ParamId,
        rows: usize,
        ids: impl Iterator<Item = u32>,
    ) -> Self::Node;

    /// Elementwise sum of two same-shaped nodes.
    fn add(&mut self, a: Self::Node, b: Self::Node) -> Self::Node;

    /// Row-wise LayerNorm with learned gain/bias.
    fn layer_norm(&mut self, x: Self::Node, gamma: ParamId, beta: ParamId) -> Self::Node;

    /// Applies one dense layer; `x` stays live.
    fn dense(&mut self, x: &Self::Node, layer: Dense<'_>) -> Self::Node;

    /// Multi-head self-attention over a fused `[rows, 3d]` Q|K|V node whose
    /// rows pack `seqs` back to back: block-diagonal, each sequence
    /// optionally restricted by its visibility mask. `keep` says, sequence
    /// by sequence, which of its positions' output rows the caller will
    /// read (`None`: all of them), in the order it will read them; the
    /// result is those rows only, sequence after sequence, each with the
    /// bits it has when nothing is skipped.
    fn attention<'a>(
        &mut self,
        qkv: Self::Node,
        heads: usize,
        seqs: impl Iterator<Item = BatchSeq<'a>> + Clone,
        keep: impl Iterator<Item = Option<&'a [u32]>> + Clone,
    ) -> Self::Node;

    /// GELU activation.
    fn gelu(&mut self, x: Self::Node) -> Self::Node;

    /// Inverted dropout with keep probability `1 - p` of a `[total, cols]`
    /// activation of which `x` holds the rows `rows` (ascending; `0..total`
    /// when it holds them all): the whole activation's masks are drawn from
    /// `rng`, row-major, and `x`'s rows get theirs — the bits, and the
    /// stream position afterwards, of dropping out every row and selecting
    /// these. The identity, drawing nothing and not looking at `rows`,
    /// unless [`Ops::is_training`].
    fn dropout<R: Rng + ?Sized>(
        &mut self,
        x: Self::Node,
        total: usize,
        rows: impl Iterator<Item = u32>,
        p: f32,
        rng: &mut R,
    ) -> Self::Node;

    /// Selects the `n` rows `idxs` of `x`; `x` stays live.
    fn row_select(
        &mut self,
        x: &Self::Node,
        n: usize,
        idxs: impl Iterator<Item = u32>,
    ) -> Self::Node;

    /// `[n, da] ++ [n, db] -> [n, da + db]` column-wise concatenation.
    fn concat_cols(&mut self, a: Self::Node, b: Self::Node) -> Self::Node;

    /// Declares that nothing will read `x` again (the ops that take a node
    /// by reference leave that to the caller).
    fn free(&mut self, x: Self::Node);
}

/// The rows of a packed activation that survive `keep`: for each sequence of
/// `seqs` its kept positions — every position under `None` — offset by where
/// the sequence starts. Borrowed, lazy and `Clone`: the executor walks it
/// without allocating.
pub(crate) fn kept_rows<'a, S, K>(
    seqs: S,
    keep: K,
) -> impl Iterator<Item = u32> + Clone + use<'a, S, K>
where
    S: Iterator<Item = BatchSeq<'a>> + Clone,
    K: Iterator<Item = Option<&'a [u32]>> + Clone,
{
    seqs.zip(keep)
        .scan(0u32, |row0, (seq, keep)| {
            let (first, len) = (*row0, seq.ids.len() as u32);
            *row0 += len;
            let n = keep.map_or(len, |k| k.len() as u32);
            Some((0..n).map(move |i| first + keep.map_or(i, |k| k[i as usize])))
        })
        .flatten()
}

impl Ops for Tape<'_> {
    type Node = NodeId;

    fn is_training(&self) -> bool {
        Tape::is_training(self)
    }

    fn embedding(
        &mut self,
        weight: ParamId,
        rows: usize,
        ids: impl Iterator<Item = u32>,
    ) -> NodeId {
        let ids: Vec<u32> = ids.collect();
        debug_assert_eq!(ids.len(), rows);
        Tape::embedding(self, weight, &ids)
    }

    fn add(&mut self, a: NodeId, b: NodeId) -> NodeId {
        Tape::add(self, a, b)
    }

    fn layer_norm(&mut self, x: NodeId, gamma: ParamId, beta: ParamId) -> NodeId {
        Tape::layer_norm(self, x, gamma, beta)
    }

    fn dense(&mut self, &x: &NodeId, layer: Dense<'_>) -> NodeId {
        match layer {
            Dense::F32 { w, b } => self.linear(x, w, b),
            Dense::FusedQkv { ws: [wq, wk, wv], bs: [bq, bk, bv] } => {
                self.fused_qkv(x, wq, bq, wk, bk, wv, bv)
            }
            Dense::Int8(q) => {
                let y = q.forward(self.value(x));
                self.input(y)
            }
        }
    }

    /// One attention node holding the kept rows (every row under `None`),
    /// differentiated over exactly those; the tape owns what it must
    /// remember, so lengths, masks and positions are collected. Kept
    /// positions must ascend (`Tape::mha_batch_qkv_kept` says why).
    fn attention<'a>(
        &mut self,
        qkv: NodeId,
        heads: usize,
        seqs: impl Iterator<Item = BatchSeq<'a>> + Clone,
        keep: impl Iterator<Item = Option<&'a [u32]>> + Clone,
    ) -> NodeId {
        let lens: Vec<usize> = seqs.clone().map(|s| s.ids.len()).collect();
        let masks: Vec<Option<AttnMask>> = seqs.map(|s| s.mask.map(Arc::clone)).collect();
        let keep = keep.take(lens.len()).map(|k| k.map(<[u32]>::to_vec)).collect();
        self.mha_batch_qkv_kept(qkv, heads, &masks, Some(&lens), keep)
    }

    fn gelu(&mut self, x: NodeId) -> NodeId {
        Tape::gelu(self, x)
    }

    fn dropout<R: Rng + ?Sized>(
        &mut self,
        x: NodeId,
        total: usize,
        rows: impl Iterator<Item = u32>,
        p: f32,
        rng: &mut R,
    ) -> NodeId {
        self.dropout_rows(x, total, rows, p, rng)
    }

    fn row_select(&mut self, &x: &NodeId, n: usize, idxs: impl Iterator<Item = u32>) -> NodeId {
        let idxs: Vec<u32> = idxs.collect();
        debug_assert_eq!(idxs.len(), n);
        Tape::row_select(self, x, &idxs)
    }

    fn concat_cols(&mut self, a: NodeId, b: NodeId) -> NodeId {
        Tape::concat_cols(self, a, b)
    }

    fn free(&mut self, _: NodeId) {}
}

impl Ops for Executor<'_> {
    type Node = Slot;

    fn is_training(&self) -> bool {
        false
    }

    fn embedding(&mut self, weight: ParamId, rows: usize, ids: impl Iterator<Item = u32>) -> Slot {
        Executor::embedding(self, weight, rows, ids)
    }

    fn add(&mut self, a: Slot, b: Slot) -> Slot {
        Executor::add(self, a, b)
    }

    fn layer_norm(&mut self, x: Slot, gamma: ParamId, beta: ParamId) -> Slot {
        Executor::layer_norm(self, x, gamma, beta)
    }

    fn dense(&mut self, x: &Slot, layer: Dense<'_>) -> Slot {
        match layer {
            Dense::F32 { w, b } => self.linear(x, w, b),
            Dense::FusedQkv { ws, bs } => self.fused_qkv(x, ws, bs),
            Dense::Int8(q) => self.quant_linear(x, q),
        }
    }

    fn attention<'a>(
        &mut self,
        qkv: Slot,
        heads: usize,
        seqs: impl Iterator<Item = BatchSeq<'a>> + Clone,
        keep: impl Iterator<Item = Option<&'a [u32]>> + Clone,
    ) -> Slot {
        let blocks = seqs.zip(keep).map(|(s, keep)| AttnBlock {
            len: s.ids.len(),
            mask: s.mask.map(|m| m.as_slice()),
            keep,
        });
        Executor::attention(self, qkv, heads, blocks)
    }

    fn gelu(&mut self, x: Slot) -> Slot {
        Executor::gelu(self, x)
    }

    fn dropout<R: Rng + ?Sized>(
        &mut self,
        x: Slot,
        _: usize,
        _: impl Iterator<Item = u32>,
        _: f32,
        _: &mut R,
    ) -> Slot {
        x
    }

    fn row_select(&mut self, x: &Slot, n: usize, idxs: impl Iterator<Item = u32>) -> Slot {
        Executor::row_select(self, x, n, idxs)
    }

    fn concat_cols(&mut self, a: Slot, b: Slot) -> Slot {
        Executor::concat_cols(self, a, b)
    }

    fn free(&mut self, x: Slot) {
        Executor::free(self, x);
    }
}
