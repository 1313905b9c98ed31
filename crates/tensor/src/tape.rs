//! Reverse-mode automatic differentiation on an eager tape.
//!
//! A [`Tape`] records one forward computation (in this project: one
//! serialized table) as a flat list of nodes. Values are computed eagerly;
//! [`Tape::backward`] walks the tape in reverse and accumulates parameter
//! gradients into a [`Gradients`] buffer. Tapes borrow their [`ParamStore`]
//! immutably, so several tapes can run on worker threads concurrently.
//!
//! The op set is exactly what a BERT-style encoder plus classification heads
//! needs; multi-head attention is a single fused op over packed, ragged
//! blocks ([`Tape::mha_batch_qkv`]) — a lone sequence is the batch of one —
//! so no general reshape / transpose machinery is required. A dense layer is
//! one node too ([`Tape::linear`]; [`Tape::fused_qkv`] is the same op over
//! three column segments): the product with its bias in the GEMM epilogue,
//! as the executor computes it, and per segment a backward of `Xᵀ G` (dW),
//! in-order row sums (db) and `G Wᵀ` (dx) on the strided GEMM entry points.
//!
//! Two ops know that a caller may hold only some rows of an activation,
//! which is what lets a trainer's top encoder block compute — and
//! differentiate — only the rows its loss reads, to the bits of computing
//! them all: attention can be asked for a block's kept query rows
//! ([`Tape::mha_batch_qkv_kept`]; backward reduces over exactly those), and
//! dropout is defined on the full-width activation ([`Tape::dropout_rows`]:
//! every row's masks are drawn, the held rows' applied).
//!
//! The tape is the *recording* backend: use it when something will be
//! differentiated or an intermediate will be looked at (training, the
//! attention analysis, op-by-op replays). A forward that only wants its
//! result — serving — runs the same ops on [`crate::Executor`], which
//! records nothing and reuses its buffers. Both compute every forward op
//! through the functions of the crate-private `forward` module, so they
//! agree bit for bit.
#![allow(clippy::needless_range_loop)] // index loops over matrix coordinates are clearest here

use crate::forward::{
    attention_forward, attn_probs_block, concat_rows, dense_segment, gather_queries, gather_rows,
    head_views, layer_norm_rows, AttnBlock,
};
use crate::kernels::{gemm_nn, gemm_nt, gemm_tn, View};
use crate::params::{Gradients, ParamId, ParamStore};
use crate::tensor::Tensor;
use crate::vmath;
use rand::Rng;
use std::sync::Arc;

/// Index of a node on a [`Tape`].
pub type NodeId = usize;

/// Additive attention mask (`0.0` = visible, `NEG_INF`-like = hidden),
/// row-major `[S, S]`. Shared via `Arc` because the same visibility matrix
/// is reused across layers and batch items.
pub type AttnMask = Arc<Vec<f32>>;

/// Large negative value used to mask attention logits.
pub const MASK_NEG: f32 = -1e9;

enum Val {
    Owned(Tensor),
    Param(ParamId),
}

enum Op {
    /// Constant input; receives no gradient.
    Leaf,
    /// Learnable parameter; gradient flows into the [`Gradients`] buffer.
    Param(ParamId),
    Add {
        a: NodeId,
        b: NodeId,
    },
    Gelu {
        x: NodeId,
    },
    Relu {
        x: NodeId,
    },
    LayerNorm {
        x: NodeId,
        gamma: NodeId,
        beta: NodeId,
        mean: Vec<f32>,
        rstd: Vec<f32>,
    },
    /// Row gather from an embedding matrix.
    Embedding {
        weight: NodeId,
        ids: Vec<u32>,
    },
    /// Row gather from an activation (used to pick out `[CLS]` positions).
    RowSelect {
        x: NodeId,
        idxs: Vec<u32>,
    },
    /// Horizontal concatenation (used for column-pair representations).
    ConcatCols {
        a: NodeId,
        b: NodeId,
    },
    /// Dense layers side by side over one input: `[X W₀ + b₀ | X W₁ + b₁ |
    /// …]`, each a `[rows, d]` column segment — one segment for
    /// [`Tape::linear`], three for [`Tape::fused_qkv`].
    Dense {
        x: NodeId,
        /// `(weight, bias)` nodes per segment, `[d_in, d]` and `[1, d]`.
        segs: Vec<(NodeId, NodeId)>,
    },
    /// Multi-head self-attention `softmax(QKᵀ · scale + mask) V` per head,
    /// heads concatenated, over a fused `[rows, 3d]` Q|K|V node whose rows
    /// pack one or more sequences: each attends only within its own block
    /// (no padding). Attention probabilities are NOT cached — a large batch
    /// would hold `heads * sum(len^2)` floats per layer — backward and
    /// [`Tape::attn_probs`] recompute them from the node's input through
    /// the forward's own kernel, hence bit-identically.
    MhaBatchQkv {
        qkv: NodeId,
        heads: usize,
        /// Length of each packed block; they sum to the input's row count.
        lens: Vec<usize>,
        /// Per-block additive masks, kept for the recompute.
        masks: Vec<Option<AttnMask>>,
        /// Per block, the query positions whose output rows the node holds
        /// (strictly ascending), `None` for every row: the node's rows are
        /// those, block after block.
        keep: Vec<Option<Vec<u32>>>,
    },
    /// Inverted-dropout; `mask` holds `0` or `1/(1-p)` per element of `x`
    /// (the masks of the rows `x` holds, when the stream was drawn wider).
    Dropout {
        x: NodeId,
        mask: Vec<f32>,
    },
    /// Mean negative log-likelihood over rows; caches softmax probabilities.
    SoftmaxCe {
        logits: NodeId,
        targets: Vec<u32>,
        probs: Tensor,
    },
    /// Mean binary cross-entropy with logits; caches sigmoids.
    BceLogits {
        logits: NodeId,
        sig: Tensor,
        targets: Tensor,
        pos_weight: f32,
    },
}

struct Node {
    val: Val,
    op: Op,
}

/// One recorded forward pass over a shared parameter store.
pub struct Tape<'s> {
    store: &'s ParamStore,
    nodes: Vec<Node>,
    training: bool,
}

impl<'s> Tape<'s> {
    /// Creates a tape in training mode (dropout active).
    pub fn new(store: &'s ParamStore) -> Self {
        Tape { store, nodes: Vec::with_capacity(256), training: true }
    }

    /// Creates a tape with dropout disabled (inference / evaluation).
    pub fn inference(store: &'s ParamStore) -> Self {
        Tape { store, nodes: Vec::with_capacity(256), training: false }
    }

    /// True on training tapes (dropout active).
    pub fn is_training(&self) -> bool {
        self.training
    }

    /// The value produced by a node.
    pub fn value(&self, id: NodeId) -> &Tensor {
        match &self.nodes[id].val {
            Val::Owned(t) => t,
            Val::Param(p) => self.store.get(*p),
        }
    }

    /// Number of recorded nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    fn push(&mut self, val: Tensor, op: Op) -> NodeId {
        self.nodes.push(Node { val: Val::Owned(val), op });
        self.nodes.len() - 1
    }

    /// Records a constant input (no gradient).
    pub fn input(&mut self, t: Tensor) -> NodeId {
        self.push(t, Op::Leaf)
    }

    /// Records a reference to a learnable parameter.
    pub fn param(&mut self, id: ParamId) -> NodeId {
        self.nodes.push(Node { val: Val::Param(id), op: Op::Param(id) });
        self.nodes.len() - 1
    }

    /// `y = x W + b` — the standard dense layer, one node.
    pub fn linear(&mut self, x: NodeId, w: ParamId, b: ParamId) -> NodeId {
        self.dense(x, &[(w, b)])
    }

    /// Elementwise sum of two same-shaped nodes.
    pub fn add(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let (ta, tb) = (self.value(a), self.value(b));
        assert_eq!(ta.shape(), tb.shape(), "add shape mismatch");
        let mut v = ta.clone();
        v.add_assign(tb);
        self.push(v, Op::Add { a, b })
    }

    /// GELU activation (tanh approximation, as in BERT).
    pub fn gelu(&mut self, x: NodeId) -> NodeId {
        let mut v = self.value(x).clone();
        vmath::gelu(v.data_mut());
        self.push(v, Op::Gelu { x })
    }

    /// Elementwise rectified linear unit.
    pub fn relu(&mut self, x: NodeId) -> NodeId {
        let tx = self.value(x);
        let data: Vec<f32> = tx.data().iter().map(|v| v.max(0.0)).collect();
        let v = Tensor::from_vec(tx.rows(), tx.cols(), data);
        self.push(v, Op::Relu { x })
    }

    /// Row-wise LayerNorm with learned gain/bias.
    pub fn layer_norm(&mut self, x: NodeId, gamma: ParamId, beta: ParamId) -> NodeId {
        let gn = self.param(gamma);
        let bn = self.param(beta);
        let (tx, tg, tb) = (self.value(x), self.value(gn), self.value(bn));
        let (rows, cols) = tx.shape();
        assert_eq!(tg.shape(), (1, cols), "layer_norm gamma shape");
        assert_eq!(tb.shape(), (1, cols), "layer_norm beta shape");

        let mut out = Tensor::zeros(rows, cols);
        let mut means = Vec::with_capacity(rows);
        let mut rstds = Vec::with_capacity(rows);
        layer_norm_rows(tx.data(), cols, tg.data(), tb.data(), out.data_mut(), |mean, rstd| {
            means.push(mean);
            rstds.push(rstd);
        });
        self.push(out, Op::LayerNorm { x, gamma: gn, beta: bn, mean: means, rstd: rstds })
    }

    /// Gathers embedding rows for `ids` from parameter `weight` (`[V, d]`).
    pub fn embedding(&mut self, weight: ParamId, ids: &[u32]) -> NodeId {
        let wn = self.param(weight);
        let w = self.value(wn);
        let mut out = Tensor::zeros(ids.len(), w.cols());
        gather_rows(w.data(), w.cols(), ids.iter().copied(), out.data_mut(), "embedding");
        self.push(out, Op::Embedding { weight: wn, ids: ids.to_vec() })
    }

    /// Selects rows `idxs` of `x` (e.g. the per-column `[CLS]` positions).
    pub fn row_select(&mut self, x: NodeId, idxs: &[u32]) -> NodeId {
        let tx = self.value(x);
        let mut out = Tensor::zeros(idxs.len(), tx.cols());
        gather_rows(tx.data(), tx.cols(), idxs.iter().copied(), out.data_mut(), "row_select");
        self.push(out, Op::RowSelect { x, idxs: idxs.to_vec() })
    }

    /// `[N, da] ++ [N, db] -> [N, da+db]` column-wise concatenation.
    pub fn concat_cols(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let (ta, tb) = (self.value(a), self.value(b));
        assert_eq!(ta.rows(), tb.rows(), "concat_cols row mismatch");
        let (n, da, db) = (ta.rows(), ta.cols(), tb.cols());
        let mut out = Tensor::zeros(n, da + db);
        concat_rows(ta.data(), da, tb.data(), db, out.data_mut());
        self.push(out, Op::ConcatCols { a, b })
    }

    /// Fused Q/K/V projection `[x Wq + bq | x Wk + bk | x Wv + bv]` →
    /// `[rows, 3d]`: the one dense op over three column segments, each
    /// computed as [`Tape::linear`] computes its layer, so the fused node
    /// is bit-identical to three separate dense layers, forward and
    /// backward.
    #[allow(clippy::too_many_arguments)] // mirrors three linear() calls
    pub fn fused_qkv(
        &mut self,
        x: NodeId,
        wq: ParamId,
        bq: ParamId,
        wk: ParamId,
        bk: ParamId,
        wv: ParamId,
        bv: ParamId,
    ) -> NodeId {
        self.dense(x, &[(wq, bq), (wk, bk), (wv, bv)])
    }

    /// Records [`Op::Dense`]: each segment's weight and bias, then the
    /// node. Each segment is `dense_segment` into its columns — per element
    /// `sum_k x·w`, then `+ b` in the GEMM epilogue, what the executor
    /// computes.
    fn dense(&mut self, x: NodeId, params: &[(ParamId, ParamId)]) -> NodeId {
        let segs: Vec<(NodeId, NodeId)> =
            params.iter().map(|&(w, b)| (self.param(w), self.param(b))).collect();
        let (rows, k) = self.value(x).shape();
        let d = self.value(segs[0].0).cols();
        let width = segs.len() * d;
        let mut out = Tensor::zeros(rows, width);
        for (t, &(w, b)) in segs.iter().enumerate() {
            let (w, b) = (self.value(w), self.value(b));
            assert_eq!(w.shape(), (k, d), "dense weight shape");
            dense_segment(out.data_mut(), width, t * d, rows, View::of(self.value(x)), w, b, None);
        }
        self.push(out, Op::Dense { x, segs })
    }

    /// Multi-head self-attention over a fused `[rows, 3d]` Q|K|V node
    /// (from [`Tape::fused_qkv`], or any node of that layout) — the one
    /// attention op; `d % heads == 0`.
    ///
    /// The rows pack `masks.len()` sequences back to back and attention is
    /// computed independently inside each block — tokens never attend
    /// across sequences. `lens`, when given, holds each packed sequence's
    /// length (they must sum to the row count): the ragged layout, with no
    /// padding anywhere. `None` splits the rows into `masks.len()` equal
    /// blocks. Each mask, if present, is an additive `[len_b, len_b]`
    /// matrix (use [`MASK_NEG`] for hidden pairs — TURL's visibility
    /// matrix plugs in here).
    ///
    /// Per block the arithmetic does not depend on what else is packed, so
    /// a batched forward is bit-identical to one forward per sequence.
    pub fn mha_batch_qkv(
        &mut self,
        qkv: NodeId,
        heads: usize,
        masks: &[Option<AttnMask>],
        lens: Option<&[usize]>,
    ) -> NodeId {
        self.mha_batch_qkv_kept(qkv, heads, masks, lens, vec![None; masks.len()])
    }

    /// [`Tape::mha_batch_qkv`] for a caller that will read only some of the
    /// output rows: `keep[b]` names the query positions of block `b` whose
    /// rows the node holds (`None`: all of them), and the node is those
    /// rows, block after block — each with the bits it has when every row
    /// is computed, keys and values still spanning the block. Backward
    /// differentiates what was computed: `P` is recomputed for the kept
    /// queries only and every product over queries (`dV`, `dK`) reduces
    /// over them alone. A dropped query's output has no reader, so its
    /// gradient row is exactly `+0.0` and it only ever added `+0.0` terms to
    /// accumulators that start at `+0.0`: leaving it out moves no bit of
    /// `dQ|dK|dV`, provided the kept rows are reduced in the order the full
    /// reduction meets them — positions must be strictly ascending.
    pub fn mha_batch_qkv_kept(
        &mut self,
        qkv: NodeId,
        heads: usize,
        masks: &[Option<AttnMask>],
        lens: Option<&[usize]>,
        keep: Vec<Option<Vec<u32>>>,
    ) -> NodeId {
        let t = self.value(qkv);
        let (rows, d3) = t.shape();
        assert!(d3 % 3 == 0, "fused qkv width must be 3d");
        let d = d3 / 3;
        assert!(!masks.is_empty(), "mha_batch_qkv needs at least one sequence");
        let lens = resolve_blocks(rows, masks.len(), lens);
        assert_eq!(keep.len(), lens.len(), "one keep per block");
        for k in keep.iter().flatten() {
            assert!(k.windows(2).all(|w| w[0] < w[1]), "kept positions must ascend: {k:?}");
        }

        let blocks = lens.iter().zip(masks).zip(&keep).map(|((&len, m), k)| AttnBlock {
            len,
            mask: m.as_ref().map(|m| m.as_slice()),
            keep: k.as_deref(),
        });
        let queries = blocks.clone().map(|b| b.queries()).sum();
        let mut out = Tensor::zeros(queries, d);
        attention_forward(t.data(), (rows, d, heads), blocks, out.data_mut(), &mut Vec::new());
        self.push(out, Op::MhaBatchQkv { qkv, heads, lens, masks: masks.to_vec(), keep })
    }

    /// Post-softmax attention probabilities of packed sequence `block` of a
    /// [`Tape::mha_batch_qkv`] node, flattened `[heads, len, len]` (every
    /// query, whatever the node kept), with the head count. Recomputed on
    /// demand through the forward's own kernel,
    /// so they are the very bits the forward multiplied into `V`. Used by
    /// the attention analysis (Figure 6). `None` for any other node.
    pub fn attn_probs(&self, id: NodeId, block: usize) -> Option<(Vec<f32>, usize)> {
        let Op::MhaBatchQkv { qkv, heads, lens, masks, .. } = &self.nodes[id].op else {
            return None;
        };
        let t = self.value(*qkv);
        let d = t.cols() / 3;
        let dh = d / heads;
        let scale = 1.0 / (dh as f32).sqrt();
        let (len, row0) = (lens[block], lens[..block].iter().sum());
        let mask = masks[block].as_ref().map(|m| m.as_slice());
        let mut probs = vec![0.0f32; heads * len * len];
        for (h, p) in probs.chunks_exact_mut(len * len).enumerate() {
            let [q, k, _] = head_views(t.data(), d, row0, h * dh);
            attn_probs_block(p, q, k, len, dh, scale, mask, None);
        }
        Some((probs, *heads))
    }

    /// Inverted dropout with keep probability `1 - p`. A no-op on inference
    /// tapes.
    pub fn dropout<R: Rng + ?Sized>(&mut self, x: NodeId, p: f32, rng: &mut R) -> NodeId {
        let rows = self.value(x).rows();
        self.dropout_rows(x, rows, 0..rows as u32, p, rng)
    }

    /// [`Tape::dropout`] *defined on a wider activation*: `x` holds the rows
    /// `rows` (strictly ascending) of a `[total, cols]` activation. The
    /// `total × cols` mask stream is drawn from `rng` exactly as dropout of
    /// the whole activation draws it, row-major, and the masks of the rows
    /// `x` holds are applied — so those rows, every later draw and where
    /// `rng` ends are what the full-width op gives; the other rows' masks
    /// are drawn and dropped. This is what lets a block that computes only
    /// some rows train the model the full-width block trains.
    pub fn dropout_rows<R: Rng + ?Sized>(
        &mut self,
        x: NodeId,
        total: usize,
        rows: impl Iterator<Item = u32>,
        p: f32,
        rng: &mut R,
    ) -> NodeId {
        if !self.training || p <= 0.0 {
            return x;
        }
        assert!(p < 1.0, "dropout probability must be < 1");
        let keep = 1.0 - p;
        let tx = self.value(x);
        let cols = tx.cols();
        let mut draw = || if rng.gen::<f32>() < keep { 1.0 / keep } else { 0.0 };
        let mut mask: Vec<f32> = Vec::with_capacity(tx.len());
        // The rows before `next` have had their masks drawn.
        let mut next = 0usize;
        for r in rows.map(|r| r as usize).chain([total]) {
            assert!(next <= r && r <= total, "dropout rows must ascend within {total} rows");
            for _ in next * cols..r * cols {
                draw(); // a row `x` does not hold: drawn and dropped
            }
            if r < total {
                mask.extend((0..cols).map(|_| draw()));
            }
            next = r + 1;
        }
        assert_eq!(mask.len(), tx.len(), "dropout: one row index per row of the input");
        let data: Vec<f32> = tx.data().iter().zip(mask.iter()).map(|(v, m)| v * m).collect();
        let v = Tensor::from_vec(tx.rows(), cols, data);
        self.push(v, Op::Dropout { x, mask })
    }

    /// Mean softmax cross-entropy over the rows of `logits` (`[N, C]`)
    /// against integer `targets` (`len N`). Returns a `[1, 1]` loss node.
    pub fn softmax_ce(&mut self, logits: NodeId, targets: &[u32]) -> NodeId {
        let tl = self.value(logits);
        let (n, c) = tl.shape();
        assert_eq!(targets.len(), n, "softmax_ce target count");
        let mut probs = tl.clone();
        vmath::softmax_rows(probs.data_mut(), c);
        let mut loss = 0.0f32;
        for r in 0..n {
            let t = targets[r] as usize;
            assert!(t < c, "softmax_ce target {t} out of range {c}");
            loss -= probs.get(r, t).max(1e-12).ln();
        }
        loss /= n as f32;
        self.push(Tensor::scalar(loss), Op::SoftmaxCe { logits, targets: targets.to_vec(), probs })
    }

    /// Mean binary cross-entropy with logits against `{0, 1}` targets of the
    /// same shape (multi-label heads). Returns a `[1, 1]` loss node.
    pub fn bce_logits(&mut self, logits: NodeId, targets: &Tensor) -> NodeId {
        self.bce_logits_weighted(logits, targets, 1.0)
    }

    /// [`Tape::bce_logits`] with a positive-class weight (PyTorch's
    /// `BCEWithLogitsLoss(pos_weight=…)`): the loss term of each positive
    /// target is multiplied by `pos_weight`, counteracting the extreme
    /// positive/negative imbalance of multi-label column typing (a couple of
    /// true types among hundreds of classes).
    pub fn bce_logits_weighted(
        &mut self,
        logits: NodeId,
        targets: &Tensor,
        pos_weight: f32,
    ) -> NodeId {
        assert!(pos_weight > 0.0, "pos_weight must be positive");
        let tl = self.value(logits);
        assert_eq!(tl.shape(), targets.shape(), "bce_logits shape mismatch");
        // softplus(x) = max(x,0) + ln(1 + e^{-|x|}) is the stable form.
        let mut tail: Vec<f32> = tl.data().iter().map(|z| -z.abs()).collect();
        vmath::exp(&mut tail);
        let mut loss = 0.0f32;
        for ((z, t), e) in tl.data().iter().zip(targets.data().iter()).zip(tail.iter()) {
            let ln_tail = e.ln_1p();
            let softplus_neg = (-z).max(0.0) + ln_tail; // -log sigmoid(z)
            let softplus_pos = z.max(0.0) + ln_tail; // -log (1 - sigmoid(z))
            loss += pos_weight * t * softplus_neg + (1.0 - t) * softplus_pos;
        }
        let mut sig = tl.clone();
        vmath::sigmoid(sig.data_mut());
        loss /= tl.len() as f32;
        self.push(
            Tensor::scalar(loss),
            Op::BceLogits { logits, sig, targets: targets.clone(), pos_weight },
        )
    }

    /// Runs reverse-mode differentiation from scalar node `loss`,
    /// accumulating parameter gradients into `grads`.
    pub fn backward(&self, loss: NodeId, grads: &mut Gradients) {
        assert_eq!(self.value(loss).shape(), (1, 1), "backward root must be scalar");
        let mut local: Vec<Option<Tensor>> = vec![None; self.nodes.len()];
        local[loss] = Some(Tensor::scalar(1.0));

        for id in (0..=loss).rev() {
            let Some(g) = local[id].take() else { continue };
            match &self.nodes[id].op {
                Op::Leaf => {}
                Op::Param(pid) => grads.accumulate(*pid, &g, self.store),
                Op::Add { a, b } => {
                    acc(&mut local, *a, g.clone());
                    acc(&mut local, *b, g);
                }
                Op::Gelu { x } => {
                    let mut dx = g;
                    vmath::gelu_grad(dx.data_mut(), self.value(*x).data());
                    acc(&mut local, *x, dx);
                }
                Op::Relu { x } => {
                    let mut dx = g;
                    for (d, &v) in dx.data_mut().iter_mut().zip(self.value(*x).data()) {
                        *d = if v > 0.0 { *d } else { 0.0 };
                    }
                    acc(&mut local, *x, dx);
                }
                Op::LayerNorm { x, gamma, beta, mean, rstd } => {
                    let tx = self.value(*x);
                    let tg = self.value(*gamma);
                    let (rows, cols) = tx.shape();
                    let mut dgamma = Tensor::zeros(1, cols);
                    let mut dbeta = Tensor::zeros(1, cols);
                    let mut dx = Tensor::zeros(rows, cols);
                    for r in 0..rows {
                        let xr = tx.row(r);
                        let gr = g.row(r);
                        let (m, rs) = (mean[r], rstd[r]);
                        // dy*gamma and its row statistics.
                        let mut sum_dyg = 0.0f32;
                        let mut sum_dyg_xhat = 0.0f32;
                        for c in 0..cols {
                            let xhat = (xr[c] - m) * rs;
                            let dyg = gr[c] * tg.data()[c];
                            sum_dyg += dyg;
                            sum_dyg_xhat += dyg * xhat;
                            dgamma.data_mut()[c] += gr[c] * xhat;
                            dbeta.data_mut()[c] += gr[c];
                        }
                        let inv_n = 1.0 / cols as f32;
                        let dxr = dx.row_mut(r);
                        for c in 0..cols {
                            let xhat = (xr[c] - m) * rs;
                            let dyg = gr[c] * tg.data()[c];
                            dxr[c] = rs * (dyg - inv_n * sum_dyg - xhat * inv_n * sum_dyg_xhat);
                        }
                    }
                    acc(&mut local, *gamma, dgamma);
                    acc(&mut local, *beta, dbeta);
                    acc(&mut local, *x, dx);
                }
                Op::Embedding { weight, ids } => {
                    // Straight into the table's gradient rows: no dense
                    // `[vocab, d]` detour through `local`.
                    let Op::Param(pid) = self.nodes[*weight].op else {
                        unreachable!("Tape::embedding gathers from a parameter node")
                    };
                    grads.accumulate_rows(pid, ids, &g, self.store);
                }
                Op::RowSelect { x, idxs } => {
                    let tx = self.value(*x);
                    let mut dx = Tensor::zeros(tx.rows(), tx.cols());
                    for (r, &i) in idxs.iter().enumerate() {
                        for (o, &gv) in dx.row_mut(i as usize).iter_mut().zip(g.row(r).iter()) {
                            *o += gv;
                        }
                    }
                    acc(&mut local, *x, dx);
                }
                Op::ConcatCols { a, b } => {
                    let (da_cols, db_cols) = (self.value(*a).cols(), self.value(*b).cols());
                    let n = g.rows();
                    let mut da = Tensor::zeros(n, da_cols);
                    let mut db = Tensor::zeros(n, db_cols);
                    for r in 0..n {
                        da.row_mut(r).copy_from_slice(&g.row(r)[..da_cols]);
                        db.row_mut(r).copy_from_slice(&g.row(r)[da_cols..]);
                    }
                    acc(&mut local, *a, da);
                    acc(&mut local, *b, db);
                }
                Op::Dense { x, segs } => {
                    let tx = self.value(*x);
                    let (rows, k) = tx.shape();
                    let width = g.cols();
                    let d = width / segs.len();
                    // Last segment first: the order in which separate dense
                    // layers recorded first to last would hand their
                    // input-gradients to `x` on the reverse walk. Each is a
                    // product computed on its own and then added — float
                    // addition does not associate, so accumulating the
                    // GEMMs into one buffer would move bits.
                    for (t, &(w, b)) in segs.iter().enumerate().rev() {
                        // This segment's gradient is the `[t*d, (t+1)*d)`
                        // column slice of `g`, consumed in place as a
                        // strided view — no materialized copy.
                        let g_t = View::at(g.data(), width, 0, t * d);
                        let mut dw = Tensor::zeros(k, d);
                        gemm_tn(dw.data_mut(), d, 0, (k, d, rows), View::of(tx), g_t);
                        let mut db = Tensor::zeros(1, d);
                        for r in 0..rows {
                            let g_row = &g.row(r)[t * d..(t + 1) * d];
                            for (o, &gv) in db.row_mut(0).iter_mut().zip(g_row.iter()) {
                                *o += gv;
                            }
                        }
                        let mut dx = Tensor::zeros(rows, k);
                        gemm_nt(dx.data_mut(), k, 0, (rows, k, d), g_t, View::of(self.value(w)));
                        acc(&mut local, w, dw);
                        acc(&mut local, b, db);
                        acc(&mut local, *x, dx);
                    }
                }
                Op::MhaBatchQkv { qkv, heads, lens, masks, keep } => {
                    let t = self.value(*qkv);
                    let (rows, d3) = t.shape();
                    let d = d3 / 3;
                    let dh = d / heads;
                    let scale = 1.0 / (dh as f32).sqrt();
                    // Every dK|dV element and each computed query's dQ row
                    // is written below; a dropped query's dQ row stays +0.0.
                    let mut dqkv = Tensor::zeros(rows, d3);
                    // `m` query rows of a `len`-token block: all of them, or
                    // the kept ones.
                    let queries = |b: usize| keep[b].as_ref().map_or(lens[b], Vec::len);
                    let blocks = 0..lens.len();
                    let max_p = blocks.clone().map(|b| queries(b) * lens[b]).max().expect("blocks");
                    let max_q = blocks.map(queries).max().expect("blocks") * d;
                    let mut p_buf = vec![0.0f32; max_p];
                    let mut dp_buf = vec![0.0f32; max_p];
                    let (mut q_kept, mut dq_buf) = (vec![0.0f32; max_q], vec![0.0f32; max_q]);
                    let (mut row0, mut out0) = (0usize, 0usize);
                    for (b, (&len, mask)) in lens.iter().zip(masks.iter()).enumerate() {
                        let mask = mask.as_ref().map(|m| m.as_slice());
                        let (keep, m) = (keep[b].as_deref(), queries(b));
                        if let Some(keep) = keep {
                            gather_queries(t.data(), d, (row0, len), keep, &mut q_kept);
                        }
                        let dq = &mut dq_buf[..m * d];
                        for h in 0..*heads {
                            let off = h * dh;
                            let [q, k, v] = head_views(t.data(), d, row0, off);
                            let q = if keep.is_some() { View::at(&q_kept, d, 0, off) } else { q };
                            // Recomputed via the same kernel the forward
                            // used — bit-identical.
                            attn_probs_block(&mut p_buf, q, k, len, dh, scale, mask, keep);
                            attn_head_backward(
                                &p_buf,
                                &mut dp_buf,
                                View::at(g.data(), d, out0, off),
                                [q, k, v],
                                dq,
                                &mut dqkv.data_mut()[row0 * d3..],
                                (m, len, dh),
                                (d, off),
                                scale,
                            );
                        }
                        // Each query's dQ row, home to the row it came from.
                        for (i, dq_row) in dq.chunks_exact(d).enumerate() {
                            let pos = keep.map_or(i, |k| k[i] as usize);
                            dqkv.row_mut(row0 + pos)[..d].copy_from_slice(dq_row);
                        }
                        row0 += len;
                        out0 += m;
                    }
                    acc(&mut local, *qkv, dqkv);
                }
                Op::Dropout { x, mask } => {
                    let tx_shape = self.value(*x).shape();
                    let data: Vec<f32> =
                        g.data().iter().zip(mask.iter()).map(|(g, m)| g * m).collect();
                    acc(&mut local, *x, Tensor::from_vec(tx_shape.0, tx_shape.1, data));
                }
                Op::SoftmaxCe { logits, targets, probs } => {
                    let gs = g.scalar_value();
                    let (n, c) = probs.shape();
                    let mut dl = probs.clone();
                    for (r, &t) in targets.iter().enumerate() {
                        let val = dl.get(r, t as usize) - 1.0;
                        dl.set(r, t as usize, val);
                    }
                    dl.scale_assign(gs / n as f32);
                    debug_assert_eq!(dl.shape(), (n, c));
                    acc(&mut local, *logits, dl);
                }
                Op::BceLogits { logits, sig, targets, pos_weight } => {
                    // d/dz [w t softplus(-z) + (1-t) softplus(z)]
                    //   = (1-t) σ(z) - w t (1-σ(z)).
                    let gs = g.scalar_value();
                    let mut dl = sig.clone();
                    for (o, &t) in dl.data_mut().iter_mut().zip(targets.data().iter()) {
                        let s = *o;
                        *o = (1.0 - t) * s - pos_weight * t * (1.0 - s);
                    }
                    dl.scale_assign(gs / sig.len() as f32);
                    acc(&mut local, *logits, dl);
                }
            }
        }
    }
}

/// Resolves the block layout of [`Tape::mha_batch_qkv`]: explicit `lens`
/// are taken as given (one per block), `None` splits `rows` into `blocks`
/// equal blocks. That they sum to `rows` and fit their masks is checked by
/// the forward kernel itself.
fn resolve_blocks(rows: usize, blocks: usize, lens: Option<&[usize]>) -> Vec<usize> {
    match lens {
        Some(l) => {
            assert_eq!(l.len(), blocks, "one length per block");
            l.to_vec()
        }
        None => {
            assert!(
                rows.is_multiple_of(blocks),
                "{rows} rows do not split into {blocks} equal blocks"
            );
            vec![rows / blocks; blocks]
        }
    }
}

/// Attention backward for one `(block, head)` pair over the block's `m`
/// query rows (`p`, `g` and `q` hold one row per query — all `len` of them,
/// or the kept ones in ascending position), all products through the GEMM
/// layer, each writing its output: `dP = G Vᵀ` into `dp`, `dV = Pᵀ G`, then
/// the softmax Jacobian turns `dP` into `dS` in place (`ds = p * (dp -
/// ⟨dp, p⟩) * scale`, the naive kernels' exact order), and `dQ = dS K`,
/// `dK = dSᵀ Q`. `dQ` lands in the `[.., off..off + dh]` window of the
/// `[m, d]` buffer `dq`, one row per query (the caller carries each home);
/// `dK` and `dV` in the same window of the K and V column segments of
/// `dqkv`, which starts at the block's first row and spans its `len` tokens
/// — each element one accumulator from `+0.0` over the queries in the order
/// given.
#[allow(clippy::too_many_arguments)] // a private kernel, not an API surface
fn attn_head_backward(
    p: &[f32],
    dp: &mut [f32],
    g: View<'_>,
    [q, k, v]: [View<'_>; 3],
    dq: &mut [f32],
    dqkv: &mut [f32],
    (m, len, dh): (usize, usize, usize),
    (d, off): (usize, usize),
    scale: f32,
) {
    let d3 = 3 * d;
    gemm_nt(dp, len, 0, (m, len, dh), g, v);
    gemm_tn(dqkv, d3, 2 * d + off, (len, dh, m), View::at(p, len, 0, 0), g);
    softmax_jacobian_rows(p, dp, m, len, scale);
    gemm_nn(dq, d, off, (m, dh, len), View::at(dp, len, 0, 0), k);
    gemm_tn(dqkv, d3, d + off, (len, dh, m), View::at(dp, len, 0, 0), q);
}

/// Applies the row-wise softmax Jacobian in place to `m` rows of `len`:
/// `dp[i][j] <- p[i][j] * (dp[i][j] - ⟨dp[i], p[i]⟩) * scale`.
fn softmax_jacobian_rows(p: &[f32], dp: &mut [f32], m: usize, len: usize, scale: f32) {
    for i in 0..m {
        let p_row = &p[i * len..(i + 1) * len];
        let dp_row = &mut dp[i * len..(i + 1) * len];
        let mut dot = 0.0f32;
        for (x, y) in dp_row.iter().zip(p_row.iter()) {
            dot += x * y;
        }
        for (x, &pv) in dp_row.iter_mut().zip(p_row.iter()) {
            *x = pv * (*x - dot) * scale;
        }
    }
}

fn acc(local: &mut [Option<Tensor>], id: NodeId, g: Tensor) {
    match &mut local[id] {
        Some(t) => t.add_assign(&g),
        slot => *slot = Some(g),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::{matmul_naive_on, matmul_nt_naive, matmul_tn_naive, Layout, Tier};
    use crate::params::{Gradients, ParamStore};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Finite-difference gradient check: `f` builds a scalar loss on a fresh
    /// tape over `store`; analytic gradients from backward are compared
    /// against central differences for every parameter scalar.
    fn gradcheck(store: &mut ParamStore, f: impl Fn(&mut Tape) -> NodeId, tol: f32) {
        let mut grads = Gradients::new(store);
        {
            let mut tape = Tape::inference(store);
            let loss = f(&mut tape);
            tape.backward(loss, &mut grads);
        }
        let eps = 1e-3f32;
        for pid in 0..store.len() {
            for i in 0..store.get(pid).len() {
                let orig = store.get(pid).data()[i];
                store.get_mut(pid).data_mut()[i] = orig + eps;
                let up = {
                    let mut tape = Tape::inference(store);
                    let l = f(&mut tape);
                    tape.value(l).scalar_value()
                };
                store.get_mut(pid).data_mut()[i] = orig - eps;
                let down = {
                    let mut tape = Tape::inference(store);
                    let l = f(&mut tape);
                    tape.value(l).scalar_value()
                };
                store.get_mut(pid).data_mut()[i] = orig;
                let numeric = (up - down) / (2.0 * eps);
                let analytic = grads.get(pid).map_or(0.0, |g| g.data()[i]);
                assert!(
                    (numeric - analytic).abs() < tol + tol * numeric.abs().max(analytic.abs()),
                    "param {pid} [{i}]: numeric {numeric} vs analytic {analytic}"
                );
            }
        }
    }

    fn rng() -> StdRng {
        StdRng::seed_from_u64(7)
    }

    /// Packs separate `q`, `k`, `v` nodes into the `[rows, 3d]` layout the
    /// attention op reads.
    fn pack_qkv(tape: &mut Tape, q: NodeId, k: NodeId, v: NodeId) -> NodeId {
        let qk = tape.concat_cols(q, k);
        tape.concat_cols(qk, v)
    }

    #[test]
    fn gradcheck_linear_gelu_ce() {
        let mut rng = rng();
        let mut store = ParamStore::new();
        let w = store.add_randn("w", 4, 3, 0.5, &mut rng);
        let b = store.add_randn("b", 1, 3, 0.5, &mut rng);
        let x = Tensor::randn(2, 4, 1.0, &mut rng);
        gradcheck(
            &mut store,
            move |tape| {
                let xn = tape.input(x.clone());
                let h = tape.linear(xn, w, b);
                let a = tape.gelu(h);
                tape.softmax_ce(a, &[0, 2])
            },
            2e-2,
        );
    }

    #[test]
    fn gradcheck_layernorm() {
        let mut rng = rng();
        let mut store = ParamStore::new();
        let xw = store.add_randn("x", 3, 5, 1.0, &mut rng);
        let g = store.add_randn("g", 1, 5, 0.3, &mut rng);
        let bt = store.add_randn("bt", 1, 5, 0.3, &mut rng);
        let proj = store.add_randn("proj", 5, 2, 0.5, &mut rng);
        let pb = store.add_zeros("pb", 1, 2);
        gradcheck(
            &mut store,
            move |tape| {
                let xn = tape.param(xw);
                let ln = tape.layer_norm(xn, g, bt);
                let h = tape.linear(ln, proj, pb);
                tape.softmax_ce(h, &[1, 0, 1])
            },
            3e-2,
        );
    }

    #[test]
    fn gradcheck_mha() {
        let mut rng = rng();
        let mut store = ParamStore::new();
        let q = store.add_randn("q", 4, 6, 0.7, &mut rng);
        let k = store.add_randn("k", 4, 6, 0.7, &mut rng);
        let v = store.add_randn("v", 4, 6, 0.7, &mut rng);
        let proj = store.add_randn("proj", 6, 3, 0.5, &mut rng);
        let pb = store.add_zeros("pb", 1, 3);
        gradcheck(
            &mut store,
            move |tape| {
                let qn = tape.param(q);
                let kn = tape.param(k);
                let vn = tape.param(v);
                let qkv = pack_qkv(tape, qn, kn, vn);
                let att = tape.mha_batch_qkv(qkv, 2, &[None], None);
                let h = tape.linear(att, proj, pb);
                tape.softmax_ce(h, &[0, 1, 2, 0])
            },
            3e-2,
        );
    }

    #[test]
    fn gradcheck_mha_masked() {
        let mut rng = rng();
        let mut store = ParamStore::new();
        let q = store.add_randn("q", 3, 4, 0.7, &mut rng);
        let k = store.add_randn("k", 3, 4, 0.7, &mut rng);
        let v = store.add_randn("v", 3, 4, 0.7, &mut rng);
        // Token 2 hidden from token 0 and vice versa.
        let mut m = vec![0.0f32; 9];
        m[2] = MASK_NEG;
        m[6] = MASK_NEG;
        let mask: AttnMask = Arc::new(m);
        gradcheck(
            &mut store,
            move |tape| {
                let qn = tape.param(q);
                let kn = tape.param(k);
                let vn = tape.param(v);
                let qkv = pack_qkv(tape, qn, kn, vn);
                let att = tape.mha_batch_qkv(qkv, 2, &[Some(mask.clone())], None);
                tape.softmax_ce(att, &[0, 1, 2])
            },
            3e-2,
        );
    }

    #[test]
    fn fused_qkv_matches_three_linears_bitwise() {
        let mut rng = rng();
        let mut store = ParamStore::new();
        let wq = store.add_randn("wq", 6, 4, 0.5, &mut rng);
        let bq = store.add_randn("bq", 1, 4, 0.5, &mut rng);
        let wk = store.add_randn("wk", 6, 4, 0.5, &mut rng);
        let bk = store.add_randn("bk", 1, 4, 0.5, &mut rng);
        let wv = store.add_randn("wv", 6, 4, 0.5, &mut rng);
        let bv = store.add_randn("bv", 1, 4, 0.5, &mut rng);
        let x = Tensor::randn(5, 6, 1.0, &mut rng);
        let mut tape = Tape::inference(&store);
        let xn = tape.input(x.clone());
        let fused = tape.fused_qkv(xn, wq, bq, wk, bk, wv, bv);
        let q = tape.linear(xn, wq, bq);
        let k = tape.linear(xn, wk, bk);
        let v = tape.linear(xn, wv, bv);
        let fv = tape.value(fused);
        for (t, n) in [q, k, v].into_iter().enumerate() {
            let sv = tape.value(n);
            for r in 0..5 {
                for c in 0..4 {
                    assert_eq!(
                        fv.get(r, t * 4 + c).to_bits(),
                        sv.get(r, c).to_bits(),
                        "projection {t} ({r},{c})"
                    );
                }
            }
        }
    }

    #[test]
    fn fused_qkv_backward_matches_generic_ops_bitwise() {
        // One attention sub-layer with its residual, built twice over the
        // same weights: from the fused projection, and from three `linear`s
        // glued with `concat_cols`. Every parameter gradient and the input
        // gradient must agree bit for bit — in particular the order in
        // which the residual and the three projections' input-gradients
        // are summed into `x` (residual, then V, K, Q).
        let mut rng = rng();
        let mut store = ParamStore::new();
        let (d, heads) = (6usize, 2usize);
        let lens = vec![3usize, 4, 2];
        let rows: usize = lens.iter().sum();
        let x = store.add_randn("x", rows, d, 0.7, &mut rng);
        let mut dense = |name: &str, store: &mut ParamStore| {
            let w = store.add_randn(format!("w{name}"), d, d, 0.5, &mut rng);
            let b = store.add_randn(format!("b{name}"), 1, d, 0.3, &mut rng);
            (w, b)
        };
        let (wq, bq) = dense("q", &mut store);
        let (wk, bk) = dense("k", &mut store);
        let (wv, bv) = dense("v", &mut store);
        let (wo, bo) = dense("o", &mut store);
        let mut m = vec![0.0f32; 16];
        m[1] = MASK_NEG;
        m[4] = MASK_NEG;
        let masks: Vec<Option<AttnMask>> = vec![None, Some(Arc::new(m)), None];
        let targets: Vec<u32> = (0..rows as u32).map(|r| r % d as u32).collect();

        let run = |fused: bool| {
            let mut grads = Gradients::new(&store);
            let mut tape = Tape::inference(&store);
            let xn = tape.param(x);
            let qkv = if fused {
                tape.fused_qkv(xn, wq, bq, wk, bk, wv, bv)
            } else {
                let q = tape.linear(xn, wq, bq);
                let k = tape.linear(xn, wk, bk);
                let v = tape.linear(xn, wv, bv);
                let qk = tape.concat_cols(q, k);
                tape.concat_cols(qk, v)
            };
            let att = tape.mha_batch_qkv(qkv, heads, &masks, Some(&lens));
            let proj = tape.linear(att, wo, bo);
            let res = tape.add(xn, proj);
            let loss = tape.softmax_ce(res, &targets);
            tape.backward(loss, &mut grads);
            grads
        };
        let (f, g) = (run(true), run(false));
        for pid in 0..store.len() {
            let (a, b) = (f.get(pid).expect("fused grad"), g.get(pid).expect("generic grad"));
            for (i, (u, v)) in a.data().iter().zip(b.data()).enumerate() {
                assert_eq!(u.to_bits(), v.to_bits(), "{} [{i}]: {u} vs {v}", store.name(pid));
            }
        }
    }

    #[test]
    fn gradcheck_fused_qkv_attention() {
        let mut rng = rng();
        let mut store = ParamStore::new();
        let x = store.add_randn("x", 5, 6, 0.7, &mut rng);
        let wq = store.add_randn("wq", 6, 4, 0.5, &mut rng);
        let bq = store.add_randn("bq", 1, 4, 0.3, &mut rng);
        let wk = store.add_randn("wk", 6, 4, 0.5, &mut rng);
        let bk = store.add_randn("bk", 1, 4, 0.3, &mut rng);
        let wv = store.add_randn("wv", 6, 4, 0.5, &mut rng);
        let bv = store.add_randn("bv", 1, 4, 0.3, &mut rng);
        let mut m = vec![0.0f32; 4];
        m[1] = MASK_NEG;
        let masks: Vec<Option<AttnMask>> = vec![None, Some(Arc::new(m))];
        let lens = vec![3usize, 2];
        gradcheck(
            &mut store,
            move |tape| {
                let xn = tape.param(x);
                let qkv = tape.fused_qkv(xn, wq, bq, wk, bk, wv, bv);
                let att = tape.mha_batch_qkv(qkv, 2, &masks, Some(&lens));
                tape.softmax_ce(att, &[0, 1, 2, 3, 0])
            },
            3e-2,
        );
    }

    #[test]
    fn gradcheck_kept_attention() {
        // Two packed blocks (the second masked), the first keeping two of
        // its three query rows and the second its last: the loss reads the
        // kept rows only, and the kept node's backward must be the
        // derivative of exactly that.
        let mut rng = rng();
        let mut store = ParamStore::new();
        let x = store.add_randn("x", 5, 6, 0.7, &mut rng);
        let wq = store.add_randn("wq", 6, 4, 0.5, &mut rng);
        let bq = store.add_randn("bq", 1, 4, 0.3, &mut rng);
        let wk = store.add_randn("wk", 6, 4, 0.5, &mut rng);
        let bk = store.add_randn("bk", 1, 4, 0.3, &mut rng);
        let wv = store.add_randn("wv", 6, 4, 0.5, &mut rng);
        let bv = store.add_randn("bv", 1, 4, 0.3, &mut rng);
        let mut m = vec![0.0f32; 4];
        m[1] = MASK_NEG;
        let masks: Vec<Option<AttnMask>> = vec![None, Some(Arc::new(m))];
        let lens = vec![3usize, 2];
        gradcheck(
            &mut store,
            move |tape| {
                let xn = tape.param(x);
                let qkv = tape.fused_qkv(xn, wq, bq, wk, bk, wv, bv);
                let keep = vec![Some(vec![0, 2]), Some(vec![1])];
                let att = tape.mha_batch_qkv_kept(qkv, 2, &masks, Some(&lens), keep);
                tape.softmax_ce(att, &[0, 1, 2])
            },
            3e-2,
        );
    }

    #[test]
    #[should_panic(expected = "kept positions must ascend")]
    fn kept_attention_rejects_descending_positions() {
        let store = ParamStore::new();
        let mut tape = Tape::inference(&store);
        let x = tape.input(Tensor::zeros(4, 12));
        tape.mha_batch_qkv_kept(x, 2, &[None], None, vec![Some(vec![2, 1])]);
    }

    #[test]
    #[should_panic(expected = "equal blocks")]
    fn attention_without_lens_rejects_unequal_blocks() {
        let store = ParamStore::new();
        let mut tape = Tape::inference(&store);
        let x = tape.input(Tensor::zeros(5, 12));
        tape.mha_batch_qkv(x, 2, &[None, None], None);
    }

    #[test]
    fn packed_ragged_blocks_match_each_block_alone_bitwise() {
        // Three packed sequences of different lengths (3, 5, 2), the middle
        // one masked: each block's output rows and attention probabilities
        // must be exactly what that block produces as a batch of one.
        let mut rng = rng();
        let store = ParamStore::new();
        let (lens, d) = (vec![3usize, 5, 2], 4usize);
        let rows: usize = lens.iter().sum();
        let qkv = Tensor::randn(rows, 3 * d, 0.9, &mut rng);
        let mut m = vec![0.0f32; 25];
        m[1] = MASK_NEG;
        m[5] = MASK_NEG;
        let masks: Vec<Option<AttnMask>> = vec![None, Some(Arc::new(m)), None];

        let mut bt = Tape::inference(&store);
        let packed = bt.input(qkv.clone());
        let batched = bt.mha_batch_qkv(packed, 2, &masks, Some(&lens));
        let bv = bt.value(batched);

        let mut row0 = 0usize;
        for (b, (&len, mask)) in lens.iter().zip(masks.iter()).enumerate() {
            let block = qkv.data()[row0 * 3 * d..(row0 + len) * 3 * d].to_vec();
            let mut st = Tape::inference(&store);
            let alone = st.input(Tensor::from_vec(len, 3 * d, block));
            let single = st.mha_batch_qkv(alone, 2, std::slice::from_ref(mask), None);
            let sv = st.value(single);
            for i in 0..len * d {
                assert_eq!(
                    bv.data()[row0 * d + i].to_bits(),
                    sv.data()[i].to_bits(),
                    "ragged block {b} element {i}"
                );
            }
            let (bp, sp) = (bt.attn_probs(batched, b).unwrap(), st.attn_probs(single, 0).unwrap());
            assert_eq!(bp.1, sp.1);
            assert_eq!(bp.0.len(), 2 * len * len);
            assert!(bp.0.iter().zip(&sp.0).all(|(x, y)| x.to_bits() == y.to_bits()));
            row0 += len;
        }
    }

    #[test]
    fn kept_query_rows_match_full_attention_rows_bitwise() {
        // Attention asked for some query rows only must give those rows the
        // bits they have when every row is computed. Lens 3/5/2 stay on the
        // plain loops, 40/70/9 reach the packed kernel; the middle block is
        // masked; per block keep = first row / scattered rows / all rows.
        let mut rng = rng();
        let store = ParamStore::new();
        for (lens, d, heads) in [([3usize, 5, 2], 4usize, 2usize), ([40, 70, 9], 48, 2)] {
            let rows: usize = lens.iter().sum();
            let qkv = Tensor::randn(rows, 3 * d, 0.9, &mut rng);
            let mut m = vec![0.0f32; lens[1] * lens[1]];
            for i in (1..m.len()).step_by(4) {
                m[i] = MASK_NEG;
            }
            let masks = [None, Some(m.as_slice()), None];
            let mut tape = Tape::inference(&store);
            let packed = tape.input(qkv.clone());
            let arcs = masks.map(|m| m.map(|m| Arc::new(m.to_vec())));
            let full = tape.mha_batch_qkv(packed, heads, &arcs, Some(&lens));
            let full = tape.value(full);

            // Out of order on purpose: output rows follow `keep`'s order.
            let scattered = lens.map(|len| vec![len as u32 - 1, 0, len as u32 / 2]);
            let all: Vec<u32> = (0..lens[2] as u32).collect();
            let first = [0u32];
            for keeps in [
                [Some(&first[..]), Some(&scattered[1][..]), Some(&all[..])],
                [Some(&scattered[0][..]), None, Some(&first[..])],
                [None, Some(&first[..]), Some(&scattered[2][..])],
            ] {
                let blocks =
                    (0..3).map(|b| AttnBlock { len: lens[b], mask: masks[b], keep: keeps[b] });
                let want: Vec<u32> = (0..3)
                    .flat_map(|b| {
                        let row0: usize = lens[..b].iter().sum();
                        let keep = keeps[b].map_or((0..lens[b] as u32).collect(), <[u32]>::to_vec);
                        keep.into_iter().map(move |p| row0 + p as usize)
                    })
                    .flat_map(|r| full.row(r).iter().map(|v| v.to_bits()))
                    .collect();
                let mut out = vec![0.0f32; want.len()];
                attention_forward(qkv.data(), (rows, d, heads), blocks, &mut out, &mut Vec::new());
                let got: Vec<u32> = out.iter().map(|v| v.to_bits()).collect();
                assert_eq!(got, want, "lens {lens:?} keep {keeps:?}");
            }
        }
    }

    #[test]
    fn kept_attention_node_matches_full_node_then_select_bitwise() {
        // The tape's kept attention node against the reference built
        // explicitly — the full node, then a `row_select` of the kept rows —
        // forward values and the gradient reaching Q|K|V, under `to_bits`.
        // Ragged blocks, small (plain loops) and large (packed kernel), the
        // middle one masked; keeps ascending: first row / scattered / all /
        // none dropped.
        let mut rng = rng();
        for (lens, d, heads) in [([3usize, 5, 2], 4usize, 2usize), ([40, 70, 9], 48, 2)] {
            let rows: usize = lens.iter().sum();
            let mut store = ParamStore::new();
            let qkv = store.add_randn("qkv", rows, 3 * d, 0.9, &mut rng);
            let mut m = vec![0.0f32; lens[1] * lens[1]];
            for i in (1..m.len()).step_by(4) {
                m[i] = MASK_NEG;
            }
            let masks: Vec<Option<AttnMask>> = vec![None, Some(Arc::new(m)), None];
            let scattered = lens.map(|len| {
                let mut k = vec![0, len as u32 / 2, len as u32 - 1];
                k.dedup();
                k
            });
            let all: Vec<u32> = (0..lens[2] as u32).collect();
            for keep in [
                vec![Some(vec![0]), Some(scattered[1].clone()), Some(all.clone())],
                vec![Some(scattered[0].clone()), None, Some(vec![lens[2] as u32 - 1])],
                vec![None, Some(vec![0]), Some(scattered[2].clone())],
            ] {
                let kept_rows: Vec<u32> = (0..3)
                    .flat_map(|b| {
                        let row0: u32 = lens[..b].iter().sum::<usize>() as u32;
                        let k = keep[b].clone().unwrap_or_else(|| (0..lens[b] as u32).collect());
                        k.into_iter().map(move |p| row0 + p)
                    })
                    .collect();
                let targets: Vec<u32> = (0..kept_rows.len() as u32).map(|r| r % d as u32).collect();
                let run = |pruned: bool| {
                    let mut grads = Gradients::new(&store);
                    let mut tape = Tape::new(&store);
                    let x = tape.param(qkv);
                    let att = if pruned {
                        tape.mha_batch_qkv_kept(x, heads, &masks, Some(&lens), keep.clone())
                    } else {
                        let full = tape.mha_batch_qkv(x, heads, &masks, Some(&lens));
                        tape.row_select(full, &kept_rows)
                    };
                    let loss = tape.softmax_ce(att, &targets);
                    tape.backward(loss, &mut grads);
                    let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect();
                    let (out, dqkv): (Vec<u32>, Vec<u32>) =
                        (bits(tape.value(att)), bits(grads.get(qkv).expect("qkv gradient")));
                    (out, dqkv)
                };
                let (kept, full) = (run(true), run(false));
                assert_eq!(kept.0, full.0, "forward, lens {lens:?} keep {keep:?}");
                assert_eq!(kept.1, full.1, "dQ|dK|dV, lens {lens:?} keep {keep:?}");
            }
        }
    }

    #[test]
    fn dropout_of_kept_rows_is_full_width_dropout_then_select() {
        // `dropout_rows` over some rows of a wider activation: those rows
        // get the masks full-width dropout draws for them (so backward
        // multiplies by the same ones), and the stream ends where the
        // full-width draw ends.
        let store = ParamStore::new();
        let x = Tensor::randn(9, 5, 1.0, &mut rng());
        for rows in [vec![0u32, 4, 8], vec![2, 3, 7], vec![8]] {
            let picked: Vec<f32> =
                rows.iter().flat_map(|&r| x.row(r as usize).iter().copied()).collect();
            let picked = Tensor::from_vec(rows.len(), 5, picked);

            let mut full_rng = StdRng::seed_from_u64(21);
            let mut full = Tape::new(&store);
            let xn = full.input(x.clone());
            let dropped = full.dropout(xn, 0.4, &mut full_rng);
            let want = full.row_select(dropped, &rows);

            let mut kept_rng = StdRng::seed_from_u64(21);
            let mut kept = Tape::new(&store);
            let pn = kept.input(picked);
            let got = kept.dropout_rows(pn, 9, rows.iter().copied(), 0.4, &mut kept_rng);

            let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<u32>>();
            assert_eq!(bits(kept.value(got)), bits(full.value(want)), "rows {rows:?}");
            assert_eq!(kept_rng.gen::<u64>(), full_rng.gen::<u64>(), "rows {rows:?}: stream");
            let (Op::Dropout { mask: km, .. }, Op::Dropout { mask: fm, .. }) =
                (&kept.nodes[got].op, &full.nodes[dropped].op)
            else {
                panic!("dropout nodes");
            };
            let want_mask: Vec<f32> =
                rows.iter().flat_map(|&r| fm[r as usize * 5..][..5].iter().copied()).collect();
            assert_eq!(km, &want_mask, "rows {rows:?}: backward multiplies by these");
        }
    }

    #[test]
    #[should_panic(expected = "dropout rows must ascend")]
    fn dropout_rows_rejects_unordered_rows() {
        let store = ParamStore::new();
        let mut tape = Tape::new(&store);
        let x = tape.input(Tensor::zeros(2, 3));
        tape.dropout_rows(x, 5, [3u32, 1].into_iter(), 0.5, &mut rng());
    }

    #[test]
    fn embedding_backward_touches_only_its_rows_with_the_dense_bits() {
        // Repeated ids sum in row order from +0.0 and are then added into
        // the slot — across two backward passes into one `Gradients`, the
        // bits of scattering into a dense zero `[vocab, d]` matrix and
        // adding that.
        let mut rng = rng();
        let mut store = ParamStore::new();
        let emb = store.add_randn("emb", 7, 4, 0.7, &mut rng);
        let ids = [3u32, 1, 3, 6, 1, 3];
        let targets = [0u32, 1, 2, 3, 0, 1];
        let mut grads = Gradients::new(&store);
        let mut dense = Tensor::zeros(7, 4);
        for pass in 0..2 {
            let mut tape = Tape::inference(&store);
            let e = tape.embedding(emb, &ids);
            let loss = tape.softmax_ce(e, &targets);
            tape.backward(loss, &mut grads);
            // d loss / d e, scattered the old way.
            let Op::SoftmaxCe { probs, .. } = &tape.nodes[loss].op else { panic!("loss node") };
            let mut g = probs.clone();
            for (r, &t) in targets.iter().enumerate() {
                let v = g.get(r, t as usize) - 1.0;
                g.set(r, t as usize, v);
            }
            g.scale_assign(1.0 / ids.len() as f32);
            let mut dw = Tensor::zeros(7, 4);
            for (r, &id) in ids.iter().enumerate() {
                for (o, &gv) in dw.row_mut(id as usize).iter_mut().zip(g.row(r)) {
                    *o += gv;
                }
            }
            if pass == 0 {
                dense = dw;
            } else {
                dense.add_assign(&dw);
            }
        }
        let got = grads.get(emb).expect("embedding gradient");
        for (i, (a, b)) in got.data().iter().zip(dense.data()).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "element {i}: {a} vs {b}");
        }
        for untouched in [0usize, 2, 4, 5] {
            assert!(got.row(untouched).iter().all(|v| v.to_bits() == 0), "row {untouched}");
        }
    }

    #[test]
    fn gradcheck_embedding_select_concat_bce() {
        let mut rng = rng();
        let mut store = ParamStore::new();
        let emb = store.add_randn("emb", 5, 4, 0.7, &mut rng);
        let proj = store.add_randn("proj", 8, 2, 0.5, &mut rng);
        let pb = store.add_zeros("pb", 1, 2);
        let targets = Tensor::from_vec(2, 2, vec![1.0, 0.0, 0.0, 1.0]);
        gradcheck(
            &mut store,
            move |tape| {
                let e = tape.embedding(emb, &[0, 3, 2, 4]);
                let a = tape.row_select(e, &[0, 2]);
                let b = tape.row_select(e, &[1, 3]);
                let cat = tape.concat_cols(a, b);
                let h = tape.linear(cat, proj, pb);
                tape.bce_logits(h, &targets)
            },
            2e-2,
        );
    }

    #[test]
    fn gradcheck_relu() {
        let mut rng = rng();
        let mut store = ParamStore::new();
        let w = store.add_randn("w", 4, 5, 0.8, &mut rng);
        let b = store.add_randn("b", 1, 5, 0.3, &mut rng);
        let x = Tensor::randn(3, 4, 1.0, &mut rng);
        gradcheck(
            &mut store,
            move |tape| {
                let xn = tape.input(x.clone());
                let h = tape.linear(xn, w, b);
                let r = tape.relu(h);
                tape.softmax_ce(r, &[2, 0, 4])
            },
            2e-2,
        );
    }

    #[test]
    fn linear_matches_the_naive_loops_bitwise() {
        // One dense node against its oracle spelled out: the naive product
        // plus one bias pass forward; backward `G Wᵀ`, `Xᵀ G` and the bias's
        // in-order column sums. Shapes on both sides of the plain-loop /
        // packed-kernel cut-over — one-row inputs (Sherlock's MLP) among
        // them — and k past one `KC` block.
        let mut rng = rng();
        let shapes = [
            (1, 4, 3),
            (3, 8, 5),
            (5, 24, 17),
            (1, 96, 96),
            (2, 96, 384),
            (76, 96, 96),
            (19, 300, 40),
        ];
        for (rows, k, d) in shapes {
            let mut store = ParamStore::new();
            let x = store.add_randn("x", rows, k, 1.0, &mut rng);
            let w = store.add_randn("w", k, d, 0.3, &mut rng);
            let b = store.add_randn("b", 1, d, 0.3, &mut rng);
            let targets: Vec<u32> = (0..rows as u32).map(|r| r % d as u32).collect();
            let mut grads = Gradients::new(&store);
            let mut tape = Tape::new(&store);
            let xn = tape.param(x);
            let y = tape.linear(xn, w, b);
            let loss = tape.softmax_ce(y, &targets);
            tape.backward(loss, &mut grads);
            assert_eq!(tape.len(), 5, "x, w, b, one dense node, the loss");

            let (tx, tw) = (store.get(x), store.get(w));
            let mut want = matmul_naive_on(Tier::detect(), Layout::NN, tx, tw);
            for row in want.data_mut().chunks_exact_mut(d) {
                for (o, &bv) in row.iter_mut().zip(store.get(b).row(0)) {
                    *o += bv;
                }
            }
            // The gradient the loss hands the dense node.
            let Op::SoftmaxCe { probs, .. } = &tape.nodes[loss].op else { panic!("loss node") };
            let mut g = probs.clone();
            for (r, &t) in targets.iter().enumerate() {
                g.set(r, t as usize, g.get(r, t as usize) - 1.0);
            }
            g.scale_assign(1.0 / rows as f32);
            let mut db = Tensor::zeros(1, d);
            for r in 0..rows {
                for (o, &gv) in db.row_mut(0).iter_mut().zip(g.row(r)) {
                    *o += gv;
                }
            }
            let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<u32>>();
            let grad = |p| bits(grads.get(p).expect("gradient"));
            let shape = format!("{rows}x{k}x{d}");
            assert_eq!(bits(tape.value(y)), bits(&want), "{shape}: value");
            assert_eq!(grad(x), bits(&matmul_nt_naive(&g, tw)), "{shape}: dx");
            assert_eq!(grad(w), bits(&matmul_tn_naive(tx, &g)), "{shape}: dW");
            assert_eq!(grad(b), bits(&db), "{shape}: db");
        }
    }

    #[test]
    fn gradcheck_weighted_bce() {
        let mut rng = rng();
        let mut store = ParamStore::new();
        let w = store.add_randn("w", 3, 4, 0.7, &mut rng);
        let targets = Tensor::from_vec(3, 4, vec![1., 0., 0., 0., 0., 1., 0., 1., 0., 0., 0., 0.]);
        gradcheck(
            &mut store,
            move |tape| {
                let z = tape.param(w);
                tape.bce_logits_weighted(z, &targets, 7.5)
            },
            2e-2,
        );
    }

    #[test]
    fn weighted_bce_reduces_to_plain_at_one() {
        let store = ParamStore::new();
        let mut tape = Tape::inference(&store);
        let z1 = tape.input(Tensor::from_vec(1, 3, vec![0.3, -1.2, 2.0]));
        let t = Tensor::from_vec(1, 3, vec![1.0, 0.0, 1.0]);
        let a = tape.bce_logits(z1, &t);
        let b = tape.bce_logits_weighted(z1, &t, 1.0);
        assert!((tape.value(a).scalar_value() - tape.value(b).scalar_value()).abs() < 1e-6);
    }

    #[test]
    fn dropout_inference_is_identity() {
        let store = ParamStore::new();
        let mut tape = Tape::inference(&store);
        let x = tape.input(Tensor::row_vector(vec![1.0, 2.0, 3.0]));
        let mut rng = rng();
        let y = tape.dropout(x, 0.5, &mut rng);
        assert_eq!(x, y, "dropout must be a no-op on inference tapes");
    }

    #[test]
    fn dropout_training_preserves_expectation() {
        let store = ParamStore::new();
        let mut tape = Tape::new(&store);
        let n = 20_000;
        let x = tape.input(Tensor::full(1, n, 1.0));
        let mut rng = rng();
        let y = tape.dropout(x, 0.3, &mut rng);
        let mean = tape.value(y).sum() / n as f32;
        assert!((mean - 1.0).abs() < 0.05, "dropout mean {mean}");
    }

    #[test]
    fn masked_attention_blocks_information_flow() {
        let mut rng = rng();
        let store = ParamStore::new();
        let s = 3;
        // Row 0 can only see itself.
        let mut m = vec![0.0f32; s * s];
        m[1] = MASK_NEG;
        m[2] = MASK_NEG;
        let mask: AttnMask = Arc::new(m);
        let q = Tensor::randn(s, 4, 1.0, &mut rng);
        let k = Tensor::randn(s, 4, 1.0, &mut rng);
        let v = Tensor::randn(s, 4, 1.0, &mut rng);
        let mut tape = Tape::inference(&store);
        let (qn, kn, vn) = (tape.input(q), tape.input(k), tape.input(v.clone()));
        let qkv = pack_qkv(&mut tape, qn, kn, vn);
        let out = tape.mha_batch_qkv(qkv, 2, &[Some(mask)], None);
        // With only itself visible, row 0 output is exactly v[0].
        for c in 0..4 {
            assert!((tape.value(out).get(0, c) - v.get(0, c)).abs() < 1e-5);
        }
        let (probs, heads) = tape.attn_probs(out, 0).unwrap();
        assert_eq!(heads, 2);
        assert!(tape.attn_probs(qkv, 0).is_none(), "only attention nodes have probabilities");
        assert!((probs[0] - 1.0).abs() < 1e-5, "masked row must put all mass on itself");
    }

    #[test]
    fn bce_matches_manual_computation() {
        let store = ParamStore::new();
        let mut tape = Tape::inference(&store);
        let z = tape.input(Tensor::from_vec(1, 2, vec![0.0, 2.0]));
        let t = Tensor::from_vec(1, 2, vec![1.0, 0.0]);
        let loss = tape.bce_logits(z, &t);
        // -ln(0.5) and -ln(1 - sigmoid(2)).
        let expect = (0.5f32.ln().abs() + (1.0 - 1.0 / (1.0 + (-2.0f32).exp())).ln().abs()) / 2.0;
        assert!((tape.value(loss).scalar_value() - expect).abs() < 1e-5);
    }

    #[test]
    fn gradient_accumulation_equals_sum_of_backwards() {
        let mut rng = rng();
        let mut store = ParamStore::new();
        let w = store.add_randn("w", 3, 2, 0.5, &mut rng);
        let b = store.add_zeros("b", 1, 2);
        let x1 = Tensor::randn(2, 3, 1.0, &mut rng);
        let x2 = Tensor::randn(2, 3, 1.0, &mut rng);

        let run = |store: &ParamStore, x: &Tensor, grads: &mut Gradients| {
            let mut tape = Tape::inference(store);
            let xn = tape.input(x.clone());
            let h = tape.linear(xn, w, b);
            let l = tape.softmax_ce(h, &[0, 1]);
            tape.backward(l, grads);
        };

        let mut both = Gradients::new(&store);
        run(&store, &x1, &mut both);
        run(&store, &x2, &mut both);

        let mut g1 = Gradients::new(&store);
        run(&store, &x1, &mut g1);
        let mut g2 = Gradients::new(&store);
        run(&store, &x2, &mut g2);
        g1.merge(g2);

        for pid in [w, b] {
            let a = both.get(pid).unwrap();
            let s = g1.get(pid).unwrap();
            for i in 0..a.len() {
                assert!((a.data()[i] - s.data()[i]).abs() < 1e-6);
            }
        }
    }
}
