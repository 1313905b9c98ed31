//! The forward arithmetic both backends call.
//!
//! [`crate::Tape`] (recording, differentiable) and [`crate::Executor`]
//! (tape-free, serving) differ in where an op's output lives and in what is
//! remembered about it — never in how it is computed. Every op either of
//! them offers bottoms out in a function of this module, of
//! [`crate::kernels`] or of [`crate::vmath`], over plain slices, so the two
//! produce the same bits by construction and no arithmetic exists twice.
//! The one thing a backend chooses is where a dense layer's B panels come
//! from ([`dense_segment`]'s `panel`): the executor offers its store's
//! packed-once panel, the tape nothing — one kernel either way.
//!
//! Attention is written once too, over *which query rows a block computes*
//! ([`AttnBlock::keep`]): every row is the case `None`, and a caller that
//! will read only some rows of the result — serving's top encoder block
//! reads the `[CLS]` rows — names them and gets those rows alone, with the
//! bits the full computation gives them. Keys and values always span the
//! block; each score is one accumulator over increasing k and softmax and
//! `P·V` are row-wise, so a row cannot tell whether its neighbours exist.
#![allow(clippy::needless_range_loop)] // index loops over matrix coordinates are clearest here

use crate::kernels::{gemm_nn, gemm_nn_dense, gemm_nt, PackedB, View};
use crate::tensor::Tensor;
use crate::vmath;

/// Grows `v` to at least `len` elements and never shrinks it: the one
/// sizing rule of every reusable scratch buffer.
pub(crate) fn grow<T: Default + Clone>(v: &mut Vec<T>, len: usize) {
    if v.len() < len {
        v.resize(len, T::default());
    }
}

/// Copies row `i` of the row-major `[_, cols]` matrix `src` into the next
/// row of `out`, for each `i` of `idxs` — the embedding lookup and the
/// `[CLS]` row selection. `idxs` must yield exactly `out.len() / cols`
/// in-range indices; `what` names the op in the panic otherwise.
pub(crate) fn gather_rows(
    src: &[f32],
    cols: usize,
    idxs: impl Iterator<Item = u32>,
    out: &mut [f32],
    what: &str,
) {
    let rows = src.len() / cols;
    let mut out_rows = out.chunks_exact_mut(cols);
    for i in idxs {
        let i = i as usize;
        assert!(i < rows, "{what} index {i} out of range {rows}");
        let o = out_rows.next().unwrap_or_else(|| panic!("{what}: more indices than output rows"));
        o.copy_from_slice(&src[i * cols..(i + 1) * cols]);
    }
    assert!(out_rows.next().is_none(), "{what}: fewer indices than output rows");
}

/// `out = [a | b]` row by row: `a` is `[n, da]`, `b` is `[n, db]`.
pub(crate) fn concat_rows(a: &[f32], da: usize, b: &[f32], db: usize, out: &mut [f32]) {
    for ((o, ra), rb) in
        out.chunks_exact_mut(da + db).zip(a.chunks_exact(da)).zip(b.chunks_exact(db))
    {
        o[..da].copy_from_slice(ra);
        o[da..].copy_from_slice(rb);
    }
}

/// Adds `bias` to columns `col0..col0 + bias.len()` of every row of the
/// row-major `data` (row stride `stride`).
pub(crate) fn add_bias_rows(data: &mut [f32], stride: usize, col0: usize, bias: &[f32]) {
    for row in data.chunks_exact_mut(stride) {
        for (o, &b) in row[col0..col0 + bias.len()].iter_mut().zip(bias) {
            *o += b;
        }
    }
}

/// Row-wise LayerNorm of the `[_, cols]` matrix `x` into `out`, reporting
/// each row's `(mean, 1/std)` to `stats` (the tape keeps them for the
/// backward pass; the executor drops them).
pub(crate) fn layer_norm_rows(
    x: &[f32],
    cols: usize,
    gamma: &[f32],
    beta: &[f32],
    out: &mut [f32],
    mut stats: impl FnMut(f32, f32),
) {
    const EPS: f32 = 1e-5;
    for (row, orow) in x.chunks_exact(cols).zip(out.chunks_exact_mut(cols)) {
        let mean = row.iter().sum::<f32>() / cols as f32;
        let var = row.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / cols as f32;
        let rstd = 1.0 / (var + EPS).sqrt();
        stats(mean, rstd);
        for c in 0..cols {
            let xhat = (row[c] - mean) * rstd;
            orow[c] = xhat * gamma[c] + beta[c];
        }
    }
}

/// One dense layer into a column segment of a wider output:
/// `out[.., col0..col0 + n] += x W`, then `+ b` — per element `sum_k x·w`
/// and only then the bias, so a layer computed into a segment (the fused
/// Q|K|V projection) or on its own has the bits of a matmul followed by a
/// bias add. `out` has `rows` rows of stride `ldc`; the segment must hold
/// zeros on entry. `panel` offers `w` packed once (the executor, whose
/// weights are a store's and constant for its lifetime); `None` packs it
/// per call (a tape, whose weights move every step) — same kernel, same
/// bits either way.
#[allow(clippy::too_many_arguments)] // a matrix segment, three operands and where B comes from
pub(crate) fn dense_segment<'p>(
    out: &mut [f32],
    ldc: usize,
    col0: usize,
    rows: usize,
    x: View<'_>,
    w: &Tensor,
    b: &Tensor,
    panel: Option<&dyn Fn() -> &'p PackedB>,
) {
    let (k, n) = w.shape();
    assert_eq!(b.shape(), (1, n), "dense bias shape");
    gemm_nn_dense(out, ldc, col0, (rows, n, k), x, View::of(w), panel);
    add_bias_rows(out, ldc, col0, b.row(0));
}

/// One packed sequence as attention sees it.
#[derive(Clone, Copy)]
pub struct AttnBlock<'m> {
    /// Tokens in the sequence: its rows of the packed Q|K|V buffer.
    pub len: usize,
    /// Optional additive `[len, len]` visibility mask.
    pub mask: Option<&'m [f32]>,
    /// The query positions whose output rows are computed, in output order;
    /// `None` is every row. Keys and values always span the whole block.
    pub keep: Option<&'m [u32]>,
}

impl AttnBlock<'_> {
    /// Output rows this block produces.
    pub fn queries(&self) -> usize {
        self.keep.map_or(self.len, <[u32]>::len)
    }
}

/// Computes one head's post-softmax probabilities into `p[..m * len]`, one
/// row per query: `S = Q Kᵀ` through the blocked GEMM layer, then the row
/// softmax of `s * scale + mask` in [`vmath`]'s three reads per row. `q`
/// holds the `m` query rows — all `len` of the block when `keep` is `None`,
/// else the rows at positions `keep`, whose mask rows they take. A row's
/// bits depend on its own query and the block's keys only (one accumulator
/// per score, k increasing; softmax is row-wise), never on which other
/// rows were asked for. The single kernel behind the attention forward of
/// both backends, the backward's recompute and `Tape::attn_probs`, so all
/// of them agree bit for bit by construction.
#[allow(clippy::too_many_arguments)] // two operands, their shape, and the block's mask and kept rows
pub(crate) fn attn_probs_block(
    p: &mut [f32],
    q: View<'_>,
    k: View<'_>,
    len: usize,
    dh: usize,
    scale: f32,
    mask: Option<&[f32]>,
    keep: Option<&[u32]>,
) {
    let m = keep.map_or(len, <[u32]>::len);
    let p = &mut p[..m * len];
    p.fill(0.0);
    gemm_nt(p, len, 0, (m, len, dh), q, k);
    match keep {
        None => vmath::softmax_rows_scaled(p, len, scale, mask),
        Some(keep) => {
            for (row, &pos) in p.chunks_exact_mut(len).zip(keep) {
                let mask_row = mask.map(|m| &m[pos as usize * len..][..len]);
                vmath::softmax_rows_scaled(row, len, scale, mask_row);
            }
        }
    }
}

/// One head's Q, K and V `[len, dh]` windows of a packed `[rows, 3d]`
/// buffer: rows from `row0`, columns `off..off + dh` past the bases `0`,
/// `d` and `2d` — the [`View`]s make the slicing free.
pub(crate) fn head_views(qkv: &[f32], d: usize, row0: usize, off: usize) -> [View<'_>; 3] {
    [0, d, 2 * d].map(|base| View::at(qkv, 3 * d, row0, base + off))
}

/// Multi-head self-attention `softmax(Q Kᵀ · scale + mask) V` per head,
/// heads concatenated, over a packed `[rows, 3d]` Q|K|V buffer into the
/// zeroed `out`: `[rows, d]`, or fewer rows where a block names the query
/// positions it wants ([`AttnBlock::keep`]) — those rows only, block after
/// block, with the bits they have when every row is computed. Tokens
/// attend only within their block, and a block's arithmetic does not depend
/// on what else is packed. `scratch` holds the probabilities (and a
/// pruned block's gathered query rows), grown to the largest block's need.
pub(crate) fn attention_forward<'m>(
    qkv: &[f32],
    (rows, d, heads): (usize, usize, usize),
    blocks: impl Iterator<Item = AttnBlock<'m>> + Clone,
    out: &mut [f32],
    scratch: &mut Vec<f32>,
) {
    assert!(d % heads == 0, "hidden dim {d} not divisible by {heads} heads");
    let (mut total, mut out_rows, mut need) = (0usize, 0usize, 0usize);
    for b in blocks.clone() {
        assert!(b.len >= 1, "blocks cannot be empty");
        assert!(
            b.mask.is_none_or(|m| m.len() == b.len * b.len),
            "per-sequence mask must be [len, len]"
        );
        let m = b.queries();
        total += b.len;
        out_rows += m;
        need = need.max(m * b.len + b.keep.map_or(0, |_| m * d));
    }
    assert_eq!(total, rows, "block lengths must sum to the rows");
    assert_eq!(out.len(), out_rows * d, "attention output must be [queries, d]");
    grow(scratch, need);

    let dh = d / heads;
    let scale = 1.0 / (dh as f32).sqrt();
    let (mut row0, mut out0) = (0usize, 0usize);
    for b in blocks {
        let m = b.queries();
        let (p_buf, q_kept) = scratch.split_at_mut(m * b.len);
        if let Some(keep) = b.keep {
            // The Q segment of each kept row, so the head loop reads its
            // queries from consecutive rows like the full case does.
            for (q_row, &pos) in q_kept.chunks_exact_mut(d).zip(keep) {
                assert!((pos as usize) < b.len, "kept position {pos} out of range {}", b.len);
                q_row.copy_from_slice(&qkv[(row0 + pos as usize) * 3 * d..][..d]);
            }
        }
        for h in 0..heads {
            let [q, k, v] = head_views(qkv, d, row0, h * dh);
            let q = if b.keep.is_some() { View::at(q_kept, d, 0, h * dh) } else { q };
            attn_probs_block(p_buf, q, k, b.len, dh, scale, b.mask, b.keep);
            let p = View::at(p_buf, b.len, 0, 0);
            gemm_nn(&mut out[out0 * d..], d, h * dh, (m, dh, b.len), p, v);
        }
        row0 += b.len;
        out0 += m;
    }
}
