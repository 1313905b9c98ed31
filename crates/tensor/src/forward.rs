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

/// Computes one head's post-softmax probability matrix into
/// `p[..len * len]`: `S = Q Kᵀ` through the blocked GEMM layer, then the
/// row softmax of `s * scale + mask` in [`vmath`]'s three reads per row.
/// The single kernel behind the attention forward of both backends, the
/// backward's recompute and `Tape::attn_probs`, so all of them agree bit
/// for bit by construction.
pub(crate) fn attn_probs_block(
    p: &mut [f32],
    q: View<'_>,
    k: View<'_>,
    len: usize,
    dh: usize,
    scale: f32,
    mask: Option<&[f32]>,
) {
    p[..len * len].fill(0.0);
    gemm_nt(p, len, 0, (len, len, dh), q, k);
    vmath::softmax_rows_scaled(&mut p[..len * len], len, scale, mask);
}

/// One head's Q, K and V `[len, dh]` windows of a packed `[rows, 3d]`
/// buffer: rows from `row0`, columns `off..off + dh` past the bases `0`,
/// `d` and `2d` — the [`View`]s make the slicing free.
pub(crate) fn head_views(qkv: &[f32], d: usize, row0: usize, off: usize) -> [View<'_>; 3] {
    [0, d, 2 * d].map(|base| View::at(qkv, 3 * d, row0, base + off))
}

/// Multi-head self-attention `softmax(Q Kᵀ · scale + mask) V` per head,
/// heads concatenated, over a packed `[rows, 3d]` Q|K|V buffer into the
/// zeroed `[rows, d]` `out`. `blocks` yields each packed sequence's length
/// and optional additive `[len, len]` mask; tokens attend only within their
/// block, and a block's arithmetic does not depend on what else is packed.
/// `p_buf` is the probability scratch, grown to the longest block's square.
pub(crate) fn attention_forward<'m>(
    qkv: &[f32],
    (rows, d, heads): (usize, usize, usize),
    blocks: impl Iterator<Item = (usize, Option<&'m [f32]>)> + Clone,
    out: &mut [f32],
    p_buf: &mut Vec<f32>,
) {
    assert!(d % heads == 0, "hidden dim {d} not divisible by {heads} heads");
    let (mut total, mut max_len) = (0usize, 0usize);
    for (len, mask) in blocks.clone() {
        assert!(len >= 1, "blocks cannot be empty");
        assert!(mask.is_none_or(|m| m.len() == len * len), "per-sequence mask must be [len, len]");
        total += len;
        max_len = max_len.max(len);
    }
    assert_eq!(total, rows, "block lengths must sum to the rows");
    grow(p_buf, max_len * max_len);

    let dh = d / heads;
    let scale = 1.0 / (dh as f32).sqrt();
    let mut row0 = 0usize;
    for (len, mask) in blocks {
        for h in 0..heads {
            let [q, k, v] = head_views(qkv, d, row0, h * dh);
            attn_probs_block(p_buf, q, k, len, dh, scale, mask);
            let p = View::at(p_buf, len, 0, 0);
            gemm_nn(&mut out[row0 * d..], d, h * dh, (len, dh, len), p, v);
        }
        row0 += len;
    }
}
