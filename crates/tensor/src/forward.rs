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
//! Which vector tier the GEMMs and the transcendentals run on is the
//! kernel layer's business ([`crate::kernels::Tier`], read off the CPU);
//! nothing here names one. The one loop of this module that was bound by
//! latency rather than by width — LayerNorm's two sequential row
//! reductions — runs four rows' chains side by side ([`layer_norm_rows`]),
//! each row's adds in their original order.
//!
//! Attention is written once too, over *which query rows a block computes*
//! ([`AttnBlock::keep`]): every row is the case `None`, and a caller that
//! will read only some rows of the result — the top encoder block, serving
//! or training, reads the `[CLS]` rows (the masked positions under MLM) —
//! names them and gets those rows alone, with the bits the full computation
//! gives them. Keys and values always span the
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

/// Rows whose mean and variance chains [`layer_norm_rows`] runs side by
/// side. A row's sum is one sequential chain of `cols` dependent adds — the
/// adder's latency, not its throughput, sets the pace — so independent rows
/// fill the slots one chain leaves idle (166×96: 24.8 → 13.6 µs). Eight
/// chains spill registers and lose the gain (28.4 µs).
const LN_ROWS: usize = 4;

/// Normalises one row with its statistics: `(x − mean) · rstd · γ + β`.
#[inline(always)]
fn layer_norm_apply(row: &[f32], mean: f32, rstd: f32, gamma: &[f32], beta: &[f32], o: &mut [f32]) {
    for c in 0..row.len() {
        let xhat = (row[c] - mean) * rstd;
        o[c] = xhat * gamma[c] + beta[c];
    }
}

/// Row-wise LayerNorm of the `[_, cols]` matrix `x` into `out`, reporting
/// each row's `(mean, 1/std)` to `stats`, row by row in row order (the tape
/// keeps them for the backward pass; the executor drops them). Rows go
/// [`LN_ROWS`] at a time with their reductions interleaved; every row's adds
/// keep their left-to-right order from the `-0.0` that `Iterator::sum`
/// starts from, so a row has the bits of the one-row loop the remainder
/// rows take, wherever it falls.
pub(crate) fn layer_norm_rows(
    x: &[f32],
    cols: usize,
    gamma: &[f32],
    beta: &[f32],
    out: &mut [f32],
    mut stats: impl FnMut(f32, f32),
) {
    const EPS: f32 = 1e-5;
    let n = cols as f32;
    let mut groups = x.chunks_exact(LN_ROWS * cols);
    let mut out_groups = out.chunks_exact_mut(LN_ROWS * cols);
    for (g, og) in groups.by_ref().zip(out_groups.by_ref()) {
        let rows: [&[f32]; LN_ROWS] = std::array::from_fn(|r| &g[r * cols..(r + 1) * cols]);
        let mut sum = [-0.0f32; LN_ROWS];
        for c in 0..cols {
            for r in 0..LN_ROWS {
                sum[r] += rows[r][c];
            }
        }
        let mean = sum.map(|s| s / n);
        let mut sq = [-0.0f32; LN_ROWS];
        for c in 0..cols {
            for r in 0..LN_ROWS {
                let d = rows[r][c] - mean[r];
                sq[r] += d * d;
            }
        }
        for (r, orow) in og.chunks_exact_mut(cols).enumerate() {
            let rstd = 1.0 / (sq[r] / n + EPS).sqrt();
            stats(mean[r], rstd);
            layer_norm_apply(rows[r], mean[r], rstd, gamma, beta, orow);
        }
    }
    let rest = groups.remainder().chunks_exact(cols);
    for (row, orow) in rest.zip(out_groups.into_remainder().chunks_exact_mut(cols)) {
        let mean = row.iter().sum::<f32>() / n;
        let var = row.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / n;
        let rstd = 1.0 / (var + EPS).sqrt();
        stats(mean, rstd);
        layer_norm_apply(row, mean, rstd, gamma, beta, orow);
    }
}

/// One dense layer into a column segment of a wider output:
/// `out[.., col0..col0 + n] = x W + b` — per element `sum_k x·w` and only
/// then the bias, added by the kernel as it stores the last k-block, so a
/// layer computed into a segment (the fused Q|K|V projection) or on its own
/// has the bits of a matmul followed by a bias add. `out` has `rows` rows of
/// stride `ldc`; the segment is written whatever it held, and nothing around
/// it is touched. `panel` offers `w` packed once (the executor, whose
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
    gemm_nn_dense(out, ldc, col0, (rows, n, k), x, View::of(w), Some(b.row(0)), panel);
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

/// Copies the Q segment of each kept row of the block `(row0, len)` of a
/// packed `[rows, 3d]` buffer into the next row of `q_kept` (`[_, d]`), so a
/// head loop reads a pruned block's queries from consecutive rows like the
/// full case does — the forward here, and the tape's backward recompute.
pub(crate) fn gather_queries(
    qkv: &[f32],
    d: usize,
    (row0, len): (usize, usize),
    keep: &[u32],
    q_kept: &mut [f32],
) {
    for (q_row, &pos) in q_kept.chunks_exact_mut(d).zip(keep) {
        assert!((pos as usize) < len, "kept position {pos} out of range {len}");
        q_row.copy_from_slice(&qkv[(row0 + pos as usize) * 3 * d..][..d]);
    }
}

/// Multi-head self-attention `softmax(Q Kᵀ · scale + mask) V` per head,
/// heads concatenated, over a packed `[rows, 3d]` Q|K|V buffer into `out`,
/// every element written whatever it held: `[rows, d]`, or fewer rows where
/// a block names the query positions it wants ([`AttnBlock::keep`]) — those
/// rows only, block after block, with the bits they have when every row is
/// computed. Tokens attend only within their block, and a block's
/// arithmetic does not depend on what else is packed. `scratch` holds the
/// probabilities (and a pruned block's gathered query rows), grown to the
/// largest block's need.
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
            gather_queries(qkv, d, (row0, b.len), keep, q_kept);
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

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn interleaved_layer_norm_rows_have_the_one_row_loop_bits() {
        // A row alone takes the one-row remainder loop; inside a longer
        // matrix it rides in a group of `LN_ROWS` (or in the remainder after
        // the groups). Same output bits and the same `(mean, rstd)`, reported
        // in row order, either way — including the all-`-0.0` row, which
        // tells a `-0.0` start of the sum from a `+0.0` one.
        let mut rng = StdRng::seed_from_u64(18);
        for cols in [1usize, 7, 96] {
            let gamma = Tensor::randn(1, cols, 1.0, &mut rng);
            let beta = Tensor::randn(1, cols, 1.0, &mut rng);
            for rows in 1..=9usize {
                let mut x = Tensor::randn(rows, cols, 2.0, &mut rng);
                x.row_mut(rows / 2).fill(-0.0);
                let run = |x: &[f32]| {
                    let (mut out, mut stats) = (vec![f32::NAN; x.len()], Vec::new());
                    layer_norm_rows(x, cols, gamma.data(), beta.data(), &mut out, |m, r| {
                        stats.push((m.to_bits(), r.to_bits()))
                    });
                    (out.iter().map(|v| v.to_bits()).collect::<Vec<u32>>(), stats)
                };
                let (got, got_stats) = run(x.data());
                for r in 0..rows {
                    let (want, want_stats) = run(x.row(r));
                    assert_eq!(got[r * cols..(r + 1) * cols], want[..], "{rows}x{cols} row {r}");
                    assert_eq!(got_stats[r], want_stats[0], "{rows}x{cols} row {r} stats");
                }
                assert_eq!(got_stats.len(), rows);
            }
        }
    }
}
