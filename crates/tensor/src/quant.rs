//! Opt-in int8 quantized linear kernels — the serving fast path.
//!
//! ## Scheme
//!
//! Weights are quantized **per output channel** (one symmetric scale per
//! output column: `scale_j = max_i |w[i][j]| / 127`, `q =
//! round_ties_even(w / scale_j)` clamped to `[-127, 127]`); activations
//! are quantized **per row** with a dynamic scale computed at forward time
//! (`scale_r = max_c |x[r][c]| / 127`). The inner product runs entirely in
//! integers — packed `i8 × i8` products accumulated into `i32` — and is
//! dequantized in one f32 multiply-add per output element:
//!
//! ```text
//! y[r][j] = (acc as f32) * (a_scale_r * w_scale_j) + bias[j]
//! ```
//!
//! ## Two-tier numerics policy
//!
//! The f32 GEMMs in [`crate::kernels`] are the **bit-identical reference**:
//! every f32 execution strategy (naive, blocked, borrowed panels) produces
//! the same bits. The quantized path is *not* bit-equal to f32 — it is
//! **accuracy-gated** instead (the repro harness re-runs the paper's
//! qualitative checks and pins micro-F1 drift under quantization). What
//! *is* exact here: integer accumulation is associative, so every SIMD
//! kernel, every tile shape and the scalar fallback produce
//! **bit-identical quantized outputs** — the same invariance contract the
//! f32 layer has, one tier down. (Inputs are assumed finite; rows
//! containing NaN are a degenerate case with unspecified codes, exactly as
//! they are garbage under the f32 path.)
//!
//! ## Kernels
//!
//! Three tiers, named by the same [`Tier`] the f32 stack dispatches on and
//! read off the CPU in the same once-per-process look
//! ([`Tier::detect_int8`]); fastest available wins. Both vector tiers are
//! register tiles over several activation rows, so each weight load feeds
//! every row of the tile:
//!
//! * **AVX-512 VNNI** — quantized columns packed into panels of 16 with
//!   `k`-quads interleaved across lanes, the operand order `vpdpbusd`
//!   consumes: one instruction multiplies four `u8 × i8` lanes per output
//!   column and accumulates straight into that column's i32 lane. The tile
//!   is up to `MV` = 6 rows × two panels, twelve zmm accumulators: each
//!   k-quad loads the two panels once and gives every row its own
//!   `vpdpbusd` per panel from a broadcast of that row's quad, so no chain
//!   waits on another. `vpdpbusd` wants unsigned activations, so activation
//!   codes are biased by +128 into `u8` and each accumulator starts at
//!   `-128 · Σ_i w[i][j]` (precomputed at pack time) — an exact integer
//!   identity, so the result equals the signed dot product bit for bit.
//! * **AVX2** — panels of [`NR`] columns with `k`-pairs interleaved, the
//!   layout `vpmaddwd` consumes directly. The tile is up to `MA` = 4 rows
//!   × two panels, eight ymm accumulators: each k-pair's weights are
//!   sign-extended from i8 once per panel (`vpmovsxbw` — the
//!   exact-arithmetic variant of the classic saturating `maddubs` idiom)
//!   and multiply-added against every row's broadcast activation pair. No
//!   horizontal reductions.
//! * **Scalar** — a portable loop over the packed layout, one row at a
//!   time; both the fallback and the reference oracle for the property
//!   tests.
//!
//! Activations are quantized in one pass per row, straight into the codes
//! the tier's kernel reads: biased `u8` for VNNI (16 lanes: abs-max, then
//! round / clamp / +128 / narrow, [`quantize_row_u8`]), i16 for AVX2 and
//! scalar. Integer accumulation is exact, so neither the tile nor the tier
//! moves a bit. Like the f32 kernels, a layer runs on the thread that calls
//! it; the engine spreads micro-batches across cores above it.

use crate::forward::grow;
use crate::kernels::Tier;
use crate::tensor::Tensor;

/// Packed columns per AVX2 weight panel — one i32 accumulator lane per
/// column.
pub const NR: usize = 8;

/// Packed columns per AVX-512 VNNI weight panel (16 i32 lanes per zmm).
const NV: usize = 16;

/// Activation rows per VNNI tile: two panels each, 12 of the 32 zmm
/// registers as accumulators.
const MV: usize = 6;

/// Activation rows per AVX2 tile: two panels each, 8 ymm accumulators
/// beside the two sign-extended weight panels and a broadcast, of 16.
const MA: usize = 4;

/// `k`-padding quantum: packed weight columns and quantized activation
/// rows are zero-padded to a multiple of this many lanes so the SIMD inner
/// loops have no remainder pass. Zero lanes contribute exactly 0 to the
/// integer accumulator, so padding never changes the output.
pub const QK: usize = 32;

/// One code: `v` at `inv = 127 / amax`, rounded to nearest, ties to even,
/// and clamped to the symmetric `[-127, 127]`. A NaN product — only
/// `±0 · ∞` makes one, when `amax` is so small that `127 / amax` overflows
/// — codes 0. Written so that a loop of it vectorizes: the NaN is selected
/// to 0 before the clamp, and the integral result is read from the
/// mantissa of `c + 1.5·2²³` (exact for `|c| ≤ 2²²`), where a saturating
/// `as` cast would compile lane by lane. Its values are those of
/// `round_ties_even(v · inv).clamp(-127, 127) as i32` for every input (a
/// unit test holds the two over the edge cases).
#[inline(always)]
fn code(v: f32, inv: f32) -> i32 {
    const MAGIC: f32 = 12_582_912.0; // 1.5·2²³: one ulp is 1
    let t = (v * inv).round_ties_even();
    let c = if t.is_nan() { 0.0 } else { t.clamp(-127.0, 127.0) };
    (c + MAGIC).to_bits() as i32 - MAGIC.to_bits() as i32
}

/// `127 / amax` for a row whose largest magnitude is `amax`; `None` when the
/// row quantizes to scale 0 and all-zero codes (all zero, empty, or not
/// finite).
fn inverse(amax: f32) -> Option<f32> {
    (amax != 0.0 && amax.is_finite()).then(|| 127.0 / amax)
}

/// The scalar quantizer every vectorized one matches bit for bit: writes
/// `store` of each of `row`'s codes into `out` (`store(0)` past the row) and
/// returns the row's scale.
fn quantize_scalar<T>(row: &[f32], out: &mut [T], store: impl Fn(i32) -> T) -> f32 {
    assert!(out.len() >= row.len(), "quantize output buffer too small");
    let amax = row.iter().fold(0f32, |amax, &v| amax.max(v.abs()));
    let Some(inv) = inverse(amax) else {
        out.iter_mut().for_each(|o| *o = store(0));
        return 0.0;
    };
    let (head, tail) = out.split_at_mut(row.len());
    for (o, &v) in head.iter_mut().zip(row) {
        *o = store(code(v, inv));
    }
    tail.iter_mut().for_each(|o| *o = store(0));
    amax / 127.0
}

/// Quantizes one f32 row symmetrically to i8 into `out` (which may be
/// longer than `row`; the tail is zero-filled) and returns the scale such
/// that `row[i] ≈ out[i] as f32 * scale`. Rounding is to nearest, ties to
/// even — the same rule the vectorized activation quantizers use, so codes
/// are identical across implementations. An all-zero (or empty) row gets
/// scale `0.0` and all-zero codes, so dequantization reproduces exact
/// zeros.
pub fn quantize_row_i8(row: &[f32], out: &mut [i8]) -> f32 {
    quantize_scalar(row, out, |c| c as i8)
}

/// [`quantize_row_i8`]'s codes biased by +128 into `u8` — the unsigned
/// operand `vpdpbusd` multiplies — and its scale, in one pass: what the
/// VNNI kernel reads. The tail of `out` past `row` holds 128 (code 0).
/// Runs 16 lanes wide where the host's int8 tier is AVX-512 VNNI.
pub fn quantize_row_u8(row: &[f32], out: &mut [u8]) -> f32 {
    #[cfg(target_arch = "x86_64")]
    if Tier::detect_int8() == Tier::Avx512 {
        // SAFETY: the detection reports `Avx512` only with `avx512f`.
        return unsafe { quantize_row_u8_avx512(row, out) };
    }
    quantize_scalar(row, out, |c| (c + 128) as u8)
}

/// Vectorized [`quantize_row_u8`]: a 16-lane abs-max scan, then one
/// multiply / clamp / round-to-nearest-even convert / +128 / narrow pass.
/// Every lane performs the scalar op sequence ([`code`]; clamping before
/// the rounding convert is the same as after it, the bounds being
/// integers), and a ragged last chunk loads and stores under a mask. A row
/// whose `127 / amax` is not finite goes to the scalar loop.
///
/// # Safety
/// The host must have `avx512f`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn quantize_row_u8_avx512(row: &[f32], out: &mut [u8]) -> f32 {
    use std::arch::x86_64::*;
    const ROUND: i32 = _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC;
    assert!(out.len() >= row.len(), "quantize output buffer too small");
    let (k, rp, op) = (row.len(), row.as_ptr(), out.as_mut_ptr());
    // The lanes of the chunk at `i` that lie inside the row.
    let lanes = |i: usize| (u32::MAX >> (32 - (k - i).min(16))) as __mmask16;
    let mut vmax = _mm512_setzero_ps();
    for i in (0..k).step_by(16) {
        vmax = _mm512_max_ps(vmax, _mm512_abs_ps(_mm512_maskz_loadu_ps(lanes(i), rp.add(i))));
    }
    let amax = _mm512_reduce_max_ps(vmax);
    let Some(inv) = inverse(amax).filter(|inv| inv.is_finite()) else {
        return quantize_scalar(row, out, |c| (c + 128) as u8);
    };
    out[k..].fill(128);
    let (vinv, lo, hi) = (_mm512_set1_ps(inv), _mm512_set1_ps(-127.0), _mm512_set1_ps(127.0));
    let bias = _mm512_set1_epi32(128);
    for i in (0..k).step_by(16) {
        let t = _mm512_mul_ps(_mm512_maskz_loadu_ps(lanes(i), rp.add(i)), vinv);
        let c = _mm512_cvt_roundps_epi32::<ROUND>(_mm512_max_ps(lo, _mm512_min_ps(hi, t)));
        _mm512_mask_cvtepi32_storeu_epi8(op.add(i) as *mut i8, lanes(i), _mm512_add_epi32(c, bias));
    }
    amax / 127.0
}

/// [`quantize_row_i8`]'s codes in an i16 buffer (still in `[-127, 127]`) —
/// the layout the AVX2 kernel's pair broadcasts consume without widening
/// activations in the inner loop. Vectorized where the host has AVX2.
fn quantize_row_i16(row: &[f32], out: &mut [i16]) -> f32 {
    #[cfg(target_arch = "x86_64")]
    if Tier::detect_int8() >= Tier::Avx2 {
        // SAFETY: the detection reports `Avx2` or above only with `avx2`.
        return unsafe { quantize_row_i16_avx2(row, out) };
    }
    quantize_scalar(row, out, |c| c as i16)
}

/// Vectorized i16 [`quantize_scalar`]: 8-wide abs-max scan, then a 16-wide
/// multiply / round-to-nearest-even / clamp / pack pass. Every lane
/// performs exactly the scalar op sequence (`mul`, `roundps` nearest
/// ties-even, min/max selection, exact int conversion), so codes match the
/// scalar implementation bit for bit on finite inputs. A row whose
/// `127 / amax` is not finite goes to the scalar loop.
///
/// # Safety
/// The host must have `avx2`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn quantize_row_i16_avx2(row: &[f32], out: &mut [i16]) -> f32 {
    use std::arch::x86_64::*;
    assert!(out.len() >= row.len(), "quantize output buffer too small");
    let k = row.len();
    let rp = row.as_ptr();
    let absmask = _mm256_castsi256_ps(_mm256_set1_epi32(0x7fff_ffff));
    let mut vmax = _mm256_setzero_ps();
    let mut i = 0usize;
    while i + 8 <= k {
        vmax = _mm256_max_ps(vmax, _mm256_and_ps(absmask, _mm256_loadu_ps(rp.add(i))));
        i += 8;
    }
    let mut lanes = [0f32; 8];
    _mm256_storeu_ps(lanes.as_mut_ptr(), vmax);
    let mut amax = 0f32;
    for &l in &lanes {
        amax = amax.max(l);
    }
    while i < k {
        amax = amax.max((*rp.add(i)).abs());
        i += 1;
    }
    let Some(inv) = inverse(amax).filter(|inv| inv.is_finite()) else {
        return quantize_scalar(row, out, |c| c as i16);
    };
    let vinv = _mm256_set1_ps(inv);
    let lo = _mm256_set1_ps(-127.0);
    let hi = _mm256_set1_ps(127.0);
    let op = out.as_mut_ptr();
    const ROUND: i32 = _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC;
    let mut i = 0usize;
    while i + 16 <= k {
        let t0 = _mm256_mul_ps(_mm256_loadu_ps(rp.add(i)), vinv);
        let t1 = _mm256_mul_ps(_mm256_loadu_ps(rp.add(i + 8)), vinv);
        let c0 = _mm256_max_ps(lo, _mm256_min_ps(hi, _mm256_round_ps::<ROUND>(t0)));
        let c1 = _mm256_max_ps(lo, _mm256_min_ps(hi, _mm256_round_ps::<ROUND>(t1)));
        let packed = _mm256_packs_epi32(_mm256_cvtps_epi32(c0), _mm256_cvtps_epi32(c1));
        // packs interleaves 128-bit lanes; restore ascending order.
        let fixed = _mm256_permute4x64_epi64::<0b11_01_10_00>(packed);
        _mm256_storeu_si256(op.add(i) as *mut __m256i, fixed);
        i += 16;
    }
    while i < k {
        *op.add(i) = code(*rp.add(i), inv) as i16;
        i += 1;
    }
    for o in out[k..].iter_mut() {
        *o = 0;
    }
    amax / 127.0
}

/// A dense layer (`y = x·W + b`) with per-output-channel symmetric int8
/// weights, built once from f32 weights and reused for every forward pass.
///
/// Weights are packed twice (they are tiny next to activations): panels of
/// [`NR`] columns with `k`-pairs interleaved for the AVX2/scalar kernels,
/// and panels of 16 columns with `k`-quads interleaved for the VNNI
/// kernel, each the exact operand order its multiply-add consumes.
pub struct QuantizedLinear {
    /// Input width (f32 columns of `x`, rows of `W`).
    k: usize,
    /// Output width.
    n: usize,
    /// `k` rounded up to a multiple of [`QK`] (the packed column length).
    kp: usize,
    /// `n` rounded up to a multiple of the VNNI panel width (which is also
    /// a multiple of [`NR`], so both layouts share it). Padded columns are
    /// all-zero with zero scale and bias.
    np: usize,
    /// Pair-interleaved packed weights: panel `g` at `[g*kp*NR, (g+1)*kp*NR)`.
    w: Vec<i8>,
    /// Quad-interleaved packed weights for `vpdpbusd`: panel `g` at
    /// `[g*kp*NV, (g+1)*kp*NV)`.
    w4: Vec<i8>,
    /// Per-column `-128 · Σ_i w[i][j]` — the exact correction that cancels
    /// the +128 activation bias of the VNNI kernel; accumulators start
    /// here instead of zero.
    corr: Vec<i32>,
    /// Per-output-channel weight scales, padded to `np` with zeros.
    w_scales: Vec<f32>,
    /// f32 bias applied after dequantization, padded to `np` with zeros.
    bias: Vec<f32>,
}

impl QuantizedLinear {
    /// Quantizes an `[k, n]` f32 weight matrix and `[1, n]` bias.
    pub fn from_f32(w: &Tensor, bias: &Tensor) -> QuantizedLinear {
        QuantizedLinear::from_concat(&[(w, bias)])
    }

    /// Quantizes several `[k, n_i]` weight/bias pairs into one fused
    /// `[k, Σn_i]` layer (columns concatenated in order). Because scales
    /// are per output channel, the fused layer is numerically identical to
    /// quantizing each part separately — this is how the encoder fuses its
    /// Q/K/V projections into one kernel call.
    ///
    /// The weights are read in row order, the order they lie in memory.
    /// One pass over the rows takes every column's `amax`: `f32::max`
    /// ignores NaN and is commutative and associative on the rest (`|v|`
    /// leaves no `±0` to tell apart), so the value does not depend on the
    /// order the rows come in and is the one a column scan gets. Each
    /// column's `inv` is `127 / amax`, or 0 where the column quantizes to
    /// scale 0 (all zero, or an infinite `amax`): the code of anything at
    /// `inv = 0` is 0 (a `±0` product, or the NaN of `±∞ · 0`, which codes
    /// 0), exactly that column's all-zero codes, so no column takes a
    /// branch. Then each k-quad is coded into a few KB of scratch and
    /// copied into both panel layouts and the VNNI correction sums: the
    /// same bytes the column-by-column builder wrote, at about 1.2 ns a
    /// weight against its 15 (≈ 3 MB of f32 weights a ms on AVX2).
    pub fn from_concat(parts: &[(&Tensor, &Tensor)]) -> QuantizedLinear {
        QuantizedLinear::build(Tier::detect_int8(), parts)
    }

    /// [`QuantizedLinear::from_concat`] with the codes written by `tier`'s
    /// instantiation of [`quantize_part`].
    fn build(tier: Tier, parts: &[(&Tensor, &Tensor)]) -> QuantizedLinear {
        assert!(!parts.is_empty(), "cannot build a quantized layer from no parts");
        let k = parts[0].0.rows();
        // i32 accumulator headroom. The VNNI kernel's running value is
        // bounded by |−128·Σw| + Σ(a+128)·|w| ≤ k·127·128 + k·255·127
        // = k·127·383, the loosest of the three kernels.
        assert!(
            k <= i32::MAX as usize / (127 * 383),
            "input width {k} too large for i32 accumulation"
        );
        let n: usize = parts.iter().map(|(w, _)| w.cols()).sum();
        for (w, b) in parts {
            assert_eq!(w.rows(), k, "fused parts must share the input width");
            assert_eq!(b.shape(), (1, w.cols()), "bias must be [1, n] matching its weight");
        }
        let kp = k.div_ceil(QK) * QK;
        let np = n.div_ceil(NV) * NV;
        let mut wq = vec![0i8; np * kp];
        let mut w4 = vec![0i8; np * kp];
        let mut corr = vec![0i32; np];
        let mut w_scales = vec![0f32; np];
        let mut bias_all = vec![0f32; np];
        let widest = parts.iter().map(|(w, _)| w.cols()).max().unwrap_or(0);
        let (mut inv, mut quads) = (vec![0f32; widest], vec![[0i8; 4]; widest]);
        let mut col0 = 0;
        for (w, b) in parts {
            let cols = col0..col0 + w.cols();
            bias_all[cols.clone()].copy_from_slice(b.data());
            let part = Part {
                kp,
                wq: &mut wq,
                w4: &mut w4,
                scales: &mut w_scales[cols.clone()],
                corr: &mut corr[cols],
                inv: &mut inv[..w.cols()],
                quads: &mut quads[..w.cols()],
            };
            quantize_part(tier, w.data(), col0, part);
            col0 += w.cols();
        }
        corr.iter_mut().for_each(|c| *c *= -128);
        QuantizedLinear { k, n, kp, np, w: wq, w4, corr, w_scales, bias: bias_all }
    }

    /// Output width the layer produces.
    pub fn out_dim(&self) -> usize {
        self.n
    }

    /// The per-output-channel weight scales (the property tests derive the
    /// analytic error bound from these). Only the first
    /// [`QuantizedLinear::out_dim`] entries are real columns.
    pub fn weight_scales(&self) -> &[f32] {
        &self.w_scales[..self.n]
    }

    /// `y = x·W + b` for `x: [m, k]`, with the fastest available kernel
    /// (AVX-512 VNNI, then AVX2, then scalar). Bit-identical to
    /// [`QuantizedLinear::forward_scalar`].
    pub fn forward(&self, x: &Tensor) -> Tensor {
        self.run_fresh(x, Tier::detect_int8())
    }

    /// [`QuantizedLinear::forward`] into a caller-owned `[m, n]` slot, with
    /// the activation codes staged in a reusable [`QuantScratch`]: what the
    /// tape-free executor calls, allocating nothing once the scratch has
    /// grown. `x` is `m` rows of `k`, row-major.
    pub fn forward_into(&self, x: &[f32], m: usize, out: &mut [f32], scratch: &mut QuantScratch) {
        self.run(x, m, out, Tier::detect_int8(), scratch);
    }

    /// The portable scalar kernel — the reference oracle the SIMD paths
    /// must match bit for bit.
    pub fn forward_scalar(&self, x: &Tensor) -> Tensor {
        self.run_fresh(x, Tier::Portable)
    }

    /// [`QuantizedLinear::forward_into`] on a named int8 tier: how tests
    /// and benches reach the kernels dispatch does not pick on their host.
    ///
    /// # Panics
    /// If the host lacks `tier` (it is above [`Tier::detect_int8`]).
    pub fn forward_into_on(
        &self,
        tier: Tier,
        x: &[f32],
        m: usize,
        out: &mut [f32],
        scratch: &mut QuantScratch,
    ) {
        self.run(x, m, out, tier, scratch);
    }

    /// [`QuantizedLinear::forward_into_on`] into a fresh tensor.
    pub fn forward_on(&self, tier: Tier, x: &Tensor) -> Tensor {
        self.run_fresh(x, tier)
    }

    /// [`QuantizedLinear::run`] into a fresh tensor with a fresh scratch.
    fn run_fresh(&self, x: &Tensor, tier: Tier) -> Tensor {
        assert_eq!(x.cols(), self.k, "quantized linear expects [m, {}] input", self.k);
        let mut out = Tensor::zeros(x.rows(), self.n);
        self.run(x.data(), x.rows(), out.data_mut(), tier, &mut QuantScratch::default());
        out
    }

    /// Quantizes the `m` rows of `x`, then computes all of `out` in
    /// `tier`'s tiles.
    fn run(&self, x: &[f32], m: usize, out: &mut [f32], tier: Tier, scratch: &mut QuantScratch) {
        assert!(tier <= Tier::detect_int8(), "this CPU has no int8 {} tier", tier.name());
        assert_eq!(x.len(), m * self.k, "quantized linear expects [m, {}] input", self.k);
        assert_eq!(out.len(), m * self.n, "quantized linear writes [m, {}] output", self.n);
        if m == 0 || self.n == 0 {
            return;
        }
        // Dynamic per-row activation quantization, straight into the codes
        // the tier's kernel reads.
        let QuantScratch { qa, qa8, a_scales } = scratch;
        grow(a_scales, m);
        let a_scales = &mut a_scales[..m];
        let (k, kp) = (self.k, self.kp);
        let (qa, qa8): (&[i16], &[u8]) = if tier == Tier::Avx512 {
            (&[], quantize_rows(qa8, a_scales, x, k, kp, quantize_row_u8))
        } else {
            (quantize_rows(qa, a_scales, x, k, kp, quantize_row_i16), &[])
        };
        let (n, a_scales) = (self.n, &*a_scales);
        #[cfg(target_arch = "x86_64")]
        {
            // Each tile's codes, scales and output rows, and the `<M, P>`
            // instantiation that computes them.
            macro_rules! tiles {
                ($tile:ident, $codes:expr, $mr:expr, $panel:expr, $($m:literal),*) => {
                    for_tiles(m, $mr, n.div_ceil($panel), |r, mr, g, p| {
                        let a = &$codes[r * kp..(r + mr) * kp];
                        let s = &a_scales[r..r + mr];
                        let o = &mut out[r * n..(r + mr) * n];
                        // SAFETY: `run` asserted that the host has `tier`:
                        // `Avx2` is reported only with `avx2` detected,
                        // `Avx512` only with `avx512f` and `avx512vnni`.
                        unsafe {
                            match (mr, p) {
                                $(($m, 1) => self.$tile::<$m, 1>(a, s, g, o),
                                  ($m, 2) => self.$tile::<$m, 2>(a, s, g, o),)*
                                _ => unreachable!("{mr}-row tile of {p} panels"),
                            }
                        }
                    })
                };
            }
            match tier {
                Tier::Avx512 => return tiles!(tile_vnni, qa8, MV, NV, 1, 2, 3, 4, 5, 6),
                Tier::Avx2 => return tiles!(tile_avx2, qa, MA, NR, 1, 2, 3, 4),
                Tier::Portable => {}
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        let _ = (qa8, tier);
        for (r, o) in out.chunks_exact_mut(n).enumerate() {
            self.row_forward_scalar(&qa[r * kp..(r + 1) * kp], a_scales[r], o);
        }
    }

    /// Portable reference kernel: walks the pair-interleaved panel layout
    /// with plain i32 accumulation, in ascending-`k` order.
    fn row_forward_scalar(&self, a: &[i16], a_scale: f32, out: &mut [f32]) {
        let kp = self.kp;
        for (j, o) in out.iter_mut().enumerate() {
            let base = (j / NR) * kp * NR + (j % NR) * 2;
            let mut acc = 0i32;
            for p in 0..kp / 2 {
                let idx = base + p * NR * 2;
                acc += i32::from(a[2 * p]) * i32::from(self.w[idx]);
                acc += i32::from(a[2 * p + 1]) * i32::from(self.w[idx + 1]);
            }
            *o = dequant(acc, a_scale, self.w_scales[j], self.bias[j]);
        }
    }

    /// AVX2 tile: `M` i16 activation rows (`a`, `kp` codes each) against
    /// the `P` weight panels from `g`, one ymm accumulator per (row, panel).
    /// Each k-pair's 16 weight bytes per panel are sign-extended to i16
    /// once and `vpmaddwd`-ed against every row's broadcast activation pair.
    /// Integer adds are associative, so the result is bit-identical to the
    /// scalar kernel. `out` holds the tile's `M` rows of `n` outputs.
    ///
    /// # Safety
    /// The host must have `avx2`. Every operand's extent is asserted.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn tile_avx2<const M: usize, const P: usize>(
        &self,
        a: &[i16],
        a_scales: &[f32],
        g: usize,
        out: &mut [f32],
    ) {
        use std::arch::x86_64::*;
        const { assert!(M >= 1 && M <= MA && (P == 1 || P == 2)) };
        let (kp, n) = (self.kp, self.n);
        assert!(a.len() == M * kp && a_scales.len() == M && out.len() == M * n, "AVX2 tile rows");
        assert!((g + P) * NR <= self.np, "AVX2 tile panels");
        let (ap, wp) = (a.as_ptr(), self.w.as_ptr().add(g * kp * NR));
        let mut acc = [[_mm256_setzero_si256(); P]; M];
        for pair in 0..kp / 2 {
            let mut w = [_mm256_setzero_si256(); P];
            for (q, lanes) in w.iter_mut().enumerate() {
                let bytes = _mm_loadu_si128(wp.add((q * kp + 2 * pair) * NR) as *const __m128i);
                *lanes = _mm256_cvtepi8_epi16(bytes);
            }
            for (i, row) in acc.iter_mut().enumerate() {
                let b =
                    _mm256_set1_epi32((ap.add(i * kp + 2 * pair) as *const i32).read_unaligned());
                for (lanes, &w) in row.iter_mut().zip(&w) {
                    *lanes = _mm256_add_epi32(*lanes, _mm256_madd_epi16(b, w));
                }
            }
        }
        for ((row, &scale), o) in acc.iter().zip(a_scales).zip(out.chunks_exact_mut(n)) {
            for (q, &lanes) in row.iter().enumerate() {
                self.dequant_store(lanes, scale, (g + q) * NR, o);
            }
        }
    }

    /// AVX-512 VNNI tile: `M` biased-u8 activation rows (`a`, `kp` codes
    /// each) against the `P` 16-column weight panels from `g`, one zmm
    /// accumulator per (row, panel). Each k-quad loads the panels once and
    /// gives every row one `vpdpbusd` per panel from a broadcast of its
    /// quad; the `M·P` chains are independent. Accumulators start at the
    /// pack-time `-128·Σw` correction, so the final integers equal the
    /// signed dot product exactly — bit-identical to the scalar kernel.
    /// `out` holds the tile's `M` rows of `n` outputs.
    ///
    /// # Safety
    /// The host must have `avx512f` and `avx512vnni`. Every operand's
    /// extent is asserted.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f,avx512vnni")]
    unsafe fn tile_vnni<const M: usize, const P: usize>(
        &self,
        a: &[u8],
        a_scales: &[f32],
        g: usize,
        out: &mut [f32],
    ) {
        use std::arch::x86_64::*;
        const { assert!(M >= 1 && M <= MV && (P == 1 || P == 2)) };
        let (kp, n) = (self.kp, self.n);
        assert!(a.len() == M * kp && a_scales.len() == M && out.len() == M * n, "VNNI tile rows");
        assert!((g + P) * NV <= self.np, "VNNI tile panels");
        let (ap, wp) = (a.as_ptr(), self.w4.as_ptr().add(g * kp * NV));
        let mut corr = [_mm512_setzero_si512(); P];
        for (q, lanes) in corr.iter_mut().enumerate() {
            *lanes = _mm512_loadu_si512(self.corr.as_ptr().add((g + q) * NV) as *const _);
        }
        let mut acc = [corr; M];
        for quad in 0..kp / 4 {
            let mut w = [_mm512_setzero_si512(); P];
            for (q, lanes) in w.iter_mut().enumerate() {
                *lanes = _mm512_loadu_si512(wp.add((q * kp + 4 * quad) * NV) as *const _);
            }
            for (i, row) in acc.iter_mut().enumerate() {
                let b =
                    _mm512_set1_epi32((ap.add(i * kp + 4 * quad) as *const i32).read_unaligned());
                for (lanes, &w) in row.iter_mut().zip(&w) {
                    *lanes = _mm512_dpbusd_epi32(*lanes, b, w);
                }
            }
        }
        for ((row, &scale), o) in acc.iter().zip(a_scales).zip(out.chunks_exact_mut(n)) {
            for (q, &lanes) in row.iter().enumerate() {
                self.dequant_store_512(lanes, scale, (g + q) * NV, o);
            }
        }
    }

    /// Dequantizes one AVX2 panel's accumulator lanes and stores them into
    /// the (possibly shorter-than-[`NR`]) tail of `out`. The lane-wise f32
    /// chain — `(acc as f32) * (a_scale * w_scale) + bias` — performs
    /// exactly the three roundings of the scalar [`dequant`], so the bits
    /// match.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn dequant_store(
        &self,
        acc: std::arch::x86_64::__m256i,
        a_scale: f32,
        j0: usize,
        out: &mut [f32],
    ) {
        use std::arch::x86_64::*;
        if j0 >= out.len() {
            return; // an all-padding panel past the real columns
        }
        let accf = _mm256_cvtepi32_ps(acc);
        let comb =
            _mm256_mul_ps(_mm256_set1_ps(a_scale), _mm256_loadu_ps(self.w_scales.as_ptr().add(j0)));
        let y =
            _mm256_add_ps(_mm256_mul_ps(accf, comb), _mm256_loadu_ps(self.bias.as_ptr().add(j0)));
        if out.len() - j0 >= NR {
            _mm256_storeu_ps(out.as_mut_ptr().add(j0), y);
        } else {
            let mut tmp = [0f32; NR];
            _mm256_storeu_ps(tmp.as_mut_ptr(), y);
            let rest = out.len() - j0;
            out[j0..].copy_from_slice(&tmp[..rest]);
        }
    }

    /// [`QuantizedLinear::dequant_store`] for one VNNI panel (16 lanes),
    /// same three-rounding chain.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f")]
    unsafe fn dequant_store_512(
        &self,
        acc: std::arch::x86_64::__m512i,
        a_scale: f32,
        j0: usize,
        out: &mut [f32],
    ) {
        use std::arch::x86_64::*;
        if j0 >= out.len() {
            return; // an all-padding panel past the real columns
        }
        let accf = _mm512_cvtepi32_ps(acc);
        let comb =
            _mm512_mul_ps(_mm512_set1_ps(a_scale), _mm512_loadu_ps(self.w_scales.as_ptr().add(j0)));
        let y =
            _mm512_add_ps(_mm512_mul_ps(accf, comb), _mm512_loadu_ps(self.bias.as_ptr().add(j0)));
        if out.len() - j0 >= NV {
            _mm512_storeu_ps(out.as_mut_ptr().add(j0), y);
        } else {
            let mut tmp = [0f32; NV];
            _mm512_storeu_ps(tmp.as_mut_ptr(), y);
            let rest = out.len() - j0;
            out[j0..].copy_from_slice(&tmp[..rest]);
        }
    }
}

/// One part of a layer under construction: where [`quantize_part`] writes
/// its columns (the layer's two panel layouts, `kp` codes a column, and the
/// part's scales and correction sums), and its per-call scratch (one entry
/// per part column).
struct Part<'a> {
    kp: usize,
    wq: &'a mut [i8],
    w4: &'a mut [i8],
    scales: &'a mut [f32],
    corr: &'a mut [i32],
    inv: &'a mut [f32],
    quads: &'a mut [[i8; 4]],
}

/// Quantizes one part (`w`, row-major, `out.scales.len()` columns, the first
/// at layer column `col0`) in row order, compiled for `tier`: one pass over
/// the rows for every column's `amax` (into `scales`), then each column's
/// scale and `inv`, then four rows at a time — each column's k-quad coded
/// into `quads` (zero rows past the last), summed into the correction, and
/// copied into the quad-interleaved VNNI panel (a run of up to 16 columns
/// is one contiguous copy) and, split into its two pairs, into the
/// pair-interleaved AVX2 panel. The body is compiled for AVX2 where the
/// int8 tier has it, where the loops run as vector instructions, and for
/// the baseline otherwise; both compute [`code`], so the bytes are
/// the same. `fma` stays off: no multiply here may fuse with an add.
fn quantize_part(tier: Tier, w: &[f32], col0: usize, out: Part<'_>) {
    #[inline(always)]
    fn body(w: &[f32], col0: usize, out: Part<'_>) {
        let Part { kp, wq, w4, scales, corr, inv, quads } = out;
        let n = scales.len();
        if n == 0 {
            return;
        }
        for row in w.chunks_exact(n) {
            for (amax, &v) in scales.iter_mut().zip(row) {
                *amax = amax.max(v.abs());
            }
        }
        for (scale, inv) in scales.iter_mut().zip(inv.iter_mut()) {
            (*inv, *scale) = inverse(*scale).map_or((0.0, 0.0), |inv| (inv, *scale / 127.0));
        }
        let k = w.len() / n;
        for q in 0..k.div_ceil(4) {
            let rows = &w[4 * q * n..(4 * q + 4).min(k) * n];
            if rows.len() == 4 * n {
                let (r0, rest) = rows.split_at(n);
                let (r1, rest) = rest.split_at(n);
                let (r2, r3) = rest.split_at(n);
                let lanes = r0.iter().zip(r1).zip(r2).zip(r3).zip(inv.iter());
                for (quad, ((((&a, &b), &c), &d), &inv)) in quads.iter_mut().zip(lanes) {
                    *quad = [a, b, c, d].map(|v| code(v, inv) as i8);
                }
            } else {
                quads.fill([0; 4]);
                for (t, row) in rows.chunks_exact(n).enumerate() {
                    for ((quad, &v), &inv) in quads.iter_mut().zip(row).zip(inv.iter()) {
                        quad[t] = code(v, inv) as i8;
                    }
                }
            }
            for (sum, quad) in corr.iter_mut().zip(quads.iter()) {
                *sum += quad.iter().map(|&c| i32::from(c)).sum::<i32>();
            }
            // Quad `q` of each VNNI panel the part reaches.
            let mut j = 0;
            while j < n {
                let col = col0 + j;
                let len = (NV - col % NV).min(n - j);
                let at = (col / NV) * kp * NV + 4 * q * NV + (col % NV) * 4;
                w4[at..at + 4 * len].copy_from_slice(quads[j..j + len].as_flattened());
                j += len;
            }
            // Pairs `2q` and `2q + 1` of each AVX2 panel.
            let mut j = 0;
            while j < n {
                let col = col0 + j;
                let len = (NR - col % NR).min(n - j);
                let at = (col / NR) * kp * NR + 4 * q * NR + (col % NR) * 2;
                let (lo, hi) = wq[at..at + 2 * NR + 2 * len].split_at_mut(2 * NR);
                let pairs = lo.chunks_exact_mut(2).zip(hi.chunks_exact_mut(2));
                for (quad, (lo, hi)) in quads[j..j + len].iter().zip(pairs) {
                    lo.copy_from_slice(&quad[..2]);
                    hi.copy_from_slice(&quad[2..]);
                }
                j += len;
            }
        }
    }
    assert!(tier <= Tier::detect_int8(), "this CPU has no int8 {} tier", tier.name());
    #[cfg(target_arch = "x86_64")]
    if tier >= Tier::Avx2 {
        #[target_feature(enable = "avx2")]
        fn avx2(w: &[f32], col0: usize, out: Part<'_>) {
            body(w, col0, out)
        }
        // SAFETY: the host has `tier` (asserted above), and
        // `Tier::detect_int8` reports `Avx2` or above only with `avx2`.
        unsafe { avx2(w, col0, out) };
        return;
    }
    body(w, col0, out)
}

/// Reusable staging for [`QuantizedLinear::forward_into`]: the quantized
/// activation codes (i16, or biased u8 on the VNNI tier) and per-row scales
/// of one call. Grow-only, so a caller
/// that keeps one around stops allocating after its largest input.
#[derive(Default)]
pub struct QuantScratch {
    qa: Vec<i16>,
    qa8: Vec<u8>,
    a_scales: Vec<f32>,
}

/// Quantizes the `scales.len()` rows of `x` (`k` wide) with `quantize`
/// into `codes`, `kp` a row, and returns the codes written.
fn quantize_rows<'a, T: Default + Clone>(
    codes: &'a mut Vec<T>,
    scales: &mut [f32],
    x: &[f32],
    k: usize,
    kp: usize,
    quantize: impl Fn(&[f32], &mut [T]) -> f32,
) -> &'a [T] {
    grow(codes, scales.len() * kp);
    for (r, scale) in scales.iter_mut().enumerate() {
        *scale = quantize(&x[r * k..(r + 1) * k], &mut codes[r * kp..(r + 1) * kp]);
    }
    &codes[..scales.len() * kp]
}

/// Calls `tile(r, mr, g, p)` for the tiles covering `rows` rows and
/// `panels` weight panels: rows `r..r + mr` (`mr ≤ max_rows`) against
/// panels `g..g + p` (`p ≤ 2`). Panel pairs are the outer loop, so a pair
/// stays in L1 while the row tiles pass under it.
fn for_tiles(
    rows: usize,
    max_rows: usize,
    panels: usize,
    mut tile: impl FnMut(usize, usize, usize, usize),
) {
    for g in (0..panels).step_by(2) {
        for r in (0..rows).step_by(max_rows) {
            tile(r, max_rows.min(rows - r), g, 2.min(panels - g));
        }
    }
}

/// The one dequantization expression, shared verbatim by every kernel so
/// the f32 rounding is identical across scalar and SIMD executions.
#[inline]
fn dequant(acc: i32, a_scale: f32, w_scale: f32, bias: f32) -> f32 {
    (acc as f32) * (a_scale * w_scale) + bias
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn naive_linear(x: &Tensor, w: &Tensor, b: &Tensor) -> Tensor {
        let mut out = Tensor::zeros(x.rows(), w.cols());
        for r in 0..x.rows() {
            for j in 0..w.cols() {
                let mut acc = 0f64;
                for i in 0..x.cols() {
                    acc += f64::from(x.get(r, i)) * f64::from(w.get(i, j));
                }
                out.set(r, j, (acc + f64::from(b.get(0, j))) as f32);
            }
        }
        out
    }

    /// The column-by-column builder `from_concat` replaced: each column
    /// gathered through `get`, coded by [`quantize_row_i8`] and scattered
    /// into both panels. The reference the row-order builder must match
    /// byte for byte.
    fn from_concat_by_columns(parts: &[(&Tensor, &Tensor)]) -> QuantizedLinear {
        let k = parts[0].0.rows();
        let n: usize = parts.iter().map(|(w, _)| w.cols()).sum();
        let kp = k.div_ceil(QK) * QK;
        let np = n.div_ceil(NV) * NV;
        let mut wq = vec![0i8; np * kp];
        let mut w4 = vec![0i8; np * kp];
        let mut corr = vec![0i32; np];
        let mut w_scales = vec![0f32; np];
        let mut bias_all = vec![0f32; np];
        let mut colbuf = vec![0f32; k];
        let mut qcol = vec![0i8; kp];
        let mut col = 0usize;
        for (w, b) in parts {
            for j in 0..w.cols() {
                for (i, c) in colbuf.iter_mut().enumerate() {
                    *c = w.get(i, j);
                }
                w_scales[col] = quantize_row_i8(&colbuf, &mut qcol);
                bias_all[col] = b.get(0, j);
                corr[col] = -128 * qcol.iter().map(|&c| i32::from(c)).sum::<i32>();
                let base = (col / NR) * kp * NR + (col % NR) * 2;
                for p in 0..kp / 2 {
                    wq[base + p * NR * 2] = qcol[2 * p];
                    wq[base + p * NR * 2 + 1] = qcol[2 * p + 1];
                }
                let base4 = (col / NV) * kp * NV + (col % NV) * 4;
                for q in 0..kp / 4 {
                    for t in 0..4 {
                        w4[base4 + q * NV * 4 + t] = qcol[4 * q + t];
                    }
                }
                col += 1;
            }
        }
        QuantizedLinear { k, n, kp, np, w: wq, w4, corr, w_scales, bias: bias_all }
    }

    #[test]
    fn code_equals_the_clamped_cast() {
        let values = [
            0.0,
            -0.0,
            1e-45,
            -1e-39,
            0.5,
            -0.5,
            1.5,
            2.5,
            -126.5,
            127.49,
            127.5,
            -128.0,
            3e38,
            f32::MAX,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
        ];
        for inv in [0.0, 1.0, 127.0, 1e-3, 127.0 / 1e-39, f32::INFINITY] {
            for v in values.iter().flat_map(|&v| [v, v * 0.37, -v]) {
                let want = (v * inv).round_ties_even().clamp(-127.0, 127.0) as i32;
                assert_eq!(code(v, inv), want, "v {v:e}, inv {inv:e}");
            }
        }
    }

    /// Asserts two layers hold the same bytes in every packed field.
    fn assert_same_layer(got: &QuantizedLinear, want: &QuantizedLinear, what: &str) {
        assert_eq!((got.k, got.n, got.kp, got.np), (want.k, want.n, want.kp, want.np), "{what}");
        assert_eq!(got.w, want.w, "AVX2 panels, {what}");
        assert_eq!(got.w4, want.w4, "VNNI panels, {what}");
        assert_eq!(got.corr, want.corr, "corrections, {what}");
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&got.w_scales), bits(&want.w_scales), "scales, {what}");
        assert_eq!(bits(&got.bias), bits(&want.bias), "bias, {what}");
    }

    /// Holds every host tier's row-order build, and the dispatching one, to
    /// the column builder.
    fn assert_every_tier_builds(parts: &[(&Tensor, &Tensor)], what: &str) {
        let want = from_concat_by_columns(parts);
        assert_same_layer(&QuantizedLinear::from_concat(parts), &want, what);
        for &tier in Tier::host().iter().filter(|&&t| t <= Tier::detect_int8()) {
            let what = format!("{what}, {} tier", tier.name());
            assert_same_layer(&QuantizedLinear::build(tier, parts), &want, &what);
        }
    }

    #[test]
    fn row_order_builder_matches_the_column_builder_bytewise() {
        let mut rng = StdRng::seed_from_u64(12);
        for k in [1, 3, 4, 5, 31, 32, 33, 96, 384] {
            for n in [1, 7, 8, 15, 16, 17, 288] {
                let w = Tensor::randn(k, n, 0.3, &mut rng);
                let b = Tensor::randn(1, n, 0.3, &mut rng);
                let parts = [(&w, &b)];
                assert_every_tier_builds(&parts, &format!("k {k}, n {n}"));
            }
        }
        // Fused parts whose boundaries fall inside both panel widths.
        for (k, widths) in [(33, vec![7, 9, 17]), (96, vec![96, 96, 96]), (5, vec![1, 15, 2, 24])] {
            let ws: Vec<Tensor> =
                widths.iter().map(|&n| Tensor::randn(k, n, 0.3, &mut rng)).collect();
            let bs: Vec<Tensor> =
                widths.iter().map(|&n| Tensor::randn(1, n, 0.3, &mut rng)).collect();
            let parts: Vec<(&Tensor, &Tensor)> = ws.iter().zip(&bs).collect();
            assert_every_tier_builds(&parts, &format!("k {k}, fused {widths:?}"));
        }
    }

    #[test]
    fn row_order_builder_matches_on_degenerate_columns() {
        let (k, n) = (37, 12);
        let mut rng = StdRng::seed_from_u64(13);
        let mut w = Tensor::randn(k, n, 0.3, &mut rng);
        for i in 0..k {
            // All zero, then ±0 only.
            w.set(i, 0, 0.0);
            w.set(i, 1, if i % 2 == 0 { 0.0 } else { -0.0 });
            // A subnormal amax: `127 / amax` is +∞ and zeros code `0 · ∞`.
            w.set(i, 2, [0.0, 1e-39, -1e-39, -0.0][i % 4]);
            w.set(i, 3, [1e-40, -3e-41, 0.0][i % 3]);
        }
        w.set(5, 4, f32::INFINITY); // an infinite amax: scale 0
        w.set(9, 5, f32::NEG_INFINITY);
        w.set(2, 6, -0.0);
        w.set(3, 7, f32::INFINITY);
        w.set(4, 7, f32::NEG_INFINITY);
        let b = Tensor::randn(1, n, 0.3, &mut rng);
        let parts = [(&w, &b)];
        assert!((127.0f32 / 1e-39).is_infinite(), "column 2's 127 / amax overflows");
        let got = QuantizedLinear::from_concat(&parts);
        assert!(got.w_scales[2] > 0.0, "a subnormal amax keeps its scale");
        assert_eq!(got.w_scales[4], 0.0, "an infinite column quantizes to scale 0");
        assert_every_tier_builds(&parts, "degenerate columns");
        let (no_rows, no_cols) = (Tensor::zeros(0, 5), Tensor::zeros(4, 0));
        assert_every_tier_builds(&[(&no_rows, &Tensor::zeros(1, 5))], "k = 0");
        assert_every_tier_builds(&[(&no_cols, &Tensor::zeros(1, 0))], "n = 0");
    }

    #[test]
    fn quantize_round_trips_within_half_step() {
        let row = [0.5f32, -1.25, 0.0, 2.0, -2.0];
        let mut q = [0i8; 5];
        let s = quantize_row_i8(&row, &mut q);
        for (&v, &c) in row.iter().zip(&q) {
            assert!((v - f32::from(c) * s).abs() <= s / 2.0 + 1e-6, "v={v} c={c} s={s}");
        }
        // The max-magnitude element hits ±127 exactly.
        assert_eq!(q[3], 127);
        assert_eq!(q[4], -127);
    }

    #[test]
    fn zero_and_empty_rows_quantize_to_zero_scale() {
        let mut q = [7i8; 4];
        assert_eq!(quantize_row_i8(&[0.0, 0.0], &mut q), 0.0);
        assert_eq!(q, [0i8; 4]);
        let mut q2 = [3i8; 2];
        assert_eq!(quantize_row_i8(&[], &mut q2), 0.0);
        assert_eq!(q2, [0i8; 2]);
    }

    #[test]
    fn vectorized_quantize_matches_scalar() {
        let mut rng = StdRng::seed_from_u64(11);
        let random =
            [0usize, 1, 7, 8, 15, 16, 17, 96, 100].map(|k| Tensor::randn(1, k, 1.0, &mut rng));
        // A row so small that `127 / amax` overflows: its zeros are
        // `0 · ∞` lanes, which a vector convert would not take to code 0.
        let tiny = (0..20).map(|i| [0.0, 1e-39, -1e-39][i % 3]).collect();
        for row in random.into_iter().map(Tensor::into_vec).chain([tiny]) {
            let k = row.len();
            let kp = k.div_ceil(QK) * QK;
            let mut a = vec![0i16; kp];
            let mut b = vec![0i16; kp];
            let sa = quantize_scalar(&row, &mut a, |c| c as i16);
            let sb = quantize_row_i16(&row, &mut b);
            assert_eq!(sa.to_bits(), sb.to_bits(), "scale mismatch at k={k}");
            assert_eq!(a, b, "codes mismatch at k={k}");
        }
    }

    #[test]
    fn forward_is_close_to_f32_reference() {
        let mut rng = StdRng::seed_from_u64(7);
        let x = Tensor::randn(5, 40, 1.0, &mut rng);
        let w = Tensor::randn(40, 9, 0.1, &mut rng);
        let b = Tensor::randn(1, 9, 0.1, &mut rng);
        let q = QuantizedLinear::from_f32(&w, &b);
        let exact = naive_linear(&x, &w, &b);
        let got = q.forward(&x);
        for (e, g) in exact.data().iter().zip(got.data()) {
            assert!((e - g).abs() < 0.05, "exact={e} quant={g}");
        }
    }

    #[test]
    fn fused_concat_matches_separate_parts() {
        let mut rng = StdRng::seed_from_u64(8);
        let x = Tensor::randn(3, 16, 1.0, &mut rng);
        let w1 = Tensor::randn(16, 4, 0.2, &mut rng);
        let b1 = Tensor::randn(1, 4, 0.2, &mut rng);
        let w2 = Tensor::randn(16, 6, 0.2, &mut rng);
        let b2 = Tensor::randn(1, 6, 0.2, &mut rng);
        let fused = QuantizedLinear::from_concat(&[(&w1, &b1), (&w2, &b2)]);
        let p1 = QuantizedLinear::from_f32(&w1, &b1).forward(&x);
        let p2 = QuantizedLinear::from_f32(&w2, &b2).forward(&x);
        let f = fused.forward(&x);
        assert_eq!(f.shape(), (3, 10));
        for r in 0..3 {
            for j in 0..4 {
                assert_eq!(f.get(r, j).to_bits(), p1.get(r, j).to_bits());
            }
            for j in 0..6 {
                assert_eq!(f.get(r, 4 + j).to_bits(), p2.get(r, j).to_bits());
            }
        }
    }

    #[test]
    fn every_host_tier_matches_scalar_bitwise() {
        let mut rng = StdRng::seed_from_u64(9);
        // Deliberately awkward shapes: n not a multiple of either panel
        // width, k not a multiple of the padding quantum, m not a multiple
        // of either tile's rows.
        let x = Tensor::randn(7, 100, 1.0, &mut rng);
        let w = Tensor::randn(100, 13, 0.2, &mut rng);
        let b = Tensor::randn(1, 13, 0.2, &mut rng);
        let q = QuantizedLinear::from_f32(&w, &b);
        let scalar = q.forward_scalar(&x);
        let tiers = Tier::host().iter().filter(|&&t| t <= Tier::detect_int8());
        for y in tiers.map(|&t| q.forward_on(t, &x)).chain([q.forward(&x)]) {
            for (a, b) in scalar.data().iter().zip(y.data()) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn degenerate_shapes_work() {
        let q = QuantizedLinear::from_f32(&Tensor::zeros(0, 3), &Tensor::zeros(1, 3));
        let y = q.forward(&Tensor::zeros(2, 0));
        assert_eq!(y.shape(), (2, 3));
        assert!(y.data().iter().all(|&v| v == 0.0));
        let q2 = QuantizedLinear::from_f32(&Tensor::zeros(4, 0), &Tensor::zeros(1, 0));
        assert_eq!(q2.forward(&Tensor::zeros(3, 4)).shape(), (3, 0));
        let empty = QuantizedLinear::from_f32(&Tensor::zeros(2, 2), &Tensor::zeros(1, 2));
        assert_eq!(empty.forward(&Tensor::zeros(0, 2)).shape(), (0, 2));
    }

    #[test]
    fn bias_survives_zero_inputs_exactly() {
        let mut rng = StdRng::seed_from_u64(10);
        let w = Tensor::randn(8, 5, 0.3, &mut rng);
        let b = Tensor::randn(1, 5, 1.0, &mut rng);
        let q = QuantizedLinear::from_f32(&w, &b);
        let y = q.forward(&Tensor::zeros(2, 8));
        for r in 0..2 {
            for j in 0..5 {
                assert_eq!(y.get(r, j).to_bits(), b.get(0, j).to_bits());
            }
        }
    }
}
