//! Vectorised, libm-free transcendentals: the one `exp`/`tanh` under GELU,
//! softmax and sigmoid.
//!
//! Plain Rust over fixed-width lane arrays, one body per kernel, generic
//! over its lane count and instantiated per vector tier of the GEMM layer
//! ([`crate::kernels::Tier`], detected from the CPU): 8 lanes compiled for
//! the baseline target, 8 lanes under `#[target_feature(enable = "avx2")]`,
//! and 16 lanes under the AVX-512 features (`gelu` over 166×384: about
//! 95 → 65 µs; four heads' 166×166 softmax: about 121 → 87 µs). Unlike
//! the GEMM tile, these bodies autovectorise cleanly at 512 bits, so no
//! intrinsics are needed. An elementwise result depends on its own input
//! bits alone, so the lane count cannot show in it.
//!
//! Softmax is not elementwise, and its 16-lane body keeps the 8-lane one's
//! order where order can show:
//!
//! * the row sum has eight accumulators on every tier, and a 16-lane chunk
//!   adds its low half, then its high half — accumulator `l` still sums
//!   elements `l, l+8, l+16, …` in that order, and the fixed tree that
//!   reduces the eight is the same. A padded tail lane adds `exp(−inf) =
//!   +0.0` to a sum of non-negative terms that started at `+0.0`, which
//!   changes no bit, so the extra padding of a 16-lane tail is invisible;
//! * the row max runs over 16 independent lanes and its own tree, because
//!   its value does not depend on order: `max_select` never admits a NaN, so
//!   the max is the largest non-NaN value (or `-inf`), which is unique but
//!   for the sign of a zero — and a `±0` max only flips the sign of a zero
//!   `exp` argument (`v − ±0` is `v` for every other `v`), where
//!   `exp(±0) = 1` exactly.
//!
//! Scale and mask, `exp(v − max)` and the normalise are elementwise. The
//! functions at the module root run the host's widest tier; [`on`] runs a
//! named one.
//!
//! # Numerics policy: one definition, identical everywhere
//!
//! Every kernel uses only separately-rounded `+ - * /`, comparisons with
//! select, and bit casts — no `mul_add`, no libm. Each of those is exactly
//! rounded by IEEE 754, and Rust never contracts or reassociates float
//! arithmetic, so a result is a pure function of the input **bits**: the
//! same on every tier and at either lane count, on every host and under
//! every libm, which `f32::exp`/`f32::tanh` (not correctly rounded, different
//! between libm builds) never were.
//!
//! The GEMM layer's step *is* a fused multiply-add ([`crate::kernels`]) —
//! `fusedMultiplyAdd` is exactly specified too, so fusing would be just as
//! host-independent here. It is left out of this module on purpose, not on
//! principle: these kernels are bound by their dependent chains and by
//! division, not by multiply-add throughput; the polynomial's coefficients
//! and the error bounds below were fitted and checked for two roundings per
//! Horner step; and every result is pinned (`tests/numerics_pin.rs`, the
//! digest that did not move when the GEMM step was fused). The tier
//! instantiations therefore enable `avx2` and the AVX-512 features but
//! never `fma`, and with no `mul_add` in the source the compiler has nothing
//! to fuse.
//!
//! The tail of a slice is padded to a full lane array and runs through the
//! same lane code, so an element's result depends on nothing but its own
//! value — not its position, its neighbours or the slice length. Softmax
//! sums a row in eight fixed lanes and a fixed tree, so a row's result
//! depends on the row alone.
//!
//! # Algorithms and error bounds
//!
//! * `exp(x)`: `n = round(x · log2 e)` (round-to-nearest-even by adding and
//!   subtracting `1.5 · 2^23`), `r = x − n·ln2_hi − n·ln2_lo` (Cody–Waite:
//!   `ln2_hi` has 9 significant bits, so `n·ln2_hi` is exact), the Cephes
//!   degree-5 polynomial for `e^r` on `|r| ≤ ln2/2`, and `2^n` built from
//!   the exponent bits. Inputs below `ln 2^-126` select exactly `0.0` (no
//!   subnormal results), inputs from `128 ln 2` up give `+inf`, NaN gives
//!   NaN. Below 1 ulp over every `f32` in `[-87, 88]` (checked
//!   exhaustively against `f64`).
//! * `tanh(x) = sign(x) · (1 − e) / (1 + e)` with `e = exp(−2|x|)`:
//!   absolute error below `2e-7`, exactly `±1` once `e` underflows against
//!   1, `tanh(±0) = ±0`.
//! * `sigmoid(x) = 1 / (1 + exp(−x))`.
//! * `gelu(x) = 0.5 x (1 + tanh(√(2/π) (x + 0.044715 x³)))` (BERT's tanh
//!   form): `gelu(x) == x` bitwise for `x ≥ 10`, `±0` for `x ≤ −10`.
//! * softmax: row max, `exp(v − max)` with an eight-lane sum reduced in a
//!   fixed tree, one multiply by the reciprocal.
#![allow(clippy::needless_range_loop)] // fixed-bound lane loops are what LLVM vectorises

use crate::kernels::Tier;
use std::f32::consts::LOG2_E;

/// Elements per lane array on the portable tier (two 128-bit vectors) and
/// the AVX2 tier (one 256-bit vector), and softmax's sum accumulators on
/// every tier. The AVX-512 tier runs its kernels over 16 (one 512-bit
/// vector).
const LANES: usize = 8;

/// `1.5 · 2^23`: adding it to `|v| < 2^22` leaves `round(v)` in the low
/// mantissa bits (round-to-nearest-even, done by the adder itself).
const ROUND_MAGIC: f32 = 12_582_912.0;
/// High part of `ln 2` (0.693359375), 9 significant bits: `n · LN2_HI` is
/// exact for every `|n| ≤ 128`.
const LN2_HI: f32 = 355.0 / 512.0;
/// `ln 2 − LN2_HI`.
const LN2_LO: f32 = -2.121_944_4e-4;
/// Smallest input whose `exp` is a normal number: the first `f32` above
/// `ln 2^-126`. Below it the result is exactly `0.0`.
const EXP_UNDERFLOW: f32 = -87.336_54;
/// Inputs are clamped here; anything from `128 ln 2 ≈ 88.7228` up already
/// overflows to `+inf` through the scale factor.
const EXP_CLAMP: f32 = 89.0;

/// `e^x` for one lane; see the module docs for the algorithm.
#[inline(always)]
fn exp1(x: f32) -> f32 {
    // Comparison selects rather than `f32::max`/`min`: they pass NaN on.
    let xc = if x < EXP_UNDERFLOW { EXP_UNDERFLOW } else { x };
    let xc = if xc > EXP_CLAMP { EXP_CLAMP } else { xc };
    let t = xc * LOG2_E + ROUND_MAGIC;
    let n = t - ROUND_MAGIC; // in -126..=128
    let r = (xc - n * LN2_HI) - n * LN2_LO;
    let mut p = 1.987_569_1e-4_f32;
    p = p * r + 1.398_199_9e-3;
    p = p * r + 8.333_452e-3;
    p = p * r + 4.166_579_6e-2;
    p = p * r + 1.666_666_6e-1;
    p = p * r + 5.0e-1;
    let y = (r + (r * r) * p) + 1.0;
    // 2^n from the exponent bits: `t`'s low mantissa bits hold `n` in two's
    // complement, so shifting them into the exponent field and adding the
    // bias yields 2^n for n ≤ 127; n = 128 is 2^127 · 2.
    let t127 = if t > ROUND_MAGIC + 127.0 { ROUND_MAGIC + 127.0 } else { t };
    let scale = f32::from_bits((t127.to_bits() << 23).wrapping_add(0x3F80_0000));
    let y = (y * scale) * (1.0 + (t - t127));
    if x < EXP_UNDERFLOW {
        0.0
    } else {
        y
    }
}

/// `tanh x` for one lane.
#[inline(always)]
fn tanh1(x: f32) -> f32 {
    let e = exp1(-2.0 * x.abs());
    ((1.0 - e) / (1.0 + e)).copysign(x)
}

/// Logistic sigmoid for one lane.
#[inline(always)]
fn sigmoid1(x: f32) -> f32 {
    1.0 / (1.0 + exp1(-x))
}

const GELU_C: f32 = 0.797_884_6; // sqrt(2/pi)
const GELU_A: f32 = 0.044_715;

/// `tanh` of GELU's inner cubic, shared by the value and its derivative.
#[inline(always)]
fn gelu_tanh1(x: f32) -> f32 {
    tanh1(GELU_C * (x + GELU_A * x * x * x))
}

/// GELU (tanh form) for one lane.
#[inline(always)]
fn gelu1(x: f32) -> f32 {
    0.5 * x * (1.0 + gelu_tanh1(x))
}

/// Derivative of [`gelu1`].
#[inline(always)]
fn gelu_grad1(x: f32) -> f32 {
    let t = gelu_tanh1(x);
    let du = GELU_C * (1.0 + 3.0 * GELU_A * x * x);
    0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * du
}

/// Runs `f` over `row` one lane array at a time, in place, handing it the
/// matching lanes of each `extra` slice. The tail is copied into a lane
/// array padded with `pad` (`extra` tails with `0.0`), run through the
/// same `f`, and its valid prefix copied back.
#[inline(always)]
fn for_lanes<const L: usize, const K: usize>(
    row: &mut [f32],
    extra: [&[f32]; K],
    pad: f32,
    mut f: impl FnMut(&mut [f32; L], [&[f32; L]; K]),
) {
    for e in extra {
        assert_eq!(e.len(), row.len(), "vmath operand length mismatch");
    }
    let full = row.len() / L * L;
    let (body, tail) = row.split_at_mut(full);
    for (i, c) in body.chunks_exact_mut(L).enumerate() {
        let e = extra.map(|e| e[i * L..(i + 1) * L].try_into().expect("lane chunk"));
        f(c.try_into().expect("lane chunk"), e);
    }
    let n = tail.len();
    if n > 0 {
        // Lane-by-lane copies with a fixed trip count: the compiler turns
        // them into masked moves, where slice copies would call memcpy.
        let mut buf = [pad; L];
        let mut ebuf = [[0.0f32; L]; K];
        for l in 0..L {
            if l < n {
                buf[l] = tail[l];
                for (b, e) in ebuf.iter_mut().zip(extra) {
                    b[l] = e[full + l];
                }
            }
        }
        f(&mut buf, ebuf.each_ref());
        for l in 0..L {
            if l < n {
                tail[l] = buf[l];
            }
        }
    }
}

/// Applies `f` to every element of `xs` through `L`-lane code.
#[inline(always)]
fn map_lanes<const L: usize>(xs: &mut [f32], f: impl Fn(f32) -> f32) {
    for_lanes(xs, [], 0.0, |c: &mut [f32; L], []| {
        for l in 0..L {
            c[l] = f(c[l]);
        }
    });
}

/// Reduces a lane array pairwise in a fixed tree: for 8 lanes `(0,4) (1,5)
/// (2,6) (3,7)`, then `(0,2) (1,3)`, then `(0,1)`; 16 lanes fold `(l, l+8)`
/// first.
#[inline(always)]
fn reduce_lanes<const L: usize>(mut a: [f32; L], f: impl Fn(f32, f32) -> f32) -> f32 {
    let mut w = L / 2;
    while w > 0 {
        for l in 0..w {
            a[l] = f(a[l], a[l + w]);
        }
        w /= 2;
    }
    a[0]
}

/// `a > b ? a : b` — a NaN in `a` is ignored, one in `b` is kept, the same
/// way on every tier (unlike `f32::max`, whose NaN handling costs a blend).
#[inline(always)]
fn max_select(a: f32, b: f32) -> f32 {
    if a > b {
        a
    } else {
        b
    }
}

/// Pass 1 of an attention row, over `L` lanes: `v ← v · scale (+ mask)` and
/// the maximum of the results, in one read of the row. The lanes and their
/// tree may be any: the module docs say why the max cannot tell.
#[inline(always)]
fn scale_mask_max<const L: usize>(row: &mut [f32], scale: f32, mask: Option<&[f32]>) -> f32 {
    let mut m = [f32::NEG_INFINITY; L];
    // Padded lanes hold -inf · scale (+ 0) = -inf and never win the max;
    // that needs scale > 0, which `softmax_rows_scaled` asserts.
    match mask {
        Some(mask) => for_lanes(row, [mask], f32::NEG_INFINITY, |c: &mut [f32; L], [k]| {
            for l in 0..L {
                c[l] = c[l] * scale + k[l];
                m[l] = max_select(c[l], m[l]);
            }
        }),
        None => for_lanes(row, [], f32::NEG_INFINITY, |c: &mut [f32; L], []| {
            for l in 0..L {
                c[l] *= scale;
                m[l] = max_select(c[l], m[l]);
            }
        }),
    }
    reduce_lanes(m, max_select)
}

/// Passes 2 and 3 of a softmax row whose maximum is `max`, over `L` lanes:
/// `v ← exp(v − max)` into [`LANES`] sum accumulators — each `L`-lane chunk
/// adds its `LANES`-wide parts low to high, so accumulator `l` sums elements
/// `l, l + LANES, …` in order at any `L` — then `v ← v · (1 / sum)`.
/// A row whose maximum is `-inf` (every entry `-inf`) has no largest
/// entry to favour and becomes uniform.
#[inline(always)]
fn softmax_finish<const L: usize>(row: &mut [f32], max: f32) {
    const { assert!(L.is_multiple_of(LANES)) };
    if max == f32::NEG_INFINITY {
        row.fill(1.0 / row.len() as f32);
        return;
    }
    let mut acc = [0.0f32; LANES];
    // Padded lanes hold exp(-inf - max) = +0.0 and add nothing.
    for_lanes(row, [], f32::NEG_INFINITY, |c: &mut [f32; L], []| {
        for l in 0..L {
            c[l] = exp1(c[l] - max);
        }
        for part in c.chunks_exact(LANES) {
            for l in 0..LANES {
                acc[l] += part[l];
            }
        }
    });
    let inv = 1.0 / reduce_lanes(acc, |a, b| a + b);
    for v in row.iter_mut() {
        *v *= inv;
    }
}

/// Lanes of every kernel on the AVX-512 tier: one 512-bit vector.
const WIDE: usize = 16;

/// Declares each kernel once and instantiates it per [`Tier`]. The body is
/// generic over its lane count `L`: [`LANES`] on the portable and the AVX2
/// tier, [`WIDE`] on the AVX-512 tier. Emits `on::name(tier, ..)`, which
/// runs the named tier's instantiation, and `name(..)`, which runs
/// [`Tier::detect`]'s.
macro_rules! tiers {
    ($(
        $(#[$doc:meta])*
        pub fn $name:ident<$l:ident>($($arg:ident: $ty:ty),* $(,)?) $body:block
    )*) => {
        /// The one body of each kernel, over `L` lanes.
        mod body {
            use super::*;
            $(
                #[inline(always)]
                pub fn $name<const $l: usize>($($arg: $ty),*) $body
            )*
        }

        /// Every kernel on a named tier of the host. Public so that property
        /// tests can hold the tiers against each other; callers want the
        /// parent module's functions, which pick the host's widest.
        pub mod on {
            use super::*;
            $(
                $(#[$doc])*
                ///
                /// Runs `tier`'s instantiation; panics if the host lacks it.
                pub fn $name(tier: Tier, $($arg: $ty),*) {
                    assert!(tier <= Tier::detect(), "this CPU has no {} tier", tier.name());
                    #[cfg(target_arch = "x86_64")]
                    {
                        #[target_feature(enable = "avx2")]
                        fn avx2($($arg: $ty),*) {
                            body::$name::<LANES>($($arg),*)
                        }
                        #[target_feature(enable = "avx512f,avx512vl,avx512dq,avx512bw")]
                        fn avx512($($arg: $ty),*) {
                            body::$name::<WIDE>($($arg),*)
                        }
                        if tier == Tier::Avx512 {
                            // SAFETY: the host has `tier` (asserted above),
                            // and `Tier::detect` reports `Avx512` only with
                            // all four of these features detected.
                            unsafe { avx512($($arg),*) };
                            return;
                        }
                        if tier >= Tier::Avx2 {
                            // SAFETY: the host has `tier` (asserted above),
                            // and `Tier::detect` reports `Avx2` or above
                            // only with `avx2` detected.
                            unsafe { avx2($($arg),*) };
                            return;
                        }
                    }
                    body::$name::<LANES>($($arg),*)
                }
            )*
        }

        $(
            $(#[$doc])*
            pub fn $name($($arg: $ty),*) {
                on::$name(Tier::detect(), $($arg),*)
            }
        )*
    };
}

tiers! {
    /// `x ← e^x`, elementwise.
    pub fn exp<L>(xs: &mut [f32]) {
        map_lanes::<L>(xs, exp1);
    }

    /// `x ← tanh x`, elementwise.
    pub fn tanh<L>(xs: &mut [f32]) {
        map_lanes::<L>(xs, tanh1);
    }

    /// `x ← 1 / (1 + e^-x)`, elementwise.
    pub fn sigmoid<L>(xs: &mut [f32]) {
        map_lanes::<L>(xs, sigmoid1);
    }

    /// `x ← gelu(x)` (tanh approximation, as in BERT), elementwise.
    pub fn gelu<L>(xs: &mut [f32]) {
        map_lanes::<L>(xs, gelu1);
    }

    /// `g ← g · gelu'(x)`, elementwise: the GELU backward.
    pub fn gelu_grad<L>(gs: &mut [f32], xs: &[f32]) {
        for_lanes(gs, [xs], 0.0, |g: &mut [f32; L], [x]| {
            for l in 0..L {
                g[l] *= gelu_grad1(x[l]);
            }
        });
    }

    /// In-place, numerically-stable softmax of `v · scale + mask` over
    /// every `cols`-wide row of `data` (`mask`, if given, has `data`'s
    /// shape; `scale` must be positive): an attention block's scores to
    /// probabilities in three reads per row. A row of `-inf` only becomes
    /// uniform; `cols == 0` is a no-op. The row sum runs in eight ordered
    /// accumulators at either lane count, so every tier returns the same
    /// bits (see the module docs).
    pub fn softmax_rows_scaled<L>(data: &mut [f32], cols: usize, scale: f32, mask: Option<&[f32]>) {
        assert!(scale > 0.0, "softmax scale must be positive");
        if cols == 0 {
            return;
        }
        assert_eq!(data.len() % cols, 0, "softmax data must hold whole rows");
        for (i, row) in data.chunks_exact_mut(cols).enumerate() {
            let m_row = mask.map(|m| &m[i * cols..(i + 1) * cols]);
            let max = scale_mask_max::<L>(row, scale, m_row);
            softmax_finish::<L>(row, max);
        }
    }
}

/// In-place softmax of every `cols`-wide row of `data`:
/// [`softmax_rows_scaled`] with scale 1 (`v · 1.0` is `v`, bit for bit).
pub fn softmax_rows(data: &mut [f32], cols: usize) {
    softmax_rows_scaled(data, cols, 1.0, None);
}

/// In-place softmax of one row; see [`softmax_rows_scaled`].
pub fn softmax_row(row: &mut [f32]) {
    softmax_rows(row, row.len());
}
