//! Property tests pinning the int8 quantized linear layer.
//!
//! Two contracts, one per numeric tier (see `doduo_tensor::quant`):
//!
//! * **bit-identity within the tier** — the AVX2 and AVX-512 VNNI tiles
//!   and the dispatching entry point must reproduce the portable scalar
//!   kernel exactly (`f32::to_bits`), across randomly drawn ragged shapes
//!   with the degenerate edges (`k = 0`, one row, one column, non-multiples
//!   of the 8/16-column panels) forced into the distribution, and across an
//!   explicit grid of every row count a tile can be left with, odd and even
//!   panel counts and the encoder's depths; the one-pass VNNI quantizer must
//!   write `quantize_row_i8`'s codes + 128 on adversarial rows;
//! * **bounded distance to f32** — the dequantized output must sit within
//!   an analytic bound of the exact (f64) product, derived from the
//!   per-output-channel weight scales and the per-row activation scale.
//!
//! The error bound: writing `a = sa·qa + ea` (|ea| ≤ sa/2) and
//! `w = sw·qw + ew` (|ew| ≤ sw/2), each term's quantization error is
//! `|a·w − sa·sw·qa·qw| ≤ |a|·sw/2 + |w|·sa/2 + 3/4·sa·sw`, summed over
//! the k reduction terms, plus a small allowance for the f32 dequantization
//! arithmetic itself (integer accumulation is exact).

use doduo_tensor::kernels::Tier;
use doduo_tensor::{quantize_row_i8, quantize_row_u8, QuantizedLinear, Tensor};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Deterministic random tensor for a sampled `(shape, seed)`.
fn tensor(rows: usize, cols: usize, seed: u64) -> Tensor {
    let mut rng = StdRng::seed_from_u64(seed);
    Tensor::randn(rows, cols, 1.0, &mut rng)
}

fn assert_bits_eq(a: &Tensor, b: &Tensor, what: &str) -> Result<(), String> {
    if a.shape() != b.shape() {
        return Err(format!("{what}: shape {:?} vs {:?}", a.shape(), b.shape()));
    }
    for (i, (x, y)) in a.data().iter().zip(b.data().iter()).enumerate() {
        if x.to_bits() != y.to_bits() {
            return Err(format!("{what}: element {i}: {x} vs {y}"));
        }
    }
    Ok(())
}

/// The int8 tiers this host runs, lowest first.
fn int8_tiers() -> impl Iterator<Item = Tier> {
    Tier::host().iter().copied().filter(|&t| t <= Tier::detect_int8())
}

/// Every int8 tier of the host, and the dispatching entry point, against
/// the scalar oracle on `x·W + b`.
fn check_tiers(x: &Tensor, w: &Tensor, bias: &Tensor) -> Result<(), String> {
    let q = QuantizedLinear::from_f32(w, bias);
    let reference = q.forward_scalar(x);
    for tier in int8_tiers() {
        assert_bits_eq(&q.forward_on(tier, x), &reference, tier.name())?;
    }
    assert_bits_eq(&q.forward(x), &reference, "dispatched")
}

/// Every row count a 6-row (VNNI) or 4-row (AVX2) tile can be left with
/// against odd and even panel counts of both widths (16-column VNNI and
/// 8-column AVX2 panels: `n` = 16, 17, 31, 33, 48, 288 is 1, 2, 2, 3, 3, 18
/// and 2, 3, 4, 5, 6, 36 of them), at depths that are no multiple of the
/// k-quad or of the 32-lane padding quantum — and three shapes as deep as
/// the encoder's FFN, with row counts no multiple of either tile.
#[test]
fn tiles_match_scalar_on_edge_shapes() {
    let ms = (1..=13).chain([19, 166]);
    let grid = ms.flat_map(|m| {
        [16, 17, 31, 33, 48, 288].into_iter().flat_map(move |n| [1, 6, 37, 96].map(|k| (m, n, k)))
    });
    for (m, n, k) in grid.chain([(13, 288, 384), (37, 288, 99), (166, 96, 383)]) {
        let seed = (m * 1_000_000 + n * 1000 + k) as u64;
        let (x, w, bias) = (tensor(m, k, seed), tensor(k, n, seed + 1), tensor(1, n, seed + 2));
        check_tiers(&x, &w, &bias).unwrap_or_else(|e| panic!("{m}x{k}x{n}: {e}"));
    }
    let tiers: Vec<_> = int8_tiers().map(Tier::name).collect();
    println!("int8 tiers held to the scalar oracle on this host: {}", tiers.join(", "));
}

/// A row of `len` values drawn to corner the quantizer, at the magnitude
/// `a = 127·2^e`, where `127 / a = 2^-e` is exact: `(c + ½)·2^e` then
/// scales to an exact tie, `±a` to `±127`. Alongside: subnormals, signed
/// zeros, values in between. `huge` rows add `±3e38`, which then sets the
/// scale.
fn adversarial_row(len: usize, e: i32, huge: bool, seed: u64) -> Vec<f32> {
    let mut rng = StdRng::seed_from_u64(seed);
    let unit = 2f32.powi(e);
    let sign = |rng: &mut StdRng| if rng.gen::<bool>() { 1.0f32 } else { -1.0 };
    (0..len)
        .map(|_| match rng.gen_range(0..if huge { 7 } else { 6 }) {
            0 => (rng.gen_range(-127i32..127) as f32 + 0.5) * unit,
            1 => sign(&mut rng) * 127.0 * unit,
            2 => sign(&mut rng) * f32::from_bits(rng.gen_range(1u32..0x0080_0000)),
            3 => sign(&mut rng) * 0.0,
            4 | 5 => rng.gen_range(-127.0f32..127.0) * unit,
            _ => sign(&mut rng) * 3e38,
        })
        .collect()
}

/// Row exponents: ordinary magnitudes, one near `f32::MAX`, and two tiny
/// ones — one whose `127 / amax` is still finite and one where it
/// overflows.
const EXPONENTS: [i32; 6] = [0, -10, 20, 120, -125, -133];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The one-pass quantizer the VNNI kernel reads writes
    /// `quantize_row_i8`'s codes + 128 and the same scale, into a buffer
    /// padded past the row with code 0 (128).
    #[test]
    fn u8_codes_are_i8_codes_plus_128(len in 1usize..71, e in 0usize..6, huge in 0u8..2, zero in 0u8..8, seed in 0u64..1000) {
        let mut row = adversarial_row(len, EXPONENTS[e], huge == 1, seed);
        if zero == 0 {
            row.iter_mut().for_each(|v| *v *= 0.0);
        }
        let padded = len.div_ceil(32) * 32 + 5;
        let mut i8s = vec![0i8; padded];
        let mut u8s = vec![0u8; padded];
        let s8 = quantize_row_i8(&row, &mut i8s);
        let su = quantize_row_u8(&row, &mut u8s);
        prop_assert_eq!(s8.to_bits(), su.to_bits());
        for (i, (&c, &u)) in i8s.iter().zip(&u8s).enumerate() {
            prop_assert!(i32::from(c) + 128 == i32::from(u), "lane {i} of {len}: {c} vs {u} - 128 ({row:?})");
        }
    }

    /// The same rows through whole layers: every tier quantizes them into
    /// its own codes and must still match the scalar oracle.
    #[test]
    fn adversarial_rows_match_scalar_on_every_tier(m in 1usize..8, len in 1usize..71, e in 0usize..6, n in 1usize..40, seed in 0u64..1000) {
        let data: Vec<f32> = (0..m)
            .flat_map(|r| adversarial_row(len, EXPONENTS[e], r % 3 == 2, seed + r as u64))
            .collect();
        let x = Tensor::from_vec(m, len, data);
        let (w, bias) = (tensor(len, n, seed), tensor(1, n, seed + 1));
        check_tiers(&x, &w, &bias)?;
    }
}

/// Dimension strategy biased toward the quantized kernels' edges: 0
/// (`k = 0` reduces to pure bias), 1 (single row/column), sizes straddling
/// the NR = 8 pair-panel and NV = 16 quad-panel tiles, and a ragged range.
fn dim() -> BoxedStrategy<usize> {
    prop_oneof![
        Just(0usize),
        Just(1usize),
        Just(7usize),
        Just(8usize),
        Just(15usize),
        Just(16usize),
        Just(17usize),
        2usize..100,
    ]
    .boxed()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every kernel tier the host offers — and the dispatching `forward` —
    /// reproduces the scalar oracle bit for bit on ragged shapes.
    #[test]
    fn all_kernel_tiers_match_scalar_bitwise(m in dim(), k in dim(), n in dim(), seed in 0u64..1000) {
        let x = tensor(m, k, seed);
        let w = tensor(k, n, seed.wrapping_add(1));
        let bias = tensor(1, n, seed.wrapping_add(2));
        check_tiers(&x, &w, &bias)?;
    }

    /// The dequantized output stays within the analytic per-channel bound
    /// of the exact f64 product.
    #[test]
    fn dequantized_error_is_within_analytic_bound(m in dim(), k in dim(), n in dim(), seed in 0u64..1000) {
        let x = tensor(m, k, seed);
        let w = tensor(k, n, seed.wrapping_add(1));
        let bias = tensor(1, n, seed.wrapping_add(2));
        let q = QuantizedLinear::from_f32(&w, &bias);
        let y = q.forward_scalar(&x);
        let sw = q.weight_scales();
        let mut codes = vec![0i8; k];
        for r in 0..m {
            let row = &x.data()[r * k..(r + 1) * k];
            // Same formula (amax/127) and rounding as the kernel's internal
            // activation quantizer, so this is the row's exact sa.
            let sa = f64::from(quantize_row_i8(row, &mut codes));
            for (j, &swj) in sw.iter().enumerate().take(n) {
                let mut exact = f64::from(bias.data()[j]);
                let mut bound = 0f64;
                let swj = f64::from(swj);
                for (i, &a) in row.iter().enumerate().take(k) {
                    let (a, wv) = (f64::from(a), f64::from(w.data()[i * n + j]));
                    exact += a * wv;
                    bound += a.abs() * swj / 2.0 + wv.abs() * sa / 2.0 + 0.75 * sa * swj;
                }
                // Allowance for the f32 dequantization chain (three
                // roundings at ~2^-24 relative) on top of the exact
                // integer accumulation.
                let got = f64::from(y.data()[r * n + j]);
                let slack = (exact.abs() + bound) * 1e-5 + 1e-6;
                prop_assert!(
                    (got - exact).abs() <= bound + slack,
                    "row {r} col {j}: |{got} - {exact}| > {bound} + {slack}"
                );
            }
        }
    }

    /// Per-channel scales make the fused concatenation of several parts
    /// bit-identical to quantizing each part separately (the property the
    /// encoder's fused Q/K/V projection relies on).
    #[test]
    fn fused_concat_matches_parts_bitwise(m in dim(), k in dim(), widths in proptest::collection::vec(dim(), 1..4), seed in 0u64..1000) {
        let x = tensor(m, k, seed);
        let parts: Vec<(Tensor, Tensor)> = widths
            .iter()
            .enumerate()
            .map(|(p, &n)| {
                let s = seed.wrapping_add(10 + 2 * p as u64);
                (tensor(k, n, s), tensor(1, n, s.wrapping_add(1)))
            })
            .collect();
        let refs: Vec<(&Tensor, &Tensor)> = parts.iter().map(|(w, b)| (w, b)).collect();
        let fused = QuantizedLinear::from_concat(&refs).forward_scalar(&x);
        let mut col0 = 0usize;
        for (w, b) in &parts {
            let part = QuantizedLinear::from_f32(w, b).forward_scalar(&x);
            let n_total: usize = widths.iter().sum();
            for r in 0..m {
                for j in 0..w.cols() {
                    let f = fused.data()[r * n_total + col0 + j];
                    let p = part.data()[r * w.cols() + j];
                    prop_assert!(f.to_bits() == p.to_bits(), "row {r} col {j}: {f} vs {p}");
                }
            }
            col0 += w.cols();
        }
    }

    /// Round-trip: every dequantized code lands within half a step of its
    /// source, and codes stay in the symmetric [-127, 127] range.
    #[test]
    fn quantize_round_trip_is_within_half_step(k in dim(), seed in 0u64..1000) {
        let row = tensor(1, k, seed);
        let mut codes = vec![0i8; k];
        let scale = quantize_row_i8(row.data(), &mut codes);
        for (i, (&v, &c)) in row.data().iter().zip(&codes).enumerate() {
            prop_assert!((-127..=127).contains(&i32::from(c)), "code {c} out of range");
            let err = f64::from(v) - f64::from(c) * f64::from(scale);
            prop_assert!(
                err.abs() <= f64::from(scale) * 0.5 + 1e-12,
                "element {i}: residual {err} exceeds half step {scale}"
            );
        }
    }
}
