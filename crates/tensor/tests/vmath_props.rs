//! Property tests for the in-repo transcendentals (`doduo_tensor::vmath`).
//!
//! Two contracts are pinned here. **Identity**: every instantiation the host
//! can run (`Tier::host()`: portable, AVX2 and the 16-lane AVX-512 one)
//! agrees with the portable one under `f32::to_bits` on random and special
//! inputs at every slice length across both lane widths, and an element's
//! result is the same alone, at any offset and inside any longer slice. **Accuracy**: each function stays within its documented bound of
//! an `f64` reference — that reference is the only libm in the picture.

use doduo_tensor::kernels::Tier;
use doduo_tensor::vmath::{self, on};
use doduo_tensor::MASK_NEG;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Longest slice tried: four 16-lane arrays (eight 8-lane ones) and a
/// six-element tail, so every tail length of either width occurs.
const MAX_LEN: usize = 70;

/// Inputs every kernel must treat identically on both tiers: signed zeros,
/// subnormals, the `exp` range ends, the thresholds around them, huge
/// magnitudes, the attention mask value, infinities and NaN.
const SPECIALS: [f32; 24] = [
    0.0,
    -0.0,
    1e-40,
    -1e-40,
    f32::MIN_POSITIVE,
    1.0,
    -1.0,
    10.0,
    -10.0,
    43.6,
    -43.7,
    87.3,
    -87.3,
    -87.336_54,
    -87.336_55,
    88.0,
    -88.0,
    88.722_8,
    88.73,
    1e9,
    MASK_NEG,
    f32::INFINITY,
    f32::NEG_INFINITY,
    f32::NAN,
];

/// A seeded slice mixing activations-sized values, specials and arbitrary
/// bit patterns.
fn inputs(len: usize, seed: u64) -> Vec<f32> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..len)
        .map(|_| match rng.gen_range(0..4u32) {
            0 => SPECIALS[rng.gen_range(0..SPECIALS.len())],
            1 => f32::from_bits(rng.gen::<u32>()),
            _ => rng.gen_range(-12.0f32..12.0),
        })
        .collect()
}

/// Bit equality, with any NaN equal to any NaN (payloads are not part of
/// the contract).
fn same(a: &[f32], b: &[f32]) -> Result<(), String> {
    if a.len() != b.len() {
        return Err(format!("length {} vs {}", a.len(), b.len()));
    }
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        if x.to_bits() != y.to_bits() && !(x.is_nan() && y.is_nan()) {
            return Err(format!(
                "element {i}: {x:e} ({:08x}) vs {y:e} ({:08x})",
                x.to_bits(),
                y.to_bits()
            ));
        }
    }
    Ok(())
}

type Kernel = fn(&mut [f32]);
type TierKernel = fn(Tier, &mut [f32]);

/// Every elementwise kernel as `(name, dispatching form, form on a named
/// tier)`. `gelu_grad` runs with a gradient of ones, which leaves `gelu'(x)`.
fn elementwise() -> [(&'static str, Kernel, TierKernel); 5] {
    fn grad(f: impl Fn(&mut [f32], &[f32]), xs: &mut [f32]) {
        let x = xs.to_vec();
        xs.fill(1.0);
        f(xs, &x);
    }
    [
        ("exp", vmath::exp, on::exp),
        ("tanh", vmath::tanh, on::tanh),
        ("sigmoid", vmath::sigmoid, on::sigmoid),
        ("gelu", vmath::gelu, on::gelu),
        (
            "gelu_grad",
            |xs| grad(vmath::gelu_grad, xs),
            |t, xs| grad(|g, x| on::gelu_grad(t, g, x), xs),
        ),
    ]
}

fn apply(f: impl Fn(&mut [f32]), xs: &[f32]) -> Vec<f32> {
    let mut v = xs.to_vec();
    f(&mut v);
    v
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn tiers_agree_bitwise_at_every_length(seed in 0u64..1_000_000) {
        let xs = inputs(MAX_LEN, seed);
        for (name, dispatched, on_tier) in elementwise() {
            for len in 0..=MAX_LEN {
                let want = apply(|v| on_tier(Tier::Portable, v), &xs[..len]);
                for &tier in Tier::host() {
                    let r = same(&apply(|v| on_tier(tier, v), &xs[..len]), &want);
                    prop_assert!(r.is_ok(), "{name} on {} len {len}: {r:?}", tier.name());
                }
                let r = same(&apply(dispatched, &xs[..len]), &want);
                prop_assert!(r.is_ok(), "{name} dispatched len {len}: {r:?}");
            }
        }
    }

    #[test]
    fn an_element_does_not_depend_on_its_slice(seed in 0u64..1_000_000) {
        let xs = inputs(MAX_LEN, seed);
        for (name, fast, _) in elementwise() {
            let full = apply(fast, &xs);
            for i in 0..MAX_LEN {
                // Alone, as the last element of a prefix, as the first of a suffix.
                let alone = same(&apply(fast, &xs[i..=i]), &full[i..=i]);
                prop_assert!(alone.is_ok(), "{name} element {i} alone: {alone:?}");
                let prefix = same(&apply(fast, &xs[..=i]), &full[..=i]);
                prop_assert!(prefix.is_ok(), "{name} prefix ..={i}: {prefix:?}");
                let suffix = same(&apply(fast, &xs[i..]), &full[i..]);
                prop_assert!(suffix.is_ok(), "{name} suffix {i}..: {suffix:?}");
            }
        }
    }

    #[test]
    fn softmax_tiers_agree_bitwise_at_every_length(seed in 0u64..1_000_000, rows in 1usize..4) {
        let mut rng = StdRng::seed_from_u64(seed);
        for cols in 0..=MAX_LEN {
            let data = inputs(rows * cols, seed.wrapping_add(cols as u64));
            let mask: Vec<f32> =
                (0..rows * cols).map(|_| if rng.gen_range(0..4u32) == 0 { MASK_NEG } else { 0.0 }).collect();
            for (scale, mask) in [(1.0f32, None), (0.25, None), (0.176_776_7, Some(mask.as_slice()))] {
                let mut a = data.clone();
                vmath::softmax_rows_scaled(&mut a, cols, scale, mask);
                for &tier in Tier::host() {
                    let mut b = data.clone();
                    on::softmax_rows_scaled(tier, &mut b, cols, scale, mask);
                    let r = same(&a, &b);
                    prop_assert!(r.is_ok(), "{} cols {cols} scale {scale}: {r:?}", tier.name());
                }
                // A row's result depends on the row alone, not on its block.
                if cols > 0 {
                    let mut first = data[..cols].to_vec();
                    vmath::softmax_rows_scaled(&mut first, cols, scale, mask.map(|m| &m[..cols]));
                    let r = same(&first, &a[..cols]);
                    prop_assert!(r.is_ok(), "cols {cols}: row alone vs in block: {r:?}");
                }
            }
        }
    }

    #[test]
    fn softmax_rows_are_distributions(seed in 0u64..1_000_000, cols in 1usize..200) {
        // Attention-shaped input: scores of a few units, a quarter masked,
        // position 0 always visible (a token sees itself).
        let mut rng = StdRng::seed_from_u64(seed);
        let scores: Vec<f32> = (0..cols).map(|_| rng.gen_range(-30.0f32..30.0)).collect();
        let mask: Vec<f32> = (0..cols)
            .map(|j| if j > 0 && rng.gen_range(0..4u32) == 0 { MASK_NEG } else { 0.0 })
            .collect();
        let scale = 0.25f32;
        let mut p = scores.clone();
        vmath::softmax_rows_scaled(&mut p, cols, scale, Some(&mask));

        let sum: f64 = p.iter().map(|&v| v as f64).sum();
        prop_assert!((sum - 1.0).abs() < 1e-6, "row sums to {sum}");
        let logit = |j: usize| (scores[j] * scale + mask[j]) as f64;
        let arg = (0..cols).max_by(|&a, &b| logit(a).total_cmp(&logit(b))).expect("non-empty");
        let best = p.iter().copied().fold(0.0f32, f32::max);
        prop_assert!(p[arg] == best, "argmax moved: p[{arg}] = {} < {best}", p[arg]);
        let z: f64 = (0..cols).map(|j| (logit(j) - logit(arg)).exp()).sum();
        for j in 0..cols {
            if mask[j] == MASK_NEG {
                prop_assert!(p[j].to_bits() == 0, "masked position {j} holds {:e}", p[j]);
            }
            let want = (logit(j) - logit(arg)).exp() / z;
            prop_assert!((p[j] as f64 - want).abs() < 1e-6, "p[{j}] = {} vs {want}", p[j]);
        }
    }
}

/// Softmax rows built where a wider body could part from the 8-lane one,
/// each `len` long, one after another: a max of `±0` (both signs present,
/// so which one wins depends on the reduction order), only `-0.0` at the
/// top, a NaN score, a `+inf` score, all `-inf`, and a quarter `-inf`.
fn adversarial_rows(len: usize, rng: &mut StdRng) -> Vec<f32> {
    let mut rows = Vec::new();
    for kind in 0..6 {
        let mut row: Vec<f32> = (0..len).map(|_| rng.gen_range(-12.0f32..-0.5)).collect();
        let mut at = || rng.gen_range(0..len);
        match kind {
            0 => {
                for _ in 0..len.div_ceil(8) {
                    row[at()] = 0.0;
                    row[at()] = -0.0;
                }
            }
            1 => row[at()] = -0.0,
            2 => row[at()] = f32::NAN,
            3 => row[at()] = f32::INFINITY,
            4 => row.fill(f32::NEG_INFINITY),
            _ => {
                for _ in 0..len.div_ceil(4) {
                    row[at()] = f32::NEG_INFINITY;
                }
            }
        }
        rows.extend(row);
    }
    rows
}

/// Masks for [`adversarial_rows`]' rows, in turn: a third `MASK_NEG`, a
/// third `-inf`, a third `-inf` and a NaN, and all `-inf` (which hides every
/// score).
fn adversarial_masks(len: usize, rows: usize, rng: &mut StdRng) -> Vec<f32> {
    let mut masks = Vec::new();
    for r in 0..rows {
        let hidden = if r % 4 == 0 { MASK_NEG } else { f32::NEG_INFINITY };
        let mut row: Vec<f32> =
            (0..len).map(|_| if rng.gen_range(0..3u32) == 0 { hidden } else { 0.0 }).collect();
        match r % 4 {
            2 => row[rng.gen_range(0..len)] = f32::NAN,
            3 => row.fill(f32::NEG_INFINITY),
            _ => {}
        }
        masks.extend(row);
    }
    masks
}

#[test]
fn softmax_tiers_hold_the_portable_bits_on_adversarial_rows() {
    // The AVX-512 softmax runs 16 lanes over the portable body's eight
    // ordered sum accumulators, and its max over 16 lanes in its own tree.
    // Held here to the 8-lane portable instantiation on the rows where that
    // could show — a ±0 max, NaN in a score or a mask, -inf rows and mask
    // entries — with and without a mask, at every length up to four 16-lane
    // arrays and at 166 and 192 (`bulk_wide`'s and the longest sequence).
    // The tiers run are printed: CI's log must say whether the 16-lane body
    // was held on that runner.
    let names: Vec<&str> = Tier::host().iter().map(|t| t.name()).collect();
    println!("softmax tiers held to the 8-lane portable bits on this host: {}", names.join(", "));
    let mut rng = StdRng::seed_from_u64(26);
    for len in (1..=64usize).chain([166, 192]) {
        let data = adversarial_rows(len, &mut rng);
        let mask = adversarial_masks(len, data.len() / len, &mut rng);
        for (scale, mask) in [(1.0f32, None), (0.204_124_15, None), (0.204_124_15, Some(&mask[..]))]
        {
            let mut want = data.clone();
            on::softmax_rows_scaled(Tier::Portable, &mut want, len, scale, mask);
            for &tier in Tier::host() {
                let mut got = data.clone();
                on::softmax_rows_scaled(tier, &mut got, len, scale, mask);
                let r = same(&got, &want);
                let masked = mask.is_some();
                assert!(r.is_ok(), "{} len {len} scale {scale} mask {masked}: {r:?}", tier.name());
            }
        }
    }
}

#[test]
fn softmax_of_degenerate_rows_is_defined() {
    let mut empty: [f32; 0] = [];
    vmath::softmax_row(&mut empty);
    vmath::softmax_rows(&mut empty, 0);

    let mut one = [-3.5f32];
    vmath::softmax_row(&mut one);
    assert_eq!(one, [1.0]);

    // No entry to favour: uniform, not NaN.
    let mut hidden = [f32::NEG_INFINITY; 5];
    vmath::softmax_row(&mut hidden);
    assert_eq!(hidden, [0.2; 5]);

    // -inf beside finite entries is an exact zero.
    let mut mixed = [f32::NEG_INFINITY, 0.0, 0.0];
    vmath::softmax_row(&mut mixed);
    assert_eq!(mixed, [0.0, 0.5, 0.5]);

    // A NaN poisons its own row only.
    let mut rows = [0.0, f32::NAN, 1.0, 1.0];
    vmath::softmax_rows(&mut rows, 2);
    assert!(rows[0].is_nan() && rows[1].is_nan());
    assert_eq!(rows[2..], [0.5, 0.5]);
}

/// `|got − want|` in units of the last place of `want` rounded to `f32`.
fn ulps(got: f32, want: f64) -> f64 {
    let w = want as f32;
    let ulp = (f32::from_bits(w.to_bits() + 1) as f64 - w as f64).abs();
    (got as f64 - want).abs() / ulp
}

/// `n` evenly spaced points of `[lo, hi]` followed by `n` random ones.
fn sweep(lo: f32, hi: f32, n: usize) -> Vec<f32> {
    let mut rng = StdRng::seed_from_u64(99);
    let step = (hi as f64 - lo as f64) / (n - 1) as f64;
    let grid = (0..n).map(|i| (lo as f64 + step * i as f64) as f32);
    grid.chain((0..n).map(|_| rng.gen_range(lo..hi))).collect()
}

#[test]
fn exp_is_within_two_ulps_of_f64() {
    let xs = sweep(-87.0, 88.0, 400_000);
    let ys = apply(vmath::exp, &xs);
    let worst = xs.iter().zip(&ys).map(|(&x, &y)| ulps(y, (x as f64).exp())).fold(0.0, f64::max);
    assert!(worst <= 2.0, "exp off by {worst} ulp");
}

#[test]
fn exp_saturates_exactly() {
    let xs = [
        -87.336_55f32,
        MASK_NEG,
        f32::NEG_INFINITY,
        88.73,
        1e9,
        f32::INFINITY,
        f32::NAN,
        0.0,
        -0.0,
    ];
    let ys = apply(vmath::exp, &xs);
    assert!(ys[..3].iter().all(|y| y.to_bits() == 0), "below the threshold is +0.0: {ys:?}");
    assert!(ys[3..6].iter().all(|&y| y == f32::INFINITY), "past 128 ln 2 is +inf: {ys:?}");
    assert!(ys[6].is_nan());
    assert_eq!(ys[7..], [1.0, 1.0]);
    // The last input before the threshold still gives a normal number.
    assert!(apply(vmath::exp, &[-87.336_54])[0] >= f32::MIN_POSITIVE);
}

#[test]
fn tanh_and_sigmoid_are_within_2e7_of_f64() {
    let xs = sweep(-20.0, 20.0, 200_000);
    for (&x, &y) in xs.iter().zip(&apply(vmath::tanh, &xs)) {
        assert!((y as f64 - (x as f64).tanh()).abs() <= 2e-7, "tanh({x}) = {y}");
        assert!(y.abs() <= 1.0);
    }
    for (&x, &y) in xs.iter().zip(&apply(vmath::sigmoid, &xs)) {
        let want = 1.0 / (1.0 + (-(x as f64)).exp());
        assert!((y as f64 - want).abs() <= 2e-7, "sigmoid({x}) = {y}");
    }
    let edge = apply(vmath::tanh, &[0.0, -0.0, 50.0, -50.0, f32::INFINITY, f32::NEG_INFINITY]);
    assert!(same(&edge, &[0.0, -0.0, 1.0, -1.0, 1.0, -1.0]).is_ok(), "{edge:?}");
}

fn gelu_f64(x: f64) -> f64 {
    0.5 * x * (1.0 + ((2.0 / std::f64::consts::PI).sqrt() * (x + 0.044_715 * x * x * x)).tanh())
}

#[test]
fn gelu_is_within_bound_of_f64_and_exact_in_the_tails() {
    let xs = sweep(-12.0, 12.0, 200_000);
    for (&x, &y) in xs.iter().zip(&apply(vmath::gelu, &xs)) {
        let bound = 4e-7 * x.abs().max(1.0) as f64;
        assert!((y as f64 - gelu_f64(x as f64)).abs() <= bound, "gelu({x}) = {y}");
    }
    let mut up = sweep(10.0, 1000.0, 10_000);
    up.extend([1e9, 1e30, f32::MAX, f32::INFINITY]);
    for (&x, &y) in up.iter().zip(&apply(vmath::gelu, &up)) {
        assert_eq!(y.to_bits(), x.to_bits(), "gelu({x}) must be x itself");
    }
    let mut down = sweep(-1000.0, -10.0, 10_000);
    down.extend([-1e9, -1e30, f32::MIN]);
    for (&x, &y) in down.iter().zip(&apply(vmath::gelu, &down)) {
        assert!(y == 0.0, "gelu({x}) = {y:e} must be a zero");
    }
}

#[test]
fn gelu_grad_matches_the_f64_derivative() {
    let xs = sweep(-12.0, 12.0, 50_000);
    let mut gs = vec![1.0f32; xs.len()];
    vmath::gelu_grad(&mut gs, &xs);
    for (&x, &g) in xs.iter().zip(&gs) {
        let h = 1e-6;
        let want = (gelu_f64(x as f64 + h) - gelu_f64(x as f64 - h)) / (2.0 * h);
        assert!(
            (g as f64 - want).abs() <= 2e-6 * x.abs().max(1.0) as f64,
            "gelu'({x}) = {g} vs {want}"
        );
    }
}
