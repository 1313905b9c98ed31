//! Property tests pinning the blocked GEMM layer to the naive reference.
//!
//! The kernel layer's numerics policy (see `doduo_tensor::kernels`) is
//! *bit-identity*: blocked, small-path and borrowed-panel results must
//! equal the naive loops exactly, not merely within a tolerance — on every vector
//! tier the host can run (`Tier::host()`), not only the one dispatch picks
//! here: on an AVX-512 host nothing else would reach the AVX2 tile, and on
//! neither would anything reach the portable one. These tests
//! therefore assert on `f32::to_bits` across randomly drawn ragged shapes,
//! with the degenerate edges (`k = 0`, one row, one column) forced into
//! the sampled distribution.
//!
//! The naive loops are themselves held to the contract's one arithmetic
//! step — `acc ← fma(a, b, acc)`, k increasing, one accumulator per element
//! — by `every_tier_is_fused`, on operands where a separately rounded
//! multiply and add would return different bits.

use doduo_tensor::kernels::{
    gemm_nn, gemm_nn_packed_on, gemm_nt, gemm_on, gemm_tn, matmul_blocked_on, matmul_naive,
    matmul_naive_on, matmul_nt_naive, matmul_tn_naive, microkernel_on, ATile, KBlock, Layout,
    PackedB, Tier, View, KC, MR, NC, NR,
};
use doduo_tensor::Tensor;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

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

/// Dimension strategy biased toward the edges the kernels must get right:
/// 0 (empty / `k = 0`), 1 (single row/column), tile-boundary sizes, and a
/// uniform ragged range that straddles the MR/NR tile grid.
fn dim() -> BoxedStrategy<usize> {
    prop_oneof![
        Just(0usize),
        Just(1usize),
        Just(5usize),
        Just(16usize),
        Just(17usize),
        2usize..130,
    ]
    .boxed()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn blocked_nn_matches_naive_bitwise_on_every_tier(m in dim(), k in dim(), n in dim(), seed in 0u64..1000) {
        let a = tensor(m, k, seed);
        let b = tensor(k, n, seed.wrapping_add(1));
        let want = matmul_naive(&a, &b);
        for &tier in Tier::host() {
            let got = matmul_blocked_on(tier, Layout::NN, &a, &b);
            prop_assert!(assert_bits_eq(&got, &want, tier.name()).is_ok());
        }
    }

    #[test]
    fn blocked_nt_matches_naive_bitwise_on_every_tier(m in dim(), k in dim(), n in dim(), seed in 0u64..1000) {
        let a = tensor(m, k, seed);
        let b = tensor(n, k, seed.wrapping_add(1));
        let want = matmul_nt_naive(&a, &b);
        for &tier in Tier::host() {
            let got = matmul_blocked_on(tier, Layout::NT, &a, &b);
            prop_assert!(assert_bits_eq(&got, &want, tier.name()).is_ok());
        }
    }

    #[test]
    fn blocked_tn_matches_naive_bitwise_on_every_tier(m in dim(), k in dim(), n in dim(), seed in 0u64..1000) {
        let a = tensor(k, m, seed);
        let b = tensor(k, n, seed.wrapping_add(1));
        let want = matmul_tn_naive(&a, &b);
        for &tier in Tier::host() {
            let got = matmul_blocked_on(tier, Layout::TN, &a, &b);
            prop_assert!(assert_bits_eq(&got, &want, tier.name()).is_ok());
        }
    }

    #[test]
    fn zero_rows_of_the_reduction_move_no_bit_on_any_tier(
        m in dim(), kept in 1usize..40, n in dim(), seed in 0u64..1000, stride in 1usize..9,
    ) {
        // What lets a training tape differentiate only the rows its loss
        // reads: in `Aᵀ G` (a weight gradient; attention's `dK`, `dV`) a
        // row of `G` that is exactly zero — of either sign — adds `±0.0` to
        // accumulators that start at `+0.0` and changes none of them, so
        // the product over the non-zero rows alone, in their order, has the
        // same bits. One live row in every `stride`; k reaches past `KC`.
        let k = kept * stride + stride / 2;
        let a = tensor(k, m, seed);
        let mut g = tensor(k, n, seed.wrapping_add(1));
        let live: Vec<usize> = (0..k).filter(|r| r % stride == stride / 2).collect();
        for r in (0..k).filter(|r| !live.contains(r)) {
            g.row_mut(r).fill(if r % 2 == 0 { 0.0 } else { -0.0 });
        }
        let pick = |t: &Tensor| {
            let data: Vec<f32> = live.iter().flat_map(|&r| t.row(r).iter().copied()).collect();
            Tensor::from_vec(live.len(), t.cols(), data)
        };
        let (a_kept, g_kept) = (pick(&a), pick(&g));
        for &tier in Tier::host() {
            let full = matmul_blocked_on(tier, Layout::TN, &a, &g);
            let pruned = matmul_blocked_on(tier, Layout::TN, &a_kept, &g_kept);
            prop_assert!(assert_bits_eq(&pruned, &full, tier.name()).is_ok());
        }
    }
}

/// Embeds `t` in a wider row-major buffer — `pad` rows above it and `pad`
/// columns on either side, all poisoned — and returns the buffer with its
/// row stride, so a [`View`] at `(pad, pad)` must read `t` and nothing else.
fn embedded(t: &Tensor, pad: usize) -> (Vec<f32>, usize) {
    let stride = t.cols() + 2 * pad;
    let mut buf = vec![f32::NAN; (t.rows() + pad) * stride];
    for r in 0..t.rows() {
        buf[(r + pad) * stride + pad..][..t.cols()].copy_from_slice(t.row(r));
    }
    (buf, stride)
}

#[test]
fn strided_entry_points_match_naive_on_both_sides_of_the_cutover() {
    // The `View` entry points attention and the dense layers call, at every
    // small shape: per-head products of 1..=40-token sequences sit on both
    // sides of the plain-loop / packed-kernel cut-over (by FLOPs, by row
    // count and by B's layout), and every one of them must produce the
    // naive loops' bits, inside a wider output it must not otherwise touch.
    type Gemm = fn(&mut [f32], usize, usize, (usize, usize, usize), View<'_>, View<'_>);
    type Naive = fn(&Tensor, &Tensor) -> Tensor;
    /// Entry point, its oracle, and the stored shapes of A and B.
    type Case = (&'static str, Gemm, Naive, (usize, usize), (usize, usize));
    const PAD: usize = 3;
    const SENTINEL: f32 = -7.5;
    for m in 1..=40usize {
        for n in 1..=40usize {
            for k in [1usize, 8, 24, 25] {
                let seed = (m * 41 + n) as u64 * 31 + k as u64;
                let cases: [Case; 3] = [
                    ("nn", gemm_nn, matmul_naive, (m, k), (k, n)),
                    ("nt", gemm_nt, matmul_nt_naive, (m, k), (n, k)),
                    ("tn", gemm_tn, matmul_tn_naive, (k, m), (k, n)),
                ];
                for (what, gemm, naive, a_shape, b_shape) in cases {
                    let a = tensor(a_shape.0, a_shape.1, seed);
                    let b = tensor(b_shape.0, b_shape.1, seed + 1);
                    let (a_buf, a_stride) = embedded(&a, PAD);
                    let (b_buf, b_stride) = embedded(&b, PAD);
                    let ldc = n + 2 * PAD;
                    let mut c = vec![SENTINEL; m * ldc];
                    for row in c.chunks_exact_mut(ldc) {
                        row[PAD..PAD + n].fill(0.0);
                    }
                    gemm(
                        &mut c,
                        ldc,
                        PAD,
                        (m, n, k),
                        View::at(&a_buf, a_stride, PAD, PAD),
                        View::at(&b_buf, b_stride, PAD, PAD),
                    );
                    let want = naive(&a, &b);
                    for (i, row) in c.chunks_exact(ldc).enumerate() {
                        let (left, rest) = row.split_at(PAD);
                        let (got, right) = rest.split_at(n);
                        assert!(
                            left.iter().chain(right).all(|&v| v == SENTINEL),
                            "{what} {m}x{n}x{k}: wrote outside its columns in row {i}"
                        );
                        for (j, (x, y)) in got.iter().zip(want.row(i)).enumerate() {
                            assert_eq!(x.to_bits(), y.to_bits(), "{what} {m}x{n}x{k} ({i},{j})");
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn packed_panels_match_per_call_packing_and_naive_bitwise() {
    // A dense layer over a borrowed `PackedB` against the same product with
    // B packed per call and against the naive loops: every row count up to
    // 40 (so every `m % MR` edge tile), widths on both sides of NR and NC,
    // depths on both sides of KC, A read through a strided view, C written
    // `PAD` columns into a wider output it must not otherwise touch — on
    // every tier of the host.
    const PAD: usize = 3;
    const SENTINEL: f32 = -7.5;
    for n in [1usize, 15, 16, 17, 96, 288, 530] {
        for k in [1usize, 24, 96, 257, 384] {
            let b = tensor(k, n, (n * 1000 + k) as u64);
            let panel = PackedB::pack(&b);
            assert_eq!(panel.shape(), (k, n));
            for m in 1..=40usize {
                let a = tensor(m, k, (m * 7919 + n * 31 + k) as u64);
                let (a_buf, a_stride) = embedded(&a, PAD);
                let a_view = View::at(&a_buf, a_stride, PAD, PAD);
                let want = matmul_naive(&a, &b);
                let ldc = n + 2 * PAD;
                let fresh = || {
                    let mut c = vec![SENTINEL; m * ldc];
                    for row in c.chunks_exact_mut(ldc) {
                        row[PAD..PAD + n].fill(0.0);
                    }
                    c
                };
                let check = |c: &[f32], what: &str| {
                    for (i, row) in c.chunks_exact(ldc).enumerate() {
                        let (left, rest) = row.split_at(PAD);
                        let (got, right) = rest.split_at(n);
                        assert!(
                            left.iter().chain(right).all(|&v| v == SENTINEL),
                            "{what} {m}x{n}x{k}: wrote outside its columns in row {i}"
                        );
                        for (j, (x, y)) in got.iter().zip(want.row(i)).enumerate() {
                            assert_eq!(x.to_bits(), y.to_bits(), "{what} {m}x{n}x{k} ({i},{j})");
                        }
                    }
                };
                let mut c = fresh();
                gemm_nn(&mut c, ldc, PAD, (m, n, k), a_view, View::of(&b));
                check(&c, "per-call");
                for &tier in Tier::host() {
                    let mut c = fresh();
                    gemm_nn_packed_on(tier, &mut c, ldc, PAD, m, a_view, &panel, None);
                    check(&c, tier.name());
                }
            }
        }
    }
}

#[test]
fn every_entry_point_writes_its_segment() {
    // `C = op(A) op(B) (+ b)`, not `C +=`: each entry point gets a target
    // segment full of NaN — which any read of C would carry into the result
    // — with sentinels in the columns around it, and must leave the naive
    // loops' bits (plus the bias, one add per element) in the segment and
    // every sentinel as it was. Shapes cover the plain loops (two rows
    // against an untransposed B, and a product under the FLOP floor), the
    // packed kernel with a ragged edge, several k-blocks (`k > KC`), several
    // column blocks (`n > NC`), an empty reduction (`k = 0`: the bias, or
    // zeros) and one of a full `MC` block of rows — on every tier, with and
    // without a bias; the dispatching forms and a borrowed panel too.
    const PAD: usize = 3;
    const SENTINEL: f32 = -7.5;
    for (m, n, k) in [
        (2, 40, 24),
        (3, 5, 4),
        (13, 37, 12),
        (19, 33, KC + 44),
        (7, NC + 18, 9),
        (5, 9, 0),
        (120, 160, 96),
    ] {
        let seed = (m * 1000 + n) as u64 + k as u64;
        let bias = tensor(1, n, seed + 7);
        let ldc = n + 2 * PAD;
        let run = |what: &str, bias: Option<&[f32]>, want: &Tensor, gemm: &dyn Fn(&mut [f32])| {
            let mut c = vec![SENTINEL; m * ldc];
            for row in c.chunks_exact_mut(ldc) {
                row[PAD..PAD + n].fill(f32::NAN);
            }
            gemm(&mut c);
            for (i, row) in c.chunks_exact(ldc).enumerate() {
                let (left, rest) = row.split_at(PAD);
                let (got, right) = rest.split_at(n);
                assert!(
                    left.iter().chain(right).all(|&v| v == SENTINEL),
                    "{what} {m}x{n}x{k}: wrote outside its segment in row {i}"
                );
                for (j, (x, &y)) in got.iter().zip(want.row(i)).enumerate() {
                    let y = bias.map_or(y, |b| y + b[j]);
                    assert_eq!(
                        x.to_bits(),
                        y.to_bits(),
                        "{what} {m}x{n}x{k} ({i},{j}): {x} vs {y}"
                    );
                }
            }
        };
        let cases = [
            (Layout::NN, (m, k), (k, n)),
            (Layout::NT, (m, k), (n, k)),
            (Layout::TN, (k, m), (k, n)),
        ];
        for (layout, a_shape, b_shape) in cases {
            let a = tensor(a_shape.0, a_shape.1, seed);
            let b = tensor(b_shape.0, b_shape.1, seed + 1);
            let want = matmul_naive_on(Tier::Portable, layout, &a, &b);
            let (av, bv) = (View::of(&a), View::of(&b));
            let dispatched = match layout {
                Layout::NN => gemm_nn,
                Layout::NT => gemm_nt,
                Layout::TN => gemm_tn,
            };
            run(&format!("{layout:?}"), None, &want, &|c| {
                dispatched(c, ldc, PAD, (m, n, k), av, bv)
            });
            let panel = (layout == Layout::NN).then(|| PackedB::pack(&b));
            for &tier in Tier::host() {
                for bias in [None, Some(bias.row(0))] {
                    let what = format!("{} {layout:?}", tier.name());
                    run(&what, bias, &want, &|c| {
                        gemm_on(tier, layout, c, ldc, PAD, (m, n, k), av, bv, bias)
                    });
                    if let Some(panel) = &panel {
                        run(&format!("{what} borrowed panel"), bias, &want, &|c| {
                            gemm_nn_packed_on(tier, c, ldc, PAD, m, av, panel, bias)
                        });
                    }
                }
            }
        }
    }
}

/// `b` (`[kc, nr]`) as `pack_b` lays it out: `ceil(nr / NR)` zero-padded
/// `[kc][NR]` panels, back to back.
fn b_panels(b: &Tensor) -> Vec<f32> {
    let (kc, nr) = b.shape();
    let mut bp = vec![0.0f32; nr.div_ceil(NR) * kc * NR];
    for p in 0..kc {
        for (j, &v) in b.row(p).iter().enumerate() {
            bp[((j / NR) * kc + p) * NR + j % NR] = v;
        }
    }
    bp
}

#[test]
fn edge_tiles_match_on_every_tier() {
    // Every micro-kernel instantiation — each exact row count, each tile
    // width up to the tier's widest (two B panels side by side on the tier
    // whose tile takes two), k on both sides of the unroll by 4 — on every
    // tier this host can run (dispatch reaches one of them; the others only
    // here), against the contract written out by hand: one `mul_add` per
    // step, k increasing. The tiers run are printed: CI's log must say
    // whether a runner had the zmm tile at all.
    //
    // A comes in every form its tier reads: the packed `[kc][MR]` panel,
    // whose unused lanes hold NaN, and — on the tier that reads A where it
    // lies — a row-major window (`lda > kc`) and a transposed one
    // (`lda > mr`) of a buffer that is NaN everywhere else. C outside the
    // tile is NaN too: a tile that read or wrote past its edge would show it.
    // And the tile runs as every k-block of a product: a later one, which
    // loads C; the first, which must not read it (C's tile is NaN then); and
    // either as the last, with a bias added on the store.
    const GAP: usize = 3;
    let names: Vec<&str> = Tier::host().iter().map(|t| t.name()).collect();
    println!("micro-kernel tiers exercised on this host: {}", names.join(", "));
    let widest = Tier::host().iter().map(|t| t.tile_width()).max().expect("a tier");
    let ldc = widest + 5;
    for mr in 1..=MR {
        for nr in 1..=widest {
            for kc in [1usize, 3, 4, 24, 96] {
                let seed = ((mr * 17 + nr) * 101 + kc) as u64;
                let (a, b, c0) =
                    (tensor(kc, mr, seed), tensor(kc, nr, seed + 1), tensor(mr, nr, seed + 2));
                let bias = tensor(1, nr, seed + 3);
                let bp = b_panels(&b);
                let mut packed = vec![f32::NAN; kc * MR];
                // `a` is stored `[kc, mr]`: the transposed window is `a` in a
                // wider buffer, the row-major one its transpose in one.
                let (lda_n, lda_t) = (kc + GAP, mr + GAP);
                let mut row_major = vec![f32::NAN; mr * lda_n];
                let mut transposed = vec![f32::NAN; kc * lda_t];
                for p in 0..kc {
                    packed[p * MR..p * MR + mr].copy_from_slice(a.row(p));
                    transposed[p * lda_t..p * lda_t + mr].copy_from_slice(a.row(p));
                    for i in 0..mr {
                        row_major[i * lda_n + p] = a.row(p)[i];
                    }
                }
                for &tier in Tier::host().iter().filter(|t| nr <= t.tile_width()) {
                    let mut forms = vec![("packed", ATile::packed(&packed))];
                    if tier.reads_a_in_place() {
                        forms.push(("row-major", ATile::strided(&row_major, lda_n, 1)));
                        forms.push(("transposed", ATile::strided(&transposed, 1, lda_t)));
                    }
                    let passes = [false, true].into_iter().flat_map(|first| {
                        [None, Some(bias.row(0))].map(|bias| KBlock { first, bias })
                    });
                    for ((form, a_tile), pass) in
                        forms.iter().flat_map(|&f| passes.clone().map(move |p| (f, p)))
                    {
                        let (first, biased) = (pass.first, pass.bias.is_some());
                        let what = format!(
                            "{} {form} A {mr}x{nr}x{kc} first {first} bias {biased}",
                            tier.name()
                        );
                        let mut c = vec![f32::NAN; MR * ldc];
                        if !pass.first {
                            for i in 0..mr {
                                c[i * ldc..i * ldc + nr].copy_from_slice(c0.row(i));
                            }
                        }
                        microkernel_on(tier, kc, a_tile, &bp, &mut c, ldc, mr, nr, pass);
                        for (i, row) in c.chunks_exact(ldc).enumerate() {
                            for (j, got) in row.iter().enumerate() {
                                if i < mr && j < nr {
                                    let mut want = if pass.first { 0.0 } else { c0.row(i)[j] };
                                    for p in 0..kc {
                                        want = a.row(p)[i].mul_add(b.row(p)[j], want);
                                    }
                                    if let Some(bias) = pass.bias {
                                        want += bias[j];
                                    }
                                    assert_eq!(got.to_bits(), want.to_bits(), "{what} ({i},{j})");
                                } else {
                                    assert!(got.is_nan(), "{what}: wrote ({i},{j})");
                                }
                            }
                        }
                    }
                }
            }
        }
    }
}

/// `[m, 2q]` and `[2q, n]` operands whose product tells a fused step from
/// an unfused one in every element: columns `2t` and `2t + 1` of A are the
/// same `x`, rows `2t` and `2t + 1` of B are `y` and `−y`. Rounding each
/// product before adding it, a pair adds `round(xy)` and takes it off again,
/// so every accumulator is back at exactly zero after every pair; fused,
/// the second step of the first pair leaves `round(xy) − xy` — the low half
/// of the product, which a separately rounded multiply never sees — and the
/// sum goes on from there.
fn cancelling_pairs(m: usize, n: usize, q: usize, seed: u64) -> (Tensor, Tensor) {
    let (x, y) = (tensor(m, q, seed), tensor(q, n, seed + 1));
    let mut a = Tensor::zeros(m, 2 * q);
    let mut b = Tensor::zeros(2 * q, n);
    for t in 0..q {
        for i in 0..m {
            a.row_mut(i)[2 * t..2 * t + 2].fill(x.row(i)[t]);
        }
        b.row_mut(2 * t).copy_from_slice(y.row(t));
        for (d, &v) in b.row_mut(2 * t + 1).iter_mut().zip(y.row(t)) {
            *d = -v;
        }
    }
    (a, b)
}

/// `A B` by the contract's step, written out: `acc ← fma(a, b, acc)` from
/// zero, k increasing. Checks on the way that these operands do tell the two
/// steps apart: the unfused chain ends at exactly zero, the fused one does not.
fn fused_product(a: &Tensor, b: &Tensor) -> Tensor {
    let mut want = Tensor::zeros(a.rows(), b.cols());
    for i in 0..a.rows() {
        for j in 0..b.cols() {
            let (mut fused, mut unfused) = (0.0f32, 0.0f32);
            for p in 0..a.cols() {
                fused = a.row(i)[p].mul_add(b.row(p)[j], fused);
                unfused += a.row(i)[p] * b.row(p)[j];
            }
            assert_eq!(unfused, 0.0, "({i},{j}): the unfused step cancels");
            assert_ne!(fused, 0.0, "({i},{j}): the fused step keeps the products' low halves");
            want.row_mut(i)[j] = fused;
        }
    }
    want
}

#[test]
fn every_tier_is_fused() {
    // The GEMM layer has one arithmetic step and it is a fused multiply-add.
    // Every route to it — each tier's tile, the whole loop nest under all
    // three layouts on both sides of the plain-loop cut-over, a borrowed
    // panel, and the naive loops everything
    // else is checked against, the portable instantiations' libm route
    // included — must return the fused bits on operands where the unfused
    // step returns exact zeros. The tiers held are printed for CI's log.
    let names: Vec<&str> = Tier::host().iter().map(|t| t.name()).collect();
    println!("tiers held to the fused oracle on this host: {}", names.join(", "));
    let eq = |got: &Tensor, want: &Tensor, what: &str| {
        if let Err(e) = assert_bits_eq(got, want, what) {
            panic!("{e}");
        }
    };
    for &tier in Tier::host() {
        let name = tier.name();
        // One tile: every row count, a narrow, a full and (where the tier
        // has one) a two-panel width, k past the unroll by 4.
        for mr in 1..=MR {
            for nr in
                [1, NR - 1, NR, NR + 1, 2 * NR].into_iter().filter(|&w| w <= tier.tile_width())
            {
                let (a, b) = cancelling_pairs(mr, nr, 3, (mr * 40 + nr) as u64);
                let want = fused_product(&a, &b);
                let kc = a.cols();
                let mut packed = vec![0.0f32; kc * MR];
                for p in 0..kc {
                    for i in 0..mr {
                        packed[p * MR + i] = a.row(i)[p];
                    }
                }
                let (bp, mut c) = (b_panels(&b), Tensor::zeros(mr, nr));
                let a = ATile::packed(&packed);
                let pass = KBlock { first: true, bias: None };
                microkernel_on(tier, kc, a, &bp, c.data_mut(), nr, mr, nr, pass);
                eq(&c, &want, &format!("{name} tile {mr}x{nr}"));
            }
        }
        // The loop nest and the naive loops, per layout: a blocked shape
        // with a ragged last tile, a shape on the plain loops (two rows for
        // `A B`, under the FLOP floor for the other two), and one of many
        // tiles in every direction.
        for (m, n, q) in [(13, 37, 12), (2, 37, 12), (3, 5, 4), (96, 160, 70)] {
            let (a, b) = cancelling_pairs(m, n, q, (m * 1000 + n) as u64);
            let want = fused_product(&a, &b);
            let (at, bt) = (a.transpose(), b.transpose());
            for (layout, a, b) in
                [(Layout::NN, &a, &b), (Layout::NT, &a, &bt), (Layout::TN, &at, &b)]
            {
                let what = format!("{name} {layout:?} {m}x{n}x{}", 2 * q);
                eq(&matmul_blocked_on(tier, layout, a, b), &want, &what);
                eq(&matmul_naive_on(tier, layout, a, b), &want, &format!("naive {what}"));
            }
            let panel = PackedB::pack(&b);
            let mut c = Tensor::zeros(m, n);
            gemm_nn_packed_on(tier, c.data_mut(), n, 0, m, View::of(&a), &panel, None);
            eq(&c, &want, &format!("{name} borrowed panel {m}x{n}x{}", 2 * q));
        }
    }
}
