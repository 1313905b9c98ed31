//! Property tests pinning the blocked GEMM layer to the naive reference.
//!
//! The kernel layer's numerics policy (see `doduo_tensor::kernels`) is
//! *bit-identity*: blocked, small-path, and threaded results must equal
//! the naive loops exactly, not merely within a tolerance. These tests
//! therefore assert on `f32::to_bits` across randomly drawn ragged shapes,
//! with the degenerate edges (`k = 0`, one row, one column) forced into
//! the sampled distribution.

use doduo_tensor::kernels::{
    gemm_nn, gemm_nt, gemm_tn, matmul_blocked, matmul_naive, matmul_nt_blocked, matmul_nt_naive,
    matmul_tn_blocked, matmul_tn_naive, View,
};
use doduo_tensor::{matmul, matmul_nt, matmul_tn, QuantizedLinear, Tensor};
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
    fn blocked_nn_matches_naive_bitwise(m in dim(), k in dim(), n in dim(), seed in 0u64..1000) {
        let a = tensor(m, k, seed);
        let b = tensor(k, n, seed.wrapping_add(1));
        prop_assert!(assert_bits_eq(&matmul_blocked(&a, &b, 1), &matmul_naive(&a, &b), "nn").is_ok());
    }

    #[test]
    fn blocked_nt_matches_naive_bitwise(m in dim(), k in dim(), n in dim(), seed in 0u64..1000) {
        let a = tensor(m, k, seed);
        let b = tensor(n, k, seed.wrapping_add(1));
        prop_assert!(
            assert_bits_eq(&matmul_nt_blocked(&a, &b, 1), &matmul_nt_naive(&a, &b), "nt").is_ok()
        );
    }

    #[test]
    fn blocked_tn_matches_naive_bitwise(m in dim(), k in dim(), n in dim(), seed in 0u64..1000) {
        let a = tensor(k, m, seed);
        let b = tensor(k, n, seed.wrapping_add(1));
        prop_assert!(
            assert_bits_eq(&matmul_tn_blocked(&a, &b, 1), &matmul_tn_naive(&a, &b), "tn").is_ok()
        );
    }

    #[test]
    fn blocked_is_thread_count_invariant(m in dim(), k in dim(), n in dim(), seed in 0u64..1000) {
        // Row-stripe threading must not change a single bit, whatever the
        // requested worker count.
        let a = tensor(m, k, seed);
        let b = tensor(k, n, seed.wrapping_add(1));
        let one = matmul_blocked(&a, &b, 1);
        for threads in [2usize, 3, 7, 16] {
            prop_assert!(
                assert_bits_eq(&matmul_blocked(&a, &b, threads), &one, "threads").is_ok()
            );
        }
    }

    #[test]
    fn quantized_forward_is_thread_count_invariant(m in dim(), k in dim(), n in dim(), seed in 0u64..1000) {
        // The int8 layer shares the f32 GEMM's threading contract: each
        // output row is quantized and reduced independently, so any worker
        // count must reproduce the single-threaded scalar oracle's bits.
        let x = tensor(m, k, seed);
        let w = tensor(k, n, seed.wrapping_add(1));
        let bias = tensor(1, n, seed.wrapping_add(2));
        let q = QuantizedLinear::from_f32(&w, &bias);
        let one = q.forward_scalar(&x);
        for threads in [2usize, 3, 7, 16] {
            prop_assert!(
                assert_bits_eq(&q.forward_with_threads(&x, threads), &one, "quant threads").is_ok()
            );
        }
    }

    #[test]
    fn dispatching_entry_points_match_naive_bitwise(m in dim(), k in dim(), n in dim(), seed in 0u64..1000) {
        // The public matmuls pick naive vs blocked by size; either branch
        // must produce the naive bits.
        let a = tensor(m, k, seed);
        let b = tensor(k, n, seed.wrapping_add(1));
        prop_assert!(assert_bits_eq(&matmul(&a, &b), &matmul_naive(&a, &b), "nn").is_ok());
        let bt = b.transpose();
        prop_assert!(assert_bits_eq(&matmul_nt(&a, &bt), &matmul_nt_naive(&a, &bt), "nt").is_ok());
        let at = a.transpose();
        prop_assert!(assert_bits_eq(&matmul_tn(&at, &b), &matmul_tn_naive(&at, &b), "tn").is_ok());
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
