//! Property tests pinning the blocked GEMM layer to the naive reference.
//!
//! The kernel layer's numerics policy (see `doduo_tensor::kernels`) is
//! *bit-identity*: blocked, small-path, and threaded results must equal
//! the naive loops exactly, not merely within a tolerance. These tests
//! therefore assert on `f32::to_bits` across randomly drawn ragged shapes,
//! with the degenerate edges (`k = 0`, one row, one column) forced into
//! the sampled distribution.

use doduo_tensor::kernels::{
    matmul_blocked, matmul_naive, matmul_nt_blocked, matmul_nt_naive, matmul_tn_blocked,
    matmul_tn_naive,
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
