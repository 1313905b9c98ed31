//! Pins the numerics to literals: the first tier-1 test that fails when a
//! value depends on the host rather than on (code, seed).
//!
//! Two digests, so a mismatch says where to look. The first covers the
//! in-repo transcendentals alone — `+ - * /` and bit casts on a fixed grid,
//! a pure function of `vmath`'s code on every host, vector tier and libm.
//! The second covers the bytes the system renders for `ci/smoke_table.json`
//! from the seeded synthetic world, f32 and int8: it also rides on weight
//! initialisation (`Tensor::randn` still calls libm's `ln`/`cos`), the GEMM
//! tiers and the JSON float formatting. Regenerate a literal only with a
//! change that means to move values, and name it in CHANGES.md.

use doduo_served::bootstrap::synthetic_world;
use doduo_served::validate::{offline_response, offline_response_quant};
use doduo_tensor::vmath;

fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes
        .into_iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ b as u64).wrapping_mul(0x100_0000_01b3))
}

#[test]
fn transcendental_kernels_match_their_pinned_digest() {
    // 4,001 points of [-20, 20] (exact multiples of 0.01 would not be
    // representable; i/100 rounds the same everywhere), a length that
    // leaves a tail behind the lane arrays.
    let grid: Vec<f32> = (-2000..=2000).map(|i| i as f32 / 100.0).collect();
    let mut out = Vec::new();
    for kernel in [vmath::exp, vmath::tanh, vmath::sigmoid, vmath::gelu, vmath::softmax_row] {
        let mut v = grid.clone();
        kernel(&mut v);
        out.extend(v);
    }
    let mut g = vec![1.0f32; grid.len()];
    vmath::gelu_grad(&mut g, &grid);
    out.extend(g);
    let digest = fnv1a(out.iter().flat_map(|v| v.to_bits().to_le_bytes()));
    assert_eq!(digest, 0x7739_6191_9a7a_5ea1, "vmath results moved: {digest:#018x}");
}

#[test]
fn smoke_table_annotation_matches_its_pinned_digest() {
    let world = synthetic_world(true, 42);
    let body = include_str!("../ci/smoke_table.json");
    let f32_bytes = offline_response(&world.bundle, body).expect("f32 annotate");
    let int8_bytes = offline_response_quant(&world.bundle, body).expect("int8 annotate");
    let digests = (fnv1a(f32_bytes.bytes()), fnv1a(int8_bytes.bytes()));
    assert_eq!(
        digests,
        (0xe4f0_19d8_e6be_21c0, 0x69ad_faf3_e570_c123),
        "(f32, int8) responses moved: {digests:#018x?}\nf32: {f32_bytes}\nint8: {int8_bytes}"
    );
}
