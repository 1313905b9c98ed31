//! Cache-blocked, register-tiled GEMM kernels.
//!
//! Every forward and backward pass in this reproduction bottoms out in one
//! of three matmul variants (`C = A B`, `C = A Bᵀ`, `C = Aᵀ B`), each with
//! an optional bias epilogue (`C = A B + b`, a dense layer). Every entry
//! point *writes* its `m`×`n` segment of C — whatever the segment held is
//! never read — so callers hand over uninitialised arena buffers instead of
//! zero-filling them, and a dense layer's bias rides on the store of the
//! last k-block instead of a second pass over C. This module implements
//! them BLIS-style: operands are laid out as
//! cache-resident panels ([`KC`]×[`NC`] for B, [`MC`]×[`KC`] for A on the
//! tiers that pack it), and a register micro-kernel computes an output tile
//! of up to [`MR`]×[`NR`] per iteration of the packed k loop — instantiated
//! for every row count
//! `1..=MR`, so the last row panel of a product multiplies its real rows
//! only (19 rows are three full tiles and a 1-row one, not four full ones
//! with five rows of zeros).
//!
//! One blocked loop nest (`gemm_blocked`) serves two sources of B panels:
//!
//! * **packed per call** into the calling thread's scratch — any operand
//!   that may differ next call: a training tape's weights (they move every
//!   optimizer step), attention's per-head `K` and `V`, backward products;
//! * **borrowed** from a [`PackedB`] — a constant `[k, n]` matrix packed
//!   once into exactly the sequence of panels the loop nest consumes. The
//!   serving executor's dense layers multiply by the store's weights this
//!   way ([`crate::ParamStore::panel`]), which removes an O(kn) re-layout
//!   of a constant from every call — at 19 rows, a quarter of a dense
//!   layer's time — and lets every engine thread share one copy.
//!
//! Same micro-kernel, same k order, one accumulator per element, one fused
//! multiply-add per step: the two sources produce the same bits.
//!
//! On top sits a shape heuristic that falls back to the plain loops where
//! the packed kernel's overhead would dominate: products
//! under `BLOCKED_MIN_FLOPS` (2^11), and products of at most
//! `SMALL_MAX_ROWS` (2) rows against an untransposed B (packing it would
//! cost more than the product; and a matrix that only ever sees so few rows
//! is not worth the memory of a panel either).
//!
//! # Vector tiers
//!
//! The micro-kernel exists on three [`Tier`]s, chosen by what the CPU
//! reports and nothing else ([`Tier::detect`]; no flag, feature or variable):
//!
//! * **portable** and **AVX2** are one Rust body (`accumulate_tile`) that
//!   LLVM vectorises over the `NR` lanes, compiled for the baseline target
//!   and again under `#[target_feature(enable = "avx2,fma")]` (12 ymm
//!   accumulators, each k step of a row a broadcast and two `vfmadd231ps`).
//!   They read A from panels `pack_a` lays out.
//! * **AVX-512** (F + VL + DQ + BW, over AVX2 + FMA) is written with
//!   `std::arch` intrinsics: a row of `NR` = 16 floats is one zmm register,
//!   and the tile spans **two adjacent `NR` panels** of the one panel layout
//!   — 6×32, twelve accumulators, each k step two row loads of B and per
//!   tile row a broadcast and two `vfmadd231ps`. Twelve because a fused
//!   step has four cycles of latency and two ports to issue on, so eight
//!   independent chains are the least that keep them busy and the six of a
//!   6×16 tile cannot (ISSUE 22's prototype: `bulk_narrow` 1.25x with the
//!   fused one-panel tile, 1.45x with two panels). An odd last panel takes
//!   the one-panel tile, and `nr < 16` edges stay masked. It is *not*
//!   the shared body compiled a third time — under `avx512f` LLVM
//!   vectorises that body across rows with gathers and scatters and the
//!   fused QKV product at 166 rows goes from 222 to 3,271 µs. Its A operand
//!   is an [`ATile`] — a slice, a row stride and a k stride — so it reads a
//!   row-major or a transposed operand where it lies and `pack_a` is not
//!   called at all: the A side of the thread's scratch stays empty on this
//!   tier. (Attention's `P·V` re-laid-out the `[len, len]` probabilities
//!   once per head: 41 of its 152 µs at 166 tokens.)
//!
//! `MR`, `NR`, `KC`, `NC`, `pack_b`, [`PackedB`] and the loop nest are the
//! same on every tier; a tier changes only how one tile's rank-1 updates
//! are issued, never their order. Each tier stays callable by name
//! ([`microkernel_on`], [`gemm_on`], [`matmul_blocked_on`],
//! [`gemm_nn_packed_on`], [`matmul_naive_on`]) so the property tests hold
//! every tier of the host to the contract, not only the dispatched one.
//!
//! `gemm_nn_packed`, µs on one core of a Sapphire Rapids host (best of 60
//! interleaved rounds; GMAC/s in brackets). `unfused` is the AVX-512 6×16
//! tile this replaced, timed in the same session: 16 MAC/cycle, what two
//! 512-bit ports give when every MAC is a `vmulps` *and* a `vaddps`.
//!
//! ```text
//!             166×96×384   166×384×96   166×96×96   52×96×384   19×96×384
//! unfused     123.8 (49)   116.4 (53)   30.0 (51)   38.4 (50)   15.6 (45)
//! avx512       66.1 (93)    62.6 (98)   16.4 (93)   20.2 (95)    8.4 (84)
//! avx2        123.5 (50)   120.8 (51)   33.3 (46)   38.2 (50)   15.8 (44)
//! portable   16,700 (0.4)
//! ```
//!
//! The portable row is what x86-64 without the FMA instruction pays: one
//! libm call per multiply-add, over a hundred times the AVX2 tier's time
//! (and on a CPU that really lacks the instruction, `fmaf` is software on
//! top of that). It is there to be correct — a pre-Haswell x86, or a VM
//! that hides `fma` — not to be fast; aarch64 fuses at baseline (`fmla`)
//! and its portable tier vectorises.
//!
//! # Numerics policy: bit-identical, one fused step
//!
//! The whole GEMM layer has **one arithmetic step**,
//! `acc ← fusedMultiplyAdd(a, b, acc)`: the exact product plus the
//! accumulator, rounded once. Every route keeps exactly **one accumulator
//! per output element** and walks the k dimension in increasing order — the
//! micro-kernel tiles, `gemm_small` and the naive loops run the same
//! operation sequence (Rust/LLVM never reassociates float arithmetic
//! without fast-math). Each accumulator starts at `+0.0`: the first [`KC`]
//! block of a product starts its register tile there without reading C (the
//! bits a zero-filled C would have loaded), and every later block preserves
//! the order by loading the partial output tile into registers instead of
//! summing blocks separately ([`KBlock`]). A bias is one separately
//! rounded add of the finished sum, on the last block's store — never
//! folded into a fused step — so `A B + b` has the bits of the product
//! followed by a bias pass.
//!
//! The step is the same on every host because IEEE 754 specifies
//! `fusedMultiplyAdd` exactly and `f32::mul_add` *is* that operation on
//! every target: one `vfmadd` where the enclosing function enables `fma`
//! (the AVX2 instantiations, and `_mm512_fmadd_ps` on the zmm tile), libm's
//! correctly rounded `fmaf` where it does not. So a tier with the
//! instruction and one without agree to the last bit, exactly as they did
//! when the step was a separately rounded multiply and add — what may not
//! happen is a *mix* of the two steps, which is why nothing selects between
//! them and `gemm_props::every_tier_is_fused` runs every route on operands
//! where the unfused step returns different bits. Consequently
//! `blocked == naive` **bitwise**, on every tier — the serving equivalence
//! tests keep their byte-identical contract, and the property tests in
//! `tests/gemm_props.rs` assert exact bit equality rather than a tolerance.
//!
//! Fusing stops at this module's edge. [`crate::vmath`], LayerNorm's
//! statistics and softmax's row sums stay separately rounded `+ − × ÷`
//! (their digest in `tests/numerics_pin.rs` did not move when the GEMM step
//! was fused): their cost is not multiply-add throughput, and their bit
//! contracts — a polynomial's coefficients tuned for two roundings, a fixed
//! lane-wise reduction tree — would each need re-deriving and re-pinning for
//! no measured gain. The int8 kernels accumulate integers and dequantise in
//! one separately rounded multiply and add, as before.
//!
//! # Threading
//!
//! Every product runs on the thread that calls it. The cores belong to the
//! outer loops: training and evaluation parallelize at the table level
//! ([`crate::parallel_map`]) and serving at the micro-batch level
//! (`BatchAnnotator`: the calling thread plus `threads − 1` scoped
//! workers) — and a thread that keeps calling keeps its packing panels warm.

use crate::tensor::Tensor;
use std::cell::RefCell;
use std::sync::OnceLock;

/// Rows of the micro-kernel register tile.
pub const MR: usize = 6;
/// Columns of a B micro-panel, and of the register tile on the two
/// autovectorised tiers: two AVX vectors, so the `MR`×`NR` accumulator
/// occupies 12 of the 16 ymm registers on the AVX2 tier (leaving room for
/// the B panel loads and the A broadcast). It is one AVX-512 vector, and
/// that tier's tile spans two panels ([`Tier::tile_width`]): 12 of the 32
/// zmm registers.
pub const NR: usize = 16;
/// k-dimension cache block: packed panels span at most `KC` of k, sized so
/// an `NR`×`KC` B sliver stays L1-resident.
pub const KC: usize = 256;
/// n-dimension cache block (multiple of [`NR`]): a `KC`×`NC` packed B
/// panel targets L2/L3 residency.
pub const NC: usize = 512;
/// m-dimension cache block (multiple of [`MR`]): a `MC`×`KC` packed A
/// block targets L2 residency; sized so the encoder's row counts (≤ 192
/// tokens per sequence) need at most two blocks.
pub const MC: usize = 120;

/// Work floor below which the entry points use the plain loops: packing
/// touches O(mn + mk + kn) memory, which only pays off once the O(mnk)
/// kernel work dwarfs it. Sized by timing [`gemm_small`] against the packed
/// kernel with warm thread-local panels on attention's per-head shapes
/// (`len`×`len`×24 and `len`×24×`len`), both sides on the fused step (the
/// plain loops run their 8-lane `avx2,fma` instantiation on either tier).
/// Plain vs packed, µs a call:
///
/// ```text
/// len (FLOPs)        3 (432)      4 (768)      5 (1,200)    6 (1,728)    7 (2,352)    8 (3,072)
/// avx2    A Bᵀ     0.13 / 0.17  0.23 / 0.19  0.35 / 0.21  0.49 / 0.23  0.64 / 0.30  0.93 / 0.31
///         A B      0.05 / 0.11  0.08 / 0.12  0.11 / 0.15  0.15 / 0.18  0.25 / 0.23  0.31 / 0.24
///         Aᵀ B     0.05 / 0.10  0.08 / 0.11  0.11 / 0.13  0.15 / 0.16  0.21 / 0.22  0.31 / 0.22
/// avx512  A Bᵀ     0.13 / 0.15  0.23 / 0.16  0.36 / 0.17  0.40 / 0.13  0.50 / 0.17  0.69 / 0.17
///         A B      0.05 / 0.08  0.08 / 0.08  0.11 / 0.09  0.12 / 0.09  0.19 / 0.10  0.25 / 0.11
///         Aᵀ B     0.05 / 0.07  0.08 / 0.08  0.11 / 0.10  0.12 / 0.08  0.19 / 0.10  0.24 / 0.11
/// ```
///
/// `A Bᵀ` crosses at about 800 FLOPs on both tiers, where it crossed on the
/// unfused kernels (its plain loop is a dependent chain either way). The
/// other two layouts cross at about 2,200 on AVX2 (it was 4,500: the packed
/// tile gained more from fusing than the 8-lane plain loop did) and about
/// 1,000 on AVX-512 (it was 1,500). 2^11 still sits between the crossovers
/// on either tier — on AVX2's, as it happens — and what a different cut
/// would recover is ≤ 0.3 µs a call on 5- and 6-token sequences: one value
/// serves all tiers, unchanged.
const BLOCKED_MIN_FLOPS: usize = 1 << 11;

/// Row count up to which a product against an untransposed B stays on the
/// plain loops whatever its size. When B is packed per call the reason is
/// time: packing costs O(kn) — about what three rows of [`gemm_small`]'s
/// vector multiply-adds cost. Warm timing on the fused kernels, `m`×96×96 /
/// `m`×96×384 / `m`×384×96, plain vs. packed per call, µs:
///
/// ```text
///          avx2                                        avx512
/// 2 rows   0.9 vs 2.2 /  4.5 vs  9.0 /  8.3 vs 11.8    0.9 vs 1.8 /  5.1 vs  9.5 /  5.3 vs 8.8
/// 3 rows   1.3 vs 2.5 /  6.8 vs  9.2 / 11.6 vs 10.5    1.4 vs 2.0 /  8.7 vs  9.6 /  8.4 vs 8.8
/// 4 rows   1.7 vs 2.8 /  9.6 vs 10.2 / 12.9 vs  9.9    1.8 vs 2.0 / 12.9 vs 11.2 / 10.4 vs 8.4
/// 5 rows   2.5 vs 2.9 / 11.6 vs 10.6 / 17.9 vs 12.9    2.7 vs 2.5 / 18.2 vs 13.6 / 14.2 vs 9.7
/// ```
///
/// The per-call crossover moved up by about a row (unfused, three rows were
/// a tie; now the plain loops lead there by up to 2.4 µs and lose from four
/// rows): the plain loops went from four separately rounded lanes to eight
/// fused ones, and packing B did not get cheaper. The constant did not
/// follow, because it is also the borrowed-panel floor below, where three
/// rows are 3–5x ahead on the panel; what a second constant would recover is
/// those ≤ 2.4 µs on a training tape's 3-row products.
///
/// When B is a borrowed [`PackedB`] the reason is memory. Nothing is packed
/// but `m` rows of A and the edge tile multiplies exactly `m` rows, so the
/// packed kernel is ahead from two rows up on AVX2 and from one on AVX-512
/// (plain vs borrowed, same shapes: AVX2 1 row 0.5 vs 0.7 / 2.5 vs 2.8 /
/// 3.3 vs 3.6, 2 rows 0.9 vs 0.6 / 4.5 vs 2.3 / 8.3 vs 3.5, 3 rows 1.3 vs
/// 0.7 / 6.8 vs 2.6 / 11.6 vs 3.1; AVX-512 1 row 0.7 vs 0.4 / 2.3 vs 1.2 /
/// 3.3 vs 1.6, 2 rows 0.9 vs 0.4 / 5.1 vs 1.5 / 5.3 vs 1.7, 3 rows 1.4 vs
/// 0.4 / 8.7 vs 2.6 / 8.4 vs 1.6) — but asking for the panel builds it. At
/// two rows that is the whole top block of a ≤ 2-column table (`wo`, `w1`,
/// `w2`: about 8 µs of a ~190 µs call) plus its classification heads
/// (3 µs), against 0.33 MB + 0.2 MB of panels — a twentieth of a serving
/// process that only ever sees such tables — for one call in twenty-five.
/// So [`gemm_nn_dense`] applies the same floor to both sources, and a
/// matrix that only ever sees one or two rows never gets a panel.
const SMALL_MAX_ROWS: usize = 2;

// ---------------------------------------------------------------------------
// Matrix views
// ---------------------------------------------------------------------------

/// Read-only strided view used to feed packing: element `(r, c)` lives at
/// `data[off + r * stride + c]`. Lets the forward backends run GEMM over
/// column slices (per-head Q/K/V panels, fused QKV segments) without
/// copying them out.
#[derive(Clone, Copy)]
pub struct View<'a> {
    data: &'a [f32],
    off: usize,
    stride: usize,
}

impl<'a> View<'a> {
    /// Whole-tensor view.
    pub fn of(t: &'a Tensor) -> Self {
        View { data: t.data(), off: 0, stride: t.cols() }
    }

    /// View starting at `(row0, col0)` of a row-major buffer.
    pub fn at(data: &'a [f32], stride: usize, row0: usize, col0: usize) -> Self {
        View { data, off: row0 * stride + col0, stride }
    }

    /// Contiguous slice `[c0, c1)` of row `r`.
    #[inline(always)]
    fn row(&self, r: usize, c0: usize, c1: usize) -> &[f32] {
        &self.data[self.off + r * self.stride + c0..self.off + r * self.stride + c1]
    }
}

/// A GEMM operand: a [`View`] taken as-is or logically transposed. The
/// packers pick the loop order whose reads are contiguous for each case,
/// which is what makes packing cheap enough for encoder-sized matrices.
#[derive(Clone, Copy)]
pub(crate) enum Src<'a> {
    /// Element `(r, c)` is `view[(r, c)]`.
    N(View<'a>),
    /// Element `(r, c)` is `view[(c, r)]`.
    T(View<'a>),
}

// ---------------------------------------------------------------------------
// Packing
// ---------------------------------------------------------------------------

/// Packs `mc` rows × `kc` k's of A (rows `i0..`, k's `p0..`) into
/// `ceil(mc / MR)` micro-panels, each laid out p-major `[kc][MR]`. A short
/// last panel keeps the `MR` stride and leaves its unused lanes as they
/// were: the micro-kernel is instantiated for the exact row count and never
/// reads them. The loop order follows the operand layout so reads are
/// always contiguous.
#[inline]
fn pack_a(buf: &mut [f32], src: Src<'_>, i0: usize, mc: usize, p0: usize, kc: usize) {
    for pi in 0..mc.div_ceil(MR) {
        let i_start = i0 + pi * MR;
        let rows = MR.min(i0 + mc - i_start);
        let panel = &mut buf[pi * kc * MR..(pi + 1) * kc * MR];
        match src {
            // A as given is row-major `[m, k]`: walk each of the MR rows
            // contiguously, scattering into the p-major panel.
            Src::N(v) => {
                for i in 0..rows {
                    let row = v.row(i_start + i, p0, p0 + kc);
                    for (p, &x) in row.iter().enumerate() {
                        panel[p * MR + i] = x;
                    }
                }
            }
            // Aᵀ: the stored matrix is `[k, m]`, so for each p the MR
            // values are adjacent — read and write contiguously.
            Src::T(v) => {
                for p in 0..kc {
                    let row = v.row(p0 + p, i_start, i_start + rows);
                    panel[p * MR..p * MR + rows].copy_from_slice(row);
                }
            }
        }
    }
}

/// Packs `kc` k's × `nc` columns of B (k's `p0..`, columns `j0..`) into
/// `ceil(nc / NR)` micro-panels, each laid out p-major `[kc][NR]`,
/// zero-padding columns past `nc`. Like [`pack_a`], the loop order keeps
/// reads contiguous for both layouts.
#[inline]
fn pack_b(buf: &mut [f32], src: Src<'_>, p0: usize, kc: usize, j0: usize, nc: usize) {
    for pj in 0..nc.div_ceil(NR) {
        let j_start = j0 + pj * NR;
        let cols = NR.min(j0 + nc - j_start);
        let panel = &mut buf[pj * kc * NR..(pj + 1) * kc * NR];
        match src {
            // B as given is row-major `[k, n]`: row p supplies the panel's
            // p-th NR-slot directly.
            Src::N(v) => {
                for p in 0..kc {
                    let row = v.row(p0 + p, j_start, j_start + cols);
                    panel[p * NR..p * NR + cols].copy_from_slice(row);
                }
            }
            // Bᵀ: the stored matrix is `[n, k]`; walk each of its rows
            // (one output column) contiguously, scattering across slots.
            Src::T(v) => {
                for j in 0..cols {
                    let row = v.row(j_start + j, p0, p0 + kc);
                    for (p, &x) in row.iter().enumerate() {
                        panel[p * NR + j] = x;
                    }
                }
            }
        }
        if cols < NR {
            for p in 0..kc {
                for d in &mut panel[p * NR + cols..(p + 1) * NR] {
                    *d = 0.0;
                }
            }
        }
    }
}

/// A constant `[k, n]` B operand packed once, in exactly the order the
/// blocked driver consumes it: for each [`NC`] column block, for each
/// [`KC`] block of k, the `ceil(nc / NR)` zero-padded `[kc][NR]`
/// micro-panels `pack_b` would have written into the thread's scratch on
/// every call. A product that borrows one skips that packing, and every
/// thread that borrows it shares the one copy.
///
/// Immutable: a `PackedB` is a snapshot of the matrix it was packed from.
/// Whoever caches one owns dropping it when that matrix changes (see
/// [`crate::ParamStore::panel`]).
#[derive(Debug)]
pub struct PackedB {
    k: usize,
    n: usize,
    /// The panels, from `data[start..]`, with up to a cache line of slack.
    data: Vec<f32>,
    /// First float of `data` on a 64-byte boundary. The micro-kernel reads
    /// a panel as rows of `NR` floats — exactly one line — in two 32-byte
    /// loads; from a merely 16-byte-aligned allocation every other load
    /// straddles two lines, which costs a dense layer 7–10% at any row
    /// count (measured: 85 → 78 µs per encoder layer at 19 rows, 745 → 690
    /// at 166). `data` is never reallocated, so the offset stays right.
    start: usize,
}

impl PackedB {
    /// Packs the `[k, n]` matrix `b`.
    pub fn pack(b: &Tensor) -> Self {
        let (k, n) = b.shape();
        const LINE: usize = 64 / std::mem::size_of::<f32>();
        let mut data = vec![0.0f32; k * n.div_ceil(NR) * NR + LINE - 1];
        let start = data.as_ptr().align_offset(64) % LINE;
        for jc in (0..n).step_by(NC) {
            let nc = NC.min(n - jc);
            for pc in (0..k).step_by(KC) {
                let kc = KC.min(k - pc);
                let block = &mut data[Self::block_range(start, k, (jc, pc), (nc, kc))];
                pack_b(block, Src::N(View::of(b)), pc, kc, jc, nc);
            }
        }
        PackedB { k, n, data, start }
    }

    /// `(k, n)` of the matrix this was packed from.
    pub fn shape(&self) -> (usize, usize) {
        (self.k, self.n)
    }

    /// Bytes of packed panel held.
    pub fn bytes(&self) -> usize {
        self.data.len() * std::mem::size_of::<f32>()
    }

    /// Where the `nc`-column, `kc`-deep block at `(jc, pc)` lives in `data`:
    /// every earlier column block is a full `NC` (a multiple of `NR`) wide
    /// over all of k, and this block's earlier k blocks are each `KC` deep
    /// over its padded width.
    fn block_range(
        start: usize,
        k: usize,
        (jc, pc): (usize, usize),
        (nc, kc): (usize, usize),
    ) -> std::ops::Range<usize> {
        let width = nc.div_ceil(NR) * NR;
        let at = start + jc * k + pc * width;
        at..at + width * kc
    }

    /// The `nc`-column, `kc`-deep block at `(jc, pc)`.
    fn block(&self, jc: usize, pc: usize, nc: usize, kc: usize) -> &[f32] {
        &self.data[Self::block_range(self.start, self.k, (jc, pc), (nc, kc))]
    }
}

/// Where the blocked driver takes its B panels from.
#[derive(Clone, Copy)]
enum BSrc<'a> {
    /// Packed into the calling thread's scratch, per `(jc, pc)` block, on
    /// every call: operands that change between calls (a training tape's
    /// weights, attention's per-head K and V, backward products).
    Pack(Src<'a>),
    /// Borrowed from a panel packed once: a constant weight.
    Panels(&'a PackedB),
}

// ---------------------------------------------------------------------------
// Micro-kernel
// ---------------------------------------------------------------------------

/// The rank-1 update loop shared by the two autovectorised micro-kernel
/// instantiations: folds `kc` outer products from the packed panels into the
/// `M`-row register tile, k in increasing order, one accumulator per
/// element, each step one `mul_add` — the bit-identity contract. The A panel
/// keeps its [`MR`] stride whatever `M` is. All loop bounds are compile-time
/// constants so LLVM promotes `acc` to registers (SROA) and vectorizes the
/// `NR` lanes: `vfmadd231ps` where the enclosing function enables `fma`, a
/// call to libm's `fmaf` per element where it does not — the same correctly
/// rounded result either way, so the operation sequence per element is
/// exactly the naive loops'.
#[inline(always)]
fn accumulate_tile<const M: usize>(kc: usize, ap: &[f32], bp: &[f32], acc: &mut [[f32; NR]; M]) {
    #[inline(always)]
    fn step<const M: usize>(a: &[f32], b: &[f32], acc: &mut [[f32; NR]; M]) {
        let a: &[f32; MR] = a.try_into().expect("MR chunk");
        let b: &[f32; NR] = b.try_into().expect("NR chunk");
        for i in 0..M {
            let aip = a[i];
            for j in 0..NR {
                acc[i][j] = aip.mul_add(b[j], acc[i][j]);
            }
        }
    }
    // Unroll k by 4 (plain unrolling: each element still sees its products
    // strictly in increasing-k order, so bit-identity is unaffected).
    let k4 = kc / 4 * 4;
    let (a4, b4) = (&ap[..k4 * MR], &bp[..k4 * NR]);
    for (a, b) in a4.chunks_exact(4 * MR).zip(b4.chunks_exact(4 * NR)) {
        for u in 0..4 {
            step(&a[u * MR..(u + 1) * MR], &b[u * NR..(u + 1) * NR], acc);
        }
    }
    for (a, b) in ap[k4 * MR..kc * MR].chunks_exact(MR).zip(bp[k4 * NR..kc * NR].chunks_exact(NR)) {
        step(a, b, acc);
    }
}

/// One `M`×`nr` output tile: `M` is exact — a short last row panel
/// multiplies its real rows only — while a narrow tile (`nr < NR`) stages C
/// through the zero-padded columns of the stack tile (B's panels are
/// zero-padded to `NR`), keeping the hot loop's constant bounds either way.
/// `pass` says whether C is read and whether a bias rides on the store.
#[inline(always)]
fn tile<const M: usize>(
    kc: usize,
    ap: &[f32],
    bp: &[f32],
    c: &mut [f32],
    ldc: usize,
    nr: usize,
    pass: KBlock<'_>,
) {
    const { assert!(M >= 1 && M <= MR) };
    // Full-width rows move as fixed-size arrays; only a narrow tile pays
    // for a copy of run-time length.
    let full = nr == NR;
    let mut acc = [[0.0f32; NR]; M];
    if !pass.first {
        for (i, row) in acc.iter_mut().enumerate() {
            let c_row = &c[i * ldc..][..nr];
            if full {
                *row = c_row.try_into().expect("NR row");
            } else {
                row[..nr].copy_from_slice(c_row);
            }
        }
    }
    accumulate_tile(kc, ap, bp, &mut acc);
    if let Some(bias) = pass.bias {
        // Padded to NR so the add keeps constant bounds; the padded lanes
        // are not stored.
        let mut b = [0.0f32; NR];
        b[..nr].copy_from_slice(&bias[..nr]);
        for row in acc.iter_mut() {
            for j in 0..NR {
                row[j] += b[j];
            }
        }
    }
    for (i, row) in acc.iter().enumerate() {
        let c_row = &mut c[i * ldc..][..nr];
        if full {
            c_row.copy_from_slice(row);
        } else {
            c_row.copy_from_slice(&row[..nr]);
        }
    }
}

/// The `mr`×`nr` tile (`1 ≤ mr ≤ MR`, `1 ≤ nr ≤ NR`) of the two
/// autovectorised tiers: starts the register accumulator at `+0.0` or at
/// the partial C tile (`pass`), adds `kc` rank-1 updates from the packed
/// panels, and stores it — plus the bias, on the last k-block of a product
/// that has one. `c` starts at the tile's `(0, 0)` and has row stride `ldc`.
/// Compiled here for the baseline target — [`Tier::Portable`].
#[allow(clippy::too_many_arguments)] // a kernel's operands, not an API surface
#[inline(always)]
fn microkernel_portable(
    kc: usize,
    ap: &[f32],
    bp: &[f32],
    c: &mut [f32],
    ldc: usize,
    mr: usize,
    nr: usize,
    pass: KBlock<'_>,
) {
    assert!((1..=NR).contains(&nr), "micro-kernel tile width {nr}");
    match mr {
        1 => tile::<1>(kc, ap, bp, c, ldc, nr, pass),
        2 => tile::<2>(kc, ap, bp, c, ldc, nr, pass),
        3 => tile::<3>(kc, ap, bp, c, ldc, nr, pass),
        4 => tile::<4>(kc, ap, bp, c, ldc, nr, pass),
        5 => tile::<5>(kc, ap, bp, c, ldc, nr, pass),
        6 => tile::<6>(kc, ap, bp, c, ldc, nr, pass),
        _ => panic!("micro-kernel tile height {mr}"),
    }
}

/// [`Tier::Avx2`]: the same Rust code as [`microkernel_portable`] compiled
/// with 256-bit vectors and the FMA instruction, so the full register tile
/// is 12 ymm accumulators — twelve independent chains, enough to cover the
/// fused step's 4-cycle latency on two ports — and each k step of a row is a
/// broadcast and two `vfmadd231ps`. `mul_add` is the correctly rounded fused
/// result with or without the instruction, so the bits are those of the
/// portable instantiation and the naive loops.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
#[allow(clippy::too_many_arguments)] // a kernel's operands, not an API surface
fn microkernel_avx2(
    kc: usize,
    ap: &[f32],
    bp: &[f32],
    c: &mut [f32],
    ldc: usize,
    mr: usize,
    nr: usize,
    pass: KBlock<'_>,
) {
    microkernel_portable(kc, ap, bp, c, ldc, mr, nr, pass);
}

/// One `M`×`nr` tile of [`Tier::Avx512`] over `P` adjacent B panels
/// (`(P − 1)·NR < nr ≤ P·NR`), in `std::arch` intrinsics: one zmm
/// accumulator per tile row and panel (a row of `NR` = 16 floats is exactly
/// one register, and a row of a B panel one load), each k step a broadcast
/// of `A[i, p]` and one `_mm512_fmadd_ps` per panel, k increasing: the
/// operation sequence of [`accumulate_tile`] and the naive loops, element
/// for element. `bp` holds the `P` panels back to back, `[kc][NR]` each, as
/// `pack_b` lays them out. `M` is exact by const generic; the last panel of
/// a ragged tile loads and stores C under a k-mask instead of staging it
/// through the stack (B's panels are zero-padded, and what the masked-off
/// lanes compute is never stored). On the product's first k-block the
/// accumulators start at `+0.0` and C is not read; on its last, a bias is
/// one `_mm512_add_ps` per register on the way to the store (`pass`).
///
/// `P` = 2 is what the driver runs wherever two panels are left: a fused
/// step has four cycles of latency and issues on two ports, so the six
/// chains of a one-panel tile keep them at most three-quarters busy;
/// twelve cover the latency.
///
/// A is read where it lies: element `(i, p)` is `a.data[i * a.rs + p * a.ks]`.
///
/// Hand-written because the shared Rust body does not survive this target:
/// under `#[target_feature(enable = "avx512f")]` LLVM vectorises
/// `accumulate_tile` *across rows*, with `vgatherqps`/`vscatterqps`, and the
/// fused QKV product at 166 rows goes from 222 to 3,271 µs.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn tile_avx512<const M: usize, const P: usize>(
    kc: usize,
    a: ATile<'_>,
    bp: &[f32],
    c: &mut [f32],
    ldc: usize,
    nr: usize,
    pass: KBlock<'_>,
) {
    use std::arch::x86_64::*;
    const { assert!(M >= 1 && M <= MR && NR == 16 && (P == 1 || P == 2)) };
    assert!(((P - 1) * NR + 1..=P * NR).contains(&nr), "{P}-panel tile width {nr}");
    // Every address the loops below form, checked (without wrapping) before
    // the first read: `kc` rows of each B panel, the last element of A the
    // strides reach, and `nr` floats of each of the `M` rows of C.
    let at = |i: usize, rs: usize, p: usize, ks: usize| {
        i.checked_mul(rs).and_then(|r| p.checked_mul(ks).and_then(|k| r.checked_add(k)))
    };
    assert!(
        P.checked_mul(kc).and_then(|rows| rows.checked_mul(NR)).is_some_and(|n| n <= bp.len()),
        "B panels shorter than kc rows"
    );
    assert!(
        kc == 0 || at(M - 1, a.rs, kc - 1, a.ks).is_some_and(|last| last < a.data.len()),
        "A tile out of bounds"
    );
    assert!(at(M - 1, ldc, nr, 1).is_some_and(|end| end <= c.len()), "C tile out of bounds");
    assert!(pass.bias.is_none_or(|b| b.len() >= nr), "bias shorter than the tile");
    // Panel `q` owns lanes `q·NR..`: all 16 of them but for the last panel.
    let mut masks = [0 as __mmask16; P];
    for (q, mask) in masks.iter_mut().enumerate() {
        *mask = (u32::MAX >> (32 - NR.min(nr - q * NR))) as u16;
    }
    let (ap, bp, cp) = (a.data.as_ptr(), bp.as_ptr(), c.as_mut_ptr());
    let mut acc = [[_mm512_setzero_ps(); P]; M];
    if !pass.first {
        for (i, row) in acc.iter_mut().enumerate() {
            for (q, lanes) in row.iter_mut().enumerate() {
                // SAFETY: lanes `..nr` of row `i` lie inside `c` (asserted
                // above), the mask keeps panel `q`'s share of them, and a
                // masked load does not touch the lanes its mask clears.
                *lanes = unsafe { _mm512_maskz_loadu_ps(masks[q], cp.add(i * ldc + q * NR)) };
            }
        }
    }
    for p in 0..kc {
        let mut b = [_mm512_setzero_ps(); P];
        for (q, lanes) in b.iter_mut().enumerate() {
            // SAFETY: `q < P`, `p < kc`, and `bp` holds `P * kc * NR` floats
            // (asserted above).
            *lanes = unsafe { _mm512_loadu_ps(bp.add((q * kc + p) * NR)) };
        }
        for (i, row) in acc.iter_mut().enumerate() {
            // SAFETY: `i ≤ M − 1` and `p ≤ kc − 1`, so the offset is at most
            // the one asserted to be inside `a.data`.
            let a_ip = _mm512_set1_ps(unsafe { *ap.add(i * a.rs + p * a.ks) });
            for (lanes, &b) in row.iter_mut().zip(&b) {
                *lanes = _mm512_fmadd_ps(a_ip, b, *lanes);
            }
        }
    }
    if let Some(bias) = pass.bias {
        let mut b = [_mm512_setzero_ps(); P];
        for (q, lanes) in b.iter_mut().enumerate() {
            // SAFETY: `bias` holds at least `nr` floats (asserted above) and
            // the mask keeps panel `q`'s share of lanes `..nr`.
            *lanes = unsafe { _mm512_maskz_loadu_ps(masks[q], bias.as_ptr().add(q * NR)) };
        }
        for row in acc.iter_mut() {
            for (lanes, &b) in row.iter_mut().zip(&b) {
                *lanes = _mm512_add_ps(*lanes, b);
            }
        }
    }
    for (i, row) in acc.iter().enumerate() {
        for (q, &lanes) in row.iter().enumerate() {
            // SAFETY: as for the load — only panel `q`'s share of lanes
            // `..nr` of row `i` is written.
            unsafe { _mm512_mask_storeu_ps(cp.add(i * ldc + q * NR), masks[q], lanes) };
        }
    }
}

/// [`tile_avx512`] at the run-time row count and width: two panels wherever
/// `nr` reaches into a second one.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[allow(clippy::too_many_arguments)] // a kernel's operands, not an API surface
fn microkernel_avx512(
    kc: usize,
    a: ATile<'_>,
    bp: &[f32],
    c: &mut [f32],
    ldc: usize,
    mr: usize,
    nr: usize,
    pass: KBlock<'_>,
) {
    macro_rules! rows {
        ($($m:literal),*) => {
            match (mr, nr.div_ceil(NR)) {
                $(($m, 1) => tile_avx512::<$m, 1>(kc, a, bp, c, ldc, nr, pass),
                  ($m, 2) => tile_avx512::<$m, 2>(kc, a, bp, c, ldc, nr, pass),)*
                _ => panic!("micro-kernel tile {mr}x{nr}"),
            }
        };
    }
    rows!(1, 2, 3, 4, 5, 6)
}

/// The vector tiers of the kernel layer, lowest first. Which one runs is a
/// fact of the CPU ([`Tier::detect`]), never of a flag: every tier computes
/// the same bits, so there is nothing to choose but speed. The module docs
/// say what differs between them; [`crate::vmath`] instantiates its kernels
/// per tier too, and [`crate::quant`] picks its integer kernel by the same
/// enum ([`Tier::detect_int8`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Tier {
    /// Baseline target features only.
    Portable,
    /// AVX2 + FMA.
    Avx2,
    /// AVX-512 F + VL + DQ + BW (and AVX2 + FMA below it). For the int8
    /// kernels, those and VNNI.
    Avx512,
}

/// What the process knows about its CPU: one look, shared by the f32 and
/// the int8 stack.
struct Cpu {
    f32: Tier,
    int8: Tier,
}

fn cpu() -> &'static Cpu {
    static CPU: OnceLock<Cpu> = OnceLock::new();
    CPU.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        {
            use std::arch::is_x86_feature_detected as has;
            // No vector tier without the FMA instruction: the GEMM step is
            // a fused multiply-add, and a tile that had to call libm for it
            // would be no faster than the portable one.
            if has!("avx2") && has!("fma") {
                let avx512 =
                    has!("avx512f") && has!("avx512vl") && has!("avx512dq") && has!("avx512bw");
                let f32 = if avx512 { Tier::Avx512 } else { Tier::Avx2 };
                let int8 = if avx512 && has!("avx512vnni") { Tier::Avx512 } else { Tier::Avx2 };
                return Cpu { f32, int8 };
            }
        }
        Cpu { f32: Tier::Portable, int8: Tier::Portable }
    })
}

impl Tier {
    /// The widest tier this CPU has — what every dispatching f32 entry point
    /// runs on. Detected once per process.
    pub fn detect() -> Tier {
        cpu().f32
    }

    /// The tier the int8 kernels run on, from the same look at the CPU:
    /// [`Tier::detect`]'s, except that [`Tier::Avx512`] there is `vpdpbusd`
    /// on zmm, so a host whose AVX-512 lacks VNNI runs the AVX2 integer
    /// kernel under AVX-512 f32 ones.
    pub fn detect_int8() -> Tier {
        cpu().int8
    }

    /// Every tier this CPU can run — [`Tier::detect`] and all below it —
    /// lowest first: what a test iterates to reach the instantiations
    /// dispatch never picks on its host.
    pub fn host() -> &'static [Tier] {
        static ALL: [Tier; 3] = [Tier::Portable, Tier::Avx2, Tier::Avx512];
        &ALL[..=Tier::detect() as usize]
    }

    /// `portable`, `avx2` or `avx512`.
    pub fn name(self) -> &'static str {
        match self {
            Tier::Portable => "portable",
            Tier::Avx2 => "avx2",
            Tier::Avx512 => "avx512",
        }
    }

    /// Whether this tier's tile reads A through strides (an [`ATile`] of any
    /// shape) rather than from a packed panel only.
    pub fn reads_a_in_place(self) -> bool {
        self == Tier::Avx512
    }

    /// Columns of this tier's widest tile: [`NR`], or two adjacent `NR`
    /// panels where that is what keeps the fused step's ports busy.
    pub fn tile_width(self) -> usize {
        match self {
            Tier::Avx512 => 2 * NR,
            Tier::Portable | Tier::Avx2 => NR,
        }
    }
}

/// The A operand of one micro-kernel tile: element `(i, p)` — tile row `i`,
/// depth `p` — is `data[i * rs + p * ks]`. A packed panel is `(1, MR)`; the
/// tier that reads A in place ([`Tier::reads_a_in_place`]) also takes a
/// row-major window `(lda, 1)` or a transposed one `(1, lda)`.
#[derive(Clone, Copy)]
pub struct ATile<'a> {
    data: &'a [f32],
    rs: usize,
    ks: usize,
}

impl<'a> ATile<'a> {
    /// A packed A panel: p-major `[kc][MR]`, the layout `pack_a` writes.
    pub fn packed(panel: &'a [f32]) -> Self {
        ATile { data: panel, rs: 1, ks: MR }
    }

    /// `data` read through a row stride and a k stride.
    pub fn strided(data: &'a [f32], rs: usize, ks: usize) -> Self {
        ATile { data, rs, ks }
    }

    /// Rows `i0..`, depths `p0..` of `op(A)`, where it lies.
    fn of(src: Src<'a>, i0: usize, p0: usize) -> Self {
        match src {
            Src::N(v) => ATile::strided(&v.data[v.off + i0 * v.stride + p0..], v.stride, 1),
            Src::T(v) => ATile::strided(&v.data[v.off + p0 * v.stride + i0..], 1, v.stride),
        }
    }
}

/// Where one k-block of a product falls in it, which is what decides how a
/// tile meets C: every entry point *writes* `C = op(A) op(B) (+ bias)`, and
/// a product deeper than [`KC`] reaches its output in several k-blocks.
#[derive(Clone, Copy, Debug)]
pub struct KBlock<'a> {
    /// The product's first k-block: the accumulators start at `+0.0` — the
    /// bits a zero-filled C would load — and C is not read. A later block
    /// loads the partial tile the one before it stored.
    pub first: bool,
    /// On the product's last k-block, the bias of the tile's columns (at
    /// least `nr` values), added to every row as it is stored: one separately
    /// rounded add after the last fused step, never folded into it.
    pub bias: Option<&'a [f32]>,
}

/// Computes one `mr`×`nr` output tile (`1 ≤ mr ≤ MR`, `1 ≤ nr ≤`
/// [`Tier::tile_width`]) on `tier`: `C[i, j] ← fma(A[i, p], B[p, j], C[i, j])`
/// for p increasing over the `kc` rows of the packed B panels `bp` —
/// `ceil(nr / NR)` of them back to back, `[kc][NR]` each — one accumulator
/// per element, which starts at `+0.0` or at C as `pass` says and gets its
/// bias on the store. `c` starts at the tile's `(0, 0)` and has row stride
/// `ldc`. Same bits on every tier. Public so the property tests can hold
/// each tier of [`Tier::host`] to the naive loops, whichever one dispatch
/// picks here.
///
/// # Panics
/// If the host lacks `tier`, if `nr` is wider than its tile, if `a` is not a
/// packed panel on a tier that does not read A in place, or if a slice is
/// too short for the tile.
#[allow(clippy::too_many_arguments)] // a kernel's operands, not an API surface
pub fn microkernel_on(
    tier: Tier,
    kc: usize,
    a: ATile<'_>,
    bp: &[f32],
    c: &mut [f32],
    ldc: usize,
    mr: usize,
    nr: usize,
    pass: KBlock<'_>,
) {
    assert!(tier <= Tier::detect(), "this CPU has no {} tier", tier.name());
    assert!((1..=tier.tile_width()).contains(&nr), "{} tile width {nr}", tier.name());
    assert!(
        tier.reads_a_in_place() || (a.rs, a.ks) == (1, MR),
        "the {} tile reads packed A only",
        tier.name()
    );
    // SAFETY: the host has `tier`, asserted above.
    unsafe { microkernel_unchecked(tier, kc, a, bp, c, ldc, mr, nr, pass) }
}

/// [`microkernel_on`] without the look at the CPU, so the driver asks once
/// per GEMM, not once per tile. On a tier that does not read A in place `a`
/// must be a packed panel (the driver builds nothing else there), and `nr`
/// is at most [`Tier::tile_width`] (every tile asserts its own).
///
/// # Safety
/// The host must have `tier`: it is [`Tier::detect`]'s answer or below it.
#[allow(clippy::too_many_arguments)] // a private kernel, not an API surface
#[inline]
unsafe fn microkernel_unchecked(
    tier: Tier,
    kc: usize,
    a: ATile<'_>,
    bp: &[f32],
    c: &mut [f32],
    ldc: usize,
    mr: usize,
    nr: usize,
    pass: KBlock<'_>,
) {
    #[cfg(target_arch = "x86_64")]
    if tier == Tier::Avx512 {
        // SAFETY: the caller guarantees the host has this tier, which
        // `Tier::detect` reports only with `avx512f` detected; the tile
        // bounds every pointer it forms by assertions on its slices.
        unsafe { microkernel_avx512(kc, a, bp, c, ldc, mr, nr, pass) };
        return;
    }
    debug_assert_eq!((a.rs, a.ks), (1, MR), "the {} tile reads packed A only", tier.name());
    #[cfg(target_arch = "x86_64")]
    if tier == Tier::Avx2 {
        // SAFETY: the caller guarantees the host has this tier, which
        // `Tier::detect` reports only with `avx2` and `fma` detected.
        unsafe { microkernel_avx2(kc, a.data, bp, c, ldc, mr, nr, pass) };
        return;
    }
    microkernel_portable(kc, a.data, bp, c, ldc, mr, nr, pass);
}

// ---------------------------------------------------------------------------
// Blocked driver
// ---------------------------------------------------------------------------

thread_local! {
    /// Per-thread packing scratch `(A panels, B panels)`, grown on demand
    /// so the hot path never calls the allocator after warm-up. The B side
    /// grows only for products that pack B per call.
    static PACK_BUFS: RefCell<(Vec<f32>, Vec<f32>)> = const { RefCell::new((Vec::new(), Vec::new())) };
}

/// Floats held by the calling thread's packing scratch, `(A side, B side)`
/// — how a test sees that products over borrowed panels left the B side
/// alone.
pub fn pack_scratch_len() -> (usize, usize) {
    PACK_BUFS.with_borrow(|(a, b)| (a.len(), b.len()))
}

/// `C = op(A) B (+ bias)` on `tier`'s packed kernel over the whole
/// (non-empty) output, on the calling thread: the first k-block's tiles
/// start from `+0.0`, later ones load what the block before stored, and the
/// last adds `bias` (`n` values, if any). `c` holds `m` rows of stride
/// `ldc`, offset `c_col0` columns in. An empty reduction (`k = 0`) writes
/// the bias, or `+0.0`.
#[allow(clippy::too_many_arguments)] // the one internal fan-in point below the typed wrappers
fn gemm_blocked(
    tier: Tier,
    m: usize,
    n: usize,
    k: usize,
    a_src: Src<'_>,
    b_src: BSrc<'_>,
    c: &mut [f32],
    ldc: usize,
    c_col0: usize,
    bias: Option<&[f32]>,
) {
    if k == 0 {
        for row in c.chunks_mut(ldc).take(m) {
            let row = &mut row[c_col0..c_col0 + n];
            match bias {
                Some(b) => row.copy_from_slice(b),
                None => row.fill(0.0),
            }
        }
        return;
    }
    assert!(tier <= Tier::detect(), "this CPU has no {} tier", tier.name());
    // On the tier whose tile reads A through strides nothing is packed on
    // the A side: the tile takes its rows from the operand itself.
    let a_in_place = tier.reads_a_in_place();
    let tile_width = tier.tile_width();
    PACK_BUFS.with_borrow_mut(|(ap_buf, bp_buf)| {
        let kc_max = KC.min(k);
        // Grow-only: pack writes every slot it later reads, so stale data
        // past the current panel sizes is harmless and shrinking would
        // just churn when call sites alternate between shapes.
        let a_need = if a_in_place { 0 } else { MC.min(m).div_ceil(MR) * MR * kc_max };
        if ap_buf.len() < a_need {
            ap_buf.resize(a_need, 0.0);
        }
        if let BSrc::Pack(_) = b_src {
            let b_need = NC.min(n).div_ceil(NR) * NR * kc_max;
            if bp_buf.len() < b_need {
                bp_buf.resize(b_need, 0.0);
            }
        }
        let mut jc = 0;
        while jc < n {
            let nc = NC.min(n - jc);
            let mut pc = 0;
            while pc < k {
                let kc = KC.min(k - pc);
                let last = pc + kc == k;
                let b_block: &[f32] = match b_src {
                    BSrc::Pack(src) => {
                        pack_b(bp_buf, src, pc, kc, jc, nc);
                        bp_buf
                    }
                    BSrc::Panels(panels) => panels.block(jc, pc, nc, kc),
                };
                let mut ic = 0;
                while ic < m {
                    let mc = MC.min(m - ic);
                    if !a_in_place {
                        pack_a(ap_buf, a_src, ic, mc, pc, kc);
                    }
                    // The tier's tile spans one or two NR panels, which lie
                    // back to back in the block; the last tile of an odd
                    // panel count takes the one that is left.
                    let mut jr = 0;
                    while jr < nc {
                        let nr = tile_width.min(nc - jr);
                        let bp = &b_block[(jr / NR) * kc * NR..][..nr.div_ceil(NR) * kc * NR];
                        let mut ir = 0;
                        while ir < mc {
                            let mr = MR.min(mc - ir);
                            let a = if a_in_place {
                                ATile::of(a_src, ic + ir, pc)
                            } else {
                                ATile::packed(&ap_buf[(ir / MR) * kc * MR..][..kc * MR])
                            };
                            let c_off = (ic + ir) * ldc + c_col0 + jc + jr;
                            let pass = KBlock {
                                first: pc == 0,
                                bias: bias.filter(|_| last).map(|b| &b[jc + jr..][..nr]),
                            };
                            let c = &mut c[c_off..];
                            // SAFETY: the host has `tier`, asserted above.
                            unsafe { microkernel_unchecked(tier, kc, a, bp, c, ldc, mr, nr, pass) };
                            ir += MR;
                        }
                        jr += tile_width;
                    }
                    ic += MC;
                }
                pc += KC;
            }
            jc += NC;
        }
    });
}

/// Declares `fn name(tier, args..)` around one plain-loop body, compiled for
/// the baseline target and again under `avx2,fma`: the body's `mul_add` is
/// the hardware instruction (vectorised where the loop allows) on every tier
/// from [`Tier::Avx2`] up and libm's `fmaf` on [`Tier::Portable`] — the same
/// bits, since both are the correctly rounded fused result. There is no
/// third instantiation: these loops are the small-shape path and the test
/// oracle, and the blocked kernel takes over before a wider vector would
/// show.
macro_rules! plain_loops {
    ($(#[$doc:meta])* $vis:vis fn $name:ident($($arg:ident: $ty:ty),* $(,)?) $body:block) => {
        $(#[$doc])*
        #[allow(clippy::too_many_arguments)] // operands of a kernel, plus its tier
        $vis fn $name(tier: Tier, $($arg: $ty),*) {
            #[inline(always)]
            #[allow(clippy::too_many_arguments)]
            fn body($($arg: $ty),*) $body
            assert!(tier <= Tier::detect(), "this CPU has no {} tier", tier.name());
            #[cfg(target_arch = "x86_64")]
            if tier >= Tier::Avx2 {
                #[target_feature(enable = "avx2,fma")]
                #[allow(clippy::too_many_arguments)]
                fn fused($($arg: $ty),*) {
                    body($($arg),*)
                }
                // SAFETY: the host has `tier` (asserted above), and
                // `Tier::detect` reports `Avx2` or above only with `avx2`
                // and `fma` detected.
                unsafe { fused($($arg),*) };
                return;
            }
            body($($arg),*)
        }
    };
}

plain_loops! {
    /// Unblocked `C = op(A) op(B) (+ bias)` for matrices too small to
    /// amortize packing: one accumulator per element from `+0.0`, k
    /// increasing, one `mul_add` a step, then the bias as one add — the same
    /// operation sequence as the blocked kernel, so the two are bitwise
    /// interchangeable.
    fn gemm_small(
        m: usize,
        n: usize,
        k: usize,
        a_src: Src<'_>,
        b_src: Src<'_>,
        c: &mut [f32],
        ldc: usize,
        c_col0: usize,
        bias: Option<&[f32]>,
    ) {
        // Element `(i, p)` of op(A) is `ad[i * a_rs + p * a_cs]`.
        let (ad, a_rs, a_cs) = match a_src {
            Src::N(v) => (&v.data[v.off..], v.stride, 1),
            Src::T(v) => (&v.data[v.off..], 1, v.stride),
        };
        for i in 0..m {
            let c_row = &mut c[i * ldc + c_col0..i * ldc + c_col0 + n];
            match b_src {
                // B's rows are contiguous along n: one lane per output
                // column, each rank-1 step a vector multiply-add over the row.
                Src::N(bv) => {
                    c_row.fill(0.0);
                    for p in 0..k {
                        let a_ip = ad[i * a_rs + p * a_cs];
                        for (o, &b_pj) in c_row.iter_mut().zip(bv.row(p, 0, n)) {
                            *o = a_ip.mul_add(b_pj, *o);
                        }
                    }
                }
                // Bᵀ: each output is the dot product of two contiguous
                // k-runs. Nothing to vectorise without reassociating, which
                // is why this layout crosses over to the packed kernel so
                // early.
                Src::T(bv) => {
                    for (j, o) in c_row.iter_mut().enumerate() {
                        let mut acc = 0.0f32;
                        for (p, &b_jp) in bv.row(j, 0, k).iter().enumerate() {
                            acc = ad[i * a_rs + p * a_cs].mul_add(b_jp, acc);
                        }
                        *o = acc;
                    }
                }
            }
            if let Some(bias) = bias {
                for (o, &b) in c_row.iter_mut().zip(bias) {
                    *o += b;
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Strided entry points (what the tape and the executor call; public so the
// property tests can pin them to the naive loops from outside the crate)
// ---------------------------------------------------------------------------

/// `C = op(A) op(B) (+ bias)` over strided views on `tier`: the one
/// strided product every other entry point of this section is — the plain
/// loops where packing would dominate, the packed kernel otherwise. `layout`
/// names the stored shapes of `a` and `b` as for the whole-tensor products;
/// `c` starts at the output's first row, has row stride `ldc`, and the
/// product lands `c_col0` columns in — the `m`×`n` segment is written
/// whatever it held, nothing around it is touched. `bias` holds `n` values.
/// Public so the property tests can run it on every tier of [`Tier::host`];
/// panics if the host lacks `tier`.
#[allow(clippy::too_many_arguments)] // a product, its layout, its tier and its epilogue
pub fn gemm_on(
    tier: Tier,
    layout: Layout,
    c: &mut [f32],
    ldc: usize,
    c_col0: usize,
    (m, n, k): (usize, usize, usize),
    a: View<'_>,
    b: View<'_>,
    bias: Option<&[f32]>,
) {
    let (a_src, b_src) = match layout {
        Layout::NN => (Src::N(a), Src::N(b)),
        Layout::NT => (Src::N(a), Src::T(b)),
        Layout::TN => (Src::T(a), Src::N(b)),
    };
    assert!(bias.is_none_or(|b| b.len() == n), "bias must hold {n} values");
    if m == 0 || n == 0 {
        return; // an empty output has nothing to write
    }
    if 2 * m * n * k < BLOCKED_MIN_FLOPS || (m <= SMALL_MAX_ROWS && matches!(b_src, Src::N(_))) {
        // Packing would dominate; the plain loops keep the identical
        // per-element accumulation order, so this changes nothing but speed.
        gemm_small(tier, m, n, k, a_src, b_src, c, ldc, c_col0, bias);
        return;
    }
    gemm_blocked(tier, m, n, k, a_src, BSrc::Pack(b_src), c, ldc, c_col0, bias);
}

/// `C = A B` over strided views: `a` is `[m, k]`, `b` is `[k, n]`;
/// [`gemm_on`] on the host's tier.
pub fn gemm_nn(
    c: &mut [f32],
    ldc: usize,
    c_col0: usize,
    dims: (usize, usize, usize),
    a: View<'_>,
    b: View<'_>,
) {
    gemm_on(Tier::detect(), Layout::NN, c, ldc, c_col0, dims, a, b, None);
}

/// [`gemm_nn`] as a dense layer calls it — the tape's dense op and the
/// executor's, through `forward::dense_segment`: with the layer's bias, and
/// on the packed kernel only where [`blocked_worthwhile`] and the
/// `SMALL_MAX_ROWS` floor say so — the one dense-layer size policy.
/// `panel` is how a caller whose `b` is a constant offers its [`PackedB`]:
/// it is asked (and so the panel built) only by a product that will run on
/// it; `None` packs `b` per call.
#[allow(clippy::too_many_arguments)] // gemm_on's operands, plus where B comes from
pub(crate) fn gemm_nn_dense<'p>(
    c: &mut [f32],
    ldc: usize,
    c_col0: usize,
    (m, n, k): (usize, usize, usize),
    a: View<'_>,
    b: View<'_>,
    bias: Option<&[f32]>,
    panel: Option<&dyn Fn() -> &'p PackedB>,
) {
    let tier = Tier::detect();
    if !blocked_worthwhile(m, n, k) {
        gemm_small(tier, m, n, k, Src::N(a), Src::N(b), c, ldc, c_col0, bias);
        return;
    }
    match panel {
        Some(panel) if m > SMALL_MAX_ROWS => {
            gemm_nn_packed_on(tier, c, ldc, c_col0, m, a, panel(), bias);
        }
        _ => gemm_on(tier, Layout::NN, c, ldc, c_col0, (m, n, k), a, b, bias),
    }
}

/// `C = A B (+ bias)` with `b` borrowed already packed: `a` is `[m, k]` for
/// `b`'s `(k, n)`; always the packed kernel. Bit-identical to [`gemm_on`]
/// over the matrix `b` was packed from.
pub fn gemm_nn_packed(
    c: &mut [f32],
    ldc: usize,
    c_col0: usize,
    m: usize,
    a: View<'_>,
    b: &PackedB,
    bias: Option<&[f32]>,
) {
    gemm_nn_packed_on(Tier::detect(), c, ldc, c_col0, m, a, b, bias);
}

/// [`gemm_nn_packed`] on `tier`'s micro-kernel, so the property tests can
/// run borrowed panels through every tier of [`Tier::host`]; panics if the
/// host lacks `tier`.
#[allow(clippy::too_many_arguments)] // gemm_nn_packed's, plus the tier
pub fn gemm_nn_packed_on(
    tier: Tier,
    c: &mut [f32],
    ldc: usize,
    c_col0: usize,
    m: usize,
    a: View<'_>,
    b: &PackedB,
    bias: Option<&[f32]>,
) {
    let (k, n) = b.shape();
    assert!(bias.is_none_or(|b| b.len() == n), "bias must hold {n} values");
    if m == 0 || n == 0 {
        return; // an empty output has nothing to write
    }
    gemm_blocked(tier, m, n, k, Src::N(a), BSrc::Panels(b), c, ldc, c_col0, bias);
}

/// `C = A Bᵀ` over strided views: `a` is `[m, k]`, `b` is `[n, k]`.
pub fn gemm_nt(
    c: &mut [f32],
    ldc: usize,
    c_col0: usize,
    dims: (usize, usize, usize),
    a: View<'_>,
    b: View<'_>,
) {
    gemm_on(Tier::detect(), Layout::NT, c, ldc, c_col0, dims, a, b, None);
}

/// `C = Aᵀ B` over strided views: `a` is `[k, m]`, `b` is `[k, n]`.
pub fn gemm_tn(
    c: &mut [f32],
    ldc: usize,
    c_col0: usize,
    dims: (usize, usize, usize),
    a: View<'_>,
    b: View<'_>,
) {
    gemm_on(Tier::detect(), Layout::TN, c, ldc, c_col0, dims, a, b, None);
}

// ---------------------------------------------------------------------------
// Public whole-tensor entry points
// ---------------------------------------------------------------------------

/// Which operand of a whole-tensor product is stored transposed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layout {
    /// `A B`: `A` is `[m, k]`, `B` is `[k, n]`.
    NN,
    /// `A Bᵀ`: `A` is `[m, k]`, `B` is `[n, k]`.
    NT,
    /// `Aᵀ B`: `A` is `[k, m]`, `B` is `[k, n]`.
    TN,
}

impl Layout {
    /// `(m, n, k)` of `op(a) op(b)` under this layout.
    ///
    /// # Panics
    /// If the inner dimensions differ.
    fn dims(self, a: &Tensor, b: &Tensor) -> (usize, usize, usize) {
        let ((m, ka), (kb, n)) = match self {
            Layout::NN => ((a.rows(), a.cols()), (b.rows(), b.cols())),
            Layout::NT => ((a.rows(), a.cols()), (b.cols(), b.rows())),
            Layout::TN => ((a.cols(), a.rows()), (b.rows(), b.cols())),
        };
        assert_eq!(ka, kb, "{self:?} matmul inner dims: {:?} x {:?}", a.shape(), b.shape());
        (m, n, ka)
    }
}

/// The blocked product of `a` and `b` under `layout`, on `tier`'s
/// micro-kernel: what [`matmul_blocked`] and its two siblings compute on
/// [`Tier::detect`]'s. Public so the property tests can run the whole loop
/// nest on every tier of [`Tier::host`]; panics if the host lacks `tier`.
pub fn matmul_blocked_on(tier: Tier, layout: Layout, a: &Tensor, b: &Tensor) -> Tensor {
    let (m, n, k) = layout.dims(a, b);
    let mut out = Tensor::zeros(m, n);
    let (av, bv) = (View::of(a), View::of(b));
    gemm_on(tier, layout, out.data_mut(), n, 0, (m, n, k), av, bv, None);
    out
}

/// Blocked `A B` (`A` is `[m, k]`, `B` is `[k, n]`), whatever the size.
/// Bit-identical to [`matmul_naive`]; the whole-tensor products are
/// reference points for tests and benches, the model runs the strided
/// entry points above.
pub fn matmul_blocked(a: &Tensor, b: &Tensor) -> Tensor {
    matmul_blocked_on(Tier::detect(), Layout::NN, a, b)
}

/// Blocked `A Bᵀ` (`A` is `[m, k]`, `B` is `[n, k]`); see [`matmul_blocked`].
pub fn matmul_nt_blocked(a: &Tensor, b: &Tensor) -> Tensor {
    matmul_blocked_on(Tier::detect(), Layout::NT, a, b)
}

/// Blocked `Aᵀ B` (`A` is `[k, m]`, `B` is `[k, n]`); see [`matmul_blocked`].
pub fn matmul_tn_blocked(a: &Tensor, b: &Tensor) -> Tensor {
    matmul_blocked_on(Tier::detect(), Layout::TN, a, b)
}

plain_loops! {
    /// `out = A B` in plain ikj loops.
    fn naive_nn(a: &Tensor, b: &Tensor, out: &mut Tensor) {
        let n = b.cols();
        for i in 0..a.rows() {
            let o_row = out.row_mut(i);
            o_row.fill(0.0);
            for (p, &a_ip) in a.row(i).iter().enumerate() {
                for (o, &bv) in o_row.iter_mut().zip(&b.data()[p * n..(p + 1) * n]) {
                    *o = a_ip.mul_add(bv, *o);
                }
            }
        }
    }
}

plain_loops! {
    /// `out = A Bᵀ` in row-dot-row loops.
    fn naive_nt(a: &Tensor, b: &Tensor, out: &mut Tensor) {
        for i in 0..a.rows() {
            let a_row = a.row(i);
            for (j, o) in out.row_mut(i).iter_mut().enumerate() {
                let mut acc = 0.0f32;
                for (&x, &y) in a_row.iter().zip(b.row(j)) {
                    acc = x.mul_add(y, acc);
                }
                *o = acc;
            }
        }
    }
}

plain_loops! {
    /// `out = Aᵀ B` in rank-1 update loops.
    fn naive_tn(a: &Tensor, b: &Tensor, out: &mut Tensor) {
        let n = b.cols();
        out.data_mut().fill(0.0);
        for p in 0..a.rows() {
            let b_row = b.row(p);
            for (i, &a_pi) in a.row(p).iter().enumerate() {
                for (o, &bv) in out.data_mut()[i * n..(i + 1) * n].iter_mut().zip(b_row) {
                    *o = a_pi.mul_add(bv, *o);
                }
            }
        }
    }
}

/// The naive product of `a` and `b` under `layout` — plain loops, one
/// accumulator per element, k increasing, one `mul_add` a step — compiled
/// for `tier`: the contract every blocked path must match bitwise, and
/// itself the same bits on every tier. Public so the property tests can
/// hold the portable instantiation (libm's `fmaf`) against the hardware one;
/// panics if the host lacks `tier`.
pub fn matmul_naive_on(tier: Tier, layout: Layout, a: &Tensor, b: &Tensor) -> Tensor {
    let (m, n, _) = layout.dims(a, b);
    let mut out = Tensor::zeros(m, n);
    match layout {
        Layout::NN => naive_nn(tier, a, b, &mut out),
        Layout::NT => naive_nt(tier, a, b, &mut out),
        Layout::TN => naive_tn(tier, a, b, &mut out),
    }
    out
}

/// Naive reference `A B`: plain ikj loops, the kernel the blocked path
/// must match bitwise. Kept public as the property-test oracle and the
/// baseline of the `gemm` micro-bench.
pub fn matmul_naive(a: &Tensor, b: &Tensor) -> Tensor {
    matmul_naive_on(Tier::detect(), Layout::NN, a, b)
}

/// Naive reference `A Bᵀ` (row-dot-row loops); see [`matmul_naive`].
pub fn matmul_nt_naive(a: &Tensor, b: &Tensor) -> Tensor {
    matmul_naive_on(Tier::detect(), Layout::NT, a, b)
}

/// Naive reference `Aᵀ B` (rank-1 update loops); see [`matmul_naive`].
pub fn matmul_tn_naive(a: &Tensor, b: &Tensor) -> Tensor {
    matmul_naive_on(Tier::detect(), Layout::TN, a, b)
}

/// True when `m`×`n`×`k` is big enough for packing to pay off — the size
/// heuristic behind [`gemm_nn_dense`]. Requires the AVX2
/// micro-kernel: on hosts without it both the portable tile and the naive
/// loops spend their time in libm's `fmaf`, one call per multiply-add, and
/// packing only adds to that, so dispatch keeps the naive path there.
pub(crate) fn blocked_worthwhile(m: usize, n: usize, k: usize) -> bool {
    Tier::detect() >= Tier::Avx2
        && 2usize.saturating_mul(m).saturating_mul(n).saturating_mul(k) >= BLOCKED_MIN_FLOPS
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn bits_eq(a: &Tensor, b: &Tensor, what: &str) {
        assert_eq!(a.shape(), b.shape(), "{what}: shape");
        for (i, (x, y)) in a.data().iter().zip(b.data().iter()).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{what}: element {i}: {x} vs {y}");
        }
    }

    #[test]
    fn blocked_matches_naive_bitwise_across_block_boundaries() {
        let mut rng = StdRng::seed_from_u64(11);
        // Shapes straddling MR/NR/MC/KC/NC edges, including k > KC.
        for &(m, k, n) in &[
            (1, 1, 1),
            (MR, KC, NR),
            (MR + 1, KC + 3, NR + 1),
            (MC + 5, 300, NC + 9),
            (76, 96, 96),
            (2, 7, 530),
        ] {
            let a = Tensor::randn(m, k, 1.0, &mut rng);
            let b = Tensor::randn(k, n, 1.0, &mut rng);
            bits_eq(&matmul_blocked(&a, &b), &matmul_naive(&a, &b), "nn");
            let bt = b.transpose();
            bits_eq(&matmul_nt_blocked(&a, &bt), &matmul_nt_naive(&a, &bt), "nt");
            let at = a.transpose();
            bits_eq(&matmul_tn_blocked(&at, &b), &matmul_tn_naive(&at, &b), "tn");
        }
    }

    #[test]
    fn degenerate_dims_yield_zero_output() {
        let a = Tensor::zeros(3, 0);
        let b = Tensor::zeros(0, 4);
        let c = matmul_blocked(&a, &b);
        assert_eq!(c.shape(), (3, 4));
        assert!(c.data().iter().all(|&v| v == 0.0));
        assert_eq!(matmul_blocked(&Tensor::zeros(0, 5), &Tensor::zeros(5, 2)).shape(), (0, 2));
    }

    #[test]
    fn packed_b_is_the_per_call_panel_sequence() {
        // Block by block, in the driver's `jc → pc` order, a `PackedB`
        // holds what `pack_b` writes into the scratch for that block —
        // including k > KC, n > NC and a ragged last NR panel.
        let mut rng = StdRng::seed_from_u64(13);
        for &(k, n) in &[(1, 1), (96, 96), (KC + 40, NR + 3), (384, 96), (7, NC + NR + 5)] {
            let b = Tensor::randn(k, n, 1.0, &mut rng);
            let packed = PackedB::pack(&b);
            let mut seen = 0;
            for jc in (0..n).step_by(NC) {
                let nc = NC.min(n - jc);
                for pc in (0..k).step_by(KC) {
                    let kc = KC.min(k - pc);
                    let mut scratch = vec![f32::NAN; nc.div_ceil(NR) * NR * kc];
                    pack_b(&mut scratch, Src::N(View::of(&b)), pc, kc, jc, nc);
                    let block = packed.block(jc, pc, nc, kc);
                    let at = packed.start + seen;
                    assert_eq!(block.as_ptr(), packed.data[at..].as_ptr(), "blocks are in order");
                    assert_eq!(block, &scratch[..], "{k}x{n} block ({jc}, {pc})");
                    seen += block.len();
                }
            }
            assert_eq!(packed.data[packed.start..].as_ptr() as usize % 64, 0, "on a cache line");
            assert_eq!(seen + 15, packed.data.len(), "{k}x{n}: the blocks and a line of slack");
        }
    }
}
