//! # doduo-tensor
//!
//! Minimal dense-tensor + reverse-mode autograd substrate for the DODUO
//! (SIGMOD 2022) reproduction. The paper's models were implemented on
//! PyTorch; this crate stands in for the slice of PyTorch they actually use:
//!
//! * [`Tensor`] — row-major 2-D `f32` matrices.
//! * [`kernels`] — the cache-blocked, register-tiled GEMM layer every
//!   product runs on (`A B`, `A Bᵀ`, `Aᵀ B` over strided views, packed
//!   panels, vector tiers picked by the CPU, bit-identical to the naive
//!   loops by construction).
//! * [`vmath`] — the in-repo, vectorised `exp`/`tanh` under GELU, softmax
//!   and sigmoid: no libm, so values are a function of the input bits alone,
//!   the same on every host and vector tier.
//! * [`quant`] — the opt-in int8 serving path ([`QuantizedLinear`]):
//!   per-output-channel symmetric weight quantization with dynamic per-row
//!   activation scales, accuracy-gated rather than bit-identical (see the
//!   two-tier numerics policy in that module).
//! * [`Tape`] — an eager autograd tape recording one forward pass; ops cover
//!   dense layers (one node each, the fused Q|K|V projection included),
//!   LayerNorm, GELU, ReLU, embedding gather, fused multi-head attention
//!   with optional visibility masks (for the TURL baseline), dropout, and
//!   the two losses the paper uses (softmax cross-entropy for VizNet,
//!   BCE-with-logits for the multi-label WikiTable tasks).
//! * [`Executor`] — the forward-only twin of the tape for serving: the same
//!   forward ops through the same arithmetic, over a per-thread pool of
//!   reusable buffers — no nodes, no per-op allocation.
//! * [`ParamStore`] / [`Gradients`] — named shared weights and mergeable
//!   gradient buffers, so mini-batch items can run on worker threads.
//! * [`train_epoch`] / [`parallel_map`] — the one shuffled mini-batch loop
//!   every trainer runs, and the one chunked fan-out it and the evaluators
//!   share.
//! * [`Adam`] / [`LrSchedule`] — the paper's optimizer (ε = 1e-8, linear
//!   decay, one optimizer per task as in Algorithm 1).
//! * [`serialize`] — binary checkpoints for the pretrain → fine-tune flow;
//!   their parsed weight records ([`serialize::Records`]) are an [`Init`],
//!   like any random source, and the only way saved bytes become
//!   parameters: every loader builds its model from them directly.
//!
//! Design: one table = one sequence = one tape. There is no batching inside
//! a tape, so shapes stay 2-D and no padding or masking machinery is needed
//! beyond the attention visibility mask.
#![warn(missing_docs)]

pub mod exec;
mod forward;
pub mod kernels;
pub mod optim;
pub mod parallel;
pub mod params;
pub mod quant;
pub mod serialize;
pub mod tape;
pub mod tensor;
pub mod vmath;

pub use exec::{Executor, Slot};
pub use forward::AttnBlock;
pub use optim::{Adam, LrSchedule};
pub use parallel::{default_threads, parallel_map, train_epoch};
pub use params::{Fill, Gradients, Init, Param, ParamId, ParamStore};
pub use quant::{quantize_row_i8, quantize_row_u8, QuantScratch, QuantizedLinear};
pub use tape::{AttnMask, NodeId, Tape, MASK_NEG};
pub use tensor::Tensor;
pub use vmath::softmax_row;
