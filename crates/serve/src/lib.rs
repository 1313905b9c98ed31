//! # doduo-serve
//!
//! Batched, multi-threaded annotation serving for the DODUO reproduction —
//! the throughput layer the ROADMAP's production north star asks for.
//!
//! The training side of this workspace parallelizes *gradients* (one table
//! = one tape, fan-out in `doduo_tensor::parallel`); until this crate, the
//! serving side annotated exactly one table per call on one thread. A
//! [`BatchAnnotator`] closes that gap with three stacked levers:
//!
//! 1. **Tokenization dedup** — a [`TokenCache`] (LRU) memoizes WordPiece
//!    tokenization keyed by serialized column text, so repeated columns
//!    (dimension tables, shared vocabularies, re-submitted tables) skip
//!    the tokenizer entirely.
//! 2. **Packed batches** — sequences are packed row-wise, unpadded, into
//!    one ragged forward pass on the tape-free executor
//!    (`Encoder::encode`), paying scheduling overhead once per batch
//!    instead of once per table, while block-diagonal attention makes each
//!    table pay exactly its own compute.
//! 3. **Thread fan-out** — micro-batches are striped across the calling
//!    thread and `threads − 1` `std::thread::scope` workers (`threads`
//!    defaulting to `doduo_tensor::parallel::default_threads`), which
//!    share the read-only `ParamStore` without locking; one engine thread
//!    means no spawn at all.
//!
//! All of it is *observationally free*: results are bit-identical to
//! calling `Annotator::annotate` once per table, in input order, at every
//! batch size and thread count.
//!
//! The engine owns its model: construction takes an
//! `Arc<doduo_core::AnnotatorBundle>`, which makes one `BatchAnnotator` a
//! complete, swappable serving unit — the daemon's hot-swap path builds a
//! fresh engine around a newly uploaded bundle and exchanges `Arc`s, while
//! in-flight batches finish on the engine they started with.
//!
//! ```no_run
//! # fn demo(bundle: std::sync::Arc<doduo_core::AnnotatorBundle>, tables: &[doduo_table::Table]) {
//! use doduo_serve::BatchAnnotator;
//! let server = BatchAnnotator::new(bundle);
//! let annotations = server.annotate_batch(tables);
//! # let _ = annotations;
//! # }
//! ```
#![warn(missing_docs)]

mod batch;
mod cache;

pub use batch::{BatchAnnotator, BatchConfig};
pub use cache::{CacheStats, TokenCache};
