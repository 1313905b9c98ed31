//! # doduo-transformer
//!
//! A from-scratch, CPU-trainable BERT-style Transformer encoder — the
//! "pre-trained language model" substrate of the DODUO reproduction
//! (ARCHITECTURE.md, "Quick-scale vs full-scale experiments", documents
//! the BERT-base → miniature substitution).
//!
//! Provides:
//! * [`EncoderConfig`] / [`Encoder`] — post-LN Transformer blocks with
//!   learned position embeddings and optional attention visibility masks
//!   (the TURL baseline's restricted attention). One forward definition:
//!   a ragged-packed batch through one layer loop, parameterised by how a
//!   dense layer is applied ([`Dense`]); a single sequence is the batch
//!   of one.
//! * [`MlmHead`], [`pretrain_mlm`] — BERT's masked-language-model objective
//!   with the 80/10/10 masking recipe, so the LM stores retrievable factual
//!   knowledge from its pretraining corpus.
//! * [`pseudo_perplexity`] — the sequence-scoring function behind the
//!   paper's LM-probing analysis (Tables 12-13, eq. 3).
//! * [`QuantEncoder`] — the opt-in int8 serving tier of [`Encoder`]: the
//!   dense layers quantized once from trained f32 weights and handed to
//!   that same loop (accuracy-gated, see `doduo_tensor::quant`).

pub mod config;
pub mod encoder;
pub mod mlm;
pub mod ops;
pub mod quant;

pub use config::EncoderConfig;
pub use encoder::{all_rows, mask_from_fn, BatchEncoding, BatchSeq, Encoder};
pub use mlm::{mask_tokens, pretrain_mlm, pseudo_perplexity, MaskedExample, MlmConfig, MlmHead};
pub use ops::{Dense, Ops};
pub use quant::QuantEncoder;
