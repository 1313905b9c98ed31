//! # doduo-repro
//!
//! Umbrella crate for the DODUO (SIGMOD 2022) reproduction. It re-exports
//! the workspace crates under one roof and hosts the runnable examples and
//! the cross-crate integration tests. See `README.md` for the tour and
//! `ARCHITECTURE.md` for how the crates fit together.

pub use doduo_baselines as baselines;
pub use doduo_core as core;
pub use doduo_datagen as datagen;
pub use doduo_eval as eval;
pub use doduo_serve as serve;
pub use doduo_table as table;
pub use doduo_tensor as tensor;
pub use doduo_tokenizer as tokenizer;
pub use doduo_transformer as transformer;
