//! # doduo-core
//!
//! The DODUO system of *Annotating Columns with Pre-trained Language Models*
//! (SIGMOD 2022): a multi-task, table-wise column-annotation framework on
//! top of a pre-trained Transformer encoder.
//!
//! * [`model`] — the architecture of §4: table-wise serialization with one
//!   `[CLS]` per column, a column-type head (eq. 1) and a column-relation
//!   head over `[CLS]` pairs (eq. 2); plus the ablation switches
//!   ([`InputMode::SingleColumn`] for `DosoloSCol`,
//!   [`AttentionMode::ColumnVisibility`] for the TURL baseline).
//! * [`trainer`] — Algorithm 1: task-alternating epochs with one Adam
//!   optimizer per task, linear LR decay, best-validation checkpointing;
//!   plus batched parallel prediction/evaluation helpers.
//! * [`predictor`] — the toolbox API: [`Annotator`] annotates raw tables and
//!   extracts contextualized column embeddings (§7).
//! * [`analysis`] — the Figure 6 attention-dependency analysis.
//! * [`checkpoint`] — self-contained [`AnnotatorBundle`] checkpoints
//!   (weights + config + tokenizer + label vocabularies in one artifact)
//!   for serving processes that restart from disk.
//! * [`quant`] — the opt-in int8 serving tier ([`QuantizedModel`]): the
//!   quantized weights only, built once from a loaded bundle's f32 weights,
//!   annotating through the predictor's one walk, and accuracy-gated by
//!   the repro harness (two-tier numerics policy, see `doduo_tensor::quant`).
//!
//! The paper's model variants map to configurations of the same structs:
//!
//! | Paper name | Configuration |
//! |---|---|
//! | Doduo       | `TableWise` + `Full` attention + both tasks |
//! | Dosolo      | `TableWise` + `Full` + one task |
//! | DosoloSCol  | `SingleColumn` + one task |
//! | TURL (repro)| `TableWise` + `ColumnVisibility` + fine-tuned per task |
//! | +metadata   | any of the above with `SerializeConfig::with_metadata()` |

#![warn(missing_docs)]

pub mod analysis;
pub mod checkpoint;
pub mod model;
pub mod pipeline;
pub mod predictor;
pub mod quant;
pub mod trainer;

pub use analysis::attention_dependency;
pub use checkpoint::{blob_crc, AnnotatorBundle, BundleError};
pub use doduo_eval::decode_labels;
pub use model::{AttentionMode, DoduoConfig, DoduoModel, InputMode};
pub use pipeline::{
    build_finetune_model, instantiate_lm, pretrain_lm, PretrainRecipe, PretrainedLm, ENC_PREFIX,
};
pub use predictor::{
    scored_labels, Annotator, ColumnTypePrediction, Logits, RelationPrediction, TableAnnotation,
};
pub use quant::QuantizedModel;
pub use trainer::{
    evaluate, predict_rels, predict_rels_single, predict_tasks, predict_types, prepare, train,
    EpochRecord, EvalScores, Predictions, Prepared, RelExample, RelSingleExample, Task,
    TaskPredictions, TrainConfig, TrainReport, TypeExample,
};
