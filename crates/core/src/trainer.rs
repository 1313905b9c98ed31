//! Multi-task fine-tuning (Algorithm 1 of the paper).
//!
//! Each epoch iterates the task list; each task has its *own* optimizer
//! (hard parameter sharing over the encoder, per-task Adam with a linear
//! decay schedule and no warm-up, §5.3) and runs one
//! [`doduo_tensor::train_epoch`] — the mini-batch loop MLM pretraining and
//! the Sherlock/Sato MLP run too. Training and evaluation split their work
//! per serialized table through the one chunked fan-out,
//! [`doduo_tensor::parallel_map`], and the checkpoint with the best
//! validation F1 is kept, exactly as the paper selects checkpoints.

use crate::model::{DoduoModel, InputMode};
use doduo_eval::{decode_labels, multi_label_micro, Prf};
use doduo_table::{Dataset, SerializedTable};
use doduo_tensor::{
    parallel_map, train_epoch, Adam, Executor, LrSchedule, ParamStore, Slot, Tensor,
};
use doduo_tokenizer::WordPiece;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The two annotation tasks of the paper.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Task {
    /// Column-type prediction (eq. 1).
    ColumnType,
    /// Column-relation prediction (eq. 2).
    ColumnRelation,
}

/// Fine-tuning hyper-parameters.
#[derive(Clone, Debug)]
pub struct TrainConfig {
    /// Fine-tuning epochs (each epoch visits every task, Algorithm 1).
    pub epochs: usize,
    /// Tables per optimizer step.
    pub batch_size: usize,
    /// Initial learning rate of the per-task linear-decay schedules.
    pub lr: f32,
    /// Worker threads for the per-batch gradient fan-out.
    pub threads: usize,
    /// Seed for batch shuffling and dropout streams.
    pub seed: u64,
    /// Keep the checkpoint with the best validation F1 (§5.3).
    pub select_best: bool,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 30,
            batch_size: 16,
            lr: 5e-3,
            threads: doduo_tensor::default_threads(),
            seed: 42,
            select_best: true,
        }
    }
}

/// A pre-serialized type-prediction example: one sequence (a whole table in
/// table-wise mode, one column in single-column mode) plus gold labels for
/// each represented column.
pub struct TypeExample {
    /// The serialized sequence.
    pub st: SerializedTable,
    /// Gold label ids per represented column.
    pub gold: Vec<Vec<u32>>,
    /// Multi-hot targets (built once) when the task is multi-label.
    pub multi_hot: Option<Tensor>,
}

/// A pre-serialized relation example in table-wise mode: one sequence plus
/// the (subject, object) pairs and their gold relations.
pub struct RelExample {
    /// The serialized whole table.
    pub st: SerializedTable,
    /// `(subject, object)` column-index pairs with annotated relations.
    pub pairs: Vec<(usize, usize)>,
    /// Gold relation id per pair.
    pub gold: Vec<u32>,
    /// Multi-hot targets (built once) when the task is multi-label.
    pub multi_hot: Option<Tensor>,
}

/// A relation example in single-column mode: one serialized column pair.
pub struct RelSingleExample {
    /// The serialized column pair.
    pub st: SerializedTable,
    /// Gold relation id.
    pub gold: u32,
    /// Multi-hot target (built once) when the task is multi-label.
    pub multi_hot: Option<Tensor>,
}

/// All training/evaluation examples for one dataset under one model config.
pub struct Prepared {
    /// Type-task examples (one per table, or one per column in
    /// single-column mode).
    pub types: Vec<TypeExample>,
    /// Relation-task examples in table-wise mode.
    pub rels: Vec<RelExample>,
    /// Relation-task examples in single-column (pair) mode.
    pub rels_single: Vec<RelSingleExample>,
}

fn multi_hot(rows: &[Vec<u32>], n_classes: usize) -> Tensor {
    let mut t = Tensor::zeros(rows.len(), n_classes);
    for (r, labels) in rows.iter().enumerate() {
        for &l in labels {
            t.set(r, l as usize, 1.0);
        }
    }
    t
}

/// Serializes a dataset into training examples for `model`.
pub fn prepare(model: &DoduoModel, ds: &Dataset, tok: &WordPiece) -> Prepared {
    let cfg = model.config();
    let mut types = Vec::new();
    let mut rels = Vec::new();
    let mut rels_single = Vec::new();
    for at in &ds.tables {
        match cfg.input_mode {
            InputMode::TableWise => {
                let st = model.serialize_for_types(&at.table, tok).remove(0);
                let gold = at.col_types.clone();
                let mh = cfg.multi_label.then(|| multi_hot(&gold, cfg.n_types));
                if !at.relations.is_empty() {
                    let pairs: Vec<(usize, usize)> =
                        at.relations.iter().map(|r| (r.subject_col, r.object_col)).collect();
                    let rel_gold: Vec<u32> = at.relations.iter().map(|r| r.relation).collect();
                    let rows: Vec<Vec<u32>> = rel_gold.iter().map(|&g| vec![g]).collect();
                    let rel_mh = cfg.multi_label.then(|| multi_hot(&rows, cfg.n_rels));
                    rels.push(RelExample {
                        st: st.clone(),
                        pairs,
                        gold: rel_gold,
                        multi_hot: rel_mh,
                    });
                }
                types.push(TypeExample { st, gold, multi_hot: mh });
            }
            InputMode::SingleColumn => {
                for (c, st) in model.serialize_for_types(&at.table, tok).into_iter().enumerate() {
                    let gold = vec![at.col_types[c].clone()];
                    let mh = cfg.multi_label.then(|| multi_hot(&gold, cfg.n_types));
                    types.push(TypeExample { st, gold, multi_hot: mh });
                }
                for r in &at.relations {
                    let st = model.serialize_pair(&at.table, r.subject_col, r.object_col, tok);
                    let rows = vec![vec![r.relation]];
                    let mh = cfg.multi_label.then(|| multi_hot(&rows, cfg.n_rels));
                    rels_single.push(RelSingleExample { st, gold: r.relation, multi_hot: mh });
                }
            }
        }
    }
    Prepared { types, rels, rels_single }
}

/// Label-set predictions with their gold counterparts (singleton sets in
/// the single-label case, so the same micro-F1 code covers both regimes).
#[derive(Clone, Debug, Default)]
pub struct Predictions {
    /// Predicted label sets, one per example.
    pub pred: Vec<Vec<u32>>,
    /// Gold label sets, aligned with `pred`.
    pub gold: Vec<Vec<u32>>,
}

impl Predictions {
    /// Micro-averaged precision/recall/F1 over all predictions.
    pub fn micro(&self) -> Prf {
        multi_label_micro(&self.pred, &self.gold)
    }

    /// Single-label views (first element of each set) for macro-F1 /
    /// per-class reporting on VizNet-style tasks.
    pub fn single_label(&self) -> (Vec<u32>, Vec<u32>) {
        (
            self.pred.iter().map(|s| s.first().copied().unwrap_or(0)).collect(),
            self.gold.iter().map(|s| s.first().copied().unwrap_or(0)).collect(),
        )
    }
}

/// One evaluation forward on the calling thread's tape-free executor — the
/// same generic model code the trainer records on a tape, hence the same
/// logits bit for bit (`executor_matches_tape_bitwise`) — decoded row by
/// row. `logits` runs the model; the `rng` it is handed is never drawn from
/// (no dropout off a training tape).
fn predict_rows(
    store: &ParamStore,
    multi_label: bool,
    logits: impl FnOnce(&mut Executor<'_>, &mut StdRng) -> Slot,
) -> Vec<Vec<u32>> {
    let mut ex = Executor::new(store);
    let logits = logits(&mut ex, &mut StdRng::seed_from_u64(0));
    ex.value(&logits).chunks_exact(logits.cols()).map(|z| decode_labels(z, multi_label)).collect()
}

/// Runs `predict` — which appends one example's predicted and gold label
/// sets — over `examples` through the chunked fan-out, in input order.
fn predict_all<E: Sync>(
    examples: &[E],
    threads: usize,
    predict: impl Fn(&E, &mut Predictions) + Sync,
) -> Predictions {
    let mut out = Predictions::default();
    for chunk in parallel_map(examples, threads, |_, chunk| {
        let mut part = Predictions::default();
        chunk.iter().for_each(|ex| predict(ex, &mut part));
        part
    }) {
        out.pred.extend(chunk.pred);
        out.gold.extend(chunk.gold);
    }
    out
}

/// Predicts column types for prepared examples.
pub fn predict_types(
    model: &DoduoModel,
    store: &ParamStore,
    examples: &[TypeExample],
    threads: usize,
) -> Predictions {
    let ml = model.config().multi_label;
    predict_all(examples, threads, |ex, out| {
        out.pred.extend(predict_rows(store, ml, |f, rng| model.type_logits(f, &ex.st, rng)));
        out.gold.extend_from_slice(&ex.gold);
    })
}

/// Predicts relations for prepared table-wise examples.
pub fn predict_rels(
    model: &DoduoModel,
    store: &ParamStore,
    examples: &[RelExample],
    threads: usize,
) -> Predictions {
    let ml = model.config().multi_label;
    predict_all(examples, threads, |ex, out| {
        out.pred
            .extend(predict_rows(store, ml, |f, rng| model.rel_logits(f, &ex.st, &ex.pairs, rng)));
        out.gold.extend(ex.gold.iter().map(|&g| vec![g]));
    })
}

/// Predicts relations for single-column-pair examples.
pub fn predict_rels_single(
    model: &DoduoModel,
    store: &ParamStore,
    examples: &[RelSingleExample],
    threads: usize,
) -> Predictions {
    let ml = model.config().multi_label;
    predict_all(examples, threads, |ex, out| {
        let mut preds = predict_rows(store, ml, |f, rng| model.rel_logits_single(f, &ex.st, rng));
        out.pred.push(preds.swap_remove(0));
        out.gold.push(vec![ex.gold]);
    })
}

/// Validation scores after an epoch.
#[derive(Clone, Debug)]
pub struct EvalScores {
    /// Micro-averaged column-type scores.
    pub type_micro: Prf,
    /// Micro-averaged relation scores (absent when no relation examples).
    pub rel_micro: Option<Prf>,
}

impl EvalScores {
    /// Model-selection criterion: mean F1 over the tasks being trained.
    pub fn selection_score(&self, tasks: &[Task]) -> f64 {
        let mut sum = 0.0;
        let mut n = 0;
        if tasks.contains(&Task::ColumnType) {
            sum += self.type_micro.f1;
            n += 1;
        }
        if tasks.contains(&Task::ColumnRelation) {
            if let Some(r) = self.rel_micro {
                sum += r.f1;
                n += 1;
            }
        }
        if n == 0 {
            0.0
        } else {
            sum / n as f64
        }
    }
}

/// A model's predictions on a prepared set, task by task.
#[derive(Clone, Debug, Default)]
pub struct TaskPredictions {
    /// Column types.
    pub types: Predictions,
    /// Relations, when the set has relation examples for the model's input
    /// mode.
    pub rels: Option<Predictions>,
}

impl TaskPredictions {
    /// The micro-averaged scores of these predictions.
    pub fn scores(&self) -> EvalScores {
        EvalScores {
            type_micro: self.types.micro(),
            rel_micro: self.rels.as_ref().map(Predictions::micro),
        }
    }
}

/// Predicts every task of a prepared set.
pub fn predict_tasks(
    model: &DoduoModel,
    store: &ParamStore,
    data: &Prepared,
    threads: usize,
) -> TaskPredictions {
    let types = predict_types(model, store, &data.types, threads);
    let rels = match model.config().input_mode {
        InputMode::TableWise if !data.rels.is_empty() => {
            Some(predict_rels(model, store, &data.rels, threads))
        }
        InputMode::SingleColumn if !data.rels_single.is_empty() => {
            Some(predict_rels_single(model, store, &data.rels_single, threads))
        }
        _ => None,
    };
    TaskPredictions { types, rels }
}

/// Evaluates a model on prepared examples.
pub fn evaluate(
    model: &DoduoModel,
    store: &ParamStore,
    data: &Prepared,
    threads: usize,
) -> EvalScores {
    predict_tasks(model, store, data, threads).scores()
}

/// Per-epoch record in a [`TrainReport`].
#[derive(Clone, Debug)]
pub struct EpochRecord {
    /// Mean training loss per task this epoch (`NaN` for empty tasks).
    pub task_losses: Vec<(Task, f32)>,
    /// Validation scores after the epoch.
    pub valid: EvalScores,
}

/// Outcome of a training run.
pub struct TrainReport {
    /// Per-epoch losses and validation scores.
    pub epochs: Vec<EpochRecord>,
    /// Epoch whose checkpoint was kept (with `select_best`).
    pub best_epoch: usize,
    /// Validation selection score of the kept checkpoint.
    pub best_score: f64,
}

fn snapshot(store: &ParamStore) -> Vec<Tensor> {
    (0..store.len()).map(|i| store.get(i).clone()).collect()
}

fn restore(store: &mut ParamStore, snap: &[Tensor]) {
    for (i, t) in snap.iter().enumerate() {
        store.set_value(i, t.clone());
    }
}

/// Fine-tunes `model` with Algorithm 1: per-task optimizers, task-alternating
/// epochs, best-validation-checkpoint selection.
pub fn train(
    model: &DoduoModel,
    store: &mut ParamStore,
    train_data: &Prepared,
    valid_data: &Prepared,
    tasks: &[Task],
    cfg: &TrainConfig,
) -> TrainReport {
    assert!(!tasks.is_empty(), "no tasks to train");
    let ml = model.config().multi_label;
    let single = model.config().input_mode == InputMode::SingleColumn;
    let mut rng = StdRng::seed_from_u64(cfg.seed);

    // Auto positive-class weights per task: (C - avg positives) / avg
    // positives, capped — the standard counterweight for one-or-two true
    // labels among dozens of classes.
    let auto_w = |rows: &mut dyn Iterator<Item = usize>, n_classes: usize| -> f32 {
        let mut total = 0usize;
        let mut n = 0usize;
        for p in rows {
            total += p;
            n += 1;
        }
        if n == 0 || total == 0 {
            return 1.0;
        }
        let avg = total as f32 / n as f32;
        ((n_classes as f32 - avg) / avg).clamp(1.0, 20.0)
    };
    let w_type = auto_w(
        &mut train_data.types.iter().flat_map(|e| e.gold.iter().map(|g| g.len())),
        model.config().n_types,
    );
    let w_rel = auto_w(
        &mut train_data
            .rels
            .iter()
            .flat_map(|e| e.gold.iter().map(|_| 1usize))
            .chain(train_data.rels_single.iter().map(|_| 1usize)),
        model.config().n_rels,
    );

    // One optimizer + schedule per task (Algorithm 1 line "optimizer O_i").
    let n_items = |task: Task| match task {
        Task::ColumnType => train_data.types.len(),
        Task::ColumnRelation => {
            if single {
                train_data.rels_single.len()
            } else {
                train_data.rels.len()
            }
        }
    };
    let mut opts: Vec<Adam> = tasks
        .iter()
        .map(|&t| {
            let steps = cfg.epochs * n_items(t).div_ceil(cfg.batch_size).max(1);
            Adam::new(store, LrSchedule::LinearDecay { lr0: cfg.lr, total_steps: steps })
        })
        .collect();

    let mut best: Option<(f64, usize, Vec<Tensor>)> = None;
    let mut epochs = Vec::with_capacity(cfg.epochs);

    for epoch in 0..cfg.epochs {
        let mut task_losses = Vec::with_capacity(tasks.len());
        for (ti, &task) in tasks.iter().enumerate() {
            let n = n_items(task);
            if n == 0 {
                task_losses.push((task, f32::NAN));
                continue;
            }
            let mut order: Vec<usize> = (0..n).collect();
            let total = train_epoch(
                store,
                &mut opts[ti],
                &mut order,
                cfg.batch_size,
                cfg.threads,
                &mut rng,
                |tape, idx, rng| match task {
                    Task::ColumnType => {
                        let ex = &train_data.types[idx];
                        let logits = model.type_logits(tape, &ex.st, rng);
                        if ml {
                            tape.bce_logits_weighted(
                                logits,
                                ex.multi_hot.as_ref().expect("ml targets"),
                                w_type,
                            )
                        } else {
                            let targets: Vec<u32> = ex.gold.iter().map(|g| g[0]).collect();
                            tape.softmax_ce(logits, &targets)
                        }
                    }
                    Task::ColumnRelation if single => {
                        let ex = &train_data.rels_single[idx];
                        let logits = model.rel_logits_single(tape, &ex.st, rng);
                        if ml {
                            tape.bce_logits_weighted(
                                logits,
                                ex.multi_hot.as_ref().expect("ml targets"),
                                w_rel,
                            )
                        } else {
                            tape.softmax_ce(logits, &[ex.gold])
                        }
                    }
                    Task::ColumnRelation => {
                        let ex = &train_data.rels[idx];
                        let logits = model.rel_logits(tape, &ex.st, &ex.pairs, rng);
                        if ml {
                            tape.bce_logits_weighted(
                                logits,
                                ex.multi_hot.as_ref().expect("ml targets"),
                                w_rel,
                            )
                        } else {
                            tape.softmax_ce(logits, &ex.gold)
                        }
                    }
                },
            );
            task_losses.push((task, total / n as f32));
        }

        let valid = evaluate(model, store, valid_data, cfg.threads);
        let score = valid.selection_score(tasks);
        if cfg.select_best && best.as_ref().is_none_or(|(b, _, _)| score > *b) {
            best = Some((score, epoch, snapshot(store)));
        }
        epochs.push(EpochRecord { task_losses, valid });
    }

    let (best_score, best_epoch) = match best {
        Some((score, epoch, snap)) => {
            restore(store, &snap);
            (score, epoch)
        }
        None => (
            epochs.last().map_or(0.0, |e| e.valid.selection_score(tasks)),
            cfg.epochs.saturating_sub(1),
        ),
    };
    TrainReport { epochs, best_epoch, best_score }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{AttentionMode, DoduoConfig};
    use doduo_datagen::{generate_wikitable, KbConfig, KnowledgeBase, WikiTableConfig};
    use doduo_table::SerializeConfig;
    use doduo_tokenizer::{TrainConfig as TokTrain, WordPiece};
    use doduo_transformer::EncoderConfig;

    fn tiny_setup() -> (WordPiece, Dataset, Dataset) {
        let kb = KnowledgeBase::generate(&KbConfig::default(), 42);
        let ds = generate_wikitable(
            &kb,
            &WikiTableConfig { n_tables: 60, min_rows: 2, max_rows: 3, seed: 7 },
        );
        let corpus: Vec<String> = ds
            .tables
            .iter()
            .flat_map(|t| t.table.columns.iter())
            .flat_map(|c| c.values.iter().cloned())
            .collect();
        let tok = WordPiece::train(
            corpus.iter().map(String::as_str),
            &TokTrain { merges: 400, min_pair_count: 2, max_word_len: 24 },
        );
        let mut rng = StdRng::seed_from_u64(1);
        let (train, valid, _test) = ds.split(0.8, 0.2, &mut rng);
        (tok, train, valid)
    }

    fn tiny_model(tok: &WordPiece, ds: &Dataset, mode: InputMode) -> (ParamStore, DoduoModel) {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(3);
        let enc = EncoderConfig::tiny(tok.vocab_size());
        let max_seq = enc.max_seq;
        let cfg = DoduoConfig::new(enc, ds.type_vocab.len(), ds.rel_vocab.len(), true)
            .with_input_mode(mode)
            .with_attention(AttentionMode::Full)
            .with_serialize(SerializeConfig::new(8, max_seq));
        let model = DoduoModel::new(&mut store, cfg, "m", &mut rng);
        (store, model)
    }

    #[test]
    fn prepare_table_wise_counts() {
        let (tok, train_ds, _valid) = tiny_setup();
        let (_store, model) = tiny_model(&tok, &train_ds, InputMode::TableWise);
        let prepared = prepare(&model, &train_ds, &tok);
        assert_eq!(prepared.types.len(), train_ds.tables.len());
        assert!(prepared.rels.len() <= train_ds.tables.len());
        assert!(prepared.rels_single.is_empty());
        // Every table's gold count matches its column count.
        for (ex, t) in prepared.types.iter().zip(&train_ds.tables) {
            assert_eq!(ex.gold.len(), t.table.n_cols());
            assert_eq!(ex.st.n_cols(), t.table.n_cols());
            let mh = ex.multi_hot.as_ref().unwrap();
            assert_eq!(mh.rows(), t.table.n_cols());
            // Multi-hot row sums equal gold label counts.
            for (r, g) in t.col_types.iter().enumerate() {
                let sum: f32 = mh.row(r).iter().sum();
                assert_eq!(sum as usize, g.len());
            }
        }
    }

    #[test]
    fn prepare_single_column_counts() {
        let (tok, train_ds, _valid) = tiny_setup();
        let (_store, model) = tiny_model(&tok, &train_ds, InputMode::SingleColumn);
        let prepared = prepare(&model, &train_ds, &tok);
        let n_cols: usize = train_ds.tables.iter().map(|t| t.table.n_cols()).sum();
        let n_rels: usize = train_ds.tables.iter().map(|t| t.relations.len()).sum();
        assert_eq!(prepared.types.len(), n_cols);
        assert_eq!(prepared.rels_single.len(), n_rels);
        assert!(prepared.rels.is_empty());
    }

    #[test]
    fn multitask_training_improves_over_initialization() {
        // The paper's pipeline: MLM-pretrain, then fine-tune with Algorithm 1.
        // (Appendix A.5: without pretraining the model reaches ~0 F1 — see
        // `from_scratch_multilabel_stalls` below.)
        let kb = KnowledgeBase::generate(&KbConfig::default(), 42);
        let ds = generate_wikitable(
            &kb,
            &WikiTableConfig { n_tables: 80, min_rows: 2, max_rows: 3, seed: 7 },
        );
        let corpus = doduo_datagen::generate_corpus(&kb, 42);
        let mut recipe = crate::pipeline::PretrainRecipe::tiny();
        recipe.mlm.epochs = 5;
        let lm = crate::pipeline::pretrain_lm(&corpus[..3000.min(corpus.len())], &recipe, 42);
        let mut rng = StdRng::seed_from_u64(2);
        let (train_ds, valid_ds, _test) = ds.split(0.8, 0.2, &mut rng);
        let (mut store, model) = crate::pipeline::build_finetune_model(
            &lm,
            |enc| {
                let max_seq = enc.max_seq;
                DoduoConfig::new(enc, train_ds.type_vocab.len(), train_ds.rel_vocab.len(), true)
                    .with_serialize(SerializeConfig::new(8, max_seq))
            },
            3,
        );
        let tok = &lm.tokenizer;
        let train_p = prepare(&model, &train_ds, tok);
        let valid_p = prepare(&model, &valid_ds, tok);
        let before = evaluate(&model, &store, &valid_p, 2);
        let report = train(
            &model,
            &mut store,
            &train_p,
            &valid_p,
            &[Task::ColumnType, Task::ColumnRelation],
            &TrainConfig { epochs: 40, batch_size: 8, lr: 5e-3, threads: 8, ..Default::default() },
        );
        let after = evaluate(&model, &store, &valid_p, 2);
        assert!(
            after.type_micro.f1 > before.type_micro.f1 + 0.2,
            "type F1 {} -> {}",
            before.type_micro.f1,
            after.type_micro.f1
        );
        assert!(after.rel_micro.unwrap().f1 > 0.3, "rel F1 {:?}", after.rel_micro);
        assert_eq!(report.epochs.len(), 40);
        // Losses must be finite and decreasing.
        let first_loss = report.epochs[0].task_losses[0].1;
        let last_loss = report.epochs[39].task_losses[0].1;
        assert!(first_loss.is_finite() && last_loss.is_finite());
        assert!(last_loss < first_loss, "type loss {first_loss} -> {last_loss}");
    }

    #[test]
    fn from_scratch_multilabel_stalls() {
        // Appendix A.5: a randomly-initialized Doduo "did not show meaningful
        // performance". With our miniature the multi-label head collapses to
        // the class prior without pretraining.
        let (tok, train_ds, valid_ds) = tiny_setup();
        let (mut store, model) = tiny_model(&tok, &train_ds, InputMode::TableWise);
        let train_p = prepare(&model, &train_ds, &tok);
        let valid_p = prepare(&model, &valid_ds, &tok);
        train(
            &model,
            &mut store,
            &train_p,
            &valid_p,
            &[Task::ColumnType],
            &TrainConfig { epochs: 6, batch_size: 8, lr: 2e-3, threads: 4, ..Default::default() },
        );
        let after = evaluate(&model, &store, &valid_p, 2);
        assert!(
            after.type_micro.f1 < 0.5,
            "from-scratch multi-label should stay weak, got {}",
            after.type_micro.f1
        );
    }

    #[test]
    fn best_checkpoint_is_restored() {
        let (tok, train_ds, valid_ds) = tiny_setup();
        let (mut store, model) = tiny_model(&tok, &train_ds, InputMode::TableWise);
        let train_p = prepare(&model, &train_ds, &tok);
        let valid_p = prepare(&model, &valid_ds, &tok);
        let report = train(
            &model,
            &mut store,
            &train_p,
            &valid_p,
            &[Task::ColumnType],
            &TrainConfig { epochs: 3, batch_size: 16, lr: 2e-3, threads: 4, ..Default::default() },
        );
        // The restored weights must score what the best epoch scored.
        let now = evaluate(&model, &store, &valid_p, 2);
        let best_recorded = report.epochs[report.best_epoch].valid.type_micro.f1;
        assert!((now.type_micro.f1 - best_recorded).abs() < 1e-9);
        assert!((report.best_score - best_recorded).abs() < 1e-9);
    }

    #[test]
    fn predictions_do_not_depend_on_threads() {
        let (tok, train_ds, _valid) = tiny_setup();
        let (store, model) = tiny_model(&tok, &train_ds, InputMode::TableWise);
        let prepared = prepare(&model, &train_ds, &tok);
        let at = |threads| predict_types(&model, &store, &prepared.types, threads);
        let one = at(1);
        assert_eq!(one.pred.len(), one.gold.len());
        for threads in [2, 5] {
            let other = at(threads);
            assert_eq!((&other.pred, &other.gold), (&one.pred, &one.gold), "threads {threads}");
        }
    }
}
