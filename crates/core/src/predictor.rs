//! The "toolbox" API (§1: *"can be used with just a few lines of Python
//! code"* — here, Rust): annotate an unseen table with types, relations and
//! contextualized column embeddings.
//!
//! All annotation, f32 and int8, funnels through one walk
//! (`Annotator::annotate_tier`): pack any number of serialized tables into
//! a single ragged forward pass, select every `[CLS]` row of the whole
//! batch at once, run each classification head exactly once per batch, and
//! scatter the logits into [`TableAnnotation`]s. The tiers differ only in
//! whose dense layers the encoder and the heads apply (`Dense`):
//! [`Annotator::annotate_serialized`] passes the f32 parameters,
//! `QuantizedModel::annotate_serialized` their int8 twins.
//! [`Annotator::annotate`] is the batch of one. Deduplicating tokenization,
//! choosing batch compositions, and fanning batches across worker threads
//! are serving concerns layered on top by `doduo-serve`'s `BatchAnnotator`.

use crate::model::{DoduoModel, InputMode};
use crate::quant::QuantizedModel;
use crate::trainer::decode_labels;
use doduo_table::{LabelVocab, SerializedTable, Table};
use doduo_tensor::{vmath, AttnMask, ParamStore, Tape};
use doduo_tokenizer::WordPiece;
use doduo_transformer::BatchSeq;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Predicted labels for one column.
#[derive(Clone, Debug)]
pub struct ColumnTypePrediction {
    /// Column index within the table.
    pub column: usize,
    /// `(label name, score)` — sigmoid probabilities in multi-label mode,
    /// softmax probabilities otherwise; sorted descending.
    pub labels: Vec<(String, f32)>,
}

/// Predicted relation between the subject column and one object column.
#[derive(Clone, Debug)]
pub struct RelationPrediction {
    /// Subject column index (the paper always uses column 0).
    pub subject: usize,
    /// Object column index.
    pub object: usize,
    /// `(label name, score)` pairs, sorted descending.
    pub labels: Vec<(String, f32)>,
}

/// Full annotation of a table.
#[derive(Clone, Debug)]
pub struct TableAnnotation {
    /// One prediction per column, in column order.
    pub types: Vec<ColumnTypePrediction>,
    /// One prediction per `(0, j)` column pair (empty in single-column
    /// mode or when the model has no relation vocabulary).
    pub relations: Vec<RelationPrediction>,
}

/// A trained model bundled with everything needed to annotate raw tables.
pub struct Annotator<'a> {
    /// The fine-tuned model.
    pub model: &'a DoduoModel,
    /// The weights backing `model`.
    pub store: &'a ParamStore,
    /// The tokenizer the model was trained with.
    pub tokenizer: &'a WordPiece,
    /// Names for the column-type label ids.
    pub type_vocab: &'a LabelVocab,
    /// Names for the column-relation label ids.
    pub rel_vocab: &'a LabelVocab,
}

/// Scored labels from one logit row, sorted descending, with the set the
/// decision rule would emit placed first: sigmoid probabilities in
/// multi-label mode, softmax probabilities otherwise, truncated to the
/// decision-rule labels plus the next best few for context.
pub fn scored_labels(logits: &[f32], vocab: &LabelVocab, multi_label: bool) -> Vec<(String, f32)> {
    let mut scores: Vec<f32> = logits.to_vec();
    if multi_label {
        vmath::sigmoid(&mut scores);
    } else {
        vmath::softmax_row(&mut scores);
    }
    let chosen = decode_labels(logits, multi_label);
    let mut rows: Vec<(String, f32)> =
        scores.iter().enumerate().map(|(i, &s)| (vocab.name(i as u32).to_string(), s)).collect();
    // `total_cmp`: a total order even over non-finite scores, so a poisoned
    // checkpoint can mis-rank labels but never panic a serving thread.
    rows.sort_by(|a, b| b.1.total_cmp(&a.1));
    // Keep the decision-rule labels plus the next best few for context.
    let keep = chosen.len().max(3).min(rows.len());
    rows.truncate(keep);
    rows
}

impl Annotator<'_> {
    /// Annotates every column (and, in table-wise mode, every `(0, j)`
    /// column pair) of a table. Delegates to the batched path with a batch
    /// of one, so single-table and batched annotation share one code path
    /// and produce identical results.
    pub fn annotate(&self, table: &Table) -> TableAnnotation {
        self.annotate_all(std::slice::from_ref(table)).pop().expect("one table in, one out")
    }

    /// Annotates a slice of tables in one packed forward pass (one tape,
    /// single-threaded). This is the building block `doduo-serve` composes
    /// into micro-batches and fans across threads.
    pub fn annotate_all(&self, tables: &[Table]) -> Vec<TableAnnotation> {
        let groups: Vec<Vec<SerializedTable>> =
            tables.iter().map(|t| self.model.serialize_for_types(t, self.tokenizer)).collect();
        let borrowed: Vec<&[SerializedTable]> = groups.iter().map(Vec::as_slice).collect();
        self.annotate_serialized(&borrowed)
    }

    /// Annotates pre-serialized tables: each group is the output of
    /// `DoduoModel::serialize_for_types` for one table (one sequence in
    /// table-wise mode, one per column in single-column mode). All
    /// sequences of all groups run through a single
    /// `Encoder::forward_batch` call; the type head runs once over every
    /// `[CLS]` row of the batch and the relation head once over every
    /// `(0, j)` pair of every table. Output order matches input order, and
    /// each annotation is bit-identical to what [`Annotator::annotate`]
    /// produces for that table alone.
    pub fn annotate_serialized(&self, groups: &[&[SerializedTable]]) -> Vec<TableAnnotation> {
        self.annotate_tier(None, groups)
    }

    /// The one annotation walk. `quant` selects the tier: `None` applies
    /// the model's f32 dense layers, `Some` their int8 twins; everything
    /// else — packing, `[CLS]` selection, head order, scatter — is shared.
    pub(crate) fn annotate_tier(
        &self,
        quant: Option<&QuantizedModel>,
        groups: &[&[SerializedTable]],
    ) -> Vec<TableAnnotation> {
        if groups.is_empty() {
            return Vec::new();
        }
        let cfg = self.model.config();
        let ml = cfg.multi_label;
        let table_wise = cfg.input_mode == InputMode::TableWise;

        // Flatten every sequence of every group into one batch.
        let sts: Vec<&SerializedTable> = groups.iter().flat_map(|g| g.iter()).collect();
        assert!(!sts.is_empty(), "every table serializes to at least one sequence");
        let vis: Vec<Option<AttnMask>> =
            sts.iter().map(|st| self.model.visibility_mask(st)).collect();
        let seqs: Vec<BatchSeq<'_>> = sts
            .iter()
            .zip(vis.iter())
            .map(|(st, m)| BatchSeq { ids: &st.ids, mask: m.as_ref() })
            .collect();

        let mut tape = Tape::inference(self.store);
        let (enc, heads) = match quant {
            None => {
                let mut rng = StdRng::seed_from_u64(0);
                (self.model.encoder.forward_batch(&mut tape, &seqs, &mut rng), self.model.heads())
            }
            Some(q) => (q.encoder.forward_batch(&mut tape, &seqs), q.heads()),
        };

        // Every column's `[CLS]` row across the whole batch, in
        // (sequence, column) order; `col_row0[b]` is sequence b's first row
        // in the resulting `[total_cols, d]` matrix.
        let mut cls_rows: Vec<u32> = Vec::new();
        let mut col_row0: Vec<usize> = Vec::with_capacity(sts.len());
        for (b, st) in sts.iter().enumerate() {
            col_row0.push(cls_rows.len());
            cls_rows.extend(st.cls_positions.iter().map(|&p| enc.row_of(b, p as usize) as u32));
        }
        let cols = tape.row_select(enc.node, &cls_rows);
        let type_logits = heads.type_logits(&mut tape, cols);

        // Relation pairs (0, j) per table-wise sequence with 2+ columns.
        let mut subj: Vec<u32> = Vec::new();
        let mut obj: Vec<u32> = Vec::new();
        if table_wise && !self.rel_vocab.is_empty() {
            for (b, st) in sts.iter().enumerate() {
                for j in 1..st.n_cols() {
                    subj.push(col_row0[b] as u32);
                    obj.push((col_row0[b] + j) as u32);
                }
            }
        }
        let rel_logits = (!subj.is_empty()).then(|| heads.rel_logits(&mut tape, cols, &subj, &obj));

        // Scatter head outputs back into per-table annotations.
        let tv = tape.value(type_logits);
        let rv = rel_logits.map(|n| tape.value(n));
        let mut out = Vec::with_capacity(groups.len());
        let mut seq = 0usize;
        let mut rel_row = 0usize;
        for group in groups {
            let mut types = Vec::new();
            let mut relations = Vec::new();
            for st in group.iter() {
                let row0 = col_row0[seq];
                for c in 0..st.n_cols() {
                    types.push(ColumnTypePrediction {
                        column: types.len(),
                        labels: scored_labels(tv.row(row0 + c), self.type_vocab, ml),
                    });
                }
                if table_wise && !self.rel_vocab.is_empty() {
                    for j in 1..st.n_cols() {
                        let v = rv.expect("relation logits exist when pairs do");
                        relations.push(RelationPrediction {
                            subject: 0,
                            object: j,
                            labels: scored_labels(v.row(rel_row), self.rel_vocab, ml),
                        });
                        rel_row += 1;
                    }
                }
                seq += 1;
            }
            out.push(TableAnnotation { types, relations });
        }
        out
    }

    /// Contextualized column embeddings (the `[CLS]` outputs, §4.3) — the
    /// representation the §7 case study clusters.
    pub fn column_embeddings(&self, table: &Table) -> Vec<Vec<f32>> {
        let mut rng = StdRng::seed_from_u64(0);
        match self.model.config().input_mode {
            InputMode::TableWise => {
                let st = self.model.serialize_for_types(table, self.tokenizer).remove(0);
                let mut tape = Tape::inference(self.store);
                let cols = self.model.column_embeddings(&mut tape, &st, &mut rng);
                let v = tape.value(cols);
                (0..v.rows()).map(|r| v.row(r).to_vec()).collect()
            }
            InputMode::SingleColumn => self
                .model
                .serialize_for_types(table, self.tokenizer)
                .iter()
                .map(|st| {
                    let mut tape = Tape::inference(self.store);
                    let cols = self.model.column_embeddings(&mut tape, st, &mut rng);
                    tape.value(cols).row(0).to_vec()
                })
                .collect(),
        }
    }

    /// The top predicted type name per column (a convenience for clustering
    /// by predicted type, Table 9's "Doduo+predicted type" baseline).
    pub fn predicted_type_ids(&self, table: &Table) -> Vec<u32> {
        self.annotate(table)
            .types
            .iter()
            .map(|t| {
                self.type_vocab.id(&t.labels[0].0).expect("annotator emits only vocabulary labels")
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{AttentionMode, DoduoConfig};
    use doduo_table::{Column, LabelVocab, SerializeConfig};
    use doduo_tokenizer::TrainConfig as TokTrain;
    use doduo_transformer::EncoderConfig;

    fn setup() -> (ParamStore, DoduoModel, WordPiece, LabelVocab, LabelVocab) {
        let tok = WordPiece::train(
            ["alpha beta gamma one two three"],
            &TokTrain { merges: 60, min_pair_count: 1, max_word_len: 16 },
        );
        let mut tv = LabelVocab::new();
        tv.intern("t.a");
        tv.intern("t.b");
        tv.intern("t.c");
        let mut rv = LabelVocab::new();
        rv.intern("r.x");
        rv.intern("r.y");
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(0);
        let enc = EncoderConfig::tiny(tok.vocab_size());
        let max_seq = enc.max_seq;
        let cfg = DoduoConfig::new(enc, 3, 2, true)
            .with_attention(AttentionMode::Full)
            .with_serialize(SerializeConfig::new(8, max_seq));
        let model = DoduoModel::new(&mut store, cfg, "m", &mut rng);
        (store, model, tok, tv, rv)
    }

    fn table() -> Table {
        Table::new(
            "t",
            vec![
                Column::new(vec!["alpha".into(), "beta".into()]),
                Column::new(vec!["one".into(), "two".into()]),
            ],
        )
    }

    #[test]
    fn annotate_covers_all_columns_and_pairs() {
        let (store, model, tok, tv, rv) = setup();
        let ann = Annotator {
            model: &model,
            store: &store,
            tokenizer: &tok,
            type_vocab: &tv,
            rel_vocab: &rv,
        };
        let out = ann.annotate(&table());
        assert_eq!(out.types.len(), 2);
        assert_eq!(out.relations.len(), 1);
        assert_eq!(out.relations[0].subject, 0);
        assert_eq!(out.relations[0].object, 1);
        // Scores sorted descending, names come from the vocab.
        for t in &out.types {
            assert!(t.labels.windows(2).all(|w| w[0].1 >= w[1].1));
            for (name, p) in &t.labels {
                assert!(tv.id(name).is_some());
                assert!((0.0..=1.0).contains(p));
            }
        }
    }

    #[test]
    fn embeddings_have_hidden_width() {
        let (store, model, tok, tv, rv) = setup();
        let ann = Annotator {
            model: &model,
            store: &store,
            tokenizer: &tok,
            type_vocab: &tv,
            rel_vocab: &rv,
        };
        let embs = ann.column_embeddings(&table());
        assert_eq!(embs.len(), 2);
        for e in &embs {
            assert_eq!(e.len(), model.config().encoder.hidden);
            assert!(e.iter().all(|v| v.is_finite()));
        }
        // Different columns get different embeddings.
        let diff: f32 = embs[0].iter().zip(&embs[1]).map(|(a, b)| (a - b).abs()).sum();
        assert!(diff > 1e-4);
    }

    #[test]
    fn annotate_all_matches_one_by_one_bitwise() {
        let (store, model, tok, tv, rv) = setup();
        let ann = Annotator {
            model: &model,
            store: &store,
            tokenizer: &tok,
            type_vocab: &tv,
            rel_vocab: &rv,
        };
        // Different column counts and lengths force padding in the batch.
        let tables = vec![
            table(),
            Table::new("u", vec![Column::new(vec!["gamma".into()])]),
            Table::new(
                "v",
                vec![
                    Column::new(vec!["one two three".into(), "alpha".into()]),
                    Column::new(vec!["beta".into()]),
                    Column::new(vec!["two".into(), "three".into()]),
                ],
            ),
        ];
        let batched = ann.annotate_all(&tables);
        assert_eq!(batched.len(), tables.len());
        for (t, b) in tables.iter().zip(&batched) {
            let single = ann.annotate(t);
            assert_eq!(single.types.len(), b.types.len());
            for (x, y) in single.types.iter().zip(&b.types) {
                assert_eq!(x.column, y.column);
                for ((n1, s1), (n2, s2)) in x.labels.iter().zip(&y.labels) {
                    assert_eq!(n1, n2);
                    assert_eq!(s1.to_bits(), s2.to_bits(), "type scores must be bit-identical");
                }
            }
            assert_eq!(single.relations.len(), b.relations.len());
            for (x, y) in single.relations.iter().zip(&b.relations) {
                assert_eq!((x.subject, x.object), (y.subject, y.object));
                for ((n1, s1), (n2, s2)) in x.labels.iter().zip(&y.labels) {
                    assert_eq!(n1, n2);
                    assert_eq!(s1.to_bits(), s2.to_bits(), "rel scores must be bit-identical");
                }
            }
        }
    }

    #[test]
    fn predicted_type_ids_are_valid() {
        let (store, model, tok, tv, rv) = setup();
        let ann = Annotator {
            model: &model,
            store: &store,
            tokenizer: &tok,
            type_vocab: &tv,
            rel_vocab: &rv,
        };
        let ids = ann.predicted_type_ids(&table());
        assert_eq!(ids.len(), 2);
        assert!(ids.iter().all(|&i| (i as usize) < tv.len()));
    }
}
