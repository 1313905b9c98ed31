//! The "toolbox" API (§1: *"can be used with just a few lines of Python
//! code"* — here, Rust): annotate an unseen table with types, relations and
//! contextualized column embeddings.
//!
//! All annotation, f32 and int8, funnels through one walk
//! (`Annotator::forward`): pack any number of serialized tables into a
//! single ragged forward pass whose top block computes only what the heads
//! read — every `[CLS]` row of the whole batch, so the encoder's output *is*
//! the column matrix (`Annotator::encode_columns`, which
//! [`Annotator::column_embeddings`] shares) — and run each classification
//! head exactly once per batch. The
//! tiers differ only in whose dense layers the encoder and the heads apply
//! (`Dense`): [`Annotator::annotate_serialized`] passes the f32 parameters,
//! `QuantizedModel::annotate_serialized` their int8 twins. The walk is
//! generic over its backend (`doduo_transformer::Ops`); serving runs it on
//! the tape-free `doduo_tensor::Executor` — no node is recorded, and after
//! a thread's first micro-batch no activation is allocated
//! ([`Annotator::with_logits`]) — and then scatters the logits into
//! [`TableAnnotation`]s, the only allocations of a steady-state call.
//! [`Annotator::annotate`] is the batch of one. Deduplicating tokenization,
//! choosing batch compositions, and fanning batches across worker threads
//! are serving concerns layered on top by `doduo-serve`'s `BatchAnnotator`.

use crate::model::{AttentionMode, DoduoModel, InputMode};
use crate::quant::QuantizedModel;
use doduo_eval::decode_labels;
use doduo_table::{LabelVocab, SerializedTable, Table};
use doduo_tensor::{vmath, AttnMask, Executor, ParamStore};
use doduo_tokenizer::WordPiece;
use doduo_transformer::{BatchSeq, Ops};
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
    let mut ranked: Vec<(u32, f32)> = (0u32..).zip(scores).collect();
    // `total_cmp`: a total order even over non-finite scores, so a poisoned
    // checkpoint can mis-rank labels but never panic a serving thread.
    ranked.sort_by(|a, b| b.1.total_cmp(&a.1));
    // Keep the decision-rule labels plus the next best few for context,
    // and only now look their names up.
    let keep = decode_labels(logits, multi_label).len().max(3).min(ranked.len());
    ranked[..keep].iter().map(|&(i, s)| (vocab.name(i).to_string(), s)).collect()
}

/// What one forward leaves behind for the scatter: the packed batch's
/// head outputs, on whichever backend computed them.
struct Scores<N> {
    /// `[total_cols, |C_type|]`, in (sequence, column) order.
    types: N,
    /// `[total_pairs, |C_rel|]`, every `(0, j)` pair in the same order;
    /// `None` when the batch has no pair to score.
    rels: Option<N>,
}

/// Raw head outputs of one packed forward, borrowed from the executor that
/// computed them ([`Annotator::with_logits`]): row-major, one row per
/// column (per `(0, j)` pair), in (table, sequence, column) order.
pub struct Logits<'a> {
    /// Column-type logits, `n_types` per row.
    pub types: &'a [f32],
    /// Width of a `types` row.
    pub n_types: usize,
    /// Relation logits, `n_rels` per row; empty when no table of the batch
    /// has a column pair to score.
    pub rels: &'a [f32],
    /// Width of a `rels` row.
    pub n_rels: usize,
}

impl Annotator<'_> {
    /// Annotates every column (and, in table-wise mode, every `(0, j)`
    /// column pair) of a table. Delegates to the batched path with a batch
    /// of one, so single-table and batched annotation share one code path
    /// and produce identical results.
    pub fn annotate(&self, table: &Table) -> TableAnnotation {
        self.annotate_all(std::slice::from_ref(table)).pop().expect("one table in, one out")
    }

    /// Annotates a slice of tables in one packed forward pass on the calling
    /// thread. This is the building block `doduo-serve` composes into
    /// micro-batches and fans across threads.
    pub fn annotate_all(&self, tables: &[Table]) -> Vec<TableAnnotation> {
        let groups: Vec<Vec<SerializedTable>> =
            tables.iter().map(|t| self.model.serialize_for_types(t, self.tokenizer)).collect();
        let borrowed: Vec<&[SerializedTable]> = groups.iter().map(Vec::as_slice).collect();
        self.annotate_serialized(&borrowed)
    }

    /// Annotates pre-serialized tables: each group is the output of
    /// `DoduoModel::serialize_for_types` for one table (one sequence in
    /// table-wise mode, one per column in single-column mode). All
    /// sequences of all groups run through a single packed encoder
    /// forward; the type head runs once over every
    /// `[CLS]` row of the batch and the relation head once over every
    /// `(0, j)` pair of every table. Output order matches input order, and
    /// each annotation is bit-identical to what [`Annotator::annotate`]
    /// produces for that table alone.
    pub fn annotate_serialized(&self, groups: &[&[SerializedTable]]) -> Vec<TableAnnotation> {
        self.annotate_tier(None, groups)
    }

    /// The encoder half of the walk, on backend `f`: every sequence of every
    /// group as one ragged batch, keeping of the top layer what the heads
    /// read — each sequence's `[CLS]` rows. The result is the
    /// `[total_cols, d]` column matrix (eq. 1's input), in (group,
    /// sequence, column) order; the top block computes nothing else.
    /// `quant` selects the tier: `None` applies the model's f32 dense
    /// layers, `Some` their int8 twins.
    fn encode_columns<F: Ops>(
        &self,
        f: &mut F,
        quant: Option<&QuantizedModel>,
        groups: &[&[SerializedTable]],
    ) -> F::Node {
        let sts = || groups.iter().flat_map(|g| g.iter());
        assert!(sts().next().is_some(), "every table serializes to at least one sequence");
        // TURL-style visibility masks are built per call; full attention
        // (Doduo) has none and this stays empty.
        let vis: Vec<AttnMask> = match self.model.config().attention {
            AttentionMode::Full => Vec::new(),
            AttentionMode::ColumnVisibility => sts()
                .map(|st| self.model.visibility_mask(st).expect("visibility mode builds masks"))
                .collect(),
        };
        let seqs = sts().enumerate().map(|(b, st)| BatchSeq { ids: &st.ids, mask: vis.get(b) });
        let cls = sts().map(|st| Some(st.cls_positions.as_slice()));
        match quant {
            // Never drawn from: serving backends have no dropout.
            None => self.model.encoder.encode(f, seqs, cls, &mut StdRng::seed_from_u64(0)),
            Some(q) => q.encoder.encode(f, seqs, cls),
        }
    }

    /// The one annotation walk, on backend `f`:
    /// [`Annotator::encode_columns`], then both heads once over its column
    /// matrix. Everything but whose dense layers run — packing, `[CLS]`
    /// selection, head order — is shared between the tiers.
    fn forward<F: Ops>(
        &self,
        f: &mut F,
        quant: Option<&QuantizedModel>,
        groups: &[&[SerializedTable]],
    ) -> Scores<F::Node> {
        let cols = self.encode_columns(f, quant, groups);
        let heads = quant.map_or_else(|| self.model.heads(), QuantizedModel::heads);
        let types = heads.type_logits(f, &cols);

        // Relation pairs (0, j) per table-wise sequence with 2+ columns,
        // as rows of the column matrix.
        let with_rels = self.scores_relations();
        let pairs = || {
            let sts = groups.iter().flat_map(|g| g.iter());
            sts.scan(0usize, |col0, st| {
                let at = *col0;
                *col0 += st.n_cols();
                Some((at, st.n_cols()))
            })
            .filter(move |_| with_rels)
            .flat_map(|(col0, n)| (1..n).map(move |j| (col0, col0 + j)))
        };
        let n_pairs = pairs().count();
        let rels = (n_pairs > 0).then(|| {
            let subj = pairs().map(|p| p.0 as u32);
            let obj = pairs().map(|p| p.1 as u32);
            heads.rel_logits(f, &cols, n_pairs, subj, obj)
        });
        f.free(cols);
        Scores { types, rels }
    }

    /// True when sequences are whole tables whose `(0, j)` column pairs get
    /// relation scores.
    fn scores_relations(&self) -> bool {
        self.model.config().input_mode == InputMode::TableWise && !self.rel_vocab.is_empty()
    }

    /// Runs the encoder and both heads over `groups` (as
    /// [`Annotator::annotate_serialized`] takes them) on the calling
    /// thread's executor and hands the raw logits to `read`. `quant`
    /// selects the int8 tier. This is all of a call's arithmetic: with full
    /// attention it allocates nothing once the thread has run a micro-batch
    /// at least as large.
    pub fn with_logits<T>(
        &self,
        quant: Option<&QuantizedModel>,
        groups: &[&[SerializedTable]],
        read: impl FnOnce(Logits<'_>) -> T,
    ) -> T {
        let mut ex = Executor::new(self.store);
        let scores = self.forward(&mut ex, quant, groups);
        read(Logits {
            types: ex.value(&scores.types),
            n_types: scores.types.cols(),
            rels: scores.rels.as_ref().map_or(&[], |r| ex.value(r)),
            n_rels: scores.rels.as_ref().map_or(0, |r| r.cols()),
        })
    }

    /// [`Annotator::with_logits`], scattered into per-table annotations.
    pub(crate) fn annotate_tier(
        &self,
        quant: Option<&QuantizedModel>,
        groups: &[&[SerializedTable]],
    ) -> Vec<TableAnnotation> {
        if groups.is_empty() {
            return Vec::new();
        }
        let ml = self.model.config().multi_label;
        let with_rels = self.scores_relations();
        self.with_logits(quant, groups, |logits| {
            let mut type_rows = logits.types.chunks_exact(logits.n_types);
            // (`n_rels` is 0 when nothing was scored; no row is asked for then.)
            let mut rel_rows = logits.rels.chunks_exact(logits.n_rels.max(1));
            let next = |rows: &mut std::slice::ChunksExact<'_, f32>, vocab| {
                scored_labels(rows.next().expect("one logit row per column and pair"), vocab, ml)
            };
            groups
                .iter()
                .map(|group| {
                    let mut types = Vec::new();
                    let mut relations = Vec::new();
                    for st in group.iter() {
                        for _ in 0..st.n_cols() {
                            types.push(ColumnTypePrediction {
                                column: types.len(),
                                labels: next(&mut type_rows, self.type_vocab),
                            });
                        }
                        for j in (1..st.n_cols()).filter(|_| with_rels) {
                            relations.push(RelationPrediction {
                                subject: 0,
                                object: j,
                                labels: next(&mut rel_rows, self.rel_vocab),
                            });
                        }
                    }
                    TableAnnotation { types, relations }
                })
                .collect()
        })
    }

    /// Contextualized column embeddings (the `[CLS]` outputs, §4.3) — the
    /// representation the §7 case study clusters. One packed forward on the
    /// calling thread's executor whatever the input mode, through the same
    /// `Annotator::encode_columns` annotation uses.
    pub fn column_embeddings(&self, table: &Table) -> Vec<Vec<f32>> {
        let sts = self.model.serialize_for_types(table, self.tokenizer);
        let mut ex = Executor::new(self.store);
        let cols = self.encode_columns(&mut ex, None, &[&sts]);
        ex.value(&cols).chunks_exact(cols.cols()).map(<[f32]>::to_vec).collect()
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
    use doduo_tensor::Tape;
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

    /// A serialized table of `len` random tokens split into `n_cols`
    /// columns (each opening with its `[CLS]`), the last token a `[SEP]`.
    fn random_table(len: usize, n_cols: usize, vocab: usize, rng: &mut StdRng) -> SerializedTable {
        use rand::Rng;
        let n_cols = n_cols.clamp(1, len);
        let cls_positions: Vec<u32> = (0..n_cols).map(|c| (c * len / n_cols) as u32).collect();
        let mut col_of_token: Vec<u32> = (0..len as u32)
            .map(|i| cls_positions.iter().filter(|&&p| p <= i).count() as u32 - 1)
            .collect();
        if len > n_cols {
            col_of_token[len - 1] = doduo_table::NO_COLUMN;
        }
        let ids = (0..len).map(|_| rng.gen_range(0..vocab as u32)).collect();
        SerializedTable { ids, cls_positions, col_of_token }
    }

    fn bits(xs: &[f32]) -> Vec<u32> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(24))]

        /// The serving executor, whose top block computes the `[CLS]` rows
        /// only, against the recording tape run at full width
        /// (`forward_batch`, then `row_select`, then the heads): column
        /// embeddings and both heads' logits, f32 and int8 tiers, ragged
        /// batches down to single-`[CLS]` one-token sequences, with and
        /// without visibility masks — equal under `to_bits`. The tape
        /// running the pruned walk itself (its kept attention node, no
        /// longer full-width by construction) must land on the same bits.
        #[test]
        fn executor_matches_tape_bitwise(
            lens in proptest::collection::vec(1usize..65, 1..7),
            cols in 1usize..5,
            turl in 0u8..2,
            seed in 0u64..1000,
        ) {
            use proptest::prop_assert_eq;
            let tok = WordPiece::train(
                ["alpha beta gamma one two three"],
                &TokTrain { merges: 60, min_pair_count: 1, max_word_len: 16 },
            );
            let mut rng = StdRng::seed_from_u64(seed);
            let enc = EncoderConfig::tiny(tok.vocab_size());
            let vocab = enc.vocab_size;
            let attention =
                if turl == 1 { AttentionMode::ColumnVisibility } else { AttentionMode::Full };
            let cfg = DoduoConfig::new(enc, 5, 3, true).with_attention(attention);
            let mut store = ParamStore::new();
            let model = DoduoModel::new(&mut store, cfg, "m", &mut rng);
            // Fresh heads start near zero; spread every weight out so each
            // op's output has bits worth comparing.
            for p in 0..store.len() {
                let shape = store.get(p).shape();
                *store.get_mut(p) = doduo_tensor::Tensor::randn(shape.0, shape.1, 0.3, &mut rng);
            }
            let (mut tv, mut rv) = (LabelVocab::new(), LabelVocab::new());
            (0..5).for_each(|i| { tv.intern(&format!("t.{i}")); });
            (0..3).for_each(|i| { rv.intern(&format!("r.{i}")); });
            let ann = Annotator {
                model: &model,
                store: &store,
                tokenizer: &tok,
                type_vocab: &tv,
                rel_vocab: &rv,
            };
            let qm = QuantizedModel::from_model(&model, &store);
            let tables: Vec<Vec<SerializedTable>> =
                lens.iter().map(|&len| vec![random_table(len, cols, vocab, &mut rng)]).collect();
            let groups: Vec<&[SerializedTable]> = tables.iter().map(Vec::as_slice).collect();
            let masks: Vec<Option<AttnMask>> =
                tables.iter().map(|g| model.visibility_mask(&g[0])).collect();
            let batch: Vec<BatchSeq<'_>> = tables
                .iter()
                .zip(&masks)
                .map(|(g, m)| BatchSeq { ids: &g[0].ids, mask: m.as_ref() })
                .collect();

            for quant in [None, Some(&qm)] {
                // Full width: every top-layer row, then the `[CLS]` ones.
                let mut tape = Tape::inference(&store);
                let full = match quant {
                    None => model.encoder.forward_batch(&mut tape, &batch, &mut rng),
                    Some(q) => q.encoder.forward_batch(&mut tape, &batch),
                };
                let cls_rows: Vec<u32> = tables
                    .iter()
                    .enumerate()
                    .flat_map(|(b, g)| g[0].cls_positions.iter().map(move |&p| (b, p as usize)))
                    .map(|(b, p)| full.row_of(b, p) as u32)
                    .collect();
                let want_cols = tape.row_select(full.node, &cls_rows);

                let mut ex = Executor::new(&store);
                let got_cols = ann.encode_columns(&mut ex, quant, &groups);
                prop_assert_eq!(
                    tape.value(want_cols).shape(),
                    (got_cols.rows(), got_cols.cols())
                );
                prop_assert_eq!(bits(tape.value(want_cols).data()), bits(ex.value(&got_cols)));
                ex.free(got_cols);
                let mut pruned_tape = Tape::inference(&store);
                let on_tape = ann.encode_columns(&mut pruned_tape, quant, &groups);
                prop_assert_eq!(
                    bits(tape.value(want_cols).data()),
                    bits(pruned_tape.value(on_tape).data())
                );

                // Heads over the full-width tape's columns, pair by pair.
                let heads = quant.map_or_else(|| model.heads(), QuantizedModel::heads);
                let want_types = heads.type_logits(&mut tape, &want_cols);
                let col0s = tables.iter().scan(0usize, |c, g| {
                    let at = *c;
                    *c += g[0].n_cols();
                    Some(at)
                });
                let pairs: Vec<(u32, u32)> = tables
                    .iter()
                    .zip(col0s)
                    .flat_map(|(g, c0)| (1..g[0].n_cols()).map(move |j| (c0 as u32, (c0 + j) as u32)))
                    .collect();
                let want_rels = (!pairs.is_empty()).then(|| {
                    let (subj, obj) = (pairs.iter().map(|p| p.0), pairs.iter().map(|p| p.1));
                    heads.rel_logits(&mut tape, &want_cols, pairs.len(), subj, obj)
                });

                let got = ann.forward(&mut ex, quant, &groups);
                prop_assert_eq!(
                    tape.value(want_types).shape(),
                    (got.types.rows(), got.types.cols())
                );
                prop_assert_eq!(bits(tape.value(want_types).data()), bits(ex.value(&got.types)));
                prop_assert_eq!(want_rels.is_some(), got.rels.is_some());
                if let (Some(w), Some(g)) = (want_rels, got.rels) {
                    prop_assert_eq!(bits(tape.value(w).data()), bits(ex.value(&g)));
                }
            }
        }
    }

    #[test]
    fn column_embeddings_match_the_tape_bitwise_in_both_input_modes() {
        use crate::model::InputMode;
        let (_, _, tok, tv, rv) = setup();
        let wide = Table::new(
            "w",
            vec![
                Column::new(vec!["one two three".into(), "alpha".into()]),
                Column::new(vec!["beta".into()]),
                Column::new(vec!["two".into(), "gamma".into()]),
            ],
        );
        for mode in [InputMode::TableWise, InputMode::SingleColumn] {
            let mut store = ParamStore::new();
            let mut rng = StdRng::seed_from_u64(3);
            let enc = EncoderConfig::tiny(tok.vocab_size());
            let max_seq = enc.max_seq;
            let cfg = DoduoConfig::new(enc, 3, 2, true)
                .with_input_mode(mode)
                .with_serialize(SerializeConfig::new(8, max_seq));
            let model = DoduoModel::new(&mut store, cfg, "m", &mut rng);
            let ann = Annotator {
                model: &model,
                store: &store,
                tokenizer: &tok,
                type_vocab: &tv,
                rel_vocab: &rv,
            };
            for table in [table(), wide.clone()] {
                // One inference tape per sequence, every top-layer row,
                // `[CLS]` rows selected afterwards — the full-width
                // reference, built explicitly.
                let want: Vec<Vec<u32>> = model
                    .serialize_for_types(&table, &tok)
                    .iter()
                    .flat_map(|st| {
                        let mut tape = Tape::inference(&store);
                        let mask = model.visibility_mask(st);
                        let every_row =
                            model.encoder.forward(&mut tape, &st.ids, mask.as_ref(), &mut rng);
                        let cols = tape.row_select(every_row, &st.cls_positions);
                        let v = tape.value(cols);
                        (0..v.rows()).map(|r| bits(v.row(r))).collect::<Vec<_>>()
                    })
                    .collect();
                let got: Vec<Vec<u32>> =
                    ann.column_embeddings(&table).iter().map(|e| bits(e)).collect();
                assert_eq!(got.len(), table.n_cols());
                assert_eq!(got, want, "{mode:?}");
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
