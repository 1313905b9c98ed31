//! The int8-quantized serving tier of [`DoduoModel`] — opt-in, built once
//! from trained f32 weights at bundle load.
//!
//! [`QuantizedModel`] holds only quantized weights: a [`QuantEncoder`] and
//! int8 versions of both classification heads' dense layers. Annotation is
//! not reimplemented here — [`QuantizedModel::annotate_serialized`] is the
//! annotator's one walk (`Annotator::annotate_tier`) told to apply these
//! int8 layers where the f32 tier applies its parameters, so the ragged
//! batch packing, `[CLS]` row selection, head order and output scatter are
//! the same code. The numerics contract is
//! the accuracy-gated tier of the two-tier policy (`doduo_tensor::quant`):
//! outputs are not bit-equal to f32 — the repro harness gates them on the
//! paper's qualitative checks and pinned micro-F1 drift — but they are
//! bit-stable across kernels, thread counts, and batch compositions on a
//! host, so batched quantized annotation still equals one-by-one
//! quantized annotation exactly.

use crate::model::{DoduoModel, Heads};
use crate::predictor::{Annotator, TableAnnotation};
use doduo_table::SerializedTable;
use doduo_tensor::{ParamStore, QuantizedLinear};
use doduo_transformer::{Dense, QuantEncoder};

/// Int8-quantized encoder + heads, reusable across forward passes.
pub struct QuantizedModel {
    pub(crate) encoder: QuantEncoder,
    type_dense: QuantizedLinear,
    type_out: QuantizedLinear,
    rel_dense: QuantizedLinear,
    rel_out: QuantizedLinear,
}

impl QuantizedModel {
    /// Quantizes every dense layer of `model` (encoder projections, FFNs,
    /// and both heads) from the f32 weights in `store`. Embeddings and
    /// LayerNorms stay f32 and are shared with the source model by
    /// parameter id.
    pub fn from_model(model: &DoduoModel, store: &ParamStore) -> QuantizedModel {
        let q = |w, b| QuantizedLinear::from_f32(store.get(w), store.get(b));
        QuantizedModel {
            encoder: QuantEncoder::from_encoder(&model.encoder, store),
            type_dense: q(model.type_dense_w, model.type_dense_b),
            type_out: q(model.type_out_w, model.type_out_b),
            rel_dense: q(model.rel_dense_w, model.rel_dense_b),
            rel_out: q(model.rel_out_w, model.rel_out_b),
        }
    }

    /// Both heads over the int8 layers.
    pub(crate) fn heads(&self) -> Heads<'_> {
        Heads {
            type_dense: Dense::Int8(&self.type_dense),
            type_out: Dense::Int8(&self.type_out),
            rel_dense: Dense::Int8(&self.rel_dense),
            rel_out: Dense::Int8(&self.rel_out),
        }
    }

    /// [`Annotator::annotate_serialized`] through the int8 tier: same
    /// inputs, same output structure and ordering, int8 dense layers.
    /// `ann` supplies the configuration, f32 parameter store (for the
    /// shared embeddings/LayerNorms), and label vocabularies.
    pub fn annotate_serialized(
        &self,
        ann: &Annotator<'_>,
        groups: &[&[SerializedTable]],
    ) -> Vec<TableAnnotation> {
        ann.annotate_tier(Some(self), groups)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{AttentionMode, DoduoConfig};
    use doduo_table::{Column, LabelVocab, SerializeConfig, Table};
    use doduo_tensor::ParamStore;
    use doduo_tokenizer::{TrainConfig as TokTrain, WordPiece};
    use doduo_transformer::EncoderConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

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

    fn tables() -> Vec<Table> {
        vec![
            Table::new(
                "t",
                vec![
                    Column::new(vec!["alpha".into(), "beta".into()]),
                    Column::new(vec!["one".into(), "two".into()]),
                ],
            ),
            Table::new("u", vec![Column::new(vec!["gamma".into()])]),
            Table::new(
                "v",
                vec![
                    Column::new(vec!["one two three".into(), "alpha".into()]),
                    Column::new(vec!["beta".into()]),
                    Column::new(vec!["two".into(), "three".into()]),
                ],
            ),
        ]
    }

    #[test]
    fn quant_annotation_mirrors_f32_structure() {
        let (store, model, tok, tv, rv) = setup();
        let ann = Annotator {
            model: &model,
            store: &store,
            tokenizer: &tok,
            type_vocab: &tv,
            rel_vocab: &rv,
        };
        let qm = QuantizedModel::from_model(&model, &store);
        let tabs = tables();
        let groups: Vec<Vec<SerializedTable>> =
            tabs.iter().map(|t| model.serialize_for_types(t, &tok)).collect();
        let borrowed: Vec<&[SerializedTable]> = groups.iter().map(Vec::as_slice).collect();
        let f = ann.annotate_serialized(&borrowed);
        let q = qm.annotate_serialized(&ann, &borrowed);
        assert_eq!(f.len(), q.len());
        for (ft, qt) in f.iter().zip(&q) {
            assert_eq!(ft.types.len(), qt.types.len());
            assert_eq!(ft.relations.len(), qt.relations.len());
            for (a, b) in ft.types.iter().zip(&qt.types) {
                assert_eq!(a.column, b.column);
                for (name, p) in &b.labels {
                    assert!(tv.id(name).is_some());
                    assert!((0.0..=1.0).contains(p));
                }
            }
            for (a, b) in ft.relations.iter().zip(&qt.relations) {
                assert_eq!((a.subject, a.object), (b.subject, b.object));
            }
        }
    }

    #[test]
    fn quant_batched_equals_one_by_one_bitwise() {
        // The invariance the f32 path proves must survive quantization:
        // batching cannot change quantized scores, because activation
        // quantization is per row and integer accumulation is associative.
        let (store, model, tok, tv, rv) = setup();
        let ann = Annotator {
            model: &model,
            store: &store,
            tokenizer: &tok,
            type_vocab: &tv,
            rel_vocab: &rv,
        };
        let qm = QuantizedModel::from_model(&model, &store);
        let tabs = tables();
        let groups: Vec<Vec<SerializedTable>> =
            tabs.iter().map(|t| model.serialize_for_types(t, &tok)).collect();
        let borrowed: Vec<&[SerializedTable]> = groups.iter().map(Vec::as_slice).collect();
        let batched = qm.annotate_serialized(&ann, &borrowed);
        for (g, b) in borrowed.iter().zip(&batched) {
            let single = qm.annotate_serialized(&ann, &[g]).pop().expect("one in, one out");
            assert_eq!(single.types.len(), b.types.len());
            for (x, y) in single.types.iter().zip(&b.types) {
                for ((n1, s1), (n2, s2)) in x.labels.iter().zip(&y.labels) {
                    assert_eq!(n1, n2);
                    assert_eq!(s1.to_bits(), s2.to_bits(), "quant type scores must be bit-stable");
                }
            }
            for (x, y) in single.relations.iter().zip(&b.relations) {
                for ((n1, s1), (n2, s2)) in x.labels.iter().zip(&y.labels) {
                    assert_eq!(n1, n2);
                    assert_eq!(s1.to_bits(), s2.to_bits(), "quant rel scores must be bit-stable");
                }
            }
        }
    }

    #[test]
    fn quant_annotation_is_deterministic() {
        let (store, model, tok, tv, rv) = setup();
        let ann = Annotator {
            model: &model,
            store: &store,
            tokenizer: &tok,
            type_vocab: &tv,
            rel_vocab: &rv,
        };
        let qm = QuantizedModel::from_model(&model, &store);
        let tabs = tables();
        let groups: Vec<Vec<SerializedTable>> =
            tabs.iter().map(|t| model.serialize_for_types(t, &tok)).collect();
        let borrowed: Vec<&[SerializedTable]> = groups.iter().map(Vec::as_slice).collect();
        let a = qm.annotate_serialized(&ann, &borrowed);
        let b = qm.annotate_serialized(&ann, &borrowed);
        for (x, y) in a.iter().zip(&b) {
            for (tx, ty) in x.types.iter().zip(&y.types) {
                for ((n1, s1), (n2, s2)) in tx.labels.iter().zip(&ty.labels) {
                    assert_eq!(n1, n2);
                    assert_eq!(s1.to_bits(), s2.to_bits());
                }
            }
        }
    }
}
