//! Attention analysis (Appendix A.4, Figure 6): how much each column type
//! "relies on" other column types for its contextualized representation.
//!
//! Following the paper: take the *last* Transformer layer, aggregate the
//! attention weights of all heads, keep only `[CLS]` → `[CLS]` entries, and
//! average per (type, type) pair over the dataset; the accumulator
//! normalizes by co-occurrence so the reference point is zero.

use crate::model::DoduoModel;
use doduo_eval::DependencyAccumulator;
use doduo_table::Dataset;
use doduo_tensor::Tape;
use doduo_tokenizer::WordPiece;
use doduo_transformer::BatchSeq;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Computes the inter-column dependency matrix over a dataset. Only tables
/// with at least two columns contribute (the paper uses the multi-column
/// VizNet split). Column types use each column's *primary* (first) label.
pub fn attention_dependency(
    model: &DoduoModel,
    store: &doduo_tensor::ParamStore,
    ds: &Dataset,
    tok: &WordPiece,
) -> DependencyAccumulator {
    let mut acc = DependencyAccumulator::new(ds.type_vocab.len());
    let mut rng = StdRng::seed_from_u64(0);
    for at in &ds.tables {
        if at.table.n_cols() < 2 {
            continue;
        }
        let st = model.serialize_for_types(&at.table, tok).remove(0);
        let mask = model.visibility_mask(&st);
        let mut tape = Tape::inference(store);
        let seq = BatchSeq { ids: &st.ids, mask: mask.as_ref() };
        let enc = model.encoder.forward_batch(&mut tape, &[seq], &mut rng);
        let last = *enc.attn.last().expect("at least one layer");
        let (probs, heads) = tape.attn_probs(last, 0).expect("attention node");
        let s = st.ids.len();
        for (ci, &pi) in st.cls_positions.iter().enumerate() {
            for (cj, &pj) in st.cls_positions.iter().enumerate() {
                if ci == cj {
                    continue;
                }
                // Average attention of CLS_i -> CLS_j across heads.
                let mut w = 0.0f64;
                for h in 0..heads {
                    w += probs[h * s * s + (pi as usize) * s + pj as usize] as f64;
                }
                w /= heads as f64;
                let ty_i = at.col_types[ci][0] as usize;
                let ty_j = at.col_types[cj][0] as usize;
                acc.add(ty_i, ty_j, w);
            }
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{AttentionMode, DoduoConfig, DoduoModel};
    use doduo_datagen::{generate_viznet, KbConfig, KnowledgeBase, VizNetConfig};
    use doduo_table::SerializeConfig;
    use doduo_tensor::ParamStore;
    use doduo_tokenizer::{TrainConfig as TokTrain, WordPiece};
    use doduo_transformer::EncoderConfig;

    #[test]
    fn dependency_matrix_covers_cooccurring_types() {
        let kb = KnowledgeBase::generate(&KbConfig::default(), 42);
        let ds = generate_viznet(
            &kb,
            &VizNetConfig { n_tables: 40, single_col_frac: 0.0, ..Default::default() },
        );
        let corpus: Vec<String> = ds
            .tables
            .iter()
            .flat_map(|t| t.table.columns.iter())
            .flat_map(|c| c.values.iter().cloned())
            .collect();
        let tok = WordPiece::train(
            corpus.iter().map(String::as_str),
            &TokTrain { merges: 200, min_pair_count: 3, max_word_len: 24 },
        );
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(5);
        let enc = EncoderConfig::tiny(tok.vocab_size());
        let max_seq = enc.max_seq;
        let cfg = DoduoConfig::new(enc, ds.type_vocab.len(), 1, false)
            .with_attention(AttentionMode::Full)
            .with_serialize(SerializeConfig::new(4, max_seq));
        let model = DoduoModel::new(&mut store, cfg, "m", &mut rng);
        let acc = attention_dependency(&model, &store, &ds, &tok);
        assert_eq!(acc.n_types(), ds.type_vocab.len());
        assert!(acc.observed_pairs() > 10, "pairs: {}", acc.observed_pairs());
        // Observed entries are finite and centered.
        let m = acc.normalized();
        let finite: Vec<f64> = m.iter().copied().filter(|v| v.is_finite()).collect();
        assert!(!finite.is_empty());
        let mean: f64 = finite.iter().sum::<f64>() / finite.len() as f64;
        assert!(mean.abs() < 1e-9, "centered mean {mean}");
    }
}
