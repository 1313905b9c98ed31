//! Deterministic model bootstrap for serving without a training run.
//!
//! Annotation *cost* (and the daemon's correctness contract — byte-identical
//! responses vs offline `Annotator::annotate`) is independent of training
//! state, so smoke tests and load benches serve a randomly initialized
//! paper-shaped model over a seeded corpus. This module is the single
//! source of that world: the daemon's `--synthetic` mode, the `serve_load`
//! bench, and the CI serve-smoke all call [`synthetic_world`] with the same
//! scale/seed and therefore agree bit-for-bit on every weight — which is
//! what lets CI diff a daemon response against `--oneshot` output with
//! `cmp`.
//!
//! The recipe: seeded knowledge base → serving-realistic WikiTable corpus →
//! WordPiece → paper-shaped `mini` encoder.

use doduo_core::{Annotator, AnnotatorBundle, DoduoConfig, DoduoModel};
use doduo_datagen::{generate_wikitable, KbConfig, KnowledgeBase, WikiTableConfig};
use doduo_table::{SerializeConfig, Table};
use doduo_tensor::ParamStore;
use doduo_tokenizer::{TrainConfig as TokTrain, WordPiece};
use doduo_transformer::EncoderConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// A bootstrapped serving world: the model bundle plus the corpus it was
/// shaped on (handy as ready-made request payloads).
pub struct SyntheticWorld {
    /// Model + tokenizer + vocabularies, ready to serve or checkpoint
    /// (`Arc` so tests hand it straight to [`crate::server::Server::run`]
    /// and the lifecycle layer).
    pub bundle: Arc<AnnotatorBundle>,
    /// The generated tables (64 at quick scale, 192 at full).
    pub tables: Vec<Table>,
}

impl SyntheticWorld {
    /// A borrowed annotator over the world's bundle.
    pub fn annotator(&self) -> Annotator<'_> {
        self.bundle.annotator()
    }
}

/// Builds the deterministic serving world for `scale` (`true` = quick) and
/// `seed`. Same inputs ⇒ bit-identical weights, tokenizer, and tables,
/// across processes.
pub fn synthetic_world(quick: bool, seed: u64) -> SyntheticWorld {
    let kb = KnowledgeBase::generate(&KbConfig::default(), seed);
    let n_tables = if quick { 64 } else { 192 };
    // Serving-realistic tables: enough rows that sequences approach the
    // paper's 32-token column budget.
    let ds = generate_wikitable(&kb, &WikiTableConfig { n_tables, min_rows: 4, max_rows: 8, seed });
    let corpus: Vec<String> = ds
        .tables
        .iter()
        .flat_map(|t| t.table.columns.iter())
        .flat_map(|c| c.values.iter().cloned())
        .collect();
    let tokenizer = WordPiece::train(
        corpus.iter().map(String::as_str),
        &TokTrain { merges: 400, min_pair_count: 2, max_word_len: 24 },
    );
    let enc = EncoderConfig::mini(tokenizer.vocab_size());
    let max_seq = enc.max_seq;
    let cfg = DoduoConfig::new(enc, ds.type_vocab.len(), ds.rel_vocab.len().max(1), true)
        .with_serialize(SerializeConfig::new(32, max_seq));
    let mut store = ParamStore::new();
    let mut rng = StdRng::seed_from_u64(seed);
    let model = DoduoModel::new(&mut store, cfg, "m", &mut rng);
    let tables: Vec<Table> = ds.tables.into_iter().map(|t| t.table).collect();
    let bundle =
        Arc::new(AnnotatorBundle::new(store, model, tokenizer, ds.type_vocab, ds.rel_vocab, "m"));
    SyntheticWorld { bundle, tables }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_world_is_deterministic() {
        let a = synthetic_world(true, 7);
        let b = synthetic_world(true, 7);
        assert_eq!(a.tables.len(), 64);
        assert_eq!(a.tables, b.tables);
        let t = &a.tables[0];
        let x = a.annotator().annotate(t);
        let y = b.annotator().annotate(t);
        for (p, q) in x.types.iter().zip(&y.types) {
            for ((n1, s1), (n2, s2)) in p.labels.iter().zip(&q.labels) {
                assert_eq!(n1, n2);
                assert_eq!(s1.to_bits(), s2.to_bits());
            }
        }
    }

    #[test]
    fn synthetic_bundle_round_trips_through_checkpoint() {
        let w = synthetic_world(true, 42);
        let blob = w.bundle.save();
        let loaded = AnnotatorBundle::load(&blob).expect("bundle loads");
        let t = &w.tables[3];
        let a = w.annotator().annotate(t);
        let b = loaded.annotator().annotate(t);
        assert_eq!(a.types.len(), b.types.len());
        for (p, q) in a.types.iter().zip(&b.types) {
            for ((n1, s1), (n2, s2)) in p.labels.iter().zip(&q.labels) {
                assert_eq!(n1, n2);
                assert_eq!(
                    s1.to_bits(),
                    s2.to_bits(),
                    "checkpointed daemon must serve bitwise-identical"
                );
            }
        }
    }
}
