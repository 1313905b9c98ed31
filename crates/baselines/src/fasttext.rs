//! fastText-style static subword embeddings (Bojanowski et al., 2017).
//!
//! The §7 case study uses off-the-shelf fastText as the "go-to" baseline
//! embedding. This is a from-scratch reproduction of its core: words are
//! bags of hashed character n-grams, trained with skip-gram + negative
//! sampling. The embeddings are *static* — the same word always maps to the
//! same vector — which is exactly the property the paper contrasts against
//! Doduo's contextualized column embeddings (Table 9).

#![allow(clippy::needless_range_loop)] // index loops over matrix coordinates are clearest here
use crate::features::fnv1a;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

/// Training hyper-parameters.
#[derive(Clone, Debug)]
pub struct FastTextConfig {
    /// Embedding dimensionality.
    pub dim: usize,
    /// Number of hashed n-gram buckets.
    pub buckets: usize,
    /// Character n-gram range (inclusive).
    pub min_n: usize,
    pub max_n: usize,
    /// Skip-gram window radius.
    pub window: usize,
    /// Negative samples per positive pair.
    pub negatives: usize,
    pub epochs: usize,
    pub lr: f32,
    pub seed: u64,
    /// Words occurring fewer times are skipped as centers/contexts.
    pub min_count: usize,
}

impl Default for FastTextConfig {
    fn default() -> Self {
        FastTextConfig {
            dim: 32,
            buckets: 4096,
            min_n: 3,
            max_n: 5,
            window: 2,
            negatives: 3,
            epochs: 3,
            lr: 0.05,
            seed: 42,
            min_count: 2,
        }
    }
}

fn tokenize(text: &str) -> Vec<String> {
    text.split(|c: char| !c.is_alphanumeric())
        .filter(|w| !w.is_empty())
        .map(|w| w.to_lowercase())
        .collect()
}

/// A trained fastText-style embedder.
pub struct FastText {
    cfg: FastTextConfig,
    /// Input-side bucket embeddings, `[buckets][dim]` flattened.
    input: Vec<f32>,
    /// Output-side word embeddings for negative sampling, keyed by word id.
    vocab: HashMap<String, usize>,
}

impl FastText {
    /// Hashed n-gram bucket ids of a word (with `<`/`>` boundary markers),
    /// including the whole-word token.
    fn ngram_buckets(&self, word: &str) -> Vec<usize> {
        ngram_buckets_cfg(word, &self.cfg)
    }

    /// Trains skip-gram with negative sampling on text lines.
    pub fn train(corpus: &[String], cfg: FastTextConfig) -> FastText {
        let mut counts: HashMap<String, usize> = HashMap::new();
        let token_lines: Vec<Vec<String>> = corpus.iter().map(|l| tokenize(l)).collect();
        for line in &token_lines {
            for w in line {
                *counts.entry(w.clone()).or_insert(0) += 1;
            }
        }
        let mut words: Vec<String> =
            counts.iter().filter(|(_, &c)| c >= cfg.min_count).map(|(w, _)| w.clone()).collect();
        words.sort_unstable();
        let vocab: HashMap<String, usize> =
            words.iter().enumerate().map(|(i, w)| (w.clone(), i)).collect();
        // Unigram^0.75 negative-sampling table, built in word-id order:
        // iterating the HashMap here would randomize the table layout per
        // process (RandomState) and with it every negative draw, making
        // training non-reproducible despite the seeded RNG.
        let mut neg_table = Vec::with_capacity(4096);
        for (id, w) in words.iter().enumerate() {
            let f = (counts[w] as f64).powf(0.75);
            let slots = (f.ceil() as usize).min(64);
            for _ in 0..slots {
                neg_table.push(id);
            }
        }
        if neg_table.is_empty() {
            neg_table.push(0);
        }

        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let d = cfg.dim;
        let mut input = vec![0.0f32; cfg.buckets * d];
        for v in input.iter_mut() {
            *v = (rng.gen::<f32>() - 0.5) / d as f32;
        }
        let mut output = vec![0.0f32; vocab.len().max(1) * d];

        let mut word_vec = vec![0.0f32; d];
        let mut grad_in = vec![0.0f32; d];
        for epoch in 0..cfg.epochs {
            let lr = cfg.lr * (1.0 - epoch as f32 / cfg.epochs as f32).max(0.1);
            for line in &token_lines {
                let ids: Vec<&String> = line.iter().filter(|w| vocab.contains_key(*w)).collect();
                for (i, center) in ids.iter().enumerate() {
                    let buckets = ngram_buckets_cfg(center, &cfg);
                    // Compose the center vector from its n-gram buckets.
                    word_vec.iter_mut().for_each(|v| *v = 0.0);
                    for &b in &buckets {
                        for k in 0..d {
                            word_vec[k] += input[b * d + k];
                        }
                    }
                    let inv = 1.0 / buckets.len() as f32;
                    word_vec.iter_mut().for_each(|v| *v *= inv);

                    let lo = i.saturating_sub(cfg.window);
                    let hi = (i + cfg.window + 1).min(ids.len());
                    grad_in.iter_mut().for_each(|v| *v = 0.0);
                    let mut updated = false;
                    for (j, ctx) in ids.iter().enumerate().take(hi).skip(lo) {
                        if i == j {
                            continue;
                        }
                        updated = true;
                        let pos_id = vocab[ctx.as_str()];
                        // One positive + k negatives.
                        for neg in 0..=cfg.negatives {
                            let (target, label) = if neg == 0 {
                                (pos_id, 1.0f32)
                            } else {
                                (neg_table[rng.gen_range(0..neg_table.len())], 0.0f32)
                            };
                            let out = &mut output[target * d..(target + 1) * d];
                            let mut dot = 0.0f32;
                            for k in 0..d {
                                dot += word_vec[k] * out[k];
                            }
                            let p = 1.0 / (1.0 + (-dot).exp());
                            let g = (p - label) * lr;
                            for k in 0..d {
                                grad_in[k] += g * out[k];
                                out[k] -= g * word_vec[k];
                            }
                        }
                    }
                    if updated {
                        let scale = inv;
                        for &b in &buckets {
                            for k in 0..d {
                                input[b * d + k] -= grad_in[k] * scale;
                            }
                        }
                    }
                }
            }
        }
        FastText { cfg, input, vocab }
    }

    pub fn dim(&self) -> usize {
        self.cfg.dim
    }

    pub fn vocab_size(&self) -> usize {
        self.vocab.len()
    }

    /// Static embedding of one word: the mean of its n-gram bucket vectors.
    /// Out-of-vocabulary words still embed via their subwords — fastText's
    /// signature property.
    pub fn embed_word(&self, word: &str) -> Vec<f32> {
        let d = self.cfg.dim;
        let buckets = self.ngram_buckets(&word.to_lowercase());
        let mut v = vec![0.0f32; d];
        for &b in &buckets {
            for k in 0..d {
                v[k] += self.input[b * d + k];
            }
        }
        let inv = 1.0 / buckets.len().max(1) as f32;
        v.iter_mut().for_each(|x| *x *= inv);
        v
    }

    /// Mean word embedding of a text (column values or a column name).
    pub fn embed_text(&self, text: &str) -> Vec<f32> {
        let words = tokenize(text);
        let d = self.cfg.dim;
        if words.is_empty() {
            return vec![0.0; d];
        }
        let mut v = vec![0.0f32; d];
        for w in &words {
            let e = self.embed_word(w);
            for k in 0..d {
                v[k] += e[k];
            }
        }
        let inv = 1.0 / words.len() as f32;
        v.iter_mut().for_each(|x| *x *= inv);
        v
    }

    /// Mean embedding over a column's cell values (Table 9's
    /// "fastText + column value emb").
    pub fn embed_column_values(&self, values: &[String]) -> Vec<f32> {
        let d = self.cfg.dim;
        if values.is_empty() {
            return vec![0.0; d];
        }
        let mut v = vec![0.0f32; d];
        for val in values {
            let e = self.embed_text(val);
            for k in 0..d {
                v[k] += e[k];
            }
        }
        let inv = 1.0 / values.len() as f32;
        v.iter_mut().for_each(|x| *x *= inv);
        v
    }
}

fn ngram_buckets_cfg(word: &str, cfg: &FastTextConfig) -> Vec<usize> {
    let padded = format!("<{word}>");
    let chars: Vec<char> = padded.chars().collect();
    let mut out = Vec::new();
    for n in cfg.min_n..=cfg.max_n {
        if chars.len() < n {
            continue;
        }
        for w in chars.windows(n) {
            let s: String = w.iter().collect();
            out.push((fnv1a(s.as_bytes()) % cfg.buckets as u64) as usize);
        }
    }
    // Whole word too.
    out.push((fnv1a(padded.as_bytes()) % cfg.buckets as u64) as usize);
    out
}

/// Cosine similarity helper shared by the embedding baselines.
pub fn cosine(a: &[f32], b: &[f32]) -> f32 {
    let mut dot = 0.0;
    let mut na = 0.0;
    let mut nb = 0.0;
    for (x, y) in a.iter().zip(b.iter()) {
        dot += x * y;
        na += x * x;
        nb += y * y;
    }
    if na == 0.0 || nb == 0.0 {
        0.0
    } else {
        dot / (na.sqrt() * nb.sqrt())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn corpus() -> Vec<String> {
        let mut c = Vec::new();
        for _ in 0..40 {
            c.push("the striker scored a goal in the football match".to_string());
            c.push("the keeper saved a goal in the football game".to_string());
            c.push("the bank raised the interest rate this quarter".to_string());
            c.push("the bank lowered the interest rate last quarter".to_string());
        }
        c
    }

    #[test]
    fn related_words_are_closer_than_unrelated() {
        let ft = FastText::train(&corpus(), FastTextConfig::default());
        let goal = ft.embed_word("goal");
        let football = ft.embed_word("football");
        let rate = ft.embed_word("rate");
        let sim_related = cosine(&goal, &football);
        let sim_unrelated = cosine(&goal, &rate);
        assert!(
            sim_related > sim_unrelated,
            "goal~football {sim_related} vs goal~rate {sim_unrelated}"
        );
    }

    #[test]
    fn embeddings_are_static() {
        // The same word in any context gets the same vector — the
        // anti-property vs Doduo the paper highlights in §3.2.
        let ft = FastText::train(&corpus(), FastTextConfig::default());
        assert_eq!(ft.embed_word("goal"), ft.embed_word("goal"));
        let a = ft.embed_text("goal in the match");
        let b = ft.embed_text("goal in the match");
        assert_eq!(a, b);
    }

    #[test]
    fn training_is_deterministic_for_a_seed() {
        // Two trainings must agree bitwise. This fails if any HashMap
        // iteration order leaks into training (each HashMap instance gets
        // its own RandomState, even within one thread).
        let a = FastText::train(&corpus(), FastTextConfig::default());
        let b = FastText::train(&corpus(), FastTextConfig::default());
        for w in ["goal", "football", "rate", "unseen-word"] {
            assert_eq!(a.embed_word(w), b.embed_word(w), "embeddings for {w:?} must match");
        }
    }

    #[test]
    fn oov_words_embed_via_subwords() {
        let ft = FastText::train(&corpus(), FastTextConfig::default());
        let oov = ft.embed_word("footballer"); // unseen, shares subwords
        assert!(oov.iter().any(|&v| v != 0.0));
        let sim = cosine(&oov, &ft.embed_word("football"));
        let far = cosine(&oov, &ft.embed_word("quarter"));
        assert!(
            sim > far,
            "subword sharing should make footballer~football ({sim}) > ~quarter ({far})"
        );
    }

    #[test]
    fn column_value_embedding_is_mean_like() {
        let ft = FastText::train(&corpus(), FastTextConfig::default());
        let vals = vec!["goal".to_string(), "goal".to_string()];
        let single = ft.embed_word("goal");
        let col = ft.embed_column_values(&vals);
        for (a, b) in single.iter().zip(col.iter()) {
            assert!((a - b).abs() < 1e-5);
        }
        assert_eq!(ft.embed_column_values(&[]), vec![0.0; ft.dim()]);
    }

    #[test]
    fn cosine_basics() {
        assert!((cosine(&[1.0, 0.0], &[1.0, 0.0]) - 1.0).abs() < 1e-6);
        assert!(cosine(&[1.0, 0.0], &[0.0, 1.0]).abs() < 1e-6);
        assert_eq!(cosine(&[0.0, 0.0], &[1.0, 1.0]), 0.0);
    }
}
