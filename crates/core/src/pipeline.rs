//! End-to-end pretrain → fine-tune pipeline.
//!
//! The paper fine-tunes an already-pretrained BERT; its Appendix A.5 shows a
//! randomly-initialized Doduo reaches ~zero F1, i.e. pretraining is
//! load-bearing. This module packages that pipeline: train a WordPiece
//! tokenizer on a corpus, MLM-pretrain an encoder on one corpus sentence
//! per sequence (one [`pretrain_mlm`] run), and hand the frozen
//! checkpoint to any number of fine-tuning model variants (Doduo, Dosolo,
//! DosoloSCol, TURL-style, different token budgets) that all start from the
//! *same* pretrained weights — mirroring how every row of the paper's
//! tables starts from the same BERT-base.

use crate::model::{DoduoConfig, DoduoModel};
use doduo_tensor::serialize::{save, LoadError, Records};
use doduo_tensor::{Fill, Init, ParamStore, Tensor};
use doduo_tokenizer::{TrainConfig as TokTrainConfig, WordPiece, CLS, SEP};
use doduo_transformer::{pretrain_mlm, Encoder, EncoderConfig, MlmConfig, MlmHead};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Parameter-name prefix shared by every encoder this pipeline produces;
/// checkpoints transfer because fine-tuning models use the same prefix.
pub const ENC_PREFIX: &str = "enc";

/// A pretrained language model: tokenizer + encoder shape + weights.
pub struct PretrainedLm {
    /// The WordPiece tokenizer trained on the pretraining corpus.
    pub tokenizer: WordPiece,
    /// Shape of the pretrained encoder.
    pub config: EncoderConfig,
    /// Weight records of the encoder and its MLM head, exactly: fine-tuning
    /// models take the encoder's, the probing analysis both.
    pub weights: Vec<u8>,
    /// Mean MLM loss per pretraining epoch (for reporting).
    pub losses: Vec<f32>,
}

/// Pretraining recipe.
#[derive(Clone, Debug)]
pub struct PretrainRecipe {
    /// WordPiece training hyper-parameters.
    pub tokenizer: TokTrainConfig,
    /// Encoder hidden width (the trained vocabulary size supplies the
    /// embedding-table height).
    pub hidden: usize,
    /// Number of Transformer blocks.
    pub layers: usize,
    /// Attention heads; must divide `hidden`.
    pub heads: usize,
    /// Feed-forward inner width.
    pub ffn: usize,
    /// Maximum sequence length (bounds fine-tuning serializations too).
    pub max_seq: usize,
    /// Dropout probability during pretraining.
    pub dropout: f32,
    /// Masked-language-model objective hyper-parameters.
    pub mlm: MlmConfig,
}

impl Default for PretrainRecipe {
    fn default() -> Self {
        let mini = EncoderConfig::mini(6);
        PretrainRecipe {
            tokenizer: TokTrainConfig::default(),
            hidden: mini.hidden,
            layers: mini.layers,
            heads: mini.heads,
            ffn: mini.ffn,
            max_seq: mini.max_seq,
            dropout: mini.dropout,
            mlm: MlmConfig::default(),
        }
    }
}

impl PretrainRecipe {
    /// A fast recipe for tests: tiny encoder, few epochs.
    pub fn tiny() -> Self {
        let tiny = EncoderConfig::tiny(6);
        PretrainRecipe {
            tokenizer: TokTrainConfig { merges: 600, min_pair_count: 2, max_word_len: 32 },
            hidden: tiny.hidden,
            layers: tiny.layers,
            heads: tiny.heads,
            ffn: tiny.ffn,
            max_seq: tiny.max_seq,
            dropout: tiny.dropout,
            mlm: MlmConfig { epochs: 15, ..Default::default() },
        }
    }

    /// The encoder this recipe pretrains over a vocabulary of `vocab_size`
    /// pieces (what [`pretrain_lm`] records as [`PretrainedLm::config`]).
    pub fn encoder_config(&self, vocab_size: usize) -> EncoderConfig {
        EncoderConfig {
            vocab_size,
            hidden: self.hidden,
            layers: self.layers,
            heads: self.heads,
            ffn: self.ffn,
            max_seq: self.max_seq,
            dropout: self.dropout,
        }
    }
}

/// Trains the tokenizer and MLM-pretrains an encoder on `corpus`.
pub fn pretrain_lm(corpus: &[String], recipe: &PretrainRecipe, seed: u64) -> PretrainedLm {
    let tokenizer = WordPiece::train(corpus.iter().map(String::as_str), &recipe.tokenizer);
    let config = recipe.encoder_config(tokenizer.vocab_size());
    let mut store = ParamStore::new();
    let mut rng = StdRng::seed_from_u64(seed);
    let encoder = Encoder::new(&mut store, config.clone(), ENC_PREFIX, &mut rng);
    let head = MlmHead::new(&mut store, &config, ENC_PREFIX, &mut rng);
    let max_body = config.max_seq - 2;

    // One sentence per sequence: fine-tuning adapts the position embeddings
    // past these lengths on its own, as the paper also observes (§6.1).
    let sentences: Vec<Vec<u32>> = corpus
        .iter()
        .map(|line| {
            let mut ids = vec![CLS];
            ids.extend(tokenizer.encode_with_budget(line, max_body));
            ids.push(SEP);
            ids
        })
        .collect();
    let losses = pretrain_mlm(&encoder, &head, &mut store, &sentences, &recipe.mlm);
    // The store holds the encoder and its MLM head, and both are kept:
    // fine-tuning models leave the head unused, while the probing analysis
    // (Tables 12-13) needs it.
    let weights = save(&store);
    PretrainedLm { tokenizer, config, weights, losses }
}

/// Instantiates a fine-tuning model whose encoder is the pretrained one.
/// `make_cfg` receives the encoder config so callers can attach their task
/// shape / input mode / attention mode / token budget. The model is built
/// once: encoder parameters take their pretrained values, heads are drawn
/// from `seed`. Panics, naming the parameter, unless the checkpoint holds a
/// record of each encoder and MLM-head parameter, of its shape, and no
/// other (see [`instantiate_lm`]).
pub fn build_finetune_model(
    lm: &PretrainedLm,
    make_cfg: impl FnOnce(EncoderConfig) -> DoduoConfig,
    seed: u64,
) -> (ParamStore, DoduoModel) {
    let cfg = make_cfg(lm.config.clone());
    assert_eq!(
        cfg.encoder, lm.config,
        "fine-tune encoder shape must match the pretrained checkpoint"
    );
    let (pretrained, _, _) =
        instantiate_lm(lm).unwrap_or_else(|e| panic!("pretrained weights must load: {e}"));
    let mut init = Pretrained { lm: &pretrained, rng: StdRng::seed_from_u64(seed) };
    let mut store = ParamStore::new();
    let model = DoduoModel::new(&mut store, cfg, ENC_PREFIX, &mut init);
    (store, model)
}

/// A fine-tuning model's [`Init`] over a pretrained LM. Every parameter is
/// drawn, so the heads start where the encoder's draws leave `rng`, as in a
/// model built from scratch (every fine-tuned model and training digest
/// depends on those values); a parameter the LM has then takes the LM's
/// value instead of its draw.
struct Pretrained<'a> {
    lm: &'a ParamStore,
    rng: StdRng,
}

impl Init for Pretrained<'_> {
    fn value(&mut self, name: &str, rows: usize, cols: usize, fill: Fill) -> Tensor {
        let drawn = self.rng.value(name, rows, cols, fill);
        match self.lm.find(name) {
            Some(id) => self.lm.get(id).clone(),
            None => drawn,
        }
    }
}

/// Re-instantiates the pretrained language model (encoder + MLM head) from
/// its checkpoint, e.g. for the perplexity-probing analysis of Tables
/// 12-13. Every parameter is built from its record; nothing is drawn. A
/// checkpoint that does not parse, or lacks, mis-shapes or adds a record,
/// is an error naming it.
pub fn instantiate_lm(lm: &PretrainedLm) -> Result<(ParamStore, Encoder, MlmHead), LoadError> {
    let mut store = ParamStore::new();
    let mut records = Records::parse(&lm.weights)?;
    let encoder = Encoder::new(&mut store, lm.config.clone(), ENC_PREFIX, &mut records);
    let head = MlmHead::new(&mut store, &lm.config, ENC_PREFIX, &mut records);
    records.finish()?;
    Ok((store, encoder, head))
}

#[cfg(test)]
mod tests {
    use super::*;
    use doduo_tensor::Tape;
    use std::sync::OnceLock;

    fn corpus() -> Vec<String> {
        let mut out = Vec::new();
        for _ in 0..4 {
            out.extend(
                [
                    "george miller is a director",
                    "george miller directed happy feet",
                    "brisbane is a city",
                    "happy feet is a film",
                    "cars is a film",
                    "john lasseter directed cars",
                ]
                .iter()
                .map(|s| s.to_string()),
            );
        }
        out
    }

    /// One tiny pretrained LM, shared by the tests.
    fn lm() -> &'static PretrainedLm {
        static LM: OnceLock<PretrainedLm> = OnceLock::new();
        LM.get_or_init(|| pretrain_lm(&corpus(), &PretrainRecipe::tiny(), 42))
    }

    fn finetune_cfg(enc: EncoderConfig) -> DoduoConfig {
        DoduoConfig::new(enc, 4, 2, true)
    }

    /// `lm` with its checkpoint rewritten: `edit` maps each record's name
    /// and value to the records written in its place.
    fn forged(edit: impl Fn(&str, &Tensor) -> Vec<(String, Tensor)>) -> PretrainedLm {
        let lm = lm();
        let (store, _, _) = instantiate_lm(lm).expect("the pretrained LM loads");
        let mut out = ParamStore::new();
        for (_, p) in store.iter() {
            for (name, value) in edit(&p.name, &p.value) {
                out.add(name, value);
            }
        }
        let (tokenizer, config) = (lm.tokenizer.clone(), lm.config.clone());
        PretrainedLm { tokenizer, config, weights: save(&out), losses: Vec::new() }
    }

    #[test]
    fn build_finetune_model_matches_draw_then_overwrite_bitwise() {
        let (store, _) = build_finetune_model(lm(), finetune_cfg, 7);
        // The oracle: the model drawn from the seed, then every parameter
        // the pretrained LM has overwritten by name.
        let mut oracle = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(7);
        DoduoModel::new(&mut oracle, finetune_cfg(lm().config.clone()), ENC_PREFIX, &mut rng);
        let (pretrained, _, _) = instantiate_lm(lm()).expect("the pretrained LM loads");
        let mut copied = 0;
        for (_, p) in pretrained.iter() {
            if let Some(id) = oracle.find(&p.name) {
                oracle.set_value(id, p.value.clone());
                copied += 1;
            }
        }
        assert_eq!(copied, oracle.len() - 8, "every parameter but the eight head ones");
        assert_eq!(store.len(), oracle.len());
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for ((i, a), (j, b)) in store.iter().zip(oracle.iter()) {
            assert_eq!((i, &a.name, a.value.shape()), (j, &b.name, b.value.shape()));
            assert_eq!(bits(&a.value), bits(&b.value), "{}", a.name);
        }
    }

    #[test]
    #[should_panic(expected = "enc.l0.attn.wq")]
    fn a_missing_encoder_record_panics_naming_it() {
        let lm = forged(|name, v| {
            if name == "enc.l0.attn.wq" {
                vec![]
            } else {
                vec![(name.to_owned(), v.clone())]
            }
        });
        build_finetune_model(&lm, finetune_cfg, 7);
    }

    #[test]
    #[should_panic(expected = "enc.emb.ln.g")]
    fn a_misshaped_encoder_record_panics_naming_it() {
        let lm = forged(|name, v| {
            let v = if name == "enc.emb.ln.g" { Tensor::zeros(2, v.cols()) } else { v.clone() };
            vec![(name.to_owned(), v)]
        });
        build_finetune_model(&lm, finetune_cfg, 7);
    }

    #[test]
    #[should_panic(expected = "enc.type.dense.w")]
    fn a_record_beyond_the_encoder_and_mlm_head_panics_naming_it() {
        let lm = forged(|name, v| {
            let mut out = vec![(name.to_owned(), v.clone())];
            if name == "enc.emb.tok" {
                out.push(("enc.type.dense.w".to_owned(), Tensor::zeros(1, 1)));
            }
            out
        });
        build_finetune_model(&lm, finetune_cfg, 7);
    }

    #[test]
    fn pretrain_then_finetune_weights_transfer() {
        let lm = lm();
        assert!(!lm.losses.is_empty());
        let (store, model) = build_finetune_model(lm, finetune_cfg, 7);
        // The loaded encoder must produce the same embeddings as a second
        // load — i.e. weights really come from the checkpoint, not the RNG.
        // A different seed: heads differ, encoder identical.
        let (store2, model2) = build_finetune_model(lm, finetune_cfg, 999);
        let ids = [CLS, 7, 8, 9, SEP];
        let mut rng = StdRng::seed_from_u64(0);
        let mut t1 = Tape::inference(&store);
        let a = model.encoder.forward(&mut t1, &ids, None, &mut rng);
        let mut t2 = Tape::inference(&store2);
        let b = model2.encoder.forward(&mut t2, &ids, None, &mut rng);
        for (x, y) in t1.value(a).data().iter().zip(t2.value(b).data().iter()) {
            assert!((x - y).abs() < 1e-6, "encoders must match across loads");
        }
    }

    #[test]
    #[should_panic(expected = "must match the pretrained checkpoint")]
    fn mismatched_encoder_shape_panics() {
        build_finetune_model(
            lm(),
            |mut enc| {
                enc.hidden = 64;
                enc.heads = 4;
                DoduoConfig::new(enc, 4, 2, true)
            },
            7,
        );
    }
}
