//! Encoder hyper-parameters.

/// Architecture of the Transformer encoder.
///
/// The paper fine-tunes BERT-base (12 layers, 768 hidden, 12 heads,
/// WordPiece-30k). That is far beyond CPU-trainable scale, so the default
/// here is a miniature with the same shape: post-LayerNorm residual blocks,
/// GELU feed-forward of 4× width, learned absolute position embeddings.
/// ARCHITECTURE.md ("Quick-scale vs full-scale experiments") documents
/// this substitution.
#[derive(Clone, Debug, PartialEq)]
pub struct EncoderConfig {
    /// WordPiece vocabulary size (set from the trained tokenizer).
    pub vocab_size: usize,
    /// Hidden width `d` (BERT-base: 768).
    pub hidden: usize,
    /// Number of Transformer blocks (BERT-base: 12).
    pub layers: usize,
    /// Attention heads; must divide `hidden` (BERT-base: 12).
    pub heads: usize,
    /// Feed-forward inner width (BERT-base: 3072 = 4×768).
    pub ffn: usize,
    /// Maximum supported sequence length (BERT: 512).
    pub max_seq: usize,
    /// Dropout probability used during training.
    pub dropout: f32,
}

impl EncoderConfig {
    /// The default miniature used across experiments: 3 layers, 96 hidden,
    /// 4 heads, 384 FFN, 192 max tokens.
    pub fn mini(vocab_size: usize) -> Self {
        EncoderConfig {
            vocab_size,
            hidden: 96,
            layers: 3,
            heads: 4,
            ffn: 384,
            max_seq: 192,
            dropout: 0.1,
        }
    }

    /// An even smaller config for fast unit tests.
    pub fn tiny(vocab_size: usize) -> Self {
        EncoderConfig {
            vocab_size,
            hidden: 32,
            layers: 2,
            heads: 2,
            ffn: 64,
            max_seq: 64,
            dropout: 0.0,
        }
    }

    /// Why the configuration is internally inconsistent, if it is — what a
    /// checkpoint loader asks of a config it read from untrusted bytes.
    pub fn check(&self) -> Result<(), &'static str> {
        if self.vocab_size <= 5 {
            Err("vocab must include more than the special tokens")
        } else if self.hidden == 0 || self.layers == 0 || self.heads == 0 {
            Err("hidden width, layers and heads must be positive")
        } else if !self.hidden.is_multiple_of(self.heads) {
            Err("heads must divide hidden width")
        } else if !(0.0..1.0).contains(&self.dropout) {
            Err("dropout must lie in [0, 1)")
        } else {
            Ok(())
        }
    }

    /// Panics if the configuration is internally inconsistent.
    pub fn validate(&self) {
        if let Err(why) = self.check() {
            panic!("invalid encoder config: {why}");
        }
    }
}
