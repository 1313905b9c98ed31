//! The int8-quantized serving tier of [`Encoder`].
//!
//! [`QuantEncoder`] is built once from a trained f32 encoder and holds
//! only what differs from it: the four dense layers of every block (fused
//! Q|K|V, attention output, both FFN matrices) as
//! [`QuantizedLinear`] kernels. Its forward is
//! the encoder's one layer loop (`encoder::encode`) handed
//! [`Dense::Int8`] for those layers, on either backend: the executor
//! dequantizes them straight into its slots, a tape runs them off the tape
//! and injects their outputs back as constant inputs, while embeddings,
//! LayerNorm, GELU, residual adds and attention are the very same f32 ops,
//! on parameters shared with the f32 encoder by id. Because quantization
//! scales are per output channel, fusing Q/K/V into one kernel call is
//! numerically identical to three separate quantized projections.
//!
//! The top block stops at the rows its caller keeps exactly as the f32
//! encoder's does ([`QuantEncoder::encode`]'s `keep`): an int8 layer
//! quantizes its input row by row, so a kept row's codes, scale and output
//! are what they are at full width.
//!
//! Inference only: a tape records no gradient path through the injected
//! nodes. The numerics contract is the accuracy-gated tier of the two-tier
//! policy described in `doduo_tensor::quant` — not bit-equal to f32, but
//! bit-stable across kernels, backends and thread counts on a host.

use crate::config::EncoderConfig;
use crate::encoder::{encode, encode_on_tape, BatchEncoding, BatchSeq, Block, Embeddings, Encoder};
use crate::ops::{Dense, Ops};
use doduo_tensor::{ParamId, ParamStore, QuantizedLinear, Tape};
use rand::rngs::StdRng;
use rand::SeedableRng;

struct QuantLayer {
    /// Fused `[d, 3d]` Q|K|V projection (columns in the order
    /// `Tape::fused_qkv` emits).
    qkv: QuantizedLinear,
    /// Attention output projection `[d, d]`.
    wo: QuantizedLinear,
    /// FFN up-projection `[d, ffn]`.
    w1: QuantizedLinear,
    /// FFN down-projection `[ffn, d]`.
    w2: QuantizedLinear,
    ln1: (ParamId, ParamId),
    ln2: (ParamId, ParamId),
}

impl QuantLayer {
    fn block(&self) -> Block<'_> {
        Block {
            qkv: Dense::Int8(&self.qkv),
            wo: Dense::Int8(&self.wo),
            w1: Dense::Int8(&self.w1),
            w2: Dense::Int8(&self.w2),
            ln1: self.ln1,
            ln2: self.ln2,
        }
    }
}

/// An inference-only encoder whose dense layers were quantized to int8
/// from a trained f32 [`Encoder`].
pub struct QuantEncoder {
    cfg: EncoderConfig,
    emb: Embeddings,
    layers: Vec<QuantLayer>,
}

impl QuantEncoder {
    /// Quantizes every dense layer of `enc` (whose weights live in
    /// `store`). The embedding tables and LayerNorm parameters are shared
    /// with the f32 encoder by id, not copied.
    pub fn from_encoder(enc: &Encoder, store: &ParamStore) -> QuantEncoder {
        let layers = enc
            .layers
            .iter()
            .map(|l| QuantLayer {
                qkv: QuantizedLinear::from_concat(&[
                    (store.get(l.wq), store.get(l.bq)),
                    (store.get(l.wk), store.get(l.bk)),
                    (store.get(l.wv), store.get(l.bv)),
                ]),
                wo: QuantizedLinear::from_f32(store.get(l.wo), store.get(l.bo)),
                w1: QuantizedLinear::from_f32(store.get(l.w1), store.get(l.b1)),
                w2: QuantizedLinear::from_f32(store.get(l.w2), store.get(l.b2)),
                ln1: l.ln1,
                ln2: l.ln2,
            })
            .collect();
        QuantEncoder { cfg: enc.config().clone(), emb: enc.emb, layers }
    }

    /// The configuration inherited from the f32 encoder.
    pub fn config(&self) -> &EncoderConfig {
        &self.cfg
    }

    /// [`Encoder::forward_batch`] with int8 dense layers: same ragged
    /// packing, same loop, same tape ops around them. `tape` must be an
    /// inference tape.
    pub fn forward_batch(&self, tape: &mut Tape<'_>, seqs: &[BatchSeq<'_>]) -> BatchEncoding {
        assert!(!tape.is_training(), "the int8 tier is inference-only");
        // Never drawn from: dropout is a no-op on inference tapes.
        let mut rng = StdRng::seed_from_u64(0);
        let blocks = self.layers.iter().map(QuantLayer::block);
        encode_on_tape(tape, &self.cfg, &self.emb, blocks, seqs, &mut rng)
    }

    /// [`Encoder::encode`] with int8 dense layers, on whichever
    /// (inference) backend `f` is. Activations are quantized row by row,
    /// so the rows `keep` names come out as they do at full width here too.
    pub fn encode<'a, F: Ops>(
        &self,
        f: &mut F,
        seqs: impl Iterator<Item = BatchSeq<'a>> + Clone,
        keep: impl Iterator<Item = Option<&'a [u32]>> + Clone,
    ) -> F::Node {
        assert!(!f.is_training(), "the int8 tier is inference-only");
        let mut rng = StdRng::seed_from_u64(0);
        let blocks = self.layers.iter().map(QuantLayer::block);
        encode(f, &self.cfg, &self.emb, blocks, seqs, keep, &mut rng, |_| {})
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoder::mask_from_fn;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn build() -> (ParamStore, Encoder) {
        let mut rng = StdRng::seed_from_u64(1);
        let mut store = ParamStore::new();
        let enc = Encoder::new(&mut store, EncoderConfig::tiny(50), "enc", &mut rng);
        (store, enc)
    }

    #[test]
    fn quant_batch_close_to_f32_batch() {
        let (store, enc) = build();
        let qenc = QuantEncoder::from_encoder(&enc, &store);
        let seqs: Vec<Vec<u32>> = vec![vec![2, 7, 8, 9, 3], vec![2, 10, 3]];
        let mask1 = mask_from_fn(seqs[1].len(), |i, j| i == j || j == 0);
        let masks = [None, Some(&mask1)];
        let batch: Vec<BatchSeq<'_>> = seqs
            .iter()
            .zip(masks.iter())
            .map(|(ids, mask)| BatchSeq { ids, mask: *mask })
            .collect();

        let mut rng = StdRng::seed_from_u64(2);
        let mut ft = Tape::inference(&store);
        let f = enc.forward_batch(&mut ft, &batch, &mut rng);
        let mut qt = Tape::inference(&store);
        let q = qenc.forward_batch(&mut qt, &batch);

        let fv = ft.value(f.node);
        let qv = qt.value(q.node);
        assert_eq!(fv.shape(), qv.shape());
        assert!(!qv.has_non_finite());
        // Freshly initialized weights, LayerNorm-bounded activations:
        // int8 per-channel quantization stays close to f32. This is a
        // sanity bound, not the accuracy gate (the repro harness pins
        // task-level drift on trained weights).
        let mut max_abs = 0f32;
        for (a, b) in fv.data().iter().zip(qv.data()) {
            max_abs = max_abs.max((a - b).abs());
        }
        assert!(max_abs < 0.35, "quantized encoder drifted too far: {max_abs}");
        // And it must not be exactly f32 — that would mean the quantized
        // kernels were silently bypassed.
        assert!(max_abs > 0.0, "quantized forward is suspiciously bit-equal to f32");
    }

    #[test]
    fn quant_forward_is_deterministic() {
        let (store, enc) = build();
        let qenc = QuantEncoder::from_encoder(&enc, &store);
        let ids = [2u32, 5, 6, 7, 3];
        let run = || {
            let mut tape = Tape::inference(&store);
            let out = qenc.forward_batch(&mut tape, &[BatchSeq { ids: &ids, mask: None }]);
            tape.value(out.node).clone()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn quant_offsets_match_f32_packing() {
        let (store, enc) = build();
        let qenc = QuantEncoder::from_encoder(&enc, &store);
        let seqs: Vec<Vec<u32>> = vec![vec![2, 3], vec![2, 4, 5, 3], vec![2, 3]];
        let batch: Vec<BatchSeq<'_>> =
            seqs.iter().map(|ids| BatchSeq { ids, mask: None }).collect();
        let mut tape = Tape::inference(&store);
        let out = qenc.forward_batch(&mut tape, &batch);
        assert_eq!(out.row_of(0, 0), 0);
        assert_eq!(out.row_of(1, 0), 2);
        assert_eq!(out.row_of(2, 0), 6);
        assert_eq!(tape.value(out.node).shape(), (8, enc.config().hidden));
    }
}
