//! Staged replay of the inference path below `BatchAnnotator`: the same
//! micro-batches the engine cuts, pushed through each layer's public
//! function in turn, and the encoder itself replayed op by op with public
//! `Tape` ops on the checkpoint's own weights.
//!
//! The program has no spans of its own yet, so this is how the benchmark
//! sees inside `annotate_groups` from outside. Two things keep it honest:
//! the op-by-op replay must reproduce `forward_batch` bit for bit before
//! its timings are accepted, and the sum of replayed stages is compared to
//! the untraced time (`bench.stage_sum_ratio`).

use doduo_core::AnnotatorBundle;
use doduo_table::SerializedTable;
use doduo_tensor::{ParamId, ParamStore, QuantizedLinear, Tape, Tensor};
use doduo_transformer::{BatchSeq, QuantEncoder};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::cmp::Reverse;
use std::time::Instant;

/// The micro-batches `BatchAnnotator::annotate_groups_each` cuts from
/// `groups` (indices into it): longest sequence first, a new batch when
/// either the sequence or the token bound would be exceeded, at least one
/// group per batch. Mirrors the engine so that the replay runs the same
/// packed shapes; composition never changes the numbers, only the shapes.
pub fn cut_microbatches(
    groups: &[Vec<SerializedTable>],
    max_batch: usize,
    max_tokens: usize,
) -> Vec<Vec<usize>> {
    let mut order: Vec<usize> = (0..groups.len()).collect();
    order.sort_by_key(|&i| Reverse(groups[i].iter().map(SerializedTable::len).max()));
    let (max_batch, max_tokens) = (max_batch.max(1), max_tokens.max(1));
    let mut batches = Vec::new();
    let mut cur: Vec<usize> = Vec::new();
    let (mut cur_seqs, mut cur_tokens) = (0usize, 0usize);
    for &i in &order {
        let n = groups[i].len();
        let t: usize = groups[i].iter().map(SerializedTable::len).sum();
        if !cur.is_empty() && (cur_seqs + n > max_batch || cur_tokens + t > max_tokens) {
            batches.push(std::mem::take(&mut cur));
            cur_seqs = 0;
            cur_tokens = 0;
        }
        cur.push(i);
        cur_seqs += n;
        cur_tokens += t;
    }
    if !cur.is_empty() {
        batches.push(cur);
    }
    batches
}

/// Busy nanoseconds per op category of one or more encoder replays.
#[derive(Clone, Copy, Debug, Default)]
pub struct OpTimes {
    pub embed_ln: u64,
    pub qkv: u64,
    pub attn: u64,
    pub attn_out: u64,
    pub ffn: u64,
    pub gelu: u64,
    pub ln: u64,
    /// Nodes the replay's tape recorded.
    pub tape_nodes: u64,
}

impl OpTimes {
    /// `(span name, busy ns)` per category, in execution order.
    pub fn named(&self) -> [(&'static str, u64); 7] {
        [
            ("tensor.embed_ln", self.embed_ln),
            ("tensor.qkv", self.qkv),
            ("tensor.attn", self.attn),
            ("tensor.attn_out", self.attn_out),
            ("tensor.ln", self.ln),
            ("tensor.ffn", self.ffn),
            ("tensor.gelu", self.gelu),
        ]
    }
}

struct LayerIds {
    wq: ParamId,
    bq: ParamId,
    wk: ParamId,
    bk: ParamId,
    wv: ParamId,
    bv: ParamId,
    wo: ParamId,
    bo: ParamId,
    ln1_g: ParamId,
    ln1_b: ParamId,
    w1: ParamId,
    b1: ParamId,
    w2: ParamId,
    b2: ParamId,
    ln2_g: ParamId,
    ln2_b: ParamId,
}

struct QuantLayer {
    qkv: QuantizedLinear,
    wo: QuantizedLinear,
    w1: QuantizedLinear,
    w2: QuantizedLinear,
}

/// The encoder's weights resolved by name, for replaying it from outside.
pub struct EncoderReplay<'a> {
    store: &'a ParamStore,
    heads: usize,
    hidden: usize,
    ffn: usize,
    tok_emb: ParamId,
    pos_emb: ParamId,
    emb_ln_g: ParamId,
    emb_ln_b: ParamId,
    layers: Vec<LayerIds>,
    /// Present for the int8 tier: the dense layers quantized exactly as
    /// `QuantEncoder::from_encoder` quantizes them.
    quant: Option<Vec<QuantLayer>>,
}

/// `start.elapsed()` in nanoseconds, and restarts `start`.
fn lap(start: &mut Instant) -> u64 {
    let now = Instant::now();
    let ns = now.duration_since(*start).as_nanos() as u64;
    *start = now;
    ns
}

impl<'a> EncoderReplay<'a> {
    pub fn new(bundle: &'a AnnotatorBundle, int8: bool) -> EncoderReplay<'a> {
        let store = &bundle.store;
        let cfg = bundle.model.encoder.config();
        let prefix = store
            .iter()
            .find_map(|(_, p)| p.name.strip_suffix(".emb.tok").map(str::to_string))
            .expect("checkpoint holds a token embedding");
        let find = |name: String| {
            store.find(&name).unwrap_or_else(|| panic!("checkpoint lacks parameter {name}"))
        };
        let layers: Vec<LayerIds> = (0..cfg.layers)
            .map(|l| {
                let p = |s: &str| find(format!("{prefix}.l{l}.{s}"));
                LayerIds {
                    wq: p("attn.wq"),
                    bq: p("attn.bq"),
                    wk: p("attn.wk"),
                    bk: p("attn.bk"),
                    wv: p("attn.wv"),
                    bv: p("attn.bv"),
                    wo: p("attn.wo"),
                    bo: p("attn.bo"),
                    ln1_g: p("ln1.g"),
                    ln1_b: p("ln1.b"),
                    w1: p("ffn.w1"),
                    b1: p("ffn.b1"),
                    w2: p("ffn.w2"),
                    b2: p("ffn.b2"),
                    ln2_g: p("ln2.g"),
                    ln2_b: p("ln2.b"),
                }
            })
            .collect();
        let quant = int8.then(|| {
            layers
                .iter()
                .map(|l| {
                    let g = |id| store.get(id);
                    QuantLayer {
                        qkv: QuantizedLinear::from_concat(&[
                            (g(l.wq), g(l.bq)),
                            (g(l.wk), g(l.bk)),
                            (g(l.wv), g(l.bv)),
                        ]),
                        wo: QuantizedLinear::from_f32(g(l.wo), g(l.bo)),
                        w1: QuantizedLinear::from_f32(g(l.w1), g(l.b1)),
                        w2: QuantizedLinear::from_f32(g(l.w2), g(l.b2)),
                    }
                })
                .collect()
        });
        EncoderReplay {
            store,
            heads: cfg.heads,
            hidden: cfg.hidden,
            ffn: cfg.ffn,
            tok_emb: find(format!("{prefix}.emb.tok")),
            pos_emb: find(format!("{prefix}.emb.pos")),
            emb_ln_g: find(format!("{prefix}.emb.ln.g")),
            emb_ln_b: find(format!("{prefix}.emb.ln.b")),
            layers,
            quant,
        }
    }

    /// Replays the encoder over the packed `seqs` op by op, adding each
    /// category's busy time to `times`, and returns the top-layer
    /// activation. Follows `Encoder::forward_batch` (or, for the int8
    /// tier, `QuantEncoder::forward_batch`) op for op.
    pub fn forward(&self, seqs: &[&[u32]], times: &mut OpTimes) -> Tensor {
        let lens: Vec<usize> = seqs.iter().map(|s| s.len()).collect();
        let ids: Vec<u32> = seqs.iter().flat_map(|s| s.iter().copied()).collect();
        let positions: Vec<u32> = lens.iter().flat_map(|&n| 0..n as u32).collect();
        let masks = vec![None; seqs.len()];
        let mut tape = Tape::inference(self.store);

        let mut t = Instant::now();
        let tok = tape.embedding(self.tok_emb, &ids);
        let pos = tape.embedding(self.pos_emb, &positions);
        let sum = tape.add(tok, pos);
        let mut x = tape.layer_norm(sum, self.emb_ln_g, self.emb_ln_b);
        times.embed_ln += lap(&mut t);

        for (i, l) in self.layers.iter().enumerate() {
            let q = self.quant.as_ref().map(|q| &q[i]);
            let qkv = match q {
                None => tape.fused_qkv(x, l.wq, l.bq, l.wk, l.bk, l.wv, l.bv),
                Some(q) => {
                    let v = q.qkv.forward(tape.value(x));
                    tape.input(v)
                }
            };
            times.qkv += lap(&mut t);
            let att = tape.mha_batch_qkv(qkv, self.heads, &masks, Some(&lens));
            times.attn += lap(&mut t);
            let proj = match q {
                None => tape.linear(att, l.wo, l.bo),
                Some(q) => {
                    let v = q.wo.forward(tape.value(att));
                    tape.input(v)
                }
            };
            times.attn_out += lap(&mut t);
            let res1 = tape.add(x, proj);
            let h = tape.layer_norm(res1, l.ln1_g, l.ln1_b);
            times.ln += lap(&mut t);
            let f1 = match q {
                None => tape.linear(h, l.w1, l.b1),
                Some(q) => {
                    let v = q.w1.forward(tape.value(h));
                    tape.input(v)
                }
            };
            times.ffn += lap(&mut t);
            let act = tape.gelu(f1);
            times.gelu += lap(&mut t);
            let f2 = match q {
                None => tape.linear(act, l.w2, l.b2),
                Some(q) => {
                    let v = q.w2.forward(tape.value(act));
                    tape.input(v)
                }
            };
            times.ffn += lap(&mut t);
            let res2 = tape.add(h, f2);
            x = tape.layer_norm(res2, l.ln2_g, l.ln2_b);
            times.ln += lap(&mut t);
        }
        times.tape_nodes += tape.len() as u64;
        tape.value(x).clone()
    }

    /// Floating-point (or integer multiply-add) operations of the GEMMs
    /// and attention products of one forward pass over sequences of these
    /// lengths — computed from shapes, not measured.
    pub fn gemm_flops(&self, lens: &[usize]) -> u64 {
        let (d, f) = (self.hidden as u64, self.ffn as u64);
        let tokens: u64 = lens.iter().map(|&n| n as u64).sum();
        let dense = 2 * tokens * d * (3 * d) + 2 * tokens * d * d + 2 * 2 * tokens * d * f;
        // QK^T and PV per head sum to 2 * (2 * len^2 * d) per sequence.
        let attn: u64 = lens.iter().map(|&n| 4 * (n as u64) * (n as u64) * d).sum();
        (dense + attn) * self.layers.len() as u64
    }
}

/// The reference the op-by-op replay is checked against:
/// `Encoder::forward_batch` (f32) or `QuantEncoder::forward_batch` (int8)
/// on the same sequences. Returns the activation and the call's busy time.
pub fn forward_batch_reference(
    bundle: &AnnotatorBundle,
    quant: Option<&QuantEncoder>,
    seqs: &[&[u32]],
) -> (Tensor, u64) {
    let batch: Vec<BatchSeq<'_>> = seqs.iter().map(|ids| BatchSeq { ids, mask: None }).collect();
    let mut tape = Tape::inference(&bundle.store);
    let start = Instant::now();
    let enc = match quant {
        None => {
            let mut rng = StdRng::seed_from_u64(0);
            bundle.model.encoder.forward_batch(&mut tape, &batch, &mut rng)
        }
        Some(q) => q.forward_batch(&mut tape, &batch),
    };
    let ns = start.elapsed().as_nanos() as u64;
    (tape.value(enc.node).clone(), ns)
}

/// Panics unless `a` and `b` are the same tensor bit for bit: the replay's
/// timings only stand if it computed what the program computes.
pub fn assert_same_bits(a: &Tensor, b: &Tensor, what: &str) {
    assert_eq!(a.shape(), b.shape(), "{what}: replay shape differs");
    let same = a.data().iter().zip(b.data()).all(|(x, y)| x.to_bits() == y.to_bits());
    assert!(same, "{what}: op-by-op replay is not bit-identical to forward_batch");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn st(len: usize) -> SerializedTable {
        SerializedTable { ids: vec![5; len], cls_positions: vec![0], col_of_token: vec![0; len] }
    }

    #[test]
    fn microbatches_are_cut_longest_first_at_either_bound() {
        let groups: Vec<Vec<SerializedTable>> =
            [40, 100, 60, 30, 90].iter().map(|&n| vec![st(n)]).collect();
        // Longest first: 100 | 90 | 60+40 | 30 under a 100-token bound... 60+40 fits exactly.
        assert_eq!(cut_microbatches(&groups, 32, 100), vec![vec![1], vec![4], vec![2, 0], vec![3]]);
        // The sequence bound cuts too.
        assert_eq!(cut_microbatches(&groups, 2, 10_000), vec![vec![1, 4], vec![2, 0], vec![3]]);
        // A group larger than the bound still gets a batch of its own.
        assert_eq!(cut_microbatches(&groups[1..2], 32, 10), vec![vec![0]]);
        assert!(cut_microbatches(&[], 32, 192).is_empty());
    }
}
