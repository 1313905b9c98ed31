//! The forward-only executor: the ops of a serving forward without a tape.
//!
//! A [`crate::Tape`] records every intermediate so that `backward` can walk
//! them; a forward nobody will differentiate pays for that in a node, a
//! fresh allocation and usually a clone per op, all retained until the tape
//! drops. An [`Executor`] runs the same ops — through the same functions of
//! the crate-private `forward` module, [`crate::kernels`] and
//! [`crate::vmath`], hence to the same bits — over a small pool of reusable
//! buffers instead:
//!
//! * an op's output lands in a free buffer of the pool, whatever the buffer
//!   held: every GEMM writes its segment, with a dense layer's bias added on
//!   the kernel's store, so nothing is zero-filled first; GELU and the
//!   residual add then work in place;
//! * a [`Slot`] is a *linear* handle — neither `Copy` nor `Clone` — and an
//!   op that takes one by value consumes it: its buffer either becomes the
//!   output (in-place ops) or returns to the pool, so nothing outlives the
//!   op that last reads it and a forward's working set is a handful of
//!   activations, whatever its depth;
//! * the pool, attention's probability scratch and the int8 activation
//!   staging live in a grow-only per-thread arena that [`Executor::new`]
//!   borrows and `Drop` hands back: once a thread has run its largest
//!   micro-batch, a forward allocates nothing ([`arena_len`] reports what
//!   it holds);
//! * attention computes the query rows its caller names and no others
//!   ([`AttnBlock::keep`], borrowed positions — nothing is collected): the
//!   top encoder block's output, and every buffer after it, is one row per
//!   `[CLS]` instead of one per token;
//! * a dense layer's weight is a constant for as long as the executor's
//!   `&ParamStore` lives, so its GEMM borrows the store's packed panel of
//!   it ([`ParamStore::panel`], built by the first product that wants one)
//!   instead of re-packing the matrix on every call as a tape — whose
//!   weights move every step — must. Same loop nest, same micro-kernel,
//!   same bits.

use crate::forward::{
    attention_forward, concat_rows, dense_segment, gather_rows, grow, layer_norm_rows, AttnBlock,
};
use crate::kernels::View;
use crate::params::{ParamId, ParamStore};
use crate::quant::{QuantScratch, QuantizedLinear};
use crate::vmath;
use std::cell::Cell;

/// Everything an [`Executor`] reuses from one forward to the next.
#[derive(Default)]
struct Arena {
    /// The buffer pool. Grow-only: a buffer keeps the largest size any of
    /// its roles ever asked for.
    bufs: Vec<Vec<f32>>,
    /// Indices into `bufs` not currently behind a live [`Slot`], popped
    /// from the back — so the same op sequence maps ops to buffers the
    /// same way every time and sizes settle after one forward.
    free: Vec<usize>,
    /// Attention's per-head probability matrix.
    probs: Vec<f32>,
    /// Activation codes of the int8 dense layers.
    quant: QuantScratch,
}

thread_local! {
    static ARENA: Cell<Arena> = Cell::new(Arena::default());
}

/// Floats held by the calling thread's arena, `(buffer pool, attention
/// scratch)`, while no [`Executor`] is alive on it — how a test sees what a
/// forward's working set settled at.
pub fn arena_len() -> (usize, usize) {
    let arena = ARENA.take();
    let len = (arena.bufs.iter().map(Vec::len).sum(), arena.probs.len());
    ARENA.set(arena);
    len
}

/// A live activation of an [`Executor`]: `[rows, cols]`, row-major.
/// Deliberately neither `Copy` nor `Clone`; see the module docs.
pub struct Slot {
    buf: usize,
    rows: usize,
    cols: usize,
}

impl Slot {
    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    fn len(&self) -> usize {
        self.rows * self.cols
    }
}

/// One tape-free, inference-only forward pass over a shared parameter
/// store, on the calling thread's scratch arena.
pub struct Executor<'s> {
    store: &'s ParamStore,
    arena: Arena,
}

impl<'s> Executor<'s> {
    /// Starts a forward on the calling thread's arena (every buffer free).
    /// A second executor alive on the same thread simply starts cold.
    pub fn new(store: &'s ParamStore) -> Self {
        let mut arena = ARENA.take();
        arena.free.clear();
        arena.free.extend((0..arena.bufs.len()).rev());
        Executor { store, arena }
    }

    /// The values behind a live slot.
    pub fn value(&self, x: &Slot) -> &[f32] {
        &self.arena.bufs[x.buf][..x.len()]
    }

    /// Returns `x`'s buffer to the pool: nothing will read it again.
    pub fn free(&mut self, x: Slot) {
        self.arena.free.push(x.buf);
    }

    /// Takes a free buffer out of the pool, grown to hold `[rows, cols]`.
    /// The op fills `buf[..rows * cols]` and hands both to `checkin`.
    fn checkout(&mut self, rows: usize, cols: usize) -> (Slot, Vec<f32>) {
        let buf = self.arena.free.pop().unwrap_or_else(|| {
            self.arena.bufs.push(Vec::new());
            // Room for the whole pool: the next forward starts by listing
            // every buffer here, and must not be the one that grows it.
            self.arena.free.reserve(self.arena.bufs.len());
            self.arena.bufs.len() - 1
        });
        let mut data = std::mem::take(&mut self.arena.bufs[buf]);
        grow(&mut data, rows * cols);
        (Slot { buf, rows, cols }, data)
    }

    fn checkin(&mut self, slot: Slot, data: Vec<f32>) -> Slot {
        self.arena.bufs[slot.buf] = data;
        slot
    }

    /// Gathers the `rows` embedding rows `ids` of parameter `weight`.
    pub fn embedding(
        &mut self,
        weight: ParamId,
        rows: usize,
        ids: impl Iterator<Item = u32>,
    ) -> Slot {
        let w = self.store.get(weight);
        let (slot, mut out) = self.checkout(rows, w.cols());
        gather_rows(w.data(), w.cols(), ids, &mut out[..slot.len()], "embedding");
        self.checkin(slot, out)
    }

    /// `a + b` elementwise, in `a`'s buffer; consumes both.
    pub fn add(&mut self, a: Slot, b: Slot) -> Slot {
        assert_eq!((a.rows, a.cols), (b.rows, b.cols), "add shape mismatch");
        let mut sum = std::mem::take(&mut self.arena.bufs[a.buf]);
        for (x, y) in sum[..a.len()].iter_mut().zip(self.value(&b)) {
            *x += y;
        }
        self.free(b);
        self.checkin(a, sum)
    }

    /// Row-wise LayerNorm with learned gain/bias; consumes `x`.
    pub fn layer_norm(&mut self, x: Slot, gamma: ParamId, beta: ParamId) -> Slot {
        let store = self.store;
        let (g, b) = (store.get(gamma), store.get(beta));
        assert_eq!(g.shape(), (1, x.cols), "layer_norm gamma shape");
        assert_eq!(b.shape(), (1, x.cols), "layer_norm beta shape");
        let (slot, mut out) = self.checkout(x.rows, x.cols);
        let normed = &mut out[..slot.len()];
        layer_norm_rows(self.value(&x), x.cols, g.data(), b.data(), normed, |_, _| {});
        self.free(x);
        self.checkin(slot, out)
    }

    /// `y[.., col0..] = x W + b` into a column segment of the `ldc`-wide
    /// `y` (written, whatever it held), on the store's panel of `w` (built
    /// by the first product that wants one).
    fn dense_into(&self, y: &mut [f32], ldc: usize, col0: usize, x: &Slot, w: ParamId, b: ParamId) {
        let store = self.store;
        let (wt, bt) = (store.get(w), store.get(b));
        assert_eq!(wt.rows(), x.cols, "dense weight shape");
        let xv = View::at(self.value(x), x.cols, 0, 0);
        dense_segment(y, ldc, col0, x.rows, xv, wt, bt, Some(&|| store.panel(w)));
    }

    /// `y = x W + b` — the standard dense layer.
    pub fn linear(&mut self, x: &Slot, w: ParamId, b: ParamId) -> Slot {
        let n = self.store.get(w).cols();
        let (slot, mut out) = self.checkout(x.rows, n);
        self.dense_into(&mut out[..slot.len()], n, 0, x, w, b);
        self.checkin(slot, out)
    }

    /// The three attention projections `[x Wq + bq | x Wk + bk | x Wv + bv]`
    /// as one `[rows, 3d]` activation.
    pub fn fused_qkv(&mut self, x: &Slot, ws: [ParamId; 3], bs: [ParamId; 3]) -> Slot {
        let d = self.store.get(ws[0]).cols();
        let (slot, mut out) = self.checkout(x.rows, 3 * d);
        let y = &mut out[..slot.len()];
        for (t, (&w, &b)) in ws.iter().zip(bs.iter()).enumerate() {
            assert_eq!(self.store.get(w).cols(), d, "fused_qkv weight shape");
            self.dense_into(y, 3 * d, t * d, x, w, b);
        }
        self.checkin(slot, out)
    }

    /// An int8 dense layer, dequantized straight into its slot.
    pub fn quant_linear(&mut self, x: &Slot, q: &QuantizedLinear) -> Slot {
        let (slot, mut out) = self.checkout(x.rows, q.out_dim());
        let Arena { bufs, quant, .. } = &mut self.arena;
        q.forward_into(&bufs[x.buf][..x.len()], x.rows, &mut out[..slot.len()], quant);
        self.checkin(slot, out)
    }

    /// Multi-head self-attention over a fused `[rows, 3d]` Q|K|V
    /// activation; consumes it. `blocks` yields each packed sequence's
    /// length, optional additive `[len, len]` mask and the query rows it
    /// wants, borrowed for the call (see `Tape::mha_batch_qkv` for the
    /// layout). The result holds the wanted rows only, block after block:
    /// `[rows, d]` when every block wants them all.
    pub fn attention<'m>(
        &mut self,
        qkv: Slot,
        heads: usize,
        blocks: impl Iterator<Item = AttnBlock<'m>> + Clone,
    ) -> Slot {
        assert!(qkv.cols.is_multiple_of(3), "fused qkv width must be 3d");
        let (rows, d) = (qkv.rows, qkv.cols / 3);
        let queries = blocks.clone().map(|b| b.queries()).sum();
        let (slot, mut out) = self.checkout(queries, d);
        let y = &mut out[..slot.len()];
        let Arena { bufs, probs, .. } = &mut self.arena;
        attention_forward(&bufs[qkv.buf][..qkv.len()], (rows, d, heads), blocks, y, probs);
        self.free(qkv);
        self.checkin(slot, out)
    }

    /// GELU activation, in place.
    pub fn gelu(&mut self, x: Slot) -> Slot {
        vmath::gelu(&mut self.arena.bufs[x.buf][..x.len()]);
        x
    }

    /// Selects the `n` rows `idxs` of `x`.
    pub fn row_select(&mut self, x: &Slot, n: usize, idxs: impl Iterator<Item = u32>) -> Slot {
        let (slot, mut out) = self.checkout(n, x.cols);
        gather_rows(self.value(x), x.cols, idxs, &mut out[..slot.len()], "row_select");
        self.checkin(slot, out)
    }

    /// `[n, da] ++ [n, db] -> [n, da + db]`; consumes both.
    pub fn concat_cols(&mut self, a: Slot, b: Slot) -> Slot {
        assert_eq!(a.rows, b.rows, "concat_cols row mismatch");
        let (slot, mut out) = self.checkout(a.rows, a.cols + b.cols);
        concat_rows(self.value(&a), a.cols, self.value(&b), b.cols, &mut out[..slot.len()]);
        self.free(a);
        self.free(b);
        self.checkin(slot, out)
    }
}

impl Drop for Executor<'_> {
    fn drop(&mut self) {
        // Hand the (possibly grown) arena back for the thread's next
        // forward. During thread teardown the slot may already be gone;
        // then the arena is simply dropped with the executor.
        let _ = ARENA.try_with(|a| a.set(std::mem::take(&mut self.arena)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tape::Tape;
    use crate::tensor::Tensor;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn buffers_are_reused_within_and_across_forwards() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut store = ParamStore::new();
        let emb = store.add_randn("emb", 10, 8, 0.5, &mut rng);
        let w = store.add_randn("w", 8, 8, 0.5, &mut rng);
        let b = store.add_randn("b", 1, 8, 0.5, &mut rng);
        let run = |store: &ParamStore| {
            let mut ex = Executor::new(store);
            let mut x = ex.embedding(emb, 4, [1u32, 3, 5, 7].into_iter());
            for _ in 0..6 {
                let y = ex.linear(&x, w, b);
                let y = ex.gelu(y);
                x = ex.add(x, y);
            }
            (ex.arena.bufs.len(), ex.value(&x).to_vec())
        };
        let (pool, first) = run(&store);
        assert_eq!(pool, 2, "six layers deep, two live activations");
        let (pool_again, second) = run(&store);
        assert_eq!(pool_again, 2, "the arena came back from the first forward");
        assert_eq!(first, second);
    }

    #[test]
    fn ops_match_the_tape_bitwise() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut store = ParamStore::new();
        let emb = store.add_randn("emb", 12, 6, 0.7, &mut rng);
        let g = store.add_randn("g", 1, 6, 0.3, &mut rng);
        let be = store.add_randn("be", 1, 6, 0.3, &mut rng);
        let ws = ["wq", "wk", "wv"].map(|n| store.add_randn(n, 6, 6, 0.5, &mut rng));
        let bs = ["bq", "bk", "bv"].map(|n| store.add_randn(n, 1, 6, 0.3, &mut rng));
        let ids = [3u32, 1, 4, 1, 5, 9, 2];
        let lens = [3usize, 4];
        let mut m = vec![0.0f32; 16];
        m[1] = crate::tape::MASK_NEG;
        let mask = std::sync::Arc::new(m);

        let mut tape = Tape::inference(&store);
        let e = tape.embedding(emb, &ids);
        let n = tape.layer_norm(e, g, be);
        let qkv = tape.fused_qkv(n, ws[0], bs[0], ws[1], bs[1], ws[2], bs[2]);
        let att = tape.mha_batch_qkv(qkv, 2, &[None, Some(mask.clone())], Some(&lens));
        let res = tape.add(n, att);
        let cls = tape.row_select(res, &[0, 3]);
        let cat = tape.concat_cols(cls, cls);
        let want: &Tensor = tape.value(cat);

        let mut ex = Executor::new(&store);
        let e = ex.embedding(emb, ids.len(), ids.iter().copied());
        let n = ex.layer_norm(e, g, be);
        let qkv = ex.fused_qkv(&n, ws, bs);
        let blocks = [
            AttnBlock { len: 3, mask: None, keep: None },
            AttnBlock { len: 4, mask: Some(mask.as_slice()), keep: None },
        ];
        let att = ex.attention(qkv, 2, blocks.iter().copied());
        let res = ex.add(n, att);
        let (a, b) = (
            ex.row_select(&res, 2, [0u32, 3].into_iter()),
            ex.row_select(&res, 2, [0u32, 3].into_iter()),
        );
        let cat = ex.concat_cols(a, b);
        assert_eq!((cat.rows(), cat.cols()), want.shape());
        for (x, y) in ex.value(&cat).iter().zip(want.data()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn a_written_weight_is_never_served_from_an_old_panel() {
        let mut rng = StdRng::seed_from_u64(7);
        let x0 = Tensor::randn(7, 24, 0.5, &mut rng);
        let build = |w: &Tensor| {
            let mut store = ParamStore::new();
            let emb = store.add("emb", x0.clone());
            let w = store.add("w", w.clone());
            let b = store.add_zeros("b", 1, 40);
            (store, emb, w, b)
        };
        let forward = |store: &ParamStore, (emb, w, b): (ParamId, ParamId, ParamId)| {
            let mut ex = Executor::new(store);
            let x = ex.embedding(emb, 7, 0..7u32);
            let y = ex.linear(&x, w, b);
            ex.value(&y).iter().map(|v| v.to_bits()).collect::<Vec<u32>>()
        };
        // Whether this host's dense layers run on panels at all.
        let panels = usize::from(crate::kernels::Tier::detect() >= crate::kernels::Tier::Avx2);

        let w0 = Tensor::randn(24, 40, 0.5, &mut rng);
        let (mut store, emb, w, b) = build(&w0);
        let ids = (emb, w, b);
        assert_eq!(store.panel_stats().0, 0, "nothing is packed before a forward asks");
        let y0 = forward(&store, ids);
        assert_eq!(store.panel_stats().0, panels);

        // Through `get_mut` ...
        let mut w1 = w0.clone();
        w1.data_mut()[5] += 1.0;
        store.get_mut(w).data_mut()[5] += 1.0;
        assert_eq!(store.panel_stats(), (0, 0), "get_mut drops the panel");
        let y1 = forward(&store, ids);
        assert_ne!(y1, y0);
        assert_eq!(y1, forward(&build(&w1).0, ids), "get_mut: served from a stale panel");

        // ... and through `set_value`.
        let w2 = Tensor::randn(24, 40, 0.5, &mut rng);
        store.set_value(w, w2.clone());
        assert_eq!(store.panel_stats(), (0, 0), "set_value drops the panel");
        assert_eq!(forward(&store, ids), forward(&build(&w2).0, ids), "set_value: stale panel");

        // A clone shares no panel with its source: it starts empty and
        // packs its own.
        let twin = store.clone();
        assert_eq!(twin.panel_stats(), (0, 0));
        assert_eq!(forward(&twin, ids), forward(&store, ids));
        assert_eq!(twin.panel_stats().0, panels);

        // Two threads racing the first use build one panel and agree.
        let fresh = build(&w2).0;
        let gate = std::sync::Barrier::new(2);
        let race = || {
            gate.wait();
            (forward(&fresh, ids), fresh.panel(w) as *const _ as usize)
        };
        let (a, b) = std::thread::scope(|s| {
            let other = s.spawn(race);
            (race(), other.join().expect("racing forward"))
        });
        assert_eq!(a, b, "racing first users disagree on the panel or its product");
        assert_eq!(fresh.panel_stats().0, 1);
    }
}
