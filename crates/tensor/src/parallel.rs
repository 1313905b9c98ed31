//! Data parallelism for training and evaluation: one chunked fan-out and
//! the one mini-batch loop built on it.
//!
//! One table = one tape, so a mini-batch is embarrassingly parallel: each
//! chunk of the batch replays against the shared (read-only) [`ParamStore`],
//! accumulates into a private [`Gradients`] buffer, and the buffers are
//! merged before the optimizer step. This is the CPU stand-in for the
//! paper's single-GPU batched training. Every trainer — fine-tuning (once
//! per task), MLM pretraining and the Sherlock/Sato MLP — runs
//! [`train_epoch`], and the evaluators fan out through [`parallel_map`]:
//! a reduction order has exactly one place to change.

use crate::optim::Adam;
use crate::params::{Gradients, ParamStore};
use crate::tape::{NodeId, Tape};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Global gradient-norm clip of every optimizer step.
const CLIP_NORM: f32 = 5.0;

/// The one order-preserving fan-out: cuts `items` into contiguous chunks of
/// `items.len().div_ceil(threads)`, runs `f(offset, chunk)` on each —
/// `offset` being the chunk's start within `items` — and returns the
/// results in chunk order. The first chunk runs on the calling thread and
/// the others on scoped workers, so one chunk spawns nothing; no items
/// give no chunks.
pub fn parallel_map<T: Sync, O: Send>(
    items: &[T],
    threads: usize,
    f: impl Fn(usize, &[T]) -> O + Sync,
) -> Vec<O> {
    let chunk = items.len().div_ceil(threads.max(1)).max(1);
    let mut chunks = items.chunks(chunk).enumerate();
    let Some((_, first)) = chunks.next() else {
        return Vec::new();
    };
    let f = &f;
    std::thread::scope(|scope| {
        let workers: Vec<_> = chunks.map(|(ci, c)| scope.spawn(move || f(ci * chunk, c))).collect();
        let mut out = Vec::with_capacity(workers.len() + 1);
        out.push(f(0, first));
        out.extend(workers.into_iter().map(|w| w.join().expect("worker panicked")));
        out
    })
}

/// Summed gradients and total loss of `items`: `f` records one item's loss
/// on a fresh tape, given the item and its index within `items`.
///
/// **`threads` is part of the numerics.** Each [`parallel_map`] chunk sums
/// its items in order and the per-chunk sums are merged in chunk order, so
/// the association of the batch's gradient (and loss) sum follows the
/// chunking, which follows `threads`: the same call at another thread
/// count agrees to rounding, not to the bit (`parallel_matches_serial`
/// checks `1e-4`, by design). Fixed `threads` is deterministic run to run;
/// the trainers default it to `cores − 1`, so a trained checkpoint depends
/// on the host's core count unless the caller pins it. A reduction order
/// that is a function of `items` alone would move every pinned training
/// digest and is its own change (ROADMAP direction 5(b)).
fn accumulate_parallel<T, F>(
    store: &ParamStore,
    items: &[T],
    threads: usize,
    f: F,
) -> (Gradients, f32)
where
    T: Sync,
    F: Fn(&mut Tape, &T, usize) -> NodeId + Sync,
{
    let chunks = parallel_map(items, threads, |offset, chunk| {
        let mut grads = Gradients::new(store);
        let mut total = 0.0f32;
        for (j, item) in chunk.iter().enumerate() {
            let mut tape = Tape::new(store);
            let loss = f(&mut tape, item, offset + j);
            total += tape.value(loss).scalar_value();
            tape.backward(loss, &mut grads);
        }
        (grads, total)
    });
    // Merging into an empty buffer moves the first chunk's gradients in,
    // and `0.0 + total` is `total`: the first chunk is the sum's base.
    let mut grads = Gradients::new(store);
    let mut total = 0.0f32;
    for (g, l) in chunks {
        grads.merge(g);
        total += l;
    }
    (grads, total)
}

/// One epoch of shuffled mini-batch training, the loop every trainer runs.
///
/// Draws from `rng` in this order: a Fisher–Yates shuffle of `order` in
/// place, then one salt per batch of `batch_size` entries of `order`; item
/// `k` of a batch gets a `StdRng` seeded from the salt and `k`, which
/// `loss` uses for dropout or masking. `loss` records one item's loss on
/// a tape, given the item's index from `order`. Each batch's gradient is
/// averaged over the batch, clipped to a global norm of 5 and applied by
/// `opt`. Returns the summed loss of every item.
pub fn train_epoch<F>(
    store: &mut ParamStore,
    opt: &mut Adam,
    order: &mut [usize],
    batch_size: usize,
    threads: usize,
    rng: &mut StdRng,
    loss: F,
) -> f32
where
    F: Fn(&mut Tape, usize, &mut StdRng) -> NodeId + Sync,
{
    for i in (1..order.len()).rev() {
        let j = rng.gen_range(0..=i);
        order.swap(i, j);
    }
    let mut total = 0.0f32;
    for batch in order.chunks(batch_size) {
        let salt = rng.gen::<u64>();
        let (mut grads, batch_loss) =
            accumulate_parallel(store, batch, threads, |tape, &idx, k| {
                let mut item_rng =
                    StdRng::seed_from_u64(salt ^ (k as u64).wrapping_mul(0x9E3779B97F4A7C15));
                loss(tape, idx, &mut item_rng)
            });
        grads.scale(1.0 / batch.len() as f32);
        grads.clip_global_norm(CLIP_NORM);
        opt.step(store, &grads);
        total += batch_loss;
    }
    total
}

/// Number of worker threads to use by default: the available parallelism
/// minus one (leave a core for the coordinator), at least one.
pub fn default_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().saturating_sub(1).max(1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Tensor;

    /// To `1e-4`, not to the bit: the chunked sum associates differently
    /// from the serial one (see [`accumulate_parallel`]).
    #[test]
    fn parallel_matches_serial() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut store = ParamStore::new();
        let w = store.add_randn("w", 4, 3, 0.5, &mut rng);
        let b = store.add_zeros("b", 1, 3);
        let items: Vec<(Tensor, u32)> =
            (0..17).map(|i| (Tensor::randn(2, 4, 1.0, &mut rng), i % 3)).collect();

        let run = |threads: usize| {
            accumulate_parallel(&store, &items, threads, |tape, (x, y), _| {
                let xn = tape.input(x.clone());
                let h = tape.linear(xn, w, b);
                tape.softmax_ce(h, &[*y, *y])
            })
        };

        let (g1, l1) = run(1);
        let (g4, l4) = run(4);
        assert!((l1 - l4).abs() < 1e-4);
        for pid in [w, b] {
            let a = g1.get(pid).unwrap();
            let c = g4.get(pid).unwrap();
            for i in 0..a.len() {
                assert!((a.data()[i] - c.data()[i]).abs() < 1e-4);
            }
        }
    }

    #[test]
    fn empty_items_yield_empty_grads() {
        let store = {
            let mut s = ParamStore::new();
            s.add_zeros("w", 1, 1);
            s
        };
        let items: Vec<u32> = vec![];
        let (g, l) =
            accumulate_parallel(&store, &items, 8, |tape, _, _| tape.input(Tensor::scalar(0.0)));
        assert_eq!(l, 0.0);
        assert!(g.get(0).is_none());
    }

    #[test]
    fn parallel_map_preserves_order() {
        // More items than threads, fewer items than threads, no items.
        for (n, threads) in [(37, 8), (3, 8), (0, 4)] {
            let items: Vec<usize> = (0..n).collect();
            let chunks = parallel_map(&items, threads, |offset, chunk| {
                assert_eq!(chunk[0], offset, "offset is the chunk's start within items");
                chunk.iter().map(|x| x * 2).collect::<Vec<_>>()
            });
            assert!(chunks.len() <= threads.min(n), "{} chunks of {n} items", chunks.len());
            let doubled: Vec<usize> = items.iter().map(|x| x * 2).collect();
            assert_eq!(chunks.concat(), doubled);
        }
    }
}
