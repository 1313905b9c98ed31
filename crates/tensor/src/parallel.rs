//! Data-parallel gradient accumulation.
//!
//! One table = one tape, so a mini-batch is embarrassingly parallel: each
//! worker thread replays its share of the batch against the shared
//! (read-only) [`ParamStore`], accumulates into a private [`Gradients`]
//! buffer, and the buffers are merged before the optimizer step. This is the
//! CPU stand-in for the paper's single-GPU batched training.

use crate::params::{Gradients, ParamStore};
use crate::tape::{NodeId, Tape};

/// Computes summed gradients and total loss for `items`, splitting work
/// across up to `threads` OS threads.
///
/// `f` builds the forward graph for one item on the given tape and returns
/// the scalar loss node; it receives the item's index within `items` so
/// callers can derive deterministic per-item RNG seeds.
///
/// Returns `(gradients, total_loss)`; divide both by `items.len()` for
/// mini-batch means (use [`Gradients::scale`]).
///
/// **`threads` is part of the numerics.** Each worker sums its contiguous
/// chunk of `items` in order and the per-chunk sums are merged in chunk
/// order, so the association of the batch's gradient (and loss) sum follows
/// the chunking, which follows `threads`: the same call at another thread
/// count agrees to rounding, not to the bit (`parallel_matches_serial`
/// checks `1e-4`, by design). Fixed `threads` is deterministic run to run;
/// the trainers default it to `cores − 1`, so a trained checkpoint depends
/// on the host's core count unless the caller pins it. A reduction order
/// that is a function of `items` alone would move every pinned training
/// digest and is its own change (ROADMAP aim 3).
pub fn accumulate_parallel<T, F>(
    store: &ParamStore,
    items: &[T],
    threads: usize,
    f: F,
) -> (Gradients, f32)
where
    T: Sync,
    F: Fn(&mut Tape, &T, usize) -> NodeId + Sync,
{
    let threads = threads.max(1).min(items.len().max(1));
    if threads <= 1 {
        let mut grads = Gradients::new(store);
        let mut total = 0.0f32;
        for (i, item) in items.iter().enumerate() {
            let mut tape = Tape::new(store);
            let loss = f(&mut tape, item, i);
            total += tape.value(loss).scalar_value();
            tape.backward(loss, &mut grads);
        }
        return (grads, total);
    }

    let chunk = items.len().div_ceil(threads);
    let results: Vec<(Gradients, f32)> = std::thread::scope(|scope| {
        let handles: Vec<_> = items
            .chunks(chunk)
            .enumerate()
            .map(|(ci, chunk_items)| {
                let f = &f;
                scope.spawn(move || {
                    let mut grads = Gradients::new(store);
                    let mut total = 0.0f32;
                    for (j, item) in chunk_items.iter().enumerate() {
                        let mut tape = Tape::new(store);
                        let loss = f(&mut tape, item, ci * chunk + j);
                        total += tape.value(loss).scalar_value();
                        tape.backward(loss, &mut grads);
                    }
                    (grads, total)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("worker panicked")).collect()
    });

    let mut iter = results.into_iter();
    let (mut grads, mut total) = iter.next().expect("at least one worker");
    for (g, l) in iter {
        grads.merge(g);
        total += l;
    }
    (grads, total)
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
    use rand::rngs::StdRng;
    use rand::SeedableRng;

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
}
