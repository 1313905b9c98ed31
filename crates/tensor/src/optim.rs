//! Adam optimizer and learning-rate schedules.
//!
//! The paper fine-tunes with Adam (ε = 1e-8) under a linear-decay schedule
//! with no warm-up (§5.3); Algorithm 1 keeps *one optimizer per task*, which
//! is why [`Adam`] is a standalone object over a shared [`ParamStore`]
//! rather than being owned by the model.

use crate::params::{Gradients, ParamStore};
use crate::Tensor;

/// Learning-rate schedule evaluated per optimizer step.
#[derive(Clone, Debug)]
pub enum LrSchedule {
    /// Constant learning rate.
    Constant(f32),
    /// Linear decay from `lr0` to 0 over `total_steps` (BERT fine-tuning
    /// default, no warm-up).
    LinearDecay {
        /// Initial learning rate.
        lr0: f32,
        /// Step count after which the rate reaches 0.
        total_steps: usize,
    },
}

impl LrSchedule {
    /// Learning rate at 0-based step `t`.
    pub fn at(&self, t: usize) -> f32 {
        match *self {
            LrSchedule::Constant(lr) => lr,
            LrSchedule::LinearDecay { lr0, total_steps } => {
                if total_steps == 0 {
                    return lr0;
                }
                let frac = 1.0 - (t.min(total_steps) as f32 / total_steps as f32);
                lr0 * frac
            }
        }
    }
}

/// Adam as §5.3 runs it (no weight decay).
#[derive(Clone, Debug)]
pub struct Adam {
    beta1: f32,
    beta2: f32,
    eps: f32,
    schedule: LrSchedule,
    /// First/second moment estimates, lazily sized like the parameters.
    m: Vec<Option<Tensor>>,
    v: Vec<Option<Tensor>>,
    t: usize,
}

impl Adam {
    /// Standard constructor: β1 = 0.9, β2 = 0.999, ε = 1e-8 (as in §5.3).
    pub fn new(store: &ParamStore, schedule: LrSchedule) -> Self {
        Adam {
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            schedule,
            m: vec![None; store.len()],
            v: vec![None; store.len()],
            t: 0,
        }
    }

    /// Number of steps taken so far.
    pub fn steps(&self) -> usize {
        self.t
    }

    /// Applies one Adam step using the accumulated `grads`.
    /// Parameters without gradients are left untouched (their moments do not
    /// advance either, matching lazy/sparse semantics).
    pub fn step(&mut self, store: &mut ParamStore, grads: &Gradients) {
        assert_eq!(grads.len(), store.len(), "gradients misaligned with store");
        // Moment buffers are extended lazily if the store grew after
        // construction (e.g. a fine-tuning head added to a pretrained LM).
        if self.m.len() < store.len() {
            self.m.resize(store.len(), None);
            self.v.resize(store.len(), None);
        }
        let lr = self.schedule.at(self.t);
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        for pid in 0..store.len() {
            let Some(g) = grads.get(pid) else { continue };
            let shape = store.get(pid).shape();
            let m = self.m[pid].get_or_insert_with(|| Tensor::zeros(shape.0, shape.1));
            let v = self.v[pid].get_or_insert_with(|| Tensor::zeros(shape.0, shape.1));
            let p = store.get_mut(pid);
            assert_eq!(g.len(), p.len(), "gradient misaligned with {pid}");
            let (beta1, beta2, eps) = (self.beta1, self.beta2, self.eps);
            // Four zipped slices: no index is bounds-checked, and every
            // operation is exact per lane (IEEE `sqrt` and `/` included), so
            // whatever width this vectorises to, no bit depends on it.
            let state = m.data_mut().iter_mut().zip(v.data_mut());
            for ((pi, (mi, vi)), &gi) in p.data_mut().iter_mut().zip(state).zip(g.data()) {
                *mi = beta1 * *mi + (1.0 - beta1) * gi;
                *vi = beta2 * *vi + (1.0 - beta2) * gi * gi;
                let mhat = *mi / bc1;
                let vhat = *vi / bc2;
                *pi -= lr * mhat / (vhat.sqrt() + eps);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tape::Tape;
    use crate::Tensor;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn linear_decay_hits_zero() {
        let s = LrSchedule::LinearDecay { lr0: 1.0, total_steps: 10 };
        assert!((s.at(0) - 1.0).abs() < 1e-6);
        assert!((s.at(5) - 0.5).abs() < 1e-6);
        assert!(s.at(10) < 1e-6);
        assert!(s.at(999) < 1e-6, "clamps past the horizon");
    }

    #[test]
    fn adam_minimizes_a_quadratic() {
        // minimize ||w - target||^2 expressed through the tape as BCE-free
        // plain ops: loss = sum((w - t)^2) via mul.
        let mut store = ParamStore::new();
        let w = store.add("w", Tensor::row_vector(vec![5.0, -3.0, 2.0]));
        let target = [1.0f32, 2.0, -1.0];
        let mut opt = Adam::new(&store, LrSchedule::Constant(0.05));
        for _ in 0..800 {
            let mut grads = Gradients::new(&store);
            // d/dw sum((w-t)^2) = 2 (w - t)
            let diff: Vec<f32> =
                store.get(w).data().iter().zip(target.iter()).map(|(a, b)| 2.0 * (a - b)).collect();
            grads.accumulate(w, &Tensor::row_vector(diff), &store);
            opt.step(&mut store, &grads);
        }
        for (a, b) in store.get(w).data().iter().zip(target.iter()) {
            assert!((a - b).abs() < 1e-2, "{a} vs {b}");
        }
    }

    #[test]
    fn adam_trains_a_tiny_classifier() {
        // Two linearly separable blobs must reach ~zero loss quickly.
        let mut rng = StdRng::seed_from_u64(11);
        let mut store = ParamStore::new();
        let w = store.add_randn("w", 2, 2, 0.1, &mut rng);
        let b = store.add_zeros("b", 1, 2);
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for i in 0..40 {
            let cls = i % 2;
            let cx = if cls == 0 { -2.0 } else { 2.0 };
            xs.push(Tensor::row_vector(vec![
                cx + rng.gen_range(-0.5..0.5),
                rng.gen_range(-0.5..0.5),
            ]));
            ys.push(cls as u32);
        }
        let mut opt = Adam::new(&store, LrSchedule::Constant(0.05));
        let mut last = f32::INFINITY;
        for _ in 0..60 {
            let mut grads = Gradients::new(&store);
            let mut total = 0.0;
            for (x, y) in xs.iter().zip(ys.iter()) {
                let mut tape = Tape::inference(&store);
                let xn = tape.input(x.clone());
                let h = tape.linear(xn, w, b);
                let l = tape.softmax_ce(h, &[*y]);
                total += tape.value(l).scalar_value();
                tape.backward(l, &mut grads);
            }
            grads.scale(1.0 / xs.len() as f32);
            opt.step(&mut store, &grads);
            last = total / xs.len() as f32;
        }
        assert!(last < 0.1, "classifier failed to fit: loss {last}");
        use rand::Rng;
    }

    #[test]
    fn constant_schedule_never_decays() {
        let s = LrSchedule::Constant(0.3);
        assert_eq!(s.at(0), 0.3);
        assert_eq!(s.at(1_000_000), 0.3);
        // Degenerate linear decay with zero horizon stays at lr0.
        let z = LrSchedule::LinearDecay { lr0: 0.5, total_steps: 0 };
        assert_eq!(z.at(10), 0.5);
    }

    #[test]
    fn params_without_grads_are_untouched() {
        let mut store = ParamStore::new();
        let a = store.add("a", Tensor::scalar(1.5));
        let b = store.add("b", Tensor::scalar(-2.5));
        let mut opt = Adam::new(&store, LrSchedule::Constant(0.1));
        let mut g = Gradients::new(&store);
        g.accumulate(a, &Tensor::scalar(1.0), &store);
        opt.step(&mut store, &g);
        assert!(store.get(a).scalar_value() < 1.5);
        assert_eq!(store.get(b).scalar_value(), -2.5, "no gradient, no update");
    }

    #[test]
    fn lazy_moments_extend_when_store_grows() {
        let mut store = ParamStore::new();
        let a = store.add("a", Tensor::scalar(1.0));
        let mut opt = Adam::new(&store, LrSchedule::Constant(0.1));
        let mut g = Gradients::new(&store);
        g.accumulate(a, &Tensor::scalar(1.0), &store);
        opt.step(&mut store, &g);
        // Grow the store (fine-tuning head) and keep stepping.
        let b = store.add("b", Tensor::scalar(2.0));
        let mut g2 = Gradients::new(&store);
        g2.accumulate(b, &Tensor::scalar(1.0), &store);
        opt.step(&mut store, &g2);
        assert!(store.get(b).scalar_value() < 2.0);
    }
}
