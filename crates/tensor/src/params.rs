//! Named parameter storage shared by all models.
//!
//! A [`ParamStore`] owns the learnable weights. Forward/backward passes run
//! on per-sequence [`crate::Tape`]s that borrow the store immutably, so
//! mini-batch items can be processed on worker threads; each worker collects
//! its own [`Gradients`], which are merged and applied by the optimizer.
//!
//! Beside each weight the store keeps, lazily, its packed GEMM panel
//! ([`ParamStore::panel`]): the serving executor multiplies by the same
//! constant matrices on every call, so the first product lays a weight out
//! once in the order the blocked kernel reads it and later ones borrow
//! that. A panel is derived state with one rule — writing a weight drops
//! its panel — which the borrow checker enforces, because every mutable
//! route to a value ([`ParamStore::get_mut`], [`ParamStore::set_value`])
//! takes `&mut self`. Tapes never ask for one; a trainer's store holds
//! them only between an epoch's evaluation (which runs on the executor) and
//! the next optimizer step, whose `get_mut` drops them.

use crate::kernels::PackedB;
use crate::Tensor;
use rand::Rng;
use std::sync::OnceLock;

/// Index of a parameter inside a [`ParamStore`].
pub type ParamId = usize;

/// A single named, learnable tensor.
#[derive(Clone, Debug)]
pub struct Param {
    /// Dotted path identifying the parameter (e.g. `"enc.l0.wq"`).
    pub name: String,
    /// The current weights.
    pub value: Tensor,
}

/// An append-only collection of named parameters.
#[derive(Clone, Debug, Default)]
pub struct ParamStore {
    params: Vec<Param>,
    panels: Panels,
}

/// How a freshly drawn parameter starts out.
#[derive(Clone, Copy, Debug)]
pub enum Fill {
    /// `N(0, std^2)` draws (weight matrices and embeddings).
    Randn(f32),
    /// Zeros (biases).
    Zeros,
    /// Ones (LayerNorm gains).
    Ones,
}

/// Where a model constructor takes each parameter's value from. Every
/// random source is one: it fills by [`Fill`], drawing in registration
/// order. A checkpoint's parsed weight records
/// ([`crate::serialize::Records`]) are the other: they hand each name its
/// saved value and draw nothing. Constructors register every parameter
/// through [`ParamStore::init`], so a model built from records lists the
/// same names, shapes and ids, in the same order, as one drawn fresh.
pub trait Init {
    /// The value of parameter `name`, of shape `[rows, cols]`.
    fn value(&mut self, name: &str, rows: usize, cols: usize, fill: Fill) -> Tensor;
}

impl<R: Rng + ?Sized> Init for R {
    fn value(&mut self, _name: &str, rows: usize, cols: usize, fill: Fill) -> Tensor {
        match fill {
            Fill::Randn(std) => Tensor::randn(rows, cols, std, self),
            Fill::Zeros => Tensor::zeros(rows, cols),
            Fill::Ones => Tensor::full(rows, cols, 1.0),
        }
    }
}

/// One lazily built GEMM panel per parameter id (see [`ParamStore::panel`]).
/// A derived value, not state: a cloned store starts with none and builds
/// its own.
#[derive(Debug, Default)]
struct Panels(Vec<OnceLock<PackedB>>);

impl Clone for Panels {
    fn clone(&self) -> Self {
        Panels(self.0.iter().map(|_| OnceLock::new()).collect())
    }
}

impl ParamStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a parameter and returns its id. Names must be unique; this
    /// is enforced so that save/load round-trips are unambiguous.
    pub fn add(&mut self, name: impl Into<String>, value: Tensor) -> ParamId {
        let name = name.into();
        assert!(self.params.iter().all(|p| p.name != name), "duplicate parameter name: {name}");
        self.params.push(Param { name, value });
        self.panels.0.push(OnceLock::new());
        self.params.len() - 1
    }

    /// Registers a `[rows, cols]` parameter whose value `init` provides:
    /// drawn per `fill` from a random source, or read from a checkpoint's
    /// records. What model constructors call.
    pub fn init<I: Init + ?Sized>(
        &mut self,
        name: impl Into<String>,
        rows: usize,
        cols: usize,
        fill: Fill,
        init: &mut I,
    ) -> ParamId {
        let name = name.into();
        let value = init.value(&name, rows, cols, fill);
        self.add(name, value)
    }

    /// Registers a `N(0, std^2)`-initialized matrix.
    pub fn add_randn<R: Rng + ?Sized>(
        &mut self,
        name: impl Into<String>,
        rows: usize,
        cols: usize,
        std: f32,
        rng: &mut R,
    ) -> ParamId {
        self.add(name, Tensor::randn(rows, cols, std, rng))
    }

    /// Registers a zero-initialized matrix (biases).
    pub fn add_zeros(&mut self, name: impl Into<String>, rows: usize, cols: usize) -> ParamId {
        self.add(name, Tensor::zeros(rows, cols))
    }

    /// Number of registered parameters.
    pub fn len(&self) -> usize {
        self.params.len()
    }

    /// True when no parameters are registered.
    pub fn is_empty(&self) -> bool {
        self.params.is_empty()
    }

    /// The weights of parameter `id`.
    pub fn get(&self, id: ParamId) -> &Tensor {
        &self.params[id].value
    }

    /// Mutable weights of parameter `id` (the optimizer's entry point).
    /// Drops `id`'s panel: whatever is written, no product sees the old one.
    pub fn get_mut(&mut self, id: ParamId) -> &mut Tensor {
        self.panels.0[id].take();
        &mut self.params[id].value
    }

    /// Parameter `id` (a `[k, n]` dense weight) as the packed B panel of
    /// the blocked GEMM, built on first use — concurrent first users build
    /// one — and kept until `id` is next written. [`ParamStore::get_mut`]
    /// and [`ParamStore::set_value`] are the only mutable routes to a
    /// value and both take `&mut self`, which no outstanding `&PackedB`
    /// survives: a panel of weights since overwritten cannot be observed.
    /// Only [`crate::Executor`]'s dense layers ask; a store that only ever
    /// records tapes, or serves through int8 layers, never holds one.
    pub fn panel(&self, id: ParamId) -> &PackedB {
        self.panels.0[id].get_or_init(|| PackedB::pack(&self.params[id].value))
    }

    /// `(panels currently built, their bytes)` — what the f32 serving path
    /// added to this store's footprint.
    pub fn panel_stats(&self) -> (usize, usize) {
        let built = self.panels.0.iter().filter_map(OnceLock::get);
        built.fold((0, 0), |(n, bytes), p| (n + 1, bytes + p.bytes()))
    }

    /// The name parameter `id` was registered under.
    pub fn name(&self, id: ParamId) -> &str {
        &self.params[id].name
    }

    /// Looks a parameter up by name (the pretrain → fine-tune handoff
    /// takes encoder values from the pretrained LM this way).
    pub fn find(&self, name: &str) -> Option<ParamId> {
        self.params.iter().position(|p| p.name == name)
    }

    /// Iterates over `(id, parameter)` pairs in registration order.
    pub fn iter(&self) -> impl Iterator<Item = (ParamId, &Param)> {
        self.params.iter().enumerate()
    }

    /// Overwrites the value of `id`. Shape must match (protects optimizer
    /// state alignment).
    pub fn set_value(&mut self, id: ParamId, value: Tensor) {
        assert_eq!(
            self.params[id].value.shape(),
            value.shape(),
            "set_value shape mismatch for {}",
            self.params[id].name
        );
        self.panels.0[id].take();
        self.params[id].value = value;
    }
}

/// Per-parameter gradient accumulator, aligned with a [`ParamStore`].
///
/// Entries stay `None` until the parameter receives its first contribution,
/// so sparse updates (e.g. embedding rows) do not pay for dense zero-init of
/// untouched parameters.
#[derive(Clone, Debug)]
pub struct Gradients {
    slots: Vec<Option<Tensor>>,
}

impl Gradients {
    /// Creates an empty accumulator sized for `store`.
    pub fn new(store: &ParamStore) -> Self {
        Gradients { slots: vec![None; store.len()] }
    }

    /// Number of gradient slots (one per store parameter).
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when the buffer tracks no parameters.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// The accumulated gradient of parameter `id`, if any flowed into it.
    pub fn get(&self, id: ParamId) -> Option<&Tensor> {
        self.slots[id].as_ref()
    }

    /// Adds `g` into the slot for `id`.
    pub fn accumulate(&mut self, id: ParamId, g: &Tensor, store: &ParamStore) {
        match &mut self.slots[id] {
            Some(t) => t.add_assign(g),
            slot => {
                let shape = store.get(id).shape();
                assert_eq!(g.shape(), shape, "gradient shape mismatch for {}", store.name(id));
                *slot = Some(g.clone());
            }
        }
    }

    /// Adds row `r` of `g` into row `rows[r]` of the slot for `id` — the
    /// gradient of a row gather (an embedding lookup) without the dense
    /// `[vocab, d]` matrix of mostly zeros: rows of `g` that hit the same
    /// target are summed first, in row order from `+0.0`, and the sum is
    /// added into the slot, so each touched element sees the additions the
    /// dense detour made (`slot + ((0 + g_a) + g_b)`) and an untouched one
    /// sees none.
    pub fn accumulate_rows(&mut self, id: ParamId, rows: &[u32], g: &Tensor, store: &ParamStore) {
        let shape = store.get(id).shape();
        assert_eq!(g.shape(), (rows.len(), shape.1), "row gradient shape for {}", store.name(id));
        let slot = self.slots[id].get_or_insert_with(|| Tensor::zeros(shape.0, shape.1));
        // Stable by target: equal targets keep their rows of `g` in order.
        let mut order: Vec<usize> = (0..rows.len()).collect();
        order.sort_by_key(|&r| rows[r]);
        let mut sum = vec![0.0f32; shape.1];
        for same in order.chunk_by(|&a, &b| rows[a] == rows[b]) {
            sum.fill(0.0);
            for &r in same {
                sum.iter_mut().zip(g.row(r)).for_each(|(s, &gv)| *s += gv);
            }
            let target = slot.row_mut(rows[same[0]] as usize);
            target.iter_mut().zip(&sum).for_each(|(o, &s)| *o += s);
        }
    }

    /// Merges another accumulator (e.g. from a worker thread) into this one.
    pub fn merge(&mut self, other: Gradients) {
        assert_eq!(self.slots.len(), other.slots.len(), "merging misaligned gradients");
        for (mine, theirs) in self.slots.iter_mut().zip(other.slots) {
            match (mine.as_mut(), theirs) {
                (Some(a), Some(b)) => a.add_assign(&b),
                (None, Some(b)) => *mine = Some(b),
                _ => {}
            }
        }
    }

    /// Scales every accumulated gradient (mini-batch averaging).
    pub fn scale(&mut self, c: f32) {
        for slot in self.slots.iter_mut().flatten() {
            slot.scale_assign(c);
        }
    }

    /// Global L2 norm across all accumulated gradients.
    pub fn global_norm(&self) -> f32 {
        self.slots.iter().flatten().map(Tensor::sq_norm).sum::<f32>().sqrt()
    }

    /// Clips gradients so the global norm does not exceed `max_norm`.
    /// Returns the pre-clip norm.
    pub fn clip_global_norm(&mut self, max_norm: f32) -> f32 {
        let norm = self.global_norm();
        if norm > max_norm && norm > 0.0 {
            self.scale(max_norm / norm);
        }
        norm
    }

    /// Clears all accumulated gradients: every slot goes back to `None` and
    /// its buffer is dropped (the next contribution allocates afresh).
    pub fn zero(&mut self) {
        for slot in self.slots.iter_mut() {
            *slot = None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn add_and_lookup() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut store = ParamStore::new();
        let w = store.add_randn("enc.w", 3, 4, 0.02, &mut rng);
        let b = store.add_zeros("enc.b", 1, 4);
        assert_eq!(store.len(), 2);
        assert_eq!(store.name(w), "enc.w");
        assert_eq!(store.find("enc.b"), Some(b));
        assert_eq!(store.find("missing"), None);
    }

    #[test]
    #[should_panic(expected = "duplicate parameter name")]
    fn duplicate_name_panics() {
        let mut store = ParamStore::new();
        store.add_zeros("w", 1, 1);
        store.add_zeros("w", 1, 1);
    }

    #[test]
    fn gradient_accumulate_merge_scale() {
        let mut store = ParamStore::new();
        let a = store.add_zeros("a", 1, 2);
        let b = store.add_zeros("b", 1, 2);

        let mut g1 = Gradients::new(&store);
        g1.accumulate(a, &Tensor::row_vector(vec![1.0, 2.0]), &store);

        let mut g2 = Gradients::new(&store);
        g2.accumulate(a, &Tensor::row_vector(vec![3.0, 4.0]), &store);
        g2.accumulate(b, &Tensor::row_vector(vec![5.0, 6.0]), &store);

        g1.merge(g2);
        assert_eq!(g1.get(a).unwrap().data(), &[4.0, 6.0]);
        assert_eq!(g1.get(b).unwrap().data(), &[5.0, 6.0]);

        g1.scale(0.5);
        assert_eq!(g1.get(a).unwrap().data(), &[2.0, 3.0]);

        g1.zero();
        assert!(g1.get(a).is_none());
    }

    #[test]
    fn clip_global_norm_caps_at_max() {
        let mut store = ParamStore::new();
        let a = store.add_zeros("a", 1, 2);
        let mut g = Gradients::new(&store);
        g.accumulate(a, &Tensor::row_vector(vec![3.0, 4.0]), &store);
        let pre = g.clip_global_norm(1.0);
        assert!((pre - 5.0).abs() < 1e-6);
        assert!((g.global_norm() - 1.0).abs() < 1e-5);
        // Clipping below the max leaves gradients untouched.
        let pre2 = g.clip_global_norm(10.0);
        assert!((pre2 - 1.0).abs() < 1e-5);
    }
}
