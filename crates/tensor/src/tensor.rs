//! Dense, row-major, 2-D `f32` tensor.
//!
//! Everything in this reproduction is expressed over 2-D matrices: a token
//! sequence of length `S` embedded in `d` dimensions is `[S, d]`, a weight
//! matrix is `[in, out]`, a scalar loss is `[1, 1]`. Avoiding general N-d
//! shapes keeps the autograd kernels simple and fast. A `Tensor` is only
//! the container: every product of two of them runs in [`crate::kernels`],
//! over [`crate::kernels::View`]s of their buffers.

use rand::Rng;

/// A dense row-major matrix of `f32` values.
#[derive(Clone, Debug, PartialEq)]
pub struct Tensor {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Tensor {
    /// Creates a tensor of the given shape filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Tensor { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Creates a tensor of the given shape filled with `value`.
    pub fn full(rows: usize, cols: usize, value: f32) -> Self {
        Tensor { rows, cols, data: vec![value; rows * cols] }
    }

    /// Wraps an existing buffer. Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "tensor buffer does not match shape {rows}x{cols}");
        Tensor { rows, cols, data }
    }

    /// A `[1, n]` row vector.
    pub fn row_vector(data: Vec<f32>) -> Self {
        let n = data.len();
        Tensor::from_vec(1, n, data)
    }

    /// A `[1, 1]` scalar tensor.
    pub fn scalar(v: f32) -> Self {
        Tensor::from_vec(1, 1, vec![v])
    }

    /// Fills with samples from `N(0, std^2)` (Box-Muller over the given RNG).
    pub fn randn<R: Rng + ?Sized>(rows: usize, cols: usize, std: f32, rng: &mut R) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for _ in 0..rows * cols {
            // Box-Muller transform; avoids a dependency on rand_distr.
            let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
            let u2: f32 = rng.gen_range(0.0..1.0);
            let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos();
            data.push(z * std);
        }
        Tensor { rows, cols, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the tensor has no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Borrow of the whole row-major buffer.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable borrow of the whole row-major buffer.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor, returning its buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Element accessor (row-major). Panics on out-of-range in debug builds.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Element setter (row-major). Panics on out-of-range in debug builds.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// Borrow of row `r` as a slice of length `cols`.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable borrow of row `r` as a slice of length `cols`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// The single value of a `[1, 1]` tensor.
    pub fn scalar_value(&self) -> f32 {
        assert_eq!(self.data.len(), 1, "scalar_value on non-scalar tensor");
        self.data[0]
    }

    /// `self += other` (shapes must match).
    pub fn add_assign(&mut self, other: &Tensor) {
        assert_eq!(self.shape(), other.shape(), "add_assign shape mismatch");
        for (a, b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += b;
        }
    }

    /// In-place multiply by a constant.
    pub fn scale_assign(&mut self, c: f32) {
        for a in self.data.iter_mut() {
            *a *= c;
        }
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Sum of squared elements (used for gradient-norm clipping).
    pub fn sq_norm(&self) -> f32 {
        self.data.iter().map(|v| v * v).sum()
    }

    /// Frobenius/L2 norm.
    pub fn norm(&self) -> f32 {
        self.sq_norm().sqrt()
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Tensor {
        let mut out = Tensor::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        out
    }

    /// Returns `true` if any element is NaN or infinite: its exponent field
    /// is all ones. The scan ORs that test over every element instead of
    /// stopping at the first hit, which the compiler vectorizes — about a
    /// third of the early-exit loop's cost on the finite weights a
    /// checkpoint load checks, where there is no hit to stop at.
    pub fn has_non_finite(&self) -> bool {
        const EXP: u32 = 0x7F80_0000;
        self.data.iter().fold(false, |any, v| any | (v.to_bits() & EXP == EXP))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn t(rows: usize, cols: usize, v: &[f32]) -> Tensor {
        Tensor::from_vec(rows, cols, v.to_vec())
    }

    #[test]
    fn transpose_involution() {
        let mut rng = StdRng::seed_from_u64(2);
        let a = Tensor::randn(3, 7, 1.0, &mut rng);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn norm_is_the_l2_norm() {
        assert!((t(1, 2, &[3.0, 4.0]).norm() - 5.0).abs() < 1e-6);
    }

    #[test]
    fn non_finite_scan_matches_the_early_exit_definition() {
        let oracle = |v: &[f32]| v.iter().any(|v| !v.is_finite());
        let check = |v: Vec<f32>| {
            let want = oracle(&v);
            assert_eq!(Tensor::from_vec(1, v.len(), v.clone()).has_non_finite(), want, "{v:?}");
        };
        let finite = [-0.0, 0.0, f32::MIN_POSITIVE / 2.0, -1e-45, f32::MAX, f32::MIN, 1.5];
        for len in 0..=40 {
            let base: Vec<f32> = (0..len).map(|i| finite[i % finite.len()]).collect();
            check(base.clone());
            for bad in [f32::NAN, -f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
                for at in 0..len {
                    let mut v = base.clone();
                    v[at] = bad;
                    check(v);
                }
            }
        }
    }

    #[test]
    fn randn_is_roughly_centered() {
        let mut rng = StdRng::seed_from_u64(3);
        let x = Tensor::randn(100, 100, 0.5, &mut rng);
        let mean = x.sum() / x.len() as f32;
        assert!(mean.abs() < 0.02, "mean {mean}");
        let var = x.data().iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / x.len() as f32;
        assert!((var.sqrt() - 0.5).abs() < 0.02, "std {}", var.sqrt());
    }
}
