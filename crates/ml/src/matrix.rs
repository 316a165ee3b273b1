//! Minimal dense-matrix and vector kernels.
//!
//! The iBoxML models are small (the paper's largest is a 4-layer LSTM with
//! ≈2M parameters) and run with batch size 1 along a packet sequence, so
//! activations are plain `Vec<f32>` and weights are row-major [`Mat`]s with
//! exactly the three kernels backpropagation needs: `W·v`, `Wᵀ·u`, and the
//! rank-1 accumulation `G += u ⊗ v`.
//!
//! Every kernel writes into a caller-owned buffer and never allocates.
//!
//! ## Canonical summation order
//!
//! Every row dot product runs through [`dot4`]: four fixed lanes over
//! `chunks_exact(4)` combined as `(l0 + l1) + (l2 + l3)`, then the scalar
//! remainder. This is the one summation order used everywhere — forward,
//! backward, and the bench reference — so results are reproducible
//! bit-for-bit across runs and `--jobs` settings.

use serde::{Deserialize, Serialize};

/// Dot product with the canonical 4-lane summation order.
///
/// Four independent accumulators over the `chunks_exact(4)` body (letting
/// the compiler vectorize without reassociating), combined as
/// `(l0 + l1) + (l2 + l3)`, followed by the in-order remainder. The order
/// is fixed: every caller — and the naive reference in the perf bench —
/// observes the same floating-point result for the same inputs.
#[inline]
pub fn dot4(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let mut lanes = [0.0f32; 4];
    let ca = a.chunks_exact(4);
    let cb = b.chunks_exact(4);
    let (ra, rb) = (ca.remainder(), cb.remainder());
    for (x, y) in ca.zip(cb) {
        lanes[0] += x[0] * y[0];
        lanes[1] += x[1] * y[1];
        lanes[2] += x[2] * y[2];
        lanes[3] += x[3] * y[3];
    }
    let mut acc = (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
    for (x, y) in ra.iter().zip(rb) {
        acc += x * y;
    }
    acc
}

/// A row-major dense matrix of `f32`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Mat {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

/// The empty `0×0` matrix — exists so `#[serde(skip)]` gradient fields
/// deserialize; `zero_grad` re-shapes it on first use after loading.
impl Default for Mat {
    fn default() -> Self {
        Self { rows: 0, cols: 0, data: Vec::new() }
    }
}

impl Mat {
    /// An all-zeros matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be positive");
        Self { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Build from a row-major data vector.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "data length mismatch");
        Self { rows, cols, data }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the matrix has zero elements (only true for
    /// [`Mat::default`], the deserialization placeholder).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Element access.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Element mutation.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// Raw data (row-major).
    #[inline]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable raw data (row-major).
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// `y = W · v`, written into a caller-owned buffer (no allocation).
    pub fn matvec_into(&self, v: &[f32], y: &mut [f32]) {
        assert_eq!(v.len(), self.cols, "matvec dimension mismatch");
        assert_eq!(y.len(), self.rows, "matvec output length mismatch");
        for (row, yr) in self.data.chunks_exact(self.cols).zip(y.iter_mut()) {
            *yr = dot4(row, v);
        }
    }

    /// `y += W · v` — fused accumulate variant of [`Mat::matvec_into`].
    pub fn matvec_acc(&self, v: &[f32], y: &mut [f32]) {
        assert_eq!(v.len(), self.cols, "matvec dimension mismatch");
        assert_eq!(y.len(), self.rows, "matvec output length mismatch");
        for (row, yr) in self.data.chunks_exact(self.cols).zip(y.iter_mut()) {
            *yr += dot4(row, v);
        }
    }

    /// `ys[s] = W · xs[s]` for every active stream `s` — the batched
    /// counterpart of [`Mat::matvec_into`].
    ///
    /// `xs` is a `[n_streams × cols]` plane and `ys` a `[n_streams × rows]`
    /// plane, both row-major by stream; streams with `active[s] == false`
    /// are skipped and their output rows left untouched. Weight rows are
    /// the outer loop so each row is streamed once across all active
    /// states. Every output element is one [`dot4`] over the same operands
    /// as the single-stream kernel, so results are bitwise identical to N
    /// independent `matvec_into` calls regardless of stream count or mask.
    pub fn matmul_into(&self, xs: &[f32], ys: &mut [f32], active: &[bool]) {
        let n = active.len();
        assert_eq!(xs.len(), n * self.cols, "matmul input plane mismatch");
        assert_eq!(ys.len(), n * self.rows, "matmul output plane mismatch");
        for (r, row) in self.data.chunks_exact(self.cols).enumerate() {
            for s in 0..n {
                if active[s] {
                    ys[s * self.rows + r] = dot4(row, &xs[s * self.cols..(s + 1) * self.cols]);
                }
            }
        }
    }

    /// `ys[s] += W · xs[s]` — fused accumulate variant of
    /// [`Mat::matmul_into`], the batched [`Mat::matvec_acc`].
    pub fn matmul_acc(&self, xs: &[f32], ys: &mut [f32], active: &[bool]) {
        let n = active.len();
        assert_eq!(xs.len(), n * self.cols, "matmul input plane mismatch");
        assert_eq!(ys.len(), n * self.rows, "matmul output plane mismatch");
        for (r, row) in self.data.chunks_exact(self.cols).enumerate() {
            for s in 0..n {
                if active[s] {
                    ys[s * self.rows + r] += dot4(row, &xs[s * self.cols..(s + 1) * self.cols]);
                }
            }
        }
    }

    /// `y = Wᵀ · u`, written into a caller-owned buffer (no allocation).
    ///
    /// The inner axpy is branchless: gradients are almost never exactly
    /// zero, so skipping on `ur == 0.0` only defeated vectorization.
    pub fn matvec_t_into(&self, u: &[f32], y: &mut [f32]) {
        assert_eq!(u.len(), self.rows, "matvec_t dimension mismatch");
        assert_eq!(y.len(), self.cols, "matvec_t output length mismatch");
        y.fill(0.0);
        for (row, &ur) in self.data.chunks_exact(self.cols).zip(u) {
            for (yc, &w) in y.iter_mut().zip(row) {
                *yc += ur * w;
            }
        }
    }

    /// `self += scale · (u ⊗ v)` — rank-1 update, the gradient kernel.
    /// Branchless for the same reason as [`Mat::matvec_t_into`].
    pub fn add_outer(&mut self, u: &[f32], v: &[f32], scale: f32) {
        assert_eq!(u.len(), self.rows, "outer rows mismatch");
        assert_eq!(v.len(), self.cols, "outer cols mismatch");
        for (row, &ur) in self.data.chunks_exact_mut(self.cols).zip(u) {
            let s = scale * ur;
            for (w, &vc) in row.iter_mut().zip(v) {
                *w += s * vc;
            }
        }
    }

    /// Set every element to zero (gradient reset).
    pub fn fill_zero(&mut self) {
        self.data.fill(0.0);
    }

    /// Sum of squared elements (for global-norm clipping).
    pub fn sq_norm(&self) -> f64 {
        self.data.iter().map(|x| f64::from(*x) * f64::from(*x)).sum()
    }

    /// Scale all elements in place.
    pub fn scale(&mut self, k: f32) {
        for x in &mut self.data {
            *x *= k;
        }
    }
}

/// Elementwise vector helpers used by the layers.
pub mod vecops {
    /// `a += b`.
    pub fn add_assign(a: &mut [f32], b: &[f32]) {
        debug_assert_eq!(a.len(), b.len());
        for (x, y) in a.iter_mut().zip(b) {
            *x += y;
        }
    }

    /// Elementwise sigmoid.
    pub fn sigmoid(x: f32) -> f32 {
        1.0 / (1.0 + (-x).exp())
    }

    /// Numerically-stable softplus `ln(1 + eˣ)`.
    pub fn softplus(x: f32) -> f32 {
        if x > 20.0 {
            x
        } else if x < -20.0 {
            x.exp()
        } else {
            x.exp().ln_1p()
        }
    }

    /// Sum of squares of a slice.
    pub fn sq_norm(v: &[f32]) -> f64 {
        v.iter().map(|x| f64::from(*x) * f64::from(*x)).sum()
    }

    /// Clear and refill `dst` from `src`, reusing `dst`'s capacity.
    #[inline]
    pub fn copy_into(dst: &mut Vec<f32>, src: &[f32]) {
        dst.clear();
        dst.extend_from_slice(src);
    }

    /// Resize `dst` to `len` and zero it, reusing capacity.
    #[inline]
    pub fn reset(dst: &mut Vec<f32>, len: usize) {
        dst.clear();
        dst.resize(len, 0.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matvec_known_values() {
        let w = Mat::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let mut y = [f32::NAN; 2];
        w.matvec_into(&[1.0, 0.0, -1.0], &mut y);
        assert_eq!(y, [-2.0, -2.0]);
    }

    #[test]
    fn matvec_t_is_transpose() {
        let w = Mat::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let mut y = [f32::NAN; 3];
        w.matvec_t_into(&[1.0, 1.0], &mut y);
        assert_eq!(y, [5.0, 7.0, 9.0]);
    }

    #[test]
    fn dot4_covers_remainder_lanes() {
        // Lengths 1..=9 hit every chunks_exact(4) remainder size.
        for n in 1..=9usize {
            let a: Vec<f32> = (0..n).map(|i| i as f32 + 1.0).collect();
            let b: Vec<f32> = (0..n).map(|i| 2.0 * i as f32 - 3.0).collect();
            let expect: f64 = a.iter().zip(&b).map(|(x, y)| f64::from(*x) * f64::from(*y)).sum();
            assert!((f64::from(dot4(&a, &b)) - expect).abs() < 1e-4, "n={n}");
        }
    }

    #[test]
    fn matvec_acc_adds_onto_the_buffer() {
        let w = Mat::from_vec(2, 5, (0..10).map(|i| i as f32 * 0.37 - 1.0).collect());
        let v = [0.5, -1.5, 2.0, 0.25, -0.75];
        let mut y = [0.0f32; 2];
        w.matvec_into(&v, &mut y);
        let mut acc = y;
        w.matvec_acc(&v, &mut acc);
        assert_eq!(acc, [y[0] + y[0], y[1] + y[1]]);
    }

    #[test]
    fn matmul_matches_per_stream_matvec_bitwise() {
        let w = Mat::from_vec(3, 5, (0..15).map(|i| (i as f32).sin()).collect());
        let n = 4;
        let xs: Vec<f32> = (0..n * 5).map(|i| (i as f32 * 0.7).cos()).collect();
        let active = [true, false, true, true];
        let mut ys = vec![f32::NAN; n * 3];
        w.matmul_into(&xs, &mut ys, &active);
        for s in 0..n {
            if active[s] {
                let mut y = [0.0f32; 3];
                w.matvec_into(&xs[s * 5..(s + 1) * 5], &mut y);
                assert_eq!(&ys[s * 3..(s + 1) * 3], &y, "stream {s}");
            } else {
                assert!(ys[s * 3..(s + 1) * 3].iter().all(|v| v.is_nan()), "inactive touched");
            }
        }
        // The accumulate variant matches matvec_acc bitwise too.
        let mut acc = vec![0.25f32; n * 3];
        w.matmul_acc(&xs, &mut acc, &active);
        for s in 0..n {
            let mut y = [0.25f32; 3];
            if active[s] {
                w.matvec_acc(&xs[s * 5..(s + 1) * 5], &mut y);
            }
            assert_eq!(&acc[s * 3..(s + 1) * 3], &y, "acc stream {s}");
        }
    }

    #[test]
    #[should_panic(expected = "matmul input plane mismatch")]
    fn matmul_plane_mismatch_panics() {
        let w = Mat::zeros(2, 3);
        let mut ys = [0.0f32; 4];
        w.matmul_into(&[0.0; 5], &mut ys, &[true, true]);
    }

    #[test]
    fn add_outer_accumulates() {
        let mut g = Mat::zeros(2, 2);
        g.add_outer(&[1.0, 2.0], &[3.0, 4.0], 1.0);
        assert_eq!(g.data(), &[3.0, 4.0, 6.0, 8.0]);
        g.add_outer(&[1.0, 0.0], &[1.0, 1.0], 0.5);
        assert_eq!(g.data(), &[3.5, 4.5, 6.0, 8.0]);
    }

    #[test]
    fn norms_and_scaling() {
        let mut m = Mat::from_vec(1, 3, vec![3.0, 0.0, 4.0]);
        assert_eq!(m.sq_norm(), 25.0);
        m.scale(2.0);
        assert_eq!(m.data(), &[6.0, 0.0, 8.0]);
        m.fill_zero();
        assert_eq!(m.sq_norm(), 0.0);
    }

    #[test]
    fn sigmoid_and_softplus_reference_values() {
        assert!((vecops::sigmoid(0.0) - 0.5).abs() < 1e-7);
        assert!(vecops::sigmoid(20.0) > 0.999);
        assert!((vecops::softplus(0.0) - std::f32::consts::LN_2).abs() < 1e-5);
        assert!((vecops::softplus(30.0) - 30.0).abs() < 1e-5);
        assert!(vecops::softplus(-30.0) > 0.0);
    }

    #[test]
    #[should_panic(expected = "matvec dimension mismatch")]
    fn dimension_mismatch_panics() {
        Mat::zeros(2, 3).matvec_into(&[1.0, 2.0], &mut [0.0; 2]);
    }
}
