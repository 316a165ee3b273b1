//! Fully-connected layer (batch size 1 along a sequence).

use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};

use crate::init::xavier;
use crate::matrix::vecops::add_assign;
use crate::matrix::Mat;

/// A dense layer `y = W·x + b` with gradient accumulation.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Dense {
    /// Weights, `out × in`.
    pub w: Mat,
    /// Bias, `out`.
    pub b: Vec<f32>,
    /// Weight gradient, allocated at construction and zeroed by
    /// [`Dense::zero_grad`] (empty only right after deserialization).
    #[serde(skip)]
    pub gw: Mat,
    /// Bias gradient.
    #[serde(skip)]
    pub gb: Vec<f32>,
}

impl Dense {
    /// A new layer with Xavier weights and zero bias.
    pub fn new(input: usize, output: usize, rng: &mut StdRng) -> Self {
        Self {
            w: xavier(output, input, rng),
            b: vec![0.0; output],
            gw: Mat::zeros(output, input),
            gb: vec![0.0; output],
        }
    }

    /// Forward pass into a caller-owned buffer (no allocation).
    pub fn forward_into(&self, x: &[f32], y: &mut [f32]) {
        self.w.matvec_into(x, y);
        add_assign(y, &self.b);
    }

    /// Batched forward pass over `[n_streams × in]` / `[n_streams × out]`
    /// planes: `ys[s] = W·xs[s] + b` for every active stream, bitwise
    /// identical per stream to [`Dense::forward_into`] (no allocation).
    pub fn forward_batch_into(&self, xs: &[f32], ys: &mut [f32], active: &[bool]) {
        self.w.matmul_into(xs, ys, active);
        let out = self.w.rows();
        for (s, row) in ys.chunks_exact_mut(out).enumerate() {
            if active[s] {
                add_assign(row, &self.b);
            }
        }
    }

    /// Zero the gradient buffers (re-shaping them first if the layer was
    /// just deserialized, since `#[serde(skip)]` leaves them empty).
    pub fn zero_grad(&mut self) {
        if self.gw.len() != self.w.len() {
            self.gw = Mat::zeros(self.w.rows(), self.w.cols());
        } else {
            self.gw.fill_zero();
        }
        if self.gb.len() != self.b.len() {
            self.gb = vec![0.0; self.b.len()];
        } else {
            self.gb.fill(0.0);
        }
    }

    /// Backward: given `dy` and the cached input `x`, accumulate gradients
    /// and write `dx` into a caller-owned buffer (no allocation).
    pub fn backward_into(&mut self, x: &[f32], dy: &[f32], dx: &mut [f32]) {
        debug_assert_eq!(self.gw.len(), self.w.len(), "call zero_grad before backward");
        self.gw.add_outer(dy, x, 1.0);
        add_assign(&mut self.gb, dy);
        self.w.matvec_t_into(dy, dx);
    }

    /// Number of trainable parameters.
    pub fn param_count(&self) -> usize {
        self.w.len() + self.b.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::seeded;

    #[test]
    fn forward_is_affine() {
        let mut rng = seeded(1);
        let mut d = Dense::new(2, 2, &mut rng);
        d.w = Mat::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        d.b = vec![10.0, 20.0];
        let mut y = [f32::NAN; 2];
        d.forward_into(&[1.0, 1.0], &mut y);
        assert_eq!(y, [13.0, 27.0]);
    }

    #[test]
    fn forward_batch_matches_per_stream_bitwise() {
        let mut rng = seeded(3);
        let d = Dense::new(3, 2, &mut rng);
        let n = 3;
        let xs: Vec<f32> = (0..n * 3).map(|i| (i as f32 * 0.41).sin()).collect();
        let active = [true, false, true];
        let mut ys = vec![f32::NAN; n * 2];
        d.forward_batch_into(&xs, &mut ys, &active);
        for s in 0..n {
            if active[s] {
                let mut y = [0.0f32; 2];
                d.forward_into(&xs[s * 3..(s + 1) * 3], &mut y);
                assert_eq!(&ys[s * 2..(s + 1) * 2], &y, "stream {s}");
            } else {
                assert!(ys[s * 2..(s + 1) * 2].iter().all(|v| v.is_nan()));
            }
        }
    }

    #[test]
    fn backward_gradient_check() {
        let mut rng = seeded(2);
        let mut d = Dense::new(3, 2, &mut rng);
        let x = [0.5f32, -1.0, 0.25];
        // Loss = sum(y²).
        let loss = |d: &Dense, x: &[f32]| -> f64 {
            let mut y = [0.0f32; 2];
            d.forward_into(x, &mut y);
            y.iter().map(|v| f64::from(*v) * f64::from(*v)).sum()
        };
        d.zero_grad();
        let mut y = [0.0f32; 2];
        d.forward_into(&x, &mut y);
        let dy = y.map(|v| 2.0 * v);
        let mut dx = [0.0f32; 3];
        d.backward_into(&x, &dy, &mut dx);

        let eps = 1e-3f32;
        // Weight gradient check.
        for (r, c) in [(0, 0), (1, 2)] {
            let analytic = f64::from(d.gw.get(r, c));
            let mut dp = d.clone();
            dp.w.set(r, c, dp.w.get(r, c) + eps);
            let lp = loss(&dp, &x);
            dp.w.set(r, c, dp.w.get(r, c) - 2.0 * eps);
            let lm = loss(&dp, &x);
            let numeric = (lp - lm) / (2.0 * f64::from(eps));
            assert!((analytic - numeric).abs() < 1e-2, "{analytic} vs {numeric}");
        }
        // Input gradient check.
        let analytic_dx0 = f64::from(dx[0]);
        let mut xp = x;
        xp[0] += eps;
        let lp = loss(&d, &xp);
        xp[0] -= 2.0 * eps;
        let lm = loss(&d, &xp);
        let numeric = (lp - lm) / (2.0 * f64::from(eps));
        assert!((analytic_dx0 - numeric).abs() < 1e-2);
    }
}
