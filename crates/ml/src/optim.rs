//! Optimizers: Adam with global-norm gradient clipping.

use std::collections::HashMap;

use crate::matrix::Mat;

/// Adam hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdamConfig {
    /// Learning rate.
    pub lr: f32,
    /// First-moment decay.
    pub beta1: f32,
    /// Second-moment decay.
    pub beta2: f32,
    /// Numerical epsilon.
    pub eps: f32,
}

impl Default for AdamConfig {
    fn default() -> Self {
        Self { lr: 1e-2, beta1: 0.9, beta2: 0.999, eps: 1e-8 }
    }
}

/// Adam optimizer state, keyed by caller-assigned parameter ids.
///
/// Models register each parameter tensor under a stable id; moments are
/// lazily allocated on first update.
#[derive(Debug, Default)]
pub struct Adam {
    cfg: AdamConfig,
    step: u64,
    moments: HashMap<u64, (Vec<f32>, Vec<f32>)>,
}

impl Adam {
    /// A fresh optimizer.
    pub fn new(cfg: AdamConfig) -> Self {
        Self { cfg, step: 0, moments: HashMap::new() }
    }

    /// Advance the global step counter (call once per optimization step,
    /// before updating the parameter tensors of that step).
    pub fn begin_step(&mut self) {
        self.step += 1;
    }

    /// Current learning rate.
    pub fn lr(&self) -> f32 {
        self.cfg.lr
    }

    /// Update one matrix parameter under id `key` with gradient `grad`.
    pub fn update_mat(&mut self, key: u64, param: &mut Mat, grad: &Mat) {
        assert_eq!(param.len(), grad.len(), "gradient shape mismatch");
        let n = param.len();
        let (m, v) = self.moments.entry(key).or_insert_with(|| (vec![0.0; n], vec![0.0; n]));
        assert_eq!(m.len(), n, "parameter size changed under the optimizer");
        adam_update(self.cfg, self.step, param.data_mut(), grad.data(), m, v);
    }

    /// Update one vector parameter under id `key`.
    pub fn update_vec(&mut self, key: u64, param: &mut [f32], grad: &[f32]) {
        assert_eq!(param.len(), grad.len(), "gradient shape mismatch");
        let n = param.len();
        let (m, v) = self.moments.entry(key).or_insert_with(|| (vec![0.0; n], vec![0.0; n]));
        assert_eq!(m.len(), n, "parameter size changed under the optimizer");
        adam_update(self.cfg, self.step, param, grad, m, v);
    }
}

fn adam_update(
    cfg: AdamConfig,
    step: u64,
    param: &mut [f32],
    grad: &[f32],
    m: &mut [f32],
    v: &mut [f32],
) {
    debug_assert!(step >= 1, "begin_step must be called before updates");
    let b1t = 1.0 - cfg.beta1.powi(step as i32);
    let b2t = 1.0 - cfg.beta2.powi(step as i32);
    for i in 0..param.len() {
        m[i] = cfg.beta1 * m[i] + (1.0 - cfg.beta1) * grad[i];
        v[i] = cfg.beta2 * v[i] + (1.0 - cfg.beta2) * grad[i] * grad[i];
        let mhat = m[i] / b1t;
        let vhat = v[i] / b2t;
        param[i] -= cfg.lr * mhat / (vhat.sqrt() + cfg.eps);
    }
}

/// Scale a set of gradient tensors so their global L2 norm is at most
/// `max_norm`. Returns the pre-clip norm.
pub fn clip_global_norm(mats: &mut [&mut Mat], vecs: &mut [&mut [f32]], max_norm: f64) -> f64 {
    assert!(max_norm > 0.0, "clip threshold must be positive");
    let mut total = 0.0;
    for m in mats.iter() {
        total += m.sq_norm();
    }
    for v in vecs.iter() {
        total += crate::matrix::vecops::sq_norm(v);
    }
    let norm = total.sqrt();
    if norm > max_norm {
        let k = (max_norm / norm) as f32;
        for m in mats.iter_mut() {
            m.scale(k);
        }
        for v in vecs.iter_mut() {
            for x in v.iter_mut() {
                *x *= k;
            }
        }
    }
    norm
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adam_minimizes_a_quadratic() {
        // Minimize f(w) = (w - 3)² with Adam.
        let mut w = vec![0.0f32];
        let mut adam = Adam::new(AdamConfig { lr: 0.1, ..Default::default() });
        for _ in 0..500 {
            let grad = vec![2.0 * (w[0] - 3.0)];
            adam.begin_step();
            adam.update_vec(0, &mut w, &grad);
        }
        assert!((w[0] - 3.0).abs() < 0.05, "w = {}", w[0]);
    }

    #[test]
    fn adam_handles_matrices() {
        let mut w = Mat::from_vec(2, 2, vec![5.0, -5.0, 2.0, 0.0]);
        let mut adam = Adam::new(AdamConfig { lr: 0.2, ..Default::default() });
        for _ in 0..800 {
            // Gradient of 0.5 * ||W||²: W itself.
            let grad = w.clone();
            adam.begin_step();
            adam.update_mat(1, &mut w, &grad);
        }
        assert!(w.sq_norm() < 1e-3, "norm = {}", w.sq_norm());
    }

    #[test]
    fn clipping_preserves_direction() {
        let mut m = Mat::from_vec(1, 2, vec![30.0, 40.0]); // norm 50
        let norm = clip_global_norm(&mut [&mut m], &mut [], 5.0);
        assert_eq!(norm, 50.0);
        assert!((m.data()[0] - 3.0).abs() < 1e-5);
        assert!((m.data()[1] - 4.0).abs() < 1e-5);
    }

    #[test]
    fn small_gradients_are_not_clipped() {
        let mut m = Mat::from_vec(1, 2, vec![0.3, 0.4]);
        clip_global_norm(&mut [&mut m], &mut [], 5.0);
        assert_eq!(m.data(), &[0.3, 0.4]);
    }

    #[test]
    fn clipping_covers_vectors_too() {
        let mut v = [3.0f32, 4.0];
        let mut m = Mat::zeros(1, 1);
        let norm = clip_global_norm(&mut [&mut m], &mut [&mut v], 1.0);
        assert_eq!(norm, 5.0);
        assert!((v[0] - 0.6).abs() < 1e-6);
    }
}
