//! Output heads: Gaussian delay head and Bernoulli loss head.
//!
//! §4.1 of the paper: "We model P as a Gaussian N(w₁ᵀh_t, w₂ᵀh_t); the
//! weights w₁, w₂ are learnt using a fully-connected neural network with a
//! suitable loss". The delay head predicts `(μ, σ²)` with a Gaussian
//! negative-log-likelihood loss (σ² through a softplus for positivity);
//! the loss head predicts a packet-loss probability ("or packet loss
//! indicator") with binary cross-entropy.

use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};

use crate::dense::Dense;
use crate::matrix::vecops::{add_assign, reset, sigmoid, softplus};

/// Variance floor, keeps the NLL bounded.
const VAR_FLOOR: f32 = 1e-4;

/// Gaussian head: `h ↦ (μ, σ²)` with NLL loss.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GaussianHead {
    mu: Dense,
    raw_var: Dense,
}

/// Forward cache of a Gaussian head evaluation.
#[derive(Debug, Clone, Copy)]
pub struct GaussianOut {
    /// Predicted mean.
    pub mu: f32,
    /// Predicted variance (post-softplus, floored).
    pub var: f32,
    raw: f32,
}

impl GaussianHead {
    /// A head over hidden width `hidden`.
    pub fn new(hidden: usize, rng: &mut StdRng) -> Self {
        Self { mu: Dense::new(hidden, 1, rng), raw_var: Dense::new(hidden, 1, rng) }
    }

    /// Predict `(μ, σ²)` from the hidden state. The 1-wide dense outputs
    /// land in stack buffers, so this never heap-allocates.
    pub fn forward(&self, h: &[f32]) -> GaussianOut {
        let mut mu = [0.0f32; 1];
        let mut raw = [0.0f32; 1];
        self.mu.forward_into(h, &mut mu);
        self.raw_var.forward_into(h, &mut raw);
        GaussianOut { mu: mu[0], var: softplus(raw[0]) + VAR_FLOOR, raw: raw[0] }
    }

    /// Batched forward over a `[n_streams × hidden]` plane: writes `μ` and
    /// `σ²` (post-softplus, floored) per active stream into `[n_streams]`
    /// planes. Per stream bitwise identical to [`GaussianHead::forward`];
    /// no allocation.
    pub fn forward_batch_into(
        &self,
        hs: &[f32],
        mus: &mut [f32],
        vars: &mut [f32],
        active: &[bool],
    ) {
        self.mu.forward_batch_into(hs, mus, active);
        self.raw_var.forward_batch_into(hs, vars, active);
        for (s, v) in vars.iter_mut().enumerate() {
            if active[s] {
                *v = softplus(*v) + VAR_FLOOR;
            }
        }
    }

    /// Gaussian negative log-likelihood of target `y`.
    pub fn nll(out: &GaussianOut, y: f32) -> f32 {
        let var = out.var;
        0.5 * (2.0 * std::f32::consts::PI * var).ln() + (y - out.mu).powi(2) / (2.0 * var)
    }

    /// Zero/allocate gradients.
    pub fn zero_grad(&mut self) {
        self.mu.zero_grad();
        self.raw_var.zero_grad();
    }

    /// Backward for one step into caller-owned buffers: accumulates head
    /// gradients and leaves `dh` holding the hidden-state gradient (`tmp`
    /// is scratch of the same width). Allocation-free once warm.
    pub fn backward_into(
        &mut self,
        h: &[f32],
        out: &GaussianOut,
        y: f32,
        dh: &mut Vec<f32>,
        tmp: &mut Vec<f32>,
    ) {
        let var = out.var;
        // dNLL/dμ = (μ − y)/σ².
        let dmu = (out.mu - y) / var;
        // dNLL/dσ² = 1/(2σ²) − (y−μ)²/(2σ⁴); dσ²/draw = sigmoid(raw).
        let dvar = 0.5 / var - (y - out.mu).powi(2) / (2.0 * var * var);
        let draw = dvar * sigmoid(out.raw);
        reset(dh, h.len());
        reset(tmp, h.len());
        self.mu.backward_into(h, &[dmu], dh);
        self.raw_var.backward_into(h, &[draw], tmp);
        add_assign(dh, tmp);
    }

    /// Trainable parameter count.
    pub fn param_count(&self) -> usize {
        self.mu.param_count() + self.raw_var.param_count()
    }

    /// Access the two dense sublayers (for the optimizer).
    pub fn layers_mut(&mut self) -> [&mut Dense; 2] {
        [&mut self.mu, &mut self.raw_var]
    }
}

/// Bernoulli head: `h ↦ P(lost)` with BCE loss.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BernoulliHead {
    logit: Dense,
}

impl BernoulliHead {
    /// A head over hidden width `hidden`.
    pub fn new(hidden: usize, rng: &mut StdRng) -> Self {
        Self { logit: Dense::new(hidden, 1, rng) }
    }

    /// Predicted probability (stack buffer — no heap allocation).
    pub fn forward(&self, h: &[f32]) -> f32 {
        let mut logit = [0.0f32; 1];
        self.logit.forward_into(h, &mut logit);
        sigmoid(logit[0])
    }

    /// Batched forward over a `[n_streams × hidden]` plane: writes
    /// `P(lost)` per active stream into a `[n_streams]` plane. Per stream
    /// bitwise identical to [`BernoulliHead::forward`]; no allocation.
    pub fn forward_batch_into(&self, hs: &[f32], ps: &mut [f32], active: &[bool]) {
        self.logit.forward_batch_into(hs, ps, active);
        for (s, p) in ps.iter_mut().enumerate() {
            if active[s] {
                *p = sigmoid(*p);
            }
        }
    }

    /// Binary cross-entropy of prediction `p` against label `y ∈ {0, 1}`.
    pub fn bce(p: f32, y: f32) -> f32 {
        let p = p.clamp(1e-6, 1.0 - 1e-6);
        -(y * p.ln() + (1.0 - y) * (1.0 - p).ln())
    }

    /// Zero/allocate gradients.
    pub fn zero_grad(&mut self) {
        self.logit.zero_grad();
    }

    /// Backward: accumulate gradients and write `dh` into a caller-owned
    /// buffer; allocation-free once warm.
    /// (`dBCE/dlogit = p − y` — the classic simplification.)
    pub fn backward_into(&mut self, h: &[f32], p: f32, y: f32, dh: &mut Vec<f32>) {
        reset(dh, h.len());
        self.logit.backward_into(h, &[p - y], dh);
    }

    /// Trainable parameter count.
    pub fn param_count(&self) -> usize {
        self.logit.param_count()
    }

    /// The dense sublayer (for the optimizer).
    pub fn layer_mut(&mut self) -> &mut Dense {
        &mut self.logit
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::seeded;

    #[test]
    fn gaussian_nll_is_minimized_at_target() {
        let out_good = GaussianOut { mu: 5.0, var: 1.0, raw: 0.0 };
        let out_bad = GaussianOut { mu: 9.0, var: 1.0, raw: 0.0 };
        assert!(GaussianHead::nll(&out_good, 5.0) < GaussianHead::nll(&out_bad, 5.0));
    }

    #[test]
    fn gaussian_variance_is_positive() {
        let mut rng = seeded(1);
        let head = GaussianHead::new(4, &mut rng);
        for h in [[-10.0f32, -10.0, -10.0, -10.0], [10.0, 10.0, 10.0, 10.0]] {
            assert!(head.forward(&h).var > 0.0);
        }
    }

    #[test]
    fn gaussian_gradient_check() {
        let mut rng = seeded(2);
        let mut head = GaussianHead::new(3, &mut rng);
        let h = [0.4f32, -0.7, 0.1];
        let y = 0.8f32;
        head.zero_grad();
        let out = head.forward(&h);
        let (mut dh, mut tmp) = (Vec::new(), Vec::new());
        head.backward_into(&h, &out, y, &mut dh, &mut tmp);

        let eps = 1e-3f32;
        for k in 0..3 {
            let mut hp = h;
            hp[k] += eps;
            let lp = GaussianHead::nll(&head.forward(&hp), y);
            hp[k] -= 2.0 * eps;
            let lm = GaussianHead::nll(&head.forward(&hp), y);
            let numeric = f64::from(lp - lm) / (2.0 * f64::from(eps));
            assert!(
                (f64::from(dh[k]) - numeric).abs() < 1e-2 * (1.0 + numeric.abs()),
                "dh[{k}] = {} vs numeric {numeric}",
                dh[k]
            );
        }
    }

    #[test]
    fn batched_heads_match_single_stream_bitwise() {
        let mut rng = seeded(7);
        let gauss = GaussianHead::new(4, &mut rng);
        let bern = BernoulliHead::new(4, &mut rng);
        let n = 3;
        let hs: Vec<f32> = (0..n * 4).map(|i| (i as f32 * 0.61).sin()).collect();
        let active = [true, false, true];
        let (mut mus, mut vars, mut ps) = (vec![0.0f32; n], vec![0.0f32; n], vec![0.0f32; n]);
        gauss.forward_batch_into(&hs, &mut mus, &mut vars, &active);
        bern.forward_batch_into(&hs, &mut ps, &active);
        for s in 0..n {
            if !active[s] {
                continue;
            }
            let h = &hs[s * 4..(s + 1) * 4];
            let out = gauss.forward(h);
            assert_eq!(mus[s], out.mu, "mu stream {s}");
            assert_eq!(vars[s], out.var, "var stream {s}");
            assert_eq!(ps[s], bern.forward(h), "p stream {s}");
        }
    }

    #[test]
    fn bce_properties() {
        assert!(BernoulliHead::bce(0.9, 1.0) < BernoulliHead::bce(0.1, 1.0));
        assert!(BernoulliHead::bce(0.1, 0.0) < BernoulliHead::bce(0.9, 0.0));
        // Clamped at the extremes (finite).
        assert!(BernoulliHead::bce(1.0, 0.0).is_finite());
    }

    #[test]
    fn bernoulli_gradient_check() {
        let mut rng = seeded(3);
        let mut head = BernoulliHead::new(3, &mut rng);
        let h = [0.2f32, 0.9, -0.5];
        let y = 1.0f32;
        head.zero_grad();
        let p = head.forward(&h);
        let mut dh = Vec::new();
        head.backward_into(&h, p, y, &mut dh);
        let eps = 1e-3f32;
        for k in 0..3 {
            let mut hp = h;
            hp[k] += eps;
            let lp = BernoulliHead::bce(head.forward(&hp), y);
            hp[k] -= 2.0 * eps;
            let lm = BernoulliHead::bce(head.forward(&hp), y);
            let numeric = f64::from(lp - lm) / (2.0 * f64::from(eps));
            assert!(
                (f64::from(dh[k]) - numeric).abs() < 1e-2 * (1.0 + numeric.abs()),
                "dh[{k}] mismatch"
            );
        }
    }
}
