//! LSTM layers with truncated backpropagation through time.
//!
//! iBoxML (§4.1, Fig. 6) is a multi-layer LSTM state-space model: the
//! hidden state `h_t` is the learned "network state", conditioned on packet
//! features `x_t` and the previous delay. This module implements the cell
//! and stacked layers from scratch with exact analytic gradients
//! (verified against numerical differentiation in the tests).
//!
//! Every step is allocation-free: [`Lstm::step_into`] /
//! [`Lstm::step_backward_into`] write into caller-owned state, a reusable
//! [`StepCache`], and a per-layer [`LstmWorkspace`] holding the fused `4H`
//! gate buffers.

use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};
use std::mem;

use crate::init::xavier;
use crate::matrix::vecops::{add_assign, copy_into, reset, sigmoid};
use crate::matrix::Mat;

/// One LSTM layer: gates `[i; f; g; o]` stacked in a `4H` block.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Lstm {
    input_size: usize,
    hidden_size: usize,
    /// Input weights, `4H × I`.
    pub wx: Mat,
    /// Recurrent weights, `4H × H`.
    pub wh: Mat,
    /// Bias, `4H` (forget-gate slice initialized to 1 — the classic trick
    /// to keep memory open early in training).
    pub b: Vec<f32>,
    /// Input-weight gradient, allocated at construction and zeroed by
    /// [`Lstm::zero_grad`] (empty only right after deserialization).
    #[serde(skip)]
    pub gwx: Mat,
    #[serde(skip)]
    /// Recurrent-weight gradient.
    pub gwh: Mat,
    #[serde(skip)]
    /// Bias gradient.
    pub gb: Vec<f32>,
}

/// Cached activations for one timestep (needed by the backward pass).
///
/// Reused across steps via the cache ring owned by the training loop —
/// [`Lstm::step_into`] refills it in place without allocating.
#[derive(Debug, Clone, Default)]
pub struct StepCache {
    x: Vec<f32>,
    h_prev: Vec<f32>,
    c_prev: Vec<f32>,
    i: Vec<f32>,
    f: Vec<f32>,
    g: Vec<f32>,
    o: Vec<f32>,
    tanh_c: Vec<f32>,
}

impl StepCache {
    /// A cache pre-sized for `layer` (so refills never reallocate).
    pub fn for_layer(layer: &Lstm) -> Self {
        let (i, h) = (layer.input_size, layer.hidden_size);
        Self {
            x: vec![0.0; i],
            h_prev: vec![0.0; h],
            c_prev: vec![0.0; h],
            i: vec![0.0; h],
            f: vec![0.0; h],
            g: vec![0.0; h],
            o: vec![0.0; h],
            tanh_c: vec![0.0; h],
        }
    }

    /// `tanh(c_t)` from the cached step — the post-activation cell state,
    /// exposed so benchmarks and tests can derive loss gradients without
    /// replaying the forward pass.
    pub fn tanh_c(&self) -> &[f32] {
        &self.tanh_c
    }
}

/// Scratch buffers for one layer's forward/backward step: the fused `4H`
/// gate pre-activations and their gradients. Allocated once, reused for
/// every timestep.
#[derive(Debug, Clone)]
pub struct LstmWorkspace {
    /// Fused gate pre-activations `[i; f; g; o]`, length `4H`.
    z: Vec<f32>,
    /// Gate pre-activation gradients, length `4H`.
    dz: Vec<f32>,
}

impl LstmWorkspace {
    /// A workspace sized for `layer`.
    pub fn for_layer(layer: &Lstm) -> Self {
        Self { z: vec![0.0; 4 * layer.hidden_size], dz: vec![0.0; 4 * layer.hidden_size] }
    }
}

/// The recurrent state `(h, c)` of one layer.
#[derive(Debug, Clone, PartialEq)]
pub struct LstmState {
    /// Hidden state.
    pub h: Vec<f32>,
    /// Cell state.
    pub c: Vec<f32>,
}

impl LstmState {
    /// The zero state.
    pub fn zeros(hidden: usize) -> Self {
        Self { h: vec![0.0; hidden], c: vec![0.0; hidden] }
    }

    /// Reset to zero in place.
    pub fn reset(&mut self) {
        self.h.fill(0.0);
        self.c.fill(0.0);
    }
}

impl Lstm {
    /// A new layer with Xavier weights.
    pub fn new(input_size: usize, hidden_size: usize, rng: &mut StdRng) -> Self {
        assert!(input_size > 0 && hidden_size > 0, "layer sizes must be positive");
        let mut b = vec![0.0f32; 4 * hidden_size];
        for v in b.iter_mut().skip(hidden_size).take(hidden_size) {
            *v = 1.0; // forget-gate bias
        }
        Self {
            wx: xavier(4 * hidden_size, input_size, rng),
            wh: xavier(4 * hidden_size, hidden_size, rng),
            b,
            gwx: Mat::zeros(4 * hidden_size, input_size),
            gwh: Mat::zeros(4 * hidden_size, hidden_size),
            gb: vec![0.0; 4 * hidden_size],
            input_size,
            hidden_size,
        }
    }

    /// Hidden width of this layer.
    pub fn hidden_size(&self) -> usize {
        self.hidden_size
    }

    /// Input width of this layer.
    pub fn input_size(&self) -> usize {
        self.input_size
    }

    /// Number of trainable parameters.
    pub fn param_count(&self) -> usize {
        self.wx.len() + self.wh.len() + self.b.len()
    }

    /// One forward step, updating `state` in place and refilling `cache`;
    /// allocation-free once the buffers are warm.
    pub fn step_into(
        &self,
        x: &[f32],
        state: &mut LstmState,
        ws: &mut LstmWorkspace,
        cache: &mut StepCache,
    ) {
        assert_eq!(x.len(), self.input_size, "input width mismatch");
        assert_eq!(state.h.len(), self.hidden_size, "state width mismatch");
        let h = self.hidden_size;

        copy_into(&mut cache.x, x);
        copy_into(&mut cache.h_prev, &state.h);
        copy_into(&mut cache.c_prev, &state.c);

        reset(&mut ws.z, 4 * h);
        self.wx.matvec_into(x, &mut ws.z);
        self.wh.matvec_acc(&cache.h_prev, &mut ws.z);
        add_assign(&mut ws.z, &self.b);

        reset(&mut cache.i, h);
        reset(&mut cache.f, h);
        reset(&mut cache.g, h);
        reset(&mut cache.o, h);
        reset(&mut cache.tanh_c, h);
        for k in 0..h {
            cache.i[k] = sigmoid(ws.z[k]);
            cache.f[k] = sigmoid(ws.z[h + k]);
            cache.g[k] = ws.z[2 * h + k].tanh();
            cache.o[k] = sigmoid(ws.z[3 * h + k]);
        }
        for k in 0..h {
            let c = cache.f[k] * cache.c_prev[k] + cache.i[k] * cache.g[k];
            state.c[k] = c;
            cache.tanh_c[k] = c.tanh();
            state.h[k] = cache.o[k] * cache.tanh_c[k];
        }
    }

    /// Zero the gradient buffers (re-shaping them first if the layer was
    /// just deserialized, since `#[serde(skip)]` leaves them empty).
    pub fn zero_grad(&mut self) {
        if self.gwx.len() != self.wx.len() {
            self.gwx = Mat::zeros(self.wx.rows(), self.wx.cols());
        } else {
            self.gwx.fill_zero();
        }
        if self.gwh.len() != self.wh.len() {
            self.gwh = Mat::zeros(self.wh.rows(), self.wh.cols());
        } else {
            self.gwh.fill_zero();
        }
        if self.gb.len() != self.b.len() {
            self.gb = vec![0.0; self.b.len()];
        } else {
            self.gb.fill(0.0);
        }
    }

    /// One backward step, writing `(dx, dh_prev, dc_prev)` into
    /// caller-owned buffers and accumulating weight gradients;
    /// allocation-free.
    ///
    /// * `dh` — gradient flowing into `h_t` (from the loss at `t` and from
    ///   the upper layer).
    /// * `dh_next`, `dc_next` — gradients from timestep `t+1` of this layer.
    #[allow(clippy::too_many_arguments)]
    pub fn step_backward_into(
        &mut self,
        cache: &StepCache,
        dh: &[f32],
        dh_next: &[f32],
        dc_next: &[f32],
        ws: &mut LstmWorkspace,
        dx: &mut [f32],
        dh_prev: &mut [f32],
        dc_prev: &mut [f32],
    ) {
        let h = self.hidden_size;
        debug_assert_eq!(self.gwx.len(), self.wx.len(), "call zero_grad before backward");
        debug_assert_eq!(dx.len(), self.input_size);
        debug_assert_eq!(dh_prev.len(), h);
        debug_assert_eq!(dc_prev.len(), h);

        reset(&mut ws.dz, 4 * h);
        for k in 0..h {
            let dht = dh[k] + dh_next[k];
            let do_ = dht * cache.tanh_c[k];
            let dc = dht * cache.o[k] * (1.0 - cache.tanh_c[k] * cache.tanh_c[k]) + dc_next[k];
            let di = dc * cache.g[k];
            let df = dc * cache.c_prev[k];
            let dg = dc * cache.i[k];
            ws.dz[k] = di * cache.i[k] * (1.0 - cache.i[k]);
            ws.dz[h + k] = df * cache.f[k] * (1.0 - cache.f[k]);
            ws.dz[2 * h + k] = dg * (1.0 - cache.g[k] * cache.g[k]);
            ws.dz[3 * h + k] = do_ * cache.o[k] * (1.0 - cache.o[k]);
            dc_prev[k] = dc * cache.f[k];
        }

        self.gwx.add_outer(&ws.dz, &cache.x, 1.0);
        self.gwh.add_outer(&ws.dz, &cache.h_prev, 1.0);
        add_assign(&mut self.gb, &ws.dz);

        self.wx.matvec_t_into(&ws.dz, dx);
        self.wh.matvec_t_into(&ws.dz, dh_prev);
    }
}

/// A stack of LSTM layers (layer `l` feeds layer `l+1`).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LstmStack {
    layers: Vec<Lstm>,
}

/// Per-timestep caches for the whole stack.
pub type StackCache = Vec<StepCache>;

/// Reusable scratch for stack forward/backward: one [`LstmWorkspace`] per
/// layer plus the inter-layer gradient rotation buffers. Owned by the
/// training loop and reused across every timestep and chunk.
#[derive(Debug, Clone)]
pub struct StackWorkspace {
    layers: Vec<LstmWorkspace>,
    /// Gradient flowing into the current layer's `h` (top-down rotation).
    dh_in: Vec<f32>,
    /// Gradient w.r.t. the current layer's input (becomes `dh_in` below).
    dx_out: Vec<f32>,
    /// Per-layer recurrent gradients carried from `t+1` to `t`.
    dh_next: Vec<Vec<f32>>,
    dc_next: Vec<Vec<f32>>,
    /// Swap targets for the recurrent gradients.
    dh_prev: Vec<f32>,
    dc_prev: Vec<f32>,
}

impl LstmStack {
    /// A stack with the given input width and hidden widths.
    pub fn new(input_size: usize, hidden_sizes: &[usize], rng: &mut StdRng) -> Self {
        assert!(!hidden_sizes.is_empty(), "stack needs at least one layer");
        let mut layers = Vec::with_capacity(hidden_sizes.len());
        let mut in_size = input_size;
        for &h in hidden_sizes {
            layers.push(Lstm::new(in_size, h, rng));
            in_size = h;
        }
        Self { layers }
    }

    /// The layers.
    pub fn layers(&self) -> &[Lstm] {
        &self.layers
    }

    /// Mutable layer access (for the optimizer).
    pub fn layers_mut(&mut self) -> &mut [Lstm] {
        &mut self.layers
    }

    /// Hidden width of the top layer (the model's "network state").
    pub fn output_size(&self) -> usize {
        self.layers.last().expect("nonempty").hidden_size()
    }

    /// Total trainable parameters.
    pub fn param_count(&self) -> usize {
        self.layers.iter().map(Lstm::param_count).sum()
    }

    /// Zero states for every layer.
    pub fn zero_state(&self) -> Vec<LstmState> {
        self.layers.iter().map(|l| LstmState::zeros(l.hidden_size())).collect()
    }

    /// A workspace sized for this stack.
    pub fn workspace(&self) -> StackWorkspace {
        let max_w =
            self.layers.iter().flat_map(|l| [l.input_size(), l.hidden_size()]).max().unwrap_or(0);
        StackWorkspace {
            layers: self.layers.iter().map(LstmWorkspace::for_layer).collect(),
            dh_in: vec![0.0; max_w],
            dx_out: vec![0.0; max_w],
            dh_next: self.layers.iter().map(|l| vec![0.0; l.hidden_size()]).collect(),
            dc_next: self.layers.iter().map(|l| vec![0.0; l.hidden_size()]).collect(),
            dh_prev: vec![0.0; max_w],
            dc_prev: vec![0.0; max_w],
        }
    }

    /// A per-timestep cache pre-sized for this stack.
    pub fn new_cache(&self) -> StackCache {
        self.layers.iter().map(StepCache::for_layer).collect()
    }

    /// One forward step through all layers, updating `states` in place and
    /// refilling `caches[l]` per layer; allocation-free. The top hidden
    /// vector is `states.last().h` afterwards.
    pub fn step_into(
        &self,
        x: &[f32],
        states: &mut [LstmState],
        ws: &mut StackWorkspace,
        caches: &mut [StepCache],
    ) {
        assert_eq!(states.len(), self.layers.len(), "state count mismatch");
        assert_eq!(caches.len(), self.layers.len(), "cache count mismatch");
        for l in 0..self.layers.len() {
            if l == 0 {
                self.layers[0].step_into(x, &mut states[0], &mut ws.layers[0], &mut caches[0]);
            } else {
                let (below, rest) = states.split_at_mut(l);
                self.layers[l].step_into(
                    &below[l - 1].h,
                    &mut rest[0],
                    &mut ws.layers[l],
                    &mut caches[l],
                );
            }
        }
    }

    /// Zero all gradient buffers.
    pub fn zero_grad(&mut self) {
        for l in &mut self.layers {
            l.zero_grad();
        }
    }

    /// Backward through a whole (sub)sequence using caller-owned scratch;
    /// allocation-free.
    ///
    /// * `caches[t]` — the stack cache of timestep `t`.
    /// * `dh_top[t]` — loss gradient w.r.t. the top hidden state at `t`.
    ///
    /// Accumulates weight gradients; gradient flow is truncated at the
    /// start of the subsequence (TBPTT).
    pub fn backward_into(
        &mut self,
        caches: &[StackCache],
        dh_top: &[Vec<f32>],
        ws: &mut StackWorkspace,
    ) {
        assert_eq!(caches.len(), dh_top.len(), "cache/grad length mismatch");
        let n_layers = self.layers.len();
        for (l, layer) in self.layers.iter().enumerate() {
            reset(&mut ws.dh_next[l], layer.hidden_size());
            reset(&mut ws.dc_next[l], layer.hidden_size());
        }

        for t in (0..caches.len()).rev() {
            // Top layer receives the loss gradient; lower layers receive
            // dx from the layer above.
            copy_into(&mut ws.dh_in, &dh_top[t]);
            for l in (0..n_layers).rev() {
                let (in_w, h_w) = (self.layers[l].input_size(), self.layers[l].hidden_size());
                ws.dx_out.resize(in_w, 0.0);
                ws.dh_prev.resize(h_w, 0.0);
                ws.dc_prev.resize(h_w, 0.0);
                self.layers[l].step_backward_into(
                    &caches[t][l],
                    &ws.dh_in,
                    &ws.dh_next[l],
                    &ws.dc_next[l],
                    &mut ws.layers[l],
                    &mut ws.dx_out,
                    &mut ws.dh_prev,
                    &mut ws.dc_prev,
                );
                mem::swap(&mut ws.dh_next[l], &mut ws.dh_prev);
                mem::swap(&mut ws.dc_next[l], &mut ws.dc_prev);
                mem::swap(&mut ws.dh_in, &mut ws.dx_out);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::seeded;

    /// One step from `state` with freshly allocated scratch.
    fn fresh_step(l: &Lstm, x: &[f32], state: &LstmState) -> (LstmState, StepCache) {
        let (mut next, mut cache) = (state.clone(), StepCache::for_layer(l));
        l.step_into(x, &mut next, &mut LstmWorkspace::for_layer(l), &mut cache);
        (next, cache)
    }

    #[test]
    fn step_shapes_and_determinism() {
        let mut rng = seeded(1);
        let l = Lstm::new(3, 5, &mut rng);
        let s0 = LstmState::zeros(5);
        let x = [0.1, -0.2, 0.3];
        let (s1, _) = fresh_step(&l, &x, &s0);
        assert_eq!(s1.h.len(), 5);
        assert_eq!(s1.c.len(), 5);
        assert_eq!(s1, fresh_step(&l, &x, &s0).0);
        // State evolves.
        assert_ne!(s1, fresh_step(&l, &x, &s1).0);
    }

    /// A workspace and cache reused across steps — and NaN-poisoned
    /// before each one — give the same bits as fresh ones: `step_into`
    /// reads nothing a previous step left behind.
    #[test]
    fn reused_poisoned_workspace_matches_fresh_across_steps() {
        let mut rng = seeded(11);
        let l = Lstm::new(3, 5, &mut rng);
        let mut ws = LstmWorkspace::for_layer(&l);
        let mut cache = StepCache::for_layer(&l);
        let mut state = LstmState::zeros(5);
        let mut fresh_state = LstmState::zeros(5);
        for t in 0..7 {
            let x = [0.1 * t as f32, -0.2, (t as f32).sin()];
            for buf in [&mut ws.z, &mut ws.dz, &mut cache.x, &mut cache.h_prev, &mut cache.c_prev]
                .into_iter()
                .chain([&mut cache.i, &mut cache.f, &mut cache.g, &mut cache.o, &mut cache.tanh_c])
            {
                buf.fill(f32::NAN);
            }
            l.step_into(&x, &mut state, &mut ws, &mut cache);
            fresh_state = fresh_step(&l, &x, &fresh_state).0;
            assert_eq!(state, fresh_state, "diverged at step {t}");
        }
    }

    #[test]
    fn forget_bias_is_one() {
        let mut rng = seeded(2);
        let l = Lstm::new(2, 3, &mut rng);
        assert_eq!(&l.b[3..6], &[1.0, 1.0, 1.0]);
        assert_eq!(&l.b[0..3], &[0.0, 0.0, 0.0]);
    }

    #[test]
    fn param_count() {
        let mut rng = seeded(3);
        let l = Lstm::new(4, 8, &mut rng);
        // 4H(I + H) + 4H = 32*(4+8) + 32 = 416.
        assert_eq!(l.param_count(), 416);
        let stack = LstmStack::new(4, &[8, 8], &mut rng);
        assert_eq!(stack.param_count(), 416 + 32 * 16 + 32);
    }

    /// Numerical gradient check: perturb each of a sample of weights and
    /// compare the loss difference against the analytic gradient. This is
    /// the canonical BPTT correctness test.
    #[test]
    fn gradient_check_single_layer() {
        let mut rng = seeded(7);
        let mut layer = Lstm::new(2, 3, &mut rng);
        let xs = [vec![0.5f32, -0.3], vec![-0.1, 0.8], vec![0.2, 0.2]];

        // Loss = sum of squared top hidden states over the sequence.
        let forward_loss = |layer: &Lstm| -> f64 {
            let mut state = LstmState::zeros(3);
            let mut loss = 0.0f64;
            for x in &xs {
                state = fresh_step(layer, x, &state).0;
                loss += state.h.iter().map(|v| f64::from(*v) * f64::from(*v)).sum::<f64>();
            }
            loss
        };

        // Analytic gradients.
        layer.zero_grad();
        let mut state = LstmState::zeros(3);
        let mut caches = Vec::new();
        let mut dhs = Vec::new();
        for x in &xs {
            let (ns, cache) = fresh_step(&layer, x, &state);
            dhs.push(ns.h.iter().map(|v| 2.0 * v).collect::<Vec<f32>>());
            caches.push(cache);
            state = ns;
        }
        let mut ws = LstmWorkspace::for_layer(&layer);
        let (mut dh_next, mut dc_next) = (vec![0.0f32; 3], vec![0.0f32; 3]);
        let (mut dx, mut dh_prev, mut dc_prev) =
            (vec![0.0f32; 2], vec![0.0f32; 3], vec![0.0f32; 3]);
        for t in (0..xs.len()).rev() {
            layer.step_backward_into(
                &caches[t],
                &dhs[t],
                &dh_next,
                &dc_next,
                &mut ws,
                &mut dx,
                &mut dh_prev,
                &mut dc_prev,
            );
            mem::swap(&mut dh_next, &mut dh_prev);
            mem::swap(&mut dc_next, &mut dc_prev);
        }

        // Numerical check on a sample of wx, wh, and b entries.
        let eps = 1e-3f32;
        let checks: Vec<(usize, usize, char)> = vec![
            (0, 0, 'x'),
            (5, 1, 'x'),
            (11, 0, 'x'),
            (0, 0, 'h'),
            (7, 2, 'h'),
            (2, 0, 'b'),
            (9, 0, 'b'),
        ];
        for (r, c, kind) in checks {
            let analytic = match kind {
                'x' => f64::from(layer.gwx.get(r, c)),
                'h' => f64::from(layer.gwh.get(r, c)),
                _ => f64::from(layer.gb[r]),
            };
            let mut perturbed = layer.clone();
            match kind {
                'x' => {
                    let v = perturbed.wx.get(r, c);
                    perturbed.wx.set(r, c, v + eps);
                }
                'h' => {
                    let v = perturbed.wh.get(r, c);
                    perturbed.wh.set(r, c, v + eps);
                }
                _ => perturbed.b[r] += eps,
            }
            let lp = forward_loss(&perturbed);
            match kind {
                'x' => {
                    let v = perturbed.wx.get(r, c);
                    perturbed.wx.set(r, c, v - 2.0 * eps);
                }
                'h' => {
                    let v = perturbed.wh.get(r, c);
                    perturbed.wh.set(r, c, v - 2.0 * eps);
                }
                _ => perturbed.b[r] -= 2.0 * eps,
            }
            let lm = forward_loss(&perturbed);
            let numeric = (lp - lm) / (2.0 * f64::from(eps));
            assert!(
                (analytic - numeric).abs() < 2e-2 * (1.0 + numeric.abs()),
                "grad mismatch {kind}[{r},{c}]: analytic {analytic} vs numeric {numeric}"
            );
        }
    }

    #[test]
    fn stack_backward_runs_and_accumulates() {
        let mut rng = seeded(9);
        let mut stack = LstmStack::new(2, &[4, 3], &mut rng);
        stack.zero_grad();
        let mut states = stack.zero_state();
        let mut ws = stack.workspace();
        let mut caches: Vec<StackCache> = (0..5).map(|_| stack.new_cache()).collect();
        for (t, cache) in caches.iter_mut().enumerate() {
            stack.step_into(&[t as f32 * 0.1, -0.2], &mut states, &mut ws, cache);
            assert_eq!(states[1].h.len(), 3);
        }
        stack.backward_into(&caches, &vec![vec![1.0; 3]; 5], &mut ws);
        let g0 = stack.layers()[0].gwx.sq_norm();
        let g1 = stack.layers()[1].gwx.sq_norm();
        assert!(g0 > 0.0, "gradient must reach the bottom layer");
        assert!(g1 > 0.0);
    }
}
