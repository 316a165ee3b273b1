//! Batched multi-stream inference sessions.
//!
//! The iBox paper concedes that deep-model inference is too slow for
//! line-rate emulation: stepping each connection on its own runs one
//! matvec per packet per connection, so N concurrent connections pay for
//! the weight matrices N times per packet wave. An [`InferenceSession`]
//! owns N per-connection LSTM states in a struct-of-arrays layout —
//! contiguous `[n_streams × hidden]` h/c planes and fused
//! `[n_streams × 4H]` gate planes per layer — and advances every active
//! stream with **one matmul per weight matrix per layer**
//! ([`crate::matrix::Mat::matmul_into`] / `matmul_acc`), amortizing each
//! weight row across all live connections.
//!
//! ## Determinism
//!
//! The batched kernels reuse the canonical `dot4` summation order: every
//! output element is computed from exactly the operands the single-stream
//! kernels would use, in the same order, regardless of how many streams
//! share the session or which mask is active. The fused per-stream gate
//! update replays [`crate::lstm::Lstm::step_into`]'s arithmetic
//! element-for-element (the gate and cell loops are elementwise, so fusing
//! them is reassociation-free). Consequently `step_batch` with K active
//! streams is **bitwise identical** to K independent sequential unrolls
//! ([`SequenceModel::predict_open_loop`], which shares nothing with this
//! module but the scalar `dot4`/`sigmoid` helpers) — a property the proptests in
//! `tests/props.rs` pin down, including across mid-run slot release and
//! reuse.
//!
//! ## Slot lifecycle
//!
//! [`InferenceSession::acquire_slot`] hands out the lowest free slot and
//! zeroes its state planes; [`InferenceSession::release_slot`] frees it.
//! Drivers that process more streams than slots acquire replacements in
//! deterministic index order, so results never depend on scheduling.
//! Sessions recycle through a thread-local pool
//! ([`InferenceSession::recycled`] / [`InferenceSession::recycle`]) so
//! per-worker replay loops are allocation-free across runs, mirroring the
//! sim engine's event-heap recycling.

use std::cell::RefCell;

use rand::rngs::StdRng;
use rand::Rng;

use crate::init::seeded;
use crate::matrix::vecops::{add_assign, sigmoid};
use crate::model::{Prediction, SequenceModel};

/// A batched multi-stream inference session over one [`SequenceModel`].
///
/// Owns `n_slots` per-connection recurrent states in struct-of-arrays
/// layout; holds no weights, so one session serves any model of the same
/// shape. See the module docs for layout, determinism, and lifecycle.
#[derive(Debug)]
pub struct InferenceSession {
    n: usize,
    input_size: usize,
    /// Per layer `(input_width, hidden_width)` — the shape key.
    dims: Vec<(usize, usize)>,
    /// Per layer `[n × H_l]` hidden plane.
    h: Vec<Vec<f32>>,
    /// Per layer `[n × H_l]` cell plane.
    c: Vec<Vec<f32>>,
    /// Per layer `[n × 4H_l]` fused gate plane.
    z: Vec<Vec<f32>>,
    active: Vec<bool>,
    /// Head output planes, `[n]` each.
    mus: Vec<f32>,
    vars: Vec<f32>,
    ps: Vec<f32>,
    preds: Vec<Prediction>,
}

thread_local! {
    /// Recycled session storage: a finished replay stashes its session
    /// here and the next same-shaped replay on the same worker thread
    /// adopts it, so batch sweeps stop re-growing the planes from scratch
    /// each run. Determinism is unaffected — adopted sessions are fully
    /// deactivated and slots are zeroed on acquire.
    static SESSION_POOL: RefCell<Option<InferenceSession>> = const { RefCell::new(None) };
}

impl InferenceSession {
    /// A fresh session with `n_slots` all-free stream slots shaped for
    /// `model`.
    pub fn new(model: &SequenceModel, n_slots: usize) -> Self {
        assert!(n_slots > 0, "session needs at least one slot");
        let layers = model.stack().layers();
        let dims: Vec<(usize, usize)> =
            layers.iter().map(|l| (l.input_size(), l.hidden_size())).collect();
        Self {
            n: n_slots,
            input_size: model.config().input_size,
            h: dims.iter().map(|&(_, h)| vec![0.0; n_slots * h]).collect(),
            c: dims.iter().map(|&(_, h)| vec![0.0; n_slots * h]).collect(),
            z: dims.iter().map(|&(_, h)| vec![0.0; n_slots * 4 * h]).collect(),
            dims,
            active: vec![false; n_slots],
            mus: vec![0.0; n_slots],
            vars: vec![0.0; n_slots],
            ps: vec![0.0; n_slots],
            preds: vec![Prediction { mu: 0.0, var: 0.0, p_loss: 0.0 }; n_slots],
        }
    }

    /// A session for `model`, adopting the thread-local recycled one when
    /// its shape matches (otherwise equivalent to [`InferenceSession::new`]).
    pub fn recycled(model: &SequenceModel, n_slots: usize) -> Self {
        let want: Vec<(usize, usize)> =
            model.stack().layers().iter().map(|l| (l.input_size(), l.hidden_size())).collect();
        let hit = SESSION_POOL.with(|p| {
            let mut p = p.borrow_mut();
            match p.take() {
                Some(s) if s.n == n_slots && s.dims == want => Some(s),
                other => {
                    *p = other;
                    None
                }
            }
        });
        match hit {
            Some(mut s) => {
                s.active.fill(false);
                s
            }
            None => Self::new(model, n_slots),
        }
    }

    /// Stash this session in the thread-local pool for the next
    /// same-shaped replay on this thread.
    pub fn recycle(self) {
        SESSION_POOL.with(|p| *p.borrow_mut() = Some(self));
    }

    /// Number of stream slots.
    pub fn n_slots(&self) -> usize {
        self.n
    }

    /// Whether slot `s` currently holds a live stream.
    pub fn is_active(&self, s: usize) -> bool {
        self.active[s]
    }

    /// Whether any slot is live.
    pub fn any_active(&self) -> bool {
        self.active.iter().any(|a| *a)
    }

    /// Claim the lowest free slot, zeroing its recurrent state. Returns
    /// `None` when every slot is live.
    pub fn acquire_slot(&mut self) -> Option<usize> {
        let s = self.active.iter().position(|a| !*a)?;
        self.active[s] = true;
        for (l, &(_, h)) in self.dims.iter().enumerate() {
            self.h[l][s * h..(s + 1) * h].fill(0.0);
            self.c[l][s * h..(s + 1) * h].fill(0.0);
        }
        self.preds[s] = Prediction { mu: 0.0, var: 0.0, p_loss: 0.0 };
        Some(s)
    }

    /// Release slot `s`; its planes are skipped by every kernel until the
    /// slot is re-acquired (and re-zeroed).
    pub fn release_slot(&mut self, s: usize) {
        self.active[s] = false;
    }

    /// Advance every active stream one step and return the per-slot
    /// predictions (entries for inactive slots are stale and must be
    /// ignored).
    ///
    /// `xs` is a `[n_slots × input_size]` feature plane, row per slot.
    /// One `matmul` per weight matrix per layer; allocation-free; bitwise
    /// identical per stream to [`SequenceModel::predict_open_loop`].
    pub fn step_batch(&mut self, model: &SequenceModel, xs: &[f32]) -> &[Prediction] {
        let n = self.n;
        assert_eq!(xs.len(), n * self.input_size, "input plane mismatch");
        let layers = model.stack().layers();
        assert_eq!(layers.len(), self.dims.len(), "model shape mismatch");
        for (l, layer) in layers.iter().enumerate() {
            let hs = self.dims[l].1;
            debug_assert_eq!(layer.hidden_size(), hs, "model shape mismatch");
            // z = Wx·x + Wh·h_prev + b per active stream — the exact
            // kernel order of Lstm::step_into, batched.
            {
                let z_l = &mut self.z[l];
                if l == 0 {
                    layer.wx.matmul_into(xs, z_l, &self.active);
                } else {
                    layer.wx.matmul_into(&self.h[l - 1], z_l, &self.active);
                }
                layer.wh.matmul_acc(&self.h[l], z_l, &self.active);
                for (s, zb) in z_l.chunks_exact_mut(4 * hs).enumerate() {
                    if self.active[s] {
                        add_assign(zb, &layer.b);
                    }
                }
            }
            // Fused gate + cell update. Lstm::step_into computes all four
            // gates for every k, then the cell/hidden update for every k;
            // both loops are elementwise in k, so the fused per-k form
            // performs the identical operation sequence per element.
            let z_l = &self.z[l];
            let (h_l, c_l) = (&mut self.h[l], &mut self.c[l]);
            for s in 0..n {
                if !self.active[s] {
                    continue;
                }
                let zb = &z_l[s * 4 * hs..(s + 1) * 4 * hs];
                let hb = &mut h_l[s * hs..(s + 1) * hs];
                let cb = &mut c_l[s * hs..(s + 1) * hs];
                for k in 0..hs {
                    let i = sigmoid(zb[k]);
                    let f = sigmoid(zb[hs + k]);
                    let g = zb[2 * hs + k].tanh();
                    let o = sigmoid(zb[3 * hs + k]);
                    let cell = f * cb[k] + i * g;
                    cb[k] = cell;
                    hb[k] = o * cell.tanh();
                }
            }
        }
        let top = &self.h[self.dims.len() - 1];
        model.delay_head().forward_batch_into(top, &mut self.mus, &mut self.vars, &self.active);
        match model.loss_head() {
            Some(head) => head.forward_batch_into(top, &mut self.ps, &self.active),
            None => self.ps.fill(0.0),
        }
        for s in 0..n {
            if self.active[s] {
                self.preds[s] =
                    Prediction { mu: self.mus[s], var: self.vars[s], p_loss: self.ps[s] };
            }
        }
        &self.preds
    }
}

/// One stream of a batched closed-loop prediction: its feature rows and an
/// optional per-stream sampling seed (`None` feeds back the clamped mean,
/// matching [`SequenceModel::predict_closed_loop_clamped`]).
#[derive(Debug, Clone, Copy)]
pub struct ClosedLoopStream<'a> {
    /// Feature rows, one per packet.
    pub inputs: &'a [Vec<f32>],
    /// Box–Muller sampling seed (as in
    /// [`SequenceModel::predict_closed_loop_sampled`]); `None` disables
    /// sampling for this stream.
    pub sample_seed: Option<u64>,
}

impl SequenceModel {
    /// Batched closed-loop prediction: drive every stream through one
    /// [`InferenceSession`] of at most `max_streams` slots, feeding each
    /// stream's previous (sampled, clamped) delay mean back into its
    /// `feedback_idx` column.
    ///
    /// Streams are assigned to slots in index order; when a stream ends,
    /// its slot is released and the next pending stream acquires the
    /// lowest free slot — fully deterministic, and **bitwise identical**
    /// per stream to running
    /// [`SequenceModel::predict_closed_loop_sampled`] /
    /// [`SequenceModel::predict_closed_loop_clamped`] one stream at a
    /// time. The session is recycled through the thread-local pool.
    pub fn predict_closed_loop_batch(
        &self,
        streams: &[ClosedLoopStream<'_>],
        feedback_idx: usize,
        clamp: (f32, f32),
        max_streams: usize,
    ) -> Vec<Vec<Prediction>> {
        let input_size = self.config().input_size;
        assert!(feedback_idx < input_size, "feedback index out of range");
        assert!(clamp.0 <= clamp.1, "clamp range inverted");
        let mut out: Vec<Vec<Prediction>> =
            streams.iter().map(|s| Vec::with_capacity(s.inputs.len())).collect();
        let n = max_streams.max(1).min(streams.len().max(1));
        let mut session = InferenceSession::recycled(self, n);
        let mut xs = vec![0.0f32; n * input_size];
        let mut slot_stream = vec![usize::MAX; n];
        let mut slot_rng: Vec<Option<StdRng>> = (0..n).map(|_| None).collect();
        let mut preds: Vec<Prediction> = Vec::with_capacity(n);
        let mut finished: Vec<usize> = Vec::with_capacity(n);
        let mut next = 0usize;
        loop {
            // Acquire pending streams onto free slots: streams in index
            // order, lowest free slot first. Empty streams complete
            // immediately without occupying a slot.
            while next < streams.len() {
                if streams[next].inputs.is_empty() {
                    next += 1;
                    continue;
                }
                let Some(s) = session.acquire_slot() else { break };
                slot_stream[s] = next;
                slot_rng[s] = streams[next].sample_seed.map(seeded);
                next += 1;
            }
            if !session.any_active() {
                break;
            }
            // Stage each live stream's next feature row, substituting the
            // previous prediction into the feedback column (t = 0 uses the
            // provided value as-is, as in closed_loop_impl).
            for s in 0..n {
                if !session.is_active(s) {
                    continue;
                }
                let st = slot_stream[s];
                let t = out[st].len();
                let row = &mut xs[s * input_size..(s + 1) * input_size];
                row.copy_from_slice(&streams[st].inputs[t]);
                if t > 0 {
                    row[feedback_idx] = out[st][t - 1].mu;
                }
            }
            preds.clear();
            preds.extend_from_slice(session.step_batch(self, &xs));
            finished.clear();
            for s in 0..n {
                if !session.is_active(s) {
                    continue;
                }
                let st = slot_stream[s];
                let mut p = preds[s];
                if let Some(r) = &mut slot_rng[s] {
                    // Box–Muller draw, identical to closed_loop_impl.
                    let u1: f32 = r.random::<f32>().max(1e-12);
                    let u2: f32 = r.random::<f32>();
                    let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos();
                    p.mu += p.var.sqrt() * z;
                }
                p.mu = p.mu.clamp(clamp.0, clamp.1);
                out[st].push(p);
                if out[st].len() == streams[st].inputs.len() {
                    finished.push(s);
                }
            }
            for &s in &finished {
                session.release_slot(s);
                slot_rng[s] = None;
            }
        }
        session.recycle();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SequenceModelConfig;

    fn model(input: usize, hidden: &[usize], loss: bool) -> SequenceModel {
        SequenceModel::new(SequenceModelConfig {
            input_size: input,
            hidden_sizes: hidden.to_vec(),
            predict_loss: loss,
            seed: 11,
        })
    }

    fn rows(n: usize, width: usize, salt: u64) -> Vec<Vec<f32>> {
        (0..n)
            .map(|t| {
                (0..width)
                    .map(|k| ((t as f32 + 1.3) * (k as f32 + 0.7) + salt as f32).sin())
                    .collect()
            })
            .collect()
    }

    #[test]
    fn step_batch_matches_sequential_open_loop_bitwise() {
        let m = model(3, &[8, 6], true);
        let n = 4;
        let inputs: Vec<Vec<Vec<f32>>> = (0..n).map(|s| rows(20, 3, s as u64 * 100)).collect();
        let mut session = InferenceSession::new(&m, n);
        for s in 0..n {
            assert_eq!(session.acquire_slot(), Some(s));
        }
        let mut xs = vec![0.0f32; n * 3];
        let mut batched: Vec<Vec<Prediction>> = vec![Vec::new(); n];
        for t in 0..20 {
            for (s, stream) in inputs.iter().enumerate() {
                xs[s * 3..(s + 1) * 3].copy_from_slice(&stream[t]);
            }
            for (s, p) in session.step_batch(&m, &xs).iter().enumerate() {
                batched[s].push(*p);
            }
        }
        for (s, stream) in inputs.iter().enumerate() {
            assert_eq!(batched[s], m.predict_open_loop(stream), "stream {s}");
        }
    }

    #[test]
    fn released_slots_are_skipped_and_rezeroed() {
        let m = model(2, &[5], false);
        let mut session = InferenceSession::new(&m, 2);
        assert_eq!(session.acquire_slot(), Some(0));
        assert_eq!(session.acquire_slot(), Some(1));
        let row = vec![0.4f32; 2];
        let xs = [row.clone(), row.clone()].concat();
        session.step_batch(&m, &xs);
        session.release_slot(0);
        // A fresh acquire starts from the zero state, matching step one of
        // a fresh sequential unroll; the untouched slot is on step two.
        assert_eq!(session.acquire_slot(), Some(0));
        let batched = session.step_batch(&m, &xs).to_vec();
        let sequential = m.predict_open_loop(&[row.clone(), row]);
        assert_eq!(batched, sequential);
    }

    #[test]
    fn closed_loop_batch_matches_sequential_unroll() {
        let m = model(4, &[6, 6], true);
        let clamp = (-2.5f32, 2.5);
        let inputs: Vec<Vec<Vec<f32>>> = (0..5).map(|s| rows(7 + s, 4, s as u64)).collect();
        let streams: Vec<ClosedLoopStream<'_>> = inputs
            .iter()
            .enumerate()
            .map(|(s, i)| ClosedLoopStream {
                inputs: i,
                sample_seed: if s % 2 == 0 { Some(40 + s as u64) } else { None },
            })
            .collect();
        // Two slots for five streams forces mid-run release/reacquire.
        let batch = m.predict_closed_loop_batch(&streams, 1, clamp, 2);
        for (s, stream) in streams.iter().enumerate() {
            let seq = match stream.sample_seed {
                Some(seed) => m.predict_closed_loop_sampled(stream.inputs, 1, clamp, seed),
                None => m.predict_closed_loop_clamped(stream.inputs, 1, clamp),
            };
            assert_eq!(batch[s], seq, "stream {s}");
        }
    }

    #[test]
    fn closed_loop_batch_handles_empty_streams() {
        let m = model(2, &[4], false);
        let empty: Vec<Vec<f32>> = Vec::new();
        let full = rows(3, 2, 9);
        let streams = [
            ClosedLoopStream { inputs: &empty, sample_seed: None },
            ClosedLoopStream { inputs: &full, sample_seed: Some(3) },
        ];
        let out = m.predict_closed_loop_batch(&streams, 0, (-1.0, 1.0), 4);
        assert!(out[0].is_empty());
        assert_eq!(out[1], m.predict_closed_loop_sampled(&full, 0, (-1.0, 1.0), 3));
    }

    #[test]
    fn recycled_sessions_reset_cleanly() {
        let m = model(2, &[4], false);
        let inputs = rows(6, 2, 1);
        let streams = [ClosedLoopStream { inputs: &inputs, sample_seed: Some(5) }];
        let first = m.predict_closed_loop_batch(&streams, 0, (-3.0, 3.0), 1);
        // Second run adopts the pooled session; results must not change.
        let second = m.predict_closed_loop_batch(&streams, 0, (-3.0, 3.0), 1);
        assert_eq!(first, second);
    }
}
