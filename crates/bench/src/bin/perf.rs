//! `perf [--quick] [name…]` — the inner-layer performance contrasts as one
//! table of rows on the `paper` ledger.
//!
//! A row times two or more *arms* round-robin in one process
//! ([`Rounds`]): an optimized path and the reference it replaced, or the
//! same work at another fidelity or stage count. Its gated statistics are
//! median-of-rounds ratios between arms, in which host drift cancels; the
//! arms' absolute rates are recorded beside them and never gated. Each floor
//! the code promises is a verdict. Before timing, a row checks that its arms
//! compute the same thing and returns an error when they do not.
//!
//! * `perf` — the ledger run: every row at full scale, five repeats; writes
//!   `BENCH_perf.json` into the working directory.
//! * `perf name…` — the gate: the named rows at full scale, one repeat,
//!   checked against `./BENCH_perf.json`.
//! * `perf --quick [name…]` — a smoke; writes and gates nothing.
//!
//! Stdout is each row's tables; verdicts and failures go to stderr.

use std::hint::black_box;

use ibox::estimator::{CrossTrafficEstimate, StaticParams, DEFAULT_BIN_SECS};
use ibox::{fit_model, Fidelity, IBoxMl, IBoxMlConfig, IBoxMlSpec, IBoxNet, ModelArtifact};
use ibox::{ModelKind, ReplayOpts};
use ibox_bench::Expected::{self, Holds, KnownFailure};
use serde::Serialize;

use ibox_bench::{cell, num, Experiment, Report, Rounds, Scale, Sweep, Table};
use ibox_cc::{BbrLite, Cubic};
use ibox_ingest::{IngestConfig, OnlineCrossTraffic, OnlineStaticParams, SessionStore, Watermark};
use ibox_ml::lstm::{Lstm, LstmState, LstmWorkspace, StepCache};
use ibox_ml::matrix::Mat;
use ibox_ml::{InferenceSession, Logistic, LogisticConfig, Prediction, TrainConfig};
use ibox_ml::{SequenceModel, SequenceModelConfig};
use ibox_serve::ModelRegistry;
use ibox_sim::{CongestionControl, CrossTrafficCfg, FixedWindow, FlowConfig, PathConfig};
use ibox_sim::{PathEmulator, PathSpec, PathStage, ReorderCfg, SimOutput, SimTime, Simulation};
use ibox_stats::{ks_two_sample, percentile};
use ibox_testbed::pantheon::run_protocol;
use ibox_testbed::Profile;
use ibox_trace::{FlowTrace, PacketRecord};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Every row runs five times in a ledger run; the repeat index is its seed.
const ROWS: &[Experiment<Scale>] = &[
    Experiment { name: "train", paper: "DESIGN.md", seed: 0, sweep: 4, run: train },
    Experiment { name: "encode", paper: "DESIGN.md", seed: 0, sweep: 4, run: encode },
    Experiment { name: "infer", paper: "DESIGN.md", seed: 0, sweep: 4, run: infer },
    Experiment { name: "trace", paper: "DESIGN.md", seed: 0, sweep: 4, run: trace },
    Experiment { name: "flow", paper: "DESIGN.md", seed: 0, sweep: 4, run: flow },
    Experiment { name: "path", paper: "DESIGN.md", seed: 0, sweep: 4, run: path },
    Experiment { name: "cc", paper: "DESIGN.md", seed: 0, sweep: 4, run: cc },
    Experiment { name: "ingest", paper: "DESIGN.md", seed: 0, sweep: 4, run: ingest },
    Experiment { name: "registry", paper: "DESIGN.md", seed: 0, sweep: 4, run: registry },
    Experiment { name: "speed", paper: "§4.2", seed: 0, sweep: 4, run: speed },
];

const PERF: Table<Scale> = Table { bin: "perf", sweep: Sweep::Repeats, rows: ROWS };

/// One arm of a contrast: its name, the work items one call does, and the call.
type Arm<'a> = (String, f64, Box<dyn FnMut() + 'a>);

fn arm<'a>(name: impl Into<String>, items: f64, call: impl FnMut() + 'a) -> Arm<'a> {
    (name.into(), items, Box::new(call))
}

/// Time `arms` round-robin, and record each one's median rate in `unit`
/// per second.
fn time_arms(
    rep: &mut Report,
    title: &str,
    unit: &str,
    rounds: usize,
    mut arms: Vec<Arm>,
) -> Rounds {
    let timed = Rounds::time(rounds, arms.len(), |i| (arms[i].2)());
    let mut rows = Vec::new();
    for (i, (name, items, _)) in arms.iter().enumerate() {
        let rate = items / timed.median(i);
        rep.record(format!("{name} {unit}/s"), rate);
        rows.push(vec![name.clone(), cell(timed.median(i) * 1e3, 3), num(rate)]);
    }
    let header = ["arm", "median ms/call", &format!("{unit}/s")];
    rep.table(&format!("{title} ({rounds} interleaved rounds)"), &header, &rows);
    timed
}

/// The row's gated statistics as its last table.
fn gated(mut rep: Report) -> Result<Report, String> {
    let rows: Vec<Vec<String>> =
        rep.stats.iter().map(|s| vec![s.name.clone(), num(s.value), num(s.noise)]).collect();
    let header = ["statistic", "median", "round IQR"];
    rep.table("gated: per-round ratios of arms", &header, &rows);
    Ok(rep)
}

// ---------------------------------------------------------------------
// train: one LSTM train step through the workspace kernels vs a naive
// reference with the pre-optimization structure — a fresh allocation for
// every gate buffer and cache field each step, and plain sequential scalar
// dot products. Kept in this binary (not the library) so the library can
// never "optimize" its own baseline away.
// ---------------------------------------------------------------------

/// Layer shape of the train step (input × hidden).
const INPUT: usize = 32;
const HIDDEN: usize = 64;
/// Timesteps per train step (one TBPTT chunk).
const CHUNK: usize = 32;

fn naive_matvec(m: &Mat, v: &[f32]) -> Vec<f32> {
    let (rows, cols) = (m.rows(), m.cols());
    let mut y = vec![0.0f32; rows];
    for (r, yr) in y.iter_mut().enumerate() {
        let row = &m.data()[r * cols..(r + 1) * cols];
        let mut acc = 0.0f32;
        for (a, b) in row.iter().zip(v) {
            acc += a * b;
        }
        *yr = acc;
    }
    y
}

fn naive_matvec_t(m: &Mat, u: &[f32]) -> Vec<f32> {
    let (rows, cols) = (m.rows(), m.cols());
    let mut y = vec![0.0f32; cols];
    for (r, ur) in u.iter().enumerate().take(rows) {
        if *ur == 0.0 {
            continue;
        }
        let row = &m.data()[r * cols..(r + 1) * cols];
        for (yc, a) in y.iter_mut().zip(row) {
            *yc += ur * a;
        }
    }
    y
}

fn naive_add_outer(g: &mut [f32], u: &[f32], v: &[f32]) {
    let cols = v.len();
    for (r, ur) in u.iter().enumerate() {
        if *ur == 0.0 {
            continue;
        }
        for (c, vc) in v.iter().enumerate() {
            g[r * cols + c] += ur * vc;
        }
    }
}

fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
}

/// Per-step activations, freshly allocated every step (as the old
/// `StepCache` clone-per-step path did).
struct NaiveCache {
    x: Vec<f32>,
    h_prev: Vec<f32>,
    c_prev: Vec<f32>,
    i: Vec<f32>,
    f: Vec<f32>,
    g: Vec<f32>,
    o: Vec<f32>,
    tanh_c: Vec<f32>,
}

fn naive_step(
    l: &Lstm,
    x: &[f32],
    h_prev: &[f32],
    c_prev: &[f32],
) -> (Vec<f32>, Vec<f32>, NaiveCache) {
    let h = l.hidden_size();
    let mut z = naive_matvec(&l.wx, x);
    let zh = naive_matvec(&l.wh, h_prev);
    for (a, b) in z.iter_mut().zip(&zh) {
        *a += b;
    }
    for (a, b) in z.iter_mut().zip(&l.b) {
        *a += b;
    }
    let mut cache = NaiveCache {
        x: x.to_vec(),
        h_prev: h_prev.to_vec(),
        c_prev: c_prev.to_vec(),
        i: vec![0.0; h],
        f: vec![0.0; h],
        g: vec![0.0; h],
        o: vec![0.0; h],
        tanh_c: vec![0.0; h],
    };
    let mut h_new = vec![0.0f32; h];
    let mut c_new = vec![0.0f32; h];
    for k in 0..h {
        cache.i[k] = sigmoid(z[k]);
        cache.f[k] = sigmoid(z[h + k]);
        cache.g[k] = z[2 * h + k].tanh();
        cache.o[k] = sigmoid(z[3 * h + k]);
    }
    for k in 0..h {
        let c = cache.f[k] * cache.c_prev[k] + cache.i[k] * cache.g[k];
        c_new[k] = c;
        cache.tanh_c[k] = c.tanh();
        h_new[k] = cache.o[k] * cache.tanh_c[k];
    }
    (h_new, c_new, cache)
}

#[allow(clippy::too_many_arguments)]
fn naive_step_backward(
    l: &Lstm,
    cache: &NaiveCache,
    dh: &[f32],
    dh_next: &[f32],
    dc_next: &[f32],
    gwx: &mut [f32],
    gwh: &mut [f32],
    gb: &mut [f32],
) -> (Vec<f32>, Vec<f32>, Vec<f32>) {
    let h = l.hidden_size();
    let mut dz = vec![0.0f32; 4 * h];
    let mut dc_prev = vec![0.0f32; h];
    for k in 0..h {
        let dht = dh[k] + dh_next[k];
        let do_ = dht * cache.tanh_c[k];
        let dc = dht * cache.o[k] * (1.0 - cache.tanh_c[k] * cache.tanh_c[k]) + dc_next[k];
        let di = dc * cache.g[k];
        let df = dc * cache.c_prev[k];
        let dg = dc * cache.i[k];
        dz[k] = di * cache.i[k] * (1.0 - cache.i[k]);
        dz[h + k] = df * cache.f[k] * (1.0 - cache.f[k]);
        dz[2 * h + k] = dg * (1.0 - cache.g[k] * cache.g[k]);
        dz[3 * h + k] = do_ * cache.o[k] * (1.0 - cache.o[k]);
        dc_prev[k] = dc * cache.f[k];
    }
    naive_add_outer(gwx, &dz, &cache.x);
    naive_add_outer(gwh, &dz, &cache.h_prev);
    for (a, b) in gb.iter_mut().zip(&dz) {
        *a += b;
    }
    let dx = naive_matvec_t(&l.wx, &dz);
    let dh_prev = naive_matvec_t(&l.wh, &dz);
    (dx, dh_prev, dc_prev)
}

/// One naive train step: forward `CHUNK` timesteps with per-step
/// allocation, then backward, into freshly zeroed gradient buffers.
fn naive_train_step(l: &Lstm, xs: &[Vec<f32>]) -> f32 {
    let h = l.hidden_size();
    let mut gwx = vec![0.0f32; l.wx.len()];
    let mut gwh = vec![0.0f32; l.wh.len()];
    let mut gb = vec![0.0f32; 4 * h];
    let mut h_t = vec![0.0f32; h];
    let mut c_t = vec![0.0f32; h];
    let mut caches = Vec::new();
    for x in xs {
        let (hn, cn, cache) = naive_step(l, x, &h_t, &c_t);
        h_t = hn;
        c_t = cn;
        caches.push(cache);
    }
    let mut dh_next = vec![0.0f32; h];
    let mut dc_next = vec![0.0f32; h];
    for cache in caches.iter().rev() {
        let dh: Vec<f32> = cache.tanh_c.iter().map(|v| 2.0 * v).collect();
        let (_dx, dh_prev, dc_prev) =
            naive_step_backward(l, cache, &dh, &dh_next, &dc_next, &mut gwx, &mut gwh, &mut gb);
        dh_next = dh_prev;
        dc_next = dc_prev;
    }
    h_t.iter().sum::<f32>() + gb.iter().sum::<f32>()
}

/// Reusable buffers for the workspace train step — allocated once.
struct WorkspaceScratch {
    ws: LstmWorkspace,
    caches: Vec<StepCache>,
    state: LstmState,
    dh: Vec<f32>,
    dh_next: Vec<f32>,
    dc_next: Vec<f32>,
    dx: Vec<f32>,
    dh_prev: Vec<f32>,
    dc_prev: Vec<f32>,
}

impl WorkspaceScratch {
    fn new(l: &Lstm) -> Self {
        Self {
            ws: LstmWorkspace::for_layer(l),
            caches: (0..CHUNK).map(|_| StepCache::for_layer(l)).collect(),
            state: LstmState::zeros(l.hidden_size()),
            dh: vec![0.0; l.hidden_size()],
            dh_next: vec![0.0; l.hidden_size()],
            dc_next: vec![0.0; l.hidden_size()],
            dx: vec![0.0; l.input_size()],
            dh_prev: vec![0.0; l.hidden_size()],
            dc_prev: vec![0.0; l.hidden_size()],
        }
    }
}

/// The same train step through the workspace kernels — allocation-free
/// once `scratch` is warm.
fn workspace_train_step(l: &mut Lstm, xs: &[Vec<f32>], s: &mut WorkspaceScratch) -> f32 {
    l.zero_grad();
    s.state.reset();
    for (x, cache) in xs.iter().zip(s.caches.iter_mut()) {
        l.step_into(x, &mut s.state, &mut s.ws, cache);
    }
    s.dh_next.fill(0.0);
    s.dc_next.fill(0.0);
    for cache in s.caches.iter().rev() {
        // Same synthetic loss gradient as the naive path: 2·tanh(c).
        for (d, state_c) in s.dh.iter_mut().zip(cache.tanh_c()) {
            *d = 2.0 * state_c;
        }
        l.step_backward_into(
            cache,
            &s.dh,
            &s.dh_next,
            &s.dc_next,
            &mut s.ws,
            &mut s.dx,
            &mut s.dh_prev,
            &mut s.dc_prev,
        );
        std::mem::swap(&mut s.dh_next, &mut s.dh_prev);
        std::mem::swap(&mut s.dc_next, &mut s.dc_prev);
    }
    s.state.h.iter().sum::<f32>() + l.gb.iter().sum::<f32>()
}

fn train(scale: &Scale, _: u64) -> Result<Report, String> {
    let mut layer = Lstm::new(INPUT, HIDDEN, &mut StdRng::seed_from_u64(42));
    // The workspace step only rewrites gradients, so the naive arm's copy
    // keeps the same weights.
    let reference = layer.clone();
    let xs: Vec<Vec<f32>> = (0..CHUNK)
        .map(|t| (0..INPUT).map(|k| ((t * INPUT + k) as f32 * 0.37).sin() * 0.5).collect())
        .collect();
    let mut scratch = WorkspaceScratch::new(&layer);
    // Same math, in a different (canonical) summation order: a tolerance.
    let naive = f64::from(naive_train_step(&reference, &xs));
    let workspace = f64::from(workspace_train_step(&mut layer, &xs, &mut scratch));
    if (naive - workspace).abs() >= 1e-2 * (1.0 + naive.abs()) {
        return Err(format!("kernel mismatch: naive {naive} vs workspace {workspace}"));
    }

    const STEPS: usize = 16;
    let steps = (STEPS * CHUNK) as f64;
    let mut rep = Report::default();
    let rounds = time_arms(
        &mut rep,
        "LSTM train step, 32x64, 32-step chunk",
        "steps",
        scale.pick(5, 80),
        vec![
            arm("naive", steps, || {
                for _ in 0..STEPS {
                    black_box(naive_train_step(&reference, black_box(&xs)));
                }
            }),
            arm("workspace", steps, || {
                for _ in 0..STEPS {
                    black_box(workspace_train_step(&mut layer, black_box(&xs), &mut scratch));
                }
            }),
        ],
    );
    let speedup = rep.ratio("workspace speedup x", &rounds.ratios(0, 1));
    let claim = "the workspace kernels train at least 1.5x as fast as the naive reference";
    rep.verdict(claim, speedup >= 1.5, Holds);
    gated(rep)
}

/// A saturated 20 Mbps bottleneck with Poisson cross traffic plus random
/// loss and reordering, so a run exercises every per-packet code path (and
/// its trace carries lost records), not just clean FIFO forwarding.
fn impaired_sim(secs: u64) -> Simulation {
    let mut path = PathConfig::simple(20e6, SimTime::from_millis(20), 100_000);
    path.random_loss = 0.002;
    path.reorder = Some(ReorderCfg {
        probability: 0.005,
        extra_min: SimTime::from_millis(1),
        extra_max: SimTime::from_millis(6),
    });
    let mut sim = saturated(path, secs, false);
    sim.add_cross_traffic(CrossTrafficCfg::Poisson {
        mean_rate_bps: 2e6,
        pkt_size: 1200,
        start: SimTime::ZERO,
        stop: SimTime::from_secs(secs),
    });
    sim
}

/// One fixed-window flow that keeps `path` saturated for `secs`.
fn saturated(path: PathConfig, secs: u64, timeline: bool) -> Simulation {
    let mut sim = Simulation::new(path, SimTime::from_secs(secs), 1);
    sim.set_timeline(timeline);
    let flow = FlowConfig::bulk("main", SimTime::from_secs(secs));
    sim.add_flow(flow, Box::new(FixedWindow::new(200.0)));
    sim
}

fn sent(out: &SimOutput) -> Result<f64, String> {
    match out.flow_stats.first() {
        Some(flow) if flow.sent > 0 => Ok(flow.sent as f64),
        _ => Err("the saturated flow sent no packets".into()),
    }
}

/// JSON encode of a replay trace: the streaming `Serialize::write_json`
/// path every reply takes vs the value-tree reference (`to_value()` first,
/// then render), which is what `to_string` did before the writer existed.
fn encode(scale: &Scale, _: u64) -> Result<Report, String> {
    let out = impaired_sim(scale.pick(2, 10) as u64).run();
    for counter in
        ["sim.cross_packets_emitted", "sim.packets_dropped_random", "sim.packets_reordered"]
    {
        if out.metrics.counters.get(counter).copied().unwrap_or(0) == 0 {
            return Err(format!("the impaired scenario never drove {counter}"));
        }
    }
    let trace = out.traces.into_iter().next().ok_or("the impaired scenario recorded no flow")?;
    if trace.lost_count() == 0 {
        return Err("the encoded trace carries no lost records".into());
    }
    let streamed = serde_json::to_string(&trace).map_err(|e| e.to_string())?;
    if serde_json::to_string(&trace.to_value()).map_err(|e| e.to_string())? != streamed {
        return Err("streamed and tree-rendered traces differ".into());
    }

    let mb = streamed.len() as f64 / 1e6;
    let mut rep = Report::default();
    let rounds = time_arms(
        &mut rep,
        &format!("JSON encode of a {}-record trace", trace.len()),
        "MB",
        scale.pick(5, 60),
        vec![
            arm("value tree", mb, || {
                let _ = black_box(serde_json::to_string(&black_box(&trace).to_value()));
            }),
            arm("streamed", mb, || {
                let _ = black_box(serde_json::to_string(black_box(&trace)));
            }),
        ],
    );
    let speedup = rep.ratio("streamed speedup x", &rounds.ratios(0, 1));
    let claim = "the streamed encode is at least 3x as fast as the value-tree reference";
    rep.verdict(claim, speedup >= 3.0, WARM_HEAP);
    gated(rep)
}

/// The value-tree arm's tens of thousands of small allocations run faster
/// once the process heap has grown, as in a long-running daemon.
const WARM_HEAP: Expected =
    KnownFailure("holds early in a fresh process, not once the other rows have grown the heap");

/// Concurrent connections driven through one inference session.
const N_STREAMS: usize = 16;
/// Packet-steps per stream per call.
const INFER_STEPS: usize = 128;
/// Feature width of the replay path (delay/loss/send features).
const FEATURES: usize = 6;

/// The pre-redesign replay hot path, reproduced faithfully: per packet per
/// stream, a fresh stack workspace and training cache, one matvec chain,
/// and the head `forward`s.
fn run_legacy(model: &SequenceModel, planes: &[Vec<f32>]) -> Vec<Prediction> {
    let mut states: Vec<_> = (0..N_STREAMS).map(|_| model.stack().zero_state()).collect();
    let mut last = Vec::new();
    for plane in planes {
        last.clear();
        for (s, state) in states.iter_mut().enumerate() {
            let x = &plane[s * FEATURES..(s + 1) * FEATURES];
            let mut ws = model.stack().workspace();
            let mut cache = model.stack().new_cache();
            model.stack().step_into(x, state, &mut ws, &mut cache);
            let top = &state[state.len() - 1].h;
            let g = model.delay_head().forward(top);
            let p_loss = model.loss_head().map_or(0.0, |h| h.forward(top));
            last.push(Prediction { mu: g.mu, var: g.var, p_loss });
        }
    }
    last
}

/// Every plane through the batched session; the last step's predictions.
fn run_batched(
    model: &SequenceModel,
    session: &mut InferenceSession,
    planes: &[Vec<f32>],
) -> Vec<Prediction> {
    let mut last = Vec::new();
    for plane in planes {
        let preds = session.step_batch(model, plane);
        last.clear();
        last.extend_from_slice(preds);
    }
    last
}

/// A session with `slots` slots, every one held — the steady replay state.
fn held_session(model: &SequenceModel, slots: usize) -> Result<InferenceSession, String> {
    let mut session = InferenceSession::new(model, slots);
    for _ in 0..slots {
        session.acquire_slot().ok_or("a fresh session ran out of slots")?;
    }
    Ok(session)
}

/// iBoxML replay inference: one batched `InferenceSession` of 16 slots vs
/// the pre-redesign path. The batched win is the allocation-free session
/// plus fused matmuls — about 1.2–1.4x, because both arms pin sigmoid/tanh
/// to the scalar libm calls, which are over half of every packet's cost.
fn infer(scale: &Scale, _: u64) -> Result<Report, String> {
    let model = SequenceModel::new(SequenceModelConfig {
        input_size: FEATURES,
        hidden_sizes: vec![16],
        predict_loss: true,
        seed: 11,
    });
    let planes: Vec<Vec<f32>> = (0..INFER_STEPS)
        .map(|t| {
            (0..N_STREAMS * FEATURES)
                .map(|k| ((t as f32 + 1.3) * (k as f32 + 0.7)).sin() * 0.5)
                .collect()
        })
        .collect();
    let mut session = held_session(&model, N_STREAMS)?;
    if run_batched(&model, &mut session, &planes) != run_legacy(&model, &planes) {
        return Err("batched inference differs from the pre-redesign path".into());
    }

    const REPS: usize = 4;
    let packets = (REPS * N_STREAMS * INFER_STEPS) as f64;
    let mut rep = Report::default();
    let rounds = time_arms(
        &mut rep,
        "iBoxML inference, 1x16 LSTM, 16 streams",
        "packets",
        scale.pick(5, 60),
        vec![
            arm("legacy", packets, || {
                for _ in 0..REPS {
                    black_box(run_legacy(&model, black_box(&planes)));
                }
            }),
            arm("batched", packets, || {
                for _ in 0..REPS {
                    black_box(run_batched(&model, &mut session, black_box(&planes)));
                }
            }),
        ],
    );
    let speedup = rep.ratio("batched speedup x", &rounds.ratios(0, 1));
    let claim = "the batched session infers at least 1.1x as fast as the pre-redesign path";
    rep.verdict(claim, speedup >= 1.1, Holds);
    gated(rep)
}

/// The packet engine with trace collection off, with only the root span
/// (what a traced request records), and with the timeline on top; plus the
/// impaired scenario untraced, for its absolute rate.
fn trace(scale: &Scale, _: u64) -> Result<Report, String> {
    use ibox_obs::trace::{next_trace_id, set_enabled, start_root};
    let secs = scale.pick(3, 10) as u64;
    let path = || PathConfig::simple(20e6, SimTime::from_millis(20), 100_000);
    let packets = sent(&saturated(path(), secs, false).run())?;
    let impaired = sent(&impaired_sim(secs).run())?;
    set_enabled(true);
    let traced = start_root(next_trace_id(), "bench-sim").is_some();
    set_enabled(false);
    if !traced {
        return Err("trace collection did not start a root span".into());
    }
    let run = |timeline: Option<bool>| {
        set_enabled(timeline.is_some());
        let _scope = start_root(next_trace_id(), "bench-sim");
        black_box(saturated(path(), secs, timeline == Some(true)).run());
    };

    const REPS: usize = 2;
    let (packets, impaired) = (REPS as f64 * packets, REPS as f64 * impaired);
    let mut rep = Report::default();
    let rounds = time_arms(
        &mut rep,
        &format!("packet engine, saturated 20 Mbps, {secs} s"),
        "packets",
        scale.pick(5, 100),
        vec![
            arm("untraced", packets, || (0..REPS).for_each(|_| run(None))),
            arm("root span", packets, || (0..REPS).for_each(|_| run(Some(false)))),
            arm("span + timeline", packets, || (0..REPS).for_each(|_| run(Some(true)))),
            arm("impaired, untraced", impaired, || {
                set_enabled(false);
                for _ in 0..REPS {
                    black_box(impaired_sim(secs).run());
                }
            }),
        ],
    );
    set_enabled(false);
    let pct = |arm: usize| -> Vec<f64> {
        rounds.ratios(arm, 0).iter().map(|r| (r - 1.0) * 100.0).collect()
    };
    let overhead = rep.ratio("root span overhead %", &pct(1));
    // Its cost scales with the sample interval, not the packet rate.
    rep.record("timeline overhead %", percentile(&pct(2), 0.5).unwrap_or(f64::NAN));
    rep.verdict("span collection costs under 5 % of engine time", overhead < 5.0, Holds);
    gated(rep)
}

/// The replay scenario of `flow` and `path`: one protocol over an iBoxNet
/// fitted on testbed seed 1, the fastest Ethernet instance (~80 Mbps, ~8 %
/// Poisson cross) — the most packets per simulated second.
const PROTOCOL: &str = "cubic";
const REPLAY_SEED: u64 = 7;

fn fitted_ethernet(secs: u64) -> ibox::FittedModel {
    let duration = SimTime::from_secs(secs);
    let train = run_protocol(&Profile::Ethernet.sample(1, duration), PROTOCOL, duration, 1);
    fit_model(&ModelKind::IBoxNet, &train)
}

/// Replay at every fidelity through `FittedModel::simulate_with`, what
/// `ibox replay --fidelity` and `POST /replay` run: flow and hybrid must be
/// fast *and* faithful to the packet engine's delay distribution.
fn flow(scale: &Scale, _: u64) -> Result<Report, String> {
    let secs = scale.pick(10, 30) as u64;
    let model = fitted_ethernet(secs);
    let replay = |fidelity: Fidelity| {
        let opts = ReplayOpts { fidelity, ..Default::default() };
        model.simulate_with(PROTOCOL, SimTime::from_secs(secs), REPLAY_SEED, opts)
    };
    let traces = Fidelity::ALL.map(replay);
    let delays = |t: &FlowTrace| t.delivered().filter_map(|r| r.delay_ms()).collect::<Vec<_>>();
    let reference = delays(&traces[0]);
    if reference.len() < 500 {
        let n = reference.len();
        return Err(format!("the packet replay delivered {n} packets, too few to compare"));
    }

    // Replays per call, so that no arm's call is much shorter than another's.
    const REPS: [usize; 3] = [1, 4, 2];
    let mut rep = Report::default();
    let arms = Fidelity::ALL.into_iter().zip(REPS).zip(&traces).map(|((fidelity, reps), t)| {
        let call = move || {
            for _ in 0..reps {
                black_box(replay(fidelity));
            }
        };
        arm(fidelity.as_str(), (reps * t.len()) as f64, call)
    });
    let title = format!("iBoxNet replay, {PROTOCOL}, {secs} s");
    let rounds = time_arms(&mut rep, &title, "packets", scale.pick(3, 20), arms.collect());
    let speedup = |arm: usize| -> Vec<f64> {
        rounds.ratios(0, arm).iter().map(|r| r * REPS[arm] as f64).collect()
    };
    let flow_x = rep.ratio("flow speedup x", &speedup(1));
    rep.ratio("hybrid speedup x", &speedup(2));
    let [flow_ks, hybrid_ks] =
        [1, 2].map(|arm| ks_two_sample(&reference, &delays(&traces[arm])).statistic);
    rep.stat("flow delay KS D", flow_ks);
    rep.stat("hybrid delay KS D", hybrid_ks);
    rep.verdict("flow replay is at least 10x as fast as the packet engine", flow_x >= 10.0, Holds);
    let claim = "flow and hybrid delays are within KS 0.1 of the packet engine's";
    rep.verdict(claim, flow_ks <= 0.1 && hybrid_ks <= 0.1, Holds);
    gated(rep)
}

/// A k-stage constant-rate FIFO chain: the 12 Mbps bottleneck first, then
/// faster transit hops. Constant rates and FIFO keep it on the fluid fast
/// path at flow fidelity, so both engines time the same scenario.
fn chain(stages: usize) -> PathSpec {
    let hops = [(12e6, 10, 150_000), (40e6, 4, 300_000), (80e6, 2, 500_000)];
    PathSpec::from_stages(
        hops[..stages]
            .iter()
            .map(|&(rate, ms, buffer)| {
                PathStage::new(PathConfig::simple(rate, SimTime::from_millis(ms), buffer))
            })
            .collect(),
    )
}

/// Composed paths: each added stage may cost at most a bounded constant
/// factor — stages are independent queues, so 2.5x leaves room for cache
/// effects without letting the chain loop go quadratic.
fn path(scale: &Scale, _: u64) -> Result<Report, String> {
    let secs = scale.pick(8, 20) as u64;
    let model = fitted_ethernet(secs);
    let replay = |fidelity: Fidelity, stages: usize| {
        let opts = ReplayOpts { fidelity, path: Some(chain(stages)), ..Default::default() };
        model.simulate_with(PROTOCOL, SimTime::from_secs(secs), REPLAY_SEED, opts)
    };
    let arms = [Fidelity::Packet, Fidelity::Flow].map(|f| [1, 2, 3].map(|k| (f, k))).concat();
    let names: Vec<String> = arms.iter().map(|(f, k)| format!("{f}, {k} stage")).collect();
    let mut packets = Vec::new();
    for &(fidelity, stages) in &arms {
        let n = replay(fidelity, stages).len();
        if n <= 200 {
            return Err(format!("the {fidelity} {stages}-stage replay has {n} packets"));
        }
        packets.push(n as f64);
    }

    let mut rep = Report::default();
    // Replays per call, so that no arm's call is much shorter than another's;
    // a slowdown compares two stage counts of one fidelity.
    let reps = |f: Fidelity| if f == Fidelity::Flow { 8 } else { 1 };
    let timed = arms.iter().zip(names).zip(&packets).map(|((&(f, k), name), n)| {
        let call = move || {
            for _ in 0..reps(f) {
                black_box(replay(f, k));
            }
        };
        arm(name, reps(f) as f64 * n, call)
    });
    let title = format!("composed-path replay, {PROTOCOL}, {secs} s");
    let rounds = time_arms(&mut rep, &title, "packets", scale.pick(3, 30), timed.collect());
    let mut worst: f64 = 0.0;
    for (i, &(fidelity, stages)) in arms.iter().enumerate().filter(|(_, (_, k))| *k > 1) {
        let name = format!("{fidelity} {}->{stages} stage slowdown x", stages - 1);
        let slowdown = rep.ratio(name, &rounds.ratios(i, i - 1));
        worst = worst.max(slowdown);
    }
    let claim = "each added stage slows packet and flow replay by at most 2.5x";
    rep.verdict(claim, worst <= 2.5, Holds);
    gated(rep)
}

/// The request benchmark's wired path: 80 Mbps, 5 ms, an 80 KB buffer and
/// 4 Mbps of Poisson cross traffic, where a 10 s window holds ≈ 70 k acks.
fn wired(secs: u64) -> PathEmulator {
    let duration = SimTime::from_secs(secs);
    let path = PathConfig::simple(80e6, SimTime::from_millis(5), 80_000);
    let cross = CrossTrafficCfg::Poisson {
        mean_rate_bps: 4e6,
        pkt_size: 1200,
        start: SimTime::ZERO,
        stop: duration,
    };
    PathEmulator::from_spec(PathSpec::single(path), duration).with_cross_traffic(cross)
}

type NewSender = fn() -> Box<dyn CongestionControl>;

/// Sender cost in the packet engine: BBR-lite against Cubic per sent
/// packet on the wired path. BBR-lite's windowed max-bandwidth and min-RTT
/// filters are amortised O(1) per ack; filters that rescan their 10 s
/// windows on every ack cost ≈ 120x Cubic per packet here.
fn cc(scale: &Scale, _: u64) -> Result<Report, String> {
    let secs = scale.pick(2, 10) as u64;
    let emu = wired(secs);
    let senders: [(&str, NewSender); 2] =
        [("bbr", || Box::new(BbrLite::new())), ("cubic", || Box::new(Cubic::new()))];
    let mut packets = Vec::new();
    for (name, sender) in senders {
        packets.push(sent(&emu.run_sender(sender(), name, REPLAY_SEED))?);
    }

    let mut rep = Report::default();
    let emu = &emu;
    let arms = senders.iter().zip(&packets).map(|(&(name, sender), &n)| {
        arm(name, n, move || {
            black_box(emu.run_sender(sender(), name, REPLAY_SEED));
        })
    });
    let title = format!("packet engine, 80 Mbps wired path, {secs} s");
    let rounds = time_arms(&mut rep, &title, "packets", scale.pick(3, 12), arms.collect());
    let per_packet: Vec<f64> =
        rounds.ratios(0, 1).iter().map(|r| r * packets[1] / packets[0]).collect();
    let bbr_x = rep.ratio("bbr/cubic engine time per sent packet x", &per_packet);
    rep.verdict("BBR-lite costs at most 2x Cubic per sent packet", bbr_x <= 2.0, Holds);
    gated(rep)
}

/// The training trace split into `n` near-equal contiguous chunks.
fn chunked(records: &[PacketRecord], n: usize) -> Vec<(u64, Vec<PacketRecord>)> {
    let per = records.len().div_ceil(n.clamp(1, records.len()));
    let starts = (0..records.len()).step_by(per);
    starts.map(|at| (at as u64, records[at..(at + per).min(records.len())].to_vec())).collect()
}

/// One session through a real store, session-log writes included: what
/// `POST /traces/{id}/append` costs below HTTP.
fn store_pass(
    dir: &std::path::Path,
    trace: &FlowTrace,
    chunks: &[(u64, Vec<PacketRecord>)],
) -> Result<(), String> {
    let _ = std::fs::remove_dir_all(dir);
    let store = SessionStore::open(dir, IngestConfig::default()).map_err(|e| e.to_string())?;
    for (offset, records) in chunks {
        let meta = Some(trace.meta.clone());
        store.append("bench", None, meta, *offset, records.clone()).map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// The online cadence: fold each chunk, then read the watermark — what a
/// live session computes per refit boundary.
fn online_pass(chunks: &[(u64, Vec<PacketRecord>)]) -> Option<Watermark> {
    let mut statics = OnlineStaticParams::new();
    let mut cross: Option<OnlineCrossTraffic> = None;
    let mut last = None;
    for (i, (_, records)) in chunks.iter().enumerate() {
        statics.fold_chunk(records);
        match (cross.as_mut(), statics.params()) {
            (Some(c), _) => c.fold_chunk(records),
            // First delivery seen: anchor the cross estimator and replay the
            // prefix through it, once, as the session store does.
            (None, Some(params)) => {
                let mut c = OnlineCrossTraffic::new(&params, DEFAULT_BIN_SECS);
                chunks[..=i].iter().for_each(|(_, prior)| c.fold_chunk(prior));
                cross = Some(c);
            }
            (None, None) => {}
        }
        last = Watermark::of(&statics, cross.as_ref());
    }
    last
}

/// The naive cadence: after each chunk, re-estimate over the whole
/// accepted prefix (the same fold, from scratch) — O(total) per chunk
/// instead of O(chunk).
fn batch_pass(trace: &FlowTrace, chunks: &[(u64, Vec<PacketRecord>)]) {
    let mut prefix: Vec<PacketRecord> = Vec::new();
    for (_, records) in chunks {
        prefix.extend(records.iter().cloned());
        let t = FlowTrace::from_records(trace.meta.clone(), prefix.clone());
        let p = StaticParams::estimate(&t);
        black_box(CrossTrafficEstimate::estimate(&t, &p, DEFAULT_BIN_SECS));
    }
}

/// Streaming ingest: the online estimators must make a refit per chunk
/// cheaper than batch re-estimation over the accepted prefix, or the
/// subsystem is pointless.
fn ingest(scale: &Scale, _: u64) -> Result<Report, String> {
    const CHUNKS: [usize; 3] = [1, 8, 64];
    let duration = SimTime::from_secs(scale.pick(5, 20) as u64);
    let train = run_protocol(&Profile::Ethernet.sample(11, duration), PROTOCOL, duration, 11);
    let records = train.len() as f64;
    let dir = std::env::temp_dir().join(format!("ibox-perf-ingest-{}", std::process::id()));
    let split = CHUNKS.map(|n| chunked(train.records(), n));
    for chunks in &split {
        store_pass(&dir, &train, chunks)?;
        online_pass(chunks).ok_or("no watermark after the whole trace")?;
    }

    let mut rep = Report::default();
    let mut arms = Vec::new();
    for (n, chunks) in CHUNKS.iter().zip(&split) {
        let (dir, train) = (&dir, &train);
        arms.push(arm(format!("append, {n} chunks"), records, move || {
            let _ = black_box(store_pass(dir, train, chunks));
        }));
        arms.push(arm(format!("online refit, {n} chunks"), records, move || {
            black_box(online_pass(chunks));
        }));
        arms.push(arm(format!("batch refit, {n} chunks"), records, move || {
            batch_pass(train, chunks)
        }));
    }
    let title = format!("streaming ingest of a {}-record trace", train.len());
    let rounds = time_arms(&mut rep, &title, "records", scale.pick(2, 15), arms);
    let _ = std::fs::remove_dir_all(&dir);
    let mut online_x = 0.0;
    for (i, n) in CHUNKS.iter().enumerate() {
        let (online, batch) = (3 * i + 1, 3 * i + 2);
        online_x =
            rep.ratio(format!("online speedup x, {n} chunks"), &rounds.ratios(batch, online));
        rep.record(
            format!("online refit ms/chunk, {n} chunks"),
            rounds.median(online) * 1e3 / *n as f64,
        );
    }
    let claim = "at 64 chunks the online fold refits at least as fast as batch re-estimation";
    rep.verdict(claim, online_x >= 1.0, Holds);
    gated(rep)
}

/// The model registry's decoded tier: a warm `ModelRegistry::get` against
/// the cold `ModelArtifact::load` (read + parse) every `/replay` paid
/// before it, on a `[128,128]` iBoxML artifact — the request ledger's
/// `replay_ml` shape, ≈ 4 MB of JSON.
fn registry(scale: &Scale, _: u64) -> Result<Report, String> {
    let duration = SimTime::from_secs(scale.pick(2, 10) as u64);
    let train = run_protocol(&Profile::Ethernet.sample(1, duration), PROTOCOL, duration, 1);
    let spec = IBoxMlSpec { hidden_sizes: vec![128, 128], epochs: 1, ..IBoxMlSpec::default() };
    let kind = ModelKind::IBoxMl(spec);
    let artifact = ModelArtifact::new(&kind, fit_model(&kind, &train));
    let dir = std::env::temp_dir().join(format!("ibox-perf-registry-{}", std::process::id()));
    let reg = ModelRegistry::open(&dir)?;
    reg.put("ml", &artifact).map_err(|e| e.to_string())?;
    let path = ModelArtifact::registry_path(&dir, "ml");
    let mb = std::fs::metadata(&path).map_err(|e| e.to_string())?.len() as f64 / 1e6;
    let (cold, warm) = (ModelArtifact::load(&path), reg.get("ml"));
    let json = artifact.to_json();
    if cold.map(|a| a.to_json()).as_ref() != Ok(&json) || warm.map(|a| a.to_json()) != Ok(json) {
        return Err("a cold load and a warm get differ from the stored artifact".into());
    }

    // Warm gets per call, so that no arm's call is much shorter than another's.
    const GETS: usize = 2_000;
    let mut rep = Report::default();
    let scope = ibox_obs::scoped();
    let arms = vec![
        arm("cold ModelArtifact::load", 1.0, || {
            let _ = black_box(ModelArtifact::load(&path));
        }),
        arm("warm ModelRegistry::get", GETS as f64, || {
            for _ in 0..GETS {
                let _ = black_box(reg.get("ml"));
            }
        }),
    ];
    let title = format!("model artifact, iBoxML [128,128], {mb:.1} MB");
    let rounds = time_arms(&mut rep, &title, "loads", scale.pick(3, 20), arms);
    let counters = scope.finish().snapshot().counters;
    let _ = std::fs::remove_dir_all(&dir);
    if counters.contains_key("registry.decode") {
        return Err("a warm get decoded the artifact again".into());
    }
    let per_load: Vec<f64> = rounds.ratios(0, 1).iter().map(|r| r * GETS as f64).collect();
    let load_x = rep.ratio("cold load / warm get x", &per_load);
    rep.record("artifact MB", mb);
    rep.record("cold load ms", rounds.median(0) * 1e3);
    rep.record("warm get us", rounds.median(1) * 1e6 / GETS as f64);
    let claim = "a warm registry get costs at most 1/50 of a load";
    rep.verdict(claim, load_x >= 50.0, Holds);
    gated(rep)
}

/// The paper-scale iBoxML: 4 layers × 256 hidden, ≈ 2.1 M parameters.
fn sequence_model(hidden: &[usize]) -> SequenceModel {
    let config = SequenceModelConfig {
        input_size: 6,
        hidden_sizes: hidden.to_vec(),
        predict_loss: true,
        seed: 1,
    };
    SequenceModel::new(config)
}

/// §4.2 "Simulation Speed": the paper measures 2.2 ms per packet for a
/// 4-layer, ≈ 2 M-parameter LSTM on a V100 — ≈ 5.5 Mbps of emulated
/// bandwidth at 1500-byte packets. The point is relative: deep-model
/// inference costs orders of magnitude more per packet than iBoxNet or a
/// linear model. Measured here on CPU, with what fitting each model costs.
fn speed(scale: &Scale, _: u64) -> Result<Report, String> {
    let big = sequence_model(&[256, 256, 256, 256]);
    if big.param_count() < 1_800_000 {
        return Err(format!("the paper-scale model has {} parameters", big.param_count()));
    }
    let small = sequence_model(&[32, 32]);
    let (mut big_session, mut small_session) = (held_session(&big, 1)?, held_session(&small, 1)?);
    let x = [0.1f32, -0.2, 0.3, 0.0, 0.5, -0.1];
    // iBoxNet's cost per packet: a whole second of a saturated 8 Mbps path.
    let emulate = || {
        let path = PathConfig::simple(8e6, SimTime::from_millis(20), 100_000);
        let emu = PathEmulator::from_spec(PathSpec::single(path), SimTime::from_secs(1));
        emu.run_sender(Box::new(FixedWindow::new(64.0)), "p", 1)
    };
    let emulated = sent(&emulate())?;
    // The linear reordering model, §5.1's "lightweight and much faster".
    let rows: Vec<Vec<f64>> = (0..100).map(|i| vec![i as f64, 0.5, 1.0]).collect();
    let labels: Vec<f64> = (0..100).map(|i| f64::from(i % 7 == 0)).collect();
    let logistic =
        Logistic::train(&rows, &labels, &LogisticConfig { epochs: 10, ..Default::default() });
    let feat = [1.0f64, 0.5, 2.0];

    let ops = [4.0, 400.0, 20.0 * emulated, 400_000.0];
    let mut rep = Report::default();
    let rounds = time_arms(
        &mut rep,
        "§4.2 per-packet inference",
        "packets",
        scale.pick(3, 60),
        vec![
            arm("iBoxML 4x256", ops[0], || {
                for _ in 0..4 {
                    black_box(big_session.step_batch(&big, black_box(&x))[0]);
                }
            }),
            arm("iBoxML 2x32", ops[1], || {
                for _ in 0..400 {
                    black_box(small_session.step_batch(&small, black_box(&x))[0]);
                }
            }),
            arm("iBoxNet", ops[2], || {
                for _ in 0..20 {
                    black_box(emulate());
                }
            }),
            arm("logistic", ops[3], || {
                for _ in 0..400_000 {
                    black_box(logistic.predict_proba(black_box(&feat)));
                }
            }),
        ],
    );
    // Per packet, arm over arm: per-call ratios rescaled by the packets per call.
    let per_packet = |arm: usize, base: usize| -> Vec<f64> {
        rounds.ratios(arm, base).iter().map(|r| r * ops[base] / ops[arm]).collect()
    };
    let big_x = rep.ratio("iBoxML 4x256 / iBoxNet per packet x", &per_packet(0, 2));
    let small_x = rep.ratio("iBoxML 2x32 / iBoxNet per packet x", &per_packet(1, 2));
    let linear_x = rep.ratio("iBoxNet / logistic per packet x", &per_packet(2, 3));
    let big_s = rounds.median(0) / ops[0];
    rep.record("iBoxML 4x256 us/packet", big_s * 1e6);
    rep.record("iBoxML 4x256 Mbps at 1500 B", 1500.0 * 8.0 / big_s / 1e6);
    let claim = "the 4x256 iBoxML costs at least 100x iBoxNet per packet";
    rep.verdict(claim, big_x >= 100.0, Holds);
    let claim = "per packet, 4x256 iBoxML > 2x32 iBoxML > iBoxNet > the logistic model";
    rep.verdict(claim, big_x > small_x && small_x > 1.0 && linear_x > 1.0, Holds);

    // §3.2: "the simplicity of iBoxNet ... makes both learning the model
    // and running it very efficient" — fitting, against one iBoxML epoch.
    let secs = scale.pick(5, 20) as u64;
    let path = PathConfig::simple(8e6, SimTime::from_millis(25), 100_000);
    let cbr = CrossTrafficCfg::cbr(2e6, SimTime::from_secs(5), SimTime::from_secs(15));
    let emu = PathEmulator::from_spec(PathSpec::single(path), SimTime::from_secs(secs));
    let out = emu.with_cross_traffic(cbr).run_sender(Box::new(Cubic::new()), "m", 3);
    let trace = out.traces.into_iter().next().ok_or("the emulator recorded no flow")?.normalized();
    let params = StaticParams::estimate(&trace);
    let traces = [trace.clone()];
    let one_epoch = || {
        let train = TrainConfig {
            epochs: 1,
            lr: 3e-3,
            tbptt: 64,
            clip: 5.0,
            loss_weight: 0.2,
            delay_weight: 1.0,
            ..Default::default()
        };
        IBoxMlConfig::builder().hidden_sizes([16]).train(train).seed(1).build()
    };
    let rounds = time_arms(
        &mut rep,
        &format!("§3.2 fitting a {secs} s trace"),
        "fits",
        scale.pick(2, 10),
        vec![
            arm("static params", 1.0, || {
                black_box(StaticParams::estimate(&trace));
            }),
            arm("cross-traffic estimate", 1.0, || {
                black_box(CrossTrafficEstimate::estimate(&trace, &params, DEFAULT_BIN_SECS));
            }),
            arm("iBoxNet fit", 1.0, || {
                black_box(IBoxNet::fit(&trace));
            }),
            arm("iBoxML 1x16, one epoch", 1.0, || {
                black_box(IBoxMl::fit(&traces, one_epoch()));
            }),
        ],
    );
    let fit_x = rep.ratio("iBoxML epoch / iBoxNet fit x", &rounds.ratios(3, 2));
    let claim = "fitting iBoxNet costs less than one epoch of iBoxML training";
    rep.verdict(claim, fit_x > 1.0, Holds);
    gated(rep)
}

const USAGE: &str = "usage: perf [--quick] [name…]";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (quick, names): (Vec<&str>, Vec<&str>) =
        args.iter().map(String::as_str).partition(|a| *a == "--quick");
    let (scale, rows) = PERF.select(!quick.is_empty(), &names).unwrap_or_else(|e| {
        eprintln!("perf: {e}\n{USAGE}");
        std::process::exit(2)
    });
    std::process::exit(PERF.main(&scale, scale, &rows, |_, _| Ok(())));
}

#[cfg(test)]
#[path = "../table_tests.rs"]
mod table_tests;

#[cfg(test)]
mod tests {
    use super::*;
    use ibox_bench::Ledger;

    /// Every row at `--quick` has the shape its row has in the committed
    /// `BENCH_perf.json`, so a renamed statistic or claim cannot slip past
    /// the gate. No value is compared: tests share the cores.
    #[test]
    fn names_are_unique_and_every_row_carries_a_verdict() {
        let (runs, failures) =
            PERF.run_rows(&Scale::Quick, Scale::Quick, &ROWS.iter().collect::<Vec<_>>());
        assert_eq!(failures, Vec::<String>::new());
        let path = format!("{}/../../BENCH_perf.json", env!("CARGO_MANIFEST_DIR"));
        let committed = Ledger::read(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
        assert_eq!(committed.scale, "full");
        assert!(committed.rows.iter().all(|row| row.seeds.len() >= 5), "K ≥ 5 repeats per row");
        assert_eq!(committed.unexpected(), Vec::<String>::new());
        table_tests::names_are_unique_and_every_row_carries_a_verdict(
            &PERF,
            &Ledger::of(&runs),
            &committed,
        );
    }

    #[test]
    fn a_known_failure_that_holds_and_a_holds_that_fails_both_fail_the_gate() {
        table_tests::a_known_failure_that_holds_and_a_holds_that_fails_both_fail_the_gate(
            &PERF,
            &Scale::Full,
        );
    }
}
