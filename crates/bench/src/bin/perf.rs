//! Steady-state compute-throughput guardrails for the hot paths.
//!
//! Four measurements via the vendored criterion's timed API:
//!
//! 1. **LSTM train-step throughput** — the workspace (allocation-free)
//!    kernels vs a naive reference compiled into this binary. The
//!    reference reproduces the pre-optimization structure: a fresh
//!    allocation for every gate buffer and cache field each step, and
//!    plain sequential scalar dot products. Asserts the workspace path is
//!    at least 1.5× faster.
//! 2. **Simulator packet throughput** on a saturated bottleneck.
//! 3. **End-to-end [`ibox::IBoxMl::fit`] wall time** on a synthetic
//!    dataset.
//! 4. **Trace JSON encode throughput** — the streaming `write_json` path
//!    vs the value-tree reference (`to_string(&trace.to_value())`), same
//!    bytes asserted. Asserts the streamed path is at least 3× faster.
//!
//! Results land as `perf.*` gauges in `BENCH_perf.json`. With
//! `--baseline <path>` the previously committed manifest is read *before*
//! the new one is written and the process exits nonzero if any throughput
//! regressed by more than 20% (used by `scripts/check.sh --perf`).
//!
//! Run: `cargo run -p ibox-bench --release --bin perf [--quick]
//! [--baseline BENCH_perf.json]`

use std::hint::black_box;

use criterion::{Criterion, Stats};
use ibox::{IBoxMl, IBoxMlConfig};
use ibox_bench::{cell, check_baseline, render_table, Better, Scale};
use ibox_ml::lstm::{Lstm, LstmState, LstmWorkspace, StepCache};
use ibox_ml::matrix::Mat;
use ibox_ml::TrainConfig;
use ibox_sim::{
    CrossTrafficCfg, FixedWindow, FlowConfig, PathConfig, ReorderCfg, SimTime, Simulation,
};
use ibox_trace::FlowTrace;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;

/// Layer shape for the train-step benchmark (input × hidden).
const INPUT: usize = 32;
const HIDDEN: usize = 64;
/// Timesteps per measured train step (one TBPTT chunk).
const CHUNK: usize = 32;

// ---------------------------------------------------------------------
// Naive reference: the pre-optimization kernel structure. Every step
// allocates its gate buffers and cache vectors, and every matrix product
// is a plain sequential scalar loop — no fused 4-lane accumulators, no
// reuse. Kept in this binary (not the library) so the library can never
// "optimize" its own baseline away.
// ---------------------------------------------------------------------

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

fn chunk_inputs() -> Vec<Vec<f32>> {
    (0..CHUNK)
        .map(|t| (0..INPUT).map(|k| ((t * INPUT + k) as f32 * 0.37).sin() * 0.5).collect())
        .collect()
}

/// Throughput from the *fastest* sample. Background load only ever adds
/// time, so the min is the noise-robust estimate — means flap by tens of
/// percent on a busy machine and would make the 1.5× assert and the
/// baseline gate flaky.
fn best_per_sec(stats: &Stats) -> f64 {
    1e9 / stats.min_ns.max(1e-9)
}

fn steps_per_sec(stats: &Stats) -> f64 {
    best_per_sec(stats) * CHUNK as f64
}

fn bench_train_steps(c: &mut Criterion) -> (f64, f64) {
    let mut rng = StdRng::seed_from_u64(42);
    let mut layer = Lstm::new(INPUT, HIDDEN, &mut rng);
    let xs = chunk_inputs();

    // Cross-check: both paths compute the same math (the kernels use a
    // different — canonical — summation order, so compare with tolerance).
    let mut scratch = WorkspaceScratch::new(&layer);
    let naive_out = naive_train_step(&layer, &xs);
    let ws_out = workspace_train_step(&mut layer, &xs, &mut scratch);
    assert!(
        (f64::from(naive_out) - f64::from(ws_out)).abs()
            < 1e-2 * (1.0 + f64::from(naive_out).abs()),
        "kernel mismatch: naive {naive_out} vs workspace {ws_out}"
    );

    let mut group = c.benchmark_group("lstm_train_step");
    group.sample_size(Scale::from_args().pick(10, 30));
    let naive = group
        .bench_function_timed("naive_reference", |b| {
            b.iter(|| black_box(naive_train_step(black_box(&layer), black_box(&xs))))
        })
        .expect("measured");
    let workspace = group
        .bench_function_timed("workspace_kernels", |b| {
            b.iter(|| {
                black_box(workspace_train_step(black_box(&mut layer), black_box(&xs), &mut scratch))
            })
        })
        .expect("measured");
    group.finish();
    (steps_per_sec(&naive), steps_per_sec(&workspace))
}

/// A saturated 20 Mbps bottleneck with Poisson cross traffic plus random
/// loss and reordering, so a run exercises every per-packet code path (and
/// its trace carries lost records), not just clean FIFO forwarding.
fn impaired_sim(secs: u64, seed: u64) -> Simulation {
    let mut path = PathConfig::simple(20e6, SimTime::from_millis(20), 100_000);
    path.random_loss = 0.002;
    path.reorder = Some(ReorderCfg {
        probability: 0.005,
        extra_min: SimTime::from_millis(1),
        extra_max: SimTime::from_millis(6),
    });
    let mut sim = Simulation::new(path, SimTime::from_secs(secs), seed);
    sim.add_cross_traffic(CrossTrafficCfg::Poisson {
        mean_rate_bps: 2e6,
        pkt_size: 1200,
        start: SimTime::ZERO,
        stop: SimTime::from_secs(secs),
    });
    sim.add_flow(
        FlowConfig::bulk("main", SimTime::from_secs(secs)),
        Box::new(FixedWindow::new(200.0)),
    );
    sim
}

fn bench_sim(c: &mut Criterion) -> (f64, f64) {
    let secs = Scale::from_args().pick(2, 10) as u64;
    let build = |seed: u64| {
        let mut sim = Simulation::new(
            PathConfig::simple(20e6, SimTime::from_millis(20), 100_000),
            SimTime::from_secs(secs),
            seed,
        );
        sim.add_flow(
            FlowConfig::bulk("main", SimTime::from_secs(secs)),
            Box::new(FixedWindow::new(200.0)),
        );
        sim
    };
    // The impaired variant keeps the committed manifest's
    // `sim.cross_packets_emitted` / `sim.packets_dropped_random` /
    // `sim.packets_reordered` counters live.
    let build_impaired = |seed: u64| impaired_sim(secs, seed);
    let packets = build(1).run().flow_stats[0].sent;
    assert!(packets > 0, "saturated flow must send packets");
    let impaired = build_impaired(1).run();
    let packets_impaired = impaired.flow_stats[0].sent;
    for counter in
        ["sim.cross_packets_emitted", "sim.packets_dropped_random", "sim.packets_reordered"]
    {
        let n = impaired.metrics.counters.get(counter).copied().unwrap_or(0);
        assert!(n > 0, "impaired scenario must drive {counter}, got 0");
    }

    let mut group = c.benchmark_group("sim_throughput");
    group.sample_size(Scale::from_args().pick(5, 10));
    let stats = group
        .bench_function_timed("saturated_20mbps", |b| b.iter(|| black_box(build(1).run())))
        .expect("measured");
    let stats_impaired = group
        .bench_function_timed("impaired_20mbps", |b| b.iter(|| black_box(build_impaired(1).run())))
        .expect("measured");
    group.finish();
    (packets as f64 * best_per_sec(&stats), packets_impaired as f64 * best_per_sec(&stats_impaired))
}

fn bench_fit(c: &mut Criterion) -> f64 {
    let scale = Scale::from_args();
    let secs = scale.pick(3, 6) as u64;
    let n_traces = scale.pick(2, 4);
    let traces: Vec<FlowTrace> = (0..n_traces as u64)
        .map(|i| {
            let mut sim = Simulation::new(
                PathConfig::simple(8e6, SimTime::from_millis(20), 60_000),
                SimTime::from_secs(secs),
                100 + i,
            );
            sim.add_flow(
                FlowConfig::bulk("train", SimTime::from_secs(secs)),
                Box::new(FixedWindow::new(64.0)),
            );
            sim.run().traces.remove(0)
        })
        .collect();
    let cfg = || {
        IBoxMlConfig::builder()
            .hidden_sizes(vec![16, 16])
            .train(TrainConfig {
                epochs: scale.pick(2, 4),
                lr: 3e-3,
                tbptt: 32,
                clip: 5.0,
                loss_weight: 0.3,
                delay_weight: 1.0,
                ..Default::default()
            })
            .build()
    };

    let mut group = c.benchmark_group("iboxml_fit");
    group.sample_size(Scale::from_args().pick(2, 3));
    let stats = group
        .bench_function_timed("end_to_end", |b| {
            b.iter(|| black_box(IBoxMl::fit(black_box(&traces), cfg())))
        })
        .expect("measured");
    group.finish();
    stats.min_ns / 1e6
}

/// JSON encode throughput of a replay trace, MB/s: the streaming
/// `Serialize::write_json` path every reply takes vs the value-tree
/// reference (`to_value()` first, then render), which is what `to_string`
/// did before the writer existed. Asserts equal bytes and a >= 3x gain.
fn bench_trace_encode(c: &mut Criterion) -> (f64, f64) {
    let secs = Scale::from_args().pick(2, 10) as u64;
    let trace = impaired_sim(secs, 1).run().traces.remove(0);
    assert!(trace.lost_count() > 0, "the encoded trace must carry lost records");
    let streamed = serde_json::to_string(&trace).expect("traces serialize");
    let tree = serde_json::to_string(&trace.to_value()).expect("value trees serialize");
    assert_eq!(streamed, tree, "streamed and tree-rendered traces must be the same bytes");

    let mut group = c.benchmark_group("trace_encode");
    group.sample_size(Scale::from_args().pick(10, 30));
    let tree_stats = group
        .bench_function_timed("value_tree_reference", |b| {
            b.iter(|| black_box(serde_json::to_string(&black_box(&trace).to_value())))
        })
        .expect("measured");
    let stream_stats = group
        .bench_function_timed("streamed", |b| {
            b.iter(|| black_box(serde_json::to_string(black_box(&trace))))
        })
        .expect("measured");
    group.finish();
    let mb = streamed.len() as f64 / 1e6;
    (mb * best_per_sec(&tree_stats), mb * best_per_sec(&stream_stats))
}

fn main() {
    let bench = ibox_bench::BenchRun::start("perf");
    let mut criterion = Criterion::default();

    let (naive_sps, ws_sps) = bench_train_steps(&mut criterion);
    let speedup = ws_sps / naive_sps.max(1e-9);
    let (sim_pps, sim_pps_impaired) = bench_sim(&mut criterion);
    let fit_ms = bench_fit(&mut criterion);
    let (encode_tree_mbps, encode_mbps) = bench_trace_encode(&mut criterion);
    let encode_speedup = encode_mbps / encode_tree_mbps.max(1e-9);

    let registry = ibox_obs::global();
    registry.gauge("perf.lstm_train_steps_per_sec").set(ws_sps);
    registry.gauge("perf.lstm_train_steps_per_sec_naive").set(naive_sps);
    registry.gauge("perf.lstm_speedup_x").set(speedup);
    registry.gauge("perf.sim_packets_per_sec").set(sim_pps);
    registry.gauge("perf.sim_packets_per_sec_impaired").set(sim_pps_impaired);
    registry.gauge("perf.fit_wall_ms").set(fit_ms);
    registry.gauge("perf.trace_encode_mb_per_s").set(encode_mbps);
    registry.gauge("perf.trace_encode_mb_per_s_tree").set(encode_tree_mbps);

    print!(
        "{}",
        render_table(
            "Steady-state throughput (workspace kernels vs naive reference)",
            &["metric", "value"],
            &[
                vec!["lstm train steps/s (workspace)".into(), cell(ws_sps, 0)],
                vec!["lstm train steps/s (naive)".into(), cell(naive_sps, 0)],
                vec!["speedup".into(), format!("{speedup:.2}x")],
                vec!["sim packets/s".into(), cell(sim_pps, 0)],
                vec!["sim packets/s (cross+loss+reorder)".into(), cell(sim_pps_impaired, 0)],
                vec!["IBoxMl::fit wall ms".into(), cell(fit_ms, 1)],
                vec!["trace encode MB/s (streamed)".into(), cell(encode_mbps, 0)],
                vec!["trace encode MB/s (value tree)".into(), cell(encode_tree_mbps, 0)],
                vec!["encode speedup".into(), format!("{encode_speedup:.2}x")],
            ],
        )
    );

    // Read the committed baseline BEFORE finish() overwrites the file.
    let baseline_failures = check_baseline(&[
        ("perf.lstm_train_steps_per_sec", ws_sps, 0.20, Better::Higher),
        ("perf.sim_packets_per_sec", sim_pps, 0.20, Better::Higher),
        ("perf.sim_packets_per_sec_impaired", sim_pps_impaired, 0.20, Better::Higher),
        ("perf.trace_encode_mb_per_s", encode_mbps, 0.20, Better::Higher),
    ]);

    bench.finish();

    assert!(
        speedup >= 1.5,
        "workspace kernels must be >= 1.5x the naive reference, got {speedup:.2}x"
    );
    assert!(
        encode_speedup >= 3.0,
        "streamed trace encode must be >= 3x the value-tree reference, got {encode_speedup:.2}x"
    );
    ibox_bench::exit_on_regressions("perf", &baseline_failures);
}
