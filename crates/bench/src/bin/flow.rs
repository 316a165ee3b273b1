//! Fidelity guardrails: the flow-level fast path must actually be fast
//! *and* faithful.
//!
//! Fits an iBoxNet model on a synthetic testbed trace (cross traffic
//! included, so the fitted path exercises the cross-replay machinery at
//! every fidelity), then replays the same `(protocol, duration, seed)`
//! at each [`ibox::Fidelity`] level through the public
//! [`ibox::FittedModel::simulate_with`] entry point — exactly what
//! `ibox replay --fidelity` and `POST /replay` run.
//!
//! Two guarantees are asserted in-binary (a failed run exits nonzero):
//!
//! 1. **Speed** — flow-mode replay is at least 10x faster than the
//!    packet engine (wall clock, fastest sample of each).
//! 2. **Accuracy** — the two-sample Kolmogorov–Smirnov distance between
//!    the flow-mode and packet-mode one-way-delay distributions is at
//!    most 0.1. Hybrid numbers are reported alongside (hybrid trades
//!    some of the speedup for packet-exact congestion episodes, so its
//!    KS is expected to be no worse than pure flow).
//!
//! Results land as `flow.*` gauges in `BENCH_flow.json`. With
//! `--baseline <path>` the previously committed manifest is read before
//! the new one is written and the process exits nonzero if any fidelity
//! speedup regressed by more than 20% (used by `scripts/check.sh
//! --perf`). Speedups — not raw pps — are gated because they are the
//! tentpole's actual promise and stay comparable between `--quick` and
//! full runs (absolute rates shift with replay duration as fixed
//! per-episode and per-tick overhead amortizes differently).
//!
//! Run: `cargo run -p ibox-bench --release --bin flow [--quick]
//! [--baseline BENCH_flow.json]`

use std::hint::black_box;

use criterion::Criterion;
use ibox::{fit_model, Fidelity, FittedModel, ModelKind, ReplayOpts};
use ibox_bench::{cell, check_baseline, render_table, Better, Scale};
use ibox_sim::SimTime;
use ibox_stats::ks_two_sample;
use ibox_testbed::pantheon::run_protocol;
use ibox_testbed::Profile;
use ibox_trace::FlowTrace;

/// Replay scenario: one protocol over the fitted model, long enough that
/// the packet engine's event loop dominates its wall time.
const PROTOCOL: &str = "cubic";
const REPLAY_SEED: u64 = 7;
/// Testbed draw for the training path. Seed 1 samples the fastest
/// Ethernet instance (~80 Mbps, ~8% Poisson cross) — the most packets
/// per simulated second, which is exactly where a flow-level fast path
/// has to prove itself.
const TRAIN_SEED: u64 = 1;

/// One-way delays of the delivered packets, in milliseconds — the
/// distribution the KS accuracy gate compares across engines.
fn delays_ms(trace: &FlowTrace) -> Vec<f64> {
    trace.delivered().map(|r| (r.recv_ns.expect("delivered") - r.send_ns) as f64 / 1e6).collect()
}

struct Arm {
    fidelity: Fidelity,
    /// Fastest replay wall time, seconds.
    wall_s: f64,
    /// Replayed packets per wall-clock second.
    pps: f64,
    /// KS distance of the delay distribution vs the packet engine.
    ks: f64,
    packets: usize,
}

fn bench_replays(c: &mut Criterion, model: &FittedModel, duration: SimTime) -> Vec<Arm> {
    let replay = |fidelity: Fidelity| {
        let opts = ReplayOpts { fidelity, ..Default::default() };
        model.simulate_with(PROTOCOL, duration, REPLAY_SEED, opts)
    };
    let packet_delays = delays_ms(&replay(Fidelity::Packet));
    assert!(packet_delays.len() > 500, "reference replay too small to compare distributions");

    let mut group = c.benchmark_group("fidelity_replay");
    group.sample_size(Scale::from_args().pick(3, 5));
    let mut arms = Vec::new();
    for fidelity in Fidelity::ALL {
        let trace = replay(fidelity);
        let stats = group
            .bench_function_timed(fidelity.as_str(), |b| b.iter(|| black_box(replay(fidelity))))
            .expect("measured");
        let wall_s = stats.min_ns / 1e9;
        arms.push(Arm {
            fidelity,
            wall_s,
            pps: trace.len() as f64 / wall_s.max(1e-12),
            ks: ks_two_sample(&packet_delays, &delays_ms(&trace)).statistic,
            packets: trace.len(),
        });
    }
    group.finish();
    arms
}

fn main() {
    let bench = ibox_bench::BenchRun::start("flow");
    let mut criterion = Criterion::default();
    let scale = Scale::from_args();

    // Train on a cross-trafficked testbed path so the fitted model carries
    // a cross-traffic series into every replay arm.
    let train_duration = SimTime::from_secs(scale.pick(10, 30) as u64);
    let inst = Profile::Ethernet.sample(TRAIN_SEED, train_duration);
    let train = run_protocol(&inst, PROTOCOL, train_duration, TRAIN_SEED);
    let model = fit_model(&ModelKind::IBoxNet, &train);

    let duration = SimTime::from_secs(scale.pick(10, 30) as u64);
    let arms = bench_replays(&mut criterion, &model, duration);
    let packet = &arms[0];
    assert_eq!(packet.fidelity, Fidelity::Packet);

    let registry = ibox_obs::global();
    let mut rows = Vec::new();
    let mut gated: Vec<(String, f64)> = Vec::new();
    for arm in &arms {
        let speedup = packet.wall_s / arm.wall_s.max(1e-12);
        registry.gauge(&format!("flow.replay_pps_{}", arm.fidelity)).set(arm.pps);
        registry.gauge(&format!("flow.speedup_{}_x", arm.fidelity)).set(speedup);
        registry.gauge(&format!("flow.ks_{}", arm.fidelity)).set(arm.ks);
        if arm.fidelity != Fidelity::Packet {
            gated.push((format!("flow.speedup_{}_x", arm.fidelity), speedup));
        }
        rows.push(vec![
            arm.fidelity.to_string(),
            cell(arm.packets as f64, 0),
            cell(arm.pps, 0),
            format!("{speedup:.1}x"),
            format!("{:.4}", arm.ks),
        ]);
    }
    print!(
        "{}",
        render_table(
            "Replay fidelity: speed vs accuracy (KS on delay distributions)",
            &["fidelity", "packets", "replay pps", "speedup", "KS vs packet"],
            &rows,
        )
    );

    // Read the committed baseline BEFORE finish() overwrites the file.
    // A fidelity speedup must not fall below 80% of the baseline. KS
    // distances are deliberately not gated here — the in-binary `<= 0.1`
    // assert is their (absolute) gate.
    let fresh: Vec<_> = gated.iter().map(|(n, v)| (n.as_str(), *v, 0.20, Better::Higher)).collect();
    let baseline_failures = check_baseline(&fresh);

    bench.finish();

    // The tentpole guarantees, asserted on every run.
    let flow = &arms[1];
    let hybrid = &arms[2];
    let flow_speedup = packet.wall_s / flow.wall_s.max(1e-12);
    assert!(
        flow_speedup >= 10.0,
        "flow-mode replay must be >= 10x the packet engine, got {flow_speedup:.1}x"
    );
    assert!(flow.ks <= 0.1, "flow-mode delay KS must be <= 0.1, got {:.4}", flow.ks);
    assert!(hybrid.ks <= 0.1, "hybrid delay KS must be <= 0.1, got {:.4}", hybrid.ks);

    ibox_bench::exit_on_regressions("flow", &baseline_failures);
}
