//! Composed-path guardrails: chaining stages must cost, at worst, a
//! bounded constant factor per added hop.
//!
//! Fits an iBoxNet model on a synthetic testbed trace, then replays the
//! same `(protocol, duration, seed)` through composed [`PathSpec`]
//! chains of 1, 2, and 3 stages — the bottleneck stage plus faster
//! transit hops in front of it — at both packet and flow fidelity,
//! through the public [`ibox::FittedModel::simulate_with`] entry point
//! (exactly what `ibox replay --path` and `POST /replay` run).
//!
//! One guarantee is asserted in-binary (a failed run exits nonzero):
//! each added stage slows replay down by at most **2.5x** (wall clock,
//! fastest sample, per fidelity). Stages are independent queues, so the
//! expected cost is roughly linear in hop count; 2.5x leaves room for
//! cache effects without letting the chain loop go quadratic.
//!
//! Results land as `path.*` gauges in `BENCH_path.json`: replayed
//! packets per wall-clock second per `(fidelity, stage count)`, plus the
//! per-added-stage slowdown factors. With `--baseline <path>` the
//! previously committed manifest is read before the new one is written
//! and the process exits nonzero if any slowdown factor grew by more
//! than 25% (slowdowns — not raw pps — are gated because they stay
//! comparable between `--quick` and full runs).
//!
//! Run: `cargo run -p ibox-bench --release --bin path [--quick]
//! [--baseline BENCH_path.json]`

use std::hint::black_box;

use criterion::Criterion;
use ibox::{fit_model, Fidelity, FittedModel, ModelKind, ReplayOpts};
use ibox_bench::{cell, check_baseline, render_table, Better, Scale};
use ibox_sim::{PathConfig, PathSpec, PathStage, SimTime};
use ibox_testbed::pantheon::run_protocol;
use ibox_testbed::Profile;

const PROTOCOL: &str = "cubic";
const REPLAY_SEED: u64 = 7;
const TRAIN_SEED: u64 = 1;
/// Maximum chain length benchmarked (1..=MAX_STAGES).
const MAX_STAGES: usize = 3;
/// Per-added-stage wall-clock budget, asserted on every run.
const MAX_SLOWDOWN_PER_STAGE: f64 = 2.5;

/// A k-stage constant-rate FIFO chain: the 12 Mbps bottleneck first,
/// then progressively faster transit hops. Constant rates + FIFO keep
/// the chain on the fluid fast path at flow fidelity, so both engines
/// measure the same scenario. The bottleneck is identical at every k,
/// so delivered-packet counts stay comparable across stage counts.
fn chain(stages: usize) -> PathSpec {
    let hop = |rate_bps: f64, delay_ms: u64, buffer: u64| {
        PathStage::new(PathConfig::simple(rate_bps, SimTime::from_millis(delay_ms), buffer))
    };
    let mut v = vec![hop(12e6, 10, 150_000)];
    if stages >= 2 {
        v.push(hop(40e6, 4, 300_000));
    }
    if stages >= 3 {
        v.push(hop(80e6, 2, 500_000));
    }
    v.truncate(stages);
    PathSpec::from_stages(v)
}

struct Arm {
    fidelity: Fidelity,
    stages: usize,
    /// Fastest replay wall time, seconds.
    wall_s: f64,
    /// Replayed packets per wall-clock second.
    pps: f64,
    packets: usize,
}

fn bench_chains(c: &mut Criterion, model: &FittedModel, duration: SimTime) -> Vec<Arm> {
    let replay = |fidelity: Fidelity, stages: usize| {
        let opts = ReplayOpts { fidelity, path: Some(chain(stages)), ..Default::default() };
        model.simulate_with(PROTOCOL, duration, REPLAY_SEED, opts)
    };
    let mut group = c.benchmark_group("path_replay");
    group.sample_size(Scale::from_args().pick(3, 5));
    let mut arms = Vec::new();
    for fidelity in [Fidelity::Packet, Fidelity::Flow] {
        for stages in 1..=MAX_STAGES {
            let trace = replay(fidelity, stages);
            assert!(trace.len() > 200, "{fidelity}/{stages}-stage replay too small to time");
            let stats = group
                .bench_function_timed(format!("{fidelity}_{stages}stage"), |b| {
                    b.iter(|| black_box(replay(fidelity, stages)))
                })
                .expect("measured");
            let wall_s = stats.min_ns / 1e9;
            arms.push(Arm {
                fidelity,
                stages,
                wall_s,
                pps: trace.len() as f64 / wall_s.max(1e-12),
                packets: trace.len(),
            });
        }
    }
    group.finish();
    arms
}

fn main() {
    let bench = ibox_bench::BenchRun::start("path");
    let mut criterion = Criterion::default();
    let scale = Scale::from_args();

    let train_duration = SimTime::from_secs(scale.pick(8, 20) as u64);
    let inst = Profile::Ethernet.sample(TRAIN_SEED, train_duration);
    let train = run_protocol(&inst, PROTOCOL, train_duration, TRAIN_SEED);
    let model = fit_model(&ModelKind::IBoxNet, &train);

    let duration = SimTime::from_secs(scale.pick(8, 20) as u64);
    let arms = bench_chains(&mut criterion, &model, duration);

    let registry = ibox_obs::global();
    let mut rows = Vec::new();
    let mut gated: Vec<(String, f64)> = Vec::new();
    let mut violations = Vec::new();
    for arm in &arms {
        registry
            .gauge(&format!("path.replay_pps_{}_{}stage", arm.fidelity, arm.stages))
            .set(arm.pps);
        let slowdown = if arm.stages > 1 {
            let prev = arms
                .iter()
                .find(|a| a.fidelity == arm.fidelity && a.stages == arm.stages - 1)
                .expect("previous stage count measured");
            let s = arm.wall_s / prev.wall_s.max(1e-12);
            let name = format!("path.slowdown_{}_{}stage_x", arm.fidelity, arm.stages);
            registry.gauge(&name).set(s);
            gated.push((name, s));
            if s > MAX_SLOWDOWN_PER_STAGE {
                violations.push(format!(
                    "{} {} -> {} stages: {s:.2}x slowdown (budget {MAX_SLOWDOWN_PER_STAGE}x)",
                    arm.fidelity,
                    arm.stages - 1,
                    arm.stages
                ));
            }
            Some(s)
        } else {
            None
        };
        rows.push(vec![
            arm.fidelity.to_string(),
            arm.stages.to_string(),
            cell(arm.packets as f64, 0),
            cell(arm.pps, 0),
            slowdown.map_or_else(|| "-".into(), |s| format!("{s:.2}x")),
        ]);
    }
    print!(
        "{}",
        render_table(
            "Composed-path replay: per-stage-count throughput",
            &["fidelity", "stages", "packets", "replay pps", "slowdown vs k-1"],
            &rows,
        )
    );

    // Read the committed baseline BEFORE finish() overwrites the file.
    // A per-added-stage slowdown factor must not grow by more than 25%.
    // Raw pps is deliberately not gated — it shifts with replay duration,
    // while the ratio of adjacent stage counts does not.
    let fresh: Vec<_> = gated.iter().map(|(n, s)| (n.as_str(), *s, 0.25, Better::Lower)).collect();
    let baseline_failures = check_baseline(&fresh);

    bench.finish();

    // The satellite guarantee, asserted on every run.
    assert!(
        violations.is_empty(),
        "per-added-stage slowdown budget exceeded:\n  {}",
        violations.join("\n  ")
    );

    ibox_bench::exit_on_regressions("path", &baseline_failures);
}
