//! Tracing-overhead guardrail for the simulator hot path.
//!
//! Measures the saturated-bottleneck packet throughput of `perf.rs`'s
//! sim benchmark in three modes:
//!
//! 1. **disabled** — trace collection off. The per-event cost is one
//!    thread-local emptiness check, so this must match the untraced
//!    `perf.sim_packets_per_sec` number (~0% overhead).
//! 2. **enabled** — collection on, every run under a root span. Only
//!    the `sim-run` span is recorded (two events per run); the issue
//!    budget is <5% regression vs disabled.
//! 3. **timeline** — additionally records the queue-depth counter track
//!    and per-drop/RTO instants (opt-in `Simulation::set_timeline`).
//!    Recorded for visibility; not gated (its cost scales with the
//!    sample interval, not the packet rate).
//!
//! Results land as `trace.*` gauges in `BENCH_trace.json`. With
//! `--baseline <path>` the committed manifest is read before the new
//! one is written and the process exits nonzero on a >20% throughput
//! regression in any mode (same convention as `perf.rs`).
//!
//! Run: `cargo run -p ibox-bench --release --bin trace [--quick]
//! [--baseline BENCH_trace.json]`

use std::hint::black_box;

use criterion::{Criterion, Stats};
use ibox_bench::{cell, check_baseline, render_table, Better, Scale};
use ibox_sim::{FixedWindow, FlowConfig, PathConfig, SimTime, Simulation};

/// Throughput from the fastest sample (background load only adds time).
fn best_per_sec(stats: &Stats) -> f64 {
    1e9 / stats.min_ns.max(1e-9)
}

fn build_sim(secs: u64, timeline: bool) -> Simulation {
    let mut sim = Simulation::new(
        PathConfig::simple(20e6, SimTime::from_millis(20), 100_000),
        SimTime::from_secs(secs),
        1,
    );
    sim.set_timeline(timeline);
    sim.add_flow(
        FlowConfig::bulk("main", SimTime::from_secs(secs)),
        Box::new(FixedWindow::new(200.0)),
    );
    sim
}

/// Packets/s for one collection mode. `traced` wraps every run in a
/// fresh root scope (as the serving layer does per request).
fn bench_mode(c: &mut Criterion, name: &str, traced: bool, timeline: bool) -> f64 {
    let secs = Scale::from_args().pick(3, 10) as u64;
    ibox_obs::trace::set_enabled(traced);
    let packets = build_sim(secs, false).run().flow_stats[0].sent;
    assert!(packets > 0, "saturated flow must send packets");

    // The per-mode deltas under test are small (<5%), so the min needs
    // many samples to shake off scheduler noise on a shared machine.
    let mut group = c.benchmark_group("sim_tracing_overhead");
    group.sample_size(Scale::from_args().pick(15, 20));
    let stats = group
        .bench_function_timed(name, |b| {
            b.iter(|| {
                let scope = traced.then(|| {
                    let id = ibox_obs::trace::next_trace_id();
                    ibox_obs::trace::start_root(id, "bench-sim").expect("tracing enabled")
                });
                let out = black_box(build_sim(secs, timeline).run());
                drop(scope);
                out
            })
        })
        .expect("measured");
    group.finish();
    packets as f64 * best_per_sec(&stats)
}

fn main() {
    let bench = ibox_bench::BenchRun::start("trace");
    let mut criterion = Criterion::default();

    let disabled = bench_mode(&mut criterion, "collection_disabled", false, false);
    let enabled = bench_mode(&mut criterion, "collection_enabled", true, false);
    let timeline = bench_mode(&mut criterion, "timeline_mode", true, true);
    ibox_obs::trace::set_enabled(false);

    let pct = |mode: f64| (1.0 - mode / disabled.max(1e-9)) * 100.0;
    let registry = ibox_obs::global();
    registry.gauge("trace.sim_packets_per_sec_disabled").set(disabled);
    registry.gauge("trace.sim_packets_per_sec_enabled").set(enabled);
    registry.gauge("trace.sim_packets_per_sec_timeline").set(timeline);
    registry.gauge("trace.overhead_pct_enabled").set(pct(enabled));
    registry.gauge("trace.overhead_pct_timeline").set(pct(timeline));

    print!(
        "{}",
        render_table(
            "Sim throughput under trace collection (packets/s)",
            &["mode", "packets/s", "overhead %"],
            &[
                vec!["disabled".into(), cell(disabled, 0), cell(pct(disabled), 1)],
                vec!["enabled (span only)".into(), cell(enabled, 0), cell(pct(enabled), 1)],
                vec!["enabled + timeline".into(), cell(timeline, 0), cell(pct(timeline), 1)],
            ],
        )
    );

    // Read the committed baseline BEFORE finish() overwrites the file.
    let baseline_failures = check_baseline(&[
        ("trace.sim_packets_per_sec_disabled", disabled, 0.20, Better::Higher),
        ("trace.sim_packets_per_sec_enabled", enabled, 0.20, Better::Higher),
    ]);

    bench.finish();

    assert!(
        enabled >= disabled * 0.95,
        "span collection must cost <5% sim throughput: \
         {enabled:.0} enabled vs {disabled:.0} disabled ({:.1}% overhead)",
        pct(enabled)
    );
    ibox_bench::exit_on_regressions("trace overhead", &baseline_failures);
}
