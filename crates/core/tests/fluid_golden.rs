//! Contracts on the one fluid simulator: byte-identity pins for 1-stage
//! paths, and a cross-engine differential bound for multi-stage chains.
//!
//! The digests below were captured at commit `addd2c9` (PR 11), when
//! `FluidSim` was a scalar-queue, single-stage engine. The one fluid
//! simulator that replaced it must reproduce those bytes for every
//! 1-stage replay at `flow` and `hybrid` fidelity: N = 1 is the general
//! per-stage loop with one element, not a preserved special case.
//!
//! Two paths are pinned so both emission paths are covered:
//! * the fitted `bench/path` model (`Profile::Ethernet`, train seed 1,
//!   estimated cross traffic present) — no jitter/loss/reorder, so records
//!   come from the affine fast path;
//! * a hand-built 1-stage override with jitter, random loss, reordering
//!   and a CBR cross source — every record takes the per-packet slow path.

use ibox::{fit_model, Fidelity, FittedModel, ModelKind, ReplayOpts};
use ibox_sim::{CrossTrafficCfg, PathConfig, PathSpec, PathStage, ReorderCfg, SimTime};
use ibox_stats::ks_two_sample;
use ibox_testbed::pantheon::run_protocol;
use ibox_testbed::Profile;
use ibox_trace::metrics::avg_rate_mbps;
use ibox_trace::FlowTrace;

const PROTOCOLS: [&str; 4] = ["cubic", "reno", "vegas", "bbr"];
const SEEDS: [u64; 2] = [7, 8];
const DURATION: SimTime = SimTime(8_000_000_000);

/// `[path][fidelity][protocol][seed]`, captured at commit `addd2c9`.
const GOLDEN: [[[[&str; 2]; 4]; 2]; 2] = [
    // fitted bench/path model
    [
        // flow
        [
            ["fnv1a:414bc171ab2a1444", "fnv1a:414bc171ab2a1444"],
            ["fnv1a:15bd2f8fe9b6385d", "fnv1a:15bd2f8fe9b6385d"],
            ["fnv1a:f21db142ff31971b", "fnv1a:f21db142ff31971b"],
            ["fnv1a:8df0610ad76fd790", "fnv1a:8df0610ad76fd790"],
        ],
        // hybrid
        [
            ["fnv1a:ff56bd90867fed12", "fnv1a:ff56bd90867fed12"],
            ["fnv1a:7363ed187cb88959", "fnv1a:7363ed187cb88959"],
            ["fnv1a:f21db142ff31971b", "fnv1a:f21db142ff31971b"],
            ["fnv1a:e6c53eec6a2835ef", "fnv1a:e6c53eec6a2835ef"],
        ],
    ],
    // impaired 1-stage override
    [
        // flow
        [
            ["fnv1a:a25819220686cc68", "fnv1a:e6c248540afb2524"],
            ["fnv1a:b544dabe0e450ea1", "fnv1a:cec9a7c4e5d96e86"],
            ["fnv1a:ae3a4b09a78eacc1", "fnv1a:fa1391eeeb4aa973"],
            ["fnv1a:15f892b373b923e5", "fnv1a:3efe289ce27ca9be"],
        ],
        // hybrid
        [
            ["fnv1a:acff56c83ef9a00c", "fnv1a:0b9de69ba4acc079"],
            ["fnv1a:1716e9a8e53f7e6f", "fnv1a:72b3f9aefcbeb505"],
            ["fnv1a:ae3a4b09a78eacc1", "fnv1a:fa1391eeeb4aa973"],
            ["fnv1a:b7f546d1d6eb67a0", "fnv1a:5cf5b5e1ef323299"],
        ],
    ],
];

fn bench_path_model() -> FittedModel {
    let inst = Profile::Ethernet.sample(1, DURATION);
    let train = run_protocol(&inst, "cubic", DURATION, 1);
    fit_model(&ModelKind::IBoxNet, &train)
}

fn impaired_single_stage() -> PathSpec {
    let mut cfg = PathConfig::simple(12e6, SimTime::from_millis(18), 90_000);
    cfg.jitter = Some(SimTime::from_micros(300));
    cfg.random_loss = 0.004;
    cfg.reorder = Some(ReorderCfg {
        probability: 0.01,
        extra_min: SimTime::from_millis(1),
        extra_max: SimTime::from_millis(4),
    });
    let mut stage = PathStage::new(cfg);
    stage.cross.push(CrossTrafficCfg::cbr(2e6, SimTime::from_secs(1), SimTime::from_secs(6)));
    PathSpec::from_stages(vec![stage])
}

#[test]
fn single_stage_fluid_bytes_match_the_parent_commit() {
    let model = bench_path_model();
    let paths = [None, Some(impaired_single_stage())];
    let mut actual = Vec::new();
    for path in &paths {
        for fidelity in [Fidelity::Flow, Fidelity::Hybrid] {
            for protocol in PROTOCOLS {
                for seed in SEEDS {
                    let opts = ReplayOpts { fidelity, path: path.clone(), ..Default::default() };
                    let trace = model.simulate_with(protocol, DURATION, seed, opts);
                    assert!(trace.len() > 200, "{fidelity}/{protocol}/{seed} replay too small");
                    actual.push(trace.digest());
                }
            }
        }
    }
    let golden: Vec<&str> = GOLDEN.iter().flatten().flatten().flatten().copied().collect();
    assert_eq!(actual, golden, "1-stage fluid bytes changed");
}

/// The k-stage chain of `perf`'s `path` row (`crates/bench/src/bin/perf.rs`):
/// the 12 Mbps bottleneck first, then progressively faster transit hops.
fn bench_chain(stages: usize) -> PathSpec {
    let hop = |rate_bps: f64, delay_ms: u64, buffer: u64| {
        PathStage::new(PathConfig::simple(rate_bps, SimTime::from_millis(delay_ms), buffer))
    };
    let mut v = vec![hop(12e6, 10, 150_000), hop(40e6, 4, 300_000), hop(80e6, 2, 500_000)];
    v.truncate(stages);
    PathSpec::from_stages(v)
}

fn delays_ms(trace: &FlowTrace) -> Vec<f64> {
    trace.delivered().filter_map(|r| r.delay_ms()).collect()
}

/// Multi-stage `flow` replays are an approximation, not a pinned byte
/// stream: bound them against the packet engine on the same chain. Hard
/// invariants (delay floor, goodput ceiling) hold exactly; the delivered
/// count and the delay distribution must not degrade as stages are added.
#[test]
fn chain_flow_replay_tracks_the_packet_engine() {
    let model = bench_path_model();
    for protocol in ["cubic", "reno"] {
        let mut ks_single = f64::NAN;
        for k in 1..=3 {
            let replay = |fidelity| {
                let opts =
                    ReplayOpts { fidelity, path: Some(bench_chain(k)), ..Default::default() };
                model.simulate_with(protocol, DURATION, 7, opts)
            };
            let (packet, flow) = (replay(Fidelity::Packet), replay(Fidelity::Flow));

            let (np, nf) = (packet.delivered_count() as f64, flow.delivered_count() as f64);
            assert!(
                (nf - np).abs() <= 0.05 * np,
                "{protocol} k={k}: flow delivered {nf} vs packet {np}"
            );
            let prop_ns = bench_chain(k).total_prop_delay().as_nanos();
            assert!(
                flow.min_delay_ns().unwrap() >= prop_ns,
                "{protocol} k={k}: delay below the propagation floor"
            );
            let rate = avg_rate_mbps(&flow);
            assert!(rate <= 12.0, "{protocol} k={k}: goodput {rate} Mbps above the bottleneck");

            let ks = ks_two_sample(&delays_ms(&packet), &delays_ms(&flow)).statistic;
            println!("{protocol} k={k}: delay KS {ks:.3}, delivered {nf}/{np}, {rate:.2} Mbps");
            if k == 1 {
                ks_single = ks;
            } else {
                assert!(
                    ks <= ks_single + 0.10,
                    "{protocol} k={k}: delay KS {ks:.3} vs 1-stage {ks_single:.3}"
                );
            }
        }
    }
}
