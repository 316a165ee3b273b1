//! Byte pins on the packet engine for every sender: `FlowTrace::digest()`
//! of `PathEmulator::run_sender` for cubic, reno, vegas, bbr and rtc.
//!
//! The digests were captured at commit `6beab07`, before BBR-lite's
//! windowed filters became monotone deques. A change to a sender that is
//! meant to keep its bytes (a faster filter, a panic-free `Option`) must
//! leave every digest here alone; a change that moves one sender's bytes
//! on purpose regenerates that sender's column only and says so.
//!
//! The two paths have the shapes of the request benchmark's pinned paths:
//! * wired: 80 Mbps, 5 ms, 80 KB buffer, 4 Mbps Poisson cross traffic;
//! * cellular: 6 Mbps, 40 ms, 150 KB buffer, 1.5 Mbps on-off cross
//!   traffic, run past BBR-lite's 10 s filter windows so their expiry is
//!   pinned too. Nothing on this path draws from the seed, so both seeds
//!   must give the same bytes.

use ibox_sim::{CrossTrafficCfg, PathConfig, PathEmulator, PathSpec, SimTime};

const PROTOCOLS: [&str; 5] = ["cubic", "reno", "vegas", "bbr", "rtc"];
const SEEDS: [u64; 2] = [3, 4];

/// `[path][protocol][seed]`, captured at commit `6beab07`.
const GOLDEN: [[[&str; 2]; 5]; 2] = [
    // wired
    [
        ["fnv1a:b94df6b89bdc5dad", "fnv1a:0f0af54a241a12f7"],
        ["fnv1a:97ede381fb8774d6", "fnv1a:5f56d92f076b0d9e"],
        ["fnv1a:ca81d92d6b3a4188", "fnv1a:d7f2b839ce7b9c7f"],
        ["fnv1a:f7711d3bd591e019", "fnv1a:069333244f136202"],
        ["fnv1a:14845ffe08a1f5c8", "fnv1a:d3e0c1ff9bc9b9da"],
    ],
    // cellular
    [
        ["fnv1a:0574a95a779551ae", "fnv1a:0574a95a779551ae"],
        ["fnv1a:5554f899d6f9766a", "fnv1a:5554f899d6f9766a"],
        ["fnv1a:fb76f91a989ae5d4", "fnv1a:fb76f91a989ae5d4"],
        ["fnv1a:9d3f6be018dd0677", "fnv1a:9d3f6be018dd0677"],
        ["fnv1a:23bad98a5ac8b510", "fnv1a:23bad98a5ac8b510"],
    ],
];

fn wired() -> PathEmulator {
    let duration = SimTime::from_secs(4);
    let path = PathConfig::simple(80e6, SimTime::from_millis(5), 80_000);
    let cross = CrossTrafficCfg::Poisson {
        mean_rate_bps: 4e6,
        pkt_size: 1200,
        start: SimTime::ZERO,
        stop: duration,
    };
    PathEmulator::from_spec(PathSpec::single(path), duration).with_cross_traffic(cross)
}

fn cellular() -> PathEmulator {
    let duration = SimTime::from_secs(15);
    let path = PathConfig::simple(6e6, SimTime::from_millis(40), 150_000);
    let cross = CrossTrafficCfg::OnOff {
        rate_bps: 1.5e6,
        pkt_size: 1200,
        on: SimTime::from_secs(2),
        off: SimTime::from_secs(3),
        start: SimTime::ZERO,
        stop: duration,
    };
    PathEmulator::from_spec(PathSpec::single(path), duration).with_cross_traffic(cross)
}

#[test]
fn every_sender_keeps_its_bytes() {
    let mut actual = Vec::new();
    for emu in [wired(), cellular()] {
        for protocol in PROTOCOLS {
            for seed in SEEDS {
                let cc = ibox_cc::by_name(protocol).expect("a known protocol");
                let out = emu.run_sender(cc, protocol, seed);
                let trace = out.trace(protocol).expect("one recorded flow");
                assert!(trace.len() > 500, "{protocol}/{seed}: {} records", trace.len());
                actual.push(trace.digest());
            }
        }
    }
    let golden: Vec<&str> = GOLDEN.iter().flatten().flatten().copied().collect();
    assert_eq!(actual, golden, "packet-engine sender bytes changed");
}
