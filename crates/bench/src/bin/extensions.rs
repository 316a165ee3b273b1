//! The §6 open-challenge extensions, measured.
//!
//! 1. **Limits of model validity** — the validity region fitted on RTC
//!    training traces flags the high-rate CBR workload (the Fig. 7 test)
//!    as out of support, and passes a fresh RTC run.
//! 2. **Test for realism** — discriminator accuracy between ground-truth
//!    traces and (a) iBoxNet replays of the same protocol, (b) a crude
//!    fixed-rate stand-in. Realism = the discriminator's failure.
//! 3. **Adaptive cross traffic** — on the instance-test scenario (whose
//!    cross traffic *is* one adaptive Cubic flow), compare the replayed
//!    (non-adaptive) and adaptive-Cubic cross models on rate suppression.
//!
//! Run: `cargo run -p ibox-bench --release --bin extensions [--quick]`

use ibox::adaptive::AdaptiveCross;
use ibox::realism::{realism_of_model, realism_test};
use ibox::validity::ValidityRegion;
use ibox::{FitCache, IBoxNet, ModelKind};
use ibox_bench::{cell, render_table, Scale};
use ibox_cc::Cubic;
use ibox_sim::{FixedRate, PathConfig, PathEmulator, SimTime};
use ibox_testbed::instance::{run_instance, InstanceScenario, INSTANCE_DURATION};
use ibox_testbed::rtc::{bias_test_trace, bias_training_trace};
use ibox_trace::series::send_rate_series;
use ibox_trace::FlowTrace;

fn main() {
    let bench = ibox_bench::BenchRun::start("extensions");
    let scale = Scale::from_args();
    let jobs = ibox_bench::jobs_from_args();

    // --- 1. Validity regions.
    ibox_obs::info!("extensions: validity region…");
    let dur = SimTime::from_secs(scale.pick(8, 20) as u64);
    let train: Vec<FlowTrace> =
        ibox_runner::run_scoped(3, jobs, |i| bias_training_trace(0.3, dur, i as u64));
    let region = ValidityRegion::fit(&train, jobs);
    let fresh_rtc = bias_training_trace(0.3, dur, 99);
    let cbr = bias_test_trace(0.3, dur, 99);
    let rows = vec![
        vec![
            "fresh RTC run".to_string(),
            cell(region.check(&fresh_rtc).coverage, 3),
            region.check(&fresh_rtc).is_valid(0.9).to_string(),
        ],
        vec![
            "8 Mbps CBR".to_string(),
            cell(region.check(&cbr).coverage, 3),
            region.check(&cbr).is_valid(0.9).to_string(),
        ],
    ];
    print!(
        "{}",
        render_table(
            "Extension 1 — limits of model validity (RTC-trained region)",
            &["candidate", "coverage", "valid@0.9"],
            &rows,
        )
    );

    // --- 2. Realism discriminator.
    ibox_obs::info!("extensions: realism discriminator…");
    let n = scale.pick(3, 8);
    let gt: Vec<FlowTrace> = ibox_runner::run_scoped(n, jobs, |i| {
        PathEmulator::from_spec(
            ibox_sim::PathSpec::single(PathConfig::simple(7e6, SimTime::from_millis(25), 100_000)),
            dur,
        )
        .run_sender(Box::new(Cubic::new()), "m", i as u64)
        .traces
        .into_iter()
        .next()
        .expect("one recorded flow")
        .normalized()
    });
    let crude: Vec<FlowTrace> = ibox_runner::run_scoped(n, jobs, |i| {
        PathEmulator::from_spec(
            ibox_sim::PathSpec::single(PathConfig::simple(7e6, SimTime::from_millis(25), 100_000)),
            dur,
        )
        .run_sender(Box::new(FixedRate::new(5e6)), "m", 70 + i as u64)
        .traces
        .into_iter()
        .next()
        .expect("one recorded flow")
        .normalized()
    });
    let cache = FitCache::in_memory();
    let r_net = realism_of_model(&ModelKind::IBoxNet, &gt, "cubic", dur, 40, &cache, jobs);
    let r_crude = realism_test(&gt, &crude, jobs);
    let rows = vec![
        vec![
            "iBoxNet replay".to_string(),
            cell(r_net.discriminator_accuracy, 3),
            cell(r_net.realism_score, 3),
        ],
        vec![
            "crude CBR stand-in".to_string(),
            cell(r_crude.discriminator_accuracy, 3),
            cell(r_crude.realism_score, 3),
        ],
    ];
    print!(
        "{}",
        render_table(
            "Extension 2 — realism: can a discriminator tell sim from real?",
            &["simulator", "disc_accuracy", "realism(1=best)"],
            &rows,
        )
    );

    // --- 3. Adaptive cross traffic on the instance scenario.
    ibox_obs::info!("extensions: adaptive cross traffic…");
    let scenario = InstanceScenario::new(1); // CT in [20, 30) s
    let fit_trace = run_instance(&scenario, "cubic", 3);
    let model = IBoxNet::fit(&fit_trace);
    let replay_sim = model.simulate("cubic", INSTANCE_DURATION, 9);
    let adaptive = AdaptiveCross::fit(&model);
    let mut rows = Vec::new();
    let dip = |t: &FlowTrace| {
        let rates = send_rate_series(t, 1.0);
        let mean = |lo: f64, hi: f64| {
            let v: Vec<f64> = rates
                .t
                .iter()
                .zip(&rates.v)
                .filter(|(ts, _)| **ts >= lo && **ts < hi)
                .map(|(_, x)| *x)
                .collect();
            v.iter().sum::<f64>() / v.len().max(1) as f64
        };
        mean(22.0, 29.0) / mean(5.0, 15.0).max(1.0)
    };
    rows.push(vec!["ground truth".to_string(), cell(dip(&fit_trace), 3)]);
    rows.push(vec!["iBoxNet (replay CT)".to_string(), cell(dip(&replay_sim), 3)]);
    if let Some(a) = adaptive {
        let sim = a.simulate(&model, "cubic", INSTANCE_DURATION, 9);
        rows.push(vec![format!("iBoxNet (adaptive, {} cubic)", a.n_flows), cell(dip(&sim), 3)]);
    }
    print!(
        "{}",
        render_table(
            "Extension 3 — adaptive CT: main-flow rate inside/outside the CT window",
            &["model", "rate_ratio (lower = stronger suppression)"],
            &rows,
        )
    );
    bench.finish();
}
