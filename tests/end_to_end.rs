//! Cross-crate integration tests: the full iBox pipeline, ground truth to
//! counterfactual, exercised end to end.

use ibox::abtest::{ensemble_test, ModelKind};
use ibox::{IBoxNet, StatisticalLossModel};
use ibox_cc::Cubic;
use ibox_sim::{CrossTrafficCfg, PathConfig, PathEmulator, SimTime};
use ibox_testbed::pantheon::generate_paired_datasets;
use ibox_testbed::Profile;
use ibox_trace::metrics::{avg_rate_mbps, delay_percentile_ms};

/// The headline pipeline: measure Cubic on a known path, fit iBoxNet, and
/// check every estimated parameter against the truth.
#[test]
fn estimation_pipeline_recovers_known_path() {
    let duration = SimTime::from_secs(20);
    let emu = PathEmulator::from_spec(
        ibox_sim::PathSpec::single(PathConfig::simple(8e6, SimTime::from_millis(30), 120_000)),
        duration,
    )
    .with_name("known")
    .with_cross_traffic(CrossTrafficCfg::cbr(
        2e6,
        SimTime::from_secs(5),
        SimTime::from_secs(15),
    ));
    let gt = emu.run_sender(Box::new(Cubic::new()), "m", 1).trace("m").unwrap().normalized();
    let model = IBoxNet::fit(&gt);

    assert!(
        (model.params.bandwidth_bps - 8e6).abs() / 8e6 < 0.05,
        "bandwidth {}",
        model.params.bandwidth_bps
    );
    assert!(
        (model.params.prop_delay.as_millis_f64() - 31.4).abs() < 1.5,
        "prop delay {}",
        model.params.prop_delay
    );
    assert!(
        (90_000..=140_000).contains(&model.params.buffer_bytes),
        "buffer {}",
        model.params.buffer_bytes
    );
    // Cross traffic: 2.5 MB true; conservative lower bound within reach.
    let est = model.cross.total_bytes();
    assert!((1_200_000.0..=3_200_000.0).contains(&est), "cross-traffic estimate {est}");
    // And localized in the right window.
    let inside = model.cross.bytes_between(4.0, 16.0);
    assert!(inside > 0.8 * est, "CT should sit in [5,15]s: {inside} of {est}");
}

/// The counterfactual: Vegas over the fitted model matches Vegas on the
/// real network it never saw.
#[test]
fn counterfactual_vegas_matches_reality() {
    let duration = SimTime::from_secs(20);
    let emu = PathEmulator::from_spec(
        ibox_sim::PathSpec::single(PathConfig::simple(8e6, SimTime::from_millis(30), 120_000)),
        duration,
    )
    .with_cross_traffic(CrossTrafficCfg::cbr(
        2e6,
        SimTime::from_secs(5),
        SimTime::from_secs(15),
    ));
    let cubic_gt = emu.run_sender(Box::new(Cubic::new()), "m", 1).trace("m").unwrap().normalized();
    let vegas_gt =
        emu.run_sender(ibox_cc::by_name("vegas").unwrap(), "m", 1).trace("m").unwrap().normalized();

    let model = IBoxNet::fit(&cubic_gt);
    let vegas_sim = model.simulate("vegas", duration, 9);

    let (r_gt, r_sim) = (avg_rate_mbps(&vegas_gt), avg_rate_mbps(&vegas_sim));
    assert!((r_gt - r_sim).abs() / r_gt < 0.2, "rates {r_gt} vs {r_sim}");
    let d_gt = delay_percentile_ms(&vegas_gt, 0.95).unwrap();
    let d_sim = delay_percentile_ms(&vegas_sim, 0.95).unwrap();
    assert!((d_gt - d_sim).abs() / d_gt < 0.3, "p95 delays {d_gt} vs {d_sim}");
}

/// Profiles are portable artifacts: JSON roundtrip preserves behaviour.
#[test]
fn profile_roundtrip_preserves_simulation() {
    let duration = SimTime::from_secs(10);
    let emu = PathEmulator::from_spec(
        ibox_sim::PathSpec::single(PathConfig::simple(6e6, SimTime::from_millis(25), 80_000)),
        duration,
    );
    let gt = emu.run_sender(Box::new(Cubic::new()), "m", 2).trace("m").unwrap().normalized();
    let model = IBoxNet::fit(&gt);
    let restored = IBoxNet::from_json(&model.to_json()).unwrap();
    assert_eq!(model.simulate("reno", duration, 5), restored.simulate("reno", duration, 5));
}

/// The Fig. 3 ordering at miniature scale: full iBoxNet matches the
/// treatment's delay distribution at least as well as the statistical-loss
/// baseline, measured by the KS statistic.
#[test]
fn iboxnet_beats_statistical_loss_baseline_on_delay() {
    let duration = SimTime::from_secs(10);
    let ds =
        generate_paired_datasets(Profile::IndiaCellular, &["cubic", "vegas"], 6, duration, 400, 1);
    let full = ensemble_test(&ds[0], &ds[1], ModelKind::IBoxNet, duration, 2, 1);
    let stat = ensemble_test(&ds[0], &ds[1], ModelKind::StatisticalLoss, duration, 2, 1);
    assert!(
        full.ks_delay.b.statistic <= stat.ks_delay.b.statistic + 0.17,
        "full D={} vs statistical D={}",
        full.ks_delay.b.statistic,
        stat.ks_delay.b.statistic
    );
}

/// The statistical baseline reproduces the loss *rate* it calibrates on.
#[test]
fn statistical_baseline_is_loss_calibrated() {
    let duration = SimTime::from_secs(12);
    let mut path = PathConfig::simple(6e6, SimTime::from_millis(25), 80_000);
    path.random_loss = 0.02;
    let emu = PathEmulator::from_spec(ibox_sim::PathSpec::single(path), duration);
    let gt = emu.run_sender(Box::new(Cubic::new()), "m", 3).trace("m").unwrap().normalized();
    let model = StatisticalLossModel::fit(&gt);
    assert!((model.loss_rate - gt.loss_rate()).abs() < 1e-9);
    let sim = model.simulate("cubic", duration, 4);
    assert!(
        sim.loss_rate() > 0.5 * model.loss_rate,
        "sim loss {} vs calibrated {}",
        sim.loss_rate(),
        model.loss_rate
    );
}

/// The whole pantheon pipeline is deterministic end to end.
#[test]
fn pipeline_is_deterministic() {
    let duration = SimTime::from_secs(8);
    let run = || {
        let ds = generate_paired_datasets(
            Profile::IndiaCellular,
            &["cubic", "vegas"],
            2,
            duration,
            77,
            1,
        );
        let model = IBoxNet::fit(&ds[0].traces[0]);
        model.simulate("vegas", duration, 5)
    };
    assert_eq!(run(), run());
}
