//! Integration tests for the ML side: iBoxML and the melded reordering
//! models over real simulator traces.

use ibox::iboxml::{IBoxMl, IBoxMlConfig};
use ibox::meld::discovery::discover;
use ibox::meld::reorder::{augment_with_reordering, NaiveRandom, ReorderLinear};
use ibox::IBoxNet;
use ibox_cc::Cubic;
use ibox_ml::TrainConfig;
use ibox_sim::{PathConfig, PathEmulator, ReorderCfg, SimTime};
use ibox_testbed::pantheon::generate_dataset;
use ibox_testbed::Profile;
use ibox_trace::metrics::{delay_percentile_ms, overall_reordering_rate};
use ibox_trace::FlowTrace;

fn quick_ml_cfg() -> IBoxMlConfig {
    IBoxMlConfig {
        hidden_sizes: vec![16],
        with_cross_traffic: false,
        known_params: None,
        train: TrainConfig {
            epochs: 6,
            lr: 5e-3,
            tbptt: 48,
            clip: 5.0,
            loss_weight: 0.2,
            delay_weight: 1.0,
            ..Default::default()
        },
        seed: 5,
    }
}

fn fixed_path_traces(n: usize, secs: u64) -> Vec<FlowTrace> {
    (0..n)
        .map(|i| {
            let emu = PathEmulator::from_spec(
                ibox_sim::PathSpec::single(PathConfig::simple(
                    6e6,
                    SimTime::from_millis(25),
                    80_000,
                )),
                SimTime::from_secs(secs),
            )
            .with_name("fixed");
            emu.run_sender(Box::new(Cubic::new()), "m", 300 + i as u64)
                .traces
                .into_iter()
                .next()
                .unwrap()
                .normalized()
        })
        .collect()
}

/// iBoxML learns the delay regime of a path and transfers to held-out
/// traces of the same path.
#[test]
fn iboxml_transfers_to_held_out_traces() {
    let traces = fixed_path_traces(4, 8);
    let model = IBoxMl::fit(&traces[..3], quick_ml_cfg());
    let pred = model.predict_trace(&traces[3]);
    let p50_gt = delay_percentile_ms(&traces[3], 0.5).unwrap();
    let p50_ml = delay_percentile_ms(&pred, 0.5).unwrap();
    assert!(p50_ml > 0.4 * p50_gt && p50_ml < 2.5 * p50_gt, "medians: gt {p50_gt} vs ml {p50_ml}");
    // The send pattern is replayed exactly.
    assert_eq!(pred.len(), traces[3].len());
}

/// The discovery → augmentation loop closes: 'a' is missing from iBoxNet
/// output and restored by the learned reordering model.
#[test]
fn discovery_and_repair_loop() {
    let duration = SimTime::from_secs(12);
    let gt = generate_dataset(Profile::IndiaCellular, "cubic", 4, duration, 888, 1);
    let sims: Vec<FlowTrace> = gt
        .traces
        .iter()
        .enumerate()
        .map(|(i, t)| IBoxNet::fit(t).simulate("cubic", duration, 30 + i as u64))
        .collect();

    // Before: 'a' missing.
    let before = discover(&gt.traces, &sims);
    assert!(
        before.missing_unigrams.iter().any(|(p, _)| p == "a"),
        "reordering must be discovered as missing: {:?}",
        before.missing_unigrams
    );

    // After augmentation: 'a' restored at a plausible rate.
    let predictor = ReorderLinear::fit(&gt.traces);
    let augmented: Vec<FlowTrace> = sims
        .iter()
        .enumerate()
        .map(|(i, t)| augment_with_reordering(t, &predictor, 60 + i as u64))
        .collect();
    let after = discover(&gt.traces, &augmented);
    assert!(
        !after.missing_unigrams.iter().any(|(p, _)| p == "a"),
        "'a' should be restored: {:?}",
        after.missing_unigrams
    );
}

/// The naive-random ablation matches length-1 rates but the learned model
/// is what the figures use; both must land in the right decade.
#[test]
fn reorder_rates_land_in_the_right_decade() {
    let mut path = PathConfig::simple(7e6, SimTime::from_millis(25), 90_000);
    path.reorder = Some(ReorderCfg {
        probability: 0.02,
        extra_min: SimTime::from_millis(2),
        extra_max: SimTime::from_millis(8),
    });
    let gt: Vec<FlowTrace> = (0..2)
        .map(|i| {
            PathEmulator::from_spec(
                ibox_sim::PathSpec::single(path.clone()),
                SimTime::from_secs(12),
            )
            .run_sender(Box::new(Cubic::new()), "m", i)
            .traces
            .into_iter()
            .next()
            .unwrap()
            .normalized()
        })
        .collect();
    let base = PathEmulator::from_spec(
        ibox_sim::PathSpec::single(PathConfig::simple(7e6, SimTime::from_millis(25), 90_000)),
        SimTime::from_secs(12),
    )
    .run_sender(Box::new(Cubic::new()), "m", 9)
    .traces
    .into_iter()
    .next()
    .unwrap()
    .normalized();

    let target = gt.iter().map(overall_reordering_rate).sum::<f64>() / gt.len() as f64;
    for (name, rate) in [
        ("naive", {
            let p = NaiveRandom::fit(&gt);
            overall_reordering_rate(&augment_with_reordering(&base, &p, 1))
        }),
        ("linear", {
            let p = ReorderLinear::fit(&gt);
            overall_reordering_rate(&augment_with_reordering(&base, &p, 1))
        }),
    ] {
        assert!(
            rate > 0.1 * target && rate < 10.0 * target,
            "{name}: rate {rate} vs target {target}"
        );
    }
}

/// iBoxML's loss head and the trace replay interact correctly: predicted
/// traces may mark losses, and delays stay physical.
#[test]
fn iboxml_predictions_are_physical() {
    let traces = fixed_path_traces(2, 6);
    let model = IBoxMl::fit(&traces[..1], quick_ml_cfg());
    let pred = model.predict_trace(&traces[1]);
    for r in pred.delivered() {
        let d = r.delay_secs().unwrap();
        assert!(d > 0.0 && d < 10.0, "nonphysical delay {d}");
    }
}
