//! Behaviour discovery and repair (§5.1): find what the simulator is
//! missing, then teach it.
//!
//! 1. Generate real-ish cellular traces (which reorder packets) and
//!    iBoxNet replays of them (which cannot reorder).
//! 2. SAX-encode inter-arrival differences and "diff" the motif tables —
//!    the reordering symbol `'a'` appears only in ground truth.
//! 3. Train the linear reordering predictor and graft reordering onto the
//!    iBoxNet output; re-run the diff.
//!
//! ```sh
//! cargo run --release --example behaviour_discovery
//! ```

use ibox::meld::discovery::discover;
use ibox::meld::reorder::{augment_with_reordering, ReorderLinear};
use ibox::IBoxNet;
use ibox_sim::SimTime;
use ibox_testbed::pantheon::generate_dataset;
use ibox_testbed::Profile;
use ibox_trace::metrics::overall_reordering_rate;

fn main() {
    let duration = SimTime::from_secs(15);
    println!("generating ground-truth cellular traces…");
    let gt = generate_dataset(Profile::IndiaCellular, "cubic", 5, duration, 321, 1);

    println!("replaying each through a fitted iBoxNet…");
    let sims: Vec<_> = gt
        .traces
        .iter()
        .enumerate()
        .map(|(i, t)| IBoxNet::fit(t).simulate("cubic", duration, 60 + i as u64))
        .collect();

    let report = discover(&gt.traces, &sims);
    println!("\nbehaviours in ground truth but missing from iBoxNet:");
    for (p, f) in &report.missing_unigrams {
        println!("  symbol {p:?} at {:.2}% — {}", f * 100.0, describe(p));
    }
    for (p, f) in report.missing_bigrams.iter().take(5) {
        println!("  pattern {p:?} at {:.2}%", f * 100.0);
    }

    println!("\ntraining the linear reordering predictor and augmenting the sims…");
    let predictor = ReorderLinear::fit(&gt.traces);
    let augmented: Vec<_> = sims
        .iter()
        .enumerate()
        .map(|(i, t)| augment_with_reordering(t, &predictor, 90 + i as u64))
        .collect();

    let mean = |ts: &[ibox_trace::FlowTrace]| {
        ts.iter().map(overall_reordering_rate).sum::<f64>() / ts.len() as f64
    };
    println!("\noverall reordering rates:");
    println!("  ground truth      : {:.3}%", mean(&gt.traces) * 100.0);
    println!("  iBoxNet           : {:.3}%", mean(&sims) * 100.0);
    println!("  iBoxNet + linear  : {:.3}%", mean(&augmented) * 100.0);

    let after = discover(&gt.traces, &augmented);
    println!(
        "\nafter augmentation, 'a' is {} from the diff of missing behaviours",
        if after.missing_unigrams.iter().any(|(p, _)| p == "a") { "STILL MISSING" } else { "gone" }
    );
}

fn describe(symbol: &str) -> &'static str {
    match symbol {
        "a" => "negative inter-arrival difference, i.e. packet reordering",
        "b" => "near-zero positive inter-arrival difference",
        _ => "a coarser inter-arrival regime",
    }
}
