//! Ensemble A/B testing inside the simulator (§2's "ensemble test").
//!
//! Recreates a flighting-style A/B comparison without touching a network:
//! fit iBoxNet models on a fleet of Cubic measurement runs over randomized
//! cellular paths, then ask the models how Vegas *would have* performed on
//! those same paths — and verify against paired ground truth with KS
//! tests. This is a miniature of the paper's Fig. 2.
//!
//! ```sh
//! cargo run --release --example ab_testing
//! ```

use ibox::abtest::{ensemble_test, ModelKind};
use ibox_sim::SimTime;
use ibox_testbed::pantheon::generate_paired_datasets;
use ibox_testbed::Profile;

fn main() {
    let n = 8;
    let duration = SimTime::from_secs(15);

    println!("generating {n} paired cubic/vegas measurement runs (india-cellular profile)…");
    let ds =
        generate_paired_datasets(Profile::IndiaCellular, &["cubic", "vegas"], n, duration, 777, 1);

    println!("fitting one iBoxNet per cubic run; replaying cubic and vegas through each…\n");
    let report = ensemble_test(&ds[0], &ds[1], ModelKind::IBoxNet, duration, 3, 1);

    println!("per-run p95 delay (ms):");
    println!("  run   cubic/gt  cubic/sim  vegas/gt  vegas/sim");
    for i in 0..n {
        println!(
            "  {:>3}   {:>8.1}  {:>9.1}  {:>8.1}  {:>9.1}",
            i,
            report.gt_a[i].p95_delay_ms,
            report.sim_a[i].p95_delay_ms,
            report.gt_b[i].p95_delay_ms,
            report.sim_b[i].p95_delay_ms
        );
    }

    println!("\ntwo-sample KS tests (GT vs model):");
    for (name, ks) in [
        ("p95 delay", &report.ks_delay),
        ("loss %", &report.ks_loss),
        ("avg rate", &report.ks_rate),
    ] {
        println!(
            "  {name:<10} cubic: D={:.3} p={:.3}   vegas: D={:.3} p={:.3}",
            ks.a.statistic, ks.a.p_value, ks.b.statistic, ks.b.p_value
        );
    }
    println!("\n(p > 0.05 ⇒ the model's metric distribution is statistically");
    println!(" indistinguishable from ground truth — including for Vegas,");
    println!(" which the models never saw during fitting.)");
}
