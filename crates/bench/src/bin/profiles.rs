//! Cross-profile ensemble check — "we have evaluated iBoxNet on other
//! paths too" (§3.1).
//!
//! Runs the Fig. 2 ensemble pipeline on every testbed profile (cellular,
//! cellular with proportional-fair scheduling, clean Ethernet, token-
//! bucket WiFi) and prints the per-profile KS distances for the treatment
//! protocol. The PF variant is the stress test the paper highlights
//! ("despite the complexity of cellular networks (e.g., proportional fair
//! scheduling)").
//!
//! Run: `cargo run -p ibox-bench --release --bin profiles [--quick]`

use ibox::abtest::{ensemble_test, ModelKind};
use ibox_bench::{cell, render_table, Scale};
use ibox_sim::SimTime;
use ibox_testbed::pantheon::generate_paired_datasets;
use ibox_testbed::Profile;

fn main() {
    let bench = ibox_bench::BenchRun::start("profiles");
    let scale = Scale::from_args();
    let jobs = ibox_bench::jobs_from_args();
    let n = scale.pick(4, 15);
    let duration = match scale {
        Scale::Quick => SimTime::from_secs(8),
        Scale::Full => SimTime::from_secs(20),
    };
    let profiles = [
        Profile::IndiaCellular,
        Profile::IndiaCellularPf,
        Profile::Ethernet,
        Profile::TokenBucketWifi,
    ];
    let mut rows = Vec::new();
    for p in profiles {
        ibox_obs::info!("profiles: {} ({n} paired runs)…", p.name());
        let ds = generate_paired_datasets(p, &["cubic", "vegas"], n, duration, 5_000, jobs);
        let r = ensemble_test(&ds[0], &ds[1], ModelKind::IBoxNet, duration, 11, jobs);
        rows.push(vec![
            p.name().to_string(),
            cell(r.ks_delay.b.statistic, 3),
            cell(r.ks_delay.b.p_value, 3),
            cell(r.ks_rate.b.statistic, 3),
            cell(r.ks_rate.b.p_value, 3),
            cell(r.ks_loss.b.statistic, 3),
            cell(r.ks_loss.b.p_value, 3),
        ]);
    }
    print!(
        "{}",
        render_table(
            "iBoxNet ensemble test across path profiles (Vegas vs GT)",
            &["profile", "D(d95)", "p(d95)", "D(rate)", "p(rate)", "D(loss)", "p(loss)"],
            &rows,
        )
    );
    bench.finish();
}
