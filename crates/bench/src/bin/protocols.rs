//! Cross-protocol generalization: one fitted model, many counterfactuals.
//!
//! The ensemble test's deeper claim is that a model fitted on *one*
//! protocol's traces predicts *any* sender — "the network model is learnt
//! using end-to-end traces of A and then used to predict behaviour if B
//! were run instead" (§2). This binary fixes A = Cubic and sweeps B over
//! every implemented protocol family: loss-based (Reno), delay-based
//! (Vegas), model-based (BBR-lite), and an application control loop
//! (RTC) — a wider net than the paper's single Cubic→Vegas pair.
//!
//! Run: `cargo run -p ibox-bench --release --bin protocols [--quick]`

use ibox::abtest::{ensemble_test, ModelKind};
use ibox_bench::{cell, render_table, Scale};
use ibox_sim::SimTime;
use ibox_stats::wasserstein_1d;
use ibox_testbed::pantheon::generate_paired_datasets;
use ibox_testbed::Profile;

fn main() {
    let bench = ibox_bench::BenchRun::start("protocols");
    let scale = Scale::from_args();
    let jobs = ibox_bench::jobs_from_args();
    let n = scale.pick(4, 15);
    let duration = match scale {
        Scale::Quick => SimTime::from_secs(8),
        Scale::Full => SimTime::from_secs(20),
    };
    let treatments = ["vegas", "reno", "bbr", "rtc"];

    let mut rows = Vec::new();
    for b in treatments {
        ibox_obs::info!("protocols: cubic -> {b} ({n} paired runs)…");
        let ds = generate_paired_datasets(
            Profile::IndiaCellular,
            &["cubic", b],
            n,
            duration,
            21_000,
            jobs,
        );
        let r = ensemble_test(&ds[0], &ds[1], ModelKind::IBoxNet, duration, 5, jobs);
        // KS on p95 delay + the interpretable W1 distances.
        let gt_d: Vec<f64> = r.gt_b.iter().map(|m| m.p95_delay_ms).collect();
        let sim_d: Vec<f64> = r.sim_b.iter().map(|m| m.p95_delay_ms).collect();
        let gt_r: Vec<f64> = r.gt_b.iter().map(|m| m.avg_rate_mbps).collect();
        let sim_r: Vec<f64> = r.sim_b.iter().map(|m| m.avg_rate_mbps).collect();
        rows.push(vec![
            format!("cubic->{b}"),
            cell(r.ks_delay.b.statistic, 3),
            cell(r.ks_delay.b.p_value, 3),
            cell(r.ks_rate.b.statistic, 3),
            cell(r.ks_rate.b.p_value, 3),
            cell(wasserstein_1d(&gt_d, &sim_d), 1),
            cell(wasserstein_1d(&gt_r, &sim_r), 2),
        ]);
    }
    print!(
        "{}",
        render_table(
            "Cross-protocol counterfactuals: iBoxNet fitted on Cubic, treatment swept",
            &["pair", "D(d95)", "p(d95)", "D(rate)", "p(rate)", "W1(d95) ms", "W1(rate) Mbps",],
            &rows,
        )
    );
    println!("(W1 = 1-D Wasserstein distance between GT and model metric distributions)");
    bench.finish();
}
