//! Fig. 2 — Ensemble test with iBoxNet on the India-Cellular-like profile.
//!
//! The paper plots, per run, average rate vs. 95th-percentile delay and
//! vs. packet loss %, for Cubic (the control, used to fit the models) and
//! Vegas (the treatment, never seen during fitting), ground truth vs.
//! iBoxNet — and verifies the match with a two-sample KS test.
//!
//! This binary prints the distribution summaries (mean / quartiles) of
//! each metric for all four populations, the per-run scatter points, and
//! the KS statistics/p-values.

use ibox::abtest::{ensemble_test, ModelKind};
use ibox_bench::{cell, dist_cells, render_table, Scale};
use ibox_sim::SimTime;
use ibox_testbed::pantheon::{generate_paired_datasets, PANTHEON_DURATION};
use ibox_testbed::Profile;

fn main() {
    let bench = ibox_bench::BenchRun::start("fig2");
    let scale = Scale::from_args();
    let jobs = ibox_bench::jobs_from_args();
    let n = scale.pick(6, 30);
    let duration = match scale {
        Scale::Quick => SimTime::from_secs(10),
        Scale::Full => PANTHEON_DURATION,
    };
    ibox_obs::info!("fig2: generating {n} paired cubic/vegas runs on india-cellular…");
    let ds = generate_paired_datasets(
        Profile::IndiaCellular,
        &["cubic", "vegas"],
        n,
        duration,
        2_000,
        jobs,
    );
    ibox_obs::info!("fig2: fitting iBoxNet per trace and replaying both protocols…");
    let report = ensemble_test(&ds[0], &ds[1], ModelKind::IBoxNet, duration, 7, jobs);

    // Distribution summary (the shape Fig. 2's markers encode).
    let mut rows = Vec::new();
    for (label, ms) in [
        ("Cubic GT", &report.gt_a),
        ("Cubic iBoxNet", &report.sim_a),
        ("Vegas GT", &report.gt_b),
        ("Vegas iBoxNet", &report.sim_b),
    ] {
        let rates: Vec<f64> = ms.iter().map(|m| m.avg_rate_mbps).collect();
        let delays: Vec<f64> = ms.iter().map(|m| m.p95_delay_ms).collect();
        let losses: Vec<f64> = ms.iter().map(|m| m.loss_pct).collect();
        let mut row = vec![label.to_string()];
        row.extend(dist_cells(&rates));
        row.extend(dist_cells(&delays));
        row.extend(dist_cells(&losses));
        rows.push(row);
    }
    print!(
        "{}",
        render_table(
            "Fig. 2 — metric distributions (rate Mbps | p95 delay ms | loss %)",
            &[
                "population",
                "rate.mean",
                "rate.p25",
                "rate.p50",
                "rate.p75",
                "d95.mean",
                "d95.p25",
                "d95.p50",
                "d95.p75",
                "loss.mean",
                "loss.p25",
                "loss.p50",
                "loss.p75",
            ],
            &rows,
        )
    );

    // KS verification.
    let ks_rows = vec![
        vec![
            "p95 delay".to_string(),
            cell(report.ks_delay.a.statistic, 3),
            cell(report.ks_delay.a.p_value, 3),
            cell(report.ks_delay.b.statistic, 3),
            cell(report.ks_delay.b.p_value, 3),
        ],
        vec![
            "loss %".to_string(),
            cell(report.ks_loss.a.statistic, 3),
            cell(report.ks_loss.a.p_value, 3),
            cell(report.ks_loss.b.statistic, 3),
            cell(report.ks_loss.b.p_value, 3),
        ],
        vec![
            "avg rate".to_string(),
            cell(report.ks_rate.a.statistic, 3),
            cell(report.ks_rate.a.p_value, 3),
            cell(report.ks_rate.b.statistic, 3),
            cell(report.ks_rate.b.p_value, 3),
        ],
    ];
    print!(
        "{}",
        render_table(
            "Fig. 2 — two-sample KS tests, GT vs iBoxNet (match if p > 0.05)",
            &["metric", "D(cubic)", "p(cubic)", "D(vegas)", "p(vegas)"],
            &ks_rows,
        )
    );

    // Per-run scatter points (Fig. 2's individual markers).
    let mut scatter = Vec::new();
    for (label, ms) in [
        ("cubic/gt", &report.gt_a),
        ("cubic/iboxnet", &report.sim_a),
        ("vegas/gt", &report.gt_b),
        ("vegas/iboxnet", &report.sim_b),
    ] {
        for m in ms.iter() {
            scatter.push(vec![
                label.to_string(),
                cell(m.avg_rate_mbps, 3),
                cell(m.p95_delay_ms, 1),
                cell(m.loss_pct, 2),
            ]);
        }
    }
    print!(
        "{}",
        render_table(
            "Fig. 2 — per-run scatter points",
            &["series", "rate_mbps", "p95_delay_ms", "loss_pct"],
            &scatter,
        )
    );
    bench.finish();
}
