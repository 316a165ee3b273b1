//! Fig. 3 — Ablations of the cross-traffic input.
//!
//! (a) iBoxNet *without* the cross-traffic input, and (b) a calibrated
//! emulator with a *statistical packet loss* model in place of cross
//! traffic (as in Pantheon \[45\]). The paper's claim: both "yield a worse
//! match with the ground truth than iBoxNet", underscoring that cross
//! traffic must be modelled, and modelled with care.
//!
//! This binary runs the same ensemble test as `fig2` under all three
//! model kinds and prints the KS statistics side by side — the "worse
//! match" shows up as a larger KS D (smaller p).

use ibox::abtest::{ensemble_test, EnsembleReport, ModelKind};
use ibox_bench::{cell, render_table, Scale};
use ibox_sim::SimTime;
use ibox_testbed::pantheon::{generate_paired_datasets, PANTHEON_DURATION};
use ibox_testbed::Profile;

fn main() {
    let bench = ibox_bench::BenchRun::start("fig3");
    let scale = Scale::from_args();
    let jobs = ibox_bench::jobs_from_args();
    let n = scale.pick(6, 30);
    let duration = match scale {
        Scale::Quick => SimTime::from_secs(10),
        Scale::Full => PANTHEON_DURATION,
    };
    ibox_obs::info!("fig3: generating {n} paired cubic/vegas runs…");
    let ds = generate_paired_datasets(
        Profile::IndiaCellular,
        &["cubic", "vegas"],
        n,
        duration,
        2_000,
        jobs,
    );

    let kinds = [
        ModelKind::IBoxNet,
        ModelKind::IBoxNetNoCross,
        ModelKind::StatisticalLoss,
        // Beyond the paper: iBoxNet with the reordering stage melded into
        // the emulator itself (fixes the loss-based senders' dup-ack bias
        // on reordering paths).
        ModelKind::IBoxNetReorder,
    ];
    let reports: Vec<EnsembleReport> = kinds
        .iter()
        .map(|k| {
            ibox_obs::info!("fig3: evaluating {}…", k.name());
            ensemble_test(&ds[0], &ds[1], k.clone(), duration, 7, jobs)
        })
        .collect();

    let mut rows = Vec::new();
    for r in &reports {
        rows.push(vec![
            r.model.clone(),
            cell(r.ks_delay.b.statistic, 3),
            cell(r.ks_delay.b.p_value, 3),
            cell(r.ks_loss.b.statistic, 3),
            cell(r.ks_loss.b.p_value, 3),
            cell(r.ks_rate.b.statistic, 3),
            cell(r.ks_rate.b.p_value, 3),
        ]);
    }
    print!(
        "{}",
        render_table(
            "Fig. 3 — Vegas-vs-GT KS distance per model (smaller D = better match)",
            &["model", "D(d95)", "p(d95)", "D(loss)", "p(loss)", "D(rate)", "p(rate)"],
            &rows,
        )
    );

    let mut rows_a = Vec::new();
    for r in &reports {
        rows_a.push(vec![
            r.model.clone(),
            cell(r.ks_delay.a.statistic, 3),
            cell(r.ks_delay.a.p_value, 3),
            cell(r.ks_loss.a.statistic, 3),
            cell(r.ks_loss.a.p_value, 3),
            cell(r.ks_rate.a.statistic, 3),
            cell(r.ks_rate.a.p_value, 3),
        ]);
    }
    print!(
        "{}",
        render_table(
            "Fig. 3 — Cubic-vs-GT KS distance per model",
            &["model", "D(d95)", "p(d95)", "D(loss)", "p(loss)", "D(rate)", "p(rate)"],
            &rows_a,
        )
    );

    // Mean-delay comparison: the no-CT ablation's signature failure is an
    // optimistic (too-low-delay, too-high-rate) world.
    let mut bias_rows = Vec::new();
    for r in &reports {
        let mean = |v: &[ibox_trace::TraceMetrics], f: fn(&ibox_trace::TraceMetrics) -> f64| {
            v.iter().map(f).sum::<f64>() / v.len() as f64
        };
        bias_rows.push(vec![
            r.model.clone(),
            cell(mean(&r.gt_b, |m| m.p95_delay_ms), 1),
            cell(mean(&r.sim_b, |m| m.p95_delay_ms), 1),
            cell(mean(&r.gt_b, |m| m.avg_rate_mbps), 2),
            cell(mean(&r.sim_b, |m| m.avg_rate_mbps), 2),
        ]);
    }
    print!(
        "{}",
        render_table(
            "Fig. 3 — mean Vegas metrics: GT vs model",
            &["model", "gt.d95_ms", "sim.d95_ms", "gt.rate", "sim.rate"],
            &bias_rows,
        )
    );
    bench.finish();
}
