//! Fig. 8 — Behaviour discovery on Pantheon-like traces (§5.1).
//!
//! (a) SAX-encode the inter-packet arrival differences of ground-truth
//! and iBoxNet traces and "diff" the motif tables: the symbol `'a'`
//! (negative inter-arrival, i.e. reordering) appears only in ground truth.
//! (b) After augmenting iBoxNet with the learned reordering model, the
//! frequencies of `'a'` patterns (length 1 and 2) approach ground truth.

use ibox::meld::discovery::discover;
use ibox::meld::reorder::{augment_with_reordering, ReorderLstm};
use ibox::IBoxNet;
use ibox_bench::{cell, render_table, Scale};
use ibox_sim::SimTime;
use ibox_testbed::pantheon::generate_paired_datasets;
use ibox_testbed::Profile;

fn main() {
    let bench = ibox_bench::BenchRun::start("fig8");
    let scale = Scale::from_args();
    let jobs = ibox_bench::jobs_from_args();
    let n_train = scale.pick(3, 16);
    let n_test = scale.pick(3, 12);
    let duration = match scale {
        Scale::Quick => SimTime::from_secs(10),
        Scale::Full => SimTime::from_secs(30),
    };
    ibox_obs::info!("fig8: generating {} paired cubic/vegas cellular runs…", n_train + n_test);
    let ds = generate_paired_datasets(
        Profile::IndiaCellular,
        &["cubic", "vegas"],
        n_train + n_test,
        duration,
        13_000,
        jobs,
    );
    let (cubic_train, _) = ds[0].split(n_train as f64 / (n_train + n_test) as f64);
    let (_, vegas_test) = ds[1].split(n_train as f64 / (n_train + n_test) as f64);

    // iBoxNet simulations of the test set (reordering-free by construction).
    ibox_obs::info!("fig8: simulating iBoxNet traces…");
    let net_traces: Vec<_> = ibox_runner::run_scoped(vegas_test.traces.len(), jobs, |i| {
        IBoxNet::fit(&vegas_test.traces[i]).simulate("vegas", duration, 400 + i as u64)
    });

    // (a) The diff: patterns in GT absent from iBoxNet.
    let report = discover(&vegas_test.traces, &net_traces);
    println!("## Fig. 8a — patterns in ground truth but MISSING from iBoxNet");
    if report.missing_unigrams.is_empty() && report.missing_bigrams.is_empty() {
        println!("(none)");
    }
    for (p, f) in &report.missing_unigrams {
        println!("  length-1 pattern {p:?}  gt-frequency {:.2}%", f * 100.0);
    }
    for (p, f) in &report.missing_bigrams {
        println!("  length-2 pattern {p:?}  gt-frequency {:.2}%", f * 100.0);
    }
    println!();

    // (b) Augment with the learned LSTM reorder model and re-compare.
    ibox_obs::info!("fig8: training the LSTM reorder model and augmenting…");
    let lstm = ReorderLstm::fit(&cubic_train.traces, 16, scale.pick(3, 8), 3);
    let augmented: Vec<_> = ibox_runner::run_scoped(net_traces.len(), jobs, |i| {
        augment_with_reordering(&net_traces[i], &lstm, 700 + i as u64)
    });
    let report_aug = discover(&vegas_test.traces, &augmented);

    let mut rows = Vec::new();
    for (pattern, gt_f, _) in report.comparison_rows(6) {
        let aug_f = if pattern.len() == 1 {
            report_aug.sim_unigrams.frequency(&pattern)
        } else {
            report_aug.sim_bigrams.frequency(&pattern)
        };
        let net_f = if pattern.len() == 1 {
            report.sim_unigrams.frequency(&pattern)
        } else {
            report.sim_bigrams.frequency(&pattern)
        };
        rows.push(vec![
            pattern,
            format!("{:.2}%", gt_f * 100.0),
            format!("{:.2}%", net_f * 100.0),
            format!("{:.2}%", aug_f * 100.0),
        ]);
    }
    print!(
        "{}",
        render_table(
            "Fig. 8b — pattern frequencies: ground truth vs iBoxNet vs iBoxNet+ML",
            &["pattern", "ground truth", "iboxnet", "iboxnet+ml"],
            &rows,
        )
    );

    // Residual diff after augmentation.
    println!("## Fig. 8b — patterns still missing after augmentation");
    if report_aug.missing_unigrams.is_empty() {
        println!("  length-1: (none — 'a' restored)");
    } else {
        for (p, f) in &report_aug.missing_unigrams {
            println!("  length-1 pattern {p:?} gt-frequency {}", cell(f * 100.0, 2));
        }
    }
    bench.finish();
}
