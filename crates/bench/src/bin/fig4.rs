//! Fig. 4 — Instance tests with iBoxNet.
//!
//! Three cross-traffic timings on a known path; an iBoxNet model fitted
//! per instance from a single Cubic run; 10 ground-truth and 10 simulated
//! Vegas runs per instance. The paper reports: (a) the model's Cubic rate
//! time series aligning with ground truth, and (b) k-means (k = 3) over
//! cross-correlation features clustering all runs with their instances
//! "with no mistakes", visualized with t-SNE.
//!
//! This binary prints the clustering purity, the confusion table, the
//! per-pattern Cubic rate alignment, and the t-SNE coordinates.

use ibox::abtest::instance_test;
use ibox_bench::{cell, render_table, Scale};

fn main() {
    let bench = ibox_bench::BenchRun::start("fig4");
    let scale = Scale::from_args();
    let jobs = ibox_bench::jobs_from_args();
    let runs = scale.pick(3, 10);
    ibox_obs::info!("fig4: running instance test with {runs} runs per pattern…");
    let report = instance_test(runs, "vegas", 42, jobs);

    println!(
        "## Fig. 4 — instance test (treatment: Vegas, {runs} GT + {runs} sim runs per pattern)"
    );
    println!(
        "k-means (k=3) clustering purity: {:.3} (1.000 = the paper's \"no mistakes\")",
        report.purity
    );
    println!();

    // Confusion: cluster x true pattern.
    let mut table = [[0usize; 3]; 3];
    for (tag, &a) in report.tags.iter().zip(&report.assignments) {
        table[a][tag.pattern] += 1;
    }
    let rows: Vec<Vec<String>> = table
        .iter()
        .enumerate()
        .map(|(c, row)| {
            let mut cells = vec![format!("cluster{c}")];
            cells.extend(row.iter().map(|n| n.to_string()));
            cells
        })
        .collect();
    print!(
        "{}",
        render_table(
            "Fig. 4b — cluster vs cross-traffic pattern",
            &["", "pat0 (0-10s)", "pat1 (20-30s)", "pat2 (40-50s)"],
            &rows,
        )
    );

    let align_rows: Vec<Vec<String>> = report
        .control_rate_alignment
        .iter()
        .enumerate()
        .map(|(p, c)| vec![format!("pattern{p}"), cell(*c, 3)])
        .collect();
    print!(
        "{}",
        render_table(
            "Fig. 4a — Cubic rate-series correlation: iBoxNet vs ground truth",
            &["instance", "xcorr"],
            &align_rows,
        )
    );

    let emb_rows: Vec<Vec<String>> = report
        .tags
        .iter()
        .zip(&report.embedding)
        .zip(&report.assignments)
        .map(|((tag, xy), a)| {
            vec![
                format!("pat{}", tag.pattern),
                if tag.simulated { "iboxnet" } else { "gt" }.to_string(),
                format!("c{a}"),
                cell(xy[0], 2),
                cell(xy[1], 2),
            ]
        })
        .collect();
    print!(
        "{}",
        render_table(
            "Fig. 4b — t-SNE embedding (plot x,y colored by pattern; × = iboxnet, ● = gt)",
            &["pattern", "source", "cluster", "x", "y"],
            &emb_rows,
        )
    );
    bench.finish();
}
