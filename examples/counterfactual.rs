//! Instance-level counterfactual analysis (§2's "instance test").
//!
//! Three runs of the same network differ only in *when* a competing Cubic
//! flow shows up (0–10 s, 20–30 s, 40–50 s). From a single Cubic
//! measurement per instance, iBoxNet recovers the cross-traffic timing
//! well enough that Vegas runs on the fitted models cluster perfectly with
//! the matching ground-truth instances — the paper's Fig. 4.
//!
//! ```sh
//! cargo run --release --example counterfactual
//! ```

use ibox::abtest::instance_test;
use ibox::IBoxNet;
use ibox_testbed::instance::{run_instance, InstanceScenario};

fn main() {
    // Peek at what iBoxNet recovers per instance.
    println!("what iBoxNet recovers from one cubic run per instance:");
    for pattern in 0..3 {
        let scenario = InstanceScenario::new(pattern);
        let trace = run_instance(&scenario, "cubic", 7 + pattern as u64);
        let model = IBoxNet::fit(&trace);
        let (ct_start, ct_stop) = scenario.cross_schedule();
        let window = (ct_start.as_secs_f64(), ct_stop.as_secs_f64());
        let inside = model.cross.bytes_between(window.0, window.1);
        let outside = model.cross.total_bytes() - inside;
        println!(
            "  pattern {pattern} (true CT in {:>2.0}-{:>2.0}s): estimated CT inside window {:>7.0} B, outside {:>7.0} B",
            window.0, window.1, inside, outside
        );
    }

    println!("\nrunning the full instance test (4 GT + 4 simulated vegas runs per pattern)…");
    let report = instance_test(4, "vegas", 11, 1);

    println!(
        "k-means (k=3) purity: {:.3}  (1.000 = 'no mistakes', as in the paper)",
        report.purity
    );
    println!("\nper-run cluster assignments:");
    for (tag, a) in report.tags.iter().zip(&report.assignments) {
        println!(
            "  pattern {}  {:<8}  -> cluster {a}",
            tag.pattern,
            if tag.simulated { "iboxnet" } else { "gt" }
        );
    }
    println!("\ncontrol-protocol rate alignment (Fig. 4a):");
    for (p, c) in report.control_rate_alignment.iter().enumerate() {
        println!("  pattern {p}: xcorr(iBoxNet cubic, real cubic) = {c:.3}");
    }
}
