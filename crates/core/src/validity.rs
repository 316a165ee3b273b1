//! Limits of model validity (§6).
//!
//! "Training data limits the ability of iBoxML to learn about the network.
//! For instance, if the sending rate in the training data never exceeded a
//! certain level R, even over short periods, it would not be possible for
//! iBoxML to accurately predict the output when the rate does exceed R.
//! Therefore … establishing the limits of validity of the learnt model is
//! important. Doing so would also help selectively gather new data that
//! would expand the region of validity of the model."
//!
//! This module implements that check: a [`ValidityRegion`] records the
//! per-feature support (quantile envelope) of the training corpus; a
//! candidate trace gets a per-feature *coverage* score — the fraction of
//! its packets whose features lie inside the envelope — and a list of the
//! features that stray, which is exactly the "what new data to gather"
//! signal.

use serde::{Deserialize, Serialize};

use ibox_trace::FlowTrace;

use crate::features::{extract, FeatureConfig};

/// Names of the feature columns (without the cross-traffic column).
const FEATURE_NAMES: [&str; 4] =
    ["send_rate_bps", "inter_packet_gap_s", "packet_size_B", "prev_delay_s"];

/// The support envelope of a training corpus, per feature.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ValidityRegion {
    /// Per-feature lower bound (the training corpus's 0.5th percentile).
    pub lo: Vec<f64>,
    /// Per-feature upper bound (the 99.5th percentile).
    pub hi: Vec<f64>,
}

/// Coverage report for one candidate trace against a validity region.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ValidityReport {
    /// Fraction of packets fully inside the envelope, `[0, 1]`.
    pub coverage: f64,
    /// Per-feature fraction of packets out of range, with the feature name.
    pub out_of_range: Vec<(String, f64)>,
}

impl ValidityReport {
    /// Whether the model can be trusted on this trace at the given
    /// coverage threshold (e.g. `0.95`).
    pub fn is_valid(&self, threshold: f64) -> bool {
        self.coverage >= threshold
    }
}

impl ValidityRegion {
    /// Learn the envelope from training traces (the same feature extractor
    /// iBoxML uses, without the cross-traffic column — validity is about
    /// the *sender's* behaviour). Per-trace feature extraction is spread
    /// over `jobs` worker threads (`0` = all cores); rows fold back into
    /// columns in trace order, so the envelope is identical at any `jobs`.
    pub fn fit(traces: &[FlowTrace], jobs: usize) -> Self {
        assert!(!traces.is_empty(), "cannot fit a validity region on no traces");
        let cfg = FeatureConfig { with_cross_traffic: false };
        let per_trace =
            ibox_runner::run_scoped(traces.len(), jobs, |i| extract(&traces[i], &cfg, None).rows);
        let mut columns: Vec<Vec<f64>> = vec![Vec::new(); cfg.width()];
        for rows in per_trace {
            for row in rows {
                for (c, v) in columns.iter_mut().zip(&row) {
                    c.push(*v);
                }
            }
        }
        assert!(!columns[0].is_empty(), "training traces contain no packets");
        let lo =
            columns.iter().map(|c| ibox_stats::percentile(c, 0.005).expect("nonempty")).collect();
        let hi =
            columns.iter().map(|c| ibox_stats::percentile(c, 0.995).expect("nonempty")).collect();
        Self { lo, hi }
    }

    /// [`ValidityRegion::fit`] through a [`FitCache`]: the region is
    /// cached under the digests of the training corpus, so re-checking
    /// candidates against the same corpus (e.g. `ibox validity
    /// --model-cache <dir>` across invocations) extracts features once.
    pub fn fit_jobs_cached(
        traces: &[FlowTrace],
        jobs: usize,
        cache: &crate::cache::FitCache,
    ) -> Self {
        assert!(!traces.is_empty(), "cannot fit a validity region on no traces");
        // The corpus digest folds every trace digest in order; "validity"
        // stands in for the model kind and the fit is deterministic.
        let mut corpus = String::with_capacity(traces.len() * 23);
        for t in traces {
            corpus.push_str(&t.digest());
            corpus.push('\n');
        }
        let key = crate::cache::FitCacheKey {
            trace_digest: ibox_obs::config_hash(&corpus),
            kind: "validity-region".to_string(),
            config_hash: "-".to_string(),
            fit_seed: 0,
        };
        cache
            .get_or_insert_with(&key.id(), || Self::fit(traces, jobs))
            .expect("ValidityRegion round-trips through its own serde form")
    }

    /// Check a candidate trace against the envelope.
    pub fn check(&self, trace: &FlowTrace) -> ValidityReport {
        let cfg = FeatureConfig { with_cross_traffic: false };
        let rows = extract(trace, &cfg, None).rows;
        if rows.is_empty() {
            return ValidityReport { coverage: 1.0, out_of_range: Vec::new() };
        }
        let mut out_counts = vec![0usize; self.lo.len()];
        let mut inside = 0usize;
        for row in &rows {
            let mut row_ok = true;
            for (k, v) in row.iter().enumerate() {
                // Tolerate a 10% margin beyond the envelope: quantile
                // envelopes on finite samples are fuzzy at the edges.
                let span = (self.hi[k] - self.lo[k]).max(1e-12);
                if *v < self.lo[k] - 0.1 * span || *v > self.hi[k] + 0.1 * span {
                    out_counts[k] += 1;
                    row_ok = false;
                }
            }
            if row_ok {
                inside += 1;
            }
        }
        let n = rows.len() as f64;
        let out_of_range = out_counts
            .iter()
            .enumerate()
            .filter(|(_, c)| **c > 0)
            .map(|(k, c)| {
                let name = FEATURE_NAMES.get(k).copied().unwrap_or("feature");
                (name.to_string(), *c as f64 / n)
            })
            .collect();
        ValidityReport { coverage: inside as f64 / n, out_of_range }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ibox_cc::RtcController;
    use ibox_sim::{FixedRate, PathConfig, PathEmulator, SimTime};

    fn run(cc: Box<dyn ibox_sim::CongestionControl>, seed: u64) -> FlowTrace {
        let emu = PathEmulator::from_spec(
            ibox_sim::PathSpec::single(PathConfig::simple(6e6, SimTime::from_millis(25), 100_000)),
            SimTime::from_secs(10),
        );
        emu.run_sender(cc, "m", seed).traces.into_iter().next().unwrap().normalized()
    }

    #[test]
    fn training_traces_cover_themselves() {
        let traces: Vec<FlowTrace> =
            (0..3).map(|i| run(Box::new(RtcController::default_config()), i)).collect();
        let region = ValidityRegion::fit(&traces, 1);
        for t in &traces {
            let report = region.check(t);
            assert!(report.coverage > 0.95, "coverage = {}", report.coverage);
            assert!(report.is_valid(0.9));
        }
    }

    #[test]
    fn high_rate_cbr_is_flagged_against_rtc_training() {
        // The exact §6 scenario: training never saw 8 Mbps sending rates.
        let train: Vec<FlowTrace> =
            (0..3).map(|i| run(Box::new(RtcController::default_config()), i)).collect();
        let region = ValidityRegion::fit(&train, 1);
        let cbr = run(Box::new(FixedRate::new(8e6)), 9);
        let report = region.check(&cbr);
        assert!(!report.is_valid(0.95), "coverage = {}", report.coverage);
        assert!(
            report.out_of_range.iter().any(|(name, frac)| name == "send_rate_bps" && *frac > 0.5),
            "the sending rate must be the flagged feature: {:?}",
            report.out_of_range
        );
    }

    #[test]
    fn same_protocol_new_run_is_valid() {
        let train: Vec<FlowTrace> =
            (0..3).map(|i| run(Box::new(RtcController::default_config()), i)).collect();
        let region = ValidityRegion::fit(&train, 1);
        let fresh = run(Box::new(RtcController::default_config()), 99);
        assert!(region.check(&fresh).is_valid(0.9));
    }

    #[test]
    fn cached_fit_matches_direct_fit_and_skips_refits() {
        let train: Vec<FlowTrace> =
            (0..3).map(|i| run(Box::new(RtcController::default_config()), i)).collect();
        let cache = crate::cache::FitCache::in_memory();
        let scope = ibox_obs::scoped();
        let a = ValidityRegion::fit_jobs_cached(&train, 1, &cache);
        let b = ValidityRegion::fit_jobs_cached(&train, 1, &cache);
        let metrics = scope.finish().snapshot();
        assert_eq!(a, ValidityRegion::fit(&train, 1), "cache must not change the fit");
        assert_eq!(a, b);
        assert_eq!(metrics.counters["fitcache.miss"], 1);
        assert_eq!(metrics.counters["fitcache.hit"], 1);
    }

    #[test]
    fn serde_roundtrip() {
        let train: Vec<FlowTrace> = (0..2).map(|i| run(Box::new(FixedRate::new(2e6)), i)).collect();
        let region = ValidityRegion::fit(&train, 1);
        let json = serde_json::to_string(&region).unwrap();
        let back: ValidityRegion = serde_json::from_str(&json).unwrap();
        assert_eq!(region, back);
    }
}
