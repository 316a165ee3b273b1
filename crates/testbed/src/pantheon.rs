//! Pantheon-style dataset generation.
//!
//! Pantheon gathered "tens of thousands of 30-second traces" of many
//! congestion-control protocols over the same set of paths. This module
//! reproduces the shape of that corpus: N randomized instances of a
//! [`Profile`], each measured with one or more protocols. Paired
//! generation runs every protocol over the *same* path instance (same
//! seed ⇒ same rate process, cross traffic, loss draws), which is what
//! makes the ground-truth A/B comparison of Fig. 2 exact.

use ibox_cc::by_name;
use ibox_sim::{PathEmulator, SimTime};
use ibox_trace::{FlowTrace, TraceDataset};

use crate::profile::{PathInstance, Profile};

/// Standard Pantheon trace length (30 s).
pub const PANTHEON_DURATION: SimTime = SimTime(30_000_000_000);

/// Run one protocol over one path instance and return its (normalized)
/// input-output trace.
///
/// Panics on an unknown protocol name — a harness bug.
pub fn run_protocol(
    inst: &PathInstance,
    protocol: &str,
    duration: SimTime,
    seed: u64,
) -> FlowTrace {
    let cc = by_name(protocol)
        .unwrap_or_else(|| panic!("unknown congestion-control protocol {protocol:?}"));
    // The instance's full stage chain: identical to the legacy
    // single-bottleneck construction for 1-stage profiles, and the whole
    // pipeline for composed ones.
    let emu = PathEmulator::from_spec(inst.spec(), duration).with_name(inst.name.clone());
    let out = emu.run_sender(cc, format!("run{seed}"), seed);
    out.traces.into_iter().next().expect("one recorded flow").normalized()
}

/// [`run_protocol`] for input from outside the program — a `/fit` `synth`
/// object, a batch `Synth` source, `ibox synth` flags: the profile and
/// protocol are looked up by name and the duration checked, so a bad value
/// is a sentence, not a harness panic. Returns the sampled instance too
/// (`ibox synth` hashes its path into the run manifest).
pub fn synth(
    profile: &str,
    protocol: &str,
    duration_s: f64,
    seed: u64,
) -> Result<(PathInstance, FlowTrace), String> {
    let profile = Profile::from_name(profile)?;
    if by_name(protocol).is_none() {
        return Err(format!("unknown protocol {protocol:?}"));
    }
    let duration = SimTime::positive_secs(duration_s)?;
    let inst = profile.builder().seed(seed).duration(duration).sample();
    let trace = run_protocol(&inst, protocol, duration, seed);
    Ok((inst, trace))
}

/// Generate a dataset of `n` runs of `protocol` over `profile`, one fresh
/// path instance per run (instance seed = `base_seed + i`).
///
/// Runs are spread over `jobs` worker threads (`0` = all cores). Every
/// run is seeded from the spec alone, so the dataset is identical at any
/// `jobs`.
pub fn generate_dataset(
    profile: Profile,
    protocol: &str,
    n: usize,
    duration: SimTime,
    base_seed: u64,
    jobs: usize,
) -> TraceDataset {
    let traces = ibox_runner::run_scoped(n, jobs, |i| {
        let seed = base_seed + i as u64;
        let inst = profile.sample(seed, duration);
        run_protocol(&inst, protocol, duration, seed)
    });
    TraceDataset::from_traces(format!("{}/{}", profile.name(), protocol), traces)
}

/// Generate paired datasets: for each of `n` path instances, run *every*
/// protocol over the identical instance (identical hidden network state).
/// Returns one dataset per protocol, in the order given.
///
/// Instances are spread over `jobs` worker threads (`0` = all cores).
/// Each pool job runs every protocol over one instance; traces fold back
/// in instance order, so the datasets are identical at any `jobs`.
pub fn generate_paired_datasets(
    profile: Profile,
    protocols: &[&str],
    n: usize,
    duration: SimTime,
    base_seed: u64,
    jobs: usize,
) -> Vec<TraceDataset> {
    let per_instance = ibox_runner::run_scoped(n, jobs, |i| {
        let seed = base_seed + i as u64;
        let inst = profile.sample(seed, duration);
        protocols.iter().map(|proto| run_protocol(&inst, proto, duration, seed)).collect::<Vec<_>>()
    });
    let mut out: Vec<TraceDataset> =
        protocols.iter().map(|p| TraceDataset::new(format!("{}/{}", profile.name(), p))).collect();
    for runs in per_instance {
        for (k, trace) in runs.into_iter().enumerate() {
            out[k].traces.push(trace);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ibox_trace::metrics::TraceMetrics;

    const SHORT: SimTime = SimTime(10_000_000_000);

    #[test]
    fn run_protocol_produces_a_plausible_trace() {
        let inst = Profile::IndiaCellular.sample(1, SHORT);
        let t = run_protocol(&inst, "cubic", SHORT, 1);
        assert!(t.len() > 500, "packets = {}", t.len());
        assert_eq!(t.meta.protocol, "cubic");
        assert_eq!(t.records()[0].send_ns, 0, "trace must be normalized");
        let m = TraceMetrics::of(&t);
        assert!(m.avg_rate_mbps > 0.5, "rate = {}", m.avg_rate_mbps);
        assert!(m.p95_delay_ms > 10.0);
    }

    #[test]
    fn synth_is_run_protocol_behind_checked_names_and_duration() {
        let (inst, t) = synth("india-cellular", "cubic", 10.0, 1).unwrap();
        assert_eq!(inst.spec(), Profile::IndiaCellular.sample(1, SHORT).spec());
        assert_eq!(t, run_protocol(&inst, "cubic", SHORT, 1));
        assert!(synth("dsl", "cubic", 10.0, 1).unwrap_err().contains("unknown profile"));
        assert!(synth("ethernet", "warp", 10.0, 1).unwrap_err().contains("unknown protocol"));
        for bad in [-5.0, 0.0, 1e-12, f64::NAN, f64::INFINITY] {
            let err = synth("ethernet", "cubic", bad, 1).unwrap_err();
            assert!(err.contains("duration must be a positive number of seconds"), "{err}");
        }
    }

    #[test]
    fn dataset_has_n_runs_with_distinct_paths() {
        let d = generate_dataset(Profile::IndiaCellular, "cubic", 3, SHORT, 10, 1);
        assert_eq!(d.len(), 3);
        assert_ne!(d.traces[0].meta.path, d.traces[1].meta.path);
        // Distinct path instances ⇒ distinct dynamics.
        assert_ne!(d.traces[0], d.traces[1]);
    }

    #[test]
    fn paired_datasets_share_instances() {
        let ds =
            generate_paired_datasets(Profile::IndiaCellular, &["cubic", "vegas"], 2, SHORT, 20, 1);
        assert_eq!(ds.len(), 2);
        assert_eq!(ds[0].traces[0].meta.path, ds[1].traces[0].meta.path);
        assert_eq!(ds[0].traces[0].meta.protocol, "cubic");
        assert_eq!(ds[1].traces[0].meta.protocol, "vegas");
    }

    #[test]
    fn generation_is_deterministic() {
        let a = generate_dataset(Profile::Ethernet, "reno", 2, SimTime::from_secs(3), 5, 1);
        let b = generate_dataset(Profile::Ethernet, "reno", 2, SimTime::from_secs(3), 5, 1);
        assert_eq!(a, b);
    }

    #[test]
    fn parallel_generation_matches_serial() {
        let serial = generate_dataset(Profile::Ethernet, "reno", 4, SimTime::from_secs(3), 5, 1);
        let parallel = generate_dataset(Profile::Ethernet, "reno", 4, SimTime::from_secs(3), 5, 4);
        assert_eq!(serial, parallel);

        let ps = generate_paired_datasets(Profile::Ethernet, &["cubic", "vegas"], 3, SHORT, 20, 1);
        let pp = generate_paired_datasets(Profile::Ethernet, &["cubic", "vegas"], 3, SHORT, 20, 3);
        assert_eq!(ps, pp);
    }

    #[test]
    #[should_panic(expected = "unknown congestion-control protocol")]
    fn unknown_protocol_panics() {
        let inst = Profile::Ethernet.sample(1, SHORT);
        run_protocol(&inst, "nope", SHORT, 1);
    }

    #[test]
    fn composed_profiles_generate_multi_hop_traces_jobs_invariantly() {
        for p in [Profile::Wifi, Profile::Satellite, Profile::CellularHandover] {
            let serial = generate_dataset(p, "cubic", 3, SHORT, 40, 1);
            let parallel = generate_dataset(p, "cubic", 3, SHORT, 40, 3);
            assert_eq!(serial, parallel, "{} must be jobs-invariant", p.name());
            for t in &serial.traces {
                assert!(t.len() > 200, "{}: packets = {}", p.name(), t.len());
            }
        }
        // The GEO chain's delay floor is the summed propagation of all
        // three stages — dominated by the ~270 ms space segment.
        let sat = generate_dataset(Profile::Satellite, "cubic", 1, SHORT, 41, 1);
        let min_delay = sat.traces[0].min_delay_ns().unwrap();
        assert!(
            min_delay >= 250_000_000,
            "satellite min delay must cross the GEO hop: {min_delay} ns"
        );
    }

    #[test]
    fn cellular_traces_exhibit_reordering() {
        let d = generate_dataset(Profile::IndiaCellular, "cubic", 2, SHORT, 33, 1);
        let any_reordering =
            d.traces.iter().any(|t| ibox_trace::metrics::overall_reordering_rate(t) > 0.0);
        assert!(any_reordering, "cellular profile must reorder some packets");
    }
}
