//! Property tests for the typed batch API: `BatchSpec` JSON round-trips
//! exactly for any spec the builders can produce.

use proptest::prelude::*;

use ibox_runner::{BatchSpec, Fidelity, IBoxMlSpec, ModelKind, RunSource, RunSpec};

/// Deterministically expand a `u64` into a short printable token, so
/// names/paths exercise serialization without a string strategy.
fn token(seed: u64, prefix: &str) -> String {
    format!("{prefix}-{seed:x}")
}

fn model_from(idx: u64) -> ModelKind {
    let all = ModelKind::all();
    let n = all.len() as u64 + 1;
    match idx % n {
        // Every fifth spec gets the data-carrying IBoxMl variant, with a
        // config derived from the index so fields vary across cases.
        i if i == all.len() as u64 => ModelKind::IBoxMl(IBoxMlSpec {
            hidden_sizes: vec![4 + (idx % 3) as usize, 8],
            epochs: 1 + (idx % 4) as usize,
            lr: 1e-3 + (idx % 7) as f64 * 1e-4,
            tbptt: 16 + (idx % 5) as usize,
            with_cross_traffic: idx.is_multiple_of(2),
            seed: idx,
        }),
        i => all[i as usize].clone(),
    }
}

fn source_from(kind: u64, a: u64, b: u64) -> RunSource {
    match kind % 3 {
        0 => RunSource::Synth {
            profile: token(a, "profile"),
            protocol: token(b, "proto"),
            seed: a ^ b,
        },
        1 => RunSource::TraceFile { path: format!("traces/{}.json", token(a, "t")) },
        _ => RunSource::ProfileFile { path: format!("profiles/{}.json", token(a, "p")) },
    }
}

fn arb_spec() -> impl Strategy<Value = RunSpec> {
    (any::<u64>(), any::<u64>(), any::<u64>(), 0.001f64..3_600.0, any::<u64>()).prop_map(
        |(kind, a, b, duration_s, seed)| RunSpec {
            id: if kind % 2 == 0 { String::new() } else { token(kind, "run") },
            source: source_from(kind, a, b),
            protocol: token(b, "proto"),
            duration_s,
            seed,
            model: model_from(a),
            fidelity: Fidelity::ALL[(a % Fidelity::ALL.len() as u64) as usize],
            path: if a % 3 == 0 {
                Some(serde::Value::Array(vec![serde::Value::Object(vec![
                    ("rate_bps".into(), serde::Value::F64((1 + b % 50) as f64 * 1e6)),
                    ("prop_delay_ms".into(), serde::Value::U64(1 + a % 200)),
                    ("buffer_bytes".into(), serde::Value::U64(10_000 + b % 100_000)),
                ])]))
            } else {
                None
            },
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    /// Any batch spec survives JSON serialization bit-exactly (fields,
    /// enum variants, f64 durations — the vendored serde_json is built
    /// with float_roundtrip).
    #[test]
    fn batch_spec_json_roundtrips(
        jobs in 0usize..64,
        runs in prop::collection::vec(arb_spec(), 1..12),
    ) {
        let batch = BatchSpec { jobs, runs };
        let json = batch.to_json();
        let back = BatchSpec::from_json(&json).unwrap();
        prop_assert_eq!(&back, &batch);
        // Serialization itself is stable: same spec, same bytes.
        prop_assert_eq!(back.to_json(), json);
    }

    /// The builder path and the literal path agree.
    #[test]
    fn builder_roundtrips_through_json(seed in any::<u64>(), dur in 0.5f64..120.0) {
        let spec = RunSpec::builder()
            .id("prop")
            .synth("india-cellular", "cubic", seed)
            .protocol("vegas")
            .duration_s(dur)
            .seed(seed)
            .model(ModelKind::StatisticalLoss)
            .build()
            .unwrap();
        let batch = BatchSpec::builder().jobs(3).run(spec).build().unwrap();
        prop_assert_eq!(BatchSpec::from_json(&batch.to_json()).unwrap(), batch);
    }

    /// `fidelity` round-trips through JSON at every level, and its string
    /// form parses back to the same variant.
    #[test]
    fn fidelity_roundtrips_through_json(seed in any::<u64>(), idx in 0usize..3) {
        let fidelity = Fidelity::ALL[idx];
        let spec = RunSpec::builder()
            .synth("ethernet", "cubic", seed)
            .protocol("cubic")
            .seed(seed)
            .fidelity(fidelity)
            .build()
            .unwrap();
        let batch = BatchSpec::builder().run(spec).build().unwrap();
        let back = BatchSpec::from_json(&batch.to_json()).unwrap();
        prop_assert_eq!(back.runs[0].fidelity, fidelity);
        prop_assert_eq!(&back, &batch);
        prop_assert_eq!(fidelity.as_str().parse::<Fidelity>().unwrap(), fidelity);
    }
}
