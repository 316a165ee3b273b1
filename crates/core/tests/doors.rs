//! The doors agree: the same replay, asked for through
//! [`ReplayRequest::run`] or through a batch `ProfileFile` run
//! ([`execute_run_cached`]), answers the same bytes — for every model
//! kind, with and without a composed path, whether the path comes from the
//! request or was recorded in the artifact, at packet and flow fidelity.
//! (`POST /replay` joins the comparison in `crates/serve`'s twin of this
//! test.) An independent oracle — `simulate_with` over the path the
//! recorded-path rule *should* pick — keeps the doors from agreeing on the
//! wrong answer.

use ibox::{
    execute_run_cached, fit_model, Fidelity, FitCache, IBoxMlSpec, ModelArtifact, ModelKind,
    ReplayOpts, ReplayRequest, RunSpec,
};
use ibox_sim::{PathSpec, SimTime};

const REQUEST_CHAIN: &str = r#"[
    {"rate_bps": 20e6, "prop_delay_ms": 5, "buffer_bytes": 80000},
    {"rate_bps": 8e6, "prop_delay_ms": 12, "buffer_bytes": 60000},
    {"rate_bps": 30e6, "prop_delay_ms": 3, "buffer_bytes": 120000}
]"#;
const RECORDED_CHAIN: &str = r#"[
    {"rate_bps": 15e6, "prop_delay_ms": 8, "buffer_bytes": 90000},
    {"rate_bps": 6e6, "prop_delay_ms": 20, "buffer_bytes": 50000}
]"#;

fn kinds() -> Vec<ModelKind> {
    let mut kinds = ModelKind::all().to_vec();
    kinds.push(ModelKind::IBoxMl(IBoxMlSpec {
        hidden_sizes: vec![6],
        epochs: 1,
        lr: 5e-3,
        tbptt: 32,
        with_cross_traffic: false,
        seed: 3,
    }));
    kinds
}

#[test]
fn replay_request_and_batch_profile_runs_answer_the_same_bytes() {
    let (_, train) = ibox_testbed::synth("ethernet", "cubic", 3.0, 11).unwrap();
    let request_chain: PathSpec = serde_json::from_str(REQUEST_CHAIN).unwrap();
    let recorded_chain: PathSpec = serde_json::from_str(RECORDED_CHAIN).unwrap();
    let file = std::env::temp_dir().join(format!("ibox_doors_{}.json", std::process::id()));

    for kind in kinds() {
        let plain = ModelArtifact::new(&kind, fit_model(&kind, &train));
        let mut recorded = plain.clone();
        recorded.path = Some(recorded_chain.clone());
        // (artifact, request path, the path the rule must pick)
        let rows = [
            ("no path", &plain, None, None),
            ("request path", &plain, Some(&request_chain), Some(&request_chain)),
            ("recorded path", &recorded, None, Some(&recorded_chain)),
            ("request over recorded", &recorded, Some(&request_chain), Some(&request_chain)),
        ];
        for fidelity in [Fidelity::Packet, Fidelity::Flow] {
            let mut answers = Vec::new();
            for (row, artifact, request_path, expected_path) in rows {
                let label = format!("{} / {row} / {fidelity}", kind.name());
                let request = ReplayRequest {
                    duration_s: 2.0,
                    seed: 5,
                    fidelity,
                    path: request_path.cloned(),
                    ..ReplayRequest::new("cubic")
                };
                let direct = serde_json::to_string(&request.run(artifact).unwrap()).unwrap();

                artifact.save(&file).unwrap();
                let mut spec = RunSpec::builder()
                    .profile_file(file.to_string_lossy())
                    .protocol("cubic")
                    .duration_s(2.0)
                    .seed(5)
                    .fidelity(fidelity);
                if request_path.is_some() {
                    spec = spec.path(serde_json::parse_value(REQUEST_CHAIN).unwrap());
                }
                let (_, batch_trace) =
                    execute_run_cached(&spec.build().unwrap(), &FitCache::in_memory()).unwrap();
                assert_eq!(direct, serde_json::to_string(&batch_trace).unwrap(), "{label}");

                let opts =
                    ReplayOpts { fidelity, path: expected_path.cloned(), ..ReplayOpts::default() };
                let oracle = artifact.model.simulate_with("cubic", SimTime::from_secs(2), 5, opts);
                assert_eq!(direct, serde_json::to_string(&oracle).unwrap(), "{label}: oracle");
                answers.push(direct);
            }
            assert_ne!(answers[0], answers[2], "{}: a recorded chain must apply", kind.name());
            assert_eq!(answers[1], answers[3], "{}: the request's path wins", kind.name());
        }
    }
    let _ = std::fs::remove_file(&file);
}
