//! The seeded request generator.
//!
//! A [`Plan`] is a pure function of `(workload, seed)`: the models to fit
//! in set-up, the distinct requests the closed loop cycles through, and
//! (for `ingest_stream`) the pool of session traces. The daemon only ever
//! sees the generated bodies — neither the workload name nor the seed
//! reaches it.
//!
//! What the seed varies is the *randomness* of a workload — the simulation
//! seeds of the training traces and of every replay — never its *shape*.
//! Path parameters, protocol cycles, request counts and the batch
//! population are fixed by the workload definition, so two seeds give
//! different bytes of the same size and cost. (The testbed's own profiles
//! draw a path's capacity from the seed — `ethernet` anywhere in
//! 40–80 Mbps — which would turn a seed change into a 2x change of every
//! latency; the replay workloads therefore train on paths this module
//! pins.)

use serde::{Serialize, Value};

use ibox::{BatchSpec, Fidelity, FitCacheKey, IBoxMlSpec, ModelKind, RunSpec};
use ibox_sim::{CrossTrafficCfg, PathConfig, PathEmulator, PathSpec, PathStage, SimTime};
use ibox_trace::{FlowMeta, FlowTrace, PacketRecord};

/// The five workloads, in ledger order.
pub const WORKLOADS: [&str; 5] =
    ["replay_packet", "replay_flow", "replay_ml", "ingest_stream", "batch_ensemble"];

/// The workloads `BENCHMARK.json` gates. `ingest_stream` is measured and
/// reported but not gated: its timed operation is mostly the host file
/// system (two file creations and a rename per `/append`), whose cost on
/// ext4 moved between 0.9 ms and 2.3 ms from one hour to the next on the
/// same build, against 0.39 ms on tmpfs. See README, "Findings".
pub const GATED_WORKLOADS: [&str; 4] =
    ["replay_packet", "replay_flow", "replay_ml", "batch_ensemble"];

/// Records per `/append` chunk.
pub const CHUNK_RECORDS: usize = 256;
/// The daemon re-fits a session every this many accepted chunks.
pub const REFIT_EVERY_CHUNKS: u64 = 32;
/// Connections `ingest_stream` streams over (never more than `nproc`).
pub const INGEST_CONNECTIONS: usize = 2;

/// SplitMix64: the generator's only source of randomness.
pub struct Rng(u64);

impl Rng {
    /// A stream derived from `seed` and a per-purpose `stream` tag, so
    /// adding a draw in one place never shifts the values drawn elsewhere.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93));
        r.next_u64();
        r
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A simulation seed: small enough to read in a dumped request.
    pub fn sim_seed(&mut self) -> u64 {
        self.next_u64() % 1_000_000_000
    }
}

/// The ground-truth paths the replay and ingest workloads train on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BenchPath {
    /// 80 Mbps, 5 ms, shallow buffer, light Poisson cross traffic: a 10 s
    /// bulk flow is ≈65 k records, ≈4.4 MB of JSON.
    Wired,
    /// 6 Mbps, 40 ms, bufferbloat-era buffer, on-off cross traffic: a 2 s
    /// replay is ≈1 k records, so an LSTM step per record stays affordable.
    Cellular,
}

impl BenchPath {
    fn name(self) -> &'static str {
        match self {
            BenchPath::Wired => "pinned-wired",
            BenchPath::Cellular => "pinned-cellular",
        }
    }

    /// The emulator for this path over `duration`.
    pub fn emulator(self, duration: SimTime) -> PathEmulator {
        let (config, cross) = match self {
            BenchPath::Wired => (
                PathConfig::simple(80e6, SimTime::from_millis(5), 80_000),
                CrossTrafficCfg::Poisson {
                    mean_rate_bps: 4e6,
                    pkt_size: 1200,
                    start: SimTime::ZERO,
                    stop: duration,
                },
            ),
            BenchPath::Cellular => (
                PathConfig::simple(6e6, SimTime::from_millis(40), 150_000),
                CrossTrafficCfg::OnOff {
                    rate_bps: 1.5e6,
                    pkt_size: 1200,
                    on: SimTime::from_secs(2),
                    off: SimTime::from_secs(3),
                    start: SimTime::ZERO,
                    stop: duration,
                },
            ),
        };
        PathEmulator::from_spec(PathSpec::single(config), duration)
            .with_name(self.name())
            .with_cross_traffic(cross)
    }

    /// A ground-truth trace: `protocol` over this path for `secs`.
    pub fn trace(self, protocol: &str, secs: u64, sim_seed: u64) -> FlowTrace {
        let cc = ibox_cc::by_name(protocol).expect("generator protocols exist");
        let out = self.emulator(SimTime::from_secs(secs)).run_sender(cc, "train", sim_seed);
        out.traces.into_iter().next().expect("one recorded flow").into_normalized()
    }
}

/// A model the set-up phase fits with an inline-trace `POST /fit`.
pub struct Fit {
    /// Model family and hyperparameters.
    pub kind: ModelKind,
    /// The training trace (also fitted offline for the reference).
    pub train: FlowTrace,
    /// The content-addressed registry id the daemon will assign.
    pub id: String,
    /// The `/fit` request body.
    pub body: Vec<u8>,
}

/// What one timed request asks for — enough to compute its reference
/// offline with the functions the handler calls.
pub enum OpKind {
    /// `POST /replay` of `Plan::fits[fit]`.
    Replay {
        /// Index into [`Plan::fits`].
        fit: usize,
        /// Protocol replayed.
        protocol: &'static str,
        /// Replay duration, seconds.
        duration_s: u64,
        /// Replay seed.
        seed: u64,
        /// Engine fidelity.
        fidelity: Fidelity,
        /// Composed path override.
        path: Option<PathSpec>,
    },
    /// `POST /batch`.
    Batch(BatchSpec),
}

/// One distinct timed request.
pub struct Op {
    /// Request path (`/replay` or `/batch`).
    pub path: &'static str,
    /// Request body.
    pub body: Vec<u8>,
    /// The typed form of `body`.
    pub kind: OpKind,
}

/// One trace of the ingest pool, pre-cut into `/append` bodies.
pub struct SessionTrace {
    /// The full trace (pool label; each session relabels `meta.run`).
    pub trace: FlowTrace,
    /// `/append` bodies of chunks `1..`; chunk 0 carries the session's
    /// metadata and is built per session by [`first_append_body`].
    pub tail_bodies: Vec<Vec<u8>>,
    /// Protocol of the session's closing `/replay` of its first version.
    pub replay_protocol: &'static str,
    /// Seed of that replay.
    pub replay_seed: u64,
}

/// Seconds the closing `/replay` of an ingest session simulates.
pub const SESSION_REPLAY_SECS: u64 = 2;

/// Everything a workload sends.
pub struct Plan {
    /// Models fitted in set-up.
    pub fits: Vec<Fit>,
    /// Distinct timed requests, cycled in order.
    pub ops: Vec<Op>,
    /// Ingest pool (empty for the request-cycling workloads).
    pub sessions: Vec<SessionTrace>,
}

fn object(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

fn json_bytes(v: &Value) -> Vec<u8> {
    serde_json::to_string(v).expect("value trees serialize").into_bytes()
}

fn fit(kind: ModelKind, train: FlowTrace) -> Fit {
    let id = FitCacheKey::for_fit(&kind, &train).id();
    let body = json_bytes(&object(vec![
        ("wait", Value::Bool(true)),
        ("model", kind.to_value()),
        ("trace", train.to_value()),
    ]));
    Fit { kind, train, id, body }
}

fn replay_op(
    fits: &[Fit],
    fit: usize,
    protocol: &'static str,
    duration_s: u64,
    seed: u64,
    fidelity: Fidelity,
    path: Option<PathSpec>,
) -> Op {
    let mut fields = vec![
        ("model", Value::Str(fits[fit].id.clone())),
        ("protocol", Value::Str(protocol.to_string())),
        ("duration_s", Value::U64(duration_s)),
        ("seed", Value::U64(seed)),
    ];
    if fidelity != Fidelity::Packet {
        fields.push(("fidelity", fidelity.to_value()));
    }
    if let Some(p) = &path {
        fields.push(("path", p.to_value()));
    }
    Op {
        path: "/replay",
        body: json_bytes(&object(fields)),
        kind: OpKind::Replay { fit, protocol, duration_s, seed, fidelity, path },
    }
}

/// The 3-stage chain every 4th `replay_packet` request replays through:
/// a fast access hop, the 80 Mbps bottleneck, a fast egress hop. Same
/// record count as the fitted single stage, about three times the events.
fn chained_path() -> PathSpec {
    PathSpec::from_stages(vec![
        PathStage::new(PathConfig::simple(200e6, SimTime::from_millis(1), 120_000)),
        PathStage::new(PathConfig::simple(80e6, SimTime::from_millis(3), 80_000)),
        PathStage::new(PathConfig::simple(150e6, SimTime::from_millis(1), 120_000)),
    ])
}

/// Distinct `/replay` requests per wired workload.
const WIRED_REQUESTS: usize = 16;
/// BBR is left out of the 80 Mbps workloads: its packet-level replay of a
/// 10 s flow at that rate takes ≈2.4 s today (≈150x cubic's), which would
/// leave a handful of samples per run. See README, "Findings".
const WIRED_PROTOCOLS: [&str; 3] = ["cubic", "reno", "vegas"];
const ALL_PROTOCOLS: [&str; 4] = ["cubic", "reno", "vegas", "bbr"];

fn wired_fit(seed: u64) -> Vec<Fit> {
    let train = BenchPath::Wired.trace("cubic", 10, Rng::new(seed, 1).sim_seed());
    vec![fit(ModelKind::IBoxNet, train)]
}

fn replay_packet(seed: u64) -> Plan {
    let fits = wired_fit(seed);
    let mut rng = Rng::new(seed, 2);
    let ops = (0..WIRED_REQUESTS)
        .map(|i| {
            let path = (i % 4 == 3).then(chained_path);
            let protocol = WIRED_PROTOCOLS[i % WIRED_PROTOCOLS.len()];
            replay_op(&fits, 0, protocol, 10, rng.sim_seed(), Fidelity::Packet, path)
        })
        .collect();
    Plan { fits, ops, sessions: Vec::new() }
}

fn replay_flow(seed: u64) -> Plan {
    let fits = wired_fit(seed);
    let mut rng = Rng::new(seed, 2);
    let ops = (0..WIRED_REQUESTS)
        .map(|i| {
            let fidelity = if i % 4 == 3 { Fidelity::Hybrid } else { Fidelity::Flow };
            let protocol = WIRED_PROTOCOLS[i % WIRED_PROTOCOLS.len()];
            replay_op(&fits, 0, protocol, 10, rng.sim_seed(), fidelity, None)
        })
        .collect();
    Plan { fits, ops, sessions: Vec::new() }
}

/// Distinct `/replay` requests of `replay_ml`: three of each protocol, so
/// the median operation sits inside one protocol's cluster of latencies and
/// not on the gap between two (a 2 s cubic and a 2 s vegas replay are both
/// still in slow start and cost the same, which with four protocols put
/// the median exactly on such a gap).
const ML_REQUESTS: usize = 9;
const ML_PROTOCOLS: [&str; 3] = ["cubic", "reno", "bbr"];

fn replay_ml(seed: u64) -> Plan {
    let train = BenchPath::Cellular.trace("cubic", 10, Rng::new(seed, 1).sim_seed());
    let kind = ModelKind::IBoxMl(IBoxMlSpec {
        hidden_sizes: vec![128, 128],
        epochs: 1,
        ..IBoxMlSpec::default()
    });
    let fits = vec![fit(kind, train)];
    let mut rng = Rng::new(seed, 2);
    let ops = (0..ML_REQUESTS)
        .map(|i| {
            let protocol = ML_PROTOCOLS[i % ML_PROTOCOLS.len()];
            replay_op(&fits, 0, protocol, 2, rng.sim_seed(), Fidelity::Packet, None)
        })
        .collect();
    Plan { fits, ops, sessions: Vec::new() }
}

/// Distinct traces in the ingest pool. Sessions cycle through them under
/// fresh ids and fresh `meta.run` labels, so every session is a distinct
/// trace to the daemon (the fit-cache key digests the metadata) while the
/// generator synthesizes and encodes only this many.
const INGEST_POOL: usize = 8;
/// Seconds of wired traffic per session: ≈33 k records, ≈128 appends,
/// three cadence refits and the finalize.
const INGEST_SESSION_SECS: u64 = 5;

/// The metadata of session number `n` on connection `conn`.
pub fn session_meta(conn: usize, n: usize) -> FlowMeta {
    FlowMeta::new(BenchPath::Wired.name(), "cubic", format!("live-{conn}-{n}"))
}

/// The id of session number `n` on connection `conn`.
pub fn session_id(conn: usize, n: usize) -> String {
    format!("s{conn}-{n}")
}

fn append_body(offset: usize, records: &[PacketRecord], meta: Option<&FlowMeta>) -> Vec<u8> {
    let mut fields = vec![("offset", Value::U64(offset as u64)), ("records", records.to_value())];
    if let Some(meta) = meta {
        fields.push(("model", ModelKind::IBoxNet.to_value()));
        fields.push(("meta", meta.to_value()));
    }
    json_bytes(&object(fields))
}

/// The first `/append` of a session: chunk 0 plus the session's model
/// kind and trace metadata (both fixed at creation by the daemon).
pub fn first_append_body(trace: &FlowTrace, meta: &FlowMeta) -> Vec<u8> {
    let n = trace.len().min(CHUNK_RECORDS);
    append_body(0, &trace.records()[..n], Some(meta))
}

/// The closing request of session `id`: a short replay pinned to the
/// version its first cadence refit registered.
pub fn session_replay_body(id: &str, s: &SessionTrace) -> Vec<u8> {
    json_bytes(&object(vec![
        ("model", Value::Str(format!("{id}-v1"))),
        ("protocol", Value::Str(s.replay_protocol.to_string())),
        ("duration_s", Value::U64(SESSION_REPLAY_SECS)),
        ("seed", Value::U64(s.replay_seed)),
    ]))
}

fn ingest_stream(seed: u64) -> Plan {
    let mut rng = Rng::new(seed, 1);
    let sessions = (0..INGEST_POOL)
        .map(|i| {
            let trace = BenchPath::Wired.trace("cubic", INGEST_SESSION_SECS, rng.sim_seed());
            let tail_bodies = trace
                .records()
                .chunks(CHUNK_RECORDS)
                .enumerate()
                .skip(1)
                .map(|(i, chunk)| append_body(i * CHUNK_RECORDS, chunk, None))
                .collect();
            SessionTrace {
                trace,
                tail_bodies,
                replay_protocol: WIRED_PROTOCOLS[i % WIRED_PROTOCOLS.len()],
                replay_seed: rng.sim_seed(),
            }
        })
        .collect();
    Plan { fits: Vec::new(), ops: Vec::new(), sessions }
}

/// Distinct `/batch` requests.
const BATCH_REQUESTS: usize = 16;
/// Runs per batch.
const BATCH_RUNS: usize = 8;
const BATCH_PROFILES: [&str; 4] = ["india-cellular", "wifi", "satellite", "cellular-handover"];
/// First `Synth` seed of the fixed path population: run `k` of batch `d`
/// trains on instance `BATCH_POPULATION + d * BATCH_RUNS + k`. The testbed
/// draws a path's whole shape from that number, so it belongs to the
/// workload definition; `--seed` draws the replay seeds.
const BATCH_POPULATION: u64 = 2000;
/// The two training specs the iBoxML runs draw from.
const BATCH_ML_INSTANCES: [u64; 2] = [3001, 3002];

fn batch_ensemble(seed: u64) -> Plan {
    let mut rng = Rng::new(seed, 2);
    let ml = ModelKind::IBoxMl(IBoxMlSpec { epochs: 2, ..IBoxMlSpec::default() });
    let ops = (0..BATCH_REQUESTS)
        .map(|d| {
            let runs = (0..BATCH_RUNS).map(|k| {
                let slot = d * BATCH_RUNS + k;
                let swap_in_ml = d % 4 == 3 && k == 0;
                let (profile, instance, model) = if swap_in_ml {
                    ("india-cellular", BATCH_ML_INSTANCES[(d / 4) % 2], ml.clone())
                } else {
                    (
                        BATCH_PROFILES[k % BATCH_PROFILES.len()],
                        BATCH_POPULATION + slot as u64,
                        ModelKind::IBoxNet,
                    )
                };
                RunSpec::builder()
                    .id(format!("r{k}"))
                    .synth(profile, "cubic", instance)
                    .protocol(ALL_PROTOCOLS[slot % ALL_PROTOCOLS.len()])
                    .duration_s(10.0)
                    .seed(rng.sim_seed())
                    .model(model)
                    .build()
                    .expect("generated run specs are valid")
            });
            // `jobs: 0` asks for the server's own cap (2).
            let spec =
                BatchSpec::builder().jobs(0).runs(runs).build().expect("batches are non-empty");
            Op { path: "/batch", body: spec.to_json().into_bytes(), kind: OpKind::Batch(spec) }
        })
        .collect();
    Plan { fits: Vec::new(), ops, sessions: Vec::new() }
}

/// Generate the plan of `workload` under `seed`.
pub fn plan(workload: &str, seed: u64) -> Result<Plan, String> {
    match workload {
        "replay_packet" => Ok(replay_packet(seed)),
        "replay_flow" => Ok(replay_flow(seed)),
        "replay_ml" => Ok(replay_ml(seed)),
        "ingest_stream" => Ok(ingest_stream(seed)),
        "batch_ensemble" => Ok(batch_ensemble(seed)),
        other => Err(format!("unknown workload {other:?} (valid: {})", WORKLOADS.join(", "))),
    }
}

impl Plan {
    /// Every generated body, named, in the order the daemon first sees
    /// them — what `--dump-requests` writes and the generator tests hash.
    /// Ingest sessions are dumped as they are streamed on connection 0.
    pub fn bodies(&self) -> Vec<(String, Vec<u8>)> {
        let mut out = Vec::new();
        for (i, f) in self.fits.iter().enumerate() {
            out.push((format!("fit-{i:02}.json"), f.body.clone()));
        }
        for (i, op) in self.ops.iter().enumerate() {
            out.push((format!("op-{i:03}{}.json", op.path.replace('/', "-")), op.body.clone()));
        }
        for (n, s) in self.sessions.iter().enumerate() {
            let first = first_append_body(&s.trace, &session_meta(0, n));
            for (c, body) in std::iter::once(&first).chain(&s.tail_bodies).enumerate() {
                out.push((format!("session-{n:02}-append-{c:03}.json"), body.clone()));
            }
            let replay = session_replay_body(&session_id(0, n), s);
            out.push((format!("session-{n:02}-replay.json"), replay));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::hash64;

    fn fingerprint(workload: &str, seed: u64) -> Vec<(String, u64, usize)> {
        plan(workload, seed)
            .expect("known workload")
            .bodies()
            .into_iter()
            .map(|(name, body)| (name, hash64(&body), body.len()))
            .collect()
    }

    /// Same (workload, seed) ⇒ identical bytes; another seed ⇒ another
    /// list of the same shape (an ingest trace may be a chunk longer or
    /// shorter). `replay_ml` shares its generator code path with the other
    /// replay workloads and is covered by the smoke test.
    #[test]
    fn plans_are_a_pure_function_of_workload_and_seed() {
        for workload in ["replay_packet", "replay_flow", "ingest_stream", "batch_ensemble"] {
            let a = fingerprint(workload, 11);
            assert_eq!(a, fingerprint(workload, 11), "{workload}: same seed, same bytes");
            let b: std::collections::BTreeMap<String, u64> =
                fingerprint(workload, 12).into_iter().map(|(name, hash, _)| (name, hash)).collect();
            let shared: Vec<bool> = a
                .iter()
                .filter_map(|(name, hash, _)| b.get(name).map(|other| hash != other))
                .collect();
            assert!(shared.len() * 100 >= a.len() * 99, "{workload}: the seed changed the shape");
            let differing = shared.iter().filter(|d| **d).count();
            assert!(differing * 2 > a.len(), "{workload}: {differing}/{} bodies differ", a.len());
        }
    }

    /// Neither the workload name nor the seed reaches the daemon.
    #[test]
    fn bodies_carry_no_workload_name_and_no_seed() {
        let seed = 918_273_645_546_372_819u64;
        let contains =
            |hay: &[u8], needle: &str| hay.windows(needle.len()).any(|w| w == needle.as_bytes());
        for workload in ["replay_packet", "replay_flow", "ingest_stream", "batch_ensemble"] {
            for (name, body) in plan(workload, seed).expect("known workload").bodies() {
                assert!(!contains(&body, &seed.to_string()), "{workload}/{name} leaks the seed");
                for w in WORKLOADS {
                    assert!(!contains(&body, w), "{workload}/{name} names workload {w}");
                }
            }
        }
    }

    #[test]
    fn unknown_workloads_are_refused() {
        assert!(plan("replay", 1).is_err());
    }
}
