//! Byte-identity of the streaming JSON writer.
//!
//! `serde_json::to_string` streams a value through its `write_json`; the
//! reference is the tree path — build `to_value()`, render that tree.
//! Every reply, artifact, chunk file and batch result crosses the streaming
//! path, so the two must agree byte for byte, compact and pretty: property
//! tests over the wire types, and fixed goldens for the shapes the derive
//! and the number/string writers can get wrong.

use std::collections::BTreeMap;
use std::sync::OnceLock;

use proptest::prelude::*;
use serde::{Deserialize, Serialize, Value};

use ibox::{
    fit_model, BatchResult, BatchSpec, Fidelity, IBoxMlSpec, ModelArtifact, ModelKind, RunRecord,
    RunSource, RunSpec,
};
use ibox_sim::{
    CrossTrafficCfg, PathConfig, PathSpec, PathStage, RateModelCfg, ReorderCfg, SchedulerKind,
    SimTime,
};
use ibox_trace::metrics::TraceMetrics;
use ibox_trace::{FlowMeta, FlowTrace, PacketRecord};

/// Streamed bytes == tree-rendered bytes, in both layouts. Returns the
/// compact form for further checks.
fn assert_streams_like_its_tree<T: Serialize + ?Sized>(x: &T) -> String {
    let tree = x.to_value();
    let compact = serde_json::to_string(x).unwrap();
    assert_eq!(compact, serde_json::to_string(&tree).unwrap());
    assert_eq!(
        serde_json::to_string_pretty(x).unwrap(),
        serde_json::to_string_pretty(&tree).unwrap()
    );
    compact
}

// ------------------------------------------------------------ strategies

/// Labels that exercise the string writer: quotes, backslashes, control
/// characters, multi-byte and astral-plane characters.
fn label(pick: u64) -> String {
    const LABELS: [&str; 8] = [
        "",
        "cubic",
        "india-cellular/run 7",
        "say \"hi\"",
        "back\\slash",
        "line\nbreak\ttab\x01\x1f",
        "ünïcödé → 東京",
        "astral 😀🚀",
    ];
    LABELS[(pick % LABELS.len() as u64) as usize].to_string()
}

fn arb_record() -> impl Strategy<Value = PacketRecord> {
    (any::<u64>(), any::<u64>(), any::<u32>(), any::<u64>(), prop::bool::weighted(0.85)).prop_map(
        |(seq, send_ns, size, delay, delivered)| {
            // Shift one operand so small and 20-digit magnitudes both occur.
            let send_ns = send_ns >> (seq % 64);
            if delivered {
                PacketRecord::delivered(seq, send_ns, size, send_ns.saturating_add(delay >> 20))
            } else {
                PacketRecord::lost(seq, send_ns, size)
            }
        },
    )
}

fn arb_trace() -> impl Strategy<Value = FlowTrace> {
    (any::<u64>(), prop::collection::vec(arb_record(), 0..120)).prop_map(|(pick, records)| {
        let meta = FlowMeta::new(label(pick), label(pick >> 8), label(pick >> 16));
        FlowTrace::from_records(meta, records)
    })
}

fn time(ns: u64) -> SimTime {
    SimTime::from_nanos(ns)
}

fn arb_stage() -> impl Strategy<Value = PathStage> {
    (any::<u64>(), any::<u64>(), 1e3f64..1e10, 0.0f64..1.0).prop_map(|(a, b, rate_bps, frac)| {
        let rate = match a % 4 {
            0 => RateModelCfg::constant(rate_bps),
            1 => RateModelCfg::Trace {
                steps: (0..b % 4)
                    .map(|i| (time(i * (a >> 40)), rate_bps * (i + 1) as f64))
                    .collect(),
            },
            2 => RateModelCfg::Markov {
                states: vec![rate_bps, rate_bps * frac, 1e6],
                mean_dwell: time(b >> 30),
            },
            _ => RateModelCfg::TokenBucket { fill_bps: rate_bps.floor(), bucket_bytes: b >> 44 },
        };
        let scheduler = match (a >> 2) % 4 {
            0 => SchedulerKind::Fifo,
            1 => SchedulerKind::ProportionalFair { fading: frac },
            2 => SchedulerKind::Codel { target: time(5_000_000), interval: time(b >> 36) },
            _ => SchedulerKind::Pie { target: time(a >> 38), update_interval: time(16_000_000) },
        };
        let cross = match (a >> 4) % 5 {
            0 => Vec::new(),
            1 => vec![CrossTrafficCfg::Cbr {
                rate_bps: rate_bps * frac,
                pkt_size: (b >> 52) as u32,
                start: SimTime::ZERO,
                stop: time(a >> 24),
            }],
            2 => vec![CrossTrafficCfg::OnOff {
                rate_bps: 1e6,
                pkt_size: 1200,
                on: time(a >> 34),
                off: time(b >> 34),
                start: time(1),
                stop: time(u64::MAX),
            }],
            3 => vec![CrossTrafficCfg::Poisson {
                mean_rate_bps: rate_bps / 3.0,
                pkt_size: 1,
                start: time(b >> 28),
                stop: time(b >> 20),
            }],
            _ => vec![
                CrossTrafficCfg::Replay {
                    bins: (0..a % 5)
                        .map(|i| (time(i * 100_000_000), frac * (b >> 40) as f64))
                        .collect(),
                    pkt_size: 1400,
                },
                CrossTrafficCfg::Replay { bins: Vec::new(), pkt_size: 0 },
            ],
        };
        PathStage {
            config: PathConfig {
                rate,
                prop_delay: time(a >> 32),
                buffer_bytes: b >> (a % 64),
                scheduler,
                ack_delay: time(b >> 32),
                random_loss: if a % 3 == 0 { 0.0 } else { frac * 1e-3 },
                reorder: (a % 5 == 0).then(|| ReorderCfg {
                    probability: frac,
                    extra_min: time(1_000_000),
                    extra_max: time(b >> 40),
                }),
                jitter: (b % 2 == 0).then(|| time(a >> 44)),
            },
            cross,
        }
    })
}

fn arb_path() -> impl Strategy<Value = PathSpec> {
    prop::collection::vec(arb_stage(), 1..4).prop_map(|stages| PathSpec { stages })
}

fn arb_run_spec() -> impl Strategy<Value = RunSpec> {
    (any::<u64>(), any::<u64>(), 0.001f64..3_600.0, arb_path()).prop_map(
        |(a, b, duration_s, path)| RunSpec {
            id: label(a),
            source: match a % 3 {
                0 => RunSource::Synth { profile: label(b), protocol: label(b >> 8), seed: a ^ b },
                1 => RunSource::TraceFile { path: format!("traces/{a:x}.json") },
                _ => RunSource::ProfileFile { path: label(b >> 4) },
            },
            protocol: label(b >> 12),
            duration_s,
            seed: b,
            model: match b % 5 {
                4 => ModelKind::IBoxMl(IBoxMlSpec {
                    hidden_sizes: (0..a % 3).map(|i| 4 + i as usize).collect(),
                    epochs: (a % 7) as usize,
                    lr: 1e-3 + (a % 11) as f64 * 1e-4,
                    tbptt: (b % 64) as usize,
                    with_cross_traffic: a % 2 == 0,
                    seed: a,
                }),
                i => ModelKind::all()[i as usize].clone(),
            },
            fidelity: Fidelity::ALL[(a % Fidelity::ALL.len() as u64) as usize],
            // The path rides as an opaque value tree inside the spec.
            path: (a % 4 != 0).then(|| path.to_value()),
        },
    )
}

fn arb_batch_result() -> impl Strategy<Value = BatchResult> {
    prop::collection::vec((any::<u64>(), 0.0f64..1e4, any::<f64>()), 0..6).prop_map(|rows| {
        BatchResult {
            records: rows
                .into_iter()
                .map(|(a, big, unit)| RunRecord {
                    id: label(a),
                    model: ModelKind::all()[(a % 4) as usize].name().to_string(),
                    protocol: label(a >> 8),
                    duration_s: (a % 60) as f64,
                    seed: a,
                    metrics: TraceMetrics {
                        avg_rate_mbps: big,
                        p95_delay_ms: big * unit,
                        loss_pct: if a % 4 == 0 { 0.0 } else { unit * 100.0 },
                        mean_reorder_rate: unit * 1e-9,
                    },
                })
                .collect(),
        }
    })
}

/// One artifact per model kind (the four emulator kinds plus a tiny iBoxML:
/// its weights are the `f32`-heavy document), fitted once.
fn artifacts() -> &'static Vec<ModelArtifact> {
    static CELL: OnceLock<Vec<ModelArtifact>> = OnceLock::new();
    CELL.get_or_init(|| {
        let duration = SimTime::from_secs(3);
        let train = ibox_testbed::run_protocol(
            &ibox_testbed::Profile::Ethernet.builder().seed(11).duration(duration).sample(),
            "cubic",
            duration,
            11,
        );
        let mut kinds = ModelKind::all().to_vec();
        kinds.push(ModelKind::IBoxMl(IBoxMlSpec {
            hidden_sizes: vec![6],
            epochs: 1,
            lr: 5e-3,
            tbptt: 32,
            with_cross_traffic: true,
            seed: 3,
        }));
        kinds.iter().map(|kind| ModelArtifact::new(kind, fit_model(kind, &train))).collect()
    })
}

// ------------------------------------------------------------ properties

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn packet_records_stream_like_their_tree(record in arb_record()) {
        let json = assert_streams_like_its_tree(&record);
        prop_assert_eq!(serde_json::from_str::<PacketRecord>(&json).unwrap(), record);
    }

    #[test]
    fn flow_traces_stream_like_their_tree(trace in arb_trace()) {
        let json = assert_streams_like_its_tree(&trace);
        prop_assert_eq!(serde_json::from_str::<FlowTrace>(&json).unwrap(), trace);
    }

    /// `PathStage`/`PathSpec` define only `to_value`: they reach the writer
    /// through the provided `write_json`, nested under derived parents.
    #[test]
    fn path_specs_stream_like_their_tree(path in arb_path()) {
        let json = assert_streams_like_its_tree(&path);
        prop_assert_eq!(serde_json::from_str::<PathSpec>(&json).unwrap(), path);
    }

    #[test]
    fn run_and_batch_specs_stream_like_their_tree(
        jobs in 0usize..64,
        runs in prop::collection::vec(arb_run_spec(), 0..5),
    ) {
        for run in &runs {
            assert_streams_like_its_tree(run);
        }
        let batch = BatchSpec { jobs, runs };
        let json = assert_streams_like_its_tree(&batch);
        prop_assert_eq!(batch.to_json(), serde_json::to_string_pretty(&batch.to_value()).unwrap());
        prop_assert_eq!(serde_json::from_str::<BatchSpec>(&json).unwrap(), batch);
    }

    #[test]
    fn batch_results_stream_like_their_tree(result in arb_batch_result()) {
        assert_streams_like_its_tree(&result);
        prop_assert_eq!(result.to_json(), serde_json::to_string_pretty(&result.to_value()).unwrap());
    }

    #[test]
    fn metrics_snapshots_stream_like_their_tree(
        draws in prop::collection::vec((any::<u64>(), 0.0f64..1e6), 0..12),
    ) {
        let registry = ibox_obs::Registry::new();
        for (i, (n, x)) in draws.iter().enumerate() {
            let name = format!("m{}.{}", i % 4, label(*n));
            match n % 4 {
                0 => registry.counter(&name).add(*n),
                1 => registry.gauge(&name).set(if n % 2 == 0 { *x } else { -x }),
                2 => registry.histogram(&name).record(*x),
                _ => registry.record_span_ns(&name, n >> 20),
            }
        }
        assert_streams_like_its_tree(&registry.snapshot());
    }

    #[test]
    fn artifacts_of_every_model_kind_stream_like_their_tree(seq in 0u64..1000) {
        for artifact in artifacts() {
            let with_lineage =
                artifact.clone().with_lineage(Some(label(seq)), format!("{seq:016x}"), seq);
            for a in [artifact, &with_lineage] {
                let json = assert_streams_like_its_tree(a);
                prop_assert_eq!(&a.to_json(), &json);
            }
        }
    }
}

// --------------------------------------------------------------- goldens

#[derive(Serialize)]
struct Unit;

#[derive(Serialize)]
struct Newtype(u64);

#[derive(Serialize)]
struct Pair(i64, String);

#[derive(Debug, PartialEq, Serialize, Deserialize)]
enum Shape {
    Unit,
    Newtype(f64),
    Tuple(u8, Option<bool>),
    Struct {
        a: i32,
        #[serde(skip)]
        hidden: u8,
        b: Vec<Shape>,
    },
}

#[derive(Serialize)]
struct Edges {
    big: u64,
    small: i64,
    neg_zero: f64,
    huge: f64,
    tiny: f64,
    denormal_edge: f64,
    nan: f64,
    inf: f64,
    single: f32,
    none: Option<u64>,
    #[serde(skip)]
    _skipped: u64,
    unit: Unit,
    newtype: Newtype,
    pair: Pair,
    empty_vec: Vec<u8>,
    empty_map: BTreeMap<String, u8>,
    map: BTreeMap<String, (u8, char)>,
    text: String,
    shapes: Vec<Shape>,
}

fn edges() -> Edges {
    Edges {
        big: u64::MAX,
        small: i64::MIN,
        neg_zero: -0.0,
        huge: 1e21,
        tiny: 1e-7,
        denormal_edge: f64::MIN_POSITIVE,
        nan: f64::NAN,
        inf: f64::NEG_INFINITY,
        single: 0.1,
        none: None,
        _skipped: 99,
        unit: Unit,
        newtype: Newtype(7),
        pair: Pair(-1, "p".into()),
        empty_vec: Vec::new(),
        empty_map: BTreeMap::new(),
        map: BTreeMap::from([("k\"1".to_string(), (1, 'é')), ("k2".to_string(), (2, '"'))]),
        text: "q\" b\\ n\n t\t c\x01\x1f é 😀".into(),
        shapes: vec![
            Shape::Unit,
            Shape::Newtype(2.0),
            Shape::Tuple(3, None),
            Shape::Struct { a: -4, hidden: 5, b: vec![Shape::Unit] },
            Shape::Struct { a: 0, hidden: 0, b: Vec::new() },
        ],
    }
}

/// `f64::MIN_POSITIVE` in `Display` form: `0.` + 307 zeros + its digits.
fn min_positive_digits() -> String {
    format!("0.{}22250738585072014", "0".repeat(307))
}

#[test]
fn compact_golden_covers_every_derive_shape_and_number_edge() {
    let want = [
        r#"{"big":18446744073709551615,"small":-9223372036854775808,"neg_zero":-0.0,"#,
        r#""huge":1000000000000000000000.0,"tiny":0.0000001,"denormal_edge":"#,
        &min_positive_digits(),
        r#","nan":null,"inf":null,"single":0.10000000149011612,"none":null,"unit":null,"#,
        r#""newtype":7,"pair":[-1,"p"],"empty_vec":[],"empty_map":{},"#,
        r#""map":{"k\"1":[1,"é"],"k2":[2,"\""]},"#,
        r#""text":"q\" b\\ n\n t\t c"#,
        "\\u0001\\u001f",
        r#" é 😀","shapes":["Unit",{"Newtype":2.0},{"Tuple":[3,null]},"#,
        r#"{"Struct":{"a":-4,"b":["Unit"]}},{"Struct":{"a":0,"b":[]}}]}"#,
    ]
    .concat();
    assert_eq!(assert_streams_like_its_tree(&edges()), want);

    // The written variants read back; a skipped field comes back defaulted.
    let shapes = serde_json::to_string(&edges().shapes).unwrap();
    let back: Vec<Shape> = serde_json::from_str(&shapes).unwrap();
    assert_eq!(back[3], Shape::Struct { a: -4, hidden: 0, b: vec![Shape::Unit] });
    assert_eq!(back[..3], edges().shapes[..3]);
}

#[test]
fn serde_default_fills_absent_keys_on_read() {
    #[derive(Debug, PartialEq, Serialize, Deserialize)]
    struct FieldLevel {
        required: u8,
        #[serde(default)]
        optional: Vec<u8>,
    }
    let read = |json: &str| serde_json::from_str::<FieldLevel>(json);
    assert_eq!(read(r#"{"required":1}"#).unwrap(), FieldLevel { required: 1, optional: vec![] });
    assert_eq!(
        read(r#"{"required":1,"optional":[2],"unknown":true}"#).unwrap(),
        FieldLevel { required: 1, optional: vec![2] }
    );
    // Only the marked field is optional, and a present key is still typed.
    assert!(read(r#"{"optional":[2]}"#).unwrap_err().to_string().contains("missing field"));
    assert!(read(r#"{"required":1,"optional":"x"}"#).is_err());

    #[derive(Debug, PartialEq, Serialize, Deserialize)]
    #[serde(default)]
    struct ContainerLevel {
        a: u8,
        b: String,
        #[serde(skip)]
        hidden: u8,
    }
    impl Default for ContainerLevel {
        fn default() -> Self {
            Self { a: 7, b: "seven".into(), hidden: 77 }
        }
    }
    // Absent keys take `Self::default()`'s field, not the field type's
    // default; a skipped field keeps reading as its type's default.
    let read = |json: &str| serde_json::from_str::<ContainerLevel>(json).unwrap();
    assert_eq!(read("{}"), ContainerLevel { hidden: 0, ..Default::default() });
    assert_eq!(read(r#"{"b":"x"}"#), ContainerLevel { a: 7, b: "x".into(), hidden: 0 });
    assert!(serde_json::from_str::<ContainerLevel>("[]").is_err());
    // Writing is unaffected.
    assert_eq!(assert_streams_like_its_tree(&read(r#"{"a":1}"#)), r#"{"a":1,"b":"seven"}"#);
}

#[test]
fn pretty_golden_indents_members_and_closes_empties_inline() {
    #[derive(Serialize)]
    struct Doc {
        none: Option<u8>,
        unit: Unit,
        empty_vec: Vec<u8>,
        empty_map: BTreeMap<String, u8>,
        all_skipped: AllSkipped,
        shapes: Vec<Shape>,
        pair: Pair,
    }
    #[derive(Serialize)]
    struct AllSkipped {
        #[serde(skip)]
        _x: u8,
    }
    let doc = Doc {
        none: None,
        unit: Unit,
        empty_vec: Vec::new(),
        empty_map: BTreeMap::new(),
        all_skipped: AllSkipped { _x: 1 },
        shapes: vec![
            Shape::Unit,
            Shape::Tuple(1, Some(true)),
            Shape::Struct { a: 1, hidden: 2, b: Vec::new() },
        ],
        pair: Pair(0, "\n".into()),
    };
    let want = r#"{
  "none": null,
  "unit": null,
  "empty_vec": [],
  "empty_map": {},
  "all_skipped": {},
  "shapes": [
    "Unit",
    {
      "Tuple": [
        1,
        true
      ]
    },
    {
      "Struct": {
        "a": 1,
        "b": []
      }
    }
  ],
  "pair": [
    0,
    "\n"
  ]
}"#;
    assert_eq!(serde_json::to_string_pretty(&doc).unwrap(), want);
    assert_streams_like_its_tree(&doc);
}

#[test]
fn top_level_scalars_and_value_trees_render_the_same_both_ways() {
    assert_eq!(serde_json::to_string(&Unit).unwrap(), "null");
    assert_eq!(serde_json::to_string_pretty(&Newtype(3)).unwrap(), "3");
    assert_eq!(serde_json::to_string(&Shape::Unit).unwrap(), r#""Unit""#);
    assert_eq!(serde_json::to_string(&Fidelity::Hybrid).unwrap(), r#""hybrid""#);
    assert_eq!(serde_json::to_string_pretty(&Vec::<Shape>::new()).unwrap(), "[]");
    // A hand-built tree goes through `Value`'s own writer — the renderer
    // every `to_value`-only type uses.
    let tree = Value::Object(vec![
        ("k".into(), Value::Array(vec![Value::U64(1), Value::F64(1.0), Value::Null])),
        ("e".into(), Value::Object(Vec::new())),
    ]);
    assert_eq!(serde_json::to_string(&tree).unwrap(), r#"{"k":[1,1.0,null],"e":{}}"#);
    assert_eq!(
        serde_json::to_string_pretty(&tree).unwrap(),
        "{\n  \"k\": [\n    1,\n    1.0,\n    null\n  ],\n  \"e\": {}\n}"
    );
}
