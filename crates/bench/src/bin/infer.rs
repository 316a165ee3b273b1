//! Inference-throughput guardrails for the batched [`InferenceSession`].
//!
//! Two measurements via the vendored criterion's timed API, over the
//! same model, inputs, and packet count:
//!
//! 1. **Batched** — one `InferenceSession` with [`N_STREAMS`] slots,
//!    one `step_batch` per packet-step: one fused matmul per layer, zero
//!    per-packet allocation.
//! 2. **Legacy** — the pre-redesign replay hot path reproduced in this
//!    binary (so the library can never "optimize" its own baseline
//!    away): fresh stack workspace + training cache per packet, one
//!    matvec chain per stream, the head `forward`s.
//!
//! Both arms are cross-checked bitwise identical before timing — the
//! speedup must come from the kernel shape, never from different math.
//! That identity also bounds it: sigmoid/tanh are pinned to the scalar
//! libm calls (any vectorized variant would change bits), and at replay
//! model sizes those transcendentals are over half of every packet's
//! cost in *both* arms. The batched win is therefore the allocation-free
//! session plus fused matmuls — about 1.2×, not the order-of-magnitude
//! amortization a GPU batch would show. (The 1.41× this bench used to
//! report was measured against a since-deleted shim that built a
//! throwaway one-slot session per packet — a strawman no replay ran.)
//! The in-binary assert is a regression floor on the real contrast.
//!
//! Results land as `infer.*` gauges in `BENCH_infer.json`. With
//! `--baseline <path>` the previously committed manifest is read *before*
//! the new one is written and the process exits nonzero if batched
//! throughput regressed by more than 20% (used by
//! `scripts/check.sh --perf`).
//!
//! Run: `cargo run -p ibox-bench --release --bin infer [--quick]
//! [--baseline BENCH_infer.json]`
//!
//! [`InferenceSession`]: ibox_ml::InferenceSession

use std::hint::black_box;

use criterion::{Criterion, Stats};
use ibox_bench::{cell, check_baseline, render_table, Better, Scale};
use ibox_ml::{InferenceSession, Prediction, SequenceModel, SequenceModelConfig};

/// Concurrent connections driven through one session.
const N_STREAMS: usize = 16;
/// Packet-steps per stream per measured iteration.
const STEPS: usize = 128;
/// Feature width of the replay path (delay/loss/send features).
const INPUT: usize = 6;
/// Hidden width — one layer, sized so a single stream's weights stay
/// cache-resident and the contrast isolates the batching, not the model.
const HIDDEN: usize = 16;

fn model() -> SequenceModel {
    SequenceModel::new(SequenceModelConfig {
        input_size: INPUT,
        hidden_sizes: vec![HIDDEN],
        predict_loss: true,
        seed: 11,
    })
}

/// Per-step input planes, `[N_STREAMS * INPUT]` each — deterministic,
/// bounded, distinct per stream.
fn input_planes() -> Vec<Vec<f32>> {
    (0..STEPS)
        .map(|t| {
            (0..N_STREAMS * INPUT)
                .map(|k| ((t as f32 + 1.3) * (k as f32 + 0.7)).sin() * 0.5)
                .collect()
        })
        .collect()
}

/// Drive every plane through the batched session; returns the final
/// predictions (consumed so the work cannot be optimized away).
fn run_batched(
    model: &SequenceModel,
    session: &mut InferenceSession,
    planes: &[Vec<f32>],
) -> Vec<Prediction> {
    let mut last = Vec::new();
    for plane in planes {
        let preds = session.step_batch(model, plane);
        last.clear();
        last.extend_from_slice(preds);
    }
    last
}

/// The pre-redesign hot path, reproduced faithfully: per packet per
/// stream, a fresh stack workspace and training cache, one matvec chain,
/// and the head `forward`s.
fn run_legacy(model: &SequenceModel, planes: &[Vec<f32>]) -> Vec<Prediction> {
    let mut states: Vec<_> = (0..N_STREAMS).map(|_| model.stack().zero_state()).collect();
    let mut last = Vec::new();
    for plane in planes {
        last.clear();
        for (s, state) in states.iter_mut().enumerate() {
            let x = &plane[s * INPUT..(s + 1) * INPUT];
            let mut ws = model.stack().workspace();
            let mut cache = model.stack().new_cache();
            model.stack().step_into(x, state, &mut ws, &mut cache);
            let top = &state.last().expect("nonempty stack").h;
            let g = model.delay_head().forward(top);
            let p_loss = model.loss_head().map_or(0.0, |h| h.forward(top));
            last.push(Prediction { mu: g.mu, var: g.var, p_loss });
        }
    }
    last
}

/// Fresh session with every slot held — the steady replay state.
fn full_session(model: &SequenceModel) -> InferenceSession {
    let mut session = InferenceSession::new(model, N_STREAMS);
    for _ in 0..N_STREAMS {
        session.acquire_slot().expect("fresh session has free slots");
    }
    session
}

/// Throughput from the fastest sample: background load only ever adds
/// time, so the min is the noise-robust estimate.
fn packets_per_sec(stats: &Stats) -> f64 {
    (N_STREAMS * STEPS) as f64 * 1e9 / stats.min_ns.max(1e-9)
}

fn main() {
    let bench = ibox_bench::BenchRun::start("infer");
    let mut criterion = Criterion::default();

    let model = model();
    let planes = input_planes();

    // Cross-check: both arms are the same math, bitwise. The batched
    // kernels reuse the canonical dot4 summation, so this is exact
    // equality, not a tolerance.
    let mut session = full_session(&model);
    let batched_out = run_batched(&model, &mut session, &planes);
    let legacy_out = run_legacy(&model, &planes);
    assert_eq!(batched_out, legacy_out, "batched inference must match the pre-redesign path");

    let mut group = criterion.benchmark_group("inference");
    group.sample_size(Scale::from_args().pick(10, 30));
    let batched = group
        .bench_function_timed("batched_session", |b| {
            b.iter(|| black_box(run_batched(black_box(&model), &mut session, black_box(&planes))))
        })
        .expect("measured");
    let legacy = group
        .bench_function_timed("legacy_pre_redesign", |b| {
            b.iter(|| black_box(run_legacy(black_box(&model), black_box(&planes))))
        })
        .expect("measured");
    group.finish();

    let batched_pps = packets_per_sec(&batched);
    let legacy_pps = packets_per_sec(&legacy);
    let speedup = batched_pps / legacy_pps.max(1e-9);

    let registry = ibox_obs::global();
    registry.gauge("infer.batched_pps").set(batched_pps);
    registry.gauge("infer.legacy_pps").set(legacy_pps);
    registry.gauge("infer.speedup_x").set(speedup);
    registry.gauge("infer.n_streams").set(N_STREAMS as f64);

    print!(
        "{}",
        render_table(
            "ML inference throughput (batched session vs the pre-redesign hot path)",
            &["metric", "value"],
            &[
                vec!["batched packets/s".into(), cell(batched_pps, 0)],
                vec!["legacy packets/s".into(), cell(legacy_pps, 0)],
                vec!["speedup".into(), format!("{speedup:.2}x")],
                vec!["streams".into(), format!("{N_STREAMS}")],
            ],
        )
    );

    // Read the committed baseline BEFORE finish() overwrites the file.
    let baseline_failures =
        check_baseline(&[("infer.batched_pps", batched_pps, 0.20, Better::Higher)]);

    bench.finish();

    // Regression floor, not an amortization claim: the bitwise-pinned
    // scalar tanh/sigmoid floor both arms (see module docs), so the
    // honest contrast sits around 1.2x. Anything under 1.1x means the
    // session stopped paying for itself.
    assert!(
        speedup >= 1.1,
        "batched session must be >= 1.1x the pre-redesign path, got {speedup:.2}x"
    );
    ibox_bench::exit_on_regressions("infer", &baseline_failures);
}
