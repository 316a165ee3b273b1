//! §4.2 "Simulation Speed" — per-packet inference latency.
//!
//! The paper measures 2.2 ms/packet for a 4-layer, ≈2M-parameter LSTM on a
//! V100 GPU, implying only ~5.5 Mbps of emulated bandwidth at 1500-byte
//! packets. This bench reproduces the comparison on CPU: the full-size
//! iBoxML stack, a small iBoxML stack, a whole iBoxNet emulation second
//! (amortizing its per-packet cost), and the linear reordering model — the
//! ordering (deep model ≫ everything else) is the paper's point.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use ibox_ml::{InferenceSession, Logistic, LogisticConfig, SequenceModel, SequenceModelConfig};

fn paper_scale_model() -> SequenceModel {
    // 4 layers × 256 hidden ≈ 2.1M parameters (the paper's scale).
    SequenceModel::new(SequenceModelConfig {
        input_size: 6,
        hidden_sizes: vec![256, 256, 256, 256],
        predict_loss: true,
        seed: 1,
    })
}

fn small_model() -> SequenceModel {
    SequenceModel::new(SequenceModelConfig {
        input_size: 6,
        hidden_sizes: vec![32, 32],
        predict_loss: true,
        seed: 1,
    })
}

/// A one-slot session with its slot held — what a single-connection
/// replay steps once per packet.
fn held_session(model: &SequenceModel) -> InferenceSession {
    let mut session = InferenceSession::new(model, 1);
    session.acquire_slot().expect("fresh session has a free slot");
    session
}

fn bench_inference(c: &mut Criterion) {
    let mut group = c.benchmark_group("per_packet_inference");

    let big = paper_scale_model();
    assert!(big.param_count() > 1_800_000, "paper-scale model must be ~2M params");
    let mut big_session = held_session(&big);
    let x = [0.1f32, -0.2, 0.3, 0.0, 0.5, -0.1];
    group.bench_function("iboxml_4x256_2M_params", |b| {
        b.iter(|| black_box(big_session.step_batch(&big, black_box(&x))[0]))
    });

    let small = small_model();
    let mut small_session = held_session(&small);
    group.bench_function("iboxml_2x32", |b| {
        b.iter(|| black_box(small_session.step_batch(&small, black_box(&x))[0]))
    });

    // The linear reordering model (§5.1's "lightweight and much faster").
    let rows: Vec<Vec<f64>> = (0..100).map(|i| vec![i as f64, 0.5, 1.0]).collect();
    let labels: Vec<f64> = (0..100).map(|i| f64::from(i % 7 == 0)).collect();
    let logistic =
        Logistic::train(&rows, &labels, &LogisticConfig { epochs: 10, ..Default::default() });
    let feat = [1.0f64, 0.5, 2.0];
    group.bench_function("linear_logistic", |b| {
        b.iter(|| black_box(logistic.predict_proba(black_box(&feat))))
    });

    group.finish();
}

fn bench_iboxnet_step(c: &mut Criterion) {
    // iBoxNet's cost per packet: a whole 1-second emulation of a saturated
    // 8 Mbps path (≈700 packets), amortized by Criterion.
    use ibox_sim::{FixedWindow, PathConfig, PathEmulator, SimTime};
    let mut group = c.benchmark_group("iboxnet_emulation");
    group.sample_size(20);
    group.bench_function("one_second_8mbps_path", |b| {
        b.iter(|| {
            let emu = PathEmulator::from_spec(
                ibox_sim::PathSpec::single(PathConfig::simple(
                    8e6,
                    SimTime::from_millis(20),
                    100_000,
                )),
                SimTime::from_secs(1),
            );
            black_box(emu.run_sender(Box::new(FixedWindow::new(64.0)), "p", 1))
        })
    });
    group.finish();
}

criterion_group!(benches, bench_inference, bench_iboxnet_step);
criterion_main!(benches);
