//! Property-based tests for the ML substrate.

use proptest::prelude::*;

use ibox_ml::lstm::{
    Lstm, LstmStack, LstmState, LstmWorkspace, StackCache, StackWorkspace, StepCache,
};
use ibox_ml::matrix::Mat;
use ibox_ml::{Logistic, LogisticConfig, SequenceModel, SequenceModelConfig, StandardScaler};

fn seeded(seed: u64) -> rand::rngs::StdRng {
    use rand::SeedableRng;
    rand::rngs::StdRng::seed_from_u64(seed)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// Scaler: transform then inverse is the identity (dimension 0).
    #[test]
    fn scaler_roundtrip(values in prop::collection::vec(-1e6f64..1e6, 2..100), probe in -1e6f64..1e6) {
        let s = StandardScaler::fit_scalar(&values);
        let z = s.transform_scalar(probe);
        prop_assert!((s.inverse_scalar(z) - probe).abs() < 1e-6 * (1.0 + probe.abs()));
    }

    /// Scaler on its own training data has ~zero mean, ~unit variance.
    #[test]
    fn scaler_standardizes(values in prop::collection::vec(-1e3f64..1e3, 8..100)) {
        let spread = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
            - values.iter().cloned().fold(f64::INFINITY, f64::min);
        prop_assume!(spread > 1e-6);
        let s = StandardScaler::fit_scalar(&values);
        let z: Vec<f64> = values.iter().map(|v| s.transform_scalar(*v)).collect();
        let mean = z.iter().sum::<f64>() / z.len() as f64;
        let var = z.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / z.len() as f64;
        prop_assert!(mean.abs() < 1e-6, "mean {mean}");
        prop_assert!((var - 1.0).abs() < 1e-6, "var {var}");
    }

    /// Matrix kernels: (Wᵀ u)·v == u·(W v) — the adjoint identity that
    /// backprop correctness rests on.
    #[test]
    fn matvec_adjoint_identity(
        rows in 1usize..8,
        cols in 1usize..8,
        seed in 0u64..1000,
    ) {
        use rand::Rng;
        let mut rng = seeded(seed);
        let mut w = Mat::zeros(rows, cols);
        for x in w.data_mut() {
            *x = rng.random::<f32>() - 0.5;
        }
        let u: Vec<f32> = (0..rows).map(|_| rng.random::<f32>() - 0.5).collect();
        let v: Vec<f32> = (0..cols).map(|_| rng.random::<f32>() - 0.5).collect();
        let (mut wv, mut wtu) = (vec![0.0f32; rows], vec![0.0f32; cols]);
        w.matvec_into(&v, &mut wv);
        w.matvec_t_into(&u, &mut wtu);
        let lhs: f64 = wtu.iter().zip(&v).map(|(a, b)| f64::from(a * b)).sum();
        let rhs: f64 = u.iter().zip(&wv).map(|(a, b)| f64::from(a * b)).sum();
        prop_assert!((lhs - rhs).abs() < 1e-3, "{lhs} vs {rhs}");
    }

    /// LSTM hidden/cell states stay bounded (h in (−1, 1) by construction)
    /// under arbitrary bounded input sequences.
    #[test]
    fn lstm_states_bounded(
        inputs in prop::collection::vec(prop::collection::vec(-3.0f32..3.0, 3), 1..50),
        seed in 0u64..100,
    ) {
        let mut rng = seeded(seed);
        let stack = LstmStack::new(3, &[8, 4], &mut rng);
        let mut states: Vec<LstmState> = stack.zero_state();
        let (mut ws, mut cache) = (stack.workspace(), stack.new_cache());
        for x in &inputs {
            stack.step_into(x, &mut states, &mut ws, &mut cache);
            for h in &states[1].h {
                prop_assert!(h.abs() <= 1.0 + 1e-6, "|h| = {}", h.abs());
                prop_assert!(h.is_finite());
            }
        }
    }

    /// Sequence-model inference is a pure function of (weights, inputs).
    #[test]
    fn model_inference_is_deterministic(
        inputs in prop::collection::vec(prop::collection::vec(-2.0f32..2.0, 2), 1..30),
        seed in 0u64..100,
    ) {
        let model = SequenceModel::new(SequenceModelConfig {
            input_size: 2,
            hidden_sizes: vec![6],
            predict_loss: true,
            seed,
        });
        prop_assert_eq!(
            model.predict_open_loop(&inputs),
            model.predict_open_loop(&inputs)
        );
        prop_assert_eq!(
            model.predict_closed_loop_clamped(&inputs, 1, (-3.0, 3.0)),
            model.predict_closed_loop_clamped(&inputs, 1, (-3.0, 3.0))
        );
    }

    /// Logistic outputs are probabilities, and training is scale-stable.
    #[test]
    fn logistic_outputs_probabilities(
        rows in prop::collection::vec(prop::collection::vec(-5.0f64..5.0, 2), 4..60),
        seed in 0u64..100,
    ) {
        let labels: Vec<f64> = rows
            .iter()
            .enumerate()
            .map(|(i, _)| f64::from((i + seed as usize).is_multiple_of(3)))
            .collect();
        let m = Logistic::train(&rows, &labels, &LogisticConfig { epochs: 30, ..Default::default() });
        for r in &rows {
            let p = m.predict_proba(r);
            prop_assert!((0.0..=1.0).contains(&p));
            prop_assert!(p.is_finite());
        }
    }

    /// Closed-loop clamping actually bounds the reported means.
    #[test]
    fn closed_loop_clamp_bounds_outputs(
        inputs in prop::collection::vec(prop::collection::vec(-50.0f32..50.0, 2), 2..40),
        lo in -2.0f32..0.0,
        hi in 0.0f32..2.0,
    ) {
        let model = SequenceModel::new(SequenceModelConfig {
            input_size: 2,
            hidden_sizes: vec![6],
            predict_loss: false,
            seed: 3,
        });
        for p in model.predict_closed_loop_clamped(&inputs, 1, (lo, hi)) {
            prop_assert!(p.mu >= lo && p.mu <= hi);
        }
    }
}

/// Assert two f32 slices are bit-identical (not merely approximately
/// equal).
fn assert_bits_eq(a: &[f32], b: &[f32], what: &str) -> Result<(), proptest::TestCaseError> {
    prop_assert_eq!(a.len(), b.len(), "{} length", what);
    for (k, (x, y)) in a.iter().zip(b).enumerate() {
        prop_assert_eq!(x.to_bits(), y.to_bits(), "{}[{}]: {} vs {}", what, k, x, y);
    }
    Ok(())
}

/// Random values in `[-scale, scale)`.
fn uniform(rng: &mut rand::rngs::StdRng, n: usize, scale: f32) -> Vec<f32> {
    use rand::Rng;
    (0..n).map(|_| (rng.random::<f32>() * 2.0 - 1.0) * scale).collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// `matvec_into` / `matvec_t_into` overwrite their output: a reused,
    /// NaN-poisoned buffer ends up with the same bits as a fresh zeroed
    /// one over random shapes.
    #[test]
    fn matvec_kernels_ignore_prior_output_contents(
        rows in 1usize..24,
        cols in 1usize..24,
        seed in 0u64..1000,
    ) {
        let mut rng = seeded(seed);
        let w = Mat::from_vec(rows, cols, uniform(&mut rng, rows * cols, 1.0));
        let v = uniform(&mut rng, cols, 1.0);
        let u = uniform(&mut rng, rows, 1.0);

        let (mut reused, mut fresh) = (vec![f32::NAN; rows], vec![0.0f32; rows]);
        w.matvec_into(&v, &mut reused);
        w.matvec_into(&v, &mut fresh);
        assert_bits_eq(&fresh, &reused, "matvec")?;

        let (mut reused, mut fresh) = (vec![f32::NAN; cols], vec![0.0f32; cols]);
        w.matvec_t_into(&u, &mut reused);
        w.matvec_t_into(&u, &mut fresh);
        assert_bits_eq(&fresh, &reused, "matvec_t")?;
    }

    /// One layer, forward and backward: a workspace and cache ring reused
    /// across steps — NaN-poisoned before every call, output buffers
    /// included — give the same bits as fresh ones per step: states, input
    /// and recurrent gradients, and accumulated weight gradients alike.
    /// The `_into` kernels carry nothing between calls but their arguments.
    #[test]
    fn lstm_reused_poisoned_workspace_matches_fresh_bitwise(
        input_size in 1usize..6,
        hidden in 1usize..10,
        steps in 1usize..12,
        seed in 0u64..500,
    ) {
        let mut rng = seeded(seed);
        let reference = Lstm::new(input_size, hidden, &mut rng);
        let (mut reused, mut fresh) = (reference.clone(), reference.clone());
        let xs: Vec<Vec<f32>> = (0..steps).map(|_| uniform(&mut rng, input_size, 2.0)).collect();
        let dhs: Vec<Vec<f32>> = (0..steps).map(|_| uniform(&mut rng, hidden, 1.0)).collect();
        let nan = |n: usize| vec![f32::NAN; n];
        // Poison through the public kernels: an all-NaN step forward and
        // backward on a throwaway clone fills every workspace/cache buffer.
        let poison = |ws: &mut LstmWorkspace, cache: &mut StepCache| {
            let mut state = LstmState { h: nan(hidden), c: nan(hidden) };
            let mut scratch = reference.clone();
            scratch.step_into(&nan(input_size), &mut state, ws, cache);
            let (h, i) = (nan(hidden), nan(input_size));
            scratch.step_backward_into(cache, &h, &h, &h, ws, &mut i.clone(), &mut h.clone(), &mut h.clone());
        };

        let mut ws = LstmWorkspace::for_layer(&reused);
        let mut r_caches: Vec<StepCache> = xs.iter().map(|_| StepCache::for_layer(&reused)).collect();
        let mut f_caches = r_caches.clone();
        let (mut r_state, mut f_state) = (LstmState::zeros(hidden), LstmState::zeros(hidden));
        for (t, x) in xs.iter().enumerate() {
            poison(&mut ws, &mut r_caches[t]);
            reused.step_into(x, &mut r_state, &mut ws, &mut r_caches[t]);
            fresh.step_into(x, &mut f_state, &mut LstmWorkspace::for_layer(&fresh), &mut f_caches[t]);
            assert_bits_eq(&f_state.h, &r_state.h, "h")?;
            assert_bits_eq(&f_state.c, &r_state.c, "c")?;
        }

        reused.zero_grad();
        fresh.zero_grad();
        let (mut dh_next, mut dc_next) = (vec![0.0f32; hidden], vec![0.0f32; hidden]);
        for t in (0..steps).rev() {
            let (mut r_dx, mut r_dh, mut r_dc) = (nan(input_size), nan(hidden), nan(hidden));
            poison(&mut ws, &mut StepCache::for_layer(&reused));
            reused.step_backward_into(
                &r_caches[t], &dhs[t], &dh_next, &dc_next, &mut ws, &mut r_dx, &mut r_dh, &mut r_dc,
            );
            let (mut f_dx, mut f_dh, mut f_dc) =
                (vec![0.0f32; input_size], vec![0.0f32; hidden], vec![0.0f32; hidden]);
            let mut fresh_ws = LstmWorkspace::for_layer(&fresh);
            fresh.step_backward_into(
                &f_caches[t], &dhs[t], &dh_next, &dc_next, &mut fresh_ws, &mut f_dx, &mut f_dh,
                &mut f_dc,
            );
            assert_bits_eq(&f_dx, &r_dx, "dx")?;
            assert_bits_eq(&f_dh, &r_dh, "dh_prev")?;
            assert_bits_eq(&f_dc, &r_dc, "dc_prev")?;
            (dh_next, dc_next) = (f_dh, f_dc);
        }
        assert_bits_eq(fresh.gwx.data(), reused.gwx.data(), "gwx")?;
        assert_bits_eq(fresh.gwh.data(), reused.gwh.data(), "gwh")?;
        assert_bits_eq(&fresh.gb, &reused.gb, "gb")?;
    }

    /// Same at the stack level (`step_into` / `backward_into`, inter-layer
    /// gradient rotation buffers included), gradients of every layer
    /// compared.
    #[test]
    fn lstm_stack_reused_poisoned_workspace_matches_fresh_bitwise(
        steps in 1usize..8,
        seed in 0u64..200,
    ) {
        let mut rng = seeded(seed);
        let reference = LstmStack::new(3, &[7, 5], &mut rng);
        let (mut reused, mut fresh) = (reference.clone(), reference.clone());
        let xs: Vec<Vec<f32>> = (0..steps).map(|_| uniform(&mut rng, 3, 2.0)).collect();
        let dh_top: Vec<Vec<f32>> = (0..steps).map(|_| uniform(&mut rng, 5, 1.0)).collect();
        // One all-NaN step forward and backward on a throwaway clone.
        let poison = |ws: &mut StackWorkspace, cache: &mut StackCache| {
            let mut scratch = reference.clone();
            let mut states = scratch.zero_state();
            for s in &mut states {
                s.h.fill(f32::NAN);
                s.c.fill(f32::NAN);
            }
            scratch.step_into(&[f32::NAN; 3], &mut states, ws, cache);
            scratch.zero_grad();
            scratch.backward_into(std::slice::from_ref(cache), &[vec![f32::NAN; 5]], ws);
        };

        let mut ws = reused.workspace();
        let mut r_caches: Vec<StackCache> = xs.iter().map(|_| reused.new_cache()).collect();
        let mut f_caches = r_caches.clone();
        let (mut r_states, mut f_states) = (reused.zero_state(), fresh.zero_state());
        for (t, x) in xs.iter().enumerate() {
            poison(&mut ws, &mut r_caches[t]);
            reused.step_into(x, &mut r_states, &mut ws, &mut r_caches[t]);
            fresh.step_into(x, &mut f_states, &mut fresh.workspace(), &mut f_caches[t]);
            for (f, r) in f_states.iter().zip(&r_states) {
                assert_bits_eq(&f.h, &r.h, "stack h")?;
                assert_bits_eq(&f.c, &r.c, "stack c")?;
            }
        }

        reused.zero_grad();
        fresh.zero_grad();
        poison(&mut ws, &mut reused.new_cache());
        reused.backward_into(&r_caches, &dh_top, &mut ws);
        fresh.backward_into(&f_caches, &dh_top, &mut fresh.workspace());
        for (lf, lr) in fresh.layers().iter().zip(reused.layers()) {
            assert_bits_eq(lf.gwx.data(), lr.gwx.data(), "stack gwx")?;
            assert_bits_eq(lf.gwh.data(), lr.gwh.data(), "stack gwh")?;
            assert_bits_eq(&lf.gb, &lr.gb, "stack gb")?;
        }
    }

    /// `InferenceSession::step_batch` with K active streams is bitwise
    /// identical to K independent sequential unrolls
    /// (`predict_open_loop`: `LstmStack::step_into` + the head forwards) —
    /// including across a mid-run slot release and reuse, where the
    /// reacquired slot must restart from the zero state exactly like a
    /// fresh sequence.
    #[test]
    fn session_step_batch_matches_independent_streams_bitwise(
        k in 1usize..5,
        hidden in 1usize..9,
        steps in 1usize..10,
        seed in 0u64..500,
    ) {
        use ibox_ml::{InferenceSession, Prediction};
        let model = SequenceModel::new(SequenceModelConfig {
            input_size: 3,
            hidden_sizes: vec![hidden, hidden],
            predict_loss: seed % 2 == 0,
            seed,
        });
        let mut rng = seeded(seed ^ 0xABCD);
        let mut session = InferenceSession::new(&model, k);
        for s in 0..k {
            prop_assert_eq!(session.acquire_slot(), Some(s));
        }
        // Per stream: the rows fed and predictions read since its slot was
        // last acquired.
        let mut fed: Vec<Vec<Vec<f32>>> = vec![Vec::new(); k];
        let mut got: Vec<Vec<Prediction>> = vec![Vec::new(); k];
        let released = seed as usize % k;
        for phase in 0..2 {
            if phase == 1 {
                // Mid-run release/reacquire: the slot restarts from zero,
                // so its reference sequence restarts too.
                session.release_slot(released);
                prop_assert_eq!(session.acquire_slot(), Some(released));
                fed[released].clear();
                got[released].clear();
            }
            for _ in 0..steps {
                let xs = uniform(&mut rng, k * 3, 2.0);
                let batched = session.step_batch(&model, &xs);
                for s in 0..k {
                    fed[s].push(xs[s * 3..(s + 1) * 3].to_vec());
                    got[s].push(batched[s]);
                }
            }
        }
        for s in 0..k {
            prop_assert_eq!(&got[s], &model.predict_open_loop(&fed[s]), "stream {}", s);
        }
    }

    /// Batched closed-loop prediction over a slot-starved session (more
    /// streams than slots, forcing release/reacquire churn) matches the
    /// sequential per-stream unroll exactly, sampled and clamped alike.
    #[test]
    fn closed_loop_batch_matches_sequential_bitwise(
        n_streams in 1usize..6,
        max_streams in 1usize..4,
        seed in 0u64..300,
    ) {
        use ibox_ml::ClosedLoopStream;
        use rand::Rng;
        let model = SequenceModel::new(SequenceModelConfig {
            input_size: 2,
            hidden_sizes: vec![5],
            predict_loss: true,
            seed,
        });
        let mut rng = seeded(seed ^ 0x5E55);
        let inputs: Vec<Vec<Vec<f32>>> = (0..n_streams)
            .map(|_| {
                let len = (rng.random::<u32>() % 9) as usize;
                (0..len).map(|_| vec![rng.random::<f32>() * 2.0 - 1.0, 0.0]).collect()
            })
            .collect();
        let streams: Vec<ClosedLoopStream<'_>> = inputs
            .iter()
            .enumerate()
            .map(|(s, i)| ClosedLoopStream {
                inputs: i,
                sample_seed: (s % 2 == 0).then_some(seed ^ s as u64),
            })
            .collect();
        let clamp = (-2.0f32, 2.0);
        let batch = model.predict_closed_loop_batch(&streams, 1, clamp, max_streams);
        for (s, stream) in streams.iter().enumerate() {
            let seq = match stream.sample_seed {
                Some(sd) => model.predict_closed_loop_sampled(stream.inputs, 1, clamp, sd),
                None => model.predict_closed_loop_clamped(stream.inputs, 1, clamp),
            };
            prop_assert_eq!(&batch[s], &seq, "stream {}", s);
        }
    }
}
