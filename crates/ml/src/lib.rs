//! # ibox-ml
//!
//! From-scratch machine-learning substrate for iBoxML.
//!
//! The paper's ML approach (§4) is a deep LSTM state-space model trained to
//! predict per-packet delay (and loss) distributions from packet-stream
//! features. No ML framework is available offline, so this crate implements
//! the full pipeline:
//!
//! * [`matrix`] — dense matrix/vector kernels (`f32`).
//! * [`lstm`] — LSTM layers and stacks with exact analytic BPTT gradients
//!   (numerically verified in the tests).
//! * [`dense`] — fully-connected layers.
//! * [`heads`] — the Gaussian delay head `N(w₁ᵀh, softplus(w₂ᵀh))` and
//!   Bernoulli loss head of §4.1.
//! * [`optim`] — Adam with global-norm gradient clipping.
//! * [`model`] — [`model::SequenceModel`]: the assembled iBoxML network
//!   with TBPTT training, teacher-forced (open-loop) and self-fed
//!   (closed-loop) inference.
//! * [`session`] — [`session::InferenceSession`]: the inference path.
//!   Batched multi-stream stepping over struct-of-arrays state planes —
//!   one matmul per layer per packet wave, bitwise identical per stream
//!   to the sequential `predict_*` reference in [`model`].
//! * [`logistic`] — the "lightweight and much faster" linear logistic
//!   regression of §5.1 for reordering prediction.
//! * [`scaler`] — feature/target standardization stored with the model.
//!
//! Everything is deterministic given a seed, and models serialize to JSON.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dense;
pub mod heads;
pub mod init;
pub mod logistic;
pub mod lstm;
pub mod matrix;
pub mod model;
pub mod optim;
pub mod scaler;
pub mod session;

pub use logistic::{Logistic, LogisticConfig};
pub use model::{Prediction, SeqExample, SequenceModel, SequenceModelConfig, TrainConfig};
pub use scaler::StandardScaler;
pub use session::{ClosedLoopStream, InferenceSession};
