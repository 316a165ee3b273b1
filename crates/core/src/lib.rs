//! # ibox
//!
//! A from-scratch reproduction of **iBox: Internet in a Box** (Ashok,
//! Duvvuri, Natarajan, Padmanabhan, Sellamanickam, Gehrke — HotNets 2020):
//! data-informed network simulation that turns input-output packet traces
//! into simulation models.
//!
//! ## The two model families
//!
//! * [`IBoxNet`] (§3) — a parameterized single-bottleneck network model
//!   `(b, d, B, C)`. The static parameters come from domain-knowledge
//!   estimators ([`estimator::StaticParams`]); the dynamic cross-traffic
//!   series from queue-dynamics inversion
//!   ([`estimator::CrossTrafficEstimate`], the "three forces"); each is
//!   one O(record) fold, shared with streaming ingest. The fitted
//!   model runs on a NetEm-like path emulator and can host *any*
//!   congestion-control protocol — the counterfactual engine.
//! * [`IBoxMl`] (§4) — a deep LSTM state-space model that learns
//!   `P(delay | packet stream)` end-to-end, with a Gaussian delay head and
//!   a Bernoulli loss head, teacher-forced training and self-fed
//!   (closed-loop) inference. Optionally takes the §3 cross-traffic
//!   estimate as an input feature — the §5.2 melding that mitigates
//!   control-loop bias (Fig. 7, Table 1).
//!
//! ## Melding (§5)
//!
//! * [`meld::discovery`] — SAX + motif "diff" to discover behaviours
//!   missing from the simulator (Fig. 8): reordering shows up as the
//!   symbol `'a'` present in real traces and absent from iBoxNet.
//! * [`meld::reorder`] — LSTM and linear-logistic reordering predictors
//!   that graft the missing behaviour onto iBoxNet output (Fig. 5).
//!
//! ## Evaluation harnesses (§2)
//!
//! * [`abtest::ensemble_test`] — fit per-trace models on protocol A,
//!   replay A and B, KS-compare metric distributions (Figs. 2 & 3).
//! * [`abtest::instance_test`] — per-instance models on a controlled path;
//!   k-means/t-SNE clustering of cross-correlation features (Fig. 4).
//! * [`baseline::StatisticalLossModel`] — the calibrated-emulator
//!   baseline with statistical loss (Fig. 3b).
//!
//! ## §6 open challenges, implemented as extensions
//!
//! * [`validity::ValidityRegion`] — "establishing the limits of model
//!   validity": per-feature training-support envelopes with coverage
//!   scoring of candidate traces.
//! * [`realism::realism_test`] — "test for realism": a discriminator
//!   (logistic over per-window summaries) that tries to tell simulator
//!   output from reality; realism = its failure to do so.
//! * [`adaptive::AdaptiveCross`] — "learning adaptive cross traffic":
//!   express the estimated cross traffic as `n` live TCP Cubic flows via
//!   the fair-share relation, so it reacts to the protocol under test.
//! * [`iboxnet::IBoxNet::fit_with_reordering`] — meld the discovered
//!   reordering behaviour into the *emulator*, not just the output trace.
//!
//! ## Batch execution
//!
//! * [`batch`] — executes typed [`RunSpec`]/[`BatchSpec`] job definitions
//!   (from `ibox-runner`, re-exported here) on a zero-dep thread pool.
//!   Results and folded metrics are bit-identical at any `jobs` value; the
//!   evaluation harnesses above all take a trailing `jobs` and run on the
//!   same pool.
//!
//! ## Model artifacts & fit cache
//!
//! * [`model`] — the [`PathModel`] trait splits *fit* from *replay*:
//!   [`fit_model`] is the single fit entry point, [`FittedModel`] the
//!   serializable sum of every fitted family (including iBoxML's LSTM
//!   weights).
//! * [`artifact`] — versioned JSON envelopes ([`ModelArtifact`]) around
//!   fitted models; a saved-then-loaded model replays byte-identically.
//! * [`replay`] — the one front door: [`ReplayRequest`] owns the defaults,
//!   bounds and recorded-path rule of the five replay options, and every
//!   surface (CLI, HTTP, batch) replays through it.
//! * [`cache`] — the content-addressed [`FitCache`] (trace digest ×
//!   kind × config × seed) with single-flight lookups and
//!   `fitcache.hit`/`miss` obs counters, used by the ensemble harness,
//!   realism/validity extensions, and batch execution.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod abtest;
pub mod adaptive;
pub mod artifact;
pub mod baseline;
pub mod batch;
pub mod cache;
pub mod estimator;
pub mod features;
pub mod iboxml;
pub mod iboxnet;
pub mod meld;
pub mod model;
pub mod realism;
pub mod replay;
pub mod validity;

pub use abtest::{ensemble_test, instance_test, EnsembleReport, InstanceReport, ModelKind};
pub use adaptive::AdaptiveCross;
pub use artifact::{
    write_atomic, ArtifactError, ModelArtifact, ARTIFACT_FILE_SUFFIX, MODEL_ARTIFACT_SCHEMA,
};
pub use baseline::StatisticalLossModel;
pub use batch::{
    execute_run_cached, load_trace, load_training_trace, run_batch_jobs, run_batch_with_cache,
    BatchResult, RunRecord,
};
pub use cache::{FitCache, FitCacheKey};
pub use estimator::{CrossTrafficEstimate, FitError, StaticParams};
pub use iboxml::{IBoxMl, IBoxMlConfig, IBoxMlConfigBuilder};
pub use iboxnet::IBoxNet;
pub use model::{check_fit, fit_model, FittedIBoxMl, FittedModel, PathModel, ReplayOpts};
pub use realism::{realism_of_model, realism_test, RealismReport};
pub use replay::{load_path, ReplayRequest};
pub use validity::{ValidityRegion, ValidityReport};

// The typed batch API, re-exported so downstream users need only `ibox`.
pub use ibox_runner::{
    suggested_jobs, BatchSpec, BatchSpecBuilder, Fidelity, IBoxMlSpec, RunSource, RunSpec,
    RunSpecBuilder,
};
