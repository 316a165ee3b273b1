//! Streaming trace ingest and online fitting.
//!
//! The paper fits iBox models from a complete, offline corpus; the
//! ROADMAP's north star is a service a fleet of RTC endpoints reports
//! into — live and unbounded. This crate is that plumbing:
//!
//! * [`session`] — chunked ingest sessions: packet-record chunks arrive
//!   (possibly out of order) with monotone record offsets and persist as
//!   frames of one append-only log per session under the artifact
//!   directory. A session's state is a fold over its log — the same fold
//!   live and after a restart — so it survives a crash at any write, and
//!   per-session and global byte budgets bound the logs.
//! * [`estimator`] — [`Watermark`], a session's mid-stream view of
//!   `ibox::estimator`'s `(b, d, B, C)` folds ([`OnlineStaticParams`],
//!   [`OnlineCrossTraffic`]). A one-shot fit runs the same folds over the
//!   whole trace, so a finalize fits to the same bits as the concatenated
//!   trace (proptest-enforced in `tests/props.rs`).
//!
//! The serving layer (`ibox-serve`) wires sessions to
//! `POST /traces/{id}/append` / `finalize` and registers each re-fit as
//! a new artifact *version* with lineage (`parent`, `trace_digest`,
//! `fit_seq`) in the model registry.

pub mod estimator;
pub mod session;

pub use estimator::{OnlineCrossTraffic, OnlineStaticParams, Watermark};
pub use session::{
    AppendOutcome, AppendResult, FinalizeOutput, IngestConfig, IngestError, SessionStatus,
    SessionStore,
};
