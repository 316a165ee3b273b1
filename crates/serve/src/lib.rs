//! # ibox-serve
//!
//! A zero-dependency model-serving daemon: the online tier over the
//! fit/replay split of `ibox` (the `PathModel` trait, `ModelArtifact`
//! envelopes, and the content-addressed `FitCache`). Where the CLI is
//! one fit or replay per process, the daemon keeps fitted models warm
//! and answers counterfactual queries over HTTP — the "fast query
//! backend" role the paper's counterfactual-testing vision implies.
//!
//! ## Endpoints
//!
//! | Endpoint | Semantics |
//! |---|---|
//! | `POST /fit` | Fit a model on an inline trace or a synth spec. Keyed by the content-addressed fit identity; single-flight through the daemon's in-memory [`ibox::FitCache`]; writes one envelope, `<id>.artifact.json`. Async by default (`202` + job id), synchronous with `"wait": true`. A trace that cannot be fitted (`ibox::FitError`) is a `400`. |
//! | `POST /replay` | Replay a protocol through a registered model. The body is **byte-identical** to what offline `ibox replay` writes. |
//! | `POST /batch` | Run a `BatchSpec` over the runner pool, fitting through the in-memory cache (it writes no file); answers with the jobs-invariant `BatchResult` JSON. |
//! | `POST /traces/<id>/append` | Append one packet-record chunk to a streaming ingest session (creating it on first append). Out-of-order chunks buffer, duplicates are idempotent, budgets answer `413`. Returns the live watermark estimate; at the configured cadence, re-fits and registers a new model version: `<id>-v<seq>.artifact.json` plus the latest pointer `<id>.artifact.json`. |
//! | `POST /traces/<id>/finalize` | Seal a session, fit the concatenated trace (byte-identical to a one-shot `/fit` of the same records), register it as the next lineage version. |
//! | `GET /ingest/sessions` | List ingest sessions (typed `404`s for unknown ids on the singular route). |
//! | `GET /ingest/sessions/<id>` | One session's status: offsets, chunks, bytes, sealed, watermark. |
//! | `GET /models` | List registered artifacts (id, kind, provenance). |
//! | `GET /models/<id>` | Fetch one artifact envelope (the *latest* version for ingest-backed lineages); `202` while its fit is pending, typed `404`/`409`/`500` errors otherwise. |
//! | `GET /models/<id>/versions` | The model's lineage: `fit_seq`, `parent`, `trace_digest` per version. |
//! | `GET /metrics` | Obs registry snapshot as JSON; `?format=prometheus` for text exposition (content type `text/plain; version=0.0.4`). |
//! | `GET /trace/<id>` | One request's causal span tree (see below); `?format=chrome` for Perfetto-loadable Chrome trace-event JSON. |
//! | `GET /traces` | Bounded most-recent-first listing of traces still in the ring. |
//! | `GET /healthz` | Liveness. |
//! | `POST /shutdown` | Begin graceful drain. |
//!
//! ## Tracing
//!
//! Every non-observability request runs under a causal trace
//! ([`ibox_obs::trace`]): a `request.<endpoint>` root span with the
//! fit-cache / model-fit / batch / per-job child spans recorded beneath
//! it, flushed to the process-global bounded ring when the response is
//! written. The trace ID is taken from the `x-ibox-trace-id` header
//! (16-hex-digit, or any token — non-hex IDs hash deterministically) or
//! server-assigned; either way `GET /trace/<same-id>` returns the tree.
//! Set `IBOX_TRACE=off` in the daemon's environment to disable capture.
//!
//! ## Robustness invariants
//!
//! * **Bounded everything**: the accept queue holds at most
//!   `max_inflight` connections (beyond that: `503 Retry-After`,
//!   counter `serve.shed`), background fits are capped, request sizes
//!   are limited ([`HttpLimits`]). Overload degrades into fast
//!   rejections, never unbounded memory or deadlock.
//! * **Typed failure**: hostile bytes become 4xx via [`HttpError`]
//!   (property-tested), schema-skewed artifacts become `409`s via
//!   [`RegistryError`], and a panicking handler becomes a `500` —
//!   the daemon itself never dies on bad input.
//! * **Graceful drain**: shutdown stops the listener, finishes queued
//!   and in-flight requests, and joins background fit threads.
//! * **Determinism**: `/replay` and `/batch` answer with the same bytes
//!   the offline CLI produces, at any worker count.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod http;
pub mod registry;
pub mod routes;
pub mod server;

pub use http::{
    request_url, request_url_with_headers, HttpClient, HttpError, HttpLimits, Request, Response,
};
pub use registry::{
    split_version, ModelRegistry, ModelSummary, PinGuard, RegistryError, VersionSummary,
};
pub use routes::App;
pub use server::{ServeConfig, Server, ServerHandle};
