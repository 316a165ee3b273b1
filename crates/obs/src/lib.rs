//! `ibox-obs`: zero-dependency observability for the iBox workspace.
//!
//! iBox's fidelity claims (paper Figs. 2–8, Table 1) are only as
//! trustworthy as the visibility into what the simulator, estimators, and
//! training loop actually did on each run. This crate provides that
//! substrate, with nothing beyond the workspace's own vendored serde:
//!
//! * [`log`] — leveled diagnostics on stderr, filtered by `IBOX_LOG` or
//!   the CLI's `--verbose`/`--quiet` ([`error!`], [`warn!`], [`info!`],
//!   [`debug!`], [`trace!`]).
//! * [`metrics`] — a [`Registry`] of counters, gauges and log-linear
//!   [`Histogram`]s (16 sub-buckets per octave, p50/p90/p95/p99 within
//!   1/16 relative); a snapshot carries every metric in full, and
//!   [`Registry::absorb`] is the one fold of a snapshot into a registry.
//! * span timers — `let _g = span!("estimate.crosstraffic");` records its
//!   wall time into the label's histogram of nanoseconds via RAII and,
//!   when a trace is being recorded on the thread, is also a span of that
//!   trace.
//! * [`trace`] — causal per-request tracing: span begin/end events (with
//!   SplitMix64-derived trace/span IDs) land in a fixed-capacity
//!   [`TraceCollector`] ring, exportable as Chrome trace-event JSON; a
//!   no-op branch when sampling is off.
//! * [`manifest`] — a JSON run manifest (seed, config hash, git rev,
//!   duration, metrics snapshot) written next to every command's output.

pub mod log;
pub mod manifest;
pub mod metrics;
pub mod trace;

pub use manifest::{config_hash, git_rev, RunManifest, RunManifestBuilder};
pub use metrics::{
    Counter, Gauge, Histogram, HistogramSnapshot, MetricsSnapshot, Registry, Stopwatch,
};
pub use trace::{TraceCollector, TraceEvent, TraceLink, TracePhase, TraceSummary};

use std::cell::RefCell;
use std::sync::OnceLock;

fn process_global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

thread_local! {
    /// Stack of scoped registries installed on this thread; the top one
    /// shadows the process-wide registry for the duration of its guard.
    static SCOPED: RefCell<Vec<Registry>> = const { RefCell::new(Vec::new()) };
}

/// The effective registry for this thread: the innermost [`scoped`]
/// registry if one is installed, else the process-wide one. Cloning a
/// [`Registry`] shares state, so the returned handle is cheap.
///
/// Scoping is what lets `ibox-runner` capture the metrics of many
/// concurrent runs separately and fold them into the process registry in
/// deterministic spec-index order.
pub fn global() -> Registry {
    SCOPED.with(|s| s.borrow().last().cloned()).unwrap_or_else(|| process_global().clone())
}

/// Guard returned by [`scoped`]: while alive, [`global()`] on this thread
/// resolves to the guard's registry. Dropping the guard uninstalls it
/// *without* folding anything anywhere — call
/// [`finish`](ScopedRegistry::finish) (or keep the registry handle) to
/// collect what was recorded.
#[must_use = "dropping the guard immediately ends the scope"]
pub struct ScopedRegistry {
    registry: Registry,
}

impl ScopedRegistry {
    /// The registry capturing this scope.
    pub fn registry(&self) -> Registry {
        self.registry.clone()
    }

    /// End the scope and return the captured registry.
    pub fn finish(self) -> Registry {
        self.registry()
        // Drop pops the stack.
    }
}

impl Drop for ScopedRegistry {
    fn drop(&mut self) {
        SCOPED.with(|s| {
            s.borrow_mut().pop();
        });
    }
}

/// Install a fresh registry as this thread's [`global()`] until the
/// returned guard is dropped. Scopes nest (innermost wins).
pub fn scoped() -> ScopedRegistry {
    let registry = Registry::new();
    SCOPED.with(|s| s.borrow_mut().push(registry.clone()));
    ScopedRegistry { registry }
}

/// Time a scope: `span!("label")` records its wall time into the label's
/// span histogram in the [`global()`] registry and, when a trace is being
/// recorded on this thread, also records the span's begin/end in it
/// ([`trace::span`]). Bind the result (`let _g = span!(..)`) — the span
/// ends when the guard drops.
#[macro_export]
macro_rules! span {
    ($label:expr) => {
        $crate::trace::span($label)
    };
}

#[cfg(test)]
mod tests {
    #[test]
    fn global_registry_is_shared_and_span_macro_records() {
        let c = crate::global().counter("lib.test.counter");
        c.add(2);
        assert_eq!(crate::global().counter("lib.test.counter").get(), 2);

        // A scoped registry shadows the process one on this thread…
        {
            let scope = crate::scoped();
            crate::global().counter("lib.test.counter").add(100);
            assert_eq!(scope.registry().counter("lib.test.counter").get(), 100);
            // …and nested scopes shadow outer ones.
            {
                let inner = crate::scoped();
                crate::global().counter("lib.test.counter").inc();
                assert_eq!(inner.finish().counter("lib.test.counter").get(), 1);
            }
            assert_eq!(scope.registry().counter("lib.test.counter").get(), 100);
        }
        // …without touching the process-wide value.
        assert_eq!(crate::global().counter("lib.test.counter").get(), 2);

        {
            let _g = span!("lib.test.span");
        }
        // A span lands in the registry that is global() where it opened.
        let scope = crate::scoped();
        {
            let _g = span!("scoped");
        }
        let scoped = scope.finish().snapshot();
        assert_eq!(crate::global().snapshot().spans["lib.test.span"].count, 1);
        assert_eq!(scoped.spans["scoped"].count, 1);
        assert!(!crate::global().snapshot().spans.contains_key("scoped"));
    }
}
