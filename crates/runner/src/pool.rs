//! A std-only parallel batch pool with deterministic results and metrics.
//!
//! The unit of work is coarse — one [`RunSpec`](crate::RunSpec)-shaped
//! job is a whole fit/replay taking milliseconds to seconds — so the
//! scheduler can be simple without leaving speedup on the table: workers
//! self-schedule off one shared atomic cursor (a chunked work queue with
//! chunk size 1, the degenerate-but-optimal case for jobs this coarse).
//! No deques, no channels, no unsafe, no dependencies beyond `std`.
//!
//! Determinism contract:
//!
//! 1. Results are returned in submission (index) order, never completion
//!    order.
//! 2. [`run_scoped`] gives every job its own scoped `ibox-obs` registry
//!    (so concurrent jobs never interleave writes into shared metrics)
//!    and folds the per-job registries into the caller's effective
//!    registry in index order after all jobs finish.
//! 3. A panicking job surfaces as a typed [`PoolError`] naming the job
//!    index and carrying the original panic message — never as a
//!    poisoned-mutex panic on the caller thread. When several jobs
//!    panic, the lowest index wins, which is also what the serial path
//!    reports.
//!
//! Together these make a batch's observable output — values, metrics,
//! *and errors* — identical at any `jobs` value, including `jobs = 1`.

use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};

/// A sensible default parallelism: the machine's available cores.
pub fn suggested_jobs() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Resolve a user-facing `jobs` knob: `0` means "auto" (all cores).
fn effective_jobs(jobs: usize, n: usize) -> usize {
    let jobs = if jobs == 0 { suggested_jobs() } else { jobs };
    jobs.min(n).max(1)
}

/// A job submitted to the pool panicked.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoolError {
    /// Index of the panicking job. When several jobs panic in one run,
    /// this is the lowest such index (matching the serial path, which
    /// stops at the first panic).
    pub index: usize,
    /// The original panic payload, stringified.
    pub message: String,
}

impl std::fmt::Display for PoolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "pool job {} panicked: {}", self.index, self.message)
    }
}

impl std::error::Error for PoolError {}

/// Stringify a panic payload (`panic!("...")` carries `&str` or `String`;
/// anything else gets a placeholder).
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "(non-string panic payload)".to_string()
    }
}

/// Lock that shrugs off poisoning: the pool converts job panics into
/// [`PoolError`]s itself, so a poisoned results mutex only means "some
/// worker died mid-store" and the data inside is still per-index sound.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// [`run_indexed`], but a panicking job returns `Err(PoolError)` instead
/// of propagating the panic. All non-panicking jobs still run to
/// completion in the parallel case (workers drain the cursor), but only
/// the lowest panicking index is reported.
pub fn run_indexed_checked<T, F>(n: usize, jobs: usize, f: F) -> Result<Vec<T>, PoolError>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let call = |i: usize| {
        std::panic::catch_unwind(AssertUnwindSafe(|| f(i)))
            .map_err(|payload| PoolError { index: i, message: panic_message(payload) })
    };

    let jobs = effective_jobs(jobs, n);
    if jobs <= 1 {
        return (0..n).map(call).collect();
    }

    let cursor = AtomicUsize::new(0);
    let results: Mutex<Vec<Option<T>>> = Mutex::new((0..n).map(|_| None).collect());
    let failure: Mutex<Option<PoolError>> = Mutex::new(None);
    std::thread::scope(|scope| {
        for _ in 0..jobs {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                match call(i) {
                    Ok(value) => lock(&results)[i] = Some(value),
                    Err(err) => {
                        let mut slot = lock(&failure);
                        if slot.as_ref().is_none_or(|prev| err.index < prev.index) {
                            *slot = Some(err);
                        }
                    }
                }
            });
        }
    });
    if let Some(err) = lock(&failure).take() {
        return Err(err);
    }
    let slots = results.into_inner().unwrap_or_else(|poisoned| poisoned.into_inner());
    Ok(slots.into_iter().map(|v| v.expect("every index executed exactly once")).collect())
}

/// Run `f(0..n)` across up to `jobs` worker threads (`0` = auto) and
/// return the results in index order. With `jobs <= 1` (or `n <= 1`) the
/// closure runs inline on the caller's thread — the serial path is the
/// same code minus the threads, not a separate implementation.
///
/// `f` must be deterministic per index for the batch to be reproducible;
/// derive any RNG from the job's spec, never from shared mutable state.
///
/// If a job panics, the panic resurfaces on the caller thread with the
/// original message plus the job index (see [`run_indexed_checked`] for
/// the non-panicking variant).
pub fn run_indexed<T, F>(n: usize, jobs: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    run_indexed_checked(n, jobs, f).unwrap_or_else(|err| panic!("{err}"))
}

/// [`run_scoped`], but a panicking job returns `Err(PoolError)` instead
/// of propagating the panic. Metrics from jobs that completed before the
/// failure are discarded (nothing is folded on the error path), keeping
/// the caller's registry identical to "the batch never ran".
pub fn run_scoped_checked<T, F>(n: usize, jobs: usize, f: F) -> Result<Vec<T>, PoolError>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    // Trace propagation mirrors the metrics discipline: reserve n child
    // span slots of the caller's active span (None when tracing is off),
    // record each job into a private buffer on its worker thread, and
    // fold the buffers back in index order below — so the span tree is
    // identical at any `jobs` value.
    let link = ibox_obs::trace::link(n);
    let pairs = run_indexed_checked(n, jobs, |i| {
        let scope = ibox_obs::scoped();
        let tracing = link.as_ref().map(|l| l.job_scope(i));
        let value = f(i);
        let events = tracing.map(ibox_obs::trace::JobScope::finish);
        (value, scope.finish(), events)
    })?;
    let target = ibox_obs::global();
    let mut out = Vec::with_capacity(pairs.len());
    for (value, registry, events) in pairs {
        target.absorb(&registry.snapshot());
        if let Some(events) = events {
            ibox_obs::trace::fold(events);
        }
        out.push(value);
    }
    Ok(out)
}

/// [`run_indexed`], with per-job metric isolation: each job records into
/// its own scoped [`ibox_obs::Registry`], and the registries are folded
/// into the caller's effective registry in index order once every job has
/// finished, each by [`ibox_obs::Registry::absorb`] of its snapshot.
/// Counters, spans, and histogram buckets all survive the fold; gauges
/// resolve last-index-wins — exactly what the serial loop did.
pub fn run_scoped<T, F>(n: usize, jobs: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    run_scoped_checked(n, jobs, f).unwrap_or_else(|err| panic!("{err}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Run `body` with the default panic hook silenced, so intentional
    /// job panics don't spray backtraces over the test output. Hook state
    /// is global; the lock keeps the panic tests from trampling each
    /// other.
    fn with_quiet_panics<R>(body: impl FnOnce() -> R) -> R {
        static HOOK: Mutex<()> = Mutex::new(());
        let _guard = lock(&HOOK);
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let out = std::panic::catch_unwind(AssertUnwindSafe(body));
        std::panic::set_hook(prev);
        out.unwrap_or_else(|payload| std::panic::resume_unwind(payload))
    }

    #[test]
    fn results_come_back_in_index_order() {
        // Make late indices finish first: the pool must still reorder.
        let out = run_indexed(32, 4, |i| {
            std::thread::sleep(std::time::Duration::from_micros((32 - i as u64) * 50));
            i * i
        });
        assert_eq!(out, (0..32).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn serial_and_parallel_agree() {
        let f = |i: usize| (i as u64).wrapping_mul(0x9E37_79B9).rotate_left(13);
        assert_eq!(run_indexed(100, 1, f), run_indexed(100, 7, f));
        assert_eq!(run_indexed(0, 4, f), Vec::<u64>::new());
        assert_eq!(run_indexed(1, 4, f), vec![f(0)]);
    }

    #[test]
    fn jobs_zero_means_auto() {
        assert_eq!(effective_jobs(0, 100), suggested_jobs().min(100));
        assert_eq!(effective_jobs(3, 2), 2);
        assert_eq!(effective_jobs(4, 0), 1);
    }

    #[test]
    fn workers_run_concurrently_not_serialized() {
        // Sleep-bound jobs overlap even on a single-core host, so this
        // catches any accidental lock serializing the pool: 4 sleeps of
        // 100 ms at jobs=4 must take ~100 ms, not ~400 ms.
        let watch = ibox_obs::Stopwatch::start();
        run_indexed(4, 4, |_| std::thread::sleep(std::time::Duration::from_millis(100)));
        let wall_ms = watch.elapsed_ms();
        assert!(
            wall_ms < 250.0,
            "4 overlapping 100 ms sleeps took {wall_ms:.0} ms — the pool is serialized"
        );
    }

    #[test]
    fn scoped_metrics_fold_identically_at_any_jobs() {
        let run = |jobs: usize| {
            let scope = ibox_obs::scoped();
            let out = run_scoped(12, jobs, |i| {
                let reg = ibox_obs::global();
                reg.counter("pool.test.jobs_done").inc();
                reg.counter("pool.test.weight").add(i as u64);
                reg.gauge("pool.test.last_index").set(i as f64);
                reg.histogram("pool.test.h").record(i as f64);
                i
            });
            (out, scope.finish().snapshot())
        };
        let (v1, m1) = run(1);
        let (v4, m4) = run(4);
        assert_eq!(v1, v4);
        assert_eq!(m1, m4, "metrics must not depend on the jobs value");
        assert_eq!(m1.counters["pool.test.jobs_done"], 12);
        assert_eq!(m1.counters["pool.test.weight"], 66);
        assert_eq!(m1.gauges["pool.test.last_index"], 11.0);
        assert_eq!(m1.histograms["pool.test.h"].count, 12);
    }

    #[test]
    fn trace_span_trees_fold_identically_at_any_jobs() {
        let run = |jobs: usize| {
            let collector = ibox_obs::TraceCollector::new(4096);
            let trace = 0x7e57 + jobs as u64; // distinct ids, same structure
            {
                let _root =
                    ibox_obs::trace::start_root_in(collector.clone(), trace, "pool-test").unwrap();
                run_scoped(6, jobs, |i| {
                    let _inner = ibox_obs::trace::span("work");
                    i
                });
            }
            let (_, events) = collector.get(trace).unwrap();
            // Strip the trace-dependent ids down to structure: lane,
            // phase, name, and parent-relative shape survive comparison
            // across different trace ids.
            events.iter().map(|e| (e.lane, e.phase.clone(), e.name.clone())).collect::<Vec<_>>()
        };
        assert_eq!(run(1), run(4), "span trees must not depend on the jobs value");
    }

    #[test]
    fn job_panic_surfaces_as_typed_error() {
        let err = with_quiet_panics(|| {
            run_indexed_checked(8, 4, |i| {
                if i == 3 {
                    panic!("boom at {i}");
                }
                i
            })
            .unwrap_err()
        });
        assert_eq!(err.index, 3);
        assert_eq!(err.message, "boom at 3");
        assert!(err.to_string().contains("job 3"), "{err}");
    }

    #[test]
    fn serial_and_parallel_report_the_same_panic_index() {
        let f = |i: usize| -> usize {
            if i == 2 || i == 5 {
                panic!("job {i} died");
            }
            i
        };
        let (serial, parallel) = with_quiet_panics(|| {
            (run_indexed_checked(8, 1, f).unwrap_err(), run_indexed_checked(8, 4, f).unwrap_err())
        });
        assert_eq!(serial.index, 2);
        assert_eq!(serial, parallel, "error must not depend on the jobs value");
    }

    #[test]
    fn run_indexed_repanics_with_the_original_message() {
        // Regression: a job panic used to poison the results mutex and
        // resurface as "PoisonError" — the original message was lost.
        let payload = with_quiet_panics(|| {
            std::panic::catch_unwind(AssertUnwindSafe(|| {
                run_indexed(4, 2, |i| {
                    if i == 1 {
                        panic!("original diagnosis");
                    }
                    i
                })
            }))
            .unwrap_err()
        });
        let message = panic_message(payload);
        assert!(message.contains("original diagnosis"), "lost the real panic: {message}");
        assert!(!message.contains("Poison"), "poisoned-mutex panic leaked through: {message}");
    }

    #[test]
    fn scoped_checked_folds_nothing_on_failure() {
        let scope = ibox_obs::scoped();
        let err = with_quiet_panics(|| {
            run_scoped_checked(4, 2, |i| {
                ibox_obs::global().counter("pool.test.partial").inc();
                if i == 0 {
                    panic!("first job fails");
                }
                i
            })
            .unwrap_err()
        });
        assert_eq!(err.index, 0);
        let snap = scope.finish().snapshot();
        assert!(
            !snap.counters.contains_key("pool.test.partial"),
            "metrics from a failed batch must not leak into the caller's registry"
        );
    }
}
