//! Content-addressed fit cache: never fit the same model twice.
//!
//! The cache key is the full provenance of a fit —
//! `trace digest × model kind × config hash × fit seed` — so a hit can
//! only ever return the model the miss would have produced. Every value
//! passes through its serialized form (the same JSON the artifact
//! envelope embeds) once, on the way in, and is then held decoded: a
//! miss, a disk hit and a memory hit all return the value as that JSON
//! reads back, so a cache hit is behaviourally identical to a
//! saved-then-loaded artifact and the byte-identical-replay guarantee of
//! [`crate::artifact`] covers cached models for free. A memory hit is a
//! clone, not a parse.
//!
//! Concurrency: lookups are **single-flight** per key. When several pool
//! workers race on the same key, exactly one computes while the rest
//! block on the key's cell — so the `fitcache.hit` / `fitcache.miss`
//! counters are deterministic at any `--jobs` value (n requests for one
//! key ⇒ 1 miss, n−1 hits), preserving the batch layer's
//! metrics-identical-at-any-parallelism contract.
//!
//! An optional on-disk directory persists entries across processes
//! (`--model-cache <dir>`): each entry is one JSON file named by the
//! key's digest, written atomically. Disk hits count as
//! `fitcache.disk_hit`; an entry that does not parse (a file torn by a
//! crash of an older build, or damaged since) counts `fitcache.corrupt`,
//! is refitted like a miss and overwritten.

use std::any::Any;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

use serde::{Deserialize, Serialize};

use ibox_runner::ModelKind;
use ibox_trace::FlowTrace;

use crate::model::{fit_model, FittedModel};

/// The full provenance of one fit — everything that can change its result.
///
/// Replay-time options are deliberately **not** part of the key: the
/// `fidelity` knob (packet/flow/hybrid) selects the *replay engine*, not
/// the fit, so one fitted model serves every fidelity level (see
/// `runs_share_one_fit_across_fidelity_levels`). If a future option ever
/// changes fitted state, it must be folded into `config_hash`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FitCacheKey {
    /// Content digest of the training trace ([`FlowTrace::digest`]).
    pub trace_digest: String,
    /// Model-kind display name.
    pub kind: String,
    /// `ibox_obs::config_hash` of the full [`ModelKind`] (covers the
    /// IBoxMl hyperparameters; constant per unit variant).
    pub config_hash: String,
    /// Seed consumed by the fit ([`ModelKind::fit_seed`]).
    pub fit_seed: u64,
}

impl FitCacheKey {
    /// Key for fitting `kind` on `train`.
    pub fn for_fit(kind: &ModelKind, train: &FlowTrace) -> Self {
        Self {
            trace_digest: train.digest(),
            kind: kind.name().to_string(),
            config_hash: ibox_obs::config_hash(kind),
            fit_seed: kind.fit_seed(),
        }
    }

    /// Filename-safe identity: FNV-1a over the four components.
    pub fn id(&self) -> String {
        const PRIME: u64 = 0x1_0000_0000_01b3;
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for part in [
            self.trace_digest.as_bytes(),
            self.kind.as_bytes(),
            self.config_hash.as_bytes(),
            &self.fit_seed.to_le_bytes(),
        ] {
            // Separator byte between parts so ("ab","c") ≠ ("a","bc").
            for &b in part.iter().chain(std::iter::once(&0xFFu8)) {
                h ^= u64::from(b);
                h = h.wrapping_mul(PRIME);
            }
        }
        format!("fit-{h:016x}")
    }
}

/// Per-key cell: holds the value once computed, decoded from its JSON form
/// as a `Result<T, String>` (the error when that form does not read back).
/// `OnceLock` gives the single-flight behaviour — concurrent `get_or_init`
/// callers block until the first finishes.
type Cell = Arc<OnceLock<Arc<dyn Any + Send + Sync>>>;

/// A cell plus its recency stamp (a monotone tick, not wall time, so
/// eviction order is deterministic).
struct Slot {
    cell: Cell,
    last_use: u64,
}

/// The guarded interior: the key map plus the recency clock.
struct Entries {
    map: HashMap<String, Slot>,
    tick: u64,
}

/// Lock the entry map, tolerating poison: every critical section leaves
/// it valid, so a panicking fit cannot brick the cache.
fn relock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

/// A content-addressed cache of fitted models (and other fit-shaped
/// results, e.g. validity regions), in memory with optional disk backing.
///
/// Capacity: by default the in-memory map is unbounded (matching the
/// historical behaviour — batch sweeps rely on every fit staying warm).
/// [`FitCache::with_max_entries`] bounds it with an LRU discipline:
/// once the map exceeds the cap, the least-recently-used *completed*
/// entry is dropped (in-flight fills and cells other threads still hold
/// are never evicted, preserving single-flight). Evictions increment
/// `fitcache.evicted`; a disk-backed cache refills evicted entries from
/// disk, so eviction costs a `fitcache.disk_hit`, not a refit.
pub struct FitCache {
    entries: Mutex<Entries>,
    dir: Option<PathBuf>,
    max_entries: usize,
}

impl FitCache {
    /// A process-local cache with no disk backing.
    pub fn in_memory() -> Self {
        Self {
            entries: Mutex::new(Entries { map: HashMap::new(), tick: 0 }),
            dir: None,
            max_entries: usize::MAX,
        }
    }

    /// A cache backed by `dir` (created if missing): entries persist
    /// across processes as one JSON file per key.
    pub fn with_dir(dir: impl Into<PathBuf>) -> Result<Self, String> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create model cache dir {}: {e}", dir.display()))?;
        Ok(Self {
            entries: Mutex::new(Entries { map: HashMap::new(), tick: 0 }),
            dir: Some(dir),
            max_entries: usize::MAX,
        })
    }

    /// Bound the in-memory map to at most `cap` entries (LRU eviction,
    /// builder-style). `0` is treated as `1` — a cache that can hold
    /// nothing cannot satisfy single-flight.
    pub fn with_max_entries(mut self, cap: usize) -> Self {
        self.max_entries = cap.max(1);
        self
    }

    /// The configured entry cap (`usize::MAX` when unbounded).
    pub fn max_entries(&self) -> usize {
        self.max_entries
    }

    /// Number of in-memory entries (testing/introspection).
    pub fn len(&self) -> usize {
        relock(&self.entries).map.len()
    }

    /// Whether the in-memory cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Look up `id`, computing (and storing) the value on a miss. The
    /// value round-trips through its serde JSON form even on the fill
    /// path, so a miss returns exactly what later hits will return.
    pub fn get_or_insert_with<T, F>(&self, id: &str, make: F) -> Result<T, String>
    where
        T: Serialize + Deserialize + Clone + Send + Sync + 'static,
        F: FnOnce() -> T,
    {
        let cell: Cell = {
            let mut entries = relock(&self.entries);
            entries.tick += 1;
            let tick = entries.tick;
            let slot = entries
                .map
                .entry(id.to_string())
                .or_insert_with(|| Slot { cell: Cell::default(), last_use: 0 });
            slot.last_use = tick;
            Arc::clone(&slot.cell)
        };
        let mut filled_here = false;
        let stored = cell.get_or_init(|| {
            filled_here = true;
            if let Some(text) = self.read_disk(id) {
                // Only an entry that parses may fill the cell: a bad one
                // would fail every later request for this key.
                match serde_json::from_str::<T>(&text) {
                    Ok(value) => {
                        ibox_obs::global().counter("fitcache.disk_hit").inc();
                        return Arc::new(Ok::<T, String>(value));
                    }
                    Err(e) => {
                        ibox_obs::global().counter("fitcache.corrupt").inc();
                        ibox_obs::warn!("fit cache: entry {id} does not parse ({e}); refitting");
                    }
                }
            }
            ibox_obs::global().counter("fitcache.miss").inc();
            let value = make();
            let text = serde_json::to_string(&value).expect("cache value serialization");
            self.write_disk(id, &text);
            let read_back = serde_json::from_str::<T>(&text);
            Arc::new(read_back.map_err(|e| format!("corrupt cache entry {id}: {e}")))
        });
        if !filled_here {
            ibox_obs::global().counter("fitcache.hit").inc();
        }
        let value = match stored.downcast_ref::<Result<T, String>>() {
            Some(value) => value.clone(),
            None => Err(format!("cache entry {id} holds a value of another type")),
        };
        drop(cell); // release our handle so this entry is evictable below
        self.enforce_cap();
        value
    }

    /// Drop least-recently-used entries until the map fits the cap.
    /// Only *completed* cells nobody else holds are candidates: an
    /// in-flight fill (or a cell another thread is about to wait on) has
    /// `strong_count > 1` and is skipped, so single-flight and the
    /// deterministic hit/miss counts survive bounding.
    fn enforce_cap(&self) {
        if self.max_entries == usize::MAX {
            return;
        }
        let mut entries = relock(&self.entries);
        while entries.map.len() > self.max_entries {
            let victim = entries
                .map
                .iter()
                .filter(|(_, s)| s.cell.get().is_some() && Arc::strong_count(&s.cell) == 1)
                .min_by_key(|(_, s)| s.last_use)
                .map(|(k, _)| k.clone());
            let Some(key) = victim else { break };
            entries.map.remove(&key);
            ibox_obs::global().counter("fitcache.evicted").inc();
        }
    }

    /// Fit `kind` on `train` through the cache: at most one
    /// [`fit_model`] call per distinct [`FitCacheKey`], in this process
    /// and (with a cache dir) across processes.
    pub fn fit_path_model(&self, kind: &ModelKind, train: &FlowTrace) -> FittedModel {
        self.fit_path_model_keyed(kind, train).1
    }

    /// [`fit_path_model`], also returning the content-addressed key. The
    /// serving layer names registry artifacts by `key.id()`, so a model
    /// fitted over HTTP and one fitted by the CLI on the same trace share
    /// one identity.
    pub fn fit_path_model_keyed(
        &self,
        kind: &ModelKind,
        train: &FlowTrace,
    ) -> (FitCacheKey, FittedModel) {
        let _span = ibox_obs::span!("fit-cache");
        let key = FitCacheKey::for_fit(kind, train);
        let model = self
            .get_or_insert_with(&key.id(), || fit_model(kind, train))
            .expect("FittedModel round-trips through its own serde form");
        (key, model)
    }

    /// The on-disk directory backing this cache, if one was configured.
    pub fn dir(&self) -> Option<&std::path::Path> {
        self.dir.as_deref()
    }

    fn entry_path(&self, id: &str) -> Option<PathBuf> {
        self.dir.as_ref().map(|d| d.join(format!("{id}.json")))
    }

    fn read_disk(&self, id: &str) -> Option<String> {
        std::fs::read_to_string(self.entry_path(id)?).ok()
    }

    fn write_disk(&self, id: &str, text: &str) {
        let Some(path) = self.entry_path(id) else { return };
        if let Err(e) = crate::artifact::write_atomic(&path, text.as_bytes()) {
            ibox_obs::warn!("fit cache: cannot persist {}: {e}", path.display());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::PathModel;
    use ibox_sim::SimTime;

    fn train(seed: u64) -> FlowTrace {
        ibox_testbed::run_protocol(
            &ibox_testbed::Profile::Ethernet
                .builder()
                .seed(seed)
                .duration(SimTime::from_secs(3))
                .sample(),
            "cubic",
            SimTime::from_secs(3),
            seed,
        )
    }

    #[test]
    fn repeated_fits_hit_the_cache_and_replay_identically() {
        let t = train(4);
        let cache = FitCache::in_memory();
        let scope = ibox_obs::scoped();
        let a = cache.fit_path_model(&ModelKind::IBoxNet, &t);
        let b = cache.fit_path_model(&ModelKind::IBoxNet, &t);
        let metrics = scope.finish().snapshot();
        assert_eq!(metrics.counters["fitcache.miss"], 1);
        assert_eq!(metrics.counters["fitcache.hit"], 1);
        assert_eq!(metrics.counters["model.fit"], 1, "second request must not refit");
        assert_eq!(
            a.simulate("vegas", SimTime::from_secs(3), 8),
            b.simulate("vegas", SimTime::from_secs(3), 8),
        );
    }

    #[test]
    fn distinct_kinds_and_traces_miss_separately() {
        let (t1, t2) = (train(4), train(5));
        let cache = FitCache::in_memory();
        let scope = ibox_obs::scoped();
        cache.fit_path_model(&ModelKind::IBoxNet, &t1);
        cache.fit_path_model(&ModelKind::IBoxNetNoCross, &t1);
        cache.fit_path_model(&ModelKind::IBoxNet, &t2);
        let metrics = scope.finish().snapshot();
        assert_eq!(metrics.counters["fitcache.miss"], 3);
        assert!(!metrics.counters.contains_key("fitcache.hit"));
        assert_eq!(cache.len(), 3);
    }

    #[test]
    fn hit_miss_counts_are_deterministic_under_parallel_requests() {
        let t = train(6);
        let count = |jobs: usize| {
            let cache = FitCache::in_memory();
            let scope = ibox_obs::scoped();
            ibox_runner::run_scoped(6, jobs, |_| {
                cache.fit_path_model(&ModelKind::StatisticalLoss, &t);
            });
            scope.finish().snapshot().counters
        };
        let serial = count(1);
        let parallel = count(4);
        assert_eq!(serial, parallel, "single-flight must make counts jobs-invariant");
        assert_eq!(serial["fitcache.miss"], 1);
        assert_eq!(serial["fitcache.hit"], 5);
        assert_eq!(serial["model.fit"], 1);
    }

    #[test]
    fn disk_backed_cache_survives_a_new_instance() {
        let t = train(7);
        let dir = std::env::temp_dir().join(format!("ibox_fitcache_test_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);

        let first = FitCache::with_dir(&dir).unwrap();
        let a = first.fit_path_model(&ModelKind::IBoxNet, &t);

        let second = FitCache::with_dir(&dir).unwrap();
        let scope = ibox_obs::scoped();
        let b = second.fit_path_model(&ModelKind::IBoxNet, &t);
        let metrics = scope.finish().snapshot();
        assert_eq!(metrics.counters["fitcache.disk_hit"], 1);
        assert!(!metrics.counters.contains_key("model.fit"), "disk hit must not refit");
        assert_eq!(
            a.simulate("cubic", SimTime::from_secs(3), 2),
            b.simulate("cubic", SimTime::from_secs(3), 2),
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A torn or damaged entry is a miss that repairs the file — not an
    /// error every later request for the key repeats.
    #[test]
    fn a_corrupt_disk_entry_is_refitted_and_overwritten() {
        let t = train(8);
        let dir = std::env::temp_dir().join(format!("ibox_fitcache_torn_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let key = FitCacheKey::for_fit(&ModelKind::IBoxNet, &t);
        let entry = dir.join(format!("{}.json", key.id()));
        let good = {
            let cache = FitCache::with_dir(&dir).unwrap();
            cache.fit_path_model(&ModelKind::IBoxNet, &t);
            std::fs::read(&entry).unwrap()
        };
        for damaged in [&good[..good.len() / 2], b"not json at all".as_slice(), b"".as_slice()] {
            std::fs::write(&entry, damaged).unwrap();
            let cache = FitCache::with_dir(&dir).unwrap();
            let scope = ibox_obs::scoped();
            let a = cache.fit_path_model(&ModelKind::IBoxNet, &t);
            let b = cache.fit_path_model(&ModelKind::IBoxNet, &t);
            let counters = scope.finish().snapshot().counters;
            assert_eq!(counters["fitcache.corrupt"], 1);
            assert_eq!(counters["fitcache.miss"], 1);
            assert_eq!(counters["model.fit"], 1);
            assert_eq!(counters["fitcache.hit"], 1, "the second call is a hit");
            assert_eq!(serde_json::to_string(&a).unwrap(), serde_json::to_string(&b).unwrap());
            assert_eq!(std::fs::read(&entry).unwrap(), good, "the entry is repaired");
        }
        // And nothing but the entry is left in the directory.
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn runs_share_one_fit_across_fidelity_levels() {
        // `fidelity` is a replay knob: replaying the same fitted model at
        // packet, flow, and hybrid fidelity must reuse one cached fit.
        let t = train(9);
        let cache = FitCache::in_memory();
        let scope = ibox_obs::scoped();
        for fidelity in ibox_runner::Fidelity::ALL {
            let model = cache.fit_path_model(&ModelKind::IBoxNet, &t);
            let opts = crate::ReplayOpts { fidelity, ..Default::default() };
            let trace = model.simulate_with("cubic", SimTime::from_secs(2), 3, opts);
            assert!(trace.len() > 20, "{fidelity}: {} packets", trace.len());
        }
        let metrics = scope.finish().snapshot();
        assert_eq!(metrics.counters["model.fit"], 1, "one fit serves all fidelities");
        assert_eq!(metrics.counters["fitcache.hit"], 2);
    }

    /// Satellite: a bounded cache evicts the least-recently-used entry
    /// (and only that one), counts it, and refills on the next request.
    #[test]
    fn bounded_cache_evicts_lru_and_counts() {
        let cache = FitCache::in_memory().with_max_entries(2);
        let scope = ibox_obs::scoped();
        let get = |id: &str| cache.get_or_insert_with(id, || 1u64).unwrap();
        get("a");
        get("b");
        get("a"); // refresh a: b is now the LRU
        get("c"); // over cap: b evicted
        assert_eq!(cache.len(), 2);
        let metrics = scope.finish().snapshot();
        assert_eq!(metrics.counters["fitcache.evicted"], 1);
        assert_eq!(metrics.counters["fitcache.miss"], 3);

        // `a` survived (hit); `b` was evicted (miss again).
        let scope = ibox_obs::scoped();
        get("a");
        get("b");
        let metrics = scope.finish().snapshot();
        assert_eq!(metrics.counters["fitcache.hit"], 1);
        assert_eq!(metrics.counters["fitcache.miss"], 1);
    }

    /// A value that counts how often it is decoded from JSON.
    #[derive(Debug, Clone, PartialEq)]
    struct Counted(u64);

    static DECODES: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);

    impl Serialize for Counted {
        fn to_value(&self) -> serde::Value {
            self.0.to_value()
        }
    }

    impl Deserialize for Counted {
        fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
            DECODES.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            u64::from_value(v).map(Counted)
        }
    }

    /// The fill decodes the value's JSON once; every memory hit after it
    /// is a clone of that decoded value, not another parse.
    #[test]
    fn memory_hits_clone_the_value_decoded_on_the_fill() {
        let cache = FitCache::in_memory();
        let scope = ibox_obs::scoped();
        let values: Vec<Counted> =
            (0..10).map(|_| cache.get_or_insert_with("k", || Counted(7)).unwrap()).collect();
        let counters = scope.finish().snapshot().counters;
        assert!(values.iter().all(|v| *v == Counted(7)));
        assert_eq!(DECODES.load(std::sync::atomic::Ordering::SeqCst), 1, "one decode, on the fill");
        assert_eq!((counters["fitcache.miss"], counters["fitcache.hit"]), (1, 9));
        let err = cache.get_or_insert_with("k", || 7u32).unwrap_err();
        assert!(err.contains("another type"), "{err}");
    }

    /// A panic while the entry map is locked poisons it; the cache keeps
    /// serving fits, hits and misses alike.
    #[test]
    fn a_poisoned_lock_does_not_brick_the_cache() {
        let t = train(10);
        let cache = FitCache::in_memory().with_max_entries(1);
        let a = cache.fit_path_model(&ModelKind::IBoxNet, &t);
        let poisoner = std::thread::scope(|s| {
            s.spawn(|| {
                let _guard = cache.entries.lock();
                panic!("a fit panicked while holding the cache lock");
            })
            .join()
        });
        assert!(poisoner.is_err() && cache.entries.is_poisoned());
        let scope = ibox_obs::scoped();
        let b = cache.fit_path_model(&ModelKind::IBoxNet, &t);
        cache.fit_path_model(&ModelKind::StatisticalLoss, &t);
        let counters = scope.finish().snapshot().counters;
        assert_eq!(serde_json::to_string(&a).unwrap(), serde_json::to_string(&b).unwrap());
        assert_eq!((counters["fitcache.hit"], counters["fitcache.miss"]), (1, 1));
        assert_eq!(counters["fitcache.evicted"], 1);
        assert_eq!(cache.len(), 1);
    }

    /// An unbounded cache (the default) never evicts.
    #[test]
    fn unbounded_cache_never_evicts() {
        let cache = FitCache::in_memory();
        let scope = ibox_obs::scoped();
        for i in 0..64 {
            cache.get_or_insert_with(&format!("k{i}"), || i as u64).unwrap();
        }
        assert_eq!(cache.len(), 64);
        let metrics = scope.finish().snapshot();
        assert!(!metrics.counters.contains_key("fitcache.evicted"));
    }

    #[test]
    fn key_ids_are_stable_and_component_sensitive() {
        let t = train(4);
        let k1 = FitCacheKey::for_fit(&ModelKind::IBoxNet, &t);
        assert_eq!(k1.id(), FitCacheKey::for_fit(&ModelKind::IBoxNet, &t).id());
        let k2 = FitCacheKey::for_fit(&ModelKind::IBoxNetNoCross, &t);
        assert_ne!(k1.id(), k2.id(), "kind must be part of the key");
        let k3 = FitCacheKey::for_fit(&ModelKind::IBoxNet, &train(5));
        assert_ne!(k1.id(), k3.id(), "trace digest must be part of the key");
        let ml_a = ModelKind::IBoxMl(ibox_runner::IBoxMlSpec::default());
        let ml_b = ModelKind::IBoxMl(ibox_runner::IBoxMlSpec {
            seed: 99,
            ..ibox_runner::IBoxMlSpec::default()
        });
        assert_ne!(
            FitCacheKey::for_fit(&ml_a, &t).id(),
            FitCacheKey::for_fit(&ml_b, &t).id(),
            "config/seed must be part of the key"
        );
    }
}
