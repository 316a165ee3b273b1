//! Content-addressed fit cache: never fit the same model twice.
//!
//! The key is a fit's full provenance — `trace digest × model kind ×
//! config hash × fit seed` — so a hit only ever returns what the miss
//! would have produced. A value passes through its serialized form once,
//! on the way in, and is then held decoded: a miss, a disk hit and a
//! memory hit (a clone, not a parse) all return that form as it reads
//! back. A fitted model's form is its artifact envelope
//! ([`crate::artifact`]), so a cached model replays byte-identically to a
//! saved-then-loaded one.
//!
//! Lookups are **single-flight** per key: when pool workers race on one
//! key, one computes and the rest block on its cell, so `fitcache.hit` /
//! `fitcache.miss` are deterministic at any `--jobs` (n requests for one
//! key ⇒ 1 miss, n−1 hits), as the batch layer's contract requires.
//!
//! With a directory (`--model-cache <dir>`) each entry is one file,
//! written atomically. A fitted model is the envelope `ModelRegistry::put`
//! writes for the same id ([`ModelArtifact::registry_path`]), so
//! `ibox batch` and `ibox serve` on one directory share each fit through
//! one file; a validity region is its bare JSON at `<id>.json`. A disk hit
//! counts `fitcache.disk_hit`; an entry that does not load (torn, damaged,
//! or of a newer schema) counts `fitcache.corrupt`, is refitted and
//! overwritten.

use std::any::Any;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

use serde::{Deserialize, Serialize};

use ibox_runner::ModelKind;
use ibox_trace::FlowTrace;

use crate::artifact::ModelArtifact;
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

/// A filled cell: the value decoded from its serialized form as a
/// `Result<T, String>` (the error when that form does not read back),
/// charged at that form's length.
struct Stored {
    value: Box<dyn Any + Send + Sync>,
    bytes: u64,
}

/// Per-key cell. `OnceLock` gives the single-flight behaviour —
/// concurrent `get_or_init` callers block until the first finishes.
type Cell = Arc<OnceLock<Stored>>;

/// A cell plus its recency stamp (a monotone tick, not wall time, so
/// eviction order is deterministic).
struct Slot {
    cell: Cell,
    last_use: u64,
}

/// The guarded interior: the key map plus the recency clock.
#[derive(Default)]
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
/// By default the in-memory map is unbounded: batch sweeps rely on every
/// fit staying warm, and an eviction there would be a refit that moves the
/// `fitcache.miss` counts. [`FitCache::with_byte_cap`] bounds it by the
/// serialized length of its entries, evicting least-recently-used
/// *completed* entries (counter `fitcache.evicted`).
pub struct FitCache {
    entries: Mutex<Entries>,
    dir: Option<PathBuf>,
    byte_cap: u64,
}

impl FitCache {
    /// A process-local cache with no disk backing.
    pub fn in_memory() -> Self {
        Self { entries: Mutex::default(), dir: None, byte_cap: u64::MAX }
    }

    /// A cache backed by `dir` (created if missing): entries persist
    /// across processes as one JSON file per key.
    pub fn with_dir(dir: impl Into<PathBuf>) -> Result<Self, String> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create model cache dir {}: {e}", dir.display()))?;
        Ok(Self { dir: Some(dir), ..Self::in_memory() })
    }

    /// Bound the in-memory map to `cap` bytes of serialized entries (LRU
    /// eviction, builder-style).
    pub fn with_byte_cap(mut self, cap: u64) -> Self {
        self.byte_cap = cap;
        self
    }

    /// Look up `id`, computing (and storing) the value on a miss. The
    /// value round-trips through its serde JSON form even on the fill
    /// path, so a miss returns exactly what later hits will return.
    pub fn get_or_insert_with<T, F>(&self, id: &str, make: F) -> Result<T, String>
    where
        T: Serialize + Deserialize + Clone + Send + Sync + 'static,
        F: FnOnce() -> T,
    {
        let path = |dir: &Path, id: &str| dir.join(format!("{id}.json"));
        self.fill(id, path, |text, _| serde_json::from_str(text).map_err(|e| e.to_string()), make)
    }

    /// The one lookup: a memory hit clones the decoded value; otherwise
    /// the cell is filled from the entry's file under the cache dir, at
    /// `path(dir, id)` (a disk hit), or by `make`, whose value is
    /// serialized, written there and read back. `decode` reads that form
    /// (`origin` names it in errors).
    fn fill<T>(
        &self,
        id: &str,
        path: fn(&Path, &str) -> PathBuf,
        decode: fn(&str, &Path) -> Result<T, String>,
        make: impl FnOnce() -> T,
    ) -> Result<T, String>
    where
        T: Serialize + Clone + Send + Sync + 'static,
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
            let path = self.dir.as_deref().map(|dir| path(dir, id));
            let origin = path.clone().unwrap_or_else(|| id.into());
            if let Some(text) = path.as_ref().and_then(|p| std::fs::read_to_string(p).ok()) {
                // Only an entry that reads back may fill the cell: a bad
                // one would fail every later request for this key.
                match decode(&text, &origin) {
                    Ok(value) => {
                        ibox_obs::global().counter("fitcache.disk_hit").inc();
                        let value = Box::new(Ok::<T, String>(value));
                        return Stored { value, bytes: text.len() as u64 };
                    }
                    Err(e) => {
                        ibox_obs::global().counter("fitcache.corrupt").inc();
                        ibox_obs::warn!("fit cache: entry {id} does not load ({e}); refitting");
                    }
                }
            }
            ibox_obs::global().counter("fitcache.miss").inc();
            let text = serde_json::to_string(&make()).expect("cache value serialization");
            if let Some(path) = &path {
                if let Err(e) = crate::artifact::write_atomic(path, text.as_bytes()) {
                    ibox_obs::warn!("fit cache: cannot persist {}: {e}", path.display());
                }
            }
            let read_back = decode(&text, &origin);
            let value = Box::new(read_back.map_err(|e| format!("corrupt cache entry {id}: {e}")));
            Stored { value, bytes: text.len() as u64 }
        });
        if !filled_here {
            ibox_obs::global().counter("fitcache.hit").inc();
        }
        let value = match stored.value.downcast_ref::<Result<T, String>>() {
            Some(value) => value.clone(),
            None => Err(format!("cache entry {id} holds a value of another type")),
        };
        drop(cell); // release our handle so this entry is evictable below
        self.enforce_cap();
        value
    }

    /// Drop least-recently-used entries until the serialized bytes of the
    /// completed ones fit the cap. Only completed cells nobody else holds
    /// are candidates: an in-flight fill (or a cell another thread is about
    /// to wait on) has `strong_count > 1` and is skipped, so single-flight
    /// and the deterministic hit/miss counts survive bounding.
    fn enforce_cap(&self) {
        if self.byte_cap == u64::MAX {
            return;
        }
        let mut entries = relock(&self.entries);
        let mut total: u64 =
            entries.map.values().filter_map(|s| s.cell.get()).map(|s| s.bytes).sum();
        while total > self.byte_cap {
            let victim = entries
                .map
                .iter()
                .filter(|(_, s)| Arc::strong_count(&s.cell) == 1)
                .filter_map(|(k, s)| Some((s.last_use, k, s.cell.get()?.bytes)))
                .min()
                .map(|(_, k, bytes)| (k.clone(), bytes));
            let Some((key, bytes)) = victim else { break };
            entries.map.remove(&key);
            total -= bytes;
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
    /// one identity — and, with a cache dir, one file.
    pub fn fit_path_model_keyed(
        &self,
        kind: &ModelKind,
        train: &FlowTrace,
    ) -> (FitCacheKey, FittedModel) {
        let _span = ibox_obs::span!("fit-cache");
        let key = FitCacheKey::for_fit(kind, train);
        let decode = |text: &str, origin: &Path| {
            ModelArtifact::parse(text, origin).map_err(|e| e.to_string())
        };
        let make = || ModelArtifact::new(kind, fit_model(kind, train));
        let artifact = self
            .fill(&key.id(), ModelArtifact::registry_path, decode, make)
            .expect("a fitted model round-trips through its own envelope");
        (key, artifact.model)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::PathModel;
    use ibox_sim::SimTime;

    /// Number of in-memory entries.
    fn held(cache: &FitCache) -> usize {
        relock(&cache.entries).map.len()
    }

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
        assert_eq!(held(&cache), 3);
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
        let entry = ModelArtifact::registry_path(&dir, &key.id());
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

    /// A byte-capped cache evicts the least-recently-used entry (and only
    /// that one), counts it, and refills on the next request.
    #[test]
    fn bounded_cache_evicts_lru_and_counts() {
        let cache = FitCache::in_memory().with_byte_cap(2); // two 1-byte values
        let scope = ibox_obs::scoped();
        let get = |id: &str| cache.get_or_insert_with(id, || 1u64).unwrap();
        get("a");
        get("b");
        get("a"); // refresh a: b is now the LRU
        get("c"); // over cap: b evicted
        assert_eq!(held(&cache), 2);
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
        // Room for either envelope, not for both.
        let size = |kind: &ModelKind| ModelArtifact::new(kind, fit_model(kind, &t)).to_json().len();
        let cap = size(&ModelKind::IBoxNet).max(size(&ModelKind::StatisticalLoss));
        let cache = FitCache::in_memory().with_byte_cap(cap as u64);
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
        assert_eq!(held(&cache), 1);
    }

    /// An unbounded cache (the default) never evicts.
    #[test]
    fn unbounded_cache_never_evicts() {
        let cache = FitCache::in_memory();
        let scope = ibox_obs::scoped();
        for i in 0..64 {
            cache.get_or_insert_with(&format!("k{i}"), || i as u64).unwrap();
        }
        assert_eq!(held(&cache), 64);
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
