//! The model registry: fitted-model artifacts as named, servable files.
//!
//! A [`ModelRegistry`] is a directory of [`ModelArtifact`] envelopes,
//! one `<id>.artifact.json` per model, where `id` is the content-
//! addressed fit-cache identity (`FitCacheKey::id`). The same directory
//! doubles as the `--model-cache` fit cache (whose entries are bare
//! `<id>.json` fitted models, a disjoint namespace), so a daemon and the
//! offline CLI pointed at one directory share both fits and artifacts.
//!
//! Lookups return typed [`RegistryError`]s that carry an HTTP status:
//! a missing model is 404, a schema-skewed artifact (written by an
//! incompatible build) is 409 with both versions named, and a corrupt
//! file is 500 — never a panic, never a misread payload.
//!
//! ## Versioned lineage
//!
//! Streaming ingest re-fits a session's model as chunks arrive; each
//! re-fit is stored via [`ModelRegistry::put_version`] as
//! `<id>-v<fit_seq>.artifact.json` *plus* a latest pointer at the bare
//! `<id>.artifact.json`, so `GET /models/<id>` always serves the newest
//! fit while `GET /models/<id>/versions` walks the lineage. The
//! directory can be capped ([`ModelRegistry::with_byte_cap`]): past the
//! cap, least-recently-used *version* files are evicted (counter
//! `registry.evicted`) — never a latest pointer, never the newest
//! version of a lineage, and never a version currently pinned by a
//! [`PinGuard`] (replays pin the version they resolve to).
//!
//! ## Decoded tier
//!
//! A model is read far more often than it is written, so
//! [`ModelRegistry::get`] hands out an `Arc<ModelArtifact>` decoded once
//! per file: the first request for an id reads and parses the envelope
//! (counter `registry.decode`), later ones share the result (counter
//! `registry.decode_hit`). Each cell remembers the file's stamp — length,
//! mtime and, on unix, inode, from the one `metadata()` call `get` makes
//! anyway — and a changed stamp is decoded afresh, so a second registry on
//! the same directory (the offline CLI, another daemon) stays coherent;
//! `put`, `put_version` and byte-cap eviction drop the cells they outdate.
//! A missing file is still 404 and drops its cell; load errors are
//! returned, never cached. Cells are LRU, charged at the file's length,
//! and hold at most the smaller of the byte cap and `DECODED_CAP_BYTES`
//! (256 MiB).

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::SystemTime;

use serde::{Deserialize, Serialize};

use ibox::{ArtifactError, ModelArtifact, ARTIFACT_FILE_SUFFIX};

/// Why a registry lookup failed; [`RegistryError::status`] maps each
/// case onto the HTTP status the daemon answers with.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegistryError {
    /// `id` contains characters that could escape the registry dir.
    InvalidId(String),
    /// No artifact with this id.
    NotFound(String),
    /// The artifact file exists but failed to load (I/O, parse, or
    /// schema skew — see [`ArtifactError`]).
    Artifact(ArtifactError),
}

impl RegistryError {
    /// The HTTP status this error maps to.
    pub fn status(&self) -> u16 {
        match self {
            RegistryError::InvalidId(_) => 400,
            RegistryError::NotFound(_) => 404,
            RegistryError::Artifact(ArtifactError::SchemaMismatch { .. }) => 409,
            RegistryError::Artifact(_) => 500,
        }
    }
}

impl std::fmt::Display for RegistryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RegistryError::InvalidId(id) => write!(f, "invalid model id {id:?}"),
            RegistryError::NotFound(id) => write!(f, "no model {id:?} in the registry"),
            RegistryError::Artifact(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for RegistryError {}

/// One row of `GET /models`: the envelope minus the model payload.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ModelSummary {
    /// Registry id (the content-addressed fit identity).
    pub id: String,
    /// Model-kind display name.
    pub kind: String,
    /// Name of the trace the model was fitted on.
    pub fitted_on: String,
    /// Config hash of the producing `ModelKind`.
    pub config_hash: String,
    /// Artifact envelope schema version.
    pub schema: u32,
}

/// One row of `GET /models/{id}/versions`: a lineage entry.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VersionSummary {
    /// Full registry id of this version (`<id>-v<fit_seq>`).
    pub version: String,
    /// 1-based fit counter within the lineage.
    pub fit_seq: u64,
    /// The version this fit superseded (`None` for the first fit).
    pub parent: Option<String>,
    /// FNV digest of the trace this version was fitted on.
    pub trace_digest: Option<String>,
    /// Model-kind display name.
    pub kind: String,
}

/// The most artifact bytes the decoded tier holds, whatever the byte cap.
const DECODED_CAP_BYTES: u64 = 256 << 20;

/// What identifies one content of a file without reading it: a rewrite
/// through `ibox::write_atomic` is a new inode, and any other rewrite
/// shows in the length or the mtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Stamp {
    len: u64,
    mtime: Option<SystemTime>,
    inode: u64,
}

impl Stamp {
    fn of(meta: &std::fs::Metadata) -> Self {
        #[cfg(unix)]
        let inode = std::os::unix::fs::MetadataExt::ino(meta);
        #[cfg(not(unix))]
        let inode = 0;
        Self { len: meta.len(), mtime: meta.modified().ok(), inode }
    }
}

/// One id's decoded artifact, filled single-flight: the first caller
/// decodes under `fill` while later ones wait on it and then find `value`
/// set. A failed decode leaves `value` empty, so errors are never cached.
#[derive(Default)]
struct Cell {
    fill: Mutex<()>,
    value: OnceLock<Arc<ModelArtifact>>,
}

/// A cell and the stamp of the file it decodes.
struct Slot {
    stamp: Stamp,
    cell: Arc<Cell>,
}

/// Recency + pin bookkeeping for eviction (in-memory; recency resets on
/// restart, which only makes eviction order start from file order), and
/// the decoded tier, whose LRU order is the same recency.
struct RegState {
    pins: HashMap<String, usize>,
    last_use: HashMap<String, u64>,
    tick: u64,
    decoded: HashMap<String, Slot>,
}

/// Lock, tolerating poison: the registry state, the fit job table and the
/// fit thread list are valid after every statement, so one panicking
/// request cannot brick the registry or `/fit`.
pub(crate) fn relock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

/// Holds a version pinned (un-evictable) for the guard's lifetime —
/// taken by `/replay` so the version it resolved to cannot be evicted
/// out from under the simulation.
pub struct PinGuard<'a> {
    reg: &'a ModelRegistry,
    id: String,
}

impl PinGuard<'_> {
    /// The pinned registry id.
    pub fn id(&self) -> &str {
        &self.id
    }
}

impl Drop for PinGuard<'_> {
    fn drop(&mut self) {
        let mut state = self.reg.state_lock();
        if let Some(n) = state.pins.get_mut(&self.id) {
            *n -= 1;
            if *n == 0 {
                state.pins.remove(&self.id);
            }
        }
    }
}

/// Split `<base>-v<seq>` version ids; `None` for plain ids.
pub fn split_version(id: &str) -> Option<(&str, u64)> {
    let (base, seq) = id.rsplit_once("-v")?;
    if base.is_empty() || seq.is_empty() || !seq.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    seq.parse().ok().map(|n| (base, n))
}

/// A directory of model artifacts, addressed by id.
pub struct ModelRegistry {
    dir: PathBuf,
    byte_cap: u64,
    state: Mutex<RegState>,
}

impl ModelRegistry {
    /// Open (creating if missing) the registry at `dir`. Also compacts:
    /// temp files abandoned by a crashed writer are removed.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self, String> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create model registry dir {}: {e}", dir.display()))?;
        let reg = Self {
            dir,
            byte_cap: u64::MAX,
            state: Mutex::new(RegState {
                pins: HashMap::new(),
                last_use: HashMap::new(),
                tick: 0,
                decoded: HashMap::new(),
            }),
        };
        reg.compact();
        Ok(reg)
    }

    /// Cap the total bytes of artifact envelopes on disk; past the cap,
    /// LRU *version* files are evicted on `put_version`. `0` keeps the
    /// registry unbounded.
    pub fn with_byte_cap(mut self, cap_bytes: u64) -> Self {
        self.byte_cap = if cap_bytes == 0 { u64::MAX } else { cap_bytes };
        self
    }

    fn state_lock(&self) -> MutexGuard<'_, RegState> {
        relock(&self.state)
    }

    fn touch(state: &mut RegState, id: &str) {
        state.tick += 1;
        let tick = state.tick;
        state.last_use.insert(id.to_string(), tick);
    }

    /// Pin `id` against eviction for the guard's lifetime.
    pub fn pin(&self, id: &str) -> PinGuard<'_> {
        *self.state_lock().pins.entry(id.to_string()).or_insert(0) += 1;
        PinGuard { reg: self, id: id.to_string() }
    }

    /// Remove leftovers a crashed writer may have abandoned (the
    /// `.<file>.tmp-*` files of `ibox::write_atomic`). Safe against live
    /// writers in *this* process: writers rename away their temp file
    /// before `compact` could see a stale one for longer than one put.
    pub fn compact(&self) {
        let Ok(entries) = std::fs::read_dir(&self.dir) else { return };
        for entry in entries.flatten() {
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if name.starts_with('.')
                && name.contains(".tmp-")
                && std::fs::remove_file(entry.path()).is_ok()
            {
                ibox_obs::global().counter("registry.compacted").inc();
            }
        }
    }

    /// The backing directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn validate(id: &str) -> Result<(), RegistryError> {
        let ok = !id.is_empty()
            && id.len() <= 128
            && id.bytes().all(|b| b.is_ascii_alphanumeric() || b == b'-' || b == b'_')
            && !id.starts_with('-');
        if ok {
            Ok(())
        } else {
            let shown: String = id.chars().take(64).collect();
            Err(RegistryError::InvalidId(shown))
        }
    }

    fn path_of(&self, id: &str) -> PathBuf {
        ModelArtifact::registry_path(&self.dir, id)
    }

    /// Whether an artifact with this id exists (without loading it).
    pub fn contains(&self, id: &str) -> bool {
        Self::validate(id).is_ok() && self.path_of(id).is_file()
    }

    /// The artifact named `id`, decoded once per file content (see the
    /// module docs' *Decoded tier*).
    pub fn get(&self, id: &str) -> Result<Arc<ModelArtifact>, RegistryError> {
        Self::validate(id)?;
        let path = self.path_of(id);
        let stamp = match std::fs::metadata(&path) {
            Ok(meta) if meta.is_file() => Stamp::of(&meta),
            _ => {
                self.state_lock().decoded.remove(id);
                return Err(RegistryError::NotFound(id.to_string()));
            }
        };
        let cell = {
            let mut state = self.state_lock();
            Self::touch(&mut state, id);
            let slot = state
                .decoded
                .entry(id.to_string())
                .or_insert_with(|| Slot { stamp, cell: Arc::default() });
            if slot.stamp != stamp {
                *slot = Slot { stamp, cell: Arc::default() };
            }
            Arc::clone(&slot.cell)
        };
        let hit = |artifact: &Arc<ModelArtifact>| {
            ibox_obs::global().counter("registry.decode_hit").inc();
            Ok(Arc::clone(artifact))
        };
        if let Some(artifact) = cell.value.get() {
            return hit(artifact);
        }
        let fill = relock(&cell.fill);
        if let Some(artifact) = cell.value.get() {
            return hit(artifact);
        }
        let artifact = Arc::new(ModelArtifact::load(&path).map_err(RegistryError::Artifact)?);
        ibox_obs::global().counter("registry.decode").inc();
        let _ = cell.value.set(Arc::clone(&artifact));
        drop(fill);
        self.enforce_decoded_cap();
        Ok(artifact)
    }

    /// Drop least-recently-used decoded cells until the bytes of the files
    /// they decode fit the smaller of the byte cap and
    /// [`DECODED_CAP_BYTES`]. Only filled cells are charged; a caller
    /// still waiting on a dropped cell gets its value all the same.
    fn enforce_decoded_cap(&self) {
        let cap = self.byte_cap.min(DECODED_CAP_BYTES);
        let mut state = self.state_lock();
        let mut filled: Vec<(u64, String, u64)> = state
            .decoded
            .iter()
            .filter(|(_, slot)| slot.cell.value.get().is_some())
            .map(|(id, slot)| {
                (state.last_use.get(id).copied().unwrap_or(0), id.clone(), slot.stamp.len)
            })
            .collect();
        let mut total: u64 = filled.iter().map(|f| f.2).sum();
        if total <= cap {
            return;
        }
        filled.sort_unstable();
        for (_, id, len) in filled {
            if total <= cap {
                break;
            }
            state.decoded.remove(&id);
            total -= len;
        }
    }

    /// Store `artifact` under `id`, atomically (`ibox::write_atomic`), so a
    /// concurrent [`get`](Self::get) sees either nothing or the complete
    /// file.
    pub fn put(&self, id: &str, artifact: &ModelArtifact) -> Result<(), RegistryError> {
        Self::validate(id)?;
        artifact.save(&self.path_of(id)).map_err(RegistryError::Artifact)?;
        let mut state = self.state_lock();
        state.decoded.remove(id);
        Self::touch(&mut state, id);
        Ok(())
    }

    /// Store one lineage step: the artifact lands at
    /// `<id>-v<fit_seq>.artifact.json` *and* replaces the latest pointer
    /// `<id>.artifact.json`, then the byte cap is enforced. Returns the
    /// version id. The artifact must carry `fit_seq` lineage
    /// ([`ModelArtifact::with_lineage`]).
    pub fn put_version(&self, id: &str, artifact: &ModelArtifact) -> Result<String, RegistryError> {
        Self::validate(id)?;
        let Some(fit_seq) = artifact.fit_seq else {
            return Err(RegistryError::InvalidId(format!("{id} (artifact missing fit_seq)")));
        };
        let version = format!("{id}-v{fit_seq}");
        self.put(&version, artifact)?;
        self.put(id, artifact)?;
        self.enforce_byte_cap();
        Ok(version)
    }

    /// The lineage of `id`, oldest first. `NotFound` only when neither a
    /// latest pointer nor any version exists.
    pub fn versions(&self, id: &str) -> Result<Vec<VersionSummary>, RegistryError> {
        Self::validate(id)?;
        let mut out = Vec::new();
        let Ok(entries) = std::fs::read_dir(&self.dir) else { return Ok(out) };
        let prefix = format!("{id}-v");
        for entry in entries.flatten() {
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            let Some(vid) = name.strip_suffix(ARTIFACT_FILE_SUFFIX) else { continue };
            let Some((base, fit_seq)) = split_version(vid) else { continue };
            if base != id {
                continue;
            }
            debug_assert!(vid.starts_with(&prefix));
            match ModelArtifact::load(&entry.path()) {
                Ok(a) => out.push(VersionSummary {
                    version: vid.to_string(),
                    fit_seq,
                    parent: a.parent,
                    trace_digest: a.trace_digest,
                    kind: a.kind,
                }),
                Err(e) => ibox_obs::warn!("registry: skipping version {name}: {e}"),
            }
        }
        if out.is_empty() && !self.contains(id) {
            return Err(RegistryError::NotFound(id.to_string()));
        }
        out.sort_by_key(|v| v.fit_seq);
        Ok(out)
    }

    /// The newest on-disk version id of `id`, if the lineage has any.
    /// Scans file names only — cheap enough for the replay hot path.
    pub fn latest_version(&self, id: &str) -> Option<String> {
        let entries = std::fs::read_dir(&self.dir).ok()?;
        let mut best: Option<u64> = None;
        for entry in entries.flatten() {
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            let Some(vid) = name.strip_suffix(ARTIFACT_FILE_SUFFIX) else { continue };
            match split_version(vid) {
                Some((base, seq)) if base == id => best = Some(best.unwrap_or(0).max(seq)),
                _ => {}
            }
        }
        best.map(|seq| format!("{id}-v{seq}"))
    }

    /// Total bytes of artifact envelopes on disk.
    pub fn artifact_bytes(&self) -> u64 {
        let Ok(entries) = std::fs::read_dir(&self.dir) else { return 0 };
        entries
            .flatten()
            .filter(|e| e.file_name().to_str().is_some_and(|n| n.ends_with(ARTIFACT_FILE_SUFFIX)))
            .filter_map(|e| e.metadata().ok())
            .map(|m| m.len())
            .sum()
    }

    /// Evict least-recently-used version files until the artifact bytes
    /// fit the cap. Never evicted: latest pointers (bare ids), the
    /// newest version of any lineage, and pinned versions. If nothing
    /// else is evictable the registry is allowed to exceed the cap.
    fn enforce_byte_cap(&self) {
        if self.byte_cap == u64::MAX {
            return;
        }
        let mut total = self.artifact_bytes();
        if total <= self.byte_cap {
            return;
        }
        // Version files on disk, with sizes; newest-of-lineage computed
        // over this scan so it stays correct as files are removed.
        let Ok(entries) = std::fs::read_dir(&self.dir) else { return };
        let mut files: Vec<(String, u64, u64)> = Vec::new(); // (vid, seq, size)
        let mut newest: HashMap<String, u64> = HashMap::new();
        for entry in entries.flatten() {
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            let Some(vid) = name.strip_suffix(ARTIFACT_FILE_SUFFIX) else { continue };
            let Some((base, seq)) = split_version(vid) else { continue };
            let size = entry.metadata().map(|m| m.len()).unwrap_or(0);
            let n = newest.entry(base.to_string()).or_insert(0);
            *n = (*n).max(seq);
            files.push((vid.to_string(), seq, size));
        }
        let mut state = self.state_lock();
        // LRU first; never-used files (tick 0) go before used ones, ties
        // broken by version id for determinism.
        files.sort_by(|a, b| {
            let (ta, tb) = (
                state.last_use.get(&a.0).copied().unwrap_or(0),
                state.last_use.get(&b.0).copied().unwrap_or(0),
            );
            ta.cmp(&tb).then_with(|| a.0.cmp(&b.0))
        });
        for (vid, seq, size) in files {
            if total <= self.byte_cap {
                break;
            }
            let base_newest =
                split_version(&vid).and_then(|(base, _)| newest.get(base)).copied().unwrap_or(0);
            if seq == base_newest || state.pins.contains_key(&vid) {
                continue;
            }
            if std::fs::remove_file(self.path_of(&vid)).is_ok() {
                state.decoded.remove(&vid);
                total = total.saturating_sub(size);
                ibox_obs::global().counter("registry.evicted").inc();
                ibox_obs::info!("registry: evicted version {vid} ({size} bytes)");
            }
        }
    }

    /// Summaries of every loadable artifact, sorted by id. Files that are
    /// not artifact envelopes (e.g. raw fit-cache entries sharing the
    /// directory) are skipped; envelopes that fail to load are skipped
    /// with a warning rather than failing the whole listing.
    pub fn list(&self) -> Vec<ModelSummary> {
        let Ok(entries) = std::fs::read_dir(&self.dir) else { return Vec::new() };
        let mut out = Vec::new();
        for entry in entries.flatten() {
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            let Some(id) = name.strip_suffix(ARTIFACT_FILE_SUFFIX) else { continue };
            if split_version(id).is_some() {
                continue; // lineage entries list under /models/{id}/versions
            }
            match self.get(id) {
                Ok(artifact) => out.push(ModelSummary {
                    id: id.to_string(),
                    kind: artifact.kind.clone(),
                    fitted_on: artifact.fitted_on.clone(),
                    config_hash: artifact.config_hash.clone(),
                    schema: artifact.schema,
                }),
                Err(e) => ibox_obs::warn!("registry: skipping {name}: {e}"),
            }
        }
        out.sort_by(|a, b| a.id.cmp(&b.id));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ibox::ModelKind;
    use ibox_sim::SimTime;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ibox_registry_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn sample() -> ModelArtifact {
        let train = ibox_testbed::run_protocol(
            &ibox_testbed::Profile::Ethernet
                .builder()
                .seed(11)
                .duration(SimTime::from_secs(3))
                .sample(),
            "cubic",
            SimTime::from_secs(3),
            11,
        );
        let kind = ModelKind::IBoxNet;
        ModelArtifact::new(&kind, ibox::fit_model(&kind, &train))
    }

    #[test]
    fn put_get_list_roundtrip() {
        let dir = tmpdir("roundtrip");
        let reg = ModelRegistry::open(&dir).unwrap();
        assert!(reg.list().is_empty());
        let artifact = sample();
        reg.put("fit-0011aabb", &artifact).unwrap();
        assert!(reg.contains("fit-0011aabb"));
        let back = reg.get("fit-0011aabb").unwrap();
        assert_eq!(back.to_json(), artifact.to_json());
        let listed = reg.list();
        assert_eq!(listed.len(), 1);
        assert_eq!(listed[0].id, "fit-0011aabb");
        assert_eq!(listed[0].kind, "iBoxNet");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_and_invalid_ids_map_to_http_statuses() {
        let dir = tmpdir("errors");
        let reg = ModelRegistry::open(&dir).unwrap();
        let missing = reg.get("fit-ffffffffffffffff").unwrap_err();
        assert!(matches!(missing, RegistryError::NotFound(_)));
        assert_eq!(missing.status(), 404);
        for bad in ["", "../escape", "a/b", "x.y", &"a".repeat(200)] {
            let err = reg.get(bad).unwrap_err();
            assert!(matches!(err, RegistryError::InvalidId(_)), "{bad:?}");
            assert_eq!(err.status(), 400);
            assert!(!reg.contains(bad));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn schema_skew_is_a_conflict_and_junk_is_skipped_in_listings() {
        let dir = tmpdir("skew");
        let reg = ModelRegistry::open(&dir).unwrap();
        reg.put("fit-good", &sample()).unwrap();

        let skewed = sample().to_json().replacen(
            &format!("\"schema\":{}", ibox::MODEL_ARTIFACT_SCHEMA),
            "\"schema\":42",
            1,
        );
        std::fs::write(dir.join(format!("fit-skew{ARTIFACT_FILE_SUFFIX}")), skewed).unwrap();
        let err = reg.get("fit-skew").unwrap_err();
        assert_eq!(err.status(), 409, "{err}");
        assert!(err.to_string().contains("42"), "{err}");

        // A raw fit-cache entry in the same dir is not listed as a model.
        std::fs::write(dir.join("fit-cacheentry.json"), "{\"IBoxNet\":{}}").unwrap();
        let ids: Vec<_> = reg.list().into_iter().map(|s| s.id).collect();
        assert_eq!(ids, vec!["fit-good"]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn versioned(seq: u64) -> ModelArtifact {
        let parent = (seq > 1).then(|| format!("sess-v{}", seq - 1));
        sample().with_lineage(parent, "fnv1a:0011223344556677".to_string(), seq)
    }

    #[test]
    fn put_version_builds_lineage_and_latest_pointer() {
        let dir = tmpdir("lineage");
        let reg = ModelRegistry::open(&dir).unwrap();
        for seq in 1..=3 {
            let vid = reg.put_version("sess", &versioned(seq)).unwrap();
            assert_eq!(vid, format!("sess-v{seq}"));
        }
        // Latest pointer serves the newest fit.
        assert_eq!(reg.get("sess").unwrap().fit_seq, Some(3));
        let lineage = reg.versions("sess").unwrap();
        assert_eq!(
            lineage.iter().map(|v| v.version.as_str()).collect::<Vec<_>>(),
            vec!["sess-v1", "sess-v2", "sess-v3"]
        );
        assert_eq!(lineage[0].parent, None);
        assert_eq!(lineage[2].parent.as_deref(), Some("sess-v2"));
        assert_eq!(reg.latest_version("sess").as_deref(), Some("sess-v3"));
        // Version files do not clutter the one-row-per-model listing.
        let ids: Vec<_> = reg.list().into_iter().map(|s| s.id).collect();
        assert_eq!(ids, vec!["sess"]);
        // Unknown lineage is a typed 404; a version id itself resolves.
        assert_eq!(reg.versions("ghost").unwrap_err().status(), 404);
        assert!(reg.get("sess-v2").is_ok());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Acceptance: the byte cap evicts LRU versions, but never a pinned
    /// version, never the newest of a lineage, never the latest pointer.
    #[test]
    fn byte_cap_evicts_lru_versions_but_never_pinned_or_newest() {
        let dir = tmpdir("evict");
        let size = versioned(1).to_json().len() as u64;
        // Room for the latest pointer plus ~2.5 versions.
        let reg = ModelRegistry::open(&dir).unwrap().with_byte_cap(size * 7 / 2);
        for seq in 1..=3 {
            reg.put_version("sess", &versioned(seq)).unwrap();
        }
        // v1 (LRU) was evicted to fit the cap; the rest survive.
        assert!(!reg.contains("sess-v1"), "LRU version must be evicted");
        assert!(reg.contains("sess-v2") && reg.contains("sess-v3") && reg.contains("sess"));
        assert!(reg.artifact_bytes() <= size * 7 / 2);

        let guard = reg.pin("sess-v2");
        reg.put_version("sess", &versioned(4)).unwrap();
        // v2 is pinned: eviction must skip it and take v3 instead.
        assert!(reg.contains("sess-v2"), "pinned version must survive eviction");
        assert!(!reg.contains("sess-v3"));
        assert!(reg.contains("sess-v4"), "newest version is never evicted");
        drop(guard);

        reg.put_version("sess", &versioned(5)).unwrap();
        // Unpinned now: v2 goes first (LRU), newest v5 + pointer stay.
        assert!(!reg.contains("sess-v2"));
        assert!(reg.contains("sess-v5") && reg.contains("sess"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    // The decoded tier, one behaviour per test.

    /// Run `f` and return what it returned, with the `registry.decode` and
    /// `registry.decode_hit` counts it bumped on this thread.
    fn decode_counts<R>(f: impl FnOnce() -> R) -> (R, u64, u64) {
        let scope = ibox_obs::scoped();
        let out = f();
        let counters = scope.finish().snapshot().counters;
        let count = |name: &str| counters.get(name).copied().unwrap_or(0);
        (out, count("registry.decode"), count("registry.decode_hit"))
    }

    fn cached(reg: &ModelRegistry, id: &str) -> bool {
        reg.state_lock().decoded.get(id).is_some_and(|slot| slot.cell.value.get().is_some())
    }

    #[test]
    fn decoded_tier_decodes_a_file_once_for_a_hundred_gets() {
        let dir = tmpdir("decode_once");
        let reg = ModelRegistry::open(&dir).unwrap();
        let artifact = sample();
        reg.put("m", &artifact).unwrap();
        let (got, decodes, hits) =
            decode_counts(|| (0..100).map(|_| reg.get("m").unwrap()).collect::<Vec<_>>());
        assert_eq!((decodes, hits), (1, 99));
        assert!(got.iter().all(|a| Arc::ptr_eq(a, &got[0])), "every get shares one decode");
        assert_eq!(got[0].to_json(), artifact.to_json());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn decoded_tier_decodes_once_when_eight_threads_race_on_a_cold_id() {
        let dir = tmpdir("decode_race");
        let reg = ModelRegistry::open(&dir).unwrap();
        reg.put("m", &sample()).unwrap();
        let start = std::sync::Barrier::new(8);
        let counts: Vec<(u64, u64)> = std::thread::scope(|s| {
            let racers: Vec<_> = (0..8)
                .map(|_| {
                    s.spawn(|| {
                        start.wait();
                        let (got, decodes, hits) = decode_counts(|| reg.get("m"));
                        assert!(got.is_ok());
                        (decodes, hits)
                    })
                })
                .collect();
            racers.into_iter().map(|r| r.join().unwrap()).collect()
        });
        let decodes: u64 = counts.iter().map(|c| c.0).sum();
        let hits: u64 = counts.iter().map(|c| c.1).sum();
        assert_eq!((decodes, hits), (1, 7));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn decoded_tier_serves_the_new_version_after_put_version() {
        let dir = tmpdir("decode_version");
        let reg = ModelRegistry::open(&dir).unwrap();
        reg.put_version("sess", &versioned(1)).unwrap();
        assert_eq!(reg.get("sess").unwrap().fit_seq, Some(1));
        reg.put_version("sess", &versioned(2)).unwrap();
        let (got, decodes, _) = decode_counts(|| reg.get("sess").unwrap());
        assert_eq!((got.fit_seq, decodes), (Some(2), 1));
        assert_eq!(reg.latest_version("sess").as_deref(), Some("sess-v2"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn decoded_tier_sees_a_rewrite_by_a_second_registry() {
        let dir = tmpdir("decode_second");
        let reg = ModelRegistry::open(&dir).unwrap();
        reg.put("m", &versioned(1)).unwrap();
        assert_eq!(reg.get("m").unwrap().fit_seq, Some(1));
        let other = ModelRegistry::open(&dir).unwrap();
        other.put("m", &versioned(2)).unwrap();
        let (got, decodes, hits) = decode_counts(|| reg.get("m").unwrap());
        assert_eq!((got.fit_seq, decodes, hits), (Some(2), 1, 0));
        assert_eq!(got.to_json(), versioned(2).to_json());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn decoded_tier_answers_409_for_a_schema_42_overwrite_and_caches_no_error() {
        let dir = tmpdir("decode_skew");
        let reg = ModelRegistry::open(&dir).unwrap();
        let good = sample().to_json();
        reg.put("m", &sample()).unwrap();
        assert!(reg.get("m").is_ok());
        let marker = format!("\"schema\":{}", ibox::MODEL_ARTIFACT_SCHEMA);
        let skewed = good.replacen(&marker, "\"schema\":42", 1);
        std::fs::write(reg.path_of("m"), skewed).unwrap();
        for _ in 0..2 {
            assert_eq!(reg.get("m").unwrap_err().status(), 409);
        }
        std::fs::write(reg.path_of("m"), &good).unwrap();
        assert_eq!(reg.get("m").unwrap().to_json(), good, "the 409 was not cached");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn decoded_tier_answers_404_for_a_deleted_file_and_drops_its_cell() {
        let dir = tmpdir("decode_deleted");
        let reg = ModelRegistry::open(&dir).unwrap();
        reg.put("m", &sample()).unwrap();
        assert!(reg.get("m").is_ok() && cached(&reg, "m"));
        std::fs::remove_file(reg.path_of("m")).unwrap();
        assert_eq!(reg.get("m").unwrap_err().status(), 404);
        assert!(!reg.state_lock().decoded.contains_key("m"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn decoded_tier_drops_the_cell_of_a_file_the_byte_cap_evicts() {
        let dir = tmpdir("decode_evicted");
        let size = versioned(1).to_json().len() as u64;
        let reg = ModelRegistry::open(&dir).unwrap().with_byte_cap(size * 7 / 2);
        reg.put_version("sess", &versioned(1)).unwrap();
        assert!(reg.get("sess-v1").is_ok() && cached(&reg, "sess-v1"));
        for seq in 2..=3 {
            reg.put_version("sess", &versioned(seq)).unwrap();
        }
        assert!(!reg.contains("sess-v1"), "the LRU version is evicted");
        assert!(!reg.state_lock().decoded.contains_key("sess-v1"));
        assert_eq!(reg.get("sess-v1").unwrap_err().status(), 404);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn decoded_tier_holds_at_most_the_cap_in_lru_order() {
        let dir = tmpdir("decode_lru");
        let artifact = sample();
        let size = artifact.to_json().len() as u64;
        let reg = ModelRegistry::open(&dir).unwrap().with_byte_cap(size * 5 / 2);
        let ids: Vec<String> = (0..5).map(|i| format!("m{i}")).collect();
        for id in &ids {
            reg.put(id, &artifact).unwrap();
        }
        let ((), decodes, _) = decode_counts(|| ids.iter().for_each(|id| drop(reg.get(id))));
        assert_eq!(decodes, 5);
        let held: Vec<&String> = ids.iter().filter(|id| cached(&reg, id)).collect();
        assert_eq!(held, [&ids[3], &ids[4]], "the two most recent fit 2.5 files");
        let (_, decodes, hits) = decode_counts(|| (reg.get("m4"), reg.get("m0")));
        assert_eq!((decodes, hits), (1, 1));
        assert_eq!(reg.state_lock().decoded.len(), 2, "m3 made room for m0");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn open_compacts_stale_tmp_files() {
        let dir = tmpdir("compact");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join(".sess.tmp-99999"), "{}").unwrap();
        let reg = ModelRegistry::open(&dir).unwrap();
        assert!(!dir.join(".sess.tmp-99999").exists(), "open() compacts stale tmp files");
        assert_eq!(reg.artifact_bytes(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
