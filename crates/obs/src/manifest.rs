//! Run manifests: one JSON document per run capturing *what actually
//! happened* — command, seed, config hash, git revision, wall time, and a
//! full metrics snapshot. Written next to every CLI command's output and
//! embedded in each bench binary's `BENCH_*.json`, so fidelity and
//! performance claims are always traceable to concrete counters.

use std::path::Path;
use std::time::{Instant, SystemTime, UNIX_EPOCH};

use serde::{Deserialize, Serialize};

use crate::metrics::MetricsSnapshot;

/// Manifest schema version; bump on breaking field changes.
pub const MANIFEST_SCHEMA: u32 = 2;

/// FNV-1a over a serialized config: stable, order-sensitive, cheap. Two
/// runs with the same hash ran with byte-identical configuration.
pub fn config_hash<T: Serialize + ?Sized>(config: &T) -> String {
    let json = serde_json::to_string(config).unwrap_or_default();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in json.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x1_0000_0000_01b3);
    }
    format!("fnv1a:{h:016x}")
}

/// Best-effort git revision of the working tree (reads `.git/HEAD` from
/// `dir` upward; no subprocess). `None` outside a git checkout.
pub fn git_rev(dir: &Path) -> Option<String> {
    let mut cur = Some(dir);
    while let Some(d) = cur {
        let git = d.join(".git");
        if git.is_dir() {
            let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
            let head = head.trim();
            return if let Some(refname) = head.strip_prefix("ref: ") {
                match std::fs::read_to_string(git.join(refname)) {
                    Ok(rev) => Some(rev.trim().to_string()),
                    // Packed refs: fall back to naming the branch.
                    Err(_) => Some(refname.to_string()),
                }
            } else {
                Some(head.to_string()) // detached HEAD: a bare rev
            };
        }
        cur = d.parent();
    }
    None
}

/// In-progress manifest: construct at the start of a run, fill in run
/// parameters, then [`finish`](RunManifestBuilder::finish) to stamp the
/// duration and metrics.
pub struct RunManifestBuilder {
    manifest: RunManifest,
    started: Instant,
}

impl RunManifestBuilder {
    /// Start timing a run of `command`.
    pub fn new(command: &str) -> Self {
        let started_unix_ms = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_millis().min(u128::from(u64::MAX)) as u64)
            .unwrap_or(0);
        RunManifestBuilder {
            manifest: RunManifest {
                schema: MANIFEST_SCHEMA,
                command: command.to_string(),
                argv: std::env::args().skip(1).collect(),
                git_rev: git_rev(Path::new(".")),
                seed: None,
                config_hash: None,
                started_unix_ms,
                duration_ms: 0.0,
                metrics: MetricsSnapshot::default(),
            },
            started: Instant::now(),
        }
    }

    /// Record the run's RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.manifest.seed = Some(seed);
        self
    }

    /// Record the hash of the run's configuration ([`config_hash`]).
    pub fn config<T: Serialize + ?Sized>(mut self, config: &T) -> Self {
        self.manifest.config_hash = Some(config_hash(config));
        self
    }

    /// Stamp the wall-clock duration and attach the metrics snapshot.
    pub fn finish(mut self, metrics: MetricsSnapshot) -> RunManifest {
        self.manifest.duration_ms = self.started.elapsed().as_secs_f64() * 1e3;
        self.manifest.metrics = metrics;
        self.manifest
    }
}

/// A completed run manifest (see the module docs for the intent).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunManifest {
    /// Schema version ([`MANIFEST_SCHEMA`]).
    pub schema: u32,
    /// Logical command that ran (e.g. `simulate`, `bench:fig2`).
    pub command: String,
    /// Process arguments (without argv\[0\]).
    pub argv: Vec<String>,
    /// Git revision of the source tree, when detectable.
    pub git_rev: Option<String>,
    /// RNG seed the run used, when seeded.
    pub seed: Option<u64>,
    /// Hash of the run configuration, when provided.
    pub config_hash: Option<String>,
    /// Wall-clock start, milliseconds since the Unix epoch.
    pub started_unix_ms: u64,
    /// Wall-clock duration of the run, milliseconds.
    pub duration_ms: f64,
    /// Full metrics snapshot at the end of the run.
    pub metrics: MetricsSnapshot,
}

impl RunManifest {
    /// Serialize as pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("manifest serialization cannot fail")
    }

    /// Write the manifest to `path` as pretty JSON.
    pub fn write_to(&self, path: &Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_json() + "\n")
    }

    /// Conventional manifest path for an output file: `out.json` →
    /// `out.manifest.json`; extensionless outputs just append.
    pub fn path_for_output(output: &Path) -> std::path::PathBuf {
        match output.extension().and_then(|e| e.to_str()) {
            Some(ext) => output.with_extension(format!("manifest.{ext}")),
            None => {
                let mut name = output.as_os_str().to_os_string();
                name.push(".manifest.json");
                std::path::PathBuf::from(name)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_hash_is_stable_and_discriminating() {
        let a = vec![1u64, 2, 3];
        let b = vec![1u64, 2, 4];
        assert_eq!(config_hash(&a), config_hash(&a));
        assert_ne!(config_hash(&a), config_hash(&b));
        assert!(config_hash(&a).starts_with("fnv1a:"));
    }

    #[test]
    fn builder_roundtrips_through_json() {
        let mut metrics = MetricsSnapshot::default();
        metrics.counters.insert("events".into(), 42);
        let manifest =
            RunManifestBuilder::new("test-cmd").seed(7).config(&vec![1.0f64, 2.0]).finish(metrics);
        assert_eq!(manifest.schema, MANIFEST_SCHEMA);
        assert_eq!(manifest.command, "test-cmd");
        assert_eq!(manifest.seed, Some(7));
        assert!(manifest.config_hash.is_some());
        let back: RunManifest = serde_json::from_str(&manifest.to_json()).unwrap();
        assert_eq!(back, manifest);
    }

    #[test]
    fn manifest_path_sits_next_to_output() {
        assert_eq!(
            RunManifest::path_for_output(Path::new("out/run.json")),
            Path::new("out/run.manifest.json")
        );
        assert_eq!(
            RunManifest::path_for_output(Path::new("results")),
            Path::new("results.manifest.json")
        );
    }

    /// A scratch checkout with the given `.git` files; `git_rev` is asked
    /// from a nested directory so the walk-up is exercised too.
    fn git_rev_in(name: &str, git_files: &[(&str, &str)]) -> Option<String> {
        let root = std::env::temp_dir().join(format!("ibox_gitrev_{}_{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let nested = root.join("crates/obs");
        std::fs::create_dir_all(&nested).unwrap();
        for (rel, content) in git_files {
            let path = root.join(".git").join(rel);
            std::fs::create_dir_all(path.parent().unwrap()).unwrap();
            std::fs::write(path, content).unwrap();
        }
        let rev = git_rev(&nested);
        std::fs::remove_dir_all(&root).unwrap();
        rev
    }

    #[test]
    fn git_rev_resolves_every_head_shape() {
        let sha = "0123456789abcdef0123456789abcdef01234567";
        let sha_line = format!("{sha}\n");
        let head_on_main = ("HEAD", "ref: refs/heads/main\n");
        let loose = [head_on_main, ("refs/heads/main", &sha_line)];
        assert_eq!(git_rev_in("loose", &loose).as_deref(), Some(sha));
        // Only packed refs: the branch name stands in for the revision.
        let packed_refs = format!("{sha} refs/heads/main\n");
        let packed = [head_on_main, ("packed-refs", &packed_refs)];
        assert_eq!(git_rev_in("packed", &packed).as_deref(), Some("refs/heads/main"));
        assert_eq!(git_rev_in("detached", &[("HEAD", &sha_line)]).as_deref(), Some(sha));
        assert_eq!(git_rev_in("none", &[]), None);
    }
}
