//! Content-addressed result store.
//!
//! One file per simulated point, named `<digest>.json` where the digest
//! is [`SimConfig::digest`](noc_sim::SimConfig) over the resolved
//! configuration, run window, and sweep schema. Files hold
//! [`SimResult::to_json_full`] and round-trip bit-exactly through
//! [`SimResult::from_json`], so a cached point is indistinguishable from
//! a freshly computed one. Stores write to a temporary file and rename,
//! so a crash mid-write never leaves a truncated entry — a torn record
//! at worst leaves a `.tmp` file the next `clean` removes.
//!
//! The store path is safe under concurrent writers (multiple sweep
//! threads, racing processes, or the `noc serve` daemon sharing the
//! directory with a batch sweep): every writer stages through its own
//! uniquely named temp file, publication is first-wins, and the
//! directory entry is fsynced so a renamed result survives a crash.

use noc_sim::SimResult;
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// A directory of content-addressed simulation results.
#[derive(Clone, Debug)]
pub struct ResultCache {
    dir: PathBuf,
}

impl ResultCache {
    /// Opens (creating if needed) a cache rooted at `dir`.
    pub fn new(dir: &Path) -> Result<ResultCache, String> {
        fs::create_dir_all(dir)
            .map_err(|e| format!("cache: cannot create {}: {e}", dir.display()))?;
        Ok(ResultCache {
            dir: dir.to_path_buf(),
        })
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The entry path for a digest.
    pub fn path(&self, digest: &str) -> PathBuf {
        self.dir.join(format!("{digest}.json"))
    }

    /// Loads the result stored under `digest`, if present and readable.
    /// A corrupt entry reads as a miss (it will be recomputed and
    /// overwritten), never as an error.
    pub fn load(&self, digest: &str) -> Option<SimResult> {
        let text = fs::read_to_string(self.path(digest)).ok()?;
        SimResult::from_json(&text).ok()
    }

    /// Stores `result` under `digest` atomically (write + fsync + rename)
    /// with **first-wins** semantics under concurrent writers.
    ///
    /// Each writer stages through its own temp file — the name carries
    /// the process id plus a process-wide ticket, so two threads (or two
    /// processes) storing the same digest never interleave writes into a
    /// shared staging file and can never publish a torn entry. If a
    /// complete entry already exists by the time this writer is ready to
    /// publish, its staged copy is discarded: results are
    /// content-addressed, so the first published entry is as good as any
    /// later one. The file data is fsynced before the rename and the
    /// directory entry after it, so a published entry survives a crash —
    /// the durability half of the "journaled ⇒ cached" invariant.
    pub fn store(&self, digest: &str, result: &SimResult) -> Result<(), String> {
        // RELAXED: unique-ticket counter only; nothing is published through it.
        static TICKET: AtomicU64 = AtomicU64::new(0);
        let tmp = self.dir.join(format!(
            ".{digest}.{}-{}.tmp",
            std::process::id(),
            TICKET.fetch_add(1, Ordering::Relaxed)
        ));
        let path = self.path(digest);
        let mut file = fs::File::create(&tmp)
            .map_err(|e| format!("cache: cannot create {}: {e}", tmp.display()))?;
        file.write_all(result.to_json_full().as_bytes())
            .map_err(|e| format!("cache: cannot write {}: {e}", tmp.display()))?;
        file.sync_data()
            .map_err(|e| format!("cache: cannot sync {}: {e}", tmp.display()))?;
        drop(file);
        if path.exists() {
            // First-wins: a concurrent writer already published this
            // digest; keep its entry and drop our staged duplicate.
            let _ = fs::remove_file(&tmp);
            return Ok(());
        }
        fs::rename(&tmp, &path)
            .map_err(|e| format!("cache: cannot rename into {}: {e}", path.display()))?;
        sync_dir(&self.dir)?;
        Ok(())
    }

    /// Whether an entry exists for `digest` (without parsing it).
    pub fn contains(&self, digest: &str) -> bool {
        self.path(digest).exists()
    }

    /// Number of cache entries on disk.
    pub fn len(&self) -> usize {
        self.entries().count()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Removes every cache entry (and stale `.tmp` files), returning the
    /// number of entries removed. Only files this cache wrote —
    /// 32-hex-digit `.json` names — are touched.
    pub fn clear(&self) -> Result<usize, String> {
        let mut removed = 0;
        let victims: Vec<PathBuf> = self.entries().collect();
        for p in victims {
            fs::remove_file(&p)
                .map_err(|e| format!("cache: cannot remove {}: {e}", p.display()))?;
            removed += 1;
        }
        if let Ok(rd) = fs::read_dir(&self.dir) {
            for entry in rd.flatten() {
                let name = entry.file_name();
                let name = name.to_string_lossy();
                if name.starts_with('.') && name.ends_with(".tmp") {
                    let _ = fs::remove_file(entry.path());
                }
            }
        }
        Ok(removed)
    }

    /// Whether `digest` is present *and* parses — used by schedulers that
    /// must not promise a result they cannot later load.
    pub fn contains_valid(&self, digest: &str) -> bool {
        self.load(digest).is_some()
    }

    fn entries(&self) -> impl Iterator<Item = PathBuf> {
        fs::read_dir(&self.dir)
            .into_iter()
            .flatten()
            .flatten()
            .map(|e| e.path())
            .filter(|p| {
                p.file_name()
                    .and_then(|n| n.to_str())
                    .and_then(|n| n.strip_suffix(".json"))
                    .is_some_and(|stem| {
                        stem.len() == 32 && stem.bytes().all(|b| b.is_ascii_hexdigit())
                    })
            })
    }
}

/// Fsyncs a directory so renames and file creations inside it are
/// durable. On a crash without this, a freshly renamed cache entry or a
/// freshly created journal can vanish even though the file data itself
/// was fsynced — the directory entry is its own write.
pub(crate) fn sync_dir(dir: &Path) -> Result<(), String> {
    fs::File::open(dir)
        .and_then(|d| d.sync_all())
        .map_err(|e| format!("cannot fsync directory {}: {e}", dir.display()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_sim::{run_sim_engine, Engine, SimConfig, TopologyKind};
    use std::sync::atomic::AtomicUsize;

    fn tmp_dir(tag: &str) -> PathBuf {
        static N: AtomicUsize = AtomicUsize::new(0);
        let d = std::env::temp_dir().join(format!(
            "noc-cache-test-{}-{tag}-{}",
            std::process::id(),
            // RELAXED: unique-name ticket only; nothing is published.
            N.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn store_load_is_bit_exact() {
        let dir = tmp_dir("roundtrip");
        let cache = ResultCache::new(&dir).unwrap();
        let cfg = SimConfig {
            injection_rate: 0.1,
            ..SimConfig::paper_baseline(TopologyKind::Mesh8x8, 1)
        };
        let r = run_sim_engine(&cfg, 50, 100, Engine::Sequential);
        let d = cfg.digest(50, 100, "test/v1");
        assert!(!cache.contains(&d));
        cache.store(&d, &r).unwrap();
        assert!(cache.contains(&d));
        assert_eq!(cache.len(), 1);
        let loaded = cache.load(&d).expect("entry readable");
        assert_eq!(loaded.to_json_full(), r.to_json_full(), "bit-exact");
        let _ = fs::remove_dir_all(&dir);
    }

    /// Regression for the fixed-tmp-name store race: with a shared
    /// `.{digest}.tmp` staging file, one writer's `fs::write` truncation
    /// could interleave with another's rename of the same path and
    /// publish a torn entry (store returns Ok but an immediate load
    /// misses), or the second rename could fail outright on the vanished
    /// temp file. With per-writer staging names and first-wins publish,
    /// every successful store is immediately loadable, from any number
    /// of concurrent writers.
    #[test]
    fn concurrent_stores_of_one_digest_never_publish_torn_entries() {
        let dir = tmp_dir("race");
        let cache = ResultCache::new(&dir).unwrap();
        // Two genuinely different payloads (different configs) stored
        // under one digest maximize the observable damage of any
        // interleaved write: a mix of the two would fail to parse or
        // fail the round-trip check below.
        let payloads: Vec<SimResult> = [0.05, 0.10]
            .iter()
            .map(|&rate| {
                let cfg = SimConfig {
                    injection_rate: rate,
                    ..SimConfig::paper_baseline(TopologyKind::Mesh8x8, 1)
                };
                run_sim_engine(&cfg, 50, 150, Engine::Sequential)
            })
            .collect();
        let digest = "f00dfacef00dfacef00dfacef00dface";
        let jsons: Vec<String> = payloads.iter().map(SimResult::to_json_full).collect();
        std::thread::scope(|scope| {
            for t in 0..8usize {
                let cache = &cache;
                let payloads = &payloads;
                let jsons = &jsons;
                scope.spawn(move || {
                    for i in 0..25usize {
                        let which = (t + i) % payloads.len();
                        cache.store(digest, &payloads[which]).unwrap();
                        // A store that returned Ok must be immediately
                        // loadable and must round-trip to one of the
                        // exact payloads ever stored — never a torn mix.
                        let loaded = cache
                            .load(digest)
                            .expect("published entry reads back (no torn file)");
                        let text = loaded.to_json_full();
                        assert!(
                            jsons.contains(&text),
                            "loaded entry is a byte-exact stored payload"
                        );
                    }
                });
            }
        });
        assert_eq!(cache.len(), 1, "exactly one published entry");
        let stale: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .flatten()
            .filter(|e| e.file_name().to_string_lossy().ends_with(".tmp"))
            .collect();
        assert!(stale.is_empty(), "no staged temp files leak: {stale:?}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_entries_read_as_misses_and_clear_only_owns() {
        let dir = tmp_dir("corrupt");
        let cache = ResultCache::new(&dir).unwrap();
        let d = "0123456789abcdef0123456789abcdef";
        fs::write(cache.path(d), "{not json").unwrap();
        assert!(cache.load(d).is_none(), "corrupt entry is a miss");
        assert_eq!(cache.len(), 1);
        // A foreign file is neither counted nor cleared.
        fs::write(dir.join("notes.json"), "{}").unwrap();
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.clear().unwrap(), 1);
        assert!(dir.join("notes.json").exists(), "foreign file survives");
        let _ = fs::remove_dir_all(&dir);
    }
}
