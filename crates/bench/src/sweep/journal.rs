//! Crash-safe sweep completion journal.
//!
//! An append-only JSONL file: the first line is a header binding the
//! journal to a sweep name, spec digest, and point count; every later
//! line records one completed point. Records are flushed and fsynced as
//! they are appended, so after a crash the journal holds exactly the
//! points whose results were durably cached — a resumed sweep re-runs
//! nothing. A torn final line (the one write a crash can interrupt) is
//! ignored on load.
//!
//! The header validation is strict: resuming a journal whose spec digest
//! does not match the current spec is an error, not a silent partial
//! reuse — results remain shareable through the content-addressed cache
//! regardless, so nothing is lost by refusing.
//!
//! A journal is **single-writer by construction**: [`Journal::open`]
//! takes an advisory `<journal>.lock` file naming the holder's pid, so a
//! second `noc sweep run` (or a sweep racing the `noc serve` daemon)
//! against the same journal fails fast with "already locked by pid N"
//! instead of interleaving appends past the torn-tail tolerance. A lock
//! left behind by `kill -9` is recovered automatically once its pid is
//! gone. Durability is likewise explicit: the parent directory is
//! fsynced after the journal file (and its lock) are created, so a crash
//! cannot erase a journal whose records were already fsynced.

use crate::sweep::cache::sync_dir;
use noc_obs::{JsonValue, JsonWriter};
use std::collections::HashSet;
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// The identity a journal is bound to.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JournalHeader {
    /// Sweep name.
    pub name: String,
    /// Digest of the expanded sweep spec.
    pub spec_digest: String,
    /// Number of points in the sweep.
    pub points: usize,
}

impl JournalHeader {
    fn to_line(&self) -> String {
        JsonWriter::object(|w| {
            w.key("schema").str("noc-sweep-journal/v1");
            w.key("name").str(&self.name);
            w.key("spec_digest").str(&self.spec_digest);
            w.key("points").u64(self.points as u64);
        })
    }

    fn parse(line: &str) -> Option<JournalHeader> {
        let v = JsonValue::parse(line).ok()?;
        if v.str_field("schema").ok()? != "noc-sweep-journal/v1" {
            return None;
        }
        Some(JournalHeader {
            name: v.str_field("name").ok()?.to_string(),
            spec_digest: v.str_field("spec_digest").ok()?.to_string(),
            points: v.u64_field("points").ok()? as usize,
        })
    }
}

/// An exclusive advisory lock on a journal file, held for the lifetime
/// of the owning [`Journal`] and released (the lock file removed) on
/// drop. The lock file sits next to the journal as `<journal>.lock` and
/// holds the owner's pid, so the refusal message can name the writer
/// that is in the way.
#[derive(Debug)]
pub struct JournalLock {
    path: PathBuf,
}

impl JournalLock {
    /// Takes the lock for `journal_path`, recovering locks whose owner
    /// pid no longer exists (a `kill -9`'d sweep or daemon).
    pub fn acquire(journal_path: &Path) -> Result<JournalLock, String> {
        let mut name = journal_path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        name.push_str(".lock");
        let path = journal_path.with_file_name(name);
        // Two attempts: the second runs only after a stale lock (dead
        // owner) was removed, so a live competitor still refuses.
        for _ in 0..2 {
            match OpenOptions::new().write(true).create_new(true).open(&path) {
                Ok(mut f) => {
                    let _ = write!(f, "{}", std::process::id());
                    let _ = f.sync_data();
                    if let Some(parent) = path.parent() {
                        let _ = sync_dir(parent);
                    }
                    return Ok(JournalLock { path });
                }
                Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {
                    match lock_holder(&path) {
                        Some(pid) if pid_alive(pid) => {
                            return Err(format!(
                                "journal: {} is already locked by pid {pid} — another sweep or \
                                 serve daemon is writing it; wait for it to finish (or remove {} \
                                 if that pid is not a noc process)",
                                journal_path.display(),
                                path.display()
                            ));
                        }
                        Some(_) => {
                            // Stale: the owner died without cleanup.
                            let _ = std::fs::remove_file(&path);
                        }
                        None => {
                            // Unreadable or empty: either a writer in the
                            // instant between create and pid write, or the
                            // debris of a crash in that instant. Give the
                            // writer time to identify itself; still-empty
                            // means debris.
                            std::thread::sleep(std::time::Duration::from_millis(50));
                            match lock_holder(&path) {
                                Some(pid) if pid_alive(pid) => {
                                    return Err(format!(
                                        "journal: {} is already locked by pid {pid}",
                                        journal_path.display()
                                    ));
                                }
                                _ => {
                                    let _ = std::fs::remove_file(&path);
                                }
                            }
                        }
                    }
                }
                Err(e) => {
                    return Err(format!(
                        "journal: cannot create lock {}: {e}",
                        path.display()
                    ))
                }
            }
        }
        Err(format!(
            "journal: {} lock contended — retry once the competing writer exits",
            journal_path.display()
        ))
    }
}

impl Drop for JournalLock {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

/// The pid recorded in a lock file, if it parses.
fn lock_holder(path: &Path) -> Option<u32> {
    std::fs::read_to_string(path)
        .ok()
        .and_then(|s| s.trim().parse().ok())
}

/// Whether a pid currently names a live process. On non-Linux hosts this
/// is conservatively `true` (locks are never stolen).
fn pid_alive(pid: u32) -> bool {
    #[cfg(target_os = "linux")]
    {
        Path::new("/proc").join(pid.to_string()).exists()
    }
    #[cfg(not(target_os = "linux"))]
    {
        let _ = pid;
        true
    }
}

/// An open, appendable sweep journal. Holds the advisory lock for its
/// whole lifetime — dropping the journal releases it.
#[derive(Debug)]
pub struct Journal {
    writer: Mutex<BufWriter<File>>,
    path: PathBuf,
    _lock: JournalLock,
}

impl Journal {
    /// Opens the journal at `path`, creating it with `header` if absent.
    /// Returns the journal and the set of point digests already recorded
    /// as complete. An existing journal must carry the same header
    /// (name, spec digest, point count); otherwise this errors with a
    /// hint to `noc sweep clean` or rename the sweep.
    pub fn open(path: &Path, header: &JournalHeader) -> Result<(Journal, HashSet<String>), String> {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)
                .map_err(|e| format!("journal: cannot create {}: {e}", parent.display()))?;
        }
        let lock = JournalLock::acquire(path)?;
        let mut done = HashSet::new();
        let exists = path.exists();
        if exists {
            let text = std::fs::read_to_string(path)
                .map_err(|e| format!("journal: cannot read {}: {e}", path.display()))?;
            let mut lines = text.lines();
            let head = lines
                .next()
                .and_then(JournalHeader::parse)
                .ok_or_else(|| format!("journal: {} has no valid header", path.display()))?;
            if head != *header {
                return Err(format!(
                    "journal: {} was written by a different sweep \
                     (name '{}', spec {}, {} points; current: name '{}', spec {}, {} points) — \
                     run `noc sweep clean` or use a different sweep name",
                    path.display(),
                    head.name,
                    head.spec_digest,
                    head.points,
                    header.name,
                    header.spec_digest,
                    header.points
                ));
            }
            for line in lines {
                // Skip anything unparseable — at most the torn final
                // record of a crashed run; its result is either in the
                // cache (hit) or recomputed (miss), both correct.
                if let Ok(v) = JsonValue::parse(line) {
                    if let Ok(d) = v.str_field("digest") {
                        done.insert(d.to_string());
                    }
                }
            }
        }
        let mut file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| format!("journal: cannot open {}: {e}", path.display()))?;
        if !exists {
            writeln!(file, "{}", header.to_line())
                .map_err(|e| format!("journal: cannot write header: {e}"))?;
            file.sync_data()
                .map_err(|e| format!("journal: cannot sync header: {e}"))?;
            // The file data is durable; make its directory entry durable
            // too, or a crash can erase the whole journal (and with it
            // the record of freshly renamed cache entries).
            if let Some(parent) = path.parent() {
                sync_dir(parent)?;
            }
        }
        Ok((
            Journal {
                writer: Mutex::new(BufWriter::new(file)),
                path: path.to_path_buf(),
                _lock: lock,
            },
            done,
        ))
    }

    /// The journal file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends one completed-point record durably (flush + fsync before
    /// returning). `source` records how the point was satisfied
    /// (`computed` or `cache`).
    pub fn append(
        &self,
        digest: &str,
        label: &str,
        source: &str,
        wall_ms: u64,
    ) -> Result<(), String> {
        let line = JsonWriter::object(|w| {
            w.key("digest").str(digest);
            w.key("label").str(label);
            w.key("source").str(source);
            w.key("wall_ms").u64(wall_ms);
        });
        let mut w = self
            .writer
            .lock()
            .map_err(|_| "journal: writer poisoned".to_string())?;
        writeln!(w, "{line}").map_err(|e| format!("journal: append failed: {e}"))?;
        w.flush()
            .map_err(|e| format!("journal: flush failed: {e}"))?;
        w.get_ref()
            .sync_data()
            .map_err(|e| format!("journal: sync failed: {e}"))?;
        Ok(())
    }
}

/// Reads a journal's header and completed-point count without opening it
/// for writing (used by `noc sweep status`).
pub fn read_status(path: &Path) -> Option<(JournalHeader, usize)> {
    let text = std::fs::read_to_string(path).ok()?;
    let mut lines = text.lines();
    let header = JournalHeader::parse(lines.next()?)?;
    let done = lines.filter(|l| JsonValue::parse(l).is_ok()).count();
    Some((header, done))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn tmp_path(tag: &str) -> PathBuf {
        static N: AtomicUsize = AtomicUsize::new(0);
        std::env::temp_dir().join(format!(
            "noc-journal-test-{}-{tag}-{}.journal",
            std::process::id(),
            // RELAXED: unique-name ticket only; nothing is published.
            N.fetch_add(1, Ordering::Relaxed)
        ))
    }

    fn header() -> JournalHeader {
        JournalHeader {
            name: "t".into(),
            spec_digest: "d".repeat(32),
            points: 3,
        }
    }

    #[test]
    fn append_then_reopen_recovers_done_set() {
        let path = tmp_path("reopen");
        let _ = std::fs::remove_file(&path);
        {
            let (j, done) = Journal::open(&path, &header()).unwrap();
            assert!(done.is_empty());
            j.append("aa", "point a", "computed", 12).unwrap();
            j.append("bb", "point b", "cache", 0).unwrap();
        }
        let (_, done) = Journal::open(&path, &header()).unwrap();
        assert_eq!(done.len(), 2);
        assert!(done.contains("aa") && done.contains("bb"));
        let (head, n) = read_status(&path).unwrap();
        assert_eq!(head, header());
        assert_eq!(n, 2);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_final_line_is_ignored() {
        let path = tmp_path("torn");
        let _ = std::fs::remove_file(&path);
        {
            let (j, _) = Journal::open(&path, &header()).unwrap();
            j.append("aa", "point a", "computed", 1).unwrap();
        }
        // Simulate a crash mid-append: a truncated record with no newline.
        use std::io::Write as _;
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        write!(f, "{{\"digest\":\"cc\",\"lab").unwrap();
        drop(f);
        let (_, done) = Journal::open(&path, &header()).unwrap();
        assert_eq!(done.len(), 1, "torn record does not count as done");
        let _ = std::fs::remove_file(&path);
    }

    /// Regression for concurrent-writer interleaving: nothing used to
    /// stop two `noc sweep run` processes (or a sweep racing the serve
    /// daemon) from appending to one journal. A second open while a
    /// writer holds the journal must now fail fast, naming the holder.
    #[test]
    fn second_writer_is_refused_while_lock_is_held() {
        let path = tmp_path("locked");
        let _ = std::fs::remove_file(&path);
        let (journal, _) = Journal::open(&path, &header()).unwrap();
        let err = Journal::open(&path, &header()).unwrap_err();
        assert!(
            err.contains(&format!("already locked by pid {}", std::process::id())),
            "refusal names the holder: {err}"
        );
        // The refused open must not have damaged the held journal.
        journal.append("aa", "point a", "computed", 1).unwrap();
        drop(journal);
        // Release unlocks: a fresh writer proceeds and sees the record.
        let (_, done) = Journal::open(&path, &header()).unwrap();
        assert_eq!(done.len(), 1);
        let _ = std::fs::remove_file(&path);
    }

    /// A lock whose owner died (`kill -9`) is debris, not a writer: it
    /// is recovered and the journal opens normally.
    #[test]
    fn stale_lock_from_a_dead_pid_is_recovered() {
        let path = tmp_path("stale");
        let _ = std::fs::remove_file(&path);
        let mut name = path.file_name().unwrap().to_string_lossy().into_owned();
        name.push_str(".lock");
        let lock_path = path.with_file_name(name);
        // No real process gets pid 0 on Linux (it is the idle/swapper
        // slot), so this lock's owner is definitionally gone.
        std::fs::write(&lock_path, "0").unwrap();
        let (j, done) = Journal::open(&path, &header()).unwrap();
        assert!(done.is_empty());
        drop(j);
        assert!(!lock_path.exists(), "lock released on drop");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn mismatched_header_is_refused() {
        let path = tmp_path("mismatch");
        let _ = std::fs::remove_file(&path);
        let (_, _) = Journal::open(&path, &header()).unwrap();
        let other = JournalHeader {
            spec_digest: "e".repeat(32),
            ..header()
        };
        let err = Journal::open(&path, &other).unwrap_err();
        assert!(err.contains("different sweep"), "{err}");
        let _ = std::fs::remove_file(&path);
    }
}
