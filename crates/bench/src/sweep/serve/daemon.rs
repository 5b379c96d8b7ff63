//! The `noc serve` daemon: local TCP front end over the dedup scheduler.
//!
//! One connection carries one request: the client sends a single
//! `noc-serve/v1` JSON line, the daemon streams JSONL back (see
//! `noc_obs::serve` for the wire format) and closes. The accept loop is
//! nonblocking and polls a stop flag, each connection gets its own
//! handler thread, and all simulation happens on the scheduler's bounded
//! worker pool — so a hundred idle clients cost a hundred parked
//! threads, never a hundred concurrent simulations.
//!
//! Durability is the sweep machinery's: results land in the
//! content-addressed cache (atomic first-wins publish, fsynced file and
//! directory), completions in the fsynced `noc-serve.journal`, and the
//! journal's advisory lock makes daemon-vs-sweep and daemon-vs-daemon
//! collisions on one output directory a clean "already locked by pid"
//! refusal. After `kill -9`, a restarted daemon recovers the stale lock
//! and serves every previously computed digest from the cache —
//! recomputing nothing.

use crate::sweep::cache::ResultCache;
use crate::sweep::journal::{Journal, JournalHeader};
use crate::sweep::serve::proto::{ServeRequest, MAX_REQUEST_BYTES};
use crate::sweep::serve::scheduler::{Scheduler, ServeCounters};
use noc_obs::serve::{
    serve_accepted_line, serve_done_line, serve_error_line, serve_result_line, serve_status_line,
    SERVE_SCHEMA,
};
use noc_sim::digest_pairs;
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How the daemon listens and where its state lives.
#[derive(Clone, Debug)]
pub struct ServeOptions {
    /// Listen address; port 0 picks a free port (reported by
    /// [`Daemon::addr`]).
    pub addr: String,
    /// Content-addressed result store (shared with `noc sweep`).
    pub cache_dir: PathBuf,
    /// Journal directory.
    pub out_dir: PathBuf,
    /// Worker-pool width (simulations running concurrently).
    pub workers: usize,
    /// Suppress per-connection stderr notes.
    pub quiet: bool,
}

impl ServeOptions {
    /// Loopback on a free port, repo-conventional directories, and a
    /// worker per available core (capped at 8).
    pub fn default_dirs() -> ServeOptions {
        ServeOptions {
            addr: "127.0.0.1:0".to_string(),
            cache_dir: PathBuf::from("results/cache"),
            out_dir: PathBuf::from("results/sweeps"),
            workers: std::thread::available_parallelism()
                .map(|n| n.get().min(8))
                .unwrap_or(2),
            quiet: false,
        }
    }
}

/// The serve journal's fixed header. The daemon serves arbitrary specs,
/// so unlike a sweep journal it is not bound to one spec digest — the
/// header digests the schema tag instead, constant across restarts so
/// [`Journal::open`]'s header equality check accepts the reopened file.
fn serve_journal_header() -> JournalHeader {
    JournalHeader {
        name: "noc-serve".to_string(),
        spec_digest: digest_pairs(&[("schema".to_string(), SERVE_SCHEMA.to_string())]),
        points: 0,
    }
}

/// A running serve daemon. Dropping it without [`Daemon::shutdown`]
/// leaks the accept/handler/worker threads (the process-exit path);
/// shut down gracefully to release the journal lock in-process.
pub struct Daemon {
    addr: SocketAddr,
    scheduler: Arc<Scheduler>,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    handlers: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

/// Starts the daemon: opens cache + journal (taking the journal lock),
/// spins up the worker pool, binds the listener, and begins accepting.
pub fn start(opts: &ServeOptions) -> Result<Daemon, String> {
    let cache = ResultCache::new(&opts.cache_dir)?;
    let journal_path = opts.out_dir.join("noc-serve.journal");
    let (journal, done) = Journal::open(&journal_path, &serve_journal_header())?;
    let scheduler = Arc::new(Scheduler::new(cache, journal, opts.workers));
    let listener = TcpListener::bind(&opts.addr)
        .map_err(|e| format!("serve: cannot bind {}: {e}", opts.addr))?;
    let addr = listener
        .local_addr()
        .map_err(|e| format!("serve: no local addr: {e}"))?;
    listener
        .set_nonblocking(true)
        .map_err(|e| format!("serve: cannot set nonblocking: {e}"))?;
    if !opts.quiet {
        eprintln!(
            "[serve] listening on {addr} — {} workers, {} journaled digests, cache {}",
            opts.workers,
            done.len(),
            opts.cache_dir.display()
        );
    }
    let stop = Arc::new(AtomicBool::new(false));
    let handlers: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
    let accept = {
        let stop = Arc::clone(&stop);
        let handlers = Arc::clone(&handlers);
        let scheduler = Arc::clone(&scheduler);
        let quiet = opts.quiet;
        std::thread::spawn(move || accept_loop(&listener, &stop, &handlers, &scheduler, quiet))
    };
    Ok(Daemon {
        addr,
        scheduler,
        stop,
        accept: Some(accept),
        handlers,
    })
}

impl Daemon {
    /// The bound listen address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Daemon-lifetime counters.
    pub fn counters(&self) -> ServeCounters {
        self.scheduler.counters()
    }

    /// The serve journal path.
    pub fn journal_path(&self) -> PathBuf {
        self.scheduler.journal_path()
    }

    /// Blocks until the accept loop exits — i.e. forever, for a
    /// foreground `noc serve` (the process ends by signal).
    pub fn wait(mut self) {
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
    }

    /// Graceful shutdown: stop accepting, join connection handlers,
    /// stop the workers, release the journal lock. Returns the final
    /// counters.
    pub fn shutdown(mut self) -> ServeCounters {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        let handles: Vec<JoinHandle<()>> = {
            let mut h = self
                .handlers
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            std::mem::take(&mut *h)
        };
        for h in handles {
            let _ = h.join();
        }
        let counters = self.scheduler.counters();
        self.scheduler.shutdown();
        counters
    }
}

fn accept_loop(
    listener: &TcpListener,
    stop: &AtomicBool,
    handlers: &Mutex<Vec<JoinHandle<()>>>,
    scheduler: &Arc<Scheduler>,
    quiet: bool,
) {
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, peer)) => {
                let scheduler = Arc::clone(scheduler);
                let handle =
                    std::thread::spawn(move || handle_connection(stream, &scheduler, quiet));
                let mut h = handlers
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                // Reap finished handlers so a long-lived daemon does not
                // accumulate one parked JoinHandle per past connection.
                h.retain(|j| !j.is_finished());
                h.push(handle);
                if !quiet {
                    eprintln!("[serve] connection from {peer}");
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(e) => {
                eprintln!("[serve] accept error: {e}");
                std::thread::sleep(Duration::from_millis(100));
            }
        }
    }
}

/// Serves one connection: read one request line, stream the response.
/// Write failures mean the client hung up — the handler just exits; any
/// computation already scheduled still completes and lands in the cache.
fn handle_connection(stream: TcpStream, scheduler: &Scheduler, quiet: bool) {
    let _ = stream.set_read_timeout(Some(Duration::from_secs(30)));
    let reader_stream = match stream.try_clone() {
        Ok(s) => s,
        Err(e) => {
            eprintln!("[serve] cannot clone stream: {e}");
            return;
        }
    };
    let mut reader = BufReader::new(reader_stream);
    let mut writer = BufWriter::new(stream);
    let mut line = String::new();
    let read = (&mut reader)
        .take(MAX_REQUEST_BYTES as u64 + 1)
        .read_line(&mut line);
    if line.trim_end_matches(['\n', '\r']).len() > MAX_REQUEST_BYTES {
        let message = format!("request: line longer than {MAX_REQUEST_BYTES} bytes");
        let _ = writeln!(writer, "{}", serve_error_line("", &message));
        let _ = writer.flush();
        // Drain what the client is still sending until it hangs up:
        // closing a socket with unread input resets the connection, and
        // the client could lose the error line.
        let _ = std::io::copy(
            &mut reader.take(64 * MAX_REQUEST_BYTES as u64),
            &mut std::io::sink(),
        );
        return;
    }
    if read.is_err() || line.trim().is_empty() {
        let _ = writeln!(writer, "{}", serve_error_line("", "request: empty line"));
        return;
    }
    let request = match ServeRequest::parse(line.trim()) {
        Ok(r) => r,
        Err(e) => {
            let _ = writeln!(writer, "{}", serve_error_line("", &e));
            let _ = writer.flush();
            return;
        }
    };
    match request {
        ServeRequest::Status { id } => {
            let c = scheduler.counters();
            let _ = writeln!(
                writer,
                "{}",
                serve_status_line(
                    &id,
                    c.computed,
                    c.cache_hits,
                    c.coalesced,
                    c.inflight,
                    c.clients
                )
            );
            let _ = writer.flush();
        }
        ServeRequest::Sweep { id, spec, engine } => {
            let t0 = Instant::now();
            let points = spec.expand();
            let (rx, summary) = scheduler.submit(&points, engine);
            if !quiet {
                eprintln!(
                    "[serve] {id}: '{}' — {} points, {} unique ({} scheduled, {} cache, {} coalesced)",
                    spec.name,
                    summary.total,
                    summary.unique,
                    summary.scheduled,
                    summary.cache_hits,
                    summary.coalesced
                );
            }
            if writeln!(
                writer,
                "{}",
                serve_accepted_line(&id, summary.total, summary.unique)
            )
            .and_then(|()| writer.flush())
            .is_err()
            {
                return;
            }
            for _ in 0..summary.unique {
                let outcome = match rx.recv() {
                    Ok(o) => o,
                    Err(_) => {
                        // Workers shut down with this request's queued
                        // points abandoned.
                        let _ = writeln!(
                            writer,
                            "{}",
                            serve_error_line(&id, "daemon shutting down before completion")
                        );
                        let _ = writer.flush();
                        return;
                    }
                };
                if writeln!(
                    writer,
                    "{}",
                    serve_result_line(
                        &id,
                        &outcome.digest,
                        &outcome.label,
                        outcome.source,
                        outcome.wall_ms,
                        &outcome.result.to_json_full()
                    )
                )
                .and_then(|()| writer.flush())
                .is_err()
                {
                    return;
                }
            }
            let _ = writeln!(
                writer,
                "{}",
                serve_done_line(
                    &id,
                    summary.unique,
                    summary.total,
                    summary.scheduled,
                    summary.cache_hits,
                    summary.coalesced,
                    t0.elapsed().as_millis() as u64
                )
            );
            let _ = writer.flush();
        }
    }
}
