//! The transport loop: bounded accept queue, worker pool, graceful drain.
//!
//! Topology: one acceptor thread blocks on `TcpListener::accept` and
//! pushes connections into a bounded queue; `jobs` worker threads pop
//! connections and run the keep-alive request loop against
//! [`crate::routes::handle`]. Nothing in the pipeline grows without
//! bound:
//!
//! * the queue holds at most `max_inflight` connections — an arrival
//!   beyond that is answered `503 Retry-After: 1` and closed on the
//!   acceptor thread (counter `serve.shed`), so overload degrades into
//!   fast rejections, not memory growth or deadlock;
//! * every connection carries read/write timeouts, per-request parse
//!   limits ([`crate::http::HttpLimits`]), and a keep-alive request cap.
//!
//! Shutdown (via [`ServerHandle::shutdown`] or `POST /shutdown`) trips a
//! flag and wakes the acceptor with a self-connection: the listener
//! stops accepting, already-accepted connections are served to
//! completion, workers drain the queue and exit, and background fit
//! threads are joined — in-flight work always finishes.

use std::collections::VecDeque;
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use ibox_ingest::IngestConfig;

use crate::http::{parse_request, HttpLimits, Response};
use crate::routes::{self, App};

/// Configuration of one daemon instance.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address (`host:port`; port `0` picks an ephemeral port).
    pub addr: String,
    /// Worker threads — also the `/batch` parallelism cap (`0` = auto).
    pub jobs: usize,
    /// Bound on queued (accepted, unserved) connections; arrivals past
    /// it are shed with `503 Retry-After`.
    pub max_inflight: usize,
    /// Directory holding the model registry and ingest sessions.
    pub model_dir: PathBuf,
    /// Socket read/write timeout per request.
    pub read_timeout: Duration,
    /// Request parse limits.
    pub limits: HttpLimits,
    /// Most requests served per keep-alive connection.
    pub keep_alive_requests: usize,
    /// Ingest-session budgets and refit cadence.
    pub ingest: IngestConfig,
    /// Byte cap for registry artifacts on disk (`0` = unbounded); it also
    /// bounds the in-memory fit cache and decoded tier, at most 256 MiB.
    pub registry_cap_bytes: u64,
}

impl ServeConfig {
    /// Defaults for a daemon at `addr` serving models from `model_dir`.
    pub fn new(addr: impl Into<String>, model_dir: impl Into<PathBuf>) -> Self {
        Self {
            addr: addr.into(),
            jobs: 0,
            max_inflight: 64,
            model_dir: model_dir.into(),
            read_timeout: Duration::from_secs(10),
            limits: HttpLimits::default(),
            keep_alive_requests: 1000,
            ingest: IngestConfig::default(),
            registry_cap_bytes: 0,
        }
    }
}

/// The bounded hand-off between the acceptor and the workers.
struct ConnQueue {
    inner: Mutex<QueueInner>,
    ready: Condvar,
    cap: usize,
}

struct QueueInner {
    conns: VecDeque<TcpStream>,
    closed: bool,
}

impl ConnQueue {
    fn new(cap: usize) -> Self {
        Self {
            inner: Mutex::new(QueueInner { conns: VecDeque::new(), closed: false }),
            ready: Condvar::new(),
            cap: cap.max(1),
        }
    }

    /// Try to enqueue; a full (or closed) queue hands the connection
    /// back so the caller can shed it.
    fn push(&self, conn: TcpStream) -> Result<(), TcpStream> {
        let mut inner = self.inner.lock().expect("conn queue lock");
        if inner.closed || inner.conns.len() >= self.cap {
            return Err(conn);
        }
        inner.conns.push_back(conn);
        self.ready.notify_one();
        Ok(())
    }

    /// Pop the next connection, blocking; `None` once closed and empty.
    fn pop(&self) -> Option<TcpStream> {
        let mut inner = self.inner.lock().expect("conn queue lock");
        loop {
            if let Some(conn) = inner.conns.pop_front() {
                return Some(conn);
            }
            if inner.closed {
                return None;
            }
            inner = self.ready.wait(inner).expect("conn queue wait");
        }
    }

    /// Stop accepting pushes and wake every worker to drain and exit.
    fn close(&self) {
        self.inner.lock().expect("conn queue lock").closed = true;
        self.ready.notify_all();
    }
}

/// A handle for stopping a running server from another thread.
#[derive(Clone)]
pub struct ServerHandle {
    app: Arc<App>,
}

impl ServerHandle {
    /// Begin graceful drain: stop accepting, finish in-flight work.
    pub fn shutdown(&self) {
        self.app.begin_shutdown();
    }
}

/// A running daemon: acceptor + workers, stoppable and joinable.
pub struct Server {
    addr: SocketAddr,
    app: Arc<App>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Bind `config.addr`, spawn the acceptor and worker threads, and
    /// return the running server. The model directory is created if
    /// missing.
    pub fn bind(config: ServeConfig) -> Result<Server, String> {
        // Tracing is on by default for a daemon — the collector is a
        // bounded ring and untraced requests pay one atomic load. Set
        // IBOX_TRACE=off to run dark.
        if !matches!(std::env::var("IBOX_TRACE").as_deref(), Ok("off") | Ok("0")) {
            ibox_obs::trace::set_enabled(true);
        }
        let listener = TcpListener::bind(&config.addr)
            .map_err(|e| format!("cannot bind {}: {e}", config.addr))?;
        let addr = listener.local_addr().map_err(|e| e.to_string())?;

        let jobs = if config.jobs == 0 { ibox_runner::suggested_jobs() } else { config.jobs };
        let stop = Arc::new(AtomicBool::new(false));
        let app = Arc::new(App::new(&config, jobs, Arc::clone(&stop))?);
        app.set_addr(addr);

        let queue = Arc::new(ConnQueue::new(config.max_inflight));
        // Workers inherit the spawning thread's effective obs registry
        // via the process-global registry; per-request metrics from any
        // worker land in one place.
        let workers = (0..jobs)
            .map(|w| {
                let queue = Arc::clone(&queue);
                let app = Arc::clone(&app);
                let config = config.clone();
                std::thread::Builder::new()
                    .name(format!("serve-worker-{w}"))
                    .spawn(move || {
                        while let Some(conn) = queue.pop() {
                            handle_connection(conn, &app, &config);
                        }
                    })
                    .map_err(|e| format!("cannot spawn worker: {e}"))
            })
            .collect::<Result<Vec<_>, String>>()?;

        let acceptor = {
            let queue = Arc::clone(&queue);
            let stop = Arc::clone(&stop);
            std::thread::Builder::new()
                .name("serve-acceptor".to_string())
                .spawn(move || {
                    for conn in listener.incoming() {
                        if stop.load(Ordering::SeqCst) {
                            break; // the waking connection is dropped unanswered
                        }
                        match conn {
                            Ok(conn) => {
                                if let Err(rejected) = queue.push(conn) {
                                    shed(rejected);
                                }
                            }
                            Err(e) => {
                                ibox_obs::warn!("accept failed: {e}");
                                std::thread::sleep(Duration::from_millis(10));
                            }
                        }
                    }
                    queue.close();
                })
                .map_err(|e| format!("cannot spawn acceptor: {e}"))?
        };

        ibox_obs::info!("serving on http://{addr} with {jobs} workers");
        Ok(Server { addr, app, acceptor: Some(acceptor), workers })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// A clonable handle that can stop this server from anywhere.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle { app: Arc::clone(&self.app) }
    }

    /// Block until the server has fully drained: acceptor stopped,
    /// queued and in-flight requests served, background fits joined.
    pub fn join(mut self) {
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        self.app.drain_fits();
        ibox_obs::info!("server on {} drained", self.addr);
    }
}

/// Answer an over-capacity arrival on the acceptor thread: cheap 503
/// with `Retry-After`, then close. Tight write timeout — a slow reader
/// must not stall accepting.
fn shed(mut conn: TcpStream) {
    ibox_obs::global().counter("serve.shed").inc();
    let _ = conn.set_write_timeout(Some(Duration::from_secs(1)));
    let _ = Response::overloaded("server at capacity").write_to(&mut conn);
}

/// The keep-alive request loop for one connection.
fn handle_connection(conn: TcpStream, app: &Arc<App>, config: &ServeConfig) {
    if conn.set_read_timeout(Some(config.read_timeout)).is_err()
        || conn.set_write_timeout(Some(config.read_timeout)).is_err()
    {
        return;
    }
    let _ = conn.set_nodelay(true);
    let Ok(read_half) = conn.try_clone() else { return };
    let mut reader = BufReader::new(read_half);
    let mut writer = conn;

    for _ in 0..config.keep_alive_requests.max(1) {
        match parse_request(&mut reader, &config.limits) {
            Ok(req) => {
                let mut resp = routes::handle(app, &req);
                // Drain: once shutdown is requested, finish this request
                // but do not keep the connection alive.
                resp.close = resp.close || req.wants_close() || app.stopping();
                let close = resp.close;
                if resp.write_to(&mut writer).is_err() || close {
                    break;
                }
            }
            Err(err) => {
                if let Some(status) = err.status() {
                    ibox_obs::global().counter("serve.parse_errors").inc();
                    let mut resp = Response::error(status, &err.to_string());
                    resp.close = true;
                    let _ = resp.write_to(&mut writer);
                }
                break;
            }
        }
    }
    let _ = writer.flush();
}
