//! The in-process daemon, the closed-loop client, and the correctness
//! oracle shared by every workload.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use ibox::{execute_run_cached, fit_model, BatchResult, FitCache, FittedModel, ReplayOpts};
use ibox_ingest::IngestConfig;
use ibox_serve::{HttpClient, ServeConfig, Server};
use ibox_sim::SimTime;
use ibox_trace::FlowTrace;

use crate::gen::{Op, OpKind, Plan, REFIT_EVERY_CHUNKS};
use crate::spans::{append_spans, Recorder, Span};
use crate::stats::hash64;

/// Worker threads of the daemon, and so its `/batch` parallelism cap.
pub const DAEMON_JOBS: usize = 2;

/// The daemon's ingest settings: the refit cadence the workload is built
/// around, and a global budget that is a deployment setting, not a default
/// under test — a timed window streams ≈200 MB of chunks, and the store
/// never returns a sealed session's bytes to its 256 MiB default budget.
pub fn ingest_config() -> IngestConfig {
    IngestConfig {
        refit_every_chunks: REFIT_EVERY_CHUNKS,
        global_budget_bytes: 8 << 30,
        ..IngestConfig::default()
    }
}

/// The daemon under test, started in-process exactly as `ibox serve`
/// starts it, on an ephemeral loopback port with a fresh model directory.
pub struct Daemon {
    server: Option<Server>,
    /// `host:port` the daemon listens on.
    pub addr: String,
    /// Its model directory (registry, fit cache, ingest sessions).
    pub dir: PathBuf,
}

impl Daemon {
    /// Start a daemon whose model directory is a fresh `scratch/daemon`.
    pub fn start(scratch: &Path) -> Result<Daemon, String> {
        let dir = scratch.join("daemon");
        let _ = std::fs::remove_dir_all(&dir);
        let mut config = ServeConfig::new("127.0.0.1:0", &dir);
        config.jobs = DAEMON_JOBS;
        config.ingest = ingest_config();
        let server = Server::bind(config)?;
        Ok(Daemon { addr: server.addr().to_string(), server: Some(server), dir })
    }
}

impl Drop for Daemon {
    /// Drain the daemon and delete its directory. Every client must be
    /// dropped first: a worker parked on an idle keep-alive connection
    /// only notices the shutdown when the connection closes.
    fn drop(&mut self) {
        if let Some(server) = self.server.take() {
            server.handle().shutdown();
            server.join();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// The daemon serves at most 1000 requests per connection; redial
/// (outside any timed span) before reaching that.
const REQUESTS_PER_CONNECTION: usize = 900;
const CLIENT_TIMEOUT: Duration = Duration::from_secs(120);

/// The wire of one connection: the repository's own client for the
/// untraced run, or a bare socket whose phases the traced run records.
enum Conn {
    Plain(HttpClient),
    Spanning(TcpStream),
}

impl Conn {
    fn dial(addr: &str, spanning: bool) -> Result<Conn, String> {
        if !spanning {
            return HttpClient::connect(addr, CLIENT_TIMEOUT).map(Conn::Plain);
        }
        // The same socket options `HttpClient::connect` sets.
        let target: std::net::SocketAddr =
            addr.parse().map_err(|e| format!("bad daemon address {addr}: {e}"))?;
        let stream = TcpStream::connect_timeout(&target, CLIENT_TIMEOUT)
            .map_err(|e| format!("cannot connect to {addr}: {e}"))?;
        stream.set_read_timeout(Some(CLIENT_TIMEOUT)).map_err(|e| e.to_string())?;
        stream.set_write_timeout(Some(CLIENT_TIMEOUT)).map_err(|e| e.to_string())?;
        let _ = stream.set_nodelay(true);
        Ok(Conn::Spanning(stream))
    }
}

/// The request head `HttpClient` writes.
pub fn request_head(method: &str, path: &str, host: &str, body_len: usize) -> String {
    format!("{method} {path} HTTP/1.1\r\nhost: {host}\r\ncontent-length: {body_len}\r\n\r\n")
}

/// One request over a bare socket, recording `client.send` (request
/// written), `client.wait` (until the first response byte) and
/// `client.read_body` (until the last) under a `client.request` span.
fn spanning_request(
    stream: &mut TcpStream,
    rec: &mut Recorder,
    head: &str,
    body: &[u8],
) -> Result<(u16, Vec<u8>), String> {
    let io = |e: std::io::Error| format!("socket error: {e}");
    rec.next_op();
    let root = rec.enter("client.request");

    let send = rec.enter("client.send");
    stream.write_all(head.as_bytes()).map_err(io)?;
    stream.write_all(body).map_err(io)?;
    rec.exit(send);

    let mut buf = vec![0u8; 64 * 1024];
    let wait = rec.enter("client.wait");
    let mut filled = stream.read(&mut buf).map_err(io)?;
    rec.exit(wait);

    let read = rec.enter("client.read_body");
    let head_end = loop {
        if filled == 0 {
            return Err("server closed the connection".to_string());
        }
        if let Some(at) = buf[..filled].windows(4).position(|w| w == b"\r\n\r\n") {
            break at + 4;
        }
        if filled == buf.len() {
            return Err("response head exceeds 64 KiB".to_string());
        }
        filled += stream.read(&mut buf[filled..]).map_err(io)?;
    };
    let head_text = String::from_utf8_lossy(&buf[..head_end]).to_ascii_lowercase();
    let status: u16 = head_text
        .split_ascii_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or("bad status line")?;
    let content_length: usize = head_text
        .lines()
        .find_map(|l| l.strip_prefix("content-length:"))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(0);
    let mut reply = buf[head_end..filled].to_vec();
    if reply.len() > content_length {
        return Err("response longer than its content-length".to_string());
    }
    let have = reply.len();
    reply.resize(content_length, 0);
    stream.read_exact(&mut reply[have..]).map_err(io)?;
    rec.exit(read);

    rec.exit(root);
    Ok((status, reply))
}

/// A keep-alive connection to the daemon.
pub struct Client {
    addr: String,
    conn: Conn,
    sent: usize,
    rec: Recorder,
}

impl Client {
    /// Connect to the daemon at `addr`; `spanning` selects the socket
    /// whose phases are recorded as spans (the traced run).
    pub fn connect(addr: &str, spanning: bool) -> Result<Client, String> {
        let conn = Conn::dial(addr, spanning)?;
        Ok(Client { addr: addr.to_string(), conn, sent: 0, rec: Recorder::new() })
    }

    /// One request, timed socket to socket: from the first request byte
    /// written to the last response byte read. Returns the latency in
    /// milliseconds with the reply; verification is the caller's, after
    /// the timestamp.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&[u8]>,
    ) -> Result<(u16, Vec<u8>, f64), String> {
        if self.sent >= REQUESTS_PER_CONNECTION {
            self.conn = Conn::dial(&self.addr, matches!(self.conn, Conn::Spanning(_)))?;
            self.sent = 0;
        }
        self.sent += 1;
        let body = body.unwrap_or(&[]);
        let t0 = Instant::now();
        let (status, reply) = match &mut self.conn {
            Conn::Plain(http) => http.request(method, path, Some(body))?,
            Conn::Spanning(stream) => {
                let head = request_head(method, path, &self.addr, body.len());
                spanning_request(stream, &mut self.rec, &head, body)?
            }
        };
        Ok((status, reply, t0.elapsed().as_secs_f64() * 1e3))
    }

    /// The spans a spanning connection recorded (empty otherwise).
    pub fn into_spans(self) -> Vec<Span> {
        self.rec.into_spans()
    }
}

/// Process CPU time so far (user + system), seconds, from
/// `/proc/self/stat` at the kernel's 100 Hz tick.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesized command name; utime and stime are
    // the 14th and 15th of the line, the 12th and 13th after the name.
    let after_name = stat.rsplit_once(')').map(|(_, rest)| rest).unwrap_or("");
    let ticks: u64 = after_name
        .split_ascii_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|f| f.parse::<u64>().ok())
        .sum();
    ticks as f64 / 100.0
}

/// Peak resident set size of the process so far (`VmHWM`), MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// What the oracle knows about a correct reply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Expected {
    /// Reply length, bytes.
    pub len: usize,
    /// [`hash64`] of the reply.
    pub hash: u64,
    /// Packet records the reply carries or was computed from.
    pub records: u64,
}

impl Expected {
    /// The expectation for `body`.
    pub fn of(body: &[u8], records: u64) -> Self {
        Self { len: body.len(), hash: hash64(body), records }
    }

    /// Check a reply against the reference.
    pub fn check(&self, status: u16, reply: &[u8]) -> Result<(), String> {
        if status != 200 {
            let text = String::from_utf8_lossy(&reply[..reply.len().min(200)]);
            return Err(format!("status {status}: {text}"));
        }
        if reply.len() != self.len {
            return Err(format!("reply is {} bytes, reference is {}", reply.len(), self.len));
        }
        if hash64(reply) != self.hash {
            return Err("reply bytes differ from the offline reference".to_string());
        }
        Ok(())
    }
}

/// Replay `op` offline with the public function the handler calls.
pub fn replay_offline(models: &[FittedModel], op: &Op) -> FlowTrace {
    let OpKind::Replay { fit, protocol, duration_s, seed, fidelity, path } = &op.kind else {
        panic!("replay_offline on a non-replay op");
    };
    models[*fit].simulate_with(
        protocol,
        SimTime::from_secs(*duration_s),
        *seed,
        ReplayOpts { batch_streams: true, fidelity: *fidelity, path: path.clone() },
    )
}

/// The offline reference of one request: what the daemon must answer,
/// byte for byte, by the repository's HTTP == offline contract.
fn reference(models: &[FittedModel], cache: &FitCache, op: &Op) -> Result<Expected, String> {
    match &op.kind {
        OpKind::Replay { .. } => {
            let trace = replay_offline(models, op);
            let json = serde_json::to_string(&trace).map_err(|e| e.to_string())?;
            Ok(Expected::of(json.as_bytes(), trace.len() as u64))
        }
        OpKind::Batch(spec) => {
            // `run_batch_with_cache(spec, 1, cache)` run by run, keeping
            // each simulated trace's length for `records_per_s`.
            let mut records = Vec::with_capacity(spec.runs.len());
            let mut packets = 0u64;
            for run in &spec.runs {
                let (record, trace) = execute_run_cached(run, cache)?;
                packets += trace.len() as u64;
                records.push(record);
            }
            Ok(Expected::of(BatchResult { records }.to_json().as_bytes(), packets))
        }
    }
}

/// A request-cycling workload, set up: daemon running, models fitted,
/// references computed, caches warm.
pub struct Prepared {
    /// The generated plan.
    pub plan: Plan,
    /// Offline fits of `plan.fits`, in order.
    pub models: Vec<FittedModel>,
    /// The reference of each of `plan.ops`.
    pub expected: Vec<Expected>,
    /// The daemon (dropped last: clients must go first).
    pub daemon: Daemon,
}

/// Set a request-cycling workload up: compute the offline references,
/// start the daemon, fit over HTTP, and run one verified warm-up pass over
/// the distinct requests.
pub fn prepare(plan: Plan, scratch: &Path) -> Result<Prepared, String> {
    let models: Vec<FittedModel> = plan.fits.iter().map(|f| fit_model(&f.kind, &f.train)).collect();
    let cache = FitCache::in_memory();
    let expected =
        plan.ops.iter().map(|op| reference(&models, &cache, op)).collect::<Result<Vec<_>, _>>()?;

    let daemon = Daemon::start(scratch)?;
    {
        // One connection per daemon worker (a worker keeps a connection
        // until it closes), the warm-up pass dealt out between them: both
        // workers' allocator arenas reach their working size in every run,
        // whichever later picks up the timed connection. Warmed through
        // one connection, peak RSS differed by a reply's worth of value
        // tree (≈27 MB) from run to run.
        let mut clients = (0..DAEMON_JOBS)
            .map(|_| Client::connect(&daemon.addr, false))
            .collect::<Result<Vec<_>, _>>()?;
        for fit in &plan.fits {
            let (status, reply, _) = clients[0].request("POST", "/fit", Some(&fit.body))?;
            let text = String::from_utf8_lossy(&reply);
            if status != 200 || !text.contains(&fit.id) {
                return Err(format!("set-up /fit answered {status}: {text}"));
            }
        }
        for (i, (op, exp)) in plan.ops.iter().zip(&expected).enumerate() {
            let (status, reply, _) =
                clients[i % DAEMON_JOBS].request("POST", op.path, Some(&op.body))?;
            exp.check(status, &reply).map_err(|why| format!("warm-up pass failed: {why}"))?;
        }
    }
    Ok(Prepared { plan, models, expected, daemon })
}

/// What a timed window observed.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Socket-to-socket latency of every timed operation, ms.
    pub latencies_ms: Vec<f64>,
    /// Requests sent.
    pub attempted: u64,
    /// Requests that errored, returned non-2xx, or failed verification.
    pub failed: u64,
    /// Packet records that crossed the socket or were simulated.
    pub records: u64,
    /// Wall time of the window, seconds.
    pub wall_s: f64,
    /// Process CPU time over the window, seconds.
    pub cpu_s: f64,
    /// Why the first failed request failed.
    pub first_failure: Option<String>,
    /// Client-side spans (traced run only).
    pub spans: Vec<Span>,
}

impl Outcome {
    /// Count one verified request.
    pub fn count(&mut self, verdict: Result<u64, String>) {
        self.attempted += 1;
        match verdict {
            Ok(records) => self.records += records,
            Err(why) => {
                self.failed += 1;
                self.first_failure.get_or_insert(why);
            }
        }
    }

    /// Fold another connection's counts and samples into this one (wall
    /// and CPU time belong to the window, not to a connection).
    pub fn absorb(&mut self, other: Outcome) {
        self.latencies_ms.extend(other.latencies_ms);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.records += other.records;
        append_spans(&mut self.spans, other.spans);
        if self.first_failure.is_none() {
            self.first_failure = other.first_failure;
        }
    }
}

/// Run `pass` again and again until `seconds` have elapsed since `t0`; the
/// deadline is only looked at between passes, so every window is made of
/// whole passes (at least one).
pub fn whole_passes(
    t0: Instant,
    seconds: f64,
    mut pass: impl FnMut() -> Result<(), String>,
) -> Result<(), String> {
    loop {
        pass()?;
        if t0.elapsed().as_secs_f64() >= seconds {
            return Ok(());
        }
    }
}

/// The closed loop: cycle through `ops` on one connection, one request in
/// flight, in whole passes until `seconds` have elapsed (so every run
/// samples the distinct requests in the same proportions). `0.0` runs
/// exactly one pass. A transport error ends the window: the connection is
/// gone.
pub fn drive(
    addr: &str,
    spanning: bool,
    ops: &[Op],
    expected: &[Expected],
    seconds: f64,
) -> Result<Outcome, String> {
    let mut client = Client::connect(addr, spanning)?;
    let mut out = Outcome::default();
    let cpu0 = cpu_seconds();
    let t0 = Instant::now();
    whole_passes(t0, seconds, || {
        for (op, exp) in ops.iter().zip(expected) {
            let (status, reply, ms) = client.request("POST", op.path, Some(&op.body))?;
            out.latencies_ms.push(ms);
            out.count(exp.check(status, &reply).map(|()| exp.records));
        }
        Ok(())
    })?;
    out.wall_s = t0.elapsed().as_secs_f64();
    out.cpu_s = cpu_seconds() - cpu0;
    out.spans = client.into_spans();
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oracle_rejects_wrong_status_length_and_bytes() {
        let exp = Expected::of(b"{\"ok\":true}", 3);
        assert_eq!(exp.check(200, b"{\"ok\":true}"), Ok(()));
        assert!(exp.check(500, b"{\"ok\":true}").unwrap_err().contains("status 500"));
        assert!(exp.check(200, b"{\"ok\":true} ").unwrap_err().contains("bytes"));
        assert!(exp.check(200, b"{\"ok\":tru3}").unwrap_err().contains("differ"));
    }

    #[test]
    fn proc_readers_see_this_process() {
        assert!(peak_rss_mib() > 1.0, "a running test binary has a resident set");
        let before = cpu_seconds();
        let mut x = 0u64;
        while cpu_seconds() - before < 0.02 {
            for i in 0..1_000_000u64 {
                x = x.wrapping_add(std::hint::black_box(i));
            }
        }
        std::hint::black_box(x);
    }

    #[test]
    fn outcomes_fold_counts_and_keep_the_first_failure() {
        let mut a = Outcome::default();
        a.count(Ok(10));
        a.count(Err("first".into()));
        let mut b = Outcome::default();
        b.count(Err("second".into()));
        b.latencies_ms.push(1.0);
        a.absorb(b);
        assert_eq!((a.attempted, a.failed, a.records), (3, 2, 10));
        assert_eq!(a.first_failure.as_deref(), Some("first"));
        assert_eq!(a.latencies_ms.len(), 1);
    }
}
