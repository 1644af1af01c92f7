//! Long-running analysis service over the unified request/response API.
//!
//! `cme-serve` speaks a JSON **line protocol**: each connection carries a
//! stream of single-line requests and receives one single-line response
//! per request, in order (see `docs/SERVE.md` for the schema). Concurrent
//! clients are multiplexed onto shared per-geometry [`Analyzer`] sessions
//! so every client benefits from every other client's memoized work, and
//! all sessions write through one persistent [`ArtifactStore`] when a
//! store directory is configured.
//!
//! Resource governance doubles as admission control: a server-wide
//! `max_budget_ms` caps (and, for unbudgeted requests, supplies) the
//! per-request deadline, so no client can monopolize a shared session.
//! Exhausted requests come back as *degraded successes*
//! (`outcome.complete = false`, a sound overcount) — never as errors, and
//! never persisted to the store.
//!
//! The same discipline extends to the transport (`docs/SERVE.md` has the
//! operator's view):
//!
//! - **bounded connections** — beyond [`ServerConfig::max_connections`],
//!   new peers are *shed*: one [`ErrorCode::Overloaded`] response line,
//!   then close. Overload is explicit and retryable, never a hang.
//! - **bounded request lines** — a line that exceeds
//!   [`ServerConfig::max_line_bytes`] without a newline gets one
//!   `bad-request` response and the connection is closed; the read
//!   buffer can never grow without bound.
//! - **bounded waiting** — a connection that does not deliver a complete
//!   request line within [`ServerConfig::idle_timeout_ms`] (silent *or*
//!   dribbling one byte at a time) is closed and counted. Reads wake on
//!   a short tick, so every connection also observes the shutdown latch
//!   within that tick — an idle peer cannot stall a drain.
//! - **bounded sessions** — the per-geometry session map is LRU-capped
//!   at [`ServerConfig::max_sessions`].
//!
//! The protocol carries four operations, dispatched on the `op` field:
//! `analyze` (the [`AnalyzeRequest`] schema), `ping`, `stats`, and
//! `shutdown`. Responses always echo the request `id` and carry either an
//! `ok` object or a coded `error` object ([`ErrorCode`]). The [`client`]
//! module is the matching resilient client: connect/read deadlines,
//! bounded seeded backoff, and retry restricted to idempotent requests.

#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

pub mod client;

use cme_cache::CacheModel;
use cme_core::api::json::{self, obj, Json};
use cme_core::api::{AnalyzeRequest, AnalyzeResponse, Error, ErrorCode};
use cme_core::{Analyzer, ArtifactStore, CounterValue, EngineStats};
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread;
use std::time::{Duration, Instant};

/// Granularity at which connection reads wake to re-check the shutdown
/// latch and the request-line deadline. Bounds how long an in-flight
/// idle connection can delay a drain.
const READ_TICK: Duration = Duration::from_millis(25);

/// Write deadline for best-effort responses to shed or misbehaving
/// connections — the peer may not be reading at all, and a full socket
/// buffer must not wedge the accept loop or a connection thread.
const BEST_EFFORT_WRITE: Duration = Duration::from_millis(250);

/// How a [`Server`] is provisioned: storage, parallelism, the admission
/// ceiling, and the overload limits.
///
/// Every limit has a production-shaped default via [`Default`]; setting a
/// limit to `0` disables it (unbounded), which is only sensible in
/// tests.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Directory of the persistent artifact store (`None` = in-memory
    /// memoization only).
    pub store_dir: Option<PathBuf>,
    /// Size bound of the store in bytes (`None` =
    /// [`ArtifactStore::DEFAULT_MAX_BYTES`]).
    pub store_max_bytes: Option<u64>,
    /// Worker threads per analysis (`0` = sequential).
    pub threads: usize,
    /// Admission control: every request's wall-clock budget is clamped to
    /// this many milliseconds, and requests that arrive without a deadline
    /// get exactly this one (`None` = requests run as budgeted, possibly
    /// unbounded).
    pub max_budget_ms: Option<u64>,
    /// Max milliseconds for a complete request line to arrive once the
    /// server starts waiting for one; a connection that stays silent *or*
    /// dribbles bytes slower than this is closed and counted
    /// ([`ServerStats::timed_out_connections`]). `0` disables.
    pub idle_timeout_ms: u64,
    /// Byte cap on one request line. A longer line (terminated or not)
    /// gets one `bad-request` response and the connection is closed
    /// ([`ServerStats::oversized_lines`]). `0` disables.
    pub max_line_bytes: usize,
    /// Connection pool bound across all listeners. Accepts beyond it are
    /// shed with one [`ErrorCode::Overloaded`] line
    /// ([`ServerStats::shed_connections`]). `0` disables.
    pub max_connections: usize,
    /// LRU cap on the per-geometry session map
    /// ([`ServerStats::sessions_evicted`]). `0` disables.
    pub max_sessions: usize,
    /// Poll tick of the accept loops in milliseconds (min 1).
    pub accept_tick_ms: u64,
    /// Drain deadline after shutdown: the accept loops stop accepting at
    /// once and join in-flight connections for at most this long.
    pub drain_ms: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            store_dir: None,
            store_max_bytes: None,
            threads: 0,
            max_budget_ms: None,
            idle_timeout_ms: 30_000,
            max_line_bytes: 4 << 20,
            max_connections: 128,
            max_sessions: 32,
            accept_tick_ms: 5,
            drain_ms: 5_000,
        }
    }
}

/// Aggregate traffic counters of a running [`Server`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Protocol lines answered (any op).
    pub requests: u64,
    /// Responses that carried a coded error.
    pub errors: u64,
    /// Live per-geometry sessions.
    pub sessions: u64,
    /// Connections accepted and served (shed connections excluded).
    pub connections: u64,
    /// Connections currently in flight.
    pub active_connections: u64,
    /// Connections shed at the pool bound with an `overloaded` response.
    pub shed_connections: u64,
    /// Connections closed for exceeding the request-line deadline.
    pub timed_out_connections: u64,
    /// Request lines rejected (and connections closed) at the byte cap.
    pub oversized_lines: u64,
    /// Sessions evicted by the LRU cap on the session map.
    pub sessions_evicted: u64,
    /// Connection threads that panicked (joined and counted, never
    /// silently dropped).
    pub worker_panics: u64,
}

/// One per-geometry analyzer session plus its LRU stamp.
#[derive(Debug)]
struct SessionSlot {
    analyzer: Arc<Mutex<Analyzer>>,
    last_used: u64,
}

/// The shared server state: per-geometry [`Analyzer`] sessions, the
/// optional artifact store behind them, the shutdown latch, and the
/// traffic counters.
///
/// One `Server` is shared (via `Arc`) by every listener and connection
/// thread; [`Server::handle_line`] is the single protocol entry point, so
/// transports stay trivial and tests can drive the protocol without a
/// socket.
#[derive(Debug)]
pub struct Server {
    config: ServerConfig,
    store: Option<Arc<ArtifactStore>>,
    sessions: Mutex<HashMap<CacheModel, SessionSlot>>,
    session_clock: AtomicU64,
    shutdown: AtomicBool,
    requests: AtomicU64,
    errors: AtomicU64,
    connections: AtomicU64,
    active: AtomicU64,
    shed_connections: AtomicU64,
    timed_out: AtomicU64,
    oversized: AtomicU64,
    sessions_evicted: AtomicU64,
    worker_panics: AtomicU64,
}

/// Locks a mutex, riding through poisoning: a panicking worker must not
/// wedge every other client of the session.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// A duplex byte stream with socket deadlines — the connection-side
/// surface the server needs from TCP and Unix sockets.
pub trait Transport: Read + Write {
    /// Sets the read timeout (the server uses a short tick so reads stay
    /// shutdown-aware).
    fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()>;
    /// Sets the write timeout (used for best-effort error responses).
    fn set_write_timeout(&self, timeout: Option<Duration>) -> io::Result<()>;
}

impl Transport for TcpStream {
    fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        TcpStream::set_read_timeout(self, timeout)
    }
    fn set_write_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        TcpStream::set_write_timeout(self, timeout)
    }
}

impl Transport for UnixStream {
    fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        UnixStream::set_read_timeout(self, timeout)
    }
    fn set_write_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        UnixStream::set_write_timeout(self, timeout)
    }
}

/// Decrements the live-connection gauge when a connection thread exits,
/// panic or not — a leaked increment would shed forever.
struct ActiveGuard(Arc<Server>);

impl Drop for ActiveGuard {
    fn drop(&mut self) {
        self.0.active.fetch_sub(1, Ordering::Relaxed);
    }
}

impl Server {
    /// Provisions a server: opens (or creates) the artifact store when a
    /// directory is configured.
    ///
    /// # Errors
    ///
    /// [`ErrorCode::Store`] when the store directory cannot be opened.
    pub fn new(config: ServerConfig) -> Result<Arc<Self>, Error> {
        let store = match &config.store_dir {
            Some(dir) => Some(Arc::new(ArtifactStore::open_bounded(
                dir,
                config
                    .store_max_bytes
                    .unwrap_or(ArtifactStore::DEFAULT_MAX_BYTES),
                ArtifactStore::DEFAULT_MAX_ENTRY_BYTES,
            )?)),
            None => None,
        };
        Ok(Self::assemble(config, store))
    }

    /// Provisions a server around an already-opened store — the chaos
    /// suite's entry point, so a store wrapped in a
    /// [`cme_core::FaultPlan`] can sit under an otherwise stock server.
    pub fn with_store(config: ServerConfig, store: Arc<ArtifactStore>) -> Arc<Self> {
        Self::assemble(config, Some(store))
    }

    fn assemble(config: ServerConfig, store: Option<Arc<ArtifactStore>>) -> Arc<Self> {
        Arc::new(Server {
            config,
            store,
            sessions: Mutex::new(HashMap::new()),
            session_clock: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            requests: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            connections: AtomicU64::new(0),
            active: AtomicU64::new(0),
            shed_connections: AtomicU64::new(0),
            timed_out: AtomicU64::new(0),
            oversized: AtomicU64::new(0),
            sessions_evicted: AtomicU64::new(0),
            worker_panics: AtomicU64::new(0),
        })
    }

    /// The configuration this server was provisioned with.
    pub fn config(&self) -> &ServerConfig {
        &self.config
    }

    /// True once a `shutdown` request has been accepted; listeners drain
    /// and stop accepting.
    pub fn is_shutdown(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Requests shutdown from the host process (equivalent to the wire
    /// `shutdown` op).
    pub fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
    }

    /// Snapshot of the server's own counters.
    pub fn stats(&self) -> ServerStats {
        ServerStats {
            requests: self.requests.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            sessions: lock(&self.sessions).len() as u64,
            connections: self.connections.load(Ordering::Relaxed),
            active_connections: self.active.load(Ordering::Relaxed),
            shed_connections: self.shed_connections.load(Ordering::Relaxed),
            timed_out_connections: self.timed_out.load(Ordering::Relaxed),
            oversized_lines: self.oversized.load(Ordering::Relaxed),
            sessions_evicted: self.sessions_evicted.load(Ordering::Relaxed),
            worker_panics: self.worker_panics.load(Ordering::Relaxed),
        }
    }

    /// The session for a cache model, created on first use. Sessions
    /// share the server's store and thread setting; the map is LRU-capped
    /// at [`ServerConfig::max_sessions`], so a cold model evicts the
    /// least-recently-used one. In-flight requests keep their own handle
    /// to an evicted session — eviction only forgets memo state for
    /// *future* requests, it never breaks a running one. Two requests that
    /// share a geometry but differ in policy, write semantics, or L2 get
    /// distinct sessions — their artifacts are keyed differently too.
    fn session(&self, request: &AnalyzeRequest) -> Result<Arc<Mutex<Analyzer>>, Error> {
        let key = request.cache_model()?;
        let stamp = self.session_clock.fetch_add(1, Ordering::Relaxed);
        let mut sessions = lock(&self.sessions);
        if let Some(slot) = sessions.get_mut(&key) {
            slot.last_used = stamp;
            return Ok(Arc::clone(&slot.analyzer));
        }
        let cap = self.config.max_sessions;
        if cap > 0 && sessions.len() >= cap {
            if let Some(lru) = sessions
                .iter()
                .min_by_key(|(_, slot)| slot.last_used)
                .map(|(k, _)| *k)
            {
                sessions.remove(&lru);
                self.sessions_evicted.fetch_add(1, Ordering::Relaxed);
            }
        }
        let mut analyzer = Analyzer::with_model(key).threads(self.config.threads);
        if let Some(store) = &self.store {
            analyzer = analyzer.store(Arc::clone(store));
        }
        let session = Arc::new(Mutex::new(analyzer));
        sessions.insert(
            key,
            SessionSlot {
                analyzer: Arc::clone(&session),
                last_used: stamp,
            },
        );
        Ok(session)
    }

    /// Admission control: clamps the request's wall-clock budget to the
    /// server ceiling (and imposes the ceiling on unbudgeted requests).
    fn admit(&self, mut request: AnalyzeRequest) -> AnalyzeRequest {
        if let Some(max) = self.config.max_budget_ms {
            request.budget_ms = Some(request.budget_ms.map_or(max, |ms| ms.min(max)));
        }
        request
    }

    /// Serves one protocol line and returns the single-line response.
    /// Never panics and never returns an embedded newline; malformed input
    /// yields a coded error response.
    pub fn handle_line(&self, line: &str) -> String {
        self.requests.fetch_add(1, Ordering::Relaxed);
        let response = self.dispatch(line);
        debug_assert!(!response.contains('\n'));
        response
    }

    fn dispatch(&self, line: &str) -> String {
        let value = match json::parse(line) {
            Ok(v) => v,
            Err(e) => return self.error_line("", Error::from(e)),
        };
        let id = value
            .get("id")
            .and_then(Json::as_str)
            .unwrap_or("")
            .to_string();
        match value.get("op").and_then(Json::as_str).unwrap_or("analyze") {
            "ping" => self.ok_line(&id, obj([("pong", Json::Bool(true))])),
            "stats" => self.ok_line(&id, self.stats_json()),
            "shutdown" => {
                self.request_shutdown();
                self.ok_line(&id, obj([("shutdown", Json::Bool(true))]))
            }
            "analyze" => match AnalyzeRequest::from_json(&value) {
                Ok(request) => self.analyze(&self.admit(request)).encode(),
                Err(e) => self.error_line(&id, e),
            },
            other => self.error_line(
                &id,
                Error::new(ErrorCode::BadRequest, format!("unknown op `{other}`")),
            ),
        }
    }

    fn analyze(&self, request: &AnalyzeRequest) -> AnalyzeResponse {
        let session = match self.session(request) {
            Ok(s) => s,
            Err(e) => {
                self.errors.fetch_add(1, Ordering::Relaxed);
                return AnalyzeResponse::err(&request.id, e);
            }
        };
        let response = lock(&session).serve(request);
        if response.result.is_err() {
            self.errors.fetch_add(1, Ordering::Relaxed);
        }
        response
    }

    fn ok_line(&self, id: &str, payload: Json) -> String {
        obj([("id", Json::Str(id.into())), ("ok", payload)]).encode()
    }

    fn error_line(&self, id: &str, error: Error) -> String {
        self.errors.fetch_add(1, Ordering::Relaxed);
        AnalyzeResponse::err(id, error).encode()
    }

    /// The one-line `overloaded` response a shed connection receives.
    fn shed_line(&self) -> String {
        self.error_line(
            "",
            Error::new(
                ErrorCode::Overloaded,
                format!(
                    "server at connection capacity ({}); retry with backoff",
                    self.config.max_connections
                ),
            ),
        )
    }

    /// The `stats` op payload: server counters, the engine counters
    /// summed over the live sessions, and the store counters, each
    /// counter under its schema name.
    fn stats_json(&self) -> Json {
        let server = self.stats();
        let mut engine = EngineStats::default();
        for slot in lock(&self.sessions).values() {
            engine.merge(&lock(&slot.analyzer).stats());
        }
        let wire = |(name, _, value): (&'static str, &str, CounterValue)| (name, value.to_json());
        let store = self.store.as_ref().map(|store| {
            let mut fields = vec![
                ("dir", Json::Str(store.dir().display().to_string())),
                ("entries", Json::UInt(store.entry_count() as u64)),
                ("bytes", Json::UInt(store.total_bytes())),
            ];
            fields.extend(store.stats().counters().map(wire));
            obj(fields)
        });
        obj([
            ("requests", Json::UInt(server.requests)),
            ("errors", Json::UInt(server.errors)),
            ("sessions", Json::UInt(server.sessions)),
            ("connections", Json::UInt(server.connections)),
            ("active_connections", Json::UInt(server.active_connections)),
            ("shed_connections", Json::UInt(server.shed_connections)),
            (
                "timed_out_connections",
                Json::UInt(server.timed_out_connections),
            ),
            ("oversized_lines", Json::UInt(server.oversized_lines)),
            ("sessions_evicted", Json::UInt(server.sessions_evicted)),
            ("worker_panics", Json::UInt(server.worker_panics)),
            ("engine", obj(engine.counters().map(wire))),
            ("store", store.unwrap_or(Json::Null)),
        ])
    }

    /// Drives one connection: reads newline-framed requests under the
    /// configured deadlines, writes one response line per request, and
    /// returns when the peer closes, a limit trips, or shutdown is
    /// requested.
    ///
    /// Reads wake every 25 ms tick to re-check the shutdown latch, so
    /// a connection observes a drain within one tick even if its peer
    /// never sends another byte. A request already buffered when shutdown
    /// lands is still answered; a *partial* line is abandoned.
    ///
    /// # Errors
    ///
    /// Propagates socket I/O failures (the connection is simply dropped).
    pub fn handle_connection<S: Transport>(&self, mut stream: S) -> io::Result<()> {
        stream.set_read_timeout(Some(READ_TICK))?;
        let line_window = (self.config.idle_timeout_ms > 0)
            .then(|| Duration::from_millis(self.config.idle_timeout_ms));
        let max_line = self.config.max_line_bytes;
        let mut buf: Vec<u8> = Vec::new();
        let mut deadline = line_window.map(|w| Instant::now() + w);
        let mut chunk = [0u8; 4096];
        loop {
            // Serve every complete line already buffered.
            while let Some(nl) = buf.iter().position(|&b| b == b'\n') {
                let line_bytes: Vec<u8> = buf.drain(..=nl).collect();
                let line = String::from_utf8_lossy(&line_bytes[..nl]);
                let line = line.trim();
                // The next request's delivery window starts now.
                deadline = line_window.map(|w| Instant::now() + w);
                if line.is_empty() {
                    continue;
                }
                // One write per line: a separate `\n` write would sit in
                // Nagle's buffer until the peer's delayed ACK (~40 ms).
                let mut response = self.handle_line(line);
                response.push('\n');
                stream.write_all(response.as_bytes())?;
                stream.flush()?;
                if self.is_shutdown() {
                    return Ok(());
                }
            }
            if max_line > 0 && buf.len() > max_line {
                self.oversized.fetch_add(1, Ordering::Relaxed);
                let response = self.error_line(
                    "",
                    Error::new(
                        ErrorCode::BadRequest,
                        format!("request line exceeds {max_line} bytes"),
                    ),
                );
                self.write_best_effort(&mut stream, &response);
                return Ok(());
            }
            match stream.read(&mut chunk) {
                Ok(0) => return Ok(()),
                Ok(n) => buf.extend_from_slice(&chunk[..n]),
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) =>
                {
                    if self.is_shutdown() {
                        return Ok(());
                    }
                    if deadline.is_some_and(|d| Instant::now() >= d) {
                        self.timed_out.fetch_add(1, Ordering::Relaxed);
                        return Ok(());
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// Writes one response line with a short write deadline and swallows
    /// failures — used on paths where the peer is being disconnected and
    /// may not be reading.
    fn write_best_effort<S: Transport>(&self, stream: &mut S, line: &str) {
        let _ = stream.set_write_timeout(Some(BEST_EFFORT_WRITE));
        let _ = stream.write_all(format!("{line}\n").as_bytes());
        let _ = stream.flush();
    }

    /// Sheds one connection at the pool bound: one `overloaded` line,
    /// best effort, then close.
    fn shed<S: Transport>(&self, mut stream: S) {
        self.shed_connections.fetch_add(1, Ordering::Relaxed);
        let line = self.shed_line();
        self.write_best_effort(&mut stream, &line);
    }

    /// Joins every finished connection thread, counting panics — a
    /// panicking connection thread is evidence, not garbage to drop on
    /// the floor.
    fn reap(&self, workers: &mut Vec<thread::JoinHandle<()>>) {
        let mut i = 0;
        while i < workers.len() {
            if workers[i].is_finished() {
                if workers.swap_remove(i).join().is_err() {
                    self.worker_panics.fetch_add(1, Ordering::Relaxed);
                }
            } else {
                i += 1;
            }
        }
    }

    /// Accept loop over TCP: one thread per connection up to the pool
    /// bound (beyond it, shed), polling the shutdown latch between
    /// accepts. Returns once shutdown is requested and in-flight
    /// connections have drained (or the drain deadline passed).
    ///
    /// # Errors
    ///
    /// Propagates listener setup failures; per-connection errors only drop
    /// that connection.
    pub fn serve_tcp(self: &Arc<Self>, listener: TcpListener) -> io::Result<()> {
        listener.set_nonblocking(true)?;
        self.accept_loop(|| match listener.accept() {
            Ok((stream, _)) => {
                stream.set_nonblocking(false).ok();
                Some(Ok(stream))
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => None,
            Err(e) => Some(Err(e)),
        })
    }

    /// Accept loop over a Unix socket; semantics as [`Server::serve_tcp`].
    ///
    /// # Errors
    ///
    /// Propagates listener setup failures.
    pub fn serve_unix(self: &Arc<Self>, listener: UnixListener) -> io::Result<()> {
        listener.set_nonblocking(true)?;
        self.accept_loop(|| match listener.accept() {
            Ok((stream, _)) => {
                stream.set_nonblocking(false).ok();
                Some(Ok(stream))
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => None,
            Err(e) => Some(Err(e)),
        })
    }

    fn accept_loop<S, A>(self: &Arc<Self>, mut accept: A) -> io::Result<()>
    where
        S: Transport + Send + 'static,
        A: FnMut() -> Option<io::Result<S>>,
    {
        let mut workers: Vec<thread::JoinHandle<()>> = Vec::new();
        let tick = Duration::from_millis(self.config.accept_tick_ms.max(1));
        while !self.is_shutdown() {
            match accept() {
                Some(Ok(stream)) => {
                    let cap = self.config.max_connections;
                    if cap > 0 && self.active.load(Ordering::Relaxed) >= cap as u64 {
                        self.shed(stream);
                    } else {
                        self.connections.fetch_add(1, Ordering::Relaxed);
                        self.active.fetch_add(1, Ordering::Relaxed);
                        let server = Arc::clone(self);
                        workers.push(thread::spawn(move || {
                            let _guard = ActiveGuard(Arc::clone(&server));
                            let _ = server.handle_connection(stream);
                        }));
                    }
                }
                Some(Err(e)) => return Err(e),
                None => thread::sleep(tick),
            }
            self.reap(&mut workers);
        }
        // Drain: in-flight connections observe the latch within one read
        // tick; join what finishes inside the deadline and abandon the
        // rest (they exit on their own moments later — the deadline
        // bounds *our* return, not their lifetime).
        let deadline = Instant::now() + Duration::from_millis(self.config.drain_ms);
        loop {
            self.reap(&mut workers);
            if workers.is_empty() || Instant::now() >= deadline {
                break;
            }
            thread::sleep(READ_TICK);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cme_core::api::CacheSpec;
    use std::io::{BufRead, BufReader};
    use std::net::SocketAddr;

    fn spec() -> CacheSpec {
        CacheSpec::new(1024, 2, 32, 4)
    }

    fn mmult(n: i64) -> String {
        format!(
            "REAL Z({n},{n}) AT 0\nREAL X({n},{n}) AT {xz}\nREAL Y({n},{n}) AT {yz}\n\
             DO i = 1, {n}\n  DO j = 1, {n}\n    DO k = 1, {n}\n      \
             Z(j,i) = Z(j,i) + X(k,i) * Y(j,k)\n    ENDDO\n  ENDDO\nENDDO\n",
            n = n,
            xz = n * n,
            yz = 2 * n * n,
        )
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("cme-serve-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    fn start_tcp(server: &Arc<Server>) -> (SocketAddr, thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let srv = Arc::clone(server);
        let handle = thread::spawn(move || {
            srv.serve_tcp(listener).unwrap();
        });
        (addr, handle)
    }

    /// Sends each line and reads one response line per request.
    fn roundtrip(addr: SocketAddr, lines: &[String]) -> Vec<String> {
        let stream = TcpStream::connect(addr).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = stream;
        let mut out = Vec::new();
        for line in lines {
            writer.write_all(line.as_bytes()).unwrap();
            writer.write_all(b"\n").unwrap();
            writer.flush().unwrap();
            let mut response = String::new();
            reader.read_line(&mut response).unwrap();
            out.push(response.trim_end().to_string());
        }
        out
    }

    fn shutdown(server: &Arc<Server>, addr: SocketAddr, listener: thread::JoinHandle<()>) {
        roundtrip(addr, &[r#"{"op":"shutdown","id":"bye"}"#.to_string()]);
        listener.join().unwrap();
        assert!(server.is_shutdown());
    }

    #[test]
    fn concurrent_tcp_clients_match_in_process_batch() {
        let dir = temp_dir("concurrent");
        let server = Server::new(ServerConfig {
            store_dir: Some(dir.clone()),
            ..ServerConfig::default()
        })
        .unwrap();
        let (addr, listener) = start_tcp(&server);

        let sizes = [6i64, 8, 10];
        let requests: Vec<AnalyzeRequest> = sizes
            .iter()
            .map(|&n| AnalyzeRequest::new(format!("n{n}"), mmult(n), spec()))
            .collect();

        // In-process reference: a fresh session, no store.
        let reference: Vec<u64> = Analyzer::new(spec().build().unwrap())
            .serve_batch(&requests)
            .into_iter()
            .map(|r| r.result.unwrap().total_misses)
            .collect();

        // Four clients send the same workload concurrently.
        let lines: Vec<String> = requests.iter().map(AnalyzeRequest::encode).collect();
        let clients: Vec<_> = (0..4)
            .map(|_| {
                let lines = lines.clone();
                thread::spawn(move || roundtrip(addr, &lines))
            })
            .collect();
        for client in clients {
            let responses = client.join().unwrap();
            for (response, (req, want)) in responses.iter().zip(requests.iter().zip(&reference)) {
                let resp = AnalyzeResponse::decode(response).unwrap();
                assert_eq!(resp.id, req.id);
                let result = resp.result.unwrap();
                assert!(result.outcome.complete);
                assert_eq!(result.total_misses, *want, "bit-identical to in-process");
            }
        }

        shutdown(&server, addr, listener);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn exhausted_requests_degrade_and_never_contaminate_the_store() {
        let dir = temp_dir("exhaust");
        let server = Server::new(ServerConfig {
            store_dir: Some(dir.clone()),
            ..ServerConfig::default()
        })
        .unwrap();
        let (addr, listener) = start_tcp(&server);

        let mut tight = AnalyzeRequest::new("tight", mmult(8), spec());
        tight.max_solves = Some(1);
        let full = AnalyzeRequest::new("full", mmult(8), spec());
        let responses = roundtrip(addr, &[tight.encode(), full.encode(), full.encode()]);

        // Degraded success: complete=false, a sound overcount, not an error.
        let degraded = AnalyzeResponse::decode(&responses[0])
            .unwrap()
            .result
            .unwrap();
        assert!(!degraded.outcome.complete);
        assert!(!degraded.outcome.reason.is_empty());

        // The exhausted result was NOT persisted: the first full-budget
        // run recomputes (store_hit=false) and lands the exact count …
        let first = AnalyzeResponse::decode(&responses[1])
            .unwrap()
            .result
            .unwrap();
        assert!(first.outcome.complete);
        assert!(!first.store_hit);
        assert!(
            degraded.total_misses >= first.total_misses,
            "sound overcount"
        );

        // … and only a *complete* artifact is served back.
        let second = AnalyzeResponse::decode(&responses[2])
            .unwrap()
            .result
            .unwrap();
        assert!(second.store_hit);
        assert_eq!(second.total_misses, first.total_misses);

        shutdown(&server, addr, listener);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn admission_control_caps_every_budget() {
        let server = Server::new(ServerConfig {
            max_budget_ms: Some(40),
            ..ServerConfig::default()
        })
        .unwrap();
        // An unbudgeted request gets the ceiling; an over-budgeted one is
        // clamped; an under-budget one keeps its own deadline.
        let unbudgeted = server.admit(AnalyzeRequest::new("a", mmult(4), spec()));
        assert_eq!(unbudgeted.budget_ms, Some(40));
        let mut over = AnalyzeRequest::new("b", mmult(4), spec());
        over.budget_ms = Some(10_000);
        assert_eq!(server.admit(over).budget_ms, Some(40));
        let mut under = AnalyzeRequest::new("c", mmult(4), spec());
        under.budget_ms = Some(7);
        assert_eq!(server.admit(under).budget_ms, Some(7));
    }

    #[test]
    fn protocol_ops_ping_stats_shutdown_and_errors() {
        let server = Server::new(ServerConfig::default()).unwrap();
        let (addr, listener) = start_tcp(&server);

        let responses = roundtrip(
            addr,
            &[
                r#"{"op":"ping","id":"p"}"#.to_string(),
                AnalyzeRequest::new("q", mmult(4), spec()).encode(),
                "this is not json".to_string(),
                r#"{"op":"frobnicate","id":"f"}"#.to_string(),
                r#"{"op":"stats","id":"s"}"#.to_string(),
            ],
        );

        let ping = json::parse(&responses[0]).unwrap();
        assert_eq!(ping.get("id").and_then(Json::as_str), Some("p"));
        assert!(ping.get("ok").and_then(|o| o.get("pong")).is_some());

        assert!(AnalyzeResponse::decode(&responses[1])
            .unwrap()
            .result
            .is_ok());

        for (line, id) in [(&responses[2], ""), (&responses[3], "f")] {
            let resp = AnalyzeResponse::decode(line).unwrap();
            assert_eq!(resp.id, id);
            assert_eq!(resp.result.unwrap_err().code, ErrorCode::BadRequest);
        }

        let stats = json::parse(&responses[4]).unwrap();
        let ok = stats.get("ok").unwrap();
        assert_eq!(ok.get("sessions").and_then(Json::as_u64), Some(1));
        assert_eq!(
            ok.get("engine")
                .and_then(|e| e.get("analyses"))
                .and_then(Json::as_u64),
            Some(1)
        );
        assert_eq!(ok.get("store"), Some(&Json::Null));
        // The overload counters are part of the stats surface.
        for key in [
            "connections",
            "active_connections",
            "shed_connections",
            "timed_out_connections",
            "oversized_lines",
            "sessions_evicted",
            "worker_panics",
        ] {
            assert!(
                ok.get(key).and_then(Json::as_u64).is_some(),
                "missing {key}"
            );
        }
        // The engine object carries every schema counter, the pre-schema
        // wire names included.
        let engine = ok.get("engine").unwrap();
        for (name, _, _) in EngineStats::default().counters() {
            assert!(engine.get(name).is_some(), "engine object lacks {name}");
        }
        for key in ["exhausted", "writebacks", "sim_classifications"] {
            assert!(engine.get(key).and_then(Json::as_u64).is_some(), "{key}");
        }
        shutdown(&server, addr, listener);

        // So does a store-backed server's store object.
        let dir = temp_dir("stats-store");
        let server = Server::new(ServerConfig {
            store_dir: Some(dir.clone()),
            ..ServerConfig::default()
        })
        .unwrap();
        server.handle_line(&AnalyzeRequest::new("q", mmult(4), spec()).encode());
        let stats = json::parse(&server.handle_line(r#"{"op":"stats","id":"s"}"#)).unwrap();
        let store = stats.get("ok").and_then(|ok| ok.get("store")).unwrap();
        for (name, _, _) in cme_core::StoreStats::default().counters() {
            assert!(
                store.get(name).and_then(Json::as_u64).is_some(),
                "store object lacks {name}"
            );
        }
        assert_eq!(store.get("writes").and_then(Json::as_u64), Some(1));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unix_socket_speaks_the_same_protocol() {
        let dir = temp_dir("unix");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sock");
        let server = Server::new(ServerConfig::default()).unwrap();
        let listener = UnixListener::bind(&path).unwrap();
        let srv = Arc::clone(&server);
        let handle = thread::spawn(move || {
            srv.serve_unix(listener).unwrap();
        });

        let stream = UnixStream::connect(&path).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = stream;
        let req = AnalyzeRequest::new("u", mmult(4), spec());
        for line in [req.encode(), r#"{"op":"shutdown","id":"z"}"#.to_string()] {
            writer.write_all(line.as_bytes()).unwrap();
            writer.write_all(b"\n").unwrap();
            writer.flush().unwrap();
            let mut response = String::new();
            reader.read_line(&mut response).unwrap();
            if let Ok(resp) = AnalyzeResponse::decode(response.trim_end()) {
                assert!(resp.result.is_ok());
            }
        }
        handle.join().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn session_map_is_lru_capped_and_counted() {
        let server = Server::new(ServerConfig {
            max_sessions: 2,
            ..ServerConfig::default()
        })
        .unwrap();
        // Three distinct geometries through a 2-session cap.
        for size in [1024i64, 2048, 4096] {
            let mut s = spec();
            s.size_bytes = size;
            let req = AnalyzeRequest::new(format!("g{size}"), mmult(4), s);
            let resp = AnalyzeResponse::decode(&server.handle_line(&req.encode())).unwrap();
            assert!(resp.result.is_ok());
        }
        let stats = server.stats();
        assert_eq!(stats.sessions, 2);
        assert_eq!(stats.sessions_evicted, 1);
        // The evicted geometry still answers — a fresh session replaces it.
        let req = AnalyzeRequest::new("again", mmult(4), spec());
        let resp = AnalyzeResponse::decode(&server.handle_line(&req.encode())).unwrap();
        assert!(resp.result.is_ok());
    }

    #[test]
    fn idle_connection_cannot_stall_a_drain() {
        // Regression for the PR 6 shutdown lag: a connected client that
        // never sends a complete line used to block the accept loop's
        // join forever. With shutdown-aware timed reads the listener must
        // return within a read tick + drain slack.
        let server = Server::new(ServerConfig {
            drain_ms: 2_000,
            ..ServerConfig::default()
        })
        .unwrap();
        let (addr, listener) = start_tcp(&server);
        let idle = TcpStream::connect(addr).unwrap();
        // Half a request, never terminated.
        (&idle).write_all(b"{\"op\":\"pi").unwrap();
        thread::sleep(Duration::from_millis(100));
        let started = Instant::now();
        server.request_shutdown();
        listener.join().unwrap();
        assert!(
            started.elapsed() < Duration::from_secs(3),
            "drain took {:?}",
            started.elapsed()
        );
        drop(idle);
    }
}
