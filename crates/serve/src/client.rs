//! Resilient line-protocol client for `cme-serve`.
//!
//! The server side of the protocol is deliberately blunt with
//! misbehaving or unlucky peers: it sheds connections at the pool bound
//! with one [`ErrorCode::Overloaded`] line, closes dribblers at the
//! request-line deadline, and drops everything mid-drain. A correct
//! client therefore needs three things a bare `TcpStream` does not give
//! it:
//!
//! - **deadlines** — a connect timeout and a per-response read timeout,
//!   so a wedged server costs bounded time, not a hang;
//! - **bounded retry with seeded jitter** — connect failures, mid-
//!   exchange I/O errors, and `overloaded` responses back off
//!   exponentially (`backoff_base_ms · 2^attempt`, capped, jittered to
//!   break retry convoys) for at most [`ClientConfig::max_retries`]
//!   attempts;
//! - **idempotency discipline** — a request is re-*sent* only when the
//!   caller marked it idempotent ([`Idempotency::Idempotent`]). A
//!   non-idempotent request (the wire `shutdown` op) is retried only
//!   while it provably never reached the server (connect-phase
//!   failures); once written, its failure is the caller's to interpret.
//!   `analyze`/`ping`/`stats` are always safe to resend — an `analyze`
//!   replay is answered from the same memoized session or store entry.
//!
//! Both `cmetool client` and the service integration tests speak through
//! this module, so there is exactly one implementation of the protocol's
//! client side.

use cme_core::api::json::{self, Json};
use cme_core::api::ErrorCode;
use std::io::{self, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::time::Duration;

/// Where the server lives.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Endpoint {
    /// A TCP `host:port` address.
    Tcp(String),
    /// A Unix-domain socket path.
    Unix(PathBuf),
}

/// Whether a request may be re-sent after it was already written once.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Idempotency {
    /// Safe to resend (`analyze`, `ping`, `stats`): a replay converges to
    /// the same answer.
    Idempotent,
    /// Must reach the server at most once (`shutdown`): retried only on
    /// failures that provably precede the send.
    NonIdempotent,
}

/// Deadlines and retry policy of a [`Client`].
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Server address.
    pub endpoint: Endpoint,
    /// TCP connect deadline in milliseconds (`0` = OS default).
    pub connect_timeout_ms: u64,
    /// Per-response read deadline in milliseconds (`0` = none). Analyses
    /// run under the server's budget, so this should comfortably exceed
    /// the request budget.
    pub read_timeout_ms: u64,
    /// Max *re*-attempts after the first try.
    pub max_retries: u32,
    /// First backoff sleep in milliseconds; doubles per attempt.
    pub backoff_base_ms: u64,
    /// Backoff ceiling in milliseconds.
    pub backoff_cap_ms: u64,
    /// Seed of the jitter stream (deterministic tests; vary per process
    /// in production so retry convoys decorrelate).
    pub retry_seed: u64,
}

impl ClientConfig {
    /// A production-shaped default policy for the given endpoint:
    /// 2 s connect / 60 s read deadlines, 4 retries from 50 ms doubling
    /// to a 2 s cap.
    pub fn new(endpoint: Endpoint) -> Self {
        ClientConfig {
            endpoint,
            connect_timeout_ms: 2_000,
            read_timeout_ms: 60_000,
            max_retries: 4,
            backoff_base_ms: 50,
            backoff_cap_ms: 2_000,
            retry_seed: 0x5eed,
        }
    }
}

/// Retry/traffic counters of a [`Client`] — tests assert on these to
/// prove a recovery was a *transparent retry*, not luck.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClientStats {
    /// Exchanges requested by the caller.
    pub exchanges: u64,
    /// Extra attempts beyond each exchange's first.
    pub retries: u64,
    /// Connections established.
    pub connects: u64,
    /// `overloaded` responses absorbed by backoff.
    pub overloaded: u64,
}

/// One live connection plus its read buffer (responses can arrive in
/// fragments; bytes past the first newline belong to no one and are
/// discarded with the connection).
struct Conn {
    stream: Box<dyn Stream>,
    buf: Vec<u8>,
}

/// Object-safe subset of socket behavior the client needs.
trait Stream: Read + Write + Send {
    fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()>;
}

impl Stream for TcpStream {
    fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        TcpStream::set_read_timeout(self, timeout)
    }
}

impl Stream for UnixStream {
    fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        UnixStream::set_read_timeout(self, timeout)
    }
}

/// A reconnecting, retrying line-protocol client. Construction is free;
/// the first [`Client::exchange`] connects.
pub struct Client {
    config: ClientConfig,
    conn: Option<Conn>,
    rng: u64,
    stats: ClientStats,
}

impl std::fmt::Debug for Client {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Client")
            .field("config", &self.config)
            .field("connected", &self.conn.is_some())
            .field("stats", &self.stats)
            .finish()
    }
}

/// Phase an exchange attempt failed in — the retry decision hinges on
/// whether the request bytes could have reached the server.
enum AttemptError {
    /// Failed before any request byte was written; always retryable.
    BeforeSend(io::Error),
    /// Failed after (some of) the request was written; retryable only
    /// for idempotent requests.
    AfterSend(io::Error),
}

impl Client {
    /// A client over the given policy. Does not connect yet.
    pub fn new(config: ClientConfig) -> Self {
        Client {
            rng: config.retry_seed | 1,
            config,
            conn: None,
            stats: ClientStats::default(),
        }
    }

    /// Retry/traffic counters so far.
    pub fn stats(&self) -> ClientStats {
        self.stats
    }

    /// Sends one request line and returns the one response line,
    /// reconnecting and retrying per the configured policy.
    ///
    /// # Errors
    ///
    /// The last attempt's I/O error once the retry budget is exhausted
    /// (or immediately, for a non-idempotent request that was already
    /// sent).
    pub fn exchange(&mut self, line: &str, idempotency: Idempotency) -> io::Result<String> {
        self.stats.exchanges += 1;
        let mut attempt: u32 = 0;
        loop {
            let out_of_budget = attempt >= self.config.max_retries;
            match self.attempt(line) {
                Ok(response) => {
                    if decoded_overloaded(&response) {
                        self.stats.overloaded += 1;
                        // The server answered but refused admission; the
                        // request was not processed, so even a
                        // non-idempotent request may safely try again.
                        self.conn = None;
                        if out_of_budget {
                            return Ok(response);
                        }
                    } else {
                        return Ok(response);
                    }
                }
                Err(AttemptError::BeforeSend(e)) => {
                    if out_of_budget {
                        return Err(e);
                    }
                }
                Err(AttemptError::AfterSend(e)) => {
                    if out_of_budget || idempotency == Idempotency::NonIdempotent {
                        return Err(e);
                    }
                }
            }
            self.stats.retries += 1;
            self.backoff(attempt);
            attempt += 1;
        }
    }

    /// One connect-send-receive attempt.
    fn attempt(&mut self, line: &str) -> Result<String, AttemptError> {
        let conn = match self.conn.take() {
            Some(conn) => conn,
            None => {
                let conn = self.connect().map_err(AttemptError::BeforeSend)?;
                self.stats.connects += 1;
                conn
            }
        };
        let conn = self.conn.insert(conn);
        // The line and its newline go out in one write, so Nagle never
        // holds the newline back waiting for the server's delayed ACK.
        let send = (|| -> io::Result<()> {
            conn.stream.write_all(format!("{line}\n").as_bytes())?;
            conn.stream.flush()
        })();
        if let Err(e) = send {
            self.conn = None;
            return Err(AttemptError::AfterSend(e));
        }
        match read_line(conn) {
            Ok(response) => Ok(response),
            Err(e) => {
                self.conn = None;
                Err(AttemptError::AfterSend(e))
            }
        }
    }

    fn connect(&self) -> io::Result<Conn> {
        let stream: Box<dyn Stream> = match &self.config.endpoint {
            Endpoint::Tcp(addr) => {
                let resolved = addr.to_socket_addrs()?.next().ok_or_else(|| {
                    io::Error::new(
                        io::ErrorKind::InvalidInput,
                        format!("address `{addr}` resolved to nothing"),
                    )
                })?;
                let stream = if self.config.connect_timeout_ms > 0 {
                    TcpStream::connect_timeout(
                        &resolved,
                        Duration::from_millis(self.config.connect_timeout_ms),
                    )?
                } else {
                    TcpStream::connect(resolved)?
                };
                Box::new(stream)
            }
            Endpoint::Unix(path) => Box::new(UnixStream::connect(path)?),
        };
        let read_timeout = (self.config.read_timeout_ms > 0)
            .then(|| Duration::from_millis(self.config.read_timeout_ms));
        stream.set_read_timeout(read_timeout)?;
        Ok(Conn {
            stream,
            buf: Vec::new(),
        })
    }

    /// Sleeps `base · 2^attempt` capped, jittered into the upper half of
    /// the window so concurrent retriers decorrelate.
    fn backoff(&mut self, attempt: u32) {
        let base = self.config.backoff_base_ms.max(1);
        let ceiling = self.config.backoff_cap_ms.max(base);
        let full = base.saturating_mul(1u64 << attempt.min(20)).min(ceiling);
        // xorshift64*: cheap deterministic jitter stream.
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        let jittered = full / 2 + self.rng.wrapping_mul(0x2545_f491_4f6c_dd1d) % (full / 2 + 1);
        std::thread::sleep(Duration::from_millis(jittered));
    }
}

/// Reads up to and including one `\n`, honoring the socket read timeout.
fn read_line(conn: &mut Conn) -> io::Result<String> {
    let mut chunk = [0u8; 4096];
    loop {
        if let Some(nl) = conn.buf.iter().position(|&b| b == b'\n') {
            let line: Vec<u8> = conn.buf.drain(..=nl).collect();
            return Ok(String::from_utf8_lossy(&line[..nl]).trim_end().to_string());
        }
        match conn.stream.read(&mut chunk) {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "server closed the connection mid-response",
                ))
            }
            Ok(n) => conn.buf.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "timed out waiting for the response line",
                ))
            }
            Err(e) => return Err(e),
        }
    }
}

/// True when a response line is the server's coded `overloaded` refusal.
fn decoded_overloaded(line: &str) -> bool {
    json::parse(line).is_ok_and(|v| {
        v.get("error")
            .and_then(|e| e.get("code"))
            .and_then(Json::as_str)
            == Some(ErrorCode::Overloaded.as_str())
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overloaded_refusals_are_recognized_and_nothing_else_is() {
        let shed = r#"{"id":"","error":{"code":"overloaded","message":"busy"}}"#;
        assert!(decoded_overloaded(shed));
        for line in [
            r#"{"id":"a","ok":{"pong":true}}"#,
            r#"{"id":"a","error":{"code":"bad-request","message":"no"}}"#,
            "not json at all",
        ] {
            assert!(!decoded_overloaded(line), "{line}");
        }
    }

    #[test]
    fn backoff_is_bounded_and_deterministic_per_seed() {
        let cfg = ClientConfig {
            backoff_base_ms: 1,
            backoff_cap_ms: 4,
            ..ClientConfig::new(Endpoint::Tcp("127.0.0.1:1".into()))
        };
        // Total worst-case sleep over 5 attempts ≤ 5 * cap = 20ms.
        let mut c = Client::new(cfg);
        let start = std::time::Instant::now();
        for attempt in 0..5 {
            c.backoff(attempt);
        }
        assert!(start.elapsed() < Duration::from_millis(200));
    }

    #[test]
    fn nonidempotent_requests_fail_fast_once_sent() {
        // A server that accepts, reads the request, then slams the door:
        // the send succeeds, the read fails — a NonIdempotent exchange
        // must surface the error without a resend.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            for _ in 0..2 {
                let (mut s, _) = listener.accept().unwrap();
                let mut one = [0u8; 1];
                let _ = s.read(&mut one);
                drop(s);
            }
        });
        let mut cfg = ClientConfig::new(Endpoint::Tcp(addr.to_string()));
        cfg.max_retries = 3;
        cfg.backoff_base_ms = 1;
        cfg.backoff_cap_ms = 2;
        let mut client = Client::new(cfg);
        let err = client
            .exchange(r#"{"op":"shutdown"}"#, Idempotency::NonIdempotent)
            .unwrap_err();
        assert!(
            matches!(
                err.kind(),
                io::ErrorKind::UnexpectedEof
                    | io::ErrorKind::ConnectionReset
                    | io::ErrorKind::BrokenPipe
            ),
            "{err}"
        );
        assert_eq!(client.stats().retries, 0, "shutdown must not double-fire");
        // The same failure on an idempotent exchange does retry.
        let _ = client.exchange(r#"{"op":"ping"}"#, Idempotency::Idempotent);
        assert!(client.stats().retries > 0);
        server.join().unwrap();
    }
}
