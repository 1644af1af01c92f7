//! The `cme-serve` binary: provisions a [`Server`] from command-line
//! flags and runs the TCP and/or Unix-socket accept loops until a
//! `shutdown` request or a termination signal arrives, then drains
//! in-flight connections within the `--drain-ms` deadline and exits
//! cleanly.

#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

use cme_serve::{Server, ServerConfig};
use std::io;
use std::net::TcpListener;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

const USAGE: &str = "\
cme-serve: long-running CME analysis service (JSON line protocol)

USAGE:
    cme-serve [--tcp ADDR] [--unix PATH] [OPTIONS]

At least one of --tcp / --unix is required. SIGTERM/SIGINT (or the wire
`shutdown` op) stop accepting, drain in-flight connections for at most
--drain-ms, and exit 0.

OPTIONS:
    --tcp ADDR             Listen on a TCP address (e.g. 127.0.0.1:7143)
    --unix PATH            Listen on a Unix socket at PATH (a stale
                           socket is reclaimed only after a probe shows
                           no live server behind it)
    --store DIR            Persistent artifact store directory
    --store-max-bytes N    Store size bound in bytes (default 256 MiB)
    --threads N            Worker threads per analysis (default 1)
    --max-budget-ms N      Admission ceiling: clamp every request's
                           wall-clock budget to N milliseconds
    --idle-timeout-ms N    Close a connection that takes longer than N ms
                           to deliver a complete request line
                           (default 30000, 0 = off)
    --max-line-bytes N     Reject request lines longer than N bytes
                           (default 4194304, 0 = off)
    --max-connections N    Shed connections beyond N with an `overloaded`
                           response (default 128, 0 = off)
    --max-sessions N       LRU cap on per-geometry analyzer sessions
                           (default 32, 0 = off)
    --accept-tick-ms N     Accept-loop poll tick (default 5)
    --drain-ms N           Shutdown drain deadline (default 5000)
    --help                 Show this help
";

/// Set by the SIGTERM/SIGINT handler; polled by the shutdown monitor.
static SIGNALED: AtomicBool = AtomicBool::new(false);

/// The handler itself only stores to an atomic — the one action that is
/// unconditionally async-signal-safe.
extern "C" fn on_signal(_signum: i32) {
    SIGNALED.store(true, Ordering::SeqCst);
}

/// Routes SIGTERM and SIGINT to [`on_signal`]. `std` exposes no signal
/// API, so this declares `signal(2)` directly; the numbers are the
/// POSIX-mandated values on Linux.
fn install_signal_handlers() {
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    // SAFETY: `signal` is the C library's own entry point, called with a
    // valid extern "C" fn pointer whose body is async-signal-safe.
    let handler = on_signal as extern "C" fn(i32) as *const () as usize;
    unsafe {
        signal(SIGINT, handler);
        signal(SIGTERM, handler);
    }
}

/// Decides whether a Unix socket path may be (re)bound. An existing
/// socket file is probed with a connect: a live server answering on it
/// is a hard error (never steal a running service's socket), a refused
/// connection marks it stale and safe to unlink.
fn claim_unix_socket(path: &Path) -> Result<(), String> {
    if !path.exists() {
        return Ok(());
    }
    match UnixStream::connect(path) {
        Ok(_) => Err(format!(
            "a live server is already listening on {}; refusing to start",
            path.display()
        )),
        Err(e) if e.kind() == io::ErrorKind::ConnectionRefused => {
            // Nobody home: a crashed server left the file behind.
            std::fs::remove_file(path)
                .map_err(|e| format!("removing stale socket {}: {e}", path.display()))
        }
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(()),
        Err(e) => Err(format!(
            "probing {}: {e}; not removing a socket I cannot classify",
            path.display()
        )),
    }
}

struct Args {
    tcp: Option<String>,
    unix: Option<PathBuf>,
    config: ServerConfig,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        tcp: None,
        unix: None,
        config: ServerConfig::default(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("missing value for {name}"));
        fn parse<T: std::str::FromStr>(name: &str, v: String) -> Result<T, String>
        where
            T::Err: std::fmt::Display,
        {
            v.parse().map_err(|e| format!("{name}: {e}"))
        }
        match flag.as_str() {
            "--tcp" => args.tcp = Some(value("--tcp")?),
            "--unix" => args.unix = Some(PathBuf::from(value("--unix")?)),
            "--store" => args.config.store_dir = Some(PathBuf::from(value("--store")?)),
            "--store-max-bytes" => {
                args.config.store_max_bytes =
                    Some(parse("--store-max-bytes", value("--store-max-bytes")?)?)
            }
            "--threads" => args.config.threads = parse("--threads", value("--threads")?)?,
            "--max-budget-ms" => {
                args.config.max_budget_ms =
                    Some(parse("--max-budget-ms", value("--max-budget-ms")?)?)
            }
            "--idle-timeout-ms" => {
                args.config.idle_timeout_ms =
                    parse("--idle-timeout-ms", value("--idle-timeout-ms")?)?
            }
            "--max-line-bytes" => {
                args.config.max_line_bytes = parse("--max-line-bytes", value("--max-line-bytes")?)?
            }
            "--max-connections" => {
                args.config.max_connections =
                    parse("--max-connections", value("--max-connections")?)?
            }
            "--max-sessions" => {
                args.config.max_sessions = parse("--max-sessions", value("--max-sessions")?)?
            }
            "--accept-tick-ms" => {
                args.config.accept_tick_ms = parse("--accept-tick-ms", value("--accept-tick-ms")?)?
            }
            "--drain-ms" => args.config.drain_ms = parse("--drain-ms", value("--drain-ms")?)?,
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if args.tcp.is_none() && args.unix.is_none() {
        return Err("at least one of --tcp / --unix is required".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            if msg.is_empty() {
                print!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            eprintln!("cme-serve: {msg}");
            eprint!("{USAGE}");
            return ExitCode::from(2);
        }
    };

    let server = match Server::new(args.config) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("cme-serve: {e}");
            return ExitCode::from(e.code.exit_code() as u8);
        }
    };

    install_signal_handlers();
    // Shutdown monitor: turns a signal into the same latch the wire
    // `shutdown` op sets, then exits. The accept loops do the draining.
    {
        let srv = Arc::clone(&server);
        thread::spawn(move || loop {
            if SIGNALED.load(Ordering::SeqCst) {
                srv.request_shutdown();
                return;
            }
            if srv.is_shutdown() {
                return;
            }
            thread::sleep(Duration::from_millis(25));
        });
    }

    let mut listeners: Vec<thread::JoinHandle<std::io::Result<()>>> = Vec::new();
    if let Some(path) = &args.unix {
        if let Err(msg) = claim_unix_socket(path) {
            eprintln!("cme-serve: {msg}");
            return ExitCode::from(31);
        }
        match UnixListener::bind(path) {
            Ok(listener) => {
                println!("cme-serve: listening on unix:{}", path.display());
                let srv = Arc::clone(&server);
                listeners.push(thread::spawn(move || srv.serve_unix(listener)));
            }
            Err(e) => {
                eprintln!("cme-serve: unix bind {}: {e}", path.display());
                return ExitCode::from(31);
            }
        }
    }
    if let Some(addr) = &args.tcp {
        match TcpListener::bind(addr) {
            Ok(listener) => {
                // The bound address (with the resolved port for `:0`).
                match listener.local_addr() {
                    Ok(local) => println!("cme-serve: listening on tcp:{local}"),
                    Err(_) => println!("cme-serve: listening on tcp:{addr}"),
                }
                let srv = Arc::clone(&server);
                listeners.push(thread::spawn(move || srv.serve_tcp(listener)));
            }
            Err(e) => {
                eprintln!("cme-serve: tcp bind {addr}: {e}");
                return ExitCode::from(31);
            }
        }
    }

    let mut code = ExitCode::SUCCESS;
    for listener in listeners {
        match listener.join() {
            Ok(Ok(())) => {}
            Ok(Err(e)) => {
                eprintln!("cme-serve: listener: {e}");
                code = ExitCode::from(31);
            }
            Err(_) => {
                eprintln!("cme-serve: listener thread panicked");
                code = ExitCode::from(50);
            }
        }
    }
    if let Some(path) = &args.unix {
        std::fs::remove_file(path).ok();
    }
    let stats = server.stats();
    // Best-effort epilogue: a supervisor may already have closed our
    // stdout, and a clean drain must still exit 0.
    use std::io::Write as _;
    let _ = writeln!(
        std::io::stdout(),
        "cme-serve: drained and shut down ({} requests, {} connections, {} shed)",
        stats.requests,
        stats.connections,
        stats.shed_connections
    );
    code
}
