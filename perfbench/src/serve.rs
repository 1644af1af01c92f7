//! `serve-replay`: a `cme_serve::Server` on loopback with a fresh
//! `ArtifactStore`, driven closed-loop by two connections replaying a
//! seeded request mix — the only workload that exercises the wire codec,
//! per-model sessions, the store and the model simulator.

use crate::harness::{median, quantile, Ledger, Pass, Row, Workload};
use crate::rng::Rng;
use crate::trace::Tracer;
use cme_cache::{CacheConfig, PolicyKind};
use cme_core::api::json::{self, Json};
use cme_core::api::{AnalyzeRequest, AnalyzeResponse, CacheSpec, L2Spec};
use cme_core::{Analyzer, ArtifactStore};
use cme_ir::{ArrayId, LoopNest};
use cme_serve::{Server, ServerConfig};
use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Barrier};
use std::thread::{self, JoinHandle};
use std::time::Instant;

/// Closed-loop clients (one connection each), at most `nproc` = 2.
const CONNECTIONS: usize = 2;
/// Each corpus case is sent this many times per pass.
const CORPUS_REPEATS: usize = 2;
/// Fresh layout variants per kernel per pass: cycling through 1-, 2- and
/// 4-way caches, the last two with a non-LRU policy and with an L2
/// (answered by the governed simulator replay, `sim-exact`).
const VARIANTS_PER_KERNEL: usize = 8;
/// Repeats per kernel per pass — store reads beside the writes: this
/// many baseline variants and one model variant, drawn from the seed.
const BASELINE_REPEATS: usize = 3;

/// Small kernels for layout variants: each request analyzes in a few
/// milliseconds; the round trip is dominated by the wire.
const VARIANTS: &[(&str, i64)] = &[
    ("mmult", 24),
    ("adi", 48),
    ("jacobi2d", 48),
    ("tom", 64),
    ("trans", 64),
    ("sor", 48),
    ("lu", 32),
    ("gauss", 24),
    ("stencil3d", 16),
    ("syr2k", 24),
];

fn corpus_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../tests/corpus")
}

fn scratch_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Loads the corpus cases that the wire format can carry, sorted by file
/// name so the mix depends on the seed alone.
fn load_corpus() -> Result<Vec<AnalyzeRequest>, String> {
    let dir = corpus_dir();
    let mut paths: Vec<PathBuf> = std::fs::read_dir(&dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "cme"))
        .collect();
    paths.sort();
    let mut out = Vec::new();
    for p in paths {
        let text = std::fs::read_to_string(&p).map_err(|e| format!("{}: {e}", p.display()))?;
        let stem = p.file_stem().and_then(|s| s.to_str()).unwrap_or("case");
        let case = cme_diffcheck::corpus::parse_case(stem, &text)?;
        if let Some(req) = case.to_request() {
            out.push(req);
        }
    }
    if out.is_empty() {
        return Err(format!("no corpus cases under {}", dir.display()));
    }
    Ok(out)
}

/// Inserts `pad` elements before array `array` and every array above it,
/// so no two arrays overlap.
fn padded(nest: &LoopNest, array: usize, pad: i64) -> LoopNest {
    let mut out = nest.clone();
    let pivot = nest.array(ArrayId::from_index(array)).base();
    for i in 0..nest.arrays().len() {
        let a = out.array_mut(ArrayId::from_index(i));
        if a.base() >= pivot {
            let b = a.base();
            a.set_base(b + pad);
        }
    }
    out
}

/// The pass's requests. The requests themselves are fixed, so every seed
/// asks for the same work; the seed draws the policy of the non-LRU
/// variants, which variants repeat, and the order.
fn request_mix(seed: u64, corpus: &[AnalyzeRequest]) -> Result<Vec<AnalyzeRequest>, String> {
    let mut rng = Rng::new(seed, "serve-mix");
    let mut out: Vec<AnalyzeRequest> = Vec::new();
    for _ in 0..CORPUS_REPEATS {
        out.extend(corpus.iter().cloned());
    }
    for &(kernel, n) in VARIANTS {
        let mut variants = Vec::with_capacity(VARIANTS_PER_KERNEL);
        let base = cme_kernels::kernel_by_name(kernel, n).ok_or("unknown kernel")?;
        for j in 0..VARIANTS_PER_KERNEL {
            // Pads spread over 0..4096 elements, cycling the padded array.
            let array = j % base.arrays().len();
            let nest = padded(&base, array, (j as i64 * 509 + 131) % 4096);
            let mut spec = CacheSpec::new(8192, [1, 2, 4][j % 3], 32, 4);
            if j + 2 == VARIANTS_PER_KERNEL {
                spec.policy = [PolicyKind::Fifo, PolicyKind::Plru][rng.below(2) as usize];
            } else if j + 1 == VARIANTS_PER_KERNEL {
                spec.l2 = Some(L2Spec {
                    size_bytes: 65536,
                    assoc: 8,
                });
            }
            variants.push(
                AnalyzeRequest::from_nest("", &nest, spec)
                    .ok_or_else(|| format!("{kernel} has no textual form"))?,
            );
        }
        let baseline = (VARIANTS_PER_KERNEL - 2) as u64;
        for _ in 0..BASELINE_REPEATS {
            out.push(variants[rng.below(baseline) as usize].clone());
        }
        out.push(variants[(baseline + rng.below(2)) as usize].clone());
        out.extend(variants);
    }
    rng.shuffle(&mut out);
    for (k, req) in out.iter_mut().enumerate() {
        req.id = format!("r{k}");
    }
    Ok(out)
}

/// A server listening on loopback, its store, and the client sockets.
struct Running {
    server: Arc<Server>,
    store: Arc<ArtifactStore>,
    store_dir: PathBuf,
    accept: Option<JoinHandle<io::Result<()>>>,
    clients: Vec<TcpStream>,
}

impl Running {
    fn start(store_dir: PathBuf, listen: bool) -> Result<Self, String> {
        let _ = std::fs::remove_dir_all(&store_dir);
        let store = Arc::new(ArtifactStore::open(&store_dir).map_err(|e| e.to_string())?);
        let server = Server::with_store(ServerConfig::default(), Arc::clone(&store));
        let mut running = Running {
            server,
            store,
            store_dir,
            accept: None,
            clients: Vec::new(),
        };
        if listen {
            let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
            let addr = listener.local_addr().map_err(|e| e.to_string())?;
            let server = Arc::clone(&running.server);
            running.accept = Some(thread::spawn(move || server.serve_tcp(listener)));
            for _ in 0..CONNECTIONS {
                let mut c = TcpStream::connect(addr).map_err(|e| e.to_string())?;
                c.set_nodelay(true).map_err(|e| e.to_string())?;
                // One ping per connection: the connection is live before
                // anything is timed.
                let line = round_trip(&mut c, "{\"op\":\"ping\",\"id\":\"warm\"}")
                    .map_err(|e| e.to_string())?;
                if !line.contains("pong") {
                    return Err(format!("unexpected ping response {line}"));
                }
                running.clients.push(c);
            }
        }
        Ok(running)
    }

    /// Store and server counters after a pass, as span counts.
    fn counts(&self) -> Vec<(&'static str, u64)> {
        let store = self.store.stats();
        let server = self.server.stats();
        let engine = json::parse(&self.server.handle_line("{\"op\":\"stats\",\"id\":\"s\"}"))
            .ok()
            .and_then(|v| v.get("ok").and_then(|ok| ok.get("engine")).cloned())
            .unwrap_or(Json::Null);
        let engine_u64 = |k: &str| engine.get(k).and_then(Json::as_u64).unwrap_or(0);
        vec![
            ("store_lookup_hits", store.hits),
            ("store_lookup_misses", store.misses),
            ("store_writes", store.writes),
            ("store_bytes", self.store.total_bytes()),
            ("shed", server.shed_connections),
            ("sessions", server.sessions),
            ("sim_classifications", engine_u64("sim_classifications")),
            (
                "exhausted",
                engine_u64("exhausted") + engine_u64("sim_exhausted"),
            ),
        ]
    }
}

impl Drop for Running {
    fn drop(&mut self) {
        self.server.request_shutdown();
        self.clients.clear();
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        let _ = std::fs::remove_dir_all(&self.store_dir);
    }
}

fn round_trip(conn: &mut TcpStream, line: &str) -> io::Result<String> {
    let mut msg = String::with_capacity(line.len() + 1);
    msg.push_str(line);
    msg.push('\n');
    conn.write_all(msg.as_bytes())?;
    let mut reader = BufReader::new(&*conn);
    let mut response = String::new();
    reader.read_line(&mut response)?;
    if !response.ends_with('\n') {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "connection closed",
        ));
    }
    response.pop();
    Ok(response)
}

/// One client's results: `(request index, sent, received, response)`.
type Trips = Vec<(usize, Instant, Instant, io::Result<String>)>;

pub struct ServeReplay {
    requests: Vec<AnalyzeRequest>,
    lines: Vec<String>,
    root: PathBuf,
    running: Option<Running>,
    passes: u64,
    /// Expected response per request (id blanked), from in-process
    /// `Analyzer::serve` on a fresh session.
    reference: HashMap<String, String>,
}

/// A response line with the fields that legitimately differ between the
/// server and an in-process session blanked: the echoed id and the
/// store-hit flag.
fn normalized(line: &str) -> Result<String, String> {
    let mut r = AnalyzeResponse::decode(line).map_err(|e| format!("undecodable response: {e}"))?;
    r.id.clear();
    if let Ok(result) = &mut r.result {
        result.store_hit = false;
    }
    Ok(r.encode())
}

impl ServeReplay {
    fn store_dir(&self, pass: u64) -> PathBuf {
        self.root.join(format!("store-{pass}"))
    }

    fn expected(&mut self, req: &AnalyzeRequest) -> Result<String, String> {
        let mut blank = req.clone();
        blank.id.clear();
        let key = blank.encode();
        if let Some(hit) = self.reference.get(&key) {
            return Ok(hit.clone());
        }
        let model = blank.cache_model().map_err(|e| e.to_string())?;
        let response = Analyzer::with_model(model).serve(&blank);
        let line = normalized(&response.encode())?;
        self.reference.insert(key, line.clone());
        Ok(line)
    }
}

impl Workload for ServeReplay {
    const NAME: &'static str = "serve-replay";
    const OP: &'static str = "request round trip";
    const TAIL: f64 = 0.9;

    fn setup(seed: u64) -> Result<Self, String> {
        let corpus = load_corpus()?;
        let requests = request_mix(seed, &corpus)?;
        let lines = requests.iter().map(AnalyzeRequest::encode).collect();
        let root = scratch_dir().join(format!("serve-{}", std::process::id()));
        std::fs::create_dir_all(&root).map_err(|e| e.to_string())?;
        let mut w = ServeReplay {
            requests,
            lines,
            root,
            running: None,
            passes: 0,
            reference: HashMap::new(),
        };
        w.running = Some(Running::start(w.store_dir(0), true)?);
        Ok(w)
    }

    fn pass(&mut self, tracer: &mut Tracer, ledger: &mut Ledger) -> Pass {
        let mut pass = Pass::default();
        // Every pass starts from an empty store and fresh sessions, so
        // each pass does the same work and its counts repeat exactly.
        if self.passes > 0 || self.running.is_none() {
            self.running = None;
            match Running::start(self.store_dir(self.passes), true) {
                Ok(r) => self.running = Some(r),
                Err(e) => {
                    ledger.op(vec![format!("server start: {e}")]);
                    return pass;
                }
            }
        }
        self.passes += 1;
        let Some(running) = self.running.as_mut() else {
            return pass;
        };
        // The server builds each session as `Analyzer::with_model(..)
        // .threads(config.threads)`; an analyzer configured the same way
        // reports the pool width those sessions run at.
        let width = CacheConfig::new(8192, 1, 32, 4).map(|c| {
            Analyzer::new(c)
                .threads(running.server.config().threads)
                .thread_count()
        });
        pass.threads.extend(width);

        let pass_span = tracer.enter("serve.pass", self.passes);
        let barrier = Barrier::new(CONNECTIONS + 1);
        let lines = &self.lines;
        let (start, trips) = thread::scope(|s| {
            let handles: Vec<_> = running
                .clients
                .iter_mut()
                .enumerate()
                .map(|(c, conn)| {
                    let barrier = &barrier;
                    s.spawn(move || {
                        let mut trips: Trips = Vec::new();
                        barrier.wait();
                        for k in (c..lines.len()).step_by(CONNECTIONS) {
                            let sent = Instant::now();
                            let response = round_trip(conn, &lines[k]);
                            trips.push((k, sent, Instant::now(), response));
                        }
                        trips
                    })
                })
                .collect();
            barrier.wait();
            let start = Instant::now();
            let trips: Vec<Trips> = handles
                .into_iter()
                .map(|h| h.join().unwrap_or_default())
                .collect();
            (start, trips)
        });
        pass.wall_s = start.elapsed().as_secs_f64();
        let mut trips: Vec<_> = trips.into_iter().flatten().collect();
        trips.sort_by_key(|t| t.0);
        for (k, sent, received, _) in &trips {
            tracer.record("serve.request", *k as u64, *sent, *received);
            pass.op_ms
                .push(received.duration_since(*sent).as_secs_f64() * 1e3);
        }
        tracer.exit(pass_span, running.counts());
        let store = running.store.stats();
        pass.count("store.hits", store.hits);
        pass.count("store.writes", store.writes);
        pass.count("requests", trips.len() as u64);
        if tracer.enabled() {
            // The same requests through `handle_line` in-process, on a
            // fresh server and store: the round trip minus this is the
            // wire and queueing cost.
            let dir = self.store_dir(u64::MAX - self.passes);
            if let Ok(local) = Running::start(dir, false) {
                for (k, line) in self.lines.iter().enumerate() {
                    let t = Instant::now();
                    let _ = local.server.handle_line(line);
                    tracer.record("serve.handle", k as u64, t, Instant::now());
                }
            }
        }

        let mut missing = vec![true; self.requests.len()];
        for (k, _, _, response) in trips {
            missing[k] = false;
            let req = self.requests[k].clone();
            let problems = match (response, self.expected(&req)) {
                (Err(e), _) => vec![format!("{}: transport error {e}", req.id)],
                (_, Err(e)) => vec![format!("{}: reference failed {e}", req.id)],
                (Ok(line), Ok(expected)) => match normalized(&line) {
                    Ok(got) if got == expected => {
                        if let Ok(r) = AnalyzeResponse::decode(&line) {
                            if let Ok(result) = r.result {
                                pass.count("total_misses", result.total_misses);
                                pass.count(
                                    "vectors",
                                    result.per_ref.iter().map(|p| p.vectors_used).sum(),
                                );
                            }
                        }
                        Vec::new()
                    }
                    Ok(got) => vec![format!(
                        "{}: response {got} != in-process {expected}",
                        req.id
                    )],
                    Err(e) => vec![format!("{}: {e}", req.id)],
                },
            };
            ledger.op(problems);
        }
        for (k, m) in missing.iter().enumerate() {
            if *m {
                ledger.op(vec![format!("r{k}: no response")]);
            }
        }
        pass
    }

    fn finish(&mut self, passes: &[Pass]) -> Vec<Row> {
        let ms = Self::op_samples(passes);
        let n = ms.len();
        let per_s: Vec<f64> = passes
            .iter()
            .map(|p| p.op_ms.len() as f64 / p.wall_s)
            .collect();
        vec![
            Row::new("request_ms_p50", quantile(&ms, 0.5), "ms").note(format!("n={n}")),
            Row::new("request_ms_p99", quantile(&ms, 0.99), "ms")
                .note(format!("n={n}, {} beyond", n / 100)),
            Row::new("requests_per_s", median(&per_s), "1/s").note(format!(
                "{CONNECTIONS} closed-loop connections, median of passes"
            )),
        ]
    }
}

impl Drop for ServeReplay {
    fn drop(&mut self) {
        self.running = None;
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_mix_is_a_pure_function_of_the_seed() {
        let corpus = load_corpus().expect("corpus");
        let a = request_mix(3, &corpus).expect("mix");
        assert_eq!(a, request_mix(3, &corpus).expect("mix"));
        let b = request_mix(4, &corpus).expect("mix");
        assert_ne!(a, b);
        // Every seed asks for the same kinds of work.
        let models = |m: &[AnalyzeRequest]| m.iter().filter(|r| !r.cache.is_baseline()).count();
        assert_eq!(a.len(), b.len());
        assert_eq!(models(&a), models(&b));
    }

    #[test]
    fn padding_never_overlaps_arrays() {
        let nest = cme_kernels::mmult(8);
        let out = padded(&nest, 1, 100);
        let bases: Vec<i64> = out.arrays().iter().map(|a| a.base()).collect();
        let orig: Vec<i64> = nest.arrays().iter().map(|a| a.base()).collect();
        assert_eq!(bases, vec![orig[0], orig[1] + 100, orig[2] + 100]);
    }
}
