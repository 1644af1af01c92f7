//! The run loop shared by every workload: repeated set-up, time-boxed
//! passes, the correctness ledger, percentiles, and host provenance.

use crate::trace::{layer_metrics, Span, Tracer, LAYER_METRICS};
use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

/// How many times a run sets its workload up; `setup_s` is the median.
pub const SETUP_REPS: usize = 21;

/// Command-line settings of one run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// Operations attempted and failed, with the first failure messages.
#[derive(Debug, Default, Clone)]
pub struct Ledger {
    pub attempted: u64,
    pub failed: u64,
    pub messages: Vec<String>,
}

impl Ledger {
    /// Counts one operation; `problems` lists everything wrong with it.
    pub fn op(&mut self, problems: Vec<String>) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            let room = 20usize.saturating_sub(self.messages.len());
            self.messages.extend(problems.into_iter().take(room));
        }
    }
}

/// What one pass produced: its measured wall time, one latency per
/// operation, and the deterministic counts that must repeat exactly for
/// the same seed.
#[derive(Debug, Default)]
pub struct Pass {
    pub wall_s: f64,
    pub op_ms: Vec<f64>,
    pub counts: BTreeMap<String, u64>,
    /// Pool width of every analyzer session the pass used.
    pub threads: BTreeSet<usize>,
}

impl Pass {
    pub fn count(&mut self, name: impl Into<String>, value: u64) {
        *self.counts.entry(name.into()).or_insert(0) += value;
    }
}

/// A named, unit-carrying figure printed beside the gated metrics: the
/// workload-specific end-to-end names (`analyze_s`, `request_ms_p99`, …)
/// and derived rows such as the analysis/simulation ratio per kernel.
#[derive(Debug, Clone)]
pub struct Row {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub note: String,
}

impl Row {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Row {
            name: name.into(),
            value,
            unit,
            note: String::new(),
        }
    }

    pub fn note(mut self, note: impl Into<String>) -> Self {
        self.note = note.into();
        self
    }
}

/// One benchmark workload.
pub trait Workload: Sized {
    const NAME: &'static str;
    /// What one latency sample times.
    const OP: &'static str;
    /// Upper percentile reported as `op_ms_tail`, chosen so a standard run
    /// leaves at least ten samples beyond it.
    const TAIL: f64;

    /// Builds every input from the seed and brings the system up.
    fn setup(seed: u64) -> Result<Self, String>;

    /// Runs the workload's task list once, timing only the calls into
    /// the program, then checks every output into the ledger.
    fn pass(&mut self, tracer: &mut Tracer, ledger: &mut Ledger) -> Pass;

    /// The workload's own named rows, from its untraced passes.
    fn finish(&mut self, passes: &[Pass]) -> Vec<Row>;

    /// The latency population `op_ms_p50`/`op_ms_tail` are taken over:
    /// by default every operation of every untraced pass.
    fn op_samples(passes: &[Pass]) -> Vec<f64> {
        passes
            .iter()
            .flat_map(|p| p.op_ms.iter().copied())
            .collect()
    }
}

/// Everything one run measured.
#[derive(Debug)]
pub struct Report {
    pub workload: &'static str,
    pub op: &'static str,
    pub tail: f64,
    pub config: RunConfig,
    pub setup_s: Vec<f64>,
    /// Wall time of each untraced pass.
    pub pass_s: Vec<f64>,
    /// Wall time of each traced pass.
    pub traced_pass_s: Vec<f64>,
    /// Operation latencies from the untraced passes
    /// ([`Workload::op_samples`]).
    pub op_ms: Vec<f64>,
    pub rows: Vec<Row>,
    pub ledger: Ledger,
    /// Deterministic counts of the first pass.
    pub counts: BTreeMap<String, u64>,
    /// Counts that some later pass of the run did not reproduce exactly.
    pub unstable_counts: Vec<String>,
    /// Per-layer metrics (traced runs only), medians over traced passes.
    pub layers: BTreeMap<&'static str, f64>,
    pub threads: BTreeSet<usize>,
    pub spans: Vec<Span>,
    pub peak_rss_mb: f64,
}

/// Linear-interpolated quantile (`q` in `[0, 1]`) of unsorted samples.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Peak resident set size of this process in MB (`VmHWM`), 0 when the
/// platform does not report it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Runs one workload under `cfg`: [`SETUP_REPS`] set-ups, then passes
/// while another one fits in `cfg.seconds` (at least one). A traced run
/// alternates untraced and traced passes — at least two untraced and one
/// traced — so the tracing overhead is measured on the same inputs,
/// against the untraced passes after the first.
pub fn drive<W: Workload>(cfg: &RunConfig) -> Result<Report, String> {
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut state = None;
    for _ in 0..SETUP_REPS {
        // Tear the previous instance down first, outside the timer.
        drop(state.take());
        let t = Instant::now();
        let w = W::setup(cfg.seed)?;
        setup_s.push(t.elapsed().as_secs_f64());
        state = Some(w);
    }
    let mut w = state.ok_or("no set-up ran")?;

    let origin = Instant::now();
    let mut tracer = Tracer::new(cfg.trace, origin);
    let mut ledger = Ledger::default();
    let mut passes: Vec<Pass> = Vec::new();
    let mut traced_passes: Vec<(Pass, BTreeMap<&'static str, f64>)> = Vec::new();
    loop {
        let last_pass_s = if cfg.trace && passes.len() > traced_passes.len() {
            let first = tracer.len();
            let pass = w.pass(&mut tracer, &mut ledger);
            let layers = layer_metrics(&tracer.spans()[first..], first);
            let wall = pass.wall_s;
            traced_passes.push((pass, layers));
            wall
        } else {
            let pass = w.pass(&mut Tracer::new(false, origin), &mut ledger);
            let wall = pass.wall_s;
            passes.push(pass);
            wall
        };
        // One-time work (the simulator floor, the serve reference
        // answers) lands in the first pass's checks, so the next pass is
        // predicted from the measured part alone.
        let done = origin.elapsed().as_secs_f64() + last_pass_s > cfg.seconds;
        // A traced run needs an untraced pass after the first (which pays
        // the process's warm-up) to compare its traced passes against.
        let enough = if cfg.trace {
            passes.len() >= 2 && !traced_passes.is_empty()
        } else {
            !passes.is_empty()
        };
        if done && enough {
            break;
        }
    }
    let rows = w.finish(&passes);

    let counts = passes[0].counts.clone();
    let mut unstable_counts: Vec<String> = passes
        .iter()
        .map(|p| &p.counts)
        .chain(traced_passes.iter().map(|(p, _)| &p.counts))
        .flat_map(|c| {
            counts
                .iter()
                .filter(|(k, v)| c.get(*k) != Some(v))
                .map(|(k, _)| k.clone())
                .collect::<Vec<_>>()
        })
        .collect();
    unstable_counts.sort();
    unstable_counts.dedup();
    let threads = passes
        .iter()
        .chain(traced_passes.iter().map(|(p, _)| p))
        .flat_map(|p| p.threads.iter().copied())
        .collect();
    let pass_s: Vec<f64> = passes.iter().map(|p| p.wall_s).collect();
    let traced_pass_s: Vec<f64> = traced_passes.iter().map(|(p, _)| p.wall_s).collect();
    let mut layers = BTreeMap::new();
    if cfg.trace {
        for (name, _) in LAYER_METRICS {
            let values: Vec<f64> = traced_passes
                .iter()
                .filter_map(|(_, m)| m.get(name).copied())
                .collect();
            layers.insert(*name, median(&values));
        }
        layers.insert(
            "trace.overhead_s",
            median(&traced_pass_s) - median(&pass_s[1..]),
        );
    }
    Ok(Report {
        workload: W::NAME,
        op: W::OP,
        tail: W::TAIL,
        config: cfg.clone(),
        setup_s,
        op_ms: W::op_samples(&passes),
        pass_s,
        traced_pass_s,
        rows,
        ledger,
        counts,
        unstable_counts,
        layers,
        threads,
        spans: tracer.into_spans(),
        peak_rss_mb: peak_rss_mb(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn ledger_counts_failed_operations_once() {
        let mut l = Ledger::default();
        l.op(vec![]);
        l.op(vec!["a".into(), "b".into()]);
        assert_eq!((l.attempted, l.failed), (2, 1));
        assert_eq!(l.messages.len(), 2);
    }
}
