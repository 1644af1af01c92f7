//! In-memory span tracing around the benchmark's calls into each layer,
//! and the per-layer metrics derived from the spans of one pass.
//!
//! Spans are recorded only from the benchmark's own code: each wrapped
//! call (an analysis, a sweep, a padding search, a simulation, a served
//! request) gets one span, and the engine's work inside it is attached as
//! counts — the call's [`EngineStats`] delta. A layer's self time is its
//! span's duration minus the child spans and the engine stage time
//! attached to it.

use cme_core::EngineStats;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// Identifies the request (or operation) the span served.
    pub request: u64,
    pub counts: Vec<(&'static str, u64)>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    pub fn count(&self, name: &str) -> u64 {
        self.counts
            .iter()
            .filter(|(n, _)| *n == name)
            .map(|(_, v)| *v)
            .sum()
    }
}

/// Handle of an open span; inert when tracing is off.
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<usize>);

/// Span recorder. Disabled, every call is a no-op that reads no clock.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool, origin: Instant) -> Self {
        Tracer {
            on,
            origin,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span as a child of the innermost open one.
    pub fn enter(&mut self, name: &'static str, request: u64) -> SpanId {
        if !self.on {
            return SpanId(None);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            request,
            counts: Vec::new(),
        });
        self.open.push(idx);
        SpanId(Some(idx))
    }

    /// Closes a span and attaches its counts.
    pub fn exit(&mut self, id: SpanId, counts: Vec<(&'static str, u64)>) {
        let Some(idx) = id.0 else { return };
        let end = self.now_ns();
        let span = &mut self.spans[idx];
        span.end_ns = end;
        span.counts = counts;
        if let Some(pos) = self.open.iter().rposition(|&i| i == idx) {
            self.open.truncate(pos);
        }
    }

    /// Records an already-timed call (used where the call ran on another
    /// thread, as the serve clients do).
    pub fn record(&mut self, name: &'static str, request: u64, start: Instant, end: Instant) {
        if !self.on {
            return;
        }
        let ns = |t: Instant| u64::try_from(t.duration_since(self.origin).as_nanos()).unwrap_or(0);
        self.spans.push(Span {
            name,
            start_ns: ns(start),
            end_ns: ns(end),
            parent: self.open.last().copied(),
            request,
            counts: Vec::new(),
        });
    }

    /// Number of spans recorded so far (marks a pass boundary).
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

fn ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// The work an engine call did: the [`EngineStats`] delta across it, in
/// the count names [`layer_metrics`] reads. `threads` is the session's
/// pool width, needed to turn worker-summed stage time into wall time.
pub fn engine_counts(
    before: &EngineStats,
    after: &EngineStats,
    threads: usize,
) -> Vec<(&'static str, u64)> {
    let d = |a: u64, b: u64| a.saturating_sub(b);
    let dt = |a: Duration, b: Duration| ns(a.saturating_sub(b));
    vec![
        ("analyses", d(after.analyses, before.analyses)),
        (
            "lowered_built",
            d(after.lowered_built, before.lowered_built),
        ),
        (
            "lowered_reused",
            d(after.lowered_reused, before.lowered_reused),
        ),
        ("reuse_built", d(after.reuse_built, before.reuse_built)),
        ("reuse_reused", d(after.reuse_reused, before.reuse_reused)),
        ("sets_built", d(after.cascades_built, before.cascades_built)),
        (
            "sets_reused",
            d(after.cascades_reused, before.cascades_reused),
        ),
        (
            "scans_executed",
            d(after.scans_executed, before.scans_executed),
        ),
        ("scans_reused", d(after.scans_reused, before.scans_reused)),
        (
            "systems_rebased",
            d(after.systems_rebased, before.systems_rebased),
        ),
        ("scan_points", d(after.scan_points, before.scan_points)),
        ("window_steps", d(after.window_steps, before.window_steps)),
        ("scan_steals", d(after.scan_steals, before.scan_steals)),
        ("solver_hits", d(after.solver_hits, before.solver_hits)),
        ("store_hits", d(after.store_hits, before.store_hits)),
        (
            "sweeps_fitted",
            d(after.sweeps_fitted, before.sweeps_fitted),
        ),
        (
            "sweep_samples",
            d(after.sweep_samples, before.sweep_samples),
        ),
        (
            "exhausted",
            d(after.exhausted_analyses, before.exhausted_analyses)
                + d(after.sim_exhausted, before.sim_exhausted),
        ),
        (
            "truncated_points",
            d(after.truncated_points, before.truncated_points),
        ),
        ("lower_ns", dt(after.time_lower, before.time_lower)),
        ("reuse_ns", dt(after.time_reuse, before.time_reuse)),
        ("solve_ns", dt(after.time_solve, before.time_solve)),
        ("cascade_ns", dt(after.time_cascade, before.time_cascade)),
        ("classify_ns", dt(after.time_classify, before.time_classify)),
        (
            "shard_busy_ns",
            dt(after.time_scan_shards, before.time_scan_shards),
        ),
        // A session-lifetime maximum: the after value, not a delta.
        ("shard_longest_ns", ns(after.time_scan_longest_shard)),
        (
            "merge_ns",
            dt(after.time_scan_merge, before.time_scan_merge),
        ),
        ("threads", threads as u64),
    ]
}

/// Engine stage wall time attached to a span: driver-timed stages as
/// they are, worker-summed stages (reuse, solve) divided by the pool
/// width.
fn stage_wall_ns(span: &Span) -> u64 {
    let threads = span.count("threads").max(1);
    span.count("lower_ns")
        + span.count("cascade_ns")
        + span.count("classify_ns")
        + (span.count("reuse_ns") + span.count("solve_ns")) / threads
}

/// Self time of each span: its duration minus its child spans and the
/// engine stage time attached to it. `spans` is a slice of the tracer's
/// spans starting at index `base` (parents are tracer-wide indices).
fn self_times_ns(spans: &[Span], base: usize) -> Vec<u64> {
    let mut child = vec![0u64; spans.len()];
    for s in spans {
        if let Some(slot) = s
            .parent
            .and_then(|p| p.checked_sub(base))
            .and_then(|p| child.get_mut(p))
        {
            *slot += s.duration_ns();
        }
    }
    spans
        .iter()
        .zip(&child)
        .map(|(s, c)| s.duration_ns().saturating_sub(c + stage_wall_ns(s)))
        .collect()
}

/// Every per-layer metric, in `BENCHMARK.json` order, computed from the
/// spans of one traced pass. Layers a workload does not exercise read 0.
pub const LAYER_METRICS: &[(&str, &str)] = &[
    ("ir.s", "s"),
    ("reuse.s", "s"),
    ("reuse.vectors", "count"),
    ("solve.s", "s"),
    ("solve.sets_built", "count"),
    ("solve.memo_hits", "count"),
    ("cascade.s", "s"),
    ("cascade.scan_points_per_access", "ratio"),
    ("cascade.incremental_fraction", "ratio"),
    ("cascade.shard_busy_s", "s"),
    ("cascade.shard_longest_s", "s"),
    ("cascade.steals", "count"),
    ("cascade.merge_s", "s"),
    ("classify.s", "s"),
    ("memo.hit_rate", "ratio"),
    ("memo.scans_reused_ratio", "ratio"),
    ("memo.systems_rebased", "count"),
    ("sweep.s", "s"),
    ("sweep.evaluations_per_candidate", "ratio"),
    ("sweep.fitted", "count"),
    ("opt.s", "s"),
    ("opt.analyses_per_search", "count"),
    ("sim.s", "s"),
    ("sim.accesses_per_s", "1/s"),
    ("sim.model_classifications", "count"),
    ("store.hit_rate", "ratio"),
    ("store.writes", "count"),
    ("store.bytes", "B"),
    ("serve.handle_s", "s"),
    ("serve.roundtrip_minus_handle_s", "s"),
    ("serve.shed", "count"),
    ("serve.sessions", "count"),
    ("governor.exhausted", "count"),
    ("governor.truncated_points", "count"),
    ("trace.overhead_s", "s"),
];

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Per-layer metrics of one traced pass (all but `trace.overhead_s`,
/// which needs the untraced passes too); `spans` starts at tracer index
/// `base`.
pub fn layer_metrics(spans: &[Span], base: usize) -> BTreeMap<&'static str, f64> {
    let selfs = self_times_ns(spans, base);
    let sum = |name: &str| spans.iter().map(|s| s.count(name)).sum::<u64>();
    let secs = |v: u64| v as f64 / 1e9;
    let self_of = |span: &str| {
        spans
            .iter()
            .zip(&selfs)
            .filter(|(s, _)| s.name == span)
            .map(|(_, t)| *t)
            .sum::<u64>()
    };
    let dur_of = |span: &str| {
        spans
            .iter()
            .filter(|s| s.name == span)
            .map(Span::duration_ns)
            .sum::<u64>()
    };
    let n_of = |span: &str| spans.iter().filter(|s| s.name == span).count() as u64;
    let opt_analyses: u64 = spans
        .iter()
        .filter(|s| s.name == "opt")
        .map(|s| s.count("analyses"))
        .sum();
    let memo_hits = sum("lowered_reused") + sum("reuse_reused") + sum("sets_reused");
    let memo_hits = memo_hits + sum("scans_reused");
    let memo_total = memo_hits
        + sum("lowered_built")
        + sum("reuse_built")
        + sum("sets_built")
        + sum("scans_executed");
    let store_lookups = sum("store_lookup_hits") + sum("store_lookup_misses");
    let handled = n_of("serve.handle");
    let requests = n_of("serve.request");
    let handle_mean = ratio(dur_of("serve.handle"), handled) / 1e9;
    let roundtrip_mean = ratio(dur_of("serve.request"), requests) / 1e9;
    let sim_ns = dur_of("sim");

    let mut m = BTreeMap::new();
    m.insert("ir.s", secs(sum("lower_ns")));
    m.insert("reuse.s", secs(sum("reuse_ns")));
    m.insert("reuse.vectors", sum("vectors") as f64);
    m.insert("solve.s", secs(sum("solve_ns")));
    m.insert("solve.sets_built", sum("sets_built") as f64);
    m.insert("solve.memo_hits", sum("solver_hits") as f64);
    m.insert("cascade.s", secs(sum("cascade_ns")));
    m.insert(
        "cascade.scan_points_per_access",
        ratio(sum("scan_points"), sum("accesses")),
    );
    m.insert(
        "cascade.incremental_fraction",
        ratio(sum("window_steps"), sum("scan_points")),
    );
    m.insert("cascade.shard_busy_s", secs(sum("shard_busy_ns")));
    m.insert(
        "cascade.shard_longest_s",
        secs(
            spans
                .iter()
                .map(|s| s.count("shard_longest_ns"))
                .max()
                .unwrap_or(0),
        ),
    );
    m.insert("cascade.steals", sum("scan_steals") as f64);
    m.insert("cascade.merge_s", secs(sum("merge_ns")));
    m.insert("classify.s", secs(sum("classify_ns")));
    m.insert("memo.hit_rate", ratio(memo_hits, memo_total));
    m.insert(
        "memo.scans_reused_ratio",
        ratio(
            sum("scans_reused"),
            sum("scans_reused") + sum("scans_executed"),
        ),
    );
    m.insert("memo.systems_rebased", sum("systems_rebased") as f64);
    m.insert("sweep.s", secs(self_of("sweep")));
    m.insert(
        "sweep.evaluations_per_candidate",
        ratio(sum("sweep_samples"), sum("swept_candidates")),
    );
    m.insert("sweep.fitted", sum("sweeps_fitted") as f64);
    m.insert("opt.s", secs(self_of("opt")));
    m.insert("opt.analyses_per_search", ratio(opt_analyses, n_of("opt")));
    m.insert("sim.s", secs(sim_ns));
    m.insert(
        "sim.accesses_per_s",
        ratio(sum("sim_accesses"), sim_ns) * 1e9,
    );
    m.insert(
        "sim.model_classifications",
        sum("sim_classifications") as f64,
    );
    m.insert(
        "store.hit_rate",
        ratio(sum("store_lookup_hits"), store_lookups),
    );
    m.insert("store.writes", sum("store_writes") as f64);
    m.insert("store.bytes", sum("store_bytes") as f64);
    m.insert("serve.handle_s", handle_mean);
    m.insert(
        "serve.roundtrip_minus_handle_s",
        if handled > 0 && requests > 0 {
            roundtrip_mean - handle_mean
        } else {
            0.0
        },
    );
    m.insert("serve.shed", sum("shed") as f64);
    m.insert("serve.sessions", sum("sessions") as f64);
    m.insert("governor.exhausted", sum("exhausted") as f64);
    m.insert("governor.truncated_points", sum("truncated_points") as f64);
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            request: 0,
            counts: Vec::new(),
        }
    }

    #[test]
    fn self_time_subtracts_children_and_stage_time() {
        let mut opt = span("opt", 0, 1_000, None);
        opt.counts = vec![("lower_ns", 100), ("solve_ns", 400), ("threads", 2)];
        let sim = span("sim", 100, 300, Some(0));
        let selfs = self_times_ns(&[opt, sim], 0);
        // 1000 - 200 (child) - 100 (lower) - 400/2 (solve over 2 workers)
        assert_eq!(selfs, vec![500, 200]);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, Instant::now());
        let id = t.enter("analyze", 1);
        t.exit(id, vec![("analyses", 1)]);
        assert!(t.is_empty());
    }

    #[test]
    fn every_layer_metric_is_reported() {
        let m = layer_metrics(&[], 0);
        for (name, _) in LAYER_METRICS {
            if *name != "trace.overhead_s" {
                assert!(m.contains_key(name), "{name} missing");
            }
        }
        assert_eq!(m.len(), LAYER_METRICS.len() - 1);
    }
}
