//! `cold-uniform` and `cold-nonuniform`: every nest of a fixed set is
//! analyzed cold — a fresh `Analyzer` per nest at pool width = `nproc` —
//! and checked against `cme_cache::simulate_nest`, whose time over the
//! same set is the floor the analysis has to beat.

use crate::harness::{median, Ledger, Pass, Row, Workload};
use crate::trace::{engine_counts, Tracer};
use cme_cache::{simulate_nest, CacheConfig, NestSimResult};
use cme_core::{Analyzer, EngineStats, NestAnalysis};
use cme_ir::LoopNest;
use std::time::Instant;

/// The Table-1 cache: 8 KB, 32-byte lines, 4-byte elements.
pub const TABLE1_SIZE: i64 = 8192;
pub const TABLE1_LINE: i64 = 32;
pub const TABLE1_ELEM: i64 = 4;
const ASSOCS: [i64; 2] = [1, 4];

/// Uniform kernels, each sized to 0.2–3.5 M accesses so that one pass
/// over the set takes about a second on a 2-core host: the cascade stage
/// does most of the work and scan points ≈ accesses.
const UNIFORM: &[(&str, i64)] = &[
    ("mmult", 96),
    ("syr2k", 64),
    ("stencil3d", 48),
    ("adi", 512),
    ("trans", 512),
    ("jacobi2d", 512),
    ("tom", 512),
];

/// Non-uniform kernels: the solve stage dominates, over thousands of
/// reuse vectors per reference.
const NONUNIFORM: &[(&str, i64)] = &[("gauss", 64), ("gauss", 96), ("lu", 64), ("lu", 96)];

/// One nest of the set with its cache.
#[derive(Debug)]
pub struct Case {
    pub label: String,
    pub nest: LoopNest,
    pub cache: CacheConfig,
    /// All same-array references uniformly generated: the CME count must
    /// equal the simulator's, not just bound it.
    pub uniform: bool,
}

/// Shared state of both cold workloads.
#[derive(Debug)]
pub struct Cold {
    cases: Vec<Case>,
    /// Simulator result and its wall time per case, filled once per run.
    floor: Vec<Option<(NestSimResult, f64)>>,
}

/// The nest set is fixed: a cold analysis of one nest does not depend on
/// what ran before it, so the seed has nothing to vary, and a fixed order
/// keeps the process's peak memory independent of it.
fn build(set: &[(&str, i64)]) -> Result<Cold, String> {
    let mut cases = Vec::new();
    for &(kernel, n) in set {
        for assoc in ASSOCS {
            let nest = cme_kernels::kernel_by_name(kernel, n)
                .ok_or_else(|| format!("unknown kernel {kernel}"))?;
            let cache = CacheConfig::new(TABLE1_SIZE, assoc, TABLE1_LINE, TABLE1_ELEM)
                .map_err(|e| e.to_string())?;
            cases.push(Case {
                label: format!("{kernel}-n{n}-k{assoc}"),
                uniform: cme_testgen::is_uniform(&nest),
                nest,
                cache,
            });
        }
    }
    // Warm-up: one small analysis pages the engine in before anything is
    // timed. It runs sequentially: the pool's threads are scoped to each
    // call, so there is no pool to keep warm, and timing thread start-up
    // here made set-up time swing by milliseconds from run to run.
    let warm = cme_kernels::mmult(16);
    let cache = cases.first().map(|c| c.cache).ok_or("empty nest set")?;
    Analyzer::new(cache).analyze(&warm);
    let n = cases.len();
    Ok(Cold {
        cases,
        floor: (0..n).map(|_| None).collect(),
    })
}

fn vectors(a: &NestAnalysis) -> u64 {
    a.per_ref.iter().map(|r| r.vectors_used() as u64).sum()
}

/// Compares CME per reference against the simulator: equal when the nest
/// is uniform, never below it otherwise.
pub fn check_against_sim(
    label: &str,
    analysis: &NestAnalysis,
    sim: &NestSimResult,
    exact: bool,
) -> Vec<String> {
    let mut problems = Vec::new();
    if analysis.per_ref.len() != sim.per_ref.len() {
        problems.push(format!("{label}: reference count differs"));
        return problems;
    }
    for (i, (c, s)) in analysis.per_ref.iter().zip(&sim.per_ref).enumerate() {
        let (cme, sim) = (c.total_misses(), s.misses());
        if cme < sim || (exact && cme != sim) {
            problems.push(format!(
                "{label} ref#{i}: cme={cme} sim={sim} exact={exact}"
            ));
        }
    }
    problems
}

fn simulate(tracer: &mut Tracer, i: usize, case: &Case) -> (NestSimResult, f64) {
    let span = tracer.enter("sim", i as u64);
    let t = Instant::now();
    let sim = simulate_nest(&case.nest, case.cache);
    let secs = t.elapsed().as_secs_f64();
    tracer.exit(span, vec![("sim_accesses", case.nest.access_count())]);
    (sim, secs)
}

impl Cold {
    fn pass(&mut self, tracer: &mut Tracer, ledger: &mut Ledger) -> Pass {
        let mut pass = Pass::default();
        let mut results = Vec::with_capacity(self.cases.len());
        let start = Instant::now();
        for (i, case) in self.cases.iter().enumerate() {
            let span = tracer.enter("analyze", i as u64);
            let t = Instant::now();
            let mut analyzer = Analyzer::new(case.cache).parallel(true);
            let id = analyzer.intern(&case.nest);
            let analysis = analyzer.analyze_id(id);
            let ms = t.elapsed().as_secs_f64() * 1e3;
            let stats = analyzer.stats();
            let threads = analyzer.thread_count();
            let mut counts = engine_counts(&EngineStats::default(), &stats, threads);
            counts.push(("accesses", case.nest.access_count()));
            counts.push(("vectors", vectors(&analysis)));
            tracer.exit(span, counts);
            pass.op_ms.push(ms);
            pass.threads.insert(threads);
            results.push((analysis, stats));
        }
        pass.wall_s = start.elapsed().as_secs_f64();

        for (i, (case, (analysis, stats))) in self.cases.iter().zip(&results).enumerate() {
            if tracer.enabled() {
                // Traced passes re-run the floor so the sim layer is timed
                // inside the pass it belongs to.
                simulate(tracer, i, case);
            }
            let (sim, _) = self.floor[i].get_or_insert_with(|| simulate(tracer, i, case));
            let mut problems = check_against_sim(&case.label, analysis, sim, case.uniform);
            if stats.truncated_points > 0 || stats.exhausted_analyses > 0 {
                problems.push(format!("{}: analysis degraded", case.label));
            }
            ledger.op(problems);
            let l = &case.label;
            pass.count(format!("{l}.misses"), analysis.total_misses());
            pass.count(format!("{l}.scan_points"), stats.scan_points);
            pass.count(format!("{l}.vectors"), vectors(analysis));
            pass.count(format!("{l}.solver_hits"), stats.solver_hits);
            pass.count(
                format!("{l}.memo_hits"),
                stats.lowered_reused
                    + stats.reuse_reused
                    + stats.cascades_reused
                    + stats.scans_reused,
            );
        }
        pass
    }

    fn finish(&mut self, passes: &[Pass]) -> Vec<Row> {
        let pass_s: Vec<f64> = passes.iter().map(|p| p.wall_s).collect();
        let analyze_s = per_nest_medians(passes);
        let mut sim_total = 0.0;
        let mut rows = Vec::new();
        let mut order: Vec<usize> = (0..self.cases.len()).collect();
        order.sort_by(|&a, &b| self.cases[a].label.cmp(&self.cases[b].label));
        for i in order {
            let case = &self.cases[i];
            let analyze = analyze_s[i] / 1e3;
            let Some((sim, sim_s)) = &self.floor[i] else {
                continue;
            };
            sim_total += sim_s;
            rows.push(
                Row::new(
                    format!("{}.analyze_s/simulate_s", case.label),
                    analyze / sim_s,
                    "ratio",
                )
                .note(format!(
                    "analyze {analyze:.4} s, simulate {sim_s:.4} s, {} accesses, {} misses{}",
                    case.nest.access_count(),
                    sim.total().misses(),
                    if case.uniform { ", exact" } else { ", bound" }
                )),
            );
        }
        let mut named = vec![
            Row::new("analyze_s", median(&pass_s), "s").note(format!(
                "median of {} passes over {} nests",
                pass_s.len(),
                self.cases.len()
            )),
            Row::new("simulate_s", sim_total, "s").note("the floor, once per run"),
        ];
        named.extend(rows);
        named
    }
}

/// Each nest's median analysis latency over the run's passes. The nests
/// differ in size by up to 30×, so quantiles over the pooled samples
/// would sit on the boundary between two nests and move with the number
/// of passes; over per-nest medians their position is fixed.
fn per_nest_medians(passes: &[Pass]) -> Vec<f64> {
    let nests = passes.first().map_or(0, |p| p.op_ms.len());
    (0..nests)
        .map(|i| {
            median(
                &passes
                    .iter()
                    .filter_map(|p| p.op_ms.get(i).copied())
                    .collect::<Vec<_>>(),
            )
        })
        .collect()
}

/// Uniform Table-1-style kernels at k ∈ {1, 4}.
#[derive(Debug)]
pub struct ColdUniform(Cold);

/// Non-uniform kernels (gauss, lu) at two sizes and k ∈ {1, 4}.
#[derive(Debug)]
pub struct ColdNonuniform(Cold);

impl Workload for ColdUniform {
    const NAME: &'static str = "cold-uniform";
    const OP: &'static str = "cold analysis of one nest";
    const TAIL: f64 = 0.9;

    fn setup(_seed: u64) -> Result<Self, String> {
        build(UNIFORM).map(ColdUniform)
    }

    fn pass(&mut self, tracer: &mut Tracer, ledger: &mut Ledger) -> Pass {
        self.0.pass(tracer, ledger)
    }

    fn finish(&mut self, passes: &[Pass]) -> Vec<Row> {
        self.0.finish(passes)
    }

    fn op_samples(passes: &[Pass]) -> Vec<f64> {
        per_nest_medians(passes)
    }
}

impl Workload for ColdNonuniform {
    const NAME: &'static str = "cold-nonuniform";
    const OP: &'static str = "cold analysis of one nest";
    const TAIL: f64 = 0.9;

    fn setup(_seed: u64) -> Result<Self, String> {
        build(NONUNIFORM).map(ColdNonuniform)
    }

    fn pass(&mut self, tracer: &mut Tracer, ledger: &mut Ledger) -> Pass {
        self.0.pass(tracer, ledger)
    }

    fn finish(&mut self, passes: &[Pass]) -> Vec<Row> {
        self.0.finish(passes)
    }

    fn op_samples(passes: &[Pass]) -> Vec<f64> {
        per_nest_medians(passes)
    }
}
