//! `layout-search`: one warm `Analyzer` session per pass re-analyzes a
//! seeded sequence of single-array base shifts, answers a closed-form
//! sweep, and runs the padding searches — the only workload that runs
//! mostly on the memo, sweep and opt layers.

use crate::cold::{check_against_sim, TABLE1_ELEM, TABLE1_LINE, TABLE1_SIZE};
use crate::harness::{median, quantile, Ledger, Pass, Row, Workload};
use crate::rng::Rng;
use crate::trace::{engine_counts, Tracer};
use cme_cache::{simulate_nest, CacheConfig, NestSimResult};
use cme_core::{Analyzer, SweepParameter, SweepRequest};
use cme_ir::{ArrayId, LoopNest};
use std::collections::HashMap;
use std::time::Instant;

/// Base shifts per array of each shifted nest (mmult, adi): 3·27 + 3·13
/// = 120 per pass, so the p90 keeps ten samples beyond it. Fixed counts
/// keep every seed's work alike; the larger mmult share keeps both
/// quantiles inside the mmult latencies instead of on the boundary
/// between the two nests.
const SHIFTS_PER_ARRAY: [u64; 2] = [27, 13];
/// Problem size of the shifted nests.
const SHIFT_N: i64 = 64;
/// Free elements between consecutive arrays of a shifted nest; a shift
/// moves one array by `1..GAP` elements without overlapping the next.
const GAP: i64 = 2048;
/// Explicit closed-form sweep: Y's base over `SWEEP_COUNT` positions
/// `SWEEP_STEP` elements apart. The step makes the layout period 32
/// candidates, so the fit samples about 72 of the 512.
const SWEEP_COUNT: usize = 512;
const SWEEP_STEP: i64 = 64;

/// One padding search target.
struct Search {
    label: &'static str,
    nest: LoopNest,
}

/// One closed-form sweep.
struct Sweep {
    label: &'static str,
    nest: LoopNest,
    request: SweepRequest,
}

pub struct LayoutSearch {
    cache: CacheConfig,
    bases: Vec<LoopNest>,
    /// `(base nest, array, shift)` per candidate, drawn from the seed.
    shifts: Vec<(usize, usize, i64)>,
    sweeps: Vec<Sweep>,
    searches: Vec<Search>,
    /// Simulator results by candidate layout, filled once per run.
    floor: HashMap<String, NestSimResult>,
    search_s: Vec<f64>,
}

/// Packs `n×n` arrays with [`GAP`] free elements between them.
fn spaced_bases(n: i64, arrays: usize) -> Vec<i64> {
    (0..arrays as i64)
        .map(|i| 4096 + i * (n * n + GAP))
        .collect()
}

fn shifted(base: &LoopNest, array: usize, delta: i64) -> LoopNest {
    let mut nest = base.clone();
    let a = nest.array_mut(ArrayId::from_index(array));
    let b = a.base();
    a.set_base(b + delta);
    nest
}

fn layout_key(nest: &LoopNest) -> String {
    cme_ir::parse::to_source(nest).unwrap_or_else(|| format!("{nest:?}"))
}

/// The simulator's result for a layout, simulated on first use.
fn floor_of<'a>(
    floor: &'a mut HashMap<String, NestSimResult>,
    cache: CacheConfig,
    nest: &LoopNest,
) -> &'a NestSimResult {
    floor
        .entry(layout_key(nest))
        .or_insert_with(|| simulate_nest(nest, cache))
}

impl Workload for LayoutSearch {
    const NAME: &'static str = "layout-search";
    const OP: &'static str = "warm re-analysis after one base shift";
    const TAIL: f64 = 0.9;

    fn setup(seed: u64) -> Result<Self, String> {
        let cache = CacheConfig::new(TABLE1_SIZE, 1, TABLE1_LINE, TABLE1_ELEM)
            .map_err(|e| e.to_string())?;
        let m = spaced_bases(SHIFT_N, 3);
        let a = spaced_bases(SHIFT_N, 3);
        let bases = vec![
            cme_kernels::mmult_with_bases(SHIFT_N, m[0], m[1], m[2]),
            cme_kernels::adi_fused_with_bases(SHIFT_N, a[0], a[1], a[2]),
        ];
        let mut rng = Rng::new(seed, "layout-shifts");
        // The shifts themselves are fixed — the r-th shift of each array
        // sits mid-way in the r-th stratum of 1..GAP — and the seed draws
        // their order. The cost of one re-analysis depends strongly on the
        // shift, so seeded shift values made the latency quantiles move by
        // a third between seeds; a seeded order keeps the work alike while
        // still varying what the memo has seen before each query.
        let mut shifts = Vec::new();
        for (nest, &per_array) in SHIFTS_PER_ARRAY.iter().enumerate() {
            let width = (GAP - 1) / per_array as i64;
            for array in 0..bases[nest].arrays().len() {
                for r in 0..per_array as i64 {
                    shifts.push((nest, array, 1 + r * width + width / 2));
                }
            }
        }
        rng.shuffle(&mut shifts);
        let sweeps = vec![Sweep {
            label: "mmult-n32.base-spacing-y",
            request: SweepRequest::new(
                SweepParameter::BaseSpacing {
                    array: ArrayId::from_index(2),
                },
                0,
                SWEEP_COUNT,
                SWEEP_STEP,
            ),
            nest: cme_kernels::mmult(32),
        }];
        // adi N=80 runs the full coordinate descent plus the search's two
        // closed-form sweeps in about 4 s. The mmult N=32 search (about
        // 19 s and 280 MB on this cache) would make a pass six times
        // longer and leave one noisy sample per run.
        let searches = vec![
            Search {
                label: "adi-n80",
                nest: cme_kernels::adi(80),
            },
            Search {
                label: "alv",
                nest: cme_kernels::alv(),
            },
        ];
        // Warm-up: one small sequential analysis before anything is timed
        // (see the cold workloads' set-up).
        Analyzer::new(cache).analyze(&cme_kernels::mmult(16));
        Ok(LayoutSearch {
            cache,
            bases,
            shifts,
            sweeps,
            searches,
            floor: HashMap::new(),
            search_s: Vec::new(),
        })
    }

    fn pass(&mut self, tracer: &mut Tracer, ledger: &mut Ledger) -> Pass {
        let mut pass = Pass::default();
        let start = Instant::now();
        let mut analyzer = Analyzer::new(self.cache).parallel(true);
        let threads = analyzer.thread_count();
        pass.threads.insert(threads);

        // Warm the session on the unshifted layouts.
        for (i, base) in self.bases.iter().enumerate() {
            let before = analyzer.stats();
            let span = tracer.enter("analyze", i as u64);
            analyzer.analyze(base);
            let mut counts = engine_counts(&before, &analyzer.stats(), threads);
            counts.push(("accesses", base.access_count()));
            tracer.exit(span, counts);
        }

        let mut candidates = Vec::with_capacity(self.shifts.len());
        for (k, &(b, array, delta)) in self.shifts.iter().enumerate() {
            let nest = shifted(&self.bases[b], array, delta);
            let before = analyzer.stats();
            let span = tracer.enter("analyze", k as u64);
            let t = Instant::now();
            let analysis = analyzer.analyze(&nest);
            pass.op_ms.push(t.elapsed().as_secs_f64() * 1e3);
            let mut counts = engine_counts(&before, &analyzer.stats(), threads);
            counts.push(("accesses", nest.access_count()));
            counts.push((
                "vectors",
                analysis
                    .per_ref
                    .iter()
                    .map(|r| r.vectors_used() as u64)
                    .sum(),
            ));
            tracer.exit(span, counts);
            candidates.push((nest, analysis));
        }

        let mut sweep_results = Vec::new();
        for (k, sweep) in self.sweeps.iter().enumerate() {
            let before = analyzer.stats();
            let span = tracer.enter("sweep", k as u64);
            let result = analyzer.sweep(&sweep.nest, &sweep.request);
            let after = analyzer.stats();
            let mut counts = engine_counts(&before, &after, threads);
            counts.push(("swept_candidates", sweep.request.count as u64));
            counts.push((
                "accesses",
                sweep.nest.access_count() * (after.analyses - before.analyses),
            ));
            tracer.exit(span, counts);
            sweep_results.push(result);
        }

        let mut outcomes = Vec::new();
        let search_start = Instant::now();
        for (k, search) in self.searches.iter().enumerate() {
            let before = analyzer.stats();
            let span = tracer.enter("opt", k as u64);
            let (chosen, outcome) = cme_opt::optimize_padding_with(&mut analyzer, &search.nest);
            let after = analyzer.stats();
            let mut counts = engine_counts(&before, &after, threads);
            counts.push((
                "accesses",
                search.nest.access_count() * (after.analyses - before.analyses),
            ));
            counts.push((
                "swept_candidates",
                (after.sweep_samples - before.sweep_samples)
                    + outcome.sweep_evaluations_saved as u64,
            ));
            tracer.exit(span, counts);
            outcomes.push((chosen, outcome));
        }
        if !tracer.enabled() {
            self.search_s.push(search_start.elapsed().as_secs_f64());
        }
        pass.wall_s = start.elapsed().as_secs_f64();

        // Checks, outside the timed part.
        let stats = analyzer.stats();
        for (nest, analysis) in &candidates {
            let exact = cme_testgen::is_uniform(nest);
            let label = nest.name().to_string();
            let sim = floor_of(&mut self.floor, self.cache, nest).clone();
            ledger.op(check_against_sim(&label, analysis, &sim, exact));
            pass.count("shifts.misses", analysis.total_misses());
        }
        for (sweep, result) in self.sweeps.iter().zip(sweep_results) {
            let mut problems = Vec::new();
            match result {
                Ok(r) => {
                    let value = sweep.request.value_at(r.best_k);
                    match sweep
                        .request
                        .parameter
                        .apply(&sweep.nest, &self.cache, value)
                    {
                        Some(best) => {
                            let direct = analyzer.analyze(&best);
                            if direct.total_misses() != r.best_misses {
                                problems.push(format!(
                                    "{}: sweep best {} != direct {}",
                                    sweep.label,
                                    r.best_misses,
                                    direct.total_misses()
                                ));
                            }
                            let sim = floor_of(&mut self.floor, self.cache, &best).clone();
                            problems.extend(check_against_sim(
                                sweep.label,
                                &direct,
                                &sim,
                                cme_testgen::is_uniform(&best),
                            ));
                        }
                        None => problems.push(format!(
                            "{}: best value {value} not applicable",
                            sweep.label
                        )),
                    }
                    if r.degraded > 0 || r.failed > 0 {
                        problems.push(format!("{}: degraded sweep", sweep.label));
                    }
                    pass.count(format!("{}.best_misses", sweep.label), r.best_misses);
                    pass.count(format!("{}.evaluations", sweep.label), r.evaluations as u64);
                }
                Err(e) => problems.push(format!("{}: {e}", sweep.label)),
            }
            ledger.op(problems);
        }
        for (search, (chosen, outcome)) in self.searches.iter().zip(&outcomes) {
            let mut problems = Vec::new();
            let exact = cme_testgen::is_uniform(chosen);
            let analysis = analyzer.analyze(chosen);
            let sim = floor_of(&mut self.floor, self.cache, chosen).clone();
            let simulated = sim.total().misses();
            if analysis.total_misses() != outcome.total_after {
                problems.push(format!(
                    "{}: re-analysis {} != searched {}",
                    search.label,
                    analysis.total_misses(),
                    outcome.total_after
                ));
            }
            if simulated > outcome.total_after || (exact && simulated != outcome.total_after) {
                problems.push(format!(
                    "{}: simulated {simulated} vs searched {}",
                    search.label, outcome.total_after
                ));
            }
            problems.extend(check_against_sim(search.label, &analysis, &sim, exact));
            if outcome.degraded_candidates > 0 || outcome.failed_candidates > 0 {
                problems.push(format!("{}: degraded search", search.label));
            }
            ledger.op(problems);
            pass.count(format!("{}.total_after", search.label), outcome.total_after);
            pass.count(
                format!("{}.sweep_evaluations_saved", search.label),
                outcome.sweep_evaluations_saved as u64,
            );
        }
        if stats.truncated_points > 0 || stats.exhausted_analyses > 0 {
            ledger.op(vec!["layout session degraded".into()]);
        }
        pass.count("session.analyses", stats.analyses);
        pass.count("session.scan_points", stats.scan_points);
        pass.count("session.sweep_samples", stats.sweep_samples);
        pass.count("session.sweeps_fitted", stats.sweeps_fitted);
        pass.count("session.systems_rebased", stats.systems_rebased);
        pass.count(
            "session.memo_hits",
            stats.lowered_reused + stats.reuse_reused + stats.cascades_reused + stats.scans_reused,
        );
        pass
    }

    fn finish(&mut self, passes: &[Pass]) -> Vec<Row> {
        let ops: Vec<f64> = passes
            .iter()
            .flat_map(|p| p.op_ms.iter().copied())
            .collect();
        vec![
            Row::new("search_s", median(&self.search_s), "s").note(format!(
                "{} padding searches, median of {} passes",
                self.searches.len(),
                self.search_s.len()
            )),
            Row::new("reanalyze_ms_p50", quantile(&ops, 0.5), "ms")
                .note(format!("n={}", ops.len())),
            Row::new("reanalyze_ms_p90", quantile(&ops, 0.9), "ms")
                .note(format!("n={}", ops.len())),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shifts_are_a_pure_function_of_the_seed() {
        let a = LayoutSearch::setup(3).expect("setup").shifts;
        assert_eq!(a, LayoutSearch::setup(3).expect("setup").shifts);
        let b = LayoutSearch::setup(4).expect("setup").shifts;
        assert_ne!(a, b);
        assert_eq!(a.len(), 120);
        assert!(a.iter().all(|&(_, _, d)| (1..GAP).contains(&d)));
    }
}
