//! Sliding-window cascade performance dump (`BENCH_cascade.json`).
//!
//! Runs one full Table-1 matmul analysis through the reference per-point
//! solver (an uncached session) and through the engine's run-compressed
//! sliding-window cascade (sequential and sharded), checks the miss counts
//! are bit-identical, and writes a machine-readable JSON report: wall
//! times, speedups, and each session's `EngineStats` counters under their
//! schema names (times in seconds), with the five stage times repeated
//! under `stage_seconds`.
//!
//! ```text
//! cargo run --release -p cme-bench --bin perfdump -- \
//!     [--n 64] [--threads 0] [--expect-misses M] [--out BENCH_cascade.json]
//! ```
//!
//! `--threads 0` (the default) sizes the shard pool from the host's
//! available parallelism. With `--expect-misses`, the run exits nonzero
//! when the analysis total differs — the CI bench-smoke gate.

use std::time::Instant;

use cme_bench::BenchArgs;
use cme_core::api::json::{obj, Json};
use cme_core::{
    AnalysisOptions, Analyzer, EngineStats, NestAnalysis, SweepParameter, SweepRequest,
};
use cme_ir::ArrayId;

fn main() {
    let args = BenchArgs::from_env();
    let n = args.n(64);
    let threads = args.value_or("--threads", 0).max(0) as usize;
    let threads = if threads == 0 {
        std::thread::available_parallelism().map_or(1, |p| p.get())
    } else {
        threads
    };
    let out_path = args
        .value_str("--out")
        .unwrap_or("BENCH_cascade.json")
        .to_string();

    let cache = args.cache();
    let nest = cme_kernels::mmult_with_bases(n, 0, n * n, 2 * n * n);
    let opts = AnalysisOptions::default();

    eprintln!("perfdump: table-1 matmul, N = {n}, {threads} threads");

    let t = Instant::now();
    let reference = Analyzer::new(cache)
        .options(opts.clone())
        .caching(false)
        .analyze(&nest);
    let reference_s = t.elapsed().as_secs_f64();
    eprintln!(
        "  reference:       {reference_s:>8.3}s  ({} misses)",
        reference.total_misses()
    );

    let mut seq = Analyzer::new(cache).options(opts.clone());
    let t = Instant::now();
    let seq_res = seq.analyze(&nest);
    let seq_s = t.elapsed().as_secs_f64();
    let seq_stats = seq.stats();
    eprintln!(
        "  cascade (1 thr): {seq_s:>8.3}s  ({:.2}x)",
        reference_s / seq_s.max(1e-12)
    );

    // Sweep the shard-pool width in powers of two up to the requested
    // count, so the par-vs-seq gap (ROADMAP item 3) is visible per thread
    // count, each run on a fresh session (no memo carry-over).
    let mut sweep_counts: Vec<usize> = std::iter::successors(Some(1usize), |t| Some(t * 2))
        .take_while(|t| *t < threads)
        .collect();
    sweep_counts.push(threads);
    let mut sweep: Vec<(usize, f64)> = Vec::new();
    let mut par_s = seq_s;
    let mut par_stats = seq_stats.clone();
    let mut par_threads = seq.thread_count();
    for &t_count in &sweep_counts {
        let mut par = Analyzer::new(cache)
            .options(opts.clone())
            .parallel(true)
            .threads(t_count);
        let t = Instant::now();
        let par_res = par.analyze(&nest);
        let secs = t.elapsed().as_secs_f64();
        eprintln!(
            "  cascade ({t_count} thr): {secs:>8.3}s  ({:.2}x)",
            reference_s / secs.max(1e-12)
        );
        assert_eq!(
            reference, par_res,
            "sharded cascade ({t_count} threads) diverged from the reference solver"
        );
        sweep.push((t_count, secs));
        // The widest run is the headline "par" row, at the pool width the
        // session actually ran (not the requested count).
        par_s = secs;
        par_stats = par.stats();
        par_threads = par.thread_count();
    }
    eprintln!("{seq_stats}");

    assert_eq!(
        reference, seq_res,
        "sequential cascade diverged from the reference solver"
    );

    // Closed-form parametric sweep vs exhaustive enumeration (Section
    // 5.1.3): a 4096-candidate padding sweep answered by fitting a
    // certified quasi-polynomial from a bounded sample window, checked
    // bit-identical against brute force over every candidate.
    let request = SweepRequest::new(
        SweepParameter::PadBytes {
            after: ArrayId::from_index(0),
        },
        0,
        4096,
        cache.line_bytes(),
    );
    let mut closed = Analyzer::new(cache).options(opts.clone());
    let t = Instant::now();
    let sweep_res = closed.sweep(&nest, &request).expect("sweep never errors");
    let sweep_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let (ex_k, ex_misses) = exhaustive_argmin(&nest, cache, &opts, &request);
    let exhaustive_s = t.elapsed().as_secs_f64();
    assert!(
        sweep_res.function.is_some() && sweep_res.certificate.is_some(),
        "the table-1 padding sweep must fit a certified closed form"
    );
    assert_eq!(
        (sweep_res.best_k, sweep_res.best_misses),
        (ex_k, ex_misses),
        "closed-form optimum diverged from exhaustive enumeration"
    );
    eprintln!(
        "  sweep:           {sweep_s:>8.3}s  ({} of {} analyses; exhaustive {exhaustive_s:.3}s, {:.2}x)",
        sweep_res.evaluations,
        sweep_res.candidates,
        exhaustive_s / sweep_s.max(1e-12)
    );

    let json = render_json(
        n,
        (seq.thread_count(), par_threads),
        &reference,
        reference_s,
        seq_s,
        par_s,
        &seq_stats,
        &par_stats,
        &sweep,
        (&sweep_res, sweep_s, exhaustive_s),
    );
    std::fs::write(&out_path, &json).expect("write report");
    eprintln!("  wrote {out_path}");

    if let Some(expect) = args.value("--expect-misses") {
        let got = reference.total_misses();
        if got != expect as u64 {
            eprintln!("FAIL: expected {expect} total misses, analysis found {got}");
            std::process::exit(1);
        }
        eprintln!("  miss gate OK ({got} total misses)");
    }
}

/// Brute force over every sweep candidate in one batched session:
/// `(best_k, best_misses)` with the smallest-parameter tie-break — the
/// baseline the closed form must reproduce bit-identically.
fn exhaustive_argmin(
    nest: &cme_ir::LoopNest,
    cache: cme_cache::CacheConfig,
    opts: &AnalysisOptions,
    request: &SweepRequest,
) -> (usize, u64) {
    let mut analyzer = Analyzer::new(cache).options(opts.clone());
    let ids: Vec<_> = (0..request.count)
        .map(|k| {
            let candidate = request
                .parameter
                .apply(nest, &cache, request.value_at(k))
                .expect("padding candidates are always feasible");
            analyzer.intern(&candidate)
        })
        .collect();
    analyzer
        .analyze_batch(&ids)
        .iter()
        .map(|a| a.total_misses())
        .enumerate()
        .min_by_key(|&(k, m)| (m, k))
        .expect("non-empty candidate range")
}

/// The pipeline stages whose `time_*` counters are nested as
/// `stage_seconds`.
const STAGES: [&str; 5] = ["lower", "reuse", "solve", "cascade", "classify"];

/// One session's counters under their schema names, plus the stage times
/// nested as `stage_seconds` (the shape the CI perf smoke reads).
fn counters_json(stats: &EngineStats) -> Json {
    let stages = stats.counters().filter_map(|(name, _, value)| {
        let stage = name.strip_prefix("time_").filter(|s| STAGES.contains(s))?;
        Some((stage, value.to_json()))
    });
    let stage_seconds = ("stage_seconds", obj(stages));
    let counters = stats
        .counters()
        .map(|(name, _, value)| (name, value.to_json()));
    obj(counters.chain([stage_seconds]))
}

#[allow(clippy::too_many_arguments)]
fn render_json(
    n: i64,
    (threads_seq, threads_par): (usize, usize),
    reference: &NestAnalysis,
    reference_s: f64,
    seq_s: f64,
    par_s: f64,
    seq: &EngineStats,
    par: &EngineStats,
    sweep: &[(usize, f64)],
    (sweep_res, sweep_s, exhaustive_s): (&cme_core::SweepResult, f64, f64),
) -> String {
    let mut s = String::from("{\n");
    s.push_str(&format!("  \"kernel\": \"mmult\",\n  \"n\": {n},\n"));
    s.push_str("  \"cache\": {\"size_bytes\": 8192, \"assoc\": 1, \"line_bytes\": 32, \"elem_bytes\": 4},\n");
    // The cascade rows ran at different pool widths, recorded from the
    // sessions' actual `Analyzer::thread_count()` (a hard-coded 1 /
    // requested count used to go stale when the pool clamped).
    s.push_str(&format!("  \"threads_seq\": {threads_seq},\n"));
    s.push_str(&format!("  \"threads_par\": {threads_par},\n"));
    s.push_str("  \"threads_sweep\": [");
    for (i, (t, secs)) in sweep.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        s.push_str(&format!(
            "{{\"threads\": {t}, \"seconds\": {secs:.6}, \"speedup\": {:.3}}}",
            reference_s / secs.max(1e-12)
        ));
    }
    s.push_str("],\n");
    s.push_str(&format!(
        "  \"total_misses\": {},\n",
        reference.total_misses()
    ));
    s.push_str(&format!("  \"reference_seconds\": {reference_s:.6},\n"));
    s.push_str(&format!("  \"cascade_seq_seconds\": {seq_s:.6},\n"));
    s.push_str(&format!("  \"cascade_par_seconds\": {par_s:.6},\n"));
    s.push_str(&format!(
        "  \"speedup_seq\": {:.3},\n  \"speedup_par\": {:.3},\n",
        reference_s / seq_s.max(1e-12),
        reference_s / par_s.max(1e-12)
    ));
    for (label, st) in [("cascade_seq", seq), ("cascade_par", par)] {
        s.push_str(&format!("  \"{label}\": {},\n", counters_json(st).encode()));
    }
    s.push_str(&format!(
        "  \"sweep\": {{\"candidates\": {}, \"evaluations\": {}, \"fitted\": {}, \
         \"best_k\": {}, \"best_misses\": {}, \"sweep_seconds\": {sweep_s:.6}, \
         \"exhaustive_seconds\": {exhaustive_s:.6}, \"speedup\": {:.3}}},\n",
        sweep_res.candidates,
        sweep_res.evaluations,
        sweep_res.function.is_some(),
        sweep_res.best_k,
        sweep_res.best_misses,
        exhaustive_s / sweep_s.max(1e-12)
    ));
    s.push_str(&format!(
        "  \"incremental_fraction\": {:.4}\n}}\n",
        seq.window_steps as f64 / (seq.window_steps + seq.window_rebuild_rows).max(1) as f64
    ));
    s
}
