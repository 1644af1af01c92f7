//! Criterion benches of the analysis pipeline (the Section 5.3 cost story:
//! "CME generation always executes in less than 10s per program").
// These benches time the uncached reference path (a one-shot session with
// memoization disabled); the memoized-engine comparison lives in
// `benches/engine.rs`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use cme_cache::{simulate_nest, CacheConfig};
use cme_core::{Analyzer, CmeSystem, NestAnalysis};
use cme_ir::LoopNest;
use cme_kernels::{adi, gauss, mmult, sor, tom, trans};
use cme_reuse::reuse_vectors;

fn table1_cache() -> CacheConfig {
    CacheConfig::new(8192, 1, 32, 4).unwrap()
}

/// One uncached analysis — the monolithic miss-finding pass, no memo tables.
fn baseline(nest: &LoopNest, cache: CacheConfig) -> NestAnalysis {
    Analyzer::new(cache).caching(false).analyze(nest)
}

/// Reuse-vector computation + symbolic equation generation per kernel
/// (compile-time cost in the paper's scenario — no solving involved).
fn bench_generation(c: &mut Criterion) {
    let cache = table1_cache();
    let mut g = c.benchmark_group("generate");
    for nest in [mmult(64), gauss(64), sor(64), adi(64), trans(64), tom(64)] {
        g.bench_with_input(
            BenchmarkId::from_parameter(nest.name().to_string()),
            &nest,
            |b, nest| {
                b.iter(|| {
                    let sys = CmeSystem::generate(black_box(nest), cache);
                    black_box(sys.equation_count())
                })
            },
        );
    }
    g.finish();
}

/// Reuse-vector analysis alone.
fn bench_reuse(c: &mut Criterion) {
    let cache = table1_cache();
    let mut g = c.benchmark_group("reuse-vectors");
    for nest in [mmult(64), sor(64)] {
        g.bench_with_input(
            BenchmarkId::from_parameter(nest.name().to_string()),
            &nest,
            |b, nest| {
                b.iter(|| {
                    for r in nest.references() {
                        black_box(reuse_vectors(nest, &cache, r.id()));
                    }
                })
            },
        );
    }
    g.finish();
}

/// The miss-finding algorithm (Figure 6) at a bench-friendly size.
fn bench_solve(c: &mut Criterion) {
    let cache = table1_cache();
    let mut g = c.benchmark_group("miss-finding");
    g.sample_size(10);
    for nest in [mmult(32), sor(64), adi(64), tom(64)] {
        g.bench_with_input(
            BenchmarkId::from_parameter(nest.name().to_string()),
            &nest,
            |b, nest| b.iter(|| black_box(baseline(nest, cache))),
        );
    }
    g.finish();
}

/// The trace-driven simulator baseline the CMEs replace.
fn bench_simulator(c: &mut Criterion) {
    let cache = table1_cache();
    let mut g = c.benchmark_group("simulate");
    g.sample_size(10);
    for nest in [mmult(32), sor(64), adi(64), tom(64)] {
        g.bench_with_input(
            BenchmarkId::from_parameter(nest.name().to_string()),
            &nest,
            |b, nest| b.iter(|| black_box(simulate_nest(nest, cache))),
        );
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_generation,
    bench_reuse,
    bench_solve,
    bench_simulator
);
criterion_main!(benches);
