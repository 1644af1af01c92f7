//! Representation-equivalence suite for the cascade scan core: the
//! survivor/scan sets may be run-compressed or flat dense (picked per
//! scan by the density heuristic), and every analysis result must be
//! bit-identical to the uncached reference path whichever side each set
//! lands on — across associativities from direct-mapped to fully
//! associative. That both representations enumerate the same points is
//! checked directly by the `survivor_reprs_are_interchangeable` proptest
//! in `pointset.rs`.

use cme_cache::CacheConfig;
use cme_core::{Analyzer, EngineStats, NestAnalysis};
use cme_ir::LoopNest;
use cme_kernels::{mmult, table1_suite};
use cme_testgen::{arb_nest, NestDistribution};
use proptest::prelude::*;

/// Cache geometries from direct-mapped through fully associative
/// (size 2048 B, 32 B lines, 4 B elements → k = 64 is full).
fn assoc_sweep() -> Vec<CacheConfig> {
    [1, 2, 4, 8, 64]
        .into_iter()
        .map(|k| CacheConfig::new(2048, k, 32, 4).unwrap())
        .collect()
}

/// Analyzes `nest` in a memoizing session and asserts the result is
/// bit-identical (including per-reference, per-vector reports) to the
/// uncached reference path. Returns the session's counters so callers
/// can check which representations the heuristic picked.
fn assert_repr_identical(cache: CacheConfig, nest: &LoopNest, label: &str) -> EngineStats {
    let (analysis, stats) = analyze(cache, nest);
    let reference = Analyzer::new(cache).caching(false).analyze(nest);
    assert_eq!(
        analysis, reference,
        "{label}: diverged from the uncached path"
    );
    stats
}

fn analyze(cache: CacheConfig, nest: &LoopNest) -> (NestAnalysis, EngineStats) {
    let mut analyzer = Analyzer::new(cache);
    let analysis = analyzer.analyze(nest);
    (analysis, analyzer.stats())
}

#[test]
fn mmult_is_bit_identical_across_reprs_and_associativity() {
    for cache in assoc_sweep() {
        // N=24 straddles the density threshold: mmult's gap-one vectors
        // leave dense survivor fronts while the stepping vectors leave
        // sparse ones, so one analysis mixes both representations.
        let stats = assert_repr_identical(cache, &mmult(24), "mmult N=24");
        assert!(
            stats.scan_sets_dense > 0 && stats.scan_sets_runs > 0,
            "{stats}"
        );
    }
}

#[test]
fn table1_kernels_are_bit_identical_across_reprs() {
    // Full sweep on one representative k-way geometry; mmult above
    // covers the associativity axis.
    let cache = CacheConfig::new(2048, 4, 32, 4).unwrap();
    for nest in table1_suite(16) {
        let label = nest.name().to_string();
        assert_repr_identical(cache, &nest, &label);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random nests on a k-way geometry: bit-identical to the uncached
    /// path whichever representations the heuristic picks.
    #[test]
    fn random_nests_are_repr_invariant(
        nest in arb_nest(NestDistribution::default()),
    ) {
        let cache = CacheConfig::new(1024, 4, 32, 4).unwrap();
        let (analysis, _) = analyze(cache, &nest);
        let reference = Analyzer::new(cache).caching(false).analyze(&nest);
        prop_assert_eq!(analysis, reference);
    }
}
