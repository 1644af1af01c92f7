//! # Cache Miss Equations
//!
//! A complete, from-scratch Rust implementation of
//! *Precise Miss Analysis for Program Transformations with Caches of
//! Arbitrary Associativity* (Ghosh, Martonosi, Malik — ASPLOS 1998).
//!
//! Cache Miss Equations (CMEs) represent the cache misses of an affine loop
//! nest as systems of linear Diophantine equations. Counting their solutions
//! counts misses *exactly*; reasoning about their solvability (GCD
//! conditions, parametric counts) drives provably conflict-free program
//! transformations — array padding, tile-size selection, loop fusion —
//! without ever enumerating a cache simulation.
//!
//! This crate is a facade re-exporting the whole stack:
//!
//! | module | crate | role |
//! |---|---|---|
//! | [`math`] | `cme-math` | GCDs, Diophantine equations, affine algebra |
//! | [`ir`] | `cme-ir` | affine loop-nest program model |
//! | [`cache`] | `cme-cache` | cache geometry + LRU simulator (ground truth) |
//! | [`reuse`] | `cme-reuse` | reuse-vector analysis |
//! | [`core`] | `cme-core` | CME generation + miss-finding (the paper's core) |
//! | [`opt`] | `cme-opt` | padding, tiling, fusion, parametric optimization |
//! | [`kernels`] | `cme-kernels` | the paper's benchmark loop nests |
//! | [`api`] | `cme-core` | unified request/response contract (all frontends) |
//!
//! # Quickstart
//!
//! ```
//! use cme::cache::CacheConfig;
//! use cme::core::Analyzer;
//! use cme::kernels::mmult;
//!
//! // Analyze 32x32 matmul on an 8KB direct-mapped cache with 32B lines.
//! let nest = mmult(32);
//! let cfg = CacheConfig::new(8192, 1, 32, 4)?;
//! let mut analyzer = Analyzer::new(cfg);
//! let analysis = analyzer.analyze(&nest);
//! println!("{analysis}");
//! assert!(analysis.total_misses() > 0);
//! # Ok::<(), cme::cache::CacheConfigError>(())
//! ```
//!
//! The [`core::Analyzer`] session is reusable: re-analyzing transformed
//! variants of the same nest (moved bases, padded columns) re-solves
//! incrementally from memoized equation work — the engine behind the
//! `cme::opt` searches. Nests can be interned once into the session's
//! [`core::ProgramDb`] and analyzed by [`core::NestId`] handle, singly or
//! in one batched call ([`core::Analyzer::analyze_batch`]) that shares the
//! memo tables and worker pool across the whole batch.
//! `analyzer.stats()` reports what was reused, stage by stage; the
//! invalidation keys are derived in `docs/ENGINE.md`. There is no separate
//! monolithic entry point: `.caching(false)` turns a session into the
//! uncached reference path.
//!
//! Sessions can also be **governed**: install a [`core::Budget`]
//! (wall-clock deadline, solve cap, point ceiling) and/or a
//! [`core::CancelToken`] on the builder and query through
//! [`core::Analyzer::try_analyze`]. An interrupted query degrades to a
//! *sound overcount* — truncated points are counted as misses, the
//! paper's `ε > 0` semantics — tagged with [`core::Outcome::Exhausted`];
//! worker panics and adversarial-extent overflow surface as typed
//! [`core::AnalysisError`]s that poison only that query, never the
//! session. See the budget section of `docs/ENGINE.md`.
//!
//! Finished analyses can outlive the process: attach a persistent
//! [`ArtifactStore`] ([`core::Analyzer::store`]) and repeated queries —
//! same structure, layout, geometry, and options, across sessions and
//! processes — are answered from disk before any pipeline stage runs.
//! The [`api`] module is the serializable contract over all of this:
//! [`api::AnalyzeRequest`] / [`api::AnalyzeResponse`] with stable
//! [`api::ErrorCode`]s, spoken by `cmetool`, the `cme-serve` line
//! protocol (`docs/SERVE.md`), and in-process callers
//! ([`core::Analyzer::serve`]).
//!
//! The types a frontend needs are re-exported at the root, so `use
//! cme::{Analyzer, Budget, ArtifactStore}` works without spelling the
//! layer.

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub use cme_cache as cache;
pub use cme_core as core;
pub use cme_ir as ir;
pub use cme_kernels as kernels;
pub use cme_math as math;
pub use cme_opt as opt;
pub use cme_reuse as reuse;

pub use cme_core::api;

pub use cme_cache::{CacheConfig, CacheConfigError};
pub use cme_core::{
    AnalysisError, AnalysisOptions, Analyzer, ArtifactKey, ArtifactStore, Budget, CancelToken,
    CounterValue, Engine, EngineStats, FaultPlan, GovernedAnalysis, NestAnalysis, NestId, Outcome,
    ProgramDb, RefAnalysis, StoreError, StoreStats, SweepMetric, SweepParameter, SweepRecord,
    SweepRequest, SweepResult,
};
pub use cme_ir::{LoopNest, NestBuilder};
