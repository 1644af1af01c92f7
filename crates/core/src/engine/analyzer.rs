//! The [`Analyzer`] session: cache, options, threading, and budget fixed
//! as defaults over the staged incremental engine.

use super::{Engine, EngineStats};
use crate::equations::{CmeSystem, ReplacementEquation};
use crate::governor::{AnalysisError, Budget, CancelToken, GovernedAnalysis};
use crate::solve::{AnalysisOptions, NestAnalysis, RefAnalysis};
use cme_cache::{CacheConfig, CacheModel};
use cme_ir::{LoopNest, NestId, ProgramDb, RefId};
use cme_reuse::ReuseVector;
use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// A configured analysis session: cache, options, and threading fixed as
/// defaults, with the staged incremental engine carrying memoized work
/// across every `analyze` call.
///
/// ```
/// use cme_cache::CacheConfig;
/// use cme_core::{AnalysisOptions, Analyzer};
/// use cme_ir::{AccessKind, NestBuilder};
///
/// let mut b = NestBuilder::new();
/// b.ct_loop("i", 1, 64);
/// let a = b.array("A", &[64], 0);
/// b.reference(a, AccessKind::Read, &[("i", 0)]);
/// let nest = b.build().unwrap();
///
/// let cfg = CacheConfig::new(8192, 1, 32, 4)?;
/// let mut analyzer = Analyzer::new(cfg)
///     .options(AnalysisOptions::default())
///     .parallel(true);
/// let analysis = analyzer.analyze(&nest);
/// assert_eq!(analysis.total_misses(), 8);
///
/// // The handle API: intern once, analyze (or batch-analyze) by id.
/// let id = analyzer.intern(&nest);
/// assert_eq!(analyzer.analyze_batch(&[id])[0], analysis);
/// # Ok::<(), cme_cache::CacheConfigError>(())
/// ```
#[derive(Debug)]
pub struct Analyzer {
    pub(crate) engine: Engine,
    options: AnalysisOptions,
    parallel: bool,
    threads: usize,
    budget: Budget,
    cancel: Option<CancelToken>,
    /// Session memo of fitted parametric sweeps (see
    /// [`super::sweep::SweepResult`]); only complete, fitted results are
    /// ever inserted.
    pub(super) sweep_memo: HashMap<u128, super::sweep::SweepResult>,
}

impl Analyzer {
    /// A sequential session with default options, caching on, and an
    /// unlimited budget.
    pub fn new(cache: CacheConfig) -> Self {
        Analyzer {
            engine: Engine::new(cache),
            options: AnalysisOptions::default(),
            parallel: false,
            threads: 0,
            budget: Budget::unlimited(),
            cancel: None,
            sweep_memo: HashMap::new(),
        }
    }

    /// A session for an arbitrary [`CacheModel`]: analytic equations run
    /// against the model's L1 geometry; non-baseline models additionally
    /// route served requests through the simulator-backed classify path
    /// and key persistent artifacts under the model. For the baseline
    /// model this is exactly [`Analyzer::new`].
    pub fn with_model(model: CacheModel) -> Self {
        let mut analyzer = Analyzer::new(model.l1());
        analyzer.engine.model = model;
        analyzer
    }

    /// The full cache model this session answers for.
    pub fn model(&self) -> &CacheModel {
        &self.engine.model
    }

    /// Sets the session's per-query resource [`Budget`]. Exhausted
    /// queries degrade to sound overcounts instead of failing (see
    /// [`crate::Outcome`]).
    pub fn budget(mut self, budget: Budget) -> Self {
        self.budget = budget;
        self
    }

    /// Installs a cooperative [`CancelToken`]: cancelling it (from any
    /// thread) stops in-flight and subsequent queries at the next
    /// checkpoint, degrading them like budget exhaustion.
    pub fn cancel_token(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Sets the session's default analysis options.
    pub fn options(mut self, options: AnalysisOptions) -> Self {
        self.options = options;
        self
    }

    /// Spreads each analysis over the machine's cores.
    pub fn parallel(mut self, on: bool) -> Self {
        self.parallel = on;
        self
    }

    /// Pins the work-pool width explicitly (overrides [`Analyzer::parallel`]).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Enables or disables the engine's memoization (disabled = every
    /// analysis rebuilds every stage artifact — the uncached reference
    /// path; the artifact store is not consulted either).
    pub fn caching(mut self, on: bool) -> Self {
        self.engine.caching = on;
        self
    }

    /// Attaches a persistent [`crate::ArtifactStore`]: complete analyses
    /// are written through to disk and repeated queries (same structure,
    /// layout, geometry, and options — across sessions and processes)
    /// are answered from the store before any pipeline stage runs.
    /// Exhausted (budget-truncated) results are never persisted.
    pub fn store(mut self, store: Arc<crate::store::ArtifactStore>) -> Self {
        self.engine.store = Some(store);
        self
    }

    /// The cache geometry this session analyzes against.
    pub fn cache(&self) -> &CacheConfig {
        &self.engine.cache
    }

    /// The session's default options.
    pub fn current_options(&self) -> &AnalysisOptions {
        &self.options
    }

    /// Interns a nest into the session's program database (idempotent:
    /// equal nests share a handle, and therefore every memoized artifact).
    pub fn intern(&mut self, nest: &LoopNest) -> NestId {
        self.engine.db.intern(nest)
    }

    /// Analyzes a nest with the session options at full budget, interning
    /// it first; results are bit-identical to the uncached reference
    /// path, warm or cold. The session budget and cancel token govern the
    /// `try_` entry points and [`Analyzer::analyze_with_options`]. Panics
    /// on [`AnalysisError`] — worker panic or address overflow.
    pub fn analyze(&mut self, nest: &LoopNest) -> NestAnalysis {
        let id = self.intern(nest);
        self.analyze_id(id)
    }

    /// [`Analyzer::analyze`] for an already-interned nest.
    pub fn analyze_id(&mut self, id: NestId) -> NestAnalysis {
        only(self.analyze_batch(&[id]))
    }

    /// Analyzes a batch of interned nests in one session call: all
    /// `(nest, reference)` work items and scan shards share one work
    /// pool, and all nests share the session memo tables. Results are in
    /// `ids` order, each bit-identical to [`Analyzer::analyze_id`] on
    /// that nest alone. Panics on [`AnalysisError`].
    pub fn analyze_batch(&mut self, ids: &[NestId]) -> Vec<NestAnalysis> {
        let options = self.options.clone();
        match self.run_batch(ids, &options, Budget::unlimited(), None) {
            Ok(results) => results.into_iter().map(|g| g.analysis).collect(),
            Err(e) => panic!("{e}"),
        }
    }

    /// Governed batch analysis under the session budget and cancel token:
    /// each nest runs under its *own* fresh query governor (solve/point
    /// budgets are per nest; a deadline budget shares the wall clock, so
    /// later nests see less of it). Exhaustion or cancellation degrades
    /// instead of failing: unfinished iteration points are counted as
    /// misses (the paper's `ε > 0` semantics, a sound overcount) and the
    /// result is tagged [`crate::Outcome::Exhausted`].
    ///
    /// # Errors
    ///
    /// [`AnalysisError::WorkerPanic`] when a pool worker panicked (only
    /// this query is lost; the session and its memo tables stay usable)
    /// and [`AnalysisError::Overflow`] when a nest's address arithmetic
    /// cannot be performed in 64 bits. One failing nest fails the batch.
    pub fn try_analyze_batch(
        &mut self,
        ids: &[NestId],
    ) -> Result<Vec<GovernedAnalysis>, AnalysisError> {
        let options = self.options.clone();
        self.run_batch(ids, &options, self.budget, self.cancel.clone())
    }

    /// Analyzes with one-off options (e.g. an exact-counting pass) under
    /// the session budget, still sharing the session's memo tables.
    /// Panics on [`AnalysisError`].
    pub fn analyze_with_options(
        &mut self,
        nest: &LoopNest,
        options: &AnalysisOptions,
    ) -> NestAnalysis {
        let id = self.intern(nest);
        match self.run_one(id, options, self.budget, self.cancel.clone()) {
            Ok(governed) => governed.analysis,
            Err(e) => panic!("{e}"),
        }
    }

    /// The governed, panic-free entry point: analyzes under the session's
    /// budget and cancel token and reports how the query ended alongside
    /// the (possibly degraded, always sound) counts.
    ///
    /// # Errors
    ///
    /// See [`Analyzer::try_analyze_batch`].
    pub fn try_analyze(&mut self, nest: &LoopNest) -> Result<GovernedAnalysis, AnalysisError> {
        let id = self.intern(nest);
        self.try_analyze_id(id)
    }

    /// [`Analyzer::try_analyze`] for an already-interned nest.
    ///
    /// # Errors
    ///
    /// See [`Analyzer::try_analyze_batch`].
    pub fn try_analyze_id(&mut self, id: NestId) -> Result<GovernedAnalysis, AnalysisError> {
        self.try_analyze_batch(&[id]).map(only)
    }

    /// The one path into the engine: `ids` under `options`, `budget` and
    /// `cancel` at the session's thread count.
    pub(crate) fn run_batch(
        &mut self,
        ids: &[NestId],
        options: &AnalysisOptions,
        budget: Budget,
        cancel: Option<CancelToken>,
    ) -> Result<Vec<GovernedAnalysis>, AnalysisError> {
        let threads = self.thread_count();
        self.engine
            .try_analyze_batch(ids, options, threads, budget, cancel.as_ref())
    }

    /// [`Analyzer::run_batch`] for one interned nest.
    pub(crate) fn run_one(
        &mut self,
        id: NestId,
        options: &AnalysisOptions,
        budget: Budget,
        cancel: Option<CancelToken>,
    ) -> Result<GovernedAnalysis, AnalysisError> {
        self.run_batch(&[id], options, budget, cancel).map(only)
    }

    /// Analyzes a single reference against caller-supplied reuse vectors
    /// (e.g. the hand-built vectors of the paper's Figure 8 walkthrough),
    /// bypassing reuse-vector generation and the memo tables entirely —
    /// the artifacts would be keyed by inputs the caller overrode.
    pub fn analyze_reference_with_vectors(
        &mut self,
        nest: &LoopNest,
        dest: RefId,
        rvs: &[ReuseVector],
    ) -> RefAnalysis {
        crate::solve::solve_reference(nest, self.engine.cache, dest, rvs, &self.options)
    }

    /// The symbolic CME system for a nest (generated, rebased, or reused).
    pub fn system(&mut self, nest: &LoopNest) -> Arc<CmeSystem> {
        self.engine.system(nest)
    }

    /// Snapshot of the engine's accounting.
    pub fn stats(&self) -> EngineStats {
        self.engine.stats()
    }

    /// The work-pool width the session's analyses actually run at:
    /// [`Analyzer::threads`] when pinned, the machine's available
    /// parallelism under [`Analyzer::parallel`], 1 otherwise.
    pub fn thread_count(&self) -> usize {
        if self.threads > 0 {
            self.threads
        } else if self.parallel {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            1
        }
    }

    /// Test hook: arms an injected panic that fires in the worker that
    /// claims the `after`-th pool item (counting from 0) of subsequent
    /// analyses, then disarms itself. Exists to prove the panic boundary:
    /// the poisoned query returns [`AnalysisError::WorkerPanic`] while the
    /// session stays usable.
    #[doc(hidden)]
    pub fn inject_worker_panic(&self, after: u64) {
        self.engine.panic_countdown.store(after, Ordering::Relaxed);
    }

    /// Test hook: the session's interned program database.
    #[doc(hidden)]
    pub fn db(&self) -> &ProgramDb {
        &self.engine.db
    }

    /// Test hook: the iteration-space size above which nests bypass the
    /// memos (their point sets would dominate memory). Default: 4M points.
    #[doc(hidden)]
    pub fn set_max_cached_points(&mut self, points: u64) {
        self.engine.max_cached_points = points;
    }

    /// Diagnostic hook: counts a replacement equation's solutions through
    /// the session's shared Diophantine solve memo (see
    /// [`ReplacementEquation::count_solutions_memo`]).
    #[doc(hidden)]
    pub fn count_replacement(&self, eq: &ReplacementEquation, nest: &LoopNest) -> u64 {
        eq.count_solutions_memo(nest, &self.engine.cache, Some(&self.engine.solve_memo))
    }
}

/// The single result of a batch of one.
fn only<T>(mut batch: Vec<T>) -> T {
    match batch.pop() {
        Some(one) => one,
        None => unreachable!("batch of one returns one result"),
    }
}
