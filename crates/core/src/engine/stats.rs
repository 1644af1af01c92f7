//! Work accounting: one counter schema for the engine ([`EngineStats`])
//! and the artifact store ([`StoreStats`]).
//!
//! Every counter is declared once, in the `counter_schema!` table below,
//! with its doc, its kind and its layer. The table generates the live
//! atomics (`Counters`, `StoreCounters`), the public snapshot structs,
//! the snapshot load, `merge`, and `counters()`, the iterator over
//! `(schema name, layer, value)` that `Display`, perfdump and the serve
//! `stats` op all read. Adding a counter is one table line.
//!
//! Each entry reads `layer merge type field`. The kind is the merge rule
//! and the type: a count (`sum u64`: `fetch_add`, summed), a high-water
//! mark (`max u64`: `fetch_max`, max-merged), or a time (`sum Duration`,
//! or `max Duration` for the longest shard: nanoseconds in the atomic, a
//! `Duration` in the snapshot, seconds on the wire). Layers are the
//! benchmark's per-layer prefixes; this summary follows the entries,
//! which are authoritative:
//!
//! | layer      | counters |
//! |------------|----------|
//! | `ir`       | `analyses`, `lowered_built`, `lowered_reused`, `time_lower` |
//! | `reuse`    | `reuse_built`, `reuse_reused`, `time_reuse` |
//! | `solve`    | `passthroughs`, `cascades_built`, `cascades_reused`, `solve_vectors_certified`, `solve_vectors_walked`, `peak_survivors`, `scan_sets_dense`, `scan_sets_runs`, `time_solve` |
//! | `cascade`  | `scans_executed`, `scans_reused`, `scan_points`, `scan_blocks`, `window_steps`, `window_rebuilds`, `window_rebuild_rows`, `time_scan_shards`, `time_scan_longest_shard`, `scan_steals`, `time_scan_merge`, `time_cascade` |
//! | `classify` | `time_classify` |
//! | `memo`     | `systems_generated`, `systems_rebased`, `systems_reused`, `solver_hits`, `solver_misses` |
//! | `sweep`    | `sweeps_fitted`, `sweeps_fallback`, `sweep_memo_hits`, `sweep_samples` |
//! | `sim`      | `sim_classifications`, `sim_accesses`, `writebacks` (`sim_writebacks`), `sim_exhausted` |
//! | `store`    | `store_hits`, `store_misses`, `store_writes`; all of [`StoreStats`] |
//! | `governor` | `truncated_points`, `exhausted` (`exhausted_analyses`), `worker_panics` |
//!
//! The schema name is the field name except for the two in parentheses,
//! whose wire names predate the schema. So do the `cascades_*` (solve
//! stage refinements) and `scans_*` (cascade-stage window-scan batches)
//! field names; the layer column says which stage they count.
//!
//! `time_lower`, `time_cascade` and `time_classify` are driver wall time;
//! `time_reuse` and `time_solve` are summed across pool workers (the two
//! stages run fused inside the per-reference work items), so on a
//! multi-threaded session they can exceed wall time.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::time::Duration;

use crate::api::json::Json;
use crate::window::WindowStats;

use super::stages::solve::SolveSet;
use super::Engine;

/// One counter's value in a stats snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CounterValue {
    /// An event count or a high-water mark.
    Count(u64),
    /// Accumulated (or longest) time.
    Time(Duration),
}

impl CounterValue {
    /// The wire form: counts as integers, times as seconds.
    pub fn to_json(self) -> Json {
        match self {
            CounterValue::Count(n) => Json::UInt(n),
            CounterValue::Time(d) => Json::Float(d.as_secs_f64()),
        }
    }
}

impl fmt::Display for CounterValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CounterValue::Count(n) => write!(f, "{n}"),
            CounterValue::Time(d) => write!(f, "{d:.1?}"),
        }
    }
}

/// A snapshot field type: how it loads from its atomic, sums, and
/// reports. (High-water marks merge with `Ord::max`.)
trait Value: Copy {
    fn from_raw(raw: u64) -> Self;
    fn sum(self, other: Self) -> Self;
    fn report(self) -> CounterValue;
}

impl Value for u64 {
    fn from_raw(raw: u64) -> Self {
        raw
    }
    fn sum(self, other: Self) -> Self {
        self.saturating_add(other)
    }
    fn report(self) -> CounterValue {
        CounterValue::Count(self)
    }
}

impl Value for Duration {
    fn from_raw(raw: u64) -> Self {
        Duration::from_nanos(raw)
    }
    fn sum(self, other: Self) -> Self {
        self.saturating_add(other)
    }
    fn report(self) -> CounterValue {
        CounterValue::Time(self)
    }
}

/// A counter's schema name: its wire name when it has one, else its field.
macro_rules! schema_name {
    ($field:ident) => {
        stringify!($field)
    };
    ($field:ident $wire:literal) => {
        $wire
    };
}

/// Generates each snapshot struct with its atomic twin, the load, `merge`
/// and `counters()` from one entry per counter:
/// `layer merge type field [as "wire name"]`.
macro_rules! counter_schema {
    ($(
        $(#[$attr:meta])*
        pub struct $snapshot:ident in $atomics:ident {
            $($(#[$doc:meta])* $layer:ident $merge:ident $ty:ident $field:ident $(as $wire:literal)?,)*
        }
    )*) => {$(
        #[derive(Debug, Default)]
        pub(crate) struct $atomics {
            $(pub(crate) $field: AtomicU64,)*
        }

        impl $atomics {
            /// A `Relaxed` snapshot of every counter.
            pub(crate) fn load(&self) -> $snapshot {
                $snapshot { $($field: Value::from_raw(self.$field.load(Relaxed)),)* }
            }
        }

        $(#[$attr])*
        pub struct $snapshot {
            $($(#[$doc])* pub $field: $ty,)*
        }

        impl $snapshot {
            /// Folds `other` into `self`: counts and times add
            /// (saturating), high-water marks take the max.
            pub fn merge(&mut self, other: &Self) {
                $(self.$field = self.$field.$merge(other.$field);)*
            }

            /// Every counter as `(schema name, layer, value)`, in schema
            /// order (grouped by layer).
            pub fn counters(&self) -> impl Iterator<Item = (&'static str, &'static str, CounterValue)> {
                [$((schema_name!($field $($wire)?), stringify!($layer), self.$field.report()),)*]
                    .into_iter()
            }
        }
    )*};
}

counter_schema! {
    /// Snapshot of an [`crate::Analyzer`] session's work accounting:
    /// per-stage artifacts generated vs reused, solver-memo traffic, and
    /// per-stage time.
    #[derive(Debug, Clone, Default)]
    pub struct EngineStats in Counters {
        /// Nest analyses run through the engine.
        ir sum u64 analyses,
        /// Lower-stage artifacts (`LoweredNest`) computed.
        ir sum u64 lowered_built,
        /// Lower-stage artifacts answered from the memo.
        ir sum u64 lowered_reused,
        /// Wall time in the lower stage (interning, address affines,
        /// overflow validation).
        ir sum Duration time_lower,
        /// Reuse-vector sets computed.
        reuse sum u64 reuse_built,
        /// Reuse-vector sets answered from the memo.
        reuse sum u64 reuse_reused,
        /// Worker-summed time in the reuse stage (vector generation/lookup).
        reuse sum Duration time_reuse,
        /// References analyzed uncached (caching off or nest too large).
        solve sum u64 passthroughs,
        /// Solve-stage cold/indeterminate refinements (`SolveSet`) computed.
        solve sum u64 cascades_built,
        /// Solve sets answered from the memo.
        solve sum u64 cascades_reused,
        /// Reuse vectors of freshly built solve sets certified all-cold
        /// without walking the survivor set.
        solve sum u64 solve_vectors_certified,
        /// Reuse vectors of freshly built solve sets classified by walking
        /// the survivor set.
        solve sum u64 solve_vectors_walked,
        /// Largest indeterminate set entering any single reuse vector.
        solve max u64 peak_survivors,
        /// Survivor scan sets held in the flat dense representation (picked
        /// by the density heuristic).
        solve sum u64 scan_sets_dense,
        /// Survivor scan sets held run-compressed.
        solve sum u64 scan_sets_runs,
        /// Worker-summed time in the solve stage (cold/indeterminate
        /// refinement; uncached passthrough references are charged here).
        solve sum Duration time_solve,
        /// Cascade-stage `(reference, reuse-vector)` scan batches executed.
        cascade sum u64 scans_executed,
        /// Scan batches answered from the memo.
        cascade sum u64 scans_reused,
        /// Destination points whose reuse windows were scanned.
        cascade sum u64 scan_points,
        /// Contiguous run blocks the scans were sharded into.
        cascade sum u64 scan_blocks,
        /// Scan points reached by sliding the window incrementally.
        cascade sum u64 window_steps,
        /// Full window rebuilds (row/prefix boundaries, shard starts).
        cascade sum u64 window_rebuilds,
        /// Innermost rows aggregated during those rebuilds.
        cascade sum u64 window_rebuild_rows,
        /// Worker-summed wall time spent inside cascade scan shards.
        cascade sum Duration time_scan_shards,
        /// Busiest single shard pass of any scan round — the cascade stage's
        /// parallel critical path.
        cascade max Duration time_scan_longest_shard,
        /// Scan blocks a worker claimed from another worker's lane.
        cascade sum u64 scan_steals,
        /// Wall time merging per-block scan outcomes back into per-slot
        /// results.
        cascade sum Duration time_scan_merge,
        /// Wall time in the cascade stage (sharded window scans).
        cascade sum Duration time_cascade,
        /// Wall time in the classify stage (deterministic result assembly).
        classify sum Duration time_classify,
        /// [`crate::CmeSystem`]s generated from scratch.
        memo sum u64 systems_generated,
        /// Cached systems re-targeted at a new layout (constant terms only).
        memo sum u64 systems_rebased,
        /// Cached systems returned verbatim.
        memo sum u64 systems_reused,
        /// Diophantine/polytope solver memo hits (shared [`cme_math::SolveMemo`];
        /// read from the memo when the snapshot is taken).
        memo sum u64 solver_hits,
        /// Solver memo misses (counts actually computed).
        memo sum u64 solver_misses,
        /// Parametric sweeps answered by a certified closed form (fresh fits
        /// plus store rehydrations; see [`crate::SweepResult`]).
        sweep sum u64 sweeps_fitted,
        /// Parametric sweeps that degraded to direct evaluation.
        sweep sum u64 sweeps_fallback,
        /// Sweeps answered verbatim from the session sweep memo.
        sweep sum u64 sweep_memo_hits,
        /// Numeric analyses run on behalf of sweeps (samples + fallback
        /// evaluations).
        sweep sum u64 sweep_samples,
        /// Model-simulation classify queries run for non-baseline
        /// [`cme_cache::CacheModel`]s.
        sim sum u64 sim_classifications,
        /// Accesses replayed through the model simulator (including aborted
        /// replays' partial progress).
        sim sum u64 sim_accesses,
        /// Memory write traffic observed by completed model replays.
        sim sum u64 sim_writebacks as "writebacks",
        /// Model replays abandoned by budget exhaustion or cancellation (the
        /// query degraded to the analytic LRU bound).
        sim sum u64 sim_exhausted,
        /// Analyses answered from the persistent [`crate::ArtifactStore`]
        /// before any pipeline stage ran.
        store sum u64 store_hits,
        /// Store lookups that fell through to the pipeline.
        store sum u64 store_misses,
        /// Complete analyses written through to the persistent store.
        store sum u64 store_writes,
        /// Iteration points classified indeterminate-treated-as-miss because
        /// a budget or cancellation cut their refinement short.
        governor sum u64 truncated_points,
        /// Analyses that ended [`crate::Outcome::Exhausted`].
        governor sum u64 exhausted_analyses as "exhausted",
        /// Worker panics caught at the pool boundary (each failed one query).
        governor sum u64 worker_panics,
    }

    /// Snapshot of a store's traffic counters.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct StoreStats in StoreCounters {
        /// Lookups answered from disk.
        store sum u64 hits,
        /// Lookups that fell through to recompute (absent, corrupt, version
        /// skew, or read error).
        store sum u64 misses,
        /// Entries persisted.
        store sum u64 writes,
        /// Entries deleted because their bytes failed integrity checks.
        store sum u64 corrupt_evicted,
        /// Entries deleted because their format or engine version differed.
        store sum u64 version_evicted,
        /// Entries deleted by the size bound (least recently used first).
        store sum u64 lru_evicted,
        /// Artifacts not persisted because they exceeded the per-entry cap.
        store sum u64 skipped_large,
        /// Writes dropped on I/O failure (the analysis still succeeded).
        store sum u64 write_errors,
    }
}

fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

impl Counters {
    pub(crate) fn absorb_scan(&self, points: u64, w: WindowStats) {
        self.scan_points.fetch_add(points, Relaxed);
        self.scan_blocks.fetch_add(1, Relaxed);
        self.window_steps.fetch_add(w.steps, Relaxed);
        self.window_rebuilds.fetch_add(w.rebuilds, Relaxed);
        self.window_rebuild_rows.fetch_add(w.rebuild_rows, Relaxed);
    }

    /// Adds an elapsed duration to one `time` counter.
    pub(crate) fn add_time(slot: &AtomicU64, elapsed: Duration) {
        slot.fetch_add(nanos(elapsed), Relaxed);
    }

    /// Counts one freshly built solve set and how its vectors were
    /// decided: certified all-cold, or walked over the survivor set.
    pub(crate) fn note_solve_built(&self, solve: &SolveSet) {
        self.cascades_built.fetch_add(1, Relaxed);
        let walked = solve.vectors.len() as u64 - solve.certified_vectors;
        self.solve_vectors_certified
            .fetch_add(solve.certified_vectors, Relaxed);
        self.solve_vectors_walked.fetch_add(walked, Relaxed);
    }

    /// Records one solved vector's survivor peak and which side of the
    /// density heuristic its scan sets landed on.
    pub(crate) fn note_solved_vector(&self, examined: u64, dense: bool) {
        self.peak_survivors.fetch_max(examined, Relaxed);
        let slot = if dense {
            &self.scan_sets_dense
        } else {
            &self.scan_sets_runs
        };
        slot.fetch_add(1, Relaxed);
    }

    /// Folds one pooled scan round's lane clocks into the session totals.
    pub(crate) fn note_shard_stats(&self, stats: &super::pool::PoolStats) {
        Self::add_time(&self.time_scan_shards, stats.busy);
        self.time_scan_longest_shard
            .fetch_max(nanos(stats.longest), Relaxed);
        self.scan_steals.fetch_add(stats.steals, Relaxed);
    }
}

impl EngineStats {
    /// Fraction of memo lookups (lower, reuse, solve, scan) answered from
    /// cache; `0.0` when nothing was looked up.
    pub fn memo_hit_rate(&self) -> f64 {
        // Saturating: long-lived sessions (nightly fuzz runs) may drive
        // individual counters arbitrarily high, and a diagnostic ratio
        // must never panic on the sum.
        let hits = self
            .lowered_reused
            .saturating_add(self.reuse_reused)
            .saturating_add(self.cascades_reused)
            .saturating_add(self.scans_reused);
        let total = hits
            .saturating_add(self.lowered_built)
            .saturating_add(self.reuse_built)
            .saturating_add(self.cascades_built)
            .saturating_add(self.scans_executed);
        if total == 0 {
            0.0
        } else {
            hits as f64 / total as f64
        }
    }

    /// Total equation-system artifacts served without regeneration.
    pub fn systems_saved(&self) -> u64 {
        self.systems_rebased.saturating_add(self.systems_reused)
    }
}

/// Writes counters one line per layer: `layer: name value, ...`.
fn write_layers(
    f: &mut fmt::Formatter<'_>,
    counters: impl Iterator<Item = (&'static str, &'static str, CounterValue)>,
) -> fmt::Result {
    let mut current = None;
    for (name, layer, value) in counters {
        if current == Some(layer) {
            f.write_str(",")?;
        } else {
            if current.is_some() {
                f.write_str("\n")?;
            }
            write!(f, "{layer}:")?;
            current = Some(layer);
        }
        write!(f, " {name} {value}")?;
    }
    Ok(())
}

impl fmt::Display for EngineStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write_layers(f, self.counters())?;
        write!(f, "\nmemo hit rate: {:.1}%", self.memo_hit_rate() * 100.0)
    }
}

impl fmt::Display for StoreStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write_layers(f, self.counters())
    }
}

impl Engine {
    /// Snapshot of the engine's accounting.
    pub(crate) fn stats(&self) -> EngineStats {
        EngineStats {
            solver_hits: self.solve_memo.hits(),
            solver_misses: self.solve_memo.misses(),
            ..self.counters.load()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The benchmark's per-layer prefixes, in schema order.
    const LAYERS: [&str; 10] = [
        "ir", "reuse", "solve", "cascade", "classify", "memo", "sweep", "sim", "store", "governor",
    ];

    fn check_schema(counters: &[(&'static str, &'static str, CounterValue)]) {
        let mut names: Vec<_> = counters.iter().map(|c| c.0).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), counters.len(), "duplicate schema name");
        // Layers are known and contiguous, in benchmark order, so
        // `Display` prints each layer on one line.
        let ranks: Vec<usize> = counters
            .iter()
            .map(|c| {
                LAYERS
                    .iter()
                    .position(|l| *l == c.1)
                    .unwrap_or_else(|| panic!("unknown layer {}", c.1))
            })
            .collect();
        assert!(
            ranks.windows(2).all(|w| w[0] <= w[1]),
            "layers out of order"
        );
    }

    #[test]
    fn schema_names_are_unique_and_layers_are_ordered() {
        let engine: Vec<_> = EngineStats::default().counters().collect();
        assert_eq!(engine.len(), 48);
        check_schema(&engine);
        check_schema(&StoreStats::default().counters().collect::<Vec<_>>());
        let names: Vec<_> = engine.iter().map(|c| c.0).collect();
        for wire in ["exhausted", "writebacks", "store_hits", "analyses"] {
            assert!(names.contains(&wire), "missing {wire}");
        }
        assert!(!names.contains(&"exhausted_analyses"));
        assert!(!names.contains(&"sim_writebacks"));
    }

    #[test]
    fn merge_sums_counts_and_times_but_maxes_peaks() {
        let ms = Duration::from_millis;
        let mut a = EngineStats {
            analyses: 2,
            peak_survivors: 10,
            time_solve: ms(3),
            time_scan_longest_shard: ms(5),
            ..EngineStats::default()
        };
        let b = EngineStats {
            analyses: 3,
            peak_survivors: 4,
            time_solve: ms(4),
            time_scan_longest_shard: ms(7),
            solver_hits: u64::MAX,
            ..EngineStats::default()
        };
        a.merge(&b);
        assert_eq!(a.analyses, 5);
        assert_eq!(a.peak_survivors, 10);
        assert_eq!(a.time_solve, ms(7));
        assert_eq!(a.time_scan_longest_shard, ms(7));
        a.merge(&b);
        assert_eq!(a.solver_hits, u64::MAX, "counts saturate");

        let mut s = StoreStats {
            hits: 1,
            skipped_large: 2,
            ..StoreStats::default()
        };
        s.merge(&s.clone());
        assert_eq!((s.hits, s.skipped_large), (2, 4));
    }

    #[test]
    fn snapshot_load_reads_every_kind() {
        let c = Counters::default();
        c.analyses.fetch_add(3, Relaxed);
        Counters::add_time(&c.time_lower, Duration::from_micros(5));
        c.note_solved_vector(9, true);
        c.note_solved_vector(4, false);
        let s = c.load();
        assert_eq!(s.analyses, 3);
        assert_eq!(s.time_lower, Duration::from_micros(5));
        assert_eq!(
            (s.peak_survivors, s.scan_sets_dense, s.scan_sets_runs),
            (9, 1, 1)
        );
        let shown = s.to_string();
        assert!(shown.starts_with("ir: analyses 3,"), "{shown}");
        assert!(shown.contains("\ngovernor: truncated_points 0, exhausted 0"));
    }
}
