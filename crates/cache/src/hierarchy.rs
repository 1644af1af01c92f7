//! The simulator for a whole [`CacheModel`]: L1 plus an optional
//! inclusive L2.
//!
//! The paper analyzes a single cache level; the optional second level
//! composes two [`Simulator`]s into an *inclusive* hierarchy: the L1 miss
//! stream feeds L2, and an L2 eviction back-invalidates any L1 copy so L1
//! contents stay a subset of L2's. Per-level statistics are kept by the
//! level simulators themselves ([`ModelSimulator::l1`] /
//! [`ModelSimulator::l2`]). Without an L2 the model simulator is exactly
//! the L1 [`Simulator`].
//!
//! Write handling follows the shared [`WritePolicy`]:
//!
//! - **Write-back**: a dirty L1 eviction folds into L2 (the line is marked
//!   dirty there instead of being counted as memory traffic); memory
//!   write traffic is L2's write-backs plus the rare *escapes* — dirty
//!   data displaced while its line was absent from L2.
//! - **Write-through**: every CPU store is memory traffic (stores
//!   propagate through all levels), which is exactly L1's write counter.

use crate::model::CacheModel;
use crate::policy::WritePolicy;
use crate::sim::{AccessOutcome, Simulator};

/// The trace driver for one [`CacheModel`]: any replacement/write policy,
/// one or two inclusive levels. Outcomes are classified at L1 (the level
/// the analytic model describes); L2 sees only the L1 miss stream.
#[derive(Debug, Clone)]
pub struct ModelSimulator {
    l1: Simulator,
    l2: Option<Simulator>,
    /// Dirty write-backs that bypassed L2 because the line was no longer
    /// resident there (inclusion races around back-invalidation and the
    /// end-of-run drain). Counted as direct memory traffic.
    escape_writebacks: u64,
}

impl ModelSimulator {
    /// A cold simulator for `model`. Both levels share the replacement and
    /// write policy; [`CacheModel::with_l2`] has already checked that they
    /// share line and element size and that L2 can hold L1.
    pub fn new(model: &CacheModel) -> Self {
        let level = |cfg| Simulator::with_policy(cfg, model.policy_kind(), model.write_policy());
        ModelSimulator {
            l1: level(model.l1()),
            l2: model.l2().map(level),
            escape_writebacks: 0,
        }
    }

    /// Performs one access, returning the L1-level outcome.
    // Inlined into the replay loop, so a single-level model costs what a
    // bare `Simulator` access does.
    #[inline]
    pub fn access_kind(&mut self, addr_elems: i64, is_write: bool) -> AccessOutcome {
        let Some(l2) = &mut self.l2 else {
            return self.l1.access_traced(addr_elems, is_write).0;
        };
        let (outcome, l1_evicted) = self.l1.access_traced(addr_elems, is_write);
        if outcome.is_miss() {
            if let (_, Some(ev)) = l2.access_traced(addr_elems, is_write) {
                // Inclusion: the line leaves L1 too. A dirty L1 copy is
                // fresher than anything L2 wrote back, so it goes straight
                // to memory.
                if self.l1.invalidate_line(ev.line) == Some(true) {
                    self.escape_writebacks += 1;
                }
            }
        }
        if let Some(ev) = l1_evicted {
            if ev.dirty && !l2.mark_dirty_line(ev.line) {
                self.escape_writebacks += 1;
            }
        }
        outcome
    }

    /// The L1 simulator (per-level statistics and geometry).
    pub fn l1(&self) -> &Simulator {
        &self.l1
    }

    /// The L2 simulator, if the model is two-level.
    pub fn l2(&self) -> Option<&Simulator> {
        self.l2.as_ref()
    }

    /// Write traffic that reached memory so far: L2 write-backs plus
    /// inclusion escapes for a write-back hierarchy, L1's own traffic
    /// otherwise (every CPU store under write-through).
    pub fn writebacks(&self) -> u64 {
        match &self.l2 {
            Some(l2) if self.l1.write_policy() == WritePolicy::WriteBack => {
                l2.writebacks() + self.escape_writebacks
            }
            _ => self.l1.writebacks(),
        }
    }

    /// Flushes dirty data at end of run: with an L2, L1's dirty lines fold
    /// into it (escapes counted for lines L2 no longer holds) before L2
    /// drains to memory. Cache contents stay resident (clean).
    pub fn drain_dirty(&mut self) {
        let Some(l2) = &mut self.l2 else {
            self.l1.drain_dirty();
            return;
        };
        for line in self.l1.take_dirty_lines() {
            if !l2.mark_dirty_line(line) {
                self.escape_writebacks += 1;
            }
        }
        l2.drain_dirty();
    }

    /// Empties every level and the cold-line histories.
    pub fn flush(&mut self) {
        self.l1.flush();
        if let Some(l2) = &mut self.l2 {
            l2.flush();
        }
        self.escape_writebacks = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CacheConfig;

    fn h(l1_size: i64, l2_size: i64, assoc: i64) -> ModelSimulator {
        let l1 = CacheConfig::new(l1_size, assoc, 16, 4).unwrap();
        let l2 = CacheConfig::new(l2_size, assoc, 16, 4).unwrap();
        ModelSimulator::new(&CacheModel::new(l1).with_l2(l2).unwrap())
    }

    fn l2(hier: &ModelSimulator) -> &Simulator {
        hier.l2().expect("two-level model")
    }

    fn lcg_trace(len: usize, lines: i64) -> Vec<(i64, bool)> {
        let mut x = 99991u64;
        (0..len)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (((x >> 33) as i64).rem_euclid(lines) * 4, x & 1 == 0)
            })
            .collect()
    }

    #[test]
    fn l2_sees_only_the_l1_miss_stream() {
        let mut hier = h(64, 256, 1);
        // A unit-stride sweep: L1 misses once per line, L2 sees exactly
        // those misses (all cold there too).
        for a in 0..64 {
            hier.access_kind(a, false);
        }
        assert_eq!(hier.l1().misses(), 16); // 64 elems / 4 per line
        assert_eq!(l2(&hier).accesses(), hier.l1().misses());
        assert_eq!(l2(&hier).misses(), 16);
    }

    #[test]
    fn large_l2_absorbs_l1_capacity_misses() {
        // Working set fits L2 but thrashes L1: the second sweep misses in
        // L1 but hits in L2.
        let mut hier = h(64, 1024, 1);
        for _ in 0..2 {
            for a in 0..128 {
                hier.access_kind(a, false);
            }
        }
        assert!(hier.l1().replacement_misses() > 0);
        assert_eq!(l2(&hier).misses(), 32, "all 32 lines fit L2");
        assert_eq!(l2(&hier).hits(), l2(&hier).accesses() - 32);
    }

    #[test]
    fn inclusion_holds_on_random_traces() {
        let mut hier = h(64, 256, 2);
        for (a, w) in lcg_trace(4000, 200) {
            hier.access_kind(a, w);
            let l2: std::collections::HashSet<i64> =
                l2(&hier).resident_lines().into_iter().collect();
            for line in hier.l1().resident_lines() {
                assert!(l2.contains(&line), "L1 line {line} missing from L2");
            }
        }
    }

    #[test]
    fn writeback_traffic_is_conserved_on_random_traces() {
        // Every dirtied line's data must reach memory exactly once by the
        // end: via an L2 write-back or an escape. Compare against a
        // single write-back-per-dirtied-line lower bound.
        let mut hier = h(64, 256, 2);
        let trace = lcg_trace(2000, 100);
        let mut dirtied = std::collections::HashSet::new();
        for &(a, w) in &trace {
            hier.access_kind(a, w);
            if w {
                dirtied.insert(a / 4);
            }
        }
        hier.drain_dirty();
        assert!(hier.writebacks() >= dirtied.len() as u64 / 2);
        assert!(hier.writebacks() <= trace.iter().filter(|&&(_, w)| w).count() as u64);
    }

    #[test]
    fn write_through_counts_every_store() {
        let l1 = CacheConfig::new(64, 1, 16, 4).unwrap();
        let l2 = CacheConfig::new(256, 1, 16, 4).unwrap();
        let model = CacheModel::new(l1).write(WritePolicy::WriteThrough);
        let mut hier = ModelSimulator::new(&model.with_l2(l2).unwrap());
        for a in 0..32 {
            hier.access_kind(a, true);
            hier.access_kind(a, false);
        }
        hier.drain_dirty();
        assert_eq!(hier.writebacks(), 32);
    }

    #[test]
    fn flush_resets_both_levels() {
        let mut hier = h(64, 256, 1);
        hier.access_kind(0, true);
        hier.flush();
        assert!(hier.l1().resident_lines().is_empty());
        assert!(l2(&hier).resident_lines().is_empty());
        assert_eq!(hier.access_kind(0, false), AccessOutcome::ColdMiss);
        assert_eq!(hier.writebacks(), 0);
    }
}
