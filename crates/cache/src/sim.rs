//! Trace-driven set-associative cache simulation.
//!
//! This is the DineroIII stand-in used as ground truth. By default it is
//! the paper's Section 2.3 machine — a write-allocate, fetch-on-write cache
//! with true LRU replacement per set — but the replacement policy
//! ([`PolicyKind`]) and store handling ([`WritePolicy`]) are pluggable via
//! [`Simulator::with_policy`]. Reads and writes hit and miss identically
//! under the default model, so the simulator takes bare element addresses.

use crate::config::CacheConfig;
use crate::policy::{PolicyKind, ReplacementPolicy, WritePolicy};
use std::collections::HashSet;

/// The result of one memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessOutcome {
    /// The line was resident.
    Hit,
    /// First-ever touch of the memory line (compulsory miss).
    ColdMiss,
    /// The line had been touched before but was not resident (conflict or
    /// capacity miss — the paper's replacement misses).
    ReplacementMiss,
}

impl AccessOutcome {
    /// Returns `true` for either miss kind.
    pub fn is_miss(&self) -> bool {
        !matches!(self, AccessOutcome::Hit)
    }
}

/// A line displaced by an access — reported so an outer cache level can
/// absorb the write-back and maintain inclusion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Eviction {
    /// The evicted memory line.
    pub line: i64,
    /// Whether the evicted copy was dirty (write-back policy only).
    pub dirty: bool,
}

/// A set-associative cache simulator.
///
/// # Examples
///
/// ```
/// use cme_cache::{AccessOutcome, CacheConfig, Simulator};
/// let cfg = CacheConfig::new(64, 1, 16, 4)?; // 4 sets, 4-elem lines
/// let mut sim = Simulator::new(cfg);
/// assert_eq!(sim.access(0), AccessOutcome::ColdMiss);
/// assert_eq!(sim.access(3), AccessOutcome::Hit);
/// // 64B/4B = 16 elements span the cache; +16 conflicts with set 0:
/// assert_eq!(sim.access(16), AccessOutcome::ColdMiss);
/// assert_eq!(sim.access(0), AccessOutcome::ReplacementMiss);
/// # Ok::<(), cme_cache::CacheConfigError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Simulator {
    config: CacheConfig,
    policy_kind: PolicyKind,
    write_policy: WritePolicy,
    /// Per-set way slots: the resident memory line and its dirty bit.
    /// `None` marks an empty (or back-invalidated) way.
    slots: Vec<Vec<Option<(i64, bool)>>>,
    /// The victim-selection state machine (recency metadata only).
    policy: Box<dyn ReplacementPolicy>,
    /// Every memory line ever touched (for cold-miss classification).
    seen: HashSet<i64>,
    accesses: u64,
    hits: u64,
    cold: u64,
    replacement: u64,
    writebacks: u64,
}

impl Simulator {
    /// Creates an empty (fully cold) cache with the paper's default model:
    /// true-LRU replacement, write-back/write-allocate stores.
    pub fn new(config: CacheConfig) -> Self {
        Simulator::with_policy(config, PolicyKind::Lru, WritePolicy::WriteBack)
    }

    /// Creates an empty cache with explicit replacement and write policies.
    pub fn with_policy(config: CacheConfig, policy: PolicyKind, write: WritePolicy) -> Self {
        let num_sets = config.num_sets() as usize;
        let ways = config.assoc() as usize;
        Simulator {
            config,
            policy_kind: policy,
            write_policy: write,
            slots: vec![vec![None; ways]; num_sets],
            policy: policy.build(num_sets, ways),
            seen: HashSet::new(),
            accesses: 0,
            hits: 0,
            cold: 0,
            replacement: 0,
            writebacks: 0,
        }
    }

    /// The cache geometry being simulated.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// The replacement policy in effect.
    pub fn policy_kind(&self) -> PolicyKind {
        self.policy_kind
    }

    /// The write policy in effect.
    pub fn write_policy(&self) -> WritePolicy {
        self.write_policy
    }

    /// Performs one read access to an element address.
    pub fn access(&mut self, addr_elems: i64) -> AccessOutcome {
        self.access_traced(addr_elems, false).0
    }

    /// Performs one write access. Under the default write-back /
    /// write-allocate model, hit/miss behavior is identical to a read and
    /// the line is additionally marked dirty; under write-through /
    /// no-allocate, the store is counted as memory write traffic and a
    /// store miss does not install the line.
    pub fn write(&mut self, addr_elems: i64) -> AccessOutcome {
        self.access_traced(addr_elems, true).0
    }

    /// Performs one access and additionally reports the line it displaced,
    /// if any — the hook a two-level [`ModelSimulator`](crate::ModelSimulator)
    /// uses to absorb write-backs and maintain inclusion.
    pub fn access_traced(
        &mut self,
        addr_elems: i64,
        is_write: bool,
    ) -> (AccessOutcome, Option<Eviction>) {
        self.accesses += 1;
        let line = self.config.memory_line(addr_elems);
        let set = self.config.cache_set(addr_elems) as usize;
        if let Some(way) = self.slots[set]
            .iter()
            .position(|s| s.map(|(l, _)| l) == Some(line))
        {
            self.policy.touch(set, way);
            if is_write {
                match self.write_policy {
                    WritePolicy::WriteBack => {
                        if let Some(slot) = self.slots[set][way].as_mut() {
                            slot.1 = true;
                        }
                    }
                    WritePolicy::WriteThrough => self.writebacks += 1,
                }
            }
            self.hits += 1;
            return (AccessOutcome::Hit, None);
        }
        // Miss. Cold vs replacement is a property of the reference stream
        // (first-ever touch of the line), not of the allocation decision,
        // so a non-allocating store miss still consumes the line's cold
        // classification.
        let outcome = if self.seen.insert(line) {
            self.cold += 1;
            AccessOutcome::ColdMiss
        } else {
            self.replacement += 1;
            AccessOutcome::ReplacementMiss
        };
        if is_write && self.write_policy == WritePolicy::WriteThrough {
            self.writebacks += 1;
            // No-allocate: the store goes straight through to memory.
            return (outcome, None);
        }
        let mut evicted = None;
        let way = match self.slots[set].iter().position(|s| s.is_none()) {
            Some(empty) => empty,
            None => {
                let victim = self.policy.victim(set);
                if let Some((old, dirty)) = self.slots[set][victim].take() {
                    if dirty {
                        self.writebacks += 1;
                    }
                    evicted = Some(Eviction { line: old, dirty });
                }
                victim
            }
        };
        let dirty = is_write && self.write_policy == WritePolicy::WriteBack;
        self.slots[set][way] = Some((line, dirty));
        self.policy.fill(set, way);
        (outcome, evicted)
    }

    /// Removes `line` from the cache if resident — the inclusion
    /// back-invalidation an outer level issues when it evicts the line.
    /// Returns the dropped copy's dirty bit, or `None` if the line was not
    /// resident. No statistics are touched; the caller owns the accounting
    /// for the displaced data.
    pub fn invalidate_line(&mut self, line: i64) -> Option<bool> {
        let set = self.config.set_of_line(line) as usize;
        let slot = self.slots[set]
            .iter_mut()
            .find(|s| s.map(|(l, _)| l) == Some(line))?;
        slot.take().map(|(_, dirty)| dirty)
    }

    /// Marks `line` dirty if resident (a dirty eviction arriving from an
    /// inner cache level). Returns whether the line was resident.
    pub fn mark_dirty_line(&mut self, line: i64) -> bool {
        let set = self.config.set_of_line(line) as usize;
        let slot = self.slots[set].iter_mut().flatten().find(|s| s.0 == line);
        slot.map(|s| s.1 = true).is_some()
    }

    /// The memory lines currently resident, in no particular order.
    pub fn resident_lines(&self) -> Vec<i64> {
        self.slots
            .iter()
            .flatten()
            .filter_map(|s| s.map(|(l, _)| l))
            .collect()
    }

    /// Empties the cache (and the cold-line history).
    ///
    /// The paper analyzes each nest in isolation assuming a cold cache
    /// (Section 3.1); call this between nests to match.
    pub fn flush(&mut self) {
        for set in &mut self.slots {
            set.fill(None);
        }
        self.policy.reset();
        self.seen.clear();
    }

    /// Number of accesses simulated.
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Number of hits.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Number of cold (compulsory) misses.
    pub fn cold_misses(&self) -> u64 {
        self.cold
    }

    /// Number of replacement (conflict + capacity) misses.
    pub fn replacement_misses(&self) -> u64 {
        self.replacement
    }

    /// Total misses.
    pub fn misses(&self) -> u64 {
        self.cold + self.replacement
    }

    /// Write traffic to the next memory level: dirty lines written back on
    /// eviction under write-back (lines still dirty in the cache at the
    /// end are not counted; call [`Simulator::drain_dirty`] to flush
    /// them), or every store under write-through.
    pub fn writebacks(&self) -> u64 {
        self.writebacks
    }

    /// Flushes every resident dirty line, counting the final write-backs;
    /// the cache contents stay resident (clean).
    pub fn drain_dirty(&mut self) {
        self.writebacks += self.take_dirty_lines().len() as u64;
    }

    /// Clears every dirty bit *without* counting write-backs and returns
    /// the lines that were dirty — a hierarchy folds them into the next
    /// level instead of sending them to memory.
    pub fn take_dirty_lines(&mut self) -> Vec<i64> {
        let mut lines = Vec::new();
        for set in &mut self.slots {
            for slot in set.iter_mut().flatten() {
                if std::mem::take(&mut slot.1) {
                    lines.push(slot.0);
                }
            }
        }
        lines
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn cfg(size: i64, assoc: i64, line: i64) -> CacheConfig {
        CacheConfig::new(size, assoc, line, 4).unwrap()
    }

    #[test]
    fn spatial_locality_hits_within_line() {
        let mut sim = Simulator::new(cfg(8192, 1, 32)); // 8-elem lines
        assert_eq!(sim.access(0), AccessOutcome::ColdMiss);
        for a in 1..8 {
            assert_eq!(sim.access(a), AccessOutcome::Hit, "addr {a}");
        }
        assert_eq!(sim.access(8), AccessOutcome::ColdMiss);
        assert_eq!(sim.misses(), 2);
        assert_eq!(sim.hits(), 7);
        assert_eq!(sim.accesses(), 9);
    }

    #[test]
    fn direct_mapped_conflict_ping_pong() {
        let mut sim = Simulator::new(cfg(64, 1, 16)); // 4 sets, 4-elem lines, 16-elem span
        assert_eq!(sim.access(0), AccessOutcome::ColdMiss);
        assert_eq!(sim.access(16), AccessOutcome::ColdMiss);
        for _ in 0..3 {
            assert_eq!(sim.access(0), AccessOutcome::ReplacementMiss);
            assert_eq!(sim.access(16), AccessOutcome::ReplacementMiss);
        }
        assert_eq!(sim.replacement_misses(), 6);
        assert_eq!(sim.cold_misses(), 2);
    }

    #[test]
    fn two_way_absorbs_pairwise_conflict() {
        let mut sim = Simulator::new(CacheConfig::new(128, 2, 16, 4).unwrap()); // 4 sets
                                                                                // Lines 0 and 8 map to set 0 (way span = 16 elements, 4 lines/way).
        assert_eq!(sim.access(0), AccessOutcome::ColdMiss);
        assert_eq!(sim.access(16), AccessOutcome::ColdMiss);
        for _ in 0..4 {
            assert_eq!(sim.access(0), AccessOutcome::Hit);
            assert_eq!(sim.access(16), AccessOutcome::Hit);
        }
        // A third conflicting line evicts the LRU of the two.
        assert_eq!(sim.access(32), AccessOutcome::ColdMiss);
        assert_eq!(sim.access(0), AccessOutcome::ReplacementMiss);
    }

    #[test]
    fn lru_order_is_true_lru() {
        let mut sim = Simulator::new(CacheConfig::new(128, 2, 16, 4).unwrap());
        sim.access(0); // line A -> MRU
        sim.access(16); // line B -> MRU, A LRU
        sim.access(0); // A -> MRU, B LRU
        sim.access(32); // C evicts B
        assert_eq!(sim.access(0), AccessOutcome::Hit);
        assert_eq!(sim.access(16), AccessOutcome::ReplacementMiss);
    }

    #[test]
    fn fifo_ignores_recency() {
        // Same trace as `lru_order_is_true_lru`, FIFO policy: re-touching
        // line A does not refresh it, so C evicts A (the oldest), not B.
        let cfg = CacheConfig::new(128, 2, 16, 4).unwrap();
        let mut sim = Simulator::with_policy(cfg, PolicyKind::Fifo, WritePolicy::WriteBack);
        sim.access(0); // A
        sim.access(16); // B
        sim.access(0); // A hit — no-op for FIFO order
        sim.access(32); // C evicts A
        assert_eq!(sim.access(16), AccessOutcome::Hit);
        assert_eq!(sim.access(0), AccessOutcome::ReplacementMiss);
    }

    #[test]
    fn plru_matches_lru_at_two_ways() {
        // Tree-PLRU over two ways is exactly LRU: replay a pseudo-random
        // conflict trace under both policies and compare counters.
        let cfg = CacheConfig::new(128, 2, 16, 4).unwrap();
        let mut lru = Simulator::new(cfg);
        let mut plru = Simulator::with_policy(cfg, PolicyKind::Plru, WritePolicy::WriteBack);
        let mut x = 12345u64;
        for _ in 0..500 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let addr = ((x >> 33) % 6) as i64 * 16; // 6 lines over 4 sets
            assert_eq!(lru.access(addr), plru.access(addr));
        }
        assert_eq!(lru.misses(), plru.misses());
    }

    #[test]
    fn write_through_stores_count_traffic_and_do_not_allocate() {
        let cfg = CacheConfig::new(64, 1, 16, 4).unwrap();
        let mut sim = Simulator::with_policy(cfg, PolicyKind::Lru, WritePolicy::WriteThrough);
        // Store miss: goes to memory, does not install the line.
        assert_eq!(sim.write(0), AccessOutcome::ColdMiss);
        assert_eq!(sim.writebacks(), 1);
        assert!(sim.resident_lines().is_empty());
        // A second store miss to the same never-resident line is a
        // replacement miss by the first-touch classification.
        assert_eq!(sim.write(0), AccessOutcome::ReplacementMiss);
        // Read installs it; a store hit writes through without dirtying.
        assert_eq!(sim.access(0), AccessOutcome::ReplacementMiss);
        assert_eq!(sim.write(0), AccessOutcome::Hit);
        assert_eq!(sim.writebacks(), 3);
        sim.drain_dirty();
        assert_eq!(sim.writebacks(), 3, "write-through lines are never dirty");
    }

    #[test]
    fn eviction_reporting_and_back_invalidation() {
        let cfg = CacheConfig::new(64, 1, 16, 4).unwrap(); // 4 sets
        let mut sim = Simulator::new(cfg);
        assert_eq!(sim.write(0), AccessOutcome::ColdMiss);
        let (outcome, evicted) = sim.access_traced(16, false); // conflicts with line 0
        assert_eq!(outcome, AccessOutcome::ColdMiss);
        assert_eq!(
            evicted,
            Some(Eviction {
                line: 0,
                dirty: true
            })
        );
        assert_eq!(sim.writebacks(), 1);
        // Back-invalidate the resident line; it must be gone afterwards.
        assert_eq!(sim.invalidate_line(4), Some(false));
        assert_eq!(sim.invalidate_line(4), None);
        assert!(sim.resident_lines().is_empty());
        // mark_dirty_line on a resident line makes drain count it.
        sim.access(0);
        assert!(sim.mark_dirty_line(0));
        assert!(!sim.mark_dirty_line(99));
        assert_eq!(sim.take_dirty_lines(), vec![0]);
        sim.drain_dirty();
        assert_eq!(sim.writebacks(), 1, "taken lines are not double counted");
    }

    #[test]
    fn negative_addresses_are_legal() {
        let mut sim = Simulator::new(cfg(64, 1, 16));
        assert_eq!(sim.access(-1), AccessOutcome::ColdMiss);
        assert_eq!(sim.access(-4), AccessOutcome::Hit); // same line [-4,-1]
        assert_eq!(sim.access(-5), AccessOutcome::ColdMiss);
    }

    #[test]
    fn flush_restores_cold_state() {
        let mut sim = Simulator::new(cfg(64, 1, 16));
        sim.access(0);
        sim.flush();
        assert_eq!(sim.access(0), AccessOutcome::ColdMiss);
        assert_eq!(sim.cold_misses(), 2);
    }

    #[test]
    fn fully_associative_is_capacity_only_for_cyclic_sweep() {
        // 4-line fully associative cache; sweep over 4 lines repeatedly: all hits.
        let mut sim = Simulator::new(CacheConfig::fully_associative(64, 16, 4).unwrap());
        let lines = [0i64, 4, 8, 12];
        for &l in &lines {
            assert!(sim.access(l).is_miss());
        }
        for _ in 0..3 {
            for &l in &lines {
                assert_eq!(sim.access(l), AccessOutcome::Hit);
            }
        }
        // Sweep over 5 lines cyclically: LRU thrashes every access.
        sim.flush();
        let lines5 = [0i64, 4, 8, 12, 16];
        for _ in 0..3 {
            for &l in &lines5 {
                assert!(sim.access(l).is_miss());
            }
        }
    }

    proptest! {
        /// Invariant: cold misses equal the number of distinct lines touched,
        /// and outcome counts always sum to accesses — under every policy.
        #[test]
        fn prop_cold_misses_equal_distinct_lines(
            addrs in proptest::collection::vec(0i64..512, 1..200),
            assoc in prop_oneof![Just(1i64), Just(2), Just(4)],
            policy in prop_oneof![
                Just(PolicyKind::Lru), Just(PolicyKind::Fifo), Just(PolicyKind::Plru)
            ],
        ) {
            let cfg = CacheConfig::new(256, assoc, 16, 4).unwrap();
            let mut sim = Simulator::with_policy(cfg, policy, WritePolicy::WriteBack);
            let mut distinct = std::collections::HashSet::new();
            for &a in &addrs {
                sim.access(a);
                distinct.insert(cfg.memory_line(a));
            }
            prop_assert_eq!(sim.cold_misses(), distinct.len() as u64);
            prop_assert_eq!(sim.hits() + sim.misses(), sim.accesses());
        }

        /// LRU stack inclusion: with the SAME number of sets, a (k+1)-way
        /// cache holds a superset of every k-way cache's contents (each set
        /// keeps the top of its own LRU stack), so its misses never exceed
        /// the k-way cache's on any trace.
        #[test]
        fn prop_lru_stack_inclusion_same_sets(
            addrs in proptest::collection::vec(0i64..512, 1..150),
        ) {
            // Both have 8 sets of 16B lines; ways 1 vs 2 vs 4.
            let c1 = CacheConfig::new(128, 1, 16, 4).unwrap();
            let c2 = CacheConfig::new(256, 2, 16, 4).unwrap();
            let c4 = CacheConfig::new(512, 4, 16, 4).unwrap();
            prop_assert_eq!(c1.num_sets(), c2.num_sets());
            prop_assert_eq!(c2.num_sets(), c4.num_sets());
            let (mut s1, mut s2, mut s4) =
                (Simulator::new(c1), Simulator::new(c2), Simulator::new(c4));
            for &a in &addrs {
                s1.access(a);
                s2.access(a);
                s4.access(a);
            }
            prop_assert!(s2.misses() <= s1.misses());
            prop_assert!(s4.misses() <= s2.misses());
        }

        /// Every policy behaves identically on a direct-mapped cache (there
        /// is only one victim to pick), including write-back accounting.
        #[test]
        fn prop_direct_mapped_is_policy_independent(
            addrs in proptest::collection::vec((0i64..256, proptest::bool::ANY), 1..120),
        ) {
            let cfg = CacheConfig::new(128, 1, 16, 4).unwrap();
            let mut sims: Vec<Simulator> = PolicyKind::ALL
                .iter()
                .map(|&p| Simulator::with_policy(cfg, p, WritePolicy::WriteBack))
                .collect();
            for &(a, w) in &addrs {
                let outcomes: Vec<AccessOutcome> = sims
                    .iter_mut()
                    .map(|s| if w { s.write(a) } else { s.access(a) })
                    .collect();
                prop_assert!(outcomes.windows(2).all(|o| o[0] == o[1]));
            }
            for s in &mut sims {
                s.drain_dirty();
            }
            let agree = sims.windows(2).all(|s| {
                s[0].writebacks() == s[1].writebacks() && s[0].misses() == s[1].misses()
            });
            prop_assert!(agree);
        }
    }
}
