//! Replacement and write policies, split out of the simulator.
//!
//! The paper's Section 2.3 machine is true-LRU with write-allocate /
//! fetch-on-write stores; [`Simulator`](crate::Simulator) keeps that as its
//! default. This module factors the victim-selection state machine out into
//! the [`ReplacementPolicy`] trait so the same set/slot bookkeeping can
//! drive FIFO and tree-PLRU caches, and adds [`WritePolicy`] to select
//! between write-back/write-allocate and write-through/no-allocate store
//! handling. [`PolicyKind`] carries the stable wire spellings the model
//! layer (`CacheModel`, the serve protocol, `.cme` corpus directives) uses
//! to name a policy.

use std::fmt;

/// The per-set replacement state machine: which way a full set evicts.
///
/// The simulator owns the resident lines and dirty bits; a policy only
/// tracks *ordering* metadata per `(set, way)` slot and answers victim
/// queries. Implementors are told about every hit
/// ([`touch`](ReplacementPolicy::touch)) and every install
/// ([`fill`](ReplacementPolicy::fill));
/// [`victim`](ReplacementPolicy::victim) is only called on full sets.
pub trait ReplacementPolicy: fmt::Debug + Send {
    /// Records a hit on `way` of `set`.
    fn touch(&mut self, set: usize, way: usize);

    /// Records a line newly installed in `way` of `set` (by default, the
    /// same update as a hit).
    fn fill(&mut self, set: usize, way: usize) {
        self.touch(set, way);
    }

    /// The way a full `set` should evict next.
    fn victim(&mut self, set: usize) -> usize;

    /// Forgets all recency state (cache flush).
    fn reset(&mut self);

    /// Clones the policy behind the trait object (simulators are `Clone`).
    fn clone_box(&self) -> Box<dyn ReplacementPolicy>;
}

impl Clone for Box<dyn ReplacementPolicy> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// True least-recently-used replacement: a per-set recency stack, most
/// recently used way first. This reproduces the paper's Section 2.3
/// machine exactly (and the LRU stack-inclusion property the analytic
/// criterion relies on).
#[derive(Debug, Clone)]
pub struct Lru {
    /// Per-set way indices, most recently used first. Length equals the
    /// set's occupancy (promote de-duplicates), so `last()` is the LRU way
    /// once the set is full.
    stacks: Vec<Vec<u32>>,
}

impl Lru {
    /// A cold LRU state machine for `num_sets` sets.
    pub fn new(num_sets: usize) -> Self {
        Lru {
            stacks: vec![Vec::new(); num_sets],
        }
    }
}

impl ReplacementPolicy for Lru {
    fn touch(&mut self, set: usize, way: usize) {
        let stack = &mut self.stacks[set];
        if let Some(pos) = stack.iter().position(|&w| w == way as u32) {
            stack.remove(pos);
        }
        stack.insert(0, way as u32);
    }

    fn victim(&mut self, set: usize) -> usize {
        self.stacks[set].last().copied().unwrap_or(0) as usize
    }

    fn reset(&mut self) {
        self.stacks.iter_mut().for_each(Vec::clear);
    }

    fn clone_box(&self) -> Box<dyn ReplacementPolicy> {
        Box::new(self.clone())
    }
}

/// First-in first-out replacement: a per-set round-robin fill pointer.
/// Hits do not refresh a line's position — the defining difference from
/// LRU, and the reason the analytic LRU result is only a bound here.
#[derive(Debug, Clone)]
pub struct Fifo {
    /// Per-set index of the oldest way (the next victim once full).
    next: Vec<u32>,
    ways: u32,
}

impl Fifo {
    /// A cold FIFO state machine for `num_sets` sets of `ways` ways.
    pub fn new(num_sets: usize, ways: usize) -> Self {
        Fifo {
            next: vec![0; num_sets],
            ways: (ways as u32).max(1),
        }
    }
}

impl ReplacementPolicy for Fifo {
    fn touch(&mut self, _set: usize, _way: usize) {}

    fn fill(&mut self, set: usize, way: usize) {
        // Cold fills walk ways in order, so advancing on `way == next`
        // keeps `next` at the oldest resident line once the set is full.
        if self.next[set] == way as u32 {
            self.next[set] = (way as u32 + 1) % self.ways;
        }
    }

    fn victim(&mut self, set: usize) -> usize {
        self.next[set] as usize
    }

    fn reset(&mut self) {
        self.next.fill(0);
    }

    fn clone_box(&self) -> Box<dyn ReplacementPolicy> {
        Box::new(self.clone())
    }
}

/// Tree pseudo-LRU replacement: one bit per internal node of a binary tree
/// over the ways; each bit points toward the pseudo-least-recently-used
/// subtree. An access flips the bits on its root-to-leaf path away from
/// itself; the victim walk follows the bits.
#[derive(Debug, Clone)]
pub struct Plru {
    /// `num_sets × (leaves − 1)` bits in heap order per set; `true` means
    /// the pseudo-LRU line is in the right subtree.
    bits: Vec<bool>,
    /// Leaf count: `ways` rounded up to a power of two. `CacheConfig` only
    /// produces power-of-two associativities, so the rounding is a no-op in
    /// practice.
    leaves: usize,
    ways: usize,
    levels: u32,
}

impl Plru {
    /// A cold tree-PLRU state machine for `num_sets` sets of `ways` ways.
    pub fn new(num_sets: usize, ways: usize) -> Self {
        let ways = ways.max(1);
        let leaves = ways.next_power_of_two();
        Plru {
            bits: vec![false; num_sets * (leaves - 1)],
            leaves,
            ways,
            levels: leaves.trailing_zeros(),
        }
    }
}

impl ReplacementPolicy for Plru {
    /// Points every bit on `way`'s root-to-leaf path away from it.
    fn touch(&mut self, set: usize, way: usize) {
        let base = set * (self.leaves - 1);
        let mut idx = 0usize;
        for level in (0..self.levels).rev() {
            let dir = (way >> level) & 1;
            self.bits[base + idx] = dir == 0;
            idx = 2 * idx + 1 + dir;
        }
    }

    fn victim(&mut self, set: usize) -> usize {
        let base = set * (self.leaves - 1);
        let mut idx = 0usize;
        let mut way = 0usize;
        for _ in 0..self.levels {
            let dir = self.bits[base + idx] as usize;
            way = (way << 1) | dir;
            idx = 2 * idx + 1 + dir;
        }
        way % self.ways
    }

    fn reset(&mut self) {
        self.bits.fill(false);
    }

    fn clone_box(&self) -> Box<dyn ReplacementPolicy> {
        Box::new(self.clone())
    }
}

/// The replacement policies the model layer can name. The spellings of
/// [`PolicyKind::as_str`] are part of the wire contract (`CacheSpec`
/// JSON, `.cme` corpus `! model:` directives) and must never change.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PolicyKind {
    /// True least-recently-used — the paper's model and the default.
    #[default]
    Lru,
    /// First-in first-out (round-robin).
    Fifo,
    /// Tree pseudo-LRU.
    Plru,
}

impl PolicyKind {
    /// Every policy, in wire-spelling order (for sweeps and tests).
    pub const ALL: [PolicyKind; 3] = [PolicyKind::Lru, PolicyKind::Fifo, PolicyKind::Plru];

    /// The stable wire spelling: `"lru"`, `"fifo"`, or `"plru"`.
    pub fn as_str(&self) -> &'static str {
        match self {
            PolicyKind::Lru => "lru",
            PolicyKind::Fifo => "fifo",
            PolicyKind::Plru => "plru",
        }
    }

    /// Parses a wire spelling; `None` for unknown policies.
    pub fn parse(s: &str) -> Option<PolicyKind> {
        match s {
            "lru" => Some(PolicyKind::Lru),
            "fifo" => Some(PolicyKind::Fifo),
            "plru" => Some(PolicyKind::Plru),
            _ => None,
        }
    }

    /// Builds the per-set state machine for a `num_sets × ways` cache.
    pub fn build(&self, num_sets: usize, ways: usize) -> Box<dyn ReplacementPolicy> {
        match self {
            PolicyKind::Lru => Box::new(Lru::new(num_sets)),
            PolicyKind::Fifo => Box::new(Fifo::new(num_sets, ways)),
            PolicyKind::Plru => Box::new(Plru::new(num_sets, ways)),
        }
    }
}

impl fmt::Display for PolicyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// How stores interact with the cache. The spellings of
/// [`WritePolicy::as_str`] are part of the wire contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum WritePolicy {
    /// Write-back with write-allocate / fetch-on-write — the paper's
    /// Section 2.3 model and the default. Stores dirty the line; dirty
    /// evictions (and the end-of-run drain) count as write-backs.
    #[default]
    WriteBack,
    /// Write-through with no-allocate: every store is counted as memory
    /// write traffic, a store miss does not install the line, and lines
    /// are never dirty.
    WriteThrough,
}

impl WritePolicy {
    /// The stable wire spelling: `"write-back"` or `"write-through"`.
    pub fn as_str(&self) -> &'static str {
        match self {
            WritePolicy::WriteBack => "write-back",
            WritePolicy::WriteThrough => "write-through",
        }
    }

    /// Parses a wire spelling (the short forms `"wb"`/`"wt"` are accepted
    /// on input); `None` for unknown policies.
    pub fn parse(s: &str) -> Option<WritePolicy> {
        match s {
            "write-back" | "wb" => Some(WritePolicy::WriteBack),
            "write-through" | "wt" => Some(WritePolicy::WriteThrough),
            _ => None,
        }
    }
}

impl fmt::Display for WritePolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lru_victim_is_least_recently_touched() {
        let mut lru = Lru::new(1);
        lru.fill(0, 0);
        lru.fill(0, 1);
        lru.fill(0, 2);
        lru.touch(0, 0); // order now 0, 2, 1 (MRU first)
        assert_eq!(lru.victim(0), 1);
        lru.touch(0, 1);
        assert_eq!(lru.victim(0), 2);
    }

    #[test]
    fn fifo_ignores_touches() {
        let mut fifo = Fifo::new(1, 4);
        for w in 0..4 {
            fifo.fill(0, w);
        }
        fifo.touch(0, 0); // a hit must not refresh way 0
        assert_eq!(fifo.victim(0), 0);
        fifo.fill(0, 0); // replace way 0; oldest is now way 1
        assert_eq!(fifo.victim(0), 1);
    }

    #[test]
    fn plru_never_victimizes_the_just_touched_way() {
        let mut plru = Plru::new(1, 8);
        for w in 0..8 {
            plru.fill(0, w);
        }
        for w in 0..8 {
            plru.touch(0, w);
            assert_ne!(plru.victim(0), w, "victim must avoid the MRU way");
        }
    }

    #[test]
    fn plru_with_two_ways_degenerates_to_lru() {
        let mut plru = Plru::new(1, 2);
        plru.fill(0, 0);
        plru.fill(0, 1);
        plru.touch(0, 0);
        assert_eq!(plru.victim(0), 1);
        plru.touch(0, 1);
        assert_eq!(plru.victim(0), 0);
    }

    #[test]
    fn single_way_policies_always_evict_way_zero() {
        let mut lru = Lru::new(2);
        let mut fifo = Fifo::new(2, 1);
        let mut plru = Plru::new(2, 1);
        for p in [
            &mut lru as &mut dyn ReplacementPolicy,
            &mut fifo as &mut dyn ReplacementPolicy,
            &mut plru as &mut dyn ReplacementPolicy,
        ] {
            p.fill(1, 0);
            assert_eq!(p.victim(1), 0);
        }
    }

    #[test]
    fn wire_spellings_round_trip() {
        for kind in PolicyKind::ALL {
            assert_eq!(PolicyKind::parse(kind.as_str()), Some(kind));
        }
        for wp in [WritePolicy::WriteBack, WritePolicy::WriteThrough] {
            assert_eq!(WritePolicy::parse(wp.as_str()), Some(wp));
        }
        assert_eq!(WritePolicy::parse("wb"), Some(WritePolicy::WriteBack));
        assert_eq!(WritePolicy::parse("wt"), Some(WritePolicy::WriteThrough));
        assert_eq!(PolicyKind::parse("random"), None);
        assert_eq!(WritePolicy::parse("write-around"), None);
        assert_eq!(PolicyKind::default(), PolicyKind::Lru);
        assert_eq!(WritePolicy::default(), WritePolicy::WriteBack);
    }

    #[test]
    fn reset_restores_cold_state() {
        let mut fifo = Fifo::new(1, 2);
        fifo.fill(0, 0);
        fifo.fill(0, 1);
        fifo.reset();
        assert_eq!(fifo.victim(0), 0);
        let mut plru = Plru::new(1, 4);
        plru.touch(0, 3);
        plru.reset();
        assert_eq!(plru.victim(0), 0);
    }
}
