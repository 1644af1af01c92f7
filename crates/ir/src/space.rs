//! Iteration-space traversal in lexicographic (execution) order.
//!
//! The iteration space of a depth-`n` nest is a finite convex polyhedron of
//! `ℤⁿ` (Section 2.4). Bounds may be affine in enclosing indices, so the
//! space can be triangular (Gaussian elimination) as well as rectangular.
//! [`IterationSpace`] walks it in execution order and answers the geometric
//! queries the miss-finding algorithm needs: membership, successor, and the
//! set of points *between* two points (the potentially-interfering points of
//! Figure 5).

use crate::nest::LoopNest;
use cme_math::lexi::lex_cmp;
use cme_math::Interval;
use std::cmp::Ordering;

/// A cursor over a nest's iteration space.
///
/// # Examples
///
/// ```
/// use cme_ir::{AccessKind, NestBuilder};
/// let mut b = NestBuilder::new();
/// b.ct_loop("i", 1, 2).ct_loop("j", 1, 2);
/// let a = b.array("A", &[4, 4], 0);
/// b.reference(a, AccessKind::Read, &[("i", 0), ("j", 0)]);
/// let nest = b.build().unwrap();
///
/// let mut space = nest.space();
/// let mut pts = Vec::new();
/// while let Some(p) = space.next_point() {
///     pts.push(p);
/// }
/// assert_eq!(pts, vec![vec![1, 1], vec![1, 2], vec![2, 1], vec![2, 2]]);
/// ```
#[derive(Debug, Clone)]
pub struct IterationSpace<'a> {
    nest: &'a LoopNest,
    cursor: Option<Vec<i64>>,
    started: bool,
}

impl<'a> IterationSpace<'a> {
    pub(crate) fn new(nest: &'a LoopNest) -> Self {
        IterationSpace {
            nest,
            cursor: None,
            started: false,
        }
    }

    /// The nest this space belongs to.
    pub fn nest(&self) -> &'a LoopNest {
        self.nest
    }

    /// The lexicographically-first iteration point, or `None` for an empty
    /// space.
    pub fn first(&self) -> Option<Vec<i64>> {
        let n = self.nest.depth();
        let mut p = vec![0i64; n];
        let mut level = 0usize;
        loop {
            match self.descend(&mut p, level) {
                Ok(()) => return Some(p),
                Err(bad) => {
                    // Inner loop at `bad` is empty for this prefix: advance
                    // the nearest enclosing index.
                    if bad == 0 {
                        return None;
                    }
                    match self.carry(&mut p, bad - 1) {
                        Some(l) => level = l,
                        None => return None,
                    }
                }
            }
        }
    }

    /// Advances the cursor and returns the next point in lexicographic
    /// order, starting from the first point on the first call.
    pub fn next_point(&mut self) -> Option<Vec<i64>> {
        if !self.started {
            self.started = true;
            self.cursor = self.first();
        } else if let Some(ref mut p) = self.cursor {
            let mut q = p.clone();
            if self.successor_in_place(&mut q) {
                self.cursor = Some(q);
            } else {
                self.cursor = None;
            }
        }
        self.cursor.clone()
    }

    /// The lexicographic successor of `point` inside the space, if any.
    ///
    /// `point` itself need not be in the space, but must be dimensioned
    /// correctly.
    ///
    /// # Panics
    ///
    /// Panics if `point.len() != depth`.
    pub fn successor(&self, point: &[i64]) -> Option<Vec<i64>> {
        assert_eq!(point.len(), self.nest.depth(), "point dimension mismatch");
        let mut p = point.to_vec();
        if self.successor_in_place(&mut p) {
            Some(p)
        } else {
            None
        }
    }

    /// Advances `point` to its lexicographic successor in place, returning
    /// `false` (leaving `point` past the end) when no successor exists.
    ///
    /// Allocation-free variant of [`IterationSpace::successor`] for hot
    /// loops that walk millions of points (the sliding-window scanner of
    /// `cme-core` steps one point at a time).
    ///
    /// # Panics
    ///
    /// Panics if `point.len() != depth`.
    pub fn advance(&self, point: &mut [i64]) -> bool {
        assert_eq!(point.len(), self.nest.depth(), "point dimension mismatch");
        self.successor_in_place(point)
    }

    fn successor_in_place(&self, p: &mut [i64]) -> bool {
        let n = self.nest.depth();
        if n == 0 {
            return false;
        }
        let mut level = n - 1;
        loop {
            // Try to increment `level` and fill everything deeper.
            p[level] += 1;
            if p[level] <= self.upper_at(p, level) {
                match self.descend(p, level + 1) {
                    Ok(()) => return true,
                    Err(bad) => {
                        // Empty inner loop: carry at bad-1 (>= level).
                        level = bad - 1;
                        continue;
                    }
                }
            }
            if level == 0 {
                return false;
            }
            level -= 1;
        }
    }

    /// Fills levels `from..n` with their lower bounds. Returns `Err(level)`
    /// if some inner loop is empty under the current prefix.
    fn descend(&self, p: &mut [i64], from: usize) -> Result<(), usize> {
        let n = self.nest.depth();
        for m in from..n {
            let lo = self.lower_at(p, m);
            let hi = self.upper_at(p, m);
            if lo > hi {
                return Err(m);
            }
            p[m] = lo;
        }
        Ok(())
    }

    /// Increments level `l` with carry toward the root; on success returns
    /// the level *below which* descent should resume.
    fn carry(&self, p: &mut [i64], mut l: usize) -> Option<usize> {
        loop {
            p[l] += 1;
            if p[l] <= self.upper_at(p, l) {
                return Some(l + 1);
            }
            if l == 0 {
                return None;
            }
            l -= 1;
        }
    }

    fn lower_at(&self, p: &[i64], level: usize) -> i64 {
        self.nest.loops[level].lower().eval(p)
    }

    fn upper_at(&self, p: &[i64], level: usize) -> i64 {
        self.nest.loops[level].upper().eval(p)
    }

    /// Returns `true` iff `point` lies in the iteration space.
    ///
    /// # Panics
    ///
    /// Panics if `point.len() != depth`.
    pub fn contains(&self, point: &[i64]) -> bool {
        assert_eq!(point.len(), self.nest.depth(), "point dimension mismatch");
        (0..self.nest.depth()).all(|l| {
            let v = point[l];
            self.lower_at(point, l) <= v && v <= self.upper_at(point, l)
        })
    }

    /// Returns `true` iff some innermost index extends `prefix` to a point
    /// of the space — i.e. the outer-level bounds all hold at `prefix`.
    /// (Whether the innermost loop is nonempty there is answered separately
    /// by [`IterationSpace::innermost_bounds`].)
    ///
    /// Outer-level bounds may only depend on strictly-enclosing indices, so
    /// they are evaluated on the prefix itself, without allocating.
    ///
    /// # Panics
    ///
    /// Panics if `prefix.len() + 1 != depth`.
    pub fn contains_prefix(&self, prefix: &[i64]) -> bool {
        let n = self.nest.depth();
        assert_eq!(prefix.len() + 1, n, "prefix must cover all but one level");
        self.nest.loops[..n - 1].iter().zip(prefix).all(|(lp, &v)| {
            lp.lower().eval_prefix(prefix) <= v && v <= lp.upper().eval_prefix(prefix)
        })
    }

    /// `true` when every loop bound is a constant — the space is an axis-
    /// aligned box, so membership factors per dimension and the bounding
    /// box is exact. Several refinement shortcuts (e.g. reuse-vector
    /// dominance pruning) are sound only under this shape.
    pub fn is_rectangular(&self) -> bool {
        self.nest
            .loops
            .iter()
            .all(|l| l.lower().is_constant() && l.upper().is_constant())
    }

    /// Exact number of iteration points.
    ///
    /// Rectangular nests (all-constant bounds) are counted in closed form;
    /// affine-bounded nests are counted level by level.
    pub fn count(&self) -> u64 {
        if self.is_rectangular() {
            return self
                .nest
                .loops
                .iter()
                .map(|l| {
                    let w = l.upper().constant_term() - l.lower().constant_term() + 1;
                    w.max(0) as u64
                })
                .product();
        }
        // General case: recursive per-level counting (no per-point walk of
        // the innermost loop — its width is summed in closed form).
        let n = self.nest.depth();
        if n == 0 {
            return 1;
        }
        let mut p = vec![0i64; n];
        self.count_rec(&mut p, 0)
    }

    fn count_rec(&self, p: &mut [i64], level: usize) -> u64 {
        let lo = self.lower_at(p, level);
        let hi = self.upper_at(p, level);
        if lo > hi {
            return 0;
        }
        if level + 1 == self.nest.depth() {
            return (hi - lo + 1) as u64;
        }
        let mut total = 0;
        for v in lo..=hi {
            p[level] = v;
            total += self.count_rec(p, level + 1);
        }
        p[level] = 0;
        total
    }

    /// A bounding box of the iteration space: per-level intervals computed
    /// by interval-evaluating each bound over the boxes of enclosing levels.
    ///
    /// Exact for rectangular nests; a sound over-approximation for
    /// triangular ones. Used by the symbolic optimizers to bound `δf` terms.
    pub fn bounding_box(&self) -> Vec<Interval> {
        let n = self.nest.depth();
        let mut boxes: Vec<Interval> = Vec::with_capacity(n);
        for l in 0..n {
            // Evaluate bounds over the box of the enclosing levels; deeper
            // coefficients are validated to be zero, so pad with points.
            let mut padded = boxes.clone();
            padded.resize(n, Interval::point(0));
            let lo = self.nest.loops[l].lower().range(&padded);
            let hi = self.nest.loops[l].upper().range(&padded);
            boxes.push(Interval::new(lo.lo, hi.hi));
        }
        boxes
    }

    /// Inclusive bounds of the innermost loop under the given outer-index
    /// prefix (`prefix.len() == depth − 1`), or `None` when the innermost
    /// loop is empty there.
    ///
    /// # Panics
    ///
    /// Panics if `prefix.len() + 1 != depth`.
    pub fn innermost_bounds(&self, prefix: &[i64]) -> Option<(i64, i64)> {
        let n = self.nest.depth();
        assert_eq!(prefix.len() + 1, n, "prefix must cover all but one level");
        let innermost = &self.nest.loops[n - 1];
        let lo = innermost.lower().eval_prefix(prefix);
        let hi = innermost.upper().eval_prefix(prefix);
        if lo <= hi {
            Some((lo, hi))
        } else {
            None
        }
    }

    /// Lexicographic successor of `prefix` in the space spanned by all loops
    /// *except the innermost* (whose bounds never depend on it, so the
    /// prefix space is well-defined).
    ///
    /// # Panics
    ///
    /// Panics if `prefix.len() + 1 != depth`.
    pub fn prefix_successor(&self, prefix: &[i64]) -> Option<Vec<i64>> {
        let n = self.nest.depth();
        assert_eq!(prefix.len() + 1, n, "prefix must cover all but one level");
        if n == 1 {
            return None; // the prefix space is zero-dimensional
        }
        let levels = n - 1;
        let mut padded = vec![0i64; n];
        padded[..levels].copy_from_slice(prefix);
        let mut level = levels - 1;
        loop {
            padded[level] += 1;
            if padded[level] <= self.upper_at(&padded, level) {
                // Fill deeper prefix levels with their lower bounds.
                let mut ok = true;
                let mut bad = 0;
                for m in (level + 1)..levels {
                    let lo = self.lower_at(&padded, m);
                    let hi = self.upper_at(&padded, m);
                    if lo > hi {
                        ok = false;
                        bad = m;
                        break;
                    }
                    padded[m] = lo;
                }
                if ok {
                    return Some(padded[..levels].to_vec());
                }
                // Empty intermediate level: advance just above it.
                level = bad - 1;
                continue;
            }
            if level == 0 {
                return None;
            }
            level -= 1;
        }
    }

    /// Visits every iteration point `q` with `from ≺ q ≺ to` (both strict)
    /// in execution order, stopping early when `visit` returns `false`.
    ///
    /// This is the set of potentially-interfering iteration points of
    /// Figure 5 (endpoint handling — whether the perpetrator also acts at
    /// `from`/`to` itself — is layered on top via statement order).
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn for_each_between(
        &self,
        from: &[i64],
        to: &[i64],
        mut visit: impl FnMut(&[i64]) -> bool,
    ) {
        assert_eq!(from.len(), self.nest.depth(), "from dimension mismatch");
        assert_eq!(to.len(), self.nest.depth(), "to dimension mismatch");
        if lex_cmp(from, to) != Ordering::Less {
            return;
        }
        let mut cur = from.to_vec();
        loop {
            if !self.successor_in_place(&mut cur) {
                return;
            }
            if lex_cmp(&cur, to) != Ordering::Less {
                return;
            }
            if !visit(&cur) {
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::NestBuilder;
    use crate::nest::AccessKind;
    use cme_math::Affine;

    fn rect(n: i64, m: i64) -> LoopNest {
        let mut b = NestBuilder::new();
        b.ct_loop("i", 1, n).ct_loop("j", 1, m);
        let a = b.array("A", &[64, 64], 0);
        b.reference(a, AccessKind::Read, &[("i", 0), ("j", 0)]);
        b.build().unwrap()
    }

    /// DO k = 1, n; DO i = k+1, n — a triangular space.
    fn triangle(n: i64) -> LoopNest {
        let mut b = NestBuilder::new();
        b.ct_loop("k", 1, n);
        b.affine_loop(
            "i",
            Affine::new(vec![1, 0], 1), // k + 1
            Affine::new(vec![0, 0], n),
        );
        let a = b.array("A", &[64, 64], 0);
        b.reference(a, AccessKind::Read, &[("i", 0), ("k", 0)]);
        b.build().unwrap()
    }

    #[test]
    fn rectangular_walk_is_lexicographic_and_complete() {
        let nest = rect(3, 2);
        let mut space = nest.space();
        let mut pts = Vec::new();
        while let Some(p) = space.next_point() {
            pts.push(p);
        }
        assert_eq!(pts.len(), 6);
        assert!(pts
            .windows(2)
            .all(|w| lex_cmp(&w[0], &w[1]) == Ordering::Less));
        assert_eq!(pts[0], vec![1, 1]);
        assert_eq!(pts[5], vec![3, 2]);
        assert_eq!(nest.space().count(), 6);
    }

    #[test]
    fn triangular_walk_skips_empty_inner_loops() {
        let nest = triangle(4);
        let mut space = nest.space();
        let mut pts = Vec::new();
        while let Some(p) = space.next_point() {
            pts.push(p);
        }
        // (1,2)(1,3)(1,4)(2,3)(2,4)(3,4) — k = 4 has an empty inner loop.
        assert_eq!(
            pts,
            vec![
                vec![1, 2],
                vec![1, 3],
                vec![1, 4],
                vec![2, 3],
                vec![2, 4],
                vec![3, 4]
            ]
        );
        assert_eq!(nest.space().count(), 6);
    }

    #[test]
    fn contains_respects_affine_bounds() {
        let nest = triangle(4);
        let s = nest.space();
        assert!(s.contains(&[1, 2]));
        assert!(!s.contains(&[1, 1]));
        assert!(!s.contains(&[4, 4]));
        assert!(!s.contains(&[0, 2]));
    }

    #[test]
    fn prefix_queries_follow_affine_bounds() {
        let nest = triangle(4);
        let s = nest.space();
        assert!(s.contains_prefix(&[1]) && s.contains_prefix(&[4]));
        assert!(!s.contains_prefix(&[0]) && !s.contains_prefix(&[5]));
        assert_eq!(s.innermost_bounds(&[1]), Some((2, 4)));
        assert_eq!(s.innermost_bounds(&[3]), Some((4, 4)));
        assert_eq!(s.innermost_bounds(&[4]), None);
    }

    #[test]
    fn successor_handles_boundaries() {
        let nest = rect(2, 2);
        let s = nest.space();
        assert_eq!(s.successor(&[1, 1]), Some(vec![1, 2]));
        assert_eq!(s.successor(&[1, 2]), Some(vec![2, 1]));
        assert_eq!(s.successor(&[2, 2]), None);
    }

    #[test]
    fn between_visits_strictly_interior_points() {
        let nest = rect(3, 3);
        let s = nest.space();
        let mut seen = Vec::new();
        s.for_each_between(&[1, 2], &[2, 2], |p| {
            seen.push(p.to_vec());
            true
        });
        assert_eq!(seen, vec![vec![1, 3], vec![2, 1]]);
        // Degenerate windows visit nothing.
        let mut count = 0;
        s.for_each_between(&[2, 2], &[2, 2], |_| {
            count += 1;
            true
        });
        s.for_each_between(&[2, 2], &[1, 1], |_| {
            count += 1;
            true
        });
        assert_eq!(count, 0);
    }

    #[test]
    fn between_early_exit() {
        let nest = rect(10, 10);
        let s = nest.space();
        let mut seen = 0;
        s.for_each_between(&[1, 1], &[9, 9], |_| {
            seen += 1;
            seen < 5
        });
        assert_eq!(seen, 5);
    }

    #[test]
    fn bounding_box_rectangular_exact() {
        let nest = rect(5, 7);
        assert_eq!(
            nest.space().bounding_box(),
            vec![Interval::new(1, 5), Interval::new(1, 7)]
        );
    }

    #[test]
    fn bounding_box_triangular_sound() {
        let nest = triangle(6);
        let bb = nest.space().bounding_box();
        assert_eq!(bb[0], Interval::new(1, 6));
        // i ranges over [2, 6] truly; box gives [2, 6] (lower eval on k box).
        assert!(bb[1].lo <= 2 && bb[1].hi >= 6);
    }

    #[test]
    fn empty_space() {
        let mut b = NestBuilder::new();
        b.ct_loop("i", 5, 4);
        let a = b.array("A", &[8], 0);
        b.reference(a, AccessKind::Read, &[("i", 0)]);
        let nest = b.build().unwrap();
        assert_eq!(nest.space().first(), None);
        assert_eq!(nest.space().count(), 0);
        let mut s = nest.space();
        assert_eq!(s.next_point(), None);
    }
}
