//! Intra- and inter-variable padding (Section 5.1.1, Figure 10).
//!
//! The replacement equations between two references `R_X`, `R_Y` with a
//! common column size `C` have the forms
//!
//! ```text
//! Type 1 (same array):       C·(δf + c − d) − n·Cs = b − (δf₀ + c′ − d′)
//! Type 2 (different arrays): (B_X − B_Y) + C·(δf + c − d) − n·Cs = b − (δf₀ + c′ − d′)
//! ```
//!
//! with `n ≠ 0`. Writing `C = 2^x·t₁` and `|B_X − B_Y| = 2^y·t₂` (`t₁`,
//! `t₂` odd) and using that the cache size `Cs` is a power of two, the
//! paper's four number-theoretic conditions make these equations
//! unsolvable:
//!
//! 1. `gcd(C, Cs) > max |rhs|`                      → `2^x > max|rhs|`
//! 2. `gcd(C, Cs) < Cs / max|δf|` when `rhs ∋ 0`    → `2^x · max|δf| < Cs`
//! 3. `gcd(|ΔB|, C, Cs) > max |rhs|`                → `2^x, 2^y > max|rhs|`
//! 4. 2-adic argument when `rhs ∋ 0`                → `v₂(ΔB) < x, lg Cs`
//!
//! [`plan_padding`] gathers these constraints over every reference pair
//! (windowed by each victim's nearest reuse vector, as in the paper's
//! implementation), then searches the small feasible `(x, y)` grid for a
//! concrete layout whose four conditions it **re-verifies numerically**
//! (multi-array base sums can disturb 2-adic valuations, so checking the
//! actual GCDs keeps the construction honest). [`PaddingPlan::apply`]
//! mutates the nest's layout.

use cme_cache::CacheConfig;
use cme_ir::{ArrayId, LoopNest, RefId};
use cme_math::diophantine::type1_has_no_solution;
use cme_math::gcd::{ceil_log2, floor_log2, gcd, two_adic_valuation};
use cme_math::{Affine, Interval};
use cme_reuse::reuse_vectors;
use std::fmt;

/// Why no conflict-free padding could be constructed.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum PaddingError {
    /// An array has rank > 2 (the paper's algorithm handles the 2-D case).
    UnsupportedRank {
        /// The offending array's name.
        array: String,
    },
    /// Referenced 2-D arrays have different column sizes; the algorithm
    /// assumes a single `C`.
    MixedColumnSizes {
        /// The distinct column sizes found.
        sizes: Vec<i64>,
    },
    /// The constraint system `x_min <= x <= x_max` is empty, or no concrete
    /// layout in the feasible grid passes verification: no padding solution
    /// exists (the paper's `trans` case).
    Infeasible {
        /// Smallest admissible exponent.
        x_min: u32,
        /// Largest admissible exponent.
        x_max: u32,
    },
}

impl fmt::Display for PaddingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PaddingError::UnsupportedRank { array } => {
                write!(
                    f,
                    "array `{array}` has rank > 2; padding handles 1-D/2-D arrays"
                )
            }
            PaddingError::MixedColumnSizes { sizes } => {
                write!(
                    f,
                    "arrays have mixed column sizes {sizes:?}; a single C is assumed"
                )
            }
            PaddingError::Infeasible { x_min, x_max } => write!(
                f,
                "no conflict-free padding exists (column exponent needs {x_min} <= x <= {x_max})"
            ),
        }
    }
}

impl std::error::Error for PaddingError {}

/// A concrete conflict-free layout produced by [`plan_padding`].
///
/// When `dropped_pairs > 0` the plan is *partial*: the constraint system of
/// all reference pairs was infeasible (e.g. mmult's non-uniform Z/X pair
/// whose `δf₀` spans the whole column range), and the most demanding pairs
/// were excluded greedily until the remainder admitted a solution. The
/// retained pairs' equations are provably solution-free; the dropped
/// pairs' conflicts remain — this is how the paper's mmult/gauss rows show
/// ~50% rather than 100% reductions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PaddingPlan {
    /// Chosen column-size exponent (`C = 2^x · t₁`).
    pub x: u32,
    /// Chosen base-spacing exponent (`|ΔB| = 2^y · t₂` between consecutive
    /// arrays).
    pub y: u32,
    /// The padded column size for every 2-D array.
    pub column_size: i64,
    /// New base address per array index (unreferenced arrays keep theirs).
    pub bases: Vec<i64>,
    /// The equation-derived lower bound on `x`.
    pub x_min: u32,
    /// The upper bound on `x` from condition 2.
    pub x_max: u32,
    /// Number of reference pairs whose conditions had to be abandoned to
    /// make the system feasible (0 = fully conflict-free plan).
    pub dropped_pairs: usize,
}

impl PaddingPlan {
    /// Applies the plan to a nest's layout (pads columns, moves bases).
    ///
    /// # Panics
    ///
    /// Panics if the plan was built for a nest with more arrays than this
    /// one.
    pub fn apply(&self, nest: &mut LoopNest) {
        let ids: Vec<ArrayId> = nest.references().iter().map(|r| r.array()).collect();
        for idx in 0..nest.arrays().len() {
            let Some(&id) = ids.iter().find(|a| a.index() == idx) else {
                continue;
            };
            let column_size = self.column_size;
            let base = self.bases[idx];
            let arr = nest.array_mut(id);
            if arr.rank() == 2 && column_size > arr.column_size() {
                arr.pad_column_to(column_size);
            }
            arr.set_base(base);
        }
    }
}

impl fmt::Display for PaddingPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "pad columns to {} (x = {}), bases {:?} (y = {}){}",
            self.column_size,
            self.x,
            self.bases,
            self.y,
            if self.dropped_pairs > 0 {
                format!(" [partial: {} pairs dropped]", self.dropped_pairs)
            } else {
                String::new()
            }
        )
    }
}

/// Interval data for one (victim, perpetrator) pair of references.
#[derive(Debug, Clone)]
struct PairData {
    victim_array: usize,
    perp_array: usize,
    /// `max |b − (δf₀ + c′ − d′)|` over the victim's reuse window.
    rhs_max: i64,
    /// Whether the right-hand side can be zero.
    rhs_has_zero: bool,
    /// `max |δf + c − d|`.
    u_max: i64,
}

impl PairData {
    fn same_array(&self) -> bool {
        self.victim_array == self.perp_array
    }
}

/// Decomposes the address of a 1-D/2-D reference into
/// `B + C·(f + c) + (f₀ + c′)`: returns `(f₀ + c′, f + c)` as affine
/// expressions over the loop indices (column part zero for 1-D arrays).
fn row_col_parts(nest: &LoopNest, r: RefId) -> (Affine, Affine) {
    let rf = nest.reference(r);
    let arr = nest.array(rf.array());
    let depth = nest.depth();
    let row = rf.subscripts()[0].offset(-arr.origins()[0]);
    let col = if arr.rank() == 2 {
        rf.subscripts()[1].offset(-arr.origins()[1])
    } else {
        Affine::constant(depth, 0)
    };
    (row, col)
}

/// The per-victim interference window: a componentwise box containing every
/// `δ = i⃗ − j⃗` with `j⃗` between `i⃗ − r⃗` and `i⃗` in lexicographic
/// order. Loops *inside* the leading component of `r⃗` wrap around, so
/// their δ spans the full loop extent in both directions; the leading
/// component spans `[0, r_L]`; enclosing components are fixed.
fn delta_box(r: &[i64], widths: &[i64]) -> Vec<Interval> {
    let lead = r.iter().position(|&c| c != 0);
    r.iter()
        .zip(widths)
        .enumerate()
        .map(|(l, (&c, &w))| match lead {
            Some(ld) if l < ld => Interval::point(0),
            Some(ld) if l == ld => Interval::new(c.min(0), c.max(0)),
            Some(_) => Interval::new(-w, w),
            None => Interval::point(0),
        })
        .collect()
}

fn collect_pairs(nest: &LoopNest, cache: &CacheConfig) -> Vec<PairData> {
    let space_box = nest.space().bounding_box();
    let ls = cache.line_elems();
    let b_range = Interval::new(-(ls - 1), ls - 1);
    let mut pairs = Vec::new();
    let widths: Vec<i64> = space_box
        .iter()
        .map(|b| if b.is_empty() { 0 } else { b.hi - b.lo })
        .collect();
    for victim in nest.references() {
        let rvs = reuse_vectors(nest, cache, victim.id());
        // The paper's implementation considers only the nearest reuse vector.
        let Some(nearest) = rvs.first() else { continue };
        let dbox = delta_box(nearest.vector(), &widths);
        let (row_a, col_a) = row_col_parts(nest, victim.id());
        for perp in nest.references() {
            // δf = f_A(i) − f_B(i − δ) = (f_A − f_B)(i) + f_B_lin·δ.
            let (row_b, col_b) = row_col_parts(nest, perp.id());
            let du = col_a.sub(&col_b).range(&space_box)
                + Affine::new(col_b.coeffs().to_vec(), 0).range(&dbox);
            let drow = row_a.sub(&row_b).range(&space_box)
                + Affine::new(row_b.coeffs().to_vec(), 0).range(&dbox);
            let rhs = b_range - drow;
            if rhs.is_empty() || du.is_empty() {
                continue;
            }
            pairs.push(PairData {
                victim_array: nest.reference(victim.id()).array().index(),
                perp_array: nest.reference(perp.id()).array().index(),
                rhs_max: rhs.max_abs(),
                rhs_has_zero: rhs.contains(0),
                u_max: du.max_abs(),
            });
        }
    }
    pairs
}

/// Verifies the paper's four conditions numerically on a concrete layout.
fn verify_layout(pairs: &[PairData], cache: &CacheConfig, bases: &[i64], column_size: i64) -> bool {
    let cs = cache.size_elems();
    let lg_cs = floor_log2(cs);
    for p in pairs {
        if p.same_array() {
            // Conditions 1 + 2 via the exact unsolvability test.
            if !type1_has_no_solution(
                column_size,
                cs,
                Interval::new(-p.u_max, p.u_max),
                Interval::new(-p.rhs_max, p.rhs_max),
            ) {
                return false;
            }
        } else {
            let db = (bases[p.victim_array] - bases[p.perp_array]).abs();
            if db == 0 {
                return false;
            }
            // Condition 3: gcd(|ΔB|, C, Cs) > max|rhs|.
            if gcd(gcd(db, column_size), cs) <= p.rhs_max {
                return false;
            }
            // Condition 4 (2-adic form): when the rhs can vanish, the
            // valuation of ΔB must be strictly below those of C·u and n·Cs
            // so the left side can never be zero.
            if p.rhs_has_zero {
                let v = two_adic_valuation(db);
                if v >= two_adic_valuation(column_size) || v >= lg_cs {
                    return false;
                }
            }
        }
    }
    true
}

/// Computes a conflict-free padding plan for a nest (Figure 10).
///
/// # Errors
///
/// See [`PaddingError`]. Infeasibility is a real outcome — the paper's
/// `trans` kernel admits no padding solution.
pub fn plan_padding(nest: &LoopNest, cache: &CacheConfig) -> Result<PaddingPlan, PaddingError> {
    let setup = PlanSetup::prepare(nest, cache)?;
    let pairs = collect_pairs(nest, cache);
    setup
        .solve(nest, cache, &pairs, 0)
        .ok_or_else(|| setup.infeasibility(cache, &pairs))
}

/// Like [`plan_padding`], but when the full constraint system is infeasible
/// it greedily drops the most demanding pairs (largest `max |rhs|`) until a
/// plan exists for the remainder — a *partial* plan
/// ([`PaddingPlan::dropped_pairs`] > 0) that provably kills the retained
/// pairs' conflicts while leaving the dropped pairs untouched. This is how
/// large nests such as mmult get the paper's ~50% reductions when no
/// fully conflict-free layout exists under sound interference windows.
///
/// # Errors
///
/// Returns [`PaddingError`] only when even a single-pair system is
/// infeasible (or the preconditions fail).
pub fn plan_padding_partial(
    nest: &LoopNest,
    cache: &CacheConfig,
) -> Result<PaddingPlan, PaddingError> {
    let setup = PlanSetup::prepare(nest, cache)?;
    let mut pairs = collect_pairs(nest, cache);
    // Keep cheap pairs; drop from the demanding end.
    pairs.sort_by_key(|p| (p.rhs_max, p.u_max));
    let mut dropped = 0usize;
    while !pairs.is_empty() {
        if let Some(plan) = setup.solve(nest, cache, &pairs, dropped) {
            return Ok(plan);
        }
        pairs.pop();
        dropped += 1;
    }
    Err(setup.infeasibility(cache, &[]))
}

/// Shared preconditions and grid search of the Figure 10 planner.
struct PlanSetup {
    orig_col: i64,
    order: Vec<ArrayId>,
}

impl PlanSetup {
    fn prepare(nest: &LoopNest, cache: &CacheConfig) -> Result<Self, PaddingError> {
        let _ = cache;
        let mut col_sizes: Vec<i64> = Vec::new();
        let mut used: Vec<ArrayId> = Vec::new();
        for r in nest.references() {
            let arr = nest.array(r.array());
            if arr.rank() > 2 {
                return Err(PaddingError::UnsupportedRank {
                    array: arr.name().to_string(),
                });
            }
            if !used.contains(&r.array()) {
                used.push(r.array());
                if arr.rank() == 2 && !col_sizes.contains(&arr.column_size()) {
                    col_sizes.push(arr.column_size());
                }
            }
        }
        if col_sizes.len() > 1 {
            return Err(PaddingError::MixedColumnSizes { sizes: col_sizes });
        }
        let mut order = used;
        // Sorting is done against the nest below; keep ids, sort by base.
        order.sort_by_key(|a| nest.array(*a).base());
        Ok(PlanSetup {
            orig_col: col_sizes.first().copied().unwrap_or(1),
            order,
        })
    }

    /// Derives (x, y) bounds from `pairs`.
    fn bounds(&self, cache: &CacheConfig, pairs: &[PairData]) -> (u32, u32, u32, bool) {
        let cs = cache.size_elems();
        let mut x_min = 0u32;
        let mut x_max = floor_log2(cs).saturating_sub(1);
        let mut y_min = 0u32;
        let mut need_x_gt_y = false;
        for p in pairs {
            let lo = if p.rhs_max == 0 {
                0
            } else {
                ceil_log2(p.rhs_max + 1)
            };
            x_min = x_min.max(lo);
            if p.same_array() {
                if p.rhs_has_zero && p.u_max > 0 {
                    let mut hi = 0u32;
                    while (1i64 << (hi + 1)) * p.u_max < cs {
                        hi += 1;
                    }
                    x_max = x_max.min(hi);
                }
            } else {
                y_min = y_min.max(lo);
                if p.rhs_has_zero {
                    need_x_gt_y = true;
                }
            }
        }
        if need_x_gt_y {
            x_min = x_min.max(y_min + 1);
        }
        (x_min, x_max, y_min, need_x_gt_y)
    }

    fn infeasibility(&self, cache: &CacheConfig, pairs: &[PairData]) -> PaddingError {
        let (x_min, x_max, _, _) = self.bounds(cache, pairs);
        PaddingError::Infeasible { x_min, x_max }
    }

    /// Grid-searches (x, y) for `pairs` and numerically verifies a layout.
    fn solve(
        &self,
        nest: &LoopNest,
        cache: &CacheConfig,
        pairs: &[PairData],
        dropped_pairs: usize,
    ) -> Option<PaddingPlan> {
        let (x_min, x_max, y_min, need_x_gt_y) = self.bounds(cache, pairs);
        if x_min > x_max {
            return None;
        }
        for x in x_min..=x_max {
            let column_size = smallest_odd_multiple_at_least(1i64 << x, self.orig_col);
            let y_hi = if need_x_gt_y { x.saturating_sub(1) } else { x };
            for y in y_min..=y_hi.max(y_min) {
                if need_x_gt_y && y >= x {
                    break;
                }
                let bases = build_bases(nest, &self.order, column_size, y);
                if verify_layout(pairs, cache, &bases, column_size) {
                    return Some(PaddingPlan {
                        x,
                        y,
                        column_size,
                        bases,
                        x_min,
                        x_max,
                        dropped_pairs,
                    });
                }
            }
        }
        None
    }
}

/// Smallest `2^x · t` (t odd) that is `>= at_least`.
fn smallest_odd_multiple_at_least(pow: i64, at_least: i64) -> i64 {
    let mut t = (at_least + pow - 1) / pow;
    if t % 2 == 0 {
        t += 1;
    }
    t.max(1) * pow
}

/// Sequential placement: the first array keeps its base; consecutive
/// spacings are `2^y · t` with odd `t` just large enough to cover the
/// padded previous array. Returns a base per array index.
fn build_bases(nest: &LoopNest, order: &[ArrayId], column_size: i64, y: u32) -> Vec<i64> {
    let mut bases: Vec<i64> = nest.arrays().iter().map(|a| a.base()).collect();
    if order.is_empty() {
        return bases;
    }
    let padded_len = |id: ArrayId| -> i64 {
        let a = nest.array(id);
        if a.rank() == 2 {
            column_size * a.dims()[1]
        } else {
            a.len()
        }
    };
    let mut cursor = nest.array(order[0]).base();
    bases[order[0].index()] = cursor;
    for w in order.windows(2) {
        let spacing = smallest_odd_multiple_at_least(1i64 << y, padded_len(w[0]));
        cursor += spacing;
        bases[w[1].index()] = cursor;
    }
    bases
}

#[cfg(test)]
mod tests {
    use super::*;
    use cme_cache::simulate_nest;
    use cme_kernels::{alv_with_layout, mmult_with_bases, sor, tom, trans};

    fn table1_cache() -> CacheConfig {
        CacheConfig::new(8192, 1, 32, 4).unwrap()
    }

    #[test]
    fn odd_multiple_helper() {
        assert_eq!(smallest_odd_multiple_at_least(8, 30), 40); // 8·5
        assert_eq!(smallest_odd_multiple_at_least(8, 24), 24); // 8·3
        assert_eq!(smallest_odd_multiple_at_least(8, 1), 8);
        assert_eq!(smallest_odd_multiple_at_least(1, 6), 7);
    }

    #[test]
    fn padding_reduces_alv_conflicts_to_zero() {
        // A small-scale alv with a pathological layout: both arrays overlap
        // the same sets (delta = one way span).
        let cache = table1_cache();
        let mut nest = alv_with_layout(61, 30, 61, 2048);
        let before = simulate_nest(&nest, cache);
        assert!(before.total().replacement > 0, "layout must conflict first");
        let plan = plan_padding(&nest, &cache).expect("alv is paddable");
        plan.apply(&mut nest);
        let after = simulate_nest(&nest, cache);
        assert_eq!(
            after.total().replacement,
            0,
            "plan {plan} must remove all replacement misses"
        );
    }

    #[test]
    fn padding_helps_small_matmul() {
        let cache = table1_cache();
        // Bases exactly one cache apart: maximal cross-interference.
        let mut nest = mmult_with_bases(32, 0, 2048, 4096);
        let before = simulate_nest(&nest, cache);
        let plan = plan_padding(&nest, &cache).expect("mmult is paddable");
        plan.apply(&mut nest);
        let after = simulate_nest(&nest, cache);
        assert!(
            after.total().replacement < before.total().replacement / 2,
            "replacement misses should drop by far more than half: {} -> {}",
            before.total().replacement,
            after.total().replacement
        );
    }

    #[test]
    fn padding_helps_tom() {
        let cache = table1_cache();
        let mut nest = tom(64);
        let before = simulate_nest(&nest, cache);
        assert!(before.total().replacement > 0);
        let plan = plan_padding(&nest, &cache).expect("tom is paddable");
        plan.apply(&mut nest);
        let after = simulate_nest(&nest, cache);
        assert_eq!(after.total().replacement, 0, "plan {plan}");
    }

    #[test]
    fn sor_is_already_conflict_free_and_stays_so() {
        let cache = table1_cache();
        let mut nest = sor(64);
        let before = simulate_nest(&nest, cache);
        if let Ok(plan) = plan_padding(&nest, &cache) {
            plan.apply(&mut nest);
            let after = simulate_nest(&nest, cache);
            assert!(after.total().replacement <= before.total().replacement);
        }
    }

    #[test]
    fn trans_is_reported_infeasible() {
        // The paper: "There exists no padding solution for our algorithm to
        // reduce the replacement misses in the trans loop nest."
        let cache = table1_cache();
        let nest = trans(256);
        match plan_padding(&nest, &cache) {
            Err(PaddingError::Infeasible { .. }) => {}
            other => panic!("expected infeasible, got {other:?}"),
        }
    }

    #[test]
    fn errors_display() {
        let e = PaddingError::MixedColumnSizes { sizes: vec![8, 16] };
        assert!(e.to_string().contains("mixed column sizes"));
        let e = PaddingError::Infeasible { x_min: 5, x_max: 3 };
        assert!(e.to_string().contains("5 <= x <= 3"));
    }
}
