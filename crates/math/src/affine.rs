//! Affine expressions `c₀ + Σ cᵢ·xᵢ` over a fixed variable space.
//!
//! Everything the CME framework touches is affine: array subscripts, memory
//! addresses (Equation 1 of the paper), loop bounds, and the `Mem_RA(i⃗)`
//! terms in the replacement equation (Equation 4). An [`Affine`] is a dense
//! coefficient vector plus constant, indexed by variable position — in the
//! loop-nest setting, variable `l` is the `l`-th loop index from the
//! outermost loop.

use crate::interval::Interval;
use std::fmt;

/// An affine expression `constant + Σ coeffs[l] · x_l`.
///
/// # Examples
///
/// ```
/// use cme_math::Affine;
/// // 4192 + 32*i + 1*j over (i, k, j):
/// let addr = Affine::new(vec![32, 0, 1], 4192);
/// assert_eq!(addr.eval(&[1, 9, 2]), 4192 + 32 + 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Affine {
    coeffs: Vec<i64>,
    constant: i64,
}

impl Affine {
    /// Creates an affine expression from per-variable coefficients and a
    /// constant term.
    pub fn new(coeffs: Vec<i64>, constant: i64) -> Self {
        Affine { coeffs, constant }
    }

    /// The constant expression `c` over `nvars` variables.
    pub fn constant(nvars: usize, c: i64) -> Self {
        Affine {
            coeffs: vec![0; nvars],
            constant: c,
        }
    }

    /// The single-variable expression `x_index` over `nvars` variables.
    ///
    /// # Panics
    ///
    /// Panics if `index >= nvars`.
    pub fn var(nvars: usize, index: usize) -> Self {
        assert!(index < nvars, "variable {index} out of range 0..{nvars}");
        let mut coeffs = vec![0; nvars];
        coeffs[index] = 1;
        Affine {
            coeffs,
            constant: 0,
        }
    }

    /// Number of variables in the expression's space.
    pub fn nvars(&self) -> usize {
        self.coeffs.len()
    }

    /// The coefficient vector (one entry per variable).
    pub fn coeffs(&self) -> &[i64] {
        &self.coeffs
    }

    /// The coefficient of variable `index` (0 when out of range).
    pub fn coeff(&self, index: usize) -> i64 {
        self.coeffs.get(index).copied().unwrap_or(0)
    }

    /// The constant term.
    pub fn constant_term(&self) -> i64 {
        self.constant
    }

    /// Returns `true` when every coefficient is zero.
    pub fn is_constant(&self) -> bool {
        self.coeffs.iter().all(|&c| c == 0)
    }

    /// Evaluates the expression at a concrete point.
    ///
    /// # Panics
    ///
    /// Panics if `point.len() != self.nvars()`.
    pub fn eval(&self, point: &[i64]) -> i64 {
        assert_eq!(
            point.len(),
            self.coeffs.len(),
            "evaluation point has wrong dimension"
        );
        let mut acc = self.constant;
        for (c, x) in self.coeffs.iter().zip(point) {
            acc += c * x;
        }
        acc
    }

    /// Evaluates the expression at a point given only by its leading
    /// coordinates, for an expression that does not depend on the rest —
    /// a loop bound evaluated on an outer-index prefix, without padding the
    /// prefix to full dimension.
    ///
    /// # Panics
    ///
    /// Panics if `prefix` is longer than `self.nvars()` or a coefficient
    /// past the prefix is nonzero.
    ///
    /// # Examples
    ///
    /// ```
    /// use cme_math::Affine;
    /// // k + 1 over (k, i, j), evaluated on the prefix (k, i) = (3, 7):
    /// let lower = Affine::new(vec![1, 0, 0], 1);
    /// assert_eq!(lower.eval_prefix(&[3, 7]), 4);
    /// ```
    pub fn eval_prefix(&self, prefix: &[i64]) -> i64 {
        let (lead, rest) = self.coeffs.split_at(prefix.len());
        assert!(
            rest.iter().all(|&c| c == 0),
            "expression depends on coordinates past the prefix"
        );
        let mut acc = self.constant;
        for (c, x) in lead.iter().zip(prefix) {
            acc += c * x;
        }
        acc
    }

    /// Adds two expressions over the same variable space.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn add(&self, other: &Affine) -> Affine {
        assert_eq!(self.nvars(), other.nvars(), "dimension mismatch in add");
        Affine {
            coeffs: self
                .coeffs
                .iter()
                .zip(&other.coeffs)
                .map(|(a, b)| a + b)
                .collect(),
            constant: self.constant + other.constant,
        }
    }

    /// Subtracts `other` from `self`.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn sub(&self, other: &Affine) -> Affine {
        self.add(&other.scale(-1))
    }

    /// Multiplies the expression by a scalar.
    pub fn scale(&self, k: i64) -> Affine {
        Affine {
            coeffs: self.coeffs.iter().map(|c| c * k).collect(),
            constant: self.constant * k,
        }
    }

    /// Adds a constant to the expression.
    pub fn offset(&self, k: i64) -> Affine {
        Affine {
            coeffs: self.coeffs.clone(),
            constant: self.constant + k,
        }
    }

    /// Exact range of the expression over the box `Π [bounds[l].lo, bounds[l].hi]`.
    ///
    /// Because the expression is affine and the domain is a box, the minimum
    /// and maximum are attained at per-variable endpoints chosen by
    /// coefficient sign, so the computed interval is *exact*, not merely an
    /// over-approximation.
    ///
    /// Returns [`Interval::EMPTY`] when any bound is empty.
    ///
    /// # Panics
    ///
    /// Panics if `bounds.len() != self.nvars()`.
    pub fn range(&self, bounds: &[Interval]) -> Interval {
        assert_eq!(bounds.len(), self.nvars(), "bounds have wrong dimension");
        let mut lo = self.constant;
        let mut hi = self.constant;
        for (c, b) in self.coeffs.iter().zip(bounds) {
            if b.is_empty() {
                return Interval::EMPTY;
            }
            if *c >= 0 {
                lo += c * b.lo;
                hi += c * b.hi;
            } else {
                lo += c * b.hi;
                hi += c * b.lo;
            }
        }
        Interval::new(lo, hi)
    }

    /// The value difference `self(i⃗) − self(i⃗ − r⃗)` as a constant, which
    /// for an affine expression is `Σ coeffs[l]·r[l]` independent of `i⃗`.
    ///
    /// This is the "address stride along a reuse vector" used when forming
    /// cold-miss equations.
    ///
    /// # Panics
    ///
    /// Panics if `r.len() != self.nvars()`.
    pub fn delta_along(&self, r: &[i64]) -> i64 {
        assert_eq!(r.len(), self.nvars(), "reuse vector has wrong dimension");
        self.coeffs.iter().zip(r).map(|(c, x)| c * x).sum()
    }

    /// Substitutes each variable `x_l` by the affine expression `subs[l]`
    /// (over a possibly different variable space), composing affine maps.
    ///
    /// # Panics
    ///
    /// Panics if `subs.len() != self.nvars()` or the substitute expressions
    /// disagree on dimension.
    pub fn substitute(&self, subs: &[Affine]) -> Affine {
        assert_eq!(subs.len(), self.nvars(), "substitution has wrong arity");
        let target_nvars = subs.first().map(|s| s.nvars()).unwrap_or(0);
        let mut out = Affine::constant(target_nvars, self.constant);
        for (c, s) in self.coeffs.iter().zip(subs) {
            assert_eq!(s.nvars(), target_nvars, "mixed substitute dimensions");
            out = out.add(&s.scale(*c));
        }
        out
    }
}

impl fmt::Display for Affine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut wrote = false;
        for (l, c) in self.coeffs.iter().enumerate() {
            if *c == 0 {
                continue;
            }
            if wrote {
                write!(f, " {} ", if *c < 0 { "-" } else { "+" })?;
            } else if *c < 0 {
                write!(f, "-")?;
            }
            let a = c.abs();
            if a == 1 {
                write!(f, "x{l}")?;
            } else {
                write!(f, "{a}*x{l}")?;
            }
            wrote = true;
        }
        if self.constant != 0 || !wrote {
            if wrote {
                write!(
                    f,
                    " {} {}",
                    if self.constant < 0 { "-" } else { "+" },
                    self.constant.abs()
                )?;
            } else {
                write!(f, "{}", self.constant)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn eval_and_arith() {
        let a = Affine::new(vec![2, -1], 5);
        let b = Affine::new(vec![1, 1], -3);
        assert_eq!(a.eval(&[3, 4]), 7);
        assert_eq!(a.add(&b).eval(&[3, 4]), 7 + 4);
        assert_eq!(a.sub(&b).eval(&[3, 4]), 7 - 4);
        assert_eq!(a.scale(3).eval(&[3, 4]), 21);
        assert_eq!(a.offset(-5).eval(&[3, 4]), 2);
    }

    #[test]
    fn eval_prefix_matches_padded_eval() {
        let e = Affine::new(vec![2, -1, 0, 0], 5);
        for x in -3..3 {
            for y in -3..3 {
                assert_eq!(e.eval_prefix(&[x, y]), e.eval(&[x, y, 0, 0]));
                assert_eq!(e.eval_prefix(&[x, y, 9]), e.eval(&[x, y, 9, 0]));
            }
        }
    }

    #[test]
    #[should_panic(expected = "past the prefix")]
    fn eval_prefix_rejects_a_dependence_past_the_prefix() {
        Affine::new(vec![1, 1], 0).eval_prefix(&[3]);
    }

    #[test]
    fn constructors() {
        assert!(Affine::constant(3, 7).is_constant());
        assert_eq!(Affine::var(3, 1).eval(&[9, 4, 2]), 4);
        assert_eq!(Affine::var(2, 0).coeff(0), 1);
        assert_eq!(Affine::var(2, 0).coeff(5), 0);
    }

    #[test]
    fn range_is_exact_on_small_box() {
        let e = Affine::new(vec![3, -2], 1);
        let bounds = [Interval::new(0, 4), Interval::new(-1, 2)];
        let r = e.range(&bounds);
        let mut actual = Interval::EMPTY;
        for x in 0..=4 {
            for y in -1..=2 {
                actual = actual.hull(&Interval::point(e.eval(&[x, y])));
            }
        }
        assert_eq!(r, actual);
    }

    #[test]
    fn range_empty_box() {
        let e = Affine::new(vec![1], 0);
        assert!(e.range(&[Interval::EMPTY]).is_empty());
    }

    #[test]
    fn delta_along_reuse_vector() {
        // addr = 32 i + j: along r = (0, 1, -7) over (i,k,j) with addr
        // coefficients (32, 0, 1) the delta is -7 + 0 + 0 ... use coherent dims.
        let addr = Affine::new(vec![32, 0, 1], 4192);
        assert_eq!(addr.delta_along(&[0, 1, 0]), 0);
        assert_eq!(addr.delta_along(&[0, 0, 1]), 1);
        assert_eq!(addr.delta_along(&[0, 1, -7]), -7);
    }

    #[test]
    fn substitution_composes() {
        // e(x0, x1) = 2 x0 + 3 x1 + 1; x0 := y0 + 1, x1 := 2 y1
        let e = Affine::new(vec![2, 3], 1);
        let subs = [Affine::new(vec![1, 0], 1), Affine::new(vec![0, 2], 0)];
        let g = e.substitute(&subs);
        for y0 in -3..3 {
            for y1 in -3..3 {
                assert_eq!(g.eval(&[y0, y1]), e.eval(&[y0 + 1, 2 * y1]));
            }
        }
    }

    #[test]
    fn display_forms() {
        assert_eq!(Affine::new(vec![1, -2], 0).to_string(), "x0 - 2*x1");
        assert_eq!(Affine::new(vec![0, 0], -4).to_string(), "-4");
        assert_eq!(Affine::new(vec![-1, 0], 3).to_string(), "-x0 + 3");
        assert_eq!(Affine::constant(0, 0).to_string(), "0");
    }

    proptest! {
        #[test]
        fn prop_range_contains_samples(
            c0 in -5i64..5, c1 in -5i64..5, k in -20i64..20,
            lo0 in -10i64..10, w0 in 0i64..6,
            lo1 in -10i64..10, w1 in 0i64..6,
            s0 in 0i64..6, s1 in 0i64..6,
        ) {
            let e = Affine::new(vec![c0, c1], k);
            let b = [Interval::new(lo0, lo0 + w0), Interval::new(lo1, lo1 + w1)];
            let x = lo0 + s0 % (w0 + 1);
            let y = lo1 + s1 % (w1 + 1);
            prop_assert!(e.range(&b).contains(e.eval(&[x, y])));
        }
    }
}
