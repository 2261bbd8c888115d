//! Polynomials over `GF(z)` and the paper's process-id assignment.

use crate::Gf;
use std::fmt;

/// A polynomial `a_d·x^d + … + a_1·x + a_0` over a prime field.
///
/// Coefficients are stored low-degree first (`coeffs[i]` is `a_i`) and the
/// vector always has length `degree_bound + 1` (trailing zeros are kept so
/// that every process's polynomial has the same shape).
///
/// # Example
///
/// ```
/// use llr_gf::{Gf, Poly};
/// let f = Gf::new(5).unwrap();
/// // p = 23 has base-5 digits 3 (low) and 4 (high): Q(x) = 4x + 3
/// let q = Poly::from_process_id(f, 23, 1);
/// assert_eq!(q.coeffs(), &[3, 4]);
/// assert_eq!(q.eval(2), (4 * 2 + 3) % 5);
/// ```
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Poly {
    field: Gf,
    coeffs: Vec<u64>,
}

impl Poly {
    /// Creates a polynomial from coefficients (`coeffs[i]` multiplies `x^i`).
    ///
    /// # Panics
    ///
    /// Panics if any coefficient is not a field element.
    pub fn new(field: Gf, coeffs: Vec<u64>) -> Self {
        for &c in &coeffs {
            assert!(c < field.modulus(), "coefficient {c} not in {field}");
        }
        Self { field, coeffs }
    }

    /// The paper's assignment (Section 4.1): process `p`'s polynomial of
    /// degree at most `d` has coefficients `a_i = (p div z^i) mod z` — the
    /// base-`z` digits of `p`. Distinct `p < z^(d+1)` yield polynomials
    /// differing in at least one coefficient.
    pub fn from_process_id(field: Gf, p: u64, d: usize) -> Self {
        let z = field.modulus();
        let mut coeffs = Vec::with_capacity(d + 1);
        let mut rest = p;
        for _ in 0..=d {
            coeffs.push(rest % z);
            rest /= z;
        }
        Self { field, coeffs }
    }

    /// The field the coefficients live in.
    pub fn field(&self) -> Gf {
        self.field
    }

    /// The coefficient vector, low degree first.
    pub fn coeffs(&self) -> &[u64] {
        &self.coeffs
    }

    /// The degree bound `d` (one less than the coefficient count).
    pub fn degree_bound(&self) -> usize {
        self.coeffs.len().saturating_sub(1)
    }

    /// Evaluates the polynomial at `x` (reduced into the field first) by
    /// Horner's rule.
    pub fn eval(&self, x: u64) -> u64 {
        let f = self.field;
        let x = f.reduce(x);
        let mut acc = 0u64;
        for &c in self.coeffs.iter().rev() {
            acc = f.add(f.mul(acc, x), c);
        }
        acc
    }

    /// Pointwise sum, to the larger degree bound.
    ///
    /// # Panics
    ///
    /// Panics if the polynomials are over different fields.
    pub fn add(&self, other: &Poly) -> Poly {
        assert_eq!(self.field, other.field, "mismatched fields");
        let f = self.field;
        let n = self.coeffs.len().max(other.coeffs.len());
        let coeffs = (0..n)
            .map(|i| {
                f.add(
                    self.coeffs.get(i).copied().unwrap_or(0),
                    other.coeffs.get(i).copied().unwrap_or(0),
                )
            })
            .collect();
        Poly { field: f, coeffs }
    }

    /// Convolution product (degree bounds add).
    ///
    /// # Panics
    ///
    /// Panics if the polynomials are over different fields.
    pub fn mul(&self, other: &Poly) -> Poly {
        assert_eq!(self.field, other.field, "mismatched fields");
        let f = self.field;
        let mut coeffs = vec![0u64; self.coeffs.len() + other.coeffs.len() - 1];
        for (i, &a) in self.coeffs.iter().enumerate() {
            for (j, &b) in other.coeffs.iter().enumerate() {
                coeffs[i + j] = f.add(coeffs[i + j], f.mul(a, b));
            }
        }
        Poly { field: f, coeffs }
    }

    /// Scales every coefficient by `c` (reduced into the field).
    pub fn scale(&self, c: u64) -> Poly {
        let f = self.field;
        let c = f.reduce(c);
        Poly {
            field: f,
            coeffs: self.coeffs.iter().map(|&a| f.mul(a, c)).collect(),
        }
    }

    /// Number of points on which `self` and `other` agree, counted over the
    /// whole field. For distinct polynomials of degree ≤ d this is at most
    /// `d` — the fact underlying the paper's Proposition 8.
    ///
    /// # Panics
    ///
    /// Panics if the polynomials are over different fields.
    pub fn agreement_count(&self, other: &Poly) -> u64 {
        assert_eq!(self.field, other.field, "mismatched fields");
        self.field
            .elements()
            .filter(|&x| self.eval(x) == other.eval(x))
            .count() as u64
    }
}

impl fmt::Display for Poly {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let terms: Vec<String> = self
            .coeffs
            .iter()
            .enumerate()
            .rev()
            .map(|(i, c)| match i {
                0 => format!("{c}"),
                1 => format!("{c}x"),
                _ => format!("{c}x^{i}"),
            })
            .collect();
        write!(f, "{} over {}", terms.join(" + "), self.field)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn f7() -> Gf {
        Gf::new(7).unwrap()
    }

    #[test]
    fn digits_assignment_roundtrips() {
        let f = f7();
        // p = 2*49 + 3*7 + 5 = 124
        let q = Poly::from_process_id(f, 124, 2);
        assert_eq!(q.coeffs(), &[5, 3, 2]);
        assert_eq!(q.degree_bound(), 2);
    }

    #[test]
    fn distinct_ids_distinct_polys() {
        let f = f7();
        let d = 2;
        let bound = 7u64.pow(3); // z^(d+1)
        let mut seen = std::collections::HashSet::new();
        for p in 0..bound {
            let q = Poly::from_process_id(f, p, d);
            assert!(seen.insert(q.coeffs().to_vec()), "collision at p={p}");
        }
    }

    #[test]
    fn eval_matches_naive() {
        let f = f7();
        let q = Poly::new(f, vec![5, 3, 2]); // 2x² + 3x + 5
        for x in 0..7u64 {
            let naive = (2 * x * x + 3 * x + 5) % 7;
            assert_eq!(q.eval(x), naive, "x={x}");
        }
    }

    #[test]
    fn eval_reduces_argument() {
        let f = f7();
        let q = Poly::new(f, vec![1, 1]); // x + 1
        assert_eq!(q.eval(9), q.eval(2));
    }

    #[test]
    fn agreement_bounded_by_degree_exhaustive() {
        // All pairs of distinct degree-≤2 polynomials over GF(5) agree on
        // at most 2 points.
        let f = Gf::new(5).unwrap();
        let polys: Vec<Poly> = (0..125).map(|p| Poly::from_process_id(f, p, 2)).collect();
        for (i, a) in polys.iter().enumerate() {
            for b in polys.iter().skip(i + 1) {
                assert!(
                    a.agreement_count(b) <= 2,
                    "{a} and {b} agree on more than d points"
                );
            }
        }
    }

    #[test]
    fn zero_polynomial() {
        let f = f7();
        let q = Poly::from_process_id(f, 0, 3);
        assert_eq!(q.coeffs(), &[0, 0, 0, 0]);
        for x in 0..7 {
            assert_eq!(q.eval(x), 0);
        }
    }

    #[test]
    #[should_panic(expected = "not in GF(7)")]
    fn rejects_out_of_field_coefficients() {
        let _ = Poly::new(f7(), vec![7]);
    }

    #[test]
    fn add_is_pointwise() {
        let f = f7();
        let a = Poly::new(f, vec![1, 2]); // 2x + 1
        let b = Poly::new(f, vec![6, 6, 3]); // 3x² + 6x + 6
        let sum = a.add(&b);
        for x in 0..7 {
            assert_eq!(sum.eval(x), f.add(a.eval(x), b.eval(x)), "x={x}");
        }
        assert_eq!(sum.coeffs(), &[0, 1, 3]);
    }

    #[test]
    fn mul_is_pointwise() {
        let f = f7();
        let a = Poly::new(f, vec![1, 2]);
        let b = Poly::new(f, vec![3, 0, 5]);
        let prod = a.mul(&b);
        assert_eq!(prod.degree_bound(), 3);
        for x in 0..7 {
            assert_eq!(prod.eval(x), f.mul(a.eval(x), b.eval(x)), "x={x}");
        }
    }

    #[test]
    fn scale_matches_mul_by_constant() {
        let f = f7();
        let a = Poly::new(f, vec![4, 5, 6]);
        let scaled = a.scale(3);
        let via_mul = a.mul(&Poly::new(f, vec![3]));
        for x in 0..7 {
            assert_eq!(scaled.eval(x), via_mul.eval(x));
        }
    }

    #[test]
    fn ring_laws_spot_check() {
        // (a + b)·c = a·c + b·c over GF(5), exhaustively for degree ≤ 1.
        let f = Gf::new(5).unwrap();
        for pa in 0..25u64 {
            for pb in 0..25 {
                let a = Poly::from_process_id(f, pa, 1);
                let b = Poly::from_process_id(f, pb, 1);
                let c = Poly::new(f, vec![2, 3]);
                let lhs = a.add(&b).mul(&c);
                let rhs = a.mul(&c).add(&b.mul(&c));
                for x in 0..5 {
                    assert_eq!(lhs.eval(x), rhs.eval(x));
                }
            }
        }
    }
}
