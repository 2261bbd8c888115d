//! Arithmetic in the prime field `GF(z)`.

use crate::prime::{is_prime, mul_mod, pow_mod};
use std::fmt;

/// The prime field `GF(z)`: integers `{0, …, z-1}` with arithmetic mod `z`.
///
/// The paper requires `z` prime so that distinct degree-≤d polynomials agree
/// on at most `d` points (\[Coh74\] in the paper's references) — the heart of
/// the `‖N_p ∩ N_q‖ ≤ d` bound. The constructor therefore rejects
/// composite moduli.
///
/// # Example
///
/// ```
/// use llr_gf::Gf;
/// let f = Gf::new(7).unwrap();
/// assert_eq!(f.add(5, 4), 2);
/// assert_eq!(f.mul(3, 5), 1);
/// assert_eq!(f.inv(3), Some(5));
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Gf {
    z: u64,
}

impl Gf {
    /// Constructs `GF(z)`.
    ///
    /// # Errors
    ///
    /// Returns `None` if `z` is not prime.
    pub fn new(z: u64) -> Option<Self> {
        is_prime(z).then_some(Self { z })
    }

    /// The field modulus `z`.
    pub fn modulus(self) -> u64 {
        self.z
    }

    /// Number of elements (same as the modulus for a prime field).
    pub fn order(self) -> u64 {
        self.z
    }

    /// `true` iff `x` is a canonical field element (`x < z`).
    pub fn contains(self, x: u64) -> bool {
        x < self.z
    }

    /// Reduces an arbitrary integer into the field.
    pub fn reduce(self, x: u64) -> u64 {
        x % self.z
    }

    /// `(a + b) mod z`.
    pub fn add(self, a: u64, b: u64) -> u64 {
        self.assert_elems(a, b);
        let s = a as u128 + b as u128;
        (s % self.z as u128) as u64
    }

    /// `(a - b) mod z`.
    pub fn sub(self, a: u64, b: u64) -> u64 {
        self.assert_elems(a, b);
        if a >= b {
            a - b
        } else {
            a + self.z - b
        }
    }

    /// `(a * b) mod z`.
    pub fn mul(self, a: u64, b: u64) -> u64 {
        self.assert_elems(a, b);
        mul_mod(a, b, self.z)
    }

    /// `-a mod z`.
    pub fn neg(self, a: u64) -> u64 {
        self.assert_elems(a, 0);
        if a == 0 {
            0
        } else {
            self.z - a
        }
    }

    /// `a^e mod z` (for any `e`, not just field elements).
    pub fn pow(self, a: u64, e: u64) -> u64 {
        self.assert_elems(a, 0);
        pow_mod(a, e, self.z)
    }

    /// Multiplicative inverse via Fermat's little theorem; `None` for 0.
    pub fn inv(self, a: u64) -> Option<u64> {
        self.assert_elems(a, 0);
        if a == 0 {
            None
        } else {
            Some(self.pow(a, self.z - 2))
        }
    }

    /// Iterator over all field elements, `0..z`.
    pub fn elements(self) -> impl Iterator<Item = u64> {
        0..self.z
    }

    fn assert_elems(self, a: u64, b: u64) {
        debug_assert!(a < self.z, "{a} is not an element of GF({})", self.z);
        debug_assert!(b < self.z, "{b} is not an element of GF({})", self.z);
    }
}

impl fmt::Display for Gf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "GF({})", self.z)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_composite_modulus() {
        assert!(Gf::new(1).is_none());
        assert!(Gf::new(4).is_none());
        assert!(Gf::new(561).is_none());
        assert!(Gf::new(2).is_some());
        assert!(Gf::new(13).is_some());
    }

    #[test]
    fn small_field_tables() {
        let f = Gf::new(5).unwrap();
        assert_eq!(f.add(4, 4), 3);
        assert_eq!(f.sub(1, 3), 3);
        assert_eq!(f.mul(4, 4), 1);
        assert_eq!(f.neg(0), 0);
        assert_eq!(f.neg(2), 3);
        assert_eq!(f.pow(2, 4), 1);
        assert_eq!(f.inv(0), None);
    }

    #[test]
    fn inverses_are_inverses() {
        for z in [2u64, 3, 7, 31, 97] {
            let f = Gf::new(z).unwrap();
            for a in 1..z {
                let inv = f.inv(a).unwrap();
                assert_eq!(f.mul(a, inv), 1, "a={a} in GF({z})");
            }
        }
    }

    #[test]
    fn field_axioms_exhaustive_small() {
        // Exhaustively verify associativity/commutativity/distributivity
        // for a couple of small fields.
        for z in [2u64, 5, 7] {
            let f = Gf::new(z).unwrap();
            for a in f.elements() {
                for b in f.elements() {
                    assert_eq!(f.add(a, b), f.add(b, a));
                    assert_eq!(f.mul(a, b), f.mul(b, a));
                    assert_eq!(f.add(f.sub(a, b), b), a);
                    for c in f.elements() {
                        assert_eq!(f.add(f.add(a, b), c), f.add(a, f.add(b, c)));
                        assert_eq!(f.mul(f.mul(a, b), c), f.mul(a, f.mul(b, c)));
                        assert_eq!(f.mul(a, f.add(b, c)), f.add(f.mul(a, b), f.mul(a, c)));
                    }
                }
            }
        }
    }

    #[test]
    fn no_overflow_near_u64_max_prime() {
        let z = 18_446_744_073_709_551_557; // largest u64 prime
        let f = Gf::new(z).unwrap();
        let a = z - 1;
        assert_eq!(f.mul(a, a), 1); // (-1)^2 = 1
        assert_eq!(f.add(a, a), z - 2);
        assert_eq!(f.inv(a), Some(a));
    }
}
