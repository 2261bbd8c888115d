//! The family of name sets `N_p` that FILTER processes compete for.

use crate::{Gf, ParamError, Poly};

/// The name-set family of Section 4.1: `N_p = { z·x + Q_p(x) : 0 ≤ x < 2d(k-1) }`.
///
/// Guarantees (for distinct processes `p ≠ q < z^(d+1)`):
///
/// * `‖N_p‖ = 2d(k-1)` — the names are pairwise distinct because
///   `n_p(x) = n_q(y)` forces `x = y` (distinct `x` give values in disjoint
///   "stripes" of width `z`) and then `Q_p(x) = Q_q(y)`;
/// * `‖N_p ∩ N_q‖ ≤ d` (Proposition 8) — two distinct degree-≤d
///   polynomials agree on at most `d` field points;
/// * hence any `k-1` other processes cover at most `d(k-1)` of `p`'s names,
///   leaving `≥ d(k-1)` names for which `p` competes alone — FILTER's
///   progress guarantee.
///
/// All names are below [`dest_size`](Self::dest_size)` = 2·z·d·(k-1)`.
///
/// # Example
///
/// ```
/// use llr_gf::{Gf, NameSets};
/// let ns = NameSets::new(Gf::new(5).unwrap(), 1, 3).unwrap();
/// assert_eq!(ns.names_per_process(), 4);
/// assert_eq!(ns.dest_size(), 20);
/// let n0 = ns.name_set(0);
/// let n1 = ns.name_set(1);
/// let shared = n0.iter().filter(|n| n1.contains(n)).count();
/// assert!(shared <= 1); // ≤ d
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NameSets {
    field: Gf,
    d: usize,
    k: usize,
}

impl NameSets {
    /// Builds the family for degree bound `d` and concurrency `k` over
    /// `field = GF(z)`.
    ///
    /// # Errors
    ///
    /// * [`ParamError::KTooSmall`] if `k < 2` (with `k = 1` the family is
    ///   empty; a renaming instance for one process needs no competition);
    /// * [`ParamError::DegreeZero`] if `d = 0`;
    /// * [`ParamError::FieldTooSmall`] if `z < 2d(k-1)` (equation (2) of
    ///   the paper — needed both to keep `x` in the field and for the
    ///   covering bound).
    pub fn new(field: Gf, d: usize, k: usize) -> Result<Self, ParamError> {
        if k < 2 {
            return Err(ParamError::KTooSmall { k });
        }
        if d == 0 {
            return Err(ParamError::DegreeZero);
        }
        let need = 2 * d as u64 * (k as u64 - 1);
        if field.modulus() < need {
            return Err(ParamError::FieldTooSmall {
                z: field.modulus(),
                need,
            });
        }
        Ok(Self { field, d, k })
    }

    /// The underlying field `GF(z)`.
    pub fn field(&self) -> Gf {
        self.field
    }

    /// The polynomial degree bound `d`.
    pub fn degree(&self) -> usize {
        self.d
    }

    /// The concurrency bound `k`.
    pub fn concurrency(&self) -> usize {
        self.k
    }

    /// `‖N_p‖ = 2d(k-1)`.
    pub fn names_per_process(&self) -> usize {
        2 * self.d * (self.k - 1)
    }

    /// Size of the destination name space, `D = 2·z·d·(k-1)`; every name in
    /// every `N_p` is `< D`.
    pub fn dest_size(&self) -> u64 {
        self.field.modulus() * self.names_per_process() as u64
    }

    /// Largest source id representable: `S ≤ z^(d+1)` (equation (1)).
    /// Saturates at `u64::MAX`.
    pub fn max_source_size(&self) -> u64 {
        let z = self.field.modulus() as u128;
        let mut acc: u128 = 1;
        for _ in 0..=self.d {
            acc = acc.saturating_mul(z);
            if acc > u64::MAX as u128 {
                return u64::MAX;
            }
        }
        acc as u64
    }

    /// Process `p`'s polynomial `Q_p`.
    pub fn polynomial(&self, p: u64) -> Poly {
        Poly::from_process_id(self.field, p, self.d)
    }

    /// The `x`-th name of process `p`: `n_p(x) = z·x + Q_p(x)`.
    ///
    /// # Panics
    ///
    /// Panics if `x ≥ 2d(k-1)`.
    pub fn name(&self, p: u64, x: usize) -> u64 {
        assert!(
            x < self.names_per_process(),
            "x = {x} out of range (2d(k-1) = {})",
            self.names_per_process()
        );
        self.field.modulus() * x as u64 + self.polynomial(p).eval(x as u64)
    }

    /// The full name set `N_p`, in `x` order.
    pub fn name_set(&self, p: u64) -> Vec<u64> {
        let q = self.polynomial(p);
        (0..self.names_per_process())
            .map(|x| self.field.modulus() * x as u64 + q.eval(x as u64))
            .collect()
    }

    /// Number of `p`'s names that are also in some `N_q` for `q ∈ others`.
    /// By the covering argument this is at most `d · ‖others‖`.
    pub fn covered_count(&self, p: u64, others: &[u64]) -> usize {
        let mine = self.name_set(p);
        let other_names: std::collections::HashSet<u64> = others
            .iter()
            .filter(|&&q| q != p)
            .flat_map(|&q| self.name_set(q))
            .collect();
        mine.iter().filter(|n| other_names.contains(n)).count()
    }

    /// Verifies Proposition 8 (`‖N_p ∩ N_q‖ ≤ d`) and the covering bound
    /// for every process in `pids` against every other; returns the
    /// offending pair on failure.
    ///
    /// # Errors
    ///
    /// Returns `Err((p, q, common))` if processes `p` and `q` share
    /// `common > d` names.
    pub fn verify_intersection_bound(&self, pids: &[u64]) -> Result<(), (u64, u64, usize)> {
        for (i, &p) in pids.iter().enumerate() {
            let np: std::collections::HashSet<u64> = self.name_set(p).into_iter().collect();
            for &q in pids.iter().skip(i + 1) {
                if p == q {
                    continue;
                }
                let common = self.name_set(q).iter().filter(|n| np.contains(n)).count();
                if common > self.d {
                    return Err((p, q, common));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> NameSets {
        NameSets::new(Gf::new(5).unwrap(), 1, 3).unwrap()
    }

    #[test]
    fn parameter_validation() {
        let f5 = Gf::new(5).unwrap();
        assert!(matches!(
            NameSets::new(f5, 1, 1),
            Err(ParamError::KTooSmall { k: 1 })
        ));
        assert!(matches!(
            NameSets::new(f5, 0, 3),
            Err(ParamError::DegreeZero)
        ));
        // z = 5 < 2*2*(3-1) = 8
        assert!(matches!(
            NameSets::new(f5, 2, 3),
            Err(ParamError::FieldTooSmall { z: 5, need: 8 })
        ));
    }

    #[test]
    fn name_sets_have_full_size() {
        let ns = small();
        for p in 0..ns.max_source_size() {
            let set = ns.name_set(p);
            let uniq: std::collections::HashSet<_> = set.iter().collect();
            assert_eq!(uniq.len(), ns.names_per_process(), "p={p}");
        }
    }

    #[test]
    fn names_below_dest_size() {
        let ns = small();
        for p in 0..ns.max_source_size() {
            for n in ns.name_set(p) {
                assert!(n < ns.dest_size(), "name {n} ≥ D = {}", ns.dest_size());
            }
        }
    }

    #[test]
    fn intersection_bound_holds_exhaustively() {
        // GF(5), d=1, k=3: all 25 processes pairwise share ≤ 1 name.
        let ns = small();
        let pids: Vec<u64> = (0..ns.max_source_size()).collect();
        ns.verify_intersection_bound(&pids).unwrap();
    }

    #[test]
    fn covering_leaves_free_names() {
        // For any k-1 = 2 other processes, p has ≥ d(k-1) = 2 free names.
        let ns = small();
        let s = ns.max_source_size();
        for p in 0..s {
            for q in 0..s {
                for r in 0..s {
                    if q == p || r == p || q == r {
                        continue;
                    }
                    let covered = ns.covered_count(p, &[q, r]);
                    assert!(
                        ns.names_per_process() - covered >= ns.degree() * (ns.concurrency() - 1),
                        "p={p} q={q} r={r}: only {} free",
                        ns.names_per_process() - covered
                    );
                }
            }
        }
    }

    #[test]
    fn name_formula_matches_definition() {
        let ns = small();
        let p = 13u64; // base-5 digits (3, 2): Q(x) = 2x + 3
        assert_eq!(ns.name(p, 0), 3);
        assert_eq!(ns.name(p, 1), 5); // 5·1 + Q(1)=5+0... computed below
                                      // explicit: Q(1) = (2*1+3) mod 5 = 0, so n(1) = 5
        assert_eq!(ns.name(p, 1), 5);
        // Q(2) = 7 mod 5 = 2, n(2) = 12
        assert_eq!(ns.name(p, 2), 12);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn name_index_bounds_checked() {
        let ns = small();
        let _ = ns.name(0, ns.names_per_process());
    }

    #[test]
    fn larger_family_spot_check() {
        // GF(29), d=2, k=4: 29 ≥ 2*2*3 = 12.
        let ns = NameSets::new(Gf::new(29).unwrap(), 2, 4).unwrap();
        assert_eq!(ns.names_per_process(), 12);
        assert_eq!(ns.dest_size(), 29 * 12);
        let pids: Vec<u64> = (0..200).collect();
        ns.verify_intersection_bound(&pids).unwrap();
    }
}
