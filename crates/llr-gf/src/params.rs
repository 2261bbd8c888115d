//! Parameter selection for FILTER: the five regimes of Section 4.4.

use crate::{prime_in_range, Gf, NameSets};
use std::fmt;

/// Errors from parameter validation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ParamError {
    /// The concurrency bound must be at least 2.
    KTooSmall {
        /// The offending `k`.
        k: usize,
    },
    /// The polynomial degree bound must be at least 1.
    DegreeZero,
    /// `z` must be at least `2d(k-1)` (equation (2) of the paper).
    FieldTooSmall {
        /// The chosen modulus.
        z: u64,
        /// The required minimum `2d(k-1)`.
        need: u64,
    },
    /// `z` must be prime.
    NotPrime {
        /// The offending modulus.
        z: u64,
    },
    /// The source name space exceeds `z^(d+1)` (equation (1)): distinct
    /// processes could not get distinct polynomials.
    SourceTooLarge {
        /// The source space size `S`.
        s: u64,
        /// The representable bound `z^(d+1)` (saturated).
        max: u64,
    },
    /// No prime exists in the requested interval.
    NoPrimeInRange {
        /// Interval lower bound.
        lo: u64,
        /// Interval upper bound.
        hi: u64,
    },
}

impl fmt::Display for ParamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            ParamError::KTooSmall { k } => write!(f, "concurrency bound k = {k} must be ≥ 2"),
            ParamError::DegreeZero => write!(f, "polynomial degree bound d must be ≥ 1"),
            ParamError::FieldTooSmall { z, need } => {
                write!(f, "field modulus z = {z} is below 2d(k-1) = {need}")
            }
            ParamError::NotPrime { z } => write!(f, "field modulus z = {z} is not prime"),
            ParamError::SourceTooLarge { s, max } => {
                write!(f, "source space S = {s} exceeds z^(d+1) = {max}")
            }
            ParamError::NoPrimeInRange { lo, hi } => {
                write!(f, "no prime in [{lo}, {hi}]")
            }
        }
    }
}

impl std::error::Error for ParamError {}

/// Which Section-4.4 recipe produced a parameter choice.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Regime {
    /// `S ≤ c^k` — `d = k`, `z ∈ [2k(k-1)+c, 4k(k-1)+2c]`; time `O(k³)`.
    ExponentialBase {
        /// The base `c`.
        c: u64,
    },
    /// `S ≤ 3^(k-1)` (what SPLIT feeds FILTER) — `d = ⌈(k-2)/2⌉`,
    /// `z ∈ [k², 2k²]`, `D ≤ 2k⁴`; time `O(k³)`.
    Exponential3,
    /// `S ≤ k^(log k)` — `d = ⌈log₂ k⌉`, `z ∈ [2k·log k, 4k·log k]`.
    QuasiPolynomial,
    /// `S ≤ k^c` — `d = c`, `z ∈ [2c(k-1), 4c(k-1)]`; time `O(k log k)`.
    Polynomial {
        /// The exponent `c`.
        c: u32,
    },
    /// `S ≤ 2k⁴` (what one FILTER pass feeds the next) — `d = 3`,
    /// `z ∈ [6k, 12k]`, `D ≤ 72k²`; time `O(k log k)`.
    TwoKFour,
    /// Direct search minimizing `D` over feasible `(d, z)` (not from the
    /// paper's table; used by [`FilterParams::choose`]).
    Optimized,
}

impl fmt::Display for Regime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Regime::ExponentialBase { c } => write!(f, "S ≤ {c}^k"),
            Regime::Exponential3 => write!(f, "S ≤ 3^(k-1)"),
            Regime::QuasiPolynomial => write!(f, "S ≤ k^(log k)"),
            Regime::Polynomial { c } => write!(f, "S ≤ k^{c}"),
            Regime::TwoKFour => write!(f, "S ≤ 2k^4"),
            Regime::Optimized => write!(f, "optimized"),
        }
    }
}

/// A validated FILTER instance description: concurrency `k`, source space
/// `S`, degree bound `d` and prime modulus `z`.
///
/// Provides the derived quantities the paper reports: destination size
/// `D = 2zd(k-1)`, tournament-tree depth `⌈log₂ S⌉`, and the worst-case
/// access bounds of Theorem 10.
///
/// # Example
///
/// ```
/// use llr_gf::FilterParams;
/// // The paper's last regime: S ≤ 2k^4 renames to ≤ 72k² names.
/// let p = FilterParams::two_k_four(6).unwrap();
/// assert!(p.source_size() >= 2 * 6u64.pow(4));
/// assert!(p.dest_size() <= 72 * 36);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FilterParams {
    k: usize,
    s: u64,
    d: usize,
    z: u64,
    regime: Regime,
}

impl FilterParams {
    /// Validates an explicit parameter choice against equations (1) and (2)
    /// of Section 4.1.
    ///
    /// # Errors
    ///
    /// Any of the [`ParamError`] conditions: `k < 2`, `d = 0`, composite
    /// `z`, `z < 2d(k-1)`, or `S > z^(d+1)`.
    pub fn new(k: usize, s: u64, d: usize, z: u64) -> Result<Self, ParamError> {
        Self::with_regime(k, s, d, z, Regime::Optimized)
    }

    fn with_regime(k: usize, s: u64, d: usize, z: u64, regime: Regime) -> Result<Self, ParamError> {
        if k < 2 {
            return Err(ParamError::KTooSmall { k });
        }
        if d == 0 {
            return Err(ParamError::DegreeZero);
        }
        let field = Gf::new(z).ok_or(ParamError::NotPrime { z })?;
        let sets = NameSets::new(field, d, k)?;
        let max = sets.max_source_size();
        if s > max {
            return Err(ParamError::SourceTooLarge { s, max });
        }
        Ok(Self { k, s, d, z, regime })
    }

    // --- The five regime recipes of Section 4.4 -------------------------

    /// `S ≤ c^k`: `d = k` and prime `z ∈ [2k(k-1)+c, 4k(k-1)+2c]`.
    ///
    /// # Errors
    ///
    /// Propagates validation failures (e.g. `k < 2`).
    pub fn exponential_base(k: usize, c: u64) -> Result<Self, ParamError> {
        if k < 2 {
            return Err(ParamError::KTooSmall { k });
        }
        let kk = k as u64;
        let lo = 2 * kk * (kk - 1) + c;
        let hi = 4 * kk * (kk - 1) + 2 * c;
        let z = prime_in_range(lo, hi).ok_or(ParamError::NoPrimeInRange { lo, hi })?;
        let s = saturating_pow(c, k as u32);
        Self::with_regime(k, s, k, z, Regime::ExponentialBase { c })
    }

    /// `S ≤ 3^(k-1)` (the name space SPLIT produces): `d = ⌈(k-2)/2⌉` and
    /// prime `z ∈ [k², 2k²]`, giving `D ≤ 2k⁴` and `O(k³)` time.
    ///
    /// # Errors
    ///
    /// Propagates validation failures; requires `k ≥ 4` so that `d ≥ 1`.
    pub fn exponential3(k: usize) -> Result<Self, ParamError> {
        if k < 2 {
            return Err(ParamError::KTooSmall { k });
        }
        let d = (k.max(4) - 2).div_ceil(2); // ⌈(k-2)/2⌉, at least 1
        let kk = k as u64;
        let lo = (kk * kk).max(2 * d as u64 * (kk - 1));
        let hi = 2 * kk * kk.max(2) * 2; // generous upper end of [k², 2k²] ∪ Bertrand
        let z = prime_in_range(lo, hi).ok_or(ParamError::NoPrimeInRange { lo, hi })?;
        let s = saturating_pow(3, k as u32 - 1);
        Self::with_regime(k, s, d, z, Regime::Exponential3)
    }

    /// `S ≤ k^(log₂ k)`: `d = ⌈log₂ k⌉` and prime `z ∈ [2k·log k, 4k·log k]`.
    ///
    /// # Errors
    ///
    /// Propagates validation failures.
    pub fn quasi_polynomial(k: usize) -> Result<Self, ParamError> {
        if k < 2 {
            return Err(ParamError::KTooSmall { k });
        }
        let d = (k as u64).ilog2().max(1) as usize;
        let kk = k as u64;
        let lo = (2 * kk * d as u64).max(2 * d as u64 * (kk - 1));
        let hi = 2 * lo;
        let z = prime_in_range(lo, hi).ok_or(ParamError::NoPrimeInRange { lo, hi })?;
        let s = saturating_pow(kk, d as u32);
        Self::with_regime(k, s, d, z, Regime::QuasiPolynomial)
    }

    /// `S ≤ k^c`: `d = c` and prime `z ∈ [2c(k-1), 4c(k-1)]`, giving
    /// `D ≤ 8c²k²` and `O(k log k)` time for constant `c`.
    ///
    /// # Errors
    ///
    /// Propagates validation failures.
    pub fn polynomial(k: usize, c: u32) -> Result<Self, ParamError> {
        if k < 2 {
            return Err(ParamError::KTooSmall { k });
        }
        if c == 0 {
            return Err(ParamError::DegreeZero);
        }
        let d = c as usize;
        let lo = 2 * c as u64 * (k as u64 - 1);
        // [2c(k-1), 4c(k-1)] may be too narrow to satisfy z^(d+1) ≥ k^c for
        // tiny k; fall back to the Bertrand interval above the required
        // minimum.
        let s = saturating_pow(k as u64, c);
        let z_min = lo.max(nth_root_ceil(s, c + 1));
        let z = prime_in_range(z_min, 2 * z_min.max(2)).ok_or(ParamError::NoPrimeInRange {
            lo: z_min,
            hi: 2 * z_min,
        })?;
        Self::with_regime(k, s, d, z, Regime::Polynomial { c })
    }

    /// `S ≤ 2k⁴` (what one FILTER stage feeds the next): `d = 3` and prime
    /// `z ∈ [6k, 12k]`, giving `D ≤ 72k²` and `O(k log k)` time.
    ///
    /// # Errors
    ///
    /// Propagates validation failures.
    pub fn two_k_four(k: usize) -> Result<Self, ParamError> {
        if k < 2 {
            return Err(ParamError::KTooSmall { k });
        }
        let kk = k as u64;
        let s = 2 * kk.pow(4);
        let lo = (6 * kk).max(nth_root_ceil(s, 4)).max(2 * 3 * (kk - 1));
        let hi = (12 * kk).max(2 * lo);
        let z = prime_in_range(lo, hi).ok_or(ParamError::NoPrimeInRange { lo, hi })?;
        Self::with_regime(k, s, 3, z, Regime::TwoKFour)
    }

    /// Searches feasible `(d, z)` minimizing the destination size `D` for
    /// the given `k` and `S` (ties broken toward smaller `d`, i.e. faster
    /// time). This is the constructor applications should use; the named
    /// regimes above exist to reproduce the paper's table.
    ///
    /// # Errors
    ///
    /// Propagates validation failures (only `k < 2` in practice).
    pub fn choose(k: usize, s: u64) -> Result<Self, ParamError> {
        if k < 2 {
            return Err(ParamError::KTooSmall { k });
        }
        let mut best: Option<Self> = None;
        for d in 1..=64usize {
            let need = 2 * d as u64 * (k as u64 - 1);
            let z_min = need.max(nth_root_ceil(s, d as u32 + 1)).max(2);
            let Some(z) = prime_in_range(z_min, 2 * z_min) else {
                continue;
            };
            if let Ok(p) = Self::with_regime(k, s, d, z, Regime::Optimized) {
                if best.as_ref().is_none_or(|b| p.dest_size() < b.dest_size()) {
                    best = Some(p);
                }
            }
            // Increasing d past log2(s) no longer shrinks z; stop early.
            if (z_min as u128).pow(d as u32 + 1) > (s as u128).saturating_mul(s as u128) && d > 1 {
                break;
            }
        }
        best.ok_or(ParamError::NoPrimeInRange {
            lo: 2,
            hi: u64::MAX,
        })
    }

    // --- Accessors and derived quantities --------------------------------

    /// The concurrency bound `k`.
    pub fn concurrency(&self) -> usize {
        self.k
    }

    /// The source name-space size `S` this instance supports.
    pub fn source_size(&self) -> u64 {
        self.s
    }

    /// The polynomial degree bound `d`.
    pub fn degree(&self) -> usize {
        self.d
    }

    /// The prime field modulus `z`.
    pub fn modulus(&self) -> u64 {
        self.z
    }

    /// Which recipe produced this instance.
    pub fn regime(&self) -> Regime {
        self.regime
    }

    /// The name-set family for these parameters.
    pub fn name_sets(&self) -> NameSets {
        NameSets::new(Gf::new(self.z).expect("validated prime"), self.d, self.k)
            .expect("validated parameters")
    }

    /// Destination name-space size `D = 2·z·d·(k-1)`.
    pub fn dest_size(&self) -> u64 {
        self.name_sets().dest_size()
    }

    /// Names each process competes for, `2d(k-1)`.
    pub fn names_per_process(&self) -> usize {
        self.name_sets().names_per_process()
    }

    /// Tournament-tree depth `⌈log₂ S⌉` (at least 1).
    pub fn tree_levels(&self) -> usize {
        (64 - (self.s.max(2) - 1).leading_zeros()) as usize
    }

    /// Theorem 10's bound on `Check` calls before a name is acquired:
    /// `6d(k-1)·⌈log S⌉`.
    pub fn max_checks(&self) -> u64 {
        6 * self.d as u64 * (self.k as u64 - 1) * self.tree_levels() as u64
    }

    /// Worst-case shared accesses for one `GetName` (Theorem 10): every
    /// `Check` costs 1 access and each of the `2d(k-1)·⌈log S⌉` ME blocks
    /// is entered at most once at ≤ 4 accesses.
    pub fn getname_access_bound(&self) -> u64 {
        let enters = self.names_per_process() as u64 * self.tree_levels() as u64;
        self.max_checks() + 4 * enters
    }

    /// Worst-case shared accesses for one `ReleaseName` ("releasing all
    /// played mutual exclusion blocks takes no more time than entering
    /// them"): one write per entered ME block.
    pub fn release_access_bound(&self) -> u64 {
        self.names_per_process() as u64 * self.tree_levels() as u64
    }

    /// Registers a dense (non-lazy) representation would need:
    /// `D` trees × `2^⌈log S⌉ − 1` ME blocks × 2 registers — the paper's
    /// `O(z·d·k·S)` space bound.
    pub fn dense_registers(&self) -> u128 {
        let blocks_per_tree = (1u128 << self.tree_levels()) - 1;
        self.dest_size() as u128 * blocks_per_tree * 2
    }
}

impl fmt::Display for FilterParams {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Filter(k={}, S={}, d={}, z={}, D={}, regime: {})",
            self.k,
            self.s,
            self.d,
            self.z,
            self.dest_size(),
            self.regime
        )
    }
}

fn saturating_pow(base: u64, exp: u32) -> u64 {
    let mut acc: u128 = 1;
    for _ in 0..exp {
        acc = acc.saturating_mul(base as u128);
        if acc > u64::MAX as u128 {
            return u64::MAX;
        }
    }
    acc as u64
}

/// Smallest `r` with `r^n ≥ x`.
fn nth_root_ceil(x: u64, n: u32) -> u64 {
    if x <= 1 {
        return 1;
    }
    let mut r = (x as f64).powf(1.0 / n as f64).floor() as u64;
    r = r.saturating_sub(2).max(1);
    while (r as u128).pow(n) < x as u128 {
        r += 1;
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::is_prime;

    #[test]
    fn nth_root_ceil_exact() {
        assert_eq!(nth_root_ceil(0, 3), 1);
        assert_eq!(nth_root_ceil(1, 3), 1);
        assert_eq!(nth_root_ceil(8, 3), 2);
        assert_eq!(nth_root_ceil(9, 3), 3); // 2³=8 < 9 ≤ 27
        assert_eq!(nth_root_ceil(27, 3), 3);
        assert_eq!(nth_root_ceil(u64::MAX, 1), u64::MAX);
        assert_eq!(nth_root_ceil(u64::MAX, 64), 2);
    }

    #[test]
    fn explicit_params_validate() {
        assert!(FilterParams::new(3, 25, 1, 5).is_ok());
        assert!(matches!(
            FilterParams::new(3, 26, 1, 5),
            Err(ParamError::SourceTooLarge { s: 26, max: 25 })
        ));
        assert!(matches!(
            FilterParams::new(3, 25, 1, 6),
            Err(ParamError::NotPrime { z: 6 })
        ));
        assert!(matches!(
            FilterParams::new(1, 10, 1, 5),
            Err(ParamError::KTooSmall { k: 1 })
        ));
    }

    #[test]
    fn two_k_four_matches_paper_bounds() {
        for k in 2..=32usize {
            let p = FilterParams::two_k_four(k).unwrap();
            let kk = k as u64;
            assert_eq!(p.degree(), 3);
            assert!(is_prime(p.modulus()));
            assert!(p.source_size() >= 2 * kk.pow(4));
            // D ≤ 72k² holds for k large enough that the Bertrand interval
            // sits inside [6k, 12k]; allow the small-k fallback some slack.
            if k >= 6 {
                assert!(
                    p.dest_size() <= 72 * kk * kk,
                    "k={k}: D = {} > 72k² = {}",
                    p.dest_size(),
                    72 * kk * kk
                );
            }
        }
    }

    #[test]
    fn exponential3_matches_paper_bounds() {
        for k in 4..=16usize {
            let p = FilterParams::exponential3(k).unwrap();
            let kk = k as u64;
            assert!(p.source_size() >= saturating_pow(3, k as u32 - 1));
            // D ≤ 2k²(k-2)(k-1) ≤ 2k⁴ (paper, §4.4 second regime)
            assert!(
                p.dest_size() <= 2 * kk.pow(4) * 2, // ×2 slack for prime gaps
                "k={k}: D = {}",
                p.dest_size()
            );
        }
    }

    #[test]
    fn polynomial_regime_quadratic_dest() {
        for k in 3..=64usize {
            let p = FilterParams::polynomial(k, 2).unwrap();
            let kk = k as u64;
            assert!(p.source_size() >= kk * kk);
            // D = O(c²k²); generous constant for prime-gap slack
            assert!(
                p.dest_size() <= 64 * kk * kk,
                "k={k}: D = {}",
                p.dest_size()
            );
        }
    }

    #[test]
    fn quasi_polynomial_regime_valid() {
        for k in 2..=64usize {
            let p = FilterParams::quasi_polynomial(k).unwrap();
            assert!(p.source_size() >= (k as u64).pow((k as u64).ilog2().max(1)));
        }
    }

    #[test]
    fn exponential_base_regime_valid() {
        for k in 2..=10usize {
            let p = FilterParams::exponential_base(k, 2).unwrap();
            assert_eq!(p.degree(), k);
            assert!(p.source_size() >= saturating_pow(2, k as u32));
        }
    }

    #[test]
    fn choose_beats_or_matches_fixed_regimes() {
        for k in [4usize, 6, 8, 12] {
            let s = 2 * (k as u64).pow(4);
            let auto = FilterParams::choose(k, s).unwrap();
            let fixed = FilterParams::two_k_four(k).unwrap();
            assert!(
                auto.dest_size() <= fixed.dest_size(),
                "k={k}: choose D={} vs two_k_four D={}",
                auto.dest_size(),
                fixed.dest_size()
            );
        }
    }

    #[test]
    fn tree_levels_is_ceil_log2() {
        let p = FilterParams::new(3, 25, 1, 5).unwrap();
        assert_eq!(p.tree_levels(), 5); // ⌈log₂ 25⌉ = 5
        let p = FilterParams::new(3, 16, 1, 5).unwrap();
        assert_eq!(p.tree_levels(), 4);
        let p = FilterParams::new(3, 2, 1, 5).unwrap();
        assert_eq!(p.tree_levels(), 1);
    }

    #[test]
    fn access_bounds_are_consistent() {
        let p = FilterParams::two_k_four(4).unwrap();
        assert_eq!(p.max_checks(), 6 * 3 * 3 * p.tree_levels() as u64);
        assert!(p.getname_access_bound() > p.max_checks());
        assert!(p.release_access_bound() < p.getname_access_bound());
        assert!(p.dense_registers() > 0);
    }

    #[test]
    fn display_is_informative() {
        let p = FilterParams::two_k_four(4).unwrap();
        let s = p.to_string();
        assert!(s.contains("k=4"));
        assert!(s.contains("2k^4"));
    }
}
