//! Deterministic primality testing and prime search for `u64`.
//!
//! FILTER needs a prime `z` in a Bertrand interval (`a ≤ z ≤ 2a` always
//! contains one); the regime recipes in Section 4.4 of the paper all reduce
//! to "pick a prime between `lo` and `hi`".

/// Deterministic Miller–Rabin primality test for `u64`.
///
/// Uses the witness set `{2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37}`,
/// which is known to be exact for every `n < 3.3 × 10²⁴` — in particular
/// for all of `u64`.
///
/// # Example
///
/// ```
/// use llr_gf::is_prime;
/// assert!(is_prime(2));
/// assert!(is_prime(1_000_000_007));
/// assert!(!is_prime(1));
/// assert!(!is_prime(561)); // Carmichael number
/// ```
pub fn is_prime(n: u64) -> bool {
    if n < 2 {
        return false;
    }
    for p in [2u64, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37] {
        if n == p {
            return true;
        }
        if n.is_multiple_of(p) {
            return false;
        }
    }
    // n - 1 = d * 2^s with d odd
    let mut d = n - 1;
    let mut s = 0u32;
    while d.is_multiple_of(2) {
        d /= 2;
        s += 1;
    }
    'witness: for a in [2u64, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37] {
        let mut x = pow_mod(a, d, n);
        if x == 1 || x == n - 1 {
            continue;
        }
        for _ in 1..s {
            x = mul_mod(x, x, n);
            if x == n - 1 {
                continue 'witness;
            }
        }
        return false;
    }
    true
}

/// `(a * b) mod m` without overflow.
pub(crate) fn mul_mod(a: u64, b: u64, m: u64) -> u64 {
    ((a as u128 * b as u128) % m as u128) as u64
}

/// `(base ^ exp) mod m` without overflow.
pub(crate) fn pow_mod(mut base: u64, mut exp: u64, m: u64) -> u64 {
    if m == 1 {
        return 0;
    }
    let mut acc = 1u64;
    base %= m;
    while exp > 0 {
        if exp & 1 == 1 {
            acc = mul_mod(acc, base, m);
        }
        base = mul_mod(base, base, m);
        exp >>= 1;
    }
    acc
}

/// The smallest prime `≥ n`.
///
/// # Panics
///
/// Panics if no such prime fits in `u64` (i.e. `n` exceeds the largest
/// 64-bit prime, 2⁶⁴ − 59).
pub fn next_prime_at_least(n: u64) -> u64 {
    let mut c = n.max(2);
    loop {
        if is_prime(c) {
            return c;
        }
        c = c.checked_add(1).expect("no prime ≥ n fits in u64");
    }
}

/// The smallest prime in `[lo, hi]`, if any.
///
/// By Bertrand's postulate, `prime_in_range(a, 2a)` always succeeds for
/// `a ≥ 1` — which is exactly how the paper's Section 4.4 picks `z`.
///
/// # Example
///
/// ```
/// use llr_gf::prime_in_range;
/// assert_eq!(prime_in_range(24, 48), Some(29));
/// assert_eq!(prime_in_range(24, 28), None);
/// ```
pub fn prime_in_range(lo: u64, hi: u64) -> Option<u64> {
    if lo > hi {
        return None;
    }
    let p = next_prime_at_least(lo);
    (p <= hi).then_some(p)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_primes_classified() {
        let primes: Vec<u64> = (0..100).filter(|&n| is_prime(n)).collect();
        assert_eq!(
            primes,
            vec![
                2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79,
                83, 89, 97
            ]
        );
    }

    #[test]
    fn carmichael_numbers_rejected() {
        for n in [561u64, 1105, 1729, 2465, 2821, 6601, 8911, 62745, 162401] {
            assert!(!is_prime(n), "{n} is a Carmichael number, not a prime");
        }
    }

    #[test]
    fn large_known_primes() {
        assert!(is_prime(2_147_483_647)); // 2^31 - 1 (Mersenne)
        assert!(is_prime(1_000_000_007));
        assert!(is_prime(18_446_744_073_709_551_557)); // largest u64 prime
        assert!(!is_prime(18_446_744_073_709_551_615)); // u64::MAX
    }

    #[test]
    fn large_composites() {
        // product of two primes
        assert!(!is_prime(1_000_000_007u64.wrapping_mul(3)));
        assert!(!is_prime(2_147_483_647 * 2));
    }

    #[test]
    fn next_prime_works() {
        assert_eq!(next_prime_at_least(0), 2);
        assert_eq!(next_prime_at_least(8), 11);
        assert_eq!(next_prime_at_least(11), 11);
        assert_eq!(next_prime_at_least(90), 97);
    }

    #[test]
    fn bertrand_interval_always_has_a_prime() {
        // spot-check Bertrand's postulate for the ranges the protocols use
        for a in 1..2000u64 {
            assert!(
                prime_in_range(a, 2 * a).is_some(),
                "no prime in [{a}, {}]",
                2 * a
            );
        }
    }

    #[test]
    fn pow_mod_agrees_with_naive() {
        for m in [2u64, 3, 7, 97, 1_000_003] {
            for b in [0u64, 1, 2, 5, 96] {
                let mut naive = 1u64 % m;
                for e in 0..20u64 {
                    assert_eq!(pow_mod(b, e, m), naive, "b={b} e={e} m={m}");
                    naive = mul_mod(naive, b, m);
                }
            }
        }
    }
}
