//! Primality testing and random prime generation.

use crate::modular::{mod_pow, MontCtx};
use crate::random::{random_below, random_bits};
use crate::Ubig;
use rand::Rng;

/// Number of Miller–Rabin rounds used by [`gen_prime`]; gives error
/// probability below 2⁻⁸⁰ for the key sizes PISA uses.
pub const DEFAULT_MILLER_RABIN_ROUNDS: usize = 40;

/// Small primes used for trial division before Miller–Rabin.
const SMALL_PRIMES: [u64; 54] = [
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97,
    101, 103, 107, 109, 113, 127, 131, 137, 139, 149, 151, 157, 163, 167, 173, 179, 181, 191, 193,
    197, 199, 211, 223, 227, 229, 233, 239, 241, 251,
];

/// Probabilistic primality test: trial division by small primes, then
/// `rounds` Miller–Rabin iterations with random bases.
///
/// # Examples
///
/// ```
/// use pisa_bigint::{prime, Ubig};
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(1);
/// assert!(prime::is_probable_prime(&Ubig::from(65537u64), 20, &mut rng));
/// assert!(!prime::is_probable_prime(&Ubig::from(65539u64 * 3), 20, &mut rng));
/// ```
pub fn is_probable_prime<R: Rng + ?Sized>(n: &Ubig, rounds: usize, rng: &mut R) -> bool {
    if n.is_zero() || n.is_one() {
        return false;
    }
    for &p in &SMALL_PRIMES {
        let p = Ubig::from(p);
        if *n == p {
            return true;
        }
        if (n % &p).is_zero() {
            return false;
        }
    }
    miller_rabin(n, rounds, rng)
}

fn miller_rabin<R: Rng + ?Sized>(n: &Ubig, rounds: usize, rng: &mut R) -> bool {
    // n is odd and > 251 here.
    let n_minus_1 = n - &Ubig::one();
    let s = n_minus_1.trailing_zeros();
    let d = &n_minus_1 >> s;
    let ctx = MontCtx::new(n).expect("odd candidate");
    let two = Ubig::from(2u64);
    let bound = n - &Ubig::from(3u64);

    'witness: for _ in 0..rounds {
        let a = &two + &random_below(rng, &bound); // a in [2, n-2]
        let mut x = ctx.pow(&a, &d);
        if x.is_one() || x == n_minus_1 {
            continue;
        }
        for _ in 0..s - 1 {
            x = ctx.mul(&x, &x);
            if x == n_minus_1 {
                continue 'witness;
            }
        }
        return false;
    }
    true
}

/// Generates a random probable prime with exactly `bits` bits.
///
/// The two top bits are forced to 1 so that the product of two such primes
/// has exactly `2 * bits` bits — the shape Paillier and RSA key generation
/// rely on.
///
/// # Panics
///
/// Panics if `bits < 8`.
pub fn gen_prime<R: Rng + ?Sized>(rng: &mut R, bits: usize) -> Ubig {
    assert!(bits >= 8, "prime size too small: {bits} bits");
    loop {
        let mut candidate = random_bits(rng, bits);
        candidate.set_bit(0, true); // odd
        candidate.set_bit(bits - 2, true); // top two bits set
        if passes_trial_division(&candidate)
            && miller_rabin(&candidate, DEFAULT_MILLER_RABIN_ROUNDS, rng)
        {
            return candidate;
        }
    }
}

fn passes_trial_division(n: &Ubig) -> bool {
    SMALL_PRIMES
        .iter()
        .all(|&p| !(n % &Ubig::from(p)).is_zero())
}

/// Deterministic primality check for `u64` values, used in tests and the
/// radio substrate (no randomness needed at this size).
pub fn is_prime_u64(n: u64) -> bool {
    if n < 2 {
        return false;
    }
    for &p in &SMALL_PRIMES {
        if n == p {
            return true;
        }
        if n.is_multiple_of(p) {
            return false;
        }
    }
    // Deterministic Miller-Rabin bases for u64.
    let n_big = Ubig::from(n);
    let n_minus_1 = n - 1;
    let s = n_minus_1.trailing_zeros();
    let d = n_minus_1 >> s;
    for &a in &[2u64, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37] {
        if a >= n {
            continue;
        }
        let mut x = mod_pow(&Ubig::from(a), &Ubig::from(d), &n_big);
        if x.is_one() || x == Ubig::from(n_minus_1) {
            continue;
        }
        let mut composite = true;
        for _ in 0..s - 1 {
            x = (&x * &x) % &n_big;
            if x == Ubig::from(n_minus_1) {
                composite = false;
                break;
            }
        }
        if composite {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(7)
    }

    #[test]
    fn small_prime_classification() {
        let mut r = rng();
        let primes = [2u64, 3, 5, 251, 257, 65537, 1000003];
        let composites = [0u64, 1, 4, 255, 65535, 1000001, 561, 41041]; // incl. Carmichael
        for &p in &primes {
            assert!(is_probable_prime(&Ubig::from(p), 30, &mut r), "{p}");
        }
        for &c in &composites {
            assert!(!is_probable_prime(&Ubig::from(c), 30, &mut r), "{c}");
        }
    }

    #[test]
    fn is_prime_u64_matches_sieve() {
        let mut sieve = vec![true; 1000];
        sieve[0] = false;
        sieve[1] = false;
        for i in 2..1000 {
            if sieve[i] {
                for j in (i * i..1000).step_by(i) {
                    sieve[j] = false;
                }
            }
        }
        for (i, &expected) in sieve.iter().enumerate() {
            assert_eq!(is_prime_u64(i as u64), expected, "n={i}");
        }
    }

    #[test]
    fn mersenne_prime_multi_limb() {
        let mut r = rng();
        let p127 = (Ubig::one() << 127) - Ubig::one();
        assert!(is_probable_prime(&p127, 20, &mut r));
        let c = &p127 * &Ubig::from(3u64);
        assert!(!is_probable_prime(&c, 20, &mut r));
    }

    /// Miller–Rabin at the widths the narrow Montgomery kernel serves:
    /// Mersenne primes of 9, 10 and 20 limbs pass, and products of two
    /// of them (18 and 22 limbs, no factor that trial division finds)
    /// fail.
    #[test]
    fn mersenne_primes_and_their_products_across_narrow_widths() {
        let mut r = rng();
        let mersenne = |p: usize| (Ubig::one() << p) - Ubig::one();
        let (m89, m521, m607, m1279) = (mersenne(89), mersenne(521), mersenne(607), mersenne(1279));
        for p in [&m521, &m607, &m1279] {
            assert!(is_probable_prime(p, 8, &mut r), "2^{} - 1", p.bit_len());
        }
        for (c, limbs) in [(&m521 * &m607, 18), (&m89 * &m1279, 22)] {
            assert_eq!(c.as_limbs().len(), limbs);
            assert!(!is_probable_prime(&c, 8, &mut r), "{limbs} limbs");
        }
    }

    #[test]
    fn gen_prime_has_exact_bits_and_is_prime() {
        let mut r = rng();
        for bits in [16usize, 64, 128] {
            let p = gen_prime(&mut r, bits);
            assert_eq!(p.bit_len(), bits);
            assert!(p.bit(bits - 2), "top two bits set");
            assert!(is_probable_prime(&p, 30, &mut r));
        }
    }

    #[test]
    fn gen_prime_product_has_double_bits() {
        let mut r = rng();
        let p = gen_prime(&mut r, 96);
        let q = gen_prime(&mut r, 96);
        assert_eq!((&p * &q).bit_len(), 192);
    }
}
