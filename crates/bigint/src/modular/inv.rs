//! Modular inverse.
//!
//! Every modulus goes through the constant-time divsteps kernel: odd
//! moduli directly, even ones through the inverse of the modulus modulo
//! the (then necessarily odd) argument.

use super::divsteps;
use crate::Ubig;

/// Computes `a⁻¹ mod m`, or `None` if `gcd(a, m) != 1`.
///
/// The work depends only on the bit length of `m`: the kernel runs the
/// same number of divstep batches for every `a`.
///
/// # Panics
///
/// Panics if `m` is zero.
///
/// # Examples
///
/// ```
/// use pisa_bigint::{Ubig, modular::mod_inverse};
///
/// let inv = mod_inverse(&Ubig::from(3u64), &Ubig::from(11u64)).expect("coprime");
/// assert_eq!(inv, Ubig::from(4u64)); // 3 * 4 = 12 = 1 mod 11
/// assert!(mod_inverse(&Ubig::from(4u64), &Ubig::from(8u64)).is_none());
/// ```
pub fn mod_inverse(a: &Ubig, m: &Ubig) -> Option<Ubig> {
    assert!(!m.is_zero(), "zero modulus in mod_inverse");
    let a = a % m;
    let (inv, unit) = if m.is_odd() {
        divsteps::inverse(&a, m, m.bit_len())
    } else {
        even_inverse(&a, m)
    };
    // pisa-lint: allow(secret-branching): the split reveals only whether gcd(a, m) = 1, which the Option returned reveals anyway
    if unit {
        Some(inv)
    } else {
        None
    }
}

/// `a⁻¹ mod m` for even `m` and `a < m`, with the unit flag.
///
/// An invertible `a` is odd, and then `a⁻¹ = (1 + m·(a − (m⁻¹ mod a)))/a`:
/// the numerator is `≡ 1 (mod m)` and `≡ 0 (mod a)`. An even `a` runs the
/// same work on `a + 1` and clears the flag, so the parity of `a` does
/// not decide which work runs. The kernel takes the bit length of `m`,
/// which bounds `a`.
fn even_inverse(a: &Ubig, m: &Ubig) -> (Ubig, bool) {
    let mut odd = a.clone();
    odd.set_bit(0, true);
    let (m_inv, unit) = divsteps::inverse(&(m % &odd), &odd, m.bit_len());
    let inv = ((Ubig::one() + m * &(&odd - &m_inv)) / &odd) % m;
    (inv, unit & a.is_odd())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inverse_roundtrip_prime_modulus() {
        let p = Ubig::from(1000003u64);
        for a in [1u64, 2, 3, 500000, 1000002] {
            let a = Ubig::from(a);
            let inv = mod_inverse(&a, &p).expect("prime modulus");
            assert_eq!((&a * &inv) % &p, Ubig::one());
        }
    }

    #[test]
    fn non_coprime_returns_none() {
        assert!(mod_inverse(&Ubig::from(6u64), &Ubig::from(9u64)).is_none());
        assert!(mod_inverse(&Ubig::zero(), &Ubig::from(9u64)).is_none());
        assert!(mod_inverse(&Ubig::from(3u64), &Ubig::from(9u64)).is_none());
    }

    #[test]
    fn even_modulus_path() {
        // 3⁻¹ mod 16 = 11
        assert_eq!(
            mod_inverse(&Ubig::from(3u64), &Ubig::from(16u64)),
            Some(Ubig::from(11u64))
        );
        assert!(mod_inverse(&Ubig::from(4u64), &Ubig::from(16u64)).is_none());
    }

    #[test]
    fn unreduced_input() {
        let m = Ubig::from(11u64);
        let inv = mod_inverse(&Ubig::from(14u64), &m).unwrap(); // 14 ≡ 3
        assert_eq!(inv, Ubig::from(4u64));
    }

    #[test]
    fn modulus_one() {
        assert_eq!(
            mod_inverse(&Ubig::from(5u64), &Ubig::one()),
            Some(Ubig::zero())
        );
    }

    #[test]
    fn large_modulus_roundtrip() {
        let m = (Ubig::one() << 127) - Ubig::one(); // prime
        let a = Ubig::from(0xdead_beef_1234_5678u64);
        let inv = mod_inverse(&a, &m).unwrap();
        assert_eq!((&a * &inv) % &m, Ubig::one());
    }

    #[test]
    fn paillier_sized_inverse() {
        // 4096-bit odd modulus, pseudo-random unit.
        let mut x = 0x9e3779b97f4a7c15u64;
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut m = Ubig::from_limbs((0..64).map(|_| next()).collect());
        m.set_bit(0, true);
        let a = Ubig::from_limbs((0..60).map(|_| next()).collect());
        if let Some(inv) = mod_inverse(&a, &m) {
            assert_eq!((&a * &inv) % &m, Ubig::one());
        }
    }
}
