//! Greatest common divisor and least common multiple.

use super::divsteps;
use crate::Ubig;

/// Greatest common divisor, by the divsteps kernel.
///
/// `gcd(a, 0) == a` and `gcd(0, 0) == 0`.
///
/// ```
/// use pisa_bigint::{Ubig, modular::gcd};
/// assert_eq!(gcd(&Ubig::from(48u64), &Ubig::from(18u64)), Ubig::from(6u64));
/// ```
pub fn gcd(a: &Ubig, b: &Ubig) -> Ubig {
    if a.is_zero() {
        return b.clone();
    }
    if b.is_zero() {
        return a.clone();
    }
    let twos = a.trailing_zeros().min(b.trailing_zeros());
    let (a, b) = (a >> twos, b >> twos);
    // At least one is odd now; the kernel takes it as f, the smaller one
    // when both are, since its width sets the work.
    let (f, g) = if b.is_odd() && (a.is_even() || b < a) {
        (b, a)
    } else {
        (a, b)
    };
    divsteps::gcd(&f, &(&g % &f)) << twos
}

/// Least common multiple; `lcm(x, 0) == 0`.
///
/// ```
/// use pisa_bigint::{Ubig, modular::lcm};
/// assert_eq!(lcm(&Ubig::from(4u64), &Ubig::from(6u64)), Ubig::from(12u64));
/// ```
pub fn lcm(a: &Ubig, b: &Ubig) -> Ubig {
    if a.is_zero() || b.is_zero() {
        return Ubig::zero();
    }
    let g = gcd(a, b);
    (a / &g) * b
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gcd_matches_u64() {
        fn gcd_u64(mut a: u64, mut b: u64) -> u64 {
            while b != 0 {
                let t = a % b;
                a = b;
                b = t;
            }
            a
        }
        for a in 0..40u64 {
            for b in 0..40u64 {
                assert_eq!(
                    gcd(&Ubig::from(a), &Ubig::from(b)),
                    Ubig::from(gcd_u64(a, b)),
                    "gcd({a},{b})"
                );
            }
        }
    }

    #[test]
    fn gcd_large_power_of_two_factors() {
        let a = Ubig::from(3u64) << 100;
        let b = Ubig::from(5u64) << 80;
        assert_eq!(gcd(&a, &b), Ubig::one() << 80);
    }

    #[test]
    fn lcm_cases() {
        assert_eq!(lcm(&Ubig::from(4u64), &Ubig::from(6u64)), Ubig::from(12u64));
        assert_eq!(lcm(&Ubig::zero(), &Ubig::from(6u64)), Ubig::zero());
        assert_eq!(lcm(&Ubig::from(7u64), &Ubig::from(7u64)), Ubig::from(7u64));
    }

    #[test]
    fn gcd_divides_both() {
        let a = Ubig::from(987654321987654321u64);
        let b = Ubig::from(123456789123456789u64);
        let g = gcd(&a, &b);
        assert!((&a % &g).is_zero());
        assert!((&b % &g).is_zero());
    }
}
