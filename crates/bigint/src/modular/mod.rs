//! Modular arithmetic: Montgomery-form exponentiation, modular inverse,
//! GCD and LCM.
//!
//! The workhorse is [`MontCtx`], a reusable Montgomery reduction context
//! keyed to one odd modulus. Paillier spends nearly all of its time inside
//! [`MontCtx::pow`], so the context precomputes `R mod n`, `R² mod n` and
//! `-n⁻¹ mod 2⁶⁴` once and reuses them across every exponentiation with
//! that modulus.
//!
//! # Examples
//!
//! ```
//! use pisa_bigint::{Ubig, modular};
//!
//! let n = Ubig::from(101u64); // odd modulus
//! let x = modular::mod_pow(&Ubig::from(2u64), &Ubig::from(100u64), &n);
//! assert_eq!(x, Ubig::one()); // Fermat
//! ```

mod divsteps;
mod gcd;
mod inv;
mod lanes;
mod mont;
mod pow;

pub use gcd::{gcd, lcm};
pub use inv::mod_inverse;
pub use lanes::{pow_many_width, LANES};
#[doc(hidden)]
pub use mont::{mont_mul_count, reset_mont_mul_count, NARROW_MAX_LIMBS};
pub use mont::{MontCtx, MontScratch};
pub use pow::mod_pow;

use crate::Ubig;

/// `a * b mod n` via full multiplication and reduction.
///
/// For one-off products this beats converting into and out of Montgomery
/// form; for long products reuse a [`MontCtx`].
///
/// # Panics
///
/// Panics if `n` is zero.
///
/// ```
/// use pisa_bigint::{Ubig, modular};
/// let r = modular::mod_mul(&Ubig::from(7u64), &Ubig::from(8u64), &Ubig::from(10u64));
/// assert_eq!(r, Ubig::from(6u64));
/// ```
pub fn mod_mul(a: &Ubig, b: &Ubig, n: &Ubig) -> Ubig {
    (a * b) % n
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mod_mul_reduces() {
        let n = Ubig::from(97u64);
        for a in 0..20u64 {
            for b in 0..20u64 {
                assert_eq!(
                    mod_mul(&Ubig::from(a), &Ubig::from(b), &n),
                    Ubig::from(a * b % 97)
                );
            }
        }
    }
}
