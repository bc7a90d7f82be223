//! Modular inverse, one value at a time or a batch at once.
//!
//! Every modulus goes through the constant-time divsteps kernel: odd
//! moduli directly, even ones through the inverse of the modulus modulo
//! the (then necessarily odd) argument. A batch under one Montgomery
//! context pays one kernel call for all its values.

use super::{divsteps, MontCtx};
use crate::Ubig;
use std::borrow::{Borrow, Cow};

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

impl MontCtx {
    /// The inverse of every value modulo this context's modulus, equal
    /// entry by entry to [`mod_inverse`], or `None` when some value is not
    /// a unit. Values at or above the modulus are reduced first.
    ///
    /// Montgomery's simultaneous inversion (P. L. Montgomery, "Speeding
    /// the Pollard and elliptic curve methods of factorization", Math.
    /// Comp. 48, 1987): the prefix products, one divsteps inversion of the
    /// last, then back-substitution, so `k` values cost one inversion and
    /// `3(k − 1)` Montgomery multiplies. Nothing enters Montgomery form:
    /// prefix `i` carries `R⁻ⁱ`, so its inverse carries `Rⁱ`, and each
    /// step's REDC factor `R⁻¹` cancels the difference, leaving every
    /// inverse plain.
    ///
    /// The work depends only on the count and the modulus width. The
    /// values are taken to be public (ciphertexts): nothing is wiped.
    ///
    /// ```
    /// use pisa_bigint::{Ubig, modular::{mod_inverse, MontCtx}};
    ///
    /// let n = Ubig::from(1_000_003u64);
    /// let ctx = MontCtx::new(&n).expect("odd modulus");
    /// let values: Vec<Ubig> = (2..10u64).map(Ubig::from).collect();
    /// let inverses = ctx.inverse_many(&values).expect("units");
    /// for (v, inv) in values.iter().zip(&inverses) {
    ///     assert_eq!(Some(inv.clone()), mod_inverse(v, &n));
    /// }
    /// assert!(ctx.inverse_many(&[Ubig::from(3u64), n.clone()]).is_none());
    /// ```
    pub fn inverse_many<B: Borrow<Ubig>>(&self, values: &[B]) -> Option<Vec<Ubig>> {
        let reduced: Vec<Cow<'_, Ubig>> = values
            .iter()
            .map(|v| match v.borrow() {
                v if v < &self.n => Cow::Borrowed(v),
                v => Cow::Owned(v % &self.n),
            })
            .collect();
        let mut s = self.scratch();
        // prefixes[i] = v₀⋯vᵢ · R⁻ⁱ
        let mut prefixes: Vec<Ubig> = Vec::with_capacity(reduced.len());
        for v in &reduced {
            let prefix = match prefixes.last() {
                Some(before) => self.mont_mul(before, v, &mut s),
                None => v.clone().into_owned(),
            };
            prefixes.push(prefix);
        }
        let Some(last) = prefixes.pop() else {
            return Some(Vec::new());
        };
        let (mut inverse, unit) = divsteps::inverse(&last, &self.n, self.n.bit_len());
        if !unit {
            return None;
        }
        // From i = k − 1 down, `inverse` is prefix i's: (v₀⋯vᵢ)⁻¹ · Rⁱ.
        let mut out = Vec::with_capacity(reduced.len());
        for (v, before) in reduced.iter().rev().zip(prefixes.iter().rev()) {
            out.push(self.mont_mul(before, &inverse, &mut s));
            inverse = self.mont_mul(&inverse, v, &mut s);
        }
        out.push(inverse);
        out.reverse();
        Some(out)
    }
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

    /// Batches of 0 to 9 values, units and values at or above the
    /// modulus, at one and several limbs: equal to `mod_inverse` entry by
    /// entry, `None` when any value shares a factor with the modulus, and
    /// three Montgomery multiplies per value past the first.
    #[test]
    fn inverse_many_equals_mod_inverse_entry_by_entry() {
        use crate::modular::{mont_mul_count, reset_mont_mul_count};
        // 3 · 5 · 1000003 and a 4-limb prime times 3.
        let moduli = [
            Ubig::from(15_000_045u64),
            ((Ubig::one() << 255) - Ubig::from(19u64)) * Ubig::from(3u64),
        ];
        for n in &moduli {
            let ctx = MontCtx::new(n).unwrap();
            let units: Vec<Ubig> = (0..9u64)
                .map(|i| match i {
                    0 => Ubig::one(),
                    1 => n - &Ubig::one(),
                    2 => n + &Ubig::from(2u64),
                    3 => (n << 1) + Ubig::from(7u64),
                    _ => (Ubig::from(0x9e37_79b9u64 * i) << (i as usize * 7)) % n,
                })
                .map(|v| {
                    let mut v = v;
                    while mod_inverse(&v, n).is_none() {
                        v = &v + &Ubig::one();
                    }
                    v
                })
                .collect();
            for k in 0..=units.len() {
                let batch = &units[..k];
                reset_mont_mul_count();
                let got = ctx.inverse_many(batch).expect("units");
                assert_eq!(mont_mul_count(), 3 * k.saturating_sub(1) as u64, "k = {k}");
                let want: Vec<Ubig> = batch.iter().map(|v| mod_inverse(v, n).unwrap()).collect();
                assert_eq!(got, want, "k = {k}");
                // One factor of the modulus anywhere fails the batch.
                for at in 0..k {
                    let mut poisoned = batch.to_vec();
                    poisoned[at] = Ubig::from(3u64) * &poisoned[at];
                    assert!(ctx.inverse_many(&poisoned).is_none(), "k = {k}, at {at}");
                }
            }
        }
    }
}
