//! Blinding-factor sampling for PISA's sign-test outsourcing.
//!
//! Equation (14) of the paper blinds each interference entry `I(c,i)`
//! before it reaches the STP:
//!
//! ```text
//! V(c,i) = ε(c,i) · (α(c,i) · I(c,i) − β(c,i))
//! ```
//!
//! where `α > β > 0` are one-time large random integers and
//! `ε ∈ {−1, +1}` hides the sign. For correctness the STP's sign reading
//! must match the sign of `I`: with `I ≥ 1`, `αI − β ≥ α − β > 0`, and
//! with `I ≤ 0`, `αI − β ≤ −β < 0`. For *privacy*, `α` and `β` must be
//! large enough that `V` reveals negligible information about `I`; for
//! *correctness inside Paillier*, `|V|` must stay below `n/2` so the
//! centered lift does not wrap.

use pisa_bigint::random::random_range;
use pisa_bigint::zeroize::Zeroize;
use pisa_bigint::{Ibig, Sign, Ubig};
use rand::Rng;
use std::fmt;

/// One-time blinding factors for a single matrix entry.
///
/// Tagged `pisa_secret`: recovering `(ε, α, β)` lets the STP unblind
/// `V` back to the interference indicator, so the factors must never be
/// printed or serialized and are wiped on drop.
#[doc(alias = "pisa_secret")]
#[derive(Clone, PartialEq, Eq)]
pub struct BlindingFactors {
    /// Sign flip ε ∈ {−1, +1}.
    pub epsilon: SignFlip,
    /// Multiplicative blind α (strictly greater than β).
    pub alpha: Ubig,
    /// Additive blind β (strictly positive).
    pub beta: Ubig,
}

impl fmt::Debug for BlindingFactors {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("BlindingFactors { <redacted> }")
    }
}

impl Drop for BlindingFactors {
    fn drop(&mut self) {
        // ε is a two-variant Copy enum; only the big integers carry
        // enough entropy to be worth wiping.
        self.alpha.zeroize();
        self.beta.zeroize();
    }
}

/// The ε factor of equation (14): a uniformly random sign.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SignFlip {
    /// ε = +1.
    Keep,
    /// ε = −1.
    Flip,
}

impl SignFlip {
    /// Samples a uniform sign.
    pub fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
        if rng.next_u64() & 1 == 0 {
            SignFlip::Keep
        } else {
            SignFlip::Flip
        }
    }

    /// Applies the flip to a signed value.
    pub fn apply(self, v: Ibig) -> Ibig {
        match self {
            SignFlip::Keep => v,
            SignFlip::Flip => -v,
        }
    }

    /// The flip as a scalar (+1 / −1) for homomorphic ⊗.
    pub fn as_scalar(self) -> Ibig {
        match self {
            SignFlip::Keep => Ibig::from(1i64),
            SignFlip::Flip => Ibig::from(-1i64),
        }
    }
}

/// Sampler for blinding factors with a fixed bit budget.
///
/// The paper only requires "large positive" α > β with ε ∈ {−1, 1} and
/// argues informally that this hides `I`. Our reproduction found that a
/// *fixed-width* α (all samples near `2^b`) leaks the **magnitude** of
/// `I` to the STP: `|V| ≈ α·|I|`, so `log₂|V| − b` pins `|I|` within a
/// factor of ~4 (see `magnitude_leakage_with_fixed_exponent` below).
/// This sampler therefore draws the *exponent* of the blind uniformly
/// from `[blind_bits/2, blind_bits]` (log-uniform magnitude smearing):
/// with the paper's parameters that smears `log₂|V|` across ~256 bits,
/// drowning the ≤60-bit spread of `log₂|I|`. β is drawn in the same
/// octave as α (and strictly below it), so the `I = 0` case — where
/// `V = −β` — is indistinguishable from small non-zero indicators.
///
/// # Examples
///
/// ```
/// use pisa_crypto::blind::Blinder;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(3);
/// let blinder = Blinder::new(128);
/// let f = blinder.sample(&mut rng);
/// assert!(f.alpha > f.beta);
/// ```
#[derive(Debug, Clone)]
pub struct Blinder {
    blind_bits: usize,
}

impl Blinder {
    /// Creates a sampler; `blind_bits` must be at least 16.
    ///
    /// # Panics
    ///
    /// Panics if `blind_bits < 16` (too small to blind anything).
    pub fn new(blind_bits: usize) -> Self {
        assert!(blind_bits >= 16, "blinding factors below 16 bits are toys");
        Blinder { blind_bits }
    }

    /// Maximum bit budget for α and β.
    pub fn blind_bits(&self) -> usize {
        self.blind_bits
    }

    /// Samples one-time factors with `α > β > 0` and random ε, with a
    /// log-uniform magnitude (see the type docs).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> BlindingFactors {
        // Exponent uniform over the upper half of the budget.
        let e_lo = (self.blind_bits / 2).max(8);
        let e_span = (self.blind_bits - e_lo + 1) as u64;
        // pisa-lint: allow(panic-freedom): the remainder is < e_span ≤
        // blind_bits + 1, far below u32::MAX, so the cast cannot truncate.
        let e = e_lo + (rng.next_u64() % e_span) as usize;

        let lo = Ubig::one() << (e - 1);
        let hi = Ubig::one() << e;
        let beta = random_range(rng, &lo, &hi);
        let alpha_hi = Ubig::one() << (e + 1);
        let alpha = random_range(rng, &(&beta + &Ubig::one()), &alpha_hi);
        BlindingFactors {
            epsilon: SignFlip::sample(rng),
            alpha,
            beta,
        }
    }

    /// Worst-case magnitude of `α·I − β` given `|I| ≤ max_i`: used to
    /// assert no wrap-around in the Paillier plaintext space.
    pub fn max_blinded_magnitude(&self, max_i: &Ubig) -> Ubig {
        let alpha_max = Ubig::one() << (self.blind_bits + 1);
        &alpha_max * max_i + (Ubig::one() << self.blind_bits)
    }
}

/// Blinds a plaintext interference value: `ε(αI − β)` — the plaintext
/// mirror of equation (14), used by tests and the plaintext reference
/// implementation.
pub fn blind_value(i: &Ibig, f: &BlindingFactors) -> Ibig {
    let scaled = Ibig::from(f.alpha.clone()) * i - Ibig::from(f.beta.clone());
    f.epsilon.apply(scaled)
}

/// Recovers the sign of `I` from the blinded value, as the STP + SDC pair
/// does: the STP reads `sign(V)` and the SDC multiplies by ε.
pub fn unblind_sign(v: &Ibig, epsilon: SignFlip) -> Sign {
    let corrected = epsilon.apply(v.clone());
    if corrected.is_positive() {
        Sign::Positive
    } else {
        Sign::Negative
    }
}

/// Samples the η factor of equation (17): a one-time large random
/// integer that garbles the license signature when any `Q(c,i) ≠ 0`.
pub fn sample_eta<R: Rng + ?Sized>(rng: &mut R, modulus: &Ubig) -> Ubig {
    // η uniform in [2^64, n/4): large, and η·ΣQ cannot be ≡ 0.
    let lo = Ubig::one() << 64;
    let hi = modulus >> 2;
    assert!(lo < hi, "modulus too small to sample eta");
    random_range(rng, &lo, &hi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(44)
    }

    #[test]
    fn alpha_always_exceeds_beta() {
        let mut r = rng();
        let blinder = Blinder::new(64);
        for _ in 0..100 {
            let f = blinder.sample(&mut r);
            assert!(f.alpha > f.beta);
            assert!(!f.beta.is_zero());
        }
    }

    #[test]
    fn blinded_sign_matches_indicator() {
        // sign(ε·V) must equal the predicate I > 0 for every I ≠ 0 … and
        // for I = 0 the blinded value is negative (β > 0), matching the
        // paper's "≤ 0 ⇒ deny" branch.
        let mut r = rng();
        let blinder = Blinder::new(32);
        for i in [-1_000_000i64, -5, -1, 0, 1, 5, 1_000_000] {
            let f = blinder.sample(&mut r);
            let v = blind_value(&Ibig::from(i), &f);
            let recovered = unblind_sign(&v, f.epsilon);
            let expected = if i > 0 {
                pisa_bigint::Sign::Positive
            } else {
                pisa_bigint::Sign::Negative
            };
            assert_eq!(recovered, expected, "I = {i}");
        }
    }

    #[test]
    fn epsilon_is_balanced() {
        let mut r = rng();
        let mut keeps = 0;
        for _ in 0..1000 {
            if SignFlip::sample(&mut r) == SignFlip::Keep {
                keeps += 1;
            }
        }
        assert!((300..700).contains(&keeps), "keeps = {keeps}");
    }

    #[test]
    fn max_magnitude_bounds_actual() {
        let mut r = rng();
        let blinder = Blinder::new(40);
        let max_i = Ubig::from(1u64 << 20);
        let bound = blinder.max_blinded_magnitude(&max_i);
        for _ in 0..50 {
            let f = blinder.sample(&mut r);
            let v = blind_value(&Ibig::from(1i64 << 20), &f);
            assert!(v.magnitude() < &bound);
            let v = blind_value(&Ibig::from(-(1i64 << 20)), &f);
            assert!(v.magnitude() < &bound);
        }
    }

    #[test]
    fn eta_in_range() {
        let mut r = rng();
        let n = Ubig::one() << 256;
        for _ in 0..20 {
            let eta = sample_eta(&mut r, &n);
            assert!(eta >= (Ubig::one() << 64));
            assert!(eta < (&n >> 2));
        }
    }

    #[test]
    #[should_panic(expected = "toys")]
    fn tiny_blinder_rejected() {
        let _ = Blinder::new(8);
    }

    #[test]
    fn magnitude_leakage_with_fixed_exponent() {
        // The failure mode the log-uniform sampler prevents: if α always
        // sits near 2^64, |V| = |α·I − β| pins log₂|I| within ~2 bits,
        // so an STP can distinguish a tiny indicator from a huge one.
        let mut r = rng();
        let small = Ibig::from(2i64);
        let large = Ibig::from(1i64 << 40);
        for _ in 0..50 {
            // Fixed-exponent factors, as a naive reading of the paper
            // would sample them.
            let beta = pisa_bigint::random::random_range(
                &mut r,
                &(Ubig::one() << 63),
                &(Ubig::one() << 64),
            );
            let alpha = pisa_bigint::random::random_range(
                &mut r,
                &(&beta + &Ubig::one()),
                &(Ubig::one() << 65),
            );
            let f = BlindingFactors {
                epsilon: SignFlip::sample(&mut r),
                alpha,
                beta,
            };
            let v_small = blind_value(&small, &f).magnitude().bit_len();
            let v_large = blind_value(&large, &f).magnitude().bit_len();
            // The bit lengths differ by ≈ 40 — the magnitude leaks.
            assert!(v_large >= v_small + 30, "{v_small} vs {v_large}");
        }
    }

    #[test]
    fn log_uniform_sampler_overlaps_magnitudes() {
        // With the log-uniform sampler the |V| bit-length distributions
        // for |I| = 2 and |I| = 2^40 overlap substantially: the STP
        // cannot reliably order two entries by |I|.
        let mut r = rng();
        let blinder = Blinder::new(256);
        let small = Ibig::from(2i64);
        let large = Ibig::from(1i64 << 40);
        let runs = 300;
        let mut small_wins = 0;
        for _ in 0..runs {
            let fa = blinder.sample(&mut r);
            let fb = blinder.sample(&mut r);
            let v_small = blind_value(&small, &fa).magnitude().bit_len();
            let v_large = blind_value(&large, &fb).magnitude().bit_len();
            if v_small > v_large {
                small_wins += 1;
            }
        }
        // A perfect distinguisher would give 0; ours should be well
        // away from 0 (the exponent smear spans 128 bits vs the 38-bit
        // value gap, so ~(128−38)/128 ≈ 0.35 of mass inverts order).
        assert!(
            small_wins > runs / 8,
            "only {small_wins}/{runs} inversions — magnitudes still leak"
        );
    }

    #[test]
    fn zero_indicator_hides_among_small_values() {
        // I = 0 gives V = −β; its magnitude must look like any other
        // same-octave value, not like a special tiny number.
        let mut r = rng();
        let blinder = Blinder::new(128);
        for _ in 0..50 {
            let f = blinder.sample(&mut r);
            let v0 = blind_value(&Ibig::zero(), &f);
            // β lives in [2^(e−1), 2^e) with e ≥ 64: never small.
            assert!(v0.magnitude().bit_len() >= 60);
        }
    }
}
