//! RSA full-domain-hash signatures for transmission permission licenses.
//!
//! The paper (§IV-B step 2) signs each license with "a typical digital
//! signature algorithm (e.g., RSA, DSA)" and then embeds the signature as
//! a Paillier plaintext in equation (17). That embedding requires the
//! signature integer to fit the SU's Paillier message space, so
//! [`RsaKeyPair::generate_below`] can cap the RSA modulus strictly below a
//! given bound (see DESIGN.md, "License signature domain").
//!
//! The scheme is deterministic RSA-FDH: the message is hashed and
//! expanded to the modulus width with an MGF1-style counter construction
//! over SHA-256, then exponentiated with the private key.
//!
//! # Examples
//!
//! ```
//! use pisa_crypto::rsa::RsaKeyPair;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(2);
//! let keys = RsaKeyPair::generate(&mut rng, 256);
//! let sig = keys.sign(b"license body");
//! assert!(keys.public().verify(b"license body", &sig).is_ok());
//! assert!(keys.public().verify(b"tampered", &sig).is_err());
//! ```

use crate::sha256::{sha256, Sha256};
use crate::CryptoError;
use pisa_bigint::modular::{lcm, MontCtx};
use pisa_bigint::zeroize::Zeroize;
use pisa_bigint::{prime, Ubig};
use rand::Rng;

/// Public RSA exponent (F4).
pub const PUBLIC_EXPONENT: u64 = 65537;

/// An RSA public key `(n, e)`.
#[derive(Debug, Clone)]
pub struct RsaPublicKey {
    n: Ubig,
    e: Ubig,
    ctx: MontCtx,
}

impl PartialEq for RsaPublicKey {
    fn eq(&self, other: &Self) -> bool {
        self.n == other.n && self.e == other.e
    }
}

impl Eq for RsaPublicKey {}

impl RsaPublicKey {
    /// Reconstructs a public key from the modulus (exponent is fixed to
    /// [`PUBLIC_EXPONENT`]).
    ///
    /// # Panics
    ///
    /// Panics if `n` is even.
    pub fn from_modulus(n: Ubig) -> Self {
        // pisa-lint: allow(panic-freedom): documented panic; an even modulus
        // means corrupted key material, not attacker-reachable input.
        let ctx = MontCtx::new(&n).expect("odd RSA modulus");
        RsaPublicKey {
            n,
            e: Ubig::from(PUBLIC_EXPONENT),
            ctx,
        }
    }

    /// The modulus.
    pub fn modulus(&self) -> &Ubig {
        &self.n
    }

    /// Verifies `signature` over `message`.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::InvalidSignature`] when the signature does
    /// not match.
    pub fn verify(&self, message: &[u8], signature: &Signature) -> Result<(), CryptoError> {
        if signature.0 >= self.n {
            return Err(CryptoError::InvalidSignature);
        }
        obs_count!(ModExp);
        let recovered = self.ctx.pow(&signature.0, &self.e);
        if recovered == full_domain_hash(message, &self.n) {
            Ok(())
        } else {
            Err(CryptoError::InvalidSignature)
        }
    }
}

/// An RSA signature, exposed as an integer so PISA can embed it in a
/// Paillier plaintext (equation 17).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Signature(pub Ubig);

impl Signature {
    /// The signature as an integer.
    pub fn as_integer(&self) -> &Ubig {
        &self.0
    }
}

/// Exported RSA key material (modulus and private exponent).
///
/// Treat as a secret: persisting this persists the signing key, which is
/// why it is only produced by the explicitly named
/// [`RsaKeyPair::export_secret_parts`] and never implements `Serialize`.
/// The private exponent is wiped on drop.
#[doc(alias = "pisa_secret")]
#[derive(Clone)]
pub struct RsaKeyParts {
    /// The modulus `n`.
    pub n: Ubig,
    /// The private exponent `d`.
    pub d: Ubig,
}

impl std::fmt::Debug for RsaKeyParts {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print the private exponent.
        write!(
            f,
            "RsaKeyParts(n: {} bits, d: <redacted>)",
            self.n.bit_len()
        )
    }
}

impl Drop for RsaKeyParts {
    fn drop(&mut self) {
        self.d.zeroize();
    }
}

/// An RSA key pair. The private exponent is wiped on drop.
#[doc(alias = "pisa_secret")]
#[derive(Clone)]
pub struct RsaKeyPair {
    pk: RsaPublicKey,
    d: Ubig,
}

impl std::fmt::Debug for RsaKeyPair {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "RsaKeyPair(n: {} bits, d: <redacted>)",
            self.pk.n.bit_len()
        )
    }
}

impl Drop for RsaKeyPair {
    fn drop(&mut self) {
        self.d.zeroize();
    }
}

impl RsaKeyPair {
    /// Generates a key pair with a modulus of exactly `bits` bits.
    ///
    /// # Panics
    ///
    /// Panics if `bits < 64` or `bits` is odd.
    pub fn generate<R: Rng + ?Sized>(rng: &mut R, bits: usize) -> Self {
        assert!(
            bits >= 64 && bits.is_multiple_of(2),
            "unsupported RSA size {bits}"
        );
        let e = Ubig::from(PUBLIC_EXPONENT);
        loop {
            let p = prime::gen_prime(rng, bits / 2);
            let q = prime::gen_prime(rng, bits / 2);
            if p == q {
                continue;
            }
            let n = &p * &q;
            if n.bit_len() != bits {
                continue;
            }
            let lam = lcm(&(&p - &Ubig::one()), &(&q - &Ubig::one()));
            let Some(d) = crate::invert(&e, &lam) else {
                continue;
            };
            let pk = RsaPublicKey::from_modulus(n);
            return RsaKeyPair { pk, d };
        }
    }

    /// Generates a key pair whose modulus is strictly below `bound`
    /// (bit length `bound.bit_len() - slack_bits`), so signatures embed
    /// into a Paillier plaintext space of modulus `bound`.
    ///
    /// # Panics
    ///
    /// Panics if the resulting size would drop below 64 bits.
    pub fn generate_below<R: Rng + ?Sized>(rng: &mut R, bound: &Ubig, slack_bits: usize) -> Self {
        let mut bits = bound.bit_len().saturating_sub(slack_bits);
        if bits % 2 == 1 {
            bits -= 1;
        }
        assert!(bits >= 64, "bound too small for an embedded RSA key");
        let kp = Self::generate(rng, bits);
        debug_assert!(kp.pk.modulus() < bound);
        kp
    }

    /// The public key.
    pub fn public(&self) -> &RsaPublicKey {
        &self.pk
    }

    /// Exports the key material — **including the private exponent** —
    /// for persistence. The name is deliberately loud: callers that
    /// reach for this are writing a signing key somewhere.
    pub fn export_secret_parts(&self) -> RsaKeyParts {
        RsaKeyParts {
            n: self.pk.n.clone(),
            d: self.d.clone(),
        }
    }

    /// Reconstructs a key pair from exported parts.
    ///
    /// # Panics
    ///
    /// Panics if the modulus is even (not a valid RSA modulus).
    pub fn from_parts(mut parts: RsaKeyParts) -> Self {
        // `RsaKeyParts` has a wiping `Drop`, so move the fields out with
        // `take` (the leftover zeros are wiped again, harmlessly).
        let n = std::mem::take(&mut parts.n);
        let d = std::mem::take(&mut parts.d);
        RsaKeyPair {
            pk: RsaPublicKey::from_modulus(n),
            d,
        }
    }

    /// Signs `message` (deterministic RSA-FDH).
    pub fn sign(&self, message: &[u8]) -> Signature {
        let h = full_domain_hash(message, &self.pk.n);
        obs_count!(ModExp);
        Signature(self.pk.ctx.pow(&h, &self.d))
    }
}

/// MGF1-style full-domain hash: expands SHA-256(message) to the width of
/// `n` and reduces the result below `n`.
fn full_domain_hash(message: &[u8], n: &Ubig) -> Ubig {
    let seed = sha256(message);
    let out_len = n.bit_len().div_ceil(8);
    let mut out = Vec::with_capacity(out_len + 32);
    let mut counter = 0u32;
    while out.len() < out_len {
        let mut h = Sha256::new();
        h.update(&seed);
        h.update(&counter.to_be_bytes());
        out.extend_from_slice(&h.finalize());
        counter += 1;
    }
    out.truncate(out_len);
    // Clear the top byte so the value is comfortably below n.
    if let Some(top) = out.first_mut() {
        *top = 0;
    }
    Ubig::from_be_bytes(&out) % n
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0xc0ffee)
    }

    #[test]
    fn sign_verify_roundtrip() {
        let kp = RsaKeyPair::generate(&mut rng(), 256);
        for msg in [b"".as_slice(), b"a", b"license: SU 7, block 31"] {
            let sig = kp.sign(msg);
            assert!(kp.public().verify(msg, &sig).is_ok());
        }
    }

    #[test]
    fn verify_rejects_wrong_message() {
        let kp = RsaKeyPair::generate(&mut rng(), 256);
        let sig = kp.sign(b"original");
        assert_eq!(
            kp.public().verify(b"other", &sig),
            Err(CryptoError::InvalidSignature)
        );
    }

    #[test]
    fn verify_rejects_perturbed_signature() {
        let kp = RsaKeyPair::generate(&mut rng(), 256);
        let sig = kp.sign(b"msg");
        let bad = Signature(sig.0.clone() + Ubig::one());
        assert!(kp.public().verify(b"msg", &bad).is_err());
        let oversized = Signature(kp.public().modulus().clone());
        assert!(kp.public().verify(b"msg", &oversized).is_err());
    }

    #[test]
    fn signing_is_deterministic() {
        let kp = RsaKeyPair::generate(&mut rng(), 256);
        assert_eq!(kp.sign(b"msg"), kp.sign(b"msg"));
    }

    #[test]
    fn export_import_roundtrip() {
        let kp = RsaKeyPair::generate(&mut rng(), 256);
        let sig = kp.sign(b"persisted");
        let restored = RsaKeyPair::from_parts(kp.export_secret_parts());
        assert_eq!(restored.sign(b"persisted"), sig);
        assert!(restored.public().verify(b"persisted", &sig).is_ok());
        // Debug never leaks d, for the parts or the pair itself.
        let dbg = format!("{:?}", kp.export_secret_parts());
        assert!(dbg.contains("redacted"));
        assert!(format!("{kp:?}").contains("redacted"));
        // The wiping Drop is real, not optimized away by the type system.
        assert!(std::mem::needs_drop::<RsaKeyPair>());
        assert!(std::mem::needs_drop::<RsaKeyParts>());
    }

    #[test]
    fn generate_below_respects_bound() {
        let mut r = rng();
        let bound = Ubig::one() << 300;
        let kp = RsaKeyPair::generate_below(&mut r, &bound, 64);
        assert!(kp.public().modulus() < &bound);
        assert!(kp.public().modulus().bit_len() <= 300 - 64);
        let sig = kp.sign(b"embedded");
        assert!(sig.as_integer() < &bound);
        assert!(kp.public().verify(b"embedded", &sig).is_ok());
    }

    #[test]
    fn fdh_is_below_modulus_and_spreads() {
        let n = (Ubig::one() << 255) - Ubig::one();
        let h1 = full_domain_hash(b"a", &n);
        let h2 = full_domain_hash(b"b", &n);
        assert!(h1 < n && h2 < n);
        assert_ne!(h1, h2);
        // Full-width expansion: the hash should use high bytes too.
        assert!(h1.bit_len() > 128);
    }
}
