//! Transmission permission licenses.
//!
//! §IV-B step (2): "the license includes the identity of SU j, the
//! identity of the license issuer, and S̃ⱼ, the ciphertext of SU j's
//! operation parameters". The SDC signs the license with RSA; PISA then
//! releases the *signature* through the homomorphic gate of eq. (17), so
//! the SU obtains a verifiable license only when granted.

use crate::keys::SuId;
use pisa_crypto::rsa::{RsaKeyPair, RsaPublicKey, Signature};
use pisa_crypto::sha256::{sha256, Sha256};

/// An (unsigned) transmission permission license.
///
/// The SU's encrypted operation parameters are bound by digest rather
/// than embedded verbatim — a 29 MB request matrix inside every license
/// would defeat the 4.1 kb response size of Figure 6, and a SHA-256
/// binding is equally tamper-evident.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct License {
    /// The requesting SU.
    pub su_id: SuId,
    /// The issuer (the SDC server's name).
    pub issuer: String,
    /// SHA-256 over the SU's submitted encrypted operation parameters
    /// (the request ciphertexts, in order).
    pub request_digest: [u8; 32],
    /// Issuer-assigned serial number (monotone per SDC).
    pub serial: u64,
}

impl License {
    /// Digest of a request's ciphertexts, binding the license to the
    /// exact encrypted operation parameters submitted.
    pub fn digest_request(ciphertexts: &[pisa_crypto::paillier::Ciphertext]) -> [u8; 32] {
        let mut h = Sha256::new();
        for ct in ciphertexts {
            let bytes = ct.as_raw().to_be_bytes();
            h.update(&(bytes.len() as u64).to_be_bytes());
            h.update(&bytes);
        }
        h.finalize()
    }

    /// Canonical byte encoding — what the RSA signature covers.
    pub fn canonical_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64 + self.issuer.len());
        out.extend_from_slice(b"PISA-LICENSE-v1\0");
        out.extend_from_slice(&self.su_id.0.to_be_bytes());
        out.extend_from_slice(&(self.issuer.len() as u64).to_be_bytes());
        out.extend_from_slice(self.issuer.as_bytes());
        out.extend_from_slice(&self.request_digest);
        out.extend_from_slice(&self.serial.to_be_bytes());
        out
    }

    /// Signs the license.
    pub fn sign(&self, key: &RsaKeyPair) -> Signature {
        key.sign(&self.canonical_bytes())
    }

    /// Verifies a signature over this license.
    ///
    /// # Errors
    ///
    /// Returns [`pisa_crypto::CryptoError::InvalidSignature`] on
    /// mismatch.
    pub fn verify(
        &self,
        pk: &RsaPublicKey,
        sig: &Signature,
    ) -> Result<(), pisa_crypto::CryptoError> {
        pk.verify(&self.canonical_bytes(), sig)
    }

    /// A short fingerprint for logs.
    pub fn fingerprint(&self) -> String {
        let d = sha256(&self.canonical_bytes());
        d.iter().take(4).map(|b| format!("{b:02x}")).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn license() -> License {
        License {
            su_id: SuId(7),
            issuer: "sdc.example".to_owned(),
            request_digest: [0xab; 32],
            serial: 42,
        }
    }

    #[test]
    fn sign_verify_roundtrip() {
        let mut rng = StdRng::seed_from_u64(1);
        let key = RsaKeyPair::generate(&mut rng, 256);
        let lic = license();
        let sig = lic.sign(&key);
        assert!(lic.verify(key.public(), &sig).is_ok());
    }

    #[test]
    fn tampered_license_fails() {
        let mut rng = StdRng::seed_from_u64(2);
        let key = RsaKeyPair::generate(&mut rng, 256);
        let lic = license();
        let sig = lic.sign(&key);
        let mut other = lic.clone();
        other.su_id = SuId(8);
        assert!(other.verify(key.public(), &sig).is_err());
        let mut other = lic.clone();
        other.serial += 1;
        assert!(other.verify(key.public(), &sig).is_err());
    }

    #[test]
    fn canonical_bytes_distinguish_fields() {
        let a = license();
        let mut b = a.clone();
        b.issuer = "sdc.other".to_owned();
        assert_ne!(a.canonical_bytes(), b.canonical_bytes());
        assert_ne!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn request_digest_changes_with_content() {
        use pisa_bigint::Ubig;
        use pisa_crypto::paillier::Ciphertext;
        let c1 = [Ciphertext::from_raw(Ubig::from(5u64))];
        let c2 = [Ciphertext::from_raw(Ubig::from(6u64))];
        assert_ne!(License::digest_request(&c1), License::digest_request(&c2));
    }
}
