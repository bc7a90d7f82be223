//! The ciphertext type.

use pisa_bigint::zeroize::Zeroize;
use pisa_bigint::Ubig;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A Paillier ciphertext: an element of `Z_{n²}*`.
///
/// Ciphertexts are plain data — all homomorphic operations live on
/// [`PaillierPublicKey`](super::PaillierPublicKey), which holds the
/// modulus and the precomputed Montgomery context. This keeps ciphertexts
/// cheap to serialize and ship between the PISA parties.
#[derive(Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Ciphertext(Ubig);

impl Ciphertext {
    /// Wraps a raw residue (assumed already reduced modulo `n²`).
    pub fn from_raw(v: Ubig) -> Self {
        Ciphertext(v)
    }

    /// The raw residue.
    pub fn as_raw(&self) -> &Ubig {
        &self.0
    }

    /// Serialized size in bytes when padded to the full `n²` width.
    pub fn byte_len(&self, n_squared_bits: usize) -> usize {
        n_squared_bits.div_ceil(8)
    }
}

impl fmt::Debug for Ciphertext {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Never print full ciphertexts (multi-kilobit); show a short tag.
        let bytes = self.0.to_be_bytes();
        let tag: String = bytes.iter().take(4).map(|b| format!("{b:02x}")).collect();
        write!(f, "Ciphertext({tag}…, {} bits)", self.0.bit_len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn debug_is_short_and_nonempty() {
        let c = Ciphertext::from_raw(Ubig::from(0xdeadbeefu64) << 512);
        let s = format!("{c:?}");
        assert!(s.starts_with("Ciphertext("));
        assert!(s.len() < 40);
    }

    #[test]
    fn byte_len_rounds_up() {
        let c = Ciphertext::from_raw(Ubig::one());
        assert_eq!(c.byte_len(4096), 512);
        assert_eq!(c.byte_len(4097), 513);
    }
}

/// A precomputed re-randomization factor `rⁿ mod n²`.
///
/// Produced offline by
/// [`PaillierPublicKey::precompute_randomizer`](super::PaillierPublicKey::precompute_randomizer)
/// and consumed (once!) by
/// [`PaillierPublicKey::rerandomize_precomputed`](super::PaillierPublicKey::rerandomize_precomputed).
#[derive(Clone, PartialEq, Eq)]
pub struct Randomizer(pub(crate) Ubig);

impl std::fmt::Debug for Randomizer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Randomizer({} bits)", self.0.bit_len())
    }
}

impl pisa_bigint::zeroize::Zeroize for Randomizer {
    /// An unconsumed factor links any ciphertext later refreshed with it
    /// to the refresh event, so pooled factors are wiped when dropped.
    fn zeroize(&mut self) {
        self.0.zeroize();
    }
}

/// The randomness of one [`encrypt`](super::PaillierPublicKey::encrypt):
/// a unit `r ∈ Z_n*` drawn but not yet raised to `rⁿ`.
///
/// Drawn by [`draw_nonce`](super::PaillierPublicKey::draw_nonce) and
/// consumed by
/// [`encrypt_with_nonce`](super::PaillierPublicKey::encrypt_with_nonce):
/// drawing every entry's nonce in order from one RNG and encrypting
/// afterwards, on any thread, yields the bytes of a sequential
/// `encrypt` loop. Anyone holding `r` can strip it from the ciphertext,
/// so it is redacted in `Debug` and wiped on drop.
pub struct Nonce(pub(crate) Ubig);

impl fmt::Debug for Nonce {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Nonce(<redacted>)")
    }
}

impl Drop for Nonce {
    fn drop(&mut self) {
        self.0.zeroize();
    }
}

/// The randomness of one
/// [`precompute_randomizer`](super::PaillierPublicKey::precompute_randomizer)
/// call, drawn but not yet raised: a unit `r`, raised to `rⁿ`.
///
/// Drawn by [`draw_randomizer`](super::PaillierPublicKey::draw_randomizer)
/// and raised by
/// [`raise_randomizer`](super::PaillierPublicKey::raise_randomizer), with
/// the same ordering guarantee as [`Nonce`]. Redacted and wiped on drop.
pub struct RandomizerDraw {
    pub(crate) value: Ubig,
}

impl fmt::Debug for RandomizerDraw {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("RandomizerDraw(<redacted>)")
    }
}

impl Drop for RandomizerDraw {
    fn drop(&mut self) {
        self.value.zeroize();
    }
}
