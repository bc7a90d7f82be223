//! Key material: the global Paillier pair and the per-SU key directory.

use pisa_crypto::paillier::{PaillierKeyPair, PaillierPublicKey, PaillierSecretKey};
use rand::Rng;
use std::collections::HashMap;
use std::fmt;

/// Identifier of a registered secondary user.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct SuId(pub u32);

impl fmt::Display for SuId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SU#{}", self.0)
    }
}

/// The STP's global key pair `(pk_G, sk_G)`.
///
/// `pk_G` is published to every party; `sk_G` never leaves the STP
/// (§III-C: "the STP is trusted for keeping sk_G as a secret only known
/// to itself").
#[derive(Clone)]
pub struct GlobalKeys {
    keys: PaillierKeyPair,
}

impl fmt::Debug for GlobalKeys {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "GlobalKeys {{ pk_G: {} bits, sk_G: <redacted> }}",
            self.keys.public().key_bits()
        )
    }
}

impl GlobalKeys {
    /// Generates the global pair.
    pub fn generate<R: Rng + ?Sized>(rng: &mut R, bits: usize) -> Self {
        GlobalKeys {
            keys: PaillierKeyPair::generate(rng, bits),
        }
    }

    /// The public half `pk_G` (what PUs and SUs encrypt with).
    pub fn public(&self) -> &PaillierPublicKey {
        self.keys.public()
    }

    /// The secret half `sk_G` (STP-internal).
    pub(crate) fn secret(&self) -> &PaillierSecretKey {
        self.keys.secret()
    }
}

/// The public directory of SU Paillier keys held by the STP
/// ("anyone can retrieve pk_G and SU Paillier public keys from the
/// STP").
#[derive(Debug, Clone, Default)]
pub struct SuKeyDirectory {
    keys: HashMap<SuId, PaillierPublicKey>,
}

impl SuKeyDirectory {
    /// An empty directory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers (or replaces) an SU's public key.
    pub fn publish(&mut self, id: SuId, pk: PaillierPublicKey) {
        self.keys.insert(id, pk);
    }

    /// Looks up an SU's public key.
    pub fn lookup(&self, id: SuId) -> Option<&PaillierPublicKey> {
        self.keys.get(&id)
    }

    /// Number of registered SUs.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// `true` when no SU has registered.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Iterates over every registered `(id, key)` pair, in map order
    /// (callers needing a deterministic order must sort the ids).
    pub fn iter(&self) -> impl Iterator<Item = (SuId, &PaillierPublicKey)> {
        self.keys.iter().map(|(id, pk)| (*id, pk))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn directory_roundtrip() {
        let mut rng = StdRng::seed_from_u64(1);
        let kp = PaillierKeyPair::generate(&mut rng, 128);
        let mut dir = SuKeyDirectory::new();
        assert!(dir.is_empty());
        dir.publish(SuId(3), kp.public().clone());
        assert_eq!(dir.len(), 1);
        assert_eq!(dir.lookup(SuId(3)), Some(kp.public()));
        assert_eq!(dir.lookup(SuId(4)), None);
    }

    #[test]
    fn global_keys_expose_public_only() {
        let mut rng = StdRng::seed_from_u64(2);
        let g = GlobalKeys::generate(&mut rng, 128);
        assert_eq!(g.public().key_bits(), 128);
        let dbg = format!("{g:?}");
        assert!(dbg.contains("sk_G: <redacted>"), "{dbg}");
    }

    #[test]
    fn su_id_display() {
        assert_eq!(SuId(7).to_string(), "SU#7");
    }
}
