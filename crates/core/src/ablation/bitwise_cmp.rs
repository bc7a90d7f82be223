//! DGK-style bitwise secure comparison over Paillier — the baseline
//! PISA's blinded sign test replaces.
//!
//! The protocol compares a *bitwise-encrypted* private value `a` against
//! a public value `b` (the core subroutine of \[13\], \[12\], \[18\]): the
//! client encrypts each bit of `a` separately (ℓ ciphertexts instead of
//! one!), the server homomorphically forms
//!
//! ```text
//! c_i = a_i − b_i + 1 + 3·Σ_{j>i} (a_j ⊕ b_j)
//! ```
//!
//! multiplicatively blinds and shuffles the `c_i`, and a helper holding
//! the key decrypts them: `a < b` ⟺ some `c_i = 0`. One comparison thus
//! costs ℓ encryptions client-side, `O(ℓ²)` homomorphic operations
//! server-side (prefix sums), ℓ decryptions helper-side — versus **one**
//! encryption, a handful of homomorphic operations and one decryption
//! for PISA's eq. (14) sign test. The `table2` binary of `pisa-bench`
//! measures both.

use pisa_bigint::random::random_range;
use pisa_bigint::{Ibig, Ubig};
use pisa_crypto::paillier::{Ciphertext, PaillierPublicKey, PaillierSecretKey};
use rand::Rng;

/// Operation counters for one comparison (the cost model the paper
/// argues about).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BitwiseCost {
    /// Client-side encryptions (one per bit).
    pub encryptions: usize,
    /// Server-side homomorphic additions/subtractions.
    pub homomorphic_ops: usize,
    /// Server-side scalar multiplications (blinding).
    pub scalar_muls: usize,
    /// Helper-side decryptions.
    pub decryptions: usize,
}

/// A bitwise secure comparison instance over `ell`-bit values.
#[derive(Debug, Clone, Copy)]
pub struct BitwiseComparison {
    ell: usize,
}

impl BitwiseComparison {
    /// A comparison over `ell`-bit non-negative integers.
    ///
    /// # Panics
    ///
    /// Panics if `ell` is 0 or above 120 (the plaintext baseline range).
    pub fn new(ell: usize) -> Self {
        assert!(ell > 0 && ell <= 120, "unsupported bit width {ell}");
        BitwiseComparison { ell }
    }

    /// The paper's 60-bit integer representation.
    pub fn paper_width() -> Self {
        BitwiseComparison::new(60)
    }

    /// Client step: encrypts `a` bit by bit (most significant first).
    ///
    /// # Panics
    ///
    /// Panics if `a` does not fit in ℓ bits.
    pub fn encrypt_bits<R: Rng + ?Sized>(
        &self,
        a: u128,
        pk: &PaillierPublicKey,
        rng: &mut R,
        cost: &mut BitwiseCost,
    ) -> Vec<Ciphertext> {
        assert!(a < (1u128 << self.ell), "value exceeds {} bits", self.ell);
        (0..self.ell)
            .rev()
            .map(|i| {
                cost.encryptions += 1;
                let bit = (a >> i) & 1;
                pk.encrypt(&Ibig::from(bit as i64), rng)
            })
            .collect()
    }

    /// Server step: given encrypted bits of `a` (MSB first) and the
    /// public `b`, produces the blinded, shuffled `c_i` ciphertexts.
    pub fn server_compare<R: Rng + ?Sized>(
        &self,
        a_bits: &[Ciphertext],
        b: u128,
        pk: &PaillierPublicKey,
        rng: &mut R,
        cost: &mut BitwiseCost,
    ) -> Vec<Ciphertext> {
        assert_eq!(a_bits.len(), self.ell, "bit-count mismatch");
        let one = pk.encrypt_public_constant(&Ibig::from(1i64));

        // xor_j = a_j ⊕ b_j homomorphically: b_j = 0 ⇒ a_j; b_j = 1 ⇒ 1 − a_j.
        let xors: Vec<Ciphertext> = a_bits
            .iter()
            .enumerate()
            .map(|(idx, a_ct)| {
                let shift = self.ell - 1 - idx; // MSB first
                let b_bit = (b >> shift) & 1;
                if b_bit == 0 {
                    a_ct.clone()
                } else {
                    cost.homomorphic_ops += 1;
                    pk.sub(&one, a_ct).expect("freshly encrypted bit is a unit")
                }
            })
            .collect();

        // Running prefix sum Σ_{j>i} xor_j (walk from MSB down).
        let mut prefix = pk.trivial_zero();
        let mut out = Vec::with_capacity(self.ell);
        for (idx, a_ct) in a_bits.iter().enumerate() {
            let shift = self.ell - 1 - idx;
            let b_bit = ((b >> shift) & 1) as i64;
            // c = a_i − b_i + 1 + 3·prefix
            let tripled = pk
                .scalar_mul(&prefix, &Ibig::from(3i64))
                .expect("positive scalar cannot fail");
            cost.scalar_muls += 1;
            let constant = pk.encrypt_public_constant(&Ibig::from(1 - b_bit));
            let mut c = pk.add(a_ct, &constant);
            c = pk.add(&c, &tripled);
            cost.homomorphic_ops += 2;

            // Multiplicative blinding by a random r ∈ [1, 2^32).
            let r = random_range(rng, &Ubig::one(), &(Ubig::one() << 32));
            let blinded = pk
                .scalar_mul(&c, &Ibig::from(r))
                .expect("positive scalar cannot fail");
            cost.scalar_muls += 1;
            out.push(blinded);

            // Extend the prefix with this position's xor.
            prefix = pk.add(&prefix, &xors[idx]);
            cost.homomorphic_ops += 1;
        }

        // Shuffle so the helper cannot tell which position matched.
        for i in (1..out.len()).rev() {
            let j = (rng.next_u64() as usize) % (i + 1);
            out.swap(i, j);
        }
        out
    }

    /// Helper step: decrypts the blinded `c_i`; `a < b` ⟺ some
    /// plaintext is zero.
    pub fn helper_decide(
        &self,
        blinded: &[Ciphertext],
        sk: &PaillierSecretKey,
        cost: &mut BitwiseCost,
    ) -> bool {
        // Decrypt every entry (no short-circuit): the helper cannot know
        // in advance which — if any — position is the match.
        let mut found = false;
        for ct in blinded {
            cost.decryptions += 1;
            found |= sk.decrypt(ct).is_zero();
        }
        found
    }

    /// Runs the whole protocol: returns `(a < b, cost)`.
    pub fn compare<R: Rng + ?Sized>(
        &self,
        a: u128,
        b: u128,
        pk: &PaillierPublicKey,
        sk: &PaillierSecretKey,
        rng: &mut R,
    ) -> (bool, BitwiseCost) {
        let mut cost = BitwiseCost::default();
        let bits = self.encrypt_bits(a, pk, rng, &mut cost);
        let blinded = self.server_compare(&bits, b, pk, rng, &mut cost);
        let lt = self.helper_decide(&blinded, sk, &mut cost);
        (lt, cost)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pisa_crypto::paillier::PaillierKeyPair;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    fn keys() -> PaillierKeyPair {
        let mut rng = StdRng::seed_from_u64(0xb17);
        PaillierKeyPair::generate(&mut rng, 256)
    }

    #[test]
    fn exhaustive_small_width() {
        let kp = keys();
        let mut rng = StdRng::seed_from_u64(1);
        let cmp = BitwiseComparison::new(4);
        for a in 0u128..16 {
            for b in 0u128..16 {
                let (lt, _) = cmp.compare(a, b, kp.public(), kp.secret(), &mut rng);
                assert_eq!(lt, a < b, "{a} < {b}");
            }
        }
    }

    #[test]
    fn random_pairs_at_paper_width() {
        let kp = keys();
        let mut rng = StdRng::seed_from_u64(2);
        let cmp = BitwiseComparison::paper_width();
        for i in 0..5u64 {
            let a = (rng.next_u64() as u128) & ((1 << 60) - 1);
            let b = if i % 2 == 0 {
                (rng.next_u64() as u128) & ((1 << 60) - 1)
            } else {
                a // equal case
            };
            let (lt, cost) = cmp.compare(a, b, kp.public(), kp.secret(), &mut rng);
            assert_eq!(lt, a < b, "{a} < {b}");
            assert_eq!(cost.encryptions, 60);
            assert_eq!(cost.decryptions, 60);
        }
    }

    #[test]
    fn cost_scales_linearly_in_bits() {
        let kp = keys();
        let mut rng = StdRng::seed_from_u64(3);
        let (_, cost8) =
            BitwiseComparison::new(8).compare(5, 9, kp.public(), kp.secret(), &mut rng);
        let (_, cost16) =
            BitwiseComparison::new(16).compare(5, 9, kp.public(), kp.secret(), &mut rng);
        assert_eq!(cost16.encryptions, 2 * cost8.encryptions);
        assert!(cost16.homomorphic_ops >= 2 * cost8.homomorphic_ops - 2);
    }

    #[test]
    #[should_panic(expected = "exceeds 4 bits")]
    fn oversized_value_panics() {
        let kp = keys();
        let mut rng = StdRng::seed_from_u64(4);
        let mut cost = BitwiseCost::default();
        let _ = BitwiseComparison::new(4).encrypt_bits(16, kp.public(), &mut rng, &mut cost);
    }
}
