//! The Paillier cryptosystem (Paillier, EUROCRYPT'99) with the
//! homomorphic operations used by PISA (paper Figure 2).
//!
//! * encryption `E(m, r) = gᵐ · rⁿ mod n²` with the standard `g = n + 1`
//!   optimization (`gᵐ = 1 + mn mod n²`, no exponentiation needed);
//! * decryption `m = L(c^λ mod n²) · μ mod n`, plus a CRT-accelerated
//!   variant that works modulo `p²` and `q²` separately;
//! * homomorphic addition ⊕, subtraction ⊖ and scalar multiplication ⊗
//!   over ciphertexts;
//! * re-randomization `c · rⁿ mod n²` — the trick the paper uses to
//!   refresh a cached request matrix in ~1/20 of full encryption time.
//!
//! Plaintexts are signed `Ibig` values encoded by centered lift: the
//! decoded message `m` satisfies `-n/2 < m <= n/2`, which is what lets the
//! STP read the *sign* of a blinded interference entry.

mod keys;
mod ops;
mod pool;

pub use keys::{PaillierKeyPair, PaillierPublicKey, PaillierSecretKey, MIN_KEY_BITS};
pub use ops::{Ciphertext, Nonce, Randomizer, RandomizerDraw};
pub use pool::{PoolStats, RandomizerPool, RefillHandle};

#[cfg(test)]
mod tests {
    use super::*;
    use pisa_bigint::{Ibig, Ubig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0x5eed)
    }

    fn small_keys() -> PaillierKeyPair {
        PaillierKeyPair::generate(&mut rng(), 256)
    }

    #[test]
    fn encrypt_decrypt_roundtrip() {
        let kp = small_keys();
        let mut r = rng();
        for m in [-1_000_000i64, -1, 0, 1, 7, 1 << 60] {
            let m = Ibig::from(m);
            let c = kp.public().encrypt(&m, &mut r);
            assert_eq!(kp.secret().decrypt(&c), m, "m = {m}");
        }
    }

    #[test]
    fn ciphertexts_are_randomized() {
        let kp = small_keys();
        let mut r = rng();
        let m = Ibig::from(5i64);
        let c1 = kp.public().encrypt(&m, &mut r);
        let c2 = kp.public().encrypt(&m, &mut r);
        assert_ne!(c1, c2, "two encryptions of the same value must differ");
        assert_eq!(kp.secret().decrypt(&c1), kp.secret().decrypt(&c2));
    }

    #[test]
    fn homomorphic_add_sub() {
        let kp = small_keys();
        let mut r = rng();
        let pk = kp.public();
        let cases = [(3i64, 4i64), (-3, 4), (3, -4), (-3, -4), (0, 0)];
        for (a, b) in cases {
            let ca = pk.encrypt(&Ibig::from(a), &mut r);
            let cb = pk.encrypt(&Ibig::from(b), &mut r);
            assert_eq!(kp.secret().decrypt(&pk.add(&ca, &cb)), Ibig::from(a + b));
            assert_eq!(
                kp.secret().decrypt(&pk.sub(&ca, &cb).unwrap()),
                Ibig::from(a - b)
            );
        }
    }

    #[test]
    fn homomorphic_scalar_mul() {
        let kp = small_keys();
        let mut r = rng();
        let pk = kp.public();
        for (m, k) in [(5i64, 3i64), (5, -3), (-5, 3), (-5, -3), (7, 0), (0, 9)] {
            let c = pk.encrypt(&Ibig::from(m), &mut r);
            let ck = pk.scalar_mul(&c, &Ibig::from(k)).unwrap();
            assert_eq!(kp.secret().decrypt(&ck), Ibig::from(m * k), "{m} * {k}");
        }
    }

    #[test]
    fn rerandomize_preserves_plaintext_changes_ciphertext() {
        let kp = small_keys();
        let mut r = rng();
        let c = kp.public().encrypt(&Ibig::from(123i64), &mut r);
        let c2 = kp.public().rerandomize(&c, &mut r);
        assert_ne!(c, c2);
        assert_eq!(kp.secret().decrypt(&c2), Ibig::from(123i64));
    }

    #[test]
    fn crt_decrypt_matches_standard() {
        let kp = small_keys();
        let mut r = rng();
        for m in [-99i64, 0, 42, 1 << 40] {
            let c = kp.public().encrypt(&Ibig::from(m), &mut r);
            assert_eq!(
                kp.secret().decrypt(&c),
                kp.secret().decrypt_standard(&c),
                "m = {m}"
            );
        }
    }

    #[test]
    fn negative_encoding_centered_lift() {
        let kp = small_keys();
        let mut r = rng();
        // A value near -n/2 still decodes correctly.
        let n = kp.public().modulus().clone();
        let near_half = Ibig::from((&n >> 1) - Ubig::from(3u64));
        let c = kp.public().encrypt(&near_half, &mut r);
        assert_eq!(kp.secret().decrypt(&c), near_half);
        let neg = -near_half.clone() + Ibig::from(1i64);
        let c = kp.public().encrypt(&neg, &mut r);
        assert_eq!(kp.secret().decrypt(&c), neg);
    }

    #[test]
    fn zero_sum_of_inverses() {
        // enc(x) ⊖ enc(x) decrypts to 0 — the license-release identity.
        let kp = small_keys();
        let mut r = rng();
        let c = kp.public().encrypt(&Ibig::from(777i64), &mut r);
        let diff = kp.public().sub(&c, &c).unwrap();
        assert_eq!(kp.secret().decrypt(&diff), Ibig::zero());
    }

    /// At 384 bits, the key width of the loopback workload (n² of 12
    /// limbs and p², q² of 6, all on the narrow Montgomery kernel), the
    /// plaintext extremes survive encryption, CRT and standard
    /// decryption, re-randomization and ⊕.
    #[test]
    fn narrow_protocol_key_round_trips_the_extremes() {
        let mut r = rng();
        let kp = PaillierKeyPair::generate(&mut r, 384);
        let (pk, sk) = (kp.public(), kp.secret());
        assert_eq!(pk.modulus_squared().as_limbs().len(), 12);
        let one = Ibig::from(1i64);
        let half = Ibig::from(pk.modulus() >> 1);
        for m in [
            Ibig::zero(),
            one.clone(),
            -one.clone(),
            half.clone(),
            -half.clone(),
        ] {
            let c = pk.encrypt(&m, &mut r);
            assert_eq!(sk.decrypt(&c), m, "m = {m:?}");
            assert_eq!(sk.decrypt_standard(&c), m, "m = {m:?}");
            assert_eq!(sk.decrypt(&pk.rerandomize(&c, &mut r)), m, "m = {m:?}");
        }
        let sum = pk.add(&pk.encrypt(&half, &mut r), &pk.encrypt(&-one, &mut r));
        assert_eq!(sk.decrypt(&sum), half - Ibig::from(1i64));
    }

    /// The batched entry points equal their single calls entry by entry,
    /// at sizes below, at and above one lane group, with the extremes of
    /// the plaintext range and the edge ciphertexts 1 and n² − 1.
    #[test]
    fn batched_entry_points_equal_the_single_calls() {
        let mut r = rng();
        let kp = PaillierKeyPair::generate(&mut r, 384);
        let (pk, sk) = (kp.public(), kp.secret());
        let half = Ibig::from(pk.modulus() >> 1);
        for size in [1usize, 3, 8, 9] {
            let plain: Vec<Ibig> = (0..size as i64)
                .map(|i| match i {
                    0 => half.clone(),
                    1 => -half.clone(),
                    _ => Ibig::from(i * 1_000_003 - 7),
                })
                .collect();
            let entries: Vec<(Ibig, Nonce)> = plain
                .iter()
                .map(|m| (m.clone(), pk.draw_nonce(&mut r)))
                .collect();
            let batch = pk.encrypt_with_nonces(&entries);
            let single: Vec<Ciphertext> = entries
                .iter()
                .map(|(m, nonce)| pk.encrypt_with_nonce(m, nonce))
                .collect();
            assert_eq!(batch, single, "encrypt, {size}");
            assert_eq!(sk.decrypt_many(&batch), plain, "decrypt, {size}");

            let mut edges = batch.clone();
            edges[0] = Ciphertext::from_raw(Ubig::one());
            edges[size - 1] = Ciphertext::from_raw(pk.modulus_squared() - &Ubig::one());
            let single: Vec<Ibig> = edges.iter().map(|c| sk.decrypt(c)).collect();
            assert_eq!(sk.decrypt_many(&edges), single, "decrypt edges, {size}");

            let draws: Vec<RandomizerDraw> =
                (0..size).map(|_| pk.draw_randomizer(&mut r)).collect();
            let single: Vec<Randomizer> = draws.iter().map(|d| pk.raise_randomizer(d)).collect();
            assert_eq!(pk.raise_randomizers(&draws), single, "randomizers, {size}");

            // A non-unit entry fails on its own under a negative k.
            edges[size / 2] = Ciphertext::from_raw(pk.modulus().clone());
            for k in [-3i64, -1, 0, 1, 7] {
                let k = Ibig::from(k);
                let single: Vec<_> = edges.iter().map(|c| pk.scalar_mul(c, &k)).collect();
                assert_eq!(
                    pk.scalar_mul_many(&edges, &k),
                    single,
                    "scale by {k:?}, {size}"
                );
            }
        }
    }

    #[test]
    fn different_key_sizes() {
        let mut r = rng();
        for bits in [256usize, 384, 512] {
            let kp = PaillierKeyPair::generate(&mut r, bits);
            assert_eq!(kp.public().modulus().bit_len(), bits);
            let c = kp.public().encrypt(&Ibig::from(31337i64), &mut r);
            assert_eq!(kp.secret().decrypt(&c), Ibig::from(31337i64));
        }
    }
}
