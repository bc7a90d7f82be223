//! Property-based tests for the Paillier cryptosystem and blinding.

use pisa_bigint::{Ibig, Ubig};
use pisa_crypto::blind::{blind_value, unblind_sign, Blinder};
use pisa_crypto::paillier::PaillierKeyPair;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::OnceLock;

/// One shared small key pair — keygen is the expensive part, and the
/// homomorphic properties are independent of which valid key is used.
fn keys() -> &'static PaillierKeyPair {
    static KEYS: OnceLock<PaillierKeyPair> = OnceLock::new();
    KEYS.get_or_init(|| {
        let mut rng = StdRng::seed_from_u64(0xabcdef);
        PaillierKeyPair::generate(&mut rng, 256)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn enc_dec_roundtrip(m in any::<i64>(), seed in any::<u64>()) {
        let kp = keys();
        let mut rng = StdRng::seed_from_u64(seed);
        let m = Ibig::from(m);
        let c = kp.public().encrypt(&m, &mut rng);
        prop_assert_eq!(kp.secret().decrypt(&c), m);
    }

    #[test]
    fn additive_homomorphism(a in any::<i32>(), b in any::<i32>(), seed in any::<u64>()) {
        let kp = keys();
        let mut rng = StdRng::seed_from_u64(seed);
        let ca = kp.public().encrypt(&Ibig::from(a as i64), &mut rng);
        let cb = kp.public().encrypt(&Ibig::from(b as i64), &mut rng);
        let sum = kp.public().add(&ca, &cb);
        prop_assert_eq!(kp.secret().decrypt(&sum), Ibig::from(a as i64 + b as i64));
    }

    #[test]
    fn subtractive_homomorphism(a in any::<i32>(), b in any::<i32>(), seed in any::<u64>()) {
        let kp = keys();
        let mut rng = StdRng::seed_from_u64(seed);
        let ca = kp.public().encrypt(&Ibig::from(a as i64), &mut rng);
        let cb = kp.public().encrypt(&Ibig::from(b as i64), &mut rng);
        let diff = kp.public().sub(&ca, &cb).unwrap();
        prop_assert_eq!(kp.secret().decrypt(&diff), Ibig::from(a as i64 - b as i64));
    }

    #[test]
    fn scalar_homomorphism(m in -1000i64..1000, k in -1000i64..1000, seed in any::<u64>()) {
        let kp = keys();
        let mut rng = StdRng::seed_from_u64(seed);
        let c = kp.public().encrypt(&Ibig::from(m), &mut rng);
        let ck = kp.public().scalar_mul(&c, &Ibig::from(k)).unwrap();
        prop_assert_eq!(kp.secret().decrypt(&ck), Ibig::from(m * k));
    }

    #[test]
    fn crt_equals_standard_decrypt(m in any::<i64>(), seed in any::<u64>()) {
        let kp = keys();
        let mut rng = StdRng::seed_from_u64(seed);
        let c = kp.public().encrypt(&Ibig::from(m), &mut rng);
        prop_assert_eq!(kp.secret().decrypt(&c), kp.secret().decrypt_standard(&c));
    }

    #[test]
    fn rerandomization_invariant(m in any::<i64>(), seed in any::<u64>()) {
        let kp = keys();
        let mut rng = StdRng::seed_from_u64(seed);
        let c = kp.public().encrypt(&Ibig::from(m), &mut rng);
        let c2 = kp.public().rerandomize(&c, &mut rng);
        prop_assert_ne!(&c, &c2);
        prop_assert_eq!(kp.secret().decrypt(&c2), Ibig::from(m));
    }

    #[test]
    fn blinding_preserves_strict_positivity(i in any::<i64>(), seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let blinder = Blinder::new(64);
        let f = blinder.sample(&mut rng);
        let v = blind_value(&Ibig::from(i), &f);
        let sign = unblind_sign(&v, f.epsilon);
        if i > 0 {
            prop_assert_eq!(sign, pisa_bigint::Sign::Positive);
        } else {
            prop_assert_eq!(sign, pisa_bigint::Sign::Negative);
        }
    }

    #[test]
    fn blinded_value_never_zero(i in any::<i64>(), seed in any::<u64>()) {
        // β > 0 guarantees the STP never sees an exact zero for I = 0.
        let mut rng = StdRng::seed_from_u64(seed);
        let blinder = Blinder::new(64);
        let f = blinder.sample(&mut rng);
        prop_assert!(!blind_value(&Ibig::from(i), &f).is_zero());
    }

    #[test]
    fn homomorphic_linear_combination(
        a in -10_000i64..10_000,
        b in -10_000i64..10_000,
        k in -100i64..100,
        seed in any::<u64>(),
    ) {
        // D(E(a) ⊕ (k ⊗ E(b))) == a + k·b — the exact shape of eq. (14).
        let kp = keys();
        let mut rng = StdRng::seed_from_u64(seed);
        let pk = kp.public();
        let ca = pk.encrypt(&Ibig::from(a), &mut rng);
        let cb = pk.encrypt(&Ibig::from(b), &mut rng);
        let combo = pk.add(&ca, &pk.scalar_mul(&cb, &Ibig::from(k)).unwrap());
        prop_assert_eq!(kp.secret().decrypt(&combo), Ibig::from(a + k * b));
    }

    #[test]
    fn big_random_plaintexts(seed in any::<u64>()) {
        // Plaintexts drawn across the whole centered domain roundtrip.
        let kp = keys();
        let mut rng = StdRng::seed_from_u64(seed);
        let half = kp.public().modulus() >> 1;
        let m = pisa_bigint::random::random_below(&mut rng, &half);
        let m = if seed.is_multiple_of(2) {
            Ibig::from(m)
        } else {
            -Ibig::from(m)
        };
        let c = kp.public().encrypt(&m, &mut rng);
        prop_assert_eq!(kp.secret().decrypt(&c), m);
    }
}

#[test]
fn signature_embeds_in_plaintext_space() {
    // RSA generated below the Paillier modulus always produces signatures
    // that decrypt intact after a Paillier roundtrip — equation (17)'s
    // happy path.
    let mut rng = StdRng::seed_from_u64(5);
    let kp = keys();
    let rsa = pisa_crypto::rsa::RsaKeyPair::generate_below(&mut rng, kp.public().modulus(), 64);
    let sig = rsa.sign(b"license");
    let as_plain = Ibig::from(sig.as_integer().clone());
    let c = kp.public().encrypt(&as_plain, &mut rng);
    let recovered = kp.secret().decrypt(&c);
    assert_eq!(recovered.magnitude(), sig.as_integer());
    let recovered_sig = pisa_crypto::rsa::Signature(recovered.into_magnitude());
    assert!(rsa.public().verify(b"license", &recovered_sig).is_ok());
}

#[test]
fn garbled_signature_fails_verification() {
    // Adding η·(−2) to a signature (equation 17's deny path) yields an
    // integer that fails verification.
    let mut rng = StdRng::seed_from_u64(6);
    let kp = keys();
    let rsa = pisa_crypto::rsa::RsaKeyPair::generate_below(&mut rng, kp.public().modulus(), 64);
    let sig = rsa.sign(b"license");
    let eta = pisa_crypto::blind::sample_eta(&mut rng, kp.public().modulus());
    let garbled = Ibig::from(sig.as_integer().clone()) + Ibig::from(eta) * Ibig::from(-2i64);
    let c = kp.public().encrypt(&garbled, &mut rng);
    let recovered = kp.secret().decrypt(&c);
    let candidate = pisa_crypto::rsa::Signature(recovered.rem_euclid(rsa.public().modulus()));
    assert!(rsa.public().verify(b"license", &candidate).is_err());
}

#[test]
fn ciphertext_sizes_match_table2_shape() {
    // Table II: with |n| = 2048, pk/ct are 4096 bits and plaintext 2048.
    // Verified structurally at a smaller size: ct width = 2·|n|.
    let kp = keys();
    assert_eq!(kp.public().key_bits(), 256);
    assert_eq!(kp.public().modulus_squared().bit_len().div_ceil(8), 64);
    assert_eq!(kp.public().ciphertext_bytes(), 64);
}

#[test]
fn encrypt_with_r_rejects_degenerate_r() {
    // r must be a unit of Z_n: r = 0, r = n, and anything sharing a
    // factor with n produce undecryptable ciphertexts that poison
    // later sub/invert chains — they must be rejected up front.
    let kp =
        PaillierKeyPair::from_primes(Ubig::from(293u64), Ubig::from(433u64)).expect("valid primes");
    let pk = kp.public();
    let m = Ibig::from(42i64);
    for bad in [
        Ubig::zero(),
        pk.modulus().clone(),
        Ubig::from(293u64),     // = p
        Ubig::from(433u64 * 3), // multiple of q
        pk.modulus() * &Ubig::from(5u64),
    ] {
        assert_eq!(
            pk.encrypt_with_r(&m, &bad),
            Err(pisa_crypto::CryptoError::MalformedCiphertext),
            "r = {bad:?} must be rejected"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn encrypt_with_r_accepts_exactly_the_units(r in 0u64..500_000) {
        // Small key so gcd structure is exercised across the whole range.
        let kp = PaillierKeyPair::from_primes(Ubig::from(293u64), Ubig::from(433u64))
            .expect("valid primes");
        let pk = kp.public();
        let m = Ibig::from(17i64);
        let r_big = Ubig::from(r);
        let is_unit = r % 293 != 0 && r % 433 != 0;
        match pk.encrypt_with_r(&m, &r_big) {
            Ok(c) => {
                prop_assert!(is_unit, "non-unit r = {} accepted", r);
                prop_assert_eq!(kp.secret().decrypt(&c), m);
            }
            Err(e) => {
                prop_assert!(!is_unit, "unit r = {} rejected: {:?}", r, e);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn centered_encoding_roundtrips_to_the_edges(m in any::<i64>(), edge in 0u64..4) {
        let pk = keys().public();
        prop_assert_eq!(pk.decode(pk.encode(&Ibig::from(m))), Ibig::from(m));
        // The extremes of (-n/2, n/2] and their neighbours.
        let half = Ibig::from(pk.modulus() >> 1);
        for v in [&half - &Ibig::from(edge), -(&half - &Ibig::from(edge))] {
            let encoded = pk.encode(&v);
            prop_assert!(&encoded < pk.modulus());
            prop_assert_eq!(pk.decode(encoded), v);
        }
    }

    /// `encrypt` is `draw_nonce` then `encrypt_with_nonce`, and
    /// `rerandomize` is `draw_randomizer`, `raise_randomizer`, then
    /// `rerandomize_precomputed`: the split halves give the same
    /// ciphertexts from the same RNG state.
    #[test]
    fn split_halves_match_the_one_shot_calls(m in any::<i64>(), seed in any::<u64>()) {
        let pk = keys().public();
        let m = Ibig::from(m);
        let (mut one_shot, mut split) = (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
        let c = pk.encrypt(&m, &mut one_shot);
        prop_assert_eq!(&c, &pk.encrypt_with_nonce(&m, &pk.draw_nonce(&mut split)));
        let refreshed = pk.rerandomize(&c, &mut one_shot);
        let factor = pk.raise_randomizer(&pk.draw_randomizer(&mut split));
        prop_assert_eq!(&refreshed, &pk.rerandomize_precomputed(&c, &factor));
        let online = pk.encrypt_with_randomizer(&m, &pk.precompute_randomizer(&mut split));
        prop_assert_eq!(keys().secret().decrypt(&online), m);
    }

    #[test]
    fn public_constants_and_the_trivial_zero(m in any::<i64>(), seed in any::<u64>()) {
        let kp = keys();
        let pk = kp.public();
        let m = Ibig::from(m);
        let constant = pk.encrypt_public_constant(&m);
        prop_assert_eq!(kp.secret().decrypt(&constant), m.clone());
        prop_assert_eq!(&constant, &pk.encrypt_with_r(&m, &Ubig::one()).unwrap());
        prop_assert_eq!(kp.secret().decrypt(&pk.trivial_zero()), Ibig::zero());
        let c = pk.encrypt(&m, &mut StdRng::seed_from_u64(seed));
        prop_assert_eq!(&pk.add(&c, &pk.trivial_zero()), &c);
    }

    #[test]
    fn unit_and_zero_scalars(m in any::<i32>(), seed in any::<u64>()) {
        let kp = keys();
        let pk = kp.public();
        let m = Ibig::from(i64::from(m));
        let c = pk.encrypt(&m, &mut StdRng::seed_from_u64(seed));
        prop_assert_eq!(&pk.scalar_mul(&c, &Ibig::from(1i64)).unwrap(), &c);
        let negated = pk.scalar_mul(&c, &Ibig::from(-1i64)).unwrap();
        prop_assert_eq!(kp.secret().decrypt(&negated), -m.clone());
        prop_assert_eq!(kp.secret().decrypt(&pk.add(&c, &negated)), Ibig::zero());
        let zeroed = pk.scalar_mul(&c, &Ibig::zero()).unwrap();
        prop_assert_eq!(kp.secret().decrypt(&zeroed), Ibig::zero());
        prop_assert_eq!(kp.secret().decrypt(&pk.sub(&c, &c).unwrap()), Ibig::zero());
    }

    #[test]
    fn honest_ciphertexts_are_units(m in any::<i64>(), seed in any::<u64>()) {
        let kp = keys();
        let pk = kp.public();
        let mut rng = StdRng::seed_from_u64(seed);
        let c = pk.encrypt(&Ibig::from(m), &mut rng);
        prop_assert!(pk.check_unit(&c).is_ok());
        prop_assert!(pk.check_unit(&pk.rerandomize(&c, &mut rng)).is_ok());
        prop_assert!(pk.check_unit(&pk.trivial_zero()).is_ok());
    }
}

#[test]
fn non_units_are_rejected_before_use() {
    let pk = keys().public();
    let n = pk.modulus().clone();
    for bad in [Ubig::zero(), n.clone(), &n * &Ubig::from(3u64)] {
        let c = pisa_crypto::paillier::Ciphertext::from_raw(bad);
        assert!(pk.check_unit(&c).is_err());
        assert!(pk.sub(&pk.trivial_zero(), &c).is_err());
        assert!(pk.scalar_mul(&c, &Ibig::from(-5i64)).is_err());
    }
}
