//! Pins the obs op counts of the Paillier primitives to the operations
//! they actually perform, so counter drift (an `obs_count!` site falling
//! out of sync with the code it annotates) fails loudly instead of
//! skewing every BENCH trajectory point.
//!
//! Compiled only when the crate's `obs` feature is active — always the
//! case for a workspace-wide `cargo test`, where the CLI's dependency on
//! `pisa-core/obs` unifies the feature on.
#![cfg(feature = "obs")]

use pisa_bigint::{Ibig, Ubig};
use pisa_crypto::paillier::{Ciphertext, PaillierKeyPair, RandomizerPool};
use pisa_obs::OpTotals;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Runs `f` with counters enabled and returns the ops it recorded.
///
/// The counters are process globals, so every assertion lives in this one
/// `#[test]` (its own process under the default harness) instead of
/// racing parallel test threads.
fn ops_of(f: impl FnOnce()) -> OpTotals {
    let before = pisa_obs::counters();
    f();
    pisa_obs::counters().delta_since(&before)
}

#[test]
fn primitive_op_counts_are_pinned() {
    pisa_obs::set_enabled(true);
    let kp = PaillierKeyPair::from_primes(Ubig::from(293u64), Ubig::from(433u64)).unwrap();
    let pk = kp.public();
    let mut rng = StdRng::seed_from_u64(0x0c0e);
    let m = Ibig::from(77i64);

    // Encryption: one r^n exponentiation, two multiplications (m·n and
    // g^m · r^n), and the nonce's coprimality gcd.
    let mut slot = None;
    let ops = ops_of(|| slot = Some(pk.encrypt(&m, &mut rng)));
    let c = slot.expect("encrypted");
    assert_eq!(
        ops,
        OpTotals {
            mod_exps: 1,
            mod_muls: 2,
            encryptions: 1,
            gcds: 1,
            ..OpTotals::default()
        },
        "encrypt"
    );

    // CRT decryption: two half-size exponentiations.
    let ops = ops_of(|| assert_eq!(kp.secret().decrypt(&c), m));
    assert_eq!(
        ops,
        OpTotals {
            mod_exps: 2,
            decryptions: 1,
            ..OpTotals::default()
        },
        "decrypt"
    );

    // Online re-randomization: the precomputed exponentiation, its
    // draw's gcd, and the one online multiplication.
    let ops = ops_of(|| {
        pk.rerandomize(&c, &mut rng);
    });
    assert_eq!(
        ops,
        OpTotals {
            mod_exps: 1,
            mod_muls: 1,
            rerandomizations: 1,
            gcds: 1,
            ..OpTotals::default()
        },
        "rerandomize"
    );

    // Pooled encryption pays no exponentiation at all; the pool hit
    // records the avoided one.
    let pool = RandomizerPool::new(pk, 1);
    pool.refill(&mut rng);
    let ops = ops_of(|| {
        let factor = pool.take().expect("refilled");
        let c2 = pk.encrypt_with_randomizer(&m, &factor);
        assert_eq!(kp.secret().decrypt(&c2), m);
    });
    assert_eq!(
        ops,
        OpTotals {
            mod_exps: 2, // the decrypt check
            mod_muls: 2,
            encryptions: 1,
            decryptions: 1,
            mod_exps_avoided: 1,
            ..OpTotals::default()
        },
        "pooled encrypt"
    );

    // A dry pool records the miss of the fallback path.
    let ops = ops_of(|| assert!(pool.take().is_none()));
    assert_eq!(
        ops,
        OpTotals {
            pool_misses: 1,
            ..OpTotals::default()
        },
        "pool miss"
    );

    // ±1 scalars short-circuit the ladder; −1 is one inversion.
    let ops = ops_of(|| {
        pk.scalar_mul(&c, &Ibig::from(1i64)).unwrap();
        pk.scalar_mul(&c, &Ibig::from(-1i64)).unwrap();
    });
    assert_eq!(
        ops,
        OpTotals {
            mod_exps_avoided: 2,
            inversions: 1,
            ..OpTotals::default()
        },
        "scalar_mul fast path"
    );

    // Larger scalars still pay the exponentiation.
    let ops = ops_of(|| {
        pk.scalar_mul(&c, &Ibig::from(3i64)).unwrap();
    });
    assert_eq!(
        ops,
        OpTotals {
            mod_exps: 1,
            ..OpTotals::default()
        },
        "scalar_mul general path"
    );

    // ⊖: one inversion and the product with it.
    let ops = ops_of(|| {
        pk.sub(&c, &c).unwrap();
    });
    assert_eq!(
        ops,
        OpTotals {
            mod_muls: 1,
            inversions: 1,
            ..OpTotals::default()
        },
        "sub"
    );

    // Eight draws from one stream share one gcd of their product (seven
    // multiplies; this seed draws no candidate with a factor of n), and
    // so do eight draws from eight streams.
    let mut nonces = Vec::new();
    let ops = ops_of(|| nonces = pk.draw_nonces(&mut rng, 8));
    let batch_gcd = OpTotals {
        mod_muls: 7,
        gcds: 1,
        ..OpTotals::default()
    };
    assert_eq!(ops, batch_gcd, "draw_nonces(8)");
    let ops = ops_of(|| {
        pk.draw_randomizers(&mut rng, 8);
    });
    assert_eq!(ops, batch_gcd, "draw_randomizers(8)");
    let mut streams: Vec<StdRng> = (0..8).map(StdRng::seed_from_u64).collect();
    let ops = ops_of(|| {
        pk.draw_nonces_each(&mut streams);
    });
    assert_eq!(ops, batch_gcd, "draw_nonces_each(8)");

    // Eight ⊖ share one inversion: 3·7 multiplies for the batch, one
    // product per entry.
    let entries: Vec<(Ibig, _)> = nonces.into_iter().map(|r| (m.clone(), r)).collect();
    let cs = pk.encrypt_with_nonces(&entries);
    let pairs: Vec<(&Ciphertext, &Ciphertext)> = cs.iter().map(|b| (&c, b)).collect();
    let ops = ops_of(|| assert!(pk.sub_many(&pairs).iter().all(Result::is_ok)));
    assert_eq!(
        ops,
        OpTotals {
            mod_muls: 21 + 8,
            inversions: 1,
            ..OpTotals::default()
        },
        "sub_many(8)"
    );
    let ops = ops_of(|| assert!(pk.check_units(&cs).is_ok()));
    assert_eq!(ops, batch_gcd, "check_units(8)");

    // A non-unit among them fails the shared inversion; then every entry
    // is inverted on its own, and the seven units take their products.
    let evil = Ciphertext::from_raw(Ubig::from(293u64));
    let mut pairs = pairs;
    pairs[3].1 = &evil;
    let ops = ops_of(|| {
        let results = pk.sub_many(&pairs);
        assert_eq!(results.iter().filter(|r| r.is_err()).count(), 1);
    });
    assert_eq!(
        ops,
        OpTotals {
            mod_muls: 21 + 7,
            inversions: 1 + 8,
            ..OpTotals::default()
        },
        "sub_many(8) with a non-unit"
    );

    pisa_obs::set_enabled(false);
}
