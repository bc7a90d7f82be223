//! Property tests for the Montgomery kernels: the narrow and fused
//! multiplies and the squaring kernel against the reference allocating
//! path (at small widths, at every width the narrow tier serves, at the
//! first fused width and at the widths the protocol runs at),
//! `MontCtx::pow` against naive square-and-multiply, and the
//! constant-shape guarantee that multiplication counts depend only on the
//! exponent's bit length.

use pisa_bigint::modular::{mont_mul_count, reset_mont_mul_count, MontCtx, NARROW_MAX_LIMBS};
use pisa_bigint::Ubig;
use proptest::prelude::*;
use proptest::test_runner::ProptestConfig;

/// Every limb width the narrow kernel serves, the first width the fused
/// kernel serves, and the protocol's fused widths: p² and n² at
/// 2048-bit keys (32 and 64 limbs; 64 takes the squaring kernel). The
/// protocol's 384-bit keys run at 6 and 12 limbs, inside the narrow range.
fn tested_widths() -> impl Iterator<Item = usize> {
    (1..=NARROW_MAX_LIMBS + 1).chain([32, 64])
}

/// Odd moduli above 1 of every [`tested_widths`] width, cut from the
/// same random limbs, with the top limb forced to `u64::MAX` when
/// `top_max` is set (n close to R, where the unreduced result most often
/// lands between n and 2n and overflows R).
fn moduli_at_every_width(limbs: &[u64], top_max: bool) -> Vec<Ubig> {
    tested_widths()
        .map(|width| {
            let mut limbs = limbs[..width].to_vec();
            let top = &mut limbs[width - 1];
            *top = if top_max { u64::MAX } else { (*top).max(2) };
            limbs[0] |= 1;
            Ubig::from_limbs(limbs)
        })
        .collect()
}

/// The random limbs [`moduli_at_every_width`] cuts its moduli from.
fn modulus_limbs() -> impl Strategy<Value = Vec<u64>> {
    proptest::collection::vec(any::<u64>(), 64..65)
}

/// Arbitrary Ubig up to 64 limbs, reduced by the caller.
fn wide_ubig() -> impl Strategy<Value = Ubig> {
    proptest::collection::vec(any::<u64>(), 0..65).prop_map(Ubig::from_limbs)
}

/// Arbitrary odd modulus > 1, up to ~256 bits.
fn odd_modulus() -> impl Strategy<Value = Ubig> {
    proptest::collection::vec(any::<u64>(), 1..4)
        .prop_map(|mut limbs| {
            limbs[0] |= 1;
            Ubig::from_limbs(limbs)
        })
        .prop_filter("modulus > 1", |m| !m.is_one())
}

/// Arbitrary Ubig up to ~256 bits.
fn ubig() -> impl Strategy<Value = Ubig> {
    proptest::collection::vec(any::<u64>(), 0..4).prop_map(Ubig::from_limbs)
}

/// Textbook square-and-multiply, the independent oracle.
fn naive_pow(base: &Ubig, exp: &Ubig, n: &Ubig) -> Ubig {
    let mut acc = Ubig::one() % n;
    let mut b = base % n;
    for i in 0..exp.bit_len() {
        if exp.bit(i) {
            acc = (&acc * &b) % n;
        }
        b = (&b * &b) % n;
    }
    acc
}

proptest! {
    /// Scratch-buffer `mont_mul` and `mont_sqr` ≡ the old allocation path,
    /// over random reduced operands and moduli.
    #[test]
    fn scratch_mont_mul_matches_reference(a in ubig(), b in ubig(), m in odd_modulus()) {
        let ctx = MontCtx::new(&m).unwrap();
        let a = &a % &m;
        let b = &b % &m;
        let mut s = ctx.scratch();
        prop_assert_eq!(ctx.mont_mul(&a, &b, &mut s), ctx.mont_mul_reference(&a, &b));
        prop_assert_eq!(ctx.mont_sqr(&a, &mut s), ctx.mont_mul_reference(&a, &a));
    }

    /// At every tested width, multiply and squaring ≡ the reference for
    /// random operands and the edge operands 0, 1 and n − 1, in every
    /// pairing, and `from_mont` inverts `to_mont`.
    #[test]
    fn kernels_match_reference_at_protocol_widths(
        limbs in modulus_limbs(),
        top_max in any::<bool>(),
        a in wide_ubig(),
        b in wide_ubig(),
    ) {
        for m in moduli_at_every_width(&limbs, top_max) {
            let ctx = MontCtx::new(&m).unwrap();
            let mut s = ctx.scratch();
            let ops = [Ubig::zero(), Ubig::one(), &m - &Ubig::one(), &a % &m, &b % &m];
            for x in &ops {
                prop_assert_eq!(ctx.mont_sqr(x, &mut s), ctx.mont_mul_reference(x, x));
                for y in &ops {
                    prop_assert_eq!(ctx.mont_mul(x, y, &mut s), ctx.mont_mul_reference(x, y));
                }
                let xm = ctx.to_mont(x, &mut s);
                prop_assert_eq!(&ctx.from_mont(&xm, &mut s), x);
            }
        }
    }

    /// `MontCtx::pow` ≡ naive square-and-multiply.
    #[test]
    fn pow_matches_naive(base in ubig(), exp in ubig(), m in odd_modulus()) {
        let ctx = MontCtx::new(&m).unwrap();
        prop_assert_eq!(ctx.pow(&base, &exp), naive_pow(&base, &exp, &m));
    }

    /// Montgomery-form chaining (`pow` → `to_mont` → `mont_mul` →
    /// `from_mont`) equals the round-tripping composition.
    #[test]
    fn mont_chain_matches_round_trips(a in ubig(), e in 0u64..5000, m in odd_modulus()) {
        let ctx = MontCtx::new(&m).unwrap();
        let a = &a % &m;
        let e = Ubig::from(e);
        let mut s = ctx.scratch();
        // chained: a^e * a, leaving Montgomery form only at the end
        let am = ctx.to_mont(&a, &mut s);
        let pm = ctx.to_mont(&ctx.pow(&a, &e), &mut s);
        let chained = ctx.from_mont(&ctx.mont_mul(&pm, &am, &mut s), &mut s);
        let round_tripped = ctx.mul(&ctx.pow(&a, &e), &a);
        prop_assert_eq!(chained, round_tripped);
    }

    /// The multiplication count of `MontCtx::pow` is a pure function of
    /// `exp.bit_len()`: two exponents of equal bit length cost identical
    /// counts regardless of their bit patterns.
    ///
    /// Bit lengths up to 2100 cover every window tier, past the 2048-bit
    /// `rⁿ` exponent.
    #[test]
    fn pow_shape_depends_only_on_bit_len(
        bits in 1usize..2100,
        seed1 in wide_ubig(),
        seed2 in wide_ubig(),
        m in odd_modulus(),
    ) {
        let ctx = MontCtx::new(&m).unwrap();
        let top = Ubig::one() << (bits - 1);
        let e1 = &top + &(&seed1 % &top);
        let e2 = &top + &(&seed2 % &top);
        prop_assert_eq!(e1.bit_len(), bits);
        prop_assert_eq!(e2.bit_len(), bits);
        let base = Ubig::from(7u64);
        reset_mont_mul_count();
        ctx.pow(&base, &e1);
        let c1 = mont_mul_count();
        reset_mont_mul_count();
        ctx.pow(&base, &e2);
        let c2 = mont_mul_count();
        prop_assert_eq!(c1, c2);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// At every tested width, `MontCtx::pow` (the window ladder over the
    /// narrow kernel, the fused multiply or the squaring kernel, by
    /// width) ≡ naive square-and-multiply.
    #[test]
    fn pow_paths_agree_at_protocol_widths(
        limbs in modulus_limbs(),
        top_max in any::<bool>(),
        base in wide_ubig(),
        exp in ubig(),
    ) {
        for m in moduli_at_every_width(&limbs, top_max) {
            let ctx = MontCtx::new(&m).unwrap();
            prop_assert_eq!(ctx.pow(&base, &exp), naive_pow(&base, &exp, &m));
        }
    }
}
