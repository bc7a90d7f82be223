//! Property-based tests for the big-integer substrate.

use pisa_bigint::modular::{gcd, lcm, mod_inverse, mod_mul, mod_pow};
use pisa_bigint::{Ibig, Ubig};
use proptest::prelude::*;

/// Arbitrary Ubig up to ~256 bits.
fn ubig() -> impl Strategy<Value = Ubig> {
    proptest::collection::vec(any::<u64>(), 0..4).prop_map(Ubig::from_limbs)
}

/// Arbitrary non-zero Ubig.
fn ubig_nonzero() -> impl Strategy<Value = Ubig> {
    ubig().prop_filter("non-zero", |v| !v.is_zero())
}

proptest! {
    #[test]
    fn add_commutative(a in ubig(), b in ubig()) {
        prop_assert_eq!(&a + &b, &b + &a);
    }

    #[test]
    fn add_associative(a in ubig(), b in ubig(), c in ubig()) {
        prop_assert_eq!(&(&a + &b) + &c, &a + &(&b + &c));
    }

    #[test]
    fn add_sub_roundtrip(a in ubig(), b in ubig()) {
        prop_assert_eq!(&(&a + &b) - &b, a);
    }

    #[test]
    fn mul_commutative(a in ubig(), b in ubig()) {
        prop_assert_eq!(&a * &b, &b * &a);
    }

    #[test]
    fn mul_distributes(a in ubig(), b in ubig(), c in ubig()) {
        prop_assert_eq!(&a * &(&b + &c), &(&a * &b) + &(&a * &c));
    }

    #[test]
    fn div_rem_invariant(a in ubig(), b in ubig_nonzero()) {
        let (q, r) = a.div_rem(&b);
        prop_assert!(r < b);
        prop_assert_eq!(&(&q * &b) + &r, a);
    }

    #[test]
    fn shift_is_power_of_two_mul(a in ubig(), n in 0usize..200) {
        prop_assert_eq!(&a << n, &a * &(Ubig::one() << n));
    }

    #[test]
    fn decimal_roundtrip(a in ubig()) {
        let s = a.to_string();
        prop_assert_eq!(s.parse::<Ubig>().unwrap(), a);
    }

    #[test]
    fn bytes_roundtrip(a in ubig()) {
        prop_assert_eq!(Ubig::from_be_bytes(&a.to_be_bytes()), a);
    }

    #[test]
    fn gcd_divides_and_lcm_relation(a in ubig_nonzero(), b in ubig_nonzero()) {
        let g = gcd(&a, &b);
        prop_assert!((&a % &g).is_zero());
        prop_assert!((&b % &g).is_zero());
        // gcd * lcm == a * b
        prop_assert_eq!(&g * &lcm(&a, &b), &a * &b);
    }

    #[test]
    fn mod_pow_add_exponents(
        a in ubig(),
        e1 in 0u64..1000,
        e2 in 0u64..1000,
        m in ubig_nonzero(),
    ) {
        prop_assume!(!m.is_one());
        let lhs = mod_pow(&a, &Ubig::from(e1 + e2), &m);
        let rhs = mod_mul(
            &mod_pow(&a, &Ubig::from(e1), &m),
            &mod_pow(&a, &Ubig::from(e2), &m),
            &m,
        );
        prop_assert_eq!(lhs, rhs);
    }

    #[test]
    fn mod_inverse_roundtrip(a in ubig_nonzero(), m in ubig_nonzero()) {
        prop_assume!(!m.is_one());
        if let Some(inv) = mod_inverse(&a, &m) {
            prop_assert_eq!(mod_mul(&a, &inv, &m), Ubig::one() % &m);
        } else {
            prop_assert!(!gcd(&a, &m).is_one());
        }
    }

    #[test]
    fn ibig_add_sub_consistent(a in any::<i64>(), b in any::<i64>()) {
        let (ba, bb) = (Ibig::from(a), Ibig::from(b));
        let sum = &ba + &bb;
        prop_assert_eq!(&sum - &bb, ba);
    }

    #[test]
    fn ibig_ordering_matches_i64(a in any::<i64>(), b in any::<i64>()) {
        prop_assert_eq!(Ibig::from(a).cmp(&Ibig::from(b)), a.cmp(&b));
    }

    #[test]
    fn rem_euclid_in_range(a in any::<i64>(), m in 1u64..10_000) {
        let r = Ibig::from(a).rem_euclid(&Ubig::from(m));
        prop_assert!(r < Ubig::from(m));
        // r ≡ a (mod m)
        let r64 = u64::try_from(&r).unwrap() as i128;
        prop_assert_eq!((a as i128 - r64).rem_euclid(m as i128), 0);
    }
}

/// Arbitrary `u128`, built from two limbs (the strategies stop at `u64`).
fn u128_any() -> impl Strategy<Value = u128> {
    (any::<u64>(), any::<u64>()).prop_map(|(hi, lo)| (u128::from(hi) << 64) | u128::from(lo))
}

proptest! {
    #[test]
    fn mul_associative(a in ubig(), b in ubig(), c in ubig()) {
        prop_assert_eq!(&(&a * &b) * &c, &a * &(&b * &c));
    }

    #[test]
    fn square_matches_self_product(a in ubig()) {
        prop_assert_eq!(a.square(), &a * &a);
    }

    #[test]
    fn checked_sub_is_some_exactly_when_no_borrow(a in ubig(), b in ubig()) {
        match a.checked_sub(&b) {
            Some(d) => {
                prop_assert!(a >= b);
                prop_assert_eq!(&d + &b, a);
            }
            None => prop_assert!(a < b),
        }
    }

    #[test]
    fn shr_undoes_shl(a in ubig(), n in 0usize..200) {
        prop_assert_eq!(&(&a << n) >> n, a);
    }

    #[test]
    fn shr_is_floor_division_by_power_of_two(a in ubig(), n in 0usize..300) {
        prop_assert_eq!(&a >> n, &a / &(Ubig::one() << n));
    }

    #[test]
    fn hex_roundtrip_either_case(a in ubig()) {
        prop_assert_eq!(Ubig::from_hex(&format!("{a:x}")).unwrap(), a.clone());
        prop_assert_eq!(Ubig::from_hex(&format!("{a:X}")).unwrap(), a);
    }

    #[test]
    fn padded_bytes_have_the_asked_length_and_value(a in ubig(), extra in 0usize..9) {
        let len = a.to_be_bytes().len() + extra;
        let padded = a.to_be_bytes_padded(len);
        prop_assert_eq!(padded.len(), len);
        prop_assert!(padded[..extra].iter().all(|&b| b == 0));
        prop_assert_eq!(Ubig::from_be_bytes(&padded), a);
    }

    #[test]
    fn bit_len_brackets_the_value(a in ubig_nonzero()) {
        let n = a.bit_len();
        prop_assert!(a.bit(n - 1));
        prop_assert!(!a.bit(n));
        prop_assert!(a < Ubig::one() << n);
        prop_assert!(a >= Ubig::one() << (n - 1));
    }

    #[test]
    fn set_bit_reads_back_and_touches_nothing_else(a in ubig(), i in 0usize..300, v in any::<bool>()) {
        let mut b = a.clone();
        b.set_bit(i, v);
        prop_assert_eq!(b.bit(i), v);
        for j in (0..320).filter(|&j| j != i) {
            prop_assert_eq!(b.bit(j), a.bit(j));
        }
        // The representation stays normalised: equal values, equal limbs.
        prop_assert_eq!(b.clone(), Ubig::from_limbs(b.as_limbs().to_vec()));
    }

    #[test]
    fn trailing_zeros_strip_to_an_odd_cofactor(a in ubig_nonzero()) {
        let tz = a.trailing_zeros();
        let odd = &a >> tz;
        prop_assert!(odd.is_odd());
        prop_assert_eq!(&odd << tz, a);
    }

    #[test]
    fn parity_is_the_low_bit(a in ubig()) {
        prop_assert_eq!(a.is_odd(), a.bit(0));
        prop_assert_eq!(a.is_even(), !a.bit(0));
    }

    #[test]
    fn from_limbs_ignores_high_zero_limbs(a in ubig(), zeros in 0usize..4) {
        let mut limbs = a.as_limbs().to_vec();
        limbs.extend(std::iter::repeat_n(0, zeros));
        let padded = Ubig::from_limbs(limbs);
        prop_assert_eq!(padded.as_limbs(), a.as_limbs());
        prop_assert_eq!(padded, a);
    }

    #[test]
    fn u128_arithmetic_matches_native(x in u128_any(), y in u128_any()) {
        let (a, b) = (Ubig::from(x), Ubig::from(y));
        prop_assert_eq!(u128::try_from(&a).unwrap(), x);
        let (sum, carry) = x.overflowing_add(y);
        let expected_sum = Ubig::from(sum) + if carry { Ubig::one() << 128 } else { Ubig::zero() };
        prop_assert_eq!(&a + &b, expected_sum);
        prop_assert_eq!(&a & &b, Ubig::from(x & y));
        prop_assert_eq!(&a | &b, Ubig::from(x | y));
        prop_assert_eq!(&a ^ &b, Ubig::from(x ^ y));
        prop_assert_eq!(a.cmp(&b), x.cmp(&y));
        if let (Some(q), Some(r)) = (x.checked_div(y), x.checked_rem(y)) {
            prop_assert_eq!(a.div_rem(&b), (Ubig::from(q), Ubig::from(r)));
        }
    }

    #[test]
    fn radix_formatting_matches_native(x in u128_any()) {
        let a = Ubig::from(x);
        prop_assert_eq!(a.to_string(), x.to_string());
        prop_assert_eq!(format!("{a:x}"), format!("{x:x}"));
        prop_assert_eq!(format!("{a:X}"), format!("{x:X}"));
        prop_assert_eq!(format!("{a:b}"), format!("{x:b}"));
        prop_assert_eq!(format!("{a:o}"), format!("{x:o}"));
    }

    #[test]
    fn ibig_arithmetic_matches_i128(a in any::<i64>(), b in any::<i64>()) {
        let (x, y) = (i128::from(a), i128::from(b));
        let (ba, bb) = (Ibig::from(a), Ibig::from(b));
        let ibig = |v: i128| {
            let mag = Ubig::from(v.unsigned_abs());
            if v < 0 { -Ibig::from(mag) } else { Ibig::from(mag) }
        };
        prop_assert_eq!(&ba + &bb, ibig(x + y));
        prop_assert_eq!(&ba - &bb, ibig(x - y));
        prop_assert_eq!(&ba * &bb, ibig(x * y));
        if b != 0 {
            // Truncated division, as Rust's `/` and `%`.
            prop_assert_eq!(&ba / &bb, ibig(x / y));
            prop_assert_eq!(&ba % &bb, ibig(x % y));
        }
        prop_assert_eq!(ba.to_string(), a.to_string());
    }

    #[test]
    fn ibig_negation_flips_sign_and_keeps_magnitude(a in any::<i64>()) {
        let v = Ibig::from(a);
        let neg = -&v;
        prop_assert_eq!(neg.magnitude(), v.magnitude());
        prop_assert_eq!(neg.is_negative(), a > 0);
        prop_assert_eq!(neg.is_positive(), a < 0);
        prop_assert_eq!(neg.is_zero(), a == 0);
        prop_assert_eq!(-neg, v);
    }

    #[test]
    fn mod_pow_matches_repeated_multiplication(a in ubig(), e in 0u64..40, m in ubig_nonzero()) {
        prop_assume!(!m.is_one());
        let mut acc = Ubig::one() % &m;
        for _ in 0..e {
            acc = mod_mul(&acc, &a, &m);
        }
        prop_assert_eq!(mod_pow(&a, &Ubig::from(e), &m), acc);
    }
}
