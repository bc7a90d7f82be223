//! Multiplication: schoolbook for small operands, Karatsuba above a
//! limb-count threshold.

use crate::Ubig;

/// Operands with at least this many limbs on both sides use Karatsuba.
const KARATSUBA_THRESHOLD: usize = 24;

pub(crate) fn mul(a: &Ubig, b: &Ubig) -> Ubig {
    if a.is_zero() || b.is_zero() {
        return Ubig::zero();
    }
    Ubig::from_limbs(mul_limbs(&a.limbs, &b.limbs))
}

/// Multiplies two little-endian limb slices, returning a (possibly
/// unnormalized) limb vector of length `a.len() + b.len()`.
pub(crate) fn mul_limbs(a: &[u64], b: &[u64]) -> Vec<u64> {
    if a.len().min(b.len()) >= KARATSUBA_THRESHOLD {
        karatsuba(a, b)
    } else {
        schoolbook(a, b)
    }
}

fn schoolbook(a: &[u64], b: &[u64]) -> Vec<u64> {
    let mut out = vec![0u64; a.len() + b.len()];
    for (i, &ai) in a.iter().enumerate() {
        // No zero-limb skip: CRT decryption multiplies secret values
        // here, and skipping rows on operand value would make the
        // running time a function of secret limb contents.
        let mut carry = 0u128;
        for (j, &bj) in b.iter().enumerate() {
            let t = out[i + j] as u128 + ai as u128 * bj as u128 + carry;
            out[i + j] = t as u64;
            carry = t >> 64;
        }
        let mut k = i + b.len();
        while carry != 0 {
            let t = out[k] as u128 + carry;
            out[k] = t as u64;
            carry = t >> 64;
            k += 1;
        }
    }
    out
}

fn karatsuba(a: &[u64], b: &[u64]) -> Vec<u64> {
    let split = a.len().max(b.len()).div_ceil(2);
    if a.len() <= split || b.len() <= split {
        // Too unbalanced to split both; fall back.
        return schoolbook(a, b);
    }
    let (a0, a1) = a.split_at(split);
    let (b0, b1) = b.split_at(split);

    let z0 = mul_limbs(a0, b0);
    let z2 = mul_limbs(a1, b1);

    // (a0 + a1) * (b0 + b1)
    let sa = add_slices(a0, a1);
    let sb = add_slices(b0, b1);
    let mut z1 = mul_limbs(&sa, &sb);
    // z1 -= z0 + z2
    sub_in_place(&mut z1, &z0);
    sub_in_place(&mut z1, &z2);

    let mut out = vec![0u64; a.len() + b.len()];
    add_at(&mut out, &z0, 0);
    add_at(&mut out, &z1, split);
    add_at(&mut out, &z2, 2 * split);
    out
}

fn add_slices(a: &[u64], b: &[u64]) -> Vec<u64> {
    let (long, short) = if a.len() >= b.len() { (a, b) } else { (b, a) };
    let mut out = long.to_vec();
    let carry = super::add_assign_slice(&mut out, short);
    if carry != 0 {
        out.push(carry);
    }
    out
}

fn sub_in_place(a: &mut Vec<u64>, b: &[u64]) {
    if a.len() < b.len() {
        a.resize(b.len(), 0);
    }
    let borrow = super::sub_assign_slice(a, b);
    debug_assert_eq!(borrow, 0, "karatsuba middle term must be non-negative");
}

fn add_at(out: &mut [u64], val: &[u64], offset: usize) {
    let carry = super::add_assign_slice(&mut out[offset..], trim(val));
    debug_assert_eq!(carry, 0, "karatsuba output buffer overflow");
}

fn trim(v: &[u64]) -> &[u64] {
    let mut end = v.len();
    while end > 0 && v[end - 1] == 0 {
        end -= 1;
    }
    &v[..end]
}

#[cfg(test)]
mod tests {
    use crate::Ubig;

    #[test]
    fn mul_small() {
        assert_eq!(Ubig::from(6u64) * Ubig::from(7u64), Ubig::from(42u64));
        assert_eq!(Ubig::from(0u64) * Ubig::from(7u64), Ubig::zero());
        assert_eq!(Ubig::one() * Ubig::from(7u64), Ubig::from(7u64));
    }

    #[test]
    fn mul_cross_limb() {
        let a = Ubig::from(u64::MAX);
        let sq = a.square();
        // (2^64-1)^2 = 2^128 - 2^65 + 1
        let expected = (Ubig::one() << 128) - (Ubig::one() << 65) + Ubig::one();
        assert_eq!(sq, expected);
    }

    #[test]
    fn karatsuba_matches_schoolbook() {
        // Construct operands large enough to hit the Karatsuba path with a
        // deterministic pseudo-random pattern.
        let mut limbs_a = Vec::new();
        let mut limbs_b = Vec::new();
        let mut x = 0x9e3779b97f4a7c15u64;
        for i in 0..80u64 {
            x = x.wrapping_mul(0xbf58476d1ce4e5b9).wrapping_add(i);
            limbs_a.push(x);
            x = x.rotate_left(17) ^ i;
            limbs_b.push(x);
        }
        let a = Ubig::from_limbs(limbs_a);
        let b = Ubig::from_limbs(limbs_b);
        let fast = &a * &b;
        let slow = Ubig::from_limbs(super::schoolbook(a.as_limbs(), b.as_limbs()));
        assert_eq!(fast, slow);
    }

    #[test]
    fn mul_distributes_over_add() {
        let a = Ubig::from(123456789u64);
        let b = Ubig::from(987654321u64);
        let c = Ubig::from(555555555u64);
        assert_eq!(&a * &(&b + &c), &(&a * &b) + &(&a * &c));
    }

    #[test]
    fn karatsuba_unbalanced_operands() {
        let big = Ubig::from_limbs((1..=100u64).collect());
        let small = Ubig::from_limbs(vec![3, 1]);
        let prod = &big * &small;
        let slow = Ubig::from_limbs(super::schoolbook(big.as_limbs(), small.as_limbs()));
        assert_eq!(prod, slow);
    }
}
