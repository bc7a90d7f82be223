//! Bernstein–Yang divsteps: the one kernel behind [`super::mod_inverse`]
//! and [`super::gcd`].
//!
//! The divstep of Bernstein and Yang ("Fast constant-time gcd computation
//! and modular inversion", TCHES 2019) maps `(δ, f, g)` with `f` odd to
//! `(1 − δ, g, (g − f)/2)` when `δ > 0` and `g` is odd, and to
//! `(1 + δ, f, (g + (g mod 2)·f)/2)` otherwise. Starting from `δ = 1`,
//! `g` reaches 0 and `f` reaches `±gcd(f, g)` within a number of steps
//! that depends only on the bit length of the inputs (their Theorem 11.2).
//!
//! The kernel runs that many steps, rounded up to whole batches of 62,
//! on every input of a given width. Each batch decides its 62 steps from
//! the low limbs of `f` and `g` with masks instead of branches, producing
//! a 2×2 transition matrix scaled by 2⁶². The matrix is then applied to
//! the full-width `f` and `g` (and, for an inverse, to the Bézout
//! coefficients `d` and `e` modulo `m`) in signed radix-2⁶² form. Every
//! buffer is allocated before the first batch, so the loop allocates
//! nothing, and its trip count and memory accesses depend only on the
//! bit length it was given.

use super::mont::inv_limb;
use crate::Ubig;

/// Bits per limb of the signed radix-2⁶² form.
const LIMB_BITS: usize = 62;
/// The low 62 bits of a limb.
const MASK: i64 = (1 << LIMB_BITS) - 1;

#[cfg(test)]
thread_local! {
    /// Divstep batches run on this thread, for the constant-shape test.
    static BATCH_COUNT: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Transition matrix of one batch: `[u v; q r]·[f; g] = 2⁶²·[f′; g′]`.
/// Every entry lies in `[−2⁶², 2⁶²]`.
#[derive(Clone, Copy)]
struct Matrix {
    u: i64,
    v: i64,
    q: i64,
    r: i64,
}

/// Divsteps that take any odd `f` and `0 ≤ g < f < 2^bits` to `g = 0`:
/// `⌊(49d + 80)/17⌋` for `d < 46` and `⌊(49d + 57)/17⌋` from 46 on.
fn divstep_bound(bits: usize) -> usize {
    if bits < 46 {
        (49 * bits + 80) / 17
    } else {
        (49 * bits + 57) / 17
    }
}

/// Whole batches of 62 divsteps covering [`divstep_bound`].
fn batches(bits: usize) -> usize {
    divstep_bound(bits).div_ceil(LIMB_BITS)
}

/// Signed radix-2⁶² limbs for values below `2^bits` in magnitude and for
/// the Bézout coefficients, which stay in `(−2m, m)`.
fn limbs_for(bits: usize) -> usize {
    bits / LIMB_BITS + 1
}

/// Modular inverse of `a` modulo odd `m`, for `a < m < 2^bits`.
///
/// Returns the candidate inverse and whether `gcd(a, m) = 1`; the
/// candidate is meaningless when it is not. The work depends on `bits`
/// alone, so a caller that passes the bit length of a public bound runs
/// the same batches for every `a` and `m` below it.
pub(super) fn inverse(a: &Ubig, m: &Ubig, bits: usize) -> (Ubig, bool) {
    let len = limbs_for(bits);
    let modulus = to_signed62(m, len);
    let m_inv62 = inv_limb(modulus[0] as u64) & MASK as u64;
    // Invariants: d·a ≡ f and e·a ≡ g (mod m).
    let mut f = modulus.clone();
    let mut g = to_signed62(a, len);
    let mut d = vec![0i64; len];
    let mut e = vec![0i64; len];
    e[0] = 1;
    let mut delta = 1i64;
    for _ in 0..batches(bits) {
        let t = batch(&mut delta, &mut f, &mut g);
        update_de(&mut d, &mut e, &t, &modulus, m_inv62);
    }
    // Now g = 0 and f = ±gcd(a, m), so a⁻¹ = ±d exactly when |f| = 1.
    let f_sign = abs(&mut f);
    let unit = f[1..].iter().fold(f[0] ^ 1, |acc, &limb| acc | limb) == 0;
    add_if_negative(&mut d, &modulus);
    negate_if(&mut d, f_sign);
    carry(&mut d);
    add_if_negative(&mut d, &modulus);
    carry(&mut d);
    (from_signed62(&d), unit)
}

/// `gcd(f, g)` for odd `f` and `0 ≤ g < f`.
pub(super) fn gcd(f: &Ubig, g: &Ubig) -> Ubig {
    let bits = f.bit_len();
    let len = limbs_for(bits);
    let mut f = to_signed62(f, len);
    let mut g = to_signed62(g, len);
    let mut delta = 1i64;
    for _ in 0..batches(bits) {
        batch(&mut delta, &mut f, &mut g);
    }
    abs(&mut f);
    from_signed62(&f)
}

/// One batch: 62 divsteps on `(δ, f, g)`, applied in place. Returns the
/// batch's transition matrix for the caller's Bézout coefficients.
fn batch(delta: &mut i64, f: &mut [i64], g: &mut [i64]) -> Matrix {
    let (next, t) = divsteps_62(*delta, f[0] as u64, g[0] as u64);
    *delta = next;
    update_fg(f, g, &t);
    #[cfg(test)]
    BATCH_COUNT.with(|c| c.set(c.get() + 1));
    t
}

/// 62 branch-free divsteps on the low 62 bits of `f` and `g`, which
/// decide them all. Returns the new δ and the transition matrix.
fn divsteps_62(mut delta: i64, mut f: u64, mut g: u64) -> (i64, Matrix) {
    // [u v; q r] starts as the identity; scaling the f row by 2 at every
    // step instead of halving g keeps the entries integral.
    let (mut u, mut v, mut q, mut r) = (1u64, 0u64, 0u64, 1u64);
    for _ in 0..LIMB_BITS {
        // All-ones when g is odd, and when additionally δ > 0.
        let odd = (g & 1).wrapping_neg();
        let swap = ((delta.wrapping_neg() >> 63) as u64) & odd;
        // g += ±f (−f on a swap), then f += the new g, which on a swap
        // is f + (g − f) = the old g; the matrix rows follow.
        g = g.wrapping_add(((f ^ swap).wrapping_sub(swap)) & odd);
        q = q.wrapping_add(((u ^ swap).wrapping_sub(swap)) & odd);
        r = r.wrapping_add(((v ^ swap).wrapping_sub(swap)) & odd);
        f = f.wrapping_add(g & swap);
        u = u.wrapping_add(q & swap);
        v = v.wrapping_add(r & swap);
        // δ becomes 1 − δ on a swap and 1 + δ otherwise.
        let s = swap as i64;
        delta = (delta ^ s).wrapping_sub(s).wrapping_add(1);
        g >>= 1;
        u <<= 1;
        v <<= 1;
    }
    let t = Matrix {
        u: u as i64,
        v: v as i64,
        q: q as i64,
        r: r as i64,
    };
    (delta, t)
}

/// `[f; g] ← [u v; q r]·[f; g] / 2⁶²`; the division is exact.
fn update_fg(f: &mut [i64], g: &mut [i64], t: &Matrix) {
    let (u, v, q, r) = (t.u as i128, t.v as i128, t.q as i128, t.r as i128);
    let len = f.len();
    let mut cf = u * f[0] as i128 + v * g[0] as i128;
    let mut cg = q * f[0] as i128 + r * g[0] as i128;
    cf >>= LIMB_BITS;
    cg >>= LIMB_BITS;
    for i in 1..len {
        cf += u * f[i] as i128 + v * g[i] as i128;
        cg += q * f[i] as i128 + r * g[i] as i128;
        f[i - 1] = cf as i64 & MASK;
        g[i - 1] = cg as i64 & MASK;
        cf >>= LIMB_BITS;
        cg >>= LIMB_BITS;
    }
    f[len - 1] = cf as i64;
    g[len - 1] = cg as i64;
}

/// `[d; e] ← ([u v; q r]·[d; e] + m·[md; me]) / 2⁶²`, keeping both in
/// `(−2m, m)`.
///
/// `md` and `me` first add `m` to each coefficient that is negative,
/// which brings it into `(−m, m)` so the product stays in range, and then
/// pick the multiple of `m` that clears the low 62 bits, so the division
/// is exact (`m_inv62` is `m⁻¹ mod 2⁶²`).
fn update_de(d: &mut [i64], e: &mut [i64], t: &Matrix, m: &[i64], m_inv62: u64) {
    let len = d.len();
    let sd = d[len - 1] >> 63;
    let se = e[len - 1] >> 63;
    let mut md = (t.u & sd) + (t.v & se);
    let mut me = (t.q & sd) + (t.r & se);
    let (u, v, q, r) = (t.u as i128, t.v as i128, t.q as i128, t.r as i128);
    let mut cd = u * d[0] as i128 + v * e[0] as i128;
    let mut ce = q * d[0] as i128 + r * e[0] as i128;
    md -= (m_inv62.wrapping_mul(cd as u64).wrapping_add(md as u64) & MASK as u64) as i64;
    me -= (m_inv62.wrapping_mul(ce as u64).wrapping_add(me as u64) & MASK as u64) as i64;
    let (md, me) = (md as i128, me as i128);
    cd += m[0] as i128 * md;
    ce += m[0] as i128 * me;
    cd >>= LIMB_BITS;
    ce >>= LIMB_BITS;
    for i in 1..len {
        cd += u * d[i] as i128 + v * e[i] as i128 + m[i] as i128 * md;
        ce += q * d[i] as i128 + r * e[i] as i128 + m[i] as i128 * me;
        d[i - 1] = cd as i64 & MASK;
        e[i - 1] = ce as i64 & MASK;
        cd >>= LIMB_BITS;
        ce >>= LIMB_BITS;
    }
    d[len - 1] = cd as i64;
    e[len - 1] = ce as i64;
}

/// Replaces normalized `x` with `|x|`; returns the all-ones mask if it
/// was negative.
fn abs(x: &mut [i64]) -> i64 {
    let sign = x[x.len() - 1] >> 63;
    negate_if(x, sign);
    carry(x);
    sign
}

/// Adds `m` to `x` when `x` is negative.
fn add_if_negative(x: &mut [i64], m: &[i64]) {
    let neg = x[x.len() - 1] >> 63;
    for (xi, &mi) in x.iter_mut().zip(m) {
        *xi += mi & neg;
    }
}

/// Negates every limb of `x` when `mask` is all ones.
fn negate_if(x: &mut [i64], mask: i64) {
    for xi in x.iter_mut() {
        *xi = (*xi ^ mask).wrapping_sub(mask);
    }
}

/// Propagates carries so every limb but the top one is in `[0, 2⁶²)`.
fn carry(x: &mut [i64]) {
    for i in 1..x.len() {
        x[i] += x[i - 1] >> LIMB_BITS;
        x[i - 1] &= MASK;
    }
}

/// The low `62·len` bits of `x` as `len` limbs of 62 bits.
fn to_signed62(x: &Ubig, len: usize) -> Vec<i64> {
    let words = x.as_limbs();
    (0..len)
        .map(|i| {
            let (w, off) = (i * LIMB_BITS / 64, i * LIMB_BITS % 64);
            let lo = words.get(w).copied().unwrap_or(0) >> off;
            // Two shifts, so `off = 0` shifts by 64 without overflow.
            let hi = (words.get(w + 1).copied().unwrap_or(0) << 1) << (63 - off);
            ((lo | hi) & MASK as u64) as i64
        })
        .collect()
}

/// The value of non-negative normalized 62-bit limbs.
fn from_signed62(x: &[i64]) -> Ubig {
    let mut words = Vec::with_capacity((x.len() * LIMB_BITS).div_ceil(64));
    let (mut acc, mut held) = (0u128, 0usize);
    for &limb in x {
        acc |= (limb as u128) << held;
        held += LIMB_BITS;
        if held >= 64 {
            words.push(acc as u64);
            acc >>= 64;
            held -= 64;
        }
    }
    words.push(acc as u64);
    Ubig::from_limbs(words)
}

#[cfg(test)]
mod tests {
    use super::super::{gcd, mod_inverse};
    use super::*;
    use proptest::prelude::*;

    fn xorshift(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    fn random_limbs(k: usize, state: &mut u64) -> Vec<u64> {
        (0..k).map(|_| xorshift(state)).collect()
    }

    /// Euclid's gcd on `%`: the oracle the kernel must match.
    fn euclid_gcd(a: &Ubig, b: &Ubig) -> Ubig {
        let (mut a, mut b) = (a.clone(), b.clone());
        while !b.is_zero() {
            let r = &a % &b;
            a = std::mem::replace(&mut b, r);
        }
        a
    }

    /// Extended Euclid on `%`, keeping the coefficient of `a` modulo `m`:
    /// `r0 ≡ s0·a` and `r1 ≡ s1·a` throughout.
    fn euclid_inverse(a: &Ubig, m: &Ubig) -> Option<Ubig> {
        let (mut r0, mut r1) = (m.clone(), a % m);
        let (mut s0, mut s1) = (Ubig::zero(), Ubig::one() % m);
        while !r1.is_zero() {
            let q = &r0 / &r1;
            let r2 = &r0 % &r1;
            let s2 = (&s0 + m - &(&q * &s1 % m)) % m;
            r0 = std::mem::replace(&mut r1, r2);
            s0 = std::mem::replace(&mut s1, s2);
        }
        r0.is_one().then_some(s0)
    }

    /// Limb counts under test: 1–13, 39–41 and 62–70, which take in the
    /// protocol's moduli at 6, 12 and 64 limbs, and 32.
    fn widths() -> Vec<usize> {
        (1..=13).chain([32]).chain(39..=41).chain(62..=70).collect()
    }

    /// One generated modulus and argument: `(m, a)`.
    ///
    /// `m` is odd or even, its top limb random or `u64::MAX`. `a` is 0,
    /// 1, m − 1, m, at least m, below m, a multiple of a small prime
    /// that also divides m, or a random value of m's width.
    fn case((width, seed, top_max, odd, kind): (usize, u64, bool, bool, u8)) -> (Ubig, Ubig) {
        let mut state = seed | 1;
        let k = widths()[width];
        let mut limbs = random_limbs(k, &mut state);
        limbs[k - 1] = if top_max { u64::MAX } else { limbs[k - 1] | 1 };
        limbs[0] = (limbs[0] & !1) | u64::from(odd);
        let mut m = Ubig::from_limbs(limbs);
        let below = Ubig::from_limbs(random_limbs(k, &mut state)) % &m;
        let a = match kind {
            0 => Ubig::zero(),
            1 => Ubig::one(),
            2 => &m - &Ubig::one(),
            3 => m.clone(),
            4 => &m + &Ubig::from_limbs(random_limbs(k, &mut state)),
            5 => below,
            6 => {
                // Make m a multiple of p with the parity drawn above.
                let p = Ubig::from([3u64, 5, 7][(seed % 3) as usize]);
                m = &m - &(&m % &p);
                if m.is_odd() != odd || m.is_zero() {
                    m = &m + &p;
                }
                &below * &p
            }
            _ => Ubig::from_limbs(random_limbs(k, &mut state)),
        };
        (m, a)
    }

    fn cases() -> impl Strategy<Value = (Ubig, Ubig)> {
        (
            0..widths().len(),
            any::<u64>(),
            any::<bool>(),
            any::<bool>(),
            0u8..8,
        )
            .prop_map(case)
    }

    proptest! {
        #[test]
        fn matches_euclid_at_every_width(pair in cases()) {
            let (m, a) = pair;
            prop_assert_eq!(mod_inverse(&a, &m), euclid_inverse(&a, &m));
            let g = euclid_gcd(&a, &m);
            prop_assert_eq!(gcd(&a, &m), g.clone());
            prop_assert_eq!(gcd(&m, &a), g.clone());
            // Common factors of two are stripped before the kernel runs.
            let twos = (m.bit_len() + a.bit_len()) % 130;
            let (a2, m2) = (&a << twos, &m << (twos / 2));
            prop_assert_eq!(gcd(&a2, &m2), euclid_gcd(&a2, &m2));
        }
    }

    #[test]
    fn matches_euclid_on_every_small_pair() {
        for m in 1..64u64 {
            let m = Ubig::from(m);
            for a in 0..130u64 {
                let a = Ubig::from(a);
                assert_eq!(mod_inverse(&a, &m), euclid_inverse(&a, &m), "{a}⁻¹ mod {m}");
                assert_eq!(gcd(&a, &m), euclid_gcd(&a, &m), "gcd({a}, {m})");
            }
        }
    }

    /// A pseudo-random odd modulus of exactly `bits` bits.
    fn odd_modulus(bits: usize, state: &mut u64) -> Ubig {
        let mut m = Ubig::from_limbs(random_limbs(bits.div_ceil(64), state))
            >> (bits.div_ceil(64) * 64 - bits);
        m.set_bit(bits - 1, true);
        m.set_bit(0, true);
        m
    }

    #[test]
    fn batch_counts_follow_the_bound() {
        assert_eq!(divstep_bound(1), 7);
        assert_eq!(divstep_bound(45), 134);
        assert_eq!(divstep_bound(46), 135);
        assert_eq!(divstep_bound(256), 741);
        assert_eq!(batches(768), 36);
        assert_eq!(batches(4096), 191);
    }

    /// The inverse of 1, of m − 1 and of a random unit run the same
    /// batches, and `g` is 0 after them, at every width up to 300 bits
    /// and at the protocol's moduli.
    #[test]
    fn shape_depends_on_bit_length_alone() {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        for bits in (1..=300).chain([384, 768, 1024, 2048, 4096]) {
            let m = odd_modulus(bits, &mut state);
            let mut unit = Ubig::from_limbs(random_limbs(bits.div_ceil(64), &mut state)) % &m;
            while !gcd(&unit, &m).is_one() {
                unit = (unit + Ubig::one()) % &m;
            }
            let m_minus_1 = &m - &Ubig::one();
            for a in [Ubig::one() % &m, m_minus_1, unit] {
                BATCH_COUNT.with(|c| c.set(0));
                let inv = mod_inverse(&a, &m).expect("unit");
                let ran = BATCH_COUNT.with(|c| c.get());
                assert_eq!(ran, batches(bits) as u64, "{bits} bits");
                assert_eq!((&a * &inv) % &m, Ubig::one() % &m, "{bits} bits");

                let len = limbs_for(bits);
                let (mut f, mut g) = (to_signed62(&m, len), to_signed62(&a, len));
                let mut delta = 1;
                for _ in 0..batches(bits) {
                    batch(&mut delta, &mut f, &mut g);
                }
                assert!(g.iter().all(|&l| l == 0), "g ≠ 0 at {bits} bits");
                abs(&mut f);
                assert_eq!(from_signed62(&f), Ubig::one(), "f ≠ ±1 at {bits} bits");
            }
        }
    }
}
