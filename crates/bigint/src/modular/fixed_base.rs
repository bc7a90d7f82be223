//! Fixed-base windowed exponentiation.
//!
//! When the same base is raised to many different exponents — the
//! rerandomizer base `h^n` across a whole sign-test batch, a verification
//! key across a stream of signatures — the per-call window table that
//! [`MontCtx::pow`] builds is pure waste: it depends only on the base.
//! [`FixedBasePow`] hoists that table out of the loop, widening it to
//! cover every exponent window so each subsequent power is a straight
//! product of table entries with **no squarings at all**.

use super::mont::{copy_padded, digit, MontCtx, MontScratch};
use crate::Ubig;

/// Window width in bits. Fixed: the table covers every window position up
/// front, so unlike the sliding ladder there is no build-cost/ladder-cost
/// trade to adapt per exponent.
const WINDOW_BITS: usize = 4;

/// A precomputed fixed-base exponentiation table over one modulus.
///
/// `table[i][d]` holds `base^(d · 2^(4i))` in Montgomery form, for every
/// 4-bit window position `i` covering `max_exp_bits` bits and every digit
/// `d ∈ 0..16`. A power is then the product of one entry per window:
/// `⌈max_exp_bits/4⌉ − 1` multiplications, independent of the exponent's
/// value *and* of its bit length (shorter exponents multiply by the
/// Montgomery 1 entries of their empty windows), so the shape leak
/// guarantee of [`MontCtx::pow`] is preserved and strengthened.
///
/// Construction costs 14 multiplications and 4 squarings per window; it
/// amortizes after a handful of powers and the break-even shrinks as
/// exponents grow.
///
/// The table is derived from the base, so a table built over a
/// secret-adjacent base reveals it: [`FixedBasePow`] implements
/// [`crate::zeroize::Zeroize`] and redacts its `Debug` output.
pub struct FixedBasePow {
    ctx: MontCtx,
    /// Exponent capacity in bits; `pow` asserts `exp.bit_len()` ≤ this.
    max_exp_bits: usize,
    /// Number of 4-bit windows covering `max_exp_bits`.
    windows: usize,
    /// Flat table: window `i`, digit `d` occupies
    /// `[(i · 16 + d) · k, (i · 16 + d + 1) · k)`, Montgomery form.
    table: Vec<u64>,
}

impl FixedBasePow {
    /// Precomputes the window table for `base` under `ctx`'s modulus,
    /// sized for exponents up to `max_exp_bits` bits. The base need not
    /// be reduced. Returns `None` when `max_exp_bits` is zero.
    pub fn new(ctx: &MontCtx, base: &Ubig, max_exp_bits: usize) -> Option<Self> {
        if max_exp_bits == 0 {
            return None;
        }
        let k = ctx.limb_width();
        let windows = max_exp_bits.div_ceil(WINDOW_BITS);
        let digits = 1usize << WINDOW_BITS;
        let mut s = ctx.scratch();

        let reduced;
        let base = if base < ctx.modulus() {
            base
        } else {
            reduced = base % ctx.modulus();
            &reduced
        };
        let base_m = ctx.to_mont(base, &mut s);
        let one_m = ctx.one_mont();

        let mut table = vec![0u64; windows * digits * k];
        for i in 0..windows {
            let row = i * digits * k;
            copy_padded(&mut table[row..row + k], one_m.as_limbs());
            if i == 0 {
                copy_padded(&mut table[row + k..row + 2 * k], base_m.as_limbs());
            } else {
                // Window base = previous window's base^16: four squarings.
                let prev = (i - 1) * digits * k + k;
                s.acc.copy_from_slice(&table[prev..prev + k]);
                for _ in 0..WINDOW_BITS {
                    ctx.mont_sqr_into(&s.acc, &mut s.tmp);
                    std::mem::swap(&mut s.acc, &mut s.tmp);
                }
                table[row + k..row + 2 * k].copy_from_slice(&s.acc);
            }
            // Remaining digits by repeated multiplication with the
            // window base.
            for d in 2..digits {
                let (lo, hi) = table.split_at_mut(row + d * k);
                let wbase = &lo[row + k..row + 2 * k];
                let prev = &lo[row + (d - 1) * k..row + d * k];
                ctx.mont_mul_into(prev, wbase, &mut hi[..k]);
            }
        }
        Some(FixedBasePow {
            ctx: ctx.clone(),
            max_exp_bits,
            windows,
            table,
        })
    }

    /// Exponent capacity in bits.
    pub fn max_exp_bits(&self) -> usize {
        self.max_exp_bits
    }

    /// The modulus this table reduces by.
    pub fn modulus(&self) -> &Ubig {
        self.ctx.modulus()
    }

    /// Montgomery multiplications one [`FixedBasePow::pow_mont`] call
    /// performs — a constant for the table, exposed for the shape tests.
    pub fn muls_per_pow(&self) -> u64 {
        self.windows as u64 - 1
    }

    /// `base^exp mod n`.
    ///
    /// # Panics
    ///
    /// Panics if `exp.bit_len()` exceeds the table's `max_exp_bits`.
    pub fn pow(&self, exp: &Ubig) -> Ubig {
        let mut s = self.ctx.scratch();
        let m = self.pow_mont(exp, &mut s);
        self.ctx.from_mont(&m, &mut s)
    }

    /// `base^exp` in Montgomery form, for chaining into further
    /// Montgomery products without a round trip.
    ///
    /// Every window multiplies unconditionally — empty and zero windows
    /// multiply by the Montgomery 1 — so the multiplication count is the
    /// same for every exponent the table accepts.
    ///
    /// # Panics
    ///
    /// Panics if `exp.bit_len()` exceeds the table's `max_exp_bits`.
    pub fn pow_mont(&self, exp: &Ubig, s: &mut MontScratch) -> Ubig {
        assert!(
            exp.bit_len() <= self.max_exp_bits,
            "exponent wider than fixed-base table capacity"
        );
        let k = self.ctx.limb_width();
        let digits = 1usize << WINDOW_BITS;
        s.fit(k);
        let entry = |i: usize, d: usize| {
            let at = (i * digits + d) * k;
            &self.table[at..at + k]
        };
        s.acc.copy_from_slice(entry(0, digit(exp, 0, WINDOW_BITS)));
        for i in 1..self.windows {
            let d = digit(exp, i, WINDOW_BITS);
            self.ctx.mont_mul_into(&s.acc, entry(i, d), &mut s.tmp);
            std::mem::swap(&mut s.acc, &mut s.tmp);
        }
        Ubig::from_limbs(s.acc.clone())
    }

    /// Allocates working memory sized for this table's modulus.
    pub fn scratch(&self) -> MontScratch {
        self.ctx.scratch()
    }
}

impl std::fmt::Debug for FixedBasePow {
    /// Redacted: the table determines the base, which may be
    /// secret-adjacent; only the shape parameters are printed.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FixedBasePow")
            .field("max_exp_bits", &self.max_exp_bits)
            .field("windows", &self.windows)
            .finish_non_exhaustive()
    }
}

impl crate::zeroize::Zeroize for FixedBasePow {
    fn zeroize(&mut self) {
        self.table.zeroize();
        self.ctx.zeroize();
        self.max_exp_bits.zeroize();
        self.windows.zeroize();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_mont_ctx_pow() {
        let p = (Ubig::one() << 127) - Ubig::one();
        let ctx = MontCtx::new(&p).unwrap();
        let base = Ubig::from(0x9e3779b9u64);
        let fb = FixedBasePow::new(&ctx, &base, 128).unwrap();
        for exp in [0u64, 1, 2, 15, 16, 17, 0xdeadbeef, u64::MAX] {
            let e = Ubig::from(exp);
            assert_eq!(fb.pow(&e), ctx.pow(&base, &e), "exp {exp}");
        }
        let wide = (Ubig::one() << 127) - Ubig::from(12345u64);
        assert_eq!(fb.pow(&wide), ctx.pow(&base, &wide));
    }

    #[test]
    fn unreduced_base_and_zero_exponent() {
        let n = Ubig::from(1000003u64);
        let ctx = MontCtx::new(&n).unwrap();
        let base = &n + &Ubig::from(7u64);
        let fb = FixedBasePow::new(&ctx, &base, 64).unwrap();
        assert_eq!(fb.pow(&Ubig::zero()), Ubig::one());
        assert_eq!(fb.pow(&Ubig::from(3u64)), Ubig::from(343u64));
    }

    #[test]
    fn zero_capacity_rejected() {
        let ctx = MontCtx::new(&Ubig::from(97u64)).unwrap();
        assert!(FixedBasePow::new(&ctx, &Ubig::from(2u64), 0).is_none());
    }

    #[test]
    #[should_panic(expected = "wider than fixed-base table capacity")]
    fn over_capacity_exponent_panics() {
        let ctx = MontCtx::new(&Ubig::from(97u64)).unwrap();
        let fb = FixedBasePow::new(&ctx, &Ubig::from(2u64), 8).unwrap();
        fb.pow(&Ubig::from(512u64));
    }

    #[test]
    fn constant_mul_count_across_exponents() {
        use super::super::mont::{mont_mul_count, reset_mont_mul_count};
        let p = (Ubig::one() << 127) - Ubig::one();
        let ctx = MontCtx::new(&p).unwrap();
        let fb = FixedBasePow::new(&ctx, &Ubig::from(5u64), 120).unwrap();
        let mut s = fb.scratch();
        let mut counts = Vec::new();
        for exp in [1u64, 0xff, 0xffff_ffff_ffff_ffff] {
            reset_mont_mul_count();
            fb.pow_mont(&Ubig::from(exp), &mut s);
            counts.push(mont_mul_count());
        }
        assert!(counts.windows(2).all(|c| c[0] == c[1]), "{counts:?}");
        assert_eq!(counts[0], fb.muls_per_pow());
    }
}
