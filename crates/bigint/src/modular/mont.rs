//! Montgomery reduction context.
//!
//! The kernels come in two tiers, chosen by the modulus width `k` alone.
//! Narrow moduli (at most [`NARROW_MAX_LIMBS`] limbs) take a CIOS
//! multiply over fixed-size arrays, instantiated once per width so every
//! loop bound is a compile-time constant; their squares are products of
//! equal operands. Wider moduli take a fused product-scanning (FIPS)
//! multiply: one sweep over the `2k` columns of `a·b + m·n` picks each
//! reduction limb `mᵢ` as soon as its column is complete, so the product
//! and the reduction share three-limb column sums instead of a
//! `2k + 1`-limb buffer. From [`SQR_MIN_LIMBS`] on, squaring computes
//! each cross product once and doubles it. Leaving Montgomery form is a
//! reduction alone, at every width.

use super::lanes::Radix52;
use crate::arith::{mul_limbs, sub_assign_slice};
use crate::Ubig;
use std::cell::Cell;
use std::sync::OnceLock;

thread_local! {
    /// Montgomery multiplications and squarings performed on this
    /// thread, across every path (kernel and reference). Drives the
    /// constant-shape property tests; not a public API.
    static MONT_MUL_COUNT: Cell<u64> = const { Cell::new(0) };
}

/// Resets this thread's Montgomery-multiplication counter. Test support
/// for the constant-shape property suite; not a stable API.
#[doc(hidden)]
pub fn reset_mont_mul_count() {
    MONT_MUL_COUNT.with(|c| c.set(0));
}

/// Reads this thread's Montgomery-multiplication counter. Test support
/// for the constant-shape property suite; not a stable API.
#[doc(hidden)]
pub fn mont_mul_count() -> u64 {
    MONT_MUL_COUNT.with(|c| c.get())
}

#[inline]
fn bump_mul_count() {
    bump_mul_count_by(1);
}

/// Counts `lanes` Montgomery multiplications: a lane multiply counts
/// once per lane it serves.
#[inline]
pub(super) fn bump_mul_count_by(lanes: u64) {
    MONT_MUL_COUNT.with(|c| c.set(c.get().wrapping_add(lanes)));
}

/// Widest modulus, in limbs, that takes the narrow kernel (`cios_mul`).
/// With compile-time loop bounds the compiler unrolls both limb loops of
/// every round, which saves the loop and slice bookkeeping that dominates
/// a short product-scanning column. From 23 limbs it keeps one of them as
/// a loop (the disassembly has 2K limb multiplies per round up to 22
/// limbs and K + 2 from 23), and the gain goes. Measured in one process
/// on a 2-vCPU Xeon, `pow` with an exponent of half the modulus width
/// ran at 0.35–0.59× of the fused kernel's time at 1–8 limbs and
/// 0.57–0.87× at 10–22, level at 23–25 (0.88–1.01×) and slower from 26
/// (1.06–1.23×). 384-bit keys (6- and 12-limb moduli) and the 16-limb
/// Miller–Rabin of 1024-bit primes run here; 2048-bit keys (32 and 64
/// limbs) stay on the fused kernels. Narrow squares are products of
/// equal operands: a dedicated narrow squaring (each cross product once,
/// doubled, then `K` reduction rounds) ran `pow` at 0.92–1.05× of this
/// time, inside the host's spread.
pub const NARROW_MAX_LIMBS: usize = 22;

/// Narrowest modulus, in limbs, whose squares take the squaring kernel;
/// it governs only the fused tier, above [`NARROW_MAX_LIMBS`]. A
/// squaring column needs three accumulators and more bookkeeping than a
/// multiply's, which its ¼ fewer limb products repay only on long
/// columns. Measured in one process on a 2-vCPU Xeon, the squaring
/// kernel ran level with the fused multiply of equal operands at 23–36
/// limbs (0.99–1.05×) and faster from 40 (0.95× at 40, 0.94× at 48,
/// 0.89× at 64). So 2048-bit keys square their 64-limb n² with it and
/// their 32-limb p² with the multiply.
const SQR_MIN_LIMBS: usize = 40;

/// Reusable working memory for Montgomery operations.
///
/// Holds two `k`-limb registers: the ladder's current value and its
/// multiplication target, which single calls also use to zero-pad
/// narrow operands to the modulus width. A chain of multiplications — or
/// a whole exponentiation — therefore allocates nothing per step. Obtain
/// one from [`MontCtx::scratch`] and pass it to every call against that
/// context; a scratch self-resizes if reused across contexts of different
/// widths, so sharing one across the `n` and `n²` contexts of a key is
/// fine.
///
/// The buffers hold residues of whatever passed through them last, which
/// may derive from secret exponents; [`crate::zeroize::Zeroize`] wipes
/// them, and long-lived holders working under secret moduli (CRT
/// decryption) should zeroize on teardown.
pub struct MontScratch {
    /// `k`-limb ladder register (current value).
    pub(super) acc: Vec<u64>,
    /// `k`-limb ladder register (multiplication target, swapped with `acc`).
    pub(super) tmp: Vec<u64>,
}

impl MontScratch {
    /// Resizes both registers to width `k`.
    pub(super) fn fit(&mut self, k: usize) {
        self.acc.resize(k, 0);
        self.tmp.resize(k, 0);
    }
}

impl std::fmt::Debug for MontScratch {
    /// Redacted: scratch contents are working residues of (possibly
    /// secret-derived) intermediates and never belong in logs.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MontScratch")
            .field("limbs", &self.acc.len())
            .finish_non_exhaustive()
    }
}

impl crate::zeroize::Zeroize for MontScratch {
    fn zeroize(&mut self) {
        self.acc.zeroize();
        self.tmp.zeroize();
    }
}

/// A reusable Montgomery multiplication context for one odd modulus.
///
/// Construction costs two divisions; every subsequent multiplication and
/// exponentiation avoids division entirely (REDC only). Paillier reuses a
/// single context per `n²` across an entire protocol run.
///
/// # Examples
///
/// ```
/// use pisa_bigint::{Ubig, modular::MontCtx};
///
/// let n = Ubig::from(97u64);
/// let ctx = MontCtx::new(&n).expect("odd modulus");
/// let r = ctx.pow(&Ubig::from(5u64), &Ubig::from(96u64));
/// assert_eq!(r, Ubig::one());
/// ```
#[derive(Debug, Clone)]
pub struct MontCtx {
    /// The modulus `n` (odd, > 1).
    pub(super) n: Ubig,
    /// Limb count of `n`; all Montgomery residues use this width.
    pub(super) k: usize,
    /// `-n⁻¹ mod 2⁶⁴`.
    pub(super) n0_inv: u64,
    /// `R mod n` where `R = 2^(64k)` — the Montgomery form of 1.
    r_mod_n: Ubig,
    /// `R² mod n`, used to convert into Montgomery form.
    r2_mod_n: Ubig,
    /// The IFMA tiers' radix-2⁵² form of the modulus and its constants,
    /// made by the first IFMA ladder under this context.
    pub(super) radix52: OnceLock<Radix52>,
}

impl MontCtx {
    /// Builds a context for the odd modulus `n > 1`; `None` if `n` is even
    /// or `n <= 1`.
    pub fn new(n: &Ubig) -> Option<Self> {
        if n.is_even() || n.is_one() || n.is_zero() {
            return None;
        }
        let k = n.as_limbs().len();
        let r = Ubig::one() << (64 * k);
        let r_mod_n = &r % n;
        let r2_mod_n = (&r_mod_n * &r_mod_n) % n;
        let n0_inv = inv_limb(n.as_limbs()[0]).wrapping_neg();
        Some(MontCtx {
            n: n.clone(),
            k,
            n0_inv,
            r_mod_n,
            r2_mod_n,
            radix52: OnceLock::new(),
        })
    }

    /// The modulus this context reduces by.
    pub fn modulus(&self) -> &Ubig {
        &self.n
    }

    /// Allocates working memory sized for this context. One scratch
    /// serves any number of sequential operations; allocate one per
    /// thread for parallel work.
    pub fn scratch(&self) -> MontScratch {
        MontScratch {
            acc: vec![0u64; self.k],
            tmp: vec![0u64; self.k],
        }
    }

    /// Converts `a < n` into Montgomery form (`a · R mod n`).
    pub fn to_mont(&self, a: &Ubig, s: &mut MontScratch) -> Ubig {
        debug_assert!(a < &self.n);
        self.mont_mul(a, &self.r2_mod_n, s)
    }

    /// Converts a Montgomery-form residue back to the ordinary range: a
    /// reduction pass alone, with no multiplication.
    pub fn from_mont(&self, a: &Ubig, s: &mut MontScratch) -> Ubig {
        s.fit(self.k);
        copy_padded(&mut s.acc, a.as_limbs());
        let mut out = vec![0u64; self.k];
        let a = &s.acc;
        self.fips(&mut out, |i, ms, ns| {
            let x = a.get(i).copied().unwrap_or(0);
            let mut col = Column {
                lo: u128::from(x),
                hi: 0,
            };
            for (&m, &nj) in ms.iter().zip(ns.iter().rev()) {
                col.mac(m, nj);
            }
            col
        });
        Ubig::from_limbs(out)
    }

    /// The Montgomery form of 1 (`R mod n`) — the neutral element for
    /// [`MontCtx::mont_mul`] chains and the zero-digit table entry.
    pub fn one_mont(&self) -> Ubig {
        self.r_mod_n.clone()
    }

    /// REDC(a·b): `a · b · R⁻¹ mod n` for Montgomery-form operands. The
    /// scratch pads narrow operands, so the only allocation is the result.
    pub fn mont_mul(&self, a: &Ubig, b: &Ubig, s: &mut MontScratch) -> Ubig {
        s.fit(self.k);
        copy_padded(&mut s.acc, a.as_limbs());
        copy_padded(&mut s.tmp, b.as_limbs());
        let mut out = vec![0u64; self.k];
        self.mont_mul_into(&s.acc, &s.tmp, &mut out);
        Ubig::from_limbs(out)
    }

    /// REDC(a²): `a² · R⁻¹ mod n` for a Montgomery-form operand, equal to
    /// `mont_mul(a, a, s)`. Moduli of 40 limbs and more take the
    /// dedicated squaring kernel; narrower ones multiply.
    pub fn mont_sqr(&self, a: &Ubig, s: &mut MontScratch) -> Ubig {
        s.fit(self.k);
        copy_padded(&mut s.acc, a.as_limbs());
        let mut out = vec![0u64; self.k];
        self.mont_sqr_into(&s.acc, &mut out);
        Ubig::from_limbs(out)
    }

    /// REDC(a·b) via the original allocating path: fresh product vector,
    /// `resize`, `to_vec`. Kept verbatim as the differential baseline the
    /// kernels are property-tested against; no hot path uses it.
    pub fn mont_mul_reference(&self, a: &Ubig, b: &Ubig) -> Ubig {
        bump_mul_count();
        let k = self.k;
        let nl = self.n.as_limbs();
        // t = a * b, extended to 2k+1 limbs for reduction carries.
        let mut t = mul_limbs(a.as_limbs(), b.as_limbs());
        t.resize(2 * k + 1, 0);

        for i in 0..k {
            let m = t[i].wrapping_mul(self.n0_inv);
            // t += m * n << (64*i)
            let mut carry = 0u128;
            for (j, &nj) in nl.iter().enumerate() {
                let cur = t[i + j] as u128 + m as u128 * nj as u128 + carry;
                t[i + j] = cur as u64;
                carry = cur >> 64;
            }
            let mut idx = i + k;
            while carry != 0 {
                let cur = t[idx] as u128 + carry;
                t[idx] = cur as u64;
                carry = cur >> 64;
                idx += 1;
            }
        }

        // Result is t >> (64*k), at most one subtraction from n away.
        let mut res: Vec<u64> = t[k..].to_vec();
        if ge_slices(&res, nl) {
            let borrow = sub_assign_slice(&mut res, nl);
            debug_assert_eq!(borrow, 0);
        }
        Ubig::from_limbs(res)
    }

    /// REDC(a·b) into `out`. All three slices are exactly `k` limbs (the
    /// operands zero-padded, values < n); `out` receives the value < n.
    /// Moduli of at most [`NARROW_MAX_LIMBS`] limbs take the narrow
    /// kernel, wider ones the fused product-scanning multiply.
    pub(crate) fn mont_mul_into(&self, a: &[u64], b: &[u64], out: &mut [u64]) {
        let k = self.k;
        let (a, b) = (&a[..k], &b[..k]);
        bump_mul_count();
        if !self.narrow_mul_into(a, b, out) {
            self.fused_mul_into(a, b, out);
        }
    }

    /// The narrow tier: [`cios_mul`] instantiated at the context's width,
    /// picked by `k` alone. Returns `false`, leaving `out` untouched, for
    /// moduli wider than [`NARROW_MAX_LIMBS`].
    fn narrow_mul_into(&self, a: &[u64], b: &[u64], out: &mut [u64]) -> bool {
        let n = self.n.as_limbs();
        macro_rules! widths {
            ($($w:literal)*) => {
                match self.k {
                    $($w => cios_mul::<$w>(a, b, n, self.n0_inv, out),)*
                    _ => false,
                }
            };
        }
        widths!(1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20 21 22)
    }

    /// The fused tier's multiply: one product-scanning pass.
    fn fused_mul_into(&self, a: &[u64], b: &[u64], out: &mut [u64]) {
        let k = self.k;
        self.fips(out, |i, ms, ns| {
            // Column i of a·b holds aⱼ·bᵢ₋ⱼ for j in [lo, hi); the b limbs
            // span the same range, read downwards. Its first l terms share
            // a loop with the l m·n terms, in a second accumulator so the
            // two carry chains overlap; below column k one term, aᵢ·b₀,
            // is left over.
            let (lo, hi) = ((i + 1).saturating_sub(k), (i + 1).min(k));
            let l = ms.len();
            let (xs, ys, ns) = (&a[lo..lo + l], &b[hi - l..hi], &ns[..l]);
            let (mut ab, mut mn) = (Column::default(), Column::default());
            for j in 0..l {
                ab.mac(xs[j], ys[l - 1 - j]);
                mn.mac(ms[j], ns[l - 1 - j]);
            }
            if i < k {
                ab.mac(a[i], b[0]);
            }
            ab.add(mn);
            ab
        });
    }

    /// REDC(a²) into `out`, with the same width contract as
    /// [`MontCtx::mont_mul_into`]: the squaring kernel, or the multiply
    /// (narrow or fused, by width) for moduli narrower than
    /// [`SQR_MIN_LIMBS`].
    pub(crate) fn mont_sqr_into(&self, a: &[u64], out: &mut [u64]) {
        if self.k < SQR_MIN_LIMBS {
            self.mont_mul_into(a, a, out);
        } else {
            self.fused_sqr_into(a, out);
        }
    }

    /// The squaring kernel. Each cross product aⱼ·aᵢ₋ⱼ (j < i − j) is
    /// computed once and doubled, then the column's square term is
    /// added: about ¾ of a multiply's limb products.
    fn fused_sqr_into(&self, a: &[u64], out: &mut [u64]) {
        let k = self.k;
        let a = &a[..k];
        bump_mul_count();
        self.fips(out, |i, ms, ns| {
            // Column i has c cross products (lo ≤ j < i − j) and l m·n
            // terms, where c is ⌊l/2⌋ or ⌈l/2⌉. One loop of h = ⌊l/2⌋
            // steps takes a cross product and one m·n term from each half
            // of the column, in three accumulators; the leftover cross
            // product and m·n term follow it.
            let lo = (i + 1).saturating_sub(k);
            let c = i.div_ceil(2) - lo;
            let l = ms.len();
            let h = l / 2;
            let (xs, ys) = (&a[lo..lo + h], &a[i + 1 - lo - h..i + 1 - lo]);
            let (m1, n1) = (&ms[..h], &ns[l - h..]);
            let (m2, n2) = (&ms[h..2 * h], &ns[l - 2 * h..l - h]);
            let mut cross = Column::default();
            let (mut mn1, mut mn2) = (Column::default(), Column::default());
            for j in 0..h {
                cross.mac(xs[j], ys[h - 1 - j]);
                mn1.mac(m1[j], n1[h - 1 - j]);
                mn2.mac(m2[j], n2[h - 1 - j]);
            }
            if c > h {
                cross.mac(a[lo + h], a[i - lo - h]);
            }
            if l % 2 == 1 {
                mn1.mac(ms[l - 1], ns[0]);
            }
            cross.double();
            if i % 2 == 0 {
                cross.mac(a[i / 2], a[i / 2]);
            }
            cross.add(mn1);
            cross.add(mn2);
            cross
        });
    }

    /// One fused product-scanning pass: `out ← (x + m·n) / R`, reduced
    /// below n. For each column `i` of the `2k`-limb sum (`0 ≤ i < 2k`),
    /// `column(i, ms, ns)` returns the column's terms: those of the
    /// operand product `x`, plus `ms[j] · ns[ns.len() − 1 − j]` for every
    /// `j` — the column's m·n terms, with `ms` and `ns` of equal length.
    ///
    /// While `i < k` the pass then picks `mᵢ` so the column's low limb
    /// cancels and parks it in `out[i]`. From column `k` on, each
    /// column's low limb is a result limb, written to the slot whose `m`
    /// the remaining columns no longer read. Every limb product runs for
    /// every input: the loop bounds depend only on `k`.
    #[inline(always)]
    fn fips(&self, out: &mut [u64], column: impl Fn(usize, &[u64], &[u64]) -> Column) {
        let k = self.k;
        let n = self.n.as_limbs();
        let out = &mut out[..k];
        let mut t = Column::default();
        for i in 0..k {
            t.add(column(i, &out[..i], &n[1..=i]));
            let m = t.low().wrapping_mul(self.n0_inv);
            t.mac(m, n[0]);
            out[i] = m;
            t.shift();
        }
        for i in k..2 * k {
            let lo = i + 1 - k;
            t.add(column(i, &out[lo..], &n[lo..]));
            out[i - k] = t.shift();
        }
        // The sum is below 2n < 2R, so one limb of it is left: 0 or 1.
        reduce_once(out, n, t.low());
    }

    /// `base^exp mod n` using fixed-window exponentiation in Montgomery
    /// form, with the window width adapted to the exponent's bit length.
    ///
    /// Every window multiplies unconditionally — zero windows multiply by
    /// the Montgomery form of 1 instead of being skipped — so the
    /// multiplication count depends only on `exp.bit_len()`, not on which
    /// exponent bits are set (the square-and-multiply timing leak).
    ///
    /// A batch of one [`MontCtx::pow_many`]: on a CPU with AVX-512 IFMA,
    /// moduli of 11 to 64 limbs take the single-number IFMA ladder, and
    /// every other power the scalar tiers. `base` need not be reduced.
    pub fn pow(&self, base: &Ubig, exp: &Ubig) -> Ubig {
        self.pow_many(std::slice::from_ref(base), exp)
            .pop()
            .unwrap_or_default()
    }

    /// [`MontCtx::pow`] on the scalar tiers alone, reusing caller-provided
    /// scratch: what `pow` runs where no IFMA tier does, and the ladder
    /// the kernel gates time the IFMA tiers against. Not a stable API.
    #[doc(hidden)]
    pub fn pow_with(&self, base: &Ubig, exp: &Ubig, s: &mut MontScratch) -> Ubig {
        // Guard on exponent *presence* only; secret exponents (λ, p−1,
        // q−1, n) are never zero, so this branch is taken solely for
        // public zero-exponent calls.
        // pisa-lint: allow(secret-branching): the branch reveals only whether the exponent is zero, and no secret exponent (λ, p−1, q−1, d) is
        if exp.is_zero() {
            return Ubig::one() % &self.n;
        }
        // Skip the reduction division when the base is already < n —
        // matrix entries, table outputs and pooled randomizers always are.
        let reduced;
        let base = if base < &self.n {
            base
        } else {
            reduced = base % &self.n;
            &reduced
        };
        let base_m = self.to_mont(base, s);
        let acc_m = self.pow_mont(&base_m, exp, s);
        self.from_mont(&acc_m, s)
    }

    /// The scalar ladder of [`MontCtx::pow_with`]: `base_m^exp` for a
    /// base already in Montgomery form, returning the result still in
    /// Montgomery form.
    ///
    /// The window width is chosen from `exp.bit_len()` alone and every
    /// window multiplies unconditionally, so the multiplication count is
    /// a pure function of the exponent's bit length (constant shape).
    fn pow_mont(&self, base_m: &Ubig, exp: &Ubig, s: &mut MontScratch) -> Ubig {
        let bits = exp.bit_len();
        // Zero-exponent guard; see `pow_with`.
        if bits == 0 {
            return self.one_mont();
        }
        let k = self.k;
        s.fit(k);
        // Selects on the exponent's *bit length* only — public for every
        // exponent in the protocol (n has the key width, λ-derived
        // exponents the prime width) — never on which bits are set.
        let w = window_width(bits);
        let table_len = 1usize << w;

        // Flat fixed-width table: entry d at [d*k, (d+1)*k) holds
        // base^d in Montgomery form. One allocation per exponentiation.
        let mut table = vec![0u64; table_len * k];
        copy_padded(&mut table[..k], self.r_mod_n.as_limbs());
        copy_padded(&mut table[k..2 * k], base_m.as_limbs());
        for d in 2..table_len {
            let (lo, hi) = table.split_at_mut(d * k);
            self.mont_mul_into(&lo[(d - 1) * k..], &lo[k..2 * k], &mut hi[..k]);
        }

        let windows = bits.div_ceil(w);
        let top = digit(exp, windows - 1, w);
        s.acc.copy_from_slice(&table[top * k..(top + 1) * k]);
        for win in (0..windows - 1).rev() {
            for _ in 0..w {
                self.mont_sqr_into(&s.acc, &mut s.tmp);
                std::mem::swap(&mut s.acc, &mut s.tmp);
            }
            // Zero digits multiply by table[0] (the Montgomery 1) instead
            // of being skipped: the count stays a function of bit length.
            let d = digit(exp, win, w);
            self.mont_mul_into(&s.acc, &table[d * k..(d + 1) * k], &mut s.tmp);
            std::mem::swap(&mut s.acc, &mut s.tmp);
        }
        Ubig::from_limbs(s.acc.clone())
    }

    /// `a * b mod n` for already-reduced operands, via Montgomery form.
    pub fn mul(&self, a: &Ubig, b: &Ubig) -> Ubig {
        let mut s = self.scratch();
        let am = self.to_mont(a, &mut s);
        let bm = self.to_mont(b, &mut s);
        let prod_m = self.mont_mul(&am, &bm, &mut s);
        self.from_mont(&prod_m, &mut s)
    }
}

impl crate::zeroize::Zeroize for MontCtx {
    /// Wipes the modulus and precomputed residues, the IFMA tiers' among
    /// them. A context built for a secret modulus (`p²`, `q²` in CRT
    /// decryption) reveals that modulus, so secret-key `Drop` impls wipe
    /// their contexts too.
    fn zeroize(&mut self) {
        self.n.zeroize();
        self.r_mod_n.zeroize();
        self.r2_mod_n.zeroize();
        if let Some(mut radix52) = self.radix52.take() {
            radix52.zeroize();
        }
        self.n0_inv.zeroize();
        self.k.zeroize();
    }
}

/// Window width for an exponent of the given bit length, a pure function
/// of the public bit length.
///
/// The tiers minimise the kernel cost of `pow_mont` for `b` bits and
/// width `w`, counting a squaring as 0.7 of a multiply (the squaring
/// kernel does about ¾ of a multiply's limb products):
///
/// ```text
/// cost(w) = (2^w − 2) + (⌈b/w⌉ − 1) + 0.7 · w · (⌈b/w⌉ − 1)
///           table       ladder        ladder
///           multiplies  multiplies    squarings
/// ```
///
/// Each tier starts at the bit length from which the wider window is
/// never costlier than the one below it. The ladder always squares about
/// `b` times, so the ratio barely matters: at 0.9, or at 1.0 for moduli
/// below [`SQR_MIN_LIMBS`] whose squares are multiplies, only the w = 6
/// tier moves, to 1076 bits. For the protocol's 2048-bit `rⁿ` (w = 6) the
/// model gives 6 % fewer kernel operations than w = 4, and 4 % fewer for
/// the 1024-bit CRT exponents (w = 5). Six is the widest tier: the
/// protocol's longest exponents have 2048 bits.
pub(super) fn window_width(bits: usize) -> usize {
    match bits {
        0..=3 => 1,
        4..=28 => 2,
        29..=117 => 3,
        118..=376 => 4,
        377..=1045 => 5,
        _ => 6,
    }
}

/// Extracts the `idx`-th `w`-bit digit of `e` (little-endian digit order).
pub(super) fn digit(e: &Ubig, idx: usize, w: usize) -> usize {
    let bit = idx * w;
    let limb = bit / 64;
    let off = bit % 64;
    let limbs = e.as_limbs();
    let lo = limbs.get(limb).copied().unwrap_or(0) >> off;
    let val = if off + w > 64 {
        lo | (limbs.get(limb + 1).copied().unwrap_or(0) << (64 - off))
    } else {
        lo
    };
    val as usize & ((1 << w) - 1)
}

/// Copies `src` into `dst` and zero-fills the remaining high limbs.
pub(super) fn copy_padded(dst: &mut [u64], src: &[u64]) {
    dst[..src.len()].copy_from_slice(src);
    dst[src.len()..].fill(0);
}

/// A column sum for product scanning: `lo` holds the low two limbs,
/// `hi` the third. A column gathers at most `2k + 1` limb products plus
/// the carry from the column before, far below 2¹⁹² for any width.
#[derive(Clone, Copy, Default)]
struct Column {
    lo: u128,
    hi: u64,
}

impl Column {
    /// Adds the limb product `a · b`.
    #[inline(always)]
    fn mac(&mut self, a: u64, b: u64) {
        let (lo, carry) = self.lo.overflowing_add(u128::from(a) * u128::from(b));
        self.lo = lo;
        self.hi = self.hi.wrapping_add(u64::from(carry));
    }

    /// Adds another column sum.
    #[inline(always)]
    fn add(&mut self, other: Column) {
        let (lo, carry) = self.lo.overflowing_add(other.lo);
        self.lo = lo;
        self.hi = self
            .hi
            .wrapping_add(other.hi)
            .wrapping_add(u64::from(carry));
    }

    /// Doubles the sum (a one-bit shift across the three limbs).
    #[inline(always)]
    fn double(&mut self) {
        self.hi = (self.hi << 1) | (self.lo >> 127) as u64;
        self.lo <<= 1;
    }

    /// The low limb.
    #[inline(always)]
    fn low(&self) -> u64 {
        self.lo as u64
    }

    /// Returns the low limb and shifts the sum down one limb, leaving the
    /// carry into the next column.
    #[inline(always)]
    fn shift(&mut self) -> u64 {
        let low = self.lo as u64;
        self.lo = (self.lo >> 64) | (u128::from(self.hi) << 64);
        self.hi = 0;
        low
    }
}

/// A CIOS (coarsely integrated operand scanning) Montgomery multiply at
/// the compile-time width `K`: `out ← a·b·R⁻¹ mod n` for `a, b < n`.
///
/// Each of the `K` rounds adds `a·bᵢ` to the running sum `t`, then adds
/// the multiple `m·n` that clears its low limb and shifts `t` down one
/// limb. With `a, b < n` the sum stays below 2n after every round, so it
/// fits `K` limbs plus a top carry of 0 or 1, which [`reduce_once`]
/// takes in. Every loop bound is `K`, so the compiler unrolls the limb
/// loops, and every limb product runs for every input.
///
/// Returns `false`, leaving `out` untouched, unless all four slices are
/// `K` limbs.
fn cios_mul<const K: usize>(a: &[u64], b: &[u64], n: &[u64], n0_inv: u64, out: &mut [u64]) -> bool {
    let (Ok(a), Ok(b), Ok(n), Ok(out)) = (
        <&[u64; K]>::try_from(a),
        <&[u64; K]>::try_from(b),
        <&[u64; K]>::try_from(n),
        <&mut [u64; K]>::try_from(out),
    ) else {
        return false;
    };
    let mut t = [0u64; K];
    let mut top = 0u64;
    for &bi in b {
        // t += a·bᵢ, which carries into `top` and one bit above it.
        let mut carry = 0;
        for j in 0..K {
            (t[j], carry) = mac(t[j], a[j], bi, carry);
        }
        let (hi, over) = top.overflowing_add(carry);
        // t += m·n clears the low limb, and t shifts down one limb.
        let m = t[0].wrapping_mul(n0_inv);
        let (_, mut carry) = mac(t[0], m, n[0], 0);
        for j in 1..K {
            (t[j - 1], carry) = mac(t[j], m, n[j], carry);
        }
        let (hi, over2) = hi.overflowing_add(carry);
        t[K - 1] = hi;
        top = u64::from(over) + u64::from(over2);
    }
    *out = t;
    reduce_once(out, n, top);
    true
}

/// `t + a·b + carry` as a low limb and a carry limb; it cannot overflow
/// two limbs.
#[inline(always)]
fn mac(t: u64, a: u64, b: u64, carry: u64) -> (u64, u64) {
    let s = u128::from(t) + u128::from(a) * u128::from(b) + u128::from(carry);
    (s as u64, (s >> 64) as u64)
}

/// Brings `t = carry · R + out`, known to be below 2n, under n without a
/// data-dependent branch. `t − n` is always computed in full; `t ≥ n`
/// exactly when the top carry is set or `out − n` does not borrow (a set
/// carry always borrows, as `t − n < R`). That bit becomes an all-ones
/// or all-zeros mask, and the second pass subtracts `n & mask`, so the
/// same instructions run whichever way the choice falls — the extra
/// reduction is the Schindler timing channel on CRT exponentiation.
pub(super) fn reduce_once(out: &mut [u64], n: &[u64], carry: u64) {
    let mut borrow = 0u64;
    for (&x, &y) in out.iter().zip(n) {
        borrow = sub_borrow(x, y, borrow).1;
    }
    // Keep t only when out − n borrowed and no carry was set.
    let mask = (borrow ^ carry).wrapping_sub(1);
    let mut borrow = 0u64;
    for (x, &y) in out.iter_mut().zip(n) {
        let (d, b) = sub_borrow(*x, y & mask, borrow);
        *x = d;
        borrow = b;
    }
}

/// `x − y − borrow` and the borrow out, both as limbs.
#[inline(always)]
fn sub_borrow(x: u64, y: u64, borrow: u64) -> (u64, u64) {
    let (d, b1) = x.overflowing_sub(y);
    let (d, b2) = d.overflowing_sub(borrow);
    (d, u64::from(b1 | b2))
}

/// Compares two little-endian limb slices (possibly unnormalized).
fn ge_slices(a: &[u64], b: &[u64]) -> bool {
    let alen = effective_len(a);
    let blen = effective_len(b);
    if alen != blen {
        return alen > blen;
    }
    for i in (0..alen).rev() {
        if a[i] != b[i] {
            return a[i] > b[i];
        }
    }
    true
}

fn effective_len(a: &[u64]) -> usize {
    let mut len = a.len();
    while len > 0 && a[len - 1] == 0 {
        len -= 1;
    }
    len
}

/// Inverse of an odd limb modulo 2⁶⁴ by Newton–Hensel lifting.
pub(super) fn inv_limb(x: u64) -> u64 {
    debug_assert!(x & 1 == 1);
    let mut inv = x; // correct mod 2^3 for odd x
    for _ in 0..5 {
        inv = inv.wrapping_mul(2u64.wrapping_sub(x.wrapping_mul(inv)));
    }
    debug_assert_eq!(x.wrapping_mul(inv), 1);
    inv
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_even_and_trivial_moduli() {
        assert!(MontCtx::new(&Ubig::from(10u64)).is_none());
        assert!(MontCtx::new(&Ubig::zero()).is_none());
        assert!(MontCtx::new(&Ubig::one()).is_none());
        assert!(MontCtx::new(&Ubig::from(9u64)).is_some());
    }

    #[test]
    fn inv_limb_small() {
        for x in [1u64, 3, 5, 0xdeadbeef | 1, u64::MAX] {
            assert_eq!(x.wrapping_mul(inv_limb(x)), 1);
        }
    }

    #[test]
    fn pow_matches_naive_small() {
        let n = Ubig::from(1000003u64);
        let ctx = MontCtx::new(&n).unwrap();
        for base in [0u64, 1, 2, 999, 1000002] {
            for exp in [0u64, 1, 2, 3, 17, 65537] {
                let expected = naive_pow(base, exp, 1000003);
                assert_eq!(
                    ctx.pow(&Ubig::from(base), &Ubig::from(exp)),
                    Ubig::from(expected),
                    "{base}^{exp}"
                );
            }
        }
    }

    #[test]
    fn pow_with_unreduced_base() {
        let n = Ubig::from(101u64);
        let ctx = MontCtx::new(&n).unwrap();
        assert_eq!(
            ctx.pow(&Ubig::from(102u64), &Ubig::from(5u64)),
            Ubig::from(1u64)
        );
    }

    #[test]
    fn mul_matches_mod() {
        let n = Ubig::from(999999937u64);
        let ctx = MontCtx::new(&n).unwrap();
        let a = Ubig::from(123456789u64);
        let b = Ubig::from(987654321u64);
        assert_eq!(ctx.mul(&a, &b), (&a * &b) % &n);
    }

    #[test]
    fn multi_limb_fermat() {
        // 2^127 - 1 is a Mersenne prime spanning two limbs.
        let p = (Ubig::one() << 127) - Ubig::one();
        let ctx = MontCtx::new(&p).unwrap();
        let exp = &p - &Ubig::one();
        assert_eq!(ctx.pow(&Ubig::from(3u64), &exp), Ubig::one());
    }

    #[test]
    fn scratch_kernel_matches_reference() {
        let p = (Ubig::one() << 127) - Ubig::one();
        let ctx = MontCtx::new(&p).unwrap();
        let mut s = ctx.scratch();
        let mut x = Ubig::from(0x9e3779b97f4a7c15u64);
        for _ in 0..20 {
            let y = (&x * &x + Ubig::one()) % &p;
            assert_eq!(ctx.mont_mul(&x, &y, &mut s), ctx.mont_mul_reference(&x, &y));
            assert_eq!(ctx.mont_sqr(&x, &mut s), ctx.mont_mul_reference(&x, &x));
            x = y;
        }
    }

    /// `reduce_once` on unreduced values just below n, exactly n, just
    /// above, and up to 2n − 1, for a modulus whose 2n overflows R (top
    /// limb `u64::MAX`, so the carry limb is set) and one whose 2n fits.
    #[test]
    fn final_subtraction_lands_exactly() {
        let r = Ubig::one() << 128;
        for n in [
            &r - &Ubig::from(159u64),
            (Ubig::one() << 65) + Ubig::from(3u64),
        ] {
            let one = Ubig::one();
            let twice = &n + &n;
            for t in [
                Ubig::zero(),
                &n - &one,
                n.clone(),
                &n + &one,
                &twice - &Ubig::from(2u64),
                &twice - &one,
            ] {
                let mut limbs = t.as_limbs().to_vec();
                limbs.resize(3, 0);
                let mut out = limbs[..2].to_vec();
                reduce_once(&mut out, n.as_limbs(), limbs[2]);
                assert_eq!(Ubig::from_limbs(out), &t % &n, "t = {t:?}, n = {n:?}");
            }
        }
    }

    /// Through the whole kernel: `from_mont(n)` sums to exactly n before
    /// the final subtraction (m = R − 1), and operands just below an n
    /// close to R drive the unreduced sums of the narrow multiply (at 2
    /// limbs and at the narrow ceiling) and of the fused multiply and
    /// squaring kernel (at [`SQR_MIN_LIMBS`]) across [n, 2n), past R, up
    /// to within n/64 of 2n.
    #[test]
    fn kernels_reduce_sums_between_n_and_2n() {
        for k in [2usize, NARROW_MAX_LIMBS, SQR_MIN_LIMBS] {
            let r = Ubig::one() << (64 * k);
            let n = &r - &Ubig::from(159u64);
            let ctx = MontCtx::new(&n).unwrap();
            let mut s = ctx.scratch();
            assert_eq!(ctx.from_mont(&n, &mut s), Ubig::zero());

            // m = x·y·(−n⁻¹) mod R picks the reduction multiple; t is the
            // sum the kernel reduces.
            let n_neg_inv = &r - &crate::modular::mod_inverse(&n, &r).unwrap();
            let unreduced = |x: &Ubig, y: &Ubig| {
                let xy = x * y;
                let m = &(&(&xy % &r) * &n_neg_inv) % &r;
                (&xy + &(&m * &n)) >> (64 * k)
            };
            let mut highest = Ubig::zero();
            for d in 1..100u64 {
                let a = &n - &Ubig::from(d);
                let b = &n - &Ubig::from(d * d % 157 + 1);
                for t in [unreduced(&a, &b), unreduced(&a, &a)] {
                    assert!(t >= n && t < &n + &n, "k = {k}, d = {d}");
                    highest = highest.max(t);
                }
                assert_eq!(ctx.mont_mul(&a, &b, &mut s), ctx.mont_mul_reference(&a, &b));
                assert_eq!(ctx.mont_sqr(&a, &mut s), ctx.mont_mul_reference(&a, &a));
            }
            assert!(highest > &(&n + &n) - &(&n >> 6), "k = {k}: never near 2n");
        }
    }

    /// The narrow tier takes every width up to [`NARROW_MAX_LIMBS`] and
    /// none above it, and agrees with the fused multiply wherever it runs.
    #[test]
    fn narrow_tier_covers_every_width_up_to_the_ceiling() {
        for k in 1..=NARROW_MAX_LIMBS + 1 {
            let n = (Ubig::one() << (64 * k)) - Ubig::from(159u64);
            let ctx = MontCtx::new(&n).unwrap();
            let a = (&n - &Ubig::from(5u64)).as_limbs().to_vec();
            let b = (&n >> 1).as_limbs().to_vec();
            let (mut narrow, mut fused) = (vec![0u64; k], vec![0u64; k]);
            let took = ctx.narrow_mul_into(&a, &b, &mut narrow);
            assert_eq!(took, k <= NARROW_MAX_LIMBS, "k = {k}");
            ctx.fused_mul_into(&a, &b, &mut fused);
            if took {
                assert_eq!(narrow, fused, "k = {k}");
            }
        }
    }

    /// `cios_mul::<K>` runs only when all four slices have `K` limbs: one
    /// slice a limb short or long makes it return `false` with `out` as
    /// it was, so a width mismatch falls through to the fused multiply.
    #[test]
    fn cios_mul_declines_slices_of_another_width() {
        let n = (Ubig::one() << 256) - Ubig::from(159u64);
        let ctx = MontCtx::new(&n).unwrap();
        let a = (&n - &Ubig::from(5u64)).as_limbs().to_vec();
        let b = (&n >> 1).as_limbs().to_vec();
        let nl = n.as_limbs().to_vec();
        for bad in 0..4 {
            for len in [3usize, 5] {
                let resized = |v: &[u64], slot: usize| {
                    let mut v = v.to_vec();
                    if slot == bad {
                        v.resize(len, 1);
                    }
                    v
                };
                let mut out = resized(&[0xa5a5_a5a5_a5a5_a5a5; 4], 3);
                let before = out.clone();
                let (a, b, nl) = (resized(&a, 0), resized(&b, 1), resized(&nl, 2));
                let took = cios_mul::<4>(&a, &b, &nl, ctx.n0_inv, &mut out);
                assert!(!took, "slice {bad} at {len} limbs");
                assert_eq!(out, before, "slice {bad} at {len} limbs");
            }
        }
        let (mut narrow, mut fused) = (vec![0u64; 4], vec![0u64; 4]);
        assert!(cios_mul::<4>(&a, &b, &nl, ctx.n0_inv, &mut narrow));
        ctx.fused_mul_into(&a, &b, &mut fused);
        assert_eq!(narrow, fused);
    }

    /// On every tier (narrow multiply, fused multiply, squaring kernel)
    /// `to_mont`, `mont_mul` and `mont_sqr` count one Montgomery
    /// multiplication each, and `from_mont`, a reduction alone, none.
    #[test]
    fn every_kernel_call_counts_once_on_both_tiers() {
        for k in [
            1usize,
            6,
            12,
            NARROW_MAX_LIMBS,
            NARROW_MAX_LIMBS + 1,
            SQR_MIN_LIMBS,
        ] {
            let n = (Ubig::one() << (64 * k)) - Ubig::from(159u64);
            let ctx = MontCtx::new(&n).unwrap();
            let mut s = ctx.scratch();
            reset_mont_mul_count();
            let am = ctx.to_mont(&(&n >> 3), &mut s);
            assert_eq!(mont_mul_count(), 1, "to_mont, k = {k}");
            ctx.mont_mul(&am, &ctx.one_mont(), &mut s);
            assert_eq!(mont_mul_count(), 2, "mont_mul, k = {k}");
            ctx.mont_sqr(&am, &mut s);
            assert_eq!(mont_mul_count(), 3, "mont_sqr, k = {k}");
            ctx.from_mont(&am, &mut s);
            assert_eq!(mont_mul_count(), 3, "from_mont, k = {k}");
        }
    }

    /// `pow` costs exactly what the window model in [`window_width`]
    /// counts, on every tier and in every window tier: one `to_mont`,
    /// 2ʷ − 2 table products, and w squarings plus one multiply per
    /// window below the top one. The single tier runs the same model, and
    /// so does `pow` whichever tier it takes. A `pow_many` group of b
    /// bases counts exactly b times the model of its ladder: `pow`'s
    /// window on the scalar path, the capped lane window on the lane path
    /// (the IFMA tiers checked where the CPU has them).
    #[test]
    fn pow_count_follows_the_window_model_on_both_tiers() {
        use super::super::lanes::{lane_window, pow_lanes, pow_scalar, pow_single, Ifma};
        let model = |bits: usize, w: usize| 1 + ((1 << w) - 2) + (bits.div_ceil(w) - 1) * (w + 1);
        let ifma = Ifma::detect();
        for k in [
            6usize,
            12,
            NARROW_MAX_LIMBS,
            NARROW_MAX_LIMBS + 1,
            SQR_MIN_LIMBS,
            64,
        ] {
            let n = (Ubig::one() << (64 * k)) - Ubig::from(159u64);
            let ctx = MontCtx::new(&n).unwrap();
            for bits in [1usize, 3, 17, 65, 127, 500, 1100] {
                let exp = (Ubig::one() << (bits - 1)) + Ubig::from(bits as u64 >> 1);
                let expected = model(bits, window_width(bits)) as u64;
                reset_mont_mul_count();
                ctx.pow(&Ubig::from(3u64), &exp);
                assert_eq!(mont_mul_count(), expected, "k = {k}, bits = {bits}");
                reset_mont_mul_count();
                ctx.pow_with(&Ubig::from(3u64), &exp, &mut ctx.scratch());
                assert_eq!(mont_mul_count(), expected, "scalar, k = {k}, bits = {bits}");
                if let Some(ifma) = ifma {
                    reset_mont_mul_count();
                    pow_single(ifma, &ctx, &Ubig::from(3u64), &exp);
                    assert_eq!(mont_mul_count(), expected, "single, k = {k}, bits = {bits}");
                }
                for b in [1u64, 3, 8] {
                    let group: Vec<Ubig> = (1..=b).map(|i| &n >> i as usize).collect();
                    reset_mont_mul_count();
                    pow_scalar(&ctx, &group, &exp, &mut None).for_each(drop);
                    assert_eq!(
                        mont_mul_count(),
                        b * expected,
                        "scalar, k = {k}, bits = {bits}, {b}"
                    );
                    if let Some(ifma) = ifma {
                        reset_mont_mul_count();
                        pow_lanes(ifma, &ctx, &group, &exp);
                        let lanes = b * model(bits, lane_window(bits)) as u64;
                        assert_eq!(
                            mont_mul_count(),
                            lanes,
                            "lanes, k = {k}, bits = {bits}, {b}"
                        );
                    }
                }
            }
        }
    }

    /// Every window tier of `pow` against square-and-multiply at the
    /// protocol's narrow widths (6 and 12 limbs), at the narrow ceiling
    /// and at the first fused width, for a modulus just below R and one
    /// just above R/2.
    #[test]
    fn all_window_widths_agree_with_naive_on_both_tiers() {
        for k in [6usize, 12, NARROW_MAX_LIMBS, NARROW_MAX_LIMBS + 1] {
            let r = Ubig::one() << (64 * k);
            for n in [&r - &Ubig::from(159u64), (&r >> 1) + Ubig::from(159u64)] {
                let ctx = MontCtx::new(&n).unwrap();
                let base = &n / &Ubig::from(3u64);
                for bits in [3usize, 17, 65, 127, 500, 1100] {
                    let exp = (Ubig::one() << (bits - 1)) + Ubig::from(0b1011u64);
                    let expect = naive_square_multiply(&base, &exp, &n);
                    assert_eq!(ctx.pow(&base, &exp), expect, "k = {k}, bits {bits}");
                }
            }
        }
    }

    /// `mont_mul` of a plain value by a Montgomery-form one is the plain
    /// product, REDC(x · yR) = x·y mod n, at every narrow width and on
    /// both fused kernels' widths: the identity the Paillier encryption
    /// core uses to multiply gᵐ by the Montgomery-form rⁿ in one call.
    #[test]
    fn mont_mul_by_a_montgomery_form_is_the_plain_product() {
        for k in (1..=NARROW_MAX_LIMBS + 1).chain([SQR_MIN_LIMBS]) {
            let n = (Ubig::one() << (64 * k)) - Ubig::from(159u64);
            let ctx = MontCtx::new(&n).unwrap();
            let mut s = ctx.scratch();
            let (x, y) = (&n - &Ubig::from(2u64), &n >> 1);
            let ym = ctx.to_mont(&y, &mut s);
            assert_eq!(ctx.mont_mul(&x, &ym, &mut s), (&x * &y) % &n, "k = {k}");
            assert_eq!(ctx.mont_mul(&x, &ctx.one_mont(), &mut s), x, "k = {k}");
        }
    }

    /// The squaring kernel itself, at every width from one limb up and
    /// around [`SQR_MIN_LIMBS`], including the widths `mont_sqr` sends
    /// through the multiply: random operands and 0, 1, n − 1.
    #[test]
    fn fused_squaring_matches_reference_at_every_width() {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut limbs = |count: usize| -> Vec<u64> {
            (0..count)
                .map(|_| {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    x
                })
                .collect()
        };
        for k in (1..=13).chain([SQR_MIN_LIMBS - 1, SQR_MIN_LIMBS, SQR_MIN_LIMBS + 1]) {
            let mut nl = limbs(k);
            nl[0] |= 1;
            nl[k - 1] = nl[k - 1].max(2);
            let n = Ubig::from_limbs(nl);
            let ctx = MontCtx::new(&n).unwrap();
            let mut out = vec![0u64; k];
            let mut padded = vec![0u64; k];
            let random = Ubig::from_limbs(limbs(k)) % &n;
            for a in [Ubig::zero(), Ubig::one(), &n - &Ubig::one(), random] {
                copy_padded(&mut padded, a.as_limbs());
                ctx.fused_sqr_into(&padded, &mut out);
                let got = Ubig::from_limbs(out.clone());
                assert_eq!(got, ctx.mont_mul_reference(&a, &a), "k = {k}");
            }
        }
    }

    #[test]
    fn mont_form_round_trip_and_chain() {
        let p = (Ubig::one() << 127) - Ubig::one();
        let ctx = MontCtx::new(&p).unwrap();
        let mut s = ctx.scratch();
        let a = Ubig::from(123456789u64);
        let b = Ubig::from(987654321u64);
        let am = ctx.to_mont(&a, &mut s);
        assert_eq!(ctx.from_mont(&am, &mut s), a);
        // Chained product stays in Montgomery form until the end.
        let bm = ctx.to_mont(&b, &mut s);
        let abm = ctx.mont_mul(&am, &bm, &mut s);
        assert_eq!(ctx.from_mont(&abm, &mut s), (&a * &b) % &p);
        // one_mont is neutral.
        assert_eq!(ctx.mont_mul(&am, &ctx.one_mont(), &mut s), am);
    }

    #[test]
    fn pow_mont_matches_pow() {
        let p = (Ubig::one() << 127) - Ubig::one();
        let ctx = MontCtx::new(&p).unwrap();
        let mut s = ctx.scratch();
        let base = Ubig::from(0xfeedfaceu64);
        for exp in [1u64, 2, 5, 63, 64, 65, 0xffff_ffff_ffff_ffff] {
            let e = Ubig::from(exp);
            let bm = ctx.to_mont(&base, &mut s);
            let rm = ctx.pow_mont(&bm, &e, &mut s);
            assert_eq!(ctx.from_mont(&rm, &mut s), ctx.pow(&base, &e), "exp {exp}");
        }
    }

    #[test]
    fn all_window_widths_agree_with_naive() {
        // Bit lengths landing in each window tier: 3 → w=1, 17 → w=2,
        // 65 → w=3, 127 → w=4, 500 → w=5, 1100 → w=6.
        let p = (Ubig::one() << 127) - Ubig::one();
        let ctx = MontCtx::new(&p).unwrap();
        let base = Ubig::from(3u64);
        for bits in [3usize, 17, 65, 127, 500, 1100] {
            let exp = (Ubig::one() << (bits - 1)) + Ubig::from(0b1011u64);
            let expect = naive_square_multiply(&base, &exp, &p);
            assert_eq!(ctx.pow(&base, &exp), expect, "bits {bits}");
        }
    }

    #[test]
    fn scratch_reusable_across_widths() {
        let small = MontCtx::new(&Ubig::from(1000003u64)).unwrap();
        let big = MontCtx::new(&((Ubig::one() << 127) - Ubig::one())).unwrap();
        let mut s = big.scratch();
        let e = Ubig::from(65537u64);
        assert_eq!(
            small.pow_with(&Ubig::from(2u64), &e, &mut s),
            small.pow(&Ubig::from(2u64), &e)
        );
        assert_eq!(
            big.pow_with(&Ubig::from(2u64), &e, &mut s),
            big.pow(&Ubig::from(2u64), &e)
        );
    }

    /// Each tier of `window_width` starts at the first bit length from
    /// which the wider window is never costlier than the one below it
    /// under the documented model (in tenths of a multiply).
    #[test]
    fn window_tiers_follow_the_cost_model() {
        let cost = |bits: usize, w: usize| {
            let ladder = bits.div_ceil(w) - 1;
            10 * ((1 << w) - 2) + 10 * ladder + 7 * w * ladder
        };
        for w in 2..=6 {
            let start = (1..).find(|&b| window_width(b) == w).unwrap();
            assert!(
                (start..4096).all(|b| cost(b, w) <= cost(b, w - 1)),
                "w = {w}"
            );
            assert!(cost(start - 1, w) > cost(start - 1, w - 1), "w = {w}");
            assert!((start..4096).all(|b| window_width(b) >= w), "w = {w}");
        }
        assert_eq!(window_width(2048), 6);
        assert_eq!(window_width(1024), 5);
    }

    #[test]
    fn mul_count_pure_function_of_bit_len() {
        let p = (Ubig::one() << 127) - Ubig::one();
        let ctx = MontCtx::new(&p).unwrap();
        // Same bit length, different Hamming weight → identical counts.
        let heavy = (Ubig::one() << 90) - Ubig::one();
        let light = Ubig::one() << 89;
        assert_eq!(heavy.bit_len(), light.bit_len());
        reset_mont_mul_count();
        ctx.pow(&Ubig::from(7u64), &heavy);
        let c_heavy = mont_mul_count();
        reset_mont_mul_count();
        ctx.pow(&Ubig::from(7u64), &light);
        let c_light = mont_mul_count();
        assert_eq!(c_heavy, c_light);
    }

    fn naive_square_multiply(base: &Ubig, exp: &Ubig, n: &Ubig) -> Ubig {
        let mut acc = Ubig::one();
        let mut b = base % n;
        for i in 0..exp.bit_len() {
            if exp.bit(i) {
                acc = (&acc * &b) % n;
            }
            b = (&b * &b) % n;
        }
        acc
    }

    fn naive_pow(b: u64, mut e: u64, m: u64) -> u64 {
        let mut acc = 1u128;
        let mut bb = b as u128 % m as u128;
        while e > 0 {
            if e & 1 == 1 {
                acc = acc * bb % m as u128;
            }
            bb = bb * bb % m as u128;
            e >>= 1;
        }
        acc as u64
    }
}
