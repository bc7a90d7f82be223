//! The IFMA tiers: Montgomery exponentiation with AVX-512 IFMA, in
//! radix 2⁵², in two layouts that share one multiply bound, one ladder
//! and one workspace pool.
//!
//! `_mm512_madd52lo_epu64` and `_mm512_madd52hi_epu64` multiply the low
//! 52 bits of each 64-bit lane and add the low or the high half of the
//! 104-bit product to a 64-bit accumulator, which leaves 12 bits of
//! headroom for unnormalised digit sums.
//!
//! - *Lane tier.* [`MontCtx::pow_many`] hands groups of up to [`LANES`]
//!   bases to one ladder in which lane `i` of every 512-bit vector
//!   belongs to base `i`, one vector per digit (Gueron and Krasnov,
//!   "Software implementation of modular exponentiation, using advanced
//!   vector instructions architectures", WAIFI 2012).
//! - *Single tier.* One power's digits fill the lanes of `⌈L/8⌉`
//!   vectors, digit `j` in lane `j mod 8` of vector `⌊j/8⌋` (Drucker and
//!   Gueron, "Fast modular squaring with AVX512IFMA", ITNG 2019;
//!   OpenSSL's `rsaz_amm52x*_x1`). Each round broadcasts one digit of
//!   `b`, adds `a·bᵢ` and `m·n` to an accumulator held in registers and
//!   shifts it down one lane. The kernel is monomorphised on the vector
//!   count.
//!
//! Both multiplies are almost-Montgomery (AMM). With `L = ⌈(bits + 2)/52⌉`
//! digits, `R′ = 2^(52L) > 4n`, so operands below `2n` give
//! `(a·b + m·n)/R′ < (4n² + R′·n)/R′ < 2n`: no multiply needs a final
//! subtraction, and only leaving the ladder does, branch-free. The
//! ladder is [`MontCtx::pow`]'s: fixed windows, every window multiplied,
//! zero digits by the form of 1.
//!
//! [`tier`] picks where a group of powers runs from the CPU's features,
//! the modulus width and the group size, never the exponent. Every tier
//! gives the residue below `n`, so no result depends on which ran.

use super::mont::{bump_mul_count_by, digit, reduce_once, window_width};
use super::{MontCtx, MontScratch};
use crate::zeroize::{Zeroize, Zeroizing};
use crate::Ubig;
use std::borrow::Borrow;

/// Bases one lane group raises at once: a 512-bit vector holds eight
/// 64-bit lanes.
pub const LANES: usize = 8;

/// Bases [`MontCtx::pow_many`] raises side by side on this CPU: [`LANES`]
/// where the lane tier runs, 1 where every power runs the scalar tiers.
/// Callers that split a batch across threads size its groups by it, so
/// a CPU without the tier keeps one power per task.
pub fn pow_many_width() -> usize {
    match Ifma::detect() {
        Some(_) => LANES,
        None => 1,
    }
}

/// Narrowest modulus, in limbs, whose powers take the single tier. Its
/// rounds are a chain of dependent vector operations, so a number of one
/// or two vectors waits on latency where the scalar narrow kernel keeps
/// its multiplier busy. Measured in one process on a 2-vCPU Xeon with
/// `avx512ifma` (fastest of 45 interleaved batches, exponents of half and
/// of the whole modulus width, two runs; `BENCH_digits_v7.json`), a
/// single-tier power took 0.66–1.70× the scalar ladder's time at 5–9
/// limbs, 0.59–1.02× at 10, 0.53–0.89× at 11, 0.48–0.84× at 12,
/// 0.38–0.66× at 16, 0.25–0.32× at 32 and 0.19–0.20× at 64. The scalar
/// ladder's speed moved between runs by up to 2× (a busy neighbour on
/// the host), the single tier's by 10 %; from 11 limbs the single tier
/// won in every run.
pub(super) const SINGLE_MIN_LIMBS: usize = 11;

/// Widest modulus, in limbs, whose powers take the single tier: the
/// 64-limb `n²` of 2048-bit keys, 79 digits in ten vectors. The kernel
/// holds the accumulator, the first operand and the modulus in
/// registers, three per vector, which the 32 vector registers bound.
pub(super) const SINGLE_MAX_LIMBS: usize = 64;

/// Vectors of the widest single-tier number: `⌈L/8⌉` at
/// [`SINGLE_MAX_LIMBS`].
const SINGLE_MAX_VECTORS: usize = (64 * SINGLE_MAX_LIMBS + 2).div_ceil(DIGIT_BITS * LANES);

/// Fewest bases a group under a modulus of `k` limbs needs to take the
/// lane tier. A lane group costs about the same whatever its lane count,
/// so it pays from the group size at which one lane ladder beats that
/// many powers of the tier that would run them one by one. Measured in
/// one process on a 2-vCPU Xeon with `avx512ifma` (`BENCH_digits_v7.json`):
/// - against the single tier, one eight-lane ladder cost 1.6–2.8 powers
///   at 12 limbs, 2.0–3.6 at 16, 3.9–6.9 at 32 and 7.5–11.4 at 64 (the
///   fastest and the median of interleaved batches, on one thread and
///   on two at once as the fan-out runs them), about `1 + k/7`. So a
///   group of `2 + ⌊k/7⌋` breaks even; from 49 limbs that exceeds
///   [`LANES`], and a full group runs single powers.
/// - elsewhere, against the scalar tiers, it cost 1.0–2.0 powers (at 6,
///   12, 32 and 64 limbs), so two bases break even.
fn lane_break_even(k: usize) -> usize {
    match k {
        SINGLE_MIN_LIMBS..=SINGLE_MAX_LIMBS => 2 + k / 7,
        _ => 2,
    }
}

/// Widest window of the lane ladder. A group's workspace is
/// `(2ʷ + 5)·L` vectors of 64 bytes: at the 79 digits of a 4096-bit `n²`,
/// 311 KiB at `pow`'s `w = 6`, 183 KiB at 5 and 106 KiB at 4. `w = 4`
/// costs 3.4 % more multiplies than 5 on a 2048-bit exponent, yet on a
/// 2-vCPU Xeon `paper-2048` ran no slower with it (4.61–4.79 against
/// 4.03–4.30 sessions/s in alternating 10 s runs) and its peak RSS rose
/// 0.23–0.40 MiB over scalar-only runs instead of 0.43–0.63. A single
/// power's workspace is an eighth of a group's, so the single tier keeps
/// `pow`'s window.
const MAX_LANE_WINDOW: usize = 4;

/// Bits per digit.
const DIGIT_BITS: usize = 52;
/// The low [`DIGIT_BITS`] bits.
const DIGIT_MASK: u64 = (1 << DIGIT_BITS) - 1;

/// Widest modulus the lane tier takes, in digits. An accumulator digit
/// gathers four product halves (each below 2⁵²) from each of at most `L`
/// rounds, plus carries below 2¹², so `L · 2⁵⁴` must stay below 2⁶⁴;
/// 512 digits (26 624 bits) leaves room and covers every protocol width.
const MAX_DIGITS: usize = 512;

impl MontCtx {
    /// `base^exp mod n` for every base, equal entry by entry to
    /// [`MontCtx::pow`]: the bases share this context's modulus and the
    /// one exponent.
    ///
    /// Consecutive groups of up to [`LANES`] bases each take one tier,
    /// picked from the CPU's features, the modulus width and the group
    /// size: one eight-lane AVX-512 IFMA ladder for a group large enough
    /// to gain, otherwise the single-number IFMA ladder (moduli of 11 to
    /// 64 limbs) or the scalar tiers, base by base. A CPU without
    /// `avx512ifma` runs the scalar tiers. Every lane multiply counts once
    /// per base it serves
    /// in [`mont_mul_count`](super::mont_mul_count), so a group's count
    /// is its size times the window model of the ladder that ran.
    ///
    /// ```
    /// use pisa_bigint::{Ubig, modular::MontCtx};
    ///
    /// let ctx = MontCtx::new(&Ubig::from(1_000_003u64)).expect("odd modulus");
    /// let bases: Vec<Ubig> = (2..12u64).map(Ubig::from).collect();
    /// let e = Ubig::from(65_537u64);
    /// let many = ctx.pow_many(&bases, &e);
    /// for (b, p) in bases.iter().zip(&many) {
    ///     assert_eq!(p, &ctx.pow(b, &e));
    /// }
    /// ```
    pub fn pow_many<B: Borrow<Ubig>>(&self, bases: &[B], exp: &Ubig) -> Vec<Ubig> {
        let mut out = Vec::with_capacity(bases.len());
        let mut scratch = None;
        for group in bases.chunks(LANES) {
            match tier(self, group.len()) {
                Tier::Lanes(ifma) => out.extend(pow_lanes(ifma, self, group, exp)),
                Tier::Single(ifma) => out.extend(
                    group
                        .iter()
                        .map(|b| pow_single(ifma, self, b.borrow(), exp)),
                ),
                Tier::Scalar => out.extend(pow_scalar(self, group, exp, &mut scratch)),
            }
        }
        out
    }
}

/// Where a group of powers runs.
pub(super) enum Tier {
    /// `pow_with` base by base: the narrow or the fused kernels.
    Scalar,
    /// [`pow_single`] base by base.
    Single(Ifma),
    /// One [`pow_lanes`] ladder for the whole group.
    Lanes(Ifma),
}

/// The one dispatch of [`MontCtx::pow`] and [`MontCtx::pow_many`]: the
/// tier for a group of `size` bases under `ctx`. It reads the CPU's
/// features, the modulus width and the group size, never the exponent
/// or a base. Without `avx512ifma` every power runs the scalar tiers.
pub(super) fn tier(ctx: &MontCtx, size: usize) -> Tier {
    let Some(ifma) = Ifma::detect() else {
        return Tier::Scalar;
    };
    if size >= lane_break_even(ctx.k) && lane_digits(ctx) <= MAX_DIGITS {
        Tier::Lanes(ifma)
    } else if (SINGLE_MIN_LIMBS..=SINGLE_MAX_LIMBS).contains(&ctx.k) {
        Tier::Single(ifma)
    } else {
        Tier::Scalar
    }
}

/// The scalar tiers for one group: `pow_with` per base, on one scratch.
pub(super) fn pow_scalar<'a, B: Borrow<Ubig>>(
    ctx: &'a MontCtx,
    group: &'a [B],
    exp: &'a Ubig,
    scratch: &'a mut Option<MontScratch>,
) -> impl Iterator<Item = Ubig> + 'a {
    let s = scratch.get_or_insert_with(|| ctx.scratch());
    group.iter().map(move |b| ctx.pow_with(b.borrow(), exp, s))
}

/// `L = ⌈(bits + 2)/52⌉`, the digit count that puts `R′ = 2^(52L)` above
/// `4n`.
fn lane_digits(ctx: &MontCtx) -> usize {
    (ctx.n.bit_len() + 2).div_ceil(DIGIT_BITS)
}

/// The lane window for an exponent of `bits` bits: `pow`'s, capped at
/// [`MAX_LANE_WINDOW`]. A pure function of the public bit length.
pub(super) fn lane_window(bits: usize) -> usize {
    window_width(bits).min(MAX_LANE_WINDOW)
}

/// A modulus and its constants in radix 2⁵², which every ladder under
/// it shares: [`radix52`] computes them once per [`MontCtx`], on the
/// first IFMA ladder that context runs. Under a secret modulus (`p²`,
/// `q²`) they derive from it, so the context's wipe clears them; the big
/// integers they are built from are wiped as soon as they are made.
#[derive(Debug, Clone)]
pub(super) struct Radix52 {
    /// `L`, the digit count.
    digits: usize,
    /// The modulus, `L` digits.
    n: Vec<u64>,
    /// `−n⁻¹ mod 2⁵²`.
    k0: u64,
    /// `R′ mod n`, the form of 1, `L` digits.
    one: Vec<u64>,
    /// `R′² mod n`, which carries a base into the form, `L` digits.
    r2: Vec<u64>,
}

impl Zeroize for Radix52 {
    fn zeroize(&mut self) {
        self.n.zeroize();
        self.one.zeroize();
        self.r2.zeroize();
        self.k0.zeroize();
    }
}

/// `ctx`'s radix-2⁵² constants, computed on the first call: two
/// divisions and a square that every ladder under `ctx` used to repeat.
fn radix52(ctx: &MontCtx) -> &Radix52 {
    ctx.radix52.get_or_init(|| {
        let l = lane_digits(ctx);
        // R′ − one and one² − r2 are multiples of n.
        let one = Zeroizing::new((Ubig::one() << (DIGIT_BITS * l)) % &ctx.n);
        let square = Zeroizing::new(&*one * &*one);
        let r2 = Zeroizing::new(&*square % &ctx.n);
        Radix52 {
            digits: l,
            n: digits_of(&ctx.n, l),
            k0: ctx.n0_inv & DIGIT_MASK,
            one: digits_of(&one, l),
            r2: digits_of(&r2, l),
        }
    })
}

/// A ladder's inputs in radix 2⁵²: the modulus's shared constants and up
/// to `stride` bases, base `i`'s digit `j` at `[j·stride + i]`. A lane
/// group interleaves its bases (stride [`LANES`]); a single power lays
/// its digits out in order (stride 1). Under a secret modulus the bases
/// are secret residues, so they are wiped on drop.
struct Job<'a> {
    /// The modulus and its constants.
    radix52: &'a Radix52,
    /// The bases, reduced below `n`, `L · stride` digits.
    bases: Vec<u64>,
    /// The ladder's window width.
    window: usize,
    /// Bases laid out; a lane group's other lanes raise 0 and are
    /// dropped.
    lanes: u64,
}

impl Drop for Job<'_> {
    fn drop(&mut self) {
        self.bases.zeroize();
    }
}

/// `x` below `2^(52·l)` as its `j`-th radix-2⁵² digit.
fn digit52(limbs: &[u64], j: usize) -> u64 {
    let bit = j * DIGIT_BITS;
    let (limb, off) = (bit / 64, bit % 64);
    let lo = limbs.get(limb).copied().unwrap_or(0) >> off;
    // A digit straddles two limbs when it starts above bit 12.
    let hi = match off {
        0..=12 => 0,
        _ => limbs.get(limb + 1).copied().unwrap_or(0) << (64 - off),
    };
    (lo | hi) & DIGIT_MASK
}

/// `x` as `l` radix-2⁵² digits.
fn digits_of(x: &Ubig, l: usize) -> Vec<u64> {
    (0..l).map(|j| digit52(x.as_limbs(), j)).collect()
}

/// Radix-2⁵² digits back to `k` limbs; the value must fit.
fn limbs_of(digits: impl Iterator<Item = u64>, k: usize) -> Vec<u64> {
    let mut out = vec![0u64; k];
    for (j, d) in digits.enumerate() {
        let bit = j * DIGIT_BITS;
        let (limb, off) = (bit / 64, bit % 64);
        if let Some(x) = out.get_mut(limb) {
            *x |= d << off;
        }
        if off > 64 - DIGIT_BITS {
            if let Some(x) = out.get_mut(limb + 1) {
                *x |= d >> (64 - off);
            }
        }
    }
    out
}

/// A ladder's result, at most `n` in radix 2⁵², as the residue below
/// `n`: `n` itself is subtracted once more, branch-free.
fn from_digits(ctx: &MontCtx, digits: impl Iterator<Item = u64>) -> Ubig {
    let mut limbs = limbs_of(digits, ctx.k);
    reduce_once(&mut limbs, ctx.n.as_limbs(), 0);
    Ubig::from_limbs(limbs)
}

impl Job<'_> {
    /// Lays out `group`, at most `stride` bases, for a ladder of window
    /// `window`.
    fn new<'a, B: Borrow<Ubig>>(
        ctx: &'a MontCtx,
        group: &[B],
        stride: usize,
        window: usize,
    ) -> Job<'a> {
        let shared = radix52(ctx);
        let l = shared.digits;
        let mut bases = vec![0u64; l * stride];
        for (i, b) in group.iter().take(stride).enumerate() {
            let b = b.borrow();
            let reduced;
            let b = if b < &ctx.n {
                b
            } else {
                reduced = Zeroizing::new(b % &ctx.n);
                &*reduced
            };
            for j in 0..l {
                bases[j * stride + i] = digit52(b.as_limbs(), j);
            }
        }
        Job {
            radix52: shared,
            bases,
            window,
            lanes: group.len().min(stride) as u64,
        }
    }
}

/// The lane tier for one group of at most [`LANES`] bases, on a modulus
/// of at most [`MAX_DIGITS`] digits.
pub(super) fn pow_lanes<B: Borrow<Ubig>>(
    ifma: Ifma,
    ctx: &MontCtx,
    group: &[B],
    exp: &Ubig,
) -> Vec<Ubig> {
    let job = Job::new(ctx, group, LANES, lane_window(exp.bit_len()));
    let mut digits = ifma.lanes(&job, exp);
    let powers = (0..group.len().min(LANES))
        .map(|i| from_digits(ctx, digits.iter().skip(i).step_by(LANES).copied()))
        .collect();
    digits.zeroize();
    powers
}

/// The single tier for one power, on a modulus of at most
/// [`SINGLE_MAX_LIMBS`] limbs. Its window is `pow`'s.
pub(super) fn pow_single(ifma: Ifma, ctx: &MontCtx, base: &Ubig, exp: &Ubig) -> Ubig {
    let job = Job::new(
        ctx,
        std::slice::from_ref(base),
        1,
        window_width(exp.bit_len()),
    );
    let mut digits = ifma.single(&job, exp);
    let power = from_digits(ctx, digits.iter().take(job.radix52.digits).copied());
    digits.zeroize();
    power
}

/// Proof that this CPU runs AVX-512F and AVX-512 IFMA: only
/// [`Ifma::detect`] makes one, after checking both at run time, and
/// without x86-64 it never does.
#[derive(Clone, Copy)]
#[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
pub(super) struct Ifma(());

impl Ifma {
    /// `Some` when the CPU reports both features (the standard library
    /// caches the check after its first run).
    pub(super) fn detect() -> Option<Ifma> {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512ifma")
        {
            return Some(Ifma(()));
        }
        None
    }

    /// Runs the lane ladder; returns each lane's value, out of the form
    /// and at most n, digit-major.
    #[cfg(target_arch = "x86_64")]
    #[allow(unsafe_code)]
    fn lanes(self, job: &Job, exp: &Ubig) -> Vec<u64> {
        // SAFETY: `ifma::lanes` is compiled for avx512f and avx512ifma
        // and needs nothing else. An `Ifma` exists only once
        // `Ifma::detect`'s `is_x86_feature_detected!` checks have seen
        // both features on this CPU at run time.
        unsafe { ifma::lanes(job, exp) }
    }

    /// Runs the single ladder on the kernel for `⌈L/8⌉` vectors; returns
    /// the power's digits in order, out of the form and at most n, padded
    /// to whole vectors.
    #[cfg(target_arch = "x86_64")]
    #[allow(unsafe_code)]
    fn single(self, job: &Job, exp: &Ubig) -> Vec<u64> {
        macro_rules! vectors {
            ($($v:literal)*) => {
                match job.radix52.digits.div_ceil(LANES) {
                    // SAFETY: as for `Ifma::lanes`: `ifma::single` is
                    // compiled for avx512f and avx512ifma, which this
                    // token's existence proves the CPU runs.
                    $($v => unsafe { ifma::single::<$v>(job, exp) },)*
                    // Ten vectors, the widest kernel, which serves any
                    // narrower number too (one-vector numbers lie below
                    // `SINGLE_MIN_LIMBS` and never come here).
                    _ => unsafe { ifma::single::<SINGLE_MAX_VECTORS>(job, exp) },
                }
            };
        }
        vectors!(2 3 4 5 6 7 8 9)
    }

    #[cfg(not(target_arch = "x86_64"))]
    fn lanes(self, _: &Job, _: &Ubig) -> Vec<u64> {
        unreachable!("an Ifma exists only on x86-64")
    }

    #[cfg(not(target_arch = "x86_64"))]
    fn single(self, _: &Job, _: &Ubig) -> Vec<u64> {
        unreachable!("an Ifma exists only on x86-64")
    }
}

#[cfg(target_arch = "x86_64")]
mod ifma {
    //! The AVX-512 kernels. Everything here is compiled for `avx512f` and
    //! `avx512ifma` and reached only through [`super::Ifma`].

    use super::{bump_mul_count_by, digit, Job, DIGIT_MASK, LANES};
    use crate::Ubig;
    use std::arch::x86_64::{
        __m512i, _mm256_extract_epi64, _mm512_add_epi64, _mm512_alignr_epi64, _mm512_and_si512,
        _mm512_castsi512_si256, _mm512_cmpeq_epu64_mask, _mm512_cmpgt_epu64_mask,
        _mm512_extracti64x4_epi64, _mm512_madd52hi_epu64, _mm512_madd52lo_epu64,
        _mm512_mask_add_epi64, _mm512_permutexvar_epi64, _mm512_set1_epi64, _mm512_set_epi64,
        _mm512_setzero_si512, _mm512_srli_epi64,
    };
    use std::sync::Mutex;

    /// The lane tier: `base^exp` for every lane of `job`, on numbers of
    /// `L` vectors, one digit each. Returns each lane's value (at most n)
    /// digit-major. The workspace is wiped before it is kept.
    #[target_feature(enable = "avx512f,avx512ifma")]
    pub(super) fn lanes(job: &Job, exp: &Ubig) -> Vec<u64> {
        let l = job.radix52.digits;
        let zero = _mm512_setzero_si512();
        let k0 = _mm512_set1_epi64(job.radix52.k0 as i64);
        // The table, the multiply's 2L digits of working space, the
        // ladder's two registers and the modulus.
        let mut space = take_space();
        space.resize(((1 << job.window) + 5) * l, zero);
        let (table, rest) = space.split_at_mut((1 << job.window) * l);
        let (t, rest) = rest.split_at_mut(2 * l);
        let (acc, rest) = rest.split_at_mut(l);
        let (tmp, n) = rest.split_at_mut(l);
        splat(&job.radix52.n, n);
        splat(&job.radix52.one, &mut table[..l]);
        gather(&job.bases, acc);
        splat(&job.radix52.r2, tmp);
        let n = &*n;
        let unit = _mm512_set1_epi64(1);
        let out = scatter(ladder(job, exp, table, acc, tmp, unit, |a, b, out| {
            amm(a, b, n, k0, t, out)
        }));
        crate::zeroize::wipe(&mut space, zero);
        keep_space(space);
        out
    }

    /// The single tier: `base^exp` for the one base of `job`, on numbers
    /// of `V` vectors, eight digits each. Returns its digits (at most n)
    /// in order. The workspace is wiped before it is kept.
    #[target_feature(enable = "avx512f,avx512ifma")]
    pub(super) fn single<const V: usize>(job: &Job, exp: &Ubig) -> Vec<u64> {
        let zero = _mm512_setzero_si512();
        let k0 = _mm512_set1_epi64(job.radix52.k0 as i64);
        // The table, the ladder's two registers and the modulus.
        let mut space = take_space();
        space.resize(((1 << job.window) + 3) * V, zero);
        let (table, rest) = space.split_at_mut((1 << job.window) * V);
        let (acc, rest) = rest.split_at_mut(V);
        let (tmp, n) = rest.split_at_mut(V);
        gather(&job.radix52.n, n);
        gather(&job.radix52.one, &mut table[..V]);
        gather(&job.bases, acc);
        gather(&job.radix52.r2, tmp);
        let n = &*n;
        let l = job.radix52.digits;
        let unit = _mm512_set_epi64(0, 0, 0, 0, 0, 0, 0, 1);
        let out = scatter(ladder(job, exp, table, acc, tmp, unit, |a, b, out| {
            amm1::<V>(a, b, n, k0, l, out)
        }));
        crate::zeroize::wipe(&mut space, zero);
        keep_space(space);
        out
    }

    /// The fixed-window ladder of `MontCtx::pow_mont` on `exp`, shared by
    /// both tiers. A number is `acc.len()` vectors, `mul(a, b, out)` is
    /// the tier's AMM, and each multiply counts `job.lanes`. On entry
    /// the table's entry 0 holds the form of 1, `acc` the base and `tmp`
    /// `R′² mod n`; `unit` is the first vector of the plain 1. Returns
    /// `base^exp`, out of the form and at most n.
    #[target_feature(enable = "avx512f,avx512ifma")]
    fn ladder<'a>(
        job: &Job,
        exp: &Ubig,
        table: &mut [__m512i],
        mut acc: &'a mut [__m512i],
        mut tmp: &'a mut [__m512i],
        unit: __m512i,
        mut mul: impl FnMut(&[__m512i], &[__m512i], &mut [__m512i]),
    ) -> &'a [__m512i] {
        let width = acc.len();
        let w = job.window;
        let mut step = |a: &[__m512i], b: &[__m512i], out: &mut [__m512i]| {
            mul(a, b, out);
            bump_mul_count_by(job.lanes);
        };

        // Entry d at [d·width, (d+1)·width) holds base^d in the form;
        // base·R′ = AMM(base, R′²).
        step(acc, tmp, &mut table[width..2 * width]);
        for d in 2..1 << w {
            let (lo, hi) = table.split_at_mut(d * width);
            step(
                &lo[(d - 1) * width..],
                &lo[width..2 * width],
                &mut hi[..width],
            );
        }

        // A zero exponent is one window whose digit 0 selects the form
        // of 1: no branch tells it apart.
        let windows = exp.bit_len().div_ceil(w).max(1);
        let top = digit(exp, windows - 1, w);
        acc.copy_from_slice(&table[top * width..(top + 1) * width]);
        for win in (0..windows - 1).rev() {
            for _ in 0..w {
                step(acc, acc, tmp);
                std::mem::swap(&mut acc, &mut tmp);
            }
            // Zero digits multiply by entry 0, the form of 1.
            let d = digit(exp, win, w);
            step(acc, &table[d * width..(d + 1) * width], tmp);
            std::mem::swap(&mut acc, &mut tmp);
        }

        // Leaving the form is a multiply by the plain 1 (uncounted, as
        // `from_mont` is): (x + m·n)/R′ < n + 1 for x < 2n. Entry 0 is
        // no longer read, so it holds the 1.
        let one = &mut table[..width];
        one.fill(_mm512_setzero_si512());
        one[0] = unit;
        mul(acc, one, tmp);
        tmp
    }

    /// Wiped workspaces of finished ladders, kept for later ones. Freed
    /// after every group instead, a workspace left a hole that the next
    /// group's 64-byte-aligned request could not reuse once small
    /// allocations had settled beside it: with glibc 2.36 the heap grew
    /// by about one workspace per group (188 KiB at 4096 bits), and peak
    /// RSS with it, the longer the run the more (`paper-2048` +1.2 MiB
    /// in 30 s; `loopback-closed`, which runs the most groups at once,
    /// +0.6 MiB in 10 s and +1.1 MiB in 30 s while only two were kept).
    /// Every workspace is kept, so the tiers hold as many as were ever
    /// in flight at once, each sized for the widest ladder it ran.
    static SPARE: Mutex<Vec<Vec<__m512i>>> = Mutex::new(Vec::new());

    /// A kept workspace, or a new empty one.
    fn take_space() -> Vec<__m512i> {
        SPARE
            .lock()
            .ok()
            .and_then(|mut spare| spare.pop())
            .unwrap_or_default()
    }

    /// Keeps a wiped workspace for a later ladder.
    fn keep_space(space: Vec<__m512i>) {
        if let Ok(mut spare) = SPARE.lock() {
            spare.push(space);
        }
    }

    /// The lane AMM: `out ← a·b·R′⁻¹ mod n`, below 2n, lane by lane, for
    /// `a, b < 2n` with normalised digits; `t` is `2L` digits of working
    /// space.
    ///
    /// Round `i` adds `a·bᵢ` and `m·n` at digit offset `i`, where `m`
    /// cancels digit `i`, whose upper bits then carry into digit `i + 1`.
    /// Each digit takes the low halves of its own products and the high
    /// halves of the products one digit below. Digits are normalised once,
    /// after the last round. Every loop bound is `L`: every product runs
    /// for every input.
    #[target_feature(enable = "avx512f,avx512ifma")]
    fn amm(
        a: &[__m512i],
        b: &[__m512i],
        n: &[__m512i],
        k0: __m512i,
        t: &mut [__m512i],
        out: &mut [__m512i],
    ) {
        let l = n.len();
        let (a, b, out, t) = (&a[..l], &b[..l], &mut out[..l], &mut t[..2 * l]);
        let zero = _mm512_setzero_si512();
        t.fill(zero);
        for (i, &bi) in b.iter().enumerate() {
            let row = &mut t[i..=i + l];
            let low = _mm512_madd52lo_epu64(row[0], a[0], bi);
            let m = _mm512_madd52lo_epu64(zero, low, k0);
            let low = _mm512_madd52lo_epu64(low, m, n[0]);
            row[1] = _mm512_add_epi64(row[1], _mm512_srli_epi64::<52>(low));
            for j in 1..l {
                let ab = _mm512_madd52lo_epu64(row[j], a[j], bi);
                let ab = _mm512_madd52hi_epu64(ab, a[j - 1], bi);
                let mn = _mm512_madd52lo_epu64(zero, m, n[j]);
                let mn = _mm512_madd52hi_epu64(mn, m, n[j - 1]);
                row[j] = _mm512_add_epi64(ab, mn);
            }
            let top = _mm512_madd52hi_epu64(row[l], a[l - 1], bi);
            row[l] = _mm512_madd52hi_epu64(top, m, n[l - 1]);
        }
        let mask = _mm512_set1_epi64(DIGIT_MASK as i64);
        let mut carry = zero;
        for (o, &v) in out.iter_mut().zip(&t[l..]) {
            let v = _mm512_add_epi64(v, carry);
            *o = _mm512_and_si512(v, mask);
            carry = _mm512_srli_epi64::<52>(v);
        }
    }

    /// The single AMM: `out ← a·b·R′⁻¹ mod n`, below 2n, for one number
    /// of `V` vectors, `l` digits, with `a, b < 2n` normalised.
    ///
    /// The accumulator `r` lives in registers. Round `i` broadcasts `bᵢ`,
    /// adds the low halves of `a·bᵢ`, picks `m` to cancel digit 0 and adds
    /// the low halves of `m·n`. Digit 0 is then a multiple of 2⁵²: its top
    /// carries into digit 1 as every digit moves down one lane, and the
    /// high halves of both products, which belong one digit up, land on
    /// the moved digits. A digit gathers at most four product halves and
    /// a carry per round, below `l·2⁵⁴ + 2¹²·l < 2⁶³` for `l ≤ 80`. Every
    /// loop bound is `l` or `V`: every product runs for every input.
    #[target_feature(enable = "avx512f,avx512ifma")]
    fn amm1<const V: usize>(
        a: &[__m512i],
        b: &[__m512i],
        n: &[__m512i],
        k0: __m512i,
        l: usize,
        out: &mut [__m512i],
    ) {
        let zero = _mm512_setzero_si512();
        let (a, n, b) = (&a[..V], &n[..V], &b[..V]);
        let a: [__m512i; V] = std::array::from_fn(|j| a[j]);
        let n: [__m512i; V] = std::array::from_fn(|j| n[j]);
        let mut r = [zero; V];
        for i in 0..l {
            let lane = _mm512_set1_epi64((i % LANES) as i64);
            let bi = _mm512_permutexvar_epi64(lane, b[i / LANES]);
            for j in 0..V {
                r[j] = _mm512_madd52lo_epu64(r[j], a[j], bi);
            }
            // m = r₀·k0 mod 2⁵², in lane 0, then in every lane.
            let m = _mm512_madd52lo_epu64(zero, r[0], k0);
            let m = _mm512_permutexvar_epi64(zero, m);
            for j in 0..V {
                r[j] = _mm512_madd52lo_epu64(r[j], n[j], m);
            }
            let carry = _mm512_srli_epi64::<52>(r[0]);
            for j in 0..V - 1 {
                r[j] = _mm512_alignr_epi64::<1>(r[j + 1], r[j]);
            }
            r[V - 1] = _mm512_alignr_epi64::<1>(zero, r[V - 1]);
            r[0] = _mm512_mask_add_epi64(r[0], 1, r[0], carry);
            for j in 0..V {
                r[j] = _mm512_madd52hi_epu64(r[j], a[j], bi);
                r[j] = _mm512_madd52hi_epu64(r[j], n[j], m);
            }
        }
        normalise(&mut r);
        out[..V].copy_from_slice(&r);
    }

    /// Brings every digit of `r`, a value below `2^(52·8V)` with digits
    /// below 2⁶³, under 2⁵², branch-free. One pass moves each digit's
    /// carry up one lane, which leaves digits below 2⁵² + 2¹². Then a
    /// digit above the mask carries one, and one equal to it passes an
    /// incoming carry on: over the whole number as a bit string,
    /// `((over << 1) + full) ^ full` marks every digit that takes a
    /// carry, as in carry-lookahead addition.
    #[target_feature(enable = "avx512f,avx512ifma")]
    fn normalise<const V: usize>(r: &mut [__m512i; V]) {
        let zero = _mm512_setzero_si512();
        let mask = _mm512_set1_epi64(DIGIT_MASK as i64);
        let carries: [__m512i; V] = std::array::from_fn(|j| _mm512_srli_epi64::<52>(r[j]));
        let (mut over, mut full) = (0u128, 0u128);
        for j in 0..V {
            let below = match j {
                0 => zero,
                _ => carries[j - 1],
            };
            let up = _mm512_alignr_epi64::<7>(carries[j], below);
            r[j] = _mm512_add_epi64(_mm512_and_si512(r[j], mask), up);
            over |= u128::from(_mm512_cmpgt_epu64_mask(r[j], mask)) << (LANES * j);
            full |= u128::from(_mm512_cmpeq_epu64_mask(r[j], mask)) << (LANES * j);
        }
        let takes = ((over << 1) + full) ^ full;
        let one = _mm512_set1_epi64(1);
        for (j, x) in r.iter_mut().enumerate() {
            let lanes = (takes >> (LANES * j)) as u8;
            *x = _mm512_and_si512(_mm512_mask_add_epi64(*x, lanes, *x, one), mask);
        }
    }

    /// Each digit broadcast to every lane of its vector in `out`.
    #[target_feature(enable = "avx512f,avx512ifma")]
    fn splat(digits: &[u64], out: &mut [__m512i]) {
        for (v, &d) in out.iter_mut().zip(digits) {
            *v = _mm512_set1_epi64(d as i64);
        }
    }

    /// Values eight to a vector, in order, into `out`; vectors past the
    /// values are zero-filled.
    #[target_feature(enable = "avx512f,avx512ifma")]
    fn gather(values: &[u64], out: &mut [__m512i]) {
        for (v, out) in out.iter_mut().enumerate() {
            let d = |i: usize| values.get(v * LANES + i).copied().unwrap_or(0) as i64;
            *out = _mm512_set_epi64(d(7), d(6), d(5), d(4), d(3), d(2), d(1), d(0));
        }
    }

    /// Every lane of every vector, in order.
    #[target_feature(enable = "avx512f,avx512ifma")]
    fn scatter(vectors: &[__m512i]) -> Vec<u64> {
        let mut out = Vec::with_capacity(vectors.len() * LANES);
        for &v in vectors {
            let (lo, hi) = (_mm512_castsi512_si256(v), _mm512_extracti64x4_epi64::<1>(v));
            out.extend([
                _mm256_extract_epi64::<0>(lo) as u64,
                _mm256_extract_epi64::<1>(lo) as u64,
                _mm256_extract_epi64::<2>(lo) as u64,
                _mm256_extract_epi64::<3>(lo) as u64,
                _mm256_extract_epi64::<0>(hi) as u64,
                _mm256_extract_epi64::<1>(hi) as u64,
                _mm256_extract_epi64::<2>(hi) as u64,
                _mm256_extract_epi64::<3>(hi) as u64,
            ]);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The limb widths the differential tests cover: the protocol's (6,
    /// 12, 32, 64), the narrow tier's edges (1, 22, 23) and a few between.
    const WIDTHS: [usize; 9] = [1, 6, 8, 12, 16, 22, 23, 32, 64];

    /// A modulus just below 2^(64k) and one just above 2^(64k − 1).
    fn moduli(k: usize) -> [Ubig; 2] {
        let r = Ubig::one() << (64 * k);
        [&r - &Ubig::from(159u64), (&r >> 1) + Ubig::from(159u64)]
    }

    /// Bases that probe the edges — 0, 1, n − 1, n and values above n —
    /// padded with pseudo-random residues to `count` entries.
    fn bases(n: &Ubig, count: usize, seed: u64) -> Vec<Ubig> {
        let mut x = seed | 1;
        let edges = [
            Ubig::zero(),
            Ubig::one(),
            n - &Ubig::one(),
            n.clone(),
            n + &Ubig::from(5u64),
            (n << 1) + Ubig::from(3u64),
        ];
        edges
            .into_iter()
            .chain(std::iter::repeat_with(move || {
                let limbs: Vec<u64> = (0..n.as_limbs().len())
                    .map(|_| {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        x
                    })
                    .collect();
                Ubig::from_limbs(limbs) % n
            }))
            .take(count)
            .collect()
    }

    /// Exponents of 0 and 1 bit and one in every window tier; at 32 and
    /// 64 limbs the ones past the lane window's cap (w = 4 from 118 bits)
    /// are left out to keep debug builds quick.
    fn exponents(k: usize) -> Vec<Ubig> {
        let bits: &[usize] = if k >= 32 {
            &[1, 3, 17, 65, 127]
        } else {
            &[1, 3, 17, 65, 127, 500, 1100]
        };
        std::iter::once(Ubig::zero())
            .chain(bits.iter().map(|&b| exponent(b)))
            .collect()
    }

    /// An exponent of `bits` bits with low bits set as well as the top.
    fn exponent(bits: usize) -> Ubig {
        (Ubig::one() << (bits - 1)) + Ubig::from(bits as u64 >> 1)
    }

    /// The scalar ladder entry by entry, `pow` where no IFMA tier runs:
    /// the oracle.
    fn expected(ctx: &MontCtx, bases: &[Ubig], e: &Ubig) -> Vec<Ubig> {
        let mut s = ctx.scratch();
        bases.iter().map(|b| ctx.pow_with(b, e, &mut s)).collect()
    }

    /// The scalar path of a group, as `pow_many` runs it where no IFMA
    /// tier does.
    fn scalar(ctx: &MontCtx, bases: &[Ubig], e: &Ubig) -> Vec<Ubig> {
        pow_scalar(ctx, bases, e, &mut None).collect()
    }

    /// The IFMA tiers when this CPU runs them; their checks are skipped,
    /// and say so, where it does not.
    fn ifma_here() -> Option<Ifma> {
        let here = Ifma::detect();
        if here.is_none() {
            eprintln!("no avx512f + avx512ifma here: IFMA checks skipped, scalar checks ran");
        }
        here
    }

    /// Every width, both moduli, every exponent tier, edge bases: the
    /// lane ladder (when the CPU has it) and the scalar group path equal
    /// the scalar ladder entry by entry.
    #[test]
    fn lane_and_scalar_groups_equal_pow_at_every_width_and_window() {
        let here = ifma_here();
        for k in WIDTHS {
            for (m, n) in moduli(k).iter().enumerate() {
                let ctx = MontCtx::new(n).unwrap();
                let group = bases(n, LANES, 0x9e37 + k as u64);
                for e in exponents(k) {
                    let want = expected(&ctx, &group, &e);
                    let what = format!("k = {k}, modulus {m}, {} exponent bits", e.bit_len());
                    assert_eq!(scalar(&ctx, &group, &e), want, "scalar, {what}");
                    if let Some(ifma) = here {
                        assert_eq!(pow_lanes(ifma, &ctx, &group, &e), want, "lanes, {what}");
                    }
                }
            }
        }
    }

    /// At every width from the single tier's floor to its ceiling, both
    /// moduli: the single ladder equals the scalar ladder for the edge
    /// bases and two residues, under exponents 0, 1 and one in every
    /// window tier of `pow` (w = 1 to 6).
    #[test]
    fn single_tier_equals_pow_at_every_width_from_its_floor() {
        let Some(ifma) = ifma_here() else {
            return;
        };
        let exps: Vec<Ubig> = [Ubig::zero(), Ubig::one()]
            .into_iter()
            .chain([3, 17, 65, 127, 500, 1100].map(exponent))
            .collect();
        for k in SINGLE_MIN_LIMBS..=SINGLE_MAX_LIMBS {
            for (m, n) in moduli(k).iter().enumerate() {
                let ctx = MontCtx::new(n).unwrap();
                let group = bases(n, 8, 0x51 + k as u64);
                for e in &exps {
                    let want = expected(&ctx, &group, e);
                    for (i, (b, want)) in group.iter().zip(want).enumerate() {
                        assert_eq!(
                            pow_single(ifma, &ctx, b, e),
                            want,
                            "k = {k}, modulus {m}, base {i}, {} exponent bits",
                            e.bit_len()
                        );
                    }
                }
            }
        }
    }

    /// `pow` and `pow_many` take the single tier exactly from its floor
    /// to its ceiling (on a CPU with IFMA), and the scalar tiers outside
    /// that span and without IFMA.
    #[test]
    fn dispatch_keeps_the_scalar_tier_outside_the_single_span() {
        let here = Ifma::detect().is_some();
        for k in 1..=SINGLE_MAX_LIMBS + 2 {
            let ctx = MontCtx::new(&moduli(k)[0]).unwrap();
            let single = matches!(tier(&ctx, 1), Tier::Single(_));
            let spanned = (SINGLE_MIN_LIMBS..=SINGLE_MAX_LIMBS).contains(&k);
            assert_eq!(single, here && spanned, "k = {k}");
            assert_eq!(matches!(tier(&ctx, 1), Tier::Scalar), !single, "k = {k}");
        }
    }

    /// At every width from 1 to past the single tier's ceiling, a
    /// `pow_many` group one base short of the lane break-even runs base
    /// by base and a group at it runs one lane ladder (where the
    /// break-even exceeds [`LANES`], a full group runs base by base);
    /// both equal the scalar ladder entry by entry.
    #[test]
    fn pow_many_groups_below_and_at_the_lane_break_even() {
        let here = Ifma::detect().is_some();
        let e = exponent(65);
        for k in 1..=SINGLE_MAX_LIMBS + 1 {
            let n = &moduli(k)[1];
            let ctx = MontCtx::new(n).unwrap();
            let from = lane_break_even(k);
            assert!(from >= 2, "k = {k}");
            for size in [from - 1, from].map(|s| s.min(LANES)) {
                let lanes = matches!(tier(&ctx, size), Tier::Lanes(_));
                assert_eq!(lanes, here && size == from, "k = {k}, {size} bases");
                let group = bases(n, size, 3 + size as u64);
                assert_eq!(
                    ctx.pow_many(&group, &e),
                    expected(&ctx, &group, &e),
                    "k = {k}, {size} bases"
                );
            }
        }
        assert_eq!(lane_break_even(12), 3);
        assert_eq!(lane_break_even(32), 6);
        assert!(lane_break_even(64) > LANES);
    }

    /// Batches of 1, 3, 7, 8, 9 and 17 bases through `pow_many` (full
    /// groups, short tails, groups below the lane threshold), and every
    /// group size from 1 to 8 straight through the lane ladder.
    #[test]
    fn pow_many_equals_pow_for_every_batch_size() {
        let here = ifma_here();
        for k in [1usize, 6, 12, 64] {
            let n = &moduli(k)[0];
            let ctx = MontCtx::new(n).unwrap();
            let e = &exponents(k)[3];
            for size in [1usize, 3, 7, 8, 9, 17] {
                let batch = bases(n, size, size as u64);
                assert_eq!(
                    ctx.pow_many(&batch, e),
                    expected(&ctx, &batch, e),
                    "k = {k}, {size}"
                );
                let refs: Vec<&Ubig> = batch.iter().collect();
                assert_eq!(
                    ctx.pow_many(&refs, e),
                    expected(&ctx, &batch, e),
                    "k = {k}, {size}"
                );
            }
            if let Some(ifma) = here {
                for size in 1..=LANES {
                    let group = bases(n, size, 77 + size as u64);
                    let want = expected(&ctx, &group, e);
                    assert_eq!(
                        pow_lanes(ifma, &ctx, &group, e),
                        want,
                        "k = {k}, {size} lanes"
                    );
                }
            }
        }
        assert!(MontCtx::new(&Ubig::from(7u64))
            .unwrap()
            .pow_many::<Ubig>(&[], &Ubig::one())
            .is_empty());
    }

    /// The first IFMA ladder under a context makes its radix-2⁵² constants,
    /// later ladders reuse them, and the context's wipe clears them.
    #[test]
    fn radix52_constants_are_made_once_per_context_and_wiped_with_it() {
        if ifma_here().is_none() {
            return;
        }
        let n = &moduli(12)[0];
        let mut ctx = MontCtx::new(n).unwrap();
        assert!(ctx.radix52.get().is_none());
        let (group, e) = (bases(n, 3, 5), exponent(65));
        let want = expected(&ctx, &group, &e);
        assert_eq!(ctx.pow_many(&group, &e), want);
        let made: Option<*const Radix52> = ctx.radix52.get().map(|c| c as *const _);
        assert!(made.is_some(), "the ladder made no constants");
        assert_eq!(ctx.pow(&group[2], &e), want[2]);
        assert_eq!(ctx.radix52.get().map(|c| c as *const _), made);
        ctx.zeroize();
        assert!(ctx.radix52.get().is_none(), "the wipe kept the constants");
    }

    /// Radix-2⁵² digits round-trip through limbs at widths where digits
    /// straddle limbs and where the top digit is partial.
    #[test]
    fn digits_round_trip_through_limbs() {
        for k in [1usize, 2, 5, 13, 64] {
            let x = (Ubig::one() << (64 * k)) - Ubig::from(0x1234_5678u64);
            let l = (64 * k).div_ceil(DIGIT_BITS);
            let digits = digits_of(&x, l);
            assert!(digits.iter().all(|&d| d <= DIGIT_MASK));
            assert_eq!(
                Ubig::from_limbs(limbs_of(digits.into_iter(), k)),
                x,
                "k = {k}"
            );
        }
    }

    /// The lane window is `pow`'s up to four and four above it.
    #[test]
    fn lane_window_caps_pow_window_at_four() {
        for bits in 1..4096 {
            assert_eq!(lane_window(bits), window_width(bits).min(4), "{bits}");
        }
        assert_eq!(lane_window(2048), 4);
        assert_eq!(lane_window(1024), 4);
        assert_eq!(lane_window(192), 4);
        assert_eq!(lane_window(100), 3);
    }
}
