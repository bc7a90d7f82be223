//! The lane tier: eight powers that share a modulus and an exponent,
//! computed at once with AVX-512 IFMA.
//!
//! [`MontCtx::pow_many`] hands groups of up to [`LANES`] bases to one
//! ladder in which lane `i` of every 512-bit vector belongs to base `i`
//! (Gueron and Krasnov, "Software implementation of modular
//! exponentiation, using advanced vector instructions architectures",
//! WAIFI 2012). Numbers are held in radix 2⁵², one vector per digit.
//! `_mm512_madd52lo_epu64` and `_mm512_madd52hi_epu64` multiply the low
//! 52 bits of each 64-bit lane and add the low or the high half of the
//! 104-bit product to a 64-bit accumulator, which leaves 12 bits of
//! headroom for unnormalised digit sums.
//!
//! The multiply is almost-Montgomery (AMM). With `L = ⌈(bits + 2)/52⌉`
//! digits, `R′ = 2^(52L) > 4n`, so operands below `2n` give
//! `(a·b + m·n)/R′ < (4n² + R′·n)/R′ < 2n`: no multiply needs a final
//! subtraction, and only leaving the ladder does, branch-free. One
//! kernel serves every width: its loop bounds are `L`, read at run time.
//! The ladder is [`MontCtx::pow`]'s, on the shared exponent: fixed
//! windows, every window multiplied, zero digits by the Montgomery 1.
//!
//! The tier runs only when the CPU reports `avx512f` and `avx512ifma` at
//! run time and a group has at least [`MIN_LANE_GROUP`] bases; every
//! other power runs the scalar tiers of `mont.rs`. Both give the residue
//! below `n`, so no result depends on which ran.

use super::mont::{bump_mul_count_by, digit, reduce_once, window_width};
use super::MontCtx;
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

/// Fewest bases a group needs to take the lane tier. A group costs about
/// the same whatever its lane count, so the tier pays from the group
/// size at which one lane ladder beats that many scalar `pow` calls.
/// Measured in one process on a 2-vCPU Xeon with `avx512ifma`
/// (`kernel_speed.rs`), an 8-lane group took 0.13–0.25× of the time of
/// eight scalar calls at 6, 12, 32 and 64 limbs, the time of 1.0–2.0
/// scalar powers: two bases break even at 6 limbs and gain from 12.
const MIN_LANE_GROUP: usize = 2;

/// Widest window of the lane ladder. A group's workspace is
/// `(2ʷ + 6)·L` vectors of 64 bytes: at the 79 digits of a 4096-bit `n²`,
/// 316 KiB at `pow`'s `w = 6`, 188 KiB at 5 and 111 KiB at 4. `w = 4`
/// costs 3.4 % more multiplies than 5 on a 2048-bit exponent, yet on a
/// 2-vCPU Xeon `paper-2048` ran no slower with it (4.61–4.79 against
/// 4.03–4.30 sessions/s in alternating 10 s runs) and its peak RSS rose
/// 0.23–0.40 MiB over scalar-only runs instead of 0.43–0.63.
const MAX_LANE_WINDOW: usize = 4;

/// Bits per digit.
const DIGIT_BITS: usize = 52;
/// The low [`DIGIT_BITS`] bits.
const DIGIT_MASK: u64 = (1 << DIGIT_BITS) - 1;

/// Widest modulus the tier takes, in digits. An accumulator digit
/// gathers four product halves (each below 2⁵²) from each of at most `L`
/// rounds, plus carries below 2¹², so `L · 2⁵⁴` must stay below 2⁶⁴;
/// 512 digits (26 624 bits) leaves room and covers every protocol width.
const MAX_DIGITS: usize = 512;

impl MontCtx {
    /// `base^exp mod n` for every base, equal entry by entry to
    /// [`MontCtx::pow`]: the bases share this context's modulus and the
    /// one exponent.
    ///
    /// Groups of up to [`LANES`] consecutive bases run one eight-lane
    /// AVX-512 IFMA ladder when the CPU has it and the group is large
    /// enough to gain; all other bases run `pow`'s scalar tiers. Every
    /// lane multiply counts once per base it serves in
    /// [`mont_mul_count`](super::mont_mul_count), so a group's count is
    /// its size times the window model of the ladder that ran.
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
        // Dispatch reads the CPU, the modulus width and the group size,
        // never the exponent.
        let ifma = Ifma::detect().filter(|_| lane_digits(self) <= MAX_DIGITS);
        let mut out = Vec::with_capacity(bases.len());
        let mut scratch = None;
        for group in bases.chunks(LANES) {
            match ifma.filter(|_| group.len() >= MIN_LANE_GROUP) {
                Some(ifma) => out.extend(pow_lanes(ifma, self, group, exp)),
                None => out.extend(pow_scalar(self, group, exp, &mut scratch)),
            }
        }
        out
    }
}

/// The scalar tiers for one group: `pow` per base, on one scratch.
pub(super) fn pow_scalar<'a, B: Borrow<Ubig>>(
    ctx: &'a MontCtx,
    group: &'a [B],
    exp: &'a Ubig,
    scratch: &'a mut Option<super::MontScratch>,
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

/// A lane group's inputs in radix 2⁵². Vectors of `LANES` values are
/// stored digit-major: digit `j` of lane `i` sits at `[j·LANES + i]`.
/// For a secret modulus (`p²`, `q²`) every field derives from it, so the
/// whole job is wiped on drop, and so are the big integers it is built
/// from.
struct Job {
    /// `L`, the digit count.
    digits: usize,
    /// The modulus, `L` digits.
    n: Vec<u64>,
    /// `−n⁻¹ mod 2⁵²`.
    k0: u64,
    /// `R′ mod n`, the lane form of 1, `L` digits.
    one: Vec<u64>,
    /// `R′² mod n`, which carries a base into lane form, `L` digits.
    r2: Vec<u64>,
    /// The bases, reduced below `n`, `L · LANES` digits.
    bases: Vec<u64>,
    /// The ladder's window width.
    window: usize,
    /// Bases in the group; lanes beyond it raise 0 and are dropped.
    lanes: u64,
}

impl Drop for Job {
    fn drop(&mut self) {
        self.n.zeroize();
        self.one.zeroize();
        self.r2.zeroize();
        self.bases.zeroize();
        self.k0.zeroize();
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

impl Job {
    /// Lays out one group of at most [`LANES`] bases.
    fn new<B: Borrow<Ubig>>(ctx: &MontCtx, group: &[B], bits: usize) -> Job {
        let l = lane_digits(ctx);
        // R′ − one and one² − r2 are multiples of n.
        let one = Zeroizing::new((Ubig::one() << (DIGIT_BITS * l)) % &ctx.n);
        let square = Zeroizing::new(&*one * &*one);
        let r2 = Zeroizing::new(&*square % &ctx.n);
        let mut bases = vec![0u64; l * LANES];
        for (i, b) in group.iter().take(LANES).enumerate() {
            let b = b.borrow();
            let reduced;
            let b = if b < &ctx.n {
                b
            } else {
                reduced = Zeroizing::new(b % &ctx.n);
                &*reduced
            };
            for j in 0..l {
                bases[j * LANES + i] = digit52(b.as_limbs(), j);
            }
        }
        Job {
            digits: l,
            n: digits_of(&ctx.n, l),
            k0: ctx.n0_inv & DIGIT_MASK,
            one: digits_of(&one, l),
            r2: digits_of(&r2, l),
            bases,
            window: lane_window(bits),
            lanes: group.len().min(LANES) as u64,
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
    let job = Job::new(ctx, group, exp.bit_len());
    let mut digits = ifma.ladder(&job, exp);
    let nl = ctx.n.as_limbs();
    let powers = (0..group.len().min(LANES))
        .map(|i| {
            let lane = digits.iter().skip(i).step_by(LANES).copied();
            let mut limbs = limbs_of(lane, ctx.k);
            // The ladder leaves a value of at most n: subtract n once
            // more, branch-free, when it is n.
            reduce_once(&mut limbs, nl, 0);
            Ubig::from_limbs(limbs)
        })
        .collect();
    digits.zeroize();
    powers
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

    /// Runs the ladder; returns each lane's value, out of lane form and
    /// at most n, digit-major.
    #[cfg(target_arch = "x86_64")]
    #[allow(unsafe_code)]
    fn ladder(self, job: &Job, exp: &Ubig) -> Vec<u64> {
        // SAFETY: `ifma::ladder` is compiled for avx512f and avx512ifma
        // and needs nothing else. An `Ifma` exists only once
        // `Ifma::detect`'s `is_x86_feature_detected!` checks have seen
        // both features on this CPU at run time.
        unsafe { ifma::ladder(job, exp) }
    }

    #[cfg(not(target_arch = "x86_64"))]
    fn ladder(self, _: &Job, _: &Ubig) -> Vec<u64> {
        unreachable!("an Ifma exists only on x86-64")
    }
}

#[cfg(target_arch = "x86_64")]
mod ifma {
    //! The AVX-512 kernel. Everything here is compiled for `avx512f` and
    //! `avx512ifma` and reached only through [`super::Ifma`].

    use super::{bump_mul_count_by, digit, Job, DIGIT_MASK, LANES};
    use crate::Ubig;
    use std::arch::x86_64::{
        __m512i, _mm256_extract_epi64, _mm512_add_epi64, _mm512_and_si512, _mm512_castsi512_si256,
        _mm512_extracti64x4_epi64, _mm512_madd52hi_epu64, _mm512_madd52lo_epu64, _mm512_set1_epi64,
        _mm512_set_epi64, _mm512_setzero_si512, _mm512_srli_epi64,
    };
    use std::sync::Mutex;

    /// `base^exp` for every lane of `job`, through the fixed-window
    /// ladder of `MontCtx::pow_mont` on the shared exponent, then out of
    /// lane form. Returns each lane's value (at most n) digit-major.
    /// Every buffer that held a residue is wiped before it is freed.
    #[target_feature(enable = "avx512f,avx512ifma")]
    pub(super) fn ladder(job: &Job, exp: &Ubig) -> Vec<u64> {
        let l = job.digits;
        let w = job.window;
        let table_len = 1usize << w;
        let zero = _mm512_setzero_si512();
        let k0 = _mm512_set1_epi64(job.k0 as i64);
        let count = || bump_mul_count_by(job.lanes);

        // One workspace holds every vector of the group: the table
        // (entry d at [d·L, (d+1)·L) holds base^d in lane form), the
        // multiply's 2L digits of working space, the ladder's two
        // registers, the modulus and one operand slot.
        let mut space = take_space();
        space.resize((table_len + 6) * l, zero);
        let (table, rest) = space.split_at_mut(table_len * l);
        let (t, rest) = rest.split_at_mut(2 * l);
        let (mut acc, rest) = rest.split_at_mut(l);
        let (mut tmp, rest) = rest.split_at_mut(l);
        let (n, operand) = rest.split_at_mut(l);
        splat(&job.n, n);
        splat(&job.one, &mut table[..l]);
        // base·R′ = AMM(base, R′²), built in the ladder registers.
        gather(&job.bases, acc);
        splat(&job.r2, tmp);
        amm(acc, tmp, n, k0, t, &mut table[l..2 * l]);
        count();
        for d in 2..table_len {
            let (lo, hi) = table.split_at_mut(d * l);
            amm(&lo[(d - 1) * l..], &lo[l..2 * l], n, k0, t, &mut hi[..l]);
            count();
        }

        // A zero exponent is one window whose digit 0 selects the lane
        // form of 1: no branch tells it apart.
        let windows = exp.bit_len().div_ceil(w).max(1);
        let top = digit(exp, windows - 1, w);
        acc.copy_from_slice(&table[top * l..(top + 1) * l]);
        for win in (0..windows - 1).rev() {
            for _ in 0..w {
                amm(acc, acc, n, k0, t, tmp);
                std::mem::swap(&mut acc, &mut tmp);
                count();
            }
            // Zero digits multiply by entry 0, the lane form of 1.
            let d = digit(exp, win, w);
            amm(acc, &table[d * l..(d + 1) * l], n, k0, t, tmp);
            std::mem::swap(&mut acc, &mut tmp);
            count();
        }

        // Leaving lane form is a multiply by 1 (uncounted, as `from_mont`
        // is): (x + m·n)/R′ < n + 1 for x < 2n.
        operand.fill(zero);
        operand[0] = _mm512_set1_epi64(1);
        amm(acc, operand, n, k0, t, tmp);
        let out = scatter(tmp);
        crate::zeroize::wipe(&mut space, zero);
        keep_space(space);
        out
    }

    /// Wiped workspaces of finished groups, kept for later ones. Freed
    /// after every group instead, a workspace left a hole that the next
    /// group's 64-byte-aligned request could not reuse once small
    /// allocations had settled beside it: with glibc 2.36 the heap grew
    /// by about one workspace per group (188 KiB at 4096 bits), and peak
    /// RSS with it, the longer the run the more (`paper-2048` +1.2 MiB
    /// in 30 s; `loopback-closed`, which runs the most groups at once,
    /// +0.6 MiB in 10 s and +1.1 MiB in 30 s while only two were kept).
    /// Every workspace is kept, so the lane tier holds as many as were
    /// ever in flight at once, each sized for the widest group it ran.
    static SPARE: Mutex<Vec<Vec<__m512i>>> = Mutex::new(Vec::new());

    /// A kept workspace, or a new empty one.
    fn take_space() -> Vec<__m512i> {
        SPARE
            .lock()
            .ok()
            .and_then(|mut spare| spare.pop())
            .unwrap_or_default()
    }

    /// Keeps a wiped workspace for a later group.
    fn keep_space(space: Vec<__m512i>) {
        if let Ok(mut spare) = SPARE.lock() {
            spare.push(space);
        }
    }

    /// AMM: `out ← a·b·R′⁻¹ mod n`, below 2n, for `a, b < 2n` with
    /// normalised digits; `t` is `2L` digits of working space.
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

    /// Each digit broadcast to every lane of its vector in `out`.
    #[target_feature(enable = "avx512f,avx512ifma")]
    fn splat(digits: &[u64], out: &mut [__m512i]) {
        for (v, &d) in out.iter_mut().zip(digits) {
            *v = _mm512_set1_epi64(d as i64);
        }
    }

    /// Digit-major lane values as one vector per digit in `out`.
    #[target_feature(enable = "avx512f,avx512ifma")]
    fn gather(digits: &[u64], out: &mut [__m512i]) {
        for (v, d) in out.iter_mut().zip(digits.chunks_exact(LANES)) {
            *v = _mm512_set_epi64(
                d[7] as i64,
                d[6] as i64,
                d[5] as i64,
                d[4] as i64,
                d[3] as i64,
                d[2] as i64,
                d[1] as i64,
                d[0] as i64,
            );
        }
    }

    /// One vector per digit back to digit-major lane values.
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
            .chain(
                bits.iter()
                    .map(|&b| (Ubig::one() << (b - 1)) + Ubig::from(b as u64 >> 1)),
            )
            .collect()
    }

    /// `pow` entry by entry: the oracle.
    fn expected(ctx: &MontCtx, bases: &[Ubig], e: &Ubig) -> Vec<Ubig> {
        bases.iter().map(|b| ctx.pow(b, e)).collect()
    }

    /// The scalar path of a group, as `pow_many` runs it below the lane
    /// threshold or without IFMA.
    fn scalar(ctx: &MontCtx, bases: &[Ubig], e: &Ubig) -> Vec<Ubig> {
        pow_scalar(ctx, bases, e, &mut None).collect()
    }

    /// The lane tier when this CPU runs it; the lane checks are skipped,
    /// and say so, where it does not.
    fn lanes_here() -> Option<Ifma> {
        let here = Ifma::detect();
        if here.is_none() {
            eprintln!("no avx512f + avx512ifma here: lane checks skipped, scalar checks ran");
        }
        here
    }

    /// Every width, both moduli, every exponent tier, edge bases: the
    /// lane ladder (when the CPU has it) and the scalar group path equal
    /// `pow` entry by entry.
    #[test]
    fn lane_and_scalar_groups_equal_pow_at_every_width_and_window() {
        let here = lanes_here();
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

    /// Batches of 1, 3, 7, 8, 9 and 17 bases through `pow_many` (full
    /// groups, short tails, groups below the lane threshold), and every
    /// group size from 1 to 8 straight through the lane ladder.
    #[test]
    fn pow_many_equals_pow_for_every_batch_size() {
        let here = lanes_here();
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
