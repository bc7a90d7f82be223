//! Speed gates for the bigint kernels, as ratios measured in one
//! process:
//! - the fused multiply and the squaring kernel against
//!   `mont_mul_reference` (a full product, then a separate REDC pass) at
//!   64 limbs, the width of n² for 2048-bit keys;
//! - the narrow kernel against `mont_mul_reference` at 6 and 12 limbs,
//!   the widths of p² and n² for 384-bit keys;
//! - `mod_inverse` against `mont_mul_reference` at 12 and 64 limbs, the
//!   widths of n² for 384- and 2048-bit keys;
//! - `MontCtx::inverse_many` of eight values against eight `mod_inverse`
//!   calls at the same widths;
//! - an 8-entry `pow_many` against eight powers on the scalar ladder at
//!   12 and 64 limbs, and one `pow` against the scalar ladder at 32 and
//!   64 limbs, on a CPU with AVX-512 IFMA (elsewhere these gates print
//!   that they skipped and why). The scalar ladder is `pow_with`, which
//!   never takes an IFMA tier, as the inverse gate prices in
//!   `mont_mul_reference`.
//!
//! Both sides of a ratio run on the same host in interleaved batches, so
//! the ratio does not depend on how fast the host is. Ignored by default
//! (timing needs a release build); the CI bench lane runs them with
//! `cargo test --release -p pisa-bigint --test kernel_speed -- --ignored`.

use pisa_bigint::modular::{gcd, mod_inverse, MontCtx};
use pisa_bigint::Ubig;
use std::hint::black_box;
use std::sync::{Mutex, MutexGuard};
use std::time::Instant;

/// Held by each gate for its whole run. `cargo test` runs tests on
/// parallel threads, and on a 2-vCPU host one gate's batches (the
/// eight-lane AVX-512 ones above all) then share a core with another
/// gate's: the narrow gate once read 0.68 at 12 limbs beside the lane
/// gate and 0.48 alone.
static ONE_GATE_AT_A_TIME: Mutex<()> = Mutex::new(());

fn one_gate_at_a_time() -> MutexGuard<'static, ()> {
    ONE_GATE_AT_A_TIME
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Limb width of n² for 2048-bit keys.
const LIMBS: usize = 64;
/// A kernel fails the gate above this fraction of the reference's time.
/// The fused kernels measure well below it; a product-then-REDC kernel
/// put back in their place measures about 1.
const MAX_RATIO: f64 = 0.8;
/// The narrow kernel fails the gate above this fraction of the
/// reference's time. On a shared 2-vCPU Xeon it measures 0.38–0.57 at
/// 6 and 12 limbs, and the fused product-scanning kernel that ran there
/// before it 0.69–0.86; the cut-off sits between the two ranges.
const MAX_NARROW_RATIO: f64 = 0.63;
/// An inversion fails the gate above this many `mont_mul_reference`
/// calls of its modulus. The unit is the reference multiply because no
/// kernel change moves it: priced in `mont_mul`s, each faster multiply
/// tightened the gate while the inverse stayed the same (at 12 limbs the
/// narrow kernel moved the reading from 33 to 41–50). On a shared 2-vCPU
/// Xeon the divsteps kernel measures 19–25 at 12 limbs and 12–15 at 64,
/// and the binary extended GCD it replaced 134–145 at both widths; the
/// cut-off sits between the two ranges.
const MAX_INVERSE_MULS: f64 = 40.0;
/// A batched inverse of eight values fails the gate above this fraction
/// of the time of eight `mod_inverse` calls. On a shared 2-vCPU Xeon
/// `MontCtx::inverse_many` (one inversion and 21 Montgomery multiplies)
/// measures 0.16–0.20 at 12 limbs and 0.24–0.25 at 64; inverting each value
/// on its own measures 1.00 at both.
const MAX_BATCH_INVERSE_RATIO: f64 = 0.5;
/// An 8-entry `pow_many` fails the gate above this fraction of the time
/// of eight powers on the scalar ladder. On a shared 2-vCPU Xeon with
/// `avx512ifma` the lane tier measures 0.13–0.25 at 6–64 limbs; eight
/// scalar powers, which `pow_many` runs without it, measure 1. At 64
/// limbs eight single-tier powers cost less than one lane ladder, so
/// there the gate times them.
const MAX_LANES_RATIO: f64 = 0.5;
/// A single-tier `pow` fails the gate above this fraction of the time of
/// the scalar ladder. On a shared 2-vCPU Xeon with `avx512ifma` it
/// measures 0.31–0.33 at 32 limbs and 0.17–0.21 at 64; the scalar ladder,
/// which `pow` runs without it, measures 1 (0.99–1.04 with the scalar
/// tier put back in `pow`'s dispatch).
const MAX_SINGLE_RATIO: f64 = 0.5;

fn xorshift_limbs(state: &mut u64, k: usize) -> Vec<u64> {
    (0..k)
        .map(|_| {
            *state ^= *state << 13;
            *state ^= *state >> 7;
            *state ^= *state << 17;
            *state
        })
        .collect()
}

/// A pseudo-random odd modulus of `k` limbs with its top bit set.
fn odd_modulus(state: &mut u64, k: usize) -> Ubig {
    let mut limbs = xorshift_limbs(state, k);
    limbs[0] |= 1;
    limbs[k - 1] |= 1 << 63;
    Ubig::from_limbs(limbs)
}

/// Nanoseconds per call of `op` over one batch of `iters` calls, each
/// fed the result of the call before.
fn ns_per_call(x: &Ubig, iters: usize, mut op: impl FnMut(&Ubig) -> Ubig) -> f64 {
    let mut x = x.clone();
    let start = Instant::now();
    for _ in 0..iters {
        x = op(black_box(&x));
    }
    black_box(&x);
    start.elapsed().as_nanos() as f64 / iters as f64
}

#[test]
#[ignore = "tier-2: timing ratio, run in release via the CI bench lane"]
fn fused_kernels_beat_the_reference_at_64_limbs() {
    let _serial = one_gate_at_a_time();
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let n = odd_modulus(&mut state, LIMBS);
    let ctx = MontCtx::new(&n).expect("odd modulus");
    let mut s = ctx.scratch();
    let a = Ubig::from_limbs(xorshift_limbs(&mut state, LIMBS)) % &n;
    let b = Ubig::from_limbs(xorshift_limbs(&mut state, LIMBS)) % &n;
    let (a, b) = (ctx.to_mont(&a, &mut s), ctx.to_mont(&b, &mut s));

    // Interleaved batches, fastest of each: a burst of host noise slows
    // one batch, not one side.
    let (mut reference, mut mul, mut sqr) = (f64::MAX, f64::MAX, f64::MAX);
    for _ in 0..100 {
        reference = reference.min(ns_per_call(&a, 400, |x| ctx.mont_mul_reference(x, &b)));
        mul = mul.min(ns_per_call(&a, 400, |x| ctx.mont_mul(x, &b, &mut s)));
        sqr = sqr.min(ns_per_call(&a, 400, |x| ctx.mont_sqr(x, &mut s)));
    }
    let (mul_ratio, sqr_ratio) = (mul / reference, sqr / reference);
    println!(
        "{LIMBS} limbs: reference {reference:.0} ns, multiply {mul:.0} ns ({mul_ratio:.2}x), \
         squaring {sqr:.0} ns ({sqr_ratio:.2}x)"
    );
    assert!(
        mul_ratio <= MAX_RATIO,
        "fused multiply at {mul_ratio:.2}x of the reference (max {MAX_RATIO})"
    );
    assert!(
        sqr_ratio <= MAX_RATIO,
        "squaring kernel at {sqr_ratio:.2}x of the reference (max {MAX_RATIO})"
    );
}

#[test]
#[ignore = "tier-2: timing ratio, run in release via the CI bench lane"]
fn narrow_kernel_beats_the_reference_at_6_and_12_limbs() {
    let _serial = one_gate_at_a_time();
    let mut state = 0xd1b5_4a32_d192_ed03u64;
    let ratios: Vec<(usize, f64)> = [6, 12]
        .into_iter()
        .map(|limbs| {
            let n = odd_modulus(&mut state, limbs);
            let ctx = MontCtx::new(&n).expect("odd modulus");
            let mut s = ctx.scratch();
            let a = Ubig::from_limbs(xorshift_limbs(&mut state, limbs)) % &n;
            let b = Ubig::from_limbs(xorshift_limbs(&mut state, limbs)) % &n;
            let (a, b) = (ctx.to_mont(&a, &mut s), ctx.to_mont(&b, &mut s));

            let (mut reference, mut mul) = (f64::MAX, f64::MAX);
            for _ in 0..100 {
                reference = reference.min(ns_per_call(&a, 2000, |x| ctx.mont_mul_reference(x, &b)));
                mul = mul.min(ns_per_call(&a, 2000, |x| ctx.mont_mul(x, &b, &mut s)));
            }
            let ratio = mul / reference;
            println!(
                "{limbs} limbs: reference {reference:.1} ns, mont_mul {mul:.1} ns ({ratio:.2}x)"
            );
            (limbs, ratio)
        })
        .collect();
    for (limbs, ratio) in ratios {
        assert!(
            ratio <= MAX_NARROW_RATIO,
            "mont_mul at {limbs} limbs at {ratio:.2}x of the reference (max {MAX_NARROW_RATIO})"
        );
    }
}

#[test]
#[ignore = "tier-2: timing ratio, run in release via the CI bench lane"]
fn inverse_costs_few_mont_muls_at_12_and_64_limbs() {
    let _serial = one_gate_at_a_time();
    let mut state = 0x2545_f491_4f6c_dd1du64;
    let mut readings = Vec::new();
    for limbs in [12, 64] {
        let n = odd_modulus(&mut state, limbs);
        let ctx = MontCtx::new(&n).expect("odd modulus");
        let mut s = ctx.scratch();
        let mut a = Ubig::from_limbs(xorshift_limbs(&mut state, limbs)) % &n;
        while !gcd(&a, &n).is_one() {
            a = &a + &Ubig::one();
        }
        let b = ctx.to_mont(&a, &mut s);

        // Each inversion undoes the one before, so every call inverts a
        // unit.
        let (mut reference, mut mul, mut inverse) = (f64::MAX, f64::MAX, f64::MAX);
        for _ in 0..50 {
            reference = reference.min(ns_per_call(&a, 400, |x| ctx.mont_mul_reference(x, &b)));
            mul = mul.min(ns_per_call(&a, 400, |x| ctx.mont_mul(x, &b, &mut s)));
            inverse = inverse.min(ns_per_call(&a, 10, |x| {
                mod_inverse(x, &n).expect("unit modulo n")
            }));
        }
        let muls = inverse / reference;
        println!(
            "{limbs} limbs: mont_mul_reference {reference:.0} ns, mod_inverse {inverse:.0} ns \
             ({muls:.1} reference multiplies; {:.1} mont_muls)",
            inverse / mul
        );
        readings.push((limbs, muls));
    }
    for (limbs, muls) in readings {
        assert!(
            muls <= MAX_INVERSE_MULS,
            "mod_inverse at {limbs} limbs costs {muls:.1} reference multiplies \
             (max {MAX_INVERSE_MULS})"
        );
    }
}

#[test]
#[ignore = "tier-2: timing ratio, run in release via the CI bench lane"]
fn batched_inverse_of_eight_beats_eight_inversions_at_12_and_64_limbs() {
    let _serial = one_gate_at_a_time();
    let mut state = 0x3c6e_f372_fe94_f82bu64;
    let mut readings = Vec::new();
    for (limbs, rounds) in [(12usize, 200), (64, 40)] {
        let n = odd_modulus(&mut state, limbs);
        let ctx = MontCtx::new(&n).expect("odd modulus");
        let values: Vec<Ubig> = (0..8)
            .map(|_| {
                let mut a = Ubig::from_limbs(xorshift_limbs(&mut state, limbs)) % &n;
                while !gcd(&a, &n).is_one() {
                    a = &a + &Ubig::one();
                }
                a
            })
            .collect();
        let (mut single, mut batch) = (f64::MAX, f64::MAX);
        for _ in 0..rounds {
            let t = Instant::now();
            for v in &values {
                black_box(mod_inverse(black_box(v), &n));
            }
            single = single.min(t.elapsed().as_nanos() as f64);
            let t = Instant::now();
            black_box(ctx.inverse_many(black_box(&values)));
            batch = batch.min(t.elapsed().as_nanos() as f64);
        }
        let ratio = batch / single;
        println!(
            "{limbs} limbs: 8 mod_inverse {:.1} us, inverse_many(8) {:.1} us ({ratio:.2}x)",
            single / 1e3,
            batch / 1e3
        );
        readings.push((limbs, ratio));
    }
    for (limbs, ratio) in readings {
        assert!(
            ratio <= MAX_BATCH_INVERSE_RATIO,
            "inverse_many(8) at {limbs} limbs at {ratio:.2}x of eight inversions \
             (max {MAX_BATCH_INVERSE_RATIO})"
        );
    }
}

/// Whether this CPU runs the IFMA tiers; if not, says that `gate`
/// skipped and why.
fn ifma_here(gate: &str) -> bool {
    #[cfg(target_arch = "x86_64")]
    let here = std::arch::is_x86_feature_detected!("avx512f")
        && std::arch::is_x86_feature_detected!("avx512ifma");
    #[cfg(not(target_arch = "x86_64"))]
    let here = false;
    if !here {
        println!(
            "skipped: this CPU lacks avx512f + avx512ifma, so {gate} runs the scalar ladder \
             it would be timed against"
        );
    }
    here
}

#[test]
#[ignore = "tier-2: timing ratio, run in release via the CI bench lane"]
fn eight_lane_pow_many_beats_eight_pows_at_12_and_64_limbs() {
    let _serial = one_gate_at_a_time();
    if !ifma_here("pow_many") {
        return;
    }
    let mut state = 0x6a09_e667_f3bc_c909u64;
    let mut readings = Vec::new();
    // Each width with the exponent of its protocol role: half the
    // modulus width (rⁿ mod n² at 12 and 64 limbs, c^(p−1) mod p² at 6
    // and 32). 6 and 32 are reported, not gated.
    for (limbs, rounds) in [(6usize, 40), (12, 20), (32, 5), (64, 3)] {
        let n = odd_modulus(&mut state, limbs);
        let ctx = MontCtx::new(&n).expect("odd modulus");
        let mut s = ctx.scratch();
        let exp = Ubig::from_limbs(xorshift_limbs(&mut state, limbs / 2)) | Ubig::one();
        let bases: Vec<Ubig> = (0..8)
            .map(|_| Ubig::from_limbs(xorshift_limbs(&mut state, limbs)) % &n)
            .collect();
        let (mut scalar, mut many) = (f64::MAX, f64::MAX);
        for _ in 0..rounds {
            let t = Instant::now();
            for b in &bases {
                black_box(ctx.pow_with(black_box(b), black_box(&exp), &mut s));
            }
            scalar = scalar.min(t.elapsed().as_nanos() as f64);
            let t = Instant::now();
            black_box(ctx.pow_many(black_box(&bases), black_box(&exp)));
            many = many.min(t.elapsed().as_nanos() as f64);
        }
        let ratio = many / scalar;
        println!(
            "{limbs} limbs: 8 scalar powers {:.3} ms, pow_many(8) {:.3} ms ({ratio:.2}x; the \
             group costs {:.1} scalar powers)",
            scalar / 1e6,
            many / 1e6,
            8.0 * ratio
        );
        readings.push((limbs, ratio));
    }
    for (limbs, ratio) in readings {
        if limbs == 12 || limbs == 64 {
            assert!(
                ratio <= MAX_LANES_RATIO,
                "pow_many(8) at {limbs} limbs at {ratio:.2}x of eight pows (max {MAX_LANES_RATIO})"
            );
        }
    }
}

#[test]
#[ignore = "tier-2: timing ratio, run in release via the CI bench lane"]
fn single_tier_pow_beats_the_scalar_ladder_at_32_and_64_limbs() {
    let _serial = one_gate_at_a_time();
    if !ifma_here("pow") {
        return;
    }
    let mut state = 0xbb67_ae85_84ca_a73bu64;
    let mut readings = Vec::new();
    // Each width with the exponent of its protocol role: half the
    // modulus width (c^(p−1) mod p² at 32 limbs, rⁿ mod n² at 64). 12
    // and 16 limbs (n² of 384-bit keys, Miller–Rabin of 1024-bit primes)
    // are reported, not gated.
    for (limbs, rounds) in [(12usize, 40), (16, 30), (32, 10), (64, 5)] {
        let n = odd_modulus(&mut state, limbs);
        let ctx = MontCtx::new(&n).expect("odd modulus");
        let mut s = ctx.scratch();
        let exp = Ubig::from_limbs(xorshift_limbs(&mut state, limbs / 2)) | Ubig::one();
        let bases: Vec<Ubig> = (0..4)
            .map(|_| Ubig::from_limbs(xorshift_limbs(&mut state, limbs)) % &n)
            .collect();
        let (mut scalar, mut single) = (f64::MAX, f64::MAX);
        for _ in 0..rounds {
            let t = Instant::now();
            for b in &bases {
                black_box(ctx.pow_with(black_box(b), black_box(&exp), &mut s));
            }
            scalar = scalar.min(t.elapsed().as_nanos() as f64);
            let t = Instant::now();
            for b in &bases {
                black_box(ctx.pow(black_box(b), black_box(&exp)));
            }
            single = single.min(t.elapsed().as_nanos() as f64);
        }
        let ratio = single / scalar;
        println!(
            "{limbs} limbs: scalar power {:.3} ms, pow {:.3} ms ({ratio:.2}x)",
            scalar / 4e6,
            single / 4e6
        );
        readings.push((limbs, ratio));
    }
    for (limbs, ratio) in readings {
        if limbs == 32 || limbs == 64 {
            assert!(
                ratio <= MAX_SINGLE_RATIO,
                "pow at {limbs} limbs at {ratio:.2}x of the scalar ladder (max {MAX_SINGLE_RATIO})"
            );
        }
    }
}
