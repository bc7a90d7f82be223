//! Speed gate for the Montgomery kernels, as a ratio measured in one
//! process: the fused multiply and the squaring kernel against
//! `mont_mul_reference` (a full product, then a separate REDC pass) at
//! 64 limbs, the width of n² for 2048-bit keys. Both sides run on the
//! same host in interleaved batches, so the ratio does not depend on how
//! fast the host is. Ignored by default (timing needs a release build);
//! the CI bench lane runs it with
//! `cargo test --release -p pisa-bigint --test kernel_speed -- --ignored`.

use pisa_bigint::modular::MontCtx;
use pisa_bigint::Ubig;
use std::hint::black_box;
use std::time::Instant;

/// Limb width of n² for 2048-bit keys.
const LIMBS: usize = 64;
/// A kernel fails the gate above this fraction of the reference's time.
/// The fused kernels measure well below it; a product-then-REDC kernel
/// put back in their place measures about 1.
const MAX_RATIO: f64 = 0.8;

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
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut limbs = xorshift_limbs(&mut state, LIMBS);
    limbs[0] |= 1;
    limbs[LIMBS - 1] |= 1 << 63;
    let n = Ubig::from_limbs(limbs);
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
