//! Regenerates **Table II** — "Benchmark of Paillier cryptosystem
//! (n is 2048-bit)" — with this implementation on this machine, then
//! prices the design choices behind it at the same key size:
//!
//! * PISA's blinded sign test against the ℓ = 60 bitwise secure
//!   comparison of §IV-B (`pisa::ablation`);
//! * the cost of privacy: a plaintext WATCH decision against one full
//!   PISA round on the same request;
//! * Montgomery against division-based modular exponentiation.
//!
//! ```sh
//! cargo run --release -p pisa-bench --bin table2 [key_bits]
//! ```

use pisa::ablation::BitwiseComparison;
use pisa::prelude::*;
use pisa::{SdcServer, StpServer, SuClient, SuId};
use pisa_bench::{fmt_duration, scaled_config, time_avg};
use pisa_bigint::modular::mod_pow;
use pisa_bigint::random::random_bits;
use pisa_bigint::{Ibig, Ubig};
use pisa_crypto::blind::Blinder;
use pisa_crypto::paillier::PaillierKeyPair;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;

fn main() {
    let bits: usize = std::env::args()
        .nth(1)
        .map(|s| s.parse().expect("key size in bits"))
        .unwrap_or(2048);
    let iters = 30; // paper: average of 30 iterations
    let rounds = 3; // for rows that each cost hundreds of mod-exps

    println!("Table II: Benchmark of Paillier cryptosystem (n is {bits}-bit)");
    println!("(paper values for n=2048 on an i5-2400 with GMP in parentheses)\n");

    let mut rng = StdRng::seed_from_u64(0x7ab1e);
    let kp = PaillierKeyPair::generate(&mut rng, bits);
    let pk = kp.public();

    println!(
        "{:<42} {:>12}",
        "Public key size",
        format!("{} bits", 2 * bits)
    );
    println!(
        "{:<42} {:>12}",
        "Secret key size",
        format!("{} bits", 2 * bits)
    );
    println!(
        "{:<42} {:>12}",
        "Plaintext message size",
        format!("{bits} bits")
    );
    println!(
        "{:<42} {:>12}",
        "Ciphertext size",
        format!("{} bits", pk.ciphertext_bytes() * 8)
    );

    let m = Ibig::from(0x0123_4567_89ab_cdefi64);
    let c1 = pk.encrypt(&m, &mut rng);
    let c2 = pk.encrypt(&Ibig::from(7i64), &mut rng);
    let k100 = Ibig::from(random_bits(&mut rng, 100));
    let kfull = Ibig::from(random_bits(&mut rng, bits - 8));

    let row = |name: &str, paper: &str, d: Duration| {
        println!("{:<42} {:>12}   (paper: {paper})", name, fmt_duration(d));
    };

    let mut enc_rng = StdRng::seed_from_u64(1);
    row(
        "Encryption",
        "30.378 ms",
        time_avg(iters, || pk.encrypt(&m, &mut enc_rng)),
    );
    row(
        "Decryption (CRT)",
        "21.170 ms",
        time_avg(iters, || kp.secret().decrypt(&c1)),
    );
    row(
        "Decryption (standard)",
        "-",
        time_avg(iters, || kp.secret().decrypt_standard(&c1)),
    );
    row(
        "Homomorphic addition",
        "0.004 ms",
        time_avg(iters, || pk.add(&c1, &c2)),
    );
    row(
        "Homomorphic subtraction",
        "0.073 ms",
        time_avg(iters, || pk.sub(&c1, &c2).unwrap()),
    );
    row(
        "Homomorphic scale (100-bit constant)",
        "1.564 ms",
        time_avg(iters, || pk.scalar_mul(&c1, &k100).unwrap()),
    );
    row(
        "Homomorphic scale (full-size)",
        "18.867 ms",
        time_avg(iters, || pk.scalar_mul(&c1, &kfull).unwrap()),
    );
    let mut rr_rng = StdRng::seed_from_u64(2);
    row(
        "Re-randomization",
        "-",
        time_avg(iters, || pk.rerandomize(&c1, &mut rr_rng)),
    );
    // §VI-A's refresh: rⁿ computed offline, one multiplication online.
    let factor = pk.precompute_randomizer(&mut rr_rng);
    row(
        "Re-randomization, precomputed rⁿ (online)",
        "-",
        time_avg(iters, || pk.rerandomize_precomputed(&c1, &factor)),
    );
    // A matrix-wide fan-out hands each worker up to eight entries, whose
    // powers share the key and the exponent (`MontCtx::pow_many`).
    let mut group_rng = StdRng::seed_from_u64(3);
    row(
        "Encryption, per entry of a group of 8",
        "-",
        time_avg(iters, || {
            let entries: Vec<_> = (0..8)
                .map(|_| (m.clone(), pk.draw_nonce(&mut group_rng)))
                .collect();
            pk.encrypt_with_nonces(&entries)
        }) / 8,
    );
    let group: Vec<_> = (0..8i64)
        .map(|i| pk.encrypt(&Ibig::from(i), &mut group_rng))
        .collect();
    row(
        "Decryption (CRT), per entry of a group of 8",
        "-",
        time_avg(iters, || kp.secret().decrypt_many(&group)) / 8,
    );

    println!("\nshape checks: add ≪ sub ≪ scale(100) < scale(full) ≈ enc ≈ dec·(1..2)");

    println!("\n§IV-B: one secure comparison");
    // SDC blind (eq. 14), STP decrypt and sign, STP re-encrypt, SDC
    // unblind (eq. 16): the whole per-entry pipeline.
    let blinder = Blinder::new(128);
    let i_ct = pk.encrypt(&Ibig::from(123_456i64), &mut rng);
    let one = pk.encrypt_public_constant(&Ibig::from(1i64));
    let mut sign_rng = StdRng::seed_from_u64(4);
    let pisa_entry = time_avg(iters, || {
        let f = blinder.sample(&mut sign_rng);
        let scaled = pk.scalar_mul(&i_ct, &Ibig::from(f.alpha.clone())).unwrap();
        let beta_ct = pk.encrypt(&Ibig::from(f.beta.clone()), &mut sign_rng);
        let v = pk
            .scalar_mul(&pk.sub(&scaled, &beta_ct).unwrap(), &f.epsilon.as_scalar())
            .unwrap();
        let x = if kp.secret().decrypt(&v).is_positive() {
            1i64
        } else {
            -1
        };
        let x_ct = pk.encrypt(&Ibig::from(x), &mut sign_rng);
        let unblinded = pk.scalar_mul(&x_ct, &f.epsilon.as_scalar()).unwrap();
        pk.sub(&unblinded, &one).unwrap()
    });
    row("PISA blinded sign test, per entry", "-", pisa_entry);
    let cmp = BitwiseComparison::paper_width();
    let mut cmp_rng = StdRng::seed_from_u64(5);
    let bitwise = time_avg(rounds, || {
        cmp.compare(123_456, 999_999, pk, kp.secret(), &mut cmp_rng)
    });
    row("Bitwise comparison (DGK-style, ℓ = 60)", "-", bitwise);

    // The same decision in the clear and over ciphertexts.
    let cfg = scaled_config(4, 3, 5, bits);
    println!(
        "\ncost of privacy: one request, {} channels × {} blocks",
        cfg.channels(),
        cfg.blocks()
    );
    let watch_sdc = pisa_watch::WatchSdc::new(cfg.watch().clone());
    let request = pisa_watch::SuRequest::full_power(cfg.watch(), BlockId(1), &[Channel(0)]);
    let plain = time_avg(iters, || watch_sdc.process_request(&request));
    row("Plaintext WATCH decision", "-", plain);
    let mut round_rng = StdRng::seed_from_u64(6);
    let mut stp = StpServer::new(&mut round_rng, cfg.paillier_bits());
    let mut sdc = SdcServer::new(cfg.clone(), stp.public_key().clone(), "sdc", &mut round_rng);
    let mut su = SuClient::new(SuId(0), BlockId(1), &cfg, &mut round_rng);
    stp.register_su(SuId(0), su.public_key().clone());
    let round = time_avg(rounds, || {
        pisa::run_request_direct(&mut su, &mut sdc, &stp, &[Channel(0)], &mut round_rng).unwrap()
    });
    row("PISA round (request, sign test, release)", "-", round);

    // An exponent of half the modulus width keeps the division-based
    // ladder short enough to average.
    println!(
        "\nmodular exponentiation, {bits}-bit modulus, {}-bit exponent",
        bits / 2
    );
    let modulus = pk.modulus();
    let base = random_bits(&mut rng, bits - 1);
    let exp = random_bits(&mut rng, bits / 2);
    assert_eq!(
        division_mod_pow(&base, &exp, modulus),
        mod_pow(&base, &exp, modulus)
    );
    let montgomery = time_avg(iters, || mod_pow(&base, &exp, modulus));
    row("Montgomery", "-", montgomery);
    let division = time_avg(iters, || division_mod_pow(&base, &exp, modulus));
    row("Division-based reduction", "-", division);

    println!(
        "\nratios: bitwise / PISA entry {:.1}x, PISA round / WATCH {:.0}x, \
         division / Montgomery {:.1}x",
        ratio(bitwise, pisa_entry),
        ratio(round, plain),
        ratio(division, montgomery),
    );
}

/// Square-and-multiply that reduces each product by long division —
/// the baseline Montgomery multiplication replaces.
fn division_mod_pow(base: &Ubig, exp: &Ubig, modulus: &Ubig) -> Ubig {
    let base = base % modulus;
    let mut acc = Ubig::one();
    for i in (0..exp.bit_len()).rev() {
        acc = (&acc * &acc) % modulus;
        if exp.bit(i) {
            acc = (&acc * &base) % modulus;
        }
    }
    acc
}

fn ratio(a: Duration, b: Duration) -> f64 {
    a.as_secs_f64() / b.as_secs_f64().max(1e-12)
}
