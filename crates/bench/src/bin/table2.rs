//! Regenerates **Table II** — "Benchmark of Paillier cryptosystem
//! (n is 2048-bit)" — with this implementation on this machine.
//!
//! ```sh
//! cargo run --release -p pisa-bench --bin table2 [key_bits]
//! ```

use pisa_bench::{fmt_duration, time_avg};
use pisa_bigint::random::random_bits;
use pisa_bigint::Ibig;
use pisa_crypto::paillier::PaillierKeyPair;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let bits: usize = std::env::args()
        .nth(1)
        .map(|s| s.parse().expect("key size in bits"))
        .unwrap_or(2048);
    let iters = 30; // paper: average of 30 iterations

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

    let row = |name: &str, paper: &str, d: std::time::Duration| {
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
}
