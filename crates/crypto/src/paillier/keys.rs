//! Paillier key generation, encryption and decryption.

use super::ops::{Ciphertext, Nonce, Randomizer, RandomizerDraw};
use crate::error::CryptoError;
use pisa_bigint::modular::{gcd, lcm, mod_inverse, MontCtx};
use pisa_bigint::random::random_coprime;
use pisa_bigint::zeroize::{Zeroize, Zeroizing};
use pisa_bigint::{prime, Ibig, Sign, Ubig};
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Minimum supported modulus size in bits (small enough to admit
/// classroom test vectors; production keys are 2048 bits per the paper).
pub const MIN_KEY_BITS: usize = 16;

/// A Paillier public key `(n, g = n + 1)` with precomputed Montgomery
/// context for `n²`.
///
/// All homomorphic operations (paper Figure 2) live here; see
/// [`PaillierPublicKey::add`], [`sub`](PaillierPublicKey::sub) and
/// [`scalar_mul`](PaillierPublicKey::scalar_mul).
#[derive(Debug, Clone)]
pub struct PaillierPublicKey {
    n: Ubig,
    n_squared: Ubig,
    half_n: Ubig,
    ctx_n2: MontCtx,
}

impl PartialEq for PaillierPublicKey {
    fn eq(&self, other: &Self) -> bool {
        self.n == other.n
    }
}

impl Eq for PaillierPublicKey {}

impl PaillierPublicKey {
    /// Reconstructs a public key from its modulus.
    ///
    /// # Panics
    ///
    /// Panics if `n` is even or smaller than [`MIN_KEY_BITS`].
    pub fn from_modulus(n: Ubig) -> Self {
        assert!(
            n.bit_len() >= MIN_KEY_BITS,
            "modulus below minimum key size"
        );
        assert!(n.is_odd(), "Paillier modulus must be odd");
        let n_squared = n.square();
        // pisa-lint: allow(panic-freedom): n is asserted odd just above, so n²
        // is odd and MontCtx::new cannot fail; this is key setup, not a frame path.
        let ctx_n2 = MontCtx::new(&n_squared).expect("odd n² modulus");
        let half_n = &n >> 1;
        PaillierPublicKey {
            n,
            n_squared,
            half_n,
            ctx_n2,
        }
    }

    /// The modulus `n` defining the plaintext space `Z_n`.
    pub fn modulus(&self) -> &Ubig {
        &self.n
    }

    /// `n²`, the ciphertext-space modulus.
    pub fn modulus_squared(&self) -> &Ubig {
        &self.n_squared
    }

    /// Modulus size in bits (the paper's `|n| = 2048`).
    pub fn key_bits(&self) -> usize {
        self.n.bit_len()
    }

    /// Size of one serialized ciphertext in bytes (`2·|n|/8`).
    pub fn ciphertext_bytes(&self) -> usize {
        self.n_squared.bit_len().div_ceil(8)
    }

    /// Encodes a signed plaintext into `Z_n` by centered lift.
    ///
    /// # Panics
    ///
    /// Panics if `|m| > n/2` (the value would alias another residue).
    pub fn encode(&self, m: &Ibig) -> Ubig {
        assert!(
            m.magnitude() <= &self.half_n,
            "plaintext magnitude exceeds n/2: cannot center-lift"
        );
        m.rem_euclid(&self.n)
    }

    /// Decodes a residue in `Z_n` back to the signed domain
    /// `(-n/2, n/2]`.
    pub fn decode(&self, v: Ubig) -> Ibig {
        if v > self.half_n {
            Ibig::from_sign_magnitude(Sign::Negative, &self.n - &v)
        } else {
            Ibig::from(v)
        }
    }

    /// Encrypts a signed plaintext with a fresh random factor.
    ///
    /// # Panics
    ///
    /// Panics if `|m| > n/2`.
    pub fn encrypt<R: Rng + ?Sized>(&self, m: &Ibig, rng: &mut R) -> Ciphertext {
        self.encrypt_with_nonce(m, &self.draw_nonce(rng))
    }

    /// The sequential half of [`encrypt`](Self::encrypt): draws the
    /// nonce `r ∈ Z_n*` from `rng`, exactly as `encrypt` would.
    pub fn draw_nonce<R: Rng + ?Sized>(&self, rng: &mut R) -> Nonce {
        // `random_coprime` samples until gcd(r, n) = 1, so every nonce
        // meets the unit precondition of `raw_encrypt`.
        Nonce(random_coprime(rng, &self.n))
    }

    /// The pure half of [`encrypt`](Self::encrypt): one exponentiation
    /// under a nonce drawn by [`draw_nonce`](Self::draw_nonce), as a batch
    /// of one [`encrypt_with_nonces`](Self::encrypt_with_nonces). Use each
    /// nonce for at most one ciphertext.
    ///
    /// # Panics
    ///
    /// Panics if `|m| > n/2`.
    pub fn encrypt_with_nonce(&self, m: &Ibig, nonce: &Nonce) -> Ciphertext {
        only(self.encrypt_many(&[m], &[&nonce.0]))
    }

    /// [`encrypt_with_nonce`](Self::encrypt_with_nonce) for a batch of
    /// `(plaintext, nonce)` entries, equal to the single call entry by
    /// entry. The `rⁿ` exponentiations share `n` and `n²`, so they run
    /// side by side through [`MontCtx::pow_many`]. Counts one
    /// encryption per entry, as the single call does.
    ///
    /// # Panics
    ///
    /// Panics if some `|m| > n/2`.
    pub fn encrypt_with_nonces(&self, entries: &[(Ibig, Nonce)]) -> Vec<Ciphertext> {
        let ms: Vec<&Ibig> = entries.iter().map(|(m, _)| m).collect();
        let rs: Vec<&Ubig> = entries.iter().map(|(_, nonce)| &nonce.0).collect();
        self.encrypt_many(&ms, &rs)
    }

    /// Encrypts with an explicit random factor `r` (deterministic; used
    /// by tests and by the re-randomization benchmarks).
    ///
    /// Fails with [`CryptoError::MalformedCiphertext`] unless
    /// `r ∈ Z_n*`: `r = 0`, `r ≥ n` sharing a factor with `n`, or any
    /// other non-unit would produce a ciphertext that is not a unit
    /// modulo `n²` — undecryptable, and poison for every later
    /// `sub`/`scalar_mul`/`invert` that touches it.
    pub fn encrypt_with_r(&self, m: &Ibig, r: &Ubig) -> Result<Ciphertext, CryptoError> {
        // gcd(0, n) = n, so this single check also rejects r = 0.
        if !gcd(r, &self.n).is_one() {
            return Err(CryptoError::MalformedCiphertext);
        }
        Ok(only(self.encrypt_many(&[m], &[r])))
    }

    /// The encryption core every entry point shares: `ms[i]` under
    /// `rs[i]`; callers must guarantee each `r ∈ Z_n*`.
    ///
    /// Per entry, one exponentiation (`rⁿ`, all of them through
    /// [`MontCtx::pow_many`]) and two multiplications (the `m·n` product
    /// inside `gᵐ` and the final `gᵐ · rⁿ`). The final product is one
    /// reduction of the plain `gᵐ` against the Montgomery form of `rⁿ`:
    /// REDC(gᵐ · rⁿR) = gᵐ · rⁿ mod n².
    fn encrypt_many(&self, ms: &[&Ibig], rs: &[&Ubig]) -> Vec<Ciphertext> {
        let g_ms: Vec<Ubig> = ms.iter().map(|m| self.g_pow(m)).collect();
        let powers = self.ctx_n2.pow_many(rs, &self.n);
        let mut s = self.ctx_n2.scratch();
        g_ms.iter()
            .zip(powers)
            .map(|(g_m, r_n)| {
                obs_count!(ModExp);
                obs_count!(ModMul);
                obs_count!(ModMul);
                obs_count!(Encrypt);
                let rn_m = self.ctx_n2.to_mont(&r_n, &mut s);
                Ciphertext::from_raw(self.ctx_n2.mont_mul(g_m, &rn_m, &mut s))
            })
            .collect()
    }

    /// `gᵐ = (n + 1)ᵐ = 1 + m·n mod n²` for the encoded `m`. The encoding
    /// is below n, so `1 + m·n ≤ n² − n + 1` is already reduced.
    ///
    /// # Panics
    ///
    /// Panics if `|m| > n/2`.
    fn g_pow(&self, m: &Ibig) -> Ubig {
        Ubig::one() + &self.encode(m) * &self.n
    }

    /// Encrypts with a precomputed re-randomization factor — the online
    /// half of the paper's §VI-A offline/online split. Two modular
    /// multiplications, no exponentiation: `(1 + m·n) · rⁿ mod n²`.
    ///
    /// Each factor must be used for at most one ciphertext; reuse links
    /// the ciphertexts it produced.
    pub fn encrypt_with_randomizer(&self, m: &Ibig, factor: &Randomizer) -> Ciphertext {
        let g_m = self.g_pow(m);
        obs_count!(ModMul);
        obs_count!(ModMul);
        obs_count!(Encrypt);
        Ciphertext::from_raw((&g_m * &factor.0) % &self.n_squared)
    }

    /// Re-randomizes a ciphertext: multiplies by `rⁿ` for fresh `r`,
    /// changing the ciphertext without changing the plaintext.
    ///
    /// This online variant computes `rⁿ` on the spot (one
    /// exponentiation). The paper's 221 s → 11 s request-refresh trick
    /// (§VI-A) precomputes the `rⁿ` factors offline and pays only one
    /// multiplication per entry online — see
    /// [`precompute_randomizer`](Self::precompute_randomizer) and
    /// [`rerandomize_precomputed`](Self::rerandomize_precomputed).
    pub fn rerandomize<R: Rng + ?Sized>(&self, c: &Ciphertext, rng: &mut R) -> Ciphertext {
        let factor = self.precompute_randomizer(rng);
        self.rerandomize_precomputed(c, &factor)
    }

    /// Offline phase of request refresh: samples `r ∈ Z_n*` and computes
    /// the re-randomization factor `rⁿ mod n²` (the expensive
    /// exponentiation, done ahead of time).
    pub fn precompute_randomizer<R: Rng + ?Sized>(&self, rng: &mut R) -> Randomizer {
        self.raise_randomizer(&self.draw_randomizer(rng))
    }

    /// The sequential half of
    /// [`precompute_randomizer`](Self::precompute_randomizer): draws
    /// `r ∈ Z_n*` from `rng`, exactly as `precompute_randomizer` would.
    pub fn draw_randomizer<R: Rng + ?Sized>(&self, rng: &mut R) -> RandomizerDraw {
        RandomizerDraw {
            value: random_coprime(rng, &self.n),
        }
    }

    /// The pure half of
    /// [`precompute_randomizer`](Self::precompute_randomizer): the one
    /// exponentiation `rⁿ mod n²`, as a batch of one
    /// [`raise_randomizers`](Self::raise_randomizers).
    pub fn raise_randomizer(&self, draw: &RandomizerDraw) -> Randomizer {
        only(self.raise_randomizers(std::slice::from_ref(draw)))
    }

    /// [`raise_randomizer`](Self::raise_randomizer) for a batch of draws,
    /// equal to the single call entry by entry: the `rⁿ` exponentiations
    /// run side by side through [`MontCtx::pow_many`].
    pub fn raise_randomizers(&self, draws: &[RandomizerDraw]) -> Vec<Randomizer> {
        let rs: Vec<&Ubig> = draws.iter().map(|d| &d.value).collect();
        self.ctx_n2
            .pow_many(&rs, &self.n)
            .into_iter()
            .map(|r_n| {
                obs_count!(ModExp);
                Randomizer(r_n)
            })
            .collect()
    }

    /// Online phase of request refresh: one modular multiplication —
    /// "the same amount of time as homomorphic addition" (§VI-A).
    ///
    /// Each factor must be used for at most one ciphertext; reuse would
    /// correlate the refreshed entries.
    pub fn rerandomize_precomputed(&self, c: &Ciphertext, factor: &Randomizer) -> Ciphertext {
        obs_count!(Rerandomize);
        obs_count!(ModMul);
        Ciphertext::from_raw((c.as_raw() * &factor.0) % &self.n_squared)
    }

    /// Homomorphic addition ⊕: `D(add(E(a), E(b))) = a + b`.
    pub fn add(&self, a: &Ciphertext, b: &Ciphertext) -> Ciphertext {
        obs_count!(ModMul);
        Ciphertext::from_raw((a.as_raw() * b.as_raw()) % &self.n_squared)
    }

    /// Homomorphic subtraction ⊖: `D(sub(E(a), E(b))) = a - b`.
    ///
    /// Fails with [`CryptoError::MalformedCiphertext`] if `b` is not a
    /// unit modulo `n²` — only possible for adversarial ciphertexts, so
    /// the error must reach the protocol layer instead of panicking the
    /// decryption oracle.
    pub fn sub(&self, a: &Ciphertext, b: &Ciphertext) -> Result<Ciphertext, CryptoError> {
        let b_inv = self.invert(b)?;
        obs_count!(ModMul);
        Ok(Ciphertext::from_raw(
            (a.as_raw() * &b_inv) % &self.n_squared,
        ))
    }

    /// Homomorphic scalar multiplication ⊗: `D(scalar_mul(E(m), k)) = k·m`.
    ///
    /// Negative scalars go through the ciphertext inverse, exactly like ⊖,
    /// and fail the same way on non-unit ciphertexts.
    ///
    /// `k = ±1` short-circuits the exponentiation ladder entirely: `c¹`
    /// is `c`. Its timing shows whether `|k| = 1`, so the protocol's
    /// secret sign flips ε do not come through here: the SDC folds each
    /// one into the operand order of a ⊖ instead. Any other `k` is a
    /// batch of one [`scalar_mul_many`](Self::scalar_mul_many).
    pub fn scalar_mul(&self, c: &Ciphertext, k: &Ibig) -> Result<Ciphertext, CryptoError> {
        if k.magnitude().is_one() {
            obs_count!(ModExpAvoided);
            if k.is_negative() {
                return Ok(Ciphertext::from_raw(self.invert(c)?));
            }
            return Ok(c.clone());
        }
        only(self.scalar_mul_many(std::slice::from_ref(c), k))
    }

    /// [`scalar_mul`](Self::scalar_mul) of every ciphertext by one
    /// shared `k`: entry by entry the single call's result, error
    /// included. The exponentiations run side by side through
    /// [`MontCtx::pow_many`].
    pub fn scalar_mul_many(
        &self,
        cs: &[Ciphertext],
        k: &Ibig,
    ) -> Vec<Result<Ciphertext, CryptoError>> {
        if k.magnitude().is_one() {
            return cs.iter().map(|c| self.scalar_mul(c, k)).collect();
        }
        let raw: Vec<&Ubig> = cs.iter().map(Ciphertext::as_raw).collect();
        self.ctx_n2
            .pow_many(&raw, k.magnitude())
            .into_iter()
            .map(|powed| {
                obs_count!(ModExp);
                if k.is_negative() {
                    let inv = mod_inverse(&powed, &self.n_squared)
                        .ok_or(CryptoError::MalformedCiphertext)?;
                    Ok(Ciphertext::from_raw(inv))
                } else {
                    Ok(Ciphertext::from_raw(powed))
                }
            })
            .collect()
    }

    /// Encryption of zero with `r = 1`; the homomorphic identity.
    pub fn trivial_zero(&self) -> Ciphertext {
        Ciphertext::from_raw(Ubig::one())
    }

    /// Encryption of `m` with `r = 1` — deterministic, **not**
    /// semantically secure; used only for public constants such as the
    /// paper's matrix `E` (maximum SU EIRP is public data).
    pub fn encrypt_public_constant(&self, m: &Ibig) -> Ciphertext {
        obs_count!(Encrypt);
        obs_count!(ModMul);
        Ciphertext::from_raw(self.g_pow(m))
    }

    /// Checks that `c` is a unit modulo `n²` — what every later ⊖,
    /// negative ⊗ or unblinding of it needs — at the cost of one gcd.
    /// Lets a party reject an adversarial ciphertext before storing it.
    ///
    /// # Errors
    ///
    /// [`CryptoError::MalformedCiphertext`] if `gcd(c, n) ≠ 1`.
    pub fn check_unit(&self, c: &Ciphertext) -> Result<(), CryptoError> {
        // A residue is a unit mod n² iff it is a unit mod n; gcd(0, n) = n
        // also rejects the zero ciphertext.
        if gcd(c.as_raw(), &self.n).is_one() {
            Ok(())
        } else {
            Err(CryptoError::MalformedCiphertext)
        }
    }

    fn invert(&self, c: &Ciphertext) -> Result<Ubig, CryptoError> {
        mod_inverse(c.as_raw(), &self.n_squared).ok_or(CryptoError::MalformedCiphertext)
    }
}

/// A Paillier secret key `(λ, μ)` with CRT acceleration data.
///
/// Tagged `pisa_secret`: pisa-lint enforces that this type never derives
/// `Debug`/`Serialize`, redacts in its manual `Debug`, and wipes itself
/// on drop.
#[doc(alias = "pisa_secret")]
#[derive(Clone)]
pub struct PaillierSecretKey {
    pk: PaillierPublicKey,
    lambda: Ubig,
    mu: Ubig,
    crt: CrtParams,
}

impl fmt::Debug for PaillierSecretKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "PaillierSecretKey {{ n: {} bits, lambda: <redacted>, mu: <redacted>, \
             crt: <redacted> }}",
            self.pk.key_bits()
        )
    }
}

impl Drop for PaillierSecretKey {
    fn drop(&mut self) {
        self.lambda.zeroize();
        self.mu.zeroize();
        // `pk` is public and `crt` wipes itself via its own Drop.
    }
}

/// CRT acceleration data — contains the prime factorization of `n`.
#[doc(alias = "pisa_secret")]
#[derive(Clone)]
struct CrtParams {
    p: Ubig,
    q: Ubig,
    ctx_p2: MontCtx,
    ctx_q2: MontCtx,
    /// `hp = L_p(g^(p-1) mod p²)⁻¹ mod p`
    hp: Ubig,
    /// `hq = L_q(g^(q-1) mod q²)⁻¹ mod q`
    hq: Ubig,
    /// `q⁻¹ mod p`
    q_inv_p: Ubig,
}

impl fmt::Debug for CrtParams {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("CrtParams { <redacted> }")
    }
}

impl Drop for CrtParams {
    fn drop(&mut self) {
        self.p.zeroize();
        self.q.zeroize();
        self.ctx_p2.zeroize();
        self.ctx_q2.zeroize();
        self.hp.zeroize();
        self.hq.zeroize();
        self.q_inv_p.zeroize();
    }
}

impl PaillierSecretKey {
    /// The matching public key.
    pub fn public(&self) -> &PaillierPublicKey {
        &self.pk
    }

    /// Decrypts via the CRT fast path (the default; ~4× standard
    /// decryption): a batch of one [`decrypt_many`](Self::decrypt_many),
    /// which wipes the secret exponents and CRT halves it works with.
    pub fn decrypt(&self, c: &Ciphertext) -> Ibig {
        only(self.decrypt_many(std::slice::from_ref(c)))
    }

    /// [`decrypt`](Self::decrypt) for a batch, equal to the single call
    /// entry by entry. CRT decryption is two half-size exponentiations
    /// per entry. Each CRT half raises every entry to one exponent
    /// (`p − 1`, `q − 1`) under one modulus (`p²`, `q²`), so the halves run
    /// side by side through [`MontCtx::pow_many`]. Counts one decryption
    /// per entry, as the single call does.
    pub fn decrypt_many(&self, cs: &[Ciphertext]) -> Vec<Ibig> {
        let crt = &self.crt;
        let raw: Vec<&Ubig> = cs.iter().map(Ciphertext::as_raw).collect();
        let p1 = Zeroizing::new(&crt.p - &Ubig::one());
        let q1 = Zeroizing::new(&crt.q - &Ubig::one());
        let mut cps = crt.ctx_p2.pow_many(&raw, &p1);
        let mut cqs = crt.ctx_q2.pow_many(&raw, &q1);
        let plain = cps
            .iter()
            .zip(&cqs)
            .map(|(cp, cq)| {
                obs_count!(ModExp);
                obs_count!(ModExp);
                obs_count!(Decrypt);
                self.crt_combine(cp, cq)
            })
            .collect();
        cps.iter_mut().chain(&mut cqs).for_each(Zeroize::zeroize);
        plain
    }

    /// The plaintext from its CRT halves `cp = c^(p−1) mod p²` and
    /// `cq = c^(q−1) mod q²`.
    fn crt_combine(&self, cp: &Ubig, cq: &Ubig) -> Ibig {
        let crt = &self.crt;
        let mp = (&l_function(cp, &crt.p) * &crt.hp) % &crt.p;
        let mq = (&l_function(cq, &crt.q) * &crt.hq) % &crt.q;
        // CRT combine: m = mq + q · ((mp − mq) · q⁻¹ mod p)
        let diff = (Ibig::from(mp) - Ibig::from(mq.clone())).rem_euclid(&crt.p);
        let m = (&mq + &(&crt.q * &((&diff * &crt.q_inv_p) % &crt.p))) % &self.pk.n;
        self.pk.decode(m)
    }

    /// Decrypts via the textbook formula `m = L(c^λ mod n²)·μ mod n`.
    ///
    /// Kept public for the CRT-vs-standard ablation benchmark.
    pub fn decrypt_standard(&self, c: &Ciphertext) -> Ibig {
        obs_count!(ModExp);
        obs_count!(Decrypt);
        let c_lambda = self.pk.ctx_n2.pow(c.as_raw(), &self.lambda);
        let l = l_function(&c_lambda, &self.pk.n);
        let m = (&l * &self.mu) % &self.pk.n;
        self.pk.decode(m)
    }
}

/// The one result of a batch of one.
fn only<T>(batch: Vec<T>) -> T {
    let first = batch.into_iter().next();
    // pisa-lint: allow(panic-freedom): every batched entry point in this file returns one result per entry, so a batch of one holds exactly one; no input reaches the empty case
    first.expect("a batch of one has one result")
}

/// `L(x) = (x - 1) / d` — exact division by construction for honest
/// ciphertexts.
///
/// An adversarial ciphertext divisible by the prime behind `d` makes the
/// inner power `x` come out zero; `x - 1` would then underflow and panic,
/// turning STP decryption into a remotely triggerable panic oracle.
/// Mapping `x = 0` to `L = 0` keeps the function total — the garbage
/// plaintext that results is handled (and rejected) downstream.
fn l_function(x: &Ubig, d: &Ubig) -> Ubig {
    if x.is_zero() {
        return Ubig::zero();
    }
    (x - &Ubig::one()) / d
}

/// A freshly generated Paillier key pair.
///
/// Tagged `pisa_secret`; the wipe-on-drop lives in the inner
/// [`PaillierSecretKey`], which is this type's only field.
#[doc(alias = "pisa_secret")]
#[derive(Clone)]
pub struct PaillierKeyPair {
    sk: PaillierSecretKey,
}

impl fmt::Debug for PaillierKeyPair {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "PaillierKeyPair {{ n: {} bits, sk: <redacted> }}",
            self.public().key_bits()
        )
    }
}

impl PaillierKeyPair {
    /// Generates a key pair with a modulus of exactly `bits` bits.
    ///
    /// The paper's evaluation uses `bits = 2048` (112-bit security per
    /// NIST SP 800-57); tests use smaller sizes.
    ///
    /// # Panics
    ///
    /// Panics if `bits < 64` or `bits` is odd.
    pub fn generate<R: Rng + ?Sized>(rng: &mut R, bits: usize) -> Self {
        assert!(bits >= MIN_KEY_BITS, "key size below {MIN_KEY_BITS} bits");
        assert!(bits.is_multiple_of(2), "key size must be even");
        loop {
            let p = prime::gen_prime(rng, bits / 2);
            let q = prime::gen_prime(rng, bits / 2);
            if p == q {
                continue;
            }
            let n = &p * &q;
            if n.bit_len() != bits {
                continue;
            }
            if let Some(kp) = Self::from_primes(p, q) {
                return kp;
            }
        }
    }

    /// Builds a key pair from explicit primes; `None` if the primes are
    /// unusable (`gcd(n, λ) ≠ 1` or `p == q`).
    pub fn from_primes(p: Ubig, q: Ubig) -> Option<Self> {
        if p == q {
            return None;
        }
        let n = &p * &q;
        let lambda = lcm(&(&p - &Ubig::one()), &(&q - &Ubig::one()));
        if !pisa_bigint::modular::gcd(&n, &lambda).is_one() {
            return None;
        }
        let pk = PaillierPublicKey::from_modulus(n.clone());

        // μ = L(g^λ mod n²)⁻¹ mod n; with g = n+1, g^λ = 1 + λn (mod n²),
        // so L(g^λ) = λ mod n.
        let mu = mod_inverse(&(&lambda % &n), &n)?;

        let p_squared = p.square();
        let q_squared = q.square();
        let ctx_p2 = MontCtx::new(&p_squared)?;
        let ctx_q2 = MontCtx::new(&q_squared)?;
        let hp = {
            let g = (Ubig::one() + &n) % &p_squared;
            let powed = ctx_p2.pow(&g, &(&p - &Ubig::one()));
            mod_inverse(&l_function(&powed, &p), &p)?
        };
        let hq = {
            let g = (Ubig::one() + &n) % &q_squared;
            let powed = ctx_q2.pow(&g, &(&q - &Ubig::one()));
            mod_inverse(&l_function(&powed, &q), &q)?
        };
        let q_inv_p = mod_inverse(&q, &p)?;

        Some(PaillierKeyPair {
            sk: PaillierSecretKey {
                pk,
                lambda,
                mu,
                crt: CrtParams {
                    p,
                    q,
                    ctx_p2,
                    ctx_q2,
                    hp,
                    hq,
                    q_inv_p,
                },
            },
        })
    }

    /// The public half.
    pub fn public(&self) -> &PaillierPublicKey {
        self.sk.public()
    }

    /// The secret half.
    pub fn secret(&self) -> &PaillierSecretKey {
        &self.sk
    }

    /// Consumes the pair, returning the secret key (which contains the
    /// public key).
    pub fn into_secret(self) -> PaillierSecretKey {
        self.sk
    }
}

/// Serialized form of a public key (just the modulus).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PublicKeyBytes {
    /// Big-endian modulus bytes.
    pub n: Ubig,
}

impl From<&PaillierPublicKey> for PublicKeyBytes {
    fn from(pk: &PaillierPublicKey) -> Self {
        PublicKeyBytes { n: pk.n.clone() }
    }
}

impl From<PublicKeyBytes> for PaillierPublicKey {
    fn from(b: PublicKeyBytes) -> Self {
        PaillierPublicKey::from_modulus(b.n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn from_primes_known_small() {
        // p = 293, q = 433 (classic Paillier test vector primes)
        let kp = PaillierKeyPair::from_primes(Ubig::from(293u64), Ubig::from(433u64))
            .expect("valid primes");
        assert_eq!(kp.public().modulus(), &Ubig::from(293u64 * 433));
        let m = Ibig::from(521i64);
        let c = kp
            .public()
            .encrypt_with_r(&m, &Ubig::from(7u64))
            .expect("7 is a unit mod n");
        assert_eq!(kp.secret().decrypt(&c), m);
        assert_eq!(kp.secret().decrypt_standard(&c), m);
    }

    #[test]
    fn equal_primes_rejected() {
        assert!(PaillierKeyPair::from_primes(Ubig::from(293u64), Ubig::from(293u64)).is_none());
    }

    #[test]
    fn generated_modulus_exact_bits() {
        let mut rng = StdRng::seed_from_u64(3);
        let kp = PaillierKeyPair::generate(&mut rng, 128);
        assert_eq!(kp.public().key_bits(), 128);
    }

    #[test]
    #[should_panic(expected = "center-lift")]
    fn oversized_plaintext_panics() {
        let kp = PaillierKeyPair::from_primes(Ubig::from(293u64), Ubig::from(433u64)).unwrap();
        let too_big = Ibig::from(kp.public().modulus().clone());
        let _ = kp.public().encode(&too_big);
    }

    #[test]
    fn encode_decode_roundtrip_extremes() {
        let kp = PaillierKeyPair::from_primes(Ubig::from(293u64), Ubig::from(433u64)).unwrap();
        let pk = kp.public();
        let half = Ibig::from(pk.modulus() >> 1);
        for m in [Ibig::zero(), half.clone(), -half.clone() + Ibig::from(1i64)] {
            assert_eq!(pk.decode(pk.encode(&m)), m);
        }
    }

    #[test]
    fn trivial_zero_is_identity() {
        let kp = PaillierKeyPair::from_primes(Ubig::from(293u64), Ubig::from(433u64)).unwrap();
        let mut rng = StdRng::seed_from_u64(9);
        let c = kp.public().encrypt(&Ibig::from(5i64), &mut rng);
        let same = kp.public().add(&c, &kp.public().trivial_zero());
        assert_eq!(kp.secret().decrypt(&same), Ibig::from(5i64));
    }

    #[test]
    fn secret_key_debug_redacts_and_drop_wipes() {
        let kp = PaillierKeyPair::from_primes(Ubig::from(293u64), Ubig::from(433u64)).unwrap();
        let dbg_pair = format!("{:?}", kp);
        assert!(dbg_pair.contains("sk: <redacted>"), "{dbg_pair}");
        let dbg_sk = format!("{:?}", kp.secret());
        assert!(dbg_sk.contains("lambda: <redacted>"), "{dbg_sk}");
        assert!(dbg_sk.contains("mu: <redacted>"), "{dbg_sk}");
        // λ = lcm(292, 432) = 31536 for these primes; its digits must
        // not leak through Debug.
        assert!(!dbg_sk.contains("31536"), "λ digits must not appear");
        // Drop glue exists (the zeroizing Drop impls make these types
        // non-trivially droppable).
        assert!(std::mem::needs_drop::<PaillierSecretKey>());
        assert!(std::mem::needs_drop::<CrtParams>());
    }

    #[test]
    fn sub_rejects_non_unit_ciphertext() {
        let kp = PaillierKeyPair::from_primes(Ubig::from(293u64), Ubig::from(433u64)).unwrap();
        let pk = kp.public();
        let a = pk
            .encrypt_with_r(&Ibig::from(4i64), &Ubig::from(7u64))
            .expect("unit r");
        // A multiple of p shares a factor with n², so it has no inverse:
        // the adversarial shape that used to panic the decryption oracle.
        let evil = Ciphertext::from_raw(Ubig::from(293u64));
        assert_eq!(
            pk.sub(&a, &evil),
            Err(CryptoError::MalformedCiphertext),
            "subtracting a non-unit ciphertext must fail, not panic"
        );
        // The honest direction still works.
        let b = pk
            .encrypt_with_r(&Ibig::from(1i64), &Ubig::from(11u64))
            .expect("unit r");
        let diff = pk.sub(&a, &b).expect("honest ciphertexts are units");
        assert_eq!(kp.secret().decrypt(&diff), Ibig::from(3i64));
    }

    #[test]
    fn scalar_mul_negative_rejects_non_unit_ciphertext() {
        let kp = PaillierKeyPair::from_primes(Ubig::from(293u64), Ubig::from(433u64)).unwrap();
        let pk = kp.public();
        let evil = Ciphertext::from_raw(Ubig::from(293u64 * 293));
        assert_eq!(
            pk.scalar_mul(&evil, &Ibig::from(-2i64)),
            Err(CryptoError::MalformedCiphertext)
        );
        // Positive scalars never need an inverse and always succeed.
        let c = pk
            .encrypt_with_r(&Ibig::from(6i64), &Ubig::from(5u64))
            .expect("unit r");
        let tripled = pk
            .scalar_mul(&c, &Ibig::from(3i64))
            .expect("positive scalar");
        assert_eq!(kp.secret().decrypt(&tripled), Ibig::from(18i64));
    }

    /// The encryption core matches the formula it replaced, with the
    /// reduction of `1 + m·n` and the Montgomery round trip spelled out:
    /// `((1 + m·n) mod n²) · (rⁿ mod n²) mod n²`, for m ∈ {0, ±1, ±⌊n/2⌋}
    /// and r ∈ {1, n − 1, a random unit}.
    #[test]
    fn encryption_matches_the_reduced_formula() {
        let mut rng = StdRng::seed_from_u64(11);
        let kp = PaillierKeyPair::generate(&mut rng, 256);
        let pk = kp.public();
        let (n, n2) = (pk.modulus(), pk.modulus_squared());
        let (one, half) = (Ibig::from(1i64), Ibig::from(n >> 1));
        let rs = [Ubig::one(), n - &Ubig::one(), random_coprime(&mut rng, n)];
        for m in [Ibig::zero(), one.clone(), -one, half.clone(), -half] {
            let g_m = (Ubig::one() + &m.rem_euclid(n) * n) % n2;
            assert_eq!(pk.encrypt_public_constant(&m).as_raw(), &g_m, "m = {m:?}");
            for r in &rs {
                let r_n = pisa_bigint::modular::mod_pow(r, n, n2);
                let expected = (&g_m * &r_n) % n2;
                let c = pk.encrypt_with_r(&m, r).expect("unit r");
                assert_eq!(c.as_raw(), &expected, "m = {m:?}");
                let c = pk.encrypt_with_randomizer(&m, &Randomizer(r_n));
                assert_eq!(c.as_raw(), &expected, "m = {m:?}");
            }
        }
    }

    /// `g_pow` leaves out the `% n²` because no encoding needs it: over
    /// every plaintext a small key admits, `1 + m·n` matches the reduced
    /// formula and peaks at n² − n + 1, reached at the encoding of −1.
    #[test]
    fn g_pow_is_reduced_for_every_encoding() {
        let kp = PaillierKeyPair::from_primes(Ubig::from(293u64), Ubig::from(433u64)).unwrap();
        let pk = kp.public();
        let (n, n2) = (pk.modulus(), pk.modulus_squared());
        let peak = &(n2 - n) + &Ubig::one();
        assert_eq!(pk.g_pow(&Ibig::from(-1i64)), peak);
        let half = i64::try_from(u64::try_from(&(n >> 1)).unwrap()).unwrap();
        for m in (-half..=half).map(Ibig::from) {
            let g_m = pk.g_pow(&m);
            assert!(g_m <= peak, "m = {m:?}");
            assert_eq!(g_m, (Ubig::one() + &m.rem_euclid(n) * n) % n2, "m = {m:?}");
        }
    }

    #[test]
    fn public_constant_encryption_deterministic() {
        let kp = PaillierKeyPair::from_primes(Ubig::from(293u64), Ubig::from(433u64)).unwrap();
        let a = kp.public().encrypt_public_constant(&Ibig::from(9i64));
        let b = kp.public().encrypt_public_constant(&Ibig::from(9i64));
        assert_eq!(a, b);
        assert_eq!(kp.secret().decrypt(&a), Ibig::from(9i64));
    }
}
