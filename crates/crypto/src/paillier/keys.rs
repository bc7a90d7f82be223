//! Paillier key generation, encryption and decryption.

use super::ops::{Ciphertext, Nonce, Randomizer, RandomizerDraw};
use crate::error::CryptoError;
use crate::{coprime, invert};
use pisa_bigint::modular::{lcm, MontCtx};
use pisa_bigint::random::random_below;
use pisa_bigint::zeroize::{Zeroize, Zeroizing};
use pisa_bigint::{prime, Ibig, Sign, Ubig};
use rand::Rng;
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
    /// nonce `r ∈ Z_n*` from `rng`, exactly as `encrypt` would, as a
    /// batch of one [`draw_nonces`](Self::draw_nonces).
    pub fn draw_nonce<R: Rng + ?Sized>(&self, rng: &mut R) -> Nonce {
        only(self.draw_nonces(rng, 1))
    }

    /// `count` nonces from one stream, equal draw for draw to `count`
    /// calls of [`draw_nonce`](Self::draw_nonce). They pay one gcd for
    /// the batch, of the product of their candidates, where the single
    /// calls pay one each. Should the product share a factor with n, the
    /// candidates are checked one by one in order and the rejected ones
    /// replaced by the stream's next draws, as the single calls would.
    pub fn draw_nonces<R: Rng + ?Sized>(&self, rng: &mut R, count: usize) -> Vec<Nonce> {
        self.draw_units(rng, count).into_iter().map(Nonce).collect()
    }

    /// One nonce from each stream of `rngs`, equal to
    /// [`draw_nonce`](Self::draw_nonce) on each stream, with one gcd for
    /// the batch: a stream whose candidate fails it draws on alone.
    pub fn draw_nonces_each<R: Rng>(&self, rngs: &mut [R]) -> Vec<Nonce> {
        self.draw_units_each(rngs).into_iter().map(Nonce).collect()
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
        if !coprime(r, &self.n) {
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
    /// `r ∈ Z_n*` from `rng`, exactly as `precompute_randomizer` would,
    /// as a batch of one [`draw_randomizers`](Self::draw_randomizers).
    pub fn draw_randomizer<R: Rng + ?Sized>(&self, rng: &mut R) -> RandomizerDraw {
        only(self.draw_randomizers(rng, 1))
    }

    /// `count` draws from one stream, equal draw for draw to `count`
    /// calls of [`draw_randomizer`](Self::draw_randomizer), with one gcd
    /// for the batch, as [`draw_nonces`](Self::draw_nonces).
    pub fn draw_randomizers<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        count: usize,
    ) -> Vec<RandomizerDraw> {
        self.draw_units(rng, count)
            .into_iter()
            .map(|value| RandomizerDraw { value })
            .collect()
    }

    /// `count` units of `Z_n*` from one stream, equal draw for draw to
    /// `count` sequential draws, each of which keeps the first nonzero
    /// candidate below n that is coprime to n. A round draws one
    /// candidate per missing unit and keeps, in order, those `units`
    /// passes. A rejected candidate is replaced by the stream's next one
    /// in the following round, as the sequential sampler would replace
    /// it, and no round draws past the candidate that sampler would stop
    /// at. At real key sizes a rejection takes a factor of n, so one
    /// round and one gcd serve the batch.
    fn draw_units<R: Rng + ?Sized>(&self, rng: &mut R, count: usize) -> Vec<Ubig> {
        let mut units = Vec::with_capacity(count);
        while units.len() < count {
            let round: Vec<Ubig> = (units.len()..count).map(|_| self.candidate(rng)).collect();
            let passed = self.units(&round);
            for (mut candidate, unit) in round.into_iter().zip(passed) {
                if unit {
                    units.push(candidate);
                } else {
                    candidate.zeroize();
                }
            }
        }
        units
    }

    /// One unit of `Z_n*` from each stream, equal to one sequential draw
    /// per stream: the first candidates of all streams share one `units`
    /// check, and a stream whose candidate fails goes on drawing alone.
    fn draw_units_each<R: Rng>(&self, rngs: &mut [R]) -> Vec<Ubig> {
        let round: Vec<Ubig> = rngs.iter_mut().map(|rng| self.candidate(rng)).collect();
        let passed = self.units(&round);
        round
            .into_iter()
            .zip(passed)
            .zip(rngs)
            .map(|((mut candidate, unit), rng)| {
                if unit {
                    candidate
                } else {
                    candidate.zeroize();
                    only(self.draw_units(rng, 1))
                }
            })
            .collect()
    }

    /// A nonzero value below n from `rng`: a draw's candidate before its
    /// coprimality check.
    fn candidate<R: Rng + ?Sized>(&self, rng: &mut R) -> Ubig {
        loop {
            let candidate = random_below(rng, &self.n);
            if !candidate.is_zero() {
                return candidate;
            }
        }
    }

    /// Which `values` (below n) are units modulo n. Their product is a
    /// unit exactly when every value is, so one gcd answers for all;
    /// only when it fails does each value get its own gcd.
    fn units(&self, values: &[Ubig]) -> Vec<bool> {
        match values {
            [] => Vec::new(),
            [value] => vec![coprime(value, &self.n)],
            _ => {
                let mut product = self.product(values.iter());
                let all = coprime(&product, &self.n);
                product.zeroize();
                if all {
                    vec![true; values.len()]
                } else {
                    values.iter().map(|v| coprime(v, &self.n)).collect()
                }
            }
        }
    }

    /// `Π values · R⁻⁽ᵏ⁻¹⁾ mod n²` for `k` values, by `k − 1` Montgomery
    /// multiplies under `n²`, each value reduced below n² first. R is a
    /// power of two, so the result shares its factors with n exactly as
    /// the plain product does. The running products are wiped: for
    /// nonces they are secret.
    fn product<'a>(&self, values: impl Iterator<Item = &'a Ubig>) -> Ubig {
        let mut s = self.ctx_n2.scratch();
        let mut product: Option<Ubig> = None;
        for value in values {
            let reduced;
            let value = if value < &self.n_squared {
                value
            } else {
                reduced = Zeroizing::new(value % &self.n_squared);
                &*reduced
            };
            product = Some(match product {
                None => value.clone(),
                Some(mut before) => {
                    obs_count!(ModMul);
                    let next = self.ctx_n2.mont_mul(&before, value, &mut s);
                    before.zeroize();
                    next
                }
            });
        }
        s.zeroize();
        product.unwrap_or_else(Ubig::one)
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

    /// Homomorphic subtraction ⊖: `D(sub(E(a), E(b))) = a - b`, as a
    /// batch of one [`sub_many`](Self::sub_many).
    ///
    /// Fails with [`CryptoError::MalformedCiphertext`] if `b` is not a
    /// unit modulo `n²` — only possible for adversarial ciphertexts, so
    /// the error must reach the protocol layer instead of panicking the
    /// decryption oracle.
    pub fn sub(&self, a: &Ciphertext, b: &Ciphertext) -> Result<Ciphertext, CryptoError> {
        only(self.sub_many(&[(a, b)]))
    }

    /// [`sub`](Self::sub) for a batch of `(a, b)` pairs, equal to the
    /// single call entry by entry, error included. The `b`s share one
    /// inversion ([`MontCtx::inverse_many`]), so a batch of `k` costs one
    /// divsteps call and `3(k − 1)` multiplies instead of `k` calls; a
    /// `b` that is not a unit sends the batch back to one inversion per
    /// entry, so only its own entry fails.
    pub fn sub_many(
        &self,
        pairs: &[(&Ciphertext, &Ciphertext)],
    ) -> Vec<Result<Ciphertext, CryptoError>> {
        let bs: Vec<&Ubig> = pairs.iter().map(|(_, b)| b.as_raw()).collect();
        pairs
            .iter()
            .zip(self.invert_many(&bs))
            .map(|((a, _), b_inv)| {
                let b_inv = b_inv.ok_or(CryptoError::MalformedCiphertext)?;
                obs_count!(ModMul);
                Ok(Ciphertext::from_raw(
                    (a.as_raw() * &b_inv) % &self.n_squared,
                ))
            })
            .collect()
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
                return only(self.invert_many(&[c.as_raw()]))
                    .map(Ciphertext::from_raw)
                    .ok_or(CryptoError::MalformedCiphertext);
            }
            return Ok(c.clone());
        }
        only(self.scalar_mul_many(std::slice::from_ref(c), k))
    }

    /// [`scalar_mul`](Self::scalar_mul) of every ciphertext by one
    /// shared `k`: entry by entry the single call's result, error
    /// included. The exponentiations run side by side through
    /// [`MontCtx::pow_many`], and a negative `k`'s inverses share one
    /// inversion.
    pub fn scalar_mul_many(
        &self,
        cs: &[Ciphertext],
        k: &Ibig,
    ) -> Vec<Result<Ciphertext, CryptoError>> {
        if k.magnitude().is_one() {
            return cs.iter().map(|c| self.scalar_mul(c, k)).collect();
        }
        let raw: Vec<&Ubig> = cs.iter().map(Ciphertext::as_raw).collect();
        let powers = self.ctx_n2.pow_many(&raw, k.magnitude());
        obs_count!(ModExp, powers.len());
        if !k.is_negative() {
            return powers
                .into_iter()
                .map(|p| Ok(Ciphertext::from_raw(p)))
                .collect();
        }
        let powers: Vec<&Ubig> = powers.iter().collect();
        self.invert_many(&powers)
            .into_iter()
            .map(|inv| {
                inv.map(Ciphertext::from_raw)
                    .ok_or(CryptoError::MalformedCiphertext)
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
        self.check_units(std::slice::from_ref(c))
    }

    /// [`check_unit`](Self::check_unit) for every ciphertext at the cost
    /// of one gcd: their product is a unit exactly when each of them is.
    ///
    /// # Errors
    ///
    /// [`CryptoError::MalformedCiphertext`] if some `gcd(c, n) ≠ 1`.
    pub fn check_units(&self, cs: &[Ciphertext]) -> Result<(), CryptoError> {
        // A residue is a unit mod n² iff it is a unit mod n; gcd(0, n) = n
        // also rejects the zero ciphertext.
        if cs.is_empty() || coprime(&self.product(cs.iter().map(Ciphertext::as_raw)), &self.n) {
            Ok(())
        } else {
            Err(CryptoError::MalformedCiphertext)
        }
    }

    /// The inverse of every value modulo n², or `None` where a value has
    /// none. The batch shares one divsteps inversion
    /// ([`MontCtx::inverse_many`]). A value that is not a unit (only an
    /// adversarial ciphertext or a factor of n is one) fails that shared
    /// inversion, and then each value is inverted on its own, so every
    /// entry gets the answer of its single inversion.
    fn invert_many(&self, values: &[&Ubig]) -> Vec<Option<Ubig>> {
        if values.is_empty() {
            return Vec::new();
        }
        obs_count!(Inversion);
        obs_count!(ModMul, 3 * (values.len() - 1));
        if let Some(inverses) = self.ctx_n2.inverse_many(values) {
            return inverses.into_iter().map(Some).collect();
        }
        match values {
            [_] => vec![None],
            _ => values.iter().map(|v| invert(v, &self.n_squared)).collect(),
        }
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
        if !coprime(&n, &lambda) {
            return None;
        }
        let pk = PaillierPublicKey::from_modulus(n.clone());

        // μ = L(g^λ mod n²)⁻¹ mod n; with g = n+1, g^λ = 1 + λn (mod n²),
        // so L(g^λ) = λ mod n.
        let mu = invert(&(&lambda % &n), &n)?;

        let p_squared = p.square();
        let q_squared = q.square();
        let ctx_p2 = MontCtx::new(&p_squared)?;
        let ctx_q2 = MontCtx::new(&q_squared)?;
        let hp = {
            let g = (Ubig::one() + &n) % &p_squared;
            let powed = ctx_p2.pow(&g, &(&p - &Ubig::one()));
            invert(&l_function(&powed, &p), &p)?
        };
        let hq = {
            let g = (Ubig::one() + &n) % &q_squared;
            let powed = ctx_q2.pow(&g, &(&q - &Ubig::one()));
            invert(&l_function(&powed, &q), &q)?
        };
        let q_inv_p = invert(&q, &p)?;

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
}

#[cfg(test)]
mod tests {
    use super::*;
    use pisa_bigint::random::random_coprime;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

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

    /// The sequential sampler the batched draws must equal: the first
    /// nonzero candidate below n coprime to n, counting the candidates it
    /// rejected for sharing a factor with n.
    fn sequential_unit(rng: &mut StdRng, n: &Ubig, rejected: &mut usize) -> Ubig {
        let mut stream = rng.clone();
        let unit = random_coprime(&mut stream, n);
        loop {
            let candidate = random_below(rng, n);
            if candidate.is_zero() {
                continue;
            }
            if candidate == unit {
                return unit;
            }
            *rejected += 1;
        }
    }

    /// On the toy key n = 293 · 433, where about one candidate in 175
    /// shares a factor with n, the batched samplers equal the sequential
    /// one draw for draw: on one shared stream across batches of 1 to 12
    /// (nonces and randomizers), and on per-entry streams. Both leave
    /// their streams where the sequential sampler does. The seeds make
    /// the sequential sampler reject at least 20 candidates, so batch
    /// checks fail and the walk over a failed batch runs.
    #[test]
    fn batched_draws_equal_the_sequential_sampler_on_a_toy_key() {
        let kp = PaillierKeyPair::from_primes(Ubig::from(293u64), Ubig::from(433u64)).unwrap();
        let pk = kp.public();
        let n = pk.modulus();
        let mut rejected = 0;
        for seed in 0..150u64 {
            let (mut batched, mut sequential) =
                (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
            for count in 1..=12 {
                let want: Vec<Ubig> = (0..count)
                    .map(|_| sequential_unit(&mut sequential, n, &mut rejected))
                    .collect();
                let got: Vec<Ubig> = if count % 2 == 0 {
                    pk.draw_nonces(&mut batched, count)
                        .iter()
                        .map(|r| r.0.clone())
                        .collect()
                } else {
                    pk.draw_randomizers(&mut batched, count)
                        .iter()
                        .map(|r| r.value.clone())
                        .collect()
                };
                assert_eq!(got, want, "seed {seed}, batch of {count}");
            }
            assert_eq!(batched.next_u64(), sequential.next_u64(), "seed {seed}");

            let mut streams: Vec<StdRng> = (0..9)
                .map(|i| StdRng::seed_from_u64(seed << 8 | i))
                .collect();
            let mut copies = streams.clone();
            let got = pk.draw_nonces_each(&mut streams);
            for (i, (r, (stream, copy))) in got
                .iter()
                .zip(streams.iter_mut().zip(&mut copies))
                .enumerate()
            {
                assert_eq!(
                    r.0,
                    sequential_unit(copy, n, &mut rejected),
                    "seed {seed}, stream {i}"
                );
                assert_eq!(
                    stream.next_u64(),
                    copy.next_u64(),
                    "seed {seed}, stream {i}"
                );
            }
        }
        assert!(rejected >= 20, "only {rejected} candidates rejected");
    }

    /// A non-unit (a multiple of p, or n itself) at the first, a middle
    /// or the last entry of a batch fails that entry alone, as its single
    /// call does; every other entry of `sub_many` and of a negative
    /// `scalar_mul_many` is the single call's ciphertext, and
    /// `check_units` fails exactly when one `check_unit` does.
    #[test]
    fn a_non_unit_fails_only_its_own_entry_of_a_batch() {
        let kp = PaillierKeyPair::from_primes(Ubig::from(293u64), Ubig::from(433u64)).unwrap();
        let pk = kp.public();
        let mut rng = StdRng::seed_from_u64(0xba7c);
        let cs: Vec<Ciphertext> = (0..7i64)
            .map(|m| pk.encrypt(&Ibig::from(m - 3), &mut rng))
            .collect();
        let a = pk.encrypt(&Ibig::from(100i64), &mut rng);
        assert!(pk.check_units(&cs).is_ok());
        for evil in [Ubig::from(293u64 * 5), pk.modulus().clone()] {
            for at in [0, 3, 6] {
                let mut bs = cs.clone();
                bs[at] = Ciphertext::from_raw(evil.clone());
                let pairs: Vec<_> = bs.iter().map(|b| (&a, b)).collect();
                let single: Vec<_> = bs.iter().map(|b| pk.sub(&a, b)).collect();
                assert_eq!(pk.sub_many(&pairs), single, "⊖, non-unit at {at}");
                assert!(single
                    .iter()
                    .enumerate()
                    .all(|(i, r)| r.is_err() == (i == at)));
                let k = Ibig::from(-3i64);
                let single: Vec<_> = bs.iter().map(|b| pk.scalar_mul(b, &k)).collect();
                assert_eq!(
                    pk.scalar_mul_many(&bs, &k),
                    single,
                    "⊗ −3, non-unit at {at}"
                );
                assert_eq!(pk.check_units(&bs), Err(CryptoError::MalformedCiphertext));
                assert_eq!(
                    pk.check_unit(&bs[at]),
                    Err(CryptoError::MalformedCiphertext)
                );
            }
        }
        for (a_i, b) in cs.iter().zip(&cs[1..]) {
            let diff = pk.sub_many(&[(a_i, b)]).pop().unwrap().unwrap();
            assert_eq!(kp.secret().decrypt(&diff), Ibig::from(-1i64));
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
