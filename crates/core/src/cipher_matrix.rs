//! Encrypted channel × block matrices.

use pisa_bigint::Ibig;
use pisa_crypto::paillier::{Ciphertext, PaillierPublicKey};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// A dense `C × B` matrix of Paillier ciphertexts — the encrypted
/// counterpart of [`pisa_watch::IntMatrix`].
///
/// All operations take the public key explicitly so a matrix can be
/// moved between parties as plain data. The entries sit behind an
/// [`Arc`]: a clone shares them, and [`set`](Self::set) copies them
/// first if another clone still holds them, so a session engine can keep
/// a request or query and resend it without copying every ciphertext.
///
/// # Examples
///
/// ```
/// use pisa::CipherMatrix;
/// use pisa_crypto::paillier::PaillierKeyPair;
/// use pisa_watch::IntMatrix;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(1);
/// let kp = PaillierKeyPair::generate(&mut rng, 256);
/// let m = IntMatrix::from_fn(2, 2, |c, b| (c + b) as i128);
/// let enc = CipherMatrix::encrypt(&m, kp.public(), &mut rng);
/// let dec = enc.decrypt(kp.secret());
/// assert_eq!(dec, m);
/// ```
#[derive(Clone, Serialize, Deserialize)]
pub struct CipherMatrix {
    channels: usize,
    blocks: usize,
    data: Arc<Vec<Ciphertext>>,
}

impl CipherMatrix {
    /// Encrypts every entry of a plaintext matrix with fresh randomness.
    /// Byte-identical to encrypting entry by entry with `pk.encrypt`:
    /// the nonces are drawn from `rng` in entry order, then the
    /// exponentiations run across the host's cores.
    pub fn encrypt<R: rand::Rng + ?Sized>(
        m: &pisa_watch::IntMatrix,
        pk: &PaillierPublicKey,
        rng: &mut R,
    ) -> Self {
        Self::from_ciphertexts(m.channels(), m.blocks(), encrypt_all(pk, m.as_slice(), rng))
    }

    /// Deterministic encryption (r = 1) for **public** matrices such as
    /// **E** — not semantically secure, used only where the paper treats
    /// the data as public knowledge.
    pub fn encrypt_public(m: &pisa_watch::IntMatrix, pk: &PaillierPublicKey) -> Self {
        let data = m
            .as_slice()
            .iter()
            .map(|&v| pk.encrypt_public_constant(&i128_to_ibig(v)))
            .collect();
        Self::from_ciphertexts(m.channels(), m.blocks(), data)
    }

    /// A matrix of trivial encryptions of zero (the ⊕-identity).
    pub fn zeros(channels: usize, blocks: usize, pk: &PaillierPublicKey) -> Self {
        let data = (0..channels * blocks).map(|_| pk.trivial_zero()).collect();
        Self::from_ciphertexts(channels, blocks, data)
    }

    /// Builds a matrix from raw ciphertexts (row-major, channel-major).
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != channels * blocks`.
    pub fn from_ciphertexts(channels: usize, blocks: usize, data: Vec<Ciphertext>) -> Self {
        assert_eq!(data.len(), channels * blocks, "ciphertext count mismatch");
        CipherMatrix {
            channels,
            blocks,
            data: Arc::new(data),
        }
    }

    /// Channels `C`.
    pub fn channels(&self) -> usize {
        self.channels
    }

    /// Blocks `B`.
    pub fn blocks(&self) -> usize {
        self.blocks
    }

    /// Number of ciphertexts.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` if the matrix has no entries (never for valid dims).
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Entry `(c, b)`.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn get(&self, c: usize, b: usize) -> &Ciphertext {
        &self.data[self.index(c, b)]
    }

    /// Replaces entry `(c, b)`. Clones sharing the entries keep theirs:
    /// the entries are copied first when another clone holds them.
    pub fn set(&mut self, c: usize, b: usize, ct: Ciphertext) {
        let i = self.index(c, b);
        Arc::make_mut(&mut self.data)[i] = ct;
    }

    /// The flat ciphertext storage (channel-major).
    pub fn ciphertexts(&self) -> &[Ciphertext] {
        &self.data
    }

    /// Element-wise homomorphic addition ⊕.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn add(&self, other: &CipherMatrix, pk: &PaillierPublicKey) -> CipherMatrix {
        self.check_shape(other);
        let data = fan_out(&self.data, |i, a| pk.add(a, &other.data[i]));
        self.with_data(data.unwrap_or_else(|panic| std::panic::resume_unwind(panic)))
    }

    /// Element-wise homomorphic subtraction ⊖, one inversion per fan-out
    /// group. Fails on a non-unit (adversarial) ciphertext in `other`;
    /// every entry is checked.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn sub(
        &self,
        other: &CipherMatrix,
        pk: &PaillierPublicKey,
    ) -> Result<CipherMatrix, pisa_crypto::CryptoError> {
        self.check_shape(other);
        let data = fan_out_groups(&self.data, |start, group| {
            let pairs: Vec<_> = group.iter().zip(&other.data[start..]).collect();
            pk.sub_many(&pairs)
        });
        self.try_with_data(data.unwrap_or_else(|panic| std::panic::resume_unwind(panic)))
    }

    /// Scalar multiplication ⊗ of every entry by `k`. Fails on a
    /// non-unit (adversarial) ciphertext when `k` is negative.
    pub fn scale(
        &self,
        k: &Ibig,
        pk: &PaillierPublicKey,
    ) -> Result<CipherMatrix, pisa_crypto::CryptoError> {
        let data = fan_out_groups(&self.data, |_, group| pk.scalar_mul_many(group, k));
        self.try_with_data(data.unwrap_or_else(|panic| std::panic::resume_unwind(panic)))
    }

    /// Re-randomizes every entry (the paper's cheap request refresh).
    /// Byte-identical to `pk.rerandomize` entry by entry: the factors'
    /// randomness is drawn from `rng` in entry order first, with one gcd
    /// for the batch.
    pub fn rerandomize<R: rand::Rng + ?Sized>(
        &self,
        pk: &PaillierPublicKey,
        rng: &mut R,
    ) -> CipherMatrix {
        let draws = pk.draw_randomizers(rng, self.data.len());
        let data = fan_out_groups(&draws, |start, group| {
            let entries = &self.data[start..start + group.len()];
            let factors = pk.raise_randomizers(group);
            entries
                .iter()
                .zip(&factors)
                .map(|(c, f)| pk.rerandomize_precomputed(c, f))
                .collect()
        });
        self.with_data(data.unwrap_or_else(|panic| std::panic::resume_unwind(panic)))
    }

    /// Decrypts every entry (test/diagnostic use by key holders).
    pub fn decrypt(&self, sk: &pisa_crypto::paillier::PaillierSecretKey) -> pisa_watch::IntMatrix {
        let plain = fan_out_groups(&self.data, |_, group| {
            sk.decrypt_many(group).iter().map(ibig_to_i128).collect()
        })
        .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
        pisa_watch::IntMatrix::from_fn(self.channels, self.blocks, |c, b| {
            plain[c * self.blocks + b]
        })
    }

    /// Total serialized size in bytes: every ciphertext padded to the
    /// `n²` width (how the paper computes its 29 MB request size).
    pub fn wire_bytes(&self, pk: &PaillierPublicKey) -> usize {
        self.data.len() * pk.ciphertext_bytes()
    }

    fn index(&self, c: usize, b: usize) -> usize {
        assert!(
            c < self.channels && b < self.blocks,
            "index ({c}, {b}) out of {}x{} cipher matrix",
            self.channels,
            self.blocks
        );
        c * self.blocks + b
    }

    fn check_shape(&self, other: &CipherMatrix) {
        assert!(
            self.channels == other.channels && self.blocks == other.blocks,
            "cipher matrix shape mismatch"
        );
    }

    /// A matrix of this shape over `data`.
    fn with_data(&self, data: Vec<Ciphertext>) -> CipherMatrix {
        Self::from_ciphertexts(self.channels, self.blocks, data)
    }

    /// [`with_data`](Self::with_data) over per-entry results: the first
    /// error in entry order, or the matrix.
    fn try_with_data<E>(&self, data: Vec<Result<Ciphertext, E>>) -> Result<CipherMatrix, E> {
        Ok(self.with_data(data.into_iter().collect::<Result<_, _>>()?))
    }
}

impl fmt::Debug for CipherMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "CipherMatrix({}x{})", self.channels, self.blocks)
    }
}

/// Runs `job(i, &items[i])` for every entry and returns the results in
/// entry order — the one fan-out behind every per-entry Paillier loop.
///
/// The work runs on `min(available_parallelism, items.len())` scoped
/// workers, the calling thread among them, so operators size it with
/// `taskset` or cgroup CPU limits. Workers claim the next unclaimed
/// index from a shared counter: an entry that runs long holds up only
/// its own worker. `job` sees nothing but its entry, so the results do
/// not depend on the width; callers that need randomness draw it in
/// entry order before the fan-out or derive it from the index.
///
/// Every worker is joined before a panic is reported, and the `Err`
/// carries the payload of the first panicking worker. A panicking
/// worker stops claiming; the survivors claim the remaining entries.
pub(crate) fn fan_out<T: Sync, U: Send>(
    items: &[T],
    job: impl Fn(usize, &T) -> U + Sync,
) -> std::thread::Result<Vec<U>> {
    use std::sync::atomic::{AtomicUsize, Ordering};

    let next = AtomicUsize::new(0);
    let claim = || {
        let mut done = Vec::new();
        // The counter only hands out indices; results come back through
        // the joins, so no ordering beyond atomicity is needed.
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(item) = items.get(i) else {
                return done;
            };
            done.push((i, job(i, item)));
        }
    };
    let parts: Vec<std::thread::Result<Vec<(usize, U)>>> = std::thread::scope(|scope| {
        // A worker the OS refuses to start is simply missing: the
        // others, the caller at least, claim its share.
        let helpers: Vec<_> = (1..width(items.len()))
            .filter_map(|_| std::thread::Builder::new().spawn_scoped(scope, claim).ok())
            .collect();
        let own = std::panic::catch_unwind(std::panic::AssertUnwindSafe(claim));
        std::iter::once(own)
            .chain(helpers.into_iter().map(|h| h.join()))
            .collect()
    });
    let mut placed = Vec::with_capacity(items.len());
    for part in parts {
        placed.extend(part?);
    }
    placed.sort_unstable_by_key(|&(i, _)| i);
    Ok(placed.into_iter().map(|(_, u)| u).collect())
}

/// [`fan_out`] over groups of consecutive entries instead of single
/// ones, for work that [`MontCtx::pow_many`](pisa_bigint::modular::MontCtx::pow_many)
/// runs side by side: `job(start, group)` returns one result per entry
/// of `group = &items[start..start + group.len()]`, and the results come
/// back flattened in entry order.
///
/// A group holds `min(lanes, ⌈entries/workers⌉)` entries, where `lanes`
/// is [`pow_many_width`](pisa_bigint::modular::pow_many_width): every
/// worker gets work, no group is wider than one lane group, and a CPU
/// without the lane tier fans out single entries. The width changes the
/// grouping but not the results: every batched entry point equals its
/// single call entry by entry.
pub(crate) fn fan_out_groups<T: Sync, U: Send>(
    items: &[T],
    job: impl Fn(usize, &[T]) -> Vec<U> + Sync,
) -> std::thread::Result<Vec<U>> {
    let size = group_size(items.len());
    let groups: Vec<&[T]> = items.chunks(size).collect();
    let done = fan_out(&groups, |g, group| job(g * size, group))?;
    Ok(done.into_iter().flatten().collect())
}

/// Entries per group of [`fan_out_groups`] over `entries`.
fn group_size(entries: usize) -> usize {
    entries
        .div_ceil(width(entries))
        .clamp(1, pisa_bigint::modular::pow_many_width())
}

/// Workers for a fan-out over `entries`: the host's parallelism (read
/// once per process), capped by the entry count.
fn width(entries: usize) -> usize {
    #[cfg(test)]
    if let Some(pinned) = PINNED_WIDTH.with(std::cell::Cell::get) {
        return pinned.clamp(1, entries.max(1));
    }
    static HOST: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    let host = *HOST.get_or_init(|| std::thread::available_parallelism().map_or(1, usize::from));
    host.min(entries).max(1)
}

#[cfg(test)]
thread_local! {
    /// Pins [`width`] for fan-outs started on this thread.
    static PINNED_WIDTH: std::cell::Cell<Option<usize>> = const { std::cell::Cell::new(None) };
}

/// Runs `f` with every fan-out it starts on this thread pinned to
/// `workers`.
#[cfg(test)]
pub(crate) fn at_width<T>(workers: usize, f: impl FnOnce() -> T) -> T {
    PINNED_WIDTH.with(|w| w.set(Some(workers)));
    let out = f();
    PINNED_WIDTH.with(|w| w.set(None));
    out
}

/// Encrypts `plain` under `pk`, byte-identical to a loop of
/// `pk.encrypt(v, rng)`: every nonce is drawn from `rng` in entry order,
/// with one gcd for the batch, then the exponentiations fan out in
/// groups.
pub(crate) fn encrypt_all<R: rand::Rng + ?Sized>(
    pk: &PaillierPublicKey,
    plain: &[i128],
    rng: &mut R,
) -> Vec<Ciphertext> {
    let entries: Vec<_> = plain
        .iter()
        .map(|&v| i128_to_ibig(v))
        .zip(pk.draw_nonces(rng, plain.len()))
        .collect();
    fan_out_groups(&entries, |_, group| pk.encrypt_with_nonces(group))
        .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
}

/// Converts a plaintext i128 into the signed big-integer domain.
pub(crate) fn i128_to_ibig(v: i128) -> Ibig {
    let magnitude = pisa_bigint::Ubig::from(v.unsigned_abs());
    let sign = if v < 0 {
        pisa_bigint::Sign::Negative
    } else {
        pisa_bigint::Sign::Positive
    };
    Ibig::from_sign_magnitude(sign, magnitude)
}

/// Converts back, panicking on overflow (plaintext domain values always
/// fit: quantizer width + headroom ≪ 127 bits).
pub(crate) fn ibig_to_i128(v: &Ibig) -> i128 {
    let mag = u128::try_from(v.magnitude()).expect("plaintext fits i128");
    let mag = i128::try_from(mag).expect("plaintext fits i128");
    if v.is_negative() {
        -mag
    } else {
        mag
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pisa_crypto::paillier::PaillierKeyPair;
    use pisa_watch::IntMatrix;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn kp() -> PaillierKeyPair {
        let mut rng = StdRng::seed_from_u64(10);
        PaillierKeyPair::generate(&mut rng, 256)
    }

    #[test]
    fn i128_ibig_roundtrip() {
        for v in [i128::MIN + 1, -1, 0, 1, i128::MAX] {
            assert_eq!(ibig_to_i128(&i128_to_ibig(v)), v);
        }
    }

    #[test]
    fn encrypt_decrypt_matrix() {
        let kp = kp();
        let mut rng = StdRng::seed_from_u64(11);
        let m = IntMatrix::from_fn(3, 4, |c, b| c as i128 * 100 - b as i128);
        let enc = CipherMatrix::encrypt(&m, kp.public(), &mut rng);
        assert_eq!(enc.decrypt(kp.secret()), m);
    }

    #[test]
    fn homomorphic_matrix_ops() {
        let kp = kp();
        let mut rng = StdRng::seed_from_u64(12);
        let a = IntMatrix::from_fn(2, 3, |c, b| (c * 3 + b) as i128);
        let b = IntMatrix::from_fn(2, 3, |_, _| 10);
        let ea = CipherMatrix::encrypt(&a, kp.public(), &mut rng);
        let eb = CipherMatrix::encrypt(&b, kp.public(), &mut rng);

        assert_eq!(ea.add(&eb, kp.public()).decrypt(kp.secret()), &a + &b);
        assert_eq!(
            ea.sub(&eb, kp.public()).unwrap().decrypt(kp.secret()),
            &a - &b
        );
        assert_eq!(
            ea.scale(&Ibig::from(-3i64), kp.public())
                .unwrap()
                .decrypt(kp.secret()),
            a.scale(-3)
        );
    }

    #[test]
    fn rerandomize_changes_every_ciphertext() {
        let kp = kp();
        let mut rng = StdRng::seed_from_u64(13);
        let m = IntMatrix::from_fn(2, 2, |_, _| 7);
        let enc = CipherMatrix::encrypt(&m, kp.public(), &mut rng);
        let re = enc.rerandomize(kp.public(), &mut rng);
        for (a, b) in enc.ciphertexts().iter().zip(re.ciphertexts()) {
            assert_ne!(a, b);
        }
        assert_eq!(re.decrypt(kp.secret()), m);
    }

    #[test]
    fn wire_bytes_scales_with_entries() {
        let kp = kp();
        let m = IntMatrix::zeros(4, 25);
        let enc = CipherMatrix::encrypt_public(&m, kp.public());
        assert_eq!(
            enc.wire_bytes(kp.public()),
            100 * kp.public().ciphertext_bytes()
        );
    }

    /// `m`'s ciphertexts as one byte string.
    fn bytes(m: &CipherMatrix) -> Vec<u8> {
        m.ciphertexts()
            .iter()
            .flat_map(|c| c.as_raw().to_be_bytes())
            .collect()
    }

    #[test]
    fn parallel_row_ops_match_sequential() {
        let kp = kp();
        let pk = kp.public();
        let mut rng = StdRng::seed_from_u64(14);
        let a = IntMatrix::from_fn(3, 5, |c, b| c as i128 * 7 - b as i128 * 3);
        let b = IntMatrix::from_fn(3, 5, |_, b| b as i128 + 1);
        let ea = CipherMatrix::encrypt(&a, pk, &mut rng);
        let eb = CipherMatrix::encrypt(&b, pk, &mut rng);
        let k = Ibig::from(-5i64);
        let row_ops = || {
            (
                bytes(&ea.add(&eb, pk)),
                bytes(&ea.sub(&eb, pk).unwrap()),
                bytes(&ea.scale(&k, pk).unwrap()),
                ea.decrypt(kp.secret()),
            )
        };
        let sequential = at_width(1, row_ops);
        assert_eq!(sequential.3, a, "decrypt");
        for workers in [2usize, 8] {
            let parallel = at_width(workers, row_ops);
            assert_eq!(parallel.0, sequential.0, "add, {workers} workers");
            assert_eq!(parallel.1, sequential.1, "sub, {workers} workers");
            assert_eq!(parallel.2, sequential.2, "scale, {workers} workers");
            assert_eq!(parallel.3, a, "decrypt, {workers} workers");
        }
    }

    #[test]
    fn parallel_encrypt_and_rerandomize_are_thread_count_invariant() {
        let kp = kp();
        let pk = kp.public();
        let m = IntMatrix::from_fn(2, 6, |c, b| (c * 6 + b) as i128);
        let encrypt = || CipherMatrix::encrypt(&m, pk, &mut StdRng::seed_from_u64(15));
        let one = at_width(1, encrypt);
        for workers in [2usize, 8] {
            assert_eq!(
                bytes(&at_width(workers, encrypt)),
                bytes(&one),
                "{workers} workers"
            );
        }
        assert_eq!(one.decrypt(kp.secret()), m);

        let rerandomize = || one.rerandomize(pk, &mut StdRng::seed_from_u64(16));
        let re_one = at_width(1, rerandomize);
        for workers in [2usize, 8] {
            assert_eq!(
                bytes(&at_width(workers, rerandomize)),
                bytes(&re_one),
                "{workers} workers"
            );
        }
        for (a, b) in one.ciphertexts().iter().zip(re_one.ciphertexts()) {
            assert_ne!(a, b, "rerandomize must change every ciphertext");
        }
        assert_eq!(re_one.decrypt(kp.secret()), m);
    }

    /// A PU update, then a denied and a granted round through phase 1,
    /// key conversion and phase 2, then a pooled and an online request
    /// refresh and their decryption, unpooled and pooled, as bytes. The
    /// request covers a 4-block region (16 entries), so the widths group
    /// it differently. The pools hold 21 factors: the first round takes
    /// 16 and the second 5, which splits a group into pooled and online
    /// entries at every grouping. Keys have `bits` bits. Returns the
    /// bytes and the two rounds' decisions per pooling mode.
    fn every_fanned_out_path(bits: usize) -> (Vec<Vec<u8>>, Vec<bool>) {
        use crate::messages::PisaMessage;
        use crate::privacy::LocationPrivacy;
        use crate::{PuClient, SdcServer, StpServer, SuClient, SuId, SystemConfig};
        use pisa_crypto::paillier::RandomizerPool;
        use pisa_radio::tv::Channel;
        use pisa_radio::BlockId;
        use pisa_watch::WatchConfig;
        use std::sync::Arc;

        let mut out: Vec<Vec<u8>> = Vec::new();
        let mut decisions = Vec::new();
        for pooled in [false, true] {
            let rng = &mut StdRng::seed_from_u64(0xe403);
            let cfg = SystemConfig::new(WatchConfig::small_test(), bits, 64, 64);
            let mut stp = StpServer::new(rng, cfg.paillier_bits());
            let mut sdc = SdcServer::new(cfg.clone(), stp.public_key().clone(), "sdc.fan", rng);
            let mut su = SuClient::new(SuId(0), BlockId(3), &cfg, rng);
            su.set_privacy(LocationPrivacy::Region(4));
            stp.register_su(su.id(), su.public_key().clone());
            // A PU next door on channel 0: channel 0 is denied, 1 granted.
            let update = PuClient::new(0, BlockId(2)).tune(
                Some(Channel(0)),
                &cfg,
                sdc.e_matrix(),
                stp.public_key(),
                rng,
            );
            out.push(
                PisaMessage::PuUpdate(update.clone())
                    .encode()
                    .unwrap()
                    .to_vec(),
            );
            sdc.handle_pu_update(0, update).unwrap();
            if pooled {
                let beta = Arc::new(RandomizerPool::new(stp.public_key(), 21));
                beta.refill(rng);
                sdc.attach_beta_pool(beta).unwrap();
                stp.enable_su_pool(su.id(), 21).unwrap().refill(rng);
            }
            let su_pk = su.public_key().clone();
            for channel in [Channel(0), Channel(1)] {
                let request = su.build_request(&cfg, stp.public_key(), &[channel], rng);
                let query = sdc.process_request_phase1(&request, rng).unwrap();
                let (reply, observed) = stp.key_convert(&query, rng).unwrap();
                let response = sdc.process_request_phase2(&reply, &su_pk, rng).unwrap();
                decisions.push(su.handle_response(&response, sdc.signing_public_key()));
                out.push(format!("{:?}", observed.v_values).into_bytes());
                for msg in [
                    PisaMessage::SuRequest(request),
                    PisaMessage::SdcToStp(query),
                    PisaMessage::StpToSdc(reply),
                    PisaMessage::SdcResponse(response),
                ] {
                    out.push(msg.encode().unwrap().to_vec());
                }
            }
            su.precompute_refresh(stp.public_key(), rng);
            for _ in 0..2 {
                let refreshed = su.refresh_request(stp.public_key(), rng);
                out.push(
                    format!("{:?}", stp.audit_decrypt_matrix(&refreshed.f_matrix)).into_bytes(),
                );
                out.push(PisaMessage::SuRequest(refreshed).encode().unwrap().to_vec());
            }
        }
        (out, decisions)
    }

    #[test]
    fn fan_out_width_never_changes_bytes() {
        // The groupings the widths give the 16-entry request and the
        // 4-entry PU update: with the lane tier (8, 4), (8, 2) and (2, 1),
        // without it single entries.
        let lanes = pisa_bigint::modular::pow_many_width();
        let sizes: Vec<_> = [1usize, 2, 8]
            .into_iter()
            .map(|w| at_width(w, || (group_size(16), group_size(4))))
            .collect();
        let want = [(8, 4), (8, 2), (2, 1)].map(|(a, b)| (a.min(lanes), b.min(lanes)));
        assert_eq!(sizes, want);
        // 384-bit keys put n² (12 limbs) just past the single tier's floor
        // and p² (6 limbs) below it. 768-bit keys put every modulus in the
        // single tier's span, and their 24-limb n² has a lane break-even
        // of 5, which the groupings of 8 reach and those of 2 do not.
        for bits in [384usize, 768] {
            let (one, decisions) = at_width(1, || every_fanned_out_path(bits));
            assert_eq!(decisions, [false, true, false, true], "{bits}-bit keys");
            for workers in [2usize, 8] {
                let (many, many_decisions) = at_width(workers, || every_fanned_out_path(bits));
                assert_eq!(
                    many_decisions, decisions,
                    "{bits}-bit keys, {workers} workers"
                );
                for (k, (a, b)) in one.iter().zip(&many).enumerate() {
                    assert_eq!(
                        a, b,
                        "{bits}-bit keys: output {k} diverged with {workers} workers"
                    );
                }
                assert_eq!(one.len(), many.len());
            }
        }
    }

    #[test]
    fn fan_out_joins_every_worker_before_reporting_a_panic() {
        use std::sync::atomic::Ordering::SeqCst;
        use std::sync::atomic::{AtomicBool, AtomicUsize};

        /// Marks an entry finished when dropped, also while unwinding.
        struct Running<'a>(&'a AtomicUsize);
        impl Drop for Running<'_> {
            fn drop(&mut self) {
                self.0.fetch_sub(1, SeqCst);
            }
        }

        for workers in [1usize, 2, 8] {
            let running = AtomicUsize::new(0);
            let started = AtomicUsize::new(0);
            let panicking = AtomicBool::new(false);
            let result = at_width(workers, || {
                fan_out(&[(); 16], |i, ()| {
                    running.fetch_add(1, SeqCst);
                    let _running = Running(&running);
                    if i == 0 {
                        // Panic only while another worker holds an entry.
                        while workers > 1 && started.load(SeqCst) == 0 {
                            std::thread::yield_now();
                        }
                        panicking.store(true, SeqCst);
                        panic!("entry 0 failed");
                    }
                    started.fetch_add(1, SeqCst);
                    while !panicking.load(SeqCst) {
                        std::thread::yield_now();
                    }
                    i
                })
            });
            let payload = result.expect_err("the panic is reported");
            assert_eq!(payload.downcast_ref::<&str>(), Some(&"entry 0 failed"));
            assert_eq!(
                running.load(SeqCst),
                0,
                "an entry outlived the call ({workers} workers)"
            );
            if workers > 1 {
                assert_eq!(started.load(SeqCst), 15, "survivors claim the rest");
            }
        }
    }

    /// `fan_out_groups` hands out consecutive groups with their start
    /// index and returns the results flattened in entry order, for every
    /// width and entry count.
    #[test]
    fn grouped_fan_out_covers_every_entry_in_order() {
        for workers in [1usize, 2, 3, 8] {
            for entries in [0usize, 1, 4, 7, 16, 17, 100] {
                let items: Vec<usize> = (0..entries).collect();
                let got = at_width(workers, || {
                    fan_out_groups(&items, |start, group| {
                        assert!(group.len() <= pisa_bigint::modular::pow_many_width());
                        (start..).zip(group).map(|(i, &x)| (i, x)).collect()
                    })
                })
                .unwrap();
                let want: Vec<_> = items.iter().map(|&x| (x, x)).collect();
                assert_eq!(got, want, "{workers} workers, {entries} entries");
            }
        }
    }

    /// A clone shares the entries; `set` on a shared matrix copies them
    /// first, so the other owner keeps its own, and `set` on an unshared
    /// one writes in place.
    #[test]
    fn clones_share_entries_and_set_copies_on_write() {
        let kp = kp();
        let pk = kp.public();
        let m = CipherMatrix::encrypt_public(&IntMatrix::from_fn(2, 3, |c, b| (c + b) as i128), pk);
        let before = bytes(&m);
        let mut copy = m.clone();
        assert!(
            std::ptr::eq(m.ciphertexts(), copy.ciphertexts()),
            "clone copied"
        );
        let fresh = pk.encrypt_public_constant(&Ibig::from(99i64));
        copy.set(1, 2, fresh.clone());
        assert_eq!(bytes(&m), before, "the other owner changed");
        assert_eq!(copy.get(1, 2), &fresh);
        assert!(!std::ptr::eq(m.ciphertexts(), copy.ciphertexts()));
        let storage = copy.ciphertexts().as_ptr();
        copy.set(0, 0, fresh.clone());
        assert_eq!(copy.ciphertexts().as_ptr(), storage, "unshared set copied");
        assert_eq!(copy.get(0, 0), &fresh);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn shape_mismatch_panics() {
        let kp = kp();
        let a = CipherMatrix::zeros(2, 2, kp.public());
        let b = CipherMatrix::zeros(2, 3, kp.public());
        let _ = a.add(&b, kp.public());
    }
}
