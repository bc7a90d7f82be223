//! The Semi-trusted Third Party: key generation and key conversion.
//!
//! Key conversion runs in fan-out groups of up to eight entries: each
//! group decrypts its CRT halves side by side, and its online
//! re-encryptions draw their nonces from their entries' own streams with
//! one gcd for the group, equal draw for draw to one `encrypt` per
//! entry.

use crate::cipher_matrix::{fan_out_groups, CipherMatrix};
use crate::error::PisaError;
use crate::keys::{GlobalKeys, SuId, SuKeyDirectory};
use crate::messages::{SdcToStpMsg, StpToSdcMsg};
use pisa_bigint::Ibig;
use pisa_crypto::paillier::{PaillierPublicKey, Randomizer, RandomizerPool};
use rand::Rng;
use std::collections::HashMap;
use std::sync::Arc;

/// Everything the STP observes while serving one key-conversion request —
/// exactly the blinded values `V(c,i)` of eq. (14). Exposed so the
/// privacy tests can verify that these observations carry (statistically)
/// no information about the true indicator signs.
#[derive(Debug, Clone)]
pub struct StpObservation {
    /// The decrypted blinded values, in entry order.
    pub v_values: Vec<Ibig>,
}

/// The STP: holds the global secret key `sk_G` and the directory of SU
/// public keys, and converts blinded ciphertexts from `pk_G` to `pk_j`
/// (Figure 5 steps 6–8).
///
/// The STP never sees `Ñ`, `F̃` or any unblinded value; by Lemma V.1 the
/// blinded `V` values give it only negligible advantage over guessing.
pub struct StpServer {
    global: GlobalKeys,
    directory: SuKeyDirectory,
    /// Per-SU pools of precomputed `rⁿ` factors under `pk_j`, consumed
    /// by key conversion for its ±1 re-encryptions (paper §VI-A
    /// offline/online split). Empty map keeps the fully online path.
    pools: HashMap<SuId, Arc<RandomizerPool>>,
}

impl std::fmt::Debug for StpServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "StpServer({} SUs registered)", self.directory.len())
    }
}

impl StpServer {
    /// Creates the STP with a fresh global key pair of `bits` bits.
    pub fn new<R: Rng + ?Sized>(rng: &mut R, bits: usize) -> Self {
        StpServer {
            global: GlobalKeys::generate(rng, bits),
            directory: SuKeyDirectory::new(),
            pools: HashMap::new(),
        }
    }

    /// Creates (idempotently) a pool of `capacity` precomputed `rⁿ`
    /// factors under an SU's key, which key conversion then consumes to
    /// re-encrypt each ±1 sign with two multiplications instead of a
    /// full exponentiation. Returns the shared handle, or `None` for an
    /// SU that never registered a key. Pools start empty — top them up
    /// with [`refill_pools`](Self::refill_pools).
    pub fn enable_su_pool(&mut self, id: SuId, capacity: usize) -> Option<Arc<RandomizerPool>> {
        let pk = self.directory.lookup(id)?;
        let pool = self
            .pools
            .entry(id)
            .or_insert_with(|| Arc::new(RandomizerPool::new(pk, capacity)));
        Some(Arc::clone(pool))
    }

    /// The pool enabled for an SU, if any.
    pub fn su_pool(&self, id: SuId) -> Option<&Arc<RandomizerPool>> {
        self.pools.get(&id)
    }

    /// Tops every SU pool back up — the offline phase between request
    /// batches. Pools refill in SU-id order so a seeded `rng` produces
    /// the same factors on every run.
    pub fn refill_pools<R: Rng + ?Sized>(&self, rng: &mut R) {
        let mut ids: Vec<SuId> = self.pools.keys().copied().collect();
        ids.sort_unstable();
        for id in ids {
            if let Some(pool) = self.pools.get(&id) {
                pool.refill(rng);
            }
        }
    }

    /// Pre-takes one pooled factor per entry (empty when the SU has no
    /// pool), indexed by entry order so every fan-out width consumes
    /// identical factors.
    fn take_su_factors(&self, id: SuId, entries: usize) -> Vec<Randomizer> {
        self.pools
            .get(&id)
            .map(|pool| pool.take_batch(entries))
            .unwrap_or_default()
    }

    /// The global public key `pk_G` (anyone can retrieve it).
    pub fn public_key(&self) -> &PaillierPublicKey {
        self.global.public()
    }

    /// Registers an SU's public key (SUs upload `pk_j` on joining).
    pub fn register_su(&mut self, id: SuId, pk: PaillierPublicKey) {
        self.directory.publish(id, pk);
    }

    /// Looks up a registered SU key (the directory is public).
    pub fn su_key(&self, id: SuId) -> Option<&PaillierPublicKey> {
        self.directory.lookup(id)
    }

    /// Serializes the STP's per-SU state — the public-key directory —
    /// for crash recovery. `sk_G` is deliberately *not* persisted
    /// (§III-C: it never leaves the STP; a restarted STP re-derives it
    /// from its own key source, here the deterministic storm fixture),
    /// and the randomizer pools are transient precomputation.
    ///
    /// # Errors
    ///
    /// Any [`pisa_net::codec::CodecError`] if a field cannot fit its
    /// wire width; in-range state never fails.
    pub fn snapshot_directory(&self) -> Result<bytes::Bytes, pisa_net::codec::CodecError> {
        use pisa_net::codec::Writer;
        let mut ids: Vec<SuId> = self.directory.iter().map(|(id, _)| id).collect();
        ids.sort_unstable();
        let mut w = Writer::with_capacity(16 + ids.len() * 80);
        w.put_u8(DIRECTORY_VERSION);
        w.put_u32(crate::wire::wire_u32(ids.len())?);
        for id in ids {
            // The id came from the directory's own key set just above.
            let Some(pk) = self.directory.lookup(id) else {
                continue;
            };
            w.put_u32(id.0);
            w.put_bytes(&pk.modulus().to_be_bytes())?;
        }
        Ok(w.finish())
    }

    /// Replaces the SU key directory from a
    /// [`snapshot_directory`](Self::snapshot_directory) frame. The
    /// frame is treated as adversarial: the entry count is bounded by
    /// the remaining bytes before allocation, SU ids must be strictly
    /// increasing, and every modulus must be an odd number of at least
    /// [`pisa_crypto::paillier::MIN_KEY_BITS`] bits (the preconditions
    /// `PaillierPublicKey::from_modulus` would otherwise panic on).
    ///
    /// # Errors
    ///
    /// Any [`pisa_net::codec::CodecError`] on a malformed frame; the
    /// existing directory is left untouched on error.
    pub fn restore_directory(&mut self, frame: &[u8]) -> Result<(), pisa_net::codec::CodecError> {
        use pisa_crypto::paillier::MIN_KEY_BITS;
        use pisa_net::codec::{CodecError, Reader};
        let mut r = Reader::new(frame);
        let version = r.get_u8()?;
        if version != DIRECTORY_VERSION {
            return Err(CodecError::Invalid(format!(
                "unknown directory version {version}"
            )));
        }
        let count = crate::wire::widen(r.get_u32()?);
        let min_entry = 4 + 4 + MIN_KEY_BITS / 8;
        let most = r.remaining() / min_entry;
        if count > most {
            return Err(CodecError::Oversized(count as u64, most as u64));
        }
        let mut directory = SuKeyDirectory::new();
        let mut last: Option<u32> = None;
        for _ in 0..count {
            let raw_id = r.get_u32()?;
            if let Some(prev) = last {
                if raw_id <= prev {
                    return Err(CodecError::Invalid(format!(
                        "directory SU ids must be strictly increasing (saw {raw_id} after {prev})"
                    )));
                }
            }
            last = Some(raw_id);
            let n = pisa_bigint::Ubig::from_be_bytes(r.get_bytes()?);
            if n.bit_len() < MIN_KEY_BITS || !n.is_odd() {
                return Err(CodecError::Invalid(format!(
                    "SU {raw_id} modulus is not a valid Paillier modulus ({} bits)",
                    n.bit_len()
                )));
            }
            directory.publish(SuId(raw_id), PaillierPublicKey::from_modulus(n));
        }
        r.finish()?;
        self.directory = directory;
        Ok(())
    }

    /// Audit interface: decrypts a `pk_G` cipher matrix.
    ///
    /// This models a capability the STP genuinely has (it holds `sk_G`)
    /// and is used by the equivalence tests to check that the SDC's
    /// encrypted budget matrix `Ñ` tracks the plaintext WATCH baseline.
    /// PISA's privacy argument rests on the SDC never *sending* `Ñ` to
    /// the STP — not on the STP being unable to decrypt.
    pub fn audit_decrypt_matrix(&self, m: &CipherMatrix) -> pisa_watch::IntMatrix {
        m.decrypt(self.global.secret())
    }

    /// Key conversion (Figure 5 steps 6–8): decrypts each blinded
    /// `Ṽ(c,i)`, maps it to `X = ±1` by sign (eq. 15), and re-encrypts
    /// `X` under the SU's own key.
    ///
    /// Returns the reply for the SDC together with the observation
    /// record (what a curious STP would have learned).
    ///
    /// # Errors
    ///
    /// [`PisaError::UnknownSu`] if the SU never registered a key, and
    /// [`PisaError::EngineFailure`] if a worker panics.
    pub fn key_convert<R: Rng + ?Sized>(
        &self,
        msg: &SdcToStpMsg,
        rng: &mut R,
    ) -> Result<(StpToSdcMsg, StpObservation), PisaError> {
        let _span = pisa_obs::span("key_conversion");
        let su_pk = self
            .directory
            .lookup(msg.su_id)
            .ok_or(PisaError::UnknownSu(msg.su_id))?;

        // Per-entry RNGs and pre-taken pooled factors, both indexed by
        // entry, keep the reply independent of which worker runs an entry.
        let base = rng.next_u64();
        let factors = self.take_su_factors(msg.su_id, msg.v_matrix.len());
        let sk = self.global.secret();
        let converted = fan_out_groups(msg.v_matrix.ciphertexts(), |start, group| {
            let vs = sk.decrypt_many(group);
            let signs: Vec<Ibig> = vs
                .iter()
                .map(|v| Ibig::from(if v.is_positive() { 1i64 } else { -1 }))
                .collect();
            // The pool hands out a prefix of the entries. The rest draw
            // their nonce from their own stream, as
            // `su_pk.encrypt(x, entry_rng(base, idx))` would, with one gcd
            // for the group, and encrypt side by side.
            let pooled = factors.get(start..).unwrap_or_default();
            let mut erngs: Vec<_> = (start + pooled.len()..start + group.len())
                .map(|idx| crate::sdc::entry_rng(base, idx))
                .collect();
            let online: Vec<_> = signs
                .iter()
                .skip(pooled.len())
                .cloned()
                .zip(su_pk.draw_nonces_each(&mut erngs))
                .collect();
            signs
                .iter()
                .zip(pooled)
                .map(|(x, f)| su_pk.encrypt_with_randomizer(x, f))
                .chain(su_pk.encrypt_with_nonces(&online))
                .zip(vs)
                .collect()
        })
        .map_err(|_| PisaError::EngineFailure("key-conversion worker panicked"))?;
        let (x_entries, v_values): (Vec<_>, Vec<_>) = converted.into_iter().unzip();

        Ok((
            StpToSdcMsg {
                su_id: msg.su_id,
                x_matrix: CipherMatrix::from_ciphertexts(
                    msg.v_matrix.channels(),
                    msg.v_matrix.blocks(),
                    x_entries,
                ),
                region_blocks: msg.region_blocks,
                ct_bytes: su_pk.ciphertext_bytes(),
            },
            StpObservation { v_values },
        ))
    }
}

/// SU-key-directory serialization format version.
const DIRECTORY_VERSION: u8 = 1;

#[cfg(test)]
mod tests {
    use super::*;
    use pisa_crypto::paillier::PaillierKeyPair;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn unknown_su_rejected() {
        let mut rng = StdRng::seed_from_u64(1);
        let stp = StpServer::new(&mut rng, 256);
        let msg = SdcToStpMsg {
            su_id: SuId(9),
            v_matrix: CipherMatrix::zeros(1, 1, stp.public_key()),
            region_blocks: 1,
            ct_bytes: 64,
        };
        assert_eq!(
            stp.key_convert(&msg, &mut rng).unwrap_err(),
            PisaError::UnknownSu(SuId(9))
        );
    }

    #[test]
    fn key_conversion_signs() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut stp = StpServer::new(&mut rng, 256);
        let su_keys = PaillierKeyPair::generate(&mut rng, 256);
        stp.register_su(SuId(0), su_keys.public().clone());

        // Build V ciphertexts for known plaintexts.
        let pk_g = stp.public_key().clone();
        let values = [5i64, -3, 1, -1];
        let cts: Vec<_> = values
            .iter()
            .map(|&v| pk_g.encrypt(&Ibig::from(v), &mut rng))
            .collect();
        let msg = SdcToStpMsg {
            su_id: SuId(0),
            v_matrix: CipherMatrix::from_ciphertexts(2, 2, cts),
            region_blocks: 2,
            ct_bytes: pk_g.ciphertext_bytes(),
        };
        let (reply, obs) = stp.key_convert(&msg, &mut rng).unwrap();

        // Observation is the plaintext V values.
        assert_eq!(obs.v_values, values.map(Ibig::from).to_vec());
        // Reply decrypts (under the SU key) to the signs.
        let expected_signs = [1i64, -1, 1, -1];
        for (ct, want) in reply.x_matrix.ciphertexts().iter().zip(expected_signs) {
            assert_eq!(su_keys.secret().decrypt(ct), Ibig::from(want));
        }
        assert_eq!(reply.ct_bytes, su_keys.public().ciphertext_bytes());
    }

    #[test]
    fn zero_maps_to_minus_one() {
        // eq. (15): V ≤ 0 ⇒ X = −1 (β > 0 ensures V = 0 cannot occur for
        // honest SDCs, but the mapping must still be total).
        let mut rng = StdRng::seed_from_u64(3);
        let mut stp = StpServer::new(&mut rng, 256);
        let su_keys = PaillierKeyPair::generate(&mut rng, 256);
        stp.register_su(SuId(0), su_keys.public().clone());
        let ct = stp.public_key().encrypt(&Ibig::zero(), &mut rng);
        let msg = SdcToStpMsg {
            su_id: SuId(0),
            v_matrix: CipherMatrix::from_ciphertexts(1, 1, vec![ct]),
            region_blocks: 1,
            ct_bytes: 64,
        };
        let (reply, _) = stp.key_convert(&msg, &mut rng).unwrap();
        assert_eq!(
            su_keys.secret().decrypt(&reply.x_matrix.ciphertexts()[0]),
            Ibig::from(-1i64)
        );
    }

    #[test]
    fn pooled_key_convert_parallel_matches_pooled_sequential() {
        use crate::cipher_matrix::at_width;

        let mut rng = StdRng::seed_from_u64(4);
        let mut stp = StpServer::new(&mut rng, 256);
        let su_keys = PaillierKeyPair::generate(&mut rng, 256);
        stp.register_su(SuId(0), su_keys.public().clone());

        let pk_g = stp.public_key().clone();
        let values = [5i64, -3, 1, -1, 9, -9];
        let cts: Vec<_> = values
            .iter()
            .map(|&v| pk_g.encrypt(&Ibig::from(v), &mut rng))
            .collect();
        let msg = SdcToStpMsg {
            su_id: SuId(0),
            v_matrix: CipherMatrix::from_ciphertexts(2, 3, cts),
            region_blocks: 3,
            ct_bytes: pk_g.ciphertext_bytes(),
        };

        // Prime the pool identically before each run so the factor stream
        // the conversion consumes is the same at every width. It covers
        // four of the six entries, so a group can hold pooled and online
        // entries.
        let mut convert = |workers: usize| {
            let pool = stp.enable_su_pool(SuId(0), 4).unwrap();
            pool.refill(&mut StdRng::seed_from_u64(0xf00d));
            at_width(workers, || {
                stp.key_convert(&msg, &mut StdRng::seed_from_u64(7))
                    .unwrap()
            })
        };
        let (seq, seq_obs) = convert(1);
        for workers in [2usize, 8] {
            let (par, par_obs) = convert(workers);
            assert_eq!(
                seq.x_matrix.ciphertexts(),
                par.x_matrix.ciphertexts(),
                "workers = {workers}"
            );
            assert_eq!(seq_obs.v_values, par_obs.v_values, "workers = {workers}");
        }

        // Pooled conversion still decrypts to the right signs, and every
        // entry is the single-entry encryption: a pooled factor for the
        // first four, `encrypt` on the entry's own stream for the rest.
        let expected_signs = [1i64, -1, 1, -1, 1, -1];
        for (ct, want) in seq.x_matrix.ciphertexts().iter().zip(expected_signs) {
            assert_eq!(su_keys.secret().decrypt(ct), Ibig::from(want));
        }
        let probe = pisa_crypto::paillier::RandomizerPool::new(su_keys.public(), 4);
        probe.refill(&mut StdRng::seed_from_u64(0xf00d));
        let factors = probe.take_batch(4);
        let base = rand::RngCore::next_u64(&mut StdRng::seed_from_u64(7));
        for (idx, (ct, want)) in seq
            .x_matrix
            .ciphertexts()
            .iter()
            .zip(expected_signs)
            .enumerate()
        {
            let x = Ibig::from(want);
            let single = match factors.get(idx) {
                Some(f) => su_keys.public().encrypt_with_randomizer(&x, f),
                None => su_keys
                    .public()
                    .encrypt(&x, &mut crate::sdc::entry_rng(base, idx)),
            };
            assert_eq!(ct, &single, "entry {idx}");
        }
    }

    #[test]
    fn su_pool_requires_registered_key() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut stp = StpServer::new(&mut rng, 256);
        assert!(stp.enable_su_pool(SuId(3), 4).is_none());
        assert!(stp.su_pool(SuId(3)).is_none());
    }
}
