//! The Spectrum Database Controller server.
//!
//! Phase 1's per-entry work runs in fan-out groups of up to eight
//! entries, and each group shares its number-theoretic work: one
//! inversion for the eq. 12 subtractions `N ⊖ R`, one for the eq. 14
//! differences (ε only picks which operand each entry inverts, so the
//! work is the same for every ε), and one gcd for the β̃ nonces its
//! entries draw from their own streams. A PU update checks its column
//! with one gcd and takes the old column out of Ñ with one inversion.
//! A non-unit among a batch (only an adversarial ciphertext is one)
//! sends the batch back to one inversion per entry, so every entry's
//! result and error equal the single ⊖'s.

use crate::cipher_matrix::{fan_out, fan_out_groups, i128_to_ibig, CipherMatrix};
use crate::config::SystemConfig;
use crate::error::PisaError;
use crate::keys::SuId;
use crate::license::License;
use crate::messages::{PuUpdateMsg, SdcResponseMsg, SdcToStpMsg, StpToSdcMsg, SuRequestMsg};
use pisa_bigint::{Ibig, Ubig};
use pisa_crypto::blind::{sample_eta, Blinder, SignFlip};
use pisa_crypto::paillier::{Ciphertext, PaillierPublicKey, Randomizer, RandomizerPool};
use pisa_crypto::rsa::{RsaKeyPair, RsaPublicKey};
use pisa_radio::BlockId;
use pisa_watch::{compute_e_matrix, IntMatrix};
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::sync::Arc;

/// State the SDC keeps between phase 1 (blinded sign test sent to the
/// STP) and phase 2 (response built from the STP's answer).
struct PendingRequest {
    license: License,
    epsilons: Vec<SignFlip>,
    region_blocks: usize,
}

impl std::fmt::Debug for PendingRequest {
    /// The ε vector unblinds the STP's sign readings, so it never
    /// reaches logs.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "PendingRequest {{ license: {:?}, epsilons: <redacted ×{}>, region_blocks: {} }}",
            self.license,
            self.epsilons.len(),
            self.region_blocks
        )
    }
}

/// The SDC: aggregates encrypted PU updates into the budget matrix `Ñ`
/// and processes encrypted SU requests without ever holding a
/// decryption key.
///
/// Everything the SDC stores or computes on is a Paillier ciphertext
/// under `pk_G` (or `pk_j` in phase 2); compromise of the SDC reveals
/// no PU channel, SU parameter or decision.
pub struct SdcServer {
    cfg: SystemConfig,
    pk_g: PaillierPublicKey,
    issuer: String,
    /// Public matrix **E** in the clear (public regulatory data).
    e_plain: IntMatrix,
    /// `Ñ = (⊕ᵢ W̃ᵢ) ⊕ Ẽ`, maintained incrementally (eqs. 9–10).
    n_matrix: CipherMatrix,
    /// Latest encrypted `W̃` column per PU, for incremental updates.
    contributions: HashMap<u64, (BlockId, Vec<Ciphertext>)>,
    rsa: RsaKeyPair,
    blinder: Blinder,
    serial: u64,
    pending: HashMap<SuId, PendingRequest>,
    /// Optional pool of precomputed `rⁿ` factors under `pk_G` for the
    /// per-entry β̃ encryptions of phase 1 (paper §VI-A offline/online
    /// split). `None` keeps the fully online path.
    beta_pool: Option<Arc<RandomizerPool>>,
}

impl std::fmt::Debug for SdcServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "SdcServer({}x{}, {} PUs, {} pending)",
            self.cfg.channels(),
            self.cfg.blocks(),
            self.contributions.len(),
            self.pending.len()
        )
    }
}

impl SdcServer {
    /// Initializes the SDC (paper §IV-A1): computes **E** from public
    /// data, encrypts it, and sets `Ñ = Ẽ`.
    ///
    /// The license-signing RSA key is generated strictly below the
    /// global Paillier modulus so signatures embed as plaintexts for
    /// every same-sized SU key (see DESIGN.md).
    ///
    /// # Panics
    ///
    /// Panics if the configured blinding budget cannot fit the key's
    /// plaintext space.
    pub fn new<R: Rng + ?Sized>(
        cfg: SystemConfig,
        pk_g: PaillierPublicKey,
        issuer: &str,
        rng: &mut R,
    ) -> Self {
        let blinder = Blinder::new(cfg.blind_bits());
        // |ε(αI − β)| must stay below n/2: verify against the worst-case
        // indicator magnitude (quantizer width + 16 bits of headroom,
        // the same bound SystemConfig enforces structurally).
        // pisa-lint: allow(panic-freedom): u32 → usize widening, never truncates.
        let max_i = Ubig::one() << (cfg.watch().quantizer().total_bits() as usize + 16);
        assert!(
            blinder.max_blinded_magnitude(&max_i) < (pk_g.modulus() >> 1),
            "blinded values would overflow the plaintext space"
        );

        let e_plain = compute_e_matrix(cfg.watch());
        let n_matrix = CipherMatrix::encrypt_public(&e_plain, &pk_g);
        let rsa = RsaKeyPair::generate_below(rng, pk_g.modulus(), cfg.rsa_slack_bits());
        SdcServer {
            cfg,
            pk_g,
            issuer: issuer.to_owned(),
            e_plain,
            n_matrix,
            contributions: HashMap::new(),
            rsa,
            blinder,
            serial: 0,
            pending: HashMap::new(),
            beta_pool: None,
        }
    }

    /// Attaches a pool of precomputed `rⁿ` factors under `pk_G` that
    /// phase 1 consumes for its per-entry β̃ encryptions — the paper's
    /// §VI-A offline/online split applied to the sign test. Entries
    /// beyond the pooled supply fall back to online exponentiation;
    /// refill between request batches through the shared handle.
    ///
    /// # Errors
    ///
    /// [`PisaError::EngineFailure`] if the pool precomputes for a key
    /// other than `pk_G` (its factors would corrupt every ciphertext).
    pub fn attach_beta_pool(&mut self, pool: Arc<RandomizerPool>) -> Result<(), PisaError> {
        if pool.public_key() != &self.pk_g {
            return Err(PisaError::EngineFailure("β pool built for a different key"));
        }
        self.beta_pool = Some(pool);
        Ok(())
    }

    /// The attached β pool, if any (for refills and stats).
    pub fn beta_pool(&self) -> Option<&Arc<RandomizerPool>> {
        self.beta_pool.as_ref()
    }

    /// Pre-takes one pooled β factor per entry (empty when no pool is
    /// attached), indexed by entry order so every fan-out width consumes
    /// identical factors.
    fn take_beta_factors(&self, entries: usize) -> Vec<Randomizer> {
        self.beta_pool
            .as_ref()
            .map(|pool| pool.take_batch(entries))
            .unwrap_or_default()
    }

    /// The system configuration.
    pub fn config(&self) -> &SystemConfig {
        &self.cfg
    }

    /// The public matrix **E** (public data; PUs need it to form `W`).
    pub fn e_matrix(&self) -> &IntMatrix {
        &self.e_plain
    }

    /// The SDC's license-verification key (published to SUs).
    pub fn signing_public_key(&self) -> &RsaPublicKey {
        self.rsa.public()
    }

    /// The encrypted budget matrix `Ñ` (diagnostic/test access).
    pub fn n_matrix(&self) -> &CipherMatrix {
        &self.n_matrix
    }

    /// Handles a PU channel-reception update (Figure 4 step 4):
    /// `Ñ ← Ñ ⊖ W̃_old ⊕ W̃_new` at the PU's block, realizing eqs.
    /// (8)–(10) incrementally.
    ///
    /// The update is all or nothing: every new entry must be a unit
    /// modulo `n²` (a non-unit could never be subtracted again), and the
    /// touched columns of `Ñ` are computed in full before any state
    /// changes, so a rejected update leaves the SDC exactly as it was.
    ///
    /// # Errors
    ///
    /// [`PisaError::DimensionMismatch`] if the update does not carry
    /// exactly `C` ciphertexts, [`PisaError::BadRegion`] for a block
    /// outside the grid, and [`PisaError::Crypto`] for a non-unit entry
    /// (new, or in a stored contribution restored from a snapshot).
    pub fn handle_pu_update(&mut self, pu_id: u64, msg: PuUpdateMsg) -> Result<(), PisaError> {
        let _span = pisa_obs::span("matrix_update");
        if msg.w_column.len() != self.cfg.channels() {
            return Err(PisaError::DimensionMismatch {
                got: (msg.w_column.len(), 1),
                want: (self.cfg.channels(), 1),
            });
        }
        self.cfg
            .watch()
            .area()
            .check_block(msg.block)
            .map_err(|_| PisaError::BadRegion {
                region_blocks: msg.block.0,
                blocks: self.cfg.blocks(),
            })?;
        // One gcd for the column: its product is a unit exactly when
        // every entry is.
        self.pk_g.check_units(&msg.w_column)?;

        let b = msg.block.0;
        // Stage the PU's old block with its previous contribution removed
        // (one inversion for the column), then the new block with the new
        // one added on top.
        let removed = match self.contributions.get(&pu_id) {
            Some((old_block, old_col)) => {
                let pairs: Vec<_> = old_col
                    .iter()
                    .enumerate()
                    .map(|(c, old)| (self.n_matrix.get(c, old_block.0), old))
                    .collect();
                Some((
                    old_block.0,
                    self.pk_g
                        .sub_many(&pairs)
                        .into_iter()
                        .collect::<Result<Vec<_>, _>>()?,
                ))
            }
            None => None,
        };
        let added: Vec<Ciphertext> = msg
            .w_column
            .iter()
            .enumerate()
            .map(|(c, new)| {
                let cur = match &removed {
                    Some((old_b, col)) if *old_b == b => col.get(c),
                    _ => None,
                };
                self.pk_g
                    .add(cur.unwrap_or_else(|| self.n_matrix.get(c, b)), new)
            })
            .collect();

        if let Some((old_b, col)) = removed {
            for (c, ct) in col.into_iter().enumerate() {
                self.n_matrix.set(c, old_b, ct);
            }
        }
        for (c, ct) in added.into_iter().enumerate() {
            self.n_matrix.set(c, b, ct);
        }
        self.contributions.insert(pu_id, (msg.block, msg.w_column));
        Ok(())
    }

    /// Rebuilds `Ñ` from scratch by re-aggregating every stored PU
    /// contribution over `Ẽ` — the literal realization of eqs. (9)–(10)
    /// the paper times at ~2.6 s per update. [`handle_pu_update`]
    /// maintains the same matrix incrementally; this method is the
    /// recovery path (and the cost baseline for the `fig6_system_eval`
    /// harness).
    ///
    /// [`handle_pu_update`]: Self::handle_pu_update
    pub fn reaggregate_budget(&mut self) {
        let mut n = CipherMatrix::encrypt_public(&self.e_plain, &self.pk_g);
        for (block, col) in self.contributions.values() {
            for (c, w) in col.iter().enumerate() {
                n.set(c, block.0, self.pk_g.add(n.get(c, block.0), w));
            }
        }
        self.n_matrix = n;
    }

    /// Number of PUs with a stored contribution.
    pub fn registered_pus(&self) -> usize {
        self.contributions.len()
    }

    /// Phase 1 of request processing (Figure 5 steps 3–5): computes
    /// `R̃ = X ⊗ F̃` (eq. 11), `Ĩ = Ñ ⊖ R̃` (eq. 12) and the blinded
    /// `Ṽ = ε ⊗ (α ⊗ Ĩ ⊖ β̃)` (eq. 14), remembering ε and the license
    /// for phase 2.
    ///
    /// The per-entry work runs across the host's cores — the paper notes
    /// a production SDC "would normally utilize a much more powerful
    /// hardware and can process the transmission request much faster".
    ///
    /// # Errors
    ///
    /// [`PisaError::DimensionMismatch`] or [`PisaError::BadRegion`] on a
    /// malformed request, [`PisaError::Crypto`] on a non-unit entry, and
    /// [`PisaError::EngineFailure`] if a worker panics.
    pub fn process_request_phase1<R: Rng + ?Sized>(
        &mut self,
        msg: &SuRequestMsg,
        rng: &mut R,
    ) -> Result<SdcToStpMsg, PisaError> {
        let _span = pisa_obs::span("sign_test");
        let region = msg.region_blocks;
        if region == 0 || region > self.cfg.blocks() {
            return Err(PisaError::BadRegion {
                region_blocks: region,
                blocks: self.cfg.blocks(),
            });
        }
        if msg.f_matrix.channels() != self.cfg.channels() || msg.f_matrix.blocks() != region {
            return Err(PisaError::DimensionMismatch {
                got: (msg.f_matrix.channels(), msg.f_matrix.blocks()),
                want: (self.cfg.channels(), region),
            });
        }

        // Every entry's randomness derives from one draw and its index,
        // and its pooled β factor (if any) is pre-taken in entry order, so
        // the output does not depend on which worker runs the entry.
        let channels = self.cfg.channels();
        let base = rng.next_u64();
        let beta_factors = self.take_beta_factors(channels * region);
        let this = &*self;
        let blinded = fan_out_groups(msg.f_matrix.ciphertexts(), |start, f_cts| {
            this.blind_group(start, f_cts, region, base, &beta_factors)
        })
        .map_err(|_| PisaError::EngineFailure("phase-1 blinding worker panicked"))?;
        let (v_entries, epsilons): (Vec<_>, Vec<_>) = blinded
            .into_iter()
            .collect::<Result<Vec<_>, _>>()?
            .into_iter()
            .unzip();

        let license = License {
            su_id: msg.su_id,
            issuer: self.issuer.clone(),
            request_digest: License::digest_request(msg.f_matrix.ciphertexts()),
            serial: self.serial,
        };
        self.serial += 1;
        self.pending.insert(
            msg.su_id,
            PendingRequest {
                license,
                epsilons,
                region_blocks: region,
            },
        );

        Ok(SdcToStpMsg {
            su_id: msg.su_id,
            v_matrix: CipherMatrix::from_ciphertexts(channels, region, v_entries),
            region_blocks: region,
            ct_bytes: self.pk_g.ciphertext_bytes(),
        })
    }

    /// Eqs. (11)–(14) for the entries `start..start + f_cts.len()`:
    /// `R = X ⊗ F`, `I = N ⊖ R`, `V = ε ⊗ (α ⊗ I ⊖ β̃)`. Returns each
    /// entry's blinded ciphertext and the ε needed to unblind it in phase
    /// 2, or [`PisaError::Crypto`] when the SU supplied a non-unit
    /// (adversarial) ciphertext entry.
    ///
    /// The shared-exponent powers — `X ⊗ F` and the `rⁿ` of each online
    /// β̃ — run side by side for the group; α is each entry's own and
    /// stays a single power. The group's two ⊖ steps cost one inversion
    /// each, and its β̃ nonces one gcd. Each entry draws from its own
    /// `entry_rng(base, idx)`: its blinding factors, then (unpooled) its
    /// β̃ nonce. With a pooled factor the β̃ encryption is two modular
    /// multiplications instead of the full `rⁿ` exponentiation — the
    /// dominant per-entry cost of the sign test.
    fn blind_group(
        &self,
        start: usize,
        f_cts: &[Ciphertext],
        region: usize,
        base: u64,
        beta_factors: &[Randomizer],
    ) -> Vec<Result<(Ciphertext, SignFlip), PisaError>> {
        let x = Ibig::from(self.cfg.watch().params().x_integer());
        // R = X ⊗ F (eq. 11)
        let rs = self.pk_g.scalar_mul_many(f_cts, &x);
        let mut erngs: Vec<_> = (start..start + f_cts.len())
            .map(|idx| entry_rng(base, idx))
            .collect();
        let factors: Vec<_> = erngs
            .iter_mut()
            .map(|erng| self.blinder.sample(erng))
            .collect();
        // The pool hands out a prefix of the entries; the rest draw a β̃
        // nonce after their factors and encrypt side by side.
        let pooled = beta_factors.get(start..).unwrap_or_default();
        let split = pooled.len().min(f_cts.len());
        let online: Vec<_> = factors
            .iter()
            .skip(split)
            .map(|f| Ibig::from(f.beta.clone()))
            .zip(
                self.pk_g
                    .draw_nonces_each(erngs.get_mut(split..).unwrap_or_default()),
            )
            .collect();
        let beta_cts: Vec<_> = factors
            .iter()
            .zip(pooled)
            .map(|(f, p)| {
                self.pk_g
                    .encrypt_with_randomizer(&Ibig::from(f.beta.clone()), p)
            })
            .chain(self.pk_g.encrypt_with_nonces(&online))
            .collect();
        // I = N ⊖ R (eq. 12)
        let is = differences(
            &self.pk_g,
            (start..)
                .zip(&rs)
                .map(|(idx, r)| {
                    let n = self.n_matrix.get(idx / region, idx % region);
                    Ok((n, r.as_ref().map_err(|e| e.clone())?))
                })
                .collect(),
        );
        // V = ε ⊗ (α ⊗ I ⊖ β̃) (eq. 14)
        let scaled: Vec<_> = is
            .into_iter()
            .zip(&factors)
            .map(|(i, f)| Ok(self.pk_g.scalar_mul(&i?, &Ibig::from(f.alpha.clone()))?))
            .collect();
        let epsilons: Vec<_> = factors.iter().map(|f| f.epsilon).collect();
        signed_differences(&self.pk_g, &scaled, &beta_cts, &epsilons)
            .into_iter()
            .zip(epsilons)
            .map(|(v, epsilon)| Ok((v?, epsilon)))
            .collect()
    }

    /// Phase 2 (Figure 5 steps 9–11): unblinds the STP's signs into
    /// `Q̃ ∈ {0, −2}` (eqs. 13, 16), signs the license, and gates the
    /// signature with `G̃ = S̃G ⊕ η ⊗ ΣQ̃` (eq. 17).
    ///
    /// # Errors
    ///
    /// [`PisaError::MissingRequestState`] if phase 1 did not run, and
    /// [`PisaError::DimensionMismatch`] if the STP reply shape is wrong.
    pub fn process_request_phase2<R: Rng + ?Sized>(
        &mut self,
        msg: &StpToSdcMsg,
        su_pk: &PaillierPublicKey,
        rng: &mut R,
    ) -> Result<SdcResponseMsg, PisaError> {
        let _span = pisa_obs::span("signature_release");
        let pending = self
            .pending
            .remove(&msg.su_id)
            .ok_or(PisaError::MissingRequestState(msg.su_id))?;
        let channels = self.cfg.channels();
        if msg.x_matrix.channels() != channels || msg.x_matrix.blocks() != pending.region_blocks {
            // Put the state back: the STP may retry with a fixed reply.
            let su_id = msg.su_id;
            let err = PisaError::DimensionMismatch {
                got: (msg.x_matrix.channels(), msg.x_matrix.blocks()),
                want: (channels, pending.region_blocks),
            };
            self.pending.insert(su_id, pending);
            return Err(err);
        }

        let sum_q = sum_decisions(su_pk, msg.x_matrix.ciphertexts(), &pending.epsilons)?;

        // License signature, encrypted under the SU's key, and the gate
        // G = S̃G ⊕ η ⊗ ΣQ (eq. 17): ΣQ = 0 ⇒ G decrypts to SG;
        // ΣQ = −2k ⇒ G decrypts to SG − 2kη, an invalid signature. The
        // nonce and η are drawn in that order, then the two
        // exponentiations run side by side.
        let signature = pending.license.sign(&self.rsa);
        let sg_plain = Ibig::from(signature.as_integer().clone());
        let nonce = su_pk.draw_nonce(rng);
        let eta = Ibig::from(sample_eta(rng, su_pk.modulus()));
        let mut raised = fan_out(&[sg_plain, eta], |job, v| match job {
            0 => Ok(su_pk.encrypt_with_nonce(v, &nonce)),
            _ => su_pk.scalar_mul(&sum_q, v),
        })
        .map_err(|_| PisaError::EngineFailure("signature-release worker panicked"))?
        .into_iter();
        let (Some(sg_cipher), Some(gated)) = (raised.next(), raised.next()) else {
            return Err(PisaError::EngineFailure("signature release lost a result"));
        };
        let g_cipher = su_pk.add(&sg_cipher?, &gated?);

        Ok(SdcResponseMsg {
            license: pending.license,
            g_cipher,
            ct_bytes: su_pk.ciphertext_bytes(),
        })
    }

    /// Serializes the SDC's durable state — issuer, license serial,
    /// signing key, every stored PU contribution, and every pending
    /// (in-flight) phase-1 request — for crash recovery. Persisting
    /// `pending` is what lets a restarted SDC finish phase 2 of a
    /// session whose sign test crossed the crash: the retained ε vector
    /// must pair with the STP reply or the unblinding in eq. (16) is
    /// garbage.
    ///
    /// Treat the snapshot as sensitive: it contains the license-signing
    /// private key *and* the phase-1 ε vectors (which unblind the STP's
    /// sign readings). The budget ciphertexts, by contrast, are exactly
    /// what a breached SDC would expose anyway — which is the point of
    /// PISA.
    ///
    /// # Errors
    ///
    /// Any [`pisa_net::codec::CodecError`] if a field cannot fit its
    /// wire width; in-range state never fails.
    pub fn snapshot(&self) -> Result<bytes::Bytes, pisa_net::codec::CodecError> {
        use pisa_net::codec::Writer;
        let ct_bytes = self.pk_g.ciphertext_bytes();
        let mut w =
            Writer::with_capacity(1024 + self.contributions.len() * self.cfg.channels() * ct_bytes);
        w.put_u8(SNAPSHOT_VERSION);
        w.put_bytes(self.issuer.as_bytes())?;
        w.put_u64(self.serial);
        let rsa = self.rsa.export_secret_parts();
        w.put_bytes(&rsa.n.to_be_bytes())?;
        w.put_bytes(&rsa.d.to_be_bytes())?;
        w.put_u32(wire_u32(ct_bytes)?);
        // Deterministic order for reproducible snapshots.
        let mut ids: Vec<_> = self.contributions.keys().copied().collect();
        ids.sort_unstable();
        w.put_u32(wire_u32(ids.len())?);
        for id in ids {
            // The id came from the map's own key set one statement ago.
            let Some((block, col)) = self.contributions.get(&id) else {
                continue;
            };
            w.put_u64(id);
            w.put_u64(block.0 as u64);
            w.put_u32(wire_u32(col.len())?);
            for ct in col {
                w.put_raw(&ct.as_raw().to_be_bytes_padded(ct_bytes));
            }
        }
        // v2: the pending phase-1 sessions, sorted by SU id. The license
        // issuer is the snapshot's own issuer, so only the per-request
        // fields are stored.
        let mut su_ids: Vec<SuId> = self.pending.keys().copied().collect();
        su_ids.sort_unstable();
        w.put_u32(wire_u32(su_ids.len())?);
        for su_id in su_ids {
            let Some(p) = self.pending.get(&su_id) else {
                continue;
            };
            w.put_u32(su_id.0);
            w.put_raw(&p.license.request_digest);
            w.put_u64(p.license.serial);
            w.put_u64(p.region_blocks as u64);
            w.put_u32(wire_u32(p.epsilons.len())?);
            for eps in &p.epsilons {
                w.put_u8(match eps {
                    SignFlip::Keep => 0,
                    SignFlip::Flip => 1,
                });
            }
        }
        Ok(w.finish())
    }

    /// Reconstructs an SDC from a [`snapshot`](Self::snapshot): recomputes
    /// the public matrix **E**, restores the signing key, PU
    /// contributions and pending phase-1 sessions, and re-aggregates
    /// `Ñ` (eqs. 9–10).
    ///
    /// The frame is treated as adversarial: entry counts are checked
    /// against the remaining bytes *before* any allocation, every
    /// contribution block must lie inside the configured grid (the same
    /// `check_block` validation [`handle_pu_update`] enforces on the
    /// live path), and PU/SU ids must be strictly increasing — the
    /// order [`snapshot`](Self::snapshot) writes — so duplicates cannot
    /// silently collapse (last-wins) into a map that disagrees with the
    /// snapshot's own counts.
    ///
    /// # Errors
    ///
    /// Any [`pisa_net::codec::CodecError`] on a malformed frame.
    ///
    /// [`handle_pu_update`]: Self::handle_pu_update
    pub fn restore(
        cfg: SystemConfig,
        pk_g: PaillierPublicKey,
        frame: &[u8],
    ) -> Result<Self, pisa_net::codec::CodecError> {
        use pisa_net::codec::{CodecError, Reader};
        let mut r = Reader::new(frame);
        let version = r.get_u8()?;
        if version != SNAPSHOT_VERSION {
            return Err(CodecError::Invalid(format!(
                "unknown snapshot version {version}"
            )));
        }
        let issuer = String::from_utf8(r.get_bytes()?.to_vec())
            .map_err(|e| CodecError::Invalid(format!("issuer not UTF-8: {e}")))?;
        let serial = r.get_u64()?;
        let rsa_n = Ubig::from_be_bytes(r.get_bytes()?);
        let rsa_d = Ubig::from_be_bytes(r.get_bytes()?);
        let ct_bytes = widen(r.get_u32()?);
        if ct_bytes == 0 || ct_bytes != pk_g.ciphertext_bytes() {
            return Err(CodecError::Invalid(format!(
                "ciphertext width {ct_bytes} does not match the key"
            )));
        }
        let count = widen(r.get_u32()?);
        // The count is attacker-controlled: bound it by what the
        // remaining frame could possibly hold before pre-allocating
        // (the `Reader::get_bytes` pattern), so `count = u32::MAX`
        // cannot force a huge up-front allocation.
        let min_entry = 20usize.saturating_add(cfg.channels().saturating_mul(ct_bytes));
        let most = r.remaining() / min_entry.max(1);
        if count > most {
            return Err(CodecError::Oversized(count as u64, most as u64));
        }
        let mut contributions = HashMap::with_capacity(count);
        let mut last_id: Option<u64> = None;
        for _ in 0..count {
            let id = r.get_u64()?;
            if let Some(prev) = last_id {
                if id <= prev {
                    return Err(CodecError::Invalid(format!(
                        "PU ids must be strictly increasing (saw {id} after {prev})"
                    )));
                }
            }
            last_id = Some(id);
            let raw_block = r.get_u64()?;
            let block =
                BlockId(usize::try_from(raw_block).map_err(|_| CodecError::BadLength(raw_block))?);
            if cfg.watch().area().check_block(block).is_err() {
                return Err(CodecError::Invalid(format!(
                    "contribution block {} lies outside the {}-block grid",
                    block.0,
                    cfg.blocks()
                )));
            }
            let cols = widen(r.get_u32()?);
            if cols != cfg.channels() {
                return Err(CodecError::Invalid(format!(
                    "contribution has {cols} channels, config has {}",
                    cfg.channels()
                )));
            }
            let col = (0..cols)
                .map(|_| {
                    Ok(Ciphertext::from_raw(Ubig::from_be_bytes(
                        r.get_raw(ct_bytes)?,
                    )))
                })
                .collect::<Result<Vec<_>, CodecError>>()?;
            contributions.insert(id, (block, col));
        }

        // v2: pending phase-1 sessions, same hardening discipline.
        let pending_count = widen(r.get_u32()?);
        let min_pending = 56usize; // su id + digest + serial + region + ε count
        let most_pending = r.remaining() / min_pending;
        if pending_count > most_pending {
            return Err(CodecError::Oversized(
                pending_count as u64,
                most_pending as u64,
            ));
        }
        let mut pending = HashMap::with_capacity(pending_count);
        let mut last_su: Option<u32> = None;
        for _ in 0..pending_count {
            let raw_su = r.get_u32()?;
            if let Some(prev) = last_su {
                if raw_su <= prev {
                    return Err(CodecError::Invalid(format!(
                        "pending SU ids must be strictly increasing (saw {raw_su} after {prev})"
                    )));
                }
            }
            last_su = Some(raw_su);
            let request_digest: [u8; 32] = r
                .get_raw(32)?
                .try_into()
                .map_err(|_| CodecError::UnexpectedEof)?;
            let lic_serial = r.get_u64()?;
            let raw_region = r.get_u64()?;
            let region_blocks =
                usize::try_from(raw_region).map_err(|_| CodecError::BadLength(raw_region))?;
            if region_blocks == 0 || region_blocks > cfg.blocks() {
                return Err(CodecError::Invalid(format!(
                    "pending region of {region_blocks} blocks exceeds the {}-block area",
                    cfg.blocks()
                )));
            }
            let eps_len = widen(r.get_u32()?);
            if eps_len != cfg.channels() * region_blocks {
                return Err(CodecError::Invalid(format!(
                    "pending ε vector has {eps_len} entries, region needs {}",
                    cfg.channels() * region_blocks
                )));
            }
            let epsilons = (0..eps_len)
                .map(|_| match r.get_u8()? {
                    0 => Ok(SignFlip::Keep),
                    1 => Ok(SignFlip::Flip),
                    other => Err(CodecError::Invalid(format!("bad ε byte {other:#04x}"))),
                })
                .collect::<Result<Vec<_>, CodecError>>()?;
            pending.insert(
                SuId(raw_su),
                PendingRequest {
                    license: License {
                        su_id: SuId(raw_su),
                        issuer: issuer.clone(),
                        request_digest,
                        serial: lic_serial,
                    },
                    epsilons,
                    region_blocks,
                },
            );
        }
        r.finish()?;

        let e_plain = compute_e_matrix(cfg.watch());
        let n_matrix = CipherMatrix::encrypt_public(&e_plain, &pk_g);
        let blinder = Blinder::new(cfg.blind_bits());
        let mut sdc = SdcServer {
            cfg,
            pk_g,
            issuer,
            e_plain,
            n_matrix,
            contributions,
            rsa: RsaKeyPair::from_parts(pisa_crypto::rsa::RsaKeyParts { n: rsa_n, d: rsa_d }),
            blinder,
            serial,
            pending,
            beta_pool: None,
        };
        sdc.reaggregate_budget();
        Ok(sdc)
    }

    /// Number of in-flight phase-1 sessions awaiting their STP reply.
    pub fn pending_sessions(&self) -> usize {
        self.pending.len()
    }

    /// Converts a plaintext value into the signed domain used
    /// throughout the protocol (helper for tests).
    pub fn to_plain_domain(v: i128) -> Ibig {
        i128_to_ibig(v)
    }
}

/// `V = ε ⊗ (scaled ⊖ β̃)` (eq. 14) for a group of entries: `scaled ⊖ β̃`
/// for ε = +1 and `β̃ ⊖ scaled` for ε = −1, since `(x·y⁻¹)⁻¹ = y·x⁻¹`. ε
/// only picks which operand is the denominator, so every entry puts one
/// ciphertext into the group's one inversion whatever its ε, and the
/// work does not depend on ε. β̃ is a fresh encryption and always a
/// unit, so an entry fails exactly when its `scaled` failed, or when ε =
/// −1 and its `scaled` is not a unit.
fn signed_differences(
    pk: &PaillierPublicKey,
    scaled: &[Result<Ciphertext, PisaError>],
    beta_cts: &[Ciphertext],
    epsilons: &[SignFlip],
) -> Vec<Result<Ciphertext, PisaError>> {
    let pairs = scaled
        .iter()
        .zip(beta_cts)
        .zip(epsilons)
        .map(|((scaled, beta_ct), epsilon)| {
            let scaled = scaled.as_ref().map_err(PisaError::clone)?;
            Ok(match epsilon {
                SignFlip::Keep => (scaled, beta_ct),
                SignFlip::Flip => (beta_ct, scaled),
            })
        })
        .collect();
    differences(pk, pairs)
}

/// `a ⊖ b` for every entry whose operands exist, with one inversion for
/// all of them ([`PaillierPublicKey::sub_many`]); an entry whose operand
/// already failed keeps that error. Entry by entry the result of
/// `pk.sub`.
fn differences(
    pk: &PaillierPublicKey,
    pairs: Vec<Result<(&Ciphertext, &Ciphertext), PisaError>>,
) -> Vec<Result<Ciphertext, PisaError>> {
    let ready: Vec<_> = pairs
        .iter()
        .filter_map(|p| p.as_ref().ok().copied())
        .collect();
    let mut diffs = pk.sub_many(&ready).into_iter();
    pairs
        .into_iter()
        .map(|pair| {
            pair?;
            let diff = diffs
                .next()
                .ok_or(PisaError::EngineFailure("a batched ⊖ lost an entry"))?;
            Ok(diff?)
        })
        .collect()
}

/// `ΣQ = Σ (ε ⊗ X̃ ⊖ 1̃)` over the decision matrix (eqs. 13, 16), as
/// `(Π kept X̃) ⊖ (Π flipped X̃) ⊕ E(−k)` for `k` entries.
///
/// The flipped entries share one inversion, which fails exactly when one
/// of them is not a unit. Subtracting the deterministic 1̃ `k` times is
/// multiplying by `(1 + n)⁻ᵏ ≡ 1 − k·n (mod n²)`, the deterministic
/// encryption of −k, so the residue equals the entry-by-entry sum's.
fn sum_decisions(
    pk: &PaillierPublicKey,
    x_cts: &[Ciphertext],
    epsilons: &[SignFlip],
) -> Result<Ciphertext, PisaError> {
    let (mut kept, mut flipped) = (pk.trivial_zero(), pk.trivial_zero());
    let mut k = 0i64;
    for (x_ct, eps) in x_cts.iter().zip(epsilons) {
        match eps {
            SignFlip::Keep => kept = pk.add(&kept, x_ct),
            SignFlip::Flip => flipped = pk.add(&flipped, x_ct),
        }
        k += 1;
    }
    if k == 0 {
        return Err(PisaError::EngineFailure("decision matrix has no entries"));
    }
    let minus_k = pk.encrypt_public_constant(&Ibig::from(-k));
    Ok(pk.add(&pk.sub(&kept, &flipped)?, &minus_k))
}

use crate::wire::wire_u32;

/// Snapshot container version: bumped to 2 when the pending phase-1
/// sessions joined the durable state.
const SNAPSHOT_VERSION: u8 = 2;

/// Widens a snapshot `u32` to `usize` — lossless on every supported host.
fn widen(v: u32) -> usize {
    v as usize // pisa-lint: allow(panic-freedom): u32 → usize never truncates
}

/// Derives the RNG for one matrix entry from a single base draw
/// (splitmix64 over `base` and the flat entry index), so the SDC and STP
/// phases give the same bytes whichever worker runs an entry.
pub(crate) fn entry_rng(base: u64, index: usize) -> rand::rngs::StdRng {
    let mut z = base ^ (index as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    rand::rngs::StdRng::seed_from_u64(z ^ (z >> 31))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemConfig;
    use crate::messages::SuRequestMsg;
    use crate::stp::StpServer;
    use crate::su::SuClient;
    use pisa_radio::tv::Channel;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup() -> (SystemConfig, StpServer, SdcServer, StdRng) {
        let mut rng = StdRng::seed_from_u64(0x5dc);
        let cfg = SystemConfig::small_test();
        let stp = StpServer::new(&mut rng, cfg.paillier_bits());
        let sdc = SdcServer::new(cfg.clone(), stp.public_key().clone(), "sdc.unit", &mut rng);
        (cfg, stp, sdc, rng)
    }

    /// Eqs. (14) and (16) entry by entry, the references for the
    /// one-inversion helpers: `V = ε ⊗ (scaled ⊖ β̃)` and
    /// `ΣQ = Σ (ε ⊗ X̃ ⊕ E(−1))`.
    fn scalar_difference(
        pk: &PaillierPublicKey,
        scaled: &Ciphertext,
        beta_ct: &Ciphertext,
        epsilon: SignFlip,
    ) -> Result<Ciphertext, PisaError> {
        Ok(pk.scalar_mul(&pk.sub(scaled, beta_ct)?, &epsilon.as_scalar())?)
    }

    fn entrywise_sum(
        pk: &PaillierPublicKey,
        x_cts: &[Ciphertext],
        epsilons: &[SignFlip],
    ) -> Result<Ciphertext, PisaError> {
        let minus_one = pk.encrypt_public_constant(&Ibig::from(-1i64));
        let mut sum: Option<Ciphertext> = None;
        for (x_ct, eps) in x_cts.iter().zip(epsilons) {
            let q = pk.add(&pk.scalar_mul(x_ct, &eps.as_scalar())?, &minus_one);
            sum = Some(match sum {
                None => q,
                Some(acc) => pk.add(&acc, &q),
            });
        }
        sum.ok_or(PisaError::EngineFailure("decision matrix has no entries"))
    }

    #[test]
    fn one_inversion_formulas_match_the_entrywise_ones() {
        use pisa_crypto::paillier::PaillierKeyPair;
        use pisa_crypto::CryptoError;
        use SignFlip::{Flip, Keep};
        let mut rng = StdRng::seed_from_u64(0x0e5);
        let kp = PaillierKeyPair::generate(&mut rng, 256);
        let pk = kp.public();
        // n shares its factors with n², so it is not a unit.
        let non_unit = Ciphertext::from_raw(pk.modulus().clone());
        let x_cts: Vec<_> = [0i64, -2, 0, -2, -2, 0]
            .iter()
            .map(|&v| pk.encrypt(&Ibig::from(v), &mut rng))
            .collect();
        let beta_cts: Vec<_> = (0..6i64)
            .map(|b| pk.encrypt(&Ibig::from(987_654 + b), &mut rng))
            .collect();
        let malformed = Err(PisaError::Crypto(CryptoError::MalformedCiphertext));

        // A group of six with a non-unit `scaled` at the first, a middle
        // or the last entry, under every ε there: only a flipped ε fails,
        // and only that entry; every other entry is the entrywise
        // formula's ciphertext.
        let mixed = [Keep, Flip, Flip, Keep, Flip, Keep];
        for at in [0, 2, 5] {
            for eps in [Keep, Flip] {
                let mut epsilons = mixed;
                epsilons[at] = eps;
                let mut scaled: Vec<Result<Ciphertext, PisaError>> =
                    x_cts.iter().cloned().map(Ok).collect();
                scaled[at] = Ok(non_unit.clone());
                let got = signed_differences(pk, &scaled, &beta_cts, &epsilons);
                for (i, got) in got.iter().enumerate() {
                    let want = match &scaled[i] {
                        Ok(s) => scalar_difference(pk, s, &beta_cts[i], epsilons[i]),
                        Err(e) => Err(e.clone()),
                    };
                    assert_eq!(got, &want, "non-unit at {at} under {eps:?}, entry {i}");
                    assert_eq!(got == &malformed, i == at && eps == Flip);
                }
                // An entry whose `scaled` already failed keeps its error.
                scaled[at] = Err(PisaError::EngineFailure("upstream"));
                let got = signed_differences(pk, &scaled, &beta_cts, &epsilons);
                assert_eq!(got[at], Err(PisaError::EngineFailure("upstream")));
                assert!(got.iter().enumerate().all(|(i, r)| r.is_ok() == (i != at)));
            }
        }

        for epsilons in [[Keep; 6], [Flip; 6], mixed] {
            let got = sum_decisions(pk, &x_cts, &epsilons);
            assert!(got.is_ok());
            assert_eq!(got, entrywise_sum(pk, &x_cts, &epsilons), "{epsilons:?}");
        }
        // A non-unit X̃ is harmless where it is kept and fails where it is
        // flipped, in both formulas.
        for (at, fails) in [(0, false), (1, true)] {
            let mut x_cts = x_cts.clone();
            x_cts[at] = non_unit.clone();
            let got = sum_decisions(pk, &x_cts, &mixed);
            assert_eq!(got == malformed, fails);
            assert_eq!(got, entrywise_sum(pk, &x_cts, &mixed), "non-unit at {at}");
        }
        assert_eq!(sum_decisions(pk, &[], &[]), entrywise_sum(pk, &[], &[]));
    }

    /// A request entry that is a multiple of p (not a unit, so `X ⊗ F` is
    /// not either) at the first, a middle or the last entry of a fan-out
    /// group fails phase 1 with the error the entrywise eq. 12 gives,
    /// and leaves no pending session; the honest request then passes.
    #[test]
    fn non_unit_request_entry_fails_phase1_anywhere_in_a_group() {
        use crate::cipher_matrix::at_width;
        use pisa_crypto::CryptoError;

        let mut rng = StdRng::seed_from_u64(0x91e);
        let cfg = SystemConfig::small_test();
        let half = cfg.paillier_bits() / 2;
        let p = pisa_bigint::prime::gen_prime(&mut rng, half);
        let q = pisa_bigint::prime::gen_prime(&mut rng, half);
        let kp = pisa_crypto::paillier::PaillierKeyPair::from_primes(p.clone(), q).unwrap();
        let pk = kp.public().clone();
        let mut sdc = SdcServer::new(cfg.clone(), pk.clone(), "sdc.unit", &mut rng);
        let mut su = SuClient::new(SuId(8), BlockId(0), &cfg, &mut rng);
        let honest = su.build_request(&cfg, &pk, &[Channel(0)], &mut rng);
        // One worker: groups of `pow_many_width()` entries from entry 0.
        let width = pisa_bigint::modular::pow_many_width();
        let evil = Ciphertext::from_raw(&p * &Ubig::from(7u64));
        for at in [0, width / 2, width - 1, width] {
            let mut cts = honest.f_matrix.ciphertexts().to_vec();
            // Entry-wise, eq. 12 fails on this entry's X ⊗ F.
            let x = Ibig::from(cfg.watch().params().x_integer());
            let r = pk.scalar_mul(&evil, &x).unwrap();
            assert_eq!(
                pk.sub(sdc.n_matrix().get(at / cfg.blocks(), at % cfg.blocks()), &r),
                Err(CryptoError::MalformedCiphertext)
            );
            cts[at] = evil.clone();
            let mut msg = honest.clone();
            msg.f_matrix = CipherMatrix::from_ciphertexts(cfg.channels(), cfg.blocks(), cts);
            let got = at_width(1, || sdc.process_request_phase1(&msg, &mut rng));
            assert_eq!(
                got.unwrap_err(),
                PisaError::Crypto(CryptoError::MalformedCiphertext),
                "non-unit at entry {at}"
            );
            assert_eq!(sdc.pending_sessions(), 0);
        }
        assert!(at_width(1, || sdc.process_request_phase1(&honest, &mut rng)).is_ok());
    }

    #[test]
    fn rejects_wrong_update_width() {
        let (cfg, stp, mut sdc, mut rng) = setup();
        let msg = PuUpdateMsg {
            block: BlockId(0),
            w_column: vec![stp.public_key().trivial_zero(); cfg.channels() + 1],
            ct_bytes: stp.public_key().ciphertext_bytes(),
        };
        let _ = &mut rng;
        assert!(matches!(
            sdc.handle_pu_update(0, msg),
            Err(PisaError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn rejects_update_for_unknown_block() {
        let (cfg, stp, mut sdc, _rng) = setup();
        let msg = PuUpdateMsg {
            block: BlockId(cfg.blocks() + 5),
            w_column: vec![stp.public_key().trivial_zero(); cfg.channels()],
            ct_bytes: stp.public_key().ciphertext_bytes(),
        };
        assert!(matches!(
            sdc.handle_pu_update(0, msg),
            Err(PisaError::BadRegion { .. })
        ));
    }

    #[test]
    fn rejected_pu_update_leaves_state_untouched() {
        use crate::pu::PuClient;
        use pisa_crypto::CryptoError;
        use pisa_watch::{PuInput, WatchSdc};

        let (cfg, stp, mut sdc, mut rng) = setup();
        let pk = stp.public_key().clone();
        let e = sdc.e_matrix().clone();
        let mut mirror = WatchSdc::new(cfg.watch().clone());
        let mut pu = PuClient::new(7, BlockId(2));
        let first = pu.tune(Some(Channel(1)), &cfg, &e, &pk, &mut rng);
        sdc.handle_pu_update(7, first.clone()).unwrap();
        mirror.pu_update(7, PuInput::tuned(cfg.watch(), BlockId(2), Channel(1)));

        let state = |sdc: &SdcServer| {
            (
                sdc.n_matrix().ciphertexts().to_vec(),
                sdc.registered_pus(),
                sdc.snapshot().unwrap(),
            )
        };
        let before = state(&sdc);
        // Zero and n are not units mod n²: neither could ever be
        // subtracted again, so both must bounce off an existing and a
        // new PU alike.
        for evil in [Ubig::zero(), pk.modulus().clone()] {
            let mut bad = pu.tune(Some(Channel(0)), &cfg, &e, &pk, &mut rng);
            bad.w_column[0] = Ciphertext::from_raw(evil);
            for id in [7, 8] {
                assert_eq!(
                    sdc.handle_pu_update(id, bad.clone()),
                    Err(PisaError::Crypto(CryptoError::MalformedCiphertext))
                );
                assert!(
                    state(&sdc) == before,
                    "rejected update for PU {id} changed state"
                );
            }
        }

        // A stored non-unit (here planted through a snapshot) fails the
        // removal half; nothing may be committed before that is known.
        let ct_bytes = pk.ciphertext_bytes();
        let mut frame = sdc.snapshot().unwrap().to_vec();
        let planted = first.w_column[1].as_raw().to_be_bytes_padded(ct_bytes);
        let at = frame
            .windows(ct_bytes)
            .position(|w| w == planted.as_slice())
            .unwrap();
        frame[at..at + ct_bytes].fill(0);
        let mut poisoned = SdcServer::restore(cfg.clone(), pk.clone(), &frame).unwrap();
        let poisoned_before = state(&poisoned);
        let retune = pu.tune(Some(Channel(0)), &cfg, &e, &pk, &mut rng);
        assert!(poisoned.handle_pu_update(7, retune).is_err());
        assert!(state(&poisoned) == poisoned_before, "half-applied update");

        // A valid update after the rejected ones lands as in WATCH.
        let update = pu.tune(Some(Channel(0)), &cfg, &e, &pk, &mut rng);
        sdc.handle_pu_update(7, update).unwrap();
        mirror.pu_update(7, PuInput::tuned(cfg.watch(), BlockId(2), Channel(0)));
        assert_eq!(&stp.audit_decrypt_matrix(sdc.n_matrix()), mirror.n_matrix());
        assert_eq!(sdc.registered_pus(), 1);
    }

    #[test]
    fn rejects_empty_and_oversized_regions() {
        let (cfg, stp, mut sdc, mut rng) = setup();
        let mut su = SuClient::new(SuId(0), BlockId(0), &cfg, &mut rng);
        let mut msg = su.build_request(&cfg, stp.public_key(), &[Channel(0)], &mut rng);
        msg.region_blocks = 0;
        assert!(matches!(
            sdc.process_request_phase1(&msg, &mut rng),
            Err(PisaError::BadRegion { .. })
        ));
        let mut msg = su.build_request(&cfg, stp.public_key(), &[Channel(0)], &mut rng);
        msg.region_blocks = cfg.blocks() + 1;
        assert!(matches!(
            sdc.process_request_phase1(&msg, &mut rng),
            Err(PisaError::BadRegion { .. })
        ));
    }

    #[test]
    fn rejects_matrix_shape_mismatch() {
        let (cfg, stp, mut sdc, mut rng) = setup();
        let pk = stp.public_key();
        let msg = SuRequestMsg {
            su_id: SuId(1),
            f_matrix: crate::CipherMatrix::zeros(cfg.channels() + 1, cfg.blocks(), pk),
            region_blocks: cfg.blocks(),
            ct_bytes: pk.ciphertext_bytes(),
        };
        assert!(matches!(
            sdc.process_request_phase1(&msg, &mut rng),
            Err(PisaError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn phase2_without_phase1_is_an_error() {
        let (cfg, mut stp, mut sdc, mut rng) = setup();
        let su = SuClient::new(SuId(2), BlockId(0), &cfg, &mut rng);
        stp.register_su(SuId(2), su.public_key().clone());
        let reply = crate::messages::StpToSdcMsg {
            su_id: SuId(2),
            x_matrix: crate::CipherMatrix::zeros(cfg.channels(), cfg.blocks(), su.public_key()),
            region_blocks: cfg.blocks(),
            ct_bytes: su.public_key().ciphertext_bytes(),
        };
        assert_eq!(
            sdc.process_request_phase2(&reply, su.public_key(), &mut rng)
                .unwrap_err(),
            PisaError::MissingRequestState(SuId(2))
        );
    }

    #[test]
    fn phase2_shape_mismatch_preserves_state_for_retry() {
        let (cfg, mut stp, mut sdc, mut rng) = setup();
        let mut su = SuClient::new(SuId(3), BlockId(0), &cfg, &mut rng);
        stp.register_su(SuId(3), su.public_key().clone());
        let request = su.build_request(&cfg, stp.public_key(), &[Channel(0)], &mut rng);
        let to_stp = sdc.process_request_phase1(&request, &mut rng).unwrap();

        // Malformed STP reply: wrong dims.
        let bad = crate::messages::StpToSdcMsg {
            su_id: SuId(3),
            x_matrix: crate::CipherMatrix::zeros(1, 1, su.public_key()),
            region_blocks: 1,
            ct_bytes: su.public_key().ciphertext_bytes(),
        };
        assert!(matches!(
            sdc.process_request_phase2(&bad, su.public_key(), &mut rng),
            Err(PisaError::DimensionMismatch { .. })
        ));

        // A correct retry still succeeds: the pending state survived.
        let (good, _) = stp.key_convert(&to_stp, &mut rng).unwrap();
        let response = sdc
            .process_request_phase2(&good, su.public_key(), &mut rng)
            .unwrap();
        assert!(su.handle_response(&response, sdc.signing_public_key()));
    }

    #[test]
    fn pooled_phase1_parallel_matches_pooled_sequential() {
        use crate::cipher_matrix::at_width;

        let (cfg, mut stp, mut sdc, mut rng) = setup();
        let mut su = SuClient::new(SuId(5), BlockId(0), &cfg, &mut rng);
        stp.register_su(SuId(5), su.public_key().clone());
        let request = su.build_request(&cfg, stp.public_key(), &[Channel(0)], &mut rng);
        let entries = cfg.channels() * cfg.blocks();

        // Prime the pool identically before each run: the fan-out must
        // consume the factors in the same entry order at every width.
        let mut phase1 = |workers: usize| {
            let pool = Arc::new(RandomizerPool::new(stp.public_key(), entries));
            pool.refill(&mut StdRng::seed_from_u64(0xf00d));
            sdc.attach_beta_pool(pool).unwrap();
            at_width(workers, || {
                sdc.process_request_phase1(&request, &mut StdRng::seed_from_u64(0xaa))
                    .unwrap()
            })
        };
        let sequential = phase1(1);
        for workers in [2usize, 8] {
            assert_eq!(
                phase1(workers).v_matrix.ciphertexts(),
                sequential.v_matrix.ciphertexts(),
                "pooled phase 1 diverged with {workers} workers"
            );
        }
    }

    #[test]
    fn partial_beta_pool_falls_back_online_and_round_grants() {
        let (cfg, mut stp, mut sdc, mut rng) = setup();
        let mut su = SuClient::new(SuId(6), BlockId(0), &cfg, &mut rng);
        stp.register_su(SuId(6), su.public_key().clone());
        let entries = cfg.channels() * cfg.blocks();

        // A pool covering only half the entries: the rest must pay the
        // online exponentiation, and the round must still verify.
        let pool = Arc::new(RandomizerPool::new(stp.public_key(), entries / 2));
        pool.refill(&mut rng);
        sdc.attach_beta_pool(Arc::clone(&pool)).unwrap();

        let request = su.build_request(&cfg, stp.public_key(), &[Channel(0)], &mut rng);
        let to_stp = sdc.process_request_phase1(&request, &mut rng).unwrap();
        let stats = pool.stats();
        assert_eq!(stats.hits, (entries / 2) as u64);
        assert_eq!(stats.misses, (entries - entries / 2) as u64);

        let (reply, _) = stp.key_convert(&to_stp, &mut rng).unwrap();
        let response = sdc
            .process_request_phase2(&reply, su.public_key(), &mut rng)
            .unwrap();
        assert!(su.handle_response(&response, sdc.signing_public_key()));
    }

    #[test]
    fn beta_pool_for_wrong_key_is_rejected() {
        let (_cfg, _stp, mut sdc, mut rng) = setup();
        let other = pisa_crypto::paillier::PaillierKeyPair::generate(&mut rng, 256);
        let pool = Arc::new(RandomizerPool::new(other.public(), 4));
        assert!(matches!(
            sdc.attach_beta_pool(pool),
            Err(PisaError::EngineFailure(_))
        ));
    }

    #[test]
    fn serials_are_monotone() {
        let (cfg, mut stp, mut sdc, mut rng) = setup();
        let mut su = SuClient::new(SuId(4), BlockId(0), &cfg, &mut rng);
        stp.register_su(SuId(4), su.public_key().clone());
        let mut serials = Vec::new();
        for _ in 0..3 {
            let request = su.build_request(&cfg, stp.public_key(), &[Channel(0)], &mut rng);
            let to_stp = sdc.process_request_phase1(&request, &mut rng).unwrap();
            let (reply, _) = stp.key_convert(&to_stp, &mut rng).unwrap();
            let response = sdc
                .process_request_phase2(&reply, su.public_key(), &mut rng)
                .unwrap();
            serials.push(response.license.serial);
        }
        assert!(serials.windows(2).all(|w| w[1] > w[0]), "{serials:?}");
    }
}
