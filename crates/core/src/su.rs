//! The secondary-user client.

use crate::cipher_matrix::{encrypt_all, fan_out_groups, CipherMatrix};
use crate::config::SystemConfig;
use crate::keys::SuId;
use crate::messages::{SdcResponseMsg, SuRequestMsg};
use crate::privacy::LocationPrivacy;
use pisa_crypto::paillier::{PaillierKeyPair, PaillierPublicKey};
use pisa_crypto::rsa::{RsaPublicKey, Signature};
use pisa_radio::tv::Channel;
use pisa_radio::BlockId;
use pisa_watch::SuRequest;
use rand::Rng;

/// A secondary user: owns its own Paillier key pair `(pk_j, sk_j)`,
/// builds encrypted transmission requests, and is the *only* party able
/// to learn the decision (by decrypting `G̃` and checking the license
/// signature).
pub struct SuClient {
    id: SuId,
    block: BlockId,
    keys: PaillierKeyPair,
    privacy: LocationPrivacy,
    /// Cached encrypted request for cheap re-randomized refreshes
    /// (the paper's 221 s → 11 s trick).
    cached: Option<CipherMatrix>,
    /// Offline-precomputed `rⁿ` factors, one per cached entry.
    refresh_pool: Vec<pisa_crypto::paillier::Randomizer>,
}

impl std::fmt::Debug for SuClient {
    /// The block is the very datum PISA hides, so Debug output names the
    /// SU but redacts its location and key material.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "SuClient {{ id: {}, block: <redacted>, sk: <redacted> }}",
            self.id
        )
    }
}

impl SuClient {
    /// Creates an SU at `block` with a fresh key pair of the configured
    /// size and full location privacy.
    pub fn new<R: Rng + ?Sized>(id: SuId, block: BlockId, cfg: &SystemConfig, rng: &mut R) -> Self {
        SuClient {
            id,
            block,
            keys: PaillierKeyPair::generate(rng, cfg.paillier_bits()),
            privacy: LocationPrivacy::Full,
            cached: None,
            refresh_pool: Vec::new(),
        }
    }

    /// This SU's id.
    pub fn id(&self) -> SuId {
        self.id
    }

    /// The SU's (private) block.
    pub fn block(&self) -> BlockId {
        self.block
    }

    /// The SU's public key `pk_j`, to be published to the STP.
    pub fn public_key(&self) -> &PaillierPublicKey {
        self.keys.public()
    }

    /// Sets the location-privacy level (invalidates the request cache).
    pub fn set_privacy(&mut self, privacy: LocationPrivacy) {
        self.privacy = privacy;
        self.cached = None;
        self.refresh_pool.clear();
    }

    /// Current privacy level.
    pub fn privacy(&self) -> LocationPrivacy {
        self.privacy
    }

    /// Builds a fresh encrypted transmission request for the given
    /// channels at the regulatory maximum EIRP (eq. 5 + encryption).
    ///
    /// # Panics
    ///
    /// Panics if the privacy region does not contain the SU's own block
    /// (the request must cover the blocks the SU actually interferes
    /// with).
    pub fn build_request<R: Rng + ?Sized>(
        &mut self,
        cfg: &SystemConfig,
        pk_g: &PaillierPublicKey,
        channels: &[Channel],
        rng: &mut R,
    ) -> SuRequestMsg {
        let request = SuRequest::full_power(cfg.watch(), self.block, channels);
        self.build_request_from(cfg, pk_g, &request, rng)
    }

    /// Builds a fresh encrypted request from an explicit plaintext
    /// request (arbitrary per-channel EIRP).
    pub fn build_request_from<R: Rng + ?Sized>(
        &mut self,
        cfg: &SystemConfig,
        pk_g: &PaillierPublicKey,
        request: &SuRequest,
        rng: &mut R,
    ) -> SuRequestMsg {
        let _span = pisa_obs::span("su.build_request");
        let region = self.privacy.region_blocks(cfg);
        assert!(
            self.block.0 < region,
            "privacy region of {region} blocks excludes the SU's own block {}",
            self.block.0
        );
        let f = request.f_matrix_restricted(cfg.watch(), region);
        // Encrypt only the covered region: C × region ciphertexts.
        let plain: Vec<i128> = (0..cfg.channels())
            .flat_map(|c| (0..region).map(move |b| (c, b)))
            .map(|(c, b)| f.get(c, b))
            .collect();
        let cts = encrypt_all(pk_g, &plain, rng);
        let matrix = CipherMatrix::from_ciphertexts(cfg.channels(), region, cts);
        self.cached = Some(matrix.clone());
        SuRequestMsg {
            su_id: self.id,
            f_matrix: matrix,
            region_blocks: region,
            ct_bytes: pk_g.ciphertext_bytes(),
        }
    }

    /// Offline phase of the paper's request-refresh trick (§VI-A):
    /// precomputes one `rⁿ` factor per cached request entry, so the next
    /// [`refresh_request`](Self::refresh_request) pays only one modular
    /// multiplication per entry ("the same amount of time as homomorphic
    /// addition" — the 221 s → 11 s claim).
    ///
    /// # Panics
    ///
    /// Panics if no request was built yet.
    pub fn precompute_refresh<R: Rng + ?Sized>(&mut self, pk_g: &PaillierPublicKey, rng: &mut R) {
        let needed = self
            .cached
            .as_ref()
            .expect("precompute_refresh requires a previously built request")
            .len();
        // Draw in entry order (one gcd for the batch), then raise in
        // groups across the host's cores: the factors equal `needed`
        // sequential `precompute_randomizer` calls.
        let draws = pk_g.draw_randomizers(rng, needed);
        self.refresh_pool = fan_out_groups(&draws, |_, group| pk_g.raise_randomizers(group))
            .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
    }

    /// Refreshes the cached request by re-randomization: the ciphertexts
    /// change, the plaintexts do not. With a pool from
    /// [`precompute_refresh`](Self::precompute_refresh) this is one
    /// multiplication per entry (online); without one it falls back to
    /// computing the `rⁿ` factors on the spot.
    ///
    /// # Panics
    ///
    /// Panics if no request was built yet.
    pub fn refresh_request<R: Rng + ?Sized>(
        &mut self,
        pk_g: &PaillierPublicKey,
        rng: &mut R,
    ) -> SuRequestMsg {
        let _span = pisa_obs::span("su.refresh_request");
        let cached = self
            .cached
            .as_ref()
            .expect("refresh_request requires a previously built request");
        let refreshed = if self.refresh_pool.len() >= cached.len() {
            let cts = cached
                .ciphertexts()
                .iter()
                .zip(self.refresh_pool.drain(..))
                .map(|(ct, factor)| pk_g.rerandomize_precomputed(ct, &factor))
                .collect();
            CipherMatrix::from_ciphertexts(cached.channels(), cached.blocks(), cts)
        } else {
            cached.rerandomize(pk_g, rng)
        };
        self.cached = Some(refreshed.clone());
        SuRequestMsg {
            su_id: self.id,
            region_blocks: refreshed.blocks(),
            f_matrix: refreshed,
            ct_bytes: pk_g.ciphertext_bytes(),
        }
    }

    /// Decrypts the SDC's response and checks the license: `true` iff
    /// the recovered signature verifies — i.e. the request was granted.
    ///
    /// No other party can perform this step: `G̃` is encrypted under
    /// `pk_j`.
    pub fn handle_response(&self, msg: &SdcResponseMsg, sdc_signing_key: &RsaPublicKey) -> bool {
        let _span = pisa_obs::span("su.verify_license");
        let plain = self.keys.secret().decrypt(&msg.g_cipher);
        // A valid signature is a non-negative integer below the RSA
        // modulus; a garbled one decodes to anything in the plaintext
        // space — reduce and try to verify, rejecting on mismatch.
        let candidate = Signature(plain.rem_euclid(sdc_signing_key.modulus()));
        msg.license.verify(sdc_signing_key, &candidate).is_ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup() -> (SystemConfig, PaillierKeyPair, SuClient, StdRng) {
        let mut rng = StdRng::seed_from_u64(21);
        let cfg = SystemConfig::small_test();
        let global = PaillierKeyPair::generate(&mut rng, 256);
        let su = SuClient::new(SuId(1), BlockId(7), &cfg, &mut rng);
        (cfg, global, su, rng)
    }

    #[test]
    fn request_covers_full_area_by_default() {
        let (cfg, global, mut su, mut rng) = setup();
        let msg = su.build_request(&cfg, global.public(), &[Channel(0)], &mut rng);
        assert_eq!(msg.region_blocks, cfg.blocks());
        assert_eq!(msg.f_matrix.len(), cfg.channels() * cfg.blocks());
    }

    #[test]
    fn request_decrypts_to_f_matrix() {
        let (cfg, global, mut su, mut rng) = setup();
        let msg = su.build_request(&cfg, global.public(), &[Channel(2)], &mut rng);
        let plain =
            SuRequest::full_power(cfg.watch(), BlockId(7), &[Channel(2)]).f_matrix(cfg.watch());
        let decrypted = msg.f_matrix.decrypt(global.secret());
        assert_eq!(decrypted, plain);
    }

    #[test]
    fn region_restriction_shrinks_matrix() {
        let (cfg, global, mut su, mut rng) = setup();
        su.set_privacy(LocationPrivacy::Region(10));
        let msg = su.build_request(&cfg, global.public(), &[Channel(0)], &mut rng);
        assert_eq!(msg.region_blocks, 10);
        assert_eq!(msg.f_matrix.len(), cfg.channels() * 10);
    }

    #[test]
    #[should_panic(expected = "excludes the SU's own block")]
    fn region_must_contain_su() {
        let (cfg, global, mut su, mut rng) = setup();
        su.set_privacy(LocationPrivacy::Region(3)); // SU is at block 7
        let _ = su.build_request(&cfg, global.public(), &[Channel(0)], &mut rng);
    }

    #[test]
    fn refresh_changes_ciphertexts_not_plaintexts() {
        let (cfg, global, mut su, mut rng) = setup();
        let first = su.build_request(&cfg, global.public(), &[Channel(1)], &mut rng);
        let refreshed = su.refresh_request(global.public(), &mut rng);
        assert_eq!(first.region_blocks, refreshed.region_blocks);
        for (a, b) in first
            .f_matrix
            .ciphertexts()
            .iter()
            .zip(refreshed.f_matrix.ciphertexts())
        {
            assert_ne!(a, b);
        }
        assert_eq!(
            first.f_matrix.decrypt(global.secret()),
            refreshed.f_matrix.decrypt(global.secret())
        );
    }

    #[test]
    fn pooled_refresh_matches_online_refresh_semantics() {
        let (cfg, global, mut su, mut rng) = setup();
        let first = su.build_request(&cfg, global.public(), &[Channel(0)], &mut rng);
        su.precompute_refresh(global.public(), &mut rng);
        let refreshed = su.refresh_request(global.public(), &mut rng);
        // Pool drained, plaintexts unchanged, ciphertexts fresh.
        for (a, b) in first
            .f_matrix
            .ciphertexts()
            .iter()
            .zip(refreshed.f_matrix.ciphertexts())
        {
            assert_ne!(a, b);
        }
        assert_eq!(
            first.f_matrix.decrypt(global.secret()),
            refreshed.f_matrix.decrypt(global.secret())
        );
        // A second refresh without a pool still works (online fallback).
        let again = su.refresh_request(global.public(), &mut rng);
        assert_eq!(
            again.f_matrix.decrypt(global.secret()),
            first.f_matrix.decrypt(global.secret())
        );
    }

    #[test]
    #[should_panic(expected = "previously built request")]
    fn refresh_without_request_panics() {
        let (_cfg, global, mut su, mut rng) = setup();
        let _ = su.refresh_request(global.public(), &mut rng);
    }
}
