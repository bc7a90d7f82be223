//! A facade wiring all four parties together.

use crate::config::SystemConfig;
use crate::error::PisaError;
use crate::keys::SuId;
use crate::privacy::LocationPrivacy;
use crate::protocol::{run_request_direct, run_request_direct_from, RequestOutcome};
use crate::pu::PuClient;
use crate::sdc::SdcServer;
use crate::stp::StpServer;
use crate::su::SuClient;
use pisa_radio::tv::Channel;
use pisa_radio::BlockId;
use pisa_watch::SuRequest;
use rand::Rng;
use std::collections::HashMap;

/// A complete PISA deployment: one STP, one SDC, any number of PUs and
/// SUs — the easiest way to drive the protocol.
///
/// # Examples
///
/// ```
/// use pisa::prelude::*;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(9);
/// let mut system = PisaSystem::setup(SystemConfig::small_test(), &mut rng);
/// let su = system.register_su(BlockId(0), &mut rng);
/// let outcome = system.request(su, &[Channel(0)], &mut rng);
/// assert!(outcome.granted);
/// ```
pub struct PisaSystem {
    cfg: SystemConfig,
    stp: StpServer,
    sdc: SdcServer,
    pus: HashMap<u64, PuClient>,
    sus: HashMap<SuId, SuClient>,
    next_su: u32,
    /// When set, randomizer pools of this capacity are kept primed for
    /// the SDC's β blinding and each registered SU's key conversion.
    pool_capacity: Option<usize>,
}

impl std::fmt::Debug for PisaSystem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "PisaSystem({} PUs, {} SUs)",
            self.pus.len(),
            self.sus.len()
        )
    }
}

impl PisaSystem {
    /// Generates keys and initializes the STP and SDC.
    pub fn setup<R: Rng + ?Sized>(cfg: SystemConfig, rng: &mut R) -> Self {
        let stp = StpServer::new(rng, cfg.paillier_bits());
        let sdc = SdcServer::new(cfg.clone(), stp.public_key().clone(), "sdc.pisa", rng);
        PisaSystem {
            cfg,
            stp,
            sdc,
            pus: HashMap::new(),
            sus: HashMap::new(),
            next_su: 0,
            pool_capacity: None,
        }
    }

    /// Enables randomizer pools of `capacity` factors: one on the SDC
    /// for β blinding under the global key, one per registered SU for
    /// the STP's key conversion (future registrations get one too).
    /// Pools start empty — call [`refill_pools`](Self::refill_pools) to
    /// run the offline phase.
    ///
    /// # Panics
    ///
    /// Panics if the SDC β pool cannot attach (impossible in a
    /// self-consistent system: the pool is built for the STP's own key).
    pub fn enable_pools(&mut self, capacity: usize) {
        self.pool_capacity = Some(capacity);
        let beta_pool = std::sync::Arc::new(pisa_crypto::paillier::RandomizerPool::new(
            self.stp.public_key(),
            capacity,
        ));
        self.sdc
            .attach_beta_pool(beta_pool)
            .expect("β pool built for the global key");
        let ids: Vec<SuId> = self.sus.keys().copied().collect();
        for id in ids {
            self.stp.enable_su_pool(id, capacity);
        }
    }

    /// Tops every enabled pool up to capacity — the offline phase.
    /// Deterministic: pools are refilled in a fixed order (SDC β pool
    /// first, then SU pools by ascending id). No-op when
    /// [`enable_pools`](Self::enable_pools) was never called.
    pub fn refill_pools<R: Rng + ?Sized>(&mut self, rng: &mut R) {
        if self.pool_capacity.is_none() {
            return;
        }
        if let Some(pool) = self.sdc.beta_pool() {
            pool.refill(rng);
        }
        self.stp.refill_pools(rng);
    }

    /// The system configuration.
    pub fn config(&self) -> &SystemConfig {
        &self.cfg
    }

    /// The SDC (for inspection in tests and benches).
    pub fn sdc(&self) -> &SdcServer {
        &self.sdc
    }

    /// The STP (for inspection in tests and benches).
    pub fn stp(&self) -> &StpServer {
        &self.stp
    }

    /// Registers a new SU at `block` (generates its key pair and
    /// publishes `pk_j` to the STP), returning its id.
    pub fn register_su<R: Rng + ?Sized>(&mut self, block: BlockId, rng: &mut R) -> SuId {
        let id = SuId(self.next_su);
        self.next_su += 1;
        let su = SuClient::new(id, block, &self.cfg, rng);
        self.stp.register_su(id, su.public_key().clone());
        self.sus.insert(id, su);
        if let Some(capacity) = self.pool_capacity {
            self.stp.enable_su_pool(id, capacity);
        }
        id
    }

    /// Sets an SU's location-privacy level.
    ///
    /// # Panics
    ///
    /// Panics if the SU is unknown.
    pub fn set_su_privacy(&mut self, id: SuId, privacy: LocationPrivacy) {
        self.sus
            .get_mut(&id)
            .expect("registered SU")
            .set_privacy(privacy);
    }

    /// Tunes a PU (creating it on first use) and applies its encrypted
    /// update at the SDC. `channel = None` means the receiver turned
    /// off.
    ///
    /// # Panics
    ///
    /// Panics if an existing PU is re-registered at a different block
    /// (receiver locations are fixed), or the update is malformed.
    pub fn pu_update<R: Rng + ?Sized>(
        &mut self,
        pu_id: u64,
        block: BlockId,
        channel: Option<Channel>,
        rng: &mut R,
    ) {
        let pu = self
            .pus
            .entry(pu_id)
            .or_insert_with(|| PuClient::new(pu_id, block));
        assert_eq!(
            pu.block(),
            block,
            "TV receiver locations are fixed and registered"
        );
        let e = self.sdc.e_matrix().clone();
        let msg = pu.tune(channel, &self.cfg, &e, self.stp.public_key(), rng);
        self.sdc
            .handle_pu_update(pu_id, msg)
            .expect("well-formed PU update");
    }

    /// Runs a full-power transmission request for `su` on `channels`.
    ///
    /// # Panics
    ///
    /// Panics if the SU is unknown or the protocol fails (programming
    /// errors in a self-consistent system).
    pub fn request<R: Rng + ?Sized>(
        &mut self,
        su: SuId,
        channels: &[Channel],
        rng: &mut R,
    ) -> RequestOutcome {
        let su_client = self.sus.get_mut(&su).expect("registered SU");
        run_request_direct(su_client, &mut self.sdc, &self.stp, channels, rng)
            .expect("self-consistent system")
    }

    /// Runs a request with explicit per-channel EIRP.
    ///
    /// # Errors
    ///
    /// Propagates protocol errors.
    pub fn request_with<R: Rng + ?Sized>(
        &mut self,
        su: SuId,
        request: &SuRequest,
        rng: &mut R,
    ) -> Result<RequestOutcome, PisaError> {
        let su_client = self.sus.get_mut(&su).ok_or(PisaError::UnknownSu(su))?;
        run_request_direct_from(su_client, &mut self.sdc, &self.stp, request, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn pooled_and_threaded_requests_still_grant() {
        let mut rng = StdRng::seed_from_u64(0x9a1);
        let mut system = PisaSystem::setup(SystemConfig::small_test(), &mut rng);
        system.enable_pools(8);
        let su = system.register_su(BlockId(0), &mut rng);
        system.refill_pools(&mut rng);
        let outcome = system.request(su, &[Channel(0)], &mut rng);
        assert!(outcome.granted, "pooled + threaded round grants");
        // The SDC β pool served hits during phase 1.
        let stats = system.sdc().beta_pool().expect("pool attached").stats();
        assert!(stats.hits > 0, "β pool never consulted: {stats:?}");
        // Refill tops everything back up for the next round.
        system.refill_pools(&mut rng);
        let outcome = system.request(su, &[Channel(1)], &mut rng);
        assert!(outcome.granted);
    }

    #[test]
    fn pools_enabled_before_registration_cover_new_sus() {
        let mut rng = StdRng::seed_from_u64(0x9a2);
        let mut system = PisaSystem::setup(SystemConfig::small_test(), &mut rng);
        system.enable_pools(4);
        let su = system.register_su(BlockId(1), &mut rng);
        assert!(
            system.stp().su_pool(su).is_some(),
            "registration after enable_pools creates the SU pool"
        );
    }
}
