//! # PISA — Privacy-preserving fine-grained spectrum access
//!
//! A full reproduction of *"When Smart TV Meets CRN: Privacy-Preserving
//! Fine-Grained Spectrum Access"* (ICDCS 2017): dynamic spectrum
//! allocation between primary TV receivers (PUs) and secondary WiFi
//! users (SUs) where the Spectrum Database Controller (SDC) computes the
//! allocation decision **over Paillier ciphertexts**, so that neither
//! the SDC nor the semi-trusted third party (STP) learns:
//!
//! * which channel any PU is watching,
//! * any SU's location, EIRP or antenna parameters, or
//! * whether a given SU's request was granted.
//!
//! ## Protocol in one paragraph
//!
//! PUs upload `W̃ᵢ = Enc(T − E)` columns under the global key; the SDC
//! aggregates them into the encrypted budget matrix `Ñ` (eqs. 8–10). An
//! SU requests by uploading its encrypted interference profile `F̃`
//! (eq. 5); the SDC forms `Ĩ = Ñ ⊖ X ⊗ F̃` (eqs. 11–12), blinds every
//! entry as `Ṽ = ε ⊗ (α ⊗ Ĩ ⊖ β̃)` (eq. 14) and ships it to the STP,
//! which decrypts only the blinded values, maps them to signs (eq. 15)
//! and re-encrypts under the SU's own key (key conversion). The SDC
//! unblinds homomorphically into `Q̃ ∈ {0, −2}` (eqs. 13, 16) and
//! releases `G̃ = S̃G ⊕ η ⊗ ΣQ̃` (eq. 17): the SU recovers a valid RSA
//! license signature exactly when every interference budget stayed
//! positive.
//!
//! ## Quickstart
//!
//! ```
//! use pisa::prelude::*;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(1);
//! let config = SystemConfig::small_test();
//! let mut system = PisaSystem::setup(config, &mut rng);
//!
//! // A PU tunes to channel 1; its update is encrypted end-to-end.
//! system.pu_update(0, BlockId(12), Some(Channel(1)), &mut rng);
//!
//! // An SU nearby asks for full power on the same channel: denied —
//! // and only the SU itself learns that.
//! let su = system.register_su(BlockId(13), &mut rng);
//! let outcome = system.request(su, &[Channel(1)], &mut rng);
//! assert!(!outcome.granted);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablation;
pub mod adversary;
mod cipher_matrix;
mod config;
pub mod durable;
mod engine;
mod error;
mod keys;
mod license;
mod messages;
mod netstorm;
mod privacy;
mod protocol;
mod pu;
mod sdc;
mod session;
mod stp;
mod su;
mod system;
pub mod trace;
mod wire;

pub use cipher_matrix::CipherMatrix;
pub use config::SystemConfig;
pub use engine::{
    Backend, Outbox, Paillier, PaillierSdc, PaillierSu, SdcSessionEngine, Step, StpSessionEngine,
    SuAction, SuEvent, SuSessionEngine, SuSessionParams,
};
pub use error::PisaError;
pub use keys::{GlobalKeys, SuId, SuKeyDirectory};
pub use license::License;
pub use messages::{
    PisaMessage, PuUpdateMsg, SdcResponseMsg, SdcToStpMsg, StpToSdcMsg, SuRequestMsg,
};
pub use netstorm::{
    run_memory_baseline, run_su_storm, storm_fixture, DurableOpts, NetStormOpts, SdcService,
    StormFixture, StpService,
};
pub use privacy::LocationPrivacy;
pub use protocol::{run_request_direct, RequestOutcome};
pub use pu::PuClient;
pub use sdc::SdcServer;
pub use session::{
    corrupt_session_frame, run_storm, EngineConfig, EngineReport, SessionMsg, SessionOutcome,
};
pub use stp::StpServer;
pub use su::SuClient;
pub use system::PisaSystem;

/// Convenient glob-import surface.
pub mod prelude {
    pub use crate::{
        CipherMatrix, GlobalKeys, License, LocationPrivacy, PisaSystem, PuClient, RequestOutcome,
        SdcServer, StpServer, SuClient, SuId, SystemConfig,
    };
    pub use pisa_radio::{tv::Channel, BlockId};
    pub use pisa_watch::{Decision, WatchConfig};
}
