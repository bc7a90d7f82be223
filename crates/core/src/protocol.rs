//! One request round by direct in-process calls: the reference path
//! the networked engines (`run_storm`, `run_su_storm`, the simulator)
//! are checked against.

use crate::error::PisaError;

use crate::license::License;
use crate::sdc::SdcServer;
use crate::stp::{StpObservation, StpServer};
use crate::su::SuClient;
use pisa_net::WireSize;
use pisa_radio::tv::Channel;
use pisa_watch::SuRequest;
use rand::Rng;

/// Result of one full transmission-request round.
#[derive(Debug, Clone)]
pub struct RequestOutcome {
    /// Did the SU recover a valid license signature?
    pub granted: bool,
    /// The license document returned by the SDC.
    pub license: License,
    /// Bytes of the SU → SDC request (the paper's ≈29 MB at full scale).
    pub request_bytes: usize,
    /// Bytes of the SDC → STP blinded query.
    pub sdc_to_stp_bytes: usize,
    /// Bytes of the STP → SDC key-converted reply.
    pub stp_to_sdc_bytes: usize,
    /// Bytes of the SDC → SU response (the paper's ≈4.1 kb).
    pub response_bytes: usize,
    /// What the STP observed (for privacy analysis).
    pub stp_observation: StpObservation,
}

impl RequestOutcome {
    /// Total bytes moved in the round.
    pub fn total_bytes(&self) -> usize {
        self.request_bytes + self.sdc_to_stp_bytes + self.stp_to_sdc_bytes + self.response_bytes
    }
}

/// Runs one complete request round with direct in-process calls
/// (Figure 5 end to end): build → phase 1 → key conversion → phase 2 →
/// SU verification.
///
/// # Errors
///
/// Propagates any [`PisaError`] from the SDC or STP steps.
pub fn run_request_direct<R: Rng + ?Sized>(
    su: &mut SuClient,
    sdc: &mut SdcServer,
    stp: &StpServer,
    channels: &[Channel],
    rng: &mut R,
) -> Result<RequestOutcome, PisaError> {
    let request = SuRequest::full_power(sdc.config().watch(), su.block(), channels);
    run_request_direct_from(su, sdc, stp, &request, rng)
}

/// [`run_request_direct`] for an explicit plaintext request (arbitrary
/// per-channel EIRP): the one copy of the round that both it and
/// [`PisaSystem::request_with`](crate::PisaSystem::request_with) run.
///
/// # Errors
///
/// Propagates any [`PisaError`] from the SDC or STP steps.
pub(crate) fn run_request_direct_from<R: Rng + ?Sized>(
    su: &mut SuClient,
    sdc: &mut SdcServer,
    stp: &StpServer,
    request: &SuRequest,
    rng: &mut R,
) -> Result<RequestOutcome, PisaError> {
    let cfg = sdc.config().clone();
    let request = su.build_request_from(&cfg, stp.public_key(), request, rng);
    let request_bytes = request.wire_bytes();

    let to_stp = sdc.process_request_phase1(&request, rng)?;
    let sdc_to_stp_bytes = to_stp.wire_bytes();

    let (to_sdc, observation) = stp.key_convert(&to_stp, rng)?;
    let stp_to_sdc_bytes = to_sdc.wire_bytes();

    let su_pk = stp
        .su_key(su.id())
        .ok_or(PisaError::UnknownSu(su.id()))?
        .clone();
    let response = sdc.process_request_phase2(&to_sdc, &su_pk, rng)?;
    let response_bytes = response.wire_bytes();

    let granted = su.handle_response(&response, sdc.signing_public_key());
    Ok(RequestOutcome {
        granted,
        license: response.license,
        request_bytes,
        sdc_to_stp_bytes,
        stp_to_sdc_bytes,
        response_bytes,
        stp_observation: observation,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys::SuId;
    use crate::SystemConfig;
    use pisa_radio::BlockId;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn direct_round_grants_on_empty_system() {
        let mut rng = StdRng::seed_from_u64(77);
        let cfg = SystemConfig::small_test();
        let mut stp = StpServer::new(&mut rng, cfg.paillier_bits());
        let mut sdc = SdcServer::new(cfg.clone(), stp.public_key().clone(), "sdc.test", &mut rng);
        let mut su = SuClient::new(SuId(0), BlockId(5), &cfg, &mut rng);
        stp.register_su(SuId(0), su.public_key().clone());

        let outcome = run_request_direct(&mut su, &mut sdc, &stp, &[Channel(0)], &mut rng).unwrap();
        assert!(outcome.granted, "no PUs ⇒ the request must be granted");
        assert!(outcome.request_bytes > outcome.response_bytes);
        assert_eq!(outcome.license.su_id, SuId(0));
    }
}
