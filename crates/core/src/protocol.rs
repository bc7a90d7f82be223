//! End-to-end request orchestration: direct calls and over the
//! simulated network.

use crate::error::PisaError;

use crate::license::License;
use crate::messages::PisaMessage;
use crate::sdc::SdcServer;
use crate::stp::{StpObservation, StpServer};
use crate::su::SuClient;
use pisa_net::{LatencyModel, NetMetrics, Network, Party, WireSize};
use pisa_radio::tv::Channel;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;

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
    let cfg = sdc.config().clone();
    let request = su.build_request(&cfg, stp.public_key(), channels, rng);
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

/// A request round executed over the simulated network, with traffic
/// metrics and a latency estimate.
#[derive(Debug)]
pub struct NetworkRun {
    /// The protocol outcome.
    pub outcome: RequestOutcome,
    /// Per-link traffic recorded by the network.
    pub metrics: NetMetrics,
    /// Estimated network time under the given latency model.
    pub estimated_network_time: Duration,
}

/// Runs one request round with the SDC and STP on their own threads,
/// exchanging [`PisaMessage`]s over a [`Network`] — the deployment shape
/// of Figure 3. Returns the servers so state persists across rounds.
///
/// # Errors
///
/// Propagates protocol errors from either server thread.
///
/// # Panics
///
/// Panics if a server thread panics.
pub fn run_request_over_network(
    su: &mut SuClient,
    mut sdc: SdcServer,
    stp: StpServer,
    channels: &[Channel],
    latency: LatencyModel,
    seed: u64,
) -> Result<(NetworkRun, SdcServer, StpServer), PisaError> {
    let cfg = sdc.config().clone();
    let pk_g = stp.public_key().clone();
    let su_pk = stp
        .su_key(su.id())
        .ok_or(PisaError::UnknownSu(su.id()))?
        .clone();
    let sdc_signing_key = sdc.signing_public_key().clone();
    let su_party = Party::Su(su.id().0);

    let net: Network<PisaMessage> = Network::new();
    let su_ep = net.endpoint(su_party);
    let sdc_ep = net.endpoint(Party::Sdc);
    let stp_ep = net.endpoint(Party::Stp);

    // SDC thread: request → phase 1 → STP; reply → phase 2 → SU.
    let sdc_handle = std::thread::spawn(move || -> Result<SdcServer, PisaError> {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5dc);
        let env = sdc_ep.recv().expect("request arrives");
        let PisaMessage::SuRequest(req) = env.payload else {
            unreachable!("first SDC message is the request");
        };
        let to_stp = sdc.process_request_phase1(&req, &mut rng)?;
        sdc_ep.send(Party::Stp, PisaMessage::SdcToStp(to_stp));

        let env = sdc_ep.recv().expect("STP reply arrives");
        let PisaMessage::StpToSdc(reply) = env.payload else {
            unreachable!("second SDC message is the STP reply");
        };
        let response = sdc.process_request_phase2(&reply, &su_pk, &mut rng)?;
        sdc_ep.send(su_party, PisaMessage::SdcResponse(response));
        Ok(sdc)
    });

    // STP thread: one key conversion.
    let stp_handle =
        std::thread::spawn(move || -> Result<(StpServer, StpObservation), PisaError> {
            let mut rng = StdRng::seed_from_u64(seed ^ 0x517);
            let env = stp_ep.recv().expect("blinded query arrives");
            let PisaMessage::SdcToStp(query) = env.payload else {
                unreachable!("STP only receives blinded queries");
            };
            let (reply, obs) = stp.key_convert(&query, &mut rng)?;
            stp_ep.send(Party::Sdc, PisaMessage::StpToSdc(reply));
            Ok((stp, obs))
        });

    // SU (this thread): send the request, await the response.
    let mut rng = StdRng::seed_from_u64(seed ^ 0x50);
    let request = su.build_request(&cfg, &pk_g, channels, &mut rng);
    su_ep.send(Party::Sdc, PisaMessage::SuRequest(request));

    let env = su_ep.recv().expect("response arrives");
    let PisaMessage::SdcResponse(response) = env.payload else {
        unreachable!("SU only receives responses");
    };
    let granted = su.handle_response(&response, &sdc_signing_key);

    let sdc = sdc_handle.join().expect("SDC thread healthy")?;
    let (stp, observation) = stp_handle.join().expect("STP thread healthy")?;

    let metrics = net.metrics().clone();
    let link = |from, to| metrics.link(from, to).map(|s| s.bytes).unwrap_or(0) as usize;
    let outcome = RequestOutcome {
        granted,
        license: response.license,
        request_bytes: link(su_party, Party::Sdc),
        sdc_to_stp_bytes: link(Party::Sdc, Party::Stp),
        stp_to_sdc_bytes: link(Party::Stp, Party::Sdc),
        response_bytes: link(Party::Sdc, su_party),
        stp_observation: observation,
    };
    let estimated_network_time =
        latency.transfer_time(metrics.total_bytes(), metrics.total_messages());
    Ok((
        NetworkRun {
            outcome,
            metrics,
            estimated_network_time,
        },
        sdc,
        stp,
    ))
}

/// Per-SU `(id, granted)` decisions in completion order.
pub type RequestDecisions = Vec<(crate::keys::SuId, bool)>;

/// Runs several SUs' requests concurrently over one network: each SU on
/// its own thread, the SDC and STP serving interleaved messages in
/// arrival order — the deployment shape of Figure 3 with a realistic
/// request mix. Returns `(su_id, outcome)` pairs in completion order
/// plus the servers.
///
/// Interleaving exercises the SDC's per-SU pending-request state: phase
/// 1 of one SU may land between phase 1 and phase 2 of another.
///
/// # Errors
///
/// Propagates the first protocol error from any party.
///
/// # Panics
///
/// Panics if a party thread panics.
pub fn run_concurrent_requests(
    sus: Vec<(SuClient, Vec<Channel>)>,
    mut sdc: SdcServer,
    stp: StpServer,
    seed: u64,
) -> Result<(RequestDecisions, SdcServer, StpServer), PisaError> {
    let cfg = sdc.config().clone();
    let pk_g = stp.public_key().clone();
    let sdc_signing_key = sdc.signing_public_key().clone();
    let su_keys: std::collections::HashMap<_, _> = sus
        .iter()
        .map(|(su, _)| {
            let pk = stp
                .su_key(su.id())
                .ok_or(PisaError::UnknownSu(su.id()))?
                .clone();
            Ok((su.id(), pk))
        })
        .collect::<Result<_, PisaError>>()?;
    let total = sus.len();

    let net: Network<PisaMessage> = Network::new();
    let sdc_ep = net.endpoint(Party::Sdc);
    let stp_ep = net.endpoint(Party::Stp);
    let su_eps: Vec<_> = sus
        .iter()
        .map(|(su, _)| net.endpoint(Party::Su(su.id().0)))
        .collect();

    // SDC: serves 2·N messages (one request + one STP reply per SU).
    let sdc_handle = std::thread::spawn(move || -> Result<SdcServer, PisaError> {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5dc);
        for _ in 0..2 * total {
            let env = sdc_ep.recv().expect("message arrives");
            match env.payload {
                PisaMessage::SuRequest(req) => {
                    let to_stp = sdc.process_request_phase1(&req, &mut rng)?;
                    sdc_ep.send(Party::Stp, PisaMessage::SdcToStp(to_stp));
                }
                PisaMessage::StpToSdc(reply) => {
                    let su_pk = &su_keys[&reply.su_id];
                    let su_party = Party::Su(reply.su_id.0);
                    let response = sdc.process_request_phase2(&reply, su_pk, &mut rng)?;
                    sdc_ep.send(su_party, PisaMessage::SdcResponse(response));
                }
                other => unreachable!("unexpected SDC message {other:?}"),
            }
        }
        Ok(sdc)
    });

    // STP: serves N key conversions.
    let stp_handle = std::thread::spawn(move || -> Result<StpServer, PisaError> {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x517);
        for _ in 0..total {
            let env = stp_ep.recv().expect("query arrives");
            let PisaMessage::SdcToStp(query) = env.payload else {
                unreachable!("STP only receives blinded queries");
            };
            let (reply, _obs) = stp.key_convert(&query, &mut rng)?;
            stp_ep.send(Party::Sdc, PisaMessage::StpToSdc(reply));
        }
        Ok(stp)
    });

    // One thread per SU.
    let mut su_handles = Vec::new();
    for (i, ((mut su, channels), ep)) in sus.into_iter().zip(su_eps).enumerate() {
        let cfg = cfg.clone();
        let pk_g = pk_g.clone();
        let signing = sdc_signing_key.clone();
        su_handles.push(std::thread::spawn(move || {
            let mut rng = StdRng::seed_from_u64(seed ^ (0x50 + i as u64));
            let request = su.build_request(&cfg, &pk_g, &channels, &mut rng);
            ep.send(Party::Sdc, PisaMessage::SuRequest(request));
            let env = ep.recv().expect("response arrives");
            let PisaMessage::SdcResponse(response) = env.payload else {
                unreachable!("SU only receives responses");
            };
            (su.id(), su.handle_response(&response, &signing))
        }));
    }

    let outcomes = su_handles
        .into_iter()
        .map(|h| h.join().expect("SU thread healthy"))
        .collect();
    let sdc = sdc_handle.join().expect("SDC thread healthy")?;
    let stp = stp_handle.join().expect("STP thread healthy")?;
    Ok((outcomes, sdc, stp))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys::SuId;
    use crate::SystemConfig;
    use pisa_radio::BlockId;

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

    #[test]
    fn network_round_matches_direct() {
        let mut rng = StdRng::seed_from_u64(78);
        let cfg = SystemConfig::small_test();
        let mut stp = StpServer::new(&mut rng, cfg.paillier_bits());
        let sdc = SdcServer::new(cfg.clone(), stp.public_key().clone(), "sdc.test", &mut rng);
        let mut su = SuClient::new(SuId(1), BlockId(3), &cfg, &mut rng);
        stp.register_su(SuId(1), su.public_key().clone());

        let (run, _sdc, _stp) =
            run_request_over_network(&mut su, sdc, stp, &[Channel(2)], LatencyModel::lan(), 99)
                .unwrap();
        assert!(run.outcome.granted);
        assert_eq!(run.metrics.total_messages(), 4);
        assert!(run.estimated_network_time > Duration::ZERO);
        // The request dominates traffic (C×B ciphertexts vs 1).
        assert!(run.outcome.request_bytes > 10 * run.outcome.response_bytes);
    }
}
