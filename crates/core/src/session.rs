//! Concurrent multi-session protocol engine over the simulated network.
//!
//! [`run_request_direct`](crate::run_request_direct) runs one request
//! by direct calls; a real SDC serves many SUs at once over links that
//! lose, repeat, reorder and mangle frames. This module drives N
//! sessions that way: threaded SDC and STP **service loops** plus one
//! thread per SU session, where
//!
//! * every session is an explicit state machine ([`SessionPhase`]:
//!   phase 1 blinding → STP sign test → phase 2 license release),
//! * all receives use `recv_timeout` (no party can hang forever),
//! * SUs retry with exponential backoff up to a bounded budget,
//! * malformed, out-of-order, stale or duplicated messages are
//!   *rejected and counted* — never panicked on — via
//!   [`NetMetrics::record_session_reject`] and friends, and
//! * the whole engine composes with the deterministic fault injection
//!   that [`pisa_net::FaultConfig`] configures (drop / duplicate /
//!   reorder / corrupt), run by the same
//!   [`FaultPipeline`](pisa_net::FaultPipeline) as the socket and
//!   virtual-time transports.
//!
//! ## Why retries are safe
//!
//! Retrying a cryptographic request is only sound if a late or repeated
//! message can never be mistaken for a fresh one: phase 2 unblinds with
//! the ε drawn in phase 1, so pairing a reply with the *wrong* phase-1
//! state would silently corrupt the decision. The engine therefore tags
//! every frame with the SU's **attempt counter** ([`SessionMsg`]):
//!
//! * A retried request re-uses the stored blinded query if it is the
//!   same `(attempt, digest)` — same blinding, so any in-flight STP
//!   reply still unblinds correctly — and re-runs phase 1 otherwise.
//! * The SDC accepts an STP reply only for the attempt it has pending;
//!   stale replies are rejected instead of mis-unblinded.
//! * Completed responses are cached per `(attempt, digest)`, making
//!   request retries idempotent.
//! * The SU accepts only responses whose license digest matches the
//!   request it actually sent, and (when links can corrupt payloads)
//!   treats an unverifiable response as possibly-mangled, retrying
//!   rather than concluding "denied" from a flipped bit.
//!
//! Grant/deny decisions depend only on plaintext values, never on which
//! attempt carried them, so a faulty run reaches exactly the outcomes of
//! a fault-free run — the chaos tests assert this byte for byte.

use crate::engine::{
    SdcSessionEngine, StpSessionEngine, SuAction, SuEvent, SuSessionEngine, SuSessionParams,
};
use crate::error::PisaError;
use crate::keys::SuId;
use crate::messages::PisaMessage;
use crate::sdc::SdcServer;
use crate::stp::StpServer;
use crate::su::SuClient;
use pisa_net::codec::{CodecError, Reader, Writer};
use pisa_net::{FaultConfig, NetMetrics, Network, Party, WireSize};
use pisa_radio::tv::Channel;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Wire overhead of the session header (session id + attempt counter).
const SESSION_HEADER_BYTES: usize = 12;

/// A protocol message tagged with its session and the sender's attempt
/// counter — the envelope the session engine speaks on the wire.
///
/// The attempt counter is what makes retries safe: phase-2 unblinding
/// must pair an STP reply with the phase-1 state of the *same* attempt
/// (see the module docs). The payload is the backend's message
/// ([`Backend::Msg`](crate::Backend::Msg)): a [`PisaMessage`] on the
/// Paillier backend, which is what every deployed transport carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionMsg<P = PisaMessage> {
    /// Session identifier (the engine uses the SU id).
    pub session: u64,
    /// The originating SU attempt this frame belongs to.
    pub attempt: u32,
    /// The protocol payload.
    pub msg: P,
}

impl<P> SessionMsg<P> {
    /// The frame carrying `msg` for `session`'s attempt `attempt`.
    pub fn new(session: u64, attempt: u32, msg: P) -> Self {
        SessionMsg {
            session,
            attempt,
            msg,
        }
    }
}

impl<P: WireSize> WireSize for SessionMsg<P> {
    fn wire_bytes(&self) -> usize {
        SESSION_HEADER_BYTES + self.msg.wire_bytes()
    }
}

impl SessionMsg {
    /// Serializes to a wire frame: session id, attempt, inner message.
    ///
    /// # Errors
    ///
    /// Any [`CodecError`] from encoding the inner [`PisaMessage`];
    /// well-formed messages never fail.
    pub fn encode(&self) -> Result<bytes::Bytes, CodecError> {
        let _span = pisa_obs::span("net.serialize");
        let inner = self.msg.encode()?;
        let mut w = Writer::with_capacity(SESSION_HEADER_BYTES + inner.len());
        w.put_u64(self.session);
        w.put_u32(self.attempt);
        w.put_raw(&inner);
        Ok(w.finish())
    }

    /// Parses a wire frame.
    ///
    /// # Errors
    ///
    /// Any [`CodecError`] on truncated or malformed frames.
    pub fn decode(frame: &[u8]) -> Result<SessionMsg, CodecError> {
        let _span = pisa_obs::span("net.deserialize");
        let mut r = Reader::new(frame);
        let session = r.get_u64()?;
        let attempt = r.get_u32()?;
        let inner = r.get_raw(r.remaining())?;
        let msg = PisaMessage::decode(inner)?;
        r.finish()?;
        Ok(SessionMsg {
            session,
            attempt,
            msg,
        })
    }
}

impl pisa_net::FrameCodec for SessionMsg {
    fn encode_frame(&self) -> Result<bytes::Bytes, CodecError> {
        self.encode()
    }

    fn decode_frame(frame: &[u8]) -> Result<Self, CodecError> {
        SessionMsg::decode(frame)
    }
}

/// The corruption oracle for engine traffic: encodes the frame, flips
/// one bit chosen by `tweak`, and re-parses. `Some(mangled)` means the
/// flipped frame still decodes — the receiver gets a wrong-but-well-
/// formed message it must reject at the protocol layer. `None` means
/// the frame no longer parses and the network absorbs it like a drop.
///
/// Install with
/// [`Network::set_corruptor`](pisa_net::Network::set_corruptor);
/// [`run_storm`] does so automatically.
pub fn corrupt_session_frame(msg: &SessionMsg, tweak: u64) -> Option<SessionMsg> {
    let mut bytes = msg.encode().ok()?.to_vec();
    let nbits = (bytes.len() * 8) as u64;
    if nbits == 0 {
        return None;
    }
    // The modulo bounds the bit index by the frame length, so the
    // conversion and the byte lookup are both in range by construction —
    // but stay total anyway: this runs inside the session engine.
    let bit = usize::try_from(tweak % nbits).unwrap_or(0);
    if let Some(byte) = bytes.get_mut(bit / 8) {
        *byte ^= 1 << (bit % 8);
    }
    SessionMsg::decode(&bytes).ok()
}

/// Timeout / retry policy for the session engine.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Base `recv_timeout` deadline for an SU awaiting its response;
    /// doubles on every retry (exponential backoff), capped at 8×.
    pub timeout: Duration,
    /// Retries an SU may spend before giving up (total sends = 1 + this).
    pub max_retries: u32,
    /// Poll granularity of the SDC/STP service loops (how often they
    /// check the shutdown flag while idle).
    pub poll: Duration,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            timeout: Duration::from_millis(200),
            max_retries: 6,
            poll: Duration::from_millis(2),
        }
    }
}

impl EngineConfig {
    /// Sets the base response deadline.
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = timeout;
        self
    }

    /// Sets the retry budget.
    pub fn with_max_retries(mut self, max_retries: u32) -> Self {
        self.max_retries = max_retries;
        self
    }

    /// The SU receive deadline for a given attempt (exponential
    /// backoff: `timeout · 2^min(attempt, 3)`, saturating at
    /// [`Duration::MAX`]).
    pub fn deadline(&self, attempt: u32) -> Duration {
        backoff(self.timeout, attempt)
    }
}

/// The rule behind [`EngineConfig::deadline`], for an engine that keeps
/// only the base timeout.
pub(crate) fn backoff(timeout: Duration, attempt: u32) -> Duration {
    timeout
        .checked_mul(1u32 << attempt.min(3))
        .unwrap_or(Duration::MAX)
}

/// Final state of one SU session after a storm.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionOutcome {
    /// The SU that ran the session.
    pub su_id: SuId,
    /// `Some(true)` granted, `Some(false)` denied, `None` if the
    /// session exhausted its retry budget without a usable response.
    pub granted: Option<bool>,
    /// Requests sent (1 = first try succeeded).
    pub attempts: u32,
}

/// Everything a storm run produced.
#[derive(Debug)]
pub struct EngineReport {
    /// Per-session outcomes, sorted by SU id.
    pub outcomes: Vec<SessionOutcome>,
    /// The network's traffic, fault and per-session resilience counters.
    pub metrics: NetMetrics,
}

impl EngineReport {
    /// `(su, decision)` pairs, sorted by SU id.
    pub fn decisions(&self) -> Vec<(SuId, Option<bool>)> {
        self.outcomes.iter().map(|o| (o.su_id, o.granted)).collect()
    }

    /// `true` when every session reached a grant/deny decision.
    pub fn all_completed(&self) -> bool {
        self.outcomes.iter().all(|o| o.granted.is_some())
    }
}

/// Runs N SU request sessions concurrently over one network: the SDC
/// and STP each serve a resilient loop on their own thread, every SU
/// drives its session state machine on its own thread, and the optional
/// [`FaultConfig`] injects deterministic drop/duplicate/reorder/corrupt
/// faults underneath. Per-session retry/timeout/reject counters land in
/// the report's [`NetMetrics`].
///
/// With the same seeds and system state, the grant/deny decisions are
/// identical with and without faults (see the module docs), which is
/// the property the chaos tests pin down.
///
/// # Errors
///
/// [`PisaError::UnknownSu`] if an SU never registered with the STP, and
/// [`PisaError::EngineFailure`] if a party thread panics (every thread
/// is still joined before the error is returned).
pub fn run_storm(
    sus: Vec<(SuClient, Vec<Channel>)>,
    sdc: SdcServer,
    stp: StpServer,
    faults: Option<FaultConfig>,
    engine: &EngineConfig,
    seed: u64,
) -> Result<(EngineReport, SdcServer, StpServer), PisaError> {
    let cfg = sdc.config().clone();
    let pk_g = stp.public_key().clone();
    let signing = sdc.signing_public_key().clone();
    let su_keys: HashMap<_, _> = sus
        .iter()
        .map(|(su, _)| {
            let pk = stp
                .su_key(su.id())
                .ok_or(PisaError::UnknownSu(su.id()))?
                .clone();
            Ok((su.id(), pk))
        })
        .collect::<Result<_, PisaError>>()?;
    let corrupt_possible = faults.as_ref().is_some_and(FaultConfig::any_corruption);

    let net: Network<SessionMsg> = match faults {
        Some(config) => Network::with_faults(config),
        None => Network::new(),
    };
    net.set_corruptor(Arc::new(corrupt_session_frame));
    let metrics = net.metrics().clone();
    let sdc_ep = net.endpoint(Party::Sdc);
    let stp_ep = net.endpoint(Party::Stp);
    let su_eps: Vec<_> = sus
        .iter()
        .map(|(su, _)| net.endpoint(Party::Su(su.id().0)))
        .collect();
    let stop = Arc::new(AtomicBool::new(false));

    // ---- SDC service loop ------------------------------------------
    // The protocol logic lives in the transport-agnostic engines (see
    // crate::engine); these loops only pump mailboxes into them.
    let sdc_handle = {
        let stop = Arc::clone(&stop);
        let poll = engine.poll;
        let mut machine = SdcSessionEngine::new(sdc, su_keys, metrics.clone(), seed ^ 0x5dc);
        std::thread::spawn(move || {
            let mut out = Vec::new();
            loop {
                let Some(env) = sdc_ep.recv_timeout(poll) else {
                    if stop.load(Ordering::Acquire) {
                        break;
                    }
                    continue;
                };
                machine.handle(env.payload, &mut out);
                for (to, frame) in out.drain(..) {
                    let _ = sdc_ep.try_send(to, frame);
                }
            }
            machine.into_server()
        })
    };

    // ---- STP service loop ------------------------------------------
    let stp_handle = {
        let stop = Arc::clone(&stop);
        let poll = engine.poll;
        let mut machine = StpSessionEngine::new(stp, metrics.clone(), seed ^ 0x517);
        std::thread::spawn(move || {
            let mut out = Vec::new();
            loop {
                let Some(env) = stp_ep.recv_timeout(poll) else {
                    if stop.load(Ordering::Acquire) {
                        break;
                    }
                    continue;
                };
                machine.handle(env.payload, &mut out);
                for (to, frame) in out.drain(..) {
                    let _ = stp_ep.try_send(to, frame);
                }
            }
            machine.into_server()
        })
    };

    // ---- One session state machine per SU --------------------------
    let mut su_handles = Vec::new();
    for (i, ((su, channels), ep)) in sus.into_iter().zip(su_eps).enumerate() {
        let cfg = cfg.clone();
        let pk_g = pk_g.clone();
        let signing = signing.clone();
        let metrics = metrics.clone();
        let engine = engine.clone();
        su_handles.push(std::thread::spawn(move || {
            let mut rng = StdRng::seed_from_u64(seed ^ (0x50 + i as u64));
            // One span per SU session, parent of this thread's request
            // build / license verification spans.
            let _session_span = pisa_obs::span("session");
            let params = SuSessionParams {
                cfg: &cfg,
                pk_g: &pk_g,
                signing: &signing,
                corrupt_possible,
                engine: &engine,
                metrics: &metrics,
            };
            let mut machine = SuSessionEngine::new(su, &channels, &params, &mut rng);
            let mut out = Vec::new();
            let mut action = machine.start(&mut out);
            loop {
                match action {
                    SuAction::Wait { deadline } => {
                        for (to, frame) in out.drain(..) {
                            ep.send(to, frame);
                        }
                        let event = match ep.recv_timeout(deadline) {
                            Some(env) => SuEvent::Frame(env.payload),
                            None => SuEvent::Timeout,
                        };
                        action = machine.on_event(event, &mut out);
                    }
                    SuAction::Finish(outcome) => break outcome,
                }
            }
        }));
    }

    // Join every thread before reporting any failure: the stop flag must
    // be raised (and the service loops drained) even when an SU thread
    // died, or the process would leak spinning servers.
    let mut outcomes: Vec<SessionOutcome> = Vec::with_capacity(su_handles.len());
    let mut su_died = false;
    for h in su_handles {
        match h.join() {
            Ok(outcome) => outcomes.push(outcome),
            Err(_) => su_died = true,
        }
    }
    outcomes.sort_by_key(|o| o.su_id);

    stop.store(true, Ordering::Release);
    let sdc = sdc_handle.join();
    let stp = stp_handle.join();
    net.flush_holdback();

    if su_died {
        return Err(PisaError::EngineFailure("SU session thread panicked"));
    }
    let sdc = sdc.map_err(|_| PisaError::EngineFailure("SDC service thread panicked"))?;
    let stp = stp.map_err(|_| PisaError::EngineFailure("STP service thread panicked"))?;

    Ok((
        EngineReport {
            outcomes,
            metrics: net.metrics().clone(),
        },
        sdc,
        stp,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SystemConfig;
    use pisa_net::FaultPlan;
    use pisa_radio::BlockId;

    fn ct(v: u64) -> pisa_crypto::paillier::Ciphertext {
        pisa_crypto::paillier::Ciphertext::from_raw(pisa_bigint::Ubig::from(v))
    }

    fn sample_frame() -> SessionMsg {
        SessionMsg {
            session: 3,
            attempt: 2,
            msg: PisaMessage::PuUpdate(crate::messages::PuUpdateMsg {
                block: BlockId(4),
                w_column: (0..3).map(ct).collect(),
                ct_bytes: 64,
            }),
        }
    }

    #[test]
    fn session_frame_roundtrip() {
        let frame = sample_frame();
        let decoded = SessionMsg::decode(&frame.encode().unwrap()).unwrap();
        assert_eq!(decoded.session, 3);
        assert_eq!(decoded.attempt, 2);
        assert_eq!(frame.encode().unwrap(), decoded.encode().unwrap());
        assert!(frame.wire_bytes() > frame.encode().unwrap().len());
    }

    /// Backoff doubles up to 8× and saturates instead of overflowing,
    /// so a huge base timeout cannot panic a retrying session.
    #[test]
    fn deadline_backs_off_and_saturates() {
        let engine = EngineConfig::default().with_timeout(Duration::from_millis(50));
        let deadlines: Vec<u128> = (0..6).map(|a| engine.deadline(a).as_millis()).collect();
        assert_eq!(deadlines, vec![50, 100, 200, 400, 400, 400]);
        let huge = EngineConfig::default().with_timeout(Duration::MAX);
        assert_eq!(huge.deadline(0), Duration::MAX);
        assert_eq!(huge.deadline(1), Duration::MAX);
        assert_eq!(huge.deadline(u32::MAX), Duration::MAX);
    }

    #[test]
    fn truncated_session_frame_rejected() {
        let bytes = sample_frame().encode().unwrap();
        for cut in [0, 5, 11, bytes.len() - 1] {
            assert!(SessionMsg::decode(&bytes[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn corruption_oracle_is_deterministic_and_safe() {
        let frame = sample_frame();
        for tweak in 0..64 {
            let a = corrupt_session_frame(&frame, tweak);
            let b = corrupt_session_frame(&frame, tweak);
            match (a, b) {
                (None, None) => {}
                (Some(x), Some(y)) => {
                    assert_eq!(x.encode().unwrap(), y.encode().unwrap());
                    // A surviving flip differs from the original frame.
                    assert_ne!(x.encode().unwrap(), frame.encode().unwrap());
                }
                _ => panic!("oracle not deterministic for tweak {tweak}"),
            }
        }
    }

    fn storm_setup(n_sus: u32, seed: u64) -> (Vec<(SuClient, Vec<Channel>)>, SdcServer, StpServer) {
        let mut rng = StdRng::seed_from_u64(seed);
        let cfg = SystemConfig::small_test();
        let mut stp = StpServer::new(&mut rng, cfg.paillier_bits());
        let sdc = SdcServer::new(cfg.clone(), stp.public_key().clone(), "sdc.storm", &mut rng);
        let sus = (0..n_sus)
            .map(|i| {
                let su = SuClient::new(SuId(i), BlockId(i as usize % cfg.blocks()), &cfg, &mut rng);
                stp.register_su(su.id(), su.public_key().clone());
                (su, vec![Channel(i as usize % cfg.channels())])
            })
            .collect();
        (sus, sdc, stp)
    }

    #[test]
    fn quiet_storm_grants_every_session_first_try() {
        let (sus, sdc, stp) = storm_setup(3, 0x570);
        // A generous deadline: "quiet" asserts no *network* retries, so
        // keep slow-machine compute time out of the equation.
        let engine = EngineConfig::default().with_timeout(Duration::from_secs(5));
        let (report, _sdc, _stp) = run_storm(sus, sdc, stp, None, &engine, 0x570).unwrap();
        assert_eq!(report.outcomes.len(), 3);
        assert!(report.all_completed());
        for outcome in &report.outcomes {
            assert_eq!(outcome.granted, Some(true), "{:?}", outcome.su_id);
            assert_eq!(outcome.attempts, 1);
        }
        // No faults, no retries, no rejects.
        let totals = report.metrics.session_totals();
        assert_eq!(totals.retries + totals.timeouts + totals.rejected, 0);
        assert_eq!(report.metrics.fault_totals().total(), 0);
    }

    #[test]
    fn lossy_storm_reaches_the_same_decisions() {
        let (sus, sdc, stp) = storm_setup(4, 0x571);
        let (baseline, _, _) =
            run_storm(sus, sdc, stp, None, &EngineConfig::default(), 0x571).unwrap();

        let (sus, sdc, stp) = storm_setup(4, 0x571);
        let faults = FaultConfig::new(0xbad)
            .with_default_plan(FaultPlan::none().with_drop(0.15).with_duplicate(0.25));
        let engine = EngineConfig::default().with_max_retries(12);
        let (report, _, _) = run_storm(sus, sdc, stp, Some(faults), &engine, 0x571).unwrap();

        assert_eq!(report.decisions(), baseline.decisions());
        assert!(report.all_completed());
        // The fault layer actually fired and the sessions absorbed it.
        assert!(report.metrics.fault_totals().total() > 0);
    }

    /// Chaos extension for the panic-freedom work: with payload
    /// corruption switched on, every malformed frame must surface as a
    /// decode error → retry, never as a panic inside the frame-decode
    /// or homomorphic paths — and the final decisions must match the
    /// fault-free baseline.
    #[test]
    fn corrupting_storm_never_panics_and_still_decides() {
        let (sus, sdc, stp) = storm_setup(3, 0x573);
        let (baseline, _, _) =
            run_storm(sus, sdc, stp, None, &EngineConfig::default(), 0x573).unwrap();

        let (sus, sdc, stp) = storm_setup(3, 0x573);
        let faults = FaultConfig::new(0xc0de)
            .with_default_plan(FaultPlan::none().with_corrupt(0.2).with_drop(0.1));
        let engine = EngineConfig::default().with_max_retries(16);
        let (report, _, _) = run_storm(sus, sdc, stp, Some(faults), &engine, 0x573).unwrap();

        assert_eq!(report.decisions(), baseline.decisions());
        assert!(report.all_completed());
        assert!(
            report.metrics.fault_totals().total() > 0,
            "corruption faults must actually have fired"
        );
    }

    #[test]
    fn unregistered_su_is_reported_not_panicked() {
        let (mut sus, sdc, _stp) = storm_setup(2, 0x572);
        let mut rng = StdRng::seed_from_u64(9);
        let cfg = SystemConfig::small_test();
        // Fresh STP that knows neither SU.
        let stp = StpServer::new(&mut rng, cfg.paillier_bits());
        let su_id = sus[0].0.id();
        sus.truncate(1);
        let err = run_storm(sus, sdc, stp, None, &EngineConfig::default(), 0x572).unwrap_err();
        assert_eq!(err, PisaError::UnknownSu(su_id));
    }
}
