//! The session wire envelope, the engines' timeout policy, and the
//! quiet in-process storm.
//!
//! [`run_request_direct`](crate::run_request_direct) runs one request
//! by direct calls; a real SDC serves many SUs at once over links that
//! lose, repeat, reorder and mangle frames. The per-session rules for
//! that live in the [`crate::engine`] state machines, which three
//! drivers run:
//!
//! * [`run_storm`] here: every engine on one thread, every frame through
//!   one FIFO queue on a quiet network. It is the fault-free reference
//!   the other drivers are checked against, and what
//!   [`crate::trace::record_storm`] records.
//! * The socket services in [`crate::netstorm`]: SDC, STP and the SU
//!   swarm as separate processes, for real concurrency.
//! * The `pisa-sim` simulator: the same engines on virtual time over the
//!   [`FaultPipeline`](pisa_net::FaultPipeline)'s drop / duplicate /
//!   reorder / corrupt faults. Every faulty in-process storm runs there.
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
use crate::netstorm::StormFixture;
use crate::sdc::SdcServer;
use crate::stp::StpServer;
use crate::su::SuClient;
use pisa_net::codec::{CodecError, Reader, Writer};
use pisa_net::{NetMetrics, Party, WireSize};
use pisa_radio::tv::Channel;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{HashMap, VecDeque};
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
/// The simulator's real fidelity installs it on its network.
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
    /// Poll granularity of the socket service loops (how often they
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
}

/// The SU receive deadline for a given attempt (exponential backoff:
/// `timeout · 2^min(attempt, 3)`, saturating at [`Duration::MAX`]).
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
    /// The traffic, fault and per-session resilience counters.
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

/// Runs N SU request sessions to completion on one thread, over a
/// quiet network: the SDC, the STP and every SU are session engines,
/// SUs start in the order given, and each frame is dispatched in send
/// order from one FIFO queue and counted in the report's
/// [`NetMetrics`]. No frame is lost, so no deadline ever expires and
/// the run is a pure function of its inputs and `seed`: SU *i* draws
/// its request from `seed ^ (0x50 + i)`, the SDC engine from
/// `seed ^ 0x5dc` and the STP engine from `seed ^ 0x517`, as every
/// other storm driver does.
///
/// # Errors
///
/// [`PisaError::UnknownSu`] if an SU never registered with the STP, and
/// [`PisaError::EngineFailure`] if a session is left unfinished (which a
/// quiet network rules out unless the protocol itself regresses).
pub fn run_storm(
    sus: Vec<(SuClient, Vec<Channel>)>,
    sdc: SdcServer,
    stp: StpServer,
    seed: u64,
) -> Result<(EngineReport, SdcServer, StpServer), PisaError> {
    run_fifo(StormFixture { sus, sdc, stp }, seed, |_, _, _| Ok(()))
}

/// The loop behind [`run_storm`]; `dispatched` sees every frame as it
/// leaves the queue, which is how a trace recorder taps it.
pub(crate) fn run_fifo(
    fixture: StormFixture,
    seed: u64,
    mut dispatched: impl FnMut(Party, Party, &SessionMsg) -> Result<(), PisaError>,
) -> Result<(EngineReport, SdcServer, StpServer), PisaError> {
    let su_keys = fixture.su_keys()?;
    let StormFixture { sus, sdc, stp } = fixture;
    let cfg = sdc.config().clone();
    let pk_g = stp.public_key().clone();
    let signing = sdc.signing_public_key().clone();
    let engine = EngineConfig::default();
    let metrics = NetMetrics::new();
    let params = SuSessionParams {
        cfg: &cfg,
        pk_g: &pk_g,
        signing: &signing,
        corrupt_possible: false,
        engine: &engine,
        metrics: &metrics,
    };

    let mut sdc = SdcSessionEngine::new(sdc, su_keys, metrics.clone(), seed ^ 0x5dc);
    let mut stp = StpSessionEngine::new(stp, metrics.clone(), seed ^ 0x517);
    let mut queue: VecDeque<(Party, Party, SessionMsg)> = VecDeque::new();
    let mut live: HashMap<u32, SuSessionEngine> = HashMap::new();
    let mut outcomes: Vec<SessionOutcome> = Vec::new();
    let mut out = Vec::new();

    for (i, (su, channels)) in sus.into_iter().enumerate() {
        let mut rng = StdRng::seed_from_u64(seed ^ (0x50 + i as u64));
        let id = su.id().0;
        let machine = SuSessionEngine::new(su, &channels, &params, &mut rng);
        if let SuAction::Finish(outcome) = machine.start(&mut out) {
            outcomes.push(outcome);
        }
        queue.extend(out.drain(..).map(|(to, frame)| (Party::Su(id), to, frame)));
        live.insert(id, machine);
    }

    while let Some((from, to, msg)) = queue.pop_front() {
        dispatched(from, to, &msg)?;
        metrics.record(from, to, msg.wire_bytes());
        match to {
            Party::Sdc => sdc.handle(msg, &mut out),
            Party::Stp => stp.handle(msg, &mut out),
            Party::Su(i) => {
                let Some(machine) = live.get_mut(&i) else {
                    continue;
                };
                if let SuAction::Finish(outcome) = machine.on_event(SuEvent::Frame(msg), &mut out) {
                    outcomes.push(outcome);
                    live.remove(&i);
                }
            }
            // PUs receive nothing in this protocol.
            Party::Pu(_) => {}
        }
        queue.extend(out.drain(..).map(|(next, frame)| (to, next, frame)));
    }

    if !live.is_empty() {
        return Err(PisaError::EngineFailure(
            "storm left sessions unfinished on a quiet network",
        ));
    }
    outcomes.sort_by_key(|o| o.su_id);
    Ok((
        EngineReport { outcomes, metrics },
        sdc.into_server(),
        stp.into_server(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
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
        let base = Duration::from_millis(50);
        let deadlines: Vec<u128> = (0..6).map(|a| backoff(base, a).as_millis()).collect();
        assert_eq!(deadlines, vec![50, 100, 200, 400, 400, 400]);
        assert_eq!(backoff(Duration::MAX, 0), Duration::MAX);
        assert_eq!(backoff(Duration::MAX, 1), Duration::MAX);
        assert_eq!(backoff(Duration::MAX, u32::MAX), Duration::MAX);
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
}
