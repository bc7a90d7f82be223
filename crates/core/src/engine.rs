//! Transport-agnostic session state machines for the storm engine.
//!
//! [`run_storm`](crate::run_storm) historically inlined the SDC, STP
//! and SU protocol logic into its thread bodies, welding the state
//! machines to wall-clock timeouts and crossbeam mailboxes. This module
//! extracts that logic into three plain structs —
//! [`SdcSessionEngine`], [`StpSessionEngine`] and [`SuSessionEngine`] —
//! that know nothing about threads, clocks or channels:
//!
//! * the service engines map one inbound frame to zero or more outbound
//!   `(recipient, frame)` pairs ([`SdcSessionEngine::handle`],
//!   [`StpSessionEngine::handle`]);
//! * the SU engine is driven by [`SuEvent`]s (a delivered frame or an
//!   expired deadline) and answers with a [`SuAction`]: either "send
//!   these frames and wake me after `deadline`" or a final
//!   [`SessionOutcome`].
//!
//! The threaded engine supplies real time and real mailboxes; the
//! virtual-time discrete-event simulator (`pisa-sim`) supplies virtual
//! time and an event heap. Both drive the *same* code, with the same
//! RNG streams, so their decisions and message sequences are identical
//! — the equivalence tests pin this down frame for frame.

use crate::error::PisaError;
use crate::keys::SuId;
use crate::license::License;
use crate::messages::{PisaMessage, SdcResponseMsg, SdcToStpMsg, SuRequestMsg};
use crate::sdc::SdcServer;
use crate::session::{EngineConfig, SessionMsg, SessionOutcome};
use crate::stp::StpServer;
use crate::su::SuClient;
use crate::SystemConfig;
use pisa_crypto::paillier::PaillierPublicKey;
use pisa_crypto::rsa::RsaPublicKey;
use pisa_net::{NetMetrics, Party};
use pisa_radio::tv::Channel;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::time::Duration;

/// Where one session stands inside the SDC service engine — the
/// explicit per-session state machine of the protocol's server side.
enum SessionPhase {
    /// Phase 1 ran (request blinded, ε retained); the query is in
    /// flight to the STP for the sign test. Stored so a retried or
    /// duplicated request re-sends the *same* blinding instead of
    /// desynchronizing ε.
    AwaitingStp {
        attempt: u32,
        digest: [u8; 32],
        query: SdcToStpMsg,
    },
    /// Phase 2 ran and the license was released; the response replays
    /// idempotently for retries of the same attempt.
    Completed {
        attempt: u32,
        digest: [u8; 32],
        response: SdcResponseMsg,
    },
}

/// The SDC side of the session protocol: phase-1 blinding, phase-2
/// license release, and the retry/replay bookkeeping between them.
///
/// One inbound frame maps to zero or more outbound frames; malformed,
/// stale or duplicated traffic is rejected and counted, never panicked
/// on.
pub struct SdcSessionEngine {
    sdc: SdcServer,
    su_keys: HashMap<SuId, PaillierPublicKey>,
    sessions: HashMap<SuId, SessionPhase>,
    metrics: NetMetrics,
    rng: StdRng,
}

impl SdcSessionEngine {
    /// Wraps `sdc` with the session bookkeeping. `su_keys` maps each
    /// participating SU to its Paillier key (needed for phase 2);
    /// `seed` starts the engine's private RNG stream.
    pub fn new(
        sdc: SdcServer,
        su_keys: HashMap<SuId, PaillierPublicKey>,
        metrics: NetMetrics,
        seed: u64,
    ) -> Self {
        SdcSessionEngine {
            sdc,
            su_keys,
            sessions: HashMap::new(),
            metrics,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Processes one frame addressed to the SDC, returning the frames
    /// to send in response (in order).
    pub fn handle(&mut self, frame: SessionMsg) -> Vec<(Party, SessionMsg)> {
        let mut out = Vec::new();
        match frame.msg {
            PisaMessage::SuRequest(req) => {
                let session = u64::from(req.su_id.0);
                let digest = License::digest_request(req.f_matrix.ciphertexts());
                enum Action {
                    Replay(SdcResponseMsg, u32),
                    Resend(SdcToStpMsg, u32),
                    Reject,
                    Fresh,
                }
                let action = match self.sessions.get_mut(&req.su_id) {
                    // Idempotent replay for a retried request this
                    // engine already answered.
                    Some(SessionPhase::Completed {
                        attempt,
                        digest: d,
                        response,
                    }) if *d == digest && frame.attempt == *attempt => {
                        Action::Replay(response.clone(), *attempt)
                    }
                    // A stale duplicate of a superseded attempt: the SU
                    // has moved on, don't recompute.
                    Some(SessionPhase::Completed {
                        attempt, digest: d, ..
                    }) if *d == digest && frame.attempt < *attempt => Action::Reject,
                    // Retry or duplicate while the sign test is in
                    // flight: ε must not change, so re-send the stored
                    // query under the newest attempt instead of
                    // re-blinding.
                    Some(SessionPhase::AwaitingStp {
                        attempt,
                        digest: d,
                        query,
                    }) if *d == digest => {
                        *attempt = (*attempt).max(frame.attempt);
                        Action::Resend(query.clone(), *attempt)
                    }
                    // New request, a fresh attempt after a bad
                    // response, or a corrupted digest: phase 1.
                    _ => Action::Fresh,
                };
                match action {
                    Action::Replay(response, attempt) => out.push((
                        Party::Su(req.su_id.0),
                        SessionMsg {
                            session,
                            attempt,
                            msg: PisaMessage::SdcResponse(response),
                        },
                    )),
                    Action::Resend(query, attempt) => out.push((
                        Party::Stp,
                        SessionMsg {
                            session,
                            attempt,
                            msg: PisaMessage::SdcToStp(query),
                        },
                    )),
                    Action::Reject => self.metrics.record_session_reject(session),
                    Action::Fresh => match self.sdc.process_request_phase1(&req, &mut self.rng) {
                        Ok(query) => {
                            self.sessions.insert(
                                req.su_id,
                                SessionPhase::AwaitingStp {
                                    attempt: frame.attempt,
                                    digest,
                                    query: query.clone(),
                                },
                            );
                            out.push((
                                Party::Stp,
                                SessionMsg {
                                    session,
                                    attempt: frame.attempt,
                                    msg: PisaMessage::SdcToStp(query),
                                },
                            ));
                        }
                        Err(_) => self.metrics.record_session_reject(session),
                    },
                }
            }
            PisaMessage::StpToSdc(reply) => {
                let session = u64::from(reply.su_id.0);
                let current = match self.sessions.get(&reply.su_id) {
                    Some(SessionPhase::AwaitingStp {
                        attempt, digest, ..
                    }) if *attempt == frame.attempt => Some((*attempt, *digest)),
                    // Stale attempt, duplicate of a consumed reply, or
                    // no phase-1 state: reject.
                    _ => None,
                };
                let Some((attempt, digest)) = current else {
                    self.metrics.record_session_reject(session);
                    return out;
                };
                let Some(su_pk) = self.su_keys.get(&reply.su_id) else {
                    self.metrics.record_session_reject(session);
                    return out;
                };
                match self
                    .sdc
                    .process_request_phase2(&reply, su_pk, &mut self.rng)
                {
                    Ok(response) => {
                        self.sessions.insert(
                            reply.su_id,
                            SessionPhase::Completed {
                                attempt,
                                digest,
                                response: response.clone(),
                            },
                        );
                        out.push((
                            Party::Su(reply.su_id.0),
                            SessionMsg {
                                session,
                                attempt,
                                msg: PisaMessage::SdcResponse(response),
                            },
                        ));
                    }
                    // Shape mismatch keeps the server-side ε state; an
                    // SU retry will re-drive the round.
                    Err(PisaError::DimensionMismatch { .. }) => {
                        self.metrics.record_session_reject(session);
                    }
                    // Any other failure means the engine's view
                    // desynchronized from the server state — drop it so
                    // the next retry re-runs phase 1.
                    Err(_) => {
                        self.metrics.record_session_reject(session);
                        self.sessions.remove(&reply.su_id);
                    }
                }
            }
            // PU updates and reflected responses are outside this
            // engine's protocol: reject, never panic.
            _ => self.metrics.record_session_reject(frame.session),
        }
        out
    }

    /// Unwraps the server once the storm is over.
    pub fn into_server(self) -> SdcServer {
        self.sdc
    }

    /// The wrapped server (read-only; checkpointing reads its snapshot
    /// through this without tearing the engine down).
    pub fn server(&self) -> &SdcServer {
        &self.sdc
    }

    /// Serializes the per-session protocol table — which attempt each
    /// SU is on, the request digest, and the in-flight STP query or the
    /// released response — so a restarted engine resumes mid-protocol
    /// instead of re-running phase 1 with fresh ε (which would
    /// desynchronize from any STP reply already in flight).
    ///
    /// # Errors
    ///
    /// Any [`pisa_net::codec::CodecError`] if a field cannot fit its
    /// wire width; in-range state never fails.
    pub fn snapshot_sessions(&self) -> Result<bytes::Bytes, pisa_net::codec::CodecError> {
        use pisa_net::codec::Writer;
        let mut ids: Vec<SuId> = self.sessions.keys().copied().collect();
        ids.sort_unstable();
        let mut w = Writer::new();
        w.put_u8(SESSIONS_VERSION);
        w.put_u32(crate::wire::wire_u32(ids.len())?);
        for id in ids {
            // The id came from the map's own key set one statement ago.
            let Some(phase) = self.sessions.get(&id) else {
                continue;
            };
            w.put_u32(id.0);
            match phase {
                SessionPhase::AwaitingStp {
                    attempt,
                    digest,
                    query,
                } => {
                    w.put_u8(PHASE_AWAITING_STP);
                    w.put_u32(*attempt);
                    w.put_raw(digest);
                    w.put_bytes(&PisaMessage::SdcToStp(query.clone()).encode()?)?;
                }
                SessionPhase::Completed {
                    attempt,
                    digest,
                    response,
                } => {
                    w.put_u8(PHASE_COMPLETED);
                    w.put_u32(*attempt);
                    w.put_raw(digest);
                    w.put_bytes(&PisaMessage::SdcResponse(response.clone()).encode()?)?;
                }
            }
        }
        Ok(w.finish())
    }

    /// Replaces the per-session table from a
    /// [`snapshot_sessions`](Self::snapshot_sessions) frame. The frame
    /// is treated as adversarial: counts are bounded by the remaining
    /// bytes before allocation, SU ids must be strictly increasing, and
    /// each entry's payload must decode to the message kind its phase
    /// tag claims.
    ///
    /// # Errors
    ///
    /// Any [`pisa_net::codec::CodecError`] on a malformed frame; the
    /// existing table is left untouched on error.
    pub fn restore_sessions(&mut self, frame: &[u8]) -> Result<(), pisa_net::codec::CodecError> {
        use pisa_net::codec::{CodecError, Reader};
        let mut r = Reader::new(frame);
        let version = r.get_u8()?;
        if version != SESSIONS_VERSION {
            return Err(CodecError::Invalid(format!(
                "unknown session-table version {version}"
            )));
        }
        let count = crate::wire::widen(r.get_u32()?);
        // id + tag + attempt + digest + payload length prefix.
        let min_entry = 4 + 1 + 4 + 32 + 4;
        let most = r.remaining() / min_entry;
        if count > most {
            return Err(CodecError::Oversized(count as u64, most as u64));
        }
        let mut sessions = HashMap::with_capacity(count);
        let mut last: Option<u32> = None;
        for _ in 0..count {
            let raw_id = r.get_u32()?;
            if let Some(prev) = last {
                if raw_id <= prev {
                    return Err(CodecError::Invalid(format!(
                        "session SU ids must be strictly increasing (saw {raw_id} after {prev})"
                    )));
                }
            }
            last = Some(raw_id);
            let tag = r.get_u8()?;
            let attempt = r.get_u32()?;
            let digest: [u8; 32] = r
                .get_raw(32)?
                .try_into()
                .map_err(|_| CodecError::UnexpectedEof)?;
            let inner = PisaMessage::decode(r.get_bytes()?)?;
            let phase = match (tag, inner) {
                (PHASE_AWAITING_STP, PisaMessage::SdcToStp(query)) => SessionPhase::AwaitingStp {
                    attempt,
                    digest,
                    query,
                },
                (PHASE_COMPLETED, PisaMessage::SdcResponse(response)) => SessionPhase::Completed {
                    attempt,
                    digest,
                    response,
                },
                (tag, _) => {
                    return Err(CodecError::Invalid(format!(
                        "session entry for SU {raw_id}: payload does not match phase tag {tag}"
                    )))
                }
            };
            sessions.insert(SuId(raw_id), phase);
        }
        r.finish()?;
        self.sessions = sessions;
        Ok(())
    }
}

/// Session-table serialization format version.
const SESSIONS_VERSION: u8 = 1;
/// Phase tag: sign test in flight to the STP.
const PHASE_AWAITING_STP: u8 = 1;
/// Phase tag: response released, replayable.
const PHASE_COMPLETED: u8 = 2;

/// The STP side of the session protocol: stateless key conversion of
/// each blinded sign-test query.
pub struct StpSessionEngine {
    stp: StpServer,
    metrics: NetMetrics,
    rng: StdRng,
}

impl StpSessionEngine {
    /// Wraps `stp`; parameters as for [`SdcSessionEngine::new`].
    pub fn new(stp: StpServer, metrics: NetMetrics, seed: u64) -> Self {
        StpSessionEngine {
            stp,
            metrics,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Processes one frame addressed to the STP, returning the frames
    /// to send in response.
    pub fn handle(&mut self, frame: SessionMsg) -> Vec<(Party, SessionMsg)> {
        match frame.msg {
            PisaMessage::SdcToStp(query) => match self.stp.key_convert(&query, &mut self.rng) {
                Ok((reply, _obs)) => vec![(
                    Party::Sdc,
                    SessionMsg {
                        session: frame.session,
                        attempt: frame.attempt,
                        msg: PisaMessage::StpToSdc(reply),
                    },
                )],
                Err(_) => {
                    self.metrics.record_session_reject(frame.session);
                    Vec::new()
                }
            },
            _ => {
                self.metrics.record_session_reject(frame.session);
                Vec::new()
            }
        }
    }

    /// Unwraps the server once the storm is over.
    pub fn into_server(self) -> StpServer {
        self.stp
    }

    /// The wrapped server (read-only; checkpointing reads its directory
    /// snapshot through this without tearing the engine down).
    pub fn server(&self) -> &StpServer {
        &self.stp
    }

    /// Mutable access to the wrapped server, for restoring its SU key
    /// directory from a checkpoint before serving.
    pub fn server_mut(&mut self) -> &mut StpServer {
        &mut self.stp
    }
}

/// What the SU state machine was just told: either a frame arrived on
/// its mailbox, or its current receive deadline expired.
#[derive(Debug)]
pub enum SuEvent {
    /// A frame was delivered to this SU.
    Frame(SessionMsg),
    /// The deadline from the previous [`SuAction::Continue`] expired
    /// with nothing (acceptable) delivered.
    Timeout,
}

/// What the SU state machine wants next.
#[derive(Debug)]
pub enum SuAction {
    /// Send `sends` to the SDC, then wait: deliver the next frame as
    /// [`SuEvent::Frame`], or [`SuEvent::Timeout`] once `deadline`
    /// passes with none. Receiving a frame re-arms the *full* deadline.
    Continue {
        /// Frames to send to [`Party::Sdc`], in order (possibly none).
        sends: Vec<SessionMsg>,
        /// How long to wait for the next frame.
        deadline: Duration,
    },
    /// The session reached a terminal state.
    Finish(SessionOutcome),
}

/// Construction parameters shared by every SU engine of one storm.
pub struct SuSessionParams<'a> {
    /// System configuration (shapes the request).
    pub cfg: &'a SystemConfig,
    /// The global Paillier key the request is encrypted under.
    pub pk_g: &'a PaillierPublicKey,
    /// The SDC's license-signing key.
    pub signing: &'a RsaPublicKey,
    /// Whether any link can corrupt payloads — decides if an
    /// unverifiable response is a denial or possibly a flipped bit.
    pub corrupt_possible: bool,
    /// Timeout / retry policy.
    pub engine: &'a EngineConfig,
    /// Shared resilience counters.
    pub metrics: &'a NetMetrics,
}

/// The SU side of one session: build the request once, then retry it
/// with exponential backoff until a verifiable response, a definite
/// denial, or an exhausted budget.
pub struct SuSessionEngine {
    su: SuClient,
    signing: RsaPublicKey,
    engine: EngineConfig,
    metrics: NetMetrics,
    session: u64,
    digest: [u8; 32],
    request: SuRequestMsg,
    attempt: u32,
    corrupt_possible: bool,
}

impl SuSessionEngine {
    /// Builds the SU's encrypted request (the expensive part) and the
    /// session state machine around it. `rng` drives the request's
    /// encryption randomness and must be this SU's dedicated stream.
    pub fn new(
        mut su: SuClient,
        channels: &[Channel],
        params: &SuSessionParams<'_>,
        rng: &mut StdRng,
    ) -> Self {
        let request = su.build_request(params.cfg, params.pk_g, channels, rng);
        let digest = License::digest_request(request.f_matrix.ciphertexts());
        SuSessionEngine {
            session: u64::from(su.id().0),
            su,
            signing: params.signing.clone(),
            engine: params.engine.clone(),
            metrics: params.metrics.clone(),
            digest,
            request,
            attempt: 0,
            corrupt_possible: params.corrupt_possible,
        }
    }

    /// The SU this engine speaks for.
    pub fn su_id(&self) -> SuId {
        self.su.id()
    }

    /// Kicks the session off: the attempt-0 request and its deadline.
    pub fn start(&self) -> SuAction {
        self.wait(vec![self.frame()])
    }

    /// Advances the state machine by one event.
    pub fn on_event(&mut self, event: SuEvent) -> SuAction {
        match event {
            SuEvent::Frame(frame) => match frame.msg {
                PisaMessage::SdcResponse(resp)
                    if resp.license.su_id == self.su.id()
                        && resp.license.request_digest == self.digest =>
                {
                    if self.su.handle_response(&resp, &self.signing) {
                        // A flipped bit cannot forge a valid RSA
                        // signature: a verified grant is final.
                        return self.finish(Some(true));
                    }
                    if !self.corrupt_possible {
                        // Links never mangle payloads, and the attempt
                        // tags rule out ε mismatches, so an
                        // unverifiable signature IS the deny.
                        return self.finish(Some(false));
                    }
                    // Could be a denial or a flipped bit in G̃ —
                    // indistinguishable by design, so spend a retry to
                    // find out.
                    self.metrics.record_session_reject(self.session);
                    if self.attempt >= self.engine.max_retries {
                        return self.finish(Some(false));
                    }
                    self.retry()
                }
                // Foreign digest, foreign SU, duplicate or
                // out-of-protocol message: reject and keep waiting out
                // a fresh full deadline.
                _ => {
                    self.metrics.record_session_reject(self.session);
                    self.wait(Vec::new())
                }
            },
            SuEvent::Timeout => {
                self.metrics.record_session_timeout(self.session);
                if self.attempt >= self.engine.max_retries {
                    return self.finish(None);
                }
                self.retry()
            }
        }
    }

    fn frame(&self) -> SessionMsg {
        SessionMsg {
            session: self.session,
            attempt: self.attempt,
            msg: PisaMessage::SuRequest(self.request.clone()),
        }
    }

    fn retry(&mut self) -> SuAction {
        self.attempt += 1;
        self.metrics.record_session_retry(self.session);
        self.wait(vec![self.frame()])
    }

    fn wait(&self, sends: Vec<SessionMsg>) -> SuAction {
        SuAction::Continue {
            sends,
            deadline: self.engine.deadline(self.attempt),
        }
    }

    fn finish(&self, granted: Option<bool>) -> SuAction {
        SuAction::Finish(SessionOutcome {
            su_id: self.su.id(),
            granted,
            attempts: self.attempt + 1,
        })
    }
}
