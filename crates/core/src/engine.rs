//! The session state machines, generic over the protocol backend.
//!
//! [`SdcSessionEngine`], [`StpSessionEngine`] and [`SuSessionEngine`]
//! hold the rules that make retries safe (see [`crate::session`]):
//! idempotent replay, the ε-preserving resend, the stale-duplicate
//! reject, and the SU's retry with exponential backoff. They know
//! nothing about threads, clocks or channels:
//!
//! * the service engines map one inbound frame to zero or more outbound
//!   `(recipient, frame)` pairs, appended to a buffer the caller owns
//!   ([`SdcSessionEngine::handle`], [`StpSessionEngine::handle`]);
//! * the SU engine is driven by [`SuEvent`]s (a delivered frame or an
//!   expired deadline), appends its sends the same way, and answers
//!   with a [`SuAction`]: wait for the next event until a deadline, or
//!   stop with a final [`SessionOutcome`].
//!
//! What the frames carry is a [`Backend`]'s business: it computes the
//! protocol steps of paper Fig. 5 (phase 1, the sign test with key
//! conversion, phase 2, the license check) and sizes its messages for
//! the wire. [`Paillier`] is the deployed backend. The in-process FIFO
//! storm ([`run_storm`](crate::run_storm)), the socket services and the
//! simulator's real fidelity run it, on the same RNG streams, so their
//! frames are identical byte for byte.
//! The simulator's modeled fidelity runs a plaintext backend over the
//! WATCH decision oracle, so its 10⁵-session storms exercise these same
//! state machines.

use crate::error::PisaError;
use crate::keys::SuId;
use crate::license::License;
use crate::messages::PisaMessage;
use crate::sdc::SdcServer;
use crate::session::{backoff, EngineConfig, SessionMsg, SessionOutcome};
use crate::stp::StpServer;
use crate::su::SuClient;
use crate::SystemConfig;
use pisa_crypto::paillier::PaillierPublicKey;
use pisa_crypto::rsa::RsaPublicKey;
use pisa_net::{NetMetrics, Party, WireSize};
use pisa_radio::tv::Channel;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::time::Duration;

/// Outbound frames, each with its recipient, in send order.
pub type Outbox<M = PisaMessage> = Vec<(Party, SessionMsg<M>)>;

/// What a message is to the session engines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step<D> {
    /// SU → SDC request.
    Request {
        /// The requesting SU.
        su: SuId,
        /// Digest of the request, which the license will bind.
        digest: D,
    },
    /// STP → SDC key-converted reply.
    Reply {
        /// The SU whose query it answers.
        su: SuId,
    },
    /// SDC → SU license response.
    Response {
        /// The SU the license names.
        su: SuId,
        /// The request digest the license binds.
        digest: D,
    },
    /// A query, which only the STP takes, or a message outside the
    /// session protocol.
    Other,
}

/// The protocol under the session engines: the messages of paper Fig. 5
/// and the computation behind each step. The engines keep the session
/// rules, a backend keeps the cryptography (or a plaintext stand-in).
pub trait Backend {
    /// The payload a [`SessionMsg`] carries; its [`WireSize`] is what
    /// the networks account.
    type Msg: Clone + WireSize;
    /// A request digest, which a license binds.
    type Digest: Copy + Eq;
    /// The SDC's state, which runs phases 1 and 2.
    type Sdc;
    /// The STP's state, which runs the sign test.
    type Stp;
    /// One SU's state, which checks its license.
    type Su;

    /// Which step `msg` is.
    fn step(msg: &Self::Msg) -> Step<Self::Digest>;

    /// Phase 1 (Fig. 5 steps 3–5): blinds a request into the sign-test
    /// query for the STP, keeping what phase 2 unblinds with.
    ///
    /// # Errors
    ///
    /// A request the SDC cannot process.
    fn phase1(
        sdc: &mut Self::Sdc,
        request: &Self::Msg,
        rng: &mut StdRng,
    ) -> Result<Self::Msg, PisaError>;

    /// Whether the SDC holds `su`'s key, which phase 2 encrypts under.
    fn knows(sdc: &Self::Sdc, su: SuId) -> bool;

    /// Phase 2 (steps 9–11): unblinds the STP's `reply` to `query`, the
    /// query phase 1 made for this session, and releases the license.
    ///
    /// # Errors
    ///
    /// [`PisaError::DimensionMismatch`] for a reply of the wrong shape,
    /// after which the SDC still holds its phase-1 state; any other
    /// error means that state is gone.
    fn phase2(
        sdc: &mut Self::Sdc,
        query: &Self::Msg,
        reply: &Self::Msg,
        rng: &mut StdRng,
    ) -> Result<Self::Msg, PisaError>;

    /// The sign test with key conversion (steps 6–8): the STP's reply
    /// to a query.
    ///
    /// # Errors
    ///
    /// A frame that is not a query, or a query the STP cannot convert.
    fn sign_test(
        stp: &Self::Stp,
        query: &Self::Msg,
        rng: &mut StdRng,
    ) -> Result<Self::Msg, PisaError>;

    /// The SU's license check: whether `response` yields a valid
    /// signature, which is a grant.
    fn verify(su: &Self::Su, response: &Self::Msg) -> bool;
}

/// A backend step handed a message of another step.
const WRONG_STEP: PisaError = PisaError::EngineFailure("message is not this protocol step");

/// The deployed backend: Paillier ciphertexts, blinding and RSA
/// licenses, computed by [`SdcServer`], [`StpServer`] and [`SuClient`].
#[derive(Debug, Clone, Copy)]
pub struct Paillier;

/// The Paillier SDC: the server and the SU keys phase 2 encrypts under.
pub struct PaillierSdc {
    server: SdcServer,
    su_keys: HashMap<SuId, PaillierPublicKey>,
}

/// One Paillier SU: the client, whose secret key opens the response,
/// and the SDC's license-signing key.
pub struct PaillierSu {
    client: SuClient,
    signing: RsaPublicKey,
}

impl Backend for Paillier {
    type Msg = PisaMessage;
    type Digest = [u8; 32];
    type Sdc = PaillierSdc;
    type Stp = StpServer;
    type Su = PaillierSu;

    fn step(msg: &PisaMessage) -> Step<[u8; 32]> {
        match msg {
            PisaMessage::SuRequest(req) => Step::Request {
                su: req.su_id,
                digest: License::digest_request(req.f_matrix.ciphertexts()),
            },
            PisaMessage::StpToSdc(reply) => Step::Reply { su: reply.su_id },
            PisaMessage::SdcResponse(resp) => Step::Response {
                su: resp.license.su_id,
                digest: resp.license.request_digest,
            },
            PisaMessage::PuUpdate(_) | PisaMessage::SdcToStp(_) => Step::Other,
        }
    }

    fn phase1(
        sdc: &mut PaillierSdc,
        request: &PisaMessage,
        rng: &mut StdRng,
    ) -> Result<PisaMessage, PisaError> {
        let PisaMessage::SuRequest(req) = request else {
            return Err(WRONG_STEP);
        };
        sdc.server
            .process_request_phase1(req, rng)
            .map(PisaMessage::SdcToStp)
    }

    fn knows(sdc: &PaillierSdc, su: SuId) -> bool {
        sdc.su_keys.contains_key(&su)
    }

    fn phase2(
        sdc: &mut PaillierSdc,
        _query: &PisaMessage,
        reply: &PisaMessage,
        rng: &mut StdRng,
    ) -> Result<PisaMessage, PisaError> {
        // The server keeps its own phase-1 state (ε and the license).
        let PisaMessage::StpToSdc(reply) = reply else {
            return Err(WRONG_STEP);
        };
        let su_pk = sdc
            .su_keys
            .get(&reply.su_id)
            .ok_or(PisaError::UnknownSu(reply.su_id))?;
        sdc.server
            .process_request_phase2(reply, su_pk, rng)
            .map(PisaMessage::SdcResponse)
    }

    fn sign_test(
        stp: &StpServer,
        query: &PisaMessage,
        rng: &mut StdRng,
    ) -> Result<PisaMessage, PisaError> {
        let PisaMessage::SdcToStp(query) = query else {
            return Err(WRONG_STEP);
        };
        stp.key_convert(query, rng)
            .map(|(reply, _obs)| PisaMessage::StpToSdc(reply))
    }

    fn verify(su: &PaillierSu, response: &PisaMessage) -> bool {
        matches!(response, PisaMessage::SdcResponse(resp)
            if su.client.handle_response(resp, &su.signing))
    }
}

/// Where one session stands inside the SDC service engine — the
/// explicit per-session state machine of the protocol's server side.
enum SessionPhase<M, D> {
    /// Phase 1 ran (request blinded, ε retained); the query is in
    /// flight to the STP for the sign test. Stored so a retried or
    /// duplicated request re-sends the *same* blinding instead of
    /// desynchronizing ε.
    AwaitingStp { attempt: u32, digest: D, query: M },
    /// Phase 2 ran and the license was released; the response replays
    /// idempotently for retries of the same attempt.
    Completed {
        attempt: u32,
        digest: D,
        response: M,
    },
}

/// The SDC side of the session protocol: phase-1 blinding, phase-2
/// license release, and the retry/replay bookkeeping between them.
///
/// One inbound frame maps to zero or more outbound frames; malformed,
/// stale or duplicated traffic is rejected and counted, never panicked
/// on.
pub struct SdcSessionEngine<B: Backend = Paillier> {
    sdc: B::Sdc,
    sessions: HashMap<SuId, SessionPhase<B::Msg, B::Digest>>,
    metrics: NetMetrics,
    rng: StdRng,
}

impl<B: Backend> SdcSessionEngine<B> {
    /// Wraps the backend's SDC with the session bookkeeping; `seed`
    /// starts the engine's private RNG stream.
    pub fn with_backend(sdc: B::Sdc, metrics: NetMetrics, seed: u64) -> Self {
        SdcSessionEngine {
            sdc,
            sessions: HashMap::new(),
            metrics,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Processes one frame addressed to the SDC, appending the frames
    /// to send in response (in order) to `out`.
    pub fn handle(&mut self, frame: SessionMsg<B::Msg>, out: &mut Outbox<B::Msg>) {
        match B::step(&frame.msg) {
            Step::Request { su, digest } => self.request(su, digest, frame, out),
            Step::Reply { su } => self.reply(su, frame, out),
            // PU updates and reflected queries or responses are outside
            // this engine's protocol: reject, never panic.
            Step::Response { .. } | Step::Other => {
                self.metrics.record_session_reject(frame.session)
            }
        }
    }

    fn request(
        &mut self,
        su: SuId,
        digest: B::Digest,
        frame: SessionMsg<B::Msg>,
        out: &mut Outbox<B::Msg>,
    ) {
        let session = u64::from(su.0);
        match self.sessions.get_mut(&su) {
            // Idempotent replay for a retried request this engine
            // already answered.
            Some(SessionPhase::Completed {
                attempt,
                digest: d,
                response,
            }) if *d == digest && frame.attempt == *attempt => {
                let msg = response.clone();
                out.push((Party::Su(su.0), SessionMsg::new(session, *attempt, msg)));
                return;
            }
            // A stale duplicate of a superseded attempt: the SU has
            // moved on, don't recompute.
            Some(SessionPhase::Completed {
                attempt, digest: d, ..
            }) if *d == digest && frame.attempt < *attempt => {
                self.metrics.record_session_reject(session);
                return;
            }
            // Retry or duplicate while the sign test is in flight: ε
            // must not change, so re-send the stored query under the
            // newest attempt instead of re-blinding.
            Some(SessionPhase::AwaitingStp {
                attempt,
                digest: d,
                query,
            }) if *d == digest => {
                *attempt = (*attempt).max(frame.attempt);
                let msg = query.clone();
                out.push((Party::Stp, SessionMsg::new(session, *attempt, msg)));
                return;
            }
            // New request, a fresh attempt after a bad response, or a
            // corrupted digest: phase 1.
            _ => {}
        }
        match B::phase1(&mut self.sdc, &frame.msg, &mut self.rng) {
            Ok(query) => {
                let msg = query.clone();
                self.sessions.insert(
                    su,
                    SessionPhase::AwaitingStp {
                        attempt: frame.attempt,
                        digest,
                        query,
                    },
                );
                out.push((Party::Stp, SessionMsg::new(session, frame.attempt, msg)));
            }
            Err(_) => self.metrics.record_session_reject(session),
        }
    }

    fn reply(&mut self, su: SuId, frame: SessionMsg<B::Msg>, out: &mut Outbox<B::Msg>) {
        let session = u64::from(su.0);
        let Some(SessionPhase::AwaitingStp {
            attempt,
            digest,
            query,
        }) = self.sessions.get(&su)
        else {
            // A duplicate of a consumed reply, or no phase-1 state.
            self.metrics.record_session_reject(session);
            return;
        };
        let (attempt, digest) = (*attempt, *digest);
        // A reply for another attempt is stale, and with no key to
        // encrypt the response under there is nothing to release.
        if attempt != frame.attempt || !B::knows(&self.sdc, su) {
            self.metrics.record_session_reject(session);
            return;
        }
        match B::phase2(&mut self.sdc, query, &frame.msg, &mut self.rng) {
            Ok(response) => {
                let msg = response.clone();
                self.sessions.insert(
                    su,
                    SessionPhase::Completed {
                        attempt,
                        digest,
                        response,
                    },
                );
                out.push((Party::Su(su.0), SessionMsg::new(session, attempt, msg)));
            }
            // Shape mismatch keeps the server-side ε state; an SU retry
            // will re-drive the round.
            Err(PisaError::DimensionMismatch { .. }) => {
                self.metrics.record_session_reject(session);
            }
            // Any other failure means the engine's view desynchronized
            // from the server state — drop it so the next retry re-runs
            // phase 1.
            Err(_) => {
                self.metrics.record_session_reject(session);
                self.sessions.remove(&su);
            }
        }
    }
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
        let server = PaillierSdc {
            server: sdc,
            su_keys,
        };
        SdcSessionEngine::with_backend(server, metrics, seed)
    }

    /// Unwraps the server once the storm is over.
    pub fn into_server(self) -> SdcServer {
        self.sdc.server
    }

    /// The wrapped server (read-only; checkpointing reads its snapshot
    /// through this without tearing the engine down).
    pub fn server(&self) -> &SdcServer {
        &self.sdc.server
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
            let (tag, attempt, digest, msg) = match phase {
                SessionPhase::AwaitingStp {
                    attempt,
                    digest,
                    query,
                } => (PHASE_AWAITING_STP, attempt, digest, query),
                SessionPhase::Completed {
                    attempt,
                    digest,
                    response,
                } => (PHASE_COMPLETED, attempt, digest, response),
            };
            w.put_u32(id.0);
            w.put_u8(tag);
            w.put_u32(*attempt);
            w.put_raw(digest);
            w.put_bytes(&msg.encode()?)?;
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
            let phase = match (tag, PisaMessage::decode(r.get_bytes()?)?) {
                (PHASE_AWAITING_STP, query @ PisaMessage::SdcToStp(_)) => {
                    SessionPhase::AwaitingStp {
                        attempt,
                        digest,
                        query,
                    }
                }
                (PHASE_COMPLETED, response @ PisaMessage::SdcResponse(_)) => {
                    SessionPhase::Completed {
                        attempt,
                        digest,
                        response,
                    }
                }
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
pub struct StpSessionEngine<B: Backend = Paillier> {
    stp: B::Stp,
    metrics: NetMetrics,
    rng: StdRng,
}

impl<B: Backend> StpSessionEngine<B> {
    /// Wraps the backend's STP; parameters as for
    /// [`SdcSessionEngine::with_backend`].
    pub fn with_backend(stp: B::Stp, metrics: NetMetrics, seed: u64) -> Self {
        StpSessionEngine {
            stp,
            metrics,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Processes one frame addressed to the STP, appending the reply
    /// (if any) to `out`.
    pub fn handle(&mut self, frame: SessionMsg<B::Msg>, out: &mut Outbox<B::Msg>) {
        match B::sign_test(&self.stp, &frame.msg, &mut self.rng) {
            Ok(reply) => out.push((
                Party::Sdc,
                SessionMsg::new(frame.session, frame.attempt, reply),
            )),
            // Not a query, or one the STP cannot convert: reject.
            Err(_) => self.metrics.record_session_reject(frame.session),
        }
    }
}

impl StpSessionEngine {
    /// Wraps `stp`; parameters as for [`SdcSessionEngine::new`].
    pub fn new(stp: StpServer, metrics: NetMetrics, seed: u64) -> Self {
        StpSessionEngine::with_backend(stp, metrics, seed)
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
pub enum SuEvent<M = PisaMessage> {
    /// A frame was delivered to this SU.
    Frame(SessionMsg<M>),
    /// The deadline from the previous [`SuAction::Wait`] expired with
    /// nothing (acceptable) delivered.
    Timeout,
}

/// What the SU state machine wants next.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SuAction {
    /// Send the frames just appended to the outbox, then wait: deliver
    /// the next frame as [`SuEvent::Frame`], or [`SuEvent::Timeout`]
    /// once `deadline` passes with none. Receiving a frame re-arms the
    /// *full* deadline.
    Wait {
        /// How long to wait for the next frame.
        deadline: Duration,
    },
    /// The session reached a terminal state.
    Finish(SessionOutcome),
}

/// Construction parameters shared by every Paillier SU engine of one
/// storm.
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

/// The SU side of one session: send the request, then retry it with
/// exponential backoff until a verifiable response, a definite denial,
/// or an exhausted budget.
pub struct SuSessionEngine<B: Backend = Paillier> {
    id: SuId,
    su: B::Su,
    request: B::Msg,
    digest: B::Digest,
    attempt: u32,
    max_retries: u32,
    corrupt_possible: bool,
    timeout: Duration,
    metrics: NetMetrics,
}

impl<B: Backend> SuSessionEngine<B> {
    /// A session in which SU `id` sends `request`, whose license must
    /// bind `digest`. `corrupt_possible` says whether any link can
    /// corrupt payloads, which decides if an unverifiable response is a
    /// denial or possibly a flipped bit.
    pub fn with_request(
        id: SuId,
        su: B::Su,
        request: B::Msg,
        digest: B::Digest,
        corrupt_possible: bool,
        engine: &EngineConfig,
        metrics: &NetMetrics,
    ) -> Self {
        SuSessionEngine {
            id,
            su,
            request,
            digest,
            attempt: 0,
            max_retries: engine.max_retries,
            corrupt_possible,
            timeout: engine.timeout,
            metrics: metrics.clone(),
        }
    }

    /// The SU this engine speaks for.
    pub fn su_id(&self) -> SuId {
        self.id
    }

    /// Kicks the session off: appends the attempt-0 request to `out`
    /// and returns its deadline.
    pub fn start(&self, out: &mut Outbox<B::Msg>) -> SuAction {
        self.send(out);
        self.wait()
    }

    /// Advances the state machine by one event, appending any frames
    /// to send to `out`.
    pub fn on_event(&mut self, event: SuEvent<B::Msg>, out: &mut Outbox<B::Msg>) -> SuAction {
        let session = u64::from(self.id.0);
        match event {
            SuEvent::Frame(frame) => match B::step(&frame.msg) {
                Step::Response { su, digest } if su == self.id && digest == self.digest => {
                    if B::verify(&self.su, &frame.msg) {
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
                    self.metrics.record_session_reject(session);
                    if self.attempt >= self.max_retries {
                        return self.finish(Some(false));
                    }
                    self.retry(out)
                }
                // Foreign digest, foreign SU, duplicate or
                // out-of-protocol message: reject and keep waiting out
                // a fresh full deadline.
                _ => {
                    self.metrics.record_session_reject(session);
                    self.wait()
                }
            },
            SuEvent::Timeout => {
                self.metrics.record_session_timeout(session);
                if self.attempt >= self.max_retries {
                    return self.finish(None);
                }
                self.retry(out)
            }
        }
    }

    fn send(&self, out: &mut Outbox<B::Msg>) {
        let frame = SessionMsg::new(u64::from(self.id.0), self.attempt, self.request.clone());
        out.push((Party::Sdc, frame));
    }

    fn retry(&mut self, out: &mut Outbox<B::Msg>) -> SuAction {
        self.attempt += 1;
        self.metrics.record_session_retry(u64::from(self.id.0));
        self.send(out);
        self.wait()
    }

    fn wait(&self) -> SuAction {
        SuAction::Wait {
            deadline: backoff(self.timeout, self.attempt),
        }
    }

    fn finish(&self, granted: Option<bool>) -> SuAction {
        SuAction::Finish(SessionOutcome {
            su_id: self.id,
            granted,
            attempts: self.attempt + 1,
        })
    }
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
        let id = su.id();
        let su = PaillierSu {
            client: su,
            signing: params.signing.clone(),
        };
        SuSessionEngine::with_request(
            id,
            su,
            PisaMessage::SuRequest(request),
            digest,
            params.corrupt_possible,
            params.engine,
            params.metrics,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every attempt's request frame shares the engine's ciphertexts, so
    /// a resend copies no entry of the encrypted request.
    #[test]
    fn resent_requests_share_the_encrypted_matrix() {
        use rand::SeedableRng;
        let rng = &mut StdRng::seed_from_u64(0x5e4d);
        let cfg = SystemConfig::small_test();
        let stp = StpServer::new(rng, cfg.paillier_bits());
        let sdc = SdcServer::new(cfg.clone(), stp.public_key().clone(), "sdc.resend", rng);
        let su = SuClient::new(SuId(4), pisa_radio::BlockId(1), &cfg, rng);
        let (engine, metrics) = (EngineConfig::default(), NetMetrics::new());
        let params = SuSessionParams {
            cfg: &cfg,
            pk_g: stp.public_key(),
            signing: sdc.signing_public_key(),
            corrupt_possible: false,
            engine: &engine,
            metrics: &metrics,
        };
        let mut machine = SuSessionEngine::new(su, &[Channel(0)], &params, rng);
        let storage = |m: &PisaMessage| match m {
            PisaMessage::SuRequest(r) => Some(r.f_matrix.ciphertexts().as_ptr()),
            _ => None,
        };
        let mut out = Vec::new();
        machine.start(&mut out);
        machine.on_event(SuEvent::Timeout, &mut out);
        assert_eq!(out.len(), 2);
        assert!(storage(&machine.request).is_some());
        for (_, frame) in &out {
            assert_eq!(storage(&frame.msg), storage(&machine.request));
        }
    }

    /// A backend whose messages carry their step in the clear. A query
    /// records which phase-1 run made it, so a resend (same blinding)
    /// is told apart from a re-blind.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Fm {
        Request { su: u32, digest: u8 },
        Query { su: u32, blinding: u32 },
        Reply { su: u32 },
        Response { su: u32, digest: u8, granted: bool },
        Update,
    }

    impl WireSize for Fm {
        fn wire_bytes(&self) -> usize {
            1
        }
    }

    struct Fake;

    /// SUs below `keys` are registered; phase 2 grants per `grant`, or
    /// fails with `fail` while it is set.
    struct FakeSdc {
        keys: u32,
        grant: bool,
        fail: Option<PisaError>,
        blindings: u32,
    }

    impl Backend for Fake {
        type Msg = Fm;
        type Digest = u8;
        type Sdc = FakeSdc;
        type Stp = u32;
        type Su = ();

        fn step(msg: &Fm) -> Step<u8> {
            match *msg {
                Fm::Request { su, digest } => Step::Request {
                    su: SuId(su),
                    digest,
                },
                Fm::Reply { su } => Step::Reply { su: SuId(su) },
                Fm::Response { su, digest, .. } => Step::Response {
                    su: SuId(su),
                    digest,
                },
                Fm::Query { .. } | Fm::Update => Step::Other,
            }
        }

        fn phase1(sdc: &mut FakeSdc, request: &Fm, _: &mut StdRng) -> Result<Fm, PisaError> {
            let Fm::Request { su, .. } = *request else {
                return Err(WRONG_STEP);
            };
            sdc.blindings += 1;
            Ok(Fm::Query {
                su,
                blinding: sdc.blindings,
            })
        }

        fn knows(sdc: &FakeSdc, su: SuId) -> bool {
            su.0 < sdc.keys
        }

        fn phase2(sdc: &mut FakeSdc, query: &Fm, _: &Fm, _: &mut StdRng) -> Result<Fm, PisaError> {
            if let Some(e) = sdc.fail.clone() {
                return Err(e);
            }
            let Fm::Query { su, .. } = *query else {
                return Err(WRONG_STEP);
            };
            Ok(Fm::Response {
                su,
                digest: 7,
                granted: sdc.grant,
            })
        }

        fn sign_test(keys: &u32, query: &Fm, _: &mut StdRng) -> Result<Fm, PisaError> {
            match *query {
                Fm::Query { su, .. } if su < *keys => Ok(Fm::Reply { su }),
                _ => Err(WRONG_STEP),
            }
        }

        fn verify(_: &(), response: &Fm) -> bool {
            matches!(response, Fm::Response { granted: true, .. })
        }
    }

    fn frame(su: u32, attempt: u32, msg: Fm) -> SessionMsg<Fm> {
        SessionMsg::new(u64::from(su), attempt, msg)
    }

    fn request(attempt: u32) -> SessionMsg<Fm> {
        frame(3, attempt, Fm::Request { su: 3, digest: 7 })
    }

    fn reply(attempt: u32) -> SessionMsg<Fm> {
        frame(3, attempt, Fm::Reply { su: 3 })
    }

    fn fake_sdc(metrics: &NetMetrics) -> SdcSessionEngine<Fake> {
        let sdc = FakeSdc {
            keys: 8,
            grant: true,
            fail: None,
            blindings: 0,
        };
        SdcSessionEngine::with_backend(sdc, metrics.clone(), 0)
    }

    fn handle(sdc: &mut SdcSessionEngine<Fake>, frame: SessionMsg<Fm>) -> Outbox<Fm> {
        let mut out = Vec::new();
        sdc.handle(frame, &mut out);
        out
    }

    fn query(attempt: u32, blinding: u32) -> Outbox<Fm> {
        vec![(Party::Stp, frame(3, attempt, Fm::Query { su: 3, blinding }))]
    }

    fn response(attempt: u32) -> Outbox<Fm> {
        let msg = Fm::Response {
            su: 3,
            digest: 7,
            granted: true,
        };
        vec![(Party::Su(3), frame(3, attempt, msg))]
    }

    fn rejects(metrics: &NetMetrics) -> u64 {
        metrics.session_totals().rejected
    }

    #[test]
    fn an_answered_attempt_replays_its_response() {
        let metrics = NetMetrics::new();
        let mut sdc = fake_sdc(&metrics);
        assert_eq!(handle(&mut sdc, request(0)), query(0, 1));
        assert_eq!(handle(&mut sdc, reply(0)), response(0));
        // A retry of the answered attempt: the same response, and no
        // second phase 1.
        assert_eq!(handle(&mut sdc, request(0)), response(0));
        assert_eq!(sdc.sdc.blindings, 1);
        assert_eq!(rejects(&metrics), 0);
    }

    #[test]
    fn a_stale_duplicate_of_a_superseded_attempt_is_rejected() {
        let metrics = NetMetrics::new();
        let mut sdc = fake_sdc(&metrics);
        handle(&mut sdc, request(0));
        handle(&mut sdc, request(1));
        assert_eq!(handle(&mut sdc, reply(1)), response(1));
        assert!(handle(&mut sdc, request(0)).is_empty());
        assert_eq!(sdc.sdc.blindings, 1);
        assert_eq!(rejects(&metrics), 1);
    }

    #[test]
    fn a_retry_in_flight_resends_the_query_under_the_newest_attempt() {
        let metrics = NetMetrics::new();
        let mut sdc = fake_sdc(&metrics);
        assert_eq!(handle(&mut sdc, request(0)), query(0, 1));
        // Same blinding every time: ε does not change under retries.
        assert_eq!(handle(&mut sdc, request(2)), query(2, 1));
        assert_eq!(handle(&mut sdc, request(1)), query(2, 1));
        // A request with another digest is a fresh phase 1.
        let other = frame(3, 3, Fm::Request { su: 3, digest: 8 });
        assert_eq!(handle(&mut sdc, other), query(3, 2));
    }

    #[test]
    fn a_reply_for_another_attempt_is_rejected() {
        let metrics = NetMetrics::new();
        let mut sdc = fake_sdc(&metrics);
        handle(&mut sdc, request(0));
        handle(&mut sdc, request(1));
        assert!(handle(&mut sdc, reply(0)).is_empty());
        assert_eq!(rejects(&metrics), 1);
        assert_eq!(handle(&mut sdc, reply(1)), response(1));
        // The consumed reply's duplicate finds no pending sign test.
        assert!(handle(&mut sdc, reply(1)).is_empty());
        assert_eq!(rejects(&metrics), 2);
    }

    #[test]
    fn a_reply_for_an_su_without_a_key_is_rejected_and_the_session_kept() {
        let metrics = NetMetrics::new();
        let mut sdc = fake_sdc(&metrics);
        sdc.sdc.keys = 3;
        handle(&mut sdc, request(0));
        assert!(handle(&mut sdc, reply(0)).is_empty());
        assert_eq!(rejects(&metrics), 1);
        // Still awaiting the STP: a retry resends, it does not re-blind.
        assert_eq!(handle(&mut sdc, request(0)), query(0, 1));
    }

    #[test]
    fn out_of_protocol_frames_are_rejected() {
        let metrics = NetMetrics::new();
        let mut sdc = fake_sdc(&metrics);
        let mut stp: StpSessionEngine<Fake> = StpSessionEngine::with_backend(8, metrics.clone(), 0);
        let query_msg = Fm::Query { su: 3, blinding: 1 };
        let stray = [
            Fm::Update,
            query_msg,
            Fm::Response {
                su: 3,
                digest: 7,
                granted: true,
            },
            // A reply with no phase-1 state behind it.
            Fm::Reply { su: 3 },
        ];
        for msg in stray {
            assert!(handle(&mut sdc, frame(3, 0, msg)).is_empty());
        }
        let mut out = Vec::new();
        for msg in [Fm::Update, Fm::Request { su: 3, digest: 7 }] {
            stp.handle(frame(3, 0, msg), &mut out);
        }
        // A query for an SU the STP holds no key for.
        stp.handle(frame(9, 0, Fm::Query { su: 9, blinding: 1 }), &mut out);
        assert!(out.is_empty());
        assert_eq!(rejects(&metrics), 7);
        // The STP answers a query under its session and attempt.
        stp.handle(frame(3, 4, query_msg), &mut out);
        assert_eq!(out, vec![(Party::Sdc, frame(3, 4, Fm::Reply { su: 3 }))]);
    }

    /// A shape mismatch leaves the SDC's phase-1 state in place, so the
    /// session survives; any other phase-2 failure drops it, and the
    /// next retry re-runs phase 1.
    #[test]
    fn a_failed_phase2_keeps_the_session_only_on_a_shape_mismatch() {
        let metrics = NetMetrics::new();
        let mut sdc = fake_sdc(&metrics);
        handle(&mut sdc, request(0));
        sdc.sdc.fail = Some(PisaError::DimensionMismatch {
            got: (1, 1),
            want: (2, 2),
        });
        assert!(handle(&mut sdc, reply(0)).is_empty());
        sdc.sdc.fail = None;
        assert_eq!(handle(&mut sdc, reply(0)), response(0));

        let metrics = NetMetrics::new();
        let mut sdc = fake_sdc(&metrics);
        handle(&mut sdc, request(0));
        sdc.sdc.fail = Some(PisaError::MissingRequestState(SuId(3)));
        assert!(handle(&mut sdc, reply(0)).is_empty());
        sdc.sdc.fail = None;
        assert!(handle(&mut sdc, reply(0)).is_empty());
        assert_eq!(rejects(&metrics), 2);
        assert_eq!(handle(&mut sdc, request(0)), query(0, 2));
    }

    fn su(corrupt_possible: bool, metrics: &NetMetrics) -> SuSessionEngine<Fake> {
        let engine = EngineConfig::default()
            .with_timeout(Duration::from_millis(10))
            .with_max_retries(2);
        let request = Fm::Request { su: 3, digest: 7 };
        SuSessionEngine::with_request(SuId(3), (), request, 7, corrupt_possible, &engine, metrics)
    }

    fn answer(granted: bool, attempt: u32) -> SuEvent<Fm> {
        let msg = Fm::Response {
            su: 3,
            digest: 7,
            granted,
        };
        SuEvent::Frame(frame(3, attempt, msg))
    }

    fn wait(ms: u64) -> SuAction {
        SuAction::Wait {
            deadline: Duration::from_millis(ms),
        }
    }

    fn finish(granted: Option<bool>, attempts: u32) -> SuAction {
        SuAction::Finish(SessionOutcome {
            su_id: SuId(3),
            granted,
            attempts,
        })
    }

    #[test]
    fn a_verified_grant_is_final() {
        let metrics = NetMetrics::new();
        let mut su = su(true, &metrics);
        let mut out = Vec::new();
        assert_eq!(su.start(&mut out), wait(10));
        assert_eq!(out, vec![(Party::Sdc, request(0))]);
        out.clear();
        assert_eq!(
            su.on_event(answer(true, 0), &mut out),
            finish(Some(true), 1)
        );
        assert!(out.is_empty());
    }

    #[test]
    fn an_unverifiable_response_is_a_denial_on_links_that_cannot_corrupt() {
        let metrics = NetMetrics::new();
        let mut su = su(false, &metrics);
        let mut out = Vec::new();
        su.start(&mut out);
        assert_eq!(
            su.on_event(answer(false, 0), &mut out),
            finish(Some(false), 1)
        );
        assert_eq!(rejects(&metrics), 0);
    }

    /// With corruption possible, a denial and a flipped bit look alike:
    /// each unverifiable response costs a retry until the budget is
    /// spent, and then it is a denial.
    #[test]
    fn an_unverifiable_response_retries_while_corruption_is_possible() {
        let metrics = NetMetrics::new();
        let mut su = su(true, &metrics);
        let mut out = Vec::new();
        su.start(&mut out);
        out.clear();
        assert_eq!(su.on_event(answer(false, 0), &mut out), wait(20));
        assert_eq!(out, vec![(Party::Sdc, request(1))]);
        assert_eq!(su.on_event(answer(false, 1), &mut out), wait(40));
        assert_eq!(
            su.on_event(answer(false, 2), &mut out),
            finish(Some(false), 3)
        );
        assert_eq!(out.len(), 2);
        let totals = metrics.session_totals();
        assert_eq!((totals.rejected, totals.retries), (3, 2));
    }

    #[test]
    fn timeouts_spend_the_budget_and_leave_the_session_undecided() {
        let metrics = NetMetrics::new();
        let mut su = su(false, &metrics);
        let mut out = Vec::new();
        su.start(&mut out);
        assert_eq!(su.on_event(SuEvent::Timeout, &mut out), wait(20));
        assert_eq!(su.on_event(SuEvent::Timeout, &mut out), wait(40));
        assert_eq!(su.on_event(SuEvent::Timeout, &mut out), finish(None, 3));
        let sent: Vec<u32> = out.iter().map(|(_, f)| f.attempt).collect();
        assert_eq!(sent, vec![0, 1, 2]);
        let totals = metrics.session_totals();
        assert_eq!((totals.timeouts, totals.retries), (3, 2));
    }

    /// A foreign SU's response, a foreign digest or a stray frame is
    /// rejected, and the SU waits out its current deadline again in
    /// full, sending nothing.
    #[test]
    fn a_foreign_frame_rearms_the_full_deadline() {
        let metrics = NetMetrics::new();
        let mut su = su(true, &metrics);
        let mut out = Vec::new();
        su.start(&mut out);
        su.on_event(SuEvent::Timeout, &mut out);
        out.clear();
        let foreign = [
            frame(
                4,
                1,
                Fm::Response {
                    su: 4,
                    digest: 7,
                    granted: true,
                },
            ),
            frame(
                3,
                1,
                Fm::Response {
                    su: 3,
                    digest: 8,
                    granted: true,
                },
            ),
            request(1),
        ];
        for f in foreign {
            assert_eq!(su.on_event(SuEvent::Frame(f), &mut out), wait(20));
        }
        assert!(out.is_empty());
        assert_eq!(rejects(&metrics), 3);
    }
}
