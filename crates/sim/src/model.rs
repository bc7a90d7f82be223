//! The plaintext backend: the session protocol without the
//! cryptography.
//!
//! A 10⁵-session storm cannot run real Paillier in CI, but almost none
//! of the *resilience* behaviour depends on the ciphertexts: grant/deny
//! decisions are a pure function of the plaintext WATCH matrices, and
//! the retry/replay/reject rules key on session ids, attempt counters
//! and request digests. [`Plaintext`] therefore backs `pisa-core`'s own
//! session engines with a small [`ModelPayload`] whose wire size is
//! computed analytically (exactly how the real messages size
//! themselves) and whose decisions come from the plaintext
//! [`WatchSdc`] oracle — the same oracle the watch-equivalence tests
//! pin the encrypted pipeline against.

use pisa::{Backend, EngineConfig, PisaError, SessionMsg, Step, SuId, SuSessionEngine};
use pisa_net::{NetMetrics, WireSize};
use pisa_radio::tv::Channel;
use pisa_radio::BlockId;
use pisa_watch::{PuInput, SuRequest, WatchConfig, WatchSdc};
use rand::rngs::StdRng;
use std::collections::HashMap;

/// Bytes of the inner message header, as in the real codec.
const HEADER_BYTES: usize = 64;
/// Modeled size of a serialized license (id, serial, digest, padding).
const MODEL_LICENSE_BYTES: usize = 96;

/// A modeled message, mirroring the four in-session `PisaMessage`
/// variants. It rides in the same [`SessionMsg`] envelope as a real
/// one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelPayload {
    /// SU → SDC encrypted request (`F̃`).
    Request {
        /// The requesting SU (mirrors `SuRequestMsg::su_id`).
        su: u32,
        /// Digest of the request content (mirrors the license digest
        /// over the `F̃` ciphertexts; corruption perturbs it).
        digest: u64,
    },
    /// SDC → STP blinded sign-test query (`Ṽ`).
    Query {
        /// Session owner.
        su: u32,
        /// Content digest carried through the round.
        digest: u64,
    },
    /// STP → SDC key-converted reply (`X̃`).
    Reply {
        /// Session owner.
        su: u32,
        /// Content digest carried through the round.
        digest: u64,
    },
    /// SDC → SU license release (`G̃`).
    Response {
        /// The SU named in the license.
        su: u32,
        /// Digest the license binds to (the SU rejects mismatches).
        digest: u64,
        /// Whether the plaintext decision granted the request.
        granted: bool,
        /// Whether the signature ciphertext was mangled in transit: a
        /// garbled response never verifies, like a flipped bit in
        /// `G̃` — and, like the real RSA signature, corruption can
        /// garble a grant but never forge one.
        garbled: bool,
    },
}

/// A modeled frame: the session envelope around a [`ModelPayload`].
pub type ModelFrame = SessionMsg<ModelPayload>;

/// Analytic wire sizes, mirroring the formulas in `pisa-core`'s message
/// types: matrix-bearing messages cost `channels × blocks` ciphertexts,
/// the response one ciphertext plus a license.
struct ModelWire {
    matrix: usize,
    response: usize,
}

impl ModelWire {
    const fn new(channels: usize, blocks: usize, ct_bytes: usize) -> Self {
        ModelWire {
            matrix: HEADER_BYTES + channels * blocks * ct_bytes,
            response: HEADER_BYTES + MODEL_LICENSE_BYTES + ct_bytes,
        }
    }
}

/// The sizes of the canonical storm, which runs on
/// `SystemConfig::small_test`: 4 channels × 25 blocks of 96-byte
/// ciphertexts (384-bit keys). Fixed here rather than carried in every
/// frame, so a modeled frame stays at 32 bytes.
const WIRE: ModelWire = ModelWire::new(4, 25, 96);

impl WireSize for ModelPayload {
    fn wire_bytes(&self) -> usize {
        match self {
            ModelPayload::Response { .. } => WIRE.response,
            _ => WIRE.matrix,
        }
    }
}

/// The canonical request digest of one SU's (only) request — the model
/// analog of `License::digest_request` over its ciphertexts.
pub fn model_digest(su: u32) -> u64 {
    let mut z = 0x00d1_6e57_u64 ^ (u64::from(su) << 1);
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z ^ (z >> 31)
}

/// The corruption oracle for modeled frames: a deterministic stand-in
/// for "flip one bit of the encoded frame and re-parse". Depending on
/// the tweak the flip lands in dead padding (absorbed), a header field
/// (attempt / session), the content (digest), or — for responses — the
/// signature ciphertext (garbled). Like the real oracle it never turns
/// a denial into a verifiable grant.
pub fn corrupt_model_frame(frame: &ModelFrame, tweak: u64) -> Option<ModelFrame> {
    let mut m = *frame;
    match tweak % 6 {
        // The flip lands somewhere the decoder chokes on: absorbed.
        0 => None,
        // Header attempt counter.
        1 => {
            m.attempt ^= 1 << (tweak >> 3 & 0x7);
            Some(m)
        }
        // Header session id.
        2 => {
            m.session ^= 1 << (tweak >> 3 & 0x3f);
            Some(m)
        }
        // Payload identity: the embedded SU id.
        3 => {
            let flip = 1u32 << (tweak >> 3 & 0x7);
            match &mut m.msg {
                ModelPayload::Request { su, .. }
                | ModelPayload::Query { su, .. }
                | ModelPayload::Reply { su, .. }
                | ModelPayload::Response { su, .. } => *su ^= flip,
            }
            Some(m)
        }
        // Payload content: the digest.
        4 => {
            let flip = (tweak >> 3) | 1;
            match &mut m.msg {
                ModelPayload::Request { digest, .. }
                | ModelPayload::Query { digest, .. }
                | ModelPayload::Reply { digest, .. }
                | ModelPayload::Response { digest, .. } => *digest ^= flip,
            }
            Some(m)
        }
        // The ciphertext: responses garble (unverifiable, never
        // forged), matrix messages take a content flip instead.
        _ => {
            match &mut m.msg {
                ModelPayload::Response { garbled, .. } => *garbled = true,
                ModelPayload::Request { digest, .. }
                | ModelPayload::Query { digest, .. }
                | ModelPayload::Reply { digest, .. } => *digest ^= 0x8000_0000_0000_0001,
            }
            Some(m)
        }
    }
}

/// The plaintext decision oracle: one [`WatchSdc`] with the storm's PU
/// population applied, memoized per `(block, channel)` — 10⁵ SUs share
/// at most `blocks × channels` distinct decisions.
pub struct ModelOracle {
    watch: WatchSdc,
    cfg: WatchConfig,
    channels: usize,
    blocks: usize,
    cache: HashMap<(usize, usize), bool>,
}

impl ModelOracle {
    /// Builds the oracle for the canonical storm population
    /// (`pisa::storm_fixture`): one PU at block 0 tuned to channel 0,
    /// SU `i` at block `i % blocks` requesting channel `i % channels`.
    pub fn new(cfg: &WatchConfig) -> Self {
        let mut watch = WatchSdc::new(cfg.clone());
        watch.pu_update(0, PuInput::tuned(cfg, BlockId(0), Channel(0)));
        ModelOracle {
            watch,
            cfg: cfg.clone(),
            channels: cfg.channels(),
            blocks: cfg.blocks(),
            cache: HashMap::new(),
        }
    }

    /// Whether a full-power request at `block` for `channel` is
    /// granted.
    pub fn decision(&mut self, block: usize, channel: usize) -> bool {
        let block = block % self.blocks;
        let channel = channel % self.channels;
        if let Some(&cached) = self.cache.get(&(block, channel)) {
            return cached;
        }
        let req = SuRequest::full_power(&self.cfg, BlockId(block), &[Channel(channel)]);
        let granted = self.watch.process_request(&req).is_granted();
        self.cache.insert((block, channel), granted);
        granted
    }

    /// The decision for storm SU `i` under the canonical placement.
    pub fn su_decision(&mut self, su: u32) -> bool {
        let su = su as usize; // pisa-lint: allow(panic-freedom): u32 → usize never truncates
        self.decision(su % self.blocks, su % self.channels)
    }
}

/// The plaintext backend: each step of paper Fig. 5 as its plaintext
/// effect on a [`ModelPayload`], with the decision from a
/// [`ModelOracle`].
pub struct Plaintext;

/// The plaintext SDC: the oracle phase 2 decides with, and the number
/// of registered SUs (SU `i` is registered iff `i < sus`).
pub struct PlainSdc {
    /// The decision oracle.
    pub oracle: ModelOracle,
    /// Registered SUs.
    pub sus: u32,
}

/// The session of storm SU `su`: its one request, and the canonical
/// digest its license must bind.
pub fn su_session(
    su: u32,
    corrupt_possible: bool,
    engine: &EngineConfig,
    metrics: &NetMetrics,
) -> SuSessionEngine<Plaintext> {
    let digest = model_digest(su);
    let request = ModelPayload::Request { su, digest };
    SuSessionEngine::with_request(
        SuId(su),
        (),
        request,
        digest,
        corrupt_possible,
        engine,
        metrics,
    )
}

/// A backend step handed a message of another step.
const WRONG_STEP: PisaError = PisaError::EngineFailure("message is not this protocol step");

impl Backend for Plaintext {
    type Msg = ModelPayload;
    type Digest = u64;
    type Sdc = PlainSdc;
    /// The registered SUs: SU `i` has a key iff `i` is below it.
    type Stp = u32;
    type Su = ();

    fn step(msg: &ModelPayload) -> Step<u64> {
        match *msg {
            ModelPayload::Request { su, digest } => Step::Request {
                su: SuId(su),
                digest,
            },
            ModelPayload::Reply { su, .. } => Step::Reply { su: SuId(su) },
            ModelPayload::Response { su, digest, .. } => Step::Response {
                su: SuId(su),
                digest,
            },
            ModelPayload::Query { .. } => Step::Other,
        }
    }

    fn phase1(
        _sdc: &mut PlainSdc,
        request: &ModelPayload,
        _rng: &mut StdRng,
    ) -> Result<ModelPayload, PisaError> {
        match *request {
            ModelPayload::Request { su, digest } => Ok(ModelPayload::Query { su, digest }),
            _ => Err(WRONG_STEP),
        }
    }

    fn knows(sdc: &PlainSdc, su: SuId) -> bool {
        su.0 < sdc.sus
    }

    fn phase2(
        sdc: &mut PlainSdc,
        query: &ModelPayload,
        _reply: &ModelPayload,
        _rng: &mut StdRng,
    ) -> Result<ModelPayload, PisaError> {
        let ModelPayload::Query { su, digest } = *query else {
            return Err(WRONG_STEP);
        };
        // A digest that is not the SU's canonical one is a corrupted
        // request: garbage plaintexts can never satisfy every budget,
        // so it resolves to a denial — exactly like the encrypted path.
        let granted = digest == model_digest(su) && sdc.oracle.su_decision(su);
        Ok(ModelPayload::Response {
            su,
            digest,
            granted,
            garbled: false,
        })
    }

    fn sign_test(
        sus: &u32,
        query: &ModelPayload,
        _rng: &mut StdRng,
    ) -> Result<ModelPayload, PisaError> {
        match *query {
            ModelPayload::Query { su, digest } if su < *sus => {
                Ok(ModelPayload::Reply { su, digest })
            }
            ModelPayload::Query { su, .. } => Err(PisaError::UnknownSu(SuId(su))),
            _ => Err(WRONG_STEP),
        }
    }

    fn verify(_su: &(), response: &ModelPayload) -> bool {
        matches!(
            response,
            ModelPayload::Response {
                granted: true,
                garbled: false,
                ..
            }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pisa::{SdcSessionEngine, StpSessionEngine, SuAction, SuEvent, SystemConfig};
    use pisa_net::Party;

    fn frame(session: u64, attempt: u32, msg: ModelPayload) -> ModelFrame {
        SessionMsg::new(session, attempt, msg)
    }

    fn sdc(sus: u32, oracle: ModelOracle, metrics: &NetMetrics) -> SdcSessionEngine<Plaintext> {
        let sdc = PlainSdc { oracle, sus };
        SdcSessionEngine::with_backend(sdc, metrics.clone(), 0)
    }

    fn stp(sus: u32, metrics: &NetMetrics) -> StpSessionEngine<Plaintext> {
        StpSessionEngine::with_backend(sus, metrics.clone(), 0)
    }

    /// One frame through a service engine: its outbound frames.
    fn through<F: FnOnce(&mut Vec<(Party, ModelFrame)>)>(handle: F) -> Vec<(Party, ModelFrame)> {
        let mut out = Vec::new();
        handle(&mut out);
        out
    }

    #[test]
    fn wire_sizes_mirror_real_formulas() {
        // The canonical storm's configuration fixes the sizes.
        let cfg = SystemConfig::small_test();
        let ct_bytes = cfg.paillier_bits() * 2 / 8;
        let matrix = cfg.channels() * cfg.blocks() * ct_bytes;
        // 12 (session header) + 64 (message header) + 4·25·96.
        assert_eq!(matrix, 9600);
        let request = frame(0, 0, ModelPayload::Request { su: 0, digest: 1 });
        assert_eq!(request.wire_bytes(), 12 + 64 + matrix);
        let response = ModelPayload::Response {
            su: 0,
            digest: 1,
            granted: true,
            garbled: false,
        };
        assert_eq!(frame(0, 0, response).wire_bytes(), 12 + 64 + 96 + ct_bytes);
        // Every pending event slot holds a frame, so it stays small.
        assert_eq!(std::mem::size_of::<ModelFrame>(), 32);
    }

    #[test]
    fn corruption_is_deterministic_and_never_forges_a_grant() {
        let denied = frame(
            3,
            1,
            ModelPayload::Response {
                su: 3,
                digest: model_digest(3),
                granted: false,
                garbled: false,
            },
        );
        for tweak in 0..4096u64 {
            let a = corrupt_model_frame(&denied, tweak);
            let b = corrupt_model_frame(&denied, tweak);
            assert_eq!(a, b, "oracle must be deterministic");
            if let Some(m) = a {
                assert_ne!(m, denied, "a corrupted frame must differ");
                if let ModelPayload::Response {
                    su,
                    digest,
                    granted,
                    garbled,
                } = m.msg
                {
                    let verifiable = granted
                        && !garbled
                        && su == 3
                        && digest == model_digest(3)
                        && m.session == denied.session;
                    assert!(!verifiable, "tweak {tweak} forged a grant");
                }
            }
        }
    }

    #[test]
    fn oracle_matches_watch_decisions_and_caches() {
        let cfg = WatchConfig::small_test();
        let mut oracle = ModelOracle::new(&cfg);
        // SU 0 sits on the PU's block and channel: denied.
        assert!(!oracle.su_decision(0));
        // Far block on another channel: granted.
        let far = (cfg.blocks() - 2) as u32 * cfg.channels() as u32 + 1;
        let _ = oracle.su_decision(far);
        // Cache stays bounded by the grid.
        for su in 0..1000 {
            let _ = oracle.su_decision(su);
        }
        assert!(oracle.cache.len() <= cfg.blocks() * cfg.channels());
    }

    #[test]
    fn quiet_round_grants_per_oracle() {
        let cfg = WatchConfig::small_test();
        let metrics = NetMetrics::new();
        let mut oracle = ModelOracle::new(&cfg);
        let su_id = 5u32;
        let expect = oracle.su_decision(su_id);
        let mut sdc = sdc(16, oracle, &metrics);
        let mut stp = stp(16, &metrics);
        let mut su = su_session(su_id, false, &EngineConfig::default(), &metrics);

        let mut sends = Vec::new();
        let SuAction::Wait { .. } = su.start(&mut sends) else {
            panic!("fresh session cannot be terminal");
        };
        let query = through(|out| sdc.handle(sends[0].1, out));
        assert_eq!(query.len(), 1);
        assert_eq!(query[0].0, Party::Stp);
        let reply = through(|out| stp.handle(query[0].1, out));
        let response = through(|out| sdc.handle(reply[0].1, out));
        assert_eq!(response[0].0, Party::Su(su_id));
        match su.on_event(SuEvent::Frame(response[0].1), &mut sends) {
            SuAction::Finish(outcome) => {
                assert_eq!(outcome.granted, Some(expect));
                assert_eq!(outcome.attempts, 1);
            }
            SuAction::Wait { .. } => panic!("matching response must be terminal"),
        }
    }

    #[test]
    fn replayed_request_is_idempotent_and_stale_reply_rejected() {
        let cfg = WatchConfig::small_test();
        let metrics = NetMetrics::new();
        let mut sdc = sdc(8, ModelOracle::new(&cfg), &metrics);
        let mut stp = stp(8, &metrics);
        let req = frame(
            2,
            0,
            ModelPayload::Request {
                su: 2,
                digest: model_digest(2),
            },
        );
        let q1 = through(|out| sdc.handle(req, out));
        // Duplicate request while awaiting the STP: resend, not
        // re-blind (same query again).
        let q2 = through(|out| sdc.handle(req, out));
        assert_eq!(q1, q2);
        let reply = through(|out| stp.handle(q1[0].1, out));
        let r1 = through(|out| sdc.handle(reply[0].1, out));
        assert!(matches!(
            r1[0].1.msg,
            ModelPayload::Response { garbled: false, .. }
        ));
        // Replay of the answered request: identical response, no state
        // change.
        let r2 = through(|out| sdc.handle(req, out));
        assert_eq!(r1, r2);
        // A duplicate of the consumed reply is rejected.
        let rejected = through(|out| sdc.handle(reply[0].1, out));
        assert!(rejected.is_empty());
        assert!(metrics.session_totals().rejected >= 1);
    }

    #[test]
    fn su_timeout_exhaustion_and_full_deadline_rearm() {
        let metrics = NetMetrics::new();
        let engine = EngineConfig::default().with_max_retries(2);
        let mut su = su_session(1, true, &engine, &metrics);
        let base = engine.timeout;
        let mut out = Vec::new();
        assert_eq!(su.start(&mut out), SuAction::Wait { deadline: base });
        out.clear();
        // Foreign frame: reject, re-arm the FULL current deadline, no
        // sends.
        let foreign = frame(9, 0, ModelPayload::Request { su: 9, digest: 0 });
        assert_eq!(
            su.on_event(SuEvent::Frame(foreign), &mut out),
            SuAction::Wait { deadline: base }
        );
        assert!(out.is_empty());
        // Timeouts: exponential backoff, then budget exhaustion.
        assert_eq!(
            su.on_event(SuEvent::Timeout, &mut out),
            SuAction::Wait { deadline: base * 2 }
        );
        assert_eq!(out.len(), 1);
        let _ = su.on_event(SuEvent::Timeout, &mut out);
        match su.on_event(SuEvent::Timeout, &mut out) {
            SuAction::Finish(outcome) => {
                assert_eq!(outcome.granted, None);
                assert_eq!(outcome.attempts, 3);
            }
            SuAction::Wait { .. } => panic!("budget of 2 retries must be exhausted"),
        }
        assert_eq!(metrics.session_totals().timeouts, 3);
        assert_eq!(metrics.session_totals().retries, 2);
    }
}
