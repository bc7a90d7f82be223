//! Golden-trace record/replay: a storm's full message sequence as a
//! versioned, checksummed regression artifact.
//!
//! A storm driven single-threaded over a quiet FIFO network
//! ([`run_storm`](crate::run_storm)) is fully deterministic: the
//! fixture, every RNG stream and the dispatch order all derive from
//! `(sessions, seed)`. [`record_storm`] captures every
//! [`SessionMsg`] such a storm sends — sender, recipient and the exact
//! wire frame — into a [`StormTrace`]; [`replay_storm`] re-runs the
//! same storm through the *current* engines and byte-compares each
//! frame against the recording. Any divergence (a protocol change, a
//! serialization change, an RNG-stream change) is pinpointed to the
//! first differing record.
//!
//! Two golden traces are checked into `tests/data/` and replayed by the
//! tier-1 `golden_trace` test, so a refactor that silently changes the
//! wire traffic fails CI instead of shipping.
//!
//! The file container mirrors the checkpoint format in
//! [`crate::durable`]: magic, version, header, records, SHA-256
//! trailer; decoding treats the file as adversarial (bounded counts,
//! checksum before parsing).

use crate::error::PisaError;
use crate::netstorm::storm_fixture;
use crate::session::{run_fifo, SessionMsg, SessionOutcome};
use pisa_crypto::sha256::sha256;
use pisa_net::codec::{CodecError, Reader, Writer};
use pisa_net::Party;

/// File magic identifying a PISA storm trace.
pub const TRACE_MAGIC: [u8; 8] = *b"PISATRCE";

/// Trace container format version.
pub const TRACE_VERSION: u8 = 1;

/// SHA-256 trailer width.
const CHECKSUM_BYTES: usize = 32;

/// Smallest possible encoded record: two 5-byte parties plus a u32
/// length prefix. Bounds the record-count pre-allocation.
const MIN_RECORD_BYTES: usize = 5 + 5 + 4;

const PARTY_SDC: u8 = 0;
const PARTY_STP: u8 = 1;
const PARTY_PU: u8 = 2;
const PARTY_SU: u8 = 3;

/// One message send: who sent it, who it was addressed to, and the
/// exact encoded [`SessionMsg`] frame.
#[derive(Debug, Clone)]
pub struct TraceRecord {
    /// The sending party.
    pub from: Party,
    /// The addressed party.
    pub to: Party,
    /// The encoded [`SessionMsg`] wire frame.
    pub frame: bytes::Bytes,
}

/// A recorded storm: its defining `(sessions, seed)` pair and every
/// message sent, in dispatch order.
#[derive(Debug, Clone)]
pub struct StormTrace {
    /// Number of SU sessions in the recorded storm.
    pub sessions: u32,
    /// The storm seed the whole system state derives from.
    pub seed: u64,
    /// Every message send, in order.
    pub records: Vec<TraceRecord>,
}

fn put_party(w: &mut Writer, p: Party) {
    let (kind, idx) = match p {
        Party::Sdc => (PARTY_SDC, 0),
        Party::Stp => (PARTY_STP, 0),
        Party::Pu(i) => (PARTY_PU, i),
        Party::Su(i) => (PARTY_SU, i),
    };
    w.put_u8(kind);
    w.put_u32(idx);
}

fn get_party(r: &mut Reader<'_>) -> Result<Party, CodecError> {
    let kind = r.get_u8()?;
    let idx = r.get_u32()?;
    match kind {
        PARTY_SDC => Ok(Party::Sdc),
        PARTY_STP => Ok(Party::Stp),
        PARTY_PU => Ok(Party::Pu(idx)),
        PARTY_SU => Ok(Party::Su(idx)),
        other => Err(CodecError::BadTag(other)),
    }
}

impl StormTrace {
    /// Serializes the trace, appending the SHA-256 trailer.
    ///
    /// # Errors
    ///
    /// [`CodecError::BadLength`] if the record count cannot fit the
    /// wire's `u32`, or any frame exceeds the length-prefix ceiling.
    pub fn encode(&self) -> Result<bytes::Bytes, CodecError> {
        let mut w = Writer::with_capacity(
            32 + self
                .records
                .iter()
                .map(|rec| rec.frame.len() + MIN_RECORD_BYTES)
                .sum::<usize>(),
        );
        w.put_raw(&TRACE_MAGIC);
        w.put_u8(TRACE_VERSION);
        w.put_u32(self.sessions);
        w.put_u64(self.seed);
        let count = u32::try_from(self.records.len())
            .map_err(|_| CodecError::BadLength(self.records.len() as u64))?;
        w.put_u32(count);
        for rec in &self.records {
            put_party(&mut w, rec.from);
            put_party(&mut w, rec.to);
            w.put_bytes(&rec.frame)?;
        }
        let body = w.finish();
        let digest = sha256(&body);
        let mut framed = Writer::with_capacity(body.len() + CHECKSUM_BYTES);
        framed.put_raw(&body);
        framed.put_raw(&digest);
        Ok(framed.finish())
    }

    /// Parses and integrity-checks a trace file.
    ///
    /// # Errors
    ///
    /// [`CodecError::Invalid`] on a bad magic, version or checksum;
    /// [`CodecError::Oversized`] when the declared record count exceeds
    /// what the file could hold; any other [`CodecError`] on truncated
    /// or malformed bytes. Every frame must decode as a [`SessionMsg`].
    pub fn decode(file: &[u8]) -> Result<StormTrace, CodecError> {
        if file.len() < TRACE_MAGIC.len() + 1 + 4 + 8 + 4 + CHECKSUM_BYTES {
            return Err(CodecError::UnexpectedEof);
        }
        let (body, trailer) = file.split_at(file.len() - CHECKSUM_BYTES);
        if sha256(body) != *trailer {
            return Err(CodecError::Invalid("trace checksum mismatch".into()));
        }
        let mut r = Reader::new(body);
        if r.get_raw(TRACE_MAGIC.len())? != TRACE_MAGIC {
            return Err(CodecError::Invalid("not a PISA storm trace".into()));
        }
        let version = r.get_u8()?;
        if version != TRACE_VERSION {
            return Err(CodecError::Invalid(format!(
                "unsupported trace version {version}"
            )));
        }
        let sessions = r.get_u32()?;
        let seed = r.get_u64()?;
        let count = crate::wire::widen(r.get_u32()?);
        let most = r.remaining() / MIN_RECORD_BYTES;
        if count > most {
            return Err(CodecError::Oversized(count as u64, most as u64));
        }
        let mut records = Vec::with_capacity(count);
        for _ in 0..count {
            let from = get_party(&mut r)?;
            let to = get_party(&mut r)?;
            let frame = r.get_bytes()?;
            // Frames must be structurally valid protocol messages, not
            // arbitrary blobs a replay would choke on later.
            SessionMsg::decode(frame)?;
            records.push(TraceRecord {
                from,
                to,
                frame: bytes::Bytes::copy_from_slice(frame),
            });
        }
        r.finish()?;
        Ok(StormTrace {
            sessions,
            seed,
            records,
        })
    }
}

/// Outcome of replaying a golden trace against the current engines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplayReport {
    /// Records the recorded trace holds.
    pub recorded: usize,
    /// Records the replay produced.
    pub replayed: usize,
    /// Index of the first diverging record (`None` = byte-identical).
    pub divergence: Option<usize>,
}

impl ReplayReport {
    /// `true` when the replay reproduced the recording byte for byte.
    pub fn matches(&self) -> bool {
        self.divergence.is_none() && self.recorded == self.replayed
    }
}

/// Records a deterministic storm: the [`run_storm`](crate::run_storm)
/// loop over [`storm_fixture`]`(sessions, seed)`, with every frame
/// encoded as it is dispatched. Returns the trace and the per-SU
/// outcomes (sorted by SU id).
///
/// # Errors
///
/// Any fixture construction error; [`PisaError::EngineFailure`] if a
/// session fails to terminate (cannot happen on a quiet network unless
/// the protocol itself regresses); [`PisaError::Durable`] if a frame
/// fails to encode.
pub fn record_storm(
    sessions: u32,
    seed: u64,
) -> Result<(StormTrace, Vec<SessionOutcome>), PisaError> {
    let mut records = Vec::new();
    let (report, _sdc, _stp) = run_fifo(storm_fixture(sessions, seed)?, seed, |from, to, msg| {
        let frame = msg
            .encode()
            .map_err(|e| PisaError::Durable(format!("trace frame encode failed: {e}")))?;
        records.push(TraceRecord { from, to, frame });
        Ok(())
    })?;
    Ok((
        StormTrace {
            sessions,
            seed,
            records,
        },
        report.outcomes,
    ))
}

/// Replays a recorded storm through the current engines and
/// byte-compares every frame against the recording.
///
/// # Errors
///
/// Whatever [`record_storm`] reports for the trace's `(sessions,
/// seed)` pair.
pub fn replay_storm(trace: &StormTrace) -> Result<ReplayReport, PisaError> {
    let (fresh, _outcomes) = record_storm(trace.sessions, trace.seed)?;
    let divergence = trace
        .records
        .iter()
        .zip(fresh.records.iter())
        .position(|(a, b)| a.from != b.from || a.to != b.to || a.frame != b.frame)
        .or_else(|| {
            (trace.records.len() != fresh.records.len())
                .then(|| trace.records.len().min(fresh.records.len()))
        });
    Ok(ReplayReport {
        recorded: trace.records.len(),
        replayed: fresh.records.len(),
        divergence,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_is_deterministic_and_replays() {
        let (trace, outcomes) = record_storm(2, 0x7ace).expect("record");
        assert_eq!(trace.sessions, 2);
        assert!(!trace.records.is_empty());
        assert_eq!(outcomes.len(), 2);
        assert!(outcomes.iter().all(|o| o.granted.is_some()));

        let report = replay_storm(&trace).expect("replay");
        assert!(report.matches(), "{report:?}");
    }

    #[test]
    fn file_roundtrip_is_byte_identical() {
        let (trace, _) = record_storm(2, 0x7ace).expect("record");
        let file = trace.encode().expect("encode");
        let back = StormTrace::decode(&file).expect("decode");
        assert_eq!(back.encode().expect("re-encode"), file);
        assert_eq!(back.records.len(), trace.records.len());
    }

    #[test]
    fn tampered_file_rejected() {
        let (trace, _) = record_storm(2, 0x7ace).expect("record");
        let file = trace.encode().expect("encode").to_vec();
        // Flip a byte in the middle of the body: checksum catches it.
        let mut bad = file.clone();
        bad[file.len() / 2] ^= 0x40;
        assert!(StormTrace::decode(&bad).is_err());
        // Truncations at every boundary are rejected, never panicked on.
        for cut in [0, 7, 12, file.len() / 2, file.len() - 1] {
            assert!(StormTrace::decode(&file[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn a_diverging_trace_is_flagged() {
        let (mut trace, _) = record_storm(2, 0x7ace).expect("record");
        // Pretend the recording had one extra trailing record.
        let Some(first) = trace.records.first().cloned() else {
            panic!("trace must have records");
        };
        trace.records.push(first);
        let report = replay_storm(&trace).expect("replay");
        assert!(!report.matches());
        assert_eq!(report.divergence, Some(report.replayed));
    }
}
