//! Durable checkpoints: atomic, integrity-checked on-disk state.
//!
//! The SDC re-aggregates the encrypted budget matrix `Ñ` from scratch
//! at ~seconds per update, so losing SDC state on a crash is the single
//! most expensive failure in a deployment. This module packages the
//! serialized state of a service (SDC matrix + pending phase-1 sessions,
//! engine session table, STP key directory) into a [`Checkpoint`]
//! container and writes it **atomically**: the frame is written to
//! `<name>.tmp`, fsynced, then renamed over `<name>`. A crash at any
//! point leaves either the previous complete checkpoint or the new
//! complete checkpoint — never a torn file.
//!
//! # Container format
//!
//! ```text
//! magic    8 bytes  "PISACKPT"
//! version  u8       CHECKPOINT_VERSION
//! gen      u64      checkpoint generation (monotonic per service)
//! count    u32      number of sections
//! sections count ×  { kind: u8, payload: length-prefixed bytes }
//! checksum 32 bytes SHA-256 over every preceding byte
//! ```
//!
//! Sections are opaque length-prefixed frames tagged by a `kind` byte
//! ([`SECTION_SDC_SNAPSHOT`], [`SECTION_SDC_SESSIONS`],
//! [`SECTION_STP_DIRECTORY`]); each payload carries its own format
//! version so sections evolve independently of the container.
//!
//! # What a checkpoint is *not*
//!
//! Checkpoints are **plaintext state dumps, not sealed storage**: the
//! SDC section embeds the RSA signing key and the per-SU blinding sign
//! vectors ε (see `SdcServer::snapshot`). The state directory must have
//! the same protection as the service's key material.

use pisa_crypto::sha256::sha256;
use pisa_net::codec::{CodecError, Reader, Writer};
use std::error::Error;
use std::fmt;
use std::fs;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};

/// File magic identifying a PISA checkpoint.
pub const CHECKPOINT_MAGIC: [u8; 8] = *b"PISACKPT";

/// Container format version.
pub const CHECKPOINT_VERSION: u8 = 1;

/// Section kind: `SdcServer::snapshot` payload (matrix, contributions,
/// signing key, pending phase-1 sessions).
pub const SECTION_SDC_SNAPSHOT: u8 = 1;

/// Section kind: `SdcSessionEngine::snapshot_sessions` payload (the
/// replay/resend table keyed by SU id).
pub const SECTION_SDC_SESSIONS: u8 = 2;

/// Section kind: `StpServer::snapshot_directory` payload (registered
/// per-SU Paillier public keys).
pub const SECTION_STP_DIRECTORY: u8 = 3;

/// File name of the SDC checkpoint inside a state directory.
pub const SDC_CHECKPOINT_FILE: &str = "sdc.ckpt";

/// File name of the STP checkpoint inside a state directory.
pub const STP_CHECKPOINT_FILE: &str = "stp.ckpt";

/// SHA-256 trailer width.
const CHECKSUM_BYTES: usize = 32;

/// Smallest possible encoded section: one kind byte plus a u32 length
/// prefix. Used to bound the section-count pre-allocation.
const MIN_SECTION_BYTES: usize = 5;

/// A versioned, checksummed bundle of service-state sections.
#[derive(Debug, Clone)]
pub struct Checkpoint {
    generation: u64,
    sections: Vec<(u8, bytes::Bytes)>,
}

impl Checkpoint {
    /// An empty checkpoint at the given generation.
    pub fn new(generation: u64) -> Self {
        Checkpoint {
            generation,
            sections: Vec::new(),
        }
    }

    /// The generation counter this checkpoint was written at.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Appends a section. Kinds must be unique within one checkpoint;
    /// [`Checkpoint::decode`] rejects duplicates.
    pub fn push_section(&mut self, kind: u8, payload: bytes::Bytes) {
        self.sections.push((kind, payload));
    }

    /// Looks up a section payload by kind.
    pub fn section(&self, kind: u8) -> Option<&[u8]> {
        self.sections
            .iter()
            .find(|(k, _)| *k == kind)
            .map(|(_, p)| p.as_ref())
    }

    /// Serializes the container, appending the SHA-256 trailer.
    ///
    /// # Errors
    ///
    /// [`CodecError::BadLength`] if a count cannot fit the wire's `u32`
    /// fields or a section exceeds the frame ceiling.
    pub fn encode(&self) -> Result<bytes::Bytes, CodecError> {
        let mut w = Writer::with_capacity(
            32 + self
                .sections
                .iter()
                .map(|(_, p)| p.len() + MIN_SECTION_BYTES)
                .sum::<usize>(),
        );
        w.put_raw(&CHECKPOINT_MAGIC);
        w.put_u8(CHECKPOINT_VERSION);
        w.put_u64(self.generation);
        let count = u32::try_from(self.sections.len())
            .map_err(|_| CodecError::BadLength(self.sections.len() as u64))?;
        w.put_u32(count);
        for (kind, payload) in &self.sections {
            w.put_u8(*kind);
            w.put_bytes(payload)?;
        }
        let body = w.finish();
        let digest = sha256(&body);
        let mut framed = Writer::with_capacity(body.len() + CHECKSUM_BYTES);
        framed.put_raw(&body);
        framed.put_raw(&digest);
        Ok(framed.finish())
    }

    /// Parses and integrity-checks a container frame.
    ///
    /// # Errors
    ///
    /// [`CodecError::Invalid`] on a bad magic, version, checksum or
    /// duplicate section kind; [`CodecError::Oversized`] when the
    /// declared section count exceeds what the frame could possibly
    /// hold; any other [`CodecError`] on truncated or malformed frames.
    pub fn decode(frame: &[u8]) -> Result<Checkpoint, CodecError> {
        if frame.len() < CHECKPOINT_MAGIC.len() + 1 + 8 + 4 + CHECKSUM_BYTES {
            return Err(CodecError::UnexpectedEof);
        }
        let (body, trailer) = frame.split_at(frame.len() - CHECKSUM_BYTES);
        if sha256(body) != *trailer {
            return Err(CodecError::Invalid("checkpoint checksum mismatch".into()));
        }
        let mut r = Reader::new(body);
        if r.get_raw(CHECKPOINT_MAGIC.len())? != CHECKPOINT_MAGIC {
            return Err(CodecError::Invalid("not a PISA checkpoint".into()));
        }
        let version = r.get_u8()?;
        if version != CHECKPOINT_VERSION {
            return Err(CodecError::Invalid(format!(
                "unsupported checkpoint version {version}"
            )));
        }
        let generation = r.get_u64()?;
        let count = crate::wire::widen(r.get_u32()?);
        let most = r.remaining() / MIN_SECTION_BYTES;
        if count > most {
            return Err(CodecError::Oversized(count as u64, most as u64));
        }
        let mut sections: Vec<(u8, bytes::Bytes)> = Vec::with_capacity(count);
        for _ in 0..count {
            let kind = r.get_u8()?;
            if sections.iter().any(|(k, _)| *k == kind) {
                return Err(CodecError::Invalid(format!(
                    "duplicate checkpoint section kind {kind}"
                )));
            }
            let payload = bytes::Bytes::copy_from_slice(r.get_bytes()?);
            sections.push((kind, payload));
        }
        r.finish()?;
        Ok(Checkpoint {
            generation,
            sections,
        })
    }
}

/// Failure writing or loading a checkpoint.
#[derive(Debug)]
pub enum DurableError {
    /// Filesystem operation failed.
    Io(io::Error),
    /// The checkpoint frame failed to encode or decode.
    Codec(CodecError),
}

impl fmt::Display for DurableError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DurableError::Io(e) => write!(f, "checkpoint I/O failed: {e}"),
            DurableError::Codec(e) => write!(f, "checkpoint frame invalid: {e}"),
        }
    }
}

impl Error for DurableError {}

impl From<io::Error> for DurableError {
    fn from(e: io::Error) -> Self {
        DurableError::Io(e)
    }
}

impl From<CodecError> for DurableError {
    fn from(e: CodecError) -> Self {
        DurableError::Codec(e)
    }
}

impl From<DurableError> for crate::PisaError {
    fn from(e: DurableError) -> Self {
        crate::PisaError::Durable(e.to_string())
    }
}

/// Atomically writes `ckpt` to `<dir>/<name>`.
///
/// The frame is first written to `<dir>/<name>.tmp` and fsynced, then
/// renamed into place — rename is atomic on POSIX filesystems, so a
/// crash mid-write leaves the previous checkpoint intact. Returns the
/// final path.
///
/// # Errors
///
/// [`DurableError::Io`] on any filesystem failure (the previous
/// checkpoint, if any, is untouched); [`DurableError::Codec`] if the
/// checkpoint cannot be serialized.
pub fn write_atomic(dir: &Path, name: &str, ckpt: &Checkpoint) -> Result<PathBuf, DurableError> {
    let _span = pisa_obs::span("checkpoint.write");
    let frame = ckpt.encode()?;
    fs::create_dir_all(dir)?;
    let tmp = dir.join(format!("{name}.tmp"));
    let mut f = fs::File::create(&tmp)?;
    f.write_all(&frame)?;
    f.sync_all()?;
    drop(f);
    let path = dir.join(name);
    fs::rename(&tmp, &path)?;
    pisa_obs::count(pisa_obs::Op::CheckpointWrite);
    Ok(path)
}

/// Loads and integrity-checks a checkpoint file.
///
/// # Errors
///
/// [`DurableError::Io`] if the file cannot be read;
/// [`DurableError::Codec`] if the frame is truncated, corrupt or fails
/// its checksum.
pub fn load(path: &Path) -> Result<Checkpoint, DurableError> {
    let _span = pisa_obs::span("checkpoint.restore");
    let frame = fs::read(path)?;
    let ckpt = Checkpoint::decode(&frame)?;
    pisa_obs::count(pisa_obs::Op::CheckpointLoad);
    Ok(ckpt)
}

/// Derives a fresh RNG seed for a resumed service.
///
/// Every PISA process derives its RNG stream deterministically from the
/// storm seed; a resumed service must NOT replay the stream it already
/// consumed before the crash (Paillier randomizer reuse leaks blinding
/// relations). Mixing the checkpoint generation through a splitmix64
/// finalizer yields an independent stream per resume while staying
/// fully deterministic for the replay harness. Protocol *decisions*
/// depend only on plaintexts, never on ciphertext randomness, so the
/// reseeded service still reaches byte-identical outcomes.
pub fn resume_seed(base: u64, generation: u64) -> u64 {
    let mut z = base
        .wrapping_add(1)
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(generation);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Checkpoint {
        let mut c = Checkpoint::new(7);
        c.push_section(
            SECTION_SDC_SNAPSHOT,
            bytes::Bytes::copy_from_slice(b"matrix"),
        );
        c.push_section(SECTION_SDC_SESSIONS, bytes::Bytes::copy_from_slice(b"tbl"));
        c
    }

    #[test]
    fn container_roundtrip() {
        let c = sample();
        let frame = c.encode().unwrap();
        let back = Checkpoint::decode(&frame).unwrap();
        assert_eq!(back.generation(), 7);
        assert_eq!(back.section(SECTION_SDC_SNAPSHOT), Some(&b"matrix"[..]));
        assert_eq!(back.section(SECTION_SDC_SESSIONS), Some(&b"tbl"[..]));
        assert_eq!(back.section(SECTION_STP_DIRECTORY), None);
        assert_eq!(back.encode().unwrap(), frame, "re-encode is byte-identical");
    }

    #[test]
    fn any_bit_flip_is_detected() {
        let frame = sample().encode().unwrap().to_vec();
        for i in 0..frame.len() {
            let mut bad = frame.clone();
            bad[i] ^= 0x01;
            assert!(
                Checkpoint::decode(&bad).is_err(),
                "flip at byte {i} accepted"
            );
        }
    }

    #[test]
    fn truncation_rejected() {
        let frame = sample().encode().unwrap();
        for cut in 0..frame.len() {
            assert!(Checkpoint::decode(&frame[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn section_count_bomb_rejected() {
        // Hand-craft a frame claiming u32::MAX sections, with a valid
        // checksum so the count check itself is what rejects it.
        let mut w = Writer::new();
        w.put_raw(&CHECKPOINT_MAGIC);
        w.put_u8(CHECKPOINT_VERSION);
        w.put_u64(1);
        w.put_u32(u32::MAX);
        let body = w.finish();
        let digest = sha256(&body);
        let mut framed = Writer::new();
        framed.put_raw(&body);
        framed.put_raw(&digest);
        assert!(matches!(
            Checkpoint::decode(&framed.finish()),
            Err(CodecError::Oversized(_, _))
        ));
    }

    #[test]
    fn duplicate_section_kind_rejected() {
        let mut c = Checkpoint::new(1);
        c.push_section(SECTION_SDC_SNAPSHOT, bytes::Bytes::copy_from_slice(b"a"));
        c.push_section(SECTION_SDC_SNAPSHOT, bytes::Bytes::copy_from_slice(b"b"));
        let frame = c.encode().unwrap();
        assert!(matches!(
            Checkpoint::decode(&frame),
            Err(CodecError::Invalid(_))
        ));
    }

    #[test]
    fn atomic_write_then_load() {
        let dir = std::env::temp_dir().join(format!("pisa-durable-{}", std::process::id()));
        let c = sample();
        let path = write_atomic(&dir, SDC_CHECKPOINT_FILE, &c).unwrap();
        let back = load(&path).unwrap();
        assert_eq!(back.encode().unwrap(), c.encode().unwrap());
        assert!(!dir.join(format!("{SDC_CHECKPOINT_FILE}.tmp")).exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_seed_varies_per_generation() {
        let a = resume_seed(0x5dc, 0);
        let b = resume_seed(0x5dc, 1);
        let c = resume_seed(0x5dc, 2);
        assert_ne!(a, b);
        assert_ne!(b, c);
        assert_eq!(a, resume_seed(0x5dc, 0), "deterministic");
    }
}
