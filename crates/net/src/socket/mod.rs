//! Framed TCP transport for PISA parties.
//!
//! The in-memory [`Network`](crate::Network) keeps all four parties in
//! one address space — fine for measurement, wrong for the paper's
//! trust model, where SU, SDC and STP are *separate trust domains*.
//! This module promotes the wire codec to a real socket protocol so a
//! storm can run as three processes on loopback or across hosts:
//!
//! * [`frame`] — `u32` length-prefixed frames with a hard size ceiling,
//!   an incremental [`FrameBuffer`] deframer, and the envelope format
//!   (kind, from-party, to-party, payload);
//! * [`SocketNode`] — listener + per-peer connection pool with
//!   reconnect/backoff, reader threads, learned reply routes, in-band
//!   graceful shutdown, and a [`Transport`](crate::Transport) adapter
//!   ([`SocketEndpoint`]) so the session engines run unmodified. Given
//!   a [`FaultConfig`](crate::FaultConfig), it runs its outbound
//!   envelope bytes through the same
//!   [`FaultPipeline`](crate::FaultPipeline) as the in-memory
//!   transports, and writes any held-back frame when it stops.
//!
//! Everything is `std` networking — no new dependencies.

pub mod frame;
mod node;

pub use frame::{FrameBuffer, FrameCodec};
pub use node::{SocketEndpoint, SocketEvent, SocketNode};

use crate::codec::{CodecError, MAX_FRAME_LEN};
use crate::transport::Party;
use crate::NetError;
use std::time::Duration;

/// Tuning knobs for a [`SocketNode`].
#[derive(Debug, Clone)]
pub struct SocketConfig {
    /// Ceiling on any frame accepted or written (default
    /// [`MAX_FRAME_LEN`]).
    pub max_frame: usize,
    /// Read timeout slice per connection: how often reader threads wake
    /// to check the stop flag.
    pub read_poll: Duration,
    /// Accept-loop poll interval while no connection is pending.
    pub accept_poll: Duration,
    /// Dial attempts before a connect fails.
    pub connect_attempts: u32,
    /// Base backoff between dial attempts (doubles, capped at 16×).
    pub connect_backoff: Duration,
    /// Read buffer chunk size.
    pub read_chunk: usize,
    /// Write timeout on every stream. The sender holds the per-connection
    /// mutex across `write_frame`; without a bound, a peer that stops
    /// draining (zero TCP window) parks the writer — and every thread
    /// queued on that connection — forever.
    pub write_timeout: Duration,
}

impl Default for SocketConfig {
    fn default() -> Self {
        SocketConfig {
            max_frame: MAX_FRAME_LEN,
            read_poll: Duration::from_millis(50),
            accept_poll: Duration::from_millis(5),
            connect_attempts: 40,
            connect_backoff: Duration::from_millis(25),
            read_chunk: 64 * 1024,
            write_timeout: Duration::from_secs(5),
        }
    }
}

/// Errors from the socket transport.
#[derive(Debug)]
#[non_exhaustive]
pub enum SocketError {
    /// An operating-system I/O failure.
    Io(std::io::ErrorKind),
    /// Encoding or deframing failed.
    Codec(CodecError),
    /// No dialable peer or learned route for the recipient.
    NoRoute(Party),
    /// The node is shutting down.
    Stopped,
}

impl SocketError {
    /// Maps onto the [`Transport`](crate::Transport) error surface.
    pub fn into_net_error(self, to: Party) -> NetError {
        match self {
            SocketError::Io(kind) => NetError::Socket(kind),
            SocketError::Codec(_) => NetError::Socket(std::io::ErrorKind::InvalidData),
            SocketError::NoRoute(p) => NetError::UnknownParty(p),
            SocketError::Stopped => NetError::Disconnected(to),
        }
    }
}

impl std::fmt::Display for SocketError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SocketError::Io(kind) => write!(f, "socket I/O error: {kind:?}"),
            SocketError::Codec(e) => write!(f, "socket codec error: {e}"),
            SocketError::NoRoute(p) => write!(f, "no route to {p}"),
            SocketError::Stopped => f.write_str("socket node is shutting down"),
        }
    }
}

impl std::error::Error for SocketError {}

impl From<std::io::Error> for SocketError {
    fn from(e: std::io::Error) -> Self {
        SocketError::Io(e.kind())
    }
}

impl From<CodecError> for SocketError {
    fn from(e: CodecError) -> Self {
        SocketError::Codec(e)
    }
}
