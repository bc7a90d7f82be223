//! Simulated message transport for the PISA parties.
//!
//! The paper's prototype connects four kinds of parties — PUs, SUs, the
//! SDC server and the STP — over a network whose *communication
//! overhead* is one of the two evaluation criteria (§VI-A: a 29 MB
//! request, a 0.05 MB PU update, a 4.1 kb response). This crate provides
//! an in-memory network with:
//!
//! * typed party addresses ([`Party`]),
//! * reliable in-order delivery over [`crossbeam`] channels,
//! * per-link byte and message accounting ([`NetMetrics`]) driven by the
//!   [`WireSize`] trait,
//! * a configurable latency model ([`LatencyModel`]) for estimating
//!   end-to-end protocol latency from the accounted traffic, and
//! * deterministic, seedable fault injection ([`FaultConfig`]) with
//!   per-link drop/duplicate/reorder/corrupt probabilities, run by one
//!   [`FaultPipeline`] behind every transport, with absorbed-fault
//!   counters surfaced through [`NetMetrics`].
//!
//! # Examples
//!
//! ```
//! use pisa_net::{Network, Party, WireSize};
//!
//! #[derive(Clone)]
//! struct Ping(Vec<u8>);
//! impl WireSize for Ping {
//!     fn wire_bytes(&self) -> usize { self.0.len() }
//! }
//!
//! let net: Network<Ping> = Network::new();
//! let sdc = net.endpoint(Party::Sdc);
//! let stp = net.endpoint(Party::Stp);
//! sdc.send(Party::Stp, Ping(vec![0; 128]));
//! assert_eq!(stp.recv().unwrap().payload.0.len(), 128);
//! assert_eq!(net.metrics().total_bytes(), 128);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
mod error;
mod fault;
mod latency;
mod metrics;
pub mod socket;
mod transport;

pub use error::NetError;
pub use fault::{Corruptor, FaultConfig, FaultPipeline, FaultPlan};
pub use latency::LatencyModel;
pub use metrics::{FaultKind, FaultStats, LinkStats, NetMetrics, SessionStats};
pub use socket::{FrameCodec, SocketConfig, SocketEndpoint, SocketError, SocketEvent, SocketNode};
pub use transport::{Endpoint, Envelope, Network, Party, Transport};

/// Serialized size of a message on the wire, in bytes.
///
/// PISA messages are dominated by Paillier ciphertexts of a fixed width
/// (`2·|n|` bits), so sizes are computed analytically rather than by
/// running a serializer — exactly how the paper reports its
/// communication numbers.
pub trait WireSize {
    /// Number of bytes this message occupies on the wire.
    fn wire_bytes(&self) -> usize;
}

impl WireSize for Vec<u8> {
    fn wire_bytes(&self) -> usize {
        self.len()
    }
}
