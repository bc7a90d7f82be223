//! Message transport plumbing for the PISA parties.
//!
//! The paper's prototype connects four kinds of parties — PUs, SUs, the
//! SDC server and the STP — over a network whose *communication
//! overhead* is one of the two evaluation criteria (§VI-A: a 29 MB
//! request, a 0.05 MB PU update, a 4.1 kb response). This crate provides
//! what every transport of the reproduction shares:
//!
//! * typed party addresses ([`Party`]) and the delivered-message
//!   [`Envelope`],
//! * per-link byte and message accounting ([`NetMetrics`]) driven by the
//!   [`WireSize`] trait,
//! * a configurable latency model ([`LatencyModel`]) for estimating
//!   end-to-end protocol latency from the accounted traffic,
//! * deterministic, seedable fault injection ([`FaultConfig`]) with
//!   per-link drop/duplicate/reorder/corrupt probabilities, run by one
//!   [`FaultPipeline`] behind every transport, with absorbed-fault
//!   counters surfaced through [`NetMetrics`], and
//! * a framed TCP transport ([`socket`]) that runs the SDC, the STP and
//!   the SU swarm as separate processes.
//!
//! The virtual-time transport lives in `pisa-sim`, which hands each
//! frame to the same [`FaultPipeline`] and schedules what comes out.
//!
//! # Examples
//!
//! ```
//! use pisa_net::{FaultConfig, FaultPipeline, FaultPlan, NetMetrics, Party};
//!
//! let metrics = NetMetrics::new();
//! let config = FaultConfig::new(7).with_default_plan(FaultPlan::none().with_duplicate(1.0));
//! let mut pipeline: FaultPipeline<Vec<u8>> = FaultPipeline::new(config, 0.0, metrics.clone());
//! let mut frames = Vec::new();
//! pipeline.inject(Party::Su(0), Party::Sdc, vec![0; 128], &mut frames);
//! // Sent once, delivered twice; the fault is counted on its link.
//! assert_eq!(frames.len(), 2);
//! assert_eq!(metrics.fault_totals().duplicated, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
mod fault;
mod latency;
mod metrics;
pub mod socket;
mod transport;

pub use fault::{Corruptor, FaultConfig, FaultPipeline, FaultPlan};
pub use latency::LatencyModel;
pub use metrics::{FaultKind, FaultStats, LinkCounter, LinkStats, NetMetrics, SessionStats};
pub use socket::{FrameCodec, SocketConfig, SocketError, SocketEvent, SocketNode};
pub use transport::{Envelope, Party};

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
