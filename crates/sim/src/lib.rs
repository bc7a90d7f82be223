//! `pisa-sim`: a deterministic discrete-event simulator for PISA
//! session storms.
//!
//! The threaded storm engine in `pisa-core` answers "does the protocol
//! survive a hostile network?" — but it runs on wall-clock time, so a
//! big storm is slow and a failing storm is hard to replay. This crate
//! re-runs the same protocol on *virtual* time: a single thread pops
//! events off a `(virtual_time, seq)`-keyed heap, the network runs the
//! [`FaultPipeline`](pisa_net::FaultPipeline) the threaded and socket
//! transports run, and the parties are either the real `pisa-core`
//! session engines ([`Fidelity::Real`]) or plaintext mirrors of them
//! ([`Fidelity::Modeled`]) that trade the Paillier arithmetic for the
//! WATCH decision oracle — which is what makes a 10⁵-session storm
//! finish in seconds.
//!
//! Everything is bit-deterministic per seed: [`run_sim_storm`] with
//! the same `(seed, config)` produces a byte-identical
//! [`StormReport::to_json`], which the sweep harness ([`run_sweep`])
//! exploits to run thousands of seeded storms, check invariants, probe
//! determinism, and shrink any failure into a [`RegressionCase`]
//! small enough to check in.
//!
//! ```
//! use pisa_sim::{run_sim_storm, SimConfig};
//!
//! let report = run_sim_storm(7, &SimConfig::modeled(32));
//! assert!(report.all_terminal());
//! assert_eq!(report.sus, 32);
//! // Same seed, same bytes.
//! assert_eq!(report.to_json(), run_sim_storm(7, &SimConfig::modeled(32)).to_json());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod event;
pub mod model;
mod net;
mod report;
mod storm;
mod sweep;
mod transport;

pub use event::EventQueue;
pub use net::{Delivery, SimNet};
pub use report::{decisions_digest, SimOutcome, StormReport};
pub use storm::{run_sim_storm, run_sim_storm_with, Fidelity, SimConfig};
pub use sweep::{check_storm, run_sweep, shrink, RegressionCase, SweepConfig, SweepReport};
pub use transport::SimTransport;
