//! `pisa-sim`: a deterministic discrete-event simulator for PISA
//! session storms.
//!
//! "Does the protocol survive a hostile network?" Over sockets
//! (`pisa-core`'s services) a storm runs on wall-clock time, so a big
//! storm is slow and a failing one is hard to replay. This crate runs
//! the same protocol on *virtual* time: a single thread pops events off
//! a `(virtual_time, seq)`-keyed heap, the network runs the
//! [`FaultPipeline`](pisa_net::FaultPipeline) the socket transport
//! runs, and the parties are the `pisa-core` session engines the
//! services run. Every faulty in-process storm of the workspace runs
//! here. [`Fidelity::Real`] runs them on the Paillier
//! backend; [`Fidelity::Modeled`] runs them on a plaintext backend that
//! trades the Paillier arithmetic for the WATCH decision oracle — which
//! is what makes a 10⁵-session storm finish in seconds.
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
mod model;
mod net;
mod report;
mod storm;
mod sweep;

pub use event::EventQueue;
pub use net::{Delivery, SimNet};
pub use report::{decisions_digest, SimOutcome, StormReport};
pub use storm::{run_sim_storm, run_sim_storm_with, Fidelity, SimConfig};
pub use sweep::{check_storm, run_sweep, shrink, RegressionCase, SweepConfig, SweepReport};
