//! Structured tracing and metrics for the PISA reproduction.
//!
//! The paper's headline evaluation (Tables 2–3, §VI) is a *per-phase*
//! cost breakdown — key conversion, blinded sign test, signature
//! release — yet an end-to-end wall clock cannot attribute a regression
//! to any one phase. This crate provides the measurement substrate:
//!
//! * hierarchical [`span`] guards with monotonic-clock timing and a
//!   thread-aware registry (every span records its thread and parent),
//! * global [`count`]ers for the cryptographic operations the paper
//!   prices individually (modular exponentiations and multiplications,
//!   encryptions, decryptions, re-randomizations) and for the inversions
//!   and gcds beside them, incremented from `pisa-crypto` behind its
//!   `obs` feature,
//! * fixed-bucket latency [`hist::Histogram`]s with p50/p95/p99
//!   snapshots per phase, and
//! * export of one run as a per-phase JSON report ([`Report::to_json`])
//!   or a Chrome-trace file ([`Report::to_chrome_trace`]) loadable in
//!   `chrome://tracing` / Perfetto.
//!
//! Instrumentation is **off by default**: every guard and counter first
//! checks one relaxed atomic, so the disabled cost is a load and a
//! branch. Enable with [`set_enabled`] around the region to measure.
//!
//! # Examples
//!
//! ```
//! pisa_obs::set_enabled(true);
//! pisa_obs::reset();
//! {
//!     let _phase = pisa_obs::span("sign_test");
//!     pisa_obs::count(pisa_obs::Op::ModExp);
//! }
//! let report = pisa_obs::report();
//! assert_eq!(report.phases.len(), 1);
//! assert_eq!(report.phases[0].name, "sign_test");
//! assert_eq!(report.phases[0].ops.mod_exps, 1);
//! pisa_obs::set_enabled(false);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod counters;
pub mod hist;
pub mod json;
mod registry;
mod span;

pub use counters::{count, count_n, counters, Op, OpTotals};
pub use registry::{report, reset, FinishedSpan, PhaseReport, Report};
pub use span::{span, SpanGuard};

use std::sync::atomic::{AtomicBool, Ordering};

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Turns instrumentation on or off globally.
///
/// While disabled (the default), [`span`] returns an inert guard and
/// [`count`] is a no-op; the only cost anywhere is one relaxed atomic
/// load.
pub fn set_enabled(enabled: bool) {
    ENABLED.store(enabled, Ordering::Relaxed);
}

/// Whether instrumentation is currently on.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}
