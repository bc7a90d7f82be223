//! `pisa` — command-line interface to the PISA reproduction.
//!
//! ```text
//! pisa keygen       generate a Paillier key pair
//! pisa sim          concurrent sessions over a faulty network, on
//!                   virtual time (modeled or real crypto engines)
//! pisa serve-sdc    the SDC as a TCP service
//! pisa serve-stp    the STP as a TCP service
//! pisa su           an SU session storm against a live serve-sdc
//! pisa trace        golden-trace record/replay
//! pisa info         print the paper's Table I configuration
//! ```
//!
//! `pisa --help` prints every flag. The protocol demos are the
//! `pisa-core` examples (`quickstart`, `inference_attack`,
//! `metro_area`, `sdr_experiment`); the paper's timing artifacts are
//! the `pisa-bench` binaries.

#![forbid(unsafe_code)]

mod args;
mod commands;

use std::process::ExitCode;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match args::parse(&argv) {
        Ok(cmd) => commands::run(cmd),
        Err(msg) => {
            eprintln!("error: {msg}\n");
            eprintln!("{}", args::USAGE);
            ExitCode::FAILURE
        }
    }
}
