//! `pisa` — command-line interface to the PISA reproduction.
//!
//! ```text
//! pisa demo                     run the quickstart protocol flow
//! pisa keygen [--bits N]        generate a Paillier key pair
//! pisa simulate [--hours H] [--pus N] [--sus N] [--seed S]
//!                               metro-area churn simulation
//! pisa sim [--sus N] [--drop P] [--dup P] [--reorder P] [--corrupt P]
//!          [--seed S] [--retries N] [--timeout-ms T] [--mode real|modeled]
//!                               concurrent sessions over a faulty network,
//!                               on virtual time
//! pisa attack                   curious-SDC inference demo (WATCH vs PISA)
//! pisa info                     print the paper's Table I configuration
//! ```

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
