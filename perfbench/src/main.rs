//! `perfbench`: the layered PISA benchmark.
//!
//! ```sh
//! cargo run --offline --release --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload loopback-closed --seed 1 --seconds 30 --trace 0
//! ```
//!
//! Three workloads (see `perfbench/README.md` for why each exists and
//! which layers it stresses or bypasses):
//!
//! * `loopback-closed` — the real `SdcService`/`StpService` on
//!   127.0.0.1 inside this process, driven by a closed loop of two
//!   client threads, each request sent exactly once (no retries);
//! * `paper-2048` — single-threaded direct calls at Table I's 2048-bit
//!   keys and 512-bit blinds: PU retunes alternating with SU sessions,
//!   every decision checked against a plaintext WATCH mirror;
//! * `sim-lossy` — a 5×10⁴-session modeled storm with drop, duplicate,
//!   reorder and corruption faults on virtual time, checked by
//!   `pisa_sim::check_storm` and against the WATCH oracle.
//!
//! With `--trace 0` the run reports the end-to-end metrics; with
//! `--trace 1` it turns on `pisa-obs`, reports the per-layer metrics
//! and writes a Chrome trace under `.perfbench_out/`. Both metric lists
//! and the workload names are read from the repository's
//! `BENCHMARK.json`, compiled in. The last line of standard output is
//! one JSON object:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{value,unit}}}`.
//! The process exits non-zero when any decision or invariant check
//! fails.

mod host;
mod layers;
mod loopback;
mod paper;
mod simlossy;
mod stats;

use pisa_obs::json::Value;
use stats::{Catalogue, Metrics, Tally};
use std::process::ExitCode;
use std::time::Duration;

/// The benchmark's definition: its workloads and its two metric lists.
const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// A workload's entry point.
type Runner = fn(&Args, Outcome) -> Result<Outcome, String>;

/// The code behind a workload name of `BENCHMARK.json`.
fn runner(workload: &str) -> Option<Runner> {
    match workload {
        "loopback-closed" => Some(loopback::run),
        "paper-2048" => Some(paper::run),
        "sim-lossy" => Some(simlossy::run),
        _ => None,
    }
}

/// The workload names listed in `BENCHMARK.json`.
fn workloads(doc: &Value) -> Vec<String> {
    doc.get("workloads")
        .and_then(Value::as_array)
        .unwrap_or_default()
        .iter()
        .filter_map(|w| w.get("name").and_then(Value::as_str).map(str::to_owned))
        .collect()
}

/// What the command line asked for.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Args {
    /// A workload name of `BENCHMARK.json`.
    pub workload: String,
    /// Seed every input derives from.
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: Duration,
    /// Per-layer (traced) run instead of end-to-end.
    pub trace: bool,
}

fn parse_args(argv: &[String], known: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("flag {flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                if !known.contains(value) {
                    return Err(format!("unknown workload {value:?} (one of {known:?})"));
                }
                workload = Some(value.clone());
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: u64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if s == 0 {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(Duration::from_secs(s));
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Every session's outcome.
    pub tally: Tally,
    /// Invariant violations beyond per-session decisions (empty when
    /// the run is correct).
    pub violations: Vec<String>,
    /// The metrics of the requested mode.
    pub metrics: Metrics,
}

/// A 64-bit mix of `seed` and a stream label, so each input stream of a
/// run (keys, PU channels, SU positions, …) derives from `--seed`
/// without overlapping another.
pub fn derive_seed(seed: u64, label: u64) -> u64 {
    // splitmix64 finalizer over the pair.
    let mut z = seed ^ label.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl Outcome {
    /// An empty outcome whose metric table is `catalogue`.
    pub fn new(catalogue: Catalogue) -> Self {
        Outcome {
            tally: Tally::default(),
            violations: Vec::new(),
            metrics: Metrics::zeroed(catalogue),
        }
    }

    /// Records an invariant violation unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.violations.push(what());
        }
    }
}

/// Parses `BENCHMARK.json` and the command line: the arguments, the
/// workload's code and the metric catalogue of the requested mode.
fn setup(argv: &[String]) -> Result<(Args, Runner, Catalogue), String> {
    let doc = Value::parse(BENCHMARK_JSON).map_err(|e| format!("BENCHMARK.json: {e:?}"))?;
    let args = parse_args(argv, &workloads(&doc))?;
    let run =
        runner(&args.workload).ok_or_else(|| format!("workload {} has no code", args.workload))?;
    let list = if args.trace {
        "per_layer"
    } else {
        "end_to_end"
    };
    Ok((args, run, stats::catalogue(&doc, list)?))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (args, run, catalogue) = match setup(&argv) {
        Ok(setup) => setup,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    eprintln!(
        "perfbench: workload {} seed {} for {:?} ({}), {} cpu(s)",
        args.workload,
        args.seed,
        args.seconds,
        if args.trace { "traced" } else { "untraced" },
        layers::cpus()
    );
    let mut outcome = match run(&args, Outcome::new(catalogue)) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    if !args.trace {
        // End-to-end metrics are never legitimately 0.
        for name in outcome.metrics.zeros() {
            outcome
                .violations
                .push(format!("end-to-end metric {name} read 0"));
        }
    }
    let tally = outcome.tally;
    for v in &outcome.violations {
        eprintln!("perfbench: VIOLATION: {v}");
    }
    let correct = tally.attempted > 0 && tally.failed() == 0 && outcome.violations.is_empty();
    eprintln!(
        "perfbench: {} sessions attempted, {} failed ({} expired, {} wrong, {} rejected, {} undecided)",
        tally.attempted,
        tally.failed(),
        tally.expired,
        tally.wrong,
        tally.rejected,
        tally.undecided
    );
    eprint!("{}", outcome.metrics.render());
    let line = Value::object(vec![
        ("correct", Value::Bool(correct)),
        ("attempted", Value::from_u64(tally.attempted)),
        ("failed", Value::from_u64(tally.failed())),
        ("metrics", outcome.metrics.to_value()),
    ]);
    println!("{}", line.to_json());
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn benchmark_json_lists_runnable_workloads_and_legal_metrics() {
        let doc = Value::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
        let names = workloads(&doc);
        assert!(!names.is_empty());
        for w in &names {
            assert!(runner(w).is_some(), "workload {w} has no code");
        }
        for list in ["end_to_end", "per_layer"] {
            let metrics = stats::catalogue(&doc, list).expect("a legal catalogue");
            assert!(!metrics.is_empty(), "{list}");
        }
        let e2e = stats::catalogue(&doc, "end_to_end").expect("a legal catalogue");
        assert!(e2e.contains(&("setup_s".into(), "s".into())));
    }

    #[test]
    fn args_parse_and_reject() {
        let known = argv("sim-lossy paper-2048");
        let a = parse_args(
            &argv("--workload sim-lossy --seed 7 --seconds 3 --trace 1"),
            &known,
        )
        .expect("valid");
        assert_eq!(
            a,
            Args {
                workload: "sim-lossy".into(),
                seed: 7,
                seconds: Duration::from_secs(3),
                trace: true
            }
        );
        for bad in [
            "--workload nope --seed 1 --seconds 1",
            "--workload sim-lossy --seconds 1",
            "--workload sim-lossy --seed 1 --seconds 0",
            "--workload sim-lossy --seed 1 --seconds 1 --trace 2",
            "--workload sim-lossy --seed 1 --seconds 1 --bogus 1",
            "--workload",
        ] {
            assert!(parse_args(&argv(bad), &known).is_err(), "{bad}");
        }
    }

    #[test]
    fn derived_seeds_differ_by_label_and_repeat() {
        assert_eq!(derive_seed(1, 2), derive_seed(1, 2));
        assert_ne!(derive_seed(1, 2), derive_seed(1, 3));
        assert_ne!(derive_seed(1, 2), derive_seed(2, 2));
    }
}
