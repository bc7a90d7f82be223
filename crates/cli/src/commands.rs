//! Command implementations.

use crate::args::{Command, DurableFlags, NetFlags};
use pisa::prelude::*;
use std::process::ExitCode;
use std::time::Instant;

/// Dispatches a parsed command. Returns a failure code when a
/// requested export (metrics/trace file) could not be written, so
/// scripts don't mistake a missing report for a successful run.
pub fn run(cmd: Command) -> ExitCode {
    match cmd {
        Command::Keygen { bits } => done(|| keygen(bits)),
        Command::Sim {
            sus,
            drop,
            dup,
            reorder,
            corrupt,
            seed,
            retries,
            timeout_ms,
            real,
            sweep,
            metrics_out,
            trace_out,
        } => sim(SimOpts {
            sus,
            drop,
            dup,
            reorder,
            corrupt,
            seed,
            retries,
            timeout_ms,
            real,
            sweep,
            metrics_out,
            trace_out,
        }),
        Command::ServeSdc {
            listen,
            stp,
            net,
            durable,
        } => serve_sdc(&listen, &stp, &net, &durable),
        Command::ServeStp {
            listen,
            net,
            durable,
        } => serve_stp(&listen, &net, &durable),
        Command::Trace {
            record,
            replay,
            sessions,
            seed,
        } => trace(record, replay, sessions, seed),
        Command::Su {
            sdc,
            net,
            halt,
            verify,
            metrics_out,
        } => su_storm(&sdc, &net, halt, verify, metrics_out),
        Command::Info => done(info),
    }
}

/// Runs an infallible command for the `run` dispatch table.
fn done(f: impl FnOnce()) -> ExitCode {
    f();
    ExitCode::SUCCESS
}

/// Builds the "net" section grafted into the metrics report: total
/// traffic, injected faults, and session resilience counters.
fn net_section(metrics: &pisa_net::NetMetrics) -> pisa_obs::json::Value {
    use pisa_obs::json::Value;
    let f = metrics.fault_totals();
    let s = metrics.session_totals();
    Value::object(vec![
        ("bytes_on_wire", Value::from_u64(metrics.total_bytes())),
        ("messages", Value::from_u64(metrics.total_messages())),
        (
            "faults",
            Value::object(vec![
                ("dropped", Value::from_u64(f.dropped)),
                ("duplicated", Value::from_u64(f.duplicated)),
                ("reordered", Value::from_u64(f.reordered)),
                ("corrupted", Value::from_u64(f.corrupted)),
                ("corrupt_dropped", Value::from_u64(f.corrupt_dropped)),
            ]),
        ),
        (
            "sessions",
            Value::object(vec![
                ("retries", Value::from_u64(s.retries)),
                ("timeouts", Value::from_u64(s.timeouts)),
                ("rejected", Value::from_u64(s.rejected)),
            ]),
        ),
    ])
}

/// Writes `contents` to `path`, reporting failures without panicking.
/// Returns whether the write succeeded.
fn write_output(kind: &str, path: &str, contents: &str) -> bool {
    match std::fs::write(path, contents) {
        Ok(()) => {
            println!("{kind} written to {path}");
            true
        }
        Err(e) => {
            eprintln!("failed to write {kind} to {path}: {e}");
            false
        }
    }
}

/// Shared flag translation for the networked roles.
fn net_storm_opts(net: &NetFlags) -> pisa::NetStormOpts {
    use pisa::{EngineConfig, NetStormOpts};
    use pisa_net::{FaultConfig, FaultPlan};
    use std::time::Duration;

    let plan = FaultPlan::none()
        .with_drop(net.drop)
        .with_duplicate(net.dup)
        .with_reorder(net.reorder)
        .with_corrupt(net.corrupt);
    let chaotic = net.drop > 0.0 || net.dup > 0.0 || net.reorder > 0.0 || net.corrupt > 0.0;
    let mut opts = NetStormOpts::new(net.sessions, net.seed);
    opts.engine = EngineConfig::default()
        .with_timeout(Duration::from_millis(net.timeout_ms))
        .with_max_retries(net.retries);
    // The same fault-seed convention as `pisa sim`, so the socket chaos
    // draws from the link streams the simulator would.
    opts.faults = chaotic.then(|| FaultConfig::new(net.seed ^ 0xfa17).with_default_plan(plan));
    opts
}

/// Grafts the parsed checkpoint flags onto the shared storm options.
fn durable_opts(durable: &DurableFlags) -> pisa::DurableOpts {
    pisa::DurableOpts {
        state_dir: durable.state_dir.as_deref().map(std::path::PathBuf::from),
        checkpoint_every: durable.checkpoint_every,
        resume: durable.resume,
    }
}

/// `pisa serve-sdc`: the SDC trust domain as its own process.
fn serve_sdc(listen: &str, stp: &str, net: &NetFlags, durable: &DurableFlags) -> ExitCode {
    let mut opts = net_storm_opts(net);
    opts.durable = durable_opts(durable);
    if let Some(dir) = &durable.state_dir {
        println!(
            "serve-sdc: {} {dir} (checkpoint every {} frame(s))",
            if durable.resume {
                "resuming from"
            } else {
                "checkpointing to"
            },
            durable.checkpoint_every
        );
    }
    println!(
        "serve-sdc: deriving system state for {} sessions (seed {})...",
        net.sessions, net.seed
    );
    let service = match pisa::SdcService::bind(&opts, listen, stp) {
        Ok(service) => service,
        Err(e) => {
            eprintln!("serve-sdc failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    match service.local_addr() {
        Some(addr) => println!("SDC serving on {addr} (STP at {stp}); `pisa su --halt` drains it"),
        None => println!("SDC serving (STP at {stp}); `pisa su --halt` drains it"),
    }
    let _server = service.run();
    println!("SDC drained after shutdown");
    ExitCode::SUCCESS
}

/// `pisa serve-stp`: the STP trust domain as its own process.
fn serve_stp(listen: &str, net: &NetFlags, durable: &DurableFlags) -> ExitCode {
    let mut opts = net_storm_opts(net);
    opts.durable = durable_opts(durable);
    if let Some(dir) = &durable.state_dir {
        println!(
            "serve-stp: {} {dir} (key directory only; sk_G is never written to disk)",
            if durable.resume {
                "resuming from"
            } else {
                "checkpointing to"
            },
        );
    }
    println!(
        "serve-stp: deriving system state for {} sessions (seed {})...",
        net.sessions, net.seed
    );
    let service = match pisa::StpService::bind(&opts, listen) {
        Ok(service) => service,
        Err(e) => {
            eprintln!("serve-stp failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    match service.local_addr() {
        Some(addr) => println!("STP serving on {addr}; shutdown cascades from the SDC"),
        None => println!("STP serving; shutdown cascades from the SDC"),
    }
    let _server = service.run();
    println!("STP drained after shutdown");
    ExitCode::SUCCESS
}

/// `pisa trace`: golden-trace record/replay. `--record FILE` captures a
/// deterministic storm's full message trace; `--replay FILE` re-runs the
/// storm the file describes and fails if any frame diverges.
fn trace(record: Option<String>, replay: Option<String>, sessions: u32, seed: u64) -> ExitCode {
    use pisa::trace::{record_storm, replay_storm, StormTrace};

    if let Some(path) = record {
        println!("trace: recording a {sessions}-session storm (seed {seed})...");
        let (trace, outcomes) = match record_storm(sessions, seed) {
            Ok(pair) => pair,
            Err(e) => {
                eprintln!("trace record failed: {e}");
                return ExitCode::FAILURE;
            }
        };
        let encoded = match trace.encode() {
            Ok(bytes) => bytes,
            Err(e) => {
                eprintln!("trace encode failed: {e}");
                return ExitCode::FAILURE;
            }
        };
        if let Err(e) = std::fs::write(&path, &encoded) {
            eprintln!("failed to write trace to {path}: {e}");
            return ExitCode::FAILURE;
        }
        let granted = outcomes.iter().filter(|o| o.granted == Some(true)).count();
        println!(
            "trace written to {path}: {} records, {} bytes ({granted}/{} granted)",
            trace.records.len(),
            encoded.len(),
            outcomes.len(),
        );
        ExitCode::SUCCESS
    } else if let Some(path) = replay {
        let file = match std::fs::read(&path) {
            Ok(file) => file,
            Err(e) => {
                eprintln!("failed to read trace {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let trace = match StormTrace::decode(&file) {
            Ok(trace) => trace,
            Err(e) => {
                eprintln!("trace {path} failed to decode: {e}");
                return ExitCode::FAILURE;
            }
        };
        println!(
            "trace: replaying {} records ({} sessions, seed {})...",
            trace.records.len(),
            trace.sessions,
            trace.seed
        );
        match replay_storm(&trace) {
            Ok(report) if report.matches() => {
                println!(
                    "replay matched: all {} records byte-identical",
                    report.recorded
                );
                ExitCode::SUCCESS
            }
            Ok(report) => {
                eprintln!(
                    "replay DIVERGED: recorded {} records, replayed {}, first divergence at {}",
                    report.recorded,
                    report.replayed,
                    report
                        .divergence
                        .map_or_else(|| "end".to_owned(), |i| i.to_string()),
                );
                ExitCode::FAILURE
            }
            Err(e) => {
                eprintln!("replay failed to run: {e}");
                ExitCode::FAILURE
            }
        }
    } else {
        // The parser guarantees one mode; keep a defensive fallback.
        eprintln!("trace needs --record FILE or --replay FILE");
        ExitCode::FAILURE
    }
}

/// `pisa su`: the SU swarm against a live SDC service — a storm over
/// real sockets.
fn su_storm(
    sdc: &str,
    net: &NetFlags,
    halt: bool,
    verify: bool,
    metrics_out: Option<String>,
) -> ExitCode {
    let opts = net_storm_opts(net);
    let observing = metrics_out.is_some();
    if observing {
        pisa_obs::set_enabled(true);
        pisa_obs::reset();
    }
    println!(
        "su storm: {} sessions against {sdc}, faults/link: {:.0}% drop, {:.0}% dup, \
         {:.0}% reorder, {:.0}% corrupt",
        net.sessions,
        net.drop * 100.0,
        net.dup * 100.0,
        net.reorder * 100.0,
        net.corrupt * 100.0
    );

    let t = Instant::now();
    let report = match pisa::run_su_storm(&opts, sdc, halt) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("su storm failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let elapsed = t.elapsed();

    for o in &report.outcomes {
        let stats = report
            .metrics
            .session(u64::from(o.su_id.0))
            .unwrap_or_default();
        println!(
            "  SU {:>3}: {:<9} after {} attempt(s)  (timeouts {}, rejects {})",
            o.su_id.0,
            match o.granted {
                Some(true) => "GRANTED",
                Some(false) => "DENIED",
                None => "EXHAUSTED",
            },
            o.attempts,
            stats.timeouts,
            stats.rejected,
        );
    }
    let f = report.metrics.fault_totals();
    let s = report.metrics.session_totals();
    println!(
        "\nsocket faults injected here: {} dropped, {} duplicated, {} reordered, \
         {} corrupted (+{} absorbed)",
        f.dropped, f.duplicated, f.reordered, f.corrupted, f.corrupt_dropped
    );
    println!(
        "sessions absorbed them with {} retries, {} timeouts, {} rejected messages",
        s.retries, s.timeouts, s.rejected
    );
    println!(
        "{}/{} sessions decided in {:.2} s ({:.1} KiB moved on this node)",
        report
            .outcomes
            .iter()
            .filter(|o| o.granted.is_some())
            .count(),
        report.outcomes.len(),
        elapsed.as_secs_f64(),
        report.metrics.total_bytes() as f64 / 1024.0
    );
    if halt {
        println!("halt sent: SDC and STP drain after this storm");
    }

    let mut verified_ok = true;
    if verify {
        println!("\nverify: replaying the storm on the in-memory engine...");
        match pisa::run_memory_baseline(&opts) {
            Ok(baseline) if baseline.decisions() == report.decisions() => {
                println!(
                    "verify: all {} decisions match the in-memory engine",
                    report.outcomes.len()
                );
            }
            Ok(baseline) => {
                verified_ok = false;
                eprintln!("verify FAILED: socket and in-memory decisions differ");
                for (net_d, mem_d) in report.decisions().iter().zip(baseline.decisions()) {
                    if *net_d != mem_d {
                        eprintln!(
                            "  {:?}: socket {:?} vs memory {:?}",
                            net_d.0, net_d.1, mem_d.1
                        );
                    }
                }
            }
            Err(e) => {
                verified_ok = false;
                eprintln!("verify FAILED: in-memory replay errored: {e}");
            }
        }
    }

    let mut exports_ok = true;
    if observing {
        pisa_obs::set_enabled(false);
        let obs_report = pisa_obs::report();
        if let Some(path) = metrics_out {
            let mut doc = obs_report.to_value();
            if let pisa_obs::json::Value::Obj(fields) = &mut doc {
                fields.push(("net".to_owned(), net_section(&report.metrics)));
            }
            exports_ok &= write_output("metrics report", &path, &doc.to_json());
        }
    }
    if report.all_completed() && verified_ok && exports_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Parsed `sim` options.
struct SimOpts {
    sus: u32,
    drop: f64,
    dup: f64,
    reorder: f64,
    corrupt: f64,
    seed: u64,
    retries: u32,
    timeout_ms: u64,
    real: bool,
    sweep: bool,
    metrics_out: Option<String>,
    trace_out: Option<String>,
}

/// Deterministic discrete-event storm simulation: concurrent sessions
/// over a faulty network on virtual time, bit-reproducible per seed.
/// With `--mode real`, an export flag also records the per-phase spans
/// and crypto-op counts of the run.
fn sim(opts: SimOpts) -> ExitCode {
    use pisa::EngineConfig;
    use pisa_net::FaultPlan;
    use pisa_obs::json::Value;
    use pisa_sim::{run_sim_storm, run_sweep, Fidelity, SimConfig, SweepConfig};
    use std::time::Duration;

    let SimOpts {
        sus,
        drop,
        dup,
        reorder,
        corrupt,
        seed,
        retries,
        timeout_ms,
        real,
        sweep,
        metrics_out,
        trace_out,
    } = opts;
    let plan = FaultPlan::none()
        .with_drop(drop)
        .with_duplicate(dup)
        .with_reorder(reorder)
        .with_corrupt(corrupt);
    let fidelity = if real {
        Fidelity::Real
    } else {
        Fidelity::Modeled
    };
    let engine = EngineConfig::default()
        .with_timeout(Duration::from_millis(timeout_ms))
        .with_max_retries(retries);
    let config = SimConfig::modeled(sus).with_plan(plan).with_engine(engine);
    let config = SimConfig { fidelity, ..config };

    if sweep {
        let sweep_cfg = SweepConfig {
            seed,
            session_counts: if sus >= 16 {
                vec![sus / 16, sus / 4, sus]
            } else {
                vec![sus]
            },
            fault_rates: vec![0.0, 0.05, 0.15, 0.3],
            seeds_per_cell: 8,
            fidelity,
            template: config,
            determinism_every: 16,
        };
        println!(
            "sim sweep: {} session counts x {} fault rates x {} seeds/cell ({})",
            sweep_cfg.session_counts.len(),
            sweep_cfg.fault_rates.len(),
            sweep_cfg.seeds_per_cell,
            fidelity.label(),
        );
        let t = Instant::now();
        let report = run_sweep(&sweep_cfg);
        let elapsed = t.elapsed();
        println!(
            "ran {} storms / {} sessions in {:.2} s; {} determinism double-runs",
            report.storms,
            report.sessions,
            elapsed.as_secs_f64(),
            report.determinism_checks,
        );
        for f in &report.failures {
            println!("  FAIL {}", f.to_line());
        }
        if report.clean() {
            println!("all storms satisfied every invariant");
        }
        let mut exports_ok = true;
        if let Some(path) = metrics_out {
            exports_ok &= write_output("sweep report", &path, &report.to_json());
        }
        if report.clean() && exports_ok {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        }
    } else {
        let observing = real && (metrics_out.is_some() || trace_out.is_some());
        if observing {
            pisa_obs::set_enabled(true);
            pisa_obs::reset();
        }
        println!(
            "sim storm: {sus} sessions ({}), faults/link: {:.0}% drop, {:.0}% dup, {:.0}% reorder, {:.0}% corrupt",
            fidelity.label(),
            drop * 100.0,
            dup * 100.0,
            reorder * 100.0,
            corrupt * 100.0
        );
        let t = Instant::now();
        let report = run_sim_storm(seed, &config);
        let elapsed = t.elapsed();
        println!(
            "{} granted, {} denied, {} undecided, {} unfinished ({} attempts total)",
            report.granted,
            report.denied,
            report.undecided,
            report.unfinished,
            report.attempts_total
        );
        println!(
            "virtual makespan {:.3} s; {} events and {:.1} KiB in {:.3} s wall ({:.0} events/s)",
            report.makespan_ns as f64 / 1e9,
            report.events,
            report.bytes as f64 / 1024.0,
            elapsed.as_secs_f64(),
            report.events as f64 / elapsed.as_secs_f64().max(1e-9),
        );
        println!("decisions digest: {:016x}", report.decisions_digest);
        let obs_report = observing.then(|| {
            pisa_obs::set_enabled(false);
            pisa_obs::report()
        });
        if let Some(obs_report) = &obs_report {
            println!("\nper-phase breakdown (paper Tables 2-3):");
            print!("{}", obs_report.render_table());
        }
        let mut exports_ok = true;
        if let Some(path) = metrics_out {
            let mut doc = obs_report
                .as_ref()
                .map_or_else(|| Value::object(Vec::new()), pisa_obs::Report::to_value);
            if let Value::Obj(fields) = &mut doc {
                fields.push(("sim".to_owned(), report.to_value()));
                let wall_ms = Value::from_f64(elapsed.as_secs_f64() * 1e3);
                fields.push(("wall_ms".to_owned(), wall_ms));
            }
            exports_ok &= write_output("sim report", &path, &doc.to_json());
        }
        if let (Some(path), Some(obs_report)) = (trace_out, &obs_report) {
            exports_ok &= write_output("chrome trace", &path, &obs_report.to_chrome_trace());
        }
        if report.all_terminal() && exports_ok {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        }
    }
}

fn keygen(bits: usize) {
    let mut rng = rand::rng();
    let t = Instant::now();
    let stp = pisa::StpServer::new(&mut rng, bits);
    let pk = stp.public_key();
    println!(
        "generated a {bits}-bit Paillier key pair in {:.2} s",
        t.elapsed().as_secs_f64()
    );
    println!("  public key (n):   {} bits", pk.key_bits());
    println!("  ciphertext width: {} bytes", pk.ciphertext_bytes());
    println!("  n = 0x{:x}…", pk.modulus() >> (bits.saturating_sub(64)));
    println!("(secret key held by the in-process STP; use the library API to persist keys)");
}

fn info() {
    let cfg = SystemConfig::paper();
    println!("Table I — Parameter Settings (ICDCS'17)");
    println!("  Number of PUs                         100");
    println!("  Number of blocks                      {}", cfg.blocks());
    println!("  Number of channels                    {}", cfg.channels());
    println!(
        "  Bit length of integer representation  {}",
        cfg.watch().quantizer().total_bits()
    );
    println!(
        "  Paillier modulus                      {} bits",
        cfg.paillier_bits()
    );
    println!(
        "  Blinding budget                       {} bits",
        cfg.blind_bits()
    );
    println!(
        "  Protection: SINR {} dB + redn {} dB -> X = {}",
        cfg.watch().params().tv_sinr_db,
        cfg.watch().params().redn_db,
        cfg.watch().params().x_integer()
    );
    println!(
        "  Request size at this scale            {:.1} MiB",
        (cfg.channels() * cfg.blocks() * cfg.paillier_bits() / 4) as f64 / (1024.0 * 1024.0)
    );
}
