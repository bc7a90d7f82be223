//! Command implementations.

use crate::args::{Command, DurableFlags, NetFlags};
use pisa::adversary;
use pisa::prelude::*;
use pisa_watch::{PuInput, SuRequest, WatchSdc};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use std::process::ExitCode;
use std::time::Instant;

/// Dispatches a parsed command. Returns a failure code when a
/// requested export (metrics/trace file) could not be written, so
/// scripts don't mistake a missing report for a successful run.
pub fn run(cmd: Command) -> ExitCode {
    match cmd {
        Command::Demo => done(demo),
        Command::Keygen { bits } => done(|| keygen(bits)),
        Command::Simulate {
            hours,
            pus,
            sus,
            seed,
        } => done(|| simulate(hours, pus, sus, seed)),
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
        Command::Bench {
            bits,
            iters,
            metrics,
            metrics_out,
            pool,
        } => bench(bits, iters, metrics, metrics_out, pool),
        Command::Attack => done(attack),
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

/// Per-phase protocol benchmark: runs `iters` full request rounds on an
/// in-process system with obs enabled and prints the phase table the
/// paper reports as Tables 2-3.
///
/// `pool > 0` precomputes that many `rⁿ` factors per party before each
/// iteration (the paper's §VI-A offline/online split) so the timed
/// phases pay one multiplication instead of one exponentiation per
/// entry. Per-entry work fans out over every CPU the process may use.
fn bench(
    bits: usize,
    iters: usize,
    metrics: bool,
    metrics_out: Option<String>,
    pool: usize,
) -> ExitCode {
    use pisa_watch::WatchConfig;

    let mut rng = StdRng::seed_from_u64(0xb37c);
    let cfg = SystemConfig::new(WatchConfig::small_test(), bits, 64, 64);
    println!(
        "bench: {} channels x {} blocks, {bits}-bit keys, {iters} iteration(s), \
         pool {pool}, {} CPU(s)\n",
        cfg.channels(),
        cfg.blocks(),
        std::thread::available_parallelism().map_or(1, usize::from)
    );

    let mut system = PisaSystem::setup(cfg, &mut rng);
    system.pu_update(0, BlockId(0), Some(Channel(0)), &mut rng);
    let su = system.register_su(BlockId(1), &mut rng);
    if pool > 0 {
        system.enable_pools(pool);
    }

    pisa_obs::set_enabled(true);
    pisa_obs::reset();
    let t = Instant::now();
    let mut request_bytes = 0u64;
    for i in 0..iters {
        // The offline phase: pools are topped up between rounds, outside
        // the per-phase spans, mirroring a deployment that precomputes
        // during idle time.
        system.refill_pools(&mut rng);
        let outcome = system.request(su, &[Channel(i % 2)], &mut rng);
        request_bytes = outcome.request_bytes as u64;
    }
    let elapsed = t.elapsed();
    pisa_obs::set_enabled(false);

    let report = pisa_obs::report();
    if metrics || metrics_out.is_some() {
        println!("per-phase breakdown (paper Tables 2-3):");
        print!("{}", report.render_table());
        println!();
    }
    println!(
        "{iters} round(s) in {:.2} s; request size {:.1} KiB; totals: \
         {} mod-exps, {} encryptions, {} decryptions, \
         {} mod-exps avoided, {} pool misses",
        elapsed.as_secs_f64(),
        request_bytes as f64 / 1024.0,
        report.totals.mod_exps,
        report.totals.encryptions,
        report.totals.decryptions,
        report.totals.mod_exps_avoided,
        report.totals.pool_misses,
    );
    if metrics_out.is_none() && !metrics {
        println!("(pass --metrics for the per-phase table, --metrics-out FILE for JSON)");
    }
    if let Some(path) = metrics_out {
        if !write_output("metrics report", &path, &report.to_json()) {
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

fn demo() {
    let mut rng = StdRng::seed_from_u64(42);
    let config = SystemConfig::small_test();
    println!(
        "PISA demo: {} channels x {} blocks, {}-bit Paillier keys\n",
        config.channels(),
        config.blocks(),
        config.paillier_bits()
    );
    let mut system = PisaSystem::setup(config, &mut rng);
    system.pu_update(0, BlockId(12), Some(Channel(1)), &mut rng);
    println!("PU at block 12 tuned to a hidden channel");
    let su = system.register_su(BlockId(13), &mut rng);
    for ch in [Channel(1), Channel(0)] {
        let t = Instant::now();
        let outcome = system.request(su, &[ch], &mut rng);
        println!(
            "SU request on {ch}: {:<7}  ({} KiB request, {} B response, {:.0} ms)",
            if outcome.granted { "GRANTED" } else { "DENIED" },
            outcome.request_bytes / 1024,
            outcome.response_bytes,
            t.elapsed().as_secs_f64() * 1000.0,
        );
    }
    println!("\nonly the SU learned those decisions.");
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

fn simulate(hours: usize, pus: usize, sus: usize, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let config = SystemConfig::small_test();
    let watch_cfg = config.watch().clone();
    let channels = config.channels();
    let blocks = config.blocks();
    println!(
        "simulating {hours} h: {pus} PUs, {sus} SUs on {channels} channels x {blocks} blocks\n"
    );

    let mut system = PisaSystem::setup(config, &mut rng);
    let mut mirror = WatchSdc::new(watch_cfg.clone());
    let su_ids: Vec<_> = (0..sus)
        .map(|i| system.register_su(BlockId((i * 7 + 2) % blocks), &mut rng))
        .collect();

    let (mut grants, mut denials, mut mismatches) = (0usize, 0usize, 0usize);
    for hour in 0..hours {
        for pu in 0..pus as u64 {
            let block = BlockId(((pu as usize) * 5) % blocks);
            let tuned = if rng.next_u64() % 6 == 0 {
                None
            } else {
                Some(Channel((rng.next_u64() as usize) % channels))
            };
            system.pu_update(pu, block, tuned, &mut rng);
            mirror.pu_update(
                pu,
                match tuned {
                    Some(c) => PuInput::tuned(&watch_cfg, block, c),
                    None => PuInput::off(block),
                },
            );
        }
        for (i, &su) in su_ids.iter().enumerate() {
            let ch = Channel((rng.next_u64() as usize) % channels);
            let dbm = -45.0 + (rng.next_u64() % 35) as f64;
            let request =
                SuRequest::with_power_dbm(&watch_cfg, BlockId((i * 7 + 2) % blocks), &[ch], dbm);
            let outcome = system.request_with(su, &request, &mut rng).unwrap();
            if outcome.granted != mirror.process_request(&request).is_granted() {
                mismatches += 1;
            }
            if outcome.granted {
                grants += 1
            } else {
                denials += 1
            }
        }
        println!(
            "hour {hour}: {} active PUs, totals: {grants} granted / {denials} denied",
            mirror.active_pus()
        );
    }
    println!("\nencrypted/plaintext mismatches: {mismatches} (must be 0)");
    assert_eq!(mismatches, 0);
}

fn attack() {
    let mut rng = StdRng::seed_from_u64(1337);
    let cfg = SystemConfig::small_test();

    println!("== plaintext WATCH: total leak ==");
    let mut watch = WatchSdc::new(cfg.watch().clone());
    watch.pu_update(0, PuInput::tuned(cfg.watch(), BlockId(12), Channel(1)));
    for (ch, b) in adversary::infer_pu_channels(&watch) {
        println!("  SDC reads: viewer at {b} watches {ch}");
    }
    let request = SuRequest::with_power_dbm(cfg.watch(), BlockId(17), &[Channel(0)], 20.0);
    let f = request.f_matrix(cfg.watch());
    println!(
        "  SDC reads: SU at {} radiating {:.1} mW",
        adversary::infer_su_block(&f).unwrap(),
        adversary::infer_su_eirp_mw(cfg.watch(), &f).unwrap()
    );

    println!("\n== PISA: chance-level guessing ==");
    let stp = pisa::StpServer::new(&mut rng, cfg.paillier_bits());
    let mut su = pisa::SuClient::new(pisa::SuId(0), BlockId(17), &cfg, &mut rng);
    let runs = 30;
    let hits = (0..runs)
        .filter(|_| {
            let msg = su.build_request(&cfg, stp.public_key(), &[Channel(0)], &mut rng);
            adversary::guess_su_block_from_ciphertexts(&msg) == Some(BlockId(17))
        })
        .count();
    println!(
        "  block triangulation on ciphertexts: {hits}/{runs} (chance ≈ {:.1})",
        runs as f64 / cfg.blocks() as f64
    );
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
