//! Hand-rolled argument parsing (a parser dependency would outweigh a
//! handful of subcommands whose flags are all `--name value` pairs or
//! switches).

/// Usage text printed on parse errors and `--help`.
pub const USAGE: &str = "\
usage: pisa <command> [options]

commands:
  keygen [--bits N]            generate a Paillier key pair (default 1024)
  sim [--sus N] [--drop P] [--dup P] [--reorder P] [--corrupt P]
      [--seed S] [--retries N] [--timeout-ms T] [--mode real|modeled]
      [--sweep] [--metrics-out FILE] [--trace-out FILE]
                               concurrent sessions over a faulty network,
                               on a deterministic virtual-time simulator;
                               --mode modeled (default) scales to 100k SUs,
                               --mode real drives the actual crypto engines,
                               --sweep runs a multi-seed fault-rate sweep;
                               --metrics-out writes the report as JSON (for
                               one --mode real storm with a per-phase
                               breakdown), --trace-out that storm's
                               chrome://tracing file
  serve-sdc [--listen ADDR] [--stp ADDR] [--sessions N] [--seed S]
            [--drop P] [--dup P] [--reorder P] [--corrupt P]
            [--retries N] [--timeout-ms T]
            [--state-dir DIR] [--checkpoint-every N] [--resume]
                               run the SDC as a TCP service (default
                               listen 127.0.0.1:7001, STP at 127.0.0.1:7002);
                               --state-dir checkpoints matrix + session state
                               atomically every N handled frames, --resume
                               reloads the checkpoint and continues mid-protocol
  serve-stp [--listen ADDR] [--sessions N] [--seed S]
            [--drop P] [--dup P] [--reorder P] [--corrupt P]
            [--retries N] [--timeout-ms T]
            [--state-dir DIR] [--checkpoint-every N] [--resume]
                               run the STP as a TCP service (default
                               listen 127.0.0.1:7002); durability flags as
                               for serve-sdc (key directory only — sk_G is
                               never written to disk)
  su [--sdc ADDR] [--sessions N] [--seed S]
     [--drop P] [--dup P] [--reorder P] [--corrupt P]
     [--retries N] [--timeout-ms T] [--halt] [--verify]
     [--metrics-out FILE]
                               drive an SU session storm against a live
                               serve-sdc; --halt drains the servers after,
                               --verify replays the storm on the in-memory
                               engine and compares every decision
  trace (--record FILE | --replay FILE) [--sessions N] [--seed S]
                               golden-trace regression gate: --record runs a
                               deterministic storm and writes its full message
                               trace; --replay re-runs the trace's storm and
                               byte-compares every frame (exit 1 on divergence)
  info                         print the paper's Table I configuration

all three networked roles must agree on --sessions and --seed: each
process derives the whole system state (keys, PU occupancy, SU
registrations) deterministically from that pair.";

/// Flags shared by the three networked roles (`serve-sdc`,
/// `serve-stp`, `su`): storm identity plus the socket-layer fault and
/// retry knobs. All processes of one deployment must agree on
/// `sessions` and `seed`.
#[derive(Debug, Clone, PartialEq)]
pub struct NetFlags {
    /// Number of SU sessions in the storm.
    pub sessions: u32,
    /// Storm seed (system state, engines and faults derive from it).
    pub seed: u64,
    /// Per-link drop probability on this process's outbound traffic.
    pub drop: f64,
    /// Per-link duplicate probability.
    pub dup: f64,
    /// Per-link reorder probability.
    pub reorder: f64,
    /// Per-link corruption probability.
    pub corrupt: f64,
    /// Retry budget per session.
    pub retries: u32,
    /// Base receive deadline in milliseconds.
    pub timeout_ms: u64,
}

impl Default for NetFlags {
    fn default() -> Self {
        NetFlags {
            sessions: 8,
            seed: 2017,
            drop: 0.0,
            dup: 0.0,
            reorder: 0.0,
            corrupt: 0.0,
            retries: 8,
            timeout_ms: 1500,
        }
    }
}

/// Durability flags shared by `serve-sdc` and `serve-stp`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DurableFlags {
    /// Checkpoint directory (`None` disables durability).
    pub state_dir: Option<String>,
    /// Checkpoint after every N handled frames (must be positive).
    pub checkpoint_every: u64,
    /// Resume from the checkpoint in `state_dir` at startup.
    pub resume: bool,
}

impl Default for DurableFlags {
    fn default() -> Self {
        DurableFlags {
            state_dir: None,
            checkpoint_every: 1,
            resume: false,
        }
    }
}

/// A parsed CLI invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Key generation with modulus size.
    Keygen {
        /// Paillier modulus bits.
        bits: usize,
    },
    /// Deterministic discrete-event storm simulation on virtual time.
    Sim {
        /// Number of concurrent SU sessions.
        sus: u32,
        /// Per-link drop probability.
        drop: f64,
        /// Per-link duplicate probability.
        dup: f64,
        /// Per-link reorder probability.
        reorder: f64,
        /// Per-link corruption probability.
        corrupt: f64,
        /// Storm seed (engines, faults and latency all derive from it).
        seed: u64,
        /// Retry budget per session.
        retries: u32,
        /// Base receive deadline in (virtual) milliseconds.
        timeout_ms: u64,
        /// Run the real crypto engines instead of the plaintext model.
        real: bool,
        /// Run the multi-seed sweep harness instead of one storm.
        sweep: bool,
        /// Where to write the storm/sweep report as JSON.
        metrics_out: Option<String>,
        /// Where to write one storm's Chrome-trace (`chrome://tracing`)
        /// file.
        trace_out: Option<String>,
    },
    /// The SDC as a networked TCP service.
    ServeSdc {
        /// Listen address.
        listen: String,
        /// The STP's address (dialed lazily).
        stp: String,
        /// Shared storm flags.
        net: NetFlags,
        /// Checkpoint / crash-recovery flags.
        durable: DurableFlags,
    },
    /// The STP as a networked TCP service.
    ServeStp {
        /// Listen address.
        listen: String,
        /// Shared storm flags.
        net: NetFlags,
        /// Checkpoint / crash-recovery flags.
        durable: DurableFlags,
    },
    /// The SU swarm driving a storm against a live SDC service.
    Su {
        /// The SDC's address.
        sdc: String,
        /// Shared storm flags.
        net: NetFlags,
        /// Send an in-band shutdown to the SDC (cascading to the STP)
        /// once every session finished.
        halt: bool,
        /// Replay the storm on the in-memory engine and compare every
        /// grant/deny decision.
        verify: bool,
        /// Where to write the per-phase metrics report as JSON.
        metrics_out: Option<String>,
    },
    /// Golden-trace record/replay regression gate.
    Trace {
        /// Record a storm trace to this file.
        record: Option<String>,
        /// Replay (and verify) the trace in this file.
        replay: Option<String>,
        /// Number of SU sessions (record mode).
        sessions: u32,
        /// Storm seed (record mode).
        seed: u64,
    },
    /// Table I printout.
    Info,
}

/// Parses `argv` (without the program name).
pub fn parse(argv: &[String]) -> Result<Command, String> {
    let mut it = argv.iter();
    let cmd = it.next().ok_or("missing command")?;
    match cmd.as_str() {
        "info" => reject_extras(it).map(|()| Command::Info),
        "keygen" => {
            let mut bits = 1024usize;
            parse_flags(it, |flag, value| match flag {
                "--bits" => {
                    bits = parse_num(flag, value)?;
                    if bits < 64 || !bits.is_multiple_of(2) {
                        return Err(format!("--bits must be an even number >= 64, got {bits}"));
                    }
                    Ok(())
                }
                other => Err(format!("unknown flag {other}")),
            })?;
            Ok(Command::Keygen { bits })
        }
        "sim" => {
            let (mut sus, mut seed, mut retries, mut timeout_ms) = (1024u32, 2017u64, 6u32, 200u64);
            let (mut drop, mut dup, mut reorder, mut corrupt) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
            let (mut real, mut sweep) = (false, false);
            let (mut metrics_out, mut trace_out) = (None, None);
            let prob = |flag: &str, value: &str, slot: &mut f64| -> Result<(), String> {
                *slot = parse_num(flag, value)?;
                if !(0.0..=1.0).contains(slot) {
                    return Err(format!("{flag} must be a probability in [0, 1]"));
                }
                Ok(())
            };
            let mut it = it;
            while let Some(flag) = it.next() {
                let mut value = || {
                    it.next()
                        .ok_or_else(|| format!("flag {flag} needs a value"))
                };
                match flag.as_str() {
                    "--sweep" => sweep = true,
                    "--mode" => match value()?.as_str() {
                        "real" => real = true,
                        "modeled" => real = false,
                        other => {
                            return Err(format!("--mode must be real or modeled, got {other:?}"))
                        }
                    },
                    "--sus" => sus = parse_num(flag, value()?)?,
                    "--drop" => prob(flag, value()?, &mut drop)?,
                    "--dup" => prob(flag, value()?, &mut dup)?,
                    "--reorder" => prob(flag, value()?, &mut reorder)?,
                    "--corrupt" => prob(flag, value()?, &mut corrupt)?,
                    "--seed" => seed = parse_num(flag, value()?)?,
                    "--retries" => retries = parse_num(flag, value()?)?,
                    "--timeout-ms" => timeout_ms = parse_num(flag, value()?)?,
                    "--metrics-out" => metrics_out = Some(value()?.to_owned()),
                    "--trace-out" => trace_out = Some(value()?.to_owned()),
                    other => return Err(format!("unknown flag {other}")),
                }
            }
            if sus == 0 || timeout_ms == 0 {
                return Err("--sus and --timeout-ms must be positive".into());
            }
            if trace_out.is_some() && (sweep || !real) {
                return Err("--trace-out traces one --mode real storm".into());
            }
            if real && sus > 4096 {
                return Err(format!(
                    "--mode real runs the full cryptosystem; {sus} SUs would take \
                     hours (use --mode modeled beyond 4096)"
                ));
            }
            Ok(Command::Sim {
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
            })
        }
        "serve-sdc" => {
            let mut listen = "127.0.0.1:7001".to_owned();
            let mut stp = "127.0.0.1:7002".to_owned();
            let mut net = NetFlags::default();
            let mut durable = DurableFlags::default();
            let mut it = it;
            while let Some(flag) = it.next() {
                let mut value = || {
                    it.next()
                        .ok_or_else(|| format!("flag {flag} needs a value"))
                };
                match flag.as_str() {
                    "--resume" => durable.resume = true,
                    "--listen" => listen = value()?.to_owned(),
                    "--stp" => stp = value()?.to_owned(),
                    "--state-dir" => durable.state_dir = Some(value()?.to_owned()),
                    "--checkpoint-every" => durable.checkpoint_every = parse_num(flag, value()?)?,
                    other => parse_net_flag(other, value()?, &mut net)?,
                }
            }
            check_net_flags(&net)?;
            check_durable_flags(&durable)?;
            Ok(Command::ServeSdc {
                listen,
                stp,
                net,
                durable,
            })
        }
        "serve-stp" => {
            let mut listen = "127.0.0.1:7002".to_owned();
            let mut net = NetFlags::default();
            let mut durable = DurableFlags::default();
            let mut it = it;
            while let Some(flag) = it.next() {
                let mut value = || {
                    it.next()
                        .ok_or_else(|| format!("flag {flag} needs a value"))
                };
                match flag.as_str() {
                    "--resume" => durable.resume = true,
                    "--listen" => listen = value()?.to_owned(),
                    "--state-dir" => durable.state_dir = Some(value()?.to_owned()),
                    "--checkpoint-every" => durable.checkpoint_every = parse_num(flag, value()?)?,
                    other => parse_net_flag(other, value()?, &mut net)?,
                }
            }
            check_net_flags(&net)?;
            check_durable_flags(&durable)?;
            Ok(Command::ServeStp {
                listen,
                net,
                durable,
            })
        }
        "trace" => {
            let (mut record, mut replay) = (None, None);
            let (mut sessions, mut seed) = (4u32, 2017u64);
            parse_flags(it, |flag, value| match flag {
                "--record" => {
                    record = Some(value.to_owned());
                    Ok(())
                }
                "--replay" => {
                    replay = Some(value.to_owned());
                    Ok(())
                }
                "--sessions" => {
                    sessions = parse_num(flag, value)?;
                    Ok(())
                }
                "--seed" => {
                    seed = parse_num(flag, value)?;
                    Ok(())
                }
                other => Err(format!("unknown flag {other}")),
            })?;
            match (&record, &replay) {
                (None, None) => return Err("trace needs --record FILE or --replay FILE".into()),
                (Some(_), Some(_)) => {
                    return Err("trace takes --record or --replay, not both".into())
                }
                _ => {}
            }
            if sessions == 0 {
                return Err("--sessions must be positive".into());
            }
            Ok(Command::Trace {
                record,
                replay,
                sessions,
                seed,
            })
        }
        "su" => {
            let mut sdc = "127.0.0.1:7001".to_owned();
            let mut net = NetFlags::default();
            let (mut halt, mut verify) = (false, false);
            let mut metrics_out = None;
            let mut it = it;
            while let Some(flag) = it.next() {
                let mut value = || {
                    it.next()
                        .ok_or_else(|| format!("flag {flag} needs a value"))
                };
                match flag.as_str() {
                    "--halt" => halt = true,
                    "--verify" => verify = true,
                    "--sdc" => sdc = value()?.to_owned(),
                    "--metrics-out" => metrics_out = Some(value()?.to_owned()),
                    other => parse_net_flag(other, value()?, &mut net)?,
                }
            }
            check_net_flags(&net)?;
            Ok(Command::Su {
                sdc,
                net,
                halt,
                verify,
                metrics_out,
            })
        }
        "--help" | "-h" | "help" => Err("help requested".into()),
        other => Err(format!("unknown command {other:?}")),
    }
}

/// Handles one flag shared by the networked roles; any other flag is an
/// error.
fn parse_net_flag(flag: &str, value: &str, net: &mut NetFlags) -> Result<(), String> {
    let prob = |flag: &str, value: &str, slot: &mut f64| -> Result<(), String> {
        *slot = parse_num(flag, value)?;
        if !(0.0..=1.0).contains(slot) {
            return Err(format!("{flag} must be a probability in [0, 1]"));
        }
        Ok(())
    };
    match flag {
        "--sessions" => {
            net.sessions = parse_num(flag, value)?;
            Ok(())
        }
        "--seed" => {
            net.seed = parse_num(flag, value)?;
            Ok(())
        }
        "--drop" => prob(flag, value, &mut net.drop),
        "--dup" => prob(flag, value, &mut net.dup),
        "--reorder" => prob(flag, value, &mut net.reorder),
        "--corrupt" => prob(flag, value, &mut net.corrupt),
        "--retries" => {
            net.retries = parse_num(flag, value)?;
            Ok(())
        }
        "--timeout-ms" => {
            net.timeout_ms = parse_num(flag, value)?;
            Ok(())
        }
        other => Err(format!("unknown flag {other}")),
    }
}

fn check_net_flags(net: &NetFlags) -> Result<(), String> {
    if net.sessions == 0 || net.timeout_ms == 0 {
        return Err("--sessions and --timeout-ms must be positive".into());
    }
    Ok(())
}

fn check_durable_flags(durable: &DurableFlags) -> Result<(), String> {
    if durable.checkpoint_every == 0 {
        return Err("--checkpoint-every must be positive".into());
    }
    if durable.resume && durable.state_dir.is_none() {
        return Err("--resume requires --state-dir".into());
    }
    Ok(())
}

fn reject_extras<'a>(mut it: impl Iterator<Item = &'a String>) -> Result<(), String> {
    match it.next() {
        None => Ok(()),
        Some(extra) => Err(format!("unexpected argument {extra:?}")),
    }
}

fn parse_flags<'a>(
    mut it: impl Iterator<Item = &'a String>,
    mut handle: impl FnMut(&str, &str) -> Result<(), String>,
) -> Result<(), String> {
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("flag {flag} needs a value"))?;
        handle(flag, value)?;
    }
    Ok(())
}

fn parse_num<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("{flag} expects a number, got {value:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn simple_commands() {
        assert_eq!(parse(&argv("info")).unwrap(), Command::Info);
    }

    #[test]
    fn keygen_defaults_and_flags() {
        assert_eq!(
            parse(&argv("keygen")).unwrap(),
            Command::Keygen { bits: 1024 }
        );
        assert_eq!(
            parse(&argv("keygen --bits 512")).unwrap(),
            Command::Keygen { bits: 512 }
        );
        assert!(parse(&argv("keygen --bits 63")).is_err());
        assert!(parse(&argv("keygen --bits 65")).is_err());
        assert!(parse(&argv("keygen --bits")).is_err());
        assert!(parse(&argv("keygen --what 1")).is_err());
    }

    #[test]
    fn sim_defaults_and_flags() {
        assert_eq!(
            parse(&argv("sim")).unwrap(),
            Command::Sim {
                sus: 1024,
                drop: 0.0,
                dup: 0.0,
                reorder: 0.0,
                corrupt: 0.0,
                seed: 2017,
                retries: 6,
                timeout_ms: 200,
                real: false,
                sweep: false,
                metrics_out: None,
                trace_out: None,
            }
        );
        assert_eq!(
            parse(&argv(
                "sim --sus 100000 --drop 0.1 --dup 0.05 --reorder 0.1 --corrupt 0.02 \
                 --seed 7 --retries 4 --timeout-ms 300 --mode modeled --sweep \
                 --metrics-out s.json"
            ))
            .unwrap(),
            Command::Sim {
                sus: 100_000,
                drop: 0.1,
                dup: 0.05,
                reorder: 0.1,
                corrupt: 0.02,
                seed: 7,
                retries: 4,
                timeout_ms: 300,
                real: false,
                sweep: true,
                metrics_out: Some("s.json".into()),
                trace_out: None,
            }
        );
        match parse(&argv(
            "sim --mode real --sus 16 --metrics-out m.json --trace-out t.json",
        ))
        .unwrap()
        {
            Command::Sim {
                real,
                sus,
                metrics_out,
                trace_out,
                ..
            } => {
                assert!(real);
                assert_eq!(sus, 16);
                assert_eq!(metrics_out.as_deref(), Some("m.json"));
                assert_eq!(trace_out.as_deref(), Some("t.json"));
            }
            other => panic!("parsed {other:?}"),
        }
        // The trace records the spans of one real-fidelity storm.
        assert!(parse(&argv("sim --mode real --sweep --trace-out t.json")).is_err());
        assert!(parse(&argv("sim --trace-out t.json")).is_err());
        assert!(parse(&argv("sim --trace-out")).is_err());
        assert!(parse(&argv("storm")).is_err());
        // Real mode refuses storm sizes the cryptosystem cannot reach.
        assert!(parse(&argv("sim --mode real --sus 100000")).is_err());
        assert!(parse(&argv("sim --mode turbo")).is_err());
        assert!(parse(&argv("sim --drop 1.5")).is_err());
        assert!(parse(&argv("sim --sus 0")).is_err());
        assert!(parse(&argv("sim --metrics-out")).is_err());
        assert!(parse(&argv("sim --what 1")).is_err());
    }

    #[test]
    fn serve_sdc_defaults_and_flags() {
        assert_eq!(
            parse(&argv("serve-sdc")).unwrap(),
            Command::ServeSdc {
                listen: "127.0.0.1:7001".into(),
                stp: "127.0.0.1:7002".into(),
                net: NetFlags::default(),
                durable: DurableFlags::default(),
            }
        );
        assert_eq!(
            parse(&argv(
                "serve-sdc --listen 0.0.0.0:9001 --stp stp.example:9002 \
                 --sessions 16 --seed 7 --drop 0.1 --retries 12 --timeout-ms 900"
            ))
            .unwrap(),
            Command::ServeSdc {
                listen: "0.0.0.0:9001".into(),
                stp: "stp.example:9002".into(),
                net: NetFlags {
                    sessions: 16,
                    seed: 7,
                    drop: 0.1,
                    retries: 12,
                    timeout_ms: 900,
                    ..NetFlags::default()
                },
                durable: DurableFlags::default(),
            }
        );
        assert!(parse(&argv("serve-sdc --sessions 0")).is_err());
        assert!(parse(&argv("serve-sdc --drop 1.5")).is_err());
        assert!(parse(&argv("serve-sdc --what 1")).is_err());
    }

    #[test]
    fn serve_sdc_durable_flags() {
        assert_eq!(
            parse(&argv(
                "serve-sdc --state-dir /tmp/pisa --checkpoint-every 4 --resume"
            ))
            .unwrap(),
            Command::ServeSdc {
                listen: "127.0.0.1:7001".into(),
                stp: "127.0.0.1:7002".into(),
                net: NetFlags::default(),
                durable: DurableFlags {
                    state_dir: Some("/tmp/pisa".into()),
                    checkpoint_every: 4,
                    resume: true,
                },
            }
        );
        // --resume without a state dir cannot work; reject at parse time.
        assert!(parse(&argv("serve-sdc --resume")).is_err());
        assert!(parse(&argv("serve-sdc --checkpoint-every 0")).is_err());
        assert!(parse(&argv("serve-sdc --state-dir")).is_err());
    }

    #[test]
    fn serve_stp_defaults_and_flags() {
        assert_eq!(
            parse(&argv("serve-stp")).unwrap(),
            Command::ServeStp {
                listen: "127.0.0.1:7002".into(),
                net: NetFlags::default(),
                durable: DurableFlags::default(),
            }
        );
        assert_eq!(
            parse(&argv("serve-stp --listen 127.0.0.1:0 --sessions 4")).unwrap(),
            Command::ServeStp {
                listen: "127.0.0.1:0".into(),
                net: NetFlags {
                    sessions: 4,
                    ..NetFlags::default()
                },
                durable: DurableFlags::default(),
            }
        );
        assert_eq!(
            parse(&argv("serve-stp --state-dir state --resume")).unwrap(),
            Command::ServeStp {
                listen: "127.0.0.1:7002".into(),
                net: NetFlags::default(),
                durable: DurableFlags {
                    state_dir: Some("state".into()),
                    checkpoint_every: 1,
                    resume: true,
                },
            }
        );
        assert!(parse(&argv("serve-stp --stp 1.2.3.4:5")).is_err());
        assert!(parse(&argv("serve-stp --resume")).is_err());
    }

    #[test]
    fn trace_flags() {
        assert_eq!(
            parse(&argv("trace --record t.trc --sessions 2 --seed 9")).unwrap(),
            Command::Trace {
                record: Some("t.trc".into()),
                replay: None,
                sessions: 2,
                seed: 9,
            }
        );
        assert_eq!(
            parse(&argv("trace --replay t.trc")).unwrap(),
            Command::Trace {
                record: None,
                replay: Some("t.trc".into()),
                sessions: 4,
                seed: 2017,
            }
        );
        assert!(parse(&argv("trace")).is_err(), "one mode is required");
        assert!(parse(&argv("trace --record a --replay b")).is_err());
        assert!(parse(&argv("trace --record a --sessions 0")).is_err());
        assert!(parse(&argv("trace --what 1")).is_err());
    }

    #[test]
    fn su_defaults_and_flags() {
        assert_eq!(
            parse(&argv("su")).unwrap(),
            Command::Su {
                sdc: "127.0.0.1:7001".into(),
                net: NetFlags::default(),
                halt: false,
                verify: false,
                metrics_out: None,
            }
        );
        assert_eq!(
            parse(&argv(
                "su --sdc sdc.example:9001 --sessions 16 --seed 3 --corrupt 0.05 \
                 --halt --verify --metrics-out net.json"
            ))
            .unwrap(),
            Command::Su {
                sdc: "sdc.example:9001".into(),
                net: NetFlags {
                    sessions: 16,
                    seed: 3,
                    corrupt: 0.05,
                    ..NetFlags::default()
                },
                halt: true,
                verify: true,
                metrics_out: Some("net.json".into()),
            }
        );
        assert!(parse(&argv("su --timeout-ms 0")).is_err());
        assert!(parse(&argv("su --metrics-out")).is_err());
        assert!(parse(&argv("su --listen 127.0.0.1:1")).is_err());
    }

    #[test]
    fn errors() {
        assert!(parse(&[]).is_err());
        assert!(parse(&argv("bogus")).is_err());
        assert!(parse(&argv("info extra")).is_err());
        assert!(parse(&argv("--help")).is_err());
    }
}
