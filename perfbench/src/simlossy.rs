//! `sim-lossy`: a modeled 5×10⁴-session storm on virtual time over a lossy
//! network.
//!
//! No crypto runs here: `pisa_sim`'s event loop, the SimNet fault
//! pipeline (drop, duplicate, reorder and about 1% corruption), the
//! corruption oracle and the session engines' retry and replay logic do
//! all the work. That work is a pure function of the seed, so the run
//! repeats the one seeded storm for the whole window and requires every
//! repetition to report the same events, attempts, faults and decisions.
//! Each storm passes `pisa_sim::check_storm`, and every decision must
//! equal the WATCH oracle's. Host probes on either side of each storm
//! scale its wall time to reference speed.

use crate::host::Speed;
use crate::layers::{self, BusyClock};
use crate::stats::{median, Failure, Tally};
use crate::{derive_seed, Args, Outcome};
use pisa_net::FaultPlan;
use pisa_sim::{check_storm, SimConfig, StormReport};
use std::time::Instant;

/// Sessions per measured storm. A storm of this size takes about 0.7 s:
/// short enough that the host's speed mostly holds through it, so the
/// probes on either side track it. At 10⁵ sessions (1.5 s) the host
/// often changed speed mid-storm, and run medians spread twice as much.
const SESSIONS: u32 = 50_000;
/// Sessions of the set-up storm (and of the traced storm).
const SMALL_SESSIONS: u32 = 20_000;
/// Set-ups timed per run; `setup_s` is their median. A set-up is short
/// here, so more of them steady the median.
const SETUP_REPEATS: usize = 5;
/// Sessions of the fault-free storm that sizes one session on the wire.
const QUIET_SESSIONS: u32 = 1_000;

/// Per-link fault probabilities.
fn lossy_plan() -> FaultPlan {
    FaultPlan {
        drop: 0.02,
        duplicate: 0.02,
        reorder: 0.02,
        corrupt: 0.01,
    }
}

fn storm(seed: u64, config: &SimConfig) -> Result<(StormReport, f64), String> {
    let t = Instant::now();
    let report = check_storm(seed, config)?;
    Ok((report, t.elapsed().as_secs_f64()))
}

/// Tallies one storm's sessions against the WATCH oracle's decisions.
///
/// A decision that contradicts the oracle fails. A session that ends
/// undecided does not: with corruption possible, a denied SU cannot
/// tell a deny from a flipped bit, so it spends its whole retry budget
/// by design, and a frame lost on its last attempt leaves it undecided.
/// That share is deterministic per seed and reported as
/// `sim.undecided_ratio`; it is left out of `sessions_per_s`.
fn tally(report: &StormReport) -> Tally {
    let mut tally = Tally::default();
    for (o, &want) in report.outcomes.iter().zip(&report.expected) {
        tally.record(match o.granted {
            Some(g) if g != want => Err(Failure::Wrong),
            _ => Ok(()),
        });
    }
    // A session the oracle has no expectation for cannot be checked.
    let unchecked = report.outcomes.len().saturating_sub(report.expected.len());
    for _ in 0..unchecked {
        tally.record(Err(Failure::Undecided));
    }
    tally
}

/// The median session's completion instant in virtual time, in ns.
fn p50_finished_ns(r: &StormReport) -> u64 {
    let mut finished: Vec<u64> = r.outcomes.iter().map(|o| o.finished_ns).collect();
    finished.sort_unstable();
    finished.get(finished.len() / 2).copied().unwrap_or(0)
}

/// The fields that must repeat exactly for one seed.
fn fingerprint(r: &StormReport) -> [u64; 6] {
    [
        r.decisions_digest,
        r.events,
        r.attempts_total,
        r.faults.total(),
        r.bytes,
        p50_finished_ns(r),
    ]
}

/// Runs the workload.
pub fn run(args: &Args, mut out: Outcome) -> Result<Outcome, String> {
    let storm_seed = derive_seed(args.seed, 1);
    let lossy = SimConfig::modeled(SESSIONS).with_plan(lossy_plan());
    let small = SimConfig::modeled(SMALL_SESSIONS).with_plan(lossy_plan());

    let mut speed = Speed::start();
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut session_bytes = 0.0;
    let mut small_untraced_s = 0.0;
    for _ in 0..SETUP_REPEATS {
        speed.lap();
        let since = Instant::now();
        let (quiet, _) = storm(storm_seed, &SimConfig::modeled(QUIET_SESSIONS))?;
        session_bytes = quiet.bytes as f64 / f64::from(quiet.sus);
        let (warm, secs) = storm(storm_seed, &small)?;
        small_untraced_s = secs;
        out.check(tally(&warm).failed() == 0, || {
            "set-up storm reached a wrong or no decision".into()
        });
        setups.push(since.elapsed().as_secs_f64() * speed.lap());
    }
    eprintln!("perfbench: set-ups took {setups:?} s at reference speed");

    let clock = BusyClock::start();
    let window = Instant::now();
    let mut first: Option<StormReport> = None;
    // Each storm's wall time at reference speed.
    let mut walls = Vec::new();
    speed.lap();
    loop {
        let (report, secs) = storm(storm_seed, &lossy)?;
        walls.push(secs * speed.lap());
        out.tally.merge(&tally(&report));
        match &first {
            Some(f) => out.check(fingerprint(f) == fingerprint(&report), || {
                "a repeated storm diverged from the first".into()
            }),
            None => first = Some(report),
        }
        if window.elapsed().as_secs_f64() + secs / 2.0 >= args.seconds.as_secs_f64() {
            break;
        }
    }
    let busy = clock.busy_ratio();
    let first = first.ok_or("no storm ran")?;
    eprintln!(
        "perfbench: {} storms of {} sessions in {:.1} s; {} events, {} attempts, {} faults, {} undecided",
        walls.len(),
        SESSIONS,
        window.elapsed().as_secs_f64(),
        first.events,
        first.attempts_total,
        first.faults.total(),
        first.undecided
    );

    let sus = f64::from(first.sus);
    let m = &mut out.metrics;
    if args.trace {
        m.put("sim.events_per_session", first.events as f64 / sus);
        m.put(
            "sim.attempts_per_session",
            first.attempts_total as f64 / sus,
        );
        m.put("sim.faults_per_session", first.faults.total() as f64 / sus);
        m.put("sim.undecided_ratio", f64::from(first.undecided) / sus);
        m.put(
            "sim.us_per_event",
            median(&walls) * 1e6 / first.events as f64,
        );
        m.put("cpu.busy_ratio", busy);
        // One small storm with spans on: a `sim.session` span per
        // session plus the storm's, against the untraced set-up storm.
        pisa_obs::reset();
        pisa_obs::set_enabled(true);
        let (_, traced_s) = storm(storm_seed, &small)?;
        pisa_obs::set_enabled(false);
        m.put(
            "obs.overhead_pct",
            (traced_s / small_untraced_s - 1.0) * 100.0,
        );
        layers::write_chrome_trace(&args.workload, args.seed, &pisa_obs::report());
        pisa_obs::reset();
    } else {
        m.put("setup_s", median(&setups));
        // Every storm does the same work, so the median storm stands
        // for the run.
        let storms = walls.len() as f64;
        let decided = out.tally.correct() as f64 / storms - f64::from(first.undecided);
        m.put("sessions_per_s", decided / median(&walls));
        // Virtual time, fixed by the seed and checked equal across the
        // run's storms: it moves only when the protocol's message
        // pattern or the retry policy changes, never with speed.
        m.put("latency_p50_ms", p50_finished_ns(&first) as f64 / 1e6);
        m.put("wire_kib_per_session", session_bytes / 1024.0);
        m.put("peak_rss_mib", layers::peak_rss_mib());
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pisa_net::{FaultStats, SessionStats};
    use pisa_sim::SimOutcome;

    #[test]
    fn only_decisions_against_the_oracle_fail() {
        let outcome = |su, granted| SimOutcome {
            su,
            granted,
            attempts: 1,
            finished_ns: 1,
        };
        let report = StormReport {
            seed: 0,
            fidelity: "modeled",
            sus: 5,
            granted: 2,
            denied: 2,
            undecided: 1,
            unfinished: 0,
            attempts_total: 5,
            max_attempts: 1,
            makespan_ns: 1,
            events: 10,
            truncated: false,
            messages: 10,
            bytes: 100,
            faults: FaultStats::default(),
            sessions: SessionStats::default(),
            decisions_digest: 0,
            outcomes: vec![
                outcome(0, Some(true)),
                outcome(1, Some(false)),
                outcome(2, None),
                outcome(3, Some(true)),
                outcome(4, Some(false)),
            ],
            expected: vec![true, false, false, false, true],
        };
        let t = tally(&report);
        assert_eq!((t.attempted, t.failed(), t.wrong), (5, 2, 2));
        // An outcome the oracle has no expectation for cannot pass.
        let mut unchecked = report.clone();
        unchecked.expected.pop();
        let t = tally(&unchecked);
        assert_eq!((t.attempted, t.failed(), t.undecided), (5, 2, 1));
    }
}
