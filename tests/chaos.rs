//! Chaos test for the session engines: many simultaneous SU sessions
//! over a network injecting deterministic drop / duplicate / reorder
//! (and, separately, corruption) faults must finish with *exactly* the
//! grant/deny decisions of the fault-free run under the same seeds —
//! retries re-send the identical encrypted request and the SDC's
//! attempt-scoped caching makes recomputation idempotent, so faults can
//! cost time but never change an answer.
//!
//! The storms run on the simulator's virtual time with the Paillier
//! backend, so a timeout fires only when a frame was really lost.

use pisa::{storm_fixture, EngineConfig};
use pisa_net::{FaultConfig, FaultPlan, NetMetrics};
use pisa_sim::{run_sim_storm_with, StormReport};
use std::time::Duration;

const SESSIONS: u32 = 16;

/// One storm of `n_sus` sessions on [`storm_fixture`]: the SDC with one
/// PU tuned in, the STP with every SU registered, and one
/// single-channel request per SU. Some SUs land next to the PU on its
/// channel (denied), the rest don't (granted) — the decision mix is
/// part of what the chaos run must preserve.
fn storm(
    n_sus: u32,
    seed: u64,
    faults: Option<FaultConfig>,
    engine: &EngineConfig,
) -> (StormReport, NetMetrics) {
    let fixture = storm_fixture(n_sus, seed).unwrap();
    run_sim_storm_with(fixture, faults, engine, seed, 0.0).unwrap()
}

fn decisions(report: &StormReport) -> Vec<(u32, Option<bool>)> {
    report.outcomes.iter().map(|o| (o.su, o.granted)).collect()
}

fn all_completed(report: &StormReport) -> bool {
    report.outcomes.iter().all(|o| o.granted.is_some())
}

fn baseline(n_sus: u32, seed: u64) -> StormReport {
    let engine = EngineConfig::default().with_timeout(Duration::from_secs(5));
    let (report, _) = storm(n_sus, seed, None, &engine);
    assert!(all_completed(&report), "fault-free run must complete");
    report
}

#[test]
fn sixteen_sessions_survive_drop_duplicate_reorder() {
    let seed = 0xc0a5;
    let clean = baseline(SESSIONS, seed);
    let decisions_clean = decisions(&clean);
    // The scenario must exercise both outcomes, or decision equality
    // below would be vacuous.
    assert!(decisions_clean.iter().any(|(_, g)| *g == Some(true)));
    assert!(decisions_clean.iter().any(|(_, g)| *g == Some(false)));

    let faults = FaultConfig::new(0xfa17).with_default_plan(
        FaultPlan::none()
            .with_drop(0.10)
            .with_duplicate(0.10)
            .with_reorder(0.10),
    );
    // Real losses cost 1.5–12 s of virtual time each, bounded by the 8×
    // backoff cap.
    let engine = EngineConfig::default()
        .with_timeout(Duration::from_millis(1500))
        .with_max_retries(12);
    let (report, metrics) = storm(SESSIONS, seed, Some(faults), &engine);

    assert!(all_completed(&report), "{:?}", report.outcomes);
    assert_eq!(
        decisions(&report),
        decisions_clean,
        "faults changed a grant/deny decision"
    );

    // The chaos actually happened, and the engine's resilience counters
    // surfaced it through NetMetrics.
    let faults_seen = metrics.fault_totals();
    assert!(faults_seen.dropped > 0, "{faults_seen:?}");
    assert!(faults_seen.duplicated > 0, "{faults_seen:?}");
    assert!(faults_seen.reordered > 0, "{faults_seen:?}");
    let sessions = metrics.session_totals();
    assert!(
        sessions.retries > 0 || sessions.rejected > 0,
        "no session ever retried or rejected under 10% loss: {sessions:?}"
    );
    // Per-session counters are attributable, not just aggregated.
    assert!(!metrics.session_snapshot().is_empty());
}

#[test]
fn corruption_is_rejected_not_trusted() {
    let seed = 0xc0a6;
    let clean = baseline(6, seed);

    let faults = FaultConfig::new(0x0bad)
        .with_default_plan(FaultPlan::none().with_drop(0.05).with_corrupt(0.15));
    let engine = EngineConfig::default()
        .with_timeout(Duration::from_millis(800))
        .with_max_retries(12);
    let (report, metrics) = storm(6, seed, Some(faults), &engine);

    assert!(all_completed(&report), "{:?}", report.outcomes);
    assert_eq!(
        decisions(&report),
        decisions(&clean),
        "a flipped bit changed a grant/deny decision"
    );
    let faults_seen = metrics.fault_totals();
    assert!(
        faults_seen.corrupted + faults_seen.corrupt_dropped > 0,
        "{faults_seen:?}"
    );
}

/// Observability must be close to free: the 16-session chaos storm
/// with spans + counters enabled may cost at most 3% more wall time
/// than the identical run with them disabled. Min-of-N is used on
/// both sides to shed scheduler noise; the workload itself is
/// Paillier-bound, so span bookkeeping is far off the critical path.
/// Soak lane (ignored): two timed release-mode storms per round.
#[test]
#[ignore]
fn observability_overhead_is_under_three_percent() {
    const ROUNDS: usize = 3;
    let seed = 0xc0a7;

    let timed_storm = |observe: bool| {
        pisa_obs::set_enabled(observe);
        if observe {
            pisa_obs::reset();
        }
        let fixture = storm_fixture(SESSIONS, seed).unwrap();
        let engine = EngineConfig::default().with_timeout(Duration::from_secs(5));
        let start = std::time::Instant::now();
        let (report, _) = run_sim_storm_with(fixture, None, &engine, seed, 0.0).unwrap();
        let elapsed = start.elapsed();
        pisa_obs::set_enabled(false);
        assert!(all_completed(&report));
        elapsed
    };

    // Warm-up pass so allocator/page-cache effects don't bias the
    // first measured configuration.
    timed_storm(false);

    let mut off = Duration::MAX;
    let mut on = Duration::MAX;
    for _ in 0..ROUNDS {
        off = off.min(timed_storm(false));
        on = on.min(timed_storm(true));
    }
    assert!(!pisa_obs::report().spans.is_empty(), "no spans recorded");

    let overhead = on.as_secs_f64() / off.as_secs_f64() - 1.0;
    assert!(
        overhead < 0.03,
        "observability overhead {:.2}% exceeds 3% (off {off:?}, on {on:?})",
        overhead * 100.0
    );
}
