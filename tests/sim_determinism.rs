//! Determinism regression suite for the discrete-event simulator.
//!
//! The simulator's contract is *bit* determinism: the same
//! `(seed, config)` must produce a byte-identical serialized report,
//! run to run and machine to machine. These tests pin that
//! contract, replay a checked-in golden seed list so a behavior change
//! cannot slip in silently, and prove the paper-scale 10⁵-session
//! storm stays fast, terminal and reproducible.

use pisa::EngineConfig;
use pisa_net::FaultPlan;
use pisa_sim::{run_sim_storm, SimConfig, StormReport};
use std::time::{Duration, Instant};

fn quick_engine() -> EngineConfig {
    EngineConfig::default().with_timeout(Duration::from_millis(50))
}

#[test]
fn same_seed_same_bytes_twice() {
    let config = SimConfig::modeled(200)
        .with_plan(FaultPlan::uniform(0.15))
        .with_engine(quick_engine());
    let a = run_sim_storm(0xd00d, &config).to_json();
    let b = run_sim_storm(0xd00d, &config).to_json();
    assert_eq!(a, b, "two runs of one seed must serialize identically");
}

#[test]
fn modeled_and_real_agree_on_quiet_decisions() {
    // Same seed, both fidelities, no faults: the plaintext model must
    // reach exactly the decisions the cryptosystem reaches.
    let n = 8;
    let real = run_sim_storm(0x51a1, &SimConfig::real(n).with_engine(quick_engine()));
    let modeled = run_sim_storm(0x51a1, &SimConfig::modeled(n).with_engine(quick_engine()));
    assert!(real.all_terminal() && modeled.all_terminal());
    let real_dec: Vec<_> = real.outcomes.iter().map(|o| (o.su, o.granted)).collect();
    let model_dec: Vec<_> = modeled.outcomes.iter().map(|o| (o.su, o.granted)).collect();
    assert_eq!(real_dec, model_dec, "model diverged from the cryptosystem");
}

/// Drop, duplicate and reorder, each at `p`; no corruption.
fn lossy(p: f64) -> FaultPlan {
    FaultPlan::none()
        .with_drop(p)
        .with_duplicate(p)
        .with_reorder(p)
}

/// Both fidelities run one seeded storm of eight SUs under `plan`.
fn both_fidelities(
    seed: u64,
    plan: FaultPlan,
    engine: &EngineConfig,
) -> (StormReport, StormReport) {
    let real = SimConfig::real(8)
        .with_plan(plan)
        .with_engine(engine.clone());
    let modeled = SimConfig::modeled(8)
        .with_plan(plan)
        .with_engine(engine.clone());
    let (real, modeled) = (run_sim_storm(seed, &real), run_sim_storm(seed, &modeled));
    assert!(real.all_terminal() && modeled.all_terminal(), "seed {seed}");
    (real, modeled)
}

/// Without corruption the two backends differ only in what their
/// messages compute: the frames have the same sizes, so the fault draws
/// and the event order agree, and every SU reaches the same decision
/// after the same number of attempts.
fn assert_lossy_agreement(seed: u64, plan: FaultPlan, engine: &EngineConfig) {
    let (real, modeled) = both_fidelities(seed, plan, engine);
    assert!(real.faults.total() > 0, "seed {seed}: no fault fired");
    assert_eq!(
        real.decisions_digest, modeled.decisions_digest,
        "seed {seed} {plan:?}: real {:?} vs modeled {:?}",
        real.outcomes, modeled.outcomes
    );
}

/// With corruption the two corruption oracles differ by design (a bit
/// flip in real ciphertext bytes against the model's tweak table), so
/// attempt counts may too. Every SU both fidelities decide must get the
/// same decision, and neither may grant what the WATCH oracle denies.
fn assert_corrupt_agreement(seed: u64, plan: FaultPlan, engine: &EngineConfig) {
    let (real, modeled) = both_fidelities(seed, plan, engine);
    assert!(real.faults.corrupted > 0, "seed {seed}: no frame corrupted");
    let mut both = 0;
    for ((r, m), &want) in real
        .outcomes
        .iter()
        .zip(&modeled.outcomes)
        .zip(&modeled.expected)
    {
        assert_eq!(r.su, m.su);
        if let (Some(a), Some(b)) = (r.granted, m.granted) {
            assert_eq!(a, b, "seed {seed}: SU {} decided apart", r.su);
            both += 1;
        }
        for (fidelity, granted) in [("real", r.granted), ("modeled", m.granted)] {
            assert!(
                granted != Some(true) || want,
                "seed {seed}: {fidelity} granted SU {} against the oracle",
                r.su
            );
        }
    }
    assert!(both > 0, "seed {seed}: no SU decided at both fidelities");
}

#[test]
fn modeled_and_real_agree_under_faults() {
    let default = EngineConfig::default();
    assert_lossy_agreement(10, lossy(0.2), &default);
    assert_lossy_agreement(40, lossy(0.3), &quick_engine());
    assert_corrupt_agreement(1, FaultPlan::uniform(0.1), &default);
}

/// The tier-2 sweep of the agreement above: 52 seeded lossy storms
/// (seeds 10–29 at 20 % with the default 200 ms timeout, seeds 40–55 at
/// 10 % and at 30 % with a 50 ms timeout) and 12 corrupting ones
/// (seeds 1–12 at 10 % of every fault kind).
#[test]
#[ignore = "tier 2: 64 real-fidelity storms; the sim-sweep CI lane runs it"]
fn modeled_and_real_agree_on_64_seeded_fault_plans() {
    let default = EngineConfig::default();
    for seed in 10..30 {
        assert_lossy_agreement(seed, lossy(0.2), &default);
    }
    for seed in 40..56 {
        for rate in [0.1, 0.3] {
            assert_lossy_agreement(seed, lossy(rate), &quick_engine());
        }
    }
    for seed in 1..13 {
        assert_corrupt_agreement(seed, FaultPlan::uniform(0.1), &default);
    }
}

/// Replays `tests/data/sim_golden_seeds.txt`: each line is
/// `seed sus fault_rate expected_digest` (modeled fidelity, 50 ms
/// timeout, LAN latency). A digest mismatch means simulator behavior
/// changed — regenerate the file ONLY if the change is intended, and
/// say why in the commit.
#[test]
fn golden_seeds_replay_bit_exact() {
    let data = include_str!("data/sim_golden_seeds.txt");
    let mut checked = 0;
    for line in data.lines() {
        let line = line.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let fields: Vec<&str> = line.split_whitespace().collect();
        assert_eq!(fields.len(), 4, "malformed golden line: {line:?}");
        let seed: u64 = fields[0].parse().expect("seed");
        let sus: u32 = fields[1].parse().expect("sus");
        let rate: f64 = fields[2].parse().expect("fault rate");
        let expect = u64::from_str_radix(fields[3], 16).expect("digest");
        let config = SimConfig::modeled(sus)
            .with_plan(FaultPlan::uniform(rate))
            .with_engine(quick_engine());
        let report = run_sim_storm(seed, &config);
        assert!(report.all_terminal(), "golden seed {seed} did not quiesce");
        assert_eq!(
            report.decisions_digest, expect,
            "golden seed {seed} (sus {sus}, rate {rate}) drifted: got {:016x}",
            report.decisions_digest
        );
        checked += 1;
    }
    assert!(checked >= 8, "golden file must carry at least 8 seeds");
}

/// Regenerates the golden seed lines. Run with
/// `cargo test -p pisa-sim --test sim_determinism --release -- --ignored --nocapture regenerate`
/// and paste the output into `tests/data/sim_golden_seeds.txt` when a
/// deliberate behavior change invalidates the old digests.
#[test]
#[ignore = "tool: prints fresh golden lines, does not assert"]
fn regenerate_golden_seed_lines() {
    const CASES: [(u64, u32, f64); 10] = [
        (1, 32, 0.0),
        (2, 32, 0.15),
        (3, 64, 0.05),
        (4, 64, 0.3),
        (5, 128, 0.0),
        (6, 128, 0.15),
        (7, 256, 0.05),
        (8, 256, 0.3),
        (9, 512, 0.15),
        (2017, 1024, 0.05),
    ];
    for (seed, sus, rate) in CASES {
        let config = SimConfig::modeled(sus)
            .with_plan(FaultPlan::uniform(rate))
            .with_engine(quick_engine());
        let report = run_sim_storm(seed, &config);
        assert!(report.all_terminal());
        println!("{seed} {sus} {rate} {:016x}", report.decisions_digest);
    }
}

/// Decisions digest and event count of the storm below: seed 2017, 10⁵
/// sessions, 5% drop, 2% duplicate, 5% reorder, 2% corrupt, 50 ms
/// timeout. The CI digest gate's `pisa sim` storm (200 ms timeout)
/// prints the same two numbers. Like the golden seed file, they move
/// only when simulator behavior changes.
const HUNDRED_THOUSAND_DIGEST: u64 = 0x70cf_bed2_1e81_46ff;
const HUNDRED_THOUSAND_EVENTS: u64 = 1_273_153;

/// The tentpole scale claim: a 10⁵-session storm with faults on
/// finishes under tier-1 in well under a minute, every session reaches
/// a terminal state, its decisions match the pinned digest, and two
/// runs are bit-identical.
#[test]
fn hundred_thousand_sessions_fast_terminal_and_reproducible() {
    let config = SimConfig::modeled(100_000)
        .with_plan(
            FaultPlan::none()
                .with_drop(0.05)
                .with_duplicate(0.02)
                .with_reorder(0.05)
                .with_corrupt(0.02),
        )
        .with_engine(quick_engine());
    let t = Instant::now();
    let a = run_sim_storm(2017, &config);
    let once = t.elapsed();
    assert!(a.all_terminal(), "{} sessions unfinished", a.unfinished);
    assert_eq!(a.sus, 100_000);
    assert!(
        once < Duration::from_secs(30),
        "10^5-session storm took {once:?} (budget 30 s per run)"
    );
    // Grants stay sound under every fault.
    for (o, &want) in a.outcomes.iter().zip(&a.expected) {
        assert!(
            o.granted != Some(true) || want,
            "SU {} obtained a grant the oracle denies",
            o.su
        );
    }
    assert_eq!(
        a.decisions_digest, HUNDRED_THOUSAND_DIGEST,
        "10^5-session storm drifted: got {:016x}",
        a.decisions_digest
    );
    assert_eq!(a.events, HUNDRED_THOUSAND_EVENTS);
    let b = run_sim_storm(2017, &config);
    assert_eq!(
        a.decisions_digest, b.decisions_digest,
        "10^5-session storm is not bit-deterministic"
    );
    assert_eq!(a.events, b.events);
    assert_eq!(a.bytes, b.bytes);
}

#[test]
fn obs_registry_holds_no_virtual_time_spans() {
    // The obs registry times wall-clock work. A storm's virtual times
    // belong to its report (`makespan_ns`, each outcome's
    // `finished_ns`), not beside the crypto phases of the real engines:
    // one table would then add virtual and wall-clock milliseconds.
    // Threads take obs tids from 1, so a span with tid 0 was stamped
    // from outside the wall clock. The registry is process-global and
    // sibling tests run concurrently, so assert presence and absence
    // rather than exact counts.
    pisa_obs::set_enabled(true);
    pisa_obs::reset();
    let report = run_sim_storm(5, &SimConfig::real(4).with_engine(quick_engine()));
    pisa_obs::set_enabled(false);
    assert!(report.all_terminal() && report.makespan_ns > 0);
    let obs = pisa_obs::report();
    assert!(
        obs.spans.iter().any(|s| s.name == "sign_test"),
        "the real engines ran with obs on"
    );
    let virtual_spans: Vec<_> = obs
        .spans
        .iter()
        .filter(|s| s.tid == 0)
        .map(|s| s.name)
        .collect();
    assert!(
        virtual_spans.is_empty(),
        "virtual-time spans in the wall-clock registry: {virtual_spans:?}"
    );
}
