//! Pins what the randomizer pools save in one 4×25 session: with pools
//! primed offline, the SDC's sign test takes every β factor and the
//! STP's key conversion every ±1 re-encryption factor from a pool, so
//! each phase avoids exactly one mod-exp per request entry and no pool
//! runs dry. A session without pools avoids none. A bypassed pool or a
//! skipped refill fails here.
//!
//! The counters are process globals, so this file holds one `#[test]`.
//! Compiled only with `pisa-core`'s `obs` feature, which a
//! workspace-wide `cargo test` turns on through the CLI.
#![cfg(feature = "obs")]

use pisa::prelude::*;
use pisa_obs::{OpTotals, Report};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Pool capacity: more than one session's 100 entries.
const POOL: usize = 128;

/// One request round on a fresh system, with pools of `pool` factors
/// primed before it when set; returns the round's obs report.
fn session(pool: Option<usize>) -> (Report, usize) {
    let mut rng = StdRng::seed_from_u64(0xb37c);
    let cfg = SystemConfig::small_test();
    let entries = cfg.channels() * cfg.blocks();
    let mut system = PisaSystem::setup(cfg, &mut rng);
    system.pu_update(0, BlockId(0), Some(Channel(0)), &mut rng);
    let su = system.register_su(BlockId(1), &mut rng);
    if let Some(capacity) = pool {
        system.enable_pools(capacity);
    }
    // The offline phase, outside the measured round.
    system.refill_pools(&mut rng);

    pisa_obs::reset();
    pisa_obs::set_enabled(true);
    let outcome = system.request(su, &[Channel(1)], &mut rng);
    pisa_obs::set_enabled(false);
    assert!(outcome.granted, "channel 1 is free");
    (pisa_obs::report(), entries)
}

fn phase(report: &Report, name: &str) -> OpTotals {
    report
        .phases
        .iter()
        .find(|p| p.name == name)
        .map(|p| p.ops)
        .unwrap_or_else(|| panic!("no {name} phase"))
}

#[test]
fn pools_avoid_one_mod_exp_per_entry_in_sign_test_and_key_conversion() {
    let (plain, entries) = session(None);
    let (pooled, _) = session(Some(POOL));
    assert_eq!(entries, 100);
    let per_entry = entries as u64;

    for name in ["sign_test", "key_conversion"] {
        let (with, without) = (phase(&pooled, name), phase(&plain, name));
        assert_eq!(with.mod_exps_avoided, per_entry, "{name}: {with:?}");
        assert_eq!(without.mod_exps_avoided, 0, "{name} unpooled: {without:?}");
        // Each avoided exponentiation is one the phase no longer runs.
        assert_eq!(
            without.mod_exps - with.mod_exps,
            per_entry,
            "{name}: {without:?} unpooled vs {with:?} pooled"
        );
    }
    assert_eq!(pooled.totals.mod_exps_avoided, 2 * per_entry);
    assert_eq!(pooled.totals.pool_misses, 0, "{:?}", pooled.totals);
    assert_eq!(plain.totals.mod_exps_avoided, 0, "{:?}", plain.totals);
    assert_eq!(plain.totals.pool_misses, 0, "{:?}", plain.totals);
}
