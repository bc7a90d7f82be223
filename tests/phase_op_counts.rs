//! Pins the inversions and gcds of one 4×25 session and of PU updates
//! to the fan-out groups they run in: each group of a sign test shares
//! one inversion per ⊖ step and one gcd for its β̃ nonces, key
//! conversion one gcd per group, and a stream of draws one gcd per
//! batch. A phase that falls back to per-entry work (200 inversions for
//! the sign test, as before batching) fails here.
//!
//! The counters are process globals, so this file holds one `#[test]`.
//! Compiled only with `pisa-core`'s `obs` feature, which a
//! workspace-wide `cargo test` turns on through the CLI.
#![cfg(feature = "obs")]

use pisa::{run_request_direct, PuClient, SdcServer, StpServer, SuClient, SuId, SystemConfig};
use pisa_obs::OpTotals;
use pisa_radio::tv::Channel;
use pisa_radio::BlockId;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Fan-out groups over `entries`, as `fan_out_groups` forms them: the
/// host's workers, capped by the entries, and at most one lane group
/// per task (one entry without the IFMA lane tier).
fn groups(entries: usize) -> u64 {
    let workers = std::thread::available_parallelism()
        .map_or(1, usize::from)
        .min(entries)
        .max(1);
    let size = entries
        .div_ceil(workers)
        .clamp(1, pisa_bigint::modular::pow_many_width());
    entries.div_ceil(size) as u64
}

/// Inversions and gcds of `ops`.
fn divsteps(ops: &OpTotals) -> (u64, u64) {
    (ops.inversions, ops.gcds)
}

#[test]
fn inversions_and_gcds_follow_the_fan_out_groups() {
    let mut rng = StdRng::seed_from_u64(0x1f0);
    let cfg = SystemConfig::small_test();
    let mut stp = StpServer::new(&mut rng, cfg.paillier_bits());
    let mut sdc = SdcServer::new(cfg.clone(), stp.public_key().clone(), "sdc.ops", &mut rng);
    let mut su = SuClient::new(SuId(0), BlockId(3), &cfg, &mut rng);
    stp.register_su(su.id(), su.public_key().clone());
    let mut pu = PuClient::new(0, BlockId(2));
    pisa_obs::set_enabled(true);

    // A PU update: one gcd for the C nonces, one for the column's unit
    // check, and from the second update on one inversion to take the
    // old column out of Ñ.
    for (update, inversions) in [(1, 0), (0, 1)] {
        let before = pisa_obs::counters();
        let msg = pu.tune(
            Some(Channel(update)),
            &cfg,
            sdc.e_matrix(),
            stp.public_key(),
            &mut rng,
        );
        sdc.handle_pu_update(0, msg).unwrap();
        let ops = pisa_obs::counters().delta_since(&before);
        assert_eq!(divsteps(&ops), (inversions, 2), "PU update {update}");
    }

    pisa_obs::reset();
    let outcome = run_request_direct(&mut su, &mut sdc, &stp, &[Channel(0)], &mut rng).unwrap();
    assert!(!outcome.granted, "the PU next door denies channel 0");
    let report = pisa_obs::report();
    let phase = |name: &str| {
        report
            .phases
            .iter()
            .find(|p| p.name == name)
            .map(|p| divsteps(&p.ops))
            .unwrap_or_else(|| panic!("no {name} phase"))
    };
    let entries = cfg.channels() * cfg.blocks();
    let g = groups(entries);
    assert_eq!(entries, 100);
    // The request's 100 nonces come from one stream in one batch.
    assert_eq!(phase("su.build_request"), (0, 1));
    // Two ⊖ steps and one nonce batch per group.
    assert_eq!(phase("sign_test"), (2 * g, g));
    assert_eq!(phase("key_conversion"), (0, g));
    // ΣQ's one ⊖ and the signature's nonce.
    assert_eq!(phase("signature_release"), (1, 1));
    assert_eq!(phase("su.verify_license"), (0, 0));
    let total = report.totals;
    assert_eq!(divsteps(&total), (2 * g + 1, 2 * g + 2));
    println!(
        "{g} fan-out groups: {} inversions and {} gcds per session",
        total.inversions, total.gcds
    );
    pisa_obs::set_enabled(false);
}
