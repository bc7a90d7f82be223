//! End-to-end protocol tests: the full Figure 3 / Figure 5 flow.

use pisa::prelude::*;
use pisa_net::{FaultConfig, LatencyModel};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;

fn rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// Runs `sus` through the storm engine on a fault-free LAN with a
/// generous deadline, so every session completes on its first try:
/// one request, one blinded query, one reply, one response each.
fn quiet_lan_storm(
    sus: Vec<(pisa::SuClient, Vec<Channel>)>,
    sdc: pisa::SdcServer,
    stp: pisa::StpServer,
    seed: u64,
) -> pisa::EngineReport {
    let sessions = sus.len() as u64;
    let lan = FaultConfig::new(seed).with_latency(LatencyModel::lan());
    let engine = pisa::EngineConfig::default().with_timeout(Duration::from_secs(5));
    let (report, _sdc, _stp) = pisa::run_storm(sus, sdc, stp, Some(lan), &engine, seed).unwrap();
    assert!(report.all_completed());
    assert_eq!(report.metrics.total_messages(), 4 * sessions);
    report
}

#[test]
fn empty_system_grants_everything() {
    let mut r = rng(1);
    let mut system = PisaSystem::setup(SystemConfig::small_test(), &mut r);
    let su = system.register_su(BlockId(0), &mut r);
    for c in 0..4 {
        let outcome = system.request(su, &[Channel(c)], &mut r);
        assert!(outcome.granted, "channel {c} must be granted with no PUs");
    }
}

#[test]
fn su_next_to_active_pu_is_denied() {
    let mut r = rng(2);
    let mut system = PisaSystem::setup(SystemConfig::small_test(), &mut r);
    system.pu_update(0, BlockId(12), Some(Channel(1)), &mut r);

    let su = system.register_su(BlockId(13), &mut r);
    let denied = system.request(su, &[Channel(1)], &mut r);
    assert!(!denied.granted, "full power beside an active PU");

    // Same SU, different channel: fine.
    let granted = system.request(su, &[Channel(0)], &mut r);
    assert!(granted.granted, "unwatched channel must be granted");
}

#[test]
fn pu_switching_frees_the_old_channel() {
    let mut r = rng(3);
    let mut system = PisaSystem::setup(SystemConfig::small_test(), &mut r);
    let su = system.register_su(BlockId(13), &mut r);

    system.pu_update(0, BlockId(12), Some(Channel(1)), &mut r);
    assert!(!system.request(su, &[Channel(1)], &mut r).granted);

    // The PU switches channels: channel 1 opens up, channel 2 closes.
    system.pu_update(0, BlockId(12), Some(Channel(2)), &mut r);
    assert!(system.request(su, &[Channel(1)], &mut r).granted);
    assert!(!system.request(su, &[Channel(2)], &mut r).granted);

    // The PU turns off entirely: everything opens up.
    system.pu_update(0, BlockId(12), None, &mut r);
    assert!(system.request(su, &[Channel(2)], &mut r).granted);
}

#[test]
fn low_power_su_is_granted_where_full_power_is_denied() {
    let mut r = rng(4);
    let cfg = SystemConfig::small_test();
    let mut system = PisaSystem::setup(cfg.clone(), &mut r);
    system.pu_update(0, BlockId(12), Some(Channel(1)), &mut r);
    let su = system.register_su(BlockId(13), &mut r);

    let full = system.request(su, &[Channel(1)], &mut r);
    assert!(!full.granted);

    let quiet =
        pisa_watch::SuRequest::with_power_dbm(cfg.watch(), BlockId(13), &[Channel(1)], -40.0);
    let outcome = system.request_with(su, &quiet, &mut r).unwrap();
    assert!(outcome.granted, "a -40 dBm whisper cannot hurt the PU");
}

#[test]
fn multiple_sus_independent_decisions() {
    let mut r = rng(5);
    let mut system = PisaSystem::setup(SystemConfig::small_test(), &mut r);
    system.pu_update(0, BlockId(0), Some(Channel(0)), &mut r);

    let near = system.register_su(BlockId(1), &mut r);
    let far = system.register_su(BlockId(24), &mut r);

    let near_outcome = system.request(near, &[Channel(0)], &mut r);
    let far_outcome = system.request(far, &[Channel(0)], &mut r);
    assert!(!near_outcome.granted, "SU one block from the PU");
    // The far SU is ~32 blocks of 10 m away; whether it is granted
    // depends on the propagation budget — what matters here is that the
    // two decisions are independent and the near one is denied.
    assert_ne!(near_outcome.license.serial, far_outcome.license.serial);
}

#[test]
fn response_sizes_match_shape() {
    // Request is C×B ciphertexts; response is one ciphertext + license.
    let mut r = rng(6);
    let mut system = PisaSystem::setup(SystemConfig::small_test(), &mut r);
    let su = system.register_su(BlockId(5), &mut r);
    let outcome = system.request(su, &[Channel(0)], &mut r);

    let cfg = system.config();
    let ct_bytes = 2 * cfg.paillier_bits() / 8;
    let expected_request = cfg.channels() * cfg.blocks() * ct_bytes;
    assert!(outcome.request_bytes >= expected_request);
    assert!(outcome.request_bytes < expected_request + 1024);
    assert!(outcome.response_bytes < 2 * ct_bytes + 256);
    // SDC↔STP traffic is symmetric in entry count.
    assert_eq!(outcome.sdc_to_stp_bytes, outcome.stp_to_sdc_bytes);
}

#[test]
fn network_execution_matches_direct_decision() {
    let mut r = rng(7);
    let cfg = SystemConfig::small_test();

    // Direct.
    let mut direct = PisaSystem::setup(cfg.clone(), &mut r);
    direct.pu_update(0, BlockId(12), Some(Channel(1)), &mut r);
    let su_id = direct.register_su(BlockId(13), &mut r);
    let direct_outcome = direct.request(su_id, &[Channel(1)], &mut r);

    // Over the simulated network with independent parties.
    let mut r2 = rng(8);
    let mut stp = pisa::StpServer::new(&mut r2, cfg.paillier_bits());
    let mut sdc = pisa::SdcServer::new(cfg.clone(), stp.public_key().clone(), "sdc.net", &mut r2);
    let mut pu = pisa::PuClient::new(0, BlockId(12));
    let e = sdc.e_matrix().clone();
    let update = pu.tune(Some(Channel(1)), &cfg, &e, stp.public_key(), &mut r2);
    sdc.handle_pu_update(0, update).unwrap();

    let su = pisa::SuClient::new(pisa::SuId(0), BlockId(13), &cfg, &mut r2);
    stp.register_su(pisa::SuId(0), su.public_key().clone());

    let report = quiet_lan_storm(vec![(su, vec![Channel(1)])], sdc, stp, 1234);
    assert_eq!(
        report.decisions(),
        vec![(pisa::SuId(0), Some(direct_outcome.granted))]
    );
}

#[test]
fn refreshed_request_reaches_same_decision() {
    let mut r = rng(9);
    let cfg = SystemConfig::small_test();
    let mut stp = pisa::StpServer::new(&mut r, cfg.paillier_bits());
    let mut sdc = pisa::SdcServer::new(cfg.clone(), stp.public_key().clone(), "sdc", &mut r);
    let mut su = pisa::SuClient::new(pisa::SuId(0), BlockId(5), &cfg, &mut r);
    stp.register_su(pisa::SuId(0), su.public_key().clone());

    // First request: fresh encryption.
    let first = su.build_request(&cfg, stp.public_key(), &[Channel(0)], &mut r);
    let to_stp = sdc.process_request_phase1(&first, &mut r).unwrap();
    let (to_sdc, _) = stp.key_convert(&to_stp, &mut r).unwrap();
    let su_pk = stp.su_key(pisa::SuId(0)).unwrap().clone();
    let resp1 = sdc.process_request_phase2(&to_sdc, &su_pk, &mut r).unwrap();
    let granted1 = su.handle_response(&resp1, sdc.signing_public_key());

    // Second request: re-randomized refresh of the cached matrix.
    let refreshed = su.refresh_request(stp.public_key(), &mut r);
    let to_stp = sdc.process_request_phase1(&refreshed, &mut r).unwrap();
    let (to_sdc, _) = stp.key_convert(&to_stp, &mut r).unwrap();
    let resp2 = sdc.process_request_phase2(&to_sdc, &su_pk, &mut r).unwrap();
    let granted2 = su.handle_response(&resp2, sdc.signing_public_key());

    assert_eq!(granted1, granted2);
    // Licenses bind to the *ciphertexts*, so the digests must differ.
    assert_ne!(resp1.license.request_digest, resp2.license.request_digest);
}

#[test]
fn license_binds_su_identity() {
    let mut r = rng(10);
    let mut system = PisaSystem::setup(SystemConfig::small_test(), &mut r);
    let su_a = system.register_su(BlockId(3), &mut r);
    let su_b = system.register_su(BlockId(4), &mut r);
    let a = system.request(su_a, &[Channel(0)], &mut r);
    let b = system.request(su_b, &[Channel(0)], &mut r);
    assert_eq!(a.license.su_id, su_a);
    assert_eq!(b.license.su_id, su_b);
    assert_ne!(a.license.serial, b.license.serial);
}

#[test]
fn region_restricted_request_still_correct() {
    let mut r = rng(11);
    let mut system = PisaSystem::setup(SystemConfig::small_test(), &mut r);
    system.pu_update(0, BlockId(2), Some(Channel(1)), &mut r);

    // SU at block 3, privacy region = first 10 blocks (covers both).
    let su = system.register_su(BlockId(3), &mut r);
    system.set_su_privacy(su, pisa::LocationPrivacy::Region(10));

    let denied = system.request(su, &[Channel(1)], &mut r);
    assert!(!denied.granted, "PU in region must still be protected");
    let granted = system.request(su, &[Channel(3)], &mut r);
    assert!(granted.granted);

    // And the request was proportionally smaller than a full one.
    let full_entries = system.config().channels() * system.config().blocks();
    let region_entries = system.config().channels() * 10;
    let ct = 2 * system.config().paillier_bits() / 8;
    assert!(denied.request_bytes < region_entries * ct + 1024);
    assert!(denied.request_bytes < full_entries * ct / 2);
}

#[test]
fn many_pus_aggregate() {
    let mut r = rng(12);
    let mut system = PisaSystem::setup(SystemConfig::small_test(), &mut r);
    // Five PUs on distinct blocks, all watching channel 0.
    for (i, b) in [0usize, 4, 12, 20, 24].iter().enumerate() {
        system.pu_update(i as u64, BlockId(*b), Some(Channel(0)), &mut r);
    }
    let su = system.register_su(BlockId(12), &mut r);
    assert!(!system.request(su, &[Channel(0)], &mut r).granted);
    assert!(system.request(su, &[Channel(1)], &mut r).granted);
}

#[test]
fn full_round_through_real_serialization() {
    // Every message crosses a genuine encode → bytes → decode boundary;
    // the decision must be unchanged and frame sizes must match the
    // analytic accounting used everywhere else.
    let mut r = rng(13);
    let cfg = SystemConfig::small_test();
    let mut stp = pisa::StpServer::new(&mut r, cfg.paillier_bits());
    let mut sdc = pisa::SdcServer::new(cfg.clone(), stp.public_key().clone(), "sdc.wire", &mut r);
    let mut pu = pisa::PuClient::new(0, BlockId(12));
    let e = sdc.e_matrix().clone();

    let hop = |m: pisa::PisaMessage| -> pisa::PisaMessage {
        let frame = m.encode().unwrap();
        pisa::PisaMessage::decode(&frame).expect("well-formed frame")
    };

    // PU update over the wire.
    let update = pu.tune(Some(Channel(1)), &cfg, &e, stp.public_key(), &mut r);
    let pisa::PisaMessage::PuUpdate(update) = hop(pisa::PisaMessage::PuUpdate(update)) else {
        unreachable!()
    };
    sdc.handle_pu_update(0, update).unwrap();

    // Request over the wire.
    let mut su = pisa::SuClient::new(pisa::SuId(0), BlockId(13), &cfg, &mut r);
    stp.register_su(pisa::SuId(0), su.public_key().clone());
    let request = su.build_request(&cfg, stp.public_key(), &[Channel(1)], &mut r);
    let request_frame_len = pisa::PisaMessage::SuRequest(request.clone())
        .encode()
        .unwrap()
        .len();
    let pisa::PisaMessage::SuRequest(request) = hop(pisa::PisaMessage::SuRequest(request)) else {
        unreachable!()
    };
    // The frame really is dominated by C×B_region padded ciphertexts.
    let ct = 2 * cfg.paillier_bits() / 8;
    assert!(request_frame_len >= cfg.channels() * cfg.blocks() * ct);

    let to_stp = sdc.process_request_phase1(&request, &mut r).unwrap();
    let pisa::PisaMessage::SdcToStp(to_stp) = hop(pisa::PisaMessage::SdcToStp(to_stp)) else {
        unreachable!()
    };
    let (to_sdc, _) = stp.key_convert(&to_stp, &mut r).unwrap();
    let pisa::PisaMessage::StpToSdc(to_sdc) = hop(pisa::PisaMessage::StpToSdc(to_sdc)) else {
        unreachable!()
    };
    let su_pk = stp.su_key(pisa::SuId(0)).unwrap().clone();
    let response = sdc.process_request_phase2(&to_sdc, &su_pk, &mut r).unwrap();
    let pisa::PisaMessage::SdcResponse(response) = hop(pisa::PisaMessage::SdcResponse(response))
    else {
        unreachable!()
    };

    // Full power beside the active PU: denied, through real bytes.
    assert!(!su.handle_response(&response, sdc.signing_public_key()));
}

#[test]
fn concurrent_sus_interleave_correctly() {
    // Four SUs request simultaneously over one network; the SDC's
    // per-SU pending state must keep interleaved phase-1/phase-2
    // exchanges straight, and each SU must get its own correct decision.
    let mut r = rng(14);
    let cfg = SystemConfig::small_test();
    let mut stp = pisa::StpServer::new(&mut r, cfg.paillier_bits());
    let mut sdc = pisa::SdcServer::new(cfg.clone(), stp.public_key().clone(), "sdc.mt", &mut r);

    // PU on channel 1 at block 12.
    let mut pu = pisa::PuClient::new(0, BlockId(12));
    let e = sdc.e_matrix().clone();
    let update = pu.tune(Some(Channel(1)), &cfg, &e, stp.public_key(), &mut r);
    sdc.handle_pu_update(0, update).unwrap();

    // SUs: two colliding with the PU (blocks 11, 13 on ch1 → denied),
    // two elsewhere (ch0/ch2 → granted).
    let mut sus = Vec::new();
    let expectations = [
        (BlockId(11), Channel(1), false),
        (BlockId(13), Channel(1), false),
        (BlockId(0), Channel(0), true),
        (BlockId(24), Channel(2), true),
    ];
    for (i, &(block, ch, _)) in expectations.iter().enumerate() {
        let su = pisa::SuClient::new(pisa::SuId(i as u32), block, &cfg, &mut r);
        stp.register_su(pisa::SuId(i as u32), su.public_key().clone());
        sus.push((su, vec![ch]));
    }

    let report = quiet_lan_storm(sus, sdc, stp, 0xc0c0);
    assert_eq!(report.outcomes.len(), 4);
    for outcome in &report.outcomes {
        let expected = expectations[outcome.su_id.0 as usize].2;
        assert_eq!(
            outcome.granted,
            Some(expected),
            "{} decision",
            outcome.su_id
        );
    }
}

#[test]
fn sdc_snapshot_restore_preserves_behaviour() {
    // Crash-recovery: an SDC restored from a snapshot reaches the same
    // decisions, verifies with the same signing key, and continues the
    // license serial sequence.
    let mut r = rng(15);
    let cfg = SystemConfig::small_test();
    let mut stp = pisa::StpServer::new(&mut r, cfg.paillier_bits());
    let mut sdc = pisa::SdcServer::new(cfg.clone(), stp.public_key().clone(), "sdc.snap", &mut r);

    let mut pu = pisa::PuClient::new(0, BlockId(12));
    let e = sdc.e_matrix().clone();
    let update = pu.tune(Some(Channel(1)), &cfg, &e, stp.public_key(), &mut r);
    sdc.handle_pu_update(0, update).unwrap();

    let mut su = pisa::SuClient::new(pisa::SuId(0), BlockId(13), &cfg, &mut r);
    stp.register_su(pisa::SuId(0), su.public_key().clone());
    let before = pisa::run_request_direct(&mut su, &mut sdc, &stp, &[Channel(1)], &mut r).unwrap();
    assert!(!before.granted);

    // Crash + restore.
    let frame = sdc.snapshot().unwrap();
    drop(sdc);
    let mut restored =
        pisa::SdcServer::restore(cfg.clone(), stp.public_key().clone(), &frame).unwrap();
    assert_eq!(restored.registered_pus(), 1);

    // Budget state survived: same denial on ch1, grant on ch0.
    let after =
        pisa::run_request_direct(&mut su, &mut restored, &stp, &[Channel(1)], &mut r).unwrap();
    assert!(!after.granted);
    let open =
        pisa::run_request_direct(&mut su, &mut restored, &stp, &[Channel(0)], &mut r).unwrap();
    assert!(open.granted, "restored SDC must still grant clean channels");

    // Serial numbers continue past the pre-crash value.
    assert!(after.license.serial > before.license.serial);
    // Same signing key: SU verified responses without re-fetching keys.
    assert!(restored.signing_public_key() == &sdc_key(&frame, &cfg, &stp));
}

/// Re-restores the snapshot to extract the signing key independently.
fn sdc_key(
    frame: &[u8],
    cfg: &SystemConfig,
    stp: &pisa::StpServer,
) -> pisa_crypto::rsa::RsaPublicKey {
    pisa::SdcServer::restore(cfg.clone(), stp.public_key().clone(), frame)
        .unwrap()
        .signing_public_key()
        .clone()
}

#[test]
fn snapshot_rejects_corruption() {
    let mut r = rng(16);
    let cfg = SystemConfig::small_test();
    let stp = pisa::StpServer::new(&mut r, cfg.paillier_bits());
    let sdc = pisa::SdcServer::new(cfg.clone(), stp.public_key().clone(), "sdc", &mut r);
    let frame = sdc.snapshot().unwrap();

    // Wrong version byte.
    let mut bad = frame.to_vec();
    bad[0] = 99;
    assert!(pisa::SdcServer::restore(cfg.clone(), stp.public_key().clone(), &bad).is_err());
    // Truncation.
    assert!(pisa::SdcServer::restore(
        cfg.clone(),
        stp.public_key().clone(),
        &frame[..frame.len() / 2]
    )
    .is_err());
    // Trailing garbage.
    let mut long = frame.to_vec();
    long.push(0);
    assert!(pisa::SdcServer::restore(cfg, stp.public_key().clone(), &long).is_err());
}

#[test]
fn parallel_processing_matches_sequential_decisions() {
    // SDC phase 1 and the STP conversion fan out across cores; they must
    // reach the decisions of the sequential plaintext WATCH computation.
    let mut r = rng(17);
    let cfg = SystemConfig::small_test();
    let mut stp = pisa::StpServer::new(&mut r, cfg.paillier_bits());
    let mut sdc = pisa::SdcServer::new(cfg.clone(), stp.public_key().clone(), "sdc.par", &mut r);
    let mut watch = pisa_watch::WatchSdc::new(cfg.watch().clone());
    let mut pu = pisa::PuClient::new(0, BlockId(12));
    let e = sdc.e_matrix().clone();
    let update = pu.tune(Some(Channel(1)), &cfg, &e, stp.public_key(), &mut r);
    sdc.handle_pu_update(0, update).unwrap();
    watch.pu_update(
        0,
        pisa_watch::PuInput::tuned(cfg.watch(), BlockId(12), Channel(1)),
    );

    let mut su = pisa::SuClient::new(pisa::SuId(0), BlockId(13), &cfg, &mut r);
    stp.register_su(pisa::SuId(0), su.public_key().clone());
    let su_pk = stp.su_key(pisa::SuId(0)).unwrap().clone();

    for (ch, expected) in [(Channel(1), false), (Channel(0), true)] {
        let request = su.build_request(&cfg, stp.public_key(), &[ch], &mut r);
        let to_stp = sdc.process_request_phase1(&request, &mut r).unwrap();
        let (to_sdc, obs) = stp.key_convert(&to_stp, &mut r).unwrap();
        assert_eq!(obs.v_values.len(), to_stp.v_matrix.len());
        let response = sdc.process_request_phase2(&to_sdc, &su_pk, &mut r).unwrap();
        let granted = su.handle_response(&response, sdc.signing_public_key());
        let plain = watch.process_request(&pisa_watch::SuRequest::full_power(
            cfg.watch(),
            BlockId(13),
            &[ch],
        ));
        assert_eq!(
            granted,
            plain.is_granted(),
            "fanned-out vs plaintext on {ch}"
        );
        assert_eq!(granted, expected, "decision on {ch}");
    }
}
