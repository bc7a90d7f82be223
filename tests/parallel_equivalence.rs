//! Fan-out equivalence. Every per-entry loop that streams the caller's
//! RNG draws each entry's randomness in entry order before only the
//! exponentiations fan out across cores, so its bytes equal a plain
//! sequential loop of `pk.encrypt` / `pk.rerandomize` on the same seed.
//! The SDC and STP phases derive per-entry randomness from the index,
//! so their bytes do not depend on which worker claims which entry:
//! the same call gives the same wire frames whether it runs on its own
//! or beside other fanned-out calls, as in a service that runs several
//! sessions at once. (That they give the same bytes at every fan-out
//! width is pinned inside `pisa-core`, where the width can be fixed.)

use pisa::prelude::*;
use pisa::{CipherMatrix, PisaMessage};
use pisa_crypto::paillier::{Ciphertext, PaillierPublicKey};
use pisa_radio::tv::Channel;
use pisa_watch::{IntMatrix, PuInput, SuRequest};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt::Debug;

/// Calls made at once, each fanning out over every core.
const CONCURRENT: usize = 3;

/// Runs `job` on its own, then on [`CONCURRENT`] threads at once, whose
/// fan-outs compete for the cores so their workers claim entries in
/// another interleaving, and checks that every call returns the same.
fn assert_same_alone_and_concurrently<T: PartialEq + Debug + Send>(
    what: &str,
    job: impl Fn() -> T + Sync,
) -> T {
    let alone = job();
    let together: Vec<T> = std::thread::scope(|scope| {
        let calls: Vec<_> = (0..CONCURRENT).map(|_| scope.spawn(&job)).collect();
        calls.into_iter().map(|c| c.join().unwrap()).collect()
    });
    for (k, other) in together.iter().enumerate() {
        assert_eq!(other, &alone, "{what} diverged in concurrent call {k}");
    }
    alone
}

struct Fixture {
    cfg: SystemConfig,
    stp: StpServer,
    sdc: SdcServer,
    su: SuClient,
}

fn fixture(seed: u64) -> Fixture {
    let mut rng = StdRng::seed_from_u64(seed);
    let cfg = SystemConfig::small_test();
    let mut stp = StpServer::new(&mut rng, cfg.paillier_bits());
    let sdc = SdcServer::new(cfg.clone(), stp.public_key().clone(), "sdc.par", &mut rng);
    let su = SuClient::new(SuId(0), BlockId(3), &cfg, &mut rng);
    stp.register_su(su.id(), su.public_key().clone());
    Fixture { cfg, stp, sdc, su }
}

#[test]
fn phase1_parallel_is_byte_identical_to_sequential() {
    // Phase 1 records the session, so every call gets a fresh fixture.
    assert_same_alone_and_concurrently("phase 1", || {
        let mut f = fixture(0xe401);
        let request = f.su.build_request(
            &f.cfg,
            f.stp.public_key(),
            &[Channel(0)],
            &mut StdRng::seed_from_u64(0x11),
        );
        let query = f
            .sdc
            .process_request_phase1(&request, &mut StdRng::seed_from_u64(0x22))
            .unwrap();
        PisaMessage::SdcToStp(query).encode().unwrap()
    });
}

#[test]
fn key_convert_parallel_is_byte_identical_to_sequential() {
    let mut f = fixture(0xe402);
    let mut rng = StdRng::seed_from_u64(0x33);
    let request =
        f.su.build_request(&f.cfg, f.stp.public_key(), &[Channel(1)], &mut rng);
    let query = f.sdc.process_request_phase1(&request, &mut rng).unwrap();

    let (reply, v_values) = assert_same_alone_and_concurrently("key conversion", || {
        let (reply, observed) = f
            .stp
            .key_convert(&query, &mut StdRng::seed_from_u64(0x44))
            .unwrap();
        (
            PisaMessage::StpToSdc(reply).encode().unwrap(),
            observed.v_values,
        )
    });
    assert!(!reply.is_empty());
    assert_eq!(v_values.len(), query.v_matrix.len());
}

/// One full round on a freshly built fixture, so every call sees the
/// same license serial (it is monotone per SDC) and the entire response
/// — including the gated ciphertext `G̃` — is byte-comparable.
fn run_round(fixture_seed: u64, with_pu: bool) -> (bytes::Bytes, bool) {
    let mut f = fixture(fixture_seed);
    if with_pu {
        // A PU on the SU's channel right next door: the budget goes
        // negative and the request must be denied.
        let mut rng = StdRng::seed_from_u64(0x99);
        let mut pu = PuClient::new(0, BlockId(2));
        let e = f.sdc.e_matrix().clone();
        let pk_g = f.stp.public_key().clone();
        let update = pu.tune(Some(Channel(0)), &f.cfg, &e, &pk_g, &mut rng);
        f.sdc.handle_pu_update(pu.id(), update).unwrap();
    }
    let request = f.su.build_request(
        &f.cfg,
        f.stp.public_key(),
        &[Channel(0)],
        &mut StdRng::seed_from_u64(0x55),
    );
    let su_pk = f.stp.su_key(f.su.id()).unwrap().clone();

    let query = f
        .sdc
        .process_request_phase1(&request, &mut StdRng::seed_from_u64(0x66))
        .unwrap();
    let (reply, _) = f
        .stp
        .key_convert(&query, &mut StdRng::seed_from_u64(0x77))
        .unwrap();
    let response = f
        .sdc
        .process_request_phase2(&reply, &su_pk, &mut StdRng::seed_from_u64(0x88))
        .unwrap();
    let granted = f.su.handle_response(&response, f.sdc.signing_public_key());
    (
        PisaMessage::SdcResponse(response).encode().unwrap(),
        granted,
    )
}

#[test]
fn parallel_round_grants_like_sequential() {
    let (_, granted) = assert_same_alone_and_concurrently("round", || run_round(0xe403, false));
    assert!(granted);
}

#[test]
fn parallel_round_denies_like_sequential() {
    let (_, granted) = assert_same_alone_and_concurrently("round", || run_round(0xe404, true));
    assert!(!granted);
}

/// `pk.encrypt` over `plain`, one entry at a time.
fn encrypt_loop(pk: &PaillierPublicKey, plain: &[i128], seed: u64) -> Vec<Ciphertext> {
    let mut rng = StdRng::seed_from_u64(seed);
    plain
        .iter()
        .map(|&v| pk.encrypt(&SdcServer::to_plain_domain(v), &mut rng))
        .collect()
}

/// `pk.rerandomize` over `cts`, one entry at a time.
fn rerandomize_loop(pk: &PaillierPublicKey, cts: &[Ciphertext], seed: u64) -> Vec<Ciphertext> {
    let mut rng = StdRng::seed_from_u64(seed);
    cts.iter().map(|c| pk.rerandomize(c, &mut rng)).collect()
}

#[test]
fn fanned_out_encryption_matches_a_sequential_loop() {
    let mut rng = StdRng::seed_from_u64(0xe401);
    let cfg = SystemConfig::small_test();
    let stp = StpServer::new(&mut rng, cfg.paillier_bits());
    let sdc = SdcServer::new(cfg.clone(), stp.public_key().clone(), "sdc.par", &mut rng);
    let pk = stp.public_key();
    let watch = cfg.watch();

    // SuClient::build_request
    let mut su = SuClient::new(SuId(0), BlockId(3), &cfg, &mut rng);
    let request = su.build_request(&cfg, pk, &[Channel(0)], &mut StdRng::seed_from_u64(0x11));
    let f = SuRequest::full_power(watch, BlockId(3), &[Channel(0)]).f_matrix(watch);
    assert_eq!(
        request.f_matrix.ciphertexts(),
        encrypt_loop(pk, f.as_slice(), 0x11),
        "build_request"
    );

    // PuClient::tune
    let e = sdc.e_matrix();
    let update = PuClient::new(0, BlockId(2)).tune(
        Some(Channel(1)),
        &cfg,
        e,
        pk,
        &mut StdRng::seed_from_u64(0x22),
    );
    let w = PuInput::tuned(watch, BlockId(2), Channel(1)).w_column(watch, e);
    assert_eq!(update.w_column, encrypt_loop(pk, &w, 0x22), "tune");

    // CipherMatrix::{encrypt, rerandomize}
    let m = IntMatrix::from_fn(3, 7, |c, b| c as i128 * 11 - b as i128);
    let enc = CipherMatrix::encrypt(&m, pk, &mut StdRng::seed_from_u64(0x33));
    assert_eq!(
        enc.ciphertexts(),
        encrypt_loop(pk, m.as_slice(), 0x33),
        "encrypt"
    );
    let re = enc.rerandomize(pk, &mut StdRng::seed_from_u64(0x44));
    assert_eq!(
        re.ciphertexts(),
        rerandomize_loop(pk, enc.ciphertexts(), 0x44),
        "rerandomize"
    );

    // SuClient::precompute_refresh: the pooled refresh applies the
    // precomputed factors, so it equals online re-randomization.
    su.precompute_refresh(pk, &mut StdRng::seed_from_u64(0x55));
    let refreshed = su.refresh_request(pk, &mut StdRng::seed_from_u64(0x66));
    assert_eq!(
        refreshed.f_matrix.ciphertexts(),
        rerandomize_loop(pk, request.f_matrix.ciphertexts(), 0x55),
        "precompute_refresh"
    );
}

// ---------------------------------------------------------------------
// Simulator-vs-FIFO equivalence: the virtual-time storm must agree with
// the single-threaded FIFO storm (`pisa::run_storm`) on a quiet network:
// same per-SU decisions, same attempt counts, same wire traffic.
// ---------------------------------------------------------------------

#[test]
fn sim_storm_matches_fifo_storm() {
    use pisa::{run_storm, storm_fixture, EngineConfig, StormFixture};
    use pisa_sim::run_sim_storm_with;

    let seed = 0xe405;
    let n = 12;

    let StormFixture { sus, sdc, stp } = storm_fixture(n, seed).unwrap();
    let (fifo, _, _) = run_storm(sus, sdc, stp, seed).unwrap();
    assert!(fifo.all_completed());

    let fixture = storm_fixture(n, seed).unwrap();
    let (sim, _) = run_sim_storm_with(fixture, None, &EngineConfig::default(), seed, 0.0).unwrap();
    assert!(sim.all_terminal());
    assert_eq!(sim.fidelity, "real");

    // Identical per-SU decisions and attempt counts.
    let mut fifo_dec: Vec<(u32, Option<bool>, u32)> = fifo
        .outcomes
        .iter()
        .map(|o| (o.su_id.0, o.granted, o.attempts))
        .collect();
    fifo_dec.sort_unstable();
    let mut sim_dec: Vec<(u32, Option<bool>, u32)> = sim
        .outcomes
        .iter()
        .map(|o| (o.su, o.granted, o.attempts))
        .collect();
    sim_dec.sort_unstable();
    assert_eq!(sim_dec, fifo_dec, "per-SU decisions diverged");
    assert!(
        sim_dec
            .iter()
            .all(|&(_, granted, attempts)| granted.is_some() && attempts == 1),
        "a fault-free storm decides every session on the first attempt"
    );
    // Both grant and deny paths exercised (PU sits on channel 0).
    assert!(sim_dec.iter().any(|&(_, g, _)| g == Some(true)));
    assert!(sim_dec.iter().any(|&(_, g, _)| g == Some(false)));

    // Identical wire traffic: the virtual network moved the same
    // frames (request, query, reply, response per session).
    assert_eq!(sim.messages, fifo.metrics.total_messages());
    assert_eq!(sim.bytes, fifo.metrics.total_bytes());
    assert_eq!(sim.messages, u64::from(n) * 4);
}
