//! Figure 6: system evaluation — request preparation (SU), request
//! processing (SDC + STP), request refresh (re-randomization), and PU
//! update, at a CI-scale configuration. The `fig6_system_eval` binary
//! extrapolates these per-entry costs to the paper's C=100 × B=600 ×
//! 2048-bit setting.

use criterion::{criterion_group, criterion_main, Criterion};
use pisa::prelude::*;
use pisa::{SdcServer, StpServer, SuClient, SuId};
use rand::rngs::StdRng;
use rand::SeedableRng;

const KEY_BITS: usize = 512;

fn setup() -> (pisa::SystemConfig, StpServer, SdcServer) {
    let mut rng = StdRng::seed_from_u64(0xf16);
    let cfg = pisa_bench::scaled_config(4, 3, 5, KEY_BITS); // 4 ch × 15 blocks
    let stp = StpServer::new(&mut rng, cfg.paillier_bits());
    let sdc = SdcServer::new(cfg.clone(), stp.public_key().clone(), "sdc.bench", &mut rng);
    (cfg, stp, sdc)
}

fn bench_system(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig6");
    group.sample_size(10);

    let (cfg, mut stp, mut sdc) = setup();
    let mut rng = StdRng::seed_from_u64(0xf17);
    let mut su = SuClient::new(SuId(0), BlockId(1), &cfg, &mut rng);
    stp.register_su(SuId(0), su.public_key().clone());

    group.bench_function("su_request_preparation", |b| {
        let mut rng = StdRng::seed_from_u64(1);
        b.iter(|| su.build_request(&cfg, stp.public_key(), &[Channel(0)], &mut rng))
    });

    // Online cost only (rⁿ factors precomputed per iteration outside the
    // timed closure) — the paper's ~11 s number at full scale.
    {
        let su_cell = std::cell::RefCell::new(&mut su);
        let rng_cell = std::cell::RefCell::new(StdRng::seed_from_u64(7));
        group.bench_function("su_request_refresh_online", |b| {
            b.iter_batched(
                || {
                    su_cell
                        .borrow_mut()
                        .precompute_refresh(stp.public_key(), &mut *rng_cell.borrow_mut())
                },
                |()| {
                    su_cell
                        .borrow_mut()
                        .refresh_request(stp.public_key(), &mut *rng_cell.borrow_mut())
                },
                criterion::BatchSize::PerIteration,
            )
        });
    }

    let request = su.build_request(&cfg, stp.public_key(), &[Channel(0)], &mut rng);
    group.bench_function("sdc_phase1_blinding", |b| {
        let mut rng = StdRng::seed_from_u64(3);
        b.iter(|| sdc.process_request_phase1(&request, &mut rng).unwrap())
    });

    let to_stp = sdc.process_request_phase1(&request, &mut rng).unwrap();
    group.bench_function("stp_key_conversion", |b| {
        let mut rng = StdRng::seed_from_u64(4);
        b.iter(|| stp.key_convert(&to_stp, &mut rng).unwrap())
    });

    let (to_sdc, _) = stp.key_convert(&to_stp, &mut rng).unwrap();
    let su_pk = stp.su_key(SuId(0)).unwrap().clone();
    group.bench_function("sdc_phase2_response", |b| {
        let mut rng = StdRng::seed_from_u64(5);
        b.iter(|| {
            // Phase 2 consumes the pending state; re-arm it each iter.
            let _ = sdc.process_request_phase1(&request, &mut rng).unwrap();
            sdc.process_request_phase2(&to_sdc, &su_pk, &mut rng)
                .unwrap()
        })
    });

    group.bench_function("pu_update_roundtrip", |b| {
        let mut rng = StdRng::seed_from_u64(6);
        let e = sdc.e_matrix().clone();
        let mut pu = pisa::PuClient::new(0, BlockId(2));
        b.iter(|| {
            let msg = pu.tune(Some(Channel(1)), &cfg, &e, stp.public_key(), &mut rng);
            sdc.handle_pu_update(0, msg).unwrap();
        })
    });

    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default();
    targets = bench_system
}
criterion_main!(benches);
