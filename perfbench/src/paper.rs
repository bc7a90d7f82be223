//! `paper-2048`: the protocol at Table I's key sizes, in process, on one
//! thread.
//!
//! Set-up builds a 2048-bit global key, the SDC's license-signing key,
//! a pool of SUs with 2048-bit keys of their own and a few PUs on the
//! 4×25 `small_test` grid. The measured loop then alternates a batch of
//! PU retunes (`PuClient::tune` + `SdcServer::handle_pu_update`, which
//! writes into Ñ) with one SU session that reads Ñ through the five
//! phases, each a direct, timed call. Every PU update is checked by
//! decrypting the touched column of Ñ against a plaintext
//! `pisa_watch::WatchSdc` mirror, and every decision against the
//! mirror's; the checks run outside the timed calls. A host probe after
//! each retune and each session scales its time to reference speed.

use crate::host::Speed;
use crate::layers::{self, BusyClock, KernelCosts, MeanOps, PHASES};
use crate::stats::{median, Failure};
use crate::{derive_seed, Args, Outcome};
use pisa::{
    CipherMatrix, LocationPrivacy, PuClient, SdcServer, StpServer, SuClient, SuId, SystemConfig,
};
use pisa_net::WireSize;
use pisa_obs::OpTotals;
use pisa_radio::tv::Channel;
use pisa_radio::BlockId;
use pisa_watch::{PuInput, SuRequest, WatchConfig, WatchSdc};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use std::time::Instant;

/// Paillier modulus bits (Table I).
const KEY_BITS: usize = 2048;
/// α/β blinding bits (Table I).
const BLIND_BITS: usize = 512;
/// RSA license modulus slack below the SU modulus.
const RSA_SLACK_BITS: usize = 64;
/// PUs, each retuned once per batch.
const PUS: u64 = 4;
/// Blocks an SU request covers (the paper's location-privacy region,
/// §VI-A): 4 × 4 ciphertexts instead of 4 × 25 keep a 2048-bit session
/// under 2 s, so a run holds enough sessions for a steady median.
const REGION: usize = 4;
/// Set-ups timed per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;
/// SUs taking turns at sessions, each with its own 2048-bit key.
const POOL: u32 = 2;

/// Everything the measured loop runs against.
struct Deployment {
    cfg: SystemConfig,
    sdc: SdcServer,
    stp: StpServer,
    mirror: WatchSdc,
    pus: Vec<PuClient>,
    sus: Vec<SuClient>,
    rng: StdRng,
}

/// A uniform index below `n`.
fn pick(rng: &mut StdRng, n: usize) -> usize {
    (rng.next_u64() % n as u64) as usize
}

/// One timed call: wall time and the ops it performed.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64, OpTotals) {
    let ops = pisa_obs::counters();
    let t = Instant::now();
    let out = f();
    let ms = layers::ms_since(t);
    (out, ms, pisa_obs::counters().delta_since(&ops))
}

/// Timings of one PU retune.
struct PuSample {
    tune: (f64, OpTotals),
    update: (f64, OpTotals),
}

/// Timings of one SU session, phase by phase.
struct SessionSample {
    latency_ms: f64,
    /// build, sign test, key conversion, signature release, verify.
    phases: [(f64, OpTotals); 5],
    wire_bytes: usize,
    granted: bool,
}

impl Deployment {
    fn new(seed: u64) -> Result<Self, String> {
        let cfg = SystemConfig::new(
            WatchConfig::small_test(),
            KEY_BITS,
            BLIND_BITS,
            RSA_SLACK_BITS,
        );
        let mut rng = StdRng::seed_from_u64(seed);
        let mut stp = StpServer::new(&mut rng, KEY_BITS);
        let sdc = SdcServer::new(cfg.clone(), stp.public_key().clone(), "sdc.paper", &mut rng);
        let blocks = cfg.blocks();
        // PUs in and around the SUs' region, so decisions go both ways.
        let pus = (0..PUS)
            .map(|i| PuClient::new(i, BlockId(pick(&mut rng, blocks.min(3 * REGION)))))
            .collect();
        let sus = (0..POOL)
            .map(|i| {
                let block = BlockId(pick(&mut rng, REGION));
                let mut su = SuClient::new(SuId(i), block, &cfg, &mut rng);
                su.set_privacy(LocationPrivacy::Region(REGION));
                stp.register_su(su.id(), su.public_key().clone());
                su
            })
            .collect();
        let mirror = WatchSdc::new(cfg.watch().clone());
        let mut d = Deployment {
            cfg,
            sdc,
            stp,
            mirror,
            pus,
            sus,
            rng,
        };
        // Warm-up: every PU tunes in once, so Ñ holds a population
        // before the first session (checked like every later update).
        for i in 0..d.pus.len() {
            d.retune(i)?;
        }
        Ok(d)
    }

    /// Retunes PU `i` to a random channel (or off, one time in five)
    /// and ingests the update; checks Ñ's column against the mirror.
    fn retune(&mut self, i: usize) -> Result<PuSample, String> {
        let channels = self.cfg.channels();
        let choice = pick(&mut self.rng, channels + channels.div_ceil(4));
        let channel = (choice < channels).then_some(Channel(choice));
        let Deployment {
            cfg,
            sdc,
            stp,
            mirror,
            pus,
            rng,
            ..
        } = self;
        let pu = pus.get_mut(i).ok_or("no such PU")?;
        let e = sdc.e_matrix().clone();
        let (update, tune_ms, tune_ops) =
            timed(|| pu.tune(channel, cfg, &e, stp.public_key(), rng));
        let (ingested, update_ms, update_ops) = timed(|| sdc.handle_pu_update(pu.id(), update));
        ingested.map_err(|e| format!("PU update rejected: {e}"))?;

        let block = pu.block();
        mirror.pu_update(
            pu.id(),
            match channel {
                Some(c) => PuInput::tuned(cfg.watch(), block, c),
                None => PuInput::off(block),
            },
        );
        let column: Vec<_> = (0..channels)
            .map(|c| sdc.n_matrix().get(c, block.0).clone())
            .collect();
        let plain = stp.audit_decrypt_matrix(&CipherMatrix::from_ciphertexts(channels, 1, column));
        for c in 0..channels {
            if plain.get(c, 0) != mirror.n_matrix().get(c, block.0) {
                return Err(format!(
                    "encrypted budget N({c}, {}) diverged from the WATCH mirror",
                    block.0
                ));
            }
        }
        Ok(PuSample {
            tune: (tune_ms, tune_ops),
            update: (update_ms, update_ops),
        })
    }

    /// One SU session through the five phases; `Err` only when a
    /// server refuses the request.
    fn session(&mut self, k: usize) -> Result<(SessionSample, Result<(), Failure>), String> {
        let channels = [Channel(pick(&mut self.rng, self.cfg.channels()))];
        let Deployment {
            cfg,
            sdc,
            stp,
            mirror,
            sus,
            rng,
            ..
        } = self;
        let pool = sus.len();
        let su = sus.get_mut(k % pool).ok_or("empty SU pool")?;
        let su_pk = stp.su_key(su.id()).ok_or("SU not registered")?.clone();
        let pk_g = stp.public_key().clone();

        let start = Instant::now();
        let (request, build_ms, build_ops) = timed(|| su.build_request(cfg, &pk_g, &channels, rng));
        let (query, sign_ms, sign_ops) = timed(|| sdc.process_request_phase1(&request, rng));
        let query = query.map_err(|e| format!("sign test failed: {e}"))?;
        let (reply, convert_ms, convert_ops) = timed(|| stp.key_convert(&query, rng));
        let (reply, _) = reply.map_err(|e| format!("key conversion failed: {e}"))?;
        let (response, release_ms, release_ops) =
            timed(|| sdc.process_request_phase2(&reply, &su_pk, rng));
        let response = response.map_err(|e| format!("signature release failed: {e}"))?;
        let (granted, verify_ms, verify_ops) =
            timed(|| su.handle_response(&response, sdc.signing_public_key()));
        let latency_ms = layers::ms_since(start);

        // The SDC tests the region's entries only: the plaintext
        // indicator must be positive on exactly those.
        let f = SuRequest::full_power(cfg.watch(), su.block(), &channels)
            .f_matrix_restricted(cfg.watch(), REGION);
        let indicator = mirror.indicator(&f);
        let expected = (0..cfg.channels()).all(|c| (0..REGION).all(|b| indicator.get(c, b) > 0));
        let sample = SessionSample {
            latency_ms,
            phases: [
                (build_ms, build_ops),
                (sign_ms, sign_ops),
                (convert_ms, convert_ops),
                (release_ms, release_ops),
                (verify_ms, verify_ops),
            ],
            wire_bytes: request.wire_bytes()
                + query.wire_bytes()
                + reply.wire_bytes()
                + response.wire_bytes(),
            granted,
        };
        let verdict = if granted == expected {
            Ok(())
        } else {
            Err(Failure::Wrong)
        };
        Ok((sample, verdict))
    }
}

/// Runs the workload.
pub fn run(args: &Args, mut out: Outcome) -> Result<Outcome, String> {
    let mut speed = Speed::start();
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut deployment = None;
    for k in 0..SETUP_REPEATS {
        drop(deployment.take());
        speed.lap();
        let t = Instant::now();
        deployment = Some(Deployment::new(derive_seed(args.seed, k as u64))?);
        setups.push(t.elapsed().as_secs_f64() * speed.lap());
    }
    let mut d = deployment.ok_or("no set-up ran")?;
    eprintln!("perfbench: set-ups took {setups:?} s at reference speed");

    if args.trace {
        pisa_obs::reset();
        pisa_obs::set_enabled(true);
    }
    let clock = BusyClock::start();
    let window = Instant::now();
    let mut pus: Vec<PuSample> = Vec::new();
    let mut sessions: Vec<SessionSample> = Vec::new();
    // At reference speed: each iteration's timed calls, and each
    // session's latency.
    let mut iterations_ms: Vec<f64> = Vec::new();
    let mut latencies_ms: Vec<f64> = Vec::new();
    let mut k = 0usize;
    speed.lap();
    loop {
        let iteration = Instant::now();
        let mut timed_ms = 0.0;
        for i in 0..d.pus.len() {
            let pu = d.retune(i)?;
            timed_ms += (pu.tune.0 + pu.update.0) * speed.lap();
            pus.push(pu);
        }
        let (sample, verdict) = d.session(k)?;
        let latency_ms = sample.latency_ms * speed.lap();
        latencies_ms.push(latency_ms);
        iterations_ms.push(timed_ms + latency_ms);
        out.tally.record(verdict);
        sessions.push(sample);
        k += 1;
        // Start another iteration only if it ends nearer the target
        // window than stopping now does.
        if window.elapsed() + iteration.elapsed() / 2 >= args.seconds {
            break;
        }
    }
    let busy = clock.busy_ratio();
    let report = args.trace.then(|| {
        pisa_obs::set_enabled(false);
        pisa_obs::report()
    });
    eprintln!(
        "perfbench: {} PU updates and {} sessions ({} granted) in {:.1} s",
        pus.len(),
        sessions.len(),
        sessions.iter().filter(|s| s.granted).count(),
        window.elapsed().as_secs_f64()
    );

    let correct_share = out.tally.correct() as f64 / out.tally.attempted.max(1) as f64;
    let wire = sessions.first().map_or(0, |s| s.wire_bytes);
    out.check(sessions.iter().all(|s| s.wire_bytes == wire), || {
        "sessions moved different byte counts".into()
    });
    let coverage: Vec<f64> = sessions
        .iter()
        .map(|s| s.phases.iter().map(|p| p.0).sum::<f64>() / s.latency_ms)
        .collect();
    for (i, c) in coverage.iter().enumerate() {
        out.check((0.95..=1.0 + 1e-9).contains(c), || {
            format!("session {i}: phases cover {:.1}% of its latency", c * 100.0)
        });
    }

    let m = &mut out.metrics;
    if let Some(report) = report {
        let pu_ms: Vec<f64> = pus.iter().map(|p| p.tune.0 + p.update.0).collect();
        m.put("pu.updates_per_s", 1e3 / median(&pu_ms));
        m.put("session.phase_sum_ratio", median(&coverage));
        m.put("cpu.busy_ratio", busy);
        let waits: Vec<f64> = sessions
            .iter()
            .map(|s| s.phases[1].0 + s.phases[2].0 + s.phases[3].0)
            .collect();
        m.put("su.wait_ms", median(&waits));

        let costs = KernelCosts::measure(KEY_BITS, derive_seed(args.seed, 0xc057));
        costs.report(m);
        let mut per_session = OpTotals::default();
        for s in &sessions {
            for (_, ops) in &s.phases {
                per_session = per_session.merge(ops);
            }
        }
        MeanOps::per(&per_session, sessions.len() as u64).report_per_session(m);

        let mut phase = |name: &str, residual: &str, samples: Vec<(f64, OpTotals)>| {
            let ms = median(&samples.iter().map(|s| s.0).collect::<Vec<_>>());
            let ops = samples
                .iter()
                .fold(OpTotals::default(), |a, s| a.merge(&s.1));
            let mean = MeanOps::per(&ops, samples.len() as u64);
            m.put(name, ms);
            m.put(residual, ms - costs.predicted_ms(&mean));
        };
        for (i, (_, name, residual)) in PHASES.iter().enumerate() {
            phase(
                name,
                residual,
                sessions.iter().map(|s| s.phases[i]).collect(),
            );
        }
        phase(
            "pu.tune_ms",
            "pu.tune.residual_ms",
            pus.iter().map(|p| p.tune).collect(),
        );
        phase(
            "sdc.matrix_update_ms",
            "sdc.matrix_update.residual_ms",
            pus.iter().map(|p| p.update).collect(),
        );
        layers::write_chrome_trace(&args.workload, args.seed, &report);
    } else {
        m.put("setup_s", median(&setups));
        // One iteration serves one session; the PU retunes it carries
        // are part of its cost, the audit checks between them are not.
        m.put(
            "sessions_per_s",
            correct_share * 1e3 / median(&iterations_ms),
        );
        m.put("latency_p50_ms", median(&latencies_ms));
        m.put("wire_kib_per_session", wire as f64 / 1024.0);
        m.put("peak_rss_mib", layers::peak_rss_mib());
    }
    Ok(out)
}
