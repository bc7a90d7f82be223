//! `loopback-closed`: the three-party service path as deployed, over
//! real sockets on 127.0.0.1.
//!
//! Set-up binds the real `SdcService` and `StpService` (the code behind
//! `pisa serve-sdc` and `pisa serve-stp`, with `EngineConfig` defaults)
//! inside this process and dials them from two client threads. Each
//! client owns its own `SocketNode` connection and a disjoint slice of
//! a small pool of `storm_fixture` SUs (384-bit `small_test` keys).
//!
//! The load is a closed loop: a client sends its next request only
//! after the previous one was decided. A session is one fresh
//! `SuClient::build_request`, sent exactly once with a deadline far
//! above any observed latency, then `handle_response` on the reply. An
//! expiry, a foreign reply or a wrong decision fails the session; there
//! are no retries, so the SDC runs exactly one sign test per session.
//! The window runs in short slices, each scaled to reference speed by
//! host probes taken while the clients pause between slices.

use crate::host::Speed;
use crate::layers::{self, BusyClock, KernelCosts, MeanOps, SpanStats, PHASES};
use crate::stats::{median, tail_percentile, Failure, Tally};
use crate::{derive_seed, Args, Outcome};
use pisa::{
    run_memory_baseline, storm_fixture, License, NetStormOpts, PisaMessage, SdcServer, SdcService,
    SessionMsg, StormFixture, StpServer, StpService, SuClient, SystemConfig,
};
use pisa_crypto::paillier::PaillierPublicKey;
use pisa_crypto::rsa::RsaPublicKey;
use pisa_net::{NetMetrics, Party, SocketConfig, SocketEvent, SocketNode};
use pisa_radio::tv::Channel;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// SUs in the pool, split between the clients.
const POOL: u32 = 8;
/// Client threads: one per CPU of the 2-vCPU reference host.
const CLIENTS: usize = 2;
/// Per-request deadline: far above any latency seen on loopback, so an
/// expiry means a lost session, never a slow one.
const DEADLINE: Duration = Duration::from_secs(30);
/// Set-ups timed per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;
/// Key size of the `storm_fixture` deployment.
const KEY_BITS: usize = 384;
/// Length of one measured slice. Between slices the clients pause while
/// the host's speed is probed; each slice is scaled by its probes.
const SLICE: Duration = Duration::from_millis(1500);

/// One pool SU and the decision it must receive.
struct PoolSu {
    su: SuClient,
    channels: Vec<Channel>,
    expect: bool,
}

/// What every client shares: the public system parameters.
struct Public {
    cfg: SystemConfig,
    pk_g: PaillierPublicKey,
    signing: RsaPublicKey,
}

/// One load thread's connection, SUs and randomness.
struct Client {
    node: SocketNode<SessionMsg>,
    sus: Vec<PoolSu>,
    rng: StdRng,
    next: usize,
}

/// What one client measured in one window.
#[derive(Default)]
struct Window {
    tally: Tally,
    latencies_ms: Vec<f64>,
    waits_ms: Vec<f64>,
}

impl Window {
    fn merge(&mut self, other: Window) {
        self.tally.merge(&other.tally);
        self.latencies_ms.extend(other.latencies_ms);
        self.waits_ms.extend(other.waits_ms);
    }
}

/// One slice of closed-loop load and the factor that scales its times
/// to reference speed (see [`crate::host`]).
struct Slice {
    window: Window,
    secs: f64,
    factor: f64,
}

/// Correct sessions per second at reference speed: the median slice's.
fn scaled_rate(slices: &[Slice]) -> f64 {
    let rates: Vec<f64> = slices
        .iter()
        .map(|s| s.window.tally.correct() as f64 / (s.secs * s.factor))
        .collect();
    median(&rates)
}

/// Every session's latency at reference speed.
fn scaled_latencies(slices: &[Slice]) -> Vec<f64> {
    slices
        .iter()
        .flat_map(|s| s.window.latencies_ms.iter().map(move |l| l * s.factor))
        .collect()
}

/// The slices' windows as one, in measured (unscaled) time.
fn merged(slices: Vec<Slice>) -> Window {
    let mut all = Window::default();
    for s in slices {
        all.merge(s.window);
    }
    all
}

impl Client {
    /// One session of the next SU in this client's slice.
    fn session(&mut self, public: &Public, window: &mut Window) {
        let i = self.next % self.sus.len();
        self.next += 1;
        let Some(pool) = self.sus.get_mut(i) else {
            return;
        };
        let start = Instant::now();
        let request =
            pool.su
                .build_request(&public.cfg, &public.pk_g, &pool.channels, &mut self.rng);
        let digest = License::digest_request(request.f_matrix.ciphertexts());
        let id = pool.su.id();
        let frame = SessionMsg {
            session: u64::from(id.0),
            attempt: 0,
            msg: PisaMessage::SuRequest(request),
        };
        let sent = Instant::now();
        let reply = match self.node.send_from(Party::Su(id.0), Party::Sdc, &frame) {
            Ok(()) => self.node.recv_timeout(DEADLINE),
            Err(_) => None,
        };
        let wait_ms = layers::ms_since(sent);
        let verdict = match reply {
            Some(SocketEvent::Frame(env)) => match env.payload.msg {
                PisaMessage::SdcResponse(resp)
                    if env.payload.attempt == 0
                        && resp.license.su_id == id
                        && resp.license.request_digest == digest =>
                {
                    if pool.su.handle_response(&resp, &public.signing) == pool.expect {
                        Ok(())
                    } else {
                        Err(Failure::Wrong)
                    }
                }
                _ => {
                    self.node.metrics().record_session_reject(u64::from(id.0));
                    Err(Failure::Rejected)
                }
            },
            Some(SocketEvent::Shutdown(_)) | None => {
                self.node.metrics().record_session_timeout(u64::from(id.0));
                Err(Failure::Expired)
            }
        };
        window.tally.record(verdict);
        window.latencies_ms.push(layers::ms_since(start));
        window.waits_ms.push(wait_ms);
    }
}

/// The two services on loopback plus the dialed clients.
struct Deployment {
    public: Public,
    clients: Vec<Client>,
    sdc: SocketNode<SessionMsg>,
    stp: SocketNode<SessionMsg>,
    sdc_thread: JoinHandle<SdcServer>,
    stp_thread: JoinHandle<StpServer>,
}

impl Deployment {
    /// Binds both services, builds the client side from the same
    /// fixture and runs one warm-up session per pool SU.
    fn new(opts: &NetStormOpts, expect: &HashMap<u32, bool>, seed: u64) -> Result<Self, String> {
        let stp = StpService::bind(opts, "127.0.0.1:0").map_err(|e| format!("bind STP: {e}"))?;
        let stp_addr = stp.local_addr().ok_or("STP has no address")?.to_string();
        let stp_node = stp.handle();
        let stp_thread = std::thread::spawn(move || stp.run());
        let sdc = SdcService::bind(opts, "127.0.0.1:0", &stp_addr)
            .map_err(|e| format!("bind SDC: {e}"))?;
        let sdc_addr = sdc.local_addr().ok_or("SDC has no address")?.to_string();
        let sdc_node = sdc.handle();
        let sdc_thread = std::thread::spawn(move || sdc.run());

        let StormFixture { sus, sdc, stp } =
            storm_fixture(opts.sessions, opts.seed).map_err(|e| e.to_string())?;
        let public = Public {
            cfg: sdc.config().clone(),
            pk_g: stp.public_key().clone(),
            signing: sdc.signing_public_key().clone(),
        };
        let mut clients: Vec<Client> = (0..CLIENTS)
            .map(|c| {
                let node = SocketNode::new(
                    Party::Su(c as u32),
                    SocketConfig::default(),
                    NetMetrics::new(),
                    None,
                );
                node.add_peer(Party::Sdc, sdc_addr.as_str());
                Client {
                    node,
                    sus: Vec::new(),
                    rng: StdRng::seed_from_u64(derive_seed(seed, 0x100 + c as u64)),
                    next: 0,
                }
            })
            .collect();
        for (i, (su, channels)) in sus.into_iter().enumerate() {
            let expect = *expect
                .get(&su.id().0)
                .ok_or("SU without a reference decision")?;
            if let Some(client) = clients.get_mut(i % CLIENTS) {
                client.sus.push(PoolSu {
                    su,
                    channels,
                    expect,
                });
            }
        }
        let mut d = Deployment {
            public,
            clients,
            sdc: sdc_node,
            stp: stp_node,
            sdc_thread,
            stp_thread,
        };
        // Warm-up: dial, then one session per pool SU.
        let rounds = d.clients.iter().map(|c| c.sus.len()).max().unwrap_or(0);
        let warm = d.drive(|w| w.tally.attempted < rounds as u64);
        if warm.tally.failed() > 0 {
            return Err(format!("warm-up sessions failed: {:?}", warm.tally));
        }
        Ok(d)
    }

    /// Runs every client in a closed loop while `more` says so for its
    /// own window; returns the merged windows.
    fn drive(&mut self, more: impl Fn(&Window) -> bool + Sync) -> Window {
        let public = &self.public;
        let more = &more;
        let windows: Vec<Window> = std::thread::scope(|s| {
            let handles: Vec<_> = self
                .clients
                .iter_mut()
                .map(|client| {
                    s.spawn(move || {
                        let mut w = Window::default();
                        while more(&w) {
                            client.session(public, &mut w);
                        }
                        w
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        let mut all = Window::default();
        for w in windows {
            all.merge(w);
        }
        all
    }

    /// Closed-loop load until `until`, in slices of [`SLICE`] with a
    /// probe of the host's speed after each. A slice's wall time runs
    /// until its last in-flight session finished.
    fn measure(&mut self, speed: &mut Speed, until: Instant) -> Vec<Slice> {
        speed.lap();
        let mut slices = Vec::new();
        while Instant::now() < until {
            let start = Instant::now();
            let end = (start + SLICE).min(until);
            let window = self.drive(|_| Instant::now() < end);
            let secs = start.elapsed().as_secs_f64();
            slices.push(Slice {
                window,
                secs,
                factor: speed.lap(),
            });
        }
        slices
    }

    /// `n` sessions one after another from the first client alone.
    fn probe(&mut self, n: usize) -> Window {
        let mut w = Window::default();
        if let Some(client) = self.clients.first_mut() {
            for _ in 0..n {
                client.session(&self.public, &mut w);
            }
        }
        w
    }

    /// Retries and rejects in every node's resilience counters, summed.
    fn session_totals(&self) -> (u64, u64) {
        let nodes = [&self.sdc, &self.stp]
            .into_iter()
            .chain(self.clients.iter().map(|c| &c.node));
        nodes.fold((0, 0), |(r, j), n| {
            let s = n.metrics().session_totals();
            (r + s.retries, j + s.rejected)
        })
    }

    /// SDC→STP frames, all frames and all bytes the SDC saw.
    fn sdc_traffic(&self) -> (u64, u64, u64) {
        let m = self.sdc.metrics();
        let sign_tests = m.link(Party::Sdc, Party::Stp).map_or(0, |l| l.messages);
        (sign_tests, m.total_messages(), m.total_bytes())
    }

    /// In-band shutdown: SU → SDC → STP, then joins both service loops.
    fn shutdown(self) -> Result<(), String> {
        let sent = self
            .clients
            .first()
            .is_some_and(|c| c.node.send_shutdown(Party::Sdc).is_ok());
        if !sent {
            self.sdc.stop();
            self.stp.stop();
        }
        let sdc = self.sdc_thread.join();
        let stp = self.stp_thread.join();
        for c in &self.clients {
            c.node.stop();
        }
        match (sdc, stp) {
            (Ok(_), Ok(_)) => Ok(()),
            _ => Err("a service loop panicked".into()),
        }
    }
}

/// Runs the workload.
pub fn run(args: &Args, mut out: Outcome) -> Result<Outcome, String> {
    let opts = NetStormOpts::new(POOL, derive_seed(args.seed, 0));
    // Reference decisions: the same fixture through the in-memory engine.
    let baseline = run_memory_baseline(&opts).map_err(|e| format!("baseline: {e}"))?;
    let mut expect = HashMap::new();
    for o in &baseline.outcomes {
        expect.insert(o.su_id.0, o.granted.ok_or("baseline left an SU undecided")?);
    }
    eprintln!(
        "perfbench: pool of {POOL} SUs, {} granted by the reference",
        expect.values().filter(|g| **g).count()
    );

    let mut speed = Speed::start();
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut deployment = None;
    for _ in 0..SETUP_REPEATS {
        if let Some(d) = deployment.take() {
            Deployment::shutdown(d)?;
        }
        speed.lap();
        let t = Instant::now();
        let d = Deployment::new(&opts, &expect, args.seed)?;
        setups.push(t.elapsed().as_secs_f64() * speed.lap());
        deployment = Some(d);
    }
    let mut d = deployment.ok_or("no set-up ran")?;
    eprintln!("perfbench: set-ups took {setups:?} s at reference speed");

    let before_traffic = d.sdc_traffic();
    let before_totals = d.session_totals();
    let clock = BusyClock::start();
    let half = if args.trace { 2 } else { 1 };
    let plain = d.measure(&mut speed, Instant::now() + args.seconds / half);
    let busy = clock.busy_ratio();
    let traced = args.trace.then(|| {
        pisa_obs::reset();
        pisa_obs::set_enabled(true);
        let slices = d.measure(&mut speed, Instant::now() + args.seconds / half);
        pisa_obs::set_enabled(false);
        (slices, pisa_obs::report())
    });
    let after_traffic = d.sdc_traffic();
    let after_totals = d.session_totals();

    let plain_rate = scaled_rate(&plain);
    let plain_latencies = scaled_latencies(&plain);
    let slices = plain.len();
    let plain = merged(plain);
    let traced = traced.map(|(slices, report)| (scaled_rate(&slices), merged(slices), report));
    let mut all = Tally::default();
    all.merge(&plain.tally);
    if let Some((_, w, _)) = &traced {
        all.merge(&w.tally);
    }
    out.tally = all;
    let sessions = all.attempted.max(1) as f64;
    let sign_tests = (after_traffic.0 - before_traffic.0) as f64 / sessions;
    let frames = (after_traffic.1 - before_traffic.1) as f64 / sessions;
    let bytes = (after_traffic.2 - before_traffic.2) as f64 / sessions;
    let retries = after_totals.0 - before_totals.0;
    let rejects = after_totals.1 - before_totals.1;
    out.check(sign_tests == 1.0, || {
        format!("{sign_tests} sign tests per session, expected exactly 1")
    });
    out.check(retries == 0 && rejects == 0, || {
        format!("{retries} retries and {rejects} rejects, expected none")
    });
    eprintln!(
        "perfbench: {} sessions in {slices} slices untraced{}",
        plain.tally.attempted,
        traced.as_ref().map_or(String::new(), |(_, w, _)| format!(
            ", {} traced",
            w.tally.attempted
        ))
    );

    // Exact per-phase op counts need one phase at a time: after the
    // traced window, a short probe of sequential sessions feeds the
    // accounting check against the kernel's unit costs.
    let accounting = traced.is_some().then(|| {
        pisa_obs::reset();
        pisa_obs::set_enabled(true);
        let probe = d.probe(2 * POOL as usize);
        pisa_obs::set_enabled(false);
        let spans = layers::span_stats(&pisa_obs::report().spans);
        pisa_obs::reset();
        let costs = KernelCosts::measure(KEY_BITS, derive_seed(args.seed, 0xc057));
        (probe.tally, spans, costs)
    });
    if let Some((probe, _, _)) = &accounting {
        out.tally.merge(probe);
    }

    let m = &mut out.metrics;
    match traced {
        None => {
            m.put("setup_s", median(&setups));
            m.put("sessions_per_s", plain_rate);
            m.put(
                "latency_p50_ms",
                tail_percentile(&plain_latencies, 0.5).unwrap_or(0.0),
            );
            m.put("wire_kib_per_session", bytes / 1024.0);
            m.put("peak_rss_mib", layers::peak_rss_mib());
        }
        Some((traced_rate, window, report)) => {
            m.put(
                "engine.latency_p90_ms",
                tail_percentile(&plain.latencies_ms, 0.9).unwrap_or(0.0),
            );
            m.put("su.wait_ms", median(&plain.waits_ms));
            m.put("engine.sign_tests_per_session", sign_tests);
            m.put("engine.retries", retries as f64);
            m.put("engine.rejects", rejects as f64);
            m.put("cpu.busy_ratio", busy);
            m.put("net.frames_per_session", frames);
            m.put("net.bytes_per_session", bytes);
            m.put("obs.overhead_pct", (1.0 - traced_rate / plain_rate) * 100.0);

            let traced_sessions = window.tally.attempted.max(1);
            MeanOps::per(&report.totals, traced_sessions).report_per_session(m);
            let spans = layers::span_stats(&report.spans);
            let stat = |name: &str| spans.get(name).cloned().unwrap_or_default();
            for (span, metric) in [
                ("net.serialize", "net.serialize_ms"),
                ("net.deserialize", "net.deserialize_ms"),
                ("net.write", "net.write_ms"),
                ("net.read", "net.read_ms"),
            ] {
                m.put(
                    metric,
                    stat(span).self_ns as f64 / 1e6 / traced_sessions as f64,
                );
            }
            layers::write_chrome_trace(&args.workload, args.seed, &report);

            let (_, probe_spans, costs) = accounting.expect("traced runs do the accounting");
            costs.report(m);
            for (span, metric, residual) in PHASES {
                let ms = stat(span).median_ms();
                let calls: SpanStats = probe_spans.get(span).cloned().unwrap_or_default();
                m.put(metric, ms);
                m.put(
                    residual,
                    ms - costs.predicted_ms(&MeanOps::per(&calls.ops, calls.count)),
                );
            }
        }
    }
    d.shutdown()?;
    Ok(out)
}
