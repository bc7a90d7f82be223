//! Networked storm: SDC, STP and the SU swarm as three real processes.
//!
//! [`run_storm`](crate::run_storm) keeps every party in one address
//! space; this module runs the *same* session engines over the framed
//! TCP transport in [`pisa_net::socket`], so a storm can execute as
//! three OS processes on loopback or across hosts:
//!
//! ```text
//!   pisa serve-stp  --listen 127.0.0.1:7002
//!   pisa serve-sdc  --listen 127.0.0.1:7001 --stp 127.0.0.1:7002
//!   pisa su         --sdc 127.0.0.1:7001 --sessions 16
//! ```
//!
//! All three processes derive the *entire system state* — keys, the PU
//! occupancy, every SU registration — from the same `(sessions, seed)`
//! pair via [`storm_fixture`], so no key distribution protocol is
//! needed for the reproduction: determinism is the key exchange. The
//! engine seeds match [`run_storm`](crate::run_storm) exactly
//! (`seed ^ 0x5dc` for the SDC, `seed ^ 0x517` for the STP,
//! `seed ^ (0x50 + i)` for SU *i*), so a networked storm reaches the
//! same grant/deny decisions as the in-memory engine on the same seed —
//! [`run_memory_baseline`] recomputes that reference for `--verify`.
//!
//! Fault injection ports to the socket layer unchanged: each process
//! runs its *outbound* traffic through the same
//! [`FaultPipeline`](pisa_net::FaultPipeline) as the in-memory engine,
//! which covers every directed link exactly once (SU→SDC in the SU
//! process, SDC→STP and SDC→SU in the SDC process, STP→SDC in the STP
//! process).
//!
//! Shutdown is in-band and cascades: `pisa su --halt` sends a shutdown
//! frame to the SDC once its sessions are done; the SDC forwards it to
//! the STP and both service loops drain out.

use crate::durable::{
    self, Checkpoint, SDC_CHECKPOINT_FILE, SECTION_SDC_SESSIONS, SECTION_SDC_SNAPSHOT,
    SECTION_STP_DIRECTORY, STP_CHECKPOINT_FILE,
};
use crate::engine::{
    SdcSessionEngine, StpSessionEngine, SuAction, SuEvent, SuSessionEngine, SuSessionParams,
};
use crate::error::PisaError;
use crate::keys::SuId;
use crate::sdc::SdcServer;
use crate::session::{run_storm, EngineConfig, EngineReport, SessionMsg, SessionOutcome};
use crate::stp::StpServer;
use crate::su::SuClient;
use crate::SystemConfig;
use pisa_crypto::paillier::PaillierPublicKey;
use pisa_net::{
    FaultConfig, NetMetrics, Party, SocketConfig, SocketError, SocketEvent, SocketNode,
};
use pisa_radio::tv::Channel;
use pisa_radio::BlockId;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::mpsc;

/// Everything a networked storm role needs to reconstruct the shared
/// system state and its own behaviour.
#[derive(Debug, Clone)]
pub struct NetStormOpts {
    /// Number of SU sessions in the storm (all three processes must
    /// agree — the servers derive per-SU keys from it).
    pub sessions: u32,
    /// Storm seed: system keys, engines and faults all derive from it.
    pub seed: u64,
    /// Timeout / retry / worker policy, as for the in-memory engine.
    pub engine: EngineConfig,
    /// Socket-layer fault injection for this process's outbound links
    /// (`None` = clean network).
    pub faults: Option<FaultConfig>,
    /// Transport tuning knobs.
    pub socket: SocketConfig,
    /// Checkpoint / crash-recovery policy (no-op by default).
    pub durable: DurableOpts,
}

/// Checkpoint / crash-recovery policy for the networked services.
#[derive(Debug, Clone)]
pub struct DurableOpts {
    /// Directory for checkpoint files (`None` disables durability).
    pub state_dir: Option<PathBuf>,
    /// Write a checkpoint after every N handled frames (clamped to at
    /// least 1); a final checkpoint is also forced at shutdown.
    pub checkpoint_every: u64,
    /// Load the checkpoint from `state_dir` at startup and resume
    /// mid-protocol instead of starting from the fixture state.
    pub resume: bool,
}

impl Default for DurableOpts {
    fn default() -> Self {
        DurableOpts {
            state_dir: None,
            checkpoint_every: 1,
            resume: false,
        }
    }
}

impl NetStormOpts {
    /// Defaults mirroring `run_storm`'s: `sessions` SUs on a clean
    /// network with the stock engine policy.
    pub fn new(sessions: u32, seed: u64) -> Self {
        NetStormOpts {
            sessions,
            seed,
            engine: EngineConfig::default(),
            faults: None,
            socket: SocketConfig::default(),
            durable: DurableOpts::default(),
        }
    }
}

/// The deterministic storm scenario shared by every process: one PU on
/// channel 0 at block 0 (so sessions near it get denied and the storm
/// exercises both decisions), `sessions` SUs spread over the blocks and
/// channels, all registered with the STP.
#[derive(Debug)]
pub struct StormFixture {
    /// The SU clients with their requested channels.
    pub sus: Vec<(SuClient, Vec<Channel>)>,
    /// The SDC, already holding the PU's encrypted update.
    pub sdc: SdcServer,
    /// The STP, with every SU registered.
    pub stp: StpServer,
}

impl StormFixture {
    /// Per-SU public keys, as the SDC engine needs them.
    ///
    /// # Errors
    ///
    /// [`PisaError::UnknownSu`] if an SU was not registered — cannot
    /// happen for a fixture built by [`storm_fixture`].
    pub fn su_keys(&self) -> Result<HashMap<SuId, PaillierPublicKey>, PisaError> {
        self.sus
            .iter()
            .map(|(su, _)| {
                let pk = self
                    .stp
                    .su_key(su.id())
                    .ok_or(PisaError::UnknownSu(su.id()))?
                    .clone();
                Ok((su.id(), pk))
            })
            .collect()
    }
}

/// Builds the storm scenario every role derives from `(sessions, seed)`.
///
/// This must stay byte-identical across processes — all randomness
/// comes from one `StdRng` seeded with `seed`, consumed in a fixed
/// order — or the three trust domains would disagree about keys.
///
/// # Errors
///
/// Any [`PisaError`] from ingesting the PU update (dimension mismatch
/// or adversarial ciphertext — impossible for this fixed scenario).
pub fn storm_fixture(sessions: u32, seed: u64) -> Result<StormFixture, PisaError> {
    let mut rng = StdRng::seed_from_u64(seed);
    let cfg = SystemConfig::small_test();
    let mut stp = StpServer::new(&mut rng, cfg.paillier_bits());
    let mut sdc = SdcServer::new(cfg.clone(), stp.public_key().clone(), "sdc.storm", &mut rng);

    let mut pu = crate::PuClient::new(0, BlockId(0));
    let e = sdc.e_matrix().clone();
    let update = pu.tune(Some(Channel(0)), &cfg, &e, stp.public_key(), &mut rng);
    sdc.handle_pu_update(pu.id(), update)?;

    let sus = (0..sessions)
        .map(|i| {
            let idx = crate::wire::widen(i);
            let su = SuClient::new(SuId(i), BlockId(idx % cfg.blocks()), &cfg, &mut rng);
            stp.register_su(su.id(), su.public_key().clone());
            (su, vec![Channel(idx % cfg.channels())])
        })
        .collect();
    Ok(StormFixture { sus, sdc, stp })
}

fn net_err(e: SocketError) -> PisaError {
    PisaError::Net(e.to_string())
}

/// The SDC as a networked service: listens for SU traffic, dials the
/// STP, and pumps frames through the [`SdcSessionEngine`].
pub struct SdcService {
    node: SocketNode<SessionMsg>,
    machine: SdcSessionEngine,
    poll: std::time::Duration,
    durable: DurableOpts,
    generation: u64,
    handled: u64,
}

impl SdcService {
    /// Reconstructs the fixture, binds `listen` and prepares the
    /// engine; `stp_addr` is dialed lazily on the first forward.
    ///
    /// With `opts.durable.resume`, the checkpoint in
    /// `opts.durable.state_dir` is loaded instead of starting from the
    /// fixture state: the matrix, contributions, pending ε vectors and
    /// the per-session protocol table all come back, and the engine RNG
    /// is reseeded per generation (see [`durable::resume_seed`]) so the
    /// resumed process never replays pre-crash Paillier randomness.
    ///
    /// # Errors
    ///
    /// [`PisaError::Net`] if the listener cannot bind,
    /// [`PisaError::Durable`] if resume was requested but the
    /// checkpoint is missing or invalid, or any fixture construction
    /// error.
    pub fn bind(opts: &NetStormOpts, listen: &str, stp_addr: &str) -> Result<Self, PisaError> {
        let fixture = storm_fixture(opts.sessions, opts.seed)?;
        let su_keys = fixture.su_keys()?;
        let metrics = NetMetrics::new();
        let node: SocketNode<SessionMsg> = SocketNode::new(
            Party::Sdc,
            opts.socket.clone(),
            metrics.clone(),
            opts.faults.clone(),
        );
        node.add_peer(Party::Stp, stp_addr);
        node.bind(listen).map_err(net_err)?;

        let mut generation = 0u64;
        let machine = if opts.durable.resume {
            let dir = opts
                .durable
                .state_dir
                .as_deref()
                .ok_or_else(|| PisaError::Durable("resume requires a state dir".into()))?;
            let ckpt = durable::load(&dir.join(SDC_CHECKPOINT_FILE))?;
            let snap = ckpt.section(SECTION_SDC_SNAPSHOT).ok_or_else(|| {
                PisaError::Durable("checkpoint has no SDC snapshot section".into())
            })?;
            let sdc = SdcServer::restore(
                fixture.sdc.config().clone(),
                fixture.stp.public_key().clone(),
                snap,
            )
            .map_err(|e| PisaError::Durable(format!("SDC snapshot invalid: {e}")))?;
            let mut machine = SdcSessionEngine::new(
                sdc,
                su_keys,
                metrics,
                durable::resume_seed(opts.seed ^ 0x5dc, ckpt.generation()),
            );
            if let Some(table) = ckpt.section(SECTION_SDC_SESSIONS) {
                machine
                    .restore_sessions(table)
                    .map_err(|e| PisaError::Durable(format!("session table invalid: {e}")))?;
            }
            generation = ckpt.generation() + 1;
            machine
        } else {
            SdcSessionEngine::new(fixture.sdc, su_keys, metrics, opts.seed ^ 0x5dc)
        };
        Ok(SdcService {
            node,
            machine,
            poll: opts.engine.poll,
            durable: opts.durable.clone(),
            generation,
            handled: 0,
        })
    }

    /// The bound listen address (useful with a `:0` ephemeral port).
    pub fn local_addr(&self) -> Option<SocketAddr> {
        self.node.local_addr()
    }

    /// The generation the next checkpoint will be written at (starts
    /// above the resumed checkpoint's generation).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Serves until a shutdown frame arrives (which is forwarded to the
    /// STP so the whole deployment drains), then returns the server
    /// with its final state. With a state dir configured, a checkpoint
    /// is written every `checkpoint_every` handled frames and once more
    /// at shutdown.
    pub fn run(mut self) -> SdcServer {
        loop {
            match self.node.recv_timeout(self.poll) {
                Some(SocketEvent::Frame(env)) => {
                    for (to, frame) in self.machine.handle(env.payload) {
                        // A failed reply is a lost frame: the SU's retry
                        // budget covers it, exactly as with drop faults.
                        let _ = self.node.send_from(Party::Sdc, to, &frame);
                    }
                    self.handled += 1;
                    self.maybe_checkpoint(false);
                }
                Some(SocketEvent::Shutdown(_)) => {
                    let _ = self.node.send_shutdown(Party::Stp);
                    self.maybe_checkpoint(true);
                    break;
                }
                None => {
                    if self.node.stopping() {
                        self.maybe_checkpoint(true);
                        break;
                    }
                }
            }
        }
        self.node.stop();
        self.machine.into_server()
    }

    /// Writes a checkpoint if one is due (or `force`d). A failed write
    /// leaves the previous checkpoint intact and the service keeps
    /// serving — durability degrades to the last good generation, it
    /// never takes the protocol down.
    fn maybe_checkpoint(&mut self, force: bool) {
        let Some(dir) = self.durable.state_dir.clone() else {
            return;
        };
        let every = self.durable.checkpoint_every.max(1);
        if !force && !self.handled.is_multiple_of(every) {
            return;
        }
        if self.write_checkpoint(&dir).is_ok() {
            self.generation += 1;
        }
    }

    fn write_checkpoint(&self, dir: &Path) -> Result<(), PisaError> {
        let mut ckpt = Checkpoint::new(self.generation);
        ckpt.push_section(
            SECTION_SDC_SNAPSHOT,
            self.machine
                .server()
                .snapshot()
                .map_err(|e| PisaError::Durable(format!("SDC snapshot failed: {e}")))?,
        );
        ckpt.push_section(
            SECTION_SDC_SESSIONS,
            self.machine
                .snapshot_sessions()
                .map_err(|e| PisaError::Durable(format!("session snapshot failed: {e}")))?,
        );
        durable::write_atomic(dir, SDC_CHECKPOINT_FILE, &ckpt)?;
        Ok(())
    }

    /// Asks the service loop to wind down from another thread.
    pub fn handle(&self) -> SocketNode<SessionMsg> {
        self.node.clone()
    }
}

/// The STP as a networked service: listens for SDC queries and replies
/// on the learned route — no static peers at all.
pub struct StpService {
    node: SocketNode<SessionMsg>,
    machine: StpSessionEngine,
    poll: std::time::Duration,
    durable: DurableOpts,
    generation: u64,
    handled: u64,
}

impl StpService {
    /// Reconstructs the fixture, binds `listen` and prepares the engine.
    ///
    /// With `opts.durable.resume`, the per-SU key directory is restored
    /// from the checkpoint in `opts.durable.state_dir` and the engine
    /// RNG is reseeded per generation, as for [`SdcService::bind`]. The
    /// global secret `sk_G` is deliberately *not* persisted — it is
    /// re-derived from the fixture, keeping the highest-value secret
    /// off disk.
    ///
    /// # Errors
    ///
    /// [`PisaError::Net`] if the listener cannot bind,
    /// [`PisaError::Durable`] if resume was requested but the
    /// checkpoint is missing or invalid, or any fixture construction
    /// error.
    pub fn bind(opts: &NetStormOpts, listen: &str) -> Result<Self, PisaError> {
        let fixture = storm_fixture(opts.sessions, opts.seed)?;
        let metrics = NetMetrics::new();
        let node: SocketNode<SessionMsg> = SocketNode::new(
            Party::Stp,
            opts.socket.clone(),
            metrics.clone(),
            opts.faults.clone(),
        );
        node.bind(listen).map_err(net_err)?;

        let mut generation = 0u64;
        let machine = if opts.durable.resume {
            let dir = opts
                .durable
                .state_dir
                .as_deref()
                .ok_or_else(|| PisaError::Durable("resume requires a state dir".into()))?;
            let ckpt = durable::load(&dir.join(STP_CHECKPOINT_FILE))?;
            let directory = ckpt.section(SECTION_STP_DIRECTORY).ok_or_else(|| {
                PisaError::Durable("checkpoint has no STP directory section".into())
            })?;
            let mut machine = StpSessionEngine::new(
                fixture.stp,
                metrics,
                durable::resume_seed(opts.seed ^ 0x517, ckpt.generation()),
            );
            machine
                .server_mut()
                .restore_directory(directory)
                .map_err(|e| PisaError::Durable(format!("STP directory invalid: {e}")))?;
            generation = ckpt.generation() + 1;
            machine
        } else {
            StpSessionEngine::new(fixture.stp, metrics, opts.seed ^ 0x517)
        };
        Ok(StpService {
            node,
            machine,
            poll: opts.engine.poll,
            durable: opts.durable.clone(),
            generation,
            handled: 0,
        })
    }

    /// The bound listen address (useful with a `:0` ephemeral port).
    pub fn local_addr(&self) -> Option<SocketAddr> {
        self.node.local_addr()
    }

    /// The generation the next checkpoint will be written at.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Serves until a shutdown frame arrives, then returns the server.
    /// With a state dir configured, checkpoints as [`SdcService::run`].
    pub fn run(mut self) -> StpServer {
        loop {
            match self.node.recv_timeout(self.poll) {
                Some(SocketEvent::Frame(env)) => {
                    for (to, frame) in self.machine.handle(env.payload) {
                        let _ = self.node.send_from(Party::Stp, to, &frame);
                    }
                    self.handled += 1;
                    self.maybe_checkpoint(false);
                }
                Some(SocketEvent::Shutdown(_)) => {
                    self.maybe_checkpoint(true);
                    break;
                }
                None => {
                    if self.node.stopping() {
                        self.maybe_checkpoint(true);
                        break;
                    }
                }
            }
        }
        self.node.stop();
        self.machine.into_server()
    }

    /// Writes a checkpoint if one is due (or `force`d); failures leave
    /// the previous checkpoint intact, as for [`SdcService`].
    fn maybe_checkpoint(&mut self, force: bool) {
        let Some(dir) = self.durable.state_dir.clone() else {
            return;
        };
        let every = self.durable.checkpoint_every.max(1);
        if !force && !self.handled.is_multiple_of(every) {
            return;
        }
        if self.write_checkpoint(&dir).is_ok() {
            self.generation += 1;
        }
    }

    fn write_checkpoint(&self, dir: &Path) -> Result<(), PisaError> {
        let mut ckpt = Checkpoint::new(self.generation);
        ckpt.push_section(
            SECTION_STP_DIRECTORY,
            self.machine
                .server()
                .snapshot_directory()
                .map_err(|e| PisaError::Durable(format!("STP directory snapshot failed: {e}")))?,
        );
        durable::write_atomic(dir, STP_CHECKPOINT_FILE, &ckpt)?;
        Ok(())
    }

    /// Asks the service loop to wind down from another thread.
    pub fn handle(&self) -> SocketNode<SessionMsg> {
        self.node.clone()
    }
}

/// Runs the SU side of a networked storm: all `sessions` SU state
/// machines pooled over one dialed connection to the SDC, one thread
/// per session, exactly mirroring [`run_storm`](crate::run_storm)'s SU
/// loop (same engine, same per-session seeds, same backoff policy).
///
/// With `halt`, a shutdown frame is sent to the SDC after the last
/// session finishes, cascading to the STP — so one `pisa su --halt`
/// invocation tears down the whole loopback deployment.
///
/// # Errors
///
/// [`PisaError::UnknownSu`] on a malformed fixture,
/// [`PisaError::EngineFailure`] if a session thread panics.
pub fn run_su_storm(
    opts: &NetStormOpts,
    sdc_addr: &str,
    halt: bool,
) -> Result<EngineReport, PisaError> {
    let StormFixture { sus, sdc, stp } = storm_fixture(opts.sessions, opts.seed)?;
    let cfg = sdc.config().clone();
    let pk_g = stp.public_key().clone();
    let signing = sdc.signing_public_key().clone();
    let corrupt_possible = opts
        .faults
        .as_ref()
        .is_some_and(FaultConfig::any_corruption);

    // The node's own party only names shutdown frames; sessions send
    // with their explicit SU address via per-party endpoints.
    let node: SocketNode<SessionMsg> = SocketNode::new(
        Party::Su(0),
        opts.socket.clone(),
        NetMetrics::new(),
        opts.faults.clone(),
    );
    node.add_peer(Party::Sdc, sdc_addr);

    // One mailbox per session; a dispatcher thread demultiplexes the
    // node's single inbound queue by destination party.
    let mut mailboxes: HashMap<u32, mpsc::Sender<SessionMsg>> = HashMap::new();
    let mut receivers: Vec<mpsc::Receiver<SessionMsg>> = Vec::with_capacity(sus.len());
    for (su, _) in &sus {
        let (tx, rx) = mpsc::channel();
        mailboxes.insert(su.id().0, tx);
        receivers.push(rx);
    }
    let dispatcher = {
        let node = node.clone();
        let poll = opts.engine.poll;
        std::thread::spawn(move || loop {
            match node.recv_timeout(poll) {
                Some(SocketEvent::Frame(env)) => {
                    if let Party::Su(i) = env.to {
                        if let Some(tx) = mailboxes.get(&i) {
                            let _ = tx.send(env.payload);
                        }
                    }
                }
                Some(SocketEvent::Shutdown(_)) => {}
                None => {
                    if node.stopping() {
                        break;
                    }
                }
            }
        })
    };

    let seed = opts.seed;
    let mut su_handles = Vec::new();
    for (i, ((su, channels), rx)) in sus.into_iter().zip(receivers).enumerate() {
        let cfg = cfg.clone();
        let pk_g = pk_g.clone();
        let signing = signing.clone();
        let engine = opts.engine.clone();
        let node = node.clone();
        su_handles.push(std::thread::spawn(move || {
            let mut rng = StdRng::seed_from_u64(seed ^ (0x50 + i as u64));
            let _session_span = pisa_obs::span("session");
            let me = Party::Su(su.id().0);
            let metrics = node.metrics().clone();
            let params = SuSessionParams {
                cfg: &cfg,
                pk_g: &pk_g,
                signing: &signing,
                corrupt_possible,
                engine: &engine,
                metrics: &metrics,
            };
            let mut machine = SuSessionEngine::new(su, &channels, &params, &mut rng);
            let mut action = machine.start();
            loop {
                match action {
                    SuAction::Continue { sends, deadline } => {
                        for frame in sends {
                            // A failed write is a lost frame; the
                            // deadline below turns it into a retry.
                            let _ = node.send_from(me, Party::Sdc, &frame);
                        }
                        action = match rx.recv_timeout(deadline) {
                            Ok(frame) => machine.on_event(SuEvent::Frame(frame)),
                            Err(_) => machine.on_event(SuEvent::Timeout),
                        };
                    }
                    SuAction::Finish(outcome) => break outcome,
                }
            }
        }));
    }

    let mut outcomes: Vec<SessionOutcome> = Vec::with_capacity(su_handles.len());
    let mut su_died = false;
    for h in su_handles {
        match h.join() {
            Ok(outcome) => outcomes.push(outcome),
            Err(_) => su_died = true,
        }
    }
    outcomes.sort_by_key(|o| o.su_id);

    if halt && !su_died {
        let _ = node.send_shutdown(Party::Sdc);
    }
    node.stop();
    let _ = dispatcher.join();

    if su_died {
        return Err(PisaError::EngineFailure("SU session thread panicked"));
    }
    Ok(EngineReport {
        outcomes,
        metrics: node.metrics().clone(),
    })
}

/// The in-memory reference run for `--verify`: the same fixture and
/// seed through [`run_storm`](crate::run_storm) on a clean network.
/// A networked storm — faulty or not — must reach these grant/deny
/// decisions (the chaos invariant, now across process boundaries).
///
/// # Errors
///
/// Whatever [`run_storm`](crate::run_storm) reports.
pub fn run_memory_baseline(opts: &NetStormOpts) -> Result<EngineReport, PisaError> {
    let StormFixture { sus, sdc, stp } = storm_fixture(opts.sessions, opts.seed)?;
    let (report, _sdc, _stp) = run_storm(sus, sdc, stp, None, &opts.engine, opts.seed)?;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    /// The acceptance scenario in miniature: STP, SDC and the SU swarm
    /// as three independent service loops over real loopback sockets,
    /// reaching the in-memory engine's decisions on the same seed.
    #[test]
    fn loopback_storm_matches_memory_engine() {
        let mut opts = NetStormOpts::new(3, 0x3e7);
        // A generous deadline, as in the quiet-storm test: this asserts
        // protocol equivalence, not latency.
        opts.engine = EngineConfig::default().with_timeout(Duration::from_secs(5));

        let stp = StpService::bind(&opts, "127.0.0.1:0").expect("bind stp");
        let stp_addr = stp.local_addr().expect("stp addr").to_string();
        let stp_thread = std::thread::spawn(move || stp.run());

        let sdc = SdcService::bind(&opts, "127.0.0.1:0", &stp_addr).expect("bind sdc");
        let sdc_addr = sdc.local_addr().expect("sdc addr").to_string();
        let sdc_thread = std::thread::spawn(move || sdc.run());

        let report = run_su_storm(&opts, &sdc_addr, true).expect("su storm");
        let baseline = run_memory_baseline(&opts).expect("baseline");

        assert!(report.all_completed());
        assert_eq!(report.decisions(), baseline.decisions());
        // The halt cascaded: both services drained and returned.
        let _sdc_server = sdc_thread.join().expect("sdc joined");
        let _stp_server = stp_thread.join().expect("stp joined");
    }

    #[test]
    fn fixture_is_deterministic_across_processes() {
        let a = storm_fixture(4, 0xf17).expect("fixture");
        let b = storm_fixture(4, 0xf17).expect("fixture");
        assert_eq!(
            a.stp.public_key().modulus(),
            b.stp.public_key().modulus(),
            "global key must be derived identically"
        );
        let ka = a.su_keys().expect("keys");
        let kb = b.su_keys().expect("keys");
        assert_eq!(ka.len(), 4);
        for (id, pk) in &ka {
            assert_eq!(Some(pk.modulus()), kb.get(id).map(|k| k.modulus()));
        }
    }
}
