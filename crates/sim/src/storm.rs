//! The storm driver: one event loop, two fidelities.
//!
//! [`run_sim_storm`] replays the `pisa storm` scenario — N concurrent
//! SU sessions against one SDC and one STP over a faulty network — on
//! virtual time. In [`Fidelity::Real`] the loop drives the *actual*
//! `pisa-core` session engines (Paillier, blinding, RSA licenses and
//! all) through [`SimTransport`](crate::SimTransport) and
//! [`SimNet`](crate::SimNet); in [`Fidelity::Modeled`] it drives the
//! plaintext mirrors from [`crate::model`], which makes a 10⁵-session
//! storm a sub-second affair while keeping the session semantics —
//! retries, replays, reorder holdback, corruption — bit-exact.
//!
//! Both fidelities share one generic [`drive`] loop, so an event-order
//! bug cannot hide in just one of them.

use crate::event::EventQueue;
use crate::model::{
    corrupt_model_frame, ModelMsg, ModelOracle, ModelSdc, ModelStp, ModelSu, ModelSuStep, ModelWire,
};
use crate::net::{Delivery, SimNet};
use crate::report::{decisions_digest, SimOutcome, StormReport};
use crate::transport::SimTransport;
use pisa::{
    corrupt_session_frame, EngineConfig, PisaError, PuClient, SdcServer, SdcSessionEngine,
    SessionMsg, StpServer, StpSessionEngine, SuAction, SuClient, SuEvent, SuSessionEngine,
    SuSessionParams, SystemConfig,
};
use pisa_net::{FaultConfig, FaultPlan, LatencyModel, Party, Transport, WireSize};
use pisa_radio::tv::Channel;
use pisa_radio::BlockId;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::sync::Arc;

/// How faithfully the storm executes the protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fidelity {
    /// The real `pisa-core` engines: every ciphertext computed. Costs
    /// real crypto time per session; right for ≲10³ SUs.
    Real,
    /// The plaintext mirrors: same state machines, decisions from the
    /// WATCH oracle, analytic wire sizes. Right for 10⁴–10⁵ SUs.
    Modeled,
}

impl Fidelity {
    /// The report label.
    pub fn label(self) -> &'static str {
        match self {
            Fidelity::Real => "real",
            Fidelity::Modeled => "modeled",
        }
    }
}

/// One storm's shape: how many sessions, which fidelity, what the
/// network does to them.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Concurrent SU sessions.
    pub sus: u32,
    /// Real engines or plaintext mirrors.
    pub fidelity: Fidelity,
    /// Fault probabilities applied to every link.
    pub plan: FaultPlan,
    /// Wire-time model; `None` for a zero-latency network.
    pub latency: Option<LatencyModel>,
    /// Multiplicative latency jitter amplitude in `[0, 1]`.
    pub jitter: f64,
    /// Session timeout / retry policy.
    pub engine: EngineConfig,
}

impl SimConfig {
    /// A modeled storm of `sus` sessions over a quiet LAN.
    pub fn modeled(sus: u32) -> Self {
        SimConfig {
            sus,
            fidelity: Fidelity::Modeled,
            plan: FaultPlan::none(),
            latency: Some(LatencyModel::lan()),
            jitter: 0.1,
            engine: EngineConfig::default(),
        }
    }

    /// A real-engine storm of `sus` sessions over a quiet LAN.
    pub fn real(sus: u32) -> Self {
        SimConfig {
            fidelity: Fidelity::Real,
            ..SimConfig::modeled(sus)
        }
    }

    /// Replaces the fault plan.
    pub fn with_plan(mut self, plan: FaultPlan) -> Self {
        self.plan = plan;
        self
    }

    /// Replaces the latency model (`None` = instantaneous wire).
    pub fn with_latency(mut self, latency: Option<LatencyModel>) -> Self {
        self.latency = latency;
        self
    }

    /// Replaces the jitter amplitude.
    pub fn with_jitter(mut self, jitter: f64) -> Self {
        self.jitter = jitter;
        self
    }

    /// Replaces the engine (timeout / retry) policy.
    pub fn with_engine(mut self, engine: EngineConfig) -> Self {
        self.engine = engine;
        self
    }

    /// The fault config this storm hands the lottery (same
    /// `seed ^ 0xfa17` derivation as the threaded `pisa storm`).
    fn fault_config(&self, seed: u64) -> FaultConfig {
        let mut cfg = FaultConfig::new(seed ^ 0xfa17).with_default_plan(self.plan);
        if let Some(model) = self.latency {
            cfg = cfg.with_latency(model);
        }
        cfg
    }
}

/// What one SU session wants next, fidelity-neutral.
enum SuStep<M> {
    Wait {
        sends: Vec<M>,
        deadline_ns: u64,
    },
    Done {
        granted: Option<bool>,
        attempts: u32,
    },
}

/// The fidelity seam: the driver talks to the parties only through
/// this surface, so real and modeled storms share every line of the
/// event loop.
trait StormLogic {
    type Msg: Clone + WireSize;
    fn su_count(&self) -> u32;
    /// The network address of SU index `i`.
    fn su_party(&self, i: u32) -> Party;
    /// Maps a delivered `Party::Su(id)` back to an index.
    fn su_index(&self, id: u32) -> Option<u32>;
    fn su_start(&mut self, i: u32) -> SuStep<Self::Msg>;
    fn su_frame(&mut self, i: u32, msg: Self::Msg) -> SuStep<Self::Msg>;
    fn su_timeout(&mut self, i: u32) -> SuStep<Self::Msg>;
    fn sdc_handle(&mut self, msg: Self::Msg) -> Vec<(Party, Self::Msg)>;
    fn stp_handle(&mut self, msg: Self::Msg) -> Vec<(Party, Self::Msg)>;
}

/// An event on the heap: a scheduled delivery, or an SU receive
/// deadline. The epoch stamps a deadline to its arming; re-arming
/// bumps the epoch so stale timers pop as no-ops (the threaded engine
/// gets this for free from `recv_timeout`). A delivery keeps only what
/// the loop reads: its instant is the heap key's.
enum Ev<M> {
    Deliver { to: Party, msg: M },
    SuTimeout { su: u32, epoch: u32 },
}

/// What [`drive`] hands back for report assembly.
struct DriveResult {
    outcomes: Vec<SimOutcome>,
    unfinished: u32,
    makespan_ns: u64,
    events: u64,
    truncated: bool,
}

/// Generous per-session event budget: ≤ 7 attempts, each at most a
/// handful of deliveries even under duplication, plus timeouts.
const EVENTS_PER_SU: u64 = 200;
const EVENT_FLOOR: u64 = 10_000;

/// Widens an SU index into a vector slot.
fn slot(i: u32) -> usize {
    i as usize // pisa-lint: allow(panic-freedom): u32 → usize never truncates
}

/// Narrows a population count; storm populations are `u32`-sized by
/// construction ([`SimConfig::sus`] is `u32`), so saturation is
/// unreachable but panic-free.
fn narrow(n: usize) -> u32 {
    u32::try_from(n).unwrap_or(u32::MAX)
}

/// The heap plus the per-SU bookkeeping the loop threads through every
/// step.
struct DriveState<M> {
    queue: EventQueue<Ev<M>>,
    deliveries: Vec<Delivery<M>>,
    epochs: Vec<u32>,
    done: Vec<Option<(Option<bool>, u32)>>,
    finish_ns: Vec<u64>,
}

impl<M: Clone + WireSize> DriveState<M> {
    fn new(n: u32) -> Self {
        DriveState {
            queue: EventQueue::new(),
            deliveries: Vec::new(),
            epochs: vec![0u32; slot(n)],
            done: vec![None; slot(n)],
            finish_ns: vec![0u64; slot(n)],
        }
    }

    /// Whether session `i` has reached a terminal outcome.
    fn is_done(&self, i: u32) -> bool {
        self.done.get(slot(i)).is_some_and(Option::is_some)
    }

    /// Applies one SU step at virtual time `now`: route its sends into
    /// the network and (re-)arm its deadline, or record its outcome.
    fn apply(&mut self, net: &mut SimNet<M>, from: Party, i: u32, step: SuStep<M>, now: u64) {
        match step {
            SuStep::Wait { sends, deadline_ns } => {
                for msg in sends {
                    net.send(now, from, Party::Sdc, msg, &mut self.deliveries);
                }
                let Some(epoch) = self.epochs.get_mut(slot(i)) else {
                    return;
                };
                *epoch = epoch.wrapping_add(1);
                let epoch = *epoch;
                self.queue.push(
                    now.saturating_add(deadline_ns),
                    Ev::SuTimeout { su: i, epoch },
                );
            }
            SuStep::Done { granted, attempts } => {
                if let Some(d) = self.done.get_mut(slot(i)) {
                    *d = Some((granted, attempts));
                }
                if let Some(f) = self.finish_ns.get_mut(slot(i)) {
                    *f = now;
                }
            }
        }
    }

    /// Moves freshly scheduled deliveries onto the heap.
    fn commit(&mut self) {
        for Delivery { at, to, msg, .. } in self.deliveries.drain(..) {
            self.queue.push(at, Ev::Deliver { to, msg });
        }
    }
}

/// The discrete-event loop: pop the earliest event, advance the clock,
/// let the party schedule more. Runs until the heap drains (every
/// session terminal, nothing in flight) or the event cap trips.
fn drive<L: StormLogic>(logic: &mut L, net: &mut SimNet<L::Msg>) -> DriveResult {
    let n = logic.su_count();
    let cap = EVENTS_PER_SU * u64::from(n) + EVENT_FLOOR;
    let mut st: DriveState<L::Msg> = DriveState::new(n);
    let mut now = 0u64;
    let mut events = 0u64;
    let mut truncated = false;

    for i in 0..n {
        let step = logic.su_start(i);
        st.apply(net, logic.su_party(i), i, step, 0);
        st.commit();
    }

    while let Some((at, ev)) = st.queue.pop() {
        now = at;
        events += 1;
        if events > cap {
            truncated = true;
            break;
        }
        match ev {
            Ev::Deliver { to, msg } => match to {
                Party::Sdc => {
                    for (to, msg) in logic.sdc_handle(msg) {
                        net.send(now, Party::Sdc, to, msg, &mut st.deliveries);
                    }
                }
                Party::Stp => {
                    for (to, msg) in logic.stp_handle(msg) {
                        net.send(now, Party::Stp, to, msg, &mut st.deliveries);
                    }
                }
                Party::Su(id) => {
                    // A corrupted frame can name a party that does not
                    // exist; the threaded network's send just errors,
                    // here the delivery is simply unclaimed.
                    if let Some(i) = logic.su_index(id) {
                        if !st.is_done(i) {
                            let step = logic.su_frame(i, msg);
                            st.apply(net, logic.su_party(i), i, step, now);
                        }
                    }
                }
                Party::Pu(_) => {}
            },
            Ev::SuTimeout { su, epoch } => {
                if !st.is_done(su) && st.epochs.get(slot(su)) == Some(&epoch) {
                    let step = logic.su_timeout(su);
                    st.apply(net, logic.su_party(su), su, step, now);
                }
            }
        }
        st.commit();
    }

    // Mirror the threaded engine's end-of-run drain: stranded holdback
    // messages still count as delivered traffic.
    net.flush_holdback(now, &mut st.deliveries);
    st.deliveries.clear();

    let mut outcomes = Vec::with_capacity(slot(n));
    let mut unfinished = 0u32;
    for i in 0..n {
        let su = match logic.su_party(i) {
            Party::Su(id) => id,
            _ => i,
        };
        let (granted, attempts) = match st.done.get(slot(i)).copied().flatten() {
            Some((granted, attempts)) => (granted, attempts),
            None => {
                unfinished += 1;
                (None, 0)
            }
        };
        let finished_ns = st.finish_ns.get(slot(i)).copied().unwrap_or(0);
        outcomes.push(SimOutcome {
            su,
            granted,
            attempts,
            finished_ns,
        });
        pisa_obs::record_span("sim.session", 0, finished_ns);
    }
    // Stale timers from already-finished sessions still pop (as
    // no-ops), so "last popped event" overstates the storm: the
    // makespan is when the last session went terminal.
    let makespan_ns = st.finish_ns.iter().copied().max().unwrap_or(0);
    pisa_obs::record_span("sim.storm", 0, makespan_ns);

    DriveResult {
        outcomes,
        unfinished,
        makespan_ns,
        events,
        truncated,
    }
}

/// Assembles the report from a finished drive.
fn assemble(
    seed: u64,
    fidelity: Fidelity,
    net: &SimNet<impl Clone + WireSize>,
    result: DriveResult,
    expected: Vec<bool>,
) -> StormReport {
    let metrics = net.metrics();
    let granted = narrow(
        result
            .outcomes
            .iter()
            .filter(|o| o.granted == Some(true))
            .count(),
    );
    let denied = narrow(
        result
            .outcomes
            .iter()
            .filter(|o| o.granted == Some(false))
            .count(),
    );
    let undecided = narrow(
        result
            .outcomes
            .iter()
            .filter(|o| o.granted.is_none())
            .count(),
    )
    .saturating_sub(result.unfinished);
    StormReport {
        seed,
        fidelity: fidelity.label(),
        sus: narrow(result.outcomes.len()),
        granted,
        denied,
        undecided,
        unfinished: result.unfinished,
        attempts_total: result.outcomes.iter().map(|o| u64::from(o.attempts)).sum(),
        max_attempts: result
            .outcomes
            .iter()
            .map(|o| o.attempts)
            .max()
            .unwrap_or(0),
        makespan_ns: result.makespan_ns,
        events: result.events,
        truncated: result.truncated,
        messages: metrics.total_messages(),
        bytes: metrics.total_bytes(),
        faults: metrics.fault_totals(),
        sessions: metrics.session_totals(),
        decisions_digest: decisions_digest(&result.outcomes),
        outcomes: result.outcomes,
        expected,
    }
}

// ---------------------------------------------------------------------
// Real fidelity
// ---------------------------------------------------------------------

/// The real engines behind the [`StormLogic`] seam. The SDC and STP
/// send through [`SimTransport`] — the same `Transport` surface the
/// threaded endpoints implement — so the engines stay byte-for-byte
/// the ones the threaded storm runs.
struct RealLogic {
    sdc: SdcSessionEngine,
    stp: StpSessionEngine,
    sdc_tx: SimTransport<SessionMsg>,
    stp_tx: SimTransport<SessionMsg>,
    sus: Vec<SuSessionEngine>,
    index_of: HashMap<u32, u32>,
}

impl StormLogic for RealLogic {
    type Msg = SessionMsg;

    fn su_count(&self) -> u32 {
        narrow(self.sus.len())
    }

    fn su_party(&self, i: u32) -> Party {
        match self.sus.get(slot(i)) {
            Some(su) => Party::Su(su.su_id().0),
            None => Party::Su(i),
        }
    }

    fn su_index(&self, id: u32) -> Option<u32> {
        self.index_of.get(&id).copied()
    }

    fn su_start(&mut self, i: u32) -> SuStep<SessionMsg> {
        match self.sus.get_mut(slot(i)) {
            Some(su) => action_to_step(su.start()),
            None => missing_su(),
        }
    }

    fn su_frame(&mut self, i: u32, msg: SessionMsg) -> SuStep<SessionMsg> {
        match self.sus.get_mut(slot(i)) {
            Some(su) => action_to_step(su.on_event(SuEvent::Frame(msg))),
            None => missing_su(),
        }
    }

    fn su_timeout(&mut self, i: u32) -> SuStep<SessionMsg> {
        match self.sus.get_mut(slot(i)) {
            Some(su) => action_to_step(su.on_event(SuEvent::Timeout)),
            None => missing_su(),
        }
    }

    fn sdc_handle(&mut self, msg: SessionMsg) -> Vec<(Party, SessionMsg)> {
        for (to, frame) in self.sdc.handle(msg) {
            let _ = self.sdc_tx.try_send(to, frame);
        }
        self.sdc_tx.drain()
    }

    fn stp_handle(&mut self, msg: SessionMsg) -> Vec<(Party, SessionMsg)> {
        for (to, frame) in self.stp.handle(msg) {
            let _ = self.stp_tx.try_send(to, frame);
        }
        self.stp_tx.drain()
    }
}

/// The step for an out-of-range SU index. [`drive`] only produces
/// indices below `su_count`, so this is dead in practice; a terminal
/// no-outcome step keeps the loop honest instead of panicking.
fn missing_su<M>() -> SuStep<M> {
    SuStep::Done {
        granted: None,
        attempts: 0,
    }
}

fn action_to_step(action: SuAction) -> SuStep<SessionMsg> {
    match action {
        SuAction::Continue { sends, deadline } => SuStep::Wait {
            sends,
            deadline_ns: u64::try_from(deadline.as_nanos()).unwrap_or(u64::MAX),
        },
        SuAction::Finish(outcome) => SuStep::Done {
            granted: outcome.granted,
            attempts: outcome.attempts,
        },
    }
}

/// Runs a real-fidelity storm on virtual time over explicitly built
/// parties — the same signature shape as `pisa::run_storm`, which is
/// exactly what the sim-vs-threaded equivalence test wants. The per-SU
/// request randomness, the SDC/STP engine seeds and the fault streams
/// all derive from `seed` the way the threaded storm derives them, so
/// a fault-free sim storm and a fault-free threaded storm of the same
/// seed make identical decisions.
pub fn run_sim_storm_with(
    sus: Vec<(SuClient, Vec<Channel>)>,
    sdc: SdcServer,
    stp: StpServer,
    faults: Option<FaultConfig>,
    engine: &EngineConfig,
    seed: u64,
    jitter: f64,
) -> Result<StormReport, PisaError> {
    let cfg = sdc.config().clone();
    let pk_g = stp.public_key().clone();
    let signing = sdc.signing_public_key().clone();
    let su_keys: HashMap<_, _> = sus
        .iter()
        .map(|(su, _)| {
            let pk = stp
                .su_key(su.id())
                .ok_or(PisaError::UnknownSu(su.id()))?
                .clone();
            Ok((su.id(), pk))
        })
        .collect::<Result<_, PisaError>>()?;
    let corrupt_possible = faults.as_ref().is_some_and(FaultConfig::any_corruption);

    let mut net: SimNet<SessionMsg> = SimNet::new(faults, jitter);
    net.set_corruptor(Arc::new(corrupt_session_frame));
    let metrics = net.metrics().clone();

    let sdc_engine = SdcSessionEngine::new(sdc, su_keys, metrics.clone(), seed ^ 0x5dc);
    let stp_engine = StpSessionEngine::new(stp, metrics.clone(), seed ^ 0x517);

    let params = SuSessionParams {
        cfg: &cfg,
        pk_g: &pk_g,
        signing: &signing,
        corrupt_possible,
        engine,
        metrics: &metrics,
    };
    let mut engines = Vec::with_capacity(sus.len());
    let mut index_of = HashMap::with_capacity(sus.len());
    for (i, (su, channels)) in sus.into_iter().enumerate() {
        // The same dedicated request-randomness stream as the threaded
        // storm's SU thread.
        let mut rng = StdRng::seed_from_u64(seed ^ (0x50 + i as u64));
        index_of.insert(su.id().0, narrow(i));
        engines.push(SuSessionEngine::new(su, &channels, &params, &mut rng));
    }

    let mut logic = RealLogic {
        sdc: sdc_engine,
        stp: stp_engine,
        sdc_tx: SimTransport::new(Party::Sdc),
        stp_tx: SimTransport::new(Party::Stp),
        sus: engines,
        index_of,
    };
    let result = drive(&mut logic, &mut net);
    Ok(assemble(seed, Fidelity::Real, &net, result, Vec::new()))
}

// ---------------------------------------------------------------------
// Modeled fidelity
// ---------------------------------------------------------------------

/// The plaintext mirrors behind the [`StormLogic`] seam.
struct ModelLogic {
    sdc: ModelSdc,
    stp: ModelStp,
    sus: Vec<ModelSu>,
}

impl StormLogic for ModelLogic {
    type Msg = ModelMsg;

    fn su_count(&self) -> u32 {
        narrow(self.sus.len())
    }

    fn su_party(&self, i: u32) -> Party {
        Party::Su(i)
    }

    fn su_index(&self, id: u32) -> Option<u32> {
        (id < self.su_count()).then_some(id)
    }

    fn su_start(&mut self, i: u32) -> SuStep<ModelMsg> {
        match self.sus.get_mut(slot(i)) {
            Some(su) => model_step(su.start()),
            None => missing_su(),
        }
    }

    fn su_frame(&mut self, i: u32, msg: ModelMsg) -> SuStep<ModelMsg> {
        match self.sus.get_mut(slot(i)) {
            Some(su) => model_step(su.on_frame(msg)),
            None => missing_su(),
        }
    }

    fn su_timeout(&mut self, i: u32) -> SuStep<ModelMsg> {
        match self.sus.get_mut(slot(i)) {
            Some(su) => model_step(su.on_timeout()),
            None => missing_su(),
        }
    }

    fn sdc_handle(&mut self, msg: ModelMsg) -> Vec<(Party, ModelMsg)> {
        self.sdc.handle(msg)
    }

    fn stp_handle(&mut self, msg: ModelMsg) -> Vec<(Party, ModelMsg)> {
        self.stp.handle(msg)
    }
}

fn model_step(step: ModelSuStep) -> SuStep<ModelMsg> {
    match step {
        ModelSuStep::Wait { sends, deadline_ns } => SuStep::Wait { sends, deadline_ns },
        ModelSuStep::Done { granted, attempts } => SuStep::Done { granted, attempts },
    }
}

// ---------------------------------------------------------------------
// The storm entry point
// ---------------------------------------------------------------------

/// Runs one seeded storm of the canonical `pisa storm` population —
/// one PU at block 0 on channel 0, SU `i` at block `i % blocks`
/// requesting channel `i % channels` — and returns its report.
/// Bit-deterministic: the same `(seed, config)` always produces a
/// byte-identical [`StormReport::to_json`].
pub fn run_sim_storm(seed: u64, config: &SimConfig) -> StormReport {
    let faults = Some(config.fault_config(seed));
    match config.fidelity {
        Fidelity::Real => {
            let mut rng = StdRng::seed_from_u64(seed);
            let cfg = SystemConfig::small_test();
            let mut stp = StpServer::new(&mut rng, cfg.paillier_bits());
            let mut sdc =
                SdcServer::new(cfg.clone(), stp.public_key().clone(), "sdc.storm", &mut rng);
            let mut pu = PuClient::new(0, BlockId(0));
            let e = sdc.e_matrix().clone();
            let update = pu.tune(Some(Channel(0)), &cfg, &e, stp.public_key(), &mut rng);
            sdc.handle_pu_update(pu.id(), update)
                // pisa-lint: allow(panic-freedom): setup-time, before any wire traffic — the canonical PU update matches the storm config by construction
                .expect("canonical PU update matches the storm config");
            let sus: Vec<(SuClient, Vec<Channel>)> = (0..config.sus)
                .map(|i| {
                    let su = SuClient::new(
                        pisa::SuId(i),
                        BlockId(slot(i) % cfg.blocks()),
                        &cfg,
                        &mut rng,
                    );
                    stp.register_su(su.id(), su.public_key().clone());
                    let channels = vec![Channel(slot(i) % cfg.channels())];
                    (su, channels)
                })
                .collect();
            run_sim_storm_with(sus, sdc, stp, faults, &config.engine, seed, config.jitter)
                // pisa-lint: allow(panic-freedom): setup-time, before any wire traffic — every storm SU was registered in the loop above
                .expect("every storm SU is registered")
        }
        Fidelity::Modeled => {
            let cfg = SystemConfig::small_test();
            let watch = cfg.watch().clone();
            let ct_bytes = cfg.paillier_bits() * 2 / 8;
            let wire = ModelWire::new(cfg.channels(), cfg.blocks(), ct_bytes);

            let mut net: SimNet<ModelMsg> = SimNet::new(faults, config.jitter);
            net.set_corruptor(Arc::new(corrupt_model_frame));
            let metrics = net.metrics().clone();
            let corrupt_possible = net.corrupt_possible();

            let mut expected_oracle = ModelOracle::new(&watch);
            let expected: Vec<bool> = (0..config.sus)
                .map(|i| expected_oracle.su_decision(i))
                .collect();

            let oracle = ModelOracle::new(&watch);
            let mut logic = ModelLogic {
                sdc: ModelSdc::new(config.sus, oracle, wire, metrics.clone()),
                stp: ModelStp::new(config.sus, wire, metrics.clone()),
                sus: (0..config.sus)
                    .map(|i| {
                        ModelSu::new(i, &config.engine, corrupt_possible, wire, metrics.clone())
                    })
                    .collect(),
            };
            let result = drive(&mut logic, &mut net);
            assemble(seed, Fidelity::Modeled, &net, result, expected)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn quick_engine() -> EngineConfig {
        EngineConfig::default().with_timeout(Duration::from_millis(50))
    }

    #[test]
    fn modeled_quiet_storm_matches_oracle() {
        let config = SimConfig::modeled(64).with_engine(quick_engine());
        let report = run_sim_storm(0xbead, &config);
        assert!(report.all_terminal());
        assert_eq!(report.undecided, 0);
        assert_eq!(report.sus, 64);
        for (o, &want) in report.outcomes.iter().zip(&report.expected) {
            assert_eq!(o.granted, Some(want), "SU {} diverged from oracle", o.su);
            assert_eq!(o.attempts, 1, "quiet network needs one attempt");
        }
        // The grid has grants and denials both.
        assert!(report.granted > 0 && report.denied > 0);
        // Virtual LAN time elapsed.
        assert!(report.makespan_ns > 0);
    }

    #[test]
    fn modeled_storm_is_bit_deterministic() {
        let config = SimConfig::modeled(48)
            .with_plan(FaultPlan::uniform(0.2))
            .with_engine(quick_engine());
        let a = run_sim_storm(17, &config);
        let b = run_sim_storm(17, &config);
        assert_eq!(a.to_json(), b.to_json());
        let c = run_sim_storm(18, &config);
        assert_ne!(
            a.to_json(),
            c.to_json(),
            "different seeds must diverge somewhere"
        );
    }

    #[test]
    fn modeled_lossy_storm_stays_terminal_and_honest() {
        let config = SimConfig::modeled(96)
            .with_plan(FaultPlan::uniform(0.25))
            .with_engine(quick_engine());
        let report = run_sim_storm(0xc405, &config);
        assert!(report.all_terminal());
        assert!(report.faults.total() > 0, "a 25% plan must inject faults");
        assert!(report.sessions.retries > 0, "faults must cost retries");
        for (o, &want) in report.outcomes.iter().zip(&report.expected) {
            if o.granted == Some(true) {
                assert!(want, "SU {} was granted against the oracle", o.su);
            }
        }
    }

    #[test]
    fn real_quiet_storm_runs_on_virtual_time() {
        let config = SimConfig::real(3).with_engine(quick_engine());
        let report = run_sim_storm(0xe403, &config);
        assert!(report.all_terminal());
        assert_eq!(report.undecided, 0);
        assert_eq!(report.fidelity, "real");
        for o in &report.outcomes {
            assert_eq!(o.attempts, 1);
            assert!(o.granted.is_some());
        }
    }

    #[test]
    fn zero_latency_storm_finishes_at_time_zero() {
        let config = SimConfig::modeled(8)
            .with_latency(None)
            .with_engine(quick_engine());
        let report = run_sim_storm(3, &config);
        assert!(report.all_terminal());
        assert_eq!(report.makespan_ns, 0, "no latency model: everything at t=0");
    }

    /// The report's totals are the sums of its per-session outcomes.
    #[test]
    fn lossy_report_totals_agree_with_outcomes() {
        let config = SimConfig::modeled(80)
            .with_plan(FaultPlan::uniform(0.2))
            .with_engine(quick_engine());
        let r = run_sim_storm(0x70_7a15, &config);
        assert_eq!(r.granted + r.denied + r.undecided + r.unfinished, r.sus);
        assert_eq!(r.outcomes.len(), r.sus as usize);
        let count = |want: Option<bool>| r.outcomes.iter().filter(|o| o.granted == want).count();
        assert_eq!(count(Some(true)), r.granted as usize);
        assert_eq!(count(Some(false)), r.denied as usize);
        assert_eq!(count(None), r.undecided as usize);
        let attempts: u64 = r.outcomes.iter().map(|o| u64::from(o.attempts)).sum();
        assert_eq!(attempts, r.attempts_total);
        let max = r.outcomes.iter().map(|o| o.attempts).max();
        assert_eq!(max, Some(r.max_attempts));
        assert!(r.max_attempts > 1, "a 20% plan forces a retry somewhere");
        assert_eq!(r.decisions_digest, decisions_digest(&r.outcomes));
        for (i, o) in r.outcomes.iter().enumerate() {
            assert_eq!(o.su, i as u32);
            assert!(o.finished_ns <= r.makespan_ns);
        }
        assert!(r.events >= r.messages);
    }

    /// On a quiet network each session is one request, query, reply and
    /// response: four frames, and no fault, retry or reject.
    #[test]
    fn quiet_storm_moves_four_frames_per_session() {
        let config = SimConfig::modeled(40).with_engine(quick_engine());
        let r = run_sim_storm(41, &config);
        assert!(r.all_terminal());
        assert_eq!(r.messages, 4 * u64::from(r.sus));
        assert_eq!(r.faults, pisa_net::FaultStats::default());
        assert_eq!(r.sessions.retries, 0);
        assert_eq!(r.sessions.rejected, 0);
        assert_eq!(r.attempts_total, u64::from(r.sus));
        // Every session moves the same four frame sizes.
        assert_eq!(r.bytes % u64::from(r.sus), 0);
    }
}
