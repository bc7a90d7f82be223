//! The storm driver: one event loop, two fidelities.
//!
//! [`run_sim_storm`] runs the canonical storm — N concurrent SU
//! sessions against one SDC and one STP over a faulty network — on
//! virtual time, through [`SimNet`](crate::SimNet). Every party is a
//! `pisa-core` session engine, so both fidelities run the replay,
//! resend, reject and retry rules the services run. In
//! [`Fidelity::Real`] the engines run the Paillier backend (blinding,
//! key conversion, RSA licenses and all); in [`Fidelity::Modeled`] they
//! run the plaintext backend from [`crate::model`], which makes a
//! 10⁵-session storm a matter of seconds while keeping the session
//! semantics — retries, replays, reorder holdback, corruption —
//! bit-exact.
//!
//! Both fidelities share one generic [`drive`] loop, so an event-order
//! bug cannot hide in just one of them.

use crate::event::EventQueue;
use crate::model::{corrupt_model_frame, su_session, ModelOracle, PlainSdc};
use crate::net::{Delivery, SimNet};
use crate::report::{decisions_digest, SimOutcome, StormReport};
use pisa::{
    corrupt_session_frame, storm_fixture, Backend, EngineConfig, Outbox, PisaError,
    SdcSessionEngine, SessionMsg, StormFixture, StpSessionEngine, SuAction, SuEvent,
    SuSessionEngine, SuSessionParams, SystemConfig,
};
use pisa_net::{FaultConfig, FaultPlan, LatencyModel, NetMetrics, Party, WireSize};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::sync::Arc;

/// How faithfully the storm executes the protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fidelity {
    /// The Paillier backend: every ciphertext computed. Costs real
    /// crypto time per session; right for ≲10³ SUs.
    Real,
    /// The plaintext backend: the same engines, decisions from the
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
    /// Paillier or plaintext backend.
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

    /// Replaces the engine (timeout / retry) policy.
    pub fn with_engine(mut self, engine: EngineConfig) -> Self {
        self.engine = engine;
        self
    }

    /// The fault config this storm hands the lottery (the
    /// `seed ^ 0xfa17` derivation the socket roles use too).
    fn fault_config(&self, seed: u64) -> FaultConfig {
        let mut cfg = FaultConfig::new(seed ^ 0xfa17).with_default_plan(self.plan);
        if let Some(model) = self.latency {
            cfg = cfg.with_latency(model);
        }
        cfg
    }
}

/// An event on the heap: a scheduled delivery, or an SU receive
/// deadline. The epoch stamps a deadline to its arming; re-arming
/// bumps the epoch so stale timers pop as no-ops (a socket SU gets
/// this for free from `recv_timeout`). A delivery keeps only what the
/// loop reads: its instant is the heap key's.
enum Ev<M> {
    Deliver { to: Party, msg: SessionMsg<M> },
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

/// The parties of one storm: the `pisa-core` session engines on one
/// backend.
struct Parties<B: Backend> {
    sdc: SdcSessionEngine<B>,
    stp: StpSessionEngine<B>,
    sus: Vec<SuSessionEngine<B>>,
    /// The slot of every SU whose id is not its slot (none in the
    /// canonical storms, where SU `i` sits in slot `i`).
    moved: HashMap<u32, u32>,
}

impl<B: Backend> Parties<B> {
    fn new(
        sdc: SdcSessionEngine<B>,
        stp: StpSessionEngine<B>,
        sus: Vec<SuSessionEngine<B>>,
    ) -> Self {
        let moved = sus
            .iter()
            .enumerate()
            .map(|(i, su)| (su.su_id().0, narrow(i)))
            .filter(|(id, i)| id != i)
            .collect();
        Parties {
            sdc,
            stp,
            sus,
            moved,
        }
    }

    /// The slot of SU `id`, if the storm has one.
    fn slot_of(&self, id: u32) -> Option<u32> {
        match self.sus.get(slot(id)) {
            Some(su) if su.su_id().0 == id => Some(id),
            _ => self.moved.get(&id).copied(),
        }
    }
}

/// The heap plus the per-SU bookkeeping the loop threads through every
/// step.
struct DriveState<M> {
    queue: EventQueue<Ev<M>>,
    deliveries: Vec<Delivery<SessionMsg<M>>>,
    /// The frames the party just handled sent, reused for every event.
    outbox: Outbox<M>,
    epochs: Vec<u32>,
    done: Vec<Option<(Option<bool>, u32)>>,
    finish_ns: Vec<u64>,
}

impl<M: Clone + WireSize> DriveState<M> {
    fn new(n: u32) -> Self {
        DriveState {
            queue: EventQueue::new(),
            deliveries: Vec::new(),
            outbox: Vec::new(),
            epochs: vec![0u32; slot(n)],
            done: vec![None; slot(n)],
            finish_ns: vec![0u64; slot(n)],
        }
    }

    /// Whether session `i` has reached a terminal outcome.
    fn is_done(&self, i: u32) -> bool {
        self.done.get(slot(i)).is_some_and(Option::is_some)
    }

    /// Routes what `from` just sent into the network at virtual time
    /// `now`.
    fn send(&mut self, net: &mut SimNet<SessionMsg<M>>, from: Party, now: u64) {
        for (to, msg) in self.outbox.drain(..) {
            net.send(now, from, to, msg, &mut self.deliveries);
        }
    }

    /// Applies SU `i`'s action at virtual time `now`: its sends enter
    /// the network, then its deadline is (re-)armed or its outcome
    /// recorded.
    fn apply(
        &mut self,
        net: &mut SimNet<SessionMsg<M>>,
        from: Party,
        i: u32,
        action: SuAction,
        now: u64,
    ) {
        self.send(net, from, now);
        match action {
            SuAction::Wait { deadline } => {
                let Some(epoch) = self.epochs.get_mut(slot(i)) else {
                    return;
                };
                *epoch = epoch.wrapping_add(1);
                let epoch = *epoch;
                let deadline_ns = u64::try_from(deadline.as_nanos()).unwrap_or(u64::MAX);
                self.queue.push(
                    now.saturating_add(deadline_ns),
                    Ev::SuTimeout { su: i, epoch },
                );
            }
            SuAction::Finish(outcome) => {
                if let Some(d) = self.done.get_mut(slot(i)) {
                    *d = Some((outcome.granted, outcome.attempts));
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
fn drive<B: Backend>(p: &mut Parties<B>, net: &mut SimNet<SessionMsg<B::Msg>>) -> DriveResult {
    let n = narrow(p.sus.len());
    let cap = EVENTS_PER_SU * u64::from(n) + EVENT_FLOOR;
    let mut st: DriveState<B::Msg> = DriveState::new(n);
    let mut now = 0u64;
    let mut events = 0u64;
    let mut truncated = false;

    for (i, su) in (0..n).zip(&p.sus) {
        let action = su.start(&mut st.outbox);
        st.apply(net, Party::Su(su.su_id().0), i, action, 0);
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
                    p.sdc.handle(msg, &mut st.outbox);
                    st.send(net, to, now);
                }
                Party::Stp => {
                    p.stp.handle(msg, &mut st.outbox);
                    st.send(net, to, now);
                }
                Party::Su(id) => {
                    // A corrupted frame can name a party that does not
                    // exist; the delivery is simply unclaimed.
                    if let Some(i) = p.slot_of(id).filter(|&i| !st.is_done(i)) {
                        if let Some(su) = p.sus.get_mut(slot(i)) {
                            let action = su.on_event(SuEvent::Frame(msg), &mut st.outbox);
                            st.apply(net, to, i, action, now);
                        }
                    }
                }
                Party::Pu(_) => {}
            },
            Ev::SuTimeout { su: i, epoch } => {
                let armed = !st.is_done(i) && st.epochs.get(slot(i)) == Some(&epoch);
                if let Some(su) = p.sus.get_mut(slot(i)).filter(|_| armed) {
                    let action = su.on_event(SuEvent::Timeout, &mut st.outbox);
                    st.apply(net, Party::Su(su.su_id().0), i, action, now);
                }
            }
        }
        st.commit();
    }

    // Stranded holdback messages still count as delivered traffic, as
    // a stopping socket node writes them out.
    net.flush_holdback(now, &mut st.deliveries);
    st.deliveries.clear();

    let mut outcomes = Vec::with_capacity(slot(n));
    let mut unfinished = 0u32;
    for (i, su) in p.sus.iter().enumerate() {
        let (granted, attempts) = match st.done.get(i).copied().flatten() {
            Some((granted, attempts)) => (granted, attempts),
            None => {
                unfinished += 1;
                (None, 0)
            }
        };
        let finished_ns = st.finish_ns.get(i).copied().unwrap_or(0);
        outcomes.push(SimOutcome {
            su: su.su_id().0,
            granted,
            attempts,
            finished_ns,
        });
    }
    // Stale timers from already-finished sessions still pop (as
    // no-ops), so "last popped event" overstates the storm: the
    // makespan is when the last session went terminal.
    let makespan_ns = st.finish_ns.iter().copied().max().unwrap_or(0);

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

/// Runs a real-fidelity storm on virtual time over an explicitly built
/// fixture, returning the report and the network's traffic, fault and
/// per-session counters. The per-SU request randomness, the SDC/STP
/// engine seeds and the fault streams all derive from `seed` the way
/// [`pisa::run_storm`] and the socket roles derive them, so a
/// fault-free sim storm and a [`pisa::run_storm`] of the same seed make
/// identical decisions.
///
/// # Errors
///
/// [`PisaError::UnknownSu`] if an SU of the fixture never registered
/// with its STP.
pub fn run_sim_storm_with(
    fixture: StormFixture,
    faults: Option<FaultConfig>,
    engine: &EngineConfig,
    seed: u64,
    jitter: f64,
) -> Result<(StormReport, NetMetrics), PisaError> {
    let su_keys = fixture.su_keys()?;
    let StormFixture { sus, sdc, stp } = fixture;
    let cfg = sdc.config().clone();
    let pk_g = stp.public_key().clone();
    let signing = sdc.signing_public_key().clone();
    let corrupt_possible = faults.as_ref().is_some_and(FaultConfig::any_corruption);

    let mut net: SimNet<SessionMsg> = SimNet::new(faults, jitter);
    net.set_corruptor(Arc::new(corrupt_session_frame));
    let metrics = net.metrics().clone();

    let params = SuSessionParams {
        cfg: &cfg,
        pk_g: &pk_g,
        signing: &signing,
        corrupt_possible,
        engine,
        metrics: &metrics,
    };
    let engines = sus
        .into_iter()
        .enumerate()
        .map(|(i, (su, channels))| {
            // The same dedicated request-randomness stream as every
            // other storm driver gives SU `i`.
            let mut rng = StdRng::seed_from_u64(seed ^ (0x50 + i as u64));
            SuSessionEngine::new(su, &channels, &params, &mut rng)
        })
        .collect();
    let mut parties = Parties::new(
        SdcSessionEngine::new(sdc, su_keys, metrics.clone(), seed ^ 0x5dc),
        StpSessionEngine::new(stp, metrics.clone(), seed ^ 0x517),
        engines,
    );
    let result = drive(&mut parties, &mut net);
    Ok((
        assemble(seed, Fidelity::Real, &net, result, Vec::new()),
        metrics,
    ))
}

/// Runs one seeded storm of the canonical population —
/// [`pisa::storm_fixture`] at real fidelity: one PU at block 0 on
/// channel 0, SU `i` at block `i % blocks` requesting channel
/// `i % channels` — and returns its report.
/// Bit-deterministic: the same `(seed, config)` always produces a
/// byte-identical [`StormReport::to_json`].
pub fn run_sim_storm(seed: u64, config: &SimConfig) -> StormReport {
    let faults = Some(config.fault_config(seed));
    match config.fidelity {
        Fidelity::Real => {
            let (report, _metrics) = storm_fixture(config.sus, seed)
                .and_then(|fixture| {
                    run_sim_storm_with(fixture, faults, &config.engine, seed, config.jitter)
                })
                // pisa-lint: allow(panic-freedom): setup-time, before any wire traffic — the canonical fixture's PU update matches the storm config and it registers every SU
                .expect("the canonical storm fixture builds and registers every SU");
            report
        }
        Fidelity::Modeled => {
            let cfg = SystemConfig::small_test();
            let watch = cfg.watch();
            let sus = config.sus;

            let mut net = SimNet::new(faults, config.jitter);
            net.set_corruptor(Arc::new(corrupt_model_frame));
            let metrics = net.metrics().clone();
            let corrupt_possible = net.corrupt_possible();

            let mut expected_oracle = ModelOracle::new(watch);
            let expected: Vec<bool> = (0..sus).map(|i| expected_oracle.su_decision(i)).collect();

            let sdc = PlainSdc {
                oracle: ModelOracle::new(watch),
                sus,
            };
            let engines = (0..sus)
                .map(|i| su_session(i, corrupt_possible, &config.engine, &metrics))
                .collect();
            let mut parties = Parties::new(
                SdcSessionEngine::with_backend(sdc, metrics.clone(), seed ^ 0x5dc),
                StpSessionEngine::with_backend(sus, metrics, seed ^ 0x517),
                engines,
            );
            let result = drive(&mut parties, &mut net);
            assemble(seed, Fidelity::Modeled, &net, result, expected)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pisa::{SdcServer, StpServer, SuClient, SuId};
    use pisa_radio::tv::Channel;
    use pisa_radio::BlockId;
    use std::time::Duration;

    fn quick_engine() -> EngineConfig {
        EngineConfig::default().with_timeout(Duration::from_millis(50))
    }

    fn decisions(report: &StormReport) -> Vec<(u32, Option<bool>)> {
        report.outcomes.iter().map(|o| (o.su, o.granted)).collect()
    }

    /// `n_sus` SUs and no PU, so every session is granted.
    fn storm_setup(n_sus: u32, seed: u64) -> StormFixture {
        let mut rng = StdRng::seed_from_u64(seed);
        let cfg = SystemConfig::small_test();
        let mut stp = StpServer::new(&mut rng, cfg.paillier_bits());
        let sdc = SdcServer::new(cfg.clone(), stp.public_key().clone(), "sdc.storm", &mut rng);
        let sus = (0..n_sus)
            .map(|i| {
                let su = SuClient::new(SuId(i), BlockId(i as usize % cfg.blocks()), &cfg, &mut rng);
                stp.register_su(su.id(), su.public_key().clone());
                (su, vec![Channel(i as usize % cfg.channels())])
            })
            .collect();
        StormFixture { sus, sdc, stp }
    }

    /// [`storm_setup`] on a quiet network, then on `faults` with
    /// `engine`: the faulty run must reach every decision the quiet one
    /// reached.
    fn quiet_and_faulty(
        n: u32,
        seed: u64,
        faults: FaultConfig,
        engine: &EngineConfig,
    ) -> (StormReport, StormReport) {
        let quiet = storm_setup(n, seed);
        let (baseline, _) =
            run_sim_storm_with(quiet, None, &EngineConfig::default(), seed, 0.0).unwrap();
        let faulty = storm_setup(n, seed);
        let (report, _) = run_sim_storm_with(faulty, Some(faults), engine, seed, 0.0).unwrap();
        (baseline, report)
    }

    #[test]
    fn quiet_storm_grants_every_session_first_try() {
        let quiet = storm_setup(3, 0x570);
        let (report, metrics) =
            run_sim_storm_with(quiet, None, &EngineConfig::default(), 0x570, 0.0).unwrap();
        assert_eq!(report.outcomes.len(), 3);
        for outcome in &report.outcomes {
            assert_eq!(outcome.granted, Some(true), "SU {}", outcome.su);
            assert_eq!(outcome.attempts, 1);
        }
        // No faults, no retries, no rejects.
        let totals = metrics.session_totals();
        assert_eq!(totals.retries + totals.timeouts + totals.rejected, 0);
        assert_eq!(metrics.fault_totals().total(), 0);
    }

    #[test]
    fn lossy_storm_reaches_the_same_decisions() {
        let faults = FaultConfig::new(0xbad)
            .with_default_plan(FaultPlan::none().with_drop(0.15).with_duplicate(0.25));
        let engine = EngineConfig::default().with_max_retries(12);
        let (baseline, report) = quiet_and_faulty(4, 0x571, faults, &engine);

        assert_eq!(decisions(&report), decisions(&baseline));
        assert!(report.outcomes.iter().all(|o| o.granted.is_some()));
        // The fault layer actually fired and the sessions absorbed it.
        assert!(report.faults.total() > 0);
    }

    /// With payload corruption switched on, every malformed frame must
    /// surface as a decode error → retry, never as a panic inside the
    /// frame-decode or homomorphic paths — and the final decisions must
    /// match the fault-free baseline.
    #[test]
    fn corrupting_storm_never_panics_and_still_decides() {
        let faults = FaultConfig::new(0xc0de)
            .with_default_plan(FaultPlan::none().with_corrupt(0.2).with_drop(0.1));
        let engine = EngineConfig::default().with_max_retries(16);
        let (baseline, report) = quiet_and_faulty(3, 0x573, faults, &engine);

        assert_eq!(decisions(&report), decisions(&baseline));
        assert!(report.outcomes.iter().all(|o| o.granted.is_some()));
        assert!(
            report.faults.total() > 0,
            "corruption faults must actually have fired"
        );
    }

    #[test]
    fn unregistered_su_is_reported_not_panicked() {
        let mut fixture = storm_setup(2, 0x572);
        let cfg = SystemConfig::small_test();
        // Fresh STP that knows neither SU.
        fixture.stp = StpServer::new(&mut StdRng::seed_from_u64(9), cfg.paillier_bits());
        let su_id = fixture.sus[0].0.id();
        fixture.sus.truncate(1);
        let err =
            run_sim_storm_with(fixture, None, &EngineConfig::default(), 0x572, 0.0).unwrap_err();
        assert_eq!(err, PisaError::UnknownSu(su_id));
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
