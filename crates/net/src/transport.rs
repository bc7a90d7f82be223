//! Party addressing and in-memory message delivery.

use crate::fault::{Corruptor, FaultConfig, FaultPipeline};
use crate::metrics::NetMetrics;
use crate::{NetError, WireSize};
use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// Address of a protocol party.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Party {
    /// The spectrum database controller.
    Sdc,
    /// The semi-trusted third party (key conversion service).
    Stp,
    /// A primary user (TV receiver) by index.
    Pu(u32),
    /// A secondary user by index.
    Su(u32),
}

impl fmt::Display for Party {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Party::Sdc => f.write_str("SDC"),
            Party::Stp => f.write_str("STP"),
            Party::Pu(i) => write!(f, "PU{i}"),
            Party::Su(i) => write!(f, "SU{i}"),
        }
    }
}

/// A delivered message.
#[derive(Debug, Clone)]
pub struct Envelope<M> {
    /// Sender address.
    pub from: Party,
    /// Recipient address.
    pub to: Party,
    /// The message itself.
    pub payload: M,
}

struct Mailboxes<M> {
    senders: HashMap<Party, Sender<Envelope<M>>>,
    receivers: HashMap<Party, Receiver<Envelope<M>>>,
}

/// An in-memory network connecting PISA parties.
///
/// Cloning shares the underlying mailboxes and metrics, so a network can
/// be handed to several threads.
pub struct Network<M> {
    boxes: Arc<Mutex<Mailboxes<M>>>,
    metrics: NetMetrics,
    faults: Option<Arc<Mutex<FaultPipeline<M>>>>,
}

impl<M> Clone for Network<M> {
    fn clone(&self) -> Self {
        Network {
            boxes: Arc::clone(&self.boxes),
            metrics: self.metrics.clone(),
            faults: self.faults.clone(),
        }
    }
}

impl<M> Default for Network<M> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M> fmt::Debug for Network<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Network({} bytes total)", self.metrics.total_bytes())
    }
}

impl<M> Network<M> {
    /// Creates an empty, fault-free network.
    pub fn new() -> Self {
        Network {
            boxes: Arc::new(Mutex::new(Mailboxes {
                senders: HashMap::new(),
                receivers: HashMap::new(),
            })),
            metrics: NetMetrics::new(),
            faults: None,
        }
    }

    /// Creates a network that runs every send through a
    /// [`FaultPipeline`] configured by `config`.
    pub fn with_faults(config: FaultConfig) -> Self {
        let mut net = Self::new();
        let pipeline = FaultPipeline::new(config, 0.0, net.metrics.clone());
        net.faults = Some(Arc::new(Mutex::new(pipeline)));
        net
    }

    /// Installs the corruption oracle: how a bit flip mangles a payload
    /// (`None` = the flipped frame no longer parses and is absorbed).
    /// No-op on a fault-free network.
    pub fn set_corruptor(&self, corruptor: Corruptor<M>) {
        if let Some(faults) = &self.faults {
            faults.lock().set_corruptor(corruptor);
        }
    }
}

impl<M: WireSize> Network<M> {
    /// Returns (creating on first use) the endpoint for `party`.
    pub fn endpoint(&self, party: Party) -> Endpoint<M> {
        let mut boxes = self.boxes.lock();
        let rx = match boxes.receivers.get(&party) {
            Some(rx) => rx.clone(),
            // First use (or a sender somehow orphaned from its
            // receiver): wire both maps together.
            None => {
                let (tx, rx) = unbounded();
                boxes.senders.insert(party, tx);
                boxes.receivers.insert(party, rx.clone());
                rx
            }
        };
        Endpoint {
            party,
            net: self.clone(),
            rx,
        }
    }

    /// The shared traffic metrics.
    pub fn metrics(&self) -> &NetMetrics {
        &self.metrics
    }

    /// Puts `env` in the recipient's mailbox, recording its wire size.
    fn deliver_direct(&self, env: Envelope<M>) -> Result<(), NetError> {
        let _span = pisa_obs::span("net.send");
        let bytes = env.payload.wire_bytes();
        let sender = {
            let boxes = self.boxes.lock();
            boxes
                .senders
                .get(&env.to)
                .cloned()
                .ok_or(NetError::UnknownParty(env.to))?
        };
        self.metrics.record(env.from, env.to, bytes);
        sender
            .send(env)
            .map_err(|e| NetError::Disconnected(e.into_inner().to))
    }
}

impl<M: WireSize + Clone> Network<M> {
    /// Runs `env` through the fault pipeline, if any, then sleeps out
    /// its wire time — with the pipeline unlocked, so senders on other
    /// links are not held up — and delivers what survived.
    fn deliver(&self, env: Envelope<M>) -> Result<(), NetError> {
        let Some(faults) = &self.faults else {
            return self.deliver_direct(env);
        };
        let Envelope { from, to, payload } = env;
        let mut frames = Vec::with_capacity(3);
        let wire = faults.lock().inject(from, to, payload, &mut frames);
        std::thread::sleep(wire);
        for payload in frames {
            self.deliver_direct(Envelope { from, to, payload })?;
        }
        Ok(())
    }

    /// Delivers every message the reorder stage is still holding back.
    /// Returns how many were flushed. No-op on a fault-free network.
    pub fn flush_holdback(&self) -> usize {
        let Some(faults) = &self.faults else { return 0 };
        let held = faults.lock().drain_held();
        let n = held.len();
        for ((from, to), payload) in held {
            let _ = self.deliver_direct(Envelope { from, to, payload });
        }
        n
    }
}

/// The send surface a protocol engine needs from its network: an
/// address and a fallible send. Implemented by the threaded
/// [`Endpoint`] and by the virtual-time simulator's transport, so the
/// session engines in `pisa-core` run unmodified on either.
///
/// Receiving is *not* part of the trait: the threaded engine blocks on
/// `recv_timeout` while the simulator inverts control and pushes events
/// into the state machines, so a shared receive surface would fit
/// neither. Engines return their outbound messages instead.
pub trait Transport<M> {
    /// This transport's own address.
    fn party(&self) -> Party;

    /// Sends `payload` to `to`.
    ///
    /// # Errors
    ///
    /// [`NetError::UnknownParty`] if `to` has no endpoint, or
    /// [`NetError::Disconnected`] if its receiver is gone.
    fn try_send(&self, to: Party, payload: M) -> Result<(), NetError>;
}

impl<M: WireSize + Clone> Transport<M> for Endpoint<M> {
    fn party(&self) -> Party {
        Endpoint::party(self)
    }

    fn try_send(&self, to: Party, payload: M) -> Result<(), NetError> {
        Endpoint::try_send(self, to, payload)
    }
}

/// One party's handle onto the network.
pub struct Endpoint<M> {
    party: Party,
    net: Network<M>,
    rx: Receiver<Envelope<M>>,
}

impl<M: WireSize + Clone> Endpoint<M> {
    /// This endpoint's address.
    pub fn party(&self) -> Party {
        self.party
    }

    /// Sends `payload` to `to`, recording its wire size.
    ///
    /// # Panics
    ///
    /// Panics if the recipient endpoint was never created — PISA wires
    /// all four parties up front, so an unknown party is a programming
    /// error.
    pub fn send(&self, to: Party, payload: M) {
        self.try_send(to, payload).expect("recipient registered"); // pisa-lint: allow(panic-freedom): documented contract — the in-memory harness wires all four parties up front before any traffic; fallible callers use try_send
    }

    /// Sends, reporting unknown/disconnected recipients as errors.
    ///
    /// # Errors
    ///
    /// [`NetError::UnknownParty`] if `to` has no endpoint.
    pub fn try_send(&self, to: Party, payload: M) -> Result<(), NetError> {
        self.net.deliver(Envelope {
            from: self.party,
            to,
            payload,
        })
    }

    /// Receives the next message, blocking.
    ///
    /// # Errors
    ///
    /// [`NetError::Disconnected`] if every sender is gone.
    pub fn recv(&self) -> Result<Envelope<M>, NetError> {
        let received = self
            .rx
            .recv()
            .map_err(|_| NetError::Disconnected(self.party));
        if received.is_ok() {
            // Record only successful receives: blocking time is the
            // sender's latency, but an empty poll is not a "recv".
            let _span = pisa_obs::span("net.recv");
        }
        received
    }

    /// Receives without blocking; `None` when the mailbox is empty.
    pub fn try_recv(&self) -> Option<Envelope<M>> {
        self.rx.try_recv().ok()
    }

    /// Receives with a deadline; `None` if nothing arrives in time (the
    /// caller decides whether that is a retry or a protocol failure).
    pub fn recv_timeout(&self, timeout: std::time::Duration) -> Option<Envelope<M>> {
        let received = self.rx.recv_timeout(timeout).ok();
        if received.is_some() {
            let _span = pisa_obs::span("net.recv");
        }
        received
    }
}

impl<M> fmt::Debug for Endpoint<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Endpoint({})", self.party)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn party_display() {
        assert_eq!(Party::Sdc.to_string(), "SDC");
        assert_eq!(Party::Pu(3).to_string(), "PU3");
        assert_eq!(Party::Su(0).to_string(), "SU0");
        assert_eq!(Party::Stp.to_string(), "STP");
    }

    #[test]
    fn send_recv_roundtrip() {
        let net: Network<Vec<u8>> = Network::new();
        let a = net.endpoint(Party::Su(1));
        let b = net.endpoint(Party::Sdc);
        a.send(Party::Sdc, vec![1, 2, 3]);
        let env = b.recv().unwrap();
        assert_eq!(env.from, Party::Su(1));
        assert_eq!(env.payload, vec![1, 2, 3]);
    }

    #[test]
    fn in_order_delivery() {
        let net: Network<Vec<u8>> = Network::new();
        let a = net.endpoint(Party::Pu(0));
        let b = net.endpoint(Party::Sdc);
        for i in 0..10u8 {
            a.send(Party::Sdc, vec![i]);
        }
        for i in 0..10u8 {
            assert_eq!(b.recv().unwrap().payload, vec![i]);
        }
        assert!(b.try_recv().is_none());
    }

    #[test]
    fn unknown_recipient_is_error() {
        let net: Network<Vec<u8>> = Network::new();
        let a = net.endpoint(Party::Sdc);
        assert_eq!(
            a.try_send(Party::Su(9), vec![1]),
            Err(NetError::UnknownParty(Party::Su(9)))
        );
    }

    #[test]
    fn metrics_accumulate() {
        let net: Network<Vec<u8>> = Network::new();
        let a = net.endpoint(Party::Su(0));
        let _b = net.endpoint(Party::Sdc);
        a.send(Party::Sdc, vec![0; 100]);
        a.send(Party::Sdc, vec![0; 28]);
        assert_eq!(net.metrics().total_bytes(), 128);
        assert_eq!(net.metrics().total_messages(), 2);
        let link = net.metrics().link(Party::Su(0), Party::Sdc).unwrap();
        assert_eq!(link.bytes, 128);
        assert_eq!(link.messages, 2);
    }

    #[test]
    fn recv_timeout_behaviour() {
        let net: Network<Vec<u8>> = Network::new();
        let a = net.endpoint(Party::Sdc);
        let b = net.endpoint(Party::Stp);
        assert!(b
            .recv_timeout(std::time::Duration::from_millis(5))
            .is_none());
        a.send(Party::Stp, vec![9]);
        let env = b
            .recv_timeout(std::time::Duration::from_millis(100))
            .expect("delivered");
        assert_eq!(env.payload, vec![9]);
    }

    #[test]
    fn faulty_network_drops_and_counts() {
        use crate::fault::{FaultConfig, FaultPlan};
        let net: Network<Vec<u8>> = Network::with_faults(
            FaultConfig::new(0xfa11).with_default_plan(FaultPlan::none().with_drop(1.0)),
        );
        let a = net.endpoint(Party::Su(0));
        let b = net.endpoint(Party::Sdc);
        for _ in 0..5 {
            a.send(Party::Sdc, vec![1, 2, 3]);
        }
        assert!(b.try_recv().is_none());
        let faults = net.metrics().link_faults(Party::Su(0), Party::Sdc).unwrap();
        assert_eq!(faults.dropped, 5);
        // Dropped messages never hit the mailbox, so no bytes accrue.
        assert_eq!(net.metrics().total_bytes(), 0);
    }

    #[test]
    fn faulty_network_duplicates() {
        use crate::fault::{FaultConfig, FaultPlan};
        let net: Network<Vec<u8>> = Network::with_faults(
            FaultConfig::new(1).with_default_plan(FaultPlan::none().with_duplicate(1.0)),
        );
        let a = net.endpoint(Party::Su(0));
        let b = net.endpoint(Party::Sdc);
        a.send(Party::Sdc, vec![7]);
        assert_eq!(b.recv().unwrap().payload, vec![7]);
        assert_eq!(b.recv().unwrap().payload, vec![7]);
        assert!(b.try_recv().is_none());
        let faults = net.metrics().fault_totals();
        assert_eq!(faults.duplicated, 1);
    }

    #[test]
    fn faulty_network_reorders_adjacent_messages() {
        use crate::fault::{FaultConfig, FaultPlan};
        let net: Network<Vec<u8>> = Network::with_faults(
            FaultConfig::new(2).with_default_plan(FaultPlan::none().with_reorder(1.0)),
        );
        let a = net.endpoint(Party::Su(0));
        let b = net.endpoint(Party::Sdc);
        a.send(Party::Sdc, vec![1]);
        a.send(Party::Sdc, vec![2]);
        // First send was held back; second send releases it after itself.
        assert_eq!(b.recv().unwrap().payload, vec![2]);
        assert_eq!(b.recv().unwrap().payload, vec![1]);
        assert!(net.metrics().fault_totals().reordered >= 1);
    }

    #[test]
    fn holdback_flush_recovers_stranded_message() {
        use crate::fault::{FaultConfig, FaultPlan};
        let net: Network<Vec<u8>> = Network::with_faults(
            FaultConfig::new(3).with_default_plan(FaultPlan::none().with_reorder(1.0)),
        );
        let a = net.endpoint(Party::Su(0));
        let b = net.endpoint(Party::Sdc);
        a.send(Party::Sdc, vec![9]);
        assert!(b.try_recv().is_none());
        assert_eq!(net.flush_holdback(), 1);
        assert_eq!(b.recv().unwrap().payload, vec![9]);
    }

    #[test]
    fn corruption_without_oracle_absorbs_frame() {
        use crate::fault::{FaultConfig, FaultPlan};
        let net: Network<Vec<u8>> = Network::with_faults(
            FaultConfig::new(4).with_default_plan(FaultPlan::none().with_corrupt(1.0)),
        );
        let a = net.endpoint(Party::Su(0));
        let b = net.endpoint(Party::Sdc);
        a.send(Party::Sdc, vec![1, 2, 3]);
        assert!(b.try_recv().is_none());
        assert_eq!(net.metrics().fault_totals().corrupt_dropped, 1);
    }

    #[test]
    fn corruption_oracle_mangles_payload() {
        use crate::fault::{FaultConfig, FaultPlan};
        use std::sync::Arc;
        let net: Network<Vec<u8>> = Network::with_faults(
            FaultConfig::new(5).with_default_plan(FaultPlan::none().with_corrupt(1.0)),
        );
        net.set_corruptor(Arc::new(|payload: &Vec<u8>, tweak| {
            let mut flipped = payload.clone();
            let bit = tweak as usize % (flipped.len() * 8);
            flipped[bit / 8] ^= 1 << (bit % 8);
            Some(flipped)
        }));
        let a = net.endpoint(Party::Su(0));
        let b = net.endpoint(Party::Sdc);
        a.send(Party::Sdc, vec![0, 0, 0, 0]);
        let env = b.recv().unwrap();
        assert_eq!(env.payload.iter().map(|b| b.count_ones()).sum::<u32>(), 1);
        assert_eq!(net.metrics().fault_totals().corrupted, 1);
    }

    #[test]
    fn same_seed_same_fault_pattern() {
        use crate::fault::{FaultConfig, FaultPlan};
        let run = |seed: u64| {
            let net: Network<Vec<u8>> = Network::with_faults(
                FaultConfig::new(seed).with_default_plan(FaultPlan::uniform(0.3)),
            );
            let a = net.endpoint(Party::Su(0));
            let b = net.endpoint(Party::Sdc);
            for i in 0..50u8 {
                a.send(Party::Sdc, vec![i]);
            }
            net.flush_holdback();
            let mut seen = Vec::new();
            while let Some(env) = b.try_recv() {
                seen.push(env.payload[0]);
            }
            (seen, net.metrics().fault_totals())
        };
        assert_eq!(run(0xcafe), run(0xcafe));
        assert_ne!(run(0xcafe).0, run(0xbeef).0);
    }

    #[test]
    fn cross_thread_delivery() {
        let net: Network<Vec<u8>> = Network::new();
        let sdc = net.endpoint(Party::Sdc);
        let su = net.endpoint(Party::Su(0));
        let handle = std::thread::spawn(move || {
            su.send(Party::Sdc, vec![42; 7]);
        });
        let env = sdc.recv().unwrap();
        assert_eq!(env.payload.len(), 7);
        handle.join().unwrap();
    }
}
