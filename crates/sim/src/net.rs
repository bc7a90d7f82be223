//! Virtual-time front end for the shared [`FaultPipeline`].
//!
//! [`SimNet::send`] hands each message to the same [`FaultPipeline`]
//! the threaded [`pisa_net::Network`] and the TCP
//! [`SocketNode`](pisa_net::SocketNode) run — latency, drop, corrupt,
//! one-slot reorder holdback, duplicate — but instead of sleeping and
//! pushing into mailboxes it returns the scheduled [`Delivery`] records
//! for the event heap. One pipeline means one set of per-link fault
//! streams: for a given `(seed, link, send-index)` every transport
//! observes the *same* fault.
//!
//! Latency is drawn per send from the config's
//! [`LatencyModel`](pisa_net::LatencyModel) with seeded multiplicative
//! jitter, on per-link streams salted away from the fault streams so
//! turning jitter on or off never perturbs a fault draw.

use pisa_net::{Corruptor, FaultConfig, FaultPipeline, NetMetrics, Party, WireSize};

/// One message scheduled to land at a virtual instant.
#[derive(Debug, Clone)]
pub struct Delivery<M> {
    /// Virtual arrival time in nanoseconds.
    pub at: u64,
    /// Sender address.
    pub from: Party,
    /// Recipient address.
    pub to: Party,
    /// The (possibly mangled) payload.
    pub msg: M,
}

/// The virtual-time network: the threaded [`pisa_net::Network`]'s
/// fault pipeline, inverted control.
pub struct SimNet<M> {
    pipeline: FaultPipeline<M>,
    /// Per-send scratch for the pipeline's output, reused so the hot
    /// path does not allocate.
    frames: Vec<M>,
    metrics: NetMetrics,
}

impl<M: WireSize + Clone> SimNet<M> {
    /// A network injecting faults (and simulating wire time) per
    /// `config`; `None` is a perfect zero-latency network. `jitter` is
    /// the multiplicative latency jitter amplitude in `[0, 1]` (only
    /// meaningful when the config carries a latency model).
    pub fn new(config: Option<FaultConfig>, jitter: f64) -> Self {
        let metrics = NetMetrics::new();
        let config = config.unwrap_or_else(|| FaultConfig::new(0));
        SimNet {
            pipeline: FaultPipeline::new(config, jitter, metrics.clone()),
            frames: Vec::with_capacity(3),
            metrics,
        }
    }

    /// The shared traffic/fault/session counters.
    pub fn metrics(&self) -> &NetMetrics {
        &self.metrics
    }

    /// Installs the corruption oracle (see
    /// [`pisa_net::Network::set_corruptor`]).
    pub fn set_corruptor(&mut self, corruptor: Corruptor<M>) {
        self.pipeline.set_corruptor(corruptor);
    }

    /// `true` if any link can corrupt payloads.
    pub fn corrupt_possible(&self) -> bool {
        self.pipeline.config().any_corruption()
    }

    /// Sends `msg` on `from → to` at virtual time `now`, appending the
    /// resulting deliveries (zero, one or two messages, plus a possible
    /// released holdback) to `out`, all landing after the message's
    /// wire time.
    pub fn send(&mut self, now: u64, from: Party, to: Party, msg: M, out: &mut Vec<Delivery<M>>) {
        let wire = self.pipeline.inject(from, to, msg, &mut self.frames);
        let at = now.saturating_add(u64::try_from(wire.as_nanos()).unwrap_or(u64::MAX));
        for msg in self.frames.drain(..) {
            self.metrics.record(from, to, msg.wire_bytes());
            out.push(Delivery { at, from, to, msg });
        }
    }

    /// Delivers every message the reorder stage still holds, at virtual
    /// time `now`, in link order. Returns how many were flushed (mirrors
    /// [`pisa_net::Network::flush_holdback`]).
    pub fn flush_holdback(&mut self, now: u64, out: &mut Vec<Delivery<M>>) -> usize {
        let held = self.pipeline.drain_held();
        let n = held.len();
        for ((from, to), msg) in held {
            self.metrics.record(from, to, msg.wire_bytes());
            out.push(Delivery {
                at: now,
                from,
                to,
                msg,
            });
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pisa_net::codec::CodecError;
    use pisa_net::{
        FaultPlan, FrameCodec, LatencyModel, Network, SocketConfig, SocketEvent, SocketNode,
    };
    use std::sync::Arc;
    use std::time::Duration;

    fn lossy(seed: u64, plan: FaultPlan) -> SimNet<Vec<u8>> {
        SimNet::new(Some(FaultConfig::new(seed).with_default_plan(plan)), 0.0)
    }

    #[test]
    fn perfect_network_delivers_instantly() {
        let mut net: SimNet<Vec<u8>> = SimNet::new(None, 0.0);
        let mut out = Vec::new();
        net.send(5, Party::Su(0), Party::Sdc, vec![1, 2, 3], &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].at, 5);
        assert_eq!(net.metrics().total_bytes(), 3);
    }

    #[test]
    fn latency_delays_arrival_deterministically() {
        let cfg = FaultConfig::new(9).with_latency(LatencyModel::lan());
        let mut net: SimNet<Vec<u8>> = SimNet::new(Some(cfg.clone()), 0.0);
        let mut out = Vec::new();
        net.send(0, Party::Su(0), Party::Sdc, vec![0; 1000], &mut out);
        // 200 µs per message + 8 ns/byte.
        assert_eq!(out[0].at, 200_000 + 8_000);

        // Same seed, same arrivals — including with jitter on.
        let run = |jitter: f64| {
            let mut net: SimNet<Vec<u8>> = SimNet::new(Some(cfg.clone()), jitter);
            let mut out = Vec::new();
            for i in 0..32 {
                net.send(0, Party::Su(0), Party::Sdc, vec![0; 100 + i], &mut out);
            }
            out.iter().map(|d| d.at).collect::<Vec<_>>()
        };
        assert_eq!(run(0.3), run(0.3));
        assert_ne!(run(0.3), run(0.0));
    }

    /// Raw bytes as a socket payload, so an envelope's payload region
    /// is exactly the in-memory `Vec<u8>` message.
    #[derive(Debug, Clone, PartialEq)]
    struct Raw(Vec<u8>);

    impl FrameCodec for Raw {
        fn encode_frame(&self) -> Result<bytes::Bytes, CodecError> {
            Ok(bytes::Bytes::from(self.0.clone()))
        }

        fn decode_frame(frame: &[u8]) -> Result<Self, CodecError> {
            Ok(Raw(frame.to_vec()))
        }
    }

    /// Flips bit `tweak mod len·8` — the bit the socket corruptor flips
    /// in a `Raw` envelope's payload region.
    fn flip_bit() -> Corruptor<Vec<u8>> {
        Arc::new(|payload: &Vec<u8>, tweak| {
            let mut flipped = payload.clone();
            let bit = tweak as usize % (flipped.len() * 8);
            flipped[bit / 8] ^= 1 << (bit % 8);
            Some(flipped)
        })
    }

    /// The threaded network, the simulator and a loopback socket pair
    /// run one pipeline, so under every fault kind at once they deliver
    /// the same payloads in the same order and count the same faults.
    /// The seed leaves the last frame held back, so each transport's
    /// end-of-run flush (the socket's through `stop`) is exercised too.
    #[test]
    fn every_transport_sees_the_same_faults() {
        let cfg = FaultConfig::new(0x51fd)
            .with_default_plan(FaultPlan::uniform(0.3))
            .with_latency(LatencyModel::lan());
        let payloads: Vec<Vec<u8>> = (0..64u8).map(|i| vec![i, !i, i ^ 0x5a]).collect();

        let threaded: Network<Vec<u8>> = Network::with_faults(cfg.clone());
        threaded.set_corruptor(flip_bit());
        let a = threaded.endpoint(Party::Su(0));
        let b = threaded.endpoint(Party::Sdc);
        for p in &payloads {
            a.send(Party::Sdc, p.clone());
        }
        assert_eq!(threaded.flush_holdback(), 1);
        let threaded_seen: Vec<Vec<u8>> = std::iter::from_fn(|| b.try_recv())
            .map(|env| env.payload)
            .collect();

        let mut sim: SimNet<Vec<u8>> = SimNet::new(Some(cfg.clone()), 0.0);
        sim.set_corruptor(flip_bit());
        let mut out = Vec::new();
        for p in &payloads {
            sim.send(0, Party::Su(0), Party::Sdc, p.clone(), &mut out);
        }
        assert_eq!(sim.flush_holdback(0, &mut out), 1);
        let sim_seen: Vec<Vec<u8>> = out.into_iter().map(|d| d.msg).collect();

        let server: SocketNode<Raw> =
            SocketNode::new(Party::Sdc, SocketConfig::default(), NetMetrics::new(), None);
        let addr = server.bind("127.0.0.1:0").expect("bind").to_string();
        let client: SocketNode<Raw> = SocketNode::new(
            Party::Su(0),
            SocketConfig::default(),
            NetMetrics::new(),
            Some(cfg),
        );
        client.add_peer(Party::Sdc, addr);
        for p in &payloads {
            client
                .send_from(Party::Su(0), Party::Sdc, &Raw(p.clone()))
                .expect("send");
        }
        client.stop();
        let mut socket_seen = Vec::new();
        while socket_seen.len() < threaded_seen.len() {
            match server.recv_timeout(Duration::from_secs(10)) {
                Some(SocketEvent::Frame(env)) => socket_seen.push(env.payload.0),
                _ => break,
            }
        }
        assert!(
            server.recv_timeout(Duration::from_millis(100)).is_none(),
            "the socket pair delivered extra frames"
        );
        server.stop();

        let totals = threaded.metrics().fault_totals();
        assert!(totals.dropped > 0 && totals.duplicated > 0);
        assert!(totals.reordered > 0 && totals.corrupted > 0);
        assert_eq!(sim_seen, threaded_seen);
        assert_eq!(socket_seen, threaded_seen);
        assert_eq!(sim.metrics().fault_totals(), totals);
        assert_eq!(client.metrics().fault_totals(), totals);
    }

    #[test]
    fn reorder_swaps_adjacent_and_flush_recovers_stranded() {
        let mut net = lossy(2, FaultPlan::none().with_reorder(1.0));
        let mut out = Vec::new();
        net.send(0, Party::Su(0), Party::Sdc, vec![1], &mut out);
        assert!(out.is_empty()); // held back
        net.send(10, Party::Su(0), Party::Sdc, vec![2], &mut out);
        // Second send releases the first after itself.
        let payloads: Vec<u8> = out.iter().map(|d| d.msg[0]).collect();
        assert_eq!(payloads, vec![2, 1]);

        out.clear();
        net.send(20, Party::Su(0), Party::Sdc, vec![3], &mut out);
        assert!(out.is_empty());
        assert_eq!(net.flush_holdback(30, &mut out), 1);
        assert_eq!(out[0].at, 30);
        assert_eq!(net.metrics().total_messages(), 3);
    }

    #[test]
    fn corruption_oracle_mangles_or_absorbs() {
        let mut net = lossy(4, FaultPlan::none().with_corrupt(1.0));
        // No oracle: every corrupted frame is absorbed.
        let mut out = Vec::new();
        net.send(0, Party::Su(0), Party::Sdc, vec![0, 0], &mut out);
        assert!(out.is_empty());
        assert_eq!(net.metrics().fault_totals().corrupt_dropped, 1);

        net.set_corruptor(Arc::new(|payload: &Vec<u8>, tweak| {
            let mut flipped = payload.clone();
            let bit = tweak as usize % (flipped.len() * 8);
            flipped[bit / 8] ^= 1 << (bit % 8);
            Some(flipped)
        }));
        net.send(0, Party::Su(0), Party::Sdc, vec![0, 0], &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(
            out[0].msg.iter().map(|b| b.count_ones()).sum::<u32>(),
            1,
            "exactly one bit flipped"
        );
        assert_eq!(net.metrics().fault_totals().corrupted, 1);
    }
}
