//! Deterministic, seedable fault injection: one pipeline for every
//! transport.
//!
//! A [`FaultConfig`] attaches independent per-link probabilities for the
//! four classic link pathologies — drop, duplicate, reorder, corrupt —
//! plus an optional [`LatencyModel`] that is applied to every delivery.
//! [`FaultPipeline`] runs them in one stage order (latency → drop →
//! corrupt → reorder holdback → duplicate) for the TCP
//! [`SocketNode`](crate::SocketNode) and the virtual-time simulator
//! alike. Randomness is drawn from a
//! dedicated RNG stream *per directed link*, each seeded from the config
//! seed and the link addresses, so the fault pattern a given sender
//! observes is a pure function of `(seed, link, send index)`: it is the
//! same on every transport and does not depend on how concurrent
//! sessions happen to interleave on other links.
//!
//! Corruption needs to know what a "bit flip the receiver may or may not
//! detect" means for the payload type, so the pipeline owns a pluggable
//! [`Corruptor`] oracle: given the payload and 64 tweak bits it returns
//! `Some(mangled)` when the flipped frame still decodes (the receiver
//! sees a wrong-but-well-formed message and must reject it at the
//! protocol layer) or `None` when the frame no longer parses (the
//! pipeline absorbs it like a drop, counted separately). Without an
//! oracle, corruption always destroys the frame.

use crate::metrics::{FaultKind, LinkCounter, NetMetrics};
use crate::transport::Party;
use crate::{LatencyModel, WireSize};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use std::collections::{btree_map, BTreeMap, HashMap};
use std::sync::Arc;
use std::time::Duration;

/// Per-link fault probabilities, each independently in `[0, 1]`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FaultPlan {
    /// Probability a message silently disappears.
    pub drop: f64,
    /// Probability a message is delivered twice.
    pub duplicate: f64,
    /// Probability a message is held back and swapped with the next one
    /// on the same link.
    pub reorder: f64,
    /// Probability a message is bit-flipped in transit.
    pub corrupt: f64,
}

impl FaultPlan {
    /// A fault-free link.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// The same probability for all four fault kinds.
    pub fn uniform(p: f64) -> Self {
        FaultPlan {
            drop: p,
            duplicate: p,
            reorder: p,
            corrupt: p,
        }
    }

    /// Sets the drop probability.
    pub fn with_drop(mut self, p: f64) -> Self {
        self.drop = p;
        self
    }

    /// Sets the duplicate probability.
    pub fn with_duplicate(mut self, p: f64) -> Self {
        self.duplicate = p;
        self
    }

    /// Sets the reorder probability.
    pub fn with_reorder(mut self, p: f64) -> Self {
        self.reorder = p;
        self
    }

    /// Sets the corrupt probability.
    pub fn with_corrupt(mut self, p: f64) -> Self {
        self.corrupt = p;
        self
    }

    fn is_quiet(&self) -> bool {
        self.drop <= 0.0 && self.duplicate <= 0.0 && self.reorder <= 0.0 && self.corrupt <= 0.0
    }

    /// Rolls the dice for one message on a link under this plan,
    /// drawing from the link's fault stream. A quiet plan consumes
    /// nothing from the stream.
    fn draw(&self, rng: &mut StdRng) -> FaultDraw {
        if self.is_quiet() {
            return FaultDraw::default();
        }
        let mut chance = |p: f64| (rng.next_u64() >> 11) as f64 * 2f64.powi(-53) < p;
        FaultDraw {
            dropped: chance(self.drop),
            duplicated: chance(self.duplicate),
            reordered: chance(self.reorder),
            corrupt: chance(self.corrupt).then(|| rng.next_u64()),
        }
    }
}

/// A seedable fault-injection policy for a whole network.
#[derive(Debug, Clone)]
pub struct FaultConfig {
    /// Master seed; every per-link RNG stream derives from it.
    pub seed: u64,
    /// Plan applied to links without a dedicated override.
    pub default_plan: FaultPlan,
    /// Per-link overrides, keyed by `(from, to)`.
    pub per_link: HashMap<(Party, Party), FaultPlan>,
    /// Optional wire-time model applied to every delivery (the sender
    /// blocks for `transfer_time(bytes, 1)` before the message lands).
    pub latency: Option<LatencyModel>,
}

impl FaultConfig {
    /// A quiet config (no faults, no latency) with the given seed.
    pub fn new(seed: u64) -> Self {
        FaultConfig {
            seed,
            default_plan: FaultPlan::none(),
            per_link: HashMap::new(),
            latency: None,
        }
    }

    /// Applies `plan` to every link without an override.
    pub fn with_default_plan(mut self, plan: FaultPlan) -> Self {
        self.default_plan = plan;
        self
    }

    /// Overrides the plan for one directed link.
    pub fn with_link(mut self, from: Party, to: Party, plan: FaultPlan) -> Self {
        self.per_link.insert((from, to), plan);
        self
    }

    /// Simulates wire time on every delivery.
    pub fn with_latency(mut self, model: LatencyModel) -> Self {
        self.latency = Some(model);
        self
    }

    /// The plan governing `from → to`.
    pub fn plan_for(&self, from: Party, to: Party) -> FaultPlan {
        self.per_link
            .get(&(from, to))
            .copied()
            .unwrap_or(self.default_plan)
    }

    /// `true` if any link can corrupt payloads. Protocol layers use this
    /// to decide whether a well-formed but unverifiable message can be
    /// trusted as-is or must be treated as possibly mangled.
    pub fn any_corruption(&self) -> bool {
        self.default_plan.corrupt > 0.0 || self.per_link.values().any(|p| p.corrupt > 0.0)
    }
}

/// What the fault stages decided for one message.
#[derive(Default)]
struct FaultDraw {
    dropped: bool,
    duplicated: bool,
    reordered: bool,
    /// 64 tweak bits for the corruption oracle, when corruption fired.
    corrupt: Option<u64>,
}

/// Payload-corruption oracle: `Some(mangled)` if the flipped frame still
/// decodes, `None` if the receiver would discard it as unparseable.
pub type Corruptor<M> = Arc<dyn Fn(&M, u64) -> Option<M> + Send + Sync>;

/// Salt xored into the master seed for the latency-jitter streams, so
/// they are decorrelated from the fault streams on the same link.
const LATENCY_SALT: u64 = 0x1a7e_57a7_e000_0001;

/// What the pipeline keeps for one directed link, from its first send
/// on: one table entry, so a send looks its link up once.
struct Link {
    /// Fault stream: the draw for the k-th send on the link is a pure
    /// function of `(seed, link, k)`.
    faults: StdRng,
    /// Latency-jitter stream, salted away from the fault stream so
    /// turning jitter on or off never perturbs a fault draw.
    jitter: StdRng,
    /// The link's delivery counters in the pipeline's metrics.
    delivered: LinkCounter,
}

impl Link {
    fn new(seed: u64, from: Party, to: Party, metrics: &NetMetrics) -> Self {
        Link {
            faults: StdRng::seed_from_u64(link_stream_seed(seed, from, to)),
            jitter: StdRng::seed_from_u64(link_stream_seed(seed ^ LATENCY_SALT, from, to)),
            delivered: metrics.link_counter(from, to),
        }
    }
}

/// The fault stages every transport runs, as one plain state machine:
/// latency → drop → corrupt → reorder holdback → duplicate.
///
/// It owns the [`FaultConfig`], one table entry per directed link (the
/// link's fault and latency-jitter RNG streams and its delivery
/// counters), the corruption oracle and the one-slot reorder holdback.
/// A transport hands it each frame and delivers whatever it appends;
/// a [`SocketNode`](crate::SocketNode) runs one over encoded envelope
/// bytes behind a mutex, and the virtual-time simulator owns one
/// outright. So the same seed yields the same per-link fault sequence
/// on both.
///
/// The link table hashes with the standard library's seeded hasher:
/// the socket services fill it from frame fields, which a peer
/// chooses. The holdback stays in its own ordered map: it holds a
/// frame for few links at a time, and [`drain_held`](Self::drain_held)
/// yields in link order.
pub struct FaultPipeline<M> {
    config: FaultConfig,
    /// Per-link streams and counters, created on a link's first send.
    links: HashMap<(Party, Party), Link>,
    /// Multiplicative latency jitter amplitude in `[0, 1]`.
    jitter: f64,
    corruptor: Option<Corruptor<M>>,
    /// One-slot reorder holdback per directed link. A `BTreeMap` so
    /// [`drain_held`](Self::drain_held) yields in link order.
    holdback: BTreeMap<(Party, Party), M>,
    metrics: NetMetrics,
}

impl<M> FaultPipeline<M> {
    /// A pipeline drawing from `config`'s seed and counting its faults
    /// into `metrics`. `jitter` scales the wire time by a seeded factor
    /// in `[1 − jitter, 1 + jitter]` (only meaningful when the config
    /// carries a latency model).
    pub fn new(config: FaultConfig, jitter: f64, metrics: NetMetrics) -> Self {
        FaultPipeline {
            config,
            links: HashMap::new(),
            jitter,
            corruptor: None,
            holdback: BTreeMap::new(),
            metrics,
        }
    }

    /// The fault policy this pipeline draws from.
    pub fn config(&self) -> &FaultConfig {
        &self.config
    }

    /// Installs the corruption oracle: how a bit flip mangles a frame
    /// (`None` = the flipped frame no longer parses and is absorbed).
    /// Without one, corruption always destroys the frame.
    pub fn set_corruptor(&mut self, corruptor: Corruptor<M>) {
        self.corruptor = Some(corruptor);
    }

    /// Removes every frame the reorder stage still holds, yielding
    /// `(link, frame)` in link order, so a transport can deliver the
    /// stragglers when it winds down.
    pub fn drain_held(&mut self) -> btree_map::IntoIter<(Party, Party), M> {
        std::mem::take(&mut self.holdback).into_iter()
    }
}

impl<M: WireSize + Clone> FaultPipeline<M> {
    /// Runs one frame on `from → to` through every stage, recording its
    /// faults and appending the frames to deliver to `out` in order: a
    /// duplicate, the frame, then a released held-back frame (possibly
    /// none: dropped, absorbed or held back). Returns the frame's wire
    /// time, which consumes exactly one jitter draw per send — dropped
    /// or not — whenever a latency model is configured, and the link's
    /// delivery counters in the pipeline's [`NetMetrics`]. A transport
    /// that counts the frames in `out` as it schedules them counts
    /// through that handle, with no [`NetMetrics::record`] lock or
    /// lookup per frame.
    pub fn inject(
        &mut self,
        from: Party,
        to: Party,
        msg: M,
        out: &mut Vec<M>,
    ) -> (Duration, &LinkCounter) {
        let plan = self.config.plan_for(from, to);
        let seed = self.config.seed;
        let metrics = &self.metrics;
        let link = self
            .links
            .entry((from, to))
            .or_insert_with(|| Link::new(seed, from, to, metrics));
        let wire = match self.config.latency {
            Some(model) => model.sample_transfer_time(
                msg.wire_bytes() as u64,
                1,
                self.jitter,
                &mut link.jitter,
            ),
            None => Duration::ZERO,
        };
        let draw = plan.draw(&mut link.faults);
        let delivered = &link.delivered;
        if draw.dropped {
            self.metrics.record_fault(from, to, FaultKind::Dropped);
            return (wire, delivered);
        }
        let mut msg = msg;
        if let Some(tweak) = draw.corrupt {
            // The flip may still decode into a wrong-but-well-formed
            // message the receiver must reject itself.
            match self.corruptor.as_ref().and_then(|c| c(&msg, tweak)) {
                Some(mangled) => {
                    self.metrics.record_fault(from, to, FaultKind::Corrupted);
                    msg = mangled;
                }
                None => {
                    self.metrics
                        .record_fault(from, to, FaultKind::CorruptDropped);
                    return (wire, delivered);
                }
            }
        }
        // Reorder = hold one frame back and release it after the next
        // send on the same link (a one-slot swap).
        let held = self.holdback.remove(&(from, to));
        if draw.reordered && held.is_none() {
            self.metrics.record_fault(from, to, FaultKind::Reordered);
            self.holdback.insert((from, to), msg);
            return (wire, delivered);
        }
        if draw.duplicated {
            self.metrics.record_fault(from, to, FaultKind::Duplicated);
            out.push(msg.clone());
        }
        out.push(msg);
        out.extend(held);
        (wire, delivered)
    }
}

/// Stable 64-bit code for a party (independent of hash seeds).
fn party_code(party: Party) -> u64 {
    match party {
        Party::Sdc => 1 << 32,
        Party::Stp => 2 << 32,
        Party::Pu(i) => (3 << 32) | u64::from(i),
        Party::Su(i) => (4 << 32) | u64::from(i),
    }
}

/// Per-link RNG seed: a splitmix64 mix of the master seed and both
/// endpoint codes, so distinct links get decorrelated streams.
fn link_stream_seed(seed: u64, from: Party, to: Party) -> u64 {
    let mut z = seed ^ party_code(from).rotate_left(17) ^ party_code(to).rotate_left(43);
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_builders_compose() {
        let p = FaultPlan::none().with_drop(0.1).with_corrupt(0.2);
        assert_eq!(p.drop, 0.1);
        assert_eq!(p.corrupt, 0.2);
        assert_eq!(p.duplicate, 0.0);
        assert!(FaultPlan::none().is_quiet());
        assert!(!FaultPlan::uniform(0.05).is_quiet());
    }

    #[test]
    fn per_link_overrides_default() {
        let cfg = FaultConfig::new(7)
            .with_default_plan(FaultPlan::uniform(0.5))
            .with_link(Party::Su(0), Party::Sdc, FaultPlan::none());
        assert!(cfg.plan_for(Party::Su(0), Party::Sdc).is_quiet());
        assert_eq!(cfg.plan_for(Party::Su(1), Party::Sdc).drop, 0.5);
    }

    fn pipeline(plan: FaultPlan, seed: u64) -> FaultPipeline<Vec<u8>> {
        FaultPipeline::new(
            FaultConfig::new(seed).with_default_plan(plan),
            0.0,
            NetMetrics::new(),
        )
    }

    /// Sends `payloads` on SU0 → SDC, then drains, returning what would
    /// be delivered in order.
    fn run(p: &mut FaultPipeline<Vec<u8>>, payloads: &[&[u8]]) -> Vec<Vec<u8>> {
        let mut out = Vec::new();
        for payload in payloads {
            p.inject(Party::Su(0), Party::Sdc, payload.to_vec(), &mut out);
        }
        out.extend(p.drain_held().map(|(_, msg)| msg));
        out
    }

    #[test]
    fn quiet_pipeline_passes_through() {
        let mut p = pipeline(FaultPlan::none(), 1);
        assert_eq!(
            run(&mut p, &[b"abc", b"de"]),
            vec![b"abc".to_vec(), b"de".to_vec()]
        );
        assert_eq!(p.metrics.fault_totals().total(), 0);
    }

    #[test]
    fn drop_absorbs_frame() {
        let mut p = pipeline(FaultPlan::none().with_drop(1.0), 2);
        assert!(run(&mut p, &[b"abc"]).is_empty());
        assert_eq!(p.metrics.fault_totals().dropped, 1);
    }

    #[test]
    fn duplicate_delivers_twice() {
        let mut p = pipeline(FaultPlan::none().with_duplicate(1.0), 3);
        assert_eq!(run(&mut p, &[b"abc"]), vec![b"abc".to_vec(); 2]);
        assert_eq!(p.metrics.fault_totals().duplicated, 1);
    }

    #[test]
    fn reorder_swaps_adjacent_frames() {
        let mut p = pipeline(FaultPlan::none().with_reorder(1.0), 4);
        let mut out = Vec::new();
        p.inject(Party::Su(0), Party::Sdc, b"first".to_vec(), &mut out);
        assert!(out.is_empty(), "first frame is held back");
        p.inject(Party::Su(0), Party::Sdc, b"second".to_vec(), &mut out);
        assert_eq!(out, vec![b"second".to_vec(), b"first".to_vec()]);
        assert_eq!(p.metrics.fault_totals().reordered, 1);
    }

    #[test]
    fn drain_yields_stranded_frames_in_link_order() {
        let mut p = pipeline(FaultPlan::none().with_reorder(1.0), 5);
        let mut out = Vec::new();
        p.inject(Party::Su(1), Party::Sdc, vec![1], &mut out);
        p.inject(Party::Stp, Party::Sdc, vec![2], &mut out);
        p.inject(Party::Sdc, Party::Su(0), vec![3], &mut out);
        assert!(out.is_empty());
        let held: Vec<_> = p.drain_held().collect();
        assert_eq!(
            held,
            vec![
                ((Party::Sdc, Party::Su(0)), vec![3]),
                ((Party::Stp, Party::Sdc), vec![2]),
                ((Party::Su(1), Party::Sdc), vec![1]),
            ]
        );
        assert_eq!(p.drain_held().len(), 0);
    }

    /// Many links hold a frame at once, first used in a shuffled order:
    /// the stragglers still drain sorted by link, never in the order of
    /// the hashed link table.
    #[test]
    fn drain_held_is_in_link_order_across_many_links() {
        let mut p = pipeline(FaultPlan::none().with_reorder(1.0), 11);
        let mut links: Vec<(Party, Party)> = (0..32)
            .flat_map(|i| [(Party::Su(i), Party::Sdc), (Party::Sdc, Party::Su(i))])
            .chain([
                (Party::Sdc, Party::Stp),
                (Party::Stp, Party::Sdc),
                (Party::Pu(3), Party::Sdc),
            ])
            .collect();
        let n = links.len();
        let mut out = Vec::new();
        // 37 is coprime to the 67 links, so this visits each once.
        for k in 0..n {
            let (from, to) = links[k * 37 % n];
            p.inject(from, to, vec![0], &mut out);
        }
        assert!(out.is_empty(), "every first frame is held back");
        let held: Vec<_> = p.drain_held().map(|(link, _)| link).collect();
        links.sort();
        assert_eq!(held, links);
    }

    #[test]
    fn corruption_without_oracle_absorbs_and_with_oracle_mangles() {
        let mut p = pipeline(FaultPlan::none().with_corrupt(1.0), 6);
        assert!(run(&mut p, &[&[0, 0]]).is_empty());
        assert_eq!(p.metrics.fault_totals().corrupt_dropped, 1);

        p.set_corruptor(Arc::new(|payload: &Vec<u8>, tweak| {
            let mut flipped = payload.clone();
            let bit = tweak as usize % (flipped.len() * 8);
            flipped[bit / 8] ^= 1 << (bit % 8);
            Some(flipped)
        }));
        let out = run(&mut p, &[&[0, 0]]);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].iter().map(|b| b.count_ones()).sum::<u32>(), 1);
        assert_eq!(p.metrics.fault_totals().corrupted, 1);
    }

    #[test]
    fn same_seed_same_decisions() {
        let decide = |seed: u64| {
            let mut p = pipeline(FaultPlan::uniform(0.3), seed);
            let payloads: Vec<Vec<u8>> = (0..64u8).map(|i| vec![i]).collect();
            let refs: Vec<&[u8]> = payloads.iter().map(Vec::as_slice).collect();
            (run(&mut p, &refs), p.metrics.fault_totals())
        };
        assert_eq!(decide(42), decide(42));
        assert_ne!(decide(42).0, decide(43).0);
    }

    #[test]
    fn links_have_independent_streams() {
        let mut p = pipeline(FaultPlan::none().with_drop(0.5), 9);
        let mut dropped = |from: Party| {
            (0..64)
                .map(|_| {
                    let mut out = Vec::new();
                    p.inject(from, Party::Sdc, vec![0], &mut out);
                    out.is_empty()
                })
                .collect::<Vec<_>>()
        };
        assert_ne!(dropped(Party::Su(0)), dropped(Party::Su(1)));
    }

    /// A dropped frame still spends its jitter draw, so the wire times
    /// of later frames never depend on what the fault stages decided.
    #[test]
    fn one_jitter_draw_per_send_dropped_or_not() {
        let wire_times = |drop: f64| {
            let mut p = FaultPipeline::new(
                FaultConfig::new(0x717)
                    .with_default_plan(FaultPlan::none().with_drop(drop))
                    .with_latency(LatencyModel::lan()),
                0.3,
                NetMetrics::new(),
            );
            let mut out = Vec::new();
            (0..32)
                .map(|i| {
                    p.inject(Party::Su(0), Party::Sdc, vec![0; 100 + i], &mut out)
                        .0
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(wire_times(0.0), wire_times(1.0));
        let quiet = FaultPipeline::<Vec<u8>>::new(
            FaultConfig::new(0x717).with_latency(LatencyModel::lan()),
            0.0,
            NetMetrics::new(),
        )
        .inject(Party::Su(0), Party::Sdc, vec![0; 1000], &mut Vec::new())
        .0;
        // No jitter: exactly the model's 200 µs + 8 ns/byte.
        assert_eq!(quiet, LatencyModel::lan().transfer_time(1000, 1));
    }

    #[test]
    fn inject_hands_back_the_links_delivery_counter() {
        let metrics = NetMetrics::new();
        let mut p = FaultPipeline::new(FaultConfig::new(12), 0.0, metrics.clone());
        let mut out = Vec::new();
        for len in [3usize, 5] {
            let (_, counter) = p.inject(Party::Su(4), Party::Sdc, vec![0u8; len], &mut out);
            counter.count_frame(len);
        }
        p.inject(Party::Sdc, Party::Su(4), vec![0u8; 11], &mut out)
            .1
            .count_frame(11);
        assert_eq!(
            metrics.link(Party::Su(4), Party::Sdc),
            Some(crate::LinkStats {
                messages: 2,
                bytes: 8
            })
        );
        assert_eq!(metrics.bytes_from(Party::Sdc), 11);
        assert_eq!(out.len(), 3);
    }

    /// What one link sees, frame by frame, under two send schedules
    /// that interleave the same per-link sends differently.
    #[test]
    fn per_link_decisions_do_not_depend_on_interleaving() {
        let links = [
            (Party::Su(0), Party::Sdc),
            (Party::Sdc, Party::Stp),
            (Party::Pu(2), Party::Sdc),
        ];
        let run = |schedule: &[usize]| {
            let mut p = pipeline(FaultPlan::uniform(0.3), 77);
            let mut seen: Vec<Vec<Vec<Vec<u8>>>> = vec![Vec::new(); links.len()];
            let mut sent = [0u8; 3];
            for &l in schedule {
                let (from, to) = links[l];
                let mut out = Vec::new();
                p.inject(from, to, vec![l as u8, sent[l]], &mut out);
                sent[l] += 1;
                seen[l].push(out);
            }
            for (link, msg) in p.drain_held() {
                let l = links.iter().position(|k| *k == link).unwrap();
                seen[l].push(vec![msg]);
            }
            let faults: Vec<_> = links
                .iter()
                .map(|&(f, t)| p.metrics.link_faults(f, t))
                .collect();
            (seen, faults)
        };
        let blocked: Vec<usize> = (0..3).flat_map(|l| [l; 40]).collect();
        let round_robin: Vec<usize> = (0..120).map(|i| i % 3).collect();
        let first = run(&blocked);
        assert_eq!(first, run(&round_robin));
        assert!(first.1.iter().all(Option::is_some), "every link saw faults");
    }

    /// Turning latency and jitter on changes wire times only: every
    /// fault decision is drawn from a stream the jitter never touches.
    #[test]
    fn latency_never_perturbs_fault_draws() {
        let run = |latency: bool| {
            let mut cfg = FaultConfig::new(31).with_default_plan(FaultPlan::uniform(0.25));
            if latency {
                cfg = cfg.with_latency(LatencyModel::lan());
            }
            let mut p = FaultPipeline::new(cfg, 0.5, NetMetrics::new());
            let mut out = Vec::new();
            let mut wire = Duration::ZERO;
            for i in 0..200u16 {
                let from = Party::Su(u32::from(i % 4));
                wire += p
                    .inject(from, Party::Sdc, i.to_be_bytes().to_vec(), &mut out)
                    .0;
            }
            out.extend(p.drain_held().map(|(_, m)| m));
            (out, p.metrics.fault_totals(), wire)
        };
        let (quiet, with_latency) = (run(false), run(true));
        assert_eq!(quiet.0, with_latency.0);
        assert_eq!(quiet.1, with_latency.1);
        assert_eq!(quiet.2, Duration::ZERO);
        assert!(with_latency.2 > Duration::ZERO);
    }

    /// A held-back frame stays held while later sends on its link are
    /// dropped, and leaves with the next frame that gets through.
    #[test]
    fn held_frame_waits_out_dropped_sends() {
        let mut p = pipeline(FaultPlan::none().with_reorder(1.0).with_drop(0.5), 21);
        let (mut held, mut waited) = (None, 0);
        for i in 0..64u8 {
            let dropped_before = p.metrics.fault_totals().dropped;
            let mut out = Vec::new();
            p.inject(Party::Su(0), Party::Sdc, vec![i], &mut out);
            let expected = if p.metrics.fault_totals().dropped > dropped_before {
                waited += usize::from(held.is_some());
                vec![]
            } else {
                match held.take() {
                    None => {
                        held = Some(vec![i]);
                        vec![]
                    }
                    Some(prev) => vec![vec![i], prev],
                }
            };
            assert_eq!(out, expected, "send {i}");
        }
        assert!(waited > 0, "some drop hit a link holding a frame");
        assert_eq!(
            p.drain_held().map(|(_, m)| m).collect::<Vec<_>>(),
            Vec::from_iter(held)
        );
    }

    #[test]
    fn release_order_is_duplicate_frame_then_held() {
        let mut p = pipeline(FaultPlan::none().with_reorder(1.0).with_duplicate(1.0), 8);
        let mut out = Vec::new();
        for i in 1..=4u8 {
            p.inject(Party::Stp, Party::Sdc, vec![i], &mut out);
        }
        // Odd sends are held (a held frame is not duplicated); even
        // sends find the slot full, go out twice, and release it.
        assert_eq!(out, [[2], [2], [1], [4], [4], [3]].map(|f| f.to_vec()));
        let totals = p.metrics.fault_totals();
        assert_eq!((totals.reordered, totals.duplicated), (2, 2));
    }

    #[test]
    fn quiet_override_beside_a_lossy_default() {
        let cfg = FaultConfig::new(3)
            .with_default_plan(FaultPlan::none().with_drop(1.0))
            .with_link(Party::Sdc, Party::Stp, FaultPlan::none());
        let mut p = FaultPipeline::new(cfg, 0.0, NetMetrics::new());
        let mut out = Vec::new();
        for i in 0..10u8 {
            p.inject(Party::Sdc, Party::Stp, vec![i], &mut out);
            p.inject(Party::Stp, Party::Sdc, vec![i], &mut out);
        }
        assert_eq!(out, (0..10u8).map(|i| vec![i]).collect::<Vec<_>>());
        assert_eq!(p.metrics.link_faults(Party::Sdc, Party::Stp), None);
        assert_eq!(
            p.metrics
                .link_faults(Party::Stp, Party::Sdc)
                .map(|f| f.dropped),
            Some(10)
        );
    }

    #[test]
    fn any_corruption_sees_defaults_and_overrides() {
        assert!(!FaultConfig::new(1).any_corruption());
        let lossy = FaultPlan::uniform(0.2).with_corrupt(0.0);
        assert!(!FaultConfig::new(1)
            .with_default_plan(lossy)
            .with_link(Party::Su(0), Party::Sdc, lossy)
            .any_corruption());
        assert!(FaultConfig::new(1)
            .with_link(
                Party::Su(0),
                Party::Sdc,
                FaultPlan::none().with_corrupt(0.01)
            )
            .any_corruption());
        assert!(FaultConfig::new(1)
            .with_default_plan(FaultPlan::none().with_corrupt(0.01))
            .any_corruption());
    }

    #[test]
    fn link_stream_seeds_are_distinct_per_direction_and_party() {
        let parties: Vec<Party> = [Party::Sdc, Party::Stp]
            .into_iter()
            .chain((0..8).map(Party::Pu))
            .chain((0..8).map(Party::Su))
            .collect();
        let mut seeds = std::collections::HashSet::new();
        for master in [0u64, 2017, 2017 ^ LATENCY_SALT] {
            for &from in &parties {
                for &to in &parties {
                    assert!(
                        seeds.insert(link_stream_seed(master, from, to)),
                        "collision at {master} {from:?} -> {to:?}"
                    );
                }
            }
        }
        let codes: std::collections::HashSet<u64> =
            parties.iter().map(|&p| party_code(p)).collect();
        assert_eq!(codes.len(), parties.len());
    }
}
