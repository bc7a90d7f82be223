//! Deterministic, seedable fault injection: one pipeline for every
//! transport.
//!
//! A [`FaultConfig`] attaches independent per-link probabilities for the
//! four classic link pathologies — drop, duplicate, reorder, corrupt —
//! plus an optional [`LatencyModel`] that is applied to every delivery.
//! [`FaultPipeline`] runs them in one stage order (latency → drop →
//! corrupt → reorder holdback → duplicate) for the threaded
//! [`Network`](crate::Network), the TCP [`SocketNode`](crate::SocketNode)
//! and the virtual-time simulator alike. Randomness is drawn from a
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

use crate::metrics::{FaultKind, NetMetrics};
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

/// The fault stages every transport runs, as one plain state machine:
/// latency → drop → corrupt → reorder holdback → duplicate.
///
/// It owns the [`FaultConfig`], the per-link fault and latency-jitter
/// RNG streams, the corruption oracle and the one-slot reorder
/// holdback. A transport hands it each frame and delivers whatever it
/// appends; the threaded [`Network`](crate::Network) keeps one behind a
/// mutex, a [`SocketNode`](crate::SocketNode) runs one over encoded
/// envelope bytes, and the virtual-time simulator owns one outright. So
/// the same seed yields the same per-link fault sequence on all three.
pub struct FaultPipeline<M> {
    config: FaultConfig,
    /// Per-link fault streams: the draw for the k-th send on a link is
    /// a pure function of `(seed, link, k)`.
    fault_rngs: HashMap<(Party, Party), StdRng>,
    /// Multiplicative latency jitter amplitude in `[0, 1]`.
    jitter: f64,
    jitter_rngs: BTreeMap<(Party, Party), StdRng>,
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
            fault_rngs: HashMap::new(),
            jitter,
            jitter_rngs: BTreeMap::new(),
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

    /// Rolls the dice for one message on `from → to`. A quiet link
    /// consumes nothing from its stream.
    fn draw(&mut self, from: Party, to: Party) -> FaultDraw {
        let plan = self.config.plan_for(from, to);
        if plan.is_quiet() {
            return FaultDraw::default();
        }
        let seed = self.config.seed;
        let rng = self
            .fault_rngs
            .entry((from, to))
            .or_insert_with(|| StdRng::seed_from_u64(link_stream_seed(seed, from, to)));
        let mut chance = |p: f64| (rng.next_u64() >> 11) as f64 * 2f64.powi(-53) < p;
        FaultDraw {
            dropped: chance(plan.drop),
            duplicated: chance(plan.duplicate),
            reordered: chance(plan.reorder),
            corrupt: chance(plan.corrupt).then(|| rng.next_u64()),
        }
    }

    /// The wire time of one send, drawing once from the link's jitter
    /// stream whenever a latency model is configured.
    fn wire_time(&mut self, from: Party, to: Party, bytes: u64) -> Duration {
        let Some(model) = self.config.latency else {
            return Duration::ZERO;
        };
        let seed = self.config.seed ^ LATENCY_SALT;
        let rng = self
            .jitter_rngs
            .entry((from, to))
            .or_insert_with(|| StdRng::seed_from_u64(link_stream_seed(seed, from, to)));
        model.sample_transfer_time(bytes, 1, self.jitter, rng)
    }
}

impl<M: WireSize + Clone> FaultPipeline<M> {
    /// Runs one frame on `from → to` through every stage, recording its
    /// faults and appending the frames to deliver to `out` in order: a
    /// duplicate, the frame, then a released held-back frame (possibly
    /// none: dropped, absorbed or held back). Returns the frame's wire
    /// time, which consumes exactly one jitter draw per send — dropped
    /// or not — whenever a latency model is configured.
    pub fn inject(&mut self, from: Party, to: Party, msg: M, out: &mut Vec<M>) -> Duration {
        let wire = self.wire_time(from, to, msg.wire_bytes() as u64);
        let draw = self.draw(from, to);
        if draw.dropped {
            self.metrics.record_fault(from, to, FaultKind::Dropped);
            return wire;
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
                    return wire;
                }
            }
        }
        // Reorder = hold one frame back and release it after the next
        // send on the same link (a one-slot swap).
        let held = self.holdback.remove(&(from, to));
        if draw.reordered && held.is_none() {
            self.metrics.record_fault(from, to, FaultKind::Reordered);
            self.holdback.insert((from, to), msg);
            return wire;
        }
        if draw.duplicated {
            self.metrics.record_fault(from, to, FaultKind::Duplicated);
            out.push(msg.clone());
        }
        out.push(msg);
        out.extend(held);
        wire
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
                .map(|i| p.inject(Party::Su(0), Party::Sdc, vec![0; 100 + i], &mut out))
                .collect::<Vec<_>>()
        };
        assert_eq!(wire_times(0.0), wire_times(1.0));
        let quiet = FaultPipeline::<Vec<u8>>::new(
            FaultConfig::new(0x717).with_latency(LatencyModel::lan()),
            0.0,
            NetMetrics::new(),
        )
        .inject(Party::Su(0), Party::Sdc, vec![0; 1000], &mut Vec::new());
        // No jitter: exactly the model's 200 µs + 8 ns/byte.
        assert_eq!(quiet, LatencyModel::lan().transfer_time(1000, 1));
    }
}
