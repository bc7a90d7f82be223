//! TV viewer behaviour: virtual channels and switching rates.
//!
//! The paper (§VI-A, citing Ellingsæter et al. \[16\]) argues PU updates
//! are rare enough for PISA to be practical: viewers switch *virtual*
//! channels 2.3–2.7 times per hour on average, but several virtual
//! channels ride on one *physical* channel, and only a physical-channel
//! change requires an (expensive, encrypted) SDC update. This module
//! models that distinction so the claim is simulable.

use crate::tv::Channel;
use rand::Rng;

/// A virtual channel number, what the viewer actually zaps through.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct VirtualChannel(pub usize);

/// The virtual → physical channel lineup of a market.
///
/// # Examples
///
/// ```
/// use pisa_radio::viewer::{ChannelLineup, VirtualChannel};
///
/// // 4 physical channels, 3 virtual sub-channels each (like 7.1/7.2/7.3).
/// let lineup = ChannelLineup::uniform(4, 3);
/// assert_eq!(lineup.num_virtual(), 12);
/// assert_eq!(lineup.physical_of(VirtualChannel(4)).0, 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChannelLineup {
    /// `mapping[v]` = physical channel of virtual channel `v`.
    mapping: Vec<Channel>,
}

impl ChannelLineup {
    /// A lineup where every physical channel carries the same number of
    /// virtual sub-channels.
    ///
    /// # Panics
    ///
    /// Panics if either count is zero.
    pub fn uniform(physical: usize, virtual_per_physical: usize) -> Self {
        assert!(
            physical > 0 && virtual_per_physical > 0,
            "lineup must be non-empty"
        );
        ChannelLineup {
            mapping: (0..physical * virtual_per_physical)
                .map(|v| Channel(v / virtual_per_physical))
                .collect(),
        }
    }

    /// A custom lineup from an explicit mapping.
    ///
    /// # Panics
    ///
    /// Panics on an empty mapping.
    pub fn from_mapping(mapping: Vec<Channel>) -> Self {
        assert!(!mapping.is_empty(), "lineup must be non-empty");
        ChannelLineup { mapping }
    }

    /// Number of virtual channels.
    pub fn num_virtual(&self) -> usize {
        self.mapping.len()
    }

    /// The physical channel carrying a virtual channel.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn physical_of(&self, v: VirtualChannel) -> Channel {
        self.mapping[v.0]
    }
}

/// A memoryless viewer that switches virtual channels at a fixed hourly
/// rate (the paper's 2.3–2.7/hour) with uniform destination.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ViewerModel {
    /// Average virtual-channel switches per hour.
    pub switches_per_hour: f64,
}

impl ViewerModel {
    /// The paper's cited average: 2.5 switches/hour (middle of 2.3–2.7).
    pub fn paper_average() -> Self {
        ViewerModel {
            switches_per_hour: 2.5,
        }
    }
}

/// Outcome of simulating one viewer over a period.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ChurnStats {
    /// Virtual-channel switches performed.
    pub virtual_switches: usize,
    /// Switches that crossed a physical channel — each one costs an
    /// encrypted PU update in PISA.
    pub physical_switches: usize,
}

impl ChurnStats {
    /// Fraction of zaps that required an SDC update.
    pub fn update_fraction(&self) -> f64 {
        if self.virtual_switches == 0 {
            0.0
        } else {
            self.physical_switches as f64 / self.virtual_switches as f64
        }
    }
}

/// Simulates `hours` of viewing: returns the churn statistics and the
/// final virtual channel. Switch counts per hour are Poisson-like
/// (binomial over minute slots).
pub fn simulate_viewer<R: Rng + ?Sized>(
    rng: &mut R,
    lineup: &ChannelLineup,
    model: &ViewerModel,
    hours: usize,
    start: VirtualChannel,
) -> (ChurnStats, VirtualChannel) {
    assert!(start.0 < lineup.num_virtual(), "start channel in lineup");
    let per_minute = model.switches_per_hour / 60.0;
    let mut stats = ChurnStats::default();
    let mut current = start;
    for _ in 0..hours * 60 {
        let roll = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        if roll < per_minute {
            let next = VirtualChannel((rng.next_u64() as usize) % lineup.num_virtual());
            if next != current {
                stats.virtual_switches += 1;
                if lineup.physical_of(next) != lineup.physical_of(current) {
                    stats.physical_switches += 1;
                }
                current = next;
            }
        }
    }
    (stats, current)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn uniform_lineup_structure() {
        let lineup = ChannelLineup::uniform(5, 4);
        assert_eq!(lineup.num_virtual(), 20);
        assert_eq!(lineup.physical_of(VirtualChannel(0)), Channel(0));
        assert_eq!(lineup.physical_of(VirtualChannel(19)), Channel(4));
    }

    #[test]
    fn custom_mapping() {
        let lineup = ChannelLineup::from_mapping(vec![Channel(7), Channel(7), Channel(9)]);
        assert_eq!(lineup.num_virtual(), 3);
        assert_eq!(lineup.physical_of(VirtualChannel(1)), Channel(7));
        assert_eq!(lineup.physical_of(VirtualChannel(2)), Channel(9));
    }

    #[test]
    fn switch_rate_matches_model() {
        // Over many simulated hours the observed rate approaches the
        // configured 2.5/hour.
        let mut rng = StdRng::seed_from_u64(10);
        let lineup = ChannelLineup::uniform(10, 3);
        let model = ViewerModel::paper_average();
        let hours = 4000;
        let (stats, _) = simulate_viewer(&mut rng, &lineup, &model, hours, VirtualChannel(0));
        let rate = stats.virtual_switches as f64 / hours as f64;
        assert!(
            (2.0..3.0).contains(&rate),
            "observed {rate:.2} switches/hour"
        );
    }

    #[test]
    fn physical_switches_are_a_fraction_of_virtual() {
        // With 3 virtual channels per physical channel and uniform
        // destinations, most zaps still cross physical channels — but a
        // measurable share does not (paper: "the rate of switching
        // between physical channels is much lower").
        let mut rng = StdRng::seed_from_u64(11);
        let lineup = ChannelLineup::uniform(4, 5); // 20 virtual on 4 physical
        let model = ViewerModel::paper_average();
        let (stats, _) = simulate_viewer(&mut rng, &lineup, &model, 2000, VirtualChannel(0));
        assert!(stats.physical_switches < stats.virtual_switches);
        // Uniform destination over 20 channels: P(same physical | switch)
        // = 4/19 ≈ 0.21, so update fraction ≈ 0.79.
        let f = stats.update_fraction();
        assert!((0.7..0.9).contains(&f), "update fraction = {f:.2}");
    }

    #[test]
    fn single_physical_channel_never_updates() {
        let mut rng = StdRng::seed_from_u64(12);
        let lineup = ChannelLineup::uniform(1, 8);
        let model = ViewerModel::paper_average();
        let (stats, _) = simulate_viewer(&mut rng, &lineup, &model, 500, VirtualChannel(2));
        assert!(stats.virtual_switches > 0);
        assert_eq!(stats.physical_switches, 0);
        assert_eq!(stats.update_fraction(), 0.0);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_lineup_rejected() {
        let _ = ChannelLineup::uniform(0, 3);
    }
}
