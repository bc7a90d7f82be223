//! TV channels, transmitters and receivers.

use crate::grid::Point;
use crate::pathloss::{IrregularTerrain, LinkGeometry};
use crate::units::{Db, Dbm};
use std::fmt;

/// A (physical) TV channel index `c ∈ [0, C)`.
///
/// US UHF channel `14 + c`, 6 MHz wide starting at 470 MHz.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Channel(pub usize);

impl Channel {
    /// Center frequency of the 6-MHz channel, in MHz.
    ///
    /// ```
    /// use pisa_radio::tv::Channel;
    /// assert_eq!(Channel(0).center_freq_mhz(), 473.0);
    /// assert_eq!(Channel(10).center_freq_mhz(), 533.0);
    /// ```
    pub fn center_freq_mhz(self) -> f64 {
        470.0 + 6.0 * self.0 as f64 + 3.0
    }
}

impl fmt::Display for Channel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ch{}", self.0)
    }
}

/// A TV broadcast transmitter (public knowledge in WATCH and PISA).
#[derive(Debug, Clone, PartialEq)]
pub struct TvTransmitter {
    /// Tower location.
    pub location: Point,
    /// Effective isotropic radiated power.
    pub eirp_dbm: f64,
    /// Antenna height above ground, meters.
    pub antenna_height_m: f64,
    /// Broadcast channel.
    pub channel: Channel,
    /// Nominal service-contour radius, meters.
    pub service_radius_m: f64,
}

impl TvTransmitter {
    /// A typical full-power UHF station: 1 MW EIRP, 200 m tower, ~60 km
    /// service radius.
    pub fn full_power(location: Point, channel: Channel) -> Self {
        TvTransmitter {
            location,
            eirp_dbm: 90.0, // 1 MW
            antenna_height_m: 200.0,
            channel,
            service_radius_m: 60_000.0,
        }
    }

    /// Link geometry from this tower to a ground receiver.
    pub fn geometry(&self) -> LinkGeometry {
        LinkGeometry {
            tx_height_m: self.antenna_height_m,
            rx_height_m: 10.0,
            freq_mhz: self.channel.center_freq_mhz(),
        }
    }

    /// Mean received TV signal strength at `rx` through `model` — the
    /// paper's `S^PU_{c,i}` computed "by the L-R irregular terrain
    /// model".
    pub fn signal_at(&self, model: &IrregularTerrain, rx: Point) -> Dbm {
        let loss: Db = model.path_loss_between(self.location, rx, &self.geometry());
        Dbm(self.eirp_dbm) - loss
    }
}

/// An active TV receiver (a PU in PISA's terminology).
#[derive(Debug, Clone, PartialEq)]
pub struct TvReceiver {
    /// Receiver location (fixed and registered — public per §III-D).
    pub location: Point,
    /// Channel currently being received; `None` when switched off.
    ///
    /// This field is exactly the private datum PISA protects.
    pub tuned: Option<Channel>,
}

impl TvReceiver {
    /// A receiver at `location` tuned to `channel`.
    pub fn tuned_to(location: Point, channel: Channel) -> Self {
        TvReceiver {
            location,
            tuned: Some(channel),
        }
    }

    /// A powered-off receiver.
    pub fn off(location: Point) -> Self {
        TvReceiver {
            location,
            tuned: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::terrain::Terrain;

    #[test]
    fn channel_frequencies_ascend() {
        for c in 0..99 {
            assert!(Channel(c).center_freq_mhz() < Channel(c + 1).center_freq_mhz());
        }
        assert_eq!(Channel(0).center_freq_mhz(), 473.0);
    }

    #[test]
    fn signal_decays_with_distance() {
        let tx = TvTransmitter::full_power(Point { x: 0.0, y: 0.0 }, Channel(5));
        let model = IrregularTerrain::new(Terrain::flat());
        let near = tx.signal_at(&model, Point { x: 5000.0, y: 0.0 });
        let far = tx.signal_at(
            &model,
            Point {
                x: 50_000.0,
                y: 0.0,
            },
        );
        assert!(near.0 > far.0);
    }

    #[test]
    fn full_power_station_serves_contour() {
        // At the 60 km contour the signal should still exceed the ATSC
        // planning threshold of roughly -84 dBm.
        let tx = TvTransmitter::full_power(Point { x: 0.0, y: 0.0 }, Channel(5));
        let model = IrregularTerrain::new(Terrain::flat());
        let edge = tx.signal_at(
            &model,
            Point {
                x: tx.service_radius_m,
                y: 0.0,
            },
        );
        assert!(edge.0 > -84.0, "edge signal = {edge}");
    }

    #[test]
    fn receiver_states() {
        let rx = TvReceiver::tuned_to(Point { x: 1.0, y: 2.0 }, Channel(3));
        assert_eq!(rx.tuned, Some(Channel(3)));
        let off = TvReceiver::off(Point { x: 1.0, y: 2.0 });
        assert_eq!(off.tuned, None);
    }

    #[test]
    fn display_forms() {
        assert_eq!(Channel(7).to_string(), "ch7");
    }
}
