//! Signal-level air interface simulator.
//!
//! The paper's §VI-B validates PISA on a USRP software-defined-radio
//! testbed: two SUs and one PU around channel 6 at 2.437 GHz, observed
//! with GNU Radio (Figures 7–11). This module is the software stand-in:
//! nodes transmit packets on a channel, and an observer samples the
//! received waveform envelope, with amplitude set by free-space loss at
//! the node distance — reproducing the paper's headline observable that
//! the two SUs arrive with visibly different amplitudes because their
//! distances differ (Figure 8).

use crate::grid::Point;
use crate::pathloss::{FreeSpace, LinkGeometry, PathLossModel};
use crate::units::Dbm;

/// A radio node in the testbed (USRP stand-in).
#[derive(Debug, Clone, PartialEq)]
pub struct Node {
    /// Human-readable name ("SU1", "PU", …).
    pub name: String,
    /// Position in meters.
    pub location: Point,
    /// Transmit power.
    pub tx_power_dbm: f64,
    /// Antenna height (tabletop USRPs: ~1 m).
    pub antenna_height_m: f64,
}

impl Node {
    /// A tabletop USRP-like node: 10 dBm, 1 m antenna.
    pub fn usrp(name: &str, location: Point) -> Self {
        Node {
            name: name.to_owned(),
            location,
            tx_power_dbm: 10.0,
            antenna_height_m: 1.0,
        }
    }
}

/// One packet transmission on the shared channel.
#[derive(Debug, Clone, PartialEq)]
pub struct Transmission {
    /// Index of the transmitting node.
    pub node: usize,
    /// Start time in microseconds.
    pub start_us: f64,
    /// Duration in microseconds.
    pub duration_us: f64,
}

/// A packet as seen by the observing node: arrival time and envelope
/// amplitude (normalized so 0 dBm received = 1.0).
#[derive(Debug, Clone, PartialEq)]
pub struct PacketObservation {
    /// Name of the transmitting node.
    pub from: String,
    /// Arrival time in microseconds (propagation delay ignored at lab
    /// scale).
    pub time_us: f64,
    /// Duration in microseconds.
    pub duration_us: f64,
    /// Envelope amplitude at the observer.
    pub amplitude: f64,
    /// Received power at the observer.
    pub rx_power_dbm: f64,
}

/// The shared-channel simulator.
///
/// # Examples
///
/// ```
/// use pisa_radio::airsim::{AirSim, Node};
/// use pisa_radio::grid::Point;
///
/// let mut sim = AirSim::wifi_channel6();
/// let su1 = sim.add_node(Node::usrp("SU1", Point { x: 2.0, y: 0.0 }));
/// let pu = sim.add_node(Node::usrp("PU", Point { x: 0.0, y: 0.0 }));
/// sim.transmit(su1, 0.0, 100.0);
/// let seen = sim.observe(pu);
/// assert_eq!(seen.len(), 1);
/// assert_eq!(seen[0].from, "SU1");
/// ```
#[derive(Debug, Clone, Default)]
pub struct AirSim {
    freq_mhz: f64,
    nodes: Vec<Node>,
    schedule: Vec<Transmission>,
}

impl AirSim {
    /// A simulator on the paper's experiment channel: WiFi channel 6,
    /// 2.437 GHz, 22 MHz bandwidth.
    pub fn wifi_channel6() -> Self {
        AirSim {
            freq_mhz: 2437.0,
            nodes: Vec::new(),
            schedule: Vec::new(),
        }
    }

    /// Carrier frequency in MHz.
    pub fn freq_mhz(&self) -> f64 {
        self.freq_mhz
    }

    /// Registers a node and returns its index.
    pub fn add_node(&mut self, node: Node) -> usize {
        self.nodes.push(node);
        self.nodes.len() - 1
    }

    /// Schedules a packet transmission from node `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is not registered or the duration is
    /// non-positive.
    pub fn transmit(&mut self, node: usize, start_us: f64, duration_us: f64) {
        assert!(node < self.nodes.len(), "unknown node index {node}");
        assert!(duration_us > 0.0, "transmission must have duration");
        self.schedule.push(Transmission {
            node,
            start_us,
            duration_us,
        });
    }

    /// Removes all scheduled transmissions (start of a new scenario).
    pub fn clear_schedule(&mut self) {
        self.schedule.clear();
    }

    /// Received power at `observer` for a packet from `tx`.
    pub fn rx_power_dbm(&self, tx: usize, observer: usize) -> f64 {
        let txn = &self.nodes[tx];
        let obs = &self.nodes[observer];
        let d = txn.location.distance_m(&obs.location);
        let geom = LinkGeometry {
            tx_height_m: txn.antenna_height_m,
            rx_height_m: obs.antenna_height_m,
            freq_mhz: self.freq_mhz,
        };
        (Dbm(txn.tx_power_dbm) - FreeSpace.path_loss_db(d, &geom)).0
    }

    /// Renders the envelope waveform `observer` would display (the
    /// GNU-Radio-style trace of Figure 8): amplitude samples over
    /// `duration_us` at `samples_per_us`, with overlapping packets
    /// summing and a small constant noise floor.
    ///
    /// # Panics
    ///
    /// Panics if the observer is unknown or the parameters are
    /// non-positive.
    pub fn render_trace(&self, observer: usize, duration_us: f64, samples_per_us: f64) -> Vec<f64> {
        assert!(observer < self.nodes.len(), "unknown observer {observer}");
        assert!(
            duration_us > 0.0 && samples_per_us > 0.0,
            "trace needs positive duration and rate"
        );
        const NOISE_FLOOR: f64 = 1e-9;
        let packets = self.observe(observer);
        let n = (duration_us * samples_per_us).ceil() as usize;
        (0..n)
            .map(|i| {
                let t = i as f64 / samples_per_us;
                NOISE_FLOOR
                    + packets
                        .iter()
                        .filter(|p| t >= p.time_us && t < p.time_us + p.duration_us)
                        .map(|p| p.amplitude)
                        .sum::<f64>()
            })
            .collect()
    }

    /// What node `observer` sees: every scheduled packet from other
    /// nodes, sorted by arrival time, with amplitude from the link
    /// budget.
    ///
    /// # Panics
    ///
    /// Panics if `observer` is not registered.
    pub fn observe(&self, observer: usize) -> Vec<PacketObservation> {
        assert!(observer < self.nodes.len(), "unknown observer {observer}");
        let mut seen: Vec<PacketObservation> = self
            .schedule
            .iter()
            .filter(|t| t.node != observer)
            .map(|t| {
                let rx_dbm = self.rx_power_dbm(t.node, observer);
                PacketObservation {
                    from: self.nodes[t.node].name.clone(),
                    time_us: t.start_us,
                    duration_us: t.duration_us,
                    amplitude: Dbm(rx_dbm).to_milliwatts().0.sqrt(),
                    rx_power_dbm: rx_dbm,
                }
            })
            .collect();
        seen.sort_by(|a, b| a.time_us.partial_cmp(&b.time_us).expect("finite times"));
        seen
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn three_node_sim() -> (AirSim, usize, usize, usize) {
        let mut sim = AirSim::wifi_channel6();
        let su1 = sim.add_node(Node::usrp("SU1", Point { x: 2.0, y: 0.0 }));
        let su2 = sim.add_node(Node::usrp("SU2", Point { x: 6.0, y: 0.0 }));
        let pu = sim.add_node(Node::usrp("PU", Point { x: 0.0, y: 0.0 }));
        (sim, su1, su2, pu)
    }

    #[test]
    fn closer_node_has_larger_amplitude() {
        // Figure 8: the two SU waveforms differ in amplitude because the
        // distances differ.
        let (mut sim, su1, su2, pu) = three_node_sim();
        sim.transmit(su1, 0.0, 100.0);
        sim.transmit(su2, 180.0, 100.0);
        let seen = sim.observe(pu);
        assert_eq!(seen.len(), 2);
        assert_eq!(seen[0].from, "SU1");
        assert!(seen[0].amplitude > seen[1].amplitude);
    }

    #[test]
    fn observer_does_not_hear_itself() {
        let (mut sim, su1, _, pu) = three_node_sim();
        sim.transmit(pu, 0.0, 50.0);
        sim.transmit(su1, 10.0, 50.0);
        let seen = sim.observe(pu);
        assert_eq!(seen.len(), 1);
        assert_eq!(seen[0].from, "SU1");
    }

    #[test]
    fn observations_sorted_by_time() {
        let (mut sim, su1, su2, pu) = three_node_sim();
        sim.transmit(su2, 300.0, 10.0);
        sim.transmit(su1, 100.0, 10.0);
        sim.transmit(su2, 200.0, 10.0);
        let times: Vec<f64> = sim.observe(pu).iter().map(|p| p.time_us).collect();
        assert_eq!(times, vec![100.0, 200.0, 300.0]);
    }

    #[test]
    fn clear_schedule_resets() {
        let (mut sim, su1, _, pu) = three_node_sim();
        sim.transmit(su1, 0.0, 10.0);
        sim.clear_schedule();
        assert!(sim.observe(pu).is_empty());
    }

    #[test]
    fn rx_power_decays_with_distance() {
        let (sim, su1, su2, pu) = three_node_sim();
        assert!(sim.rx_power_dbm(su1, pu) > sim.rx_power_dbm(su2, pu));
    }

    #[test]
    #[should_panic(expected = "unknown node")]
    fn unknown_node_panics() {
        let (mut sim, ..) = three_node_sim();
        sim.transmit(99, 0.0, 10.0);
    }

    #[test]
    fn trace_shows_packets_at_the_right_times() {
        // Figure 8's observable: distinct bursts above the noise floor
        // at the scheduled instants, quiet in between.
        let (mut sim, su1, su2, pu) = three_node_sim();
        sim.transmit(su1, 10.0, 20.0);
        sim.transmit(su2, 60.0, 20.0);
        let trace = sim.render_trace(pu, 100.0, 1.0);
        assert_eq!(trace.len(), 100);

        let noise = trace[0];
        assert!(trace[15] > 10.0 * noise, "SU1 burst missing");
        assert!(trace[70] > 10.0 * noise, "SU2 burst missing");
        assert!(trace[45] < trace[15] / 10.0, "gap not quiet");
        // SU1 (closer) renders taller than SU2.
        assert!(trace[15] > trace[70]);
    }

    #[test]
    fn overlapping_packets_superpose() {
        let (mut sim, su1, su2, pu) = three_node_sim();
        sim.transmit(su1, 0.0, 50.0);
        sim.transmit(su2, 0.0, 50.0);
        let trace = sim.render_trace(pu, 50.0, 1.0);
        let solo1 = sim.rx_power_dbm(su1, pu);
        let a1 = crate::Dbm(solo1).to_milliwatts().0.sqrt();
        let solo2 = sim.rx_power_dbm(su2, pu);
        let a2 = crate::Dbm(solo2).to_milliwatts().0.sqrt();
        assert!((trace[25] - (a1 + a2)).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "positive duration")]
    fn empty_trace_rejected() {
        let (sim, .., pu) = three_node_sim();
        let _ = sim.render_trace(pu, 0.0, 1.0);
    }
}
