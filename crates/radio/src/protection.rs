//! Protection parameters and the protection distance `d^c` of paper
//! equation (1).
//!
//! Equation (1) defines the distance within which SU EIRP must be
//! re-examined when a TV receiver activates on channel `c`:
//!
//! ```text
//! Δ_TV_SINR + Δ_redn = S^PU_sv_min / (S^SU_max · h_max(d^c))
//! ```
//!
//! Solving for `d^c` means inverting the maximum-path-loss curve: find
//! the distance at which an SU transmitting at full power is attenuated
//! enough that even the weakest protectable TV signal keeps its SINR.

use crate::pathloss::{invert_path_loss, LinkGeometry, PathLossModel};
use crate::tv::Channel;
use crate::units::{Db, Dbm};

/// Regulatory protection parameters (public data per §III-D).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProtectionParams {
    /// Required TV SINR `Δ_TV_SINR` in dB (ATSC planning factor: 15 dB).
    pub tv_sinr_db: f64,
    /// Aggregate-interference margin `Δ_redn` in dB (protects against
    /// multiple simultaneous SUs).
    pub redn_db: f64,
    /// Minimum protectable TV signal `S^PU_sv_min` (ATSC threshold).
    pub pu_min_signal_dbm: f64,
    /// Maximum SU EIRP `S^SU_max` (FCC part-15-style cap, 36 dBm = 4 W).
    pub su_max_eirp_dbm: f64,
}

impl ProtectionParams {
    /// ATSC / FCC-derived defaults used throughout the evaluation.
    pub fn atsc_defaults() -> Self {
        ProtectionParams {
            tv_sinr_db: 15.0,
            redn_db: 3.0,
            pu_min_signal_dbm: -84.0,
            su_max_eirp_dbm: 36.0,
        }
    }

    /// The combined threshold `X = Δ_TV_SINR + Δ_redn` as a linear power
    /// ratio — the scalar of equations (6) and (11).
    pub fn x_linear(&self) -> f64 {
        Db(self.tv_sinr_db + self.redn_db).as_ratio()
    }

    /// `X` rounded **up** to an integer for the homomorphic scalar
    /// multiplication ⊗ (rounding up is conservative: it can only deny
    /// marginal SUs, never harm a PU).
    pub fn x_integer(&self) -> u64 {
        self.x_linear().ceil() as u64
    }

    /// Minimum protectable TV signal in linear milliwatts.
    pub fn pu_min_signal_mw(&self) -> f64 {
        Dbm(self.pu_min_signal_dbm).to_milliwatts().0
    }

    /// Maximum SU EIRP in linear milliwatts.
    pub fn su_max_eirp_mw(&self) -> f64 {
        Dbm(self.su_max_eirp_dbm).to_milliwatts().0
    }
}

impl Default for ProtectionParams {
    fn default() -> Self {
        Self::atsc_defaults()
    }
}

/// Computes the protection distance `d^c` for channel `channel`:
/// the largest distance at which a full-power SU can still degrade the
/// weakest protectable TV signal below the required SINR (equation 1).
///
/// Blocks farther than `d^c` from a PU need no update when that PU
/// activates.
pub fn protection_distance<M: PathLossModel + ?Sized>(
    model: &M,
    params: &ProtectionParams,
    channel: Channel,
    max_distance_m: f64,
) -> f64 {
    // From eq. (1): h_max(d^c) = S_min / (S_max_SU · X)
    // ⇒ required loss L = 10·log10(S_max_SU · X / S_min)
    let s_min_mw = params.pu_min_signal_mw();
    let s_max_mw = params.su_max_eirp_mw();
    let x = params.x_linear();
    let required_loss = Db(10.0 * (s_max_mw * x / s_min_mw).log10());
    let geom = LinkGeometry::secondary_default(channel.center_freq_mhz());
    invert_path_loss(model, required_loss, &geom, max_distance_m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pathloss::{ExtendedHata, FreeSpace, PathLossModel};

    #[test]
    fn x_values() {
        let p = ProtectionParams::atsc_defaults();
        // 18 dB → 63.1 linear → ceil 64
        assert!((p.x_linear() - 63.095).abs() < 0.01);
        assert_eq!(p.x_integer(), 64);
    }

    #[test]
    fn x_integer_is_conservative() {
        let p = ProtectionParams::atsc_defaults();
        assert!(p.x_integer() as f64 >= p.x_linear());
    }

    #[test]
    fn protection_distance_is_large_for_weak_signals() {
        // A full-power SU against the weakest protectable TV signal needs
        // kilometres of separation under suburban propagation.
        let p = ProtectionParams::atsc_defaults();
        let d = protection_distance(&ExtendedHata::suburban(), &p, Channel(5), 100_000.0);
        assert!(d > 1000.0, "d^c = {d} m");
    }

    #[test]
    fn harsher_model_shrinks_distance() {
        // Free space attenuates less than Hata, so free-space d^c must be
        // at least as large.
        let p = ProtectionParams::atsc_defaults();
        let d_fs = protection_distance(&FreeSpace, &p, Channel(5), 1e7);
        let d_hata = protection_distance(&ExtendedHata::suburban(), &p, Channel(5), 1e7);
        assert!(d_fs >= d_hata);
    }

    #[test]
    fn loss_at_protection_distance_matches_required() {
        let p = ProtectionParams::atsc_defaults();
        let model = ExtendedHata::suburban();
        let ch = Channel(20);
        let d = protection_distance(&model, &p, ch, 1e6);
        let geom = LinkGeometry::secondary_default(ch.center_freq_mhz());
        // At d^c, SU interference at full power equals S_min / X.
        let interference_mw = p.su_max_eirp_mw() * model.path_gain(d, &geom);
        let budget_mw = p.pu_min_signal_mw() / p.x_linear();
        let ratio = interference_mw / budget_mw;
        assert!((0.99..1.01).contains(&ratio), "ratio = {ratio}");
    }

    #[test]
    fn channel_dependence() {
        // Higher channels (higher frequency) attenuate faster ⇒ smaller d^c.
        let p = ProtectionParams::atsc_defaults();
        let m = ExtendedHata::suburban();
        let d_low = protection_distance(&m, &p, Channel(0), 1e6);
        let d_high = protection_distance(&m, &p, Channel(60), 1e6);
        assert!(d_high <= d_low);
    }
}
