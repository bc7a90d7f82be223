//! Path-loss models.
//!
//! The paper's spectrum math consumes a path-loss function `h(·)` (linear
//! path gain) evaluated between blocks; WATCH computes TV field strength
//! with the Longley–Rice irregular terrain model and SU propagation with
//! the Extended Hata sub-urban model. Three models are provided:
//!
//! * [`FreeSpace`] — the physics floor, valid at short range;
//! * [`ExtendedHata`] — empirical sub-urban model (150–1500 MHz), the
//!   paper's SU model \[5\];
//! * [`IrregularTerrain`] — Hata plus a terrain-roughness correction
//!   driven by [`crate::terrain::Terrain`], standing in for Longley–Rice
//!   \[29\] (see DESIGN.md).
//!
//! All models implement [`PathLossModel`]; the protocol code is generic
//! over the trait.

mod freespace;
mod hata;
mod terrain_model;

pub use freespace::FreeSpace;
pub use hata::ExtendedHata;
pub use terrain_model::IrregularTerrain;

use crate::units::Db;

/// Antenna geometry for a link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkGeometry {
    /// Transmitter antenna height above ground, meters.
    pub tx_height_m: f64,
    /// Receiver antenna height above ground, meters.
    pub rx_height_m: f64,
    /// Carrier frequency in MHz.
    pub freq_mhz: f64,
}

impl LinkGeometry {
    /// A typical WiFi-in-TV-band secondary link: 10 m base, 1.5 m mobile.
    pub fn secondary_default(freq_mhz: f64) -> Self {
        LinkGeometry {
            tx_height_m: 10.0,
            rx_height_m: 1.5,
            freq_mhz,
        }
    }
}

/// A propagation model producing path loss as a function of distance.
///
/// Implementations must be monotonically non-decreasing in distance —
/// [`protection_distance`](crate::protection) inverts them by bisection.
pub trait PathLossModel {
    /// Path loss in dB over `distance_m` meters with the given geometry.
    ///
    /// Distances below 1 m are clamped to 1 m.
    fn path_loss_db(&self, distance_m: f64, geom: &LinkGeometry) -> Db;

    /// Linear path gain `h(d) = 10^(−L/10)` — the `h(·)` of the paper's
    /// equations (1), (2) and (5).
    fn path_gain(&self, distance_m: f64, geom: &LinkGeometry) -> f64 {
        (-self.path_loss_db(distance_m, geom)).as_ratio()
    }
}

impl<M: PathLossModel + ?Sized> PathLossModel for &M {
    fn path_loss_db(&self, distance_m: f64, geom: &LinkGeometry) -> Db {
        (**self).path_loss_db(distance_m, geom)
    }
}

/// Inverts a model: the largest distance at which path loss stays at or
/// below `target` (bisection over `[1 m, max_distance_m]`).
///
/// Returns `max_distance_m` if the loss never reaches `target`, and 1.0
/// if even 1 m exceeds it.
pub fn invert_path_loss<M: PathLossModel + ?Sized>(
    model: &M,
    target: Db,
    geom: &LinkGeometry,
    max_distance_m: f64,
) -> f64 {
    let mut lo = 1.0f64;
    let mut hi = max_distance_m;
    if model.path_loss_db(hi, geom).0 <= target.0 {
        return hi;
    }
    if model.path_loss_db(lo, geom).0 >= target.0 {
        return lo;
    }
    for _ in 0..64 {
        let mid = 0.5 * (lo + hi);
        if model.path_loss_db(mid, geom).0 <= target.0 {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    lo
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inversion_brackets_target() {
        let model = FreeSpace;
        let geom = LinkGeometry::secondary_default(600.0);
        let target = Db(100.0);
        let d = invert_path_loss(&model, target, &geom, 100_000.0);
        let at = model.path_loss_db(d, &geom).0;
        assert!((at - 100.0).abs() < 0.01, "loss at inverted d = {at}");
    }

    #[test]
    fn inversion_saturates_at_bounds() {
        let model = FreeSpace;
        let geom = LinkGeometry::secondary_default(600.0);
        assert_eq!(invert_path_loss(&model, Db(1e9), &geom, 5000.0), 5000.0);
        assert_eq!(invert_path_loss(&model, Db(-1e9), &geom, 5000.0), 1.0);
    }

    #[test]
    fn path_gain_matches_loss() {
        let model = FreeSpace;
        let geom = LinkGeometry::secondary_default(600.0);
        let loss = model.path_loss_db(1000.0, &geom);
        let gain = model.path_gain(1000.0, &geom);
        assert!((gain - (-loss).as_ratio()).abs() < 1e-15);
        assert!(gain > 0.0 && gain < 1.0);
    }
}
