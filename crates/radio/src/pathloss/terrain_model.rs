//! Terrain-adjusted irregular-terrain model (Longley–Rice stand-in).

use super::{ExtendedHata, LinkGeometry, PathLossModel};
use crate::grid::Point;
use crate::terrain::Terrain;
use crate::units::Db;

/// An irregular-terrain propagation model: Extended Hata plus a
/// roughness penalty derived from the interdecile terrain range Δh along
/// the path, in the spirit of the Longley–Rice irregular terrain model
/// the paper uses for TV field strength \[29\].
///
/// The penalty follows the classic Δh correction shape used by
/// terrain-integrated models: `ΔL = k · log₁₀(1 + Δh / Δh₀)` with
/// `Δh₀ = 90 m` (the model family's "average terrain") and `k = 10`.
/// Smooth terrain (Δh → 0) reduces to plain Extended Hata.
///
/// Because the path endpoints matter (terrain is sampled along the
/// path), this model is evaluated through
/// [`IrregularTerrain::path_loss_between`]; the [`PathLossModel`]
/// implementation uses the worst-case roughness of the whole area so
/// that distance-only call sites stay conservative.
#[derive(Debug, Clone)]
pub struct IrregularTerrain {
    hata: ExtendedHata,
    terrain: Terrain,
    worst_case_penalty_db: f64,
}

const DELTA_H0_M: f64 = 90.0;
const ROUGHNESS_GAIN: f64 = 10.0;

impl IrregularTerrain {
    /// Wraps a terrain model around the sub-urban Extended Hata base.
    pub fn new(terrain: Terrain) -> Self {
        IrregularTerrain {
            hata: ExtendedHata::suburban(),
            worst_case_penalty_db: roughness_penalty_db(estimate_relief(&terrain)),
            terrain,
        }
    }

    /// Path loss between two concrete points, sampling terrain roughness
    /// along the path.
    pub fn path_loss_between(&self, a: Point, b: Point, geom: &LinkGeometry) -> Db {
        let d = a.distance_m(&b);
        let base = self.hata.path_loss_db(d, geom).0;
        let dh = self.terrain.interdecile_range_m(a, b);
        Db(base + roughness_penalty_db(dh))
    }

    /// Linear path gain between two points.
    pub fn path_gain_between(&self, a: Point, b: Point, geom: &LinkGeometry) -> f64 {
        (-self.path_loss_between(a, b, geom)).as_ratio()
    }
}

impl PathLossModel for IrregularTerrain {
    fn path_loss_db(&self, distance_m: f64, geom: &LinkGeometry) -> Db {
        Db(self.hata.path_loss_db(distance_m, geom).0 + self.worst_case_penalty_db)
    }
}

fn roughness_penalty_db(delta_h_m: f64) -> f64 {
    ROUGHNESS_GAIN * (1.0 + delta_h_m / DELTA_H0_M).log10()
}

fn estimate_relief(terrain: &Terrain) -> f64 {
    // Sample a long diagonal to estimate the area's roughness budget.
    terrain.interdecile_range_m(
        Point { x: 0.0, y: 0.0 },
        Point {
            x: 20_000.0,
            y: 20_000.0,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geom() -> LinkGeometry {
        LinkGeometry::secondary_default(600.0)
    }

    #[test]
    fn flat_terrain_equals_hata() {
        let model = IrregularTerrain::new(Terrain::flat());
        let a = Point { x: 0.0, y: 0.0 };
        let b = Point { x: 3000.0, y: 0.0 };
        let via_terrain = model.path_loss_between(a, b, &geom()).0;
        let via_hata = ExtendedHata::suburban().path_loss_db(3000.0, &geom()).0;
        assert!((via_terrain - via_hata).abs() < 1e-9);
    }

    #[test]
    fn rough_terrain_adds_loss() {
        let rough = IrregularTerrain::new(Terrain::new(9, 300.0));
        let a = Point { x: 0.0, y: 0.0 };
        let b = Point {
            x: 5000.0,
            y: 2000.0,
        };
        let l_rough = rough.path_loss_between(a, b, &geom()).0;
        let l_flat = ExtendedHata::suburban()
            .path_loss_db(a.distance_m(&b), &geom())
            .0;
        assert!(l_rough > l_flat, "{l_rough} vs {l_flat}");
    }

    #[test]
    fn distance_only_view_is_conservative() {
        // The PathLossModel impl must never under-predict loss relative
        // to the base Hata (it adds the worst-case penalty).
        let model = IrregularTerrain::new(Terrain::new(5, 150.0));
        let hata = ExtendedHata::suburban();
        for d in [100.0, 1000.0, 5000.0] {
            assert!(model.path_loss_db(d, &geom()).0 >= hata.path_loss_db(d, &geom()).0);
        }
    }

    #[test]
    fn penalty_monotone_in_roughness() {
        assert!(roughness_penalty_db(0.0) == 0.0);
        assert!(roughness_penalty_db(50.0) < roughness_penalty_db(200.0));
    }
}
