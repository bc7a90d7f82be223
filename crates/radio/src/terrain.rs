//! Synthetic terrain heightmaps.
//!
//! The paper relies on public terrain databases (USGS SRTM) consumed
//! through tools like SPLAT. Those datasets are not available offline, so
//! this module generates deterministic synthetic terrain with realistic
//! roughness using multi-octave value noise. The propagation code only
//! ever asks "what is the elevation at (x, y)" and "how rough is the
//! path from A to B", so any heightmap with plausible statistics
//! exercises the same code paths (see DESIGN.md, substitutions).

use crate::grid::Point;

/// A deterministic synthetic terrain model.
///
/// # Examples
///
/// ```
/// use pisa_radio::terrain::Terrain;
/// use pisa_radio::grid::Point;
///
/// let t = Terrain::new(42, 120.0);
/// let e = t.elevation_m(Point { x: 100.0, y: 250.0 });
/// assert!(e >= 0.0 && e <= 120.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Terrain {
    seed: u64,
    /// Peak-to-valley elevation range in meters.
    relief_m: f64,
}

impl Terrain {
    /// Creates a terrain with the given seed and total relief (meters).
    ///
    /// # Panics
    ///
    /// Panics if `relief_m` is negative.
    pub fn new(seed: u64, relief_m: f64) -> Self {
        assert!(relief_m >= 0.0, "relief must be non-negative");
        Terrain { seed, relief_m }
    }

    /// Completely flat terrain (useful as a Hata-only baseline).
    pub fn flat() -> Self {
        Terrain::new(0, 0.0)
    }

    /// Elevation at a point, in `[0, relief_m]`.
    pub fn elevation_m(&self, p: Point) -> f64 {
        if self.relief_m == 0.0 {
            return 0.0;
        }
        // Three octaves of value noise at 1 km / 250 m / 60 m wavelengths.
        let n = 0.55 * self.value_noise(p.x / 1000.0, p.y / 1000.0, 1)
            + 0.30 * self.value_noise(p.x / 250.0, p.y / 250.0, 2)
            + 0.15 * self.value_noise(p.x / 60.0, p.y / 60.0, 3);
        n * self.relief_m
    }

    /// Terrain irregularity Δh along the path from `a` to `b`: the
    /// interdecile range of elevations sampled along the straight path —
    /// the roughness parameter of the Longley–Rice model family.
    pub fn interdecile_range_m(&self, a: Point, b: Point) -> f64 {
        if self.relief_m == 0.0 {
            return 0.0;
        }
        const SAMPLES: usize = 32;
        let mut elevations: Vec<f64> = (0..SAMPLES)
            .map(|i| {
                let t = i as f64 / (SAMPLES - 1) as f64;
                self.elevation_m(Point {
                    x: a.x + (b.x - a.x) * t,
                    y: a.y + (b.y - a.y) * t,
                })
            })
            .collect();
        elevations.sort_by(|x, y| x.partial_cmp(y).expect("finite elevations"));
        let lo = elevations[SAMPLES / 10];
        let hi = elevations[SAMPLES - 1 - SAMPLES / 10];
        hi - lo
    }

    /// Smooth value noise in `[0, 1]` for one octave.
    fn value_noise(&self, x: f64, y: f64, octave: u64) -> f64 {
        let x0 = x.floor();
        let y0 = y.floor();
        let fx = x - x0;
        let fy = y - y0;
        let (x0, y0) = (x0 as i64, y0 as i64);

        let v00 = self.lattice(x0, y0, octave);
        let v10 = self.lattice(x0 + 1, y0, octave);
        let v01 = self.lattice(x0, y0 + 1, octave);
        let v11 = self.lattice(x0 + 1, y0 + 1, octave);

        let sx = smoothstep(fx);
        let sy = smoothstep(fy);
        let a = v00 + (v10 - v00) * sx;
        let b = v01 + (v11 - v01) * sx;
        a + (b - a) * sy
    }

    /// Deterministic pseudo-random lattice value in `[0, 1]`.
    fn lattice(&self, x: i64, y: i64, octave: u64) -> f64 {
        let mut h = self
            .seed
            .wrapping_mul(0x9e3779b97f4a7c15)
            .wrapping_add(octave.wrapping_mul(0xbf58476d1ce4e5b9));
        h ^= (x as u64).wrapping_mul(0x94d049bb133111eb);
        h = h.rotate_left(23).wrapping_mul(0x2545f4914f6cdd1d);
        h ^= (y as u64).wrapping_mul(0xd6e8feb86659fd93);
        h = h.rotate_left(29).wrapping_mul(0x9e3779b97f4a7c15);
        (h >> 11) as f64 / (1u64 << 53) as f64
    }
}

fn smoothstep(t: f64) -> f64 {
    t * t * (3.0 - 2.0 * t)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        let a = Terrain::new(7, 100.0);
        let b = Terrain::new(7, 100.0);
        let p = Point { x: 123.0, y: 456.0 };
        assert_eq!(a.elevation_m(p), b.elevation_m(p));
    }

    #[test]
    fn different_seeds_differ() {
        let a = Terrain::new(1, 100.0);
        let b = Terrain::new(2, 100.0);
        let p = Point { x: 500.0, y: 700.0 };
        assert_ne!(a.elevation_m(p), b.elevation_m(p));
    }

    #[test]
    fn elevation_bounded() {
        let t = Terrain::new(3, 150.0);
        for i in 0..100 {
            let p = Point {
                x: i as f64 * 37.0,
                y: i as f64 * 91.0,
            };
            let e = t.elevation_m(p);
            assert!((0.0..=150.0).contains(&e), "e = {e}");
        }
    }

    #[test]
    fn flat_terrain_is_flat() {
        let t = Terrain::flat();
        let a = Point { x: 0.0, y: 0.0 };
        let b = Point {
            x: 5000.0,
            y: 5000.0,
        };
        assert_eq!(t.elevation_m(b), 0.0);
        assert_eq!(t.interdecile_range_m(a, b), 0.0);
    }

    #[test]
    fn continuity() {
        // Neighbouring samples should not jump by more than a small
        // fraction of the relief.
        let t = Terrain::new(11, 100.0);
        let mut prev = t.elevation_m(Point { x: 0.0, y: 0.0 });
        for i in 1..200 {
            let e = t.elevation_m(Point {
                x: i as f64,
                y: 0.0,
            });
            assert!((e - prev).abs() < 15.0, "jump at {i}: {prev} -> {e}");
            prev = e;
        }
    }

    #[test]
    fn roughness_positive_for_rough_terrain() {
        let t = Terrain::new(5, 200.0);
        let a = Point { x: 0.0, y: 0.0 };
        let b = Point {
            x: 8000.0,
            y: 3000.0,
        };
        let idr = t.interdecile_range_m(a, b);
        assert!(idr > 1.0, "idr = {idr}");
    }
}
