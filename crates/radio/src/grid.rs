//! Block quantization of the SDC service area.
//!
//! WATCH divides the service region into small blocks (normally
//! 10 m × 10 m per the paper) and computes per-block maximum SU EIRP. The
//! paper's evaluation uses **B = 600** blocks and **C = 100** channels
//! (Table I).

use crate::RadioError;
use std::fmt;

/// Identifier of one block in the service area (row-major index).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct BlockId(pub usize);

impl fmt::Display for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "block#{}", self.0)
    }
}

/// A point in the service-area plane, in meters.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Point {
    /// Easting in meters.
    pub x: f64,
    /// Northing in meters.
    pub y: f64,
}

impl Point {
    /// Euclidean distance to `other`, in meters.
    ///
    /// ```
    /// use pisa_radio::grid::Point;
    /// let a = Point { x: 0.0, y: 0.0 };
    /// let b = Point { x: 3.0, y: 4.0 };
    /// assert_eq!(a.distance_m(&b), 5.0);
    /// ```
    pub fn distance_m(&self, other: &Point) -> f64 {
        ((self.x - other.x).powi(2) + (self.y - other.y).powi(2)).sqrt()
    }
}

/// The quantized service area: a `rows × cols` grid of square blocks.
///
/// # Examples
///
/// ```
/// use pisa_radio::ServiceArea;
///
/// let area = ServiceArea::paper(); // 20 × 30 = 600 blocks of 10 m
/// assert_eq!(area.num_blocks(), 600);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceArea {
    rows: usize,
    cols: usize,
    block_size_m: f64,
}

impl ServiceArea {
    /// Creates a service area of `rows × cols` blocks with the given
    /// block edge length in meters.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero or the block size non-positive.
    pub fn new(rows: usize, cols: usize, block_size_m: f64) -> Self {
        assert!(rows > 0 && cols > 0, "service area must have blocks");
        assert!(block_size_m > 0.0, "block size must be positive");
        ServiceArea {
            rows,
            cols,
            block_size_m,
        }
    }

    /// The paper's Table I area: 600 blocks (20 × 30) of 10 m × 10 m.
    pub fn paper() -> Self {
        ServiceArea::new(20, 30, 10.0)
    }

    /// Total number of blocks `B`.
    pub fn num_blocks(&self) -> usize {
        self.rows * self.cols
    }

    /// Validates a block id.
    ///
    /// # Errors
    ///
    /// [`RadioError::BlockOutOfRange`] if the id is outside the grid.
    pub fn check_block(&self, b: BlockId) -> Result<(), RadioError> {
        if b.0 < self.num_blocks() {
            Ok(())
        } else {
            Err(RadioError::BlockOutOfRange {
                block: b.0,
                blocks: self.num_blocks(),
            })
        }
    }

    /// Center coordinates of a block.
    ///
    /// # Panics
    ///
    /// Panics if `b` is out of range.
    pub fn block_center(&self, b: BlockId) -> Point {
        self.check_block(b).expect("block in range");
        let row = b.0 / self.cols;
        let col = b.0 % self.cols;
        Point {
            x: (col as f64 + 0.5) * self.block_size_m,
            y: (row as f64 + 0.5) * self.block_size_m,
        }
    }

    /// The block containing a point (points outside the area clamp to
    /// the nearest edge block).
    pub fn block_of(&self, p: Point) -> BlockId {
        let col = ((p.x / self.block_size_m) as isize).clamp(0, self.cols as isize - 1) as usize;
        let row = ((p.y / self.block_size_m) as isize).clamp(0, self.rows as isize - 1) as usize;
        BlockId(row * self.cols + col)
    }

    /// Distance in meters between the centers of two blocks.
    pub fn block_distance_m(&self, a: BlockId, b: BlockId) -> f64 {
        self.block_center(a).distance_m(&self.block_center(b))
    }

    /// Iterates over all block ids.
    pub fn blocks(&self) -> impl Iterator<Item = BlockId> + '_ {
        (0..self.num_blocks()).map(BlockId)
    }

    /// Blocks whose centers lie within `radius_m` of the center of
    /// `around` — the paper's "all blocks within d^c" set.
    pub fn blocks_within(&self, around: BlockId, radius_m: f64) -> Vec<BlockId> {
        let center = self.block_center(around);
        self.blocks()
            .filter(|&b| self.block_center(b).distance_m(&center) <= radius_m)
            .collect()
    }

    /// The ids of the first `count` blocks — the paper's location-privacy
    /// trade-off restricts the request matrix to a sub-region like "the
    /// north half of the map" (§VI-A); a row-major prefix is exactly such
    /// a contiguous region.
    pub fn region_prefix(&self, count: usize) -> Vec<BlockId> {
        (0..count.min(self.num_blocks())).map(BlockId).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_dimensions() {
        let area = ServiceArea::paper();
        assert_eq!(area.num_blocks(), 600);
    }

    #[test]
    fn centers_and_lookup_roundtrip() {
        let area = ServiceArea::new(4, 5, 10.0);
        for b in area.blocks() {
            let c = area.block_center(b);
            assert_eq!(area.block_of(c), b);
        }
    }

    #[test]
    fn block_of_clamps_outside_points() {
        let area = ServiceArea::new(2, 2, 10.0);
        assert_eq!(area.block_of(Point { x: -5.0, y: -5.0 }), BlockId(0));
        assert_eq!(area.block_of(Point { x: 100.0, y: 100.0 }), BlockId(3));
    }

    #[test]
    fn distances_symmetric() {
        let area = ServiceArea::new(3, 3, 10.0);
        let (a, b) = (BlockId(0), BlockId(8));
        assert_eq!(area.block_distance_m(a, b), area.block_distance_m(b, a));
        assert_eq!(area.block_distance_m(a, a), 0.0);
    }

    #[test]
    fn blocks_within_radius() {
        let area = ServiceArea::new(5, 5, 10.0);
        let center = BlockId(12); // middle
        let near = area.blocks_within(center, 10.0);
        // center + 4 orthogonal neighbours at exactly 10 m
        assert_eq!(near.len(), 5);
        let all = area.blocks_within(center, 1000.0);
        assert_eq!(all.len(), 25);
    }

    #[test]
    fn region_prefix_counts() {
        let area = ServiceArea::paper();
        assert_eq!(area.region_prefix(300).len(), 300);
        assert_eq!(area.region_prefix(9999).len(), 600);
        assert_eq!(area.region_prefix(0).len(), 0);
    }

    #[test]
    fn check_block_errors() {
        let area = ServiceArea::new(2, 2, 10.0);
        assert!(area.check_block(BlockId(3)).is_ok());
        assert!(area.check_block(BlockId(4)).is_err());
    }

    #[test]
    #[should_panic(expected = "must have blocks")]
    fn empty_area_rejected() {
        let _ = ServiceArea::new(0, 5, 10.0);
    }
}
