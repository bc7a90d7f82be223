//! The SU location-privacy trade-off (§VI-A).

use crate::config::SystemConfig;

/// How much of the service area an SU's request covers.
///
/// Full privacy ships a `C × B` encrypted matrix; revealing a coarse
/// region (e.g. "the north half of the map") lets the SU ship — and the
/// SDC process — a proportionally smaller matrix. The paper shows the
/// cost is asymptotically linear in the exposed region size.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LocationPrivacy {
    /// The SDC learns nothing about the SU's position: the request
    /// covers every block.
    #[default]
    Full,
    /// The SDC learns the SU is inside the first `n` blocks (row-major
    /// prefix region).
    Region(usize),
}

impl LocationPrivacy {
    /// Number of blocks the request matrix covers under `cfg`.
    pub fn region_blocks(&self, cfg: &SystemConfig) -> usize {
        match self {
            LocationPrivacy::Full => cfg.blocks(),
            LocationPrivacy::Region(n) => (*n).min(cfg.blocks()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_covers_everything() {
        let cfg = SystemConfig::small_test();
        assert_eq!(LocationPrivacy::Full.region_blocks(&cfg), 25);
    }

    #[test]
    fn region_clamps_to_area() {
        let cfg = SystemConfig::small_test();
        assert_eq!(LocationPrivacy::Region(10).region_blocks(&cfg), 10);
        assert_eq!(LocationPrivacy::Region(999).region_blocks(&cfg), 25);
    }
}
