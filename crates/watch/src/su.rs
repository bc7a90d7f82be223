//! Secondary-user requests.

use crate::{IntMatrix, WatchConfig};
use pisa_radio::tv::Channel;
use pisa_radio::BlockId;

/// A secondary user's transmission request: its block, requested
/// channels and EIRP — all private in PISA.
///
/// The request's payload is the interference profile
/// `F(c, i) = S^SU_c · h(d_{i,j})` (eq. 5): the signal this SU would
/// deposit in every block `i` within the protection distance `d^c` of
/// its own block `j`.
#[derive(Debug, Clone, PartialEq)]
pub struct SuRequest {
    block: BlockId,
    /// Requested EIRP per channel in linear milliwatts (0 = channel not
    /// requested).
    eirp_mw: Vec<f64>,
}

impl SuRequest {
    /// A request from `block` with explicit per-channel EIRP values.
    ///
    /// # Panics
    ///
    /// Panics if the EIRP vector length differs from the channel count,
    /// any value is negative/non-finite, or the block is out of range.
    pub fn new(cfg: &WatchConfig, block: BlockId, eirp_mw: Vec<f64>) -> Self {
        cfg.area().check_block(block).expect("block in range");
        assert_eq!(eirp_mw.len(), cfg.channels(), "one EIRP per channel");
        assert!(
            eirp_mw.iter().all(|v| v.is_finite() && *v >= 0.0),
            "EIRP values must be non-negative and finite"
        );
        SuRequest { block, eirp_mw }
    }

    /// A request for the regulatory maximum EIRP on the given channels.
    pub fn full_power(cfg: &WatchConfig, block: BlockId, channels: &[Channel]) -> Self {
        let mut eirp = vec![0.0; cfg.channels()];
        for c in channels {
            assert!(c.0 < cfg.channels(), "channel out of range");
            eirp[c.0] = cfg.params().su_max_eirp_mw();
        }
        SuRequest::new(cfg, block, eirp)
    }

    /// A request for a fixed EIRP in dBm on the given channels.
    pub fn with_power_dbm(
        cfg: &WatchConfig,
        block: BlockId,
        channels: &[Channel],
        power_dbm: f64,
    ) -> Self {
        let mw = pisa_radio::Dbm(power_dbm).to_milliwatts().0;
        let mut eirp = vec![0.0; cfg.channels()];
        for c in channels {
            assert!(c.0 < cfg.channels(), "channel out of range");
            eirp[c.0] = mw;
        }
        SuRequest::new(cfg, block, eirp)
    }

    /// The SU's block.
    pub fn block(&self) -> BlockId {
        self.block
    }

    /// Requested EIRP (mW) per channel.
    pub fn eirp_mw(&self) -> &[f64] {
        &self.eirp_mw
    }

    /// Channels with non-zero requested power.
    pub fn requested_channels(&self) -> Vec<Channel> {
        self.eirp_mw
            .iter()
            .enumerate()
            .filter(|(_, &p)| p > 0.0)
            .map(|(c, _)| Channel(c))
            .collect()
    }

    /// The interference-profile matrix **F** (eq. 5), quantized.
    ///
    /// Entries are non-zero only for requested channels and for blocks
    /// within `d^c` of the SU's block.
    pub fn f_matrix(&self, cfg: &WatchConfig) -> IntMatrix {
        self.f_matrix_restricted(cfg, cfg.blocks())
    }

    /// **F** restricted to the first `region_blocks` blocks — the
    /// paper's location-privacy trade-off (§VI-A): exposing the SU's
    /// rough region lets it ship a proportionally smaller matrix.
    pub fn f_matrix_restricted(&self, cfg: &WatchConfig, region_blocks: usize) -> IntMatrix {
        let q = cfg.quantizer();
        let blocks = region_blocks.min(cfg.blocks());
        let mut f = IntMatrix::zeros(cfg.channels(), cfg.blocks());
        for (c, &power_mw) in self.eirp_mw.iter().enumerate() {
            if power_mw == 0.0 {
                continue;
            }
            let channel = Channel(c);
            let dc = cfg.protection_distance_m(channel);
            for b in 0..blocks {
                let target = BlockId(b);
                if cfg.area().block_distance_m(self.block, target) > dc {
                    continue;
                }
                let gain = cfg.path_gain(self.block, target, channel);
                f.set(c, b, q.quantize_saturating(power_mw * gain));
            }
        }
        f
    }

    /// Number of non-zero entries an encrypted request must carry for a
    /// region of `region_blocks` blocks (every entry of the region is
    /// shipped, zero or not, to hide the SU's exact position).
    pub fn request_entries(&self, cfg: &WatchConfig, region_blocks: usize) -> usize {
        cfg.channels() * region_blocks.min(cfg.blocks())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f_matrix_zero_off_requested_channels() {
        let cfg = WatchConfig::small_test();
        let su = SuRequest::full_power(&cfg, BlockId(12), &[Channel(1)]);
        let f = su.f_matrix(&cfg);
        for (c, _, v) in f.iter() {
            if c != 1 {
                assert_eq!(v, 0);
            }
        }
        assert!(f.get(1, 12) > 0, "own block must carry interference");
    }

    #[test]
    fn interference_decays_with_distance() {
        let cfg = WatchConfig::small_test();
        let su = SuRequest::full_power(&cfg, BlockId(0), &[Channel(0)]);
        let f = su.f_matrix(&cfg);
        assert!(f.get(0, 0) > f.get(0, 24), "corner-to-corner must decay");
    }

    #[test]
    fn zero_power_request_is_all_zero() {
        let cfg = WatchConfig::small_test();
        let su = SuRequest::new(&cfg, BlockId(5), vec![0.0; 4]);
        assert_eq!(su.f_matrix(&cfg), IntMatrix::zeros(4, 25));
        assert!(su.requested_channels().is_empty());
    }

    #[test]
    fn restriction_zeroes_outside_region() {
        let cfg = WatchConfig::small_test();
        let su = SuRequest::full_power(&cfg, BlockId(2), &[Channel(0)]);
        let full = su.f_matrix(&cfg);
        let restricted = su.f_matrix_restricted(&cfg, 10);
        for (c, b, v) in restricted.iter() {
            if b < 10 {
                assert_eq!(v, full.get(c, b));
            } else {
                assert_eq!(v, 0);
            }
        }
    }

    #[test]
    fn request_entry_count_scales_with_region() {
        let cfg = WatchConfig::small_test();
        let su = SuRequest::full_power(&cfg, BlockId(0), &[Channel(0)]);
        assert_eq!(su.request_entries(&cfg, 25), 100);
        assert_eq!(su.request_entries(&cfg, 10), 40);
        assert_eq!(su.request_entries(&cfg, 9999), 100);
    }

    #[test]
    fn dbm_constructor() {
        let cfg = WatchConfig::small_test();
        let su = SuRequest::with_power_dbm(&cfg, BlockId(0), &[Channel(2)], 20.0);
        assert!((su.eirp_mw()[2] - 100.0).abs() < 1e-9);
        assert_eq!(su.requested_channels(), vec![Channel(2)]);
    }

    #[test]
    #[should_panic(expected = "one EIRP per channel")]
    fn wrong_vector_length_panics() {
        let cfg = WatchConfig::small_test();
        let _ = SuRequest::new(&cfg, BlockId(0), vec![1.0; 3]);
    }
}
