//! Primary-user (TV receiver) inputs.

use crate::{IntMatrix, WatchConfig};
use pisa_radio::tv::Channel;
use pisa_radio::BlockId;
use serde::{Deserialize, Serialize};

/// One PU's operational input: its (public) block and its (private)
/// tuned channel with the mean TV signal strength there.
///
/// # Examples
///
/// ```
/// use pisa_watch::{PuInput, WatchConfig};
/// use pisa_radio::{grid::BlockId, tv::Channel};
///
/// let cfg = WatchConfig::small_test();
/// let pu = PuInput::tuned(&cfg, BlockId(7), Channel(2));
/// assert_eq!(pu.block(), BlockId(7));
/// assert!(pu.t_matrix(&cfg).get(2, 7) > 0);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PuInput {
    block: BlockId,
    /// `None` = receiver off.
    tuned: Option<Channel>,
    /// Quantized `S^PU` at (tuned, block); 0 when off.
    signal_q: i128,
}

impl PuInput {
    /// A receiver at `block` tuned to `channel`; the signal strength is
    /// computed from the configuration's propagation model and clamped
    /// to at least one quantum.
    ///
    /// # Panics
    ///
    /// Panics if the block or channel is out of range for `cfg`.
    pub fn tuned(cfg: &WatchConfig, block: BlockId, channel: Channel) -> Self {
        cfg.area().check_block(block).expect("block in range");
        assert!(channel.0 < cfg.channels(), "channel out of range");
        let mw = cfg.pu_signal_mw(block, channel);
        let signal_q = cfg.quantizer().quantize_saturating(mw).max(1);
        PuInput {
            block,
            tuned: Some(channel),
            signal_q,
        }
    }

    /// A powered-off receiver (contributes nothing).
    pub fn off(block: BlockId) -> Self {
        PuInput {
            block,
            tuned: None,
            signal_q: 0,
        }
    }

    /// The receiver's block (public, registered).
    pub fn block(&self) -> BlockId {
        self.block
    }

    /// Quantized mean TV signal strength at the receiver.
    pub fn signal_q(&self) -> i128 {
        self.signal_q
    }

    /// The matrix **Tᵢ**: `T(c, b) = S^PU` at `(tuned, block)`, zero
    /// elsewhere (paper §III-D input format).
    pub fn t_matrix(&self, cfg: &WatchConfig) -> IntMatrix {
        let mut t = IntMatrix::zeros(cfg.channels(), cfg.blocks());
        if let Some(c) = self.tuned {
            t.set(c.0, self.block.0, self.signal_q);
        }
        t
    }

    /// The matrix **Wᵢ** = **Tᵢ − E** at the tuned entry, zero elsewhere
    /// (the paper's comparison-free encoding, eq. 9): summing all **Wᵢ**
    /// with **E** reproduces **N** without any encrypted equality test.
    pub fn w_matrix(&self, cfg: &WatchConfig, e: &IntMatrix) -> IntMatrix {
        let mut w = IntMatrix::zeros(cfg.channels(), cfg.blocks());
        if let Some(c) = self.tuned {
            w.set(c.0, self.block.0, self.signal_q - e.get(c.0, self.block.0));
        }
        w
    }

    /// The column of `C` values a PU actually transmits in its update
    /// (paper Figure 4 sends `T̃(1,i) … T̃(C,i)` — size ∝ C, not C×B).
    pub fn w_column(&self, cfg: &WatchConfig, e: &IntMatrix) -> Vec<i128> {
        (0..cfg.channels())
            .map(|c| match self.tuned {
                Some(t) if t.0 == c => self.signal_q - e.get(c, self.block.0),
                _ => 0,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compute_e_matrix;

    #[test]
    fn t_matrix_single_entry() {
        let cfg = WatchConfig::small_test();
        let pu = PuInput::tuned(&cfg, BlockId(3), Channel(1));
        let t = pu.t_matrix(&cfg);
        let nonzero: Vec<_> = t.iter().filter(|&(_, _, v)| v != 0).collect();
        assert_eq!(nonzero.len(), 1);
        assert_eq!(nonzero[0].0, 1);
        assert_eq!(nonzero[0].1, 3);
    }

    #[test]
    fn off_receiver_contributes_nothing() {
        let cfg = WatchConfig::small_test();
        let pu = PuInput::off(BlockId(3));
        assert_eq!(pu.t_matrix(&cfg), IntMatrix::zeros(4, 25));
        assert_eq!(pu.signal_q(), 0);
    }

    #[test]
    fn w_plus_e_equals_t_at_entry() {
        let cfg = WatchConfig::small_test();
        let e = compute_e_matrix(&cfg);
        let pu = PuInput::tuned(&cfg, BlockId(10), Channel(2));
        let w = pu.w_matrix(&cfg, &e);
        let n = &w + &e;
        // At the PU entry, N = T; elsewhere N = E (eq. 4 realized via 9–10).
        assert_eq!(n.get(2, 10), pu.signal_q());
        assert_eq!(n.get(0, 0), e.get(0, 0));
        assert_eq!(n.get(2, 11), e.get(2, 11));
    }

    #[test]
    fn w_column_matches_w_matrix() {
        let cfg = WatchConfig::small_test();
        let e = compute_e_matrix(&cfg);
        let pu = PuInput::tuned(&cfg, BlockId(5), Channel(3));
        let col = pu.w_column(&cfg, &e);
        let w = pu.w_matrix(&cfg, &e);
        for (c, v) in col.iter().enumerate() {
            assert_eq!(*v, w.get(c, 5));
        }
        assert_eq!(col.len(), cfg.channels());
    }

    #[test]
    #[should_panic(expected = "channel out of range")]
    fn bad_channel_panics() {
        let cfg = WatchConfig::small_test();
        let _ = PuInput::tuned(&cfg, BlockId(0), Channel(99));
    }
}
