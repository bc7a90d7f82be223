//! Shared helpers for the PISA harness binaries.
//!
//! Each artifact of the paper's evaluation (§VI) has exactly one
//! regenerating target:
//!
//! | Paper artifact | Target |
//! |---|---|
//! | Table I (settings) | `pisa info` |
//! | Table II (Paillier ops) | `table2` |
//! | §IV-B bitwise comparison, cost of privacy, Montgomery vs division | `table2` (rows after Table II) |
//! | Figure 6 (system evaluation) | `fig6_system_eval` |
//! | §VI-A privacy/time trade-off | `privacy_tradeoff` |
//! | Figures 8–11 (SDR scenarios) | the `sdr_experiment` example of `pisa-core` |

#![forbid(unsafe_code)]

use pisa::SystemConfig;
use pisa_radio::protection::ProtectionParams;
use pisa_radio::terrain::Terrain;
use pisa_radio::{Quantizer, ServiceArea};
use pisa_watch::WatchConfig;
use std::time::{Duration, Instant};

/// A scaled-down system configuration: `channels × (rows × cols)` blocks
/// with `key_bits` Paillier keys — same code paths as
/// [`SystemConfig::paper`], tractable in CI.
pub fn scaled_config(channels: usize, rows: usize, cols: usize, key_bits: usize) -> SystemConfig {
    let watch = WatchConfig::new(
        ServiceArea::new(rows, cols, 10.0),
        channels,
        ProtectionParams::atsc_defaults(),
        Quantizer::paper(),
        Terrain::flat(),
        Vec::new(),
    );
    SystemConfig::new(watch, key_bits, 128, 64)
}

/// Measures `f` averaged over `iters` runs (the paper's Table II uses
/// the average of 30 iterations).
pub fn time_avg<T>(iters: usize, mut f: impl FnMut() -> T) -> Duration {
    assert!(iters > 0);
    let start = Instant::now();
    for _ in 0..iters {
        std::hint::black_box(f());
    }
    start.elapsed() / iters as u32
}

/// Pretty-prints a duration in adaptive units.
pub fn fmt_duration(d: Duration) -> String {
    let nanos = d.as_nanos();
    if nanos < 1_000 {
        format!("{nanos} ns")
    } else if nanos < 1_000_000 {
        format!("{:.3} µs", nanos as f64 / 1e3)
    } else if nanos < 1_000_000_000 {
        format!("{:.3} ms", nanos as f64 / 1e6)
    } else {
        format!("{:.3} s", nanos as f64 / 1e9)
    }
}

/// Pretty-prints a byte count.
pub fn fmt_bytes(b: u64) -> String {
    if b < 1024 {
        format!("{b} B")
    } else if b < 1024 * 1024 {
        format!("{:.1} KiB", b as f64 / 1024.0)
    } else {
        format!("{:.1} MiB", b as f64 / (1024.0 * 1024.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaled_config_dimensions() {
        let cfg = scaled_config(4, 5, 6, 256);
        assert_eq!(cfg.channels(), 4);
        assert_eq!(cfg.blocks(), 30);
        assert_eq!(cfg.paillier_bits(), 256);
    }

    #[test]
    fn formatting() {
        assert_eq!(fmt_duration(Duration::from_nanos(500)), "500 ns");
        assert_eq!(fmt_duration(Duration::from_micros(1500)), "1.500 ms");
        assert_eq!(fmt_bytes(100), "100 B");
        assert_eq!(fmt_bytes(29 * 1024 * 1024), "29.0 MiB");
    }

    #[test]
    fn time_avg_positive() {
        let d = time_avg(3, || (0..1000).sum::<u64>());
        assert!(d.as_nanos() > 0 || d.is_zero());
    }
}
