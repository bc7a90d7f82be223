//! Link latency model.

use rand::RngCore;
use std::time::Duration;

/// A simple affine latency model: per-message overhead plus serialization
/// time proportional to bytes.
///
/// Used to translate the byte counts of [`NetMetrics`](crate::NetMetrics)
/// into an end-to-end latency estimate for the protocol round (the paper
/// reports computation times and message sizes separately; the latency
/// model ties them together for the system-level figures).
///
/// # Examples
///
/// ```
/// use pisa_net::LatencyModel;
/// use std::time::Duration;
///
/// let lan = LatencyModel::lan();
/// let t = lan.transfer_time(1_000_000, 1); // 1 MB over ~1 Gb/s
/// assert!(t > Duration::from_millis(7) && t < Duration::from_millis(12));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyModel {
    /// Fixed per-message latency.
    pub per_message: Duration,
    /// Nanoseconds per payload byte (inverse bandwidth).
    pub ns_per_byte: f64,
}

impl LatencyModel {
    /// A LAN-class link: 0.2 ms RTT budget per message, ~1 Gb/s.
    pub fn lan() -> Self {
        LatencyModel {
            per_message: Duration::from_micros(200),
            ns_per_byte: 8.0, // 1 Gb/s
        }
    }

    /// A WAN-class link: 20 ms per message, ~100 Mb/s.
    pub fn wan() -> Self {
        LatencyModel {
            per_message: Duration::from_millis(20),
            ns_per_byte: 80.0, // 100 Mb/s
        }
    }

    /// An ideal link with zero latency (isolates computation time).
    pub fn ideal() -> Self {
        LatencyModel {
            per_message: Duration::ZERO,
            ns_per_byte: 0.0,
        }
    }

    /// Time to move `bytes` across the link in `messages` messages.
    ///
    /// Saturates at [`Duration::MAX`] instead of truncating or
    /// panicking: `messages` is multiplied at full `u64` width (the
    /// old implementation cast to `u32`, silently dropping the high
    /// bits above 2³²−1, and `Duration * u32` panics on overflow), and
    /// a NaN or negative `ns_per_byte` contributes zero serialization
    /// time rather than a garbage cast.
    pub fn transfer_time(&self, bytes: u64, messages: u64) -> Duration {
        let ser_ns = bytes as f64 * self.ns_per_byte;
        // `as` on floats saturates and maps NaN to 0; clamping the
        // negative side keeps a misconfigured model at "instant", not
        // huge-wrapped.
        let serialization = u128::from(ser_ns.max(0.0) as u64);
        let per_msg = self
            .per_message
            .as_nanos()
            .saturating_mul(u128::from(messages));
        duration_from_nanos_saturating(per_msg.saturating_add(serialization))
    }

    /// [`transfer_time`](Self::transfer_time) with multiplicative jitter
    /// drawn from a seeded RNG: the deterministic transfer time is
    /// scaled by a factor uniform in `[1 − jitter, 1 + jitter]`.
    ///
    /// Exactly **one** `u64` is consumed from `rng` per call, even when
    /// `jitter` is zero or degenerate, so the per-link RNG stream
    /// advances identically regardless of the jitter knob — a
    /// virtual-time simulator can therefore toggle jitter without
    /// perturbing every later draw on the link. A NaN, negative or
    /// over-unity `jitter` is clamped into `[0, 1]`.
    pub fn sample_transfer_time(
        &self,
        bytes: u64,
        messages: u64,
        jitter: f64,
        rng: &mut impl RngCore,
    ) -> Duration {
        let unit = (rng.next_u64() >> 11) as f64 * 2f64.powi(-53); // [0, 1)
        let jitter = if jitter.is_nan() {
            0.0
        } else {
            jitter.clamp(0.0, 1.0)
        };
        let base = self.transfer_time(bytes, messages);
        let scale = 1.0 + jitter * (2.0 * unit - 1.0);
        let ns = u64::try_from(base.as_nanos()).unwrap_or(u64::MAX) as f64 * scale;
        duration_from_nanos_saturating(u128::from(ns.max(0.0) as u64))
    }
}

/// Converts a nanosecond count to a `Duration`, clamping to
/// [`Duration::MAX`] when the seconds part exceeds `u64`.
fn duration_from_nanos_saturating(ns: u128) -> Duration {
    let secs = ns / 1_000_000_000;
    // The modulo bounds the remainder under 10⁹, well inside u32.
    let sub = u32::try_from(ns % 1_000_000_000).unwrap_or(0);
    match u64::try_from(secs) {
        Ok(s) => Duration::new(s, sub),
        Err(_) => Duration::MAX,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ideal_is_zero() {
        assert_eq!(
            LatencyModel::ideal().transfer_time(1 << 30, 100),
            Duration::ZERO
        );
    }

    #[test]
    fn wan_slower_than_lan() {
        let bytes = 29 * 1024 * 1024; // the paper's request size
        let lan = LatencyModel::lan().transfer_time(bytes, 1);
        let wan = LatencyModel::wan().transfer_time(bytes, 1);
        assert!(wan > lan);
        // 29 MB over 1 Gb/s ≈ 0.24 s
        assert!(lan > Duration::from_millis(200) && lan < Duration::from_millis(300));
    }

    #[test]
    fn per_message_overhead_scales() {
        let m = LatencyModel::lan();
        let one = m.transfer_time(0, 1);
        let ten = m.transfer_time(0, 10);
        assert_eq!(ten, one * 10);
    }

    #[test]
    fn message_counts_above_u32_max_no_longer_truncate() {
        let m = LatencyModel::lan();
        // The old `messages as u32` cast wrapped this to 1 message.
        let wrapped = m.transfer_time(0, u64::from(u32::MAX) + 2);
        let one = m.transfer_time(0, 1);
        assert!(wrapped > one * 1_000_000);
        // Exact: (2^32 + 1) * 200 µs.
        let expected_ns = (u128::from(u32::MAX) + 2) * 200_000;
        assert_eq!(wrapped.as_nanos(), expected_ns);
    }

    #[test]
    fn extreme_inputs_saturate_instead_of_panicking() {
        let m = LatencyModel::wan();
        // 20 ms × 2⁶⁴ messages ≈ 3.7e17 s: huge but representable, and
        // it must not wrap or panic on the way there.
        let t = m.transfer_time(u64::MAX, u64::MAX);
        assert!(t > Duration::from_secs(1 << 57));
        let slow = LatencyModel {
            per_message: Duration::MAX,
            ns_per_byte: 0.0,
        };
        // Duration::MAX * 2 would panic under Mul<u32>.
        assert_eq!(slow.transfer_time(0, 2), Duration::MAX);
    }

    #[test]
    fn sampled_transfer_time_is_bounded_and_stream_stable() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;

        let m = LatencyModel::lan();
        let base = m.transfer_time(4096, 1);
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..64 {
            let t = m.sample_transfer_time(4096, 1, 0.25, &mut rng);
            assert!(t >= base.mul_f64(0.74) && t <= base.mul_f64(1.26), "{t:?}");
        }

        // Zero jitter: exact base time, but the stream still advances —
        // the same number of draws regardless of the jitter knob.
        let mut a = StdRng::seed_from_u64(9);
        let mut b = StdRng::seed_from_u64(9);
        for _ in 0..8 {
            assert_eq!(
                m.sample_transfer_time(100, 1, 0.0, &mut a),
                m.transfer_time(100, 1)
            );
            let _ = m.sample_transfer_time(100, 1, 0.9, &mut b);
        }
        assert_eq!(a.next_u64(), b.next_u64());

        // Degenerate jitter values are clamped, not propagated.
        let mut rng = StdRng::seed_from_u64(3);
        for bad in [f64::NAN, -3.0, 17.0] {
            let t = m.sample_transfer_time(100, 1, bad, &mut rng);
            assert!(t <= m.transfer_time(100, 1) * 2);
        }
    }

    #[test]
    fn degenerate_ns_per_byte_contributes_nothing() {
        for bad in [f64::NAN, -8.0, f64::NEG_INFINITY] {
            let m = LatencyModel {
                per_message: Duration::from_micros(200),
                ns_per_byte: bad,
            };
            assert_eq!(m.transfer_time(1 << 20, 1), Duration::from_micros(200));
        }
    }
}
