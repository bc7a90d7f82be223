//! Host-speed calibration.
//!
//! A shared virtual machine runs the same code at different speeds from
//! one minute to the next: neighbours on the same physical cores slow
//! everything at once, by up to half on a 2-vCPU host. To keep that
//! drift out of the end-to-end figures, the benchmark times a fixed
//! reference kernel (a probe) right before and after each unit of
//! measured work, and scales the unit's time to what it would have
//! taken with the probe at [`REFERENCE_MS`].
//!
//! The kernel is plain Rust in this package and calls no code of the
//! program. A change to the program therefore moves the scaled figures
//! in full, while a slower host stretches the work and the probe alike.
//! The kernel is a loop of 64×64-bit multiply-accumulate rows, as in a
//! bignum product. Of the kernels tried on a 2-vCPU host, it tracked
//! the drift of `MontCtx::pow` best (work ÷ probe spread 3× less than
//! the work alone) and that of the simulator nearly as well as a
//! cache-missing table walk, whose own time swung more.

use std::hint::black_box;
use std::time::Instant;

/// Time of one [`Probe::ms`] on the reference host (2 vCPUs of a shared
/// x86-64 machine, while it ran at its faster speed). Only the ratio to
/// it matters: both sides of a comparison are scaled by the same value.
pub const REFERENCE_MS: f64 = 0.8;

/// Limbs of each multiplicand: a 2048-bit operand.
const LIMBS: usize = 32;
/// Products per probe repetition.
const PRODUCTS: usize = 160;
/// Repetitions per probe; the probe is their median.
const REPS: usize = 5;

/// The reference kernel's state.
pub struct Probe {
    state: u64,
}

impl Probe {
    /// A warmed-up probe.
    pub fn new() -> Self {
        let mut p = Probe {
            state: 0x9e37_79b9_7f4a_7c15,
        };
        p.ms();
        p
    }

    /// One repetition: [`PRODUCTS`] schoolbook products.
    fn rep(&mut self) {
        let a: [u64; LIMBS] = std::array::from_fn(|i| self.state.rotate_left(i as u32) | 1);
        let b: [u64; LIMBS] = std::array::from_fn(|i| self.state.rotate_right(i as u32) | 1);
        let mut out = [0u64; 2 * LIMBS];
        for _ in 0..PRODUCTS {
            out.fill(0);
            for (i, &ai) in black_box(&a).iter().enumerate() {
                let mut carry = 0u128;
                for (j, &bj) in black_box(&b).iter().enumerate() {
                    let t = u128::from(ai) * u128::from(bj) + u128::from(out[i + j]) + carry;
                    out[i + j] = t as u64;
                    carry = t >> 64;
                }
                out[i + LIMBS] = carry as u64;
            }
            black_box(&mut out);
        }
        self.state = black_box(self.state ^ out[LIMBS]) | 1;
    }

    /// Runs the kernel [`REPS`] times and returns the median
    /// repetition's time times [`REPS`], in ms.
    pub fn ms(&mut self) -> f64 {
        let mut samples: Vec<f64> = (0..REPS)
            .map(|_| {
                let t = Instant::now();
                self.rep();
                t.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        samples.sort_by(f64::total_cmp);
        samples[REPS / 2] * REPS as f64
    }
}

/// Scales units of work to reference speed by the probes on either side
/// of each.
pub struct Speed {
    probe: Probe,
    last_ms: f64,
}

impl Speed {
    /// Takes the first probe.
    pub fn start() -> Self {
        let mut probe = Probe::new();
        let last_ms = probe.ms();
        Speed { probe, last_ms }
    }

    /// Probes again and returns the factor that scales the work done
    /// since the previous probe to reference speed: below 1 when the
    /// host ran slower than the reference.
    pub fn lap(&mut self) -> f64 {
        let now = self.probe.ms();
        let mean = (self.last_ms + now) / 2.0;
        self.last_ms = now;
        REFERENCE_MS / mean
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probes_take_time_and_laps_scale_by_them() {
        let mut speed = Speed::start();
        assert!(speed.last_ms > 0.0);
        let f = speed.lap();
        assert!(f.is_finite() && f > 0.0, "{f}");
        let probe = speed.last_ms;
        // Two laps in a row share the probe between them.
        let g = speed.lap();
        assert!((REFERENCE_MS / g - (probe + speed.last_ms) / 2.0).abs() < 1e-9);
    }
}
