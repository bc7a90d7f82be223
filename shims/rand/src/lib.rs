//! Offline stand-in for the `rand` crate.
//!
//! The build environment has no access to crates.io, so this shim
//! provides the exact API subset the workspace uses: the [`Rng`] /
//! [`RngCore`] / [`SeedableRng`] traits, a deterministic [`rngs::StdRng`]
//! (xoshiro256++ seeded via splitmix64), and the [`rng()`] entropy
//! constructor. Statistical quality is ample for simulation and
//! Miller–Rabin witnesses; it is NOT a cryptographically secure
//! generator and must be swapped for the real `rand`/`getrandom` stack
//! before any production deployment.

/// Core random-number generation interface.
pub trait RngCore {
    /// Next 32 uniform bits.
    fn next_u32(&mut self) -> u32;
    /// Next 64 uniform bits.
    fn next_u64(&mut self) -> u64;
    /// Fills `dest` with uniform bytes.
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        let mut chunks = dest.chunks_exact_mut(8);
        for chunk in &mut chunks {
            chunk.copy_from_slice(&self.next_u64().to_le_bytes());
        }
        let rem = chunks.into_remainder();
        if !rem.is_empty() {
            let bytes = self.next_u64().to_le_bytes();
            rem.copy_from_slice(&bytes[..rem.len()]);
        }
    }
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u32(&mut self) -> u32 {
        (**self).next_u32()
    }
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        (**self).fill_bytes(dest)
    }
}

/// User-facing generator trait (alias surface of the real crate).
pub trait Rng: RngCore {}
impl<R: RngCore + ?Sized> Rng for R {}

/// Generators constructible from seeds.
pub trait SeedableRng: Sized {
    /// Builds a generator from a 64-bit seed (deterministic).
    fn seed_from_u64(state: u64) -> Self;
}

/// A fresh generator seeded from ambient entropy (hasher randomness +
/// monotonic clock). Use [`SeedableRng::seed_from_u64`] for
/// reproducibility.
pub fn rng() -> rngs::StdRng {
    use std::collections::hash_map::RandomState;
    use std::hash::{BuildHasher, Hasher};
    let mut h = RandomState::new().build_hasher();
    h.write_u64(
        std::time::UNIX_EPOCH
            .elapsed()
            .map_or(0, |d| d.as_nanos() as u64),
    );
    <rngs::StdRng as SeedableRng>::seed_from_u64(h.finish())
}

/// Concrete generator types.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// Deterministic xoshiro256++ generator (the shim's "standard" RNG).
    #[derive(Debug, Clone)]
    pub struct StdRng {
        s: [u64; 4],
    }

    #[inline]
    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(mut state: u64) -> Self {
            let s = [
                splitmix64(&mut state),
                splitmix64(&mut state),
                splitmix64(&mut state),
                splitmix64(&mut state),
            ];
            StdRng { s }
        }
    }

    impl RngCore for StdRng {
        fn next_u32(&mut self) -> u32 {
            (self.next_u64() >> 32) as u32
        }

        fn next_u64(&mut self) -> u64 {
            let s = &mut self.s;
            let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
            let t = s[1] << 17;
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
            result
        }
    }

    #[cfg(test)]
    mod tests {
        use super::{splitmix64, RngCore, SeedableRng, StdRng};

        /// The first outputs of the reference xoshiro256++ from the
        /// state `{1, 2, 3, 4}`.
        #[test]
        fn xoshiro256plusplus_matches_the_reference_stream() {
            let mut rng = StdRng { s: [1, 2, 3, 4] };
            let expected: [u64; 10] = [
                41943041,
                58720359,
                3588806011781223,
                3591011842654386,
                9228616714210784205,
                9973669472204895162,
                14011001112246962877,
                12406186145184390807,
                15849039046786891736,
                10450023813501588000,
            ];
            for want in expected {
                assert_eq!(rng.next_u64(), want);
            }
        }

        /// The reference splitmix64 stream from state 0, which seeds
        /// every generator (and so every fault stream).
        #[test]
        fn splitmix64_matches_the_reference_stream() {
            let mut state = 0u64;
            let expected: [u64; 4] = [
                0xe220_a839_7b1d_cdaf,
                0x6e78_9e6a_a1b9_65f4,
                0x06c4_5d18_8009_454f,
                0xf88b_b8a8_724c_81ec,
            ];
            for want in expected {
                assert_eq!(splitmix64(&mut state), want);
            }
            let seeded = StdRng::seed_from_u64(0);
            assert_eq!(seeded.s, expected);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{RngCore, SeedableRng};

    #[test]
    fn deterministic_per_seed() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = StdRng::seed_from_u64(8);
        assert_ne!(StdRng::seed_from_u64(7).next_u64(), c.next_u64());
    }

    #[test]
    fn fill_bytes_covers_partial_chunks() {
        let mut r = StdRng::seed_from_u64(1);
        let mut buf = [0u8; 13];
        r.fill_bytes(&mut buf);
        assert!(buf.iter().any(|&b| b != 0));
    }

    #[test]
    fn fill_bytes_is_the_little_endian_word_stream() {
        let (mut words, mut bytes) = (StdRng::seed_from_u64(5), StdRng::seed_from_u64(5));
        let mut buf = [0u8; 21];
        bytes.fill_bytes(&mut buf);
        let expected: Vec<u8> = (0..3)
            .flat_map(|_| words.next_u64().to_le_bytes())
            .collect();
        assert_eq!(buf[..], expected[..21]);
        // A partial chunk still consumes a whole word.
        assert_eq!(bytes.next_u64(), words.next_u64());
    }

    #[test]
    fn next_u32_is_the_high_half_and_clones_fork_the_stream() {
        let mut a = StdRng::seed_from_u64(9);
        let mut b = a.clone();
        assert_eq!(u64::from(a.next_u32()), b.next_u64() >> 32);
        // Through the blanket `&mut R` impl, as generic callers draw.
        fn draw<R: RngCore>(mut rng: R) -> u64 {
            rng.next_u64()
        }
        assert_eq!(draw(&mut a), b.next_u64());
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn bits_look_balanced() {
        let mut r = StdRng::seed_from_u64(42);
        let ones: u32 = (0..1000).map(|_| r.next_u64().count_ones()).sum();
        // 64 000 bits, expect ~32 000 ones.
        assert!((30_000..34_000).contains(&ones), "{ones}");
    }
}
