//! Arbitrary-precision integer arithmetic for the PISA reproduction.
//!
//! The original PISA prototype was built on the GNU MP library. This crate
//! is a from-scratch substitute providing everything the Paillier
//! cryptosystem and RSA signatures need:
//!
//! * [`Ubig`] — unsigned big integers with schoolbook and Karatsuba
//!   multiplication, Knuth Algorithm-D division, shifts and bit operations.
//! * [`Ibig`] — signed big integers (sign–magnitude) used for the
//!   centered-lift plaintext domain of Paillier.
//! * [`modular`] — Montgomery-form modular exponentiation (one power at a
//!   time, or eight that share a modulus and an exponent at once, with
//!   AVX-512 IFMA where the CPU has it), and modular inverses and GCD by
//!   one constant-time divsteps kernel.
//! * [`prime`] — Miller–Rabin testing and random prime generation.
//! * [`random`] — uniform sampling of big integers from any `rand::Rng`.
//!
//! # Examples
//!
//! ```
//! use pisa_bigint::{Ubig, modular};
//!
//! let base = Ubig::from(7u64);
//! let exp = Ubig::from(560u64);
//! let modulus = Ubig::from(561u64); // Carmichael number
//! assert_eq!(modular::mod_pow(&base, &exp, &modulus), Ubig::one());
//! ```

// `deny` rather than `forbid`: two places carry scoped allows. The
// zeroize module needs volatile writes for its drop-wipe
// (#![allow(unsafe_code)]), and the IFMA tiers (`modular/lanes.rs`) call
// their two AVX-512 IFMA kernels only through a token of the runtime
// CPU-feature check (#[allow(unsafe_code)] on the two token methods
// that make those calls).
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod arith;
mod cmp;
mod convert;
mod fmt;
mod ibig;
pub mod modular;
pub mod prime;
pub mod random;
mod ubig;
pub mod zeroize;

pub use convert::ParseUbigError;
pub use ibig::{Ibig, Sign};
pub use ubig::Ubig;

/// Number of bits in one limb of a [`Ubig`].
pub const LIMB_BITS: u32 = 64;
