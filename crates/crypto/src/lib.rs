//! Cryptographic primitives for the PISA reproduction.
//!
//! Everything PISA's protocol needs, built on [`pisa_bigint`]:
//!
//! * [`paillier`] — the Paillier cryptosystem with the homomorphic
//!   operations of the paper's Figure 2 (⊕ addition, ⊖ subtraction,
//!   ⊗ scalar multiplication) plus re-randomization and CRT decryption.
//! * [`sha256`] — FIPS 180-4 SHA-256, the hash underlying license
//!   signatures.
//! * [`rsa`] — RSA full-domain-hash signatures used for transmission
//!   permission licenses (§IV-B step 2 of the paper).
//! * [`blind`] — sampling of the one-time blinding factors ε, α, β, η of
//!   equations (14) and (17).
//!
//! # Examples
//!
//! ```
//! use pisa_crypto::paillier::PaillierKeyPair;
//! use pisa_bigint::Ibig;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(1);
//! let keys = PaillierKeyPair::generate(&mut rng, 256);
//! let c1 = keys.public().encrypt(&Ibig::from(20i64), &mut rng);
//! let c2 = keys.public().encrypt(&Ibig::from(22i64), &mut rng);
//! let sum = keys.public().add(&c1, &c2);
//! assert_eq!(keys.secret().decrypt(&sum), Ibig::from(42i64));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Records one crypto operation in the observability layer when the
/// `obs` feature is on; compiles to nothing otherwise, so the hot
/// paths carry zero cost in un-instrumented builds.
#[cfg(feature = "obs")]
macro_rules! obs_count {
    ($op:ident) => {
        pisa_obs::count(pisa_obs::Op::$op)
    };
    ($op:ident, $n:expr) => {
        pisa_obs::count_n(pisa_obs::Op::$op, $n as u64)
    };
}

/// Records one crypto operation (or `n` of them) in the observability
/// layer when the `obs` feature is on; compiles to nothing otherwise.
#[cfg(not(feature = "obs"))]
macro_rules! obs_count {
    ($op:ident) => {};
    ($op:ident, $n:expr) => {};
}

pub mod blind;
mod error;
pub mod paillier;
pub mod rsa;
pub mod sha256;

pub use error::CryptoError;

use pisa_bigint::Ubig;

/// `a⁻¹ mod m`: one divsteps inversion, counted.
pub(crate) fn invert(a: &Ubig, m: &Ubig) -> Option<Ubig> {
    obs_count!(Inversion);
    pisa_bigint::modular::mod_inverse(a, m)
}

/// Whether `gcd(a, b) = 1`: one divsteps gcd, counted.
pub(crate) fn coprime(a: &Ubig, b: &Ubig) -> bool {
    obs_count!(Gcd);
    pisa_bigint::modular::gcd(a, b).is_one()
}
