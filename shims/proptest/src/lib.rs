//! Offline stand-in for `proptest`: a deterministic mini
//! property-testing runner exposing the subset of the real crate this
//! workspace uses — range/tuple/collection/option strategies,
//! `prop_map`/`prop_filter`, `any::<T>()`, `ProptestConfig::with_cases`,
//! and the `proptest!`/`prop_assert*`/`prop_assume!` macros.
//!
//! Differences from real proptest, on purpose:
//! - no shrinking — a failing case reports its case number and message;
//! - a fixed RNG seed, so every run explores the same cases (this also
//!   makes the chaos/property suites reproducible in CI);
//! - binders in `proptest!` are plain identifiers, which is all the
//!   in-tree tests use.

/// Runner configuration and failure plumbing.
pub mod test_runner {
    use rand::{RngCore, SeedableRng};

    /// How a generated case opted out of counting as a pass.
    #[derive(Debug, Clone)]
    pub enum TestCaseError {
        /// `prop_assume!` rejected the inputs; the case is retried.
        Reject(String),
        /// A `prop_assert*` failed; the test aborts.
        Fail(String),
    }

    /// Runner options; only `cases` is honoured.
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        /// Number of accepted cases each property must pass.
        pub cases: u32,
    }

    impl ProptestConfig {
        /// A config running `cases` accepted cases.
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            ProptestConfig { cases: 256 }
        }
    }

    /// The deterministic source of randomness handed to strategies.
    pub struct TestRng {
        inner: rand::rngs::StdRng,
    }

    impl TestRng {
        /// Fixed-seed RNG: every `cargo test` run explores the same cases.
        pub fn deterministic() -> Self {
            TestRng {
                inner: rand::rngs::StdRng::seed_from_u64(0x5eed_cafe_f00d_0001),
            }
        }

        /// Next raw 64 random bits.
        pub fn next_u64(&mut self) -> u64 {
            self.inner.next_u64()
        }
    }
}

/// Value-generation strategies.
pub mod strategy {
    use crate::test_runner::TestRng;

    /// A recipe for generating random values of one type.
    pub trait Strategy {
        /// The generated type.
        type Value;

        /// Draws one value.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        /// Post-processes generated values with `f`.
        fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
        {
            Map { source: self, f }
        }

        /// Rejects values failing `keep`, retrying (bounded) until one
        /// passes. `whence` names the filter in exhaustion panics.
        fn prop_filter<F: Fn(&Self::Value) -> bool>(
            self,
            whence: impl Into<String>,
            keep: F,
        ) -> Filter<Self, F>
        where
            Self: Sized,
        {
            Filter {
                source: self,
                whence: whence.into(),
                keep,
            }
        }
    }

    /// Always produces a clone of one value.
    #[derive(Debug, Clone)]
    pub struct Just<T>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// See [`Strategy::prop_map`].
    pub struct Map<S, F> {
        source: S,
        f: F,
    }

    impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
        type Value = O;
        fn generate(&self, rng: &mut TestRng) -> O {
            (self.f)(self.source.generate(rng))
        }
    }

    /// See [`Strategy::prop_filter`].
    pub struct Filter<S, F> {
        source: S,
        whence: String,
        keep: F,
    }

    impl<S: Strategy, F: Fn(&S::Value) -> bool> Strategy for Filter<S, F> {
        type Value = S::Value;
        fn generate(&self, rng: &mut TestRng) -> S::Value {
            for _ in 0..10_000 {
                let candidate = self.source.generate(rng);
                if (self.keep)(&candidate) {
                    return candidate;
                }
            }
            panic!("prop_filter '{}' rejected 10000 candidates", self.whence);
        }
    }

    macro_rules! int_range_strategy {
        ($($t:ty),* $(,)?) => {$(
            impl Strategy for core::ops::Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end as i128 - self.start as i128) as u128;
                    let off = (rng.next_u64() as u128) % span;
                    (self.start as i128 + off as i128) as $t
                }
            }
        )*};
    }

    int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Strategy for core::ops::Range<f64> {
        type Value = f64;
        fn generate(&self, rng: &mut TestRng) -> f64 {
            // 53 uniform mantissa bits in [0, 1).
            let frac = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
            self.start + (self.end - self.start) * frac
        }
    }

    macro_rules! tuple_strategy {
        ($(($($s:ident . $idx:tt),+)),* $(,)?) => {$(
            impl<$($s: Strategy),+> Strategy for ($($s,)+) {
                type Value = ($($s::Value,)+);
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$idx.generate(rng),)+)
                }
            }
        )*};
    }

    tuple_strategy!(
        (A.0, B.1),
        (A.0, B.1, C.2),
        (A.0, B.1, C.2, D.3),
        (A.0, B.1, C.2, D.3, E.4),
    );
}

/// `any::<T>()` — full-domain strategies for primitives.
pub mod arbitrary {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::marker::PhantomData;

    /// Types with a canonical full-domain strategy.
    pub trait Arbitrary: Sized {
        /// Draws an unconstrained value.
        fn arbitrary_value(rng: &mut TestRng) -> Self;
    }

    /// Strategy over the whole domain of `T`.
    pub struct AnyStrategy<T>(PhantomData<T>);

    impl<T: Arbitrary> Strategy for AnyStrategy<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            T::arbitrary_value(rng)
        }
    }

    /// The full-domain strategy for `T`.
    pub fn any<T: Arbitrary>() -> AnyStrategy<T> {
        AnyStrategy(PhantomData)
    }

    macro_rules! arbitrary_int {
        ($($t:ty),* $(,)?) => {$(
            impl Arbitrary for $t {
                fn arbitrary_value(rng: &mut TestRng) -> $t {
                    rng.next_u64() as $t
                }
            }
        )*};
    }

    arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Arbitrary for bool {
        fn arbitrary_value(rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }
}

/// Collection strategies.
pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Generates `Vec`s with lengths drawn from `size`.
    pub fn vec<S: Strategy>(element: S, size: core::ops::Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, size }
    }

    /// See [`vec()`].
    pub struct VecStrategy<S> {
        element: S,
        size: core::ops::Range<usize>,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = self.size.generate(rng);
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// `Option` strategies.
pub mod option {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Generates `None` about a quarter of the time, `Some` otherwise.
    pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
        OptionStrategy { inner }
    }

    /// See [`of`].
    pub struct OptionStrategy<S> {
        inner: S,
    }

    impl<S: Strategy> Strategy for OptionStrategy<S> {
        type Value = Option<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Option<S::Value> {
            if rng.next_u64().is_multiple_of(4) {
                None
            } else {
                Some(self.inner.generate(rng))
            }
        }
    }
}

/// The glob-import surface mirroring `proptest::prelude::*`.
pub mod prelude {
    pub use crate::arbitrary::any;
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest};
}

/// Defines `#[test]` functions whose arguments are drawn from
/// strategies: `fn name(binder in strategy, ...) { body }`.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest!(@cfg ($cfg) $($rest)*);
    };
    (@cfg ($cfg:expr) $(
        $(#[$meta:meta])*
        fn $name:ident($($binder:ident in $strat:expr),* $(,)?) $body:block
    )*) => {$(
        $(#[$meta])*
        #[test]
        fn $name() {
            let config: $crate::test_runner::ProptestConfig = $cfg;
            let mut rng = $crate::test_runner::TestRng::deterministic();
            let mut accepted: u32 = 0;
            let mut rejected: u32 = 0;
            while accepted < config.cases {
                $(let $binder = $crate::strategy::Strategy::generate(&($strat), &mut rng);)*
                let outcome: ::core::result::Result<(), $crate::test_runner::TestCaseError> =
                    (|| {
                        $body
                        ::core::result::Result::Ok(())
                    })();
                match outcome {
                    ::core::result::Result::Ok(()) => accepted += 1,
                    ::core::result::Result::Err($crate::test_runner::TestCaseError::Reject(why)) => {
                        rejected += 1;
                        assert!(
                            rejected < config.cases.saturating_mul(64).max(4096),
                            "property '{}': too many rejected cases ({rejected}): {why}",
                            stringify!($name),
                        );
                    }
                    ::core::result::Result::Err($crate::test_runner::TestCaseError::Fail(msg)) => {
                        panic!(
                            "property '{}' failed at case {accepted}: {msg}",
                            stringify!($name),
                        );
                    }
                }
            }
        }
    )*};
    ($($rest:tt)*) => {
        $crate::proptest!(@cfg ($crate::test_runner::ProptestConfig::default()) $($rest)*);
    };
}

/// Fails the current property case unless `cond` holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        if !($cond) {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::Fail(
                concat!("assertion failed: ", stringify!($cond)).to_string(),
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::Fail(
                format!($($fmt)+),
            ));
        }
    };
}

/// Fails the current property case unless the operands compare equal.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (left, right) = (&$left, &$right);
        if !(*left == *right) {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::Fail(format!(
                "assertion failed: `left == right`\n  left: `{left:?}`\n right: `{right:?}`",
            )));
        }
    }};
}

/// Fails the current property case if the operands compare equal.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (left, right) = (&$left, &$right);
        if *left == *right {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::Fail(format!(
                "assertion failed: `left != right`\n  both: `{left:?}`",
            )));
        }
    }};
}

/// Discards the current case (retried, not failed) unless `cond` holds.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(,)?) => {
        if !($cond) {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::Reject(
                stringify!($cond).to_string(),
            ));
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn ranges_respect_bounds() {
        let mut rng = crate::test_runner::TestRng::deterministic();
        for _ in 0..200 {
            let v = (3usize..17).generate(&mut rng);
            assert!((3..17).contains(&v));
            let f = (1.5f64..2.5).generate(&mut rng);
            assert!((1.5..2.5).contains(&f));
        }
    }

    #[test]
    fn deterministic_between_runs() {
        let draw = || {
            let mut rng = crate::test_runner::TestRng::deterministic();
            (0..32)
                .map(|_| any::<u64>().generate(&mut rng))
                .collect::<Vec<_>>()
        };
        assert_eq!(draw(), draw());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        fn macro_binders_work(a in 0u64..100, b in any::<u8>()) {
            prop_assert!(a < 100);
            let _ = b;
        }

        fn assume_rejects_cases(v in 0u32..10) {
            prop_assume!(v % 2 == 0);
            prop_assert_eq!(v % 2, 0);
            prop_assert_ne!(v % 2, 1);
        }

        fn vec_and_option_compose(
            items in crate::collection::vec((0u8..4, crate::option::of(1u8..3)), 0..8),
        ) {
            prop_assert!(items.len() < 8);
            for (a, b) in items {
                prop_assert!(a < 4);
                if let Some(b) = b {
                    prop_assert!(b == 1 || b == 2);
                }
            }
        }
    }
}
