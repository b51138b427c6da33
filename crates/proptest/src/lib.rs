//! A minimal, offline, API-compatible subset of the `proptest` crate.
//!
//! The container this repository builds in has no access to crates.io, so
//! the real `proptest` cannot be fetched. This vendored shim implements
//! exactly the surface the workspace's property tests use:
//!
//! * strategies: numeric `Range`s, `any::<T>()`, tuples of strategies and
//!   `prop::collection::vec(elem, len_range)`;
//! * the [`proptest!`] macro with optional
//!   `#![proptest_config(ProptestConfig::with_cases(n))]`;
//! * [`prop_assert!`], [`prop_assert_eq!`], [`prop_assume!`] and
//!   [`test_runner::TestCaseError`].
//!
//! Unlike the real crate there is **no shrinking**: a failing case reports
//! the sampled inputs (everything is `Debug`) and the deterministic seed,
//! which is enough to reproduce it. Case generation is deterministic per
//! (test name, case index), so failures are stable across runs.

#![forbid(unsafe_code)]

use std::ops::Range;

/// Test-runner types: configuration and case-level error signalling.
pub mod test_runner {
    /// Runner configuration. Only `cases` is honoured.
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        /// Number of random cases to run per property.
        pub cases: u32,
    }

    impl ProptestConfig {
        /// A configuration running `cases` cases.
        pub fn with_cases(cases: u32) -> ProptestConfig {
            ProptestConfig { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> ProptestConfig {
            ProptestConfig { cases: 256 }
        }
    }

    /// Why a single test case did not pass.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum TestCaseError {
        /// The property is false for these inputs.
        Fail(String),
        /// The inputs do not satisfy a `prop_assume!` precondition.
        Reject(String),
    }

    impl TestCaseError {
        /// A failure with the given reason.
        pub fn fail(reason: impl Into<String>) -> TestCaseError {
            TestCaseError::Fail(reason.into())
        }

        /// A rejection (filtered case) with the given reason.
        pub fn reject(reason: impl Into<String>) -> TestCaseError {
            TestCaseError::Reject(reason.into())
        }
    }

    impl std::fmt::Display for TestCaseError {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            match self {
                TestCaseError::Fail(r) => write!(f, "property failed: {r}"),
                TestCaseError::Reject(r) => write!(f, "case rejected: {r}"),
            }
        }
    }

    /// Deterministic generator handed to strategies (splitmix64 core).
    #[derive(Debug, Clone)]
    pub struct Gen {
        state: u64,
    }

    impl Gen {
        /// A generator seeded deterministically.
        pub fn new(seed: u64) -> Gen {
            Gen {
                state: seed ^ 0x9E37_79B9_7F4A_7C15,
            }
        }

        /// Next raw 64 random bits.
        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// Uniform in `[0, bound)`; `bound` must be non-zero.
        pub fn below(&mut self, bound: u64) -> u64 {
            // Multiply-shift; bias is negligible for test-input purposes.
            ((self.next_u64() as u128 * bound as u128) >> 64) as u64
        }

        /// Uniform in `[0, 1)`.
        pub fn unit_f64(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
        }
    }
}

/// The strategy abstraction: how to sample a value of some type.
pub mod strategy {
    use super::test_runner::Gen;

    /// A source of random values of type `Self::Value`.
    pub trait Strategy {
        /// The type of value this strategy produces.
        type Value;
        /// Samples one value.
        fn sample(&self, gen: &mut Gen) -> Self::Value;
    }

    impl<S: Strategy + ?Sized> Strategy for &S {
        type Value = S::Value;
        fn sample(&self, gen: &mut Gen) -> Self::Value {
            (**self).sample(gen)
        }
    }
}

use strategy::Strategy;
use test_runner::Gen;

macro_rules! int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn sample(&self, gen: &mut Gen) -> $t {
                assert!(self.start < self.end, "empty strategy range");
                let span = (self.end as i128 - self.start as i128) as u64;
                (self.start as i128 + gen.below(span) as i128) as $t
            }
        }
    )*};
}
int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Strategy for Range<f64> {
    type Value = f64;
    fn sample(&self, gen: &mut Gen) -> f64 {
        assert!(self.start < self.end, "empty strategy range");
        self.start + gen.unit_f64() * (self.end - self.start)
    }
}

impl Strategy for Range<f32> {
    type Value = f32;
    fn sample(&self, gen: &mut Gen) -> f32 {
        assert!(self.start < self.end, "empty strategy range");
        self.start + (gen.unit_f64() as f32) * (self.end - self.start)
    }
}

macro_rules! tuple_strategy {
    ($(($($name:ident : $idx:tt),+))*) => {$(
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            fn sample(&self, gen: &mut Gen) -> Self::Value {
                ($(self.$idx.sample(gen),)+)
            }
        }
    )*};
}
tuple_strategy! {
    (A: 0, B: 1)
    (A: 0, B: 1, C: 2)
    (A: 0, B: 1, C: 2, D: 3)
}

/// Types with a canonical "any value" strategy.
pub trait Arbitrary: Sized {
    /// Samples an arbitrary value of the type.
    fn arbitrary(gen: &mut Gen) -> Self;
}

macro_rules! int_arbitrary {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(gen: &mut Gen) -> $t {
                gen.next_u64() as $t
            }
        }
    )*};
}
int_arbitrary!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary(gen: &mut Gen) -> bool {
        gen.next_u64() & 1 == 1
    }
}

/// Strategy adapter for [`Arbitrary`] types; build with [`any`].
pub struct Any<T>(std::marker::PhantomData<T>);

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn sample(&self, gen: &mut Gen) -> T {
        T::arbitrary(gen)
    }
}

/// The strategy producing any value of `T`.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(std::marker::PhantomData)
}

/// The `prop::` namespace (collections etc.), mirroring real proptest.
pub mod prop {
    /// Collection strategies.
    pub mod collection {
        use crate::strategy::Strategy;
        use crate::test_runner::Gen;
        use std::ops::Range;

        /// Strategy for `Vec<E::Value>` with a length drawn from `len`.
        pub struct VecStrategy<E> {
            elem: E,
            len: Range<usize>,
        }

        impl<E: Strategy> Strategy for VecStrategy<E> {
            type Value = Vec<E::Value>;
            fn sample(&self, gen: &mut Gen) -> Self::Value {
                let n = self.len.clone().sample(gen);
                (0..n).map(|_| self.elem.sample(gen)).collect()
            }
        }

        /// A vector strategy: elements from `elem`, length in `len`.
        pub fn vec<E: Strategy>(elem: E, len: Range<usize>) -> VecStrategy<E> {
            VecStrategy { elem, len }
        }
    }
}

/// Everything a property-test file needs in scope.
pub mod prelude {
    pub use crate::prop;
    pub use crate::strategy::Strategy;
    pub use crate::test_runner::{ProptestConfig, TestCaseError};
    pub use crate::{any, Arbitrary};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest};
}

/// Fails the current case unless `cond` holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::core::result::Result::Err(
                $crate::test_runner::TestCaseError::fail(format!($($fmt)*)),
            );
        }
    };
}

/// Fails the current case unless the operands are equal.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l == *r,
            "assertion failed: {} == {}\n  left: {:?}\n right: {:?}",
            stringify!($left), stringify!($right), l, r
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l == *r,
            "{}\n  left: {:?}\n right: {:?}",
            format!($($fmt)*), l, r
        );
    }};
}

/// Fails the current case if the operands are equal.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l != *r,
            "assertion failed: {} != {}\n  both: {:?}",
            stringify!($left),
            stringify!($right),
            l
        );
    }};
}

/// Rejects the current case (it does not satisfy a precondition).
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::reject(
                concat!("assumption failed: ", stringify!($cond)),
            ));
        }
    };
}

/// Declares property tests. See the crate docs for supported syntax.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { cfg = { $cfg }; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! {
            cfg = { $crate::test_runner::ProptestConfig::default() };
            $($rest)*
        }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (cfg = { $cfg:expr };
     $($(#[$meta:meta])*
       fn $name:ident($($arg:ident in $strat:expr),* $(,)?) $body:block)*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::test_runner::ProptestConfig = $cfg;
                // Seed from the test path so each property explores its own
                // deterministic sequence.
                let base: u64 = {
                    let name = concat!(module_path!(), "::", stringify!($name));
                    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
                    for b in name.bytes() {
                        h ^= b as u64;
                        h = h.wrapping_mul(0x100_0000_01b3);
                    }
                    h
                };
                let mut rejected: u32 = 0;
                let mut case: u64 = 0;
                let mut passed: u32 = 0;
                while passed < config.cases {
                    if rejected > config.cases * 16 {
                        panic!(
                            "proptest {}: too many rejected cases ({rejected})",
                            stringify!($name)
                        );
                    }
                    let mut gen =
                        $crate::test_runner::Gen::new(base.wrapping_add(case));
                    case += 1;
                    $(let $arg =
                        $crate::strategy::Strategy::sample(&($strat), &mut gen);)*
                    let outcome: ::core::result::Result<
                        (),
                        $crate::test_runner::TestCaseError,
                    > = (|| { $body ::core::result::Result::Ok(()) })();
                    match outcome {
                        ::core::result::Result::Ok(()) => passed += 1,
                        ::core::result::Result::Err(
                            $crate::test_runner::TestCaseError::Reject(_),
                        ) => rejected += 1,
                        ::core::result::Result::Err(
                            $crate::test_runner::TestCaseError::Fail(reason),
                        ) => {
                            panic!(
                                "proptest {} failed at case {} (seed {:#x}): {}\n  inputs:{}",
                                stringify!($name),
                                case - 1,
                                base.wrapping_add(case - 1),
                                reason,
                                {
                                    let mut s = String::new();
                                    $(s.push_str(&format!(
                                        "\n    {} = {:?}",
                                        stringify!($arg), $arg
                                    ));)*
                                    s
                                },
                            );
                        }
                    }
                }
            }
        )*
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_in_bounds(x in 3u64..17, y in -5i32..5, f in 0.25f64..0.75) {
            prop_assert!((3..17).contains(&x));
            prop_assert!((-5..5).contains(&y));
            prop_assert!((0.25..0.75).contains(&f));
        }

        #[test]
        fn vectors_respect_length(v in prop::collection::vec(0u64..10, 2..6)) {
            prop_assert!(v.len() >= 2 && v.len() < 6);
            prop_assert!(v.iter().all(|&e| e < 10));
        }

        #[test]
        fn tuples_and_any(pair in (0u64..4, 0u64..4), raw in any::<u64>()) {
            prop_assert!(pair.0 < 4 && pair.1 < 4);
            let _ = raw; // any value is acceptable
        }

        #[test]
        fn assume_filters(x in 0u64..100) {
            prop_assume!(x % 2 == 0);
            prop_assert_eq!(x % 2, 0);
            prop_assert_ne!(x % 2, 1);
        }
    }

    #[test]
    fn sampling_is_deterministic() {
        use crate::strategy::Strategy;
        let mut a = crate::test_runner::Gen::new(42);
        let mut b = crate::test_runner::Gen::new(42);
        let s = 0u64..1_000_000;
        for _ in 0..100 {
            assert_eq!(s.sample(&mut a), s.sample(&mut b));
        }
    }

    #[test]
    #[should_panic(expected = "proptest")]
    fn failures_panic_with_inputs() {
        proptest! {
            #![proptest_config(ProptestConfig::with_cases(4))]
            #[allow(unused)]
            fn inner(x in 0u64..10) {
                prop_assert!(x > 100, "impossible bound");
            }
        }
        inner();
    }
}
