//! Offline stand-in for the `proptest` crate.
//!
//! The build environment has no access to crates.io, so this workspace ships
//! a dependency-free property-testing harness with the `proptest` surface the
//! Jellyfish reproduction's tests use (see DESIGN.md, substitution 5):
//!
//! * the [`proptest!`] macro with an optional `#![proptest_config(...)]`
//!   header and `arg in strategy` bindings;
//! * strategies: integer and float ranges, [`any`], tuples of strategies, and
//!   [`collection::vec`];
//! * [`prop_assert!`], [`prop_assert_eq!`], [`prop_assume!`].
//!
//! Unlike upstream proptest there is no shrinking: a failing case panics with
//! the assertion message immediately. Case generation is deterministic — the
//! RNG is seeded from the test function's name — so failures reproduce
//! exactly on re-run.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Everything a test module needs: `use proptest::prelude::*;`.
pub mod prelude {
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assume, proptest, ProptestConfig, Strategy,
        TestCaseError, TestRng,
    };
}

/// Harness configuration.
#[derive(Debug, Clone, Copy)]
pub struct ProptestConfig {
    /// Number of accepted cases each property must pass.
    pub cases: u32,
}

impl ProptestConfig {
    /// Config running `cases` accepted cases per property.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 64 }
    }
}

/// Why a generated case did not produce a pass.
#[derive(Debug)]
pub enum TestCaseError {
    /// `prop_assume!` rejected the inputs; the case is re-drawn.
    Reject,
    /// An assertion failed; the test panics with this message.
    Fail(String),
}

/// Deterministic RNG for case generation (SplitMix64).
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Creates an RNG whose stream is a pure function of `name`.
    pub fn deterministic(name: &str) -> Self {
        let mut state = 0xcbf2_9ce4_8422_2325u64;
        for b in name.bytes() {
            state ^= b as u64;
            state = state.wrapping_mul(0x100_0000_01b3);
        }
        TestRng { state }
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// A value generator.
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Draws one value.
    fn sample(&self, rng: &mut TestRng) -> Self::Value;
}

macro_rules! impl_int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for core::ops::Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end - self.start) as u64;
                self.start + rng.below(span) as $t
            }
        }
        impl Strategy for core::ops::RangeInclusive<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range strategy");
                lo + rng.below((hi - lo) as u64 + 1) as $t
            }
        }
    )*};
}

impl_int_range_strategy!(usize, u64, u32, u16, u8);

impl Strategy for core::ops::Range<f64> {
    type Value = f64;
    fn sample(&self, rng: &mut TestRng) -> f64 {
        assert!(self.start < self.end, "empty range strategy");
        self.start + rng.unit_f64() * (self.end - self.start)
    }
}

/// Marker for types [`any`] can generate.
pub trait Arbitrary {
    /// Draws one arbitrary value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

impl Arbitrary for u64 {
    fn arbitrary(rng: &mut TestRng) -> u64 {
        rng.next_u64()
    }
}

impl Arbitrary for u32 {
    fn arbitrary(rng: &mut TestRng) -> u32 {
        (rng.next_u64() >> 32) as u32
    }
}

impl Arbitrary for usize {
    fn arbitrary(rng: &mut TestRng) -> usize {
        rng.next_u64() as usize
    }
}

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

/// Strategy generating any value of `T` (see [`any`]).
pub struct Any<T> {
    _marker: core::marker::PhantomData<T>,
}

/// The `any::<T>()` strategy.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any { _marker: core::marker::PhantomData }
}

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn sample(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

macro_rules! impl_tuple_strategy {
    ($(($($name:ident),+))*) => {$(
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            #[expect(non_snake_case, reason = "the tuple's type parameter names double as its element bindings")]
            fn sample(&self, rng: &mut TestRng) -> Self::Value {
                let ($($name,)+) = self;
                ($($name.sample(rng),)+)
            }
        }
    )*};
}

impl_tuple_strategy! {
    (A, B)
    (A, B, C)
    (A, B, C, D)
}

/// Collection strategies, mirroring `proptest::collection`.
pub mod collection {
    use super::{Strategy, TestRng};

    /// Strategy for `Vec`s with a length drawn from a range.
    pub struct VecStrategy<S> {
        element: S,
        len: core::ops::Range<usize>,
    }

    /// `vec(element_strategy, len_range)`.
    pub fn vec<S: Strategy>(element: S, len: core::ops::Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, len }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = self.len.clone().sample(rng);
            (0..n).map(|_| self.element.sample(rng)).collect()
        }
    }
}

/// Defines property tests. See the crate docs for the supported grammar.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_fns! { @cfg($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_fns! { @cfg($crate::ProptestConfig::default()) $($rest)* }
    };
}

/// Implementation detail of [`proptest!`].
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_fns {
    (@cfg($cfg:expr) $(
        $(#[$meta:meta])*
        fn $name:ident( $($arg:ident in $strat:expr),* $(,)? ) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let config: $crate::ProptestConfig = $cfg;
            let mut rng = $crate::TestRng::deterministic(concat!(module_path!(), "::", stringify!($name)));
            let mut accepted: u32 = 0;
            let mut rejected: u32 = 0;
            while accepted < config.cases {
                $(let $arg = $crate::Strategy::sample(&($strat), &mut rng);)*
                let outcome: ::std::result::Result<(), $crate::TestCaseError> = (move || {
                    $body
                    ::std::result::Result::Ok(())
                })();
                match outcome {
                    ::std::result::Result::Ok(()) => accepted += 1,
                    ::std::result::Result::Err($crate::TestCaseError::Reject) => {
                        rejected += 1;
                        assert!(
                            rejected < config.cases.saturating_mul(64).max(1024),
                            "{}: too many rejected cases ({} accepted)",
                            stringify!($name),
                            accepted
                        );
                    }
                    ::std::result::Result::Err($crate::TestCaseError::Fail(msg)) => {
                        panic!("{} failed after {} passing cases: {}", stringify!($name), accepted, msg);
                    }
                }
            }
        }
    )*};
}

/// Assertion inside a [`proptest!`] body.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::TestCaseError::Fail(format!($($fmt)+)));
        }
    };
}

/// Equality assertion inside a [`proptest!`] body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l == *r,
            "assertion failed: {} == {} (left: {:?}, right: {:?})",
            stringify!($left),
            stringify!($right),
            l,
            r
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(*l == *r, $($fmt)+);
    }};
}

/// Precondition inside a [`proptest!`] body: rejects the case when false.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::TestCaseError::Reject);
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(40))]

        #[test]
        fn ranges_stay_in_bounds(a in 3usize..9, b in 0.0f64..1.0, c in any::<u64>()) {
            prop_assert!((3..9).contains(&a));
            prop_assert!((0.0..1.0).contains(&b));
            let _ = c;
        }

        #[test]
        fn assume_rejects_without_failing(n in 0usize..10) {
            prop_assume!(n >= 5);
            prop_assert!(n >= 5);
        }

        #[test]
        fn tuples_and_vecs(ops in crate::collection::vec((0usize..5, any::<bool>()), 1..20)) {
            prop_assert!(!ops.is_empty() && ops.len() < 20);
            for (v, _flag) in ops {
                prop_assert!(v < 5);
            }
        }
    }

    #[test]
    fn deterministic_rng_streams() {
        let mut a = TestRng::deterministic("x");
        let mut b = TestRng::deterministic("x");
        assert_eq!(a.next_u64(), b.next_u64());
        let mut c = TestRng::deterministic("y");
        assert_ne!(TestRng::deterministic("x").next_u64(), c.next_u64());
    }

    proptest! {
        // Deliberately not marked #[test]: invoked by the should_panic check.
        fn always_fails(n in 0usize..10) {
            prop_assert!(n > 100, "n = {n} is not large");
        }
    }

    #[test]
    #[should_panic(expected = "failed after")]
    fn failing_property_panics() {
        always_fails();
    }
}
