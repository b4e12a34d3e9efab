//! Minimal, dependency-free stand-in for the parts of `proptest` this
//! workspace uses (see `crates/compat/README.md`). Property tests sample
//! deterministically — the RNG is seeded from the test's name — and run a
//! configurable number of cases. There is no shrinking: a failing case
//! panics with the ordinary assertion message.

use std::marker::PhantomData;
use std::ops::{Range, RangeInclusive};

pub mod test_runner {
    //! The deterministic case generator behind [`crate::proptest!`].

    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    /// RNG handed to strategies; seeded from the test name so every run of a
    /// given test replays the same cases.
    pub struct TestRng(StdRng);

    impl TestRng {
        pub fn from_name(name: &str) -> Self {
            // FNV-1a over the name: stable across runs and platforms.
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for b in name.bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
            TestRng(StdRng::seed_from_u64(h))
        }
    }

    impl RngCore for TestRng {
        fn next_u64(&mut self) -> u64 {
            self.0.next_u64()
        }
    }
}

use test_runner::TestRng;

/// Subset of proptest's run configuration.
#[derive(Clone, Debug)]
pub struct ProptestConfig {
    /// Number of cases each property runs.
    pub cases: u32,
}

impl ProptestConfig {
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 64 }
    }
}

/// A recipe for producing random values.
pub trait Strategy {
    type Value;

    /// Draw one value.
    fn sample(&self, rng: &mut TestRng) -> Self::Value;

    /// Transform drawn values.
    fn prop_map<U, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> U,
    {
        Map { inner: self, f }
    }
}

/// Output of [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
    type Value = U;

    fn sample(&self, rng: &mut TestRng) -> U {
        (self.f)(self.inner.sample(rng))
    }
}

/// Types with a canonical "any value" strategy.
pub trait Arbitrary: Sized {
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! impl_arbitrary_via_standard {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> Self {
                rand::Rng::gen(rng)
            }
        }
    )*};
}

impl_arbitrary_via_standard!(bool, u32, u64, f64);

/// Strategy returned by [`any`].
pub struct Any<T>(PhantomData<T>);

/// The canonical strategy for `T` (used for `name: Type` proptest params).
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(PhantomData)
}

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;

    fn sample(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;

            fn sample(&self, rng: &mut TestRng) -> $t {
                rand::Rng::gen_range(rng, self.clone())
            }
        }
    )*};
}

impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f64);

macro_rules! impl_range_inclusive_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;

            fn sample(&self, rng: &mut TestRng) -> $t {
                rand::Rng::gen_range(rng, self.clone())
            }
        }
    )*};
}

impl_range_inclusive_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Strategy for RangeInclusive<f64> {
    type Value = f64;

    fn sample(&self, rng: &mut TestRng) -> f64 {
        let (lo, hi) = (*self.start(), *self.end());
        assert!(lo <= hi, "empty range strategy");
        // Scale a 53-bit draw onto [lo, hi], hitting both endpoints.
        let max = ((1u64 << 53) - 1) as f64;
        let unit = (rand::RngCore::next_u64(rng) >> 11) as f64 / max;
        lo + unit * (hi - lo)
    }
}

pub mod collection {
    //! Collection strategies.

    use super::{Strategy, TestRng};

    /// A `Vec` of exactly `len` draws from `element`.
    pub fn vec<S: Strategy>(element: S, len: usize) -> VecStrategy<S> {
        VecStrategy { element, len }
    }

    /// Output of [`vec()`].
    pub struct VecStrategy<S> {
        element: S,
        len: usize,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
            (0..self.len).map(|_| self.element.sample(rng)).collect()
        }
    }
}

pub mod prelude {
    //! Everything a property test needs, one `use` away.

    pub use crate::{any, Arbitrary, ProptestConfig, Strategy};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest};

    pub mod prop {
        //! Mirror of proptest's `prelude::prop` namespace.
        pub use crate::collection;
    }
}

/// Assert inside a property (panics; no shrinking in this shim).
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// Skip the current case when its precondition fails. Expands to `continue`
/// on the case loop, so it must appear directly in the property body (not in
/// a nested loop) — true for every use in this workspace.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            continue;
        }
    };
}

/// Assert equality inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

/// Assert inequality inside a property.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($tt:tt)*) => { assert_ne!($($tt)*) };
}

/// Define property tests. Supports the forms this workspace uses:
///
/// ```ignore
/// proptest! {
///     #![proptest_config(ProptestConfig::with_cases(48))]
///
///     #[test]
///     fn prop(x in 0u32..10, flag: bool) { prop_assert!(x < 10 || flag); }
/// }
/// ```
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_items! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items! { ($crate::ProptestConfig::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    (($cfg:expr)) => {};
    (($cfg:expr)
     $(#[$meta:meta])*
     fn $name:ident($($args:tt)*) $body:block
     $($rest:tt)*) => {
        $(#[$meta])*
        fn $name() {
            let __cfg: $crate::ProptestConfig = $cfg;
            let mut __rng =
                $crate::test_runner::TestRng::from_name(concat!(module_path!(), "::", stringify!($name)));
            for __case in 0..__cfg.cases {
                $crate::__proptest_bind! { __rng, $($args)* }
                $body
            }
        }
        $crate::__proptest_items! { ($cfg) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_bind {
    ($rng:ident $(,)?) => {};
    ($rng:ident, $pat:pat_param in $strategy:expr $(, $($rest:tt)*)?) => {
        let $pat = $crate::Strategy::sample(&($strategy), &mut $rng);
        $crate::__proptest_bind! { $rng $(, $($rest)*)? }
    };
    ($rng:ident, $var:ident : $ty:ty $(, $($rest:tt)*)?) => {
        let $var: $ty = $crate::Strategy::sample(&$crate::any::<$ty>(), &mut $rng);
        $crate::__proptest_bind! { $rng $(, $($rest)*)? }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Mixed binding forms all work.
        #[test]
        fn bindings(x in 1u32..10, v in prop::collection::vec(any::<bool>(), 4), flag: bool) {
            prop_assert!((1..10).contains(&x));
            prop_assert_eq!(v.len(), 4);
            let _ = flag;
        }

        #[test]
        fn mapped(total in (0u64..100).prop_map(|n| n * 2)) {
            prop_assert!(total % 2 == 0 && total < 200);
        }
    }
}
