//! Offline stand-in for `proptest`.
//!
//! The registry is unreachable in this build environment, so this shim
//! implements the subset of proptest's API the workspace's property tests
//! use: the [`strategy::Strategy`] trait with `prop_map`, integer-range and
//! tuple strategies, [`arbitrary::any`], [`collection::vec`],
//! [`strategy::Just`], weighted [`prop_oneof!`], and the [`proptest!`] /
//! `prop_assert*` macros driven by a deterministic per-test RNG.
//!
//! Differences from the real crate, by design:
//! * **no shrinking** — a failing case reports its inputs via the assert
//!   message but is not minimized;
//! * **deterministic seeding** — the RNG seed is derived from the test name
//!   (override with `PROPTEST_SEED=<u64>`), so runs are reproducible;
//! * only the `cases` field of [`test_runner::ProptestConfig`] is honored.
//!
//! The test sources compile unchanged against the real crate when a
//! registry is available.

pub mod test_runner {
    /// Runner configuration. Only `cases` is honored by the shim.
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        /// Number of random cases to run per property.
        pub cases: u32,
        /// Accepted for compatibility; the shim never shrinks.
        pub max_shrink_iters: u32,
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            Self {
                cases: 64,
                max_shrink_iters: 0,
            }
        }
    }

    /// SplitMix64: tiny, fast, and deterministic — all the shim needs.
    #[derive(Debug, Clone)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        pub fn seed_from_u64(seed: u64) -> Self {
            Self { state: seed }
        }

        /// Deterministic per-test seed: a hash of the test name, unless
        /// `PROPTEST_SEED` overrides it.
        pub fn for_test(name: &str) -> Self {
            if let Ok(s) = std::env::var("PROPTEST_SEED") {
                if let Ok(seed) = s.trim().parse::<u64>() {
                    return Self::seed_from_u64(seed);
                }
            }
            let mut h = 0xcbf2_9ce4_8422_2325u64; // FNV-1a
            for b in name.bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x1000_0000_01b3);
            }
            Self::seed_from_u64(h)
        }

        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        /// Uniform draw in `[0, bound)`; `bound` must be nonzero.
        pub fn below(&mut self, bound: u64) -> u64 {
            debug_assert!(bound > 0);
            // Modulo bias is irrelevant at test-generation quality.
            self.next_u64() % bound
        }
    }
}

pub mod strategy {
    use crate::test_runner::TestRng;

    /// A generator of values of type `Self::Value`.
    ///
    /// Object-safe subset of the real trait: `sample` draws one value; the
    /// provided combinators mirror proptest's names.
    pub trait Strategy {
        type Value;

        fn sample(&self, rng: &mut TestRng) -> Self::Value;

        fn prop_map<O, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> O,
        {
            Map { source: self, f }
        }

        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
        {
            BoxedStrategy {
                inner: Box::new(self),
            }
        }
    }

    impl<S: Strategy + ?Sized> Strategy for &S {
        type Value = S::Value;
        fn sample(&self, rng: &mut TestRng) -> Self::Value {
            (**self).sample(rng)
        }
    }

    /// Always yields a clone of the wrapped value.
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn sample(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// `prop_map` combinator.
    pub struct Map<S, F> {
        source: S,
        f: F,
    }

    impl<S, F, O> Strategy for Map<S, F>
    where
        S: Strategy,
        F: Fn(S::Value) -> O,
    {
        type Value = O;
        fn sample(&self, rng: &mut TestRng) -> O {
            (self.f)(self.source.sample(rng))
        }
    }

    /// Type-erased strategy (what `prop_oneof!` arms collapse to).
    pub struct BoxedStrategy<V> {
        inner: Box<dyn Strategy<Value = V>>,
    }

    impl<V> Strategy for BoxedStrategy<V> {
        type Value = V;
        fn sample(&self, rng: &mut TestRng) -> V {
            self.inner.sample(rng)
        }
    }

    /// Weighted choice between strategies of a common value type.
    pub struct Union<V> {
        arms: Vec<(u32, BoxedStrategy<V>)>,
        total_weight: u64,
    }

    impl<V> Union<V> {
        pub fn new_weighted(arms: Vec<(u32, BoxedStrategy<V>)>) -> Self {
            assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
            let total_weight = arms.iter().map(|(w, _)| *w as u64).sum::<u64>();
            assert!(total_weight > 0, "prop_oneof! weights sum to zero");
            Self { arms, total_weight }
        }
    }

    impl<V> Strategy for Union<V> {
        type Value = V;
        fn sample(&self, rng: &mut TestRng) -> V {
            let mut pick = rng.below(self.total_weight);
            for (weight, arm) in &self.arms {
                if pick < *weight as u64 {
                    return arm.sample(rng);
                }
                pick -= *weight as u64;
            }
            unreachable!("weighted pick out of range")
        }
    }

    macro_rules! int_range_strategies {
        ($($ty:ty),*) => {$(
            impl Strategy for std::ops::Range<$ty> {
                type Value = $ty;
                fn sample(&self, rng: &mut TestRng) -> $ty {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end as u64).wrapping_sub(self.start as u64);
                    self.start.wrapping_add(rng.below(span) as $ty)
                }
            }

            impl Strategy for std::ops::RangeInclusive<$ty> {
                type Value = $ty;
                fn sample(&self, rng: &mut TestRng) -> $ty {
                    let (start, end) = (*self.start(), *self.end());
                    assert!(start <= end, "empty range strategy");
                    let span = (end as u64).wrapping_sub(start as u64).wrapping_add(1);
                    if span == 0 {
                        // Full u64 domain.
                        return rng.next_u64() as $ty;
                    }
                    start.wrapping_add(rng.below(span) as $ty)
                }
            }
        )*};
    }

    int_range_strategies!(u8, u16, u32, u64, usize);

    macro_rules! tuple_strategies {
        ($(($($name:ident),+))*) => {$(
            #[allow(non_snake_case)]
            impl<$($name: Strategy),+> Strategy for ($($name,)+) {
                type Value = ($($name::Value,)+);
                fn sample(&self, rng: &mut TestRng) -> Self::Value {
                    let ($($name,)+) = self;
                    ($($name.sample(rng),)+)
                }
            }
        )*};
    }

    tuple_strategies! {
        (A, B)
        (A, B, C)
        (A, B, C, D)
    }
}

pub mod arbitrary {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::marker::PhantomData;

    /// Types with a canonical whole-domain strategy.
    pub trait Arbitrary: Sized {
        fn arbitrary_value(rng: &mut TestRng) -> Self;
    }

    impl Arbitrary for bool {
        fn arbitrary_value(rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }

    macro_rules! int_arbitrary {
        ($($ty:ty),*) => {$(
            impl Arbitrary for $ty {
                fn arbitrary_value(rng: &mut TestRng) -> $ty {
                    rng.next_u64() as $ty
                }
            }
        )*};
    }

    int_arbitrary!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    /// Strategy returned by [`any`].
    pub struct Any<T> {
        _marker: PhantomData<T>,
    }

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;
        fn sample(&self, rng: &mut TestRng) -> T {
            T::arbitrary_value(rng)
        }
    }

    /// The whole-domain strategy for `T`.
    pub fn any<T: Arbitrary>() -> Any<T> {
        Any {
            _marker: PhantomData,
        }
    }
}

pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::ops::Range;

    /// Accepted element-count shapes for [`vec()`].
    #[derive(Debug, Clone)]
    pub struct SizeRange {
        start: usize,
        end_exclusive: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            Self {
                start: n,
                end_exclusive: n + 1,
            }
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            assert!(r.start < r.end, "empty vec size range");
            Self {
                start: r.start,
                end_exclusive: r.end,
            }
        }
    }

    /// Strategy for `Vec<S::Value>` with a sampled length.
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.end_exclusive - self.size.start) as u64;
            let len = self.size.start + rng.below(span) as usize;
            (0..len).map(|_| self.element.sample(rng)).collect()
        }
    }

    /// `proptest::collection::vec` — a vector of `element` draws.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }
}

pub mod prelude {
    pub use crate::arbitrary::any;
    pub use crate::strategy::{BoxedStrategy, Just, Strategy};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};
}

#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

#[macro_export]
macro_rules! prop_assert_ne {
    ($($tt:tt)*) => { assert_ne!($($tt)*) };
}

#[macro_export]
macro_rules! prop_oneof {
    ($($weight:expr => $strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new_weighted(vec![
            $(($weight as u32, $crate::strategy::Strategy::boxed($strat))),+
        ])
    };
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new_weighted(vec![
            $((1u32, $crate::strategy::Strategy::boxed($strat))),+
        ])
    };
}

/// The property-test harness macro: expands each `fn name(arg in strategy)`
/// into an ordinary `#[test]` that samples `config.cases` inputs from the
/// strategies and runs the body on each.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest!(@with_config ($cfg) $($rest)*);
    };
    (@with_config ($cfg:expr)
        $($(#[$meta:meta])* fn $name:ident($($arg:ident in $strat:expr),* $(,)?) $body:block)*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::test_runner::ProptestConfig = $cfg;
                let mut rng = $crate::test_runner::TestRng::for_test(stringify!($name));
                for case in 0..config.cases {
                    let _ = case;
                    $(let $arg = $crate::strategy::Strategy::sample(&($strat), &mut rng);)*
                    $body
                }
            }
        )*
    };
    ($($rest:tt)*) => {
        $crate::proptest!(
            @with_config ($crate::test_runner::ProptestConfig::default()) $($rest)*
        );
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;
    use crate::test_runner::TestRng;

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = TestRng::seed_from_u64(1);
        for _ in 0..1000 {
            let v = Strategy::sample(&(5u64..17), &mut rng);
            assert!((5..17).contains(&v));
            let w = Strategy::sample(&(0usize..=3), &mut rng);
            assert!(w <= 3);
        }
    }

    #[test]
    fn oneof_respects_zero_weighted_arms() {
        let s = prop_oneof![
            3 => Just(1u8),
            1 => Just(2u8),
        ];
        let mut rng = TestRng::seed_from_u64(7);
        let mut seen = [0usize; 3];
        for _ in 0..400 {
            seen[Strategy::sample(&s, &mut rng) as usize] += 1;
        }
        assert_eq!(seen[0], 0);
        assert!(seen[1] > seen[2], "weighted arm should dominate: {seen:?}");
        assert!(seen[2] > 0);
    }

    #[test]
    fn vec_and_map_compose() {
        let s = crate::collection::vec((0u32..10).prop_map(|x| x * 2), 2..5);
        let mut rng = TestRng::seed_from_u64(3);
        for _ in 0..100 {
            let v = Strategy::sample(&s, &mut rng);
            assert!((2..5).contains(&v.len()));
            assert!(v.iter().all(|x| x % 2 == 0 && *x < 20));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

        #[test]
        fn harness_macro_runs(xs in crate::collection::vec(any::<u8>(), 1..20), flip in any::<bool>()) {
            prop_assert!(!xs.is_empty());
            prop_assert_eq!(flip, flip);
        }
    }
}
