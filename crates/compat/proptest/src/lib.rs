//! Offline stand-in for the `proptest` crate.
//!
//! The build environment has no access to crates.io, so this workspace
//! vendors the slice of proptest's API its tests use: the [`proptest!`]
//! macro, range/`Just`/tuple/`Vec` strategies, `prop_map` / `prop_flat_map`
//! / `boxed`, [`collection::vec`], and the `prop_assert*` macros.
//!
//! Differences from the real crate, deliberate for an offline test shim:
//!
//! * cases are generated from a deterministic RNG seeded from the test's
//!   module path and name, so runs are reproducible;
//! * there is **no shrinking** — a failing case panics with the generated
//!   arguments left to the assertion message;
//! * `prop_assert*` are plain `assert*` (they panic instead of returning
//!   `Err`).

#[doc(hidden)]
pub use rand as __rand;

/// Test-runner configuration. Only `cases` is honoured.
pub mod test_runner {
    /// Controls how many random cases each property runs.
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        /// Number of random cases per property.
        pub cases: u32,
    }

    impl ProptestConfig {
        /// A config running `cases` cases per property.
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            // The real crate defaults to 256; 64 keeps offline CI fast
            // while still exercising the properties broadly.
            ProptestConfig { cases: 64 }
        }
    }
}

/// Value-generation strategies.
pub mod strategy {
    use rand::rngs::StdRng;
    use rand::RngExt;

    /// A recipe for generating random values of `Self::Value`.
    pub trait Strategy {
        /// The type of value this strategy produces.
        type Value;

        /// Draws one value.
        fn generate(&self, rng: &mut StdRng) -> Self::Value;

        /// Transforms generated values with `f`.
        fn prop_map<O, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> O,
        {
            Map { inner: self, f }
        }

        /// Generates a value, then generates from the strategy `f` returns.
        fn prop_flat_map<S, F>(self, f: F) -> FlatMap<Self, F>
        where
            Self: Sized,
            S: Strategy,
            F: Fn(Self::Value) -> S,
        {
            FlatMap { inner: self, f }
        }

        /// Type-erases the strategy.
        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
        {
            BoxedStrategy(std::rc::Rc::new(move |rng: &mut StdRng| self.generate(rng)))
        }
    }

    /// Always generates a clone of the wrapped value.
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _rng: &mut StdRng) -> T {
            self.0.clone()
        }
    }

    /// A type-erased strategy.
    #[derive(Clone)]
    pub struct BoxedStrategy<T>(std::rc::Rc<dyn Fn(&mut StdRng) -> T>);

    impl<T> Strategy for BoxedStrategy<T> {
        type Value = T;
        fn generate(&self, rng: &mut StdRng) -> T {
            (self.0)(rng)
        }
    }

    /// See [`Strategy::prop_map`].
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
        type Value = O;
        fn generate(&self, rng: &mut StdRng) -> O {
            (self.f)(self.inner.generate(rng))
        }
    }

    /// See [`Strategy::prop_flat_map`].
    pub struct FlatMap<S, F> {
        inner: S,
        f: F,
    }

    impl<S: Strategy, S2: Strategy, F: Fn(S::Value) -> S2> Strategy for FlatMap<S, F> {
        type Value = S2::Value;
        fn generate(&self, rng: &mut StdRng) -> S2::Value {
            (self.f)(self.inner.generate(rng)).generate(rng)
        }
    }

    macro_rules! impl_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for std::ops::Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut StdRng) -> $t {
                    rng.random_range(self.clone())
                }
            }
            impl Strategy for std::ops::RangeInclusive<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut StdRng) -> $t {
                    rng.random_range(self.clone())
                }
            }
        )*};
    }

    impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f32, f64);

    macro_rules! impl_tuple_strategy {
        ($($name:ident),+) => {
            impl<$($name: Strategy),+> Strategy for ($($name,)+) {
                type Value = ($($name::Value,)+);
                #[allow(non_snake_case)]
                fn generate(&self, rng: &mut StdRng) -> Self::Value {
                    let ($($name,)+) = self;
                    ($($name.generate(rng),)+)
                }
            }
        };
    }

    impl_tuple_strategy!(A);
    impl_tuple_strategy!(A, B);
    impl_tuple_strategy!(A, B, C);
    impl_tuple_strategy!(A, B, C, D);
    impl_tuple_strategy!(A, B, C, D, E);
    impl_tuple_strategy!(A, B, C, D, E, F);

    /// A `Vec` of strategies generates element-wise.
    impl<S: Strategy> Strategy for Vec<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut StdRng) -> Vec<S::Value> {
            self.iter().map(|s| s.generate(rng)).collect()
        }
    }
}

/// Collection strategies.
pub mod collection {
    use super::strategy::Strategy;
    use rand::rngs::StdRng;
    use rand::RngExt;

    /// Length specification for [`vec()`]: a fixed size or a half-open range.
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        lo: usize,
        hi: usize, // exclusive
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { lo: n, hi: n + 1 }
        }
    }

    impl From<std::ops::Range<usize>> for SizeRange {
        fn from(r: std::ops::Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            SizeRange { lo: r.start, hi: r.end }
        }
    }

    impl From<std::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: std::ops::RangeInclusive<usize>) -> Self {
            SizeRange { lo: *r.start(), hi: *r.end() + 1 }
        }
    }

    /// Generates `Vec`s whose length is drawn from `size` and whose
    /// elements are drawn from `element`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy { element, size: size.into() }
    }

    /// See [`vec()`].
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut StdRng) -> Vec<S::Value> {
            let len = if self.size.lo + 1 == self.size.hi {
                self.size.lo
            } else {
                rng.random_range(self.size.lo..self.size.hi)
            };
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// FNV-1a hash of a string; seeds each property's RNG from its name.
#[doc(hidden)]
pub const fn fnv1a(s: &str) -> u64 {
    let bytes = s.as_bytes();
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut i = 0;
    while i < bytes.len() {
        hash ^= bytes[i] as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
        i += 1;
    }
    hash
}

/// Declares property tests: each `#[test] fn name(arg in strategy, ...)`
/// becomes an ordinary test running `cases` random cases.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl!{ config = $cfg; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl!{
            config = $crate::test_runner::ProptestConfig::default();
            $($rest)*
        }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (config = $cfg:expr;
     $( #[test] fn $name:ident ( $( $arg:ident in $strat:expr ),+ $(,)? ) $body:block )*
    ) => {
        $(
            #[test]
            fn $name() {
                use $crate::strategy::Strategy as _;
                let config: $crate::test_runner::ProptestConfig = $cfg;
                let seed = $crate::fnv1a(concat!(module_path!(), "::", stringify!($name)));
                let mut rng = <$crate::__rand::rngs::StdRng as $crate::__rand::SeedableRng>
                    ::seed_from_u64(seed);
                for __case in 0..config.cases {
                    $( let $arg = ($strat).generate(&mut rng); )+
                    $body
                }
            }
        )*
    };
}

/// Property assertion; panics on failure (no shrinking in this shim).
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// Property equality assertion; panics on failure.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

/// Property inequality assertion; panics on failure.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($tt:tt)*) => { assert_ne!($($tt)*) };
}

/// The usual glob import surface.
pub mod prelude {
    pub use crate::collection;
    pub use crate::strategy::{BoxedStrategy, Just, Strategy};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, proptest};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_respect_bounds(x in 3u32..9, y in 0.0..1.0f64) {
            prop_assert!((3..9).contains(&x));
            prop_assert!((0.0..1.0).contains(&y));
        }

        #[test]
        fn vec_lengths(v in collection::vec(0u32..5, 2..6)) {
            prop_assert!(v.len() >= 2 && v.len() < 6);
            prop_assert!(v.iter().all(|&e| e < 5));
        }
    }

    #[test]
    fn flat_map_and_boxed_compose() {
        use rand::{rngs::StdRng, SeedableRng};
        let strat = (2usize..=5)
            .prop_flat_map(|n| {
                let elems: Vec<BoxedStrategy<u32>> =
                    (0..n).map(|i| (0..(i + 1) as u32).boxed()).collect();
                (Just(n), elems)
            })
            .prop_map(|(n, elems)| {
                assert_eq!(elems.len(), n);
                elems
            });
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..50 {
            let v = strat.generate(&mut rng);
            for (i, &e) in v.iter().enumerate() {
                assert!(e <= i as u32);
            }
        }
    }
}
