//! Offline stand-in for the `proptest` crate (see `crates/shims/`).
//!
//! A miniature property-testing engine with the API subset this workspace
//! uses: the [`proptest!`] macro (`arg in strategy` syntax, optional
//! `#![proptest_config(...)]`), `prop_assert!`/`prop_assert_eq!`,
//! [`strategy::Strategy`] with `prop_map`/`prop_filter`/`prop_flat_map`,
//! range and tuple strategies, `any::<T>()`, `prop::collection::vec`,
//! `prop::option::of`, `prop::sample::select`, [`strategy::Just`], and
//! `prop_oneof!`.
//!
//! Differences from real proptest: cases are generated from a fixed
//! deterministic seed sequence (no `PROPTEST_*` env integration, no
//! persisted failure regressions) and **no shrinking** — a failing case
//! reports its case index and message only. Determinism means a failure
//! reproduces by re-running the same test binary.

pub mod test_runner {
    /// Run-time configuration for a `proptest!` block.
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        /// Number of random cases to execute per test function.
        pub cases: u32,
    }

    impl ProptestConfig {
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            // Real proptest defaults to 256; 64 keeps offline CI fast while
            // still exploring a meaningful sample.
            ProptestConfig { cases: 64 }
        }
    }

    /// Failure constructor mirroring real proptest's `TestCaseError`.
    ///
    /// The shim's case bodies carry plain `String` errors, so `fail`
    /// returns the message itself — which keeps
    /// `return Err(TestCaseError::fail(..))` source-compatible alongside
    /// `prop_assert!` in the same body.
    pub struct TestCaseError;

    impl TestCaseError {
        pub fn fail(msg: impl Into<String>) -> String {
            msg.into()
        }
    }

    /// Deterministic per-case generator (xoshiro256**, SplitMix64-seeded).
    #[derive(Debug, Clone)]
    pub struct TestRng {
        s: [u64; 4],
    }

    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    impl TestRng {
        /// The generator for one numbered case of a test.
        pub fn for_case(case: u64) -> Self {
            let mut state = case.wrapping_mul(0xA076_1D64_78BD_642F) ^ 0x1234_5678_9ABC_DEF0;
            let mut s = [0u64; 4];
            for slot in &mut s {
                *slot = splitmix64(&mut state);
            }
            TestRng { s }
        }

        pub fn next_u64(&mut self) -> u64 {
            let s = &mut self.s;
            let result = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
            let t = s[1] << 17;
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
            result
        }

        /// Uniform in `[0, bound)`; `bound` must be nonzero.
        pub fn below(&mut self, bound: u64) -> u64 {
            self.next_u64() % bound
        }

        /// Uniform in `[0, 1)`.
        pub fn unit_f64(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
        }
    }
}

pub mod strategy {
    use super::test_runner::TestRng;
    use std::marker::PhantomData;

    /// A recipe for generating values of `Self::Value`.
    pub trait Strategy {
        type Value;

        /// Produce one value.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        fn prop_map<U, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> U,
        {
            Map { inner: self, f }
        }

        fn prop_filter<F>(self, reason: impl Into<String>, f: F) -> Filter<Self, F>
        where
            Self: Sized,
            F: Fn(&Self::Value) -> bool,
        {
            Filter {
                inner: self,
                reason: reason.into(),
                f,
            }
        }

        fn prop_flat_map<S, F>(self, f: F) -> FlatMap<Self, F>
        where
            Self: Sized,
            S: Strategy,
            F: Fn(Self::Value) -> S,
        {
            FlatMap { inner: self, f }
        }

        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
        {
            Box::new(self)
        }
    }

    /// Type-erased strategy, as produced by [`Strategy::boxed`].
    pub type BoxedStrategy<V> = Box<dyn Strategy<Value = V>>;

    impl<V> Strategy for Box<dyn Strategy<Value = V>> {
        type Value = V;
        fn generate(&self, rng: &mut TestRng) -> V {
            (**self).generate(rng)
        }
    }

    impl<S: Strategy + ?Sized> Strategy for &S {
        type Value = S::Value;
        fn generate(&self, rng: &mut TestRng) -> S::Value {
            (**self).generate(rng)
        }
    }

    /// Always yields a clone of one value.
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// Output of [`Strategy::prop_map`].
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
        type Value = U;
        fn generate(&self, rng: &mut TestRng) -> U {
            (self.f)(self.inner.generate(rng))
        }
    }

    /// Output of [`Strategy::prop_filter`].
    pub struct Filter<S, F> {
        inner: S,
        reason: String,
        f: F,
    }

    impl<S: Strategy, F: Fn(&S::Value) -> bool> Strategy for Filter<S, F> {
        type Value = S::Value;
        fn generate(&self, rng: &mut TestRng) -> S::Value {
            for _ in 0..1000 {
                let v = self.inner.generate(rng);
                if (self.f)(&v) {
                    return v;
                }
            }
            panic!(
                "prop_filter {:?} rejected 1000 consecutive candidates",
                self.reason
            );
        }
    }

    /// Output of [`Strategy::prop_flat_map`].
    pub struct FlatMap<S, F> {
        inner: S,
        f: F,
    }

    impl<S: Strategy, S2: Strategy, F: Fn(S::Value) -> S2> Strategy for FlatMap<S, F> {
        type Value = S2::Value;
        fn generate(&self, rng: &mut TestRng) -> S2::Value {
            (self.f)(self.inner.generate(rng)).generate(rng)
        }
    }

    /// Uniform choice among boxed alternatives (`prop_oneof!`).
    pub struct Union<V> {
        options: Vec<BoxedStrategy<V>>,
    }

    impl<V> Union<V> {
        pub fn new(options: Vec<BoxedStrategy<V>>) -> Self {
            assert!(!options.is_empty(), "prop_oneof! needs at least one option");
            Union { options }
        }
    }

    impl<V> Strategy for Union<V> {
        type Value = V;
        fn generate(&self, rng: &mut TestRng) -> V {
            let i = rng.below(self.options.len() as u64) as usize;
            self.options[i].generate(rng)
        }
    }

    macro_rules! int_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for std::ops::Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end as i128 - self.start as i128) as u64;
                    (self.start as i128 + rng.below(span) as i128) as $t
                }
            }
            impl Strategy for std::ops::RangeInclusive<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    let (start, end) = (*self.start(), *self.end());
                    assert!(start <= end, "empty range strategy");
                    let span = (end as i128 - start as i128 + 1) as u64;
                    (start as i128 + rng.below(span) as i128) as $t
                }
            }
        )*};
    }

    int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    macro_rules! float_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for std::ops::Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    self.start + rng.unit_f64() as $t * (self.end - self.start)
                }
            }
            impl Strategy for std::ops::RangeInclusive<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    let (start, end) = (*self.start(), *self.end());
                    start + rng.unit_f64() as $t * (end - start)
                }
            }
        )*};
    }

    float_range_strategy!(f32, f64);

    macro_rules! tuple_strategy {
        ($($name:ident : $idx:tt),+) => {
            impl<$($name: Strategy),+> Strategy for ($($name,)+) {
                type Value = ($($name::Value,)+);
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$idx.generate(rng),)+)
                }
            }
        };
    }

    tuple_strategy!(A: 0);
    tuple_strategy!(A: 0, B: 1);
    tuple_strategy!(A: 0, B: 1, C: 2);
    tuple_strategy!(A: 0, B: 1, C: 2, D: 3);
    tuple_strategy!(A: 0, B: 1, C: 2, D: 3, E: 4);
    tuple_strategy!(A: 0, B: 1, C: 2, D: 3, E: 4, F: 5);

    /// Marker for types with a canonical `any::<T>()` strategy.
    pub trait ArbitrarySample: Sized {
        fn arbitrary_sample(rng: &mut TestRng) -> Self;
    }

    /// Strategy returned by [`any`].
    pub struct Any<T>(PhantomData<T>);

    impl<T: ArbitrarySample> Strategy for Any<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            T::arbitrary_sample(rng)
        }
    }

    /// The canonical strategy for `T`: full-range integers, bit-pattern
    /// floats (exercising infinities and NaNs), fair booleans.
    pub fn any<T: ArbitrarySample>() -> Any<T> {
        Any(PhantomData)
    }

    macro_rules! arbitrary_int {
        ($($t:ty),*) => {$(
            impl ArbitrarySample for $t {
                fn arbitrary_sample(rng: &mut TestRng) -> Self {
                    rng.next_u64() as $t
                }
            }
        )*};
    }

    arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl ArbitrarySample for bool {
        fn arbitrary_sample(rng: &mut TestRng) -> Self {
            rng.next_u64() & 1 == 1
        }
    }

    impl ArbitrarySample for f32 {
        fn arbitrary_sample(rng: &mut TestRng) -> Self {
            // Raw bit patterns cover subnormals, infinities, and NaN.
            f32::from_bits(rng.next_u64() as u32)
        }
    }

    impl ArbitrarySample for f64 {
        fn arbitrary_sample(rng: &mut TestRng) -> Self {
            f64::from_bits(rng.next_u64())
        }
    }

    impl ArbitrarySample for char {
        fn arbitrary_sample(rng: &mut TestRng) -> Self {
            char::from_u32((rng.below(0xD800)) as u32).unwrap_or('a')
        }
    }
}

pub mod collection {
    use super::strategy::Strategy;
    use super::test_runner::TestRng;

    /// Acceptable length specifications for [`vec`].
    pub trait IntoSizeRange {
        /// Inclusive (lo, hi) length bounds.
        fn bounds(&self) -> (usize, usize);
    }

    impl IntoSizeRange for usize {
        fn bounds(&self) -> (usize, usize) {
            (*self, *self)
        }
    }

    impl IntoSizeRange for std::ops::Range<usize> {
        fn bounds(&self) -> (usize, usize) {
            assert!(self.start < self.end, "empty vec size range");
            (self.start, self.end - 1)
        }
    }

    impl IntoSizeRange for std::ops::RangeInclusive<usize> {
        fn bounds(&self) -> (usize, usize) {
            (*self.start(), *self.end())
        }
    }

    /// Strategy for `Vec<S::Value>` with a length drawn from `size`.
    pub struct VecStrategy<S, R> {
        element: S,
        size: R,
    }

    /// `prop::collection::vec(element, size)`.
    pub fn vec<S: Strategy, R: IntoSizeRange>(element: S, size: R) -> VecStrategy<S, R> {
        VecStrategy { element, size }
    }

    impl<S: Strategy, R: IntoSizeRange> Strategy for VecStrategy<S, R> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            let (lo, hi) = self.size.bounds();
            let len = lo + rng.below((hi - lo + 1) as u64) as usize;
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

pub mod option {
    use super::strategy::Strategy;
    use super::test_runner::TestRng;

    /// Strategy yielding `None` about a quarter of the time.
    pub struct OptionStrategy<S>(S);

    /// `prop::option::of(strategy)`.
    pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
        OptionStrategy(inner)
    }

    impl<S: Strategy> Strategy for OptionStrategy<S> {
        type Value = Option<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            if rng.below(4) == 0 {
                None
            } else {
                Some(self.0.generate(rng))
            }
        }
    }
}

pub mod sample {
    use super::strategy::Strategy;
    use super::test_runner::TestRng;

    /// Uniform choice from a fixed list.
    pub struct Select<T>(Vec<T>);

    /// `prop::sample::select(options)`.
    pub fn select<T: Clone>(options: Vec<T>) -> Select<T> {
        assert!(!options.is_empty(), "select needs at least one option");
        Select(options)
    }

    impl<T: Clone> Strategy for Select<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            self.0[rng.below(self.0.len() as u64) as usize].clone()
        }
    }
}

pub mod prelude {
    pub use super::strategy::{any, ArbitrarySample, BoxedStrategy, Just, Strategy};
    pub use super::test_runner::{ProptestConfig, TestCaseError};
    pub use super::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};
    /// `prop::collection::vec(...)`-style paths.
    pub use crate as prop;
}

/// Assert inside a `proptest!` body; failure fails the current case with a
/// message instead of unwinding immediately.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !($cond) {
            return ::std::result::Result::Err(::std::format!($($fmt)*));
        }
    };
}

/// Equality assertion inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => {{
        let (l, r) = (&$a, &$b);
        $crate::prop_assert!(*l == *r, "assertion failed: {:?} != {:?}", l, r);
    }};
    ($a:expr, $b:expr, $($fmt:tt)*) => {{
        let (l, r) = (&$a, &$b);
        $crate::prop_assert!(
            *l == *r,
            "assertion failed: {:?} != {:?}: {}",
            l,
            r,
            ::std::format!($($fmt)*)
        );
    }};
}

/// Inequality assertion inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr) => {{
        let (l, r) = (&$a, &$b);
        $crate::prop_assert!(*l != *r, "assertion failed: {:?} == {:?}", l, r);
    }};
}

/// Uniform choice among several strategies producing the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strategy:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $($crate::strategy::Strategy::boxed($strategy)),+
        ])
    };
}

/// Define property tests: each `fn name(arg in strategy, ...) { body }`
/// becomes a `#[test]` running `config.cases` deterministic cases.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl!{ cfg = ($cfg); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl!{ cfg = ($crate::test_runner::ProptestConfig::default()); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (cfg = ($cfg:expr); $($(#[$attr:meta])* fn $name:ident($($arg:ident in $strat:expr),* $(,)?) $body:block)*) => {
        $(
            $(#[$attr])*
            fn $name() {
                let config: $crate::test_runner::ProptestConfig = $cfg;
                for __case in 0..config.cases {
                    let mut __rng = $crate::test_runner::TestRng::for_case(u64::from(__case));
                    $(let $arg = $crate::strategy::Strategy::generate(&($strat), &mut __rng);)*
                    let __case_body = || -> ::std::result::Result<(), ::std::string::String> {
                        $body ::std::result::Result::Ok(())
                    };
                    let __outcome = __case_body();
                    if let ::std::result::Result::Err(__msg) = __outcome {
                        ::std::panic!(
                            "proptest {} case {}/{} failed: {}",
                            stringify!($name), __case, config.cases, __msg
                        );
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
        fn ranges_respect_bounds(x in 3u32..9, y in 0.0f64..1.0, z in 5usize..=5) {
            prop_assert!((3..9).contains(&x));
            prop_assert!((0.0..1.0).contains(&y));
            prop_assert_eq!(z, 5);
        }

        #[test]
        fn vec_lengths_in_range(v in prop::collection::vec(any::<u8>(), 2..5)) {
            prop_assert!((2..5).contains(&v.len()));
        }

        #[test]
        fn oneof_and_just(v in prop_oneof![Just(1u8), Just(2u8), 3u8..10]) {
            prop_assert!((1..10).contains(&v));
        }

        #[test]
        fn map_filter_flat_map(
            s in (1usize..4).prop_flat_map(|n| prop::collection::vec(0u8..10, n))
                .prop_map(|v| v.len())
                .prop_filter("nonzero", |&n| n > 0)
        ) {
            prop_assert!((1..4).contains(&s));
        }

        #[test]
        fn option_sometimes_none(o in prop::option::of(any::<u32>())) {
            // Either arm is fine; this just exercises the strategy.
            let _ = o;
        }
    }

    #[test]
    fn cases_are_deterministic() {
        use crate::strategy::Strategy;
        use crate::test_runner::TestRng;
        let s = crate::collection::vec(0u32..100, 0..10);
        let a: Vec<Vec<u32>> = (0..5)
            .map(|c| s.generate(&mut TestRng::for_case(c)))
            .collect();
        let b: Vec<Vec<u32>> = (0..5)
            .map(|c| s.generate(&mut TestRng::for_case(c)))
            .collect();
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "proptest always_fails case 0")]
    fn failure_reports_case() {
        crate::proptest! {
            #![proptest_config(ProptestConfig::with_cases(1))]
            fn always_fails(x in 0u8..1) {
                prop_assert!(x > 10, "x was {}", x);
            }
        }
        always_fails();
    }
}
