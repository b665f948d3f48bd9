//! A minimal, std-only stand-in for the `proptest` crate.
//!
//! The workspace must build with `--offline` and no registry, so this
//! shim provides exactly the API surface the repo's property tests use:
//! the [`proptest!`] macro, [`strategy::Strategy`] with `prop_map`,
//! [`prop_oneof!`], [`strategy::Just`], [`any`](strategy::any), range
//! and tuple strategies, [`collection::vec`], [`option::of`],
//! [`bool::weighted`], the `prop_assert*` macros, and
//! [`test_runner::ProptestConfig`].
//!
//! Differences from the real crate: case generation is a deterministic
//! splitmix64 stream seeded from the test name (runs are reproducible
//! across machines), and shrinking is a greedy bounded walk over
//! [`strategy::Strategy::shrink`] candidates rather than the real
//! crate's value trees. The candidate order is part of the contract:
//! it is a pure function of the failing value (ranges halve toward
//! their start; tuples exhaust component 0 before component 1), never
//! of addresses, hashes, or iteration order, so the minimal
//! counterexample a failure reports is bit-identical across processes
//! and machines. The assertion macros early-return a
//! [`test_runner::TestCaseError`] from the generated closure, exactly
//! like the real macros.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Deterministic pseudo-random generation for test cases.
pub mod rng {
    /// A splitmix64 generator: tiny, fast, and good enough to drive
    /// randomized tests deterministically.
    #[derive(Clone, Debug)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// Creates a generator from a seed.
        pub fn new(seed: u64) -> Self {
            TestRng {
                state: seed ^ 0x9e37_79b9_7f4a_7c15,
            }
        }

        /// Next raw 64-bit value.
        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        /// Uniform value in `[0, n)`; returns 0 when `n == 0`.
        pub fn below(&mut self, n: u64) -> u64 {
            if n == 0 {
                0
            } else {
                self.next_u64() % n
            }
        }

        /// Uniform float in `[0, 1)`.
        pub fn unit_f64(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
        }
    }
}

/// Configuration and the per-test case runner.
pub mod test_runner {
    use super::rng::TestRng;

    /// Mirrors `proptest::test_runner::ProptestConfig`: the knobs the
    /// repo actually uses (case count).
    #[derive(Clone, Debug)]
    pub struct ProptestConfig {
        /// Number of successful cases required for the test to pass.
        pub cases: u32,
    }

    impl ProptestConfig {
        /// A config running `cases` cases.
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            ProptestConfig { cases: 256 }
        }
    }

    /// Why a single generated case did not pass.
    #[derive(Clone, Debug)]
    pub enum TestCaseError {
        /// An assertion failed; the test fails.
        Fail(String),
        /// `prop_assume!` rejected the input; another case is drawn.
        Reject(String),
    }

    impl TestCaseError {
        /// A failing case.
        pub fn fail(msg: String) -> Self {
            TestCaseError::Fail(msg)
        }

        /// A rejected (assumption-violating) case.
        pub fn reject(msg: String) -> Self {
            TestCaseError::Reject(msg)
        }
    }

    fn fnv1a(name: &str) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        h
    }

    /// Runs `case` until `config.cases` cases pass, panicking on the
    /// first failure. Rejections draw a replacement case, bounded so a
    /// vacuous assumption cannot loop forever.
    ///
    /// # Panics
    ///
    /// Panics when a case fails or when too many cases are rejected.
    pub fn run<F>(config: &ProptestConfig, name: &str, mut case: F)
    where
        F: FnMut(&mut TestRng) -> Result<(), TestCaseError>,
    {
        let base = fnv1a(name);
        let mut passed: u32 = 0;
        let mut rejected: u32 = 0;
        let max_rejects = config.cases.saturating_mul(10).max(1000);
        let mut draw: u64 = 0;
        while passed < config.cases {
            let mut rng = TestRng::new(base ^ draw.wrapping_mul(0x2545_f491_4f6c_dd1d));
            draw += 1;
            match case(&mut rng) {
                Ok(()) => passed += 1,
                Err(TestCaseError::Reject(_)) => {
                    rejected += 1;
                    assert!(
                        rejected <= max_rejects,
                        "proptest '{name}': too many rejected cases ({rejected})"
                    );
                }
                Err(TestCaseError::Fail(msg)) => {
                    panic!("proptest '{name}' failed (case {draw}, seed {base:#x}): {msg}")
                }
            }
        }
    }

    /// The attempt budget for one shrink: enough to walk any plausible
    /// halving chain to its floor, small enough that a slow test body
    /// cannot stall a failure report.
    pub const SHRINK_BUDGET: usize = 512;

    /// Greedily minimizes `value` against `still_fails`: candidates from
    /// [`Strategy::shrink`](crate::strategy::Strategy::shrink) are tried
    /// in order, the walk restarts from the first one that still fails,
    /// and it stops when a full candidate pass survives or `budget`
    /// attempts are spent. Returns the minimal failing value and the
    /// number of accepted shrink steps. Deterministic: the result is a
    /// pure function of the starting value and the predicate.
    pub fn minimize<S, F>(
        strat: &S,
        mut value: S::Value,
        mut still_fails: F,
        mut budget: usize,
    ) -> (S::Value, usize)
    where
        S: crate::strategy::Strategy,
        S::Value: Clone,
        F: FnMut(&S::Value) -> bool,
    {
        let mut steps = 0;
        'walk: loop {
            for cand in strat.shrink(&value) {
                if budget == 0 {
                    break 'walk;
                }
                budget -= 1;
                if still_fails(&cand) {
                    value = cand;
                    steps += 1;
                    continue 'walk;
                }
            }
            break;
        }
        (value, steps)
    }

    /// Like [`run`], but generation goes through one `strat` value per
    /// case (the [`proptest!`](crate::proptest) macro packs every
    /// parameter into a tuple strategy, drawn in declaration order so
    /// the RNG stream matches the old per-parameter expansion). On the
    /// first failure the input is shrunk via [`minimize`] before the
    /// panic reports it.
    ///
    /// # Panics
    ///
    /// Panics when a case fails (reporting the shrunk minimal input) or
    /// when too many cases are rejected.
    pub fn run_strategy<S, F>(config: &ProptestConfig, name: &str, strat: &S, mut body: F)
    where
        S: crate::strategy::Strategy,
        S::Value: Clone,
        F: FnMut(S::Value) -> Result<(), TestCaseError>,
    {
        let base = fnv1a(name);
        let mut passed: u32 = 0;
        let mut rejected: u32 = 0;
        let max_rejects = config.cases.saturating_mul(10).max(1000);
        let mut draw: u64 = 0;
        while passed < config.cases {
            let mut rng = TestRng::new(base ^ draw.wrapping_mul(0x2545_f491_4f6c_dd1d));
            draw += 1;
            let value = strat.generate(&mut rng);
            match body(value.clone()) {
                Ok(()) => passed += 1,
                Err(TestCaseError::Reject(_)) => {
                    rejected += 1;
                    assert!(
                        rejected <= max_rejects,
                        "proptest '{name}': too many rejected cases ({rejected})"
                    );
                }
                Err(TestCaseError::Fail(msg)) => {
                    // A candidate only replaces the current input when
                    // it fails the same way the original did: a hard
                    // assertion failure. Rejections and passes both
                    // count as "survived".
                    let (min, steps) = minimize(
                        strat,
                        value,
                        |cand| matches!(body(cand.clone()), Err(TestCaseError::Fail(_))),
                        SHRINK_BUDGET,
                    );
                    let min_msg = match body(min.clone()) {
                        Err(TestCaseError::Fail(m)) => m,
                        _ => msg,
                    };
                    panic!(
                        "proptest '{name}' failed (case {draw}, seed {base:#x}): {min_msg}; \
                         shrunk to minimal input {min:?} in {steps} steps"
                    )
                }
            }
        }
    }
}

/// Strategies: composable descriptions of how to generate values.
pub mod strategy {
    use super::rng::TestRng;
    use std::fmt::Debug;
    use std::marker::PhantomData;

    /// A value generator. The subset of `proptest::strategy::Strategy`
    /// the repo uses: `generate` (internal) and `prop_map`.
    pub trait Strategy {
        /// The type of generated values.
        type Value: Debug;

        /// Draws one value.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        /// Simplification candidates for `value`, in the exact order the
        /// runner must try them. The order is a pure function of
        /// `value` — no addresses, no hashing, no RNG — so a shrink
        /// that starts from the same failing input lands on the same
        /// minimal counterexample in every process. Strategies without
        /// a meaningful notion of "simpler" return nothing.
        fn shrink(&self, _value: &Self::Value) -> Vec<Self::Value> {
            Vec::new()
        }

        /// Maps generated values through `f`.
        fn prop_map<O: Debug, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
        {
            Map { inner: self, f }
        }
    }

    /// See [`Strategy::prop_map`].
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S: Strategy, O: Debug, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
        type Value = O;

        fn generate(&self, rng: &mut TestRng) -> O {
            (self.f)(self.inner.generate(rng))
        }
    }

    /// Always generates a clone of the given value.
    #[derive(Clone, Debug)]
    pub struct Just<T: Clone + Debug>(pub T);

    impl<T: Clone + Debug> Strategy for Just<T> {
        type Value = T;

        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// Types with a canonical full-range strategy (`any::<T>()`).
    pub trait Arbitrary: Debug + Sized {
        /// Draws an unconstrained value.
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }

    macro_rules! arb_int {
        ($($t:ty),+) => {
            $(impl Arbitrary for $t {
                fn arbitrary(rng: &mut TestRng) -> $t {
                    rng.next_u64() as $t
                }
            })+
        };
    }
    arb_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl<T: Arbitrary, const N: usize> Arbitrary for [T; N] {
        fn arbitrary(rng: &mut TestRng) -> [T; N] {
            std::array::from_fn(|_| T::arbitrary(rng))
        }
    }

    /// The strategy returned by [`any`].
    pub struct AnyStrategy<T>(PhantomData<T>);

    impl<T: Arbitrary> Strategy for AnyStrategy<T> {
        type Value = T;

        fn generate(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }

    /// Full-range strategy for `T`.
    pub fn any<T: Arbitrary>() -> AnyStrategy<T> {
        AnyStrategy(PhantomData)
    }

    macro_rules! range_strategy {
        ($($t:ty),+) => {
            $(impl Strategy for std::ops::Range<$t> {
                type Value = $t;

                fn generate(&self, rng: &mut TestRng) -> $t {
                    let span = (self.end as u64).wrapping_sub(self.start as u64);
                    self.start + rng.below(span) as $t
                }

                /// Successive halvings of the distance to `start`,
                /// ending at `start` itself.
                fn shrink(&self, value: &$t) -> Vec<$t> {
                    let mut out = Vec::new();
                    let mut cur = *value;
                    while cur > self.start {
                        cur = self.start + (cur - self.start) / 2;
                        out.push(cur);
                    }
                    out
                }
            })+
        };
    }
    range_strategy!(u8, u16, u32, u64, usize);

    macro_rules! tuple_strategy {
        ($(($($S:ident . $idx:tt),+))+) => {
            $(impl<$($S: Strategy),+> Strategy for ($($S,)+)
            where
                $($S::Value: Clone),+
            {
                type Value = ($($S::Value,)+);

                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$idx.generate(rng),)+)
                }

                /// Component 0's candidates (other components held
                /// fixed), then component 1's, and so on — a stable
                /// lexicographic-by-position order, pinned by the shim's
                /// regression tests.
                fn shrink(&self, value: &Self::Value) -> Vec<Self::Value> {
                    let mut out = Vec::new();
                    $(
                        for cand in self.$idx.shrink(&value.$idx) {
                            let mut next = value.clone();
                            next.$idx = cand;
                            out.push(next);
                        }
                    )+
                    out
                }
            })+
        };
    }
    tuple_strategy! {
        (A.0)
        (A.0, B.1)
        (A.0, B.1, C.2)
        (A.0, B.1, C.2, D.3)
        (A.0, B.1, C.2, D.3, E.4)
        (A.0, B.1, C.2, D.3, E.4, F.5)
        (A.0, B.1, C.2, D.3, E.4, F.5, G.6)
        (A.0, B.1, C.2, D.3, E.4, F.5, G.6, H.7)
    }

    /// A uniform choice among boxed alternative strategies — what
    /// [`prop_oneof!`](crate::prop_oneof) builds.
    pub struct Union<V> {
        arms: Vec<Box<dyn Strategy<Value = V>>>,
    }

    impl<V: Debug> Union<V> {
        /// Builds a union; panics later rather than now on empty arms.
        pub fn new(arms: Vec<Box<dyn Strategy<Value = V>>>) -> Self {
            Union { arms }
        }
    }

    impl<V: Debug> Strategy for Union<V> {
        type Value = V;

        fn generate(&self, rng: &mut TestRng) -> V {
            let idx = rng.below(self.arms.len() as u64) as usize;
            self.arms[idx].generate(rng)
        }
    }

    /// Boxes a strategy for use in a [`Union`]; exists so the
    /// `prop_oneof!` macro can unify arm types through inference.
    pub fn boxed<S: Strategy + 'static>(s: S) -> Box<dyn Strategy<Value = S::Value>> {
        Box::new(s)
    }
}

/// Collection strategies.
pub mod collection {
    use super::rng::TestRng;
    use super::strategy::Strategy;

    /// A size specification: a fixed length or a half-open range.
    #[derive(Clone, Copy, Debug)]
    pub struct SizeRange {
        min: usize,
        end_excl: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange {
                min: n,
                end_excl: n + 1,
            }
        }
    }

    impl From<std::ops::Range<usize>> for SizeRange {
        fn from(r: std::ops::Range<usize>) -> Self {
            SizeRange {
                min: r.start,
                end_excl: r.end.max(r.start + 1),
            }
        }
    }

    /// The strategy returned by [`vec`].
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.end_excl - self.size.min) as u64;
            let len = self.size.min + rng.below(span) as usize;
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// Generates a `Vec` of `element` values with a length drawn from
    /// `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }
}

/// `Option` strategies.
pub mod option {
    use super::rng::TestRng;
    use super::strategy::Strategy;

    /// The strategy returned by [`of`].
    pub struct OptionStrategy<S>(S);

    impl<S: Strategy> Strategy for OptionStrategy<S> {
        type Value = Option<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Option<S::Value> {
            if rng.next_u64() & 1 == 0 {
                None
            } else {
                Some(self.0.generate(rng))
            }
        }
    }

    /// `None` or `Some(inner)`, each half the time.
    pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
        OptionStrategy(inner)
    }
}

/// `bool` strategies.
pub mod bool {
    use super::rng::TestRng;
    use super::strategy::Strategy;

    /// The strategy returned by [`weighted`].
    #[derive(Clone, Copy, Debug)]
    pub struct Weighted(f64);

    impl Strategy for Weighted {
        type Value = core::primitive::bool;

        fn generate(&self, rng: &mut TestRng) -> core::primitive::bool {
            rng.unit_f64() < self.0
        }
    }

    /// `true` with probability `p`.
    pub fn weighted(p: f64) -> Weighted {
        Weighted(p)
    }
}

/// The glob-import surface tests use: `use proptest::prelude::*;`.
pub mod prelude {
    pub use crate as prop;
    pub use crate::strategy::{any, Just, Strategy};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
    };
}

/// Declares property tests: each `#[test] fn name(pat in strategy, ...)`
/// becomes a normal test that draws inputs and runs the body per case.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { config = $cfg; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! {
            config = $crate::test_runner::ProptestConfig::default();
            $($rest)*
        }
    };
}

/// Internal expansion of [`proptest!`]; not for direct use.
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (config = $cfg:expr;) => {};
    (config = $cfg:expr;
     $(#[$meta:meta])*
     fn $name:ident($($pat:pat in $strat:expr),+ $(,)?) $body:block
     $($rest:tt)*) => {
        $(#[$meta])*
        fn $name() {
            let config = $cfg;
            // All parameters pack into one tuple strategy: components
            // generate in declaration order (the RNG stream is the same
            // as the old per-parameter expansion), and a failing case
            // shrinks as a unit with the tuple's pinned candidate
            // order.
            let __strat = ($($strat,)+);
            $crate::test_runner::run_strategy(&config, stringify!($name), &__strat, |__vals| {
                let ($($pat,)+) = __vals;
                $body
                Ok(())
            });
        }
        $crate::__proptest_impl! { config = $cfg; $($rest)* }
    };
}

/// A uniform choice among the given strategies (all producing the same
/// value type).
#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![$($crate::strategy::boxed($arm)),+])
    };
}

/// Fails the current case when the condition is false.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!($($fmt)+),
            ));
        }
    };
}

/// Fails the current case when the two values differ.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (__l, __r) = (&$left, &$right);
        $crate::prop_assert!(*__l == *__r, "assert_eq failed: {:?} != {:?}", __l, __r);
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (__l, __r) = (&$left, &$right);
        $crate::prop_assert!(
            *__l == *__r,
            "assert_eq failed: {:?} != {:?}: {}",
            __l,
            __r,
            format!($($fmt)+)
        );
    }};
}

/// Fails the current case when the two values are equal.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (__l, __r) = (&$left, &$right);
        $crate::prop_assert!(*__l != *__r, "assert_ne failed: both {:?}", __l);
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (__l, __r) = (&$left, &$right);
        $crate::prop_assert!(
            *__l != *__r,
            "assert_ne failed: both {:?}: {}",
            __l,
            format!($($fmt)+)
        );
    }};
}

/// Rejects the current case (draws a replacement) when the condition is
/// false.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(,)?) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::reject(
                stringify!($cond).to_string(),
            ));
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn determinism() {
        let mut a = crate::rng::TestRng::new(7);
        let mut b = crate::rng::TestRng::new(7);
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = crate::rng::TestRng::new(1);
        for _ in 0..1000 {
            let v = (3u64..17).generate(&mut rng);
            assert!((3..17).contains(&v));
            let u = (0usize..8).generate(&mut rng);
            assert!(u < 8);
        }
    }

    #[test]
    fn range_shrink_halves_toward_start() {
        // Pinned: successive halvings of the distance to `start`,
        // ending at `start` itself. Any change here breaks recorded
        // minimal counterexamples, so this is a regression contract.
        assert_eq!((3u64..17).shrink(&16), vec![9, 6, 4, 3]);
        assert_eq!((0u8..100).shrink(&37), vec![18, 9, 4, 2, 1, 0]);
        assert_eq!((5usize..9).shrink(&5), Vec::<usize>::new());
    }

    #[test]
    fn tuple_shrink_order_is_pinned() {
        // Pinned, cross-process-stable order: component 0's candidates
        // exhaust first (others held fixed), then component 1's. The
        // order is a pure function of the failing value — re-running
        // the same failure anywhere reproduces this exact sequence.
        let strat = (0u64..100, 0u8..10);
        assert_eq!(
            strat.shrink(&(37, 5)),
            vec![
                (18, 5),
                (9, 5),
                (4, 5),
                (2, 5),
                (1, 5),
                (0, 5),
                (37, 2),
                (37, 1),
                (37, 0),
            ]
        );
        // A component already at its floor contributes no candidates.
        assert_eq!(strat.shrink(&(0, 3)), vec![(0, 1), (0, 0)]);
        assert_eq!(strat.shrink(&(0, 0)), Vec::<(u64, u8)>::new());
    }

    #[test]
    fn minimize_walks_greedily_to_a_stable_floor() {
        // Greedy halving from 600 against "fails iff >= 17" visits
        // 300, 150, 75, 37, 18 and stops (every candidate of 18 is
        // below the threshold). The floor and step count are exact.
        let strat = (0u64..1000,);
        let (min, steps) = crate::test_runner::minimize(&strat, (600,), |v| v.0 >= 17, 512);
        assert_eq!(min, (18,));
        assert_eq!(steps, 5);
        // A later component shrinks only after the first is done.
        let pair = (0u64..1000, 0u64..1000);
        let (min, _) =
            crate::test_runner::minimize(&pair, (600, 601), |v| v.0 >= 17 && v.1 >= 33, 512);
        assert_eq!(min, (18, 37));
    }

    #[test]
    fn vec_lengths_respect_size_range() {
        let mut rng = crate::rng::TestRng::new(2);
        for _ in 0..200 {
            let v = crate::collection::vec(0u8..10, 1..5).generate(&mut rng);
            assert!((1..5).contains(&v.len()));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn macro_wires_strategies(x in 0u64..100, flag in any::<bool>(), v in prop::collection::vec(0u8..4, 0..6)) {
            prop_assert!(x < 100);
            prop_assert!(v.len() < 6);
            let _ = flag;
        }

        #[test]
        fn oneof_and_map(v in prop_oneof![
            (0u8..4).prop_map(|x| x as u64),
            Just(99u64),
        ]) {
            prop_assert!(v < 4 || v == 99, "got {v}");
        }

        // The failure path reports a shrunk input: whatever case first
        // trips the assertion, the irrelevant second parameter always
        // minimizes to its floor before the panic fires.
        #[test]
        #[should_panic(expected = "shrunk to minimal input")]
        fn failures_report_shrunk_inputs(x in 0u64..1000, y in 0u8..10) {
            let _ = y;
            prop_assert!(x < 17, "x too big");
        }
    }
}
