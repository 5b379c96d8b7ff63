#![forbid(unsafe_code)]
//! Offline stand-in for the `proptest` crate.
//!
//! The build environment has no access to crates.io, so this crate vendors a
//! small PRNG-driven property-test harness behind the subset of the proptest
//! 1.x API the workspace's tests use: the `proptest!` macro, `prop_assert!` /
//! `prop_assert_eq!`, `Strategy` with `prop_map` / `prop_flat_map`,
//! `ProptestConfig::with_cases`, `Just`, integer-range strategies, and the
//! `bool::ANY` / `num::u8::ANY` / `collection::vec` / `option::of` strategy
//! constructors.
//!
//! Unlike real proptest there is **no shrinking**: a failing case panics
//! immediately with the case number and fixed seed, which is enough to
//! reproduce it (generation is fully deterministic per test).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::ops::{Range, RangeInclusive};

/// Test-runner configuration (stand-in for `proptest::test_runner::Config`).
#[derive(Clone, Copy, Debug)]
pub struct ProptestConfig {
    /// Number of random cases each property runs.
    pub cases: u32,
}

impl ProptestConfig {
    /// A config running `cases` random cases per property.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 64 }
    }
}

/// Failure value for property bodies that return `Result` (stand-in for
/// `proptest::test_runner::TestCaseError`). Helpers used inside `proptest!`
/// bodies can return `Result<(), TestCaseError>` and be chained with `?`.
#[derive(Clone, Debug)]
pub enum TestCaseError {
    /// The property does not hold for this case.
    Fail(String),
    /// The generated case should be discarded (treated as a failure here,
    /// since this shim does not re-draw rejected cases).
    Reject(String),
}

impl TestCaseError {
    /// A failure with the given reason.
    pub fn fail(reason: impl Into<String>) -> Self {
        TestCaseError::Fail(reason.into())
    }

    /// A rejection with the given reason.
    pub fn reject(reason: impl Into<String>) -> Self {
        TestCaseError::Reject(reason.into())
    }
}

impl std::fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TestCaseError::Fail(r) => write!(f, "test case failed: {r}"),
            TestCaseError::Reject(r) => write!(f, "test case rejected: {r}"),
        }
    }
}

/// The RNG driving value generation (deterministic per test).
pub type TestRng = StdRng;

/// Builds the deterministic RNG for a named property test.
pub fn test_rng(test_name: &str) -> TestRng {
    // FNV-1a over the test name so each property gets its own stream.
    let mut h = 0xcbf29ce484222325u64;
    for b in test_name.bytes() {
        h = (h ^ b as u64).wrapping_mul(0x100000001b3);
    }
    StdRng::seed_from_u64(h)
}

/// A value generator (stand-in for `proptest::strategy::Strategy`).
///
/// Strategies are pure generators here: `gen` draws one value from the RNG.
pub trait Strategy {
    /// The type of generated values.
    type Value;

    /// Draws one value.
    fn gen(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<U, F: Fn(Self::Value) -> U>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }

    /// Generates a value, then generates from the strategy `f` returns.
    fn prop_flat_map<S2: Strategy, F: Fn(Self::Value) -> S2>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
    {
        FlatMap { inner: self, f }
    }
}

/// Strategy returned by [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
    type Value = U;
    fn gen(&self, rng: &mut TestRng) -> U {
        (self.f)(self.inner.gen(rng))
    }
}

/// Strategy returned by [`Strategy::prop_flat_map`].
pub struct FlatMap<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, S2: Strategy, F: Fn(S::Value) -> S2> Strategy for FlatMap<S, F> {
    type Value = S2::Value;
    fn gen(&self, rng: &mut TestRng) -> S2::Value {
        (self.f)(self.inner.gen(rng)).gen(rng)
    }
}

/// Always generates a clone of one value (stand-in for `proptest::Just`).
#[derive(Clone, Debug)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn gen(&self, _: &mut TestRng) -> T {
        self.0.clone()
    }
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn gen(&self, rng: &mut TestRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn gen(&self, rng: &mut TestRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
    )*};
}

impl_range_strategy!(usize, u64, u32, u16, u8);

impl Strategy for Range<f64> {
    type Value = f64;
    fn gen(&self, rng: &mut TestRng) -> f64 {
        rng.gen_range(self.clone())
    }
}

macro_rules! impl_tuple_strategy {
    ($($s:ident),+) => {
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn gen(&self, rng: &mut TestRng) -> Self::Value {
                #[allow(non_snake_case)]
                let ($($s,)+) = self;
                ($($s.gen(rng),)+)
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

pub mod bool {
    //! Boolean strategies (stand-in for `proptest::bool`).

    use super::{Rng, Strategy, TestRng};

    /// Uniform `true`/`false`.
    #[derive(Clone, Copy, Debug)]
    pub struct Any;

    /// The uniform boolean strategy.
    pub const ANY: Any = Any;

    impl Strategy for Any {
        type Value = bool;
        fn gen(&self, rng: &mut TestRng) -> bool {
            rng.gen_bool(0.5)
        }
    }
}

pub mod num {
    //! Numeric strategies (stand-in for `proptest::num`).

    macro_rules! num_module {
        ($($m:ident),*) => {$(
            pub mod $m {
                use crate::{Rng, Strategy, TestRng};

                /// Uniform over the full domain of the type.
                #[derive(Clone, Copy, Debug)]
                pub struct Any;

                /// The uniform strategy for this type.
                pub const ANY: Any = Any;

                impl Strategy for Any {
                    // The module is named after the primitive it generates,
                    // so the type must be named through `std::primitive`.
                    type Value = ::std::primitive::$m;
                    fn gen(&self, rng: &mut TestRng) -> ::std::primitive::$m {
                        rng.next_u64() as ::std::primitive::$m
                    }
                }
            }
        )*};
    }

    num_module!(u8, u16, u32, u64, usize);
}

pub mod collection {
    //! Collection strategies (stand-in for `proptest::collection`).

    use super::{Rng, Strategy, TestRng};
    use std::ops::Range;

    /// Element count for [`vec()`]: a fixed length or a length range.
    pub trait IntoLenRange {
        /// Draws a concrete length.
        fn draw_len(&self, rng: &mut TestRng) -> usize;
    }

    impl IntoLenRange for usize {
        fn draw_len(&self, _: &mut TestRng) -> usize {
            *self
        }
    }

    impl IntoLenRange for Range<usize> {
        fn draw_len(&self, rng: &mut TestRng) -> usize {
            rng.gen_range(self.clone())
        }
    }

    /// Generates `Vec`s of values from `element`.
    pub fn vec<S: Strategy, L: IntoLenRange>(element: S, len: L) -> VecStrategy<S, L> {
        VecStrategy { element, len }
    }

    /// Strategy returned by [`vec()`].
    pub struct VecStrategy<S, L> {
        element: S,
        len: L,
    }

    impl<S: Strategy, L: IntoLenRange> Strategy for VecStrategy<S, L> {
        type Value = Vec<S::Value>;
        fn gen(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = self.len.draw_len(rng);
            (0..n).map(|_| self.element.gen(rng)).collect()
        }
    }
}

pub mod option {
    //! `Option` strategies (stand-in for `proptest::option`).

    use super::{Rng, Strategy, TestRng};

    /// Generates `Some(value)` about three quarters of the time.
    pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
        OptionStrategy { inner }
    }

    /// Strategy returned by [`of`].
    pub struct OptionStrategy<S> {
        inner: S,
    }

    impl<S: Strategy> Strategy for OptionStrategy<S> {
        type Value = Option<S::Value>;
        fn gen(&self, rng: &mut TestRng) -> Option<S::Value> {
            if rng.gen_bool(0.75) {
                Some(self.inner.gen(rng))
            } else {
                None
            }
        }
    }
}

pub mod minimize {
    //! Minimal-input search for failing matrix cases.
    //!
    //! The shim's `proptest!` macro has no shrinking, which makes a failing
    //! 16×16 request matrix nearly unreadable. Matrix-shaped properties can
    //! instead minimize by hand: on failure, call [`matrix`] with a
    //! predicate that re-runs the property, and report the stripped-down
    //! counterexample. Dimensions are preserved (allocator priority state
    //! depends on them); minimization clears entries, never resizes.

    /// Greedily minimizes a failing boolean matrix under `still_fails`.
    ///
    /// Strips whole rows first, then whole columns, then individual set
    /// bits, repeating to a fixpoint. The result still satisfies
    /// `still_fails` and is 1-minimal: clearing any single remaining set
    /// bit no longer reproduces the failure. The predicate must be pure
    /// per call (construct fresh state inside it); it is called many times.
    ///
    /// `m` must be rectangular and must fail on entry — otherwise the
    /// original matrix is returned unchanged.
    pub fn matrix<F>(mut m: Vec<Vec<bool>>, mut still_fails: F) -> Vec<Vec<bool>>
    where
        F: FnMut(&[Vec<bool>]) -> bool,
    {
        if !still_fails(&m) {
            return m;
        }
        let cols = m.first().map_or(0, Vec::len);
        loop {
            let mut changed = false;
            // Whole rows: the biggest bite first.
            for r in 0..m.len() {
                if m[r].iter().any(|&b| b) {
                    let saved = std::mem::replace(&mut m[r], vec![false; cols]);
                    if still_fails(&m) {
                        changed = true;
                    } else {
                        m[r] = saved;
                    }
                }
            }
            // Whole columns.
            for c in 0..cols {
                if m.iter().any(|row| row[c]) {
                    let saved: Vec<bool> = m.iter().map(|row| row[c]).collect();
                    for row in &mut m {
                        row[c] = false;
                    }
                    if still_fails(&m) {
                        changed = true;
                    } else {
                        for (row, &b) in m.iter_mut().zip(&saved) {
                            row[c] = b;
                        }
                    }
                }
            }
            // Individual bits.
            for r in 0..m.len() {
                for c in 0..cols {
                    if m[r][c] {
                        m[r][c] = false;
                        if still_fails(&m) {
                            changed = true;
                        } else {
                            m[r][c] = true;
                        }
                    }
                }
            }
            if !changed {
                return m;
            }
        }
    }

    /// Renders a minimized matrix for a failure message.
    pub fn render(m: &[Vec<bool>]) -> String {
        m.iter()
            .map(|row| {
                row.iter()
                    .map(|&b| if b { '1' } else { '.' })
                    .collect::<String>()
            })
            .collect::<Vec<_>>()
            .join("\n")
    }
}

pub mod prelude {
    //! The common imports (stand-in for `proptest::prelude`).

    /// `prop::` path alias used by `proptest::prelude::*` consumers.
    pub use crate as prop;
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, proptest, Just, ProptestConfig, Strategy,
        TestCaseError,
    };
}

/// Asserts a condition inside a property (panics without shrinking).
#[macro_export]
macro_rules! prop_assert {
    ($($t:tt)*) => { assert!($($t)*) };
}

/// Asserts equality inside a property (panics without shrinking).
#[macro_export]
macro_rules! prop_assert_eq {
    ($($t:tt)*) => { assert_eq!($($t)*) };
}

/// Asserts inequality inside a property (panics without shrinking).
#[macro_export]
macro_rules! prop_assert_ne {
    ($($t:tt)*) => { assert_ne!($($t)*) };
}

/// Declares property tests (stand-in for `proptest::proptest!`).
///
/// Supports the forms used in this workspace:
///
/// ```ignore
/// proptest! {
///     #![proptest_config(ProptestConfig::with_cases(64))]
///
///     #[test]
///     fn name(x in strategy, (a, b) in other_strategy) { ... }
/// }
/// ```
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl!{ $cfg; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl!{ $crate::ProptestConfig::default(); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    ($cfg:expr; $(#[test] fn $name:ident($($arg:pat in $strat:expr),+ $(,)?) $body:block)*) => {
        $(
            #[test]
            fn $name() {
                let cfg: $crate::ProptestConfig = $cfg;
                let mut rng = $crate::test_rng(concat!(module_path!(), "::", stringify!($name)));
                for case in 0..cfg.cases {
                    // The body runs in a `Result` closure so `?` works on
                    // helpers returning `Result<(), TestCaseError>`.
                    let run = || -> ::std::result::Result<(), $crate::TestCaseError> {
                        $(let $arg = $crate::Strategy::gen(&($strat), &mut rng);)+
                        $body
                        Ok(())
                    };
                    let report = || eprintln!(
                        "proptest case {}/{} of {} failed (deterministic seed; re-run to reproduce)",
                        case + 1, cfg.cases, stringify!($name),
                    );
                    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(run)) {
                        Ok(Ok(())) => {}
                        Ok(Err(e)) => {
                            report();
                            panic!("{e}");
                        }
                        Err(e) => {
                            report();
                            std::panic::resume_unwind(e);
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

    #[test]
    fn ranges_and_maps_generate_in_bounds() {
        let mut rng = crate::test_rng("ranges_and_maps");
        let s = (1usize..=4).prop_map(|n| n * 2);
        for _ in 0..100 {
            let v = s.gen(&mut rng);
            assert!([2, 4, 6, 8].contains(&v));
        }
    }

    #[test]
    fn flat_map_threads_the_outer_value() {
        let mut rng = crate::test_rng("flat_map");
        let s = (2usize..5).prop_flat_map(|n| {
            crate::collection::vec(crate::bool::ANY, n).prop_map(move |v| (n, v))
        });
        for _ in 0..50 {
            let (n, v) = s.gen(&mut rng);
            assert_eq!(v.len(), n);
        }
    }

    #[test]
    fn minimizer_strips_seeded_failure_to_its_essential_bits() {
        // Regression for the matrix minimizer on a seeded known-failure: a
        // dense random 8x6 matrix whose "bug" only needs bits (2, 3) and
        // (5, 0). The minimizer must strip every other row, column, and bit
        // and return exactly the two essential entries.
        use rand::Rng;
        let mut rng = crate::test_rng("minimizer_seeded_failure");
        let mut m: Vec<Vec<bool>> = (0..8)
            .map(|_| (0..6).map(|_| rng.gen_bool(0.7)).collect())
            .collect();
        m[2][3] = true;
        m[5][0] = true;
        let fails = |m: &[Vec<bool>]| m[2][3] && m[5][0];
        let min = crate::minimize::matrix(m, fails);
        let expected: Vec<Vec<bool>> = (0..8)
            .map(|r| {
                (0..6)
                    .map(|c| (r, c) == (2, 3) || (r, c) == (5, 0))
                    .collect()
            })
            .collect();
        assert_eq!(min, expected, "\n{}", crate::minimize::render(&min));
    }

    #[test]
    fn minimizer_returns_input_when_it_does_not_fail() {
        let m = vec![vec![true, false], vec![false, true]];
        let same = crate::minimize::matrix(m.clone(), |_| false);
        assert_eq!(same, m);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn macro_form_works(x in 0usize..10, flags in prop::collection::vec(prop::bool::ANY, 0..5)) {
            prop_assert!(x < 10);
            prop_assert!(flags.len() < 5);
        }

        #[test]
        fn tuple_and_option_strategies(
            (a, b) in (1usize..3, prop::num::u8::ANY),
            o in prop::option::of(0usize..2)
        ) {
            prop_assert!(a < 3);
            let _ = b;
            if let Some(v) = o {
                prop_assert!(v < 2);
            }
        }
    }
}
