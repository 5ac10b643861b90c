//! In-tree property-based testing.
//!
//! A deliberately small replacement for the subset of `proptest` this
//! workspace used: generator combinators, a configurable case count, a
//! failing-seed report with replay-by-seed, and basic shrinking for
//! integers and vectors.
//!
//! # Model
//!
//! A [`Gen`] produces values from a seeded [`qrand::rngs::StdRng`] and
//! knows how to propose *smaller* variants of a failing value
//! ([`Gen::shrink`]). Properties return an [`Outcome`]; the
//! [`prop_assert!`]/[`prop_assert_eq!`]/[`prop_assume!`] macros emit early
//! returns, and the [`properties!`] macro packages everything as `#[test]`
//! functions:
//!
//! ```
//! qcheck::properties! {
//!     fn addition_commutes(a in 0u64..1000, b in 0u64..1000) {
//!         qcheck::prop_assert_eq!(a + b, b + a);
//!     }
//! }
//! # fn main() {} // (doctest scaffolding)
//! ```
//!
//! # Determinism and replay
//!
//! Case seeds derive deterministically from the case index, so a failure
//! is reproducible by rerunning the same test binary. Each failure report
//! prints the case seed; exporting `QCHECK_SEED=<seed>` reruns exactly
//! that case (then shrinks and reports as usual). `QCHECK_CASES=<n>`
//! scales the number of cases globally without recompiling.

#![warn(missing_docs)]

use std::fmt::Debug;
use std::ops::{Range, RangeInclusive};

use qrand::rngs::StdRng;
use qrand::seq::SliceRandom;
use qrand::{Rng, SampleUniform, SeedableRng};

/// Result of evaluating a property on one generated case.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// The property held.
    Pass,
    /// The case did not meet the property's assumptions; draw another.
    Discard,
    /// The property failed with the given message.
    Fail(String),
}

impl Outcome {
    /// Shorthand for `Outcome::Fail(msg.into())`.
    pub fn fail(msg: impl Into<String>) -> Outcome {
        Outcome::Fail(msg.into())
    }
}

/// A value generator with optional shrinking.
pub trait Gen {
    /// The generated type.
    type Item;

    /// Draws one value.
    fn generate(&self, rng: &mut StdRng) -> Self::Item;

    /// Proposes strictly "smaller" variants of a failing value, best first.
    /// The default proposes nothing (no shrinking).
    fn shrink(&self, value: &Self::Item) -> Vec<Self::Item> {
        let _ = value;
        Vec::new()
    }
}

impl<G: Gen + ?Sized> Gen for &G {
    type Item = G::Item;
    fn generate(&self, rng: &mut StdRng) -> Self::Item {
        (**self).generate(rng)
    }
    fn shrink(&self, value: &Self::Item) -> Vec<Self::Item> {
        (**self).shrink(value)
    }
}

// ---------------------------------------------------------------------------
// Primitive generators: ranges are generators, proptest-style.
// ---------------------------------------------------------------------------

macro_rules! impl_int_range_gen {
    ($($t:ty),*) => {$(
        impl Gen for Range<$t> {
            type Item = $t;
            fn generate(&self, rng: &mut StdRng) -> $t {
                rng.gen_range(self.clone())
            }
            fn shrink(&self, value: &$t) -> Vec<$t> {
                shrink_int(*value, self.start)
            }
        }
        impl Gen for RangeInclusive<$t> {
            type Item = $t;
            fn generate(&self, rng: &mut StdRng) -> $t {
                rng.gen_range(self.clone())
            }
            fn shrink(&self, value: &$t) -> Vec<$t> {
                shrink_int(*value, *self.start())
            }
        }
    )*};
}
impl_int_range_gen!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// Integer shrink candidates: the range minimum, then the halving sequence
/// `value − (value−lo)/2, value − (value−lo)/4, …` down to the predecessor,
/// ordered most-aggressive first. The halving ladder lets the greedy shrink
/// loop binary-search toward a failure boundary in O(log) steps instead of
/// decrementing one at a time.
fn shrink_int<T>(value: T, lo: T) -> Vec<T>
where
    T: SampleUniform + PartialEq + Copy + Midpoint + Pred,
{
    let mut out = Vec::new();
    if value == lo {
        return out;
    }
    out.push(lo);
    // Walk candidate = midpoint(candidate, value) from lo toward value:
    // each iteration halves the remaining distance, so the ladder has at
    // most bit-width entries.
    let mut candidate = T::midpoint(lo, value);
    while candidate != value && !out.contains(&candidate) {
        out.push(candidate);
        candidate = T::midpoint(candidate, value);
    }
    let pred = value.pred();
    if pred != value && !out.contains(&pred) {
        out.push(pred);
    }
    out
}

/// Midpoint of two values, rounding toward the first.
pub trait Midpoint {
    /// `lo + (hi - lo) / 2` without overflow.
    fn midpoint(lo: Self, hi: Self) -> Self;
}

/// Predecessor of a value (toward the range minimum).
pub trait Pred {
    /// `self - 1` (saturating).
    fn pred(self) -> Self;
}

macro_rules! impl_mid_pred {
    ($($t:ty),*) => {$(
        impl Midpoint for $t {
            fn midpoint(lo: Self, hi: Self) -> Self {
                lo + (hi - lo) / 2
            }
        }
        impl Pred for $t {
            fn pred(self) -> Self {
                self.saturating_sub(1)
            }
        }
    )*};
}
impl_mid_pred!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! impl_float_range_gen {
    ($($t:ty),*) => {$(
        impl Gen for Range<$t> {
            type Item = $t;
            fn generate(&self, rng: &mut StdRng) -> $t {
                rng.gen_range(self.clone())
            }
            // Floats shrink to the range minimum only: anything cleverer
            // needs care around signs and kinks, and the minimum is already
            // the most readable counterexample coordinate.
            fn shrink(&self, value: &$t) -> Vec<$t> {
                if *value != self.start { vec![self.start] } else { Vec::new() }
            }
        }
        impl Gen for RangeInclusive<$t> {
            type Item = $t;
            fn generate(&self, rng: &mut StdRng) -> $t {
                rng.gen_range(self.clone())
            }
            fn shrink(&self, value: &$t) -> Vec<$t> {
                if *value != *self.start() { vec![*self.start()] } else { Vec::new() }
            }
        }
    )*};
}
impl_float_range_gen!(f32, f64);

// ---------------------------------------------------------------------------
// Combinators
// ---------------------------------------------------------------------------

/// Full-range `u64` generator (the classic "arbitrary seed").
pub fn any_u64() -> RangeInclusive<u64> {
    0..=u64::MAX
}

/// Generator for a constant.
pub fn just<T: Clone>(value: T) -> Just<T> {
    Just(value)
}

/// See [`just`].
#[derive(Debug, Clone)]
pub struct Just<T>(pub T);

impl<T: Clone> Gen for Just<T> {
    type Item = T;
    fn generate(&self, _rng: &mut StdRng) -> T {
        self.0.clone()
    }
}

/// Uniform choice from a fixed list; shrinks toward earlier entries.
pub fn choice<T: Clone, const N: usize>(options: [T; N]) -> Choice<T> {
    assert!(N > 0, "choice: options must be non-empty");
    Choice(options.to_vec())
}

/// See [`choice`].
#[derive(Debug, Clone)]
pub struct Choice<T>(Vec<T>);

impl<T: Clone> Gen for Choice<T> {
    type Item = T;
    fn generate(&self, rng: &mut StdRng) -> T {
        self.0.choose(rng).expect("non-empty").clone()
    }
    fn shrink(&self, _value: &T) -> Vec<T> {
        // Without Eq we cannot locate the value; propose the first option
        // (the conventional "simplest") as the only candidate.
        vec![self.0[0].clone()]
    }
}

/// Vector generator: length drawn from `len`, elements from `element`.
pub fn vec<G: Gen, L: Gen<Item = usize>>(element: G, len: L) -> VecGen<G, L> {
    VecGen { element, len }
}

/// See [`vec()`].
#[derive(Debug, Clone)]
pub struct VecGen<G, L> {
    element: G,
    len: L,
}

impl<G: Gen, L: Gen<Item = usize>> Gen for VecGen<G, L>
where
    G::Item: Clone,
{
    type Item = Vec<G::Item>;

    fn generate(&self, rng: &mut StdRng) -> Vec<G::Item> {
        let n = self.len.generate(rng);
        (0..n).map(|_| self.element.generate(rng)).collect()
    }

    fn shrink(&self, value: &Vec<G::Item>) -> Vec<Vec<G::Item>> {
        let mut out = Vec::new();
        let n = value.len();
        // Shorter prefixes first (halving), respecting the length range is
        // the runner's job via re-testing — candidates that violate the
        // property's own length assumptions will simply not fail again.
        if n > 0 {
            out.push(value[..n / 2].to_vec());
            if n > 1 {
                out.push(value[..n - 1].to_vec());
            }
        }
        // Element-wise shrinks, one position at a time (bounded fan-out).
        for (i, v) in value.iter().enumerate().take(8) {
            for candidate in self.element.shrink(v).into_iter().take(2) {
                let mut copy = value.clone();
                copy[i] = candidate;
                out.push(copy);
            }
        }
        out
    }
}

/// Maps a generator through a function (no shrinking through the map).
pub fn map<G: Gen, T, F: Fn(G::Item) -> T>(gen: G, f: F) -> Map<G, F> {
    Map { gen, f }
}

/// See [`map`].
pub struct Map<G, F> {
    gen: G,
    f: F,
}

impl<G: Gen, T, F: Fn(G::Item) -> T> Gen for Map<G, F> {
    type Item = T;
    fn generate(&self, rng: &mut StdRng) -> T {
        (self.f)(self.gen.generate(rng))
    }
}

macro_rules! impl_tuple_gen {
    ($($g:ident/$v:ident/$i:tt),+) => {
        impl<$($g: Gen),+> Gen for ($($g,)+)
        where
            $($g::Item: Clone,)+
        {
            type Item = ($($g::Item,)+);

            fn generate(&self, rng: &mut StdRng) -> Self::Item {
                ($(self.$i.generate(rng),)+)
            }

            fn shrink(&self, value: &Self::Item) -> Vec<Self::Item> {
                // One component shrinks per candidate; keep each component's
                // full ladder so the greedy loop can binary-search toward a
                // failure boundary (truncating it stalls the shrink).
                let mut out = Vec::new();
                $(
                    for candidate in self.$i.shrink(&value.$i) {
                        let mut copy = value.clone();
                        copy.$i = candidate;
                        out.push(copy);
                    }
                )+
                out
            }
        }
    };
}
impl_tuple_gen!(A/a/0);
impl_tuple_gen!(A/a/0, B/b/1);
impl_tuple_gen!(A/a/0, B/b/1, C/c/2);
impl_tuple_gen!(A/a/0, B/b/1, C/c/2, D/d/3);
impl_tuple_gen!(A/a/0, B/b/1, C/c/2, D/d/3, E/e/4);
impl_tuple_gen!(A/a/0, B/b/1, C/c/2, D/d/3, E/e/4, F/f/5);

// ---------------------------------------------------------------------------
// Runner
// ---------------------------------------------------------------------------

/// Runner configuration.
#[derive(Debug, Clone)]
pub struct Config {
    /// Number of passing cases required (default 64, env `QCHECK_CASES`).
    pub cases: u32,
    /// Maximum accepted shrink steps per failure.
    pub max_shrink_steps: u32,
    /// Discard budget as a multiple of `cases`.
    pub max_discard_ratio: u32,
    /// Base seed for case-seed derivation.
    pub base_seed: u64,
    /// Replay exactly this case seed (env `QCHECK_SEED`), then stop.
    pub replay_seed: Option<u64>,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            cases: 64,
            max_shrink_steps: 256,
            max_discard_ratio: 10,
            base_seed: 0x5eed_0000_0000_0000,
            replay_seed: None,
        }
    }
}

impl Config {
    /// Default configuration with `QCHECK_CASES`/`QCHECK_SEED` applied.
    pub fn from_env() -> Self {
        Config::with_cases(Config::default().cases)
    }

    /// `cases` cases unless `QCHECK_CASES` sets the count, with
    /// `QCHECK_SEED` applied.
    pub fn with_cases(cases: u32) -> Self {
        let mut cfg = Config {
            cases: case_count(std::env::var("QCHECK_CASES").ok().as_deref(), cases),
            ..Config::default()
        };
        if let Ok(seed) = std::env::var("QCHECK_SEED") {
            let s = seed.trim().trim_start_matches("0x");
            cfg.replay_seed = u64::from_str_radix(s, 16)
                .ok()
                .or_else(|| seed.trim().parse::<u64>().ok());
        }
        cfg
    }
}

/// The case count: the value of `QCHECK_CASES` (`env`) when it parses,
/// at least 1, else `fallback`.
fn case_count(env: Option<&str>, fallback: u32) -> u32 {
    env.and_then(|cases| cases.trim().parse::<u32>().ok())
        .map_or(fallback, |cases| cases.max(1))
}

fn case_seed(base: u64, index: u64) -> u64 {
    // SplitMix64-style mix of (base, index): decorrelates consecutive cases.
    let mut z = base
        .wrapping_add(index.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Checks `prop` against `cfg.cases` generated cases with default config.
///
/// # Panics
///
/// Panics with a replayable report if the property is falsified (or if the
/// discard budget is exhausted).
pub fn check<G: Gen>(name: &str, gen: &G, prop: impl Fn(&G::Item) -> Outcome)
where
    G::Item: Debug + Clone,
{
    check_with(&Config::from_env(), name, gen, prop);
}

/// [`check`] with an explicit configuration.
///
/// # Panics
///
/// Panics with a replayable report if the property is falsified (or if the
/// discard budget is exhausted).
pub fn check_with<G: Gen>(cfg: &Config, name: &str, gen: &G, prop: impl Fn(&G::Item) -> Outcome)
where
    G::Item: Debug + Clone,
{
    if let Some(seed) = cfg.replay_seed {
        let mut rng = StdRng::seed_from_u64(seed);
        let value = gen.generate(&mut rng);
        match prop(&value) {
            Outcome::Pass => println!("[qcheck] {name}: replay seed {seed:#018x} passes"),
            Outcome::Discard => println!("[qcheck] {name}: replay seed {seed:#018x} discarded"),
            Outcome::Fail(msg) => report_failure(cfg, name, gen, &prop, value, msg, seed, 0),
        }
        return;
    }

    let mut passes: u32 = 0;
    let mut discards: u32 = 0;
    let mut index: u64 = 0;
    while passes < cfg.cases {
        assert!(
            discards <= cfg.cases * cfg.max_discard_ratio,
            "[qcheck] property '{name}': discard budget exhausted \
             ({discards} discards for {passes} passes) — loosen the \
             generator or the prop_assume! conditions"
        );
        let seed = case_seed(cfg.base_seed, index);
        index += 1;
        let mut rng = StdRng::seed_from_u64(seed);
        let value = gen.generate(&mut rng);
        match prop(&value) {
            Outcome::Pass => passes += 1,
            Outcome::Discard => discards += 1,
            Outcome::Fail(msg) => report_failure(cfg, name, gen, &prop, value, msg, seed, passes),
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn report_failure<G: Gen>(
    cfg: &Config,
    name: &str,
    gen: &G,
    prop: &impl Fn(&G::Item) -> Outcome,
    original: G::Item,
    mut message: String,
    seed: u64,
    passes_before: u32,
) where
    G::Item: Debug + Clone,
{
    // Greedy shrink: take the first candidate that still fails; repeat.
    let mut current = original.clone();
    let mut steps = 0u32;
    'outer: while steps < cfg.max_shrink_steps {
        for candidate in gen.shrink(&current) {
            if let Outcome::Fail(msg) = prop(&candidate) {
                current = candidate;
                message = msg;
                steps += 1;
                continue 'outer;
            }
        }
        break;
    }
    panic!(
        "[qcheck] property '{name}' falsified after {passes_before} passing case(s)\n\
         case seed: {seed:#018x}  (replay: QCHECK_SEED={seed:#x} cargo test {name})\n\
         minimal counterexample ({steps} shrink step(s)): {current:?}\n\
         original counterexample: {original:?}\n\
         error: {message}"
    );
}

// ---------------------------------------------------------------------------
// Assertion macros (proptest-compatible names)
// ---------------------------------------------------------------------------

/// Asserts a condition inside a property; on failure returns
/// [`Outcome::Fail`] with the stringified condition (or a format message).
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return $crate::Outcome::fail(format!(
                "assertion failed: {} ({}:{})", stringify!($cond), file!(), line!()
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return $crate::Outcome::fail(format!($($fmt)+));
        }
    };
}

/// Asserts equality inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => {
        match (&$left, &$right) {
            (l, r) => {
                if !(l == r) {
                    return $crate::Outcome::fail(format!(
                        "assertion failed: {} == {}\n  left: {:?}\n right: {:?}",
                        stringify!($left), stringify!($right), l, r
                    ));
                }
            }
        }
    };
}

/// Asserts inequality inside a property.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr) => {
        match (&$left, &$right) {
            (l, r) => {
                if l == r {
                    return $crate::Outcome::fail(format!(
                        "assertion failed: {} != {} (both {:?})",
                        stringify!($left), stringify!($right), l
                    ));
                }
            }
        }
    };
}

/// Discards the current case unless the assumption holds.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return $crate::Outcome::Discard;
        }
    };
}

/// Declares property tests: each `fn name(arg in gen, ...) { body }` becomes
/// a `#[test]` running [`check`] over the tuple of generators. An optional
/// leading `cases = N;` sets the case count for the whole block; a set
/// `QCHECK_CASES` still wins over it.
#[macro_export]
macro_rules! properties {
    (@cfg ($cfg:expr); $(
        $(#[$meta:meta])*
        fn $name:ident($($arg:ident in $gen:expr),* $(,)?) $body:block
    )*) => {
        $(
            #[test]
            $(#[$meta])*
            fn $name() {
                let gen = ($($gen,)*);
                let cfg = $cfg;
                $crate::check_with(&cfg, stringify!($name), &gen, |__case| {
                    let ($($arg,)*) = ::std::clone::Clone::clone(__case);
                    $body
                    #[allow(unreachable_code)]
                    $crate::Outcome::Pass
                });
            }
        )*
    };
    (cases = $cases:expr; $($rest:tt)*) => {
        $crate::properties!(@cfg ($crate::Config::with_cases($cases)); $($rest)*);
    };
    ($($rest:tt)*) => {
        $crate::properties!(@cfg ($crate::Config::from_env()); $($rest)*);
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passing_property_runs_all_cases() {
        let cfg = Config {
            cases: 32,
            ..Config::default()
        };
        let mut count = 0u32;
        let counter = std::cell::Cell::new(0u32);
        check_with(&cfg, "tautology", &(0u64..100), |_| {
            counter.set(counter.get() + 1);
            Outcome::Pass
        });
        count += counter.get();
        assert_eq!(count, 32);
    }

    #[test]
    fn failing_property_reports_seed_and_shrinks() {
        let cfg = Config {
            cases: 200,
            ..Config::default()
        };
        let err = std::panic::catch_unwind(|| {
            check_with(&cfg, "finds_big", &(0u64..1000), |&v| {
                if v >= 500 {
                    Outcome::fail("too big")
                } else {
                    Outcome::Pass
                }
            });
        })
        .expect_err("property must be falsified");
        let msg = err.downcast_ref::<String>().expect("string panic");
        assert!(msg.contains("falsified"), "{msg}");
        assert!(msg.contains("QCHECK_SEED="), "{msg}");
        // Shrinking must land exactly on the boundary value 500.
        assert!(msg.contains("minimal counterexample"), "{msg}");
        assert!(msg.contains("shrink step(s)): 500\n"), "{msg}");
    }

    #[test]
    fn discard_budget_enforced() {
        let cfg = Config {
            cases: 10,
            max_discard_ratio: 2,
            ..Config::default()
        };
        let err = std::panic::catch_unwind(|| {
            check_with(&cfg, "discards_everything", &(0u64..10), |_| Outcome::Discard);
        })
        .expect_err("must exhaust discard budget");
        let msg = err.downcast_ref::<String>().expect("string panic");
        assert!(msg.contains("discard budget"), "{msg}");
    }

    #[test]
    fn vec_shrink_prefers_shorter() {
        let gen = vec(0u64..100, 0usize..=10);
        let candidates = gen.shrink(&std::vec![7, 8, 9, 10]);
        assert_eq!(candidates[0], std::vec![7, 8]);
        assert!(candidates.iter().any(|c| c.len() == 3));
    }

    #[test]
    fn int_shrink_walks_toward_range_start() {
        let gen = 5u64..100;
        let candidates = gen.shrink(&80);
        assert_eq!(candidates[0], 5);
        assert!(candidates.contains(&79));
        assert!(gen.shrink(&5).is_empty());
    }

    #[test]
    fn tuple_shrink_varies_one_coordinate() {
        let gen = (0u64..10, 0u64..10);
        for cand in gen.shrink(&(3, 4)) {
            let moved = usize::from(cand.0 != 3) + usize::from(cand.1 != 4);
            assert_eq!(moved, 1, "exactly one coordinate shrinks per candidate");
        }
    }

    #[test]
    fn choice_and_just_generate() {
        let mut rng = StdRng::seed_from_u64(1);
        let c = choice([10, 20, 30]);
        for _ in 0..20 {
            assert!([10, 20, 30].contains(&c.generate(&mut rng)));
        }
        assert_eq!(just(42).generate(&mut rng), 42);
    }

    #[test]
    fn map_transforms() {
        let mut rng = StdRng::seed_from_u64(2);
        let g = map(0u64..10, |v| v * 2);
        for _ in 0..20 {
            assert_eq!(g.generate(&mut rng) % 2, 0);
        }
    }

    #[test]
    fn env_case_count_wins_over_the_blocks() {
        assert_eq!(case_count(Some("2000"), 16), 2000);
        assert_eq!(case_count(Some(" 0 "), 16), 1);
        assert_eq!(case_count(None, 16), 16);
        assert_eq!(case_count(Some("many"), 16), 16);
    }

    #[test]
    fn replay_seed_regenerates_same_case() {
        let seed = 0xdead_beef_u64;
        let mut a = StdRng::seed_from_u64(seed);
        let mut b = StdRng::seed_from_u64(seed);
        let gen = (0u64..1000, 0.0f64..1.0);
        assert_eq!(gen.generate(&mut a).0, gen.generate(&mut b).0);
    }

    properties! {
        cases = 16;

        fn macro_declares_tests(a in 0u64..50, b in 0u64..50) {
            prop_assume!(a + b < 100);
            prop_assert!(a + b < 100);
            prop_assert_eq!(a + b, b + a);
            prop_assert_ne!(a + b + 1, a + b);
        }

        fn macro_supports_vec_gens(values in vec(-5.0f64..5.0, 1usize..8)) {
            prop_assert!(!values.is_empty());
            prop_assert!(values.iter().all(|v| (-5.0..5.0).contains(v)));
        }
    }
}
