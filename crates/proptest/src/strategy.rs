//! Value-generation strategies: the input half of the proptest API.

use crate::test_runner::TestRng;
use std::marker::PhantomData;
use std::ops::Range;

/// A recipe for generating values of one type from a deterministic RNG.
///
/// Unlike real proptest there is no value tree and no shrinking: `generate`
/// yields the final value directly.
pub trait Strategy {
    /// The type of generated values.
    type Value;

    /// Generates one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<U, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> U,
    {
        Map { inner: self, f }
    }

    /// Type-erases the strategy so differently-shaped strategies producing
    /// the same value type can share a container (see [`prop_oneof!`](crate::prop_oneof!)).
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        Box::new(self)
    }
}

/// A heap-allocated, type-erased strategy.
pub type BoxedStrategy<T> = Box<dyn Strategy<Value = T>>;

impl<T> Strategy for BoxedStrategy<T> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        (**self).generate(rng)
    }
}

impl<S: Strategy + ?Sized> Strategy for &S {
    type Value = S::Value;

    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        (**self).generate(rng)
    }
}

/// Always generates a clone of the given value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;

    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// The result of [`Strategy::prop_map`].
#[derive(Debug, Clone)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, F, U> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> U,
{
    type Value = U;

    fn generate(&self, rng: &mut TestRng) -> U {
        (self.f)(self.inner.generate(rng))
    }
}

/// Uniformly picks one of several boxed strategies per generated value.
/// Built by [`prop_oneof!`](crate::prop_oneof!).
pub struct UnionStrategy<T> {
    arms: Vec<BoxedStrategy<T>>,
}

impl<T> UnionStrategy<T> {
    /// Wraps a nonempty arm list.
    ///
    /// # Panics
    ///
    /// Panics if `arms` is empty — a `prop_oneof![]` with no arms is a
    /// test-authoring bug worth failing loudly on.
    pub fn new(arms: Vec<BoxedStrategy<T>>) -> Self {
        assert!(!arms.is_empty(), "prop_oneof! requires at least one arm");
        UnionStrategy { arms }
    }
}

impl<T> Strategy for UnionStrategy<T> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        let idx = rng.below(self.arms.len() as u64) as usize;
        self.arms[idx].generate(rng)
    }
}

// --- ranges ---------------------------------------------------------------

macro_rules! int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as i128 - self.start as i128) as u128;
                // Spans always fit u64 here: even i64/u64 full ranges do.
                let offset = rng.below(span as u64) as i128;
                (self.start as i128 + offset) as $t
            }
        }
    )*};
}

int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Strategy for Range<f32> {
    type Value = f32;

    fn generate(&self, rng: &mut TestRng) -> f32 {
        assert!(self.start < self.end, "empty range strategy");
        self.start + rng.unit_f64() as f32 * (self.end - self.start)
    }
}

impl Strategy for Range<f64> {
    type Value = f64;

    fn generate(&self, rng: &mut TestRng) -> f64 {
        assert!(self.start < self.end, "empty range strategy");
        self.start + rng.unit_f64() * (self.end - self.start)
    }
}

// --- any::<T>() -----------------------------------------------------------

/// Types with a canonical "uniform over the whole domain" strategy.
pub trait Arbitrary {
    /// Generates an unconstrained value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! int_arbitrary {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}

int_arbitrary!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

macro_rules! tuple_arbitrary {
    ($($name:ident),+) => {
        impl<$($name: Arbitrary),+> Arbitrary for ($($name,)+) {
            fn arbitrary(rng: &mut TestRng) -> Self {
                ($($name::arbitrary(rng),)+)
            }
        }
    };
}

tuple_arbitrary!(A);
tuple_arbitrary!(A, B);
tuple_arbitrary!(A, B, C);
tuple_arbitrary!(A, B, C, D);

/// Strategy generating unconstrained values of `T` (see [`any`]).
#[derive(Debug, Clone, Copy)]
pub struct AnyStrategy<T> {
    _marker: PhantomData<fn() -> T>,
}

impl<T> AnyStrategy<T> {
    /// Const-constructible instance (used by `prop::num::u64::ANY`).
    pub const fn new() -> Self {
        AnyStrategy { _marker: PhantomData }
    }
}

impl<T> Default for AnyStrategy<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Arbitrary> Strategy for AnyStrategy<T> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// Generates unconstrained values of `T`: `any::<u64>()`, `any::<bool>()`.
pub fn any<T: Arbitrary>() -> AnyStrategy<T> {
    AnyStrategy::new()
}

/// Normal (finite, non-zero, non-subnormal) `f64` of either sign — the
/// `prop::num::f64::NORMAL` strategy.
#[derive(Debug, Clone, Copy)]
pub struct NormalF64;

impl Strategy for NormalF64 {
    type Value = f64;

    fn generate(&self, rng: &mut TestRng) -> f64 {
        loop {
            let v = f64::from_bits(rng.next_u64());
            if v.is_normal() {
                return v;
            }
        }
    }
}

// --- tuples of strategies -------------------------------------------------

macro_rules! tuple_strategy {
    ($(($name:ident, $idx:tt)),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);

            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    };
}

tuple_strategy!((A, 0));
tuple_strategy!((A, 0), (B, 1));
tuple_strategy!((A, 0), (B, 1), (C, 2));
tuple_strategy!((A, 0), (B, 1), (C, 2), (D, 3));
tuple_strategy!((A, 0), (B, 1), (C, 2), (D, 3), (E, 4));
tuple_strategy!((A, 0), (B, 1), (C, 2), (D, 3), (E, 4), (F, 5));

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn int_ranges_cover_bounds_eventually() {
        let mut rng = TestRng::from_seed(1);
        let strat = 0u8..4;
        let mut seen = [false; 4];
        for _ in 0..200 {
            seen[strat.generate(&mut rng) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all bucket values reachable");
    }

    #[test]
    fn signed_ranges_honor_negative_starts() {
        let mut rng = TestRng::from_seed(2);
        let strat = -5i32..5;
        for _ in 0..200 {
            let v = strat.generate(&mut rng);
            assert!((-5..5).contains(&v));
        }
    }

    #[test]
    fn full_u64_range_is_accepted() {
        let mut rng = TestRng::from_seed(3);
        let strat = 0u64..u64::MAX;
        for _ in 0..50 {
            let _ = strat.generate(&mut rng);
        }
    }

    #[test]
    fn map_applies_function() {
        let mut rng = TestRng::from_seed(4);
        let strat = (0u32..10).prop_map(|v| v * 2);
        for _ in 0..100 {
            assert_eq!(strat.generate(&mut rng) % 2, 0);
        }
    }

    #[test]
    fn union_only_yields_arm_values() {
        let mut rng = TestRng::from_seed(5);
        let strat = UnionStrategy::new(vec![Just(1u8).boxed(), Just(9u8).boxed()]);
        for _ in 0..100 {
            let v = strat.generate(&mut rng);
            assert!(v == 1 || v == 9);
        }
    }
}
