//! Vendored property-testing shim, API-compatible with the subset of
//! [proptest](https://docs.rs/proptest) this workspace uses.
//!
//! The build environment has no access to the crates registry, so the real
//! `proptest` cannot be fetched. Rather than rewrite every property test,
//! this crate re-implements the small surface they rely on:
//!
//! * the [`proptest!`] macro (with optional `#![proptest_config(..)]`),
//! * [`prop_assert!`] / [`prop_assert_eq!`] / [`prop_assert_ne!`],
//! * range strategies (`0u64..100`, `0.0f64..1.0`, …), [`any`](strategy::any), `Just`,
//!   [`prop_oneof!`], tuple strategies, and `.prop_map(..)`,
//! * `prop::num::{u64::ANY, f64::NORMAL}`.
//!
//! Semantics differ from real proptest in one deliberate way: there is no
//! shrinking. Generation is fully deterministic per test (seeded from the
//! test name), so a failing case reproduces exactly on re-run; the failure
//! message carries the case index.
//!
//! Everything here is plain `std` — no dependencies, no macros beyond
//! `macro_rules!`.

#![forbid(unsafe_code)]

pub mod strategy;
pub mod test_runner;

/// Runner configuration: number of generated cases per property.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of cases to generate and run.
    pub cases: u32,
}

impl ProptestConfig {
    /// A config running `cases` generated inputs per property.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        // Real proptest defaults to 256; 64 keeps the heavier segmentation
        // properties inside CI budgets while still exploring the space.
        ProptestConfig { cases: 64 }
    }
}

/// Namespaced strategy constants, mirroring `proptest::prop`.
pub mod prop {
    /// Numeric strategies.
    pub mod num {
        /// `u64` strategies.
        pub mod u64 {
            /// Any `u64`, uniformly distributed.
            pub const ANY: crate::strategy::AnyStrategy<u64> =
                crate::strategy::AnyStrategy::new();
        }
        /// `f64` strategies.
        pub mod f64 {
            /// Normal (finite, non-subnormal) `f64` values of either sign.
            pub const NORMAL: crate::strategy::NormalF64 = crate::strategy::NormalF64;
        }
    }
}

/// The prelude: everything a property-test module needs.
pub mod prelude {
    pub use crate::strategy::{any, AnyStrategy, BoxedStrategy, Just, Strategy};
    pub use crate::test_runner::{TestCaseError, TestRng};
    pub use crate::{prop, ProptestConfig};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};
}

/// Defines deterministic property tests.
///
/// ```
/// use proptest::prelude::*;
///
/// proptest! {
///     #![proptest_config(ProptestConfig::with_cases(16))]
///
///     #[test]
///     fn addition_commutes(a in 0u32..1000, b in 0u32..1000) {
///         prop_assert_eq!(a + b, b + a);
///     }
/// }
/// ```
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { ($cfg); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { (<$crate::ProptestConfig as ::core::default::Default>::default()); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (($cfg:expr); $($(#[$meta:meta])+ fn $name:ident(
        $($arg:ident in $strat:expr),+ $(,)?
    ) $body:block)*) => {
        $(
            $(#[$meta])+
            fn $name() {
                let __cfg: $crate::ProptestConfig = $cfg;
                let mut __rng =
                    $crate::test_runner::TestRng::from_name(stringify!($name));
                for __case in 0..__cfg.cases {
                    $(
                        let $arg = $crate::strategy::Strategy::generate(
                            &($strat),
                            &mut __rng,
                        );
                    )+
                    let __outcome: ::core::result::Result<(), $crate::test_runner::TestCaseError> =
                        (|| { $body ::core::result::Result::Ok(()) })();
                    if let ::core::result::Result::Err(__e) = __outcome {
                        ::core::panic!(
                            "property `{}` failed at case {}/{}: {}",
                            stringify!($name),
                            __case + 1,
                            __cfg.cases,
                            __e
                        );
                    }
                }
            }
        )*
    };
}

/// Asserts a condition inside a property, failing the current case (with
/// the generating case index) instead of aborting the whole process state.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        if !$cond {
            return ::core::result::Result::Err(
                $crate::test_runner::TestCaseError::new(
                    ::std::string::String::from(
                        ::core::concat!("assertion failed: ", ::core::stringify!($cond)),
                    ),
                    ::core::file!(),
                    ::core::line!(),
                ),
            );
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::core::result::Result::Err(
                $crate::test_runner::TestCaseError::new(
                    ::std::format!($($fmt)+),
                    ::core::file!(),
                    ::core::line!(),
                ),
            );
        }
    };
}

/// `assert_eq!` for properties: fails the current case with both values.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {
        match (&$left, &$right) {
            (__l, __r) => {
                if !(*__l == *__r) {
                    return ::core::result::Result::Err(
                        $crate::test_runner::TestCaseError::new(
                            ::std::format!(
                                "assertion failed: `left == right`\n  left: {:?}\n right: {:?}",
                                __l,
                                __r
                            ),
                            ::core::file!(),
                            ::core::line!(),
                        ),
                    );
                }
            }
        }
    };
}

/// `assert_ne!` for properties: fails the current case with both values.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {
        match (&$left, &$right) {
            (__l, __r) => {
                if *__l == *__r {
                    return ::core::result::Result::Err(
                        $crate::test_runner::TestCaseError::new(
                            ::std::format!(
                                "assertion failed: `left != right`\n  both: {:?}",
                                __l
                            ),
                            ::core::file!(),
                            ::core::line!(),
                        ),
                    );
                }
            }
        }
    };
}

/// Uniformly picks one of several strategies producing the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::UnionStrategy::new(::std::vec![
            $($crate::strategy::Strategy::boxed($strat)),+
        ])
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(50))]

        #[test]
        fn ranges_stay_in_bounds(v in 10u64..20, f in -1.5f64..2.5) {
            prop_assert!((10..20).contains(&v));
            prop_assert!((-1.5..2.5).contains(&f));
        }

        #[test]
        fn tuples_and_map_compose(
            pair in (0u32..10, 0u32..10).prop_map(|(a, b)| a + b),
            flag in any::<bool>(),
        ) {
            prop_assert!(pair < 20);
            prop_assert!(flag || !flag);
        }

        #[test]
        fn oneof_picks_only_listed_values(v in prop_oneof![Just(1u8), Just(7u8)]) {
            prop_assert!(v == 1 || v == 7, "unexpected {v}");
        }

        #[test]
        fn normal_f64_is_normal(v in prop::num::f64::NORMAL) {
            prop_assert!(v.is_normal());
        }
    }

    #[test]
    fn generation_is_deterministic_per_name() {
        let mut a = TestRng::from_name("fixed");
        let mut b = TestRng::from_name("fixed");
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = TestRng::from_name("other");
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn failing_property_reports_case() {
        let strat = crate::strategy::Just(3u8);
        let mut rng = TestRng::from_name("x");
        let v = crate::strategy::Strategy::generate(&strat, &mut rng);
        let body = || -> Result<(), TestCaseError> {
            prop_assert!(v != 3, "tripwire fired on {v}");
            Ok(())
        };
        let err = body().expect_err("must fail");
        assert!(err.to_string().contains("tripwire fired on 3"));
    }
}
