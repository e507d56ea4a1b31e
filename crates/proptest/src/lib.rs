//! A vendored, dependency-free stand-in for the `proptest` crate.
//!
//! The workspace's property suites were written against upstream proptest,
//! but this build environment is hermetic (no crates.io access), so the
//! registry crate cannot be fetched. This crate reimplements exactly the
//! API surface the suites use:
//!
//! * the [`proptest!`] macro (with `#![proptest_config(..)]`, doc
//!   comments, `#[test]` pass-through, and `pat in strategy` arguments);
//! * [`prop_assert!`], [`prop_assert_eq!`], [`prop_assert_ne!`],
//!   [`prop_assume!`], [`prop_oneof!`];
//! * [`strategy::Strategy`] with `prop_map` and `new_tree`,
//!   [`strategy::ValueTree`], [`strategy::Just`];
//! * range strategies for the primitive integer/float types,
//!   [`arbitrary::any`], [`collection::vec`], [`sample::select`];
//! * [`test_runner::TestRunner`] and [`test_runner::ProptestConfig`].
//!
//! Semantics differ from upstream in two deliberate ways. Case generation
//! is fully deterministic — the case seed is derived from the source file,
//! test name, and case index, so CI and local runs explore the same inputs
//! (upstream seeds from OS entropy). And failing inputs are *not* shrunk;
//! the failing case seed is persisted where upstream keeps it (same
//! `cc <hex>` line format): a `tests/foo.rs` test's beside it in
//! `tests/foo.proptest-regressions`, a `src/a/b.rs` test's in
//! `<crate>/proptest-regressions/a/b.txt`. It is replayed before novel
//! cases on the next run, which keeps regressions pinned even without
//! shrinking.

pub mod arbitrary;
pub mod collection;
pub mod rng;
pub mod sample;
pub mod strategy;
pub mod test_runner;

pub mod prelude {
    //! Glob-import surface mirroring `proptest::prelude`.
    pub use crate::arbitrary::any;
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::{ProptestConfig, TestCaseError, TestCaseResult};
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
    };
}

/// Defines property tests. Each `fn name(arg in strategy, ...) { body }`
/// item becomes an ordinary `#[test]` (the attribute is passed through)
/// that runs the body over `ProptestConfig::cases` generated inputs.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_items! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items! {
            ($crate::test_runner::ProptestConfig::default()) $($rest)*
        }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    ( ($cfg:expr)
      $( $(#[$meta:meta])*
         fn $name:ident ( $($arg:pat in $strat:expr),+ $(,)? ) $body:block
      )*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let strategy = ( $($strat,)+ );
                $crate::test_runner::run_proptest(
                    $cfg,
                    file!(),
                    env!("CARGO_MANIFEST_DIR"),
                    stringify!($name),
                    strategy,
                    |($($arg,)+)| {
                        $body
                        ::std::result::Result::Ok(())
                    },
                );
            }
        )*
    };
}

/// Asserts within a property body; failure reports the generated inputs.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::std::result::Result::Err(
                $crate::test_runner::TestCaseError::fail(format!($($fmt)*)),
            );
        }
    };
}

/// Equality assertion within a property body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(*l == *r, "assertion failed: {:?} != {:?}", l, r);
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l == *r,
            "assertion failed: {:?} != {:?}: {}", l, r, format!($($fmt)*)
        );
    }};
}

/// Inequality assertion within a property body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(*l != *r, "assertion failed: {:?} == {:?}", l, r);
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l != *r,
            "assertion failed: {:?} == {:?}: {}", l, r, format!($($fmt)*)
        );
    }};
}

/// Rejects the current case (it is regenerated, not counted as a failure).
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::reject(
                concat!("assumption failed: ", stringify!($cond)),
            ));
        }
    };
}

/// Chooses uniformly among several strategies producing the same value
/// type. (Upstream's `weight => strategy` form is not supported.)
#[macro_export]
macro_rules! prop_oneof {
    ($($weight:literal => $strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new_weighted(vec![
            $(($weight, ::std::boxed::Box::new($strat)
                as ::std::boxed::Box<dyn $crate::strategy::DynStrategy<_>>)),+
        ])
    };
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $(::std::boxed::Box::new($strat)
                as ::std::boxed::Box<dyn $crate::strategy::DynStrategy<_>>),+
        ])
    };
}
