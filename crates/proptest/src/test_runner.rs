//! The case loop: replay persisted regressions, generate novel cases,
//! persist the first failure.

use std::fmt::Debug;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};

use crate::rng::{mix, TestRng};
use crate::strategy::Strategy;

/// Runner configuration (`#![proptest_config(..)]`).
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of successful cases required for the test to pass.
    pub cases: u32,
    /// Maximum rejected cases (`prop_assume!`) before giving up.
    pub max_global_rejects: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig {
            cases: 256,
            max_global_rejects: 65_536,
        }
    }
}

impl ProptestConfig {
    /// A config differing from the default only in case count.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig {
            cases,
            ..ProptestConfig::default()
        }
    }
}

/// Why one generated case did not pass.
#[derive(Debug, Clone)]
pub enum TestCaseError {
    /// The property is false for this input.
    Fail(String),
    /// The input fell outside the property's assumptions; try another.
    Reject(String),
}

impl TestCaseError {
    /// A failure with a message.
    pub fn fail(msg: impl Into<String>) -> Self {
        TestCaseError::Fail(msg.into())
    }

    /// A rejection with a message.
    pub fn reject(msg: impl Into<String>) -> Self {
        TestCaseError::Reject(msg.into())
    }
}

/// Result type property bodies evaluate to.
pub type TestCaseResult = Result<(), TestCaseError>;

/// Holds the RNG strategies draw from; mirrors upstream's type so code can
/// call `strategy.new_tree(&mut runner)` directly.
#[derive(Debug, Clone)]
pub struct TestRunner {
    rng: TestRng,
}

impl TestRunner {
    /// A runner with a fixed, documented seed: every call site sees the
    /// same sequence.
    pub fn deterministic() -> Self {
        TestRunner {
            rng: TestRng::new(0x0000_5EED_0000_5EED),
        }
    }

    /// The underlying RNG.
    pub fn rng(&mut self) -> &mut TestRng {
        &mut self.rng
    }
}

/// Drives one `proptest!`-generated test: replays persisted regression
/// seeds first, then novel deterministic cases until `config.cases` pass.
/// Panics (failing the surrounding `#[test]`) on the first failing case,
/// after persisting its seed.
pub fn run_proptest<S, F>(
    config: ProptestConfig,
    source_file: &str,
    manifest_dir: &str,
    test_name: &str,
    strategy: S,
    test: F,
) where
    S: Strategy,
    F: Fn(S::Value) -> TestCaseResult,
{
    let regression_path = regression_file(source_file, manifest_dir);
    let persisted = regression_path
        .as_deref()
        .map(load_regression_seeds)
        .unwrap_or_default();

    let base = mix(fnv1a(source_file.as_bytes()) ^ fnv1a(test_name.as_bytes()));
    let mut passed: u32 = 0;
    let mut rejected: u32 = 0;
    let mut novel: u64 = 0;
    let mut replay = persisted.into_iter();

    while passed < config.cases {
        let (seed, is_replay) = match replay.next() {
            Some(s) => (s, true),
            None => {
                let s = mix(base.wrapping_add(novel));
                novel += 1;
                (s, false)
            }
        };
        let mut rng = TestRng::new(seed);
        let value = strategy.pick(&mut rng);
        let shown = format!("{value:?}");
        match catch_unwind(AssertUnwindSafe(|| test(value))) {
            Ok(Ok(())) => passed += 1,
            Ok(Err(TestCaseError::Reject(_))) if !is_replay => {
                rejected += 1;
                assert!(
                    rejected <= config.max_global_rejects,
                    "{test_name}: too many rejected cases ({rejected}); \
                     weaken the prop_assume! or widen the strategies"
                );
            }
            // A persisted seed whose assumption no longer holds is stale,
            // not a failure.
            Ok(Err(TestCaseError::Reject(_))) => {}
            Ok(Err(TestCaseError::Fail(msg))) => {
                fail(&regression_path, test_name, seed, &shown, &msg, passed)
            }
            Err(payload) => {
                let msg = panic_message(payload.as_ref());
                fail(&regression_path, test_name, seed, &shown, &msg, passed)
            }
        }
    }
}

fn fail(
    regression_path: &Option<PathBuf>,
    test_name: &str,
    seed: u64,
    value: &str,
    msg: &str,
    passed: u32,
) -> ! {
    if let Some(path) = regression_path {
        persist_seed(path, seed, value);
    }
    panic!(
        "proptest case failed: {msg}\n\
         test: {test_name}, case seed: {seed:016x} (persisted), \
         {passed} cases passed before failure\n\
         failing input: {value}"
    );
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "test body panicked".to_owned()
    }
}

/// `tests/foo.rs` → `<manifest>/tests/foo.proptest-regressions`, the
/// sibling-file convention this repo already uses. Tests outside a `tests`
/// directory get no persistence.
fn regression_file(source_file: &str, manifest_dir: &str) -> Option<PathBuf> {
    let src = Path::new(source_file);
    let stem = src.file_stem()?;
    if src.parent()?.file_name()? != "tests" {
        return None;
    }
    let dir = Path::new(manifest_dir).join("tests");
    if !dir.is_dir() {
        return None;
    }
    let mut name = stem.to_owned();
    name.push(".proptest-regressions");
    Some(dir.join(name))
}

/// Parses `cc <hex>` lines. Seeds this shim wrote are 16 hex digits and
/// parse back exactly; longer tokens (written by upstream proptest) are
/// folded to a deterministic 64-bit seed so they still replay *a* case.
fn load_regression_seeds(path: &Path) -> Vec<u64> {
    let Ok(text) = std::fs::read_to_string(path) else {
        return Vec::new();
    };
    text.lines()
        .filter_map(|line| {
            let rest = line.trim().strip_prefix("cc ")?;
            let token = rest.split_whitespace().next()?;
            if token.len() == 16 {
                if let Ok(seed) = u64::from_str_radix(token, 16) {
                    return Some(seed);
                }
            }
            Some(fnv1a(token.as_bytes()))
        })
        .collect()
}

fn persist_seed(path: &Path, seed: u64, value: &str) {
    use std::io::Write;
    let header = !path.exists();
    let Ok(mut file) = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
    else {
        return;
    };
    if header {
        let _ = writeln!(
            file,
            "# Seeds for failure cases proptest has generated in the past. It is\n\
             # automatically read and these particular cases re-run before any\n\
             # novel cases are generated.\n\
             #\n\
             # It is recommended to check this file in to source control so that\n\
             # everyone who runs the test benefits from these saved cases."
        );
    }
    let one_line = value.replace('\n', " ");
    let _ = writeln!(file, "cc {seed:016x} # shrinks to {one_line}");
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_constructors() {
        assert_eq!(ProptestConfig::default().cases, 256);
        assert_eq!(ProptestConfig::with_cases(24).cases, 24);
    }

    #[test]
    fn deterministic_runner_repeats() {
        let mut a = TestRunner::deterministic();
        let mut b = TestRunner::deterministic();
        assert_eq!(a.rng().next_u64(), b.rng().next_u64());
    }

    #[test]
    fn run_passes_trivially_true_property() {
        run_proptest(
            ProptestConfig::with_cases(16),
            "src/test_runner.rs",
            env!("CARGO_MANIFEST_DIR"),
            "trivial",
            (0u64..100,),
            |(v,)| {
                assert!(v < 100);
                Ok(())
            },
        );
    }

    #[test]
    #[should_panic(expected = "proptest case failed")]
    fn run_reports_failures() {
        run_proptest(
            ProptestConfig::with_cases(16),
            "src/test_runner.rs",
            env!("CARGO_MANIFEST_DIR"),
            "always_false",
            (0u64..100,),
            |(_v,)| Err(TestCaseError::fail("nope")),
        );
    }

    #[test]
    #[should_panic(expected = "too many rejected")]
    fn run_caps_rejections() {
        run_proptest(
            ProptestConfig {
                cases: 4,
                max_global_rejects: 8,
            },
            "src/test_runner.rs",
            env!("CARGO_MANIFEST_DIR"),
            "always_rejected",
            (0u64..100,),
            |(_v,)| Err(TestCaseError::reject("never satisfiable")),
        );
    }

    #[test]
    fn regression_seed_parsing() {
        let dir = std::env::temp_dir().join("proptest_shim_seed_parse");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("x.proptest-regressions");
        std::fs::write(
            &path,
            "# comment\ncc 00000000000000ff # shrinks to v = 1\ncc fc7fe7e35e6a56bb55 # legacy\n",
        )
        .unwrap();
        let seeds = load_regression_seeds(&path);
        assert_eq!(seeds.len(), 2);
        assert_eq!(seeds[0], 0xff);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn regression_file_only_for_tests_dirs() {
        assert!(regression_file("src/lib.rs", env!("CARGO_MANIFEST_DIR")).is_none());
    }
}
