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
    let saved = record_failure(regression_path.as_deref(), seed, value);
    panic!(
        "proptest case failed: {msg}\n\
         test: {test_name}, case seed: {seed:016x} ({saved}), \
         {passed} cases passed before failure\n\
         failing input: {value}"
    );
}

/// Persists a failing seed and says where it went, or why it went
/// nowhere.
fn record_failure(regression_path: Option<&Path>, seed: u64, value: &str) -> String {
    match regression_path {
        Some(path) => match persist_seed(path, seed, value) {
            Ok(()) => format!("persisted to {}", path.display()),
            Err(e) => format!("not persisted: {}: {e}", path.display()),
        },
        None => "not persisted: the test is in neither src/ nor tests/".to_owned(),
    }
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

/// Where a test's failing seeds are saved and replayed from, as upstream
/// proptest places them:
///
/// * `.../src/a/b.rs` → `<manifest>/proptest-regressions/a/b.txt`, the
///   path below the first `src` component;
/// * `.../tests/foo.rs` → `<manifest>/tests/foo.proptest-regressions`,
///   beside the test.
///
/// Any other source file gets no persistence.
fn regression_file(source_file: &str, manifest_dir: &str) -> Option<PathBuf> {
    let src = Path::new(source_file);
    let manifest = Path::new(manifest_dir);
    let mut parts = src.components();
    if parts.any(|c| c.as_os_str() == "src") {
        let below = parts.as_path().with_extension("txt");
        return Some(manifest.join("proptest-regressions").join(below));
    }
    if src.parent()?.file_name()? != "tests" {
        return None;
    }
    let mut name = src.file_stem()?.to_owned();
    name.push(".proptest-regressions");
    Some(manifest.join("tests").join(name))
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

fn persist_seed(path: &Path, seed: u64, value: &str) -> std::io::Result<()> {
    use std::io::Write;
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let header = !path.exists();
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    if header {
        writeln!(
            file,
            "# Seeds for failure cases proptest has generated in the past. It is\n\
             # automatically read and these particular cases re-run before any\n\
             # novel cases are generated.\n\
             #\n\
             # It is recommended to check this file in to source control so that\n\
             # everyone who runs the test benefits from these saved cases."
        )?;
    }
    let one_line = value.replace('\n', " ");
    writeln!(file, "cc {seed:016x} # shrinks to {one_line}")
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

    /// A fresh directory under the system temp dir, standing in for a
    /// crate's manifest directory; removed on drop, unwinding included.
    struct ScratchManifest(PathBuf);

    impl ScratchManifest {
        fn new(name: &str) -> Self {
            let dir =
                std::env::temp_dir().join(format!("proptest_shim_{name}_{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).unwrap();
            ScratchManifest(dir)
        }

        fn dir(&self) -> &str {
            self.0.to_str().unwrap()
        }
    }

    impl Drop for ScratchManifest {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    #[test]
    #[should_panic(expected = "proptest case failed")]
    fn run_reports_failures() {
        let manifest = ScratchManifest::new("run_reports_failures");
        run_proptest(
            ProptestConfig::with_cases(16),
            "src/test_runner.rs",
            manifest.dir(),
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
    fn regression_file_maps_a_tests_file_beside_it() {
        assert_eq!(
            regression_file("crates/serve/tests/recovery_prop.rs", "/m"),
            Some(PathBuf::from("/m/tests/recovery_prop.proptest-regressions"))
        );
        assert_eq!(
            regression_file("tests/crash_consistency.rs", "/m"),
            Some(PathBuf::from(
                "/m/tests/crash_consistency.proptest-regressions"
            ))
        );
    }

    #[test]
    fn regression_file_maps_a_src_file_below_proptest_regressions() {
        assert_eq!(
            regression_file("crates/nvm/src/snapshot.rs", "/m"),
            Some(PathBuf::from("/m/proptest-regressions/snapshot.txt"))
        );
        assert_eq!(
            regression_file("src/store/kv.rs", "/m"),
            Some(PathBuf::from("/m/proptest-regressions/store/kv.txt"))
        );
        assert_eq!(regression_file("examples/demo.rs", "/m"), None);
    }

    #[test]
    fn failure_message_names_the_file_or_says_why_not() {
        let manifest = ScratchManifest::new("failure_message");
        let path = regression_file("crates/x/src/a/b.rs", manifest.dir()).unwrap();
        let saved = record_failure(Some(&path), 0xab, "v = 1");
        assert_eq!(saved, format!("persisted to {}", path.display()));
        assert_eq!(load_regression_seeds(&path), vec![0xab]);
        let saved = record_failure(None, 0xab, "v = 1");
        assert!(saved.starts_with("not persisted: "), "{saved}");
        // A directory standing where the file should go: the write fails.
        let blocked = manifest.0.join("blocked.txt");
        std::fs::create_dir_all(&blocked).unwrap();
        let saved = record_failure(Some(&blocked), 0xab, "v = 1");
        assert!(saved.starts_with("not persisted: "), "{saved}");
    }

    #[test]
    fn a_src_failure_is_replayed_first_on_the_next_run() {
        let manifest = ScratchManifest::new("src_replay");
        let dir = manifest.dir();
        let failed = catch_unwind(|| {
            run_proptest(
                ProptestConfig::with_cases(16),
                "crates/x/src/lib.rs",
                dir,
                "odd_fails",
                (0u64..1000,),
                |(v,)| match v % 2 {
                    0 => Ok(()),
                    _ => Err(TestCaseError::fail("odd")),
                },
            )
        });
        assert!(failed.is_err());
        let path = manifest.0.join("proptest-regressions/lib.txt");
        let seeds = load_regression_seeds(&path);
        assert_eq!(seeds.len(), 1, "the failing seed was saved");
        let first = std::cell::Cell::new(None);
        run_proptest(
            ProptestConfig::with_cases(1),
            "crates/x/src/lib.rs",
            dir,
            "odd_fails",
            (0u64..1000,),
            |(v,)| {
                first.set(first.get().or(Some(v)));
                Ok(())
            },
        );
        let replayed = (0u64..1000,).pick(&mut TestRng::new(seeds[0])).0;
        assert_eq!(first.get(), Some(replayed));
        assert_eq!(replayed % 2, 1, "the first case run is the saved failure");
    }
}
