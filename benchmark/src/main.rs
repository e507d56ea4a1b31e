//! The benchmark's command line.
//!
//! ```text
//! picl-benchmark --workload W --seed N --seconds S --trace 0|1
//! picl-benchmark run [--seed N] [--seconds S] [--out FILE] [--traced]
//! picl-benchmark compare A.json B.json
//! ```
//!
//! The first form measures one workload in this process, prints every
//! metric as `workload metric value unit`, and ends its output with one
//! JSON object: `correct`, `attempted`, `failed` and `metrics` (the
//! end-to-end metrics, or the per-layer ones with `--trace 1`). `run`
//! measures each workload in a child process of its own, so peak RSS is
//! per workload, and collects the results into one file; `compare` judges
//! two such files against the bounds in `BENCHMARK.json`, read from the
//! directory the benchmark runs in.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use picl_benchmark::compare::{self, Verdict};
use picl_benchmark::{fmt_num, run_workload, Settings, Workload};

/// Where span files and per-workload results go, under the directory the
/// benchmark runs from.
const OUT_DIR: &str = "benchmark/out";

fn usage() -> String {
    "usage:\n  picl-benchmark --workload W --seed N --seconds S --trace 0|1\n  \
     picl-benchmark run [--seed N] [--seconds S] [--out FILE] [--traced]\n  \
     picl-benchmark compare A.json B.json"
        .to_owned()
}

/// `--flag value` pairs and bare `--switch`es, after the subcommand.
struct Flags {
    pairs: Vec<(String, String)>,
    switches: Vec<String>,
    positional: Vec<String>,
}

impl Flags {
    fn parse(args: &[String], switches: &[&str], allowed: &[&str]) -> Result<Flags, String> {
        let mut flags = Flags {
            pairs: Vec::new(),
            switches: Vec::new(),
            positional: Vec::new(),
        };
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let Some(name) = arg.strip_prefix("--") else {
                flags.positional.push(arg.clone());
                continue;
            };
            if switches.contains(&name) {
                flags.switches.push(name.to_owned());
            } else if allowed.contains(&name) {
                let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
                flags.pairs.push((name.to_owned(), value.clone()));
            } else {
                return Err(format!("unknown flag --{name}\n{}", usage()));
            }
        }
        Ok(flags)
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.pairs
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    fn num<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        self.get(name).map_or(Ok(default), |v| {
            v.parse()
                .map_err(|_| format!("--{name}: cannot parse {v:?}"))
        })
    }

    fn has(&self, name: &str) -> bool {
        self.switches.iter().any(|s| s == name)
    }
}

fn write(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// Measures one workload in this process.
fn measure(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(
        args,
        &[],
        &["workload", "seed", "seconds", "trace", "detail"],
    )?;
    let workload = Workload::parse(flags.get("workload").ok_or("--workload is required")?)?;
    let trace = match flags.get("trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
    };
    let seconds: f64 = flags.num("seconds", 25.0)?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    let settings = Settings {
        seed: flags.num("seed", 1)?,
        seconds,
        trace,
        scale: 1.0,
    };
    let outcome = run_workload(workload, &settings)?;
    for line in outcome.lines() {
        println!("{line}");
    }
    if trace {
        let path = Path::new(OUT_DIR).join(format!("{}.spans.jsonl", workload.name()));
        write(&path, &(outcome.spans.join("\n") + "\n"))?;
        println!("{} spans written to {}", workload.name(), path.display());
    }
    if let Some(detail) = flags.get("detail") {
        write(Path::new(detail), &outcome.detail_json())?;
    }
    println!("{}", outcome.result_json(trace));
    Ok(())
}

/// Measures every workload, each in a child process.
fn run_all(args: &[String]) -> Result<bool, String> {
    let flags = Flags::parse(args, &["traced"], &["seed", "seconds", "out"])?;
    let seed: u64 = flags.num("seed", 1)?;
    let seconds: f64 = flags.num("seconds", 25.0)?;
    let out = PathBuf::from(
        flags
            .get("out")
            .map_or_else(|| format!("{OUT_DIR}/results.json"), str::to_owned),
    );
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this program: {e}"))?;
    let trace = if flags.has("traced") { "1" } else { "0" };
    let mut details = Vec::new();
    let mut all_correct = true;
    for w in Workload::ALL {
        let detail = Path::new(OUT_DIR).join(format!("{}.detail.json", w.name()));
        let status = Command::new(&exe)
            .args(["--workload", w.name()])
            .args(["--seed", &seed.to_string()])
            .args(["--seconds", &seconds.to_string()])
            .args(["--trace", trace])
            .arg("--detail")
            .arg(&detail)
            .status()
            .map_err(|e| format!("cannot start {}: {e}", w.name()))?;
        if !status.success() {
            return Err(format!("{} failed ({status})", w.name()));
        }
        let text = std::fs::read_to_string(&detail)
            .map_err(|e| format!("cannot read {}: {e}", detail.display()))?;
        all_correct &= text.contains("\"correct\": true");
        details.push(text);
    }
    let doc = format!(
        "{{\"schema\": \"picl-benchmark-run-v1\", \"seed\": {seed}, \"seconds\": {seconds}, \
         \"traced\": {}, \"workloads\": [\n{}\n]}}\n",
        trace == "1",
        details.join(",\n")
    );
    write(&out, &doc)?;
    println!("wrote {}", out.display());
    Ok(all_correct)
}

/// Compares two result files; `Ok(false)` if any row is worse.
fn compare_files(args: &[String]) -> Result<bool, String> {
    let flags = Flags::parse(args, &[], &[])?;
    let [a, b] = flags.positional.as_slice() else {
        return Err(format!("compare takes two result files\n{}", usage()));
    };
    let read = |p: &str| std::fs::read_to_string(p).map_err(|e| format!("cannot read {p}: {e}"));
    let rules = compare::rules(&read("BENCHMARK.json")?)?;
    let rows = compare::compare(&read(a)?, &read(b)?, &rules)?;
    println!(
        "{:<10} {:<18} {:>14} {:>14} {:>8}  verdict",
        "workload", "metric", "A", "B", "change"
    );
    for r in &rows {
        println!(
            "{:<10} {:<18} {:>14} {:>14} {:>+7.2}%  {}",
            r.workload,
            r.metric,
            fmt_num(r.a),
            fmt_num(r.b),
            (r.b - r.a) / r.a.abs().max(f64::MIN_POSITIVE) * 100.0,
            r.verdict.name()
        );
    }
    Ok(!rows.iter().any(|r| r.verdict == Verdict::Worse))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => run_all(&args[1..]),
        Some("compare") => compare_files(&args[1..]),
        Some(a) if a.starts_with("--") => measure(&args).map(|()| true),
        _ => Err(usage()),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
