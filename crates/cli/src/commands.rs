//! Subcommand implementations for the `picl` CLI.

use picl_campaign::CampaignOptions;
use picl_crashlab::{run_campaign_with, CampaignConfig, CrashPoint, LabScheme, TrialSpec};
use picl_nvm::TrafficCategory;
use picl_sim::{run_experiments_with, Machine, RunReport, SchemeKind, Simulation};
use picl_telemetry::export::{chrome_trace_to_string, jsonl_to_string, series_csv_to_string};
use picl_telemetry::json::{validate_json, validate_jsonl};
use picl_telemetry::TelemetrySnapshot;
use picl_trace::file::{write_trace, RecordedTrace};
use picl_trace::spec::SpecBenchmark;
use picl_trace::TraceSource;
use picl_types::stats::format_bytes;
use picl_types::SystemConfig;

use crate::args::{ArgError, Args};

/// Top-level usage text.
pub const USAGE: &str = "\
usage: picl <command> [--flag value]...

commands:
  run         simulate one scheme on one workload and print the report
  compare     run every scheme on one workload, normalized to Ideal
  crashlab    crash-injection campaign: schemes x benchmarks x crash points
              (`--crash-at N` replays one crash, audited and judged)
  audit       check an exported .events.jsonl stream against the PiCL
              protocol invariants (exit nonzero on any violation)
  analyze     offline trace analytics: epoch critical path, stall
              attribution, NVM bandwidth and queue-depth percentiles
  sweep       sweep a PiCL parameter (acs-gap | buffer | bloom | epoch)
  bench       fast-vs-reference differential over a pinned matrix
  record      capture a synthetic workload to a trace file
  replay      simulate from a recorded trace file
  store       inspect and judge PiCL store files (see `picl store help`):
              dump | verify | simdiff
  serve       the KV front-end over the PiCL engine (see `picl serve help`):
              run | torture
  ycsb        YCSB-style load benchmark: zipfian keys, A/B/C mixes,
              multi-session PiCL (and optionally the
              fdatasync-per-mutation baseline), audited event streams
  obs         operator tooling for the serving metrics (see
              `picl obs help`): scrape | check | print | diff | overhead
  benchmarks  list the 29 modeled SPEC2k6-like benchmarks
  help        show this text

common flags:
  --bench NAME          workload (see `picl benchmarks`; default bzip2)
  --scheme NAME         ideal|journaling|shadow|frm|thynvm|picl (default picl)
  --instructions N      instructions per core, k/m/g suffixes (default 10m)
  --epoch N             epoch length in instructions (default 3m)
  --acs-gap N           PiCL ACS-gap (default 3)
  --seed N              experiment seed (default 42)
  --footprint-scale F   scale workload footprints (default 1.0)

run flags (plus the common flags above):
  --telemetry PREFIX    also export the recording: PREFIX.trace.json
                        (Chrome/Perfetto), PREFIX.events.jsonl, and
                        PREFIX.series.csv
  --ring N              with --telemetry: per-core event-ring capacity
                        (default 64k)

audit / analyze flags:
  --trace FILE          the .events.jsonl stream to check (required)
  --acs-gap N           (audit) also enforce the ACS persist schedule at
                        gap N; off unless given (only PiCL traces have one)
  --json FILE           (audit) also write an audit-report-v1 JSON report

bench flags:
  --quick               skip the 8-core paper cell (the CI smoke matrix)
  --out FILE            also write the picl-bench-v3 JSON report to FILE
  --scale F             scale instruction/epoch budgets (default 1.0)

crashlab flags:
  --schemes LIST        all | comma list (adds broken-noundo; default all)
  --bench LIST          comma list of benchmarks (default mcf,gcc,lbm)
  --points N            crash points per benchmark (default 64)
  --instructions N      run budget in instructions (default 200k)
  --threads N           worker threads (default: all cores)
  --crash-at N          replay one crash at instruction N instead
  --boundary-cores N    with --crash-at: crash mid-flush after N checkpoints
  --telemetry PREFIX    with --crash-at: export the trial's recording

ycsb flags:
  --sessions N          concurrent client sessions (default 4)
  --ops N               total measured operations (default 20k)
  --keys N              key-space size (default 100k)
  --theta F             zipfian skew in [0,1) (default 0.9)
  --mix a|b|c           YCSB mix: 50/95/100% reads (default b)
  --value-bytes N       value size, spans slots above 16 (default 100)
  --arrival SPEC        closed | poisson:RATE | bursty:RATE:PERIOD_MS
  --ops-per-epoch N     mutations per epoch (default 64)
  --window N            in-order persist window = RPO bound (default 4)
  --baseline            also run the fdatasync-per-mutation store
  --out FILE            also write the picl-serve-v2 JSON report to FILE
  --path FILE           store-file base path (default: under the temp dir)
  --telemetry PREFIX    export the multi-session cell's event stream

campaign flags (sweep, crashlab):
  --resume DIR          checkpoint finished cells into DIR; relaunching
                        with the same DIR re-runs only missing/failed ones
  --cell-timeout SECS   per-cell wall-clock watchdog (fractions allowed)
  --keep-going          finish sibling cells after a failure instead of
                        aborting the campaign (failures still exit nonzero)
";

/// Simulated core clock in MHz; cycle timestamps convert to Chrome-trace
/// microseconds by dividing by this.
const CLOCK_MHZ: f64 = 2000.0;

/// Runs the parsed command.
///
/// # Errors
///
/// Returns an [`ArgError`] describing any invalid flag or value.
pub fn dispatch(args: &Args) -> Result<(), ArgError> {
    // Only `store`, `serve`, and `obs` have subcommands; a stray word
    // after any other command is a mistake, not a flag value.
    if !matches!(args.command(), "store" | "serve" | "obs") {
        args.expect_no_subcommand()?;
    }
    match args.command() {
        "run" => cmd_run(args),
        "compare" => cmd_compare(args),
        "crashlab" => cmd_crashlab(args),
        "audit" => cmd_audit(args),
        "analyze" => cmd_analyze(args),
        "sweep" => cmd_sweep(args),
        "bench" => crate::bench::cmd_bench(args),
        "record" => cmd_record(args),
        "replay" => cmd_replay(args),
        "store" => crate::store::cmd_store(args),
        "serve" => crate::serve::cmd_serve(args),
        "ycsb" => crate::serve::cmd_ycsb(args),
        "obs" => crate::obs::cmd_obs(args),
        "benchmarks" => cmd_benchmarks(args),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(ArgError(format!(
            "unknown command {other:?}; try `picl help`"
        ))),
    }
}

const COMMON_FLAGS: &[&str] = &[
    "bench",
    "scheme",
    "instructions",
    "epoch",
    "acs-gap",
    "seed",
    "footprint-scale",
];

/// Flags shared by the campaign-backed commands (`sweep`, `crashlab`).
/// `bench` and `ycsb` take none: their differential and audit gates run
/// in full on every invocation, and their cells time wall-clock.
const CAMPAIGN_FLAGS: &[&str] = &["resume", "cell-timeout", "keep-going"];

/// Parses the shared campaign-executor flags into a policy: checkpoint
/// into `--resume DIR`, watchdog each cell at `--cell-timeout SECS`, and
/// fail fast unless `--keep-going` asks to finish the siblings first.
/// Progress goes to stderr so piped stdout stays clean.
pub(crate) fn campaign_options(args: &Args) -> Result<CampaignOptions, ArgError> {
    let cell_timeout = match args.get("cell-timeout") {
        None => None,
        Some(s) => {
            let secs: f64 = s
                .parse()
                .map_err(|_| ArgError(format!("--cell-timeout: cannot parse {s:?} as seconds")))?;
            if !secs.is_finite() || secs <= 0.0 {
                return Err(ArgError("--cell-timeout must be positive".into()));
            }
            Some(std::time::Duration::from_secs_f64(secs))
        }
    };
    Ok(CampaignOptions {
        cell_timeout,
        keep_going: args.is_set("keep-going"),
        checkpoint: args.get("resume").map(std::path::PathBuf::from),
        progress: true,
        ..CampaignOptions::default()
    })
}

fn parse_scheme(name: &str) -> Result<SchemeKind, ArgError> {
    SchemeKind::ALL
        .iter()
        .copied()
        .find(|k| k.name().eq_ignore_ascii_case(name))
        .ok_or_else(|| {
            ArgError(format!(
                "unknown scheme {name:?}; choose one of {}",
                SchemeKind::ALL
                    .map(|k| k.name().to_ascii_lowercase())
                    .join(", ")
            ))
        })
}

fn parse_bench(name: &str) -> Result<SpecBenchmark, ArgError> {
    name.parse()
        .map_err(|_| ArgError(format!("unknown benchmark {name:?}; see `picl benchmarks`")))
}

fn config_from(args: &Args) -> Result<SystemConfig, ArgError> {
    let mut cfg = SystemConfig::paper_single_core();
    cfg.epoch.epoch_len_instructions = args.count_or("epoch", 3_000_000)?;
    cfg.epoch.acs_gap = args.count_or("acs-gap", 3)?;
    cfg.validate()
        .map_err(|e| ArgError(format!("invalid configuration: {e}")))?;
    Ok(cfg)
}

fn print_report(report: &RunReport) {
    println!("{report}");
    println!(
        "  NVM ops: {} demand, {} write-back, {} sequential-log, {} random-log",
        report.nvm.ops_in_category(TrafficCategory::Demand),
        report.nvm.ops_in_category(TrafficCategory::WriteBack),
        report
            .nvm
            .ops_in_category(TrafficCategory::SequentialLogging),
        report.nvm.ops_in_category(TrafficCategory::RandomLogging),
    );
}

/// Default per-core event-ring capacity (events).
const DEFAULT_RING: u64 = 64 * 1024;
/// Gauge sampling period (cycles) of every telemetry recording.
const DEFAULT_SAMPLE_INTERVAL: u64 = 10_000;

/// Writes the three telemetry exports under `prefix` and re-parses each
/// one, so a corrupt file fails the command instead of a later viewer.
pub(crate) fn export_telemetry(prefix: &str, snap: &TelemetrySnapshot) -> Result<(), ArgError> {
    let write = |path: String, contents: &str| {
        std::fs::write(&path, contents)
            .map_err(|e| ArgError(format!("cannot write {path}: {e}")))
            .map(|()| path)
    };

    let chrome = chrome_trace_to_string(snap, CLOCK_MHZ);
    validate_json(&chrome).map_err(|e| ArgError(format!("Chrome trace invalid: {e}")))?;
    let chrome_path = write(format!("{prefix}.trace.json"), &chrome)?;

    let jsonl = jsonl_to_string(snap);
    let lines =
        validate_jsonl(&jsonl).map_err(|e| ArgError(format!("JSONL stream invalid: {e}")))?;
    let jsonl_path = write(format!("{prefix}.events.jsonl"), &jsonl)?;

    let csv = series_csv_to_string(snap);
    let csv_path = write(format!("{prefix}.series.csv"), &csv)?;

    println!(
        "telemetry: {} events ({} dropped) -> {chrome_path}, {lines} lines -> {jsonl_path}, \
         {} series -> {csv_path}",
        snap.events.len(),
        snap.dropped,
        snap.series.len()
    );
    Ok(())
}

fn cmd_run(args: &Args) -> Result<(), ArgError> {
    let mut flags = COMMON_FLAGS.to_vec();
    flags.extend(["telemetry", "ring"]);
    args.expect_only(&flags)?;
    if args.get("ring").is_some() && args.get("telemetry").is_none() {
        return Err(ArgError(
            "--ring sizes the telemetry recording; pass --telemetry PREFIX too".into(),
        ));
    }
    let sim = Simulation::builder(config_from(args)?)
        .scheme(parse_scheme(args.get_or("scheme", "picl"))?)
        .workload(&[parse_bench(args.get_or("bench", "bzip2"))?])
        .instructions_per_core(args.count_or("instructions", 10_000_000)?)
        .seed(args.count_or("seed", 42)?)
        .footprint_scale(args.float_or("footprint-scale", 1.0)?);
    let budget = args.count_or("instructions", 10_000_000)?;
    match args.get("telemetry") {
        None => {
            let report = sim.run().map_err(|e| ArgError(e.to_string()))?;
            print_report(&report);
        }
        Some(prefix) => {
            let ring = args.count_or("ring", DEFAULT_RING)? as usize;
            if ring == 0 {
                return Err(ArgError("--ring must be nonzero".into()));
            }
            let mut machine = sim.into_machine().map_err(|e| ArgError(e.to_string()))?;
            let telemetry = machine.enable_telemetry(ring, DEFAULT_SAMPLE_INTERVAL);
            machine.run(budget);
            print_report(&machine.report());
            export_telemetry(prefix, &telemetry.snapshot())?;
        }
    }
    Ok(())
}

/// Reads and parses an exported `.events.jsonl` stream named by
/// `--trace`.
fn load_trace(args: &Args, command: &str) -> Result<Vec<picl_audit::TraceLine>, ArgError> {
    let path = args
        .get("trace")
        .ok_or_else(|| ArgError(format!("{command} needs --trace FILE")))?;
    let text =
        std::fs::read_to_string(path).map_err(|e| ArgError(format!("cannot read {path}: {e}")))?;
    picl_audit::parse_trace(&text).map_err(|e| ArgError(format!("{path}: {e}")))
}

fn cmd_audit(args: &Args) -> Result<(), ArgError> {
    args.expect_only(&["trace", "acs-gap", "json"])?;
    let lines = load_trace(args, "audit")?;
    // The ACS check is armed only on request: an exported stream does not
    // say which scheme produced it, and only PiCL schedules by gap.
    let acs_gap = match args.get("acs-gap") {
        None => None,
        Some(s) => Some(
            crate::args::parse_count(s)
                .ok_or_else(|| ArgError(format!("--acs-gap: cannot parse {s:?} as a count")))?,
        ),
    };
    let report = picl_audit::audit_trace(&lines, picl_audit::AuditConfig { acs_gap });
    print!("{report}");
    if let Some(out) = args.get("json") {
        std::fs::write(out, picl_audit::report_to_json(&report))
            .map_err(|e| ArgError(format!("cannot write {out}: {e}")))?;
        println!("report: {out}");
    }
    match report.verdict {
        picl_audit::Verdict::Pass => Ok(()),
        picl_audit::Verdict::Inconclusive => {
            println!(
                "warning: {} event(s) were dropped by ring overwrites; \
                 the verdict only covers what survived",
                report.dropped
            );
            Ok(())
        }
        picl_audit::Verdict::Fail => Err(ArgError(format!(
            "{} protocol-invariant violation(s)",
            report.violations.len()
        ))),
    }
}

fn cmd_analyze(args: &Args) -> Result<(), ArgError> {
    args.expect_only(&["trace"])?;
    let lines = load_trace(args, "analyze")?;
    let analytics = picl_audit::analyze(&lines, CLOCK_MHZ);
    print!("{}", analytics.display(CLOCK_MHZ));
    Ok(())
}

fn cmd_compare(args: &Args) -> Result<(), ArgError> {
    args.expect_only(COMMON_FLAGS)?;
    let bench = parse_bench(args.get_or("bench", "bzip2"))?;
    let instructions = args.count_or("instructions", 9_000_000)?;
    println!(
        "{:<12}{:>9}{:>10}{:>9}{:>13}{:>12}",
        "scheme", "norm.", "commits", "forced", "stall-cyc", "log-bytes"
    );
    let mut baseline = None;
    for kind in SchemeKind::ALL {
        let r = Simulation::builder(config_from(args)?)
            .scheme(kind)
            .workload(&[bench])
            .instructions_per_core(instructions)
            .seed(args.count_or("seed", 42)?)
            .footprint_scale(args.float_or("footprint-scale", 1.0)?)
            .run()
            .map_err(|e| ArgError(e.to_string()))?;
        let base = *baseline.get_or_insert(r.total_cycles.raw());
        println!(
            "{:<12}{:>9.3}{:>10}{:>9}{:>13}{:>12}",
            r.scheme,
            r.total_cycles.raw() as f64 / base as f64,
            r.commits,
            r.forced_commits,
            r.stall_cycles,
            format_bytes(r.scheme_stats.log_bytes_written)
        );
    }
    Ok(())
}

fn parse_lab_schemes(spec: &str) -> Result<Vec<LabScheme>, ArgError> {
    if spec.eq_ignore_ascii_case("all") {
        return Ok(LabScheme::PROTECTED.to_vec());
    }
    spec.split(',')
        .map(|name| {
            LabScheme::parse(name.trim()).ok_or_else(|| {
                ArgError(format!(
                    "unknown scheme {name:?}; use `all`, a scheme name, or broken-noundo"
                ))
            })
        })
        .collect()
}

fn cmd_crashlab(args: &Args) -> Result<(), ArgError> {
    args.expect_only(&[
        "schemes",
        "bench",
        "points",
        "seed",
        "instructions",
        "epoch",
        "acs-gap",
        "footprint-scale",
        "threads",
        "crash-at",
        "boundary-cores",
        "telemetry",
        "resume",
        "cell-timeout",
        "keep-going",
    ])?;
    let schemes = parse_lab_schemes(args.get_or("schemes", "all"))?;
    let benches: Vec<SpecBenchmark> = args
        .get_or("bench", "mcf,gcc,lbm")
        .split(',')
        .map(|b| parse_bench(b.trim()))
        .collect::<Result<_, _>>()?;
    let config = CampaignConfig {
        schemes,
        benches,
        points: args.count_or("points", 64)? as usize,
        seed: args.count_or("seed", 1)?,
        budget: args.count_or("instructions", 200_000)?,
        epoch_len: args.count_or("epoch", 25_000)?,
        acs_gap: args.count_or("acs-gap", 3)?,
        footprint_scale: args.float_or("footprint-scale", 0.05)?,
        threads: args.count_or("threads", 0)? as usize,
        shrink_failures: true,
    };
    if config.points == 0 {
        return Err(ArgError("--points must be at least 1".into()));
    }
    if args.get("boundary-cores").is_some() && args.get("crash-at").is_none() {
        return Err(ArgError(
            "--boundary-cores only applies in repro mode; pass --crash-at too".into(),
        ));
    }
    if args.get("telemetry").is_some() && args.get("crash-at").is_none() {
        return Err(ArgError(
            "--telemetry only applies in repro mode (campaigns run thousands of \
             trials); pass --crash-at too"
                .into(),
        ));
    }
    if args.get("crash-at").is_some() {
        for flag in CAMPAIGN_FLAGS {
            if args.get(flag).is_some() {
                return Err(ArgError(format!(
                    "--{flag} only applies to campaigns; drop --crash-at to run one"
                )));
            }
        }
    }

    // Repro mode: replay one crash point (the format `repro_command` emits).
    if let Some(at) = args.get("crash-at") {
        let at = crate::args::parse_count(at)
            .ok_or_else(|| ArgError(format!("--crash-at: cannot parse {at:?} as a count")))?;
        // A crash instant past the end of the run would silently never
        // fire (the trial would just complete); that is a user error, not
        // a passing trial.
        if at > config.budget {
            return Err(ArgError(format!(
                "--crash-at {at} is beyond the end of the run (--instructions {}): \
                 the crash would never be injected; raise --instructions or move \
                 the crash point earlier",
                config.budget
            )));
        }
        let point = if args.get("boundary-cores").is_some() {
            CrashPoint::MidBoundary {
                at,
                cores_done: args.count_or("boundary-cores", 0)? as usize,
            }
        } else {
            CrashPoint::MidEpoch { at }
        };
        let telemetry_prefix = args.get("telemetry");
        let single_trial = config.schemes.len() == 1 && config.benches.len() == 1;
        let mut failures = 0usize;
        for &scheme in &config.schemes {
            for &bench in &config.benches {
                let spec = TrialSpec {
                    scheme,
                    bench,
                    epoch_len: config.epoch_len,
                    acs_gap: config.acs_gap,
                    seed: config.seed,
                    footprint_scale: config.footprint_scale,
                    point,
                };
                let outcome = match telemetry_prefix {
                    None => spec.execute(),
                    Some(prefix) => {
                        let (outcome, snap) =
                            spec.execute_traced(DEFAULT_RING as usize, DEFAULT_SAMPLE_INTERVAL);
                        let prefix = if single_trial {
                            prefix.to_owned()
                        } else {
                            format!("{prefix}.{}.{}", scheme.name(), bench.name())
                        };
                        export_telemetry(&prefix, &snap)?;
                        outcome
                    }
                };
                let verdict = if outcome.passed(scheme.expects_consistency()) {
                    "ok"
                } else {
                    failures += 1;
                    "FAIL"
                };
                println!(
                    "{:<14} {:<8} {}: {} — recovered to epoch {} ({} epochs lost, \
                     {} entries, {} cycles, {} mismatching lines)",
                    scheme.name(),
                    bench.name(),
                    spec.point,
                    verdict,
                    outcome.recovered_to,
                    outcome.epochs_lost,
                    outcome.entries_applied,
                    outcome.recovery_cycles,
                    outcome.mismatch_count
                );
            }
        }
        if failures > 0 {
            return Err(ArgError(format!("{failures} crash trial(s) inconsistent")));
        }
        return Ok(());
    }

    let report = run_campaign_with(&config, &campaign_options(args)?).map_err(ArgError)?;
    print!("{report}");
    if report.all_passed() {
        Ok(())
    } else {
        let mut parts = Vec::new();
        if !report.failures.is_empty() {
            parts.push(format!(
                "{} crash trial(s) recovered inconsistently (reproducers above)",
                report.failures.len()
            ));
        }
        if !report.errors.is_empty() {
            parts.push(format!(
                "{} trial(s) produced no verdict (panic/timeout/abort)",
                report.errors.len()
            ));
        }
        Err(ArgError(parts.join("; ")))
    }
}

fn cmd_sweep(args: &Args) -> Result<(), ArgError> {
    let mut flags = COMMON_FLAGS.to_vec();
    flags.extend(["param", "values"]);
    flags.extend(CAMPAIGN_FLAGS);
    args.expect_only(&flags)?;
    let param = args.get_or("param", "acs-gap");
    let values: Vec<u64> = args
        .get_or("values", "0,1,3,7")
        .split(',')
        .map(|v| {
            crate::args::parse_count(v).ok_or_else(|| ArgError(format!("bad sweep value {v:?}")))
        })
        .collect::<Result<_, _>>()?;
    let bench = parse_bench(args.get_or("bench", "gcc"))?;
    let instructions = args.count_or("instructions", 8_000_000)?;

    // Validate every point up front, then run them all as one
    // fault-isolated campaign (checkpointable via --resume).
    let mut experiments = Vec::with_capacity(values.len());
    for &v in &values {
        let mut cfg = config_from(args)?;
        match param {
            "acs-gap" => cfg.epoch.acs_gap = v,
            "buffer" => cfg.epoch.undo_buffer_entries = v as usize,
            "bloom" => cfg.epoch.bloom_bits = v as usize,
            "epoch" => cfg.epoch.epoch_len_instructions = v,
            other => {
                return Err(ArgError(format!(
                    "unknown sweep parameter {other:?}; use acs-gap|buffer|bloom|epoch"
                )))
            }
        }
        cfg.validate()
            .map_err(|e| ArgError(format!("value {v} rejected: {e}")))?;
        experiments.push(
            Simulation::builder(cfg)
                .scheme(SchemeKind::Picl)
                .workload(&[bench])
                .instructions_per_core(instructions)
                .seed(args.count_or("seed", 42)?)
                .footprint_scale(args.float_or("footprint-scale", 1.0)?),
        );
    }
    let reports = run_experiments_with(&experiments, &campaign_options(args)?).map_err(ArgError)?;

    println!(
        "{:<12}{:>12}{:>10}{:>12}",
        param, "cycles", "commits", "log-bytes"
    );
    for (&v, r) in values.iter().zip(&reports) {
        println!(
            "{:<12}{:>12}{:>10}{:>12}",
            v,
            r.total_cycles.raw(),
            r.commits,
            format_bytes(r.scheme_stats.log_bytes_written)
        );
    }
    Ok(())
}

fn cmd_record(args: &Args) -> Result<(), ArgError> {
    args.expect_only(&["bench", "out", "events", "seed", "footprint-scale"])?;
    let bench = parse_bench(args.get_or("bench", "bzip2"))?;
    let out = args
        .get("out")
        .ok_or_else(|| ArgError("record needs --out FILE".into()))?;
    let events = args.count_or("events", 100_000)? as u32;
    let profile = bench
        .profile()
        .scaled(args.float_or("footprint-scale", 1.0)?);
    let mut source = picl_trace::spec::ProfileGen::new(profile, args.count_or("seed", 42)?);
    let file =
        std::fs::File::create(out).map_err(|e| ArgError(format!("cannot create {out}: {e}")))?;
    write_trace(std::io::BufWriter::new(file), &mut source, events)
        .map_err(|e| ArgError(format!("write failed: {e}")))?;
    println!("recorded {events} events of {bench} to {out}");
    Ok(())
}

fn cmd_replay(args: &Args) -> Result<(), ArgError> {
    args.expect_only(&[
        "trace",
        "scheme",
        "instructions",
        "epoch",
        "acs-gap",
        "seed",
    ])?;
    let path = args
        .get("trace")
        .ok_or_else(|| ArgError("replay needs --trace FILE".into()))?;
    let file =
        std::fs::File::open(path).map_err(|e| ArgError(format!("cannot open {path}: {e}")))?;
    let trace = RecordedTrace::from_reader(std::io::BufReader::new(file), path)
        .map_err(|e| ArgError(format!("cannot parse {path}: {e}")))?;
    println!("replaying {} recorded events (cyclically)…", trace.len());
    let cfg = config_from(args)?;
    let scheme = parse_scheme(args.get_or("scheme", "picl"))?;
    let boxed: Box<dyn TraceSource + Send> = Box::new(trace);
    let mut machine = Machine::new(cfg.clone(), scheme.build(&cfg), vec![boxed], path, false);
    machine.run(args.count_or("instructions", 5_000_000)?);
    print_report(&machine.report());
    Ok(())
}

fn cmd_benchmarks(args: &Args) -> Result<(), ArgError> {
    args.expect_only(&[])?;
    println!(
        "{:<12}{:>8}{:>8}{:>10}{:>7}{:>7}{:>7}{:>6}",
        "name", "apki", "store", "footprint", "seq", "hot", "theta", "rep"
    );
    for b in SpecBenchmark::ALL {
        let p = b.profile();
        println!(
            "{:<12}{:>8}{:>8.2}{:>10}{:>7.2}{:>7.2}{:>7.2}{:>6}",
            p.name,
            p.accesses_per_kilo_instr,
            p.store_fraction,
            format_bytes(p.footprint_bytes),
            p.seq_fraction,
            p.hot_fraction,
            p.hot_theta,
            p.seq_repeats
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scheme_parsing_accepts_all_names() {
        for kind in SchemeKind::ALL {
            assert_eq!(parse_scheme(&kind.name().to_lowercase()).unwrap(), kind);
        }
        assert!(parse_scheme("bogus").is_err());
    }

    #[test]
    fn bench_parsing() {
        assert_eq!(parse_bench("mcf").unwrap(), SpecBenchmark::Mcf);
        assert!(parse_bench("bogus").is_err());
    }

    #[test]
    fn dispatch_rejects_unknown_command() {
        let args = Args::parse(["frobnicate"]).unwrap();
        assert!(dispatch(&args).is_err());
    }

    #[test]
    fn benchmarks_listing_runs() {
        let args = Args::parse(["benchmarks"]).unwrap();
        dispatch(&args).unwrap();
    }

    #[test]
    fn run_command_end_to_end() {
        let args = Args::parse([
            "run",
            "--bench",
            "povray",
            "--instructions",
            "200k",
            "--epoch",
            "100k",
            "--footprint-scale",
            "0.1",
        ])
        .unwrap();
        dispatch(&args).unwrap();
    }

    #[test]
    fn crashlab_small_campaign_passes() {
        let args = Args::parse([
            "crashlab",
            "--schemes",
            "picl,frm",
            "--bench",
            "gcc",
            "--points",
            "4",
            "--instructions",
            "120k",
            "--seed",
            "1",
        ])
        .unwrap();
        dispatch(&args).unwrap();
    }

    #[test]
    fn crashlab_catches_broken_scheme_in_repro_mode() {
        let args = Args::parse([
            "crashlab",
            "--schemes",
            "broken-noundo",
            "--bench",
            "gcc",
            "--crash-at",
            "120k",
            "--seed",
            "1",
        ])
        .unwrap();
        let err = dispatch(&args).unwrap_err();
        assert!(err.to_string().contains("inconsistent"), "{err}");
    }

    #[test]
    fn crashlab_rejects_unknown_scheme() {
        let args = Args::parse(["crashlab", "--schemes", "bogus"]).unwrap();
        assert!(dispatch(&args).is_err());
    }

    #[test]
    fn sweep_rejects_bad_parameter() {
        let args = Args::parse(["sweep", "--param", "bogus", "--values", "1"]).unwrap();
        assert!(dispatch(&args).is_err());
    }

    #[test]
    fn record_and_replay_round_trip() {
        let dir = std::env::temp_dir().join("picl_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.picltrc");
        let path_s = path.to_str().unwrap().to_owned();
        dispatch(
            &Args::parse([
                "record",
                "--bench",
                "gcc",
                "--out",
                &path_s,
                "--events",
                "5k",
                "--footprint-scale",
                "0.05",
            ])
            .unwrap(),
        )
        .unwrap();
        dispatch(
            &Args::parse([
                "replay",
                "--trace",
                &path_s,
                "--instructions",
                "100k",
                "--epoch",
                "50k",
            ])
            .unwrap(),
        )
        .unwrap();
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn audit_and_analyze_round_trip_an_exported_trace() {
        let dir = std::env::temp_dir().join("picl_cli_audit_test");
        std::fs::create_dir_all(&dir).unwrap();
        let prefix = dir.join("a").to_str().unwrap().to_owned();
        dispatch(
            &Args::parse([
                "run",
                "--bench",
                "gcc",
                "--instructions",
                "150k",
                "--epoch",
                "50k",
                "--footprint-scale",
                "0.05",
                "--ring",
                "1m",
                "--telemetry",
                &prefix,
            ])
            .unwrap(),
        )
        .unwrap();
        let jsonl_path = format!("{prefix}.events.jsonl");
        let json_out = format!("{prefix}.audit.json");

        // A faithful export audits clean, ACS check armed at the gap the
        // run actually used (the default, 3).
        dispatch(
            &Args::parse([
                "audit",
                "--trace",
                &jsonl_path,
                "--acs-gap",
                "3",
                "--json",
                &json_out,
            ])
            .unwrap(),
        )
        .unwrap();
        let json = std::fs::read_to_string(&json_out).unwrap();
        assert!(json.contains("\"format\":\"audit-report-v1\""), "{json}");
        assert!(json.contains("\"verdict\":\"pass\""), "{json}");

        dispatch(&Args::parse(["analyze", "--trace", &jsonl_path]).unwrap()).unwrap();

        // The same stream played backwards breaks epoch monotonicity; the
        // auditor must say so, proving the clean verdict is not vacuous.
        let reversed: String = std::fs::read_to_string(&jsonl_path)
            .unwrap()
            .lines()
            .rev()
            .flat_map(|l| [l, "\n"])
            .collect();
        let reversed_path = dir.join("reversed.events.jsonl");
        std::fs::write(&reversed_path, reversed).unwrap();
        let err =
            dispatch(&Args::parse(["audit", "--trace", reversed_path.to_str().unwrap()]).unwrap())
                .unwrap_err();
        assert!(err.to_string().contains("violation"), "{err}");

        for suffix in [".trace.json", ".events.jsonl", ".series.csv", ".audit.json"] {
            std::fs::remove_file(format!("{prefix}{suffix}")).ok();
        }
        std::fs::remove_file(reversed_path).ok();
    }

    #[test]
    fn audit_requires_trace_flag() {
        let err = dispatch(&Args::parse(["audit"]).unwrap()).unwrap_err();
        assert!(err.to_string().contains("--trace"), "{err}");
        let err = dispatch(&Args::parse(["analyze"]).unwrap()).unwrap_err();
        assert!(err.to_string().contains("--trace"), "{err}");
    }

    #[test]
    fn removed_commands_and_flags_are_rejected() {
        // `crashlab --crash-at` replaced `crash`; `run --telemetry`
        // replaced `trace`.
        for raw in [
            &["crash", "--bench", "gcc"][..],
            &["trace", "--bench", "gcc", "--out", "/nonexistent/t"],
        ] {
            let err = dispatch(&Args::parse(raw.iter().copied()).unwrap()).unwrap_err();
            assert!(err.to_string().contains("unknown command"), "{err}");
        }
        // `serve run --sessions 1` and `serve torture` replaced the
        // single-session store front-end.
        for raw in [
            &["store", "run", "--path", "/nonexistent/s.store"][..],
            &["store", "torture", "--trials", "1"],
        ] {
            let err = dispatch(&Args::parse(raw.iter().copied()).unwrap()).unwrap_err();
            assert!(
                err.to_string().contains("unknown store subcommand"),
                "{err}"
            );
        }
        for raw in [
            &["run", "--out", "/nonexistent/t"][..],
            &[
                "run",
                "--telemetry",
                "/nonexistent/t",
                "--sample-interval",
                "5k",
            ],
            &["crashlab", "--crash-at", "90k", "--at", "90k"],
        ] {
            let err = dispatch(&Args::parse(raw.iter().copied()).unwrap()).unwrap_err();
            assert!(err.to_string().contains("unknown flag"), "{err}");
        }
    }

    #[test]
    fn run_ring_needs_telemetry_and_a_nonzero_size() {
        let err = dispatch(&Args::parse(["run", "--ring", "1m"]).unwrap()).unwrap_err();
        assert!(err.to_string().contains("--telemetry"), "{err}");
        let err = dispatch(
            &Args::parse(["run", "--ring", "0", "--telemetry", "/nonexistent/t"]).unwrap(),
        )
        .unwrap_err();
        assert!(err.to_string().contains("nonzero"), "{err}");
    }

    #[test]
    fn run_with_telemetry_exports() {
        let dir = std::env::temp_dir().join("picl_cli_run_telemetry_test");
        std::fs::create_dir_all(&dir).unwrap();
        let prefix = dir.join("r").to_str().unwrap().to_owned();
        dispatch(
            &Args::parse([
                "run",
                "--bench",
                "gcc",
                "--instructions",
                "150k",
                "--epoch",
                "50k",
                "--footprint-scale",
                "0.05",
                "--telemetry",
                &prefix,
            ])
            .unwrap(),
        )
        .unwrap();
        let chrome = std::fs::read_to_string(format!("{prefix}.trace.json")).unwrap();
        assert!(chrome.contains("\"traceEvents\""));
        for suffix in [".trace.json", ".events.jsonl", ".series.csv"] {
            let path = format!("{prefix}{suffix}");
            let contents = std::fs::read_to_string(&path).expect(&path);
            assert!(!contents.is_empty(), "{path} is empty");
            std::fs::remove_file(path).ok();
        }
    }

    #[test]
    fn crashlab_telemetry_requires_repro_mode() {
        let args = Args::parse(["crashlab", "--telemetry", "/tmp/x"]).unwrap();
        let err = dispatch(&args).unwrap_err();
        assert!(err.to_string().contains("--crash-at"), "{err}");
    }

    #[test]
    fn crashlab_repro_with_telemetry_exports() {
        let dir = std::env::temp_dir().join("picl_cli_crashlab_telemetry_test");
        std::fs::create_dir_all(&dir).unwrap();
        let prefix = dir.join("c").to_str().unwrap().to_owned();
        dispatch(
            &Args::parse([
                "crashlab",
                "--schemes",
                "picl",
                "--bench",
                "gcc",
                "--crash-at",
                "90k",
                "--seed",
                "1",
                "--telemetry",
                &prefix,
            ])
            .unwrap(),
        )
        .unwrap();
        let jsonl = std::fs::read_to_string(format!("{prefix}.events.jsonl")).unwrap();
        assert!(jsonl.contains("crash_injected"), "crash must be recorded");
        for suffix in [".trace.json", ".events.jsonl", ".series.csv"] {
            std::fs::remove_file(format!("{prefix}{suffix}")).ok();
        }
    }

    #[test]
    fn crashlab_crash_at_beyond_the_run_is_rejected() {
        // A crash instant past the instruction budget would silently never
        // fire; the CLI must refuse it instead of reporting a clean "no
        // crash" trial.
        let args = Args::parse([
            "crashlab",
            "--schemes",
            "picl",
            "--bench",
            "gcc",
            "--crash-at",
            "300k",
            "--instructions",
            "200k",
        ])
        .unwrap();
        let err = dispatch(&args).unwrap_err();
        assert!(
            err.to_string().contains("beyond the end of the run"),
            "{err}"
        );
        assert!(err.to_string().contains("300000"), "{err}");

        // Exactly at the budget is still reachable and must be accepted.
        let ok = Args::parse([
            "crashlab",
            "--schemes",
            "picl",
            "--bench",
            "gcc",
            "--crash-at",
            "90k",
            "--instructions",
            "90k",
            "--seed",
            "1",
        ])
        .unwrap();
        dispatch(&ok).unwrap();
    }

    #[test]
    fn bench_quick_emits_valid_json() {
        let dir = std::env::temp_dir().join("picl_cli_bench_test");
        std::fs::create_dir_all(&dir).unwrap();
        let out = dir.join("b.json").to_str().unwrap().to_owned();
        dispatch(&Args::parse(["bench", "--quick", "--scale", "0.02", "--out", &out]).unwrap())
            .unwrap();
        let json = std::fs::read_to_string(&out).unwrap();
        assert!(json.contains("\"schema\": \"picl-bench-v3\""));
        assert!(json.contains("\"speedup\""));
        assert_eq!(json.matches("\"fast_scanned_lines\": 0,").count(), 6);
        std::fs::remove_file(&out).ok();
    }

    #[test]
    fn bench_rejects_nonpositive_scale() {
        let args = Args::parse(["bench", "--quick", "--scale", "0"]).unwrap();
        assert!(dispatch(&args).is_err());
        // The differential always runs: no flag replays or skips a cell.
        for flags in [
            &["--resume", "/nonexistent"][..],
            &["--cell-timeout", "5"],
            &["--keep-going"],
        ] {
            let mut raw = vec!["bench", "--quick"];
            raw.extend_from_slice(flags);
            let err = dispatch(&Args::parse(raw).unwrap()).unwrap_err();
            assert!(err.to_string().contains("unknown flag"), "{err}");
        }
    }

    #[test]
    fn invalid_config_surfaces_cleanly() {
        let args = Args::parse(["run", "--epoch", "0"]).unwrap();
        let err = dispatch(&args).unwrap_err();
        assert!(err.to_string().contains("epoch"), "{err}");
    }
}
