//! A dependency-free JSON codec for [`RunReport`].
//!
//! Campaign checkpointing needs completed reports to survive a process
//! restart **bit-identically** — a resumed figure sweep must produce the
//! same bytes as an uninterrupted one. Every counter therefore round-trips
//! as an exact `u64` (the parser keeps numbers as raw text; nothing is
//! routed through `f64`), and [`decode_report`] rebuilds the private-field
//! statistics types through their checked restore constructors
//! (`Histogram::from_saved`, `NvmStats::from_parts`).

use picl_cache::{HierarchyStats, SchemeStats};
use picl_campaign::CellPayload;
use picl_nvm::{AccessClass, NvmStats};
use picl_telemetry::json::escape;
use picl_telemetry::json::{decode_histogram, Value};
use picl_types::stats::Counter;
use picl_types::Cycle;

use crate::report::RunReport;
use crate::runner::SchemeKind;

/// Encodes a report as one single-line JSON object.
pub fn encode_report(r: &RunReport) -> String {
    let ss = &r.scheme_stats;
    let scheme_stats = format!(
        "{{\"commits\": {}, \"forced_commits\": {}, \"log_entries\": {}, \
         \"log_bytes_written\": {}, \"log_bytes_live\": {}, \"buffer_flushes\": {}, \
         \"buffer_flushes_forced\": {}, \"stall_cycles\": {}}}",
        ss.commits,
        ss.forced_commits,
        ss.log_entries,
        ss.log_bytes_written,
        ss.log_bytes_live,
        ss.buffer_flushes,
        ss.buffer_flushes_forced,
        ss.stall_cycles
    );

    let join = |values: Vec<String>| values.join(", ");
    let ops = join(
        AccessClass::all()
            .iter()
            .map(|c| r.nvm.ops(*c).to_string())
            .collect(),
    );
    let bytes = join(
        AccessClass::all()
            .iter()
            .map(|c| r.nvm.bytes(*c).to_string())
            .collect(),
    );
    let qd = &r.nvm.queue_depth;
    let buckets = join(
        qd.nonzero_buckets()
            .map(|(bound, n)| format!("[{bound}, {n}]"))
            .collect(),
    );
    let queue_depth = format!(
        "{{\"buckets\": [{buckets}], \"count\": {}, \"sum\": {}, \"max\": {}}}",
        qd.count(),
        qd.sum(),
        qd.max().unwrap_or(0)
    );
    let nvm = format!(
        "{{\"ops\": [{ops}], \"bytes\": [{bytes}], \"row_hits\": {}, \"row_misses\": {}, \
         \"service_cycles\": {}, \"queue_depth\": {queue_depth}}}",
        r.nvm.row_hits.get(),
        r.nvm.row_misses.get(),
        r.nvm.service_cycles.get()
    );

    let h = &r.hierarchy;
    let hierarchy = format!(
        "{{\"l1_hits\": {}, \"l2_hits\": {}, \"llc_hits\": {}, \"memory_accesses\": {}, \
         \"dirty_evictions\": {}, \"clean_evictions\": {}, \"recalls\": {}, \
         \"back_invalidations\": {}, \"stores\": {}, \"loads\": {}}}",
        h.l1_hits.get(),
        h.l2_hits.get(),
        h.llc_hits.get(),
        h.memory_accesses.get(),
        h.dirty_evictions.get(),
        h.clean_evictions.get(),
        h.recalls.get(),
        h.back_invalidations.get(),
        h.stores.get(),
        h.loads.get()
    );

    format!(
        "{{\"scheme\": \"{}\", \"workload\": \"{}\", \"cores\": {}, \"instructions\": {}, \
         \"total_cycles\": {}, \"commits\": {}, \"forced_commits\": {}, \"stall_cycles\": {}, \
         \"scheme_stats\": {scheme_stats}, \"nvm\": {nvm}, \"hierarchy\": {hierarchy}}}",
        escape(r.scheme),
        escape(&r.workload),
        r.cores,
        r.instructions,
        r.total_cycles.raw(),
        r.commits,
        r.forced_commits,
        r.stall_cycles
    )
}

/// Maps a stored scheme name back to the simulator's canonical
/// `&'static str` for it.
fn scheme_static_name(name: &str) -> Result<&'static str, String> {
    SchemeKind::ALL
        .iter()
        .map(|k| k.name())
        .find(|n| *n == name)
        .ok_or_else(|| format!("unknown scheme name {name:?}"))
}

fn counter(value: u64) -> Counter {
    let mut c = Counter::new();
    c.add(value);
    c
}

fn decode_u64_array(v: &Value, key: &str) -> Result<Vec<u64>, String> {
    v.get(key)
        .and_then(Value::as_arr)
        .ok_or_else(|| format!("missing or non-array field {key:?}"))?
        .iter()
        .map(|item| {
            item.as_u64()
                .ok_or_else(|| format!("non-integer element in {key:?}"))
        })
        .collect()
}

/// Decodes a report previously produced by [`encode_report`].
///
/// # Errors
///
/// Returns a message naming the first missing or malformed field. The
/// campaign executor treats this as a missing checkpoint and re-runs the
/// cell.
pub fn decode_report(v: &Value) -> Result<RunReport, String> {
    let ss = v.get("scheme_stats").ok_or("missing scheme_stats")?;
    let scheme_stats = SchemeStats {
        commits: ss.field_u64("commits")?,
        forced_commits: ss.field_u64("forced_commits")?,
        log_entries: ss.field_u64("log_entries")?,
        log_bytes_written: ss.field_u64("log_bytes_written")?,
        log_bytes_live: ss.field_u64("log_bytes_live")?,
        buffer_flushes: ss.field_u64("buffer_flushes")?,
        buffer_flushes_forced: ss.field_u64("buffer_flushes_forced")?,
        stall_cycles: ss.field_u64("stall_cycles")?,
    };

    let n = v.get("nvm").ok_or("missing nvm")?;
    let nvm = NvmStats::from_parts(
        &decode_u64_array(n, "ops")?,
        &decode_u64_array(n, "bytes")?,
        n.field_u64("row_hits")?,
        n.field_u64("row_misses")?,
        n.field_u64("service_cycles")?,
        decode_histogram(n.get("queue_depth").ok_or("missing queue_depth")?)
            .map_err(|e| format!("queue_depth: {e}"))?,
    )?;

    let h = v.get("hierarchy").ok_or("missing hierarchy")?;
    let hierarchy = HierarchyStats {
        l1_hits: counter(h.field_u64("l1_hits")?),
        l2_hits: counter(h.field_u64("l2_hits")?),
        llc_hits: counter(h.field_u64("llc_hits")?),
        memory_accesses: counter(h.field_u64("memory_accesses")?),
        dirty_evictions: counter(h.field_u64("dirty_evictions")?),
        clean_evictions: counter(h.field_u64("clean_evictions")?),
        recalls: counter(h.field_u64("recalls")?),
        back_invalidations: counter(h.field_u64("back_invalidations")?),
        stores: counter(h.field_u64("stores")?),
        loads: counter(h.field_u64("loads")?),
    };

    Ok(RunReport {
        scheme: scheme_static_name(v.field_str("scheme")?)?,
        workload: v.field_str("workload")?.to_owned(),
        cores: v
            .get("cores")
            .and_then(Value::as_usize)
            .ok_or("missing or non-integer field \"cores\"")?,
        instructions: v.field_u64("instructions")?,
        total_cycles: Cycle(v.field_u64("total_cycles")?),
        commits: v.field_u64("commits")?,
        forced_commits: v.field_u64("forced_commits")?,
        stall_cycles: v.field_u64("stall_cycles")?,
        scheme_stats,
        nvm,
        hierarchy,
    })
}

/// Reports checkpoint as their JSON encoding; the round trip is exact, so
/// resumed campaigns reproduce uninterrupted results bit-for-bit.
impl CellPayload for RunReport {
    fn encode(&self) -> String {
        encode_report(self)
    }

    fn decode(value: &Value) -> Result<RunReport, String> {
        decode_report(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::Simulation;
    use picl_telemetry::json::validate_json;
    use picl_trace::spec::SpecBenchmark;
    use picl_types::SystemConfig;

    fn simulated_report(scheme: SchemeKind) -> RunReport {
        let mut cfg = SystemConfig::paper_single_core();
        cfg.epoch.epoch_len_instructions = 20_000;
        Simulation::builder(cfg)
            .scheme(scheme)
            .workload(&[SpecBenchmark::Hmmer])
            .instructions_per_core(50_000)
            .seed(11)
            .run()
            .expect("valid configuration")
    }

    #[test]
    fn real_reports_round_trip_bit_identically() {
        for scheme in [SchemeKind::Picl, SchemeKind::Frm, SchemeKind::Journaling] {
            let report = simulated_report(scheme);
            let encoded = encode_report(&report);
            assert!(!encoded.contains('\n'), "must be single-line");
            validate_json(&encoded).expect("encoder emits valid JSON");
            let decoded = decode_report(&Value::parse(&encoded).unwrap()).unwrap();
            assert_eq!(decoded, report, "round trip must be exact ({scheme:?})");
            // And the re-encoding is byte-identical, not just Eq.
            assert_eq!(encode_report(&decoded), encoded);
        }
    }

    #[test]
    fn extreme_counters_survive_the_round_trip() {
        let mut report = simulated_report(SchemeKind::Ideal);
        // Values above 2^53 would corrupt through an f64 path.
        report.instructions = u64::MAX - 3;
        report.scheme_stats.log_bytes_written = (1u64 << 53) + 1;
        let decoded = decode_report(&Value::parse(&encode_report(&report)).unwrap()).unwrap();
        assert_eq!(decoded, report);
    }

    #[test]
    fn unknown_scheme_is_a_decode_error() {
        let report = simulated_report(SchemeKind::Picl);
        let encoded = encode_report(&report).replace("\"PiCL\"", "\"NotAScheme\"");
        let err = decode_report(&Value::parse(&encoded).unwrap()).unwrap_err();
        assert!(err.contains("NotAScheme"), "{err}");
    }

    #[test]
    fn missing_fields_are_descriptive_errors() {
        let err = decode_report(&Value::parse("{}").unwrap()).unwrap_err();
        assert!(err.contains("scheme_stats"), "{err}");
    }

    #[test]
    fn workload_names_with_specials_escape_cleanly() {
        let mut report = simulated_report(SchemeKind::Picl);
        report.workload = "mix \"a\"\\b".to_owned();
        let encoded = encode_report(&report);
        validate_json(&encoded).unwrap();
        let decoded = decode_report(&Value::parse(&encoded).unwrap()).unwrap();
        assert_eq!(decoded.workload, report.workload);
    }
}
