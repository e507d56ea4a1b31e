//! The offline side: parsing an exported JSONL event stream back into a
//! typed record sequence the checker and analytics can consume.
//!
//! The stream format is what `picl_telemetry::export::write_jsonl`
//! produces: one object per line, `{"cycle":N,"core":N|null,
//! "event":"<name>", ...payload}`, sorted by cycle, with span events
//! (NVM requests, ACS passes, boundary stalls) split into begin/end
//! lines and a trailing `dropped_events` accounting record.
//!
//! Parsing is strict about the lines it understands (a malformed
//! `epoch_commit` is an error, not a skip) but forward-compatible about
//! event names it does not: unknown events parse to
//! [`TraceRecord::Other`] so newer traces still audit.

use picl_telemetry::json::Value;

use crate::checker::{AuditConfig, AuditEvent, AuditReport, Checker};

/// One parsed line of the JSONL stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceLine {
    /// The cycle the line is stamped with.
    pub cycle: u64,
    /// The originating core, when attributed.
    pub core: Option<usize>,
    /// The typed payload.
    pub record: TraceRecord,
}

/// The typed payload of one trace line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceRecord {
    /// An event the protocol invariants consume.
    Audit(AuditEvent),
    /// A boundary stall began (`until` is its scheduled end).
    StallBegin {
        /// Cycle the stall releases.
        until: u64,
    },
    /// A boundary stall ended (`since` is when it began).
    StallEnd {
        /// Cycle the stall began.
        since: u64,
    },
    /// An NVM request entered the queue.
    NvmEnqueue {
        /// Scheduling class label.
        class: String,
        /// Whether the request writes.
        write: bool,
        /// Payload size.
        bytes: u64,
    },
    /// An NVM request completed.
    NvmComplete {
        /// Cycle the request was enqueued.
        queued_at: u64,
    },
    /// An ACS pass started scanning for `target`.
    AcsScanStart {
        /// The epoch being persisted.
        target: u64,
    },
    /// An ACS pass finished.
    AcsScanEnd {
        /// The epoch being persisted.
        target: u64,
        /// Lines written back by the pass.
        lines: u64,
    },
    /// The trailing ring-overwrite accounting record.
    Dropped {
        /// Events lost to ring overwrites.
        dropped: u64,
    },
    /// An event the auditor does not model (markers, bloom checks, or
    /// kinds added after this parser was written).
    Other,
}

fn parse_record(v: &Value, event: &str) -> Result<TraceRecord, String> {
    Ok(match event {
        "epoch_begin" => TraceRecord::Audit(AuditEvent::EpochBegin {
            eid: v.field_u64("eid")?,
        }),
        "epoch_commit" => TraceRecord::Audit(AuditEvent::EpochCommit {
            eid: v.field_u64("eid")?,
        }),
        "epoch_persist" => TraceRecord::Audit(AuditEvent::EpochPersist {
            eid: v.field_u64("eid")?,
        }),
        "undo_entry_appended" => TraceRecord::Audit(AuditEvent::UndoEntryAppended {
            addr: v.field_u64("line")?,
            valid_from: v.field_u64("valid_from")?,
            valid_till: v.field_u64("valid_till")?,
        }),
        "undo_drain" => TraceRecord::Audit(AuditEvent::UndoDrain),
        "dirty_writeback" => TraceRecord::Audit(AuditEvent::LineWriteback {
            addr: v.field_u64("line")?,
            acs: false,
        }),
        "acs_line_writeback" => TraceRecord::Audit(AuditEvent::LineWriteback {
            addr: v.field_u64("line")?,
            acs: true,
        }),
        "crash_injected" => TraceRecord::Audit(AuditEvent::CrashInjected),
        "recovery_start" => TraceRecord::Audit(AuditEvent::RecoveryStart),
        "recovery_done" => TraceRecord::Audit(AuditEvent::RecoveryDone {
            recovered_to: v.field_u64("recovered_to")?,
        }),
        "boundary_stall_begin" => TraceRecord::StallBegin {
            until: v.field_u64("until")?,
        },
        "boundary_stall_end" => TraceRecord::StallEnd {
            since: v.field_u64("since")?,
        },
        "nvm_enqueue" => TraceRecord::NvmEnqueue {
            class: v.field_str("class")?.to_owned(),
            write: v
                .get("write")
                .and_then(Value::as_bool)
                .ok_or("missing or non-boolean field \"write\"")?,
            bytes: v.field_u64("bytes")?,
        },
        "nvm_complete" => TraceRecord::NvmComplete {
            queued_at: v.field_u64("queued_at")?,
        },
        "acs_scan_start" => TraceRecord::AcsScanStart {
            target: v.field_u64("target")?,
        },
        "acs_scan_end" => TraceRecord::AcsScanEnd {
            target: v.field_u64("target")?,
            lines: v.field_u64("lines")?,
        },
        "dropped_events" => TraceRecord::Dropped {
            dropped: v.field_u64("dropped")?,
        },
        _ => TraceRecord::Other,
    })
}

/// Parses a JSONL event stream. Blank lines are skipped; every other line
/// must be a JSON object with `cycle` and `event` fields.
///
/// # Errors
///
/// Returns `"line N: <what>"` on the first malformed line.
pub fn parse_trace(text: &str) -> Result<Vec<TraceLine>, String> {
    let mut out = Vec::new();
    for (idx, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let n = idx + 1;
        let v = Value::parse(line).map_err(|e| format!("line {n}: {e}"))?;
        let cycle = v.field_u64("cycle").map_err(|e| format!("line {n}: {e}"))?;
        let core = match v.get("core") {
            Some(Value::Null) | None => None,
            Some(c) => Some(
                c.as_usize()
                    .ok_or_else(|| format!("line {n}: non-integer core"))?,
            ),
        };
        let event = v.field_str("event").map_err(|e| format!("line {n}: {e}"))?;
        let record = parse_record(&v, event).map_err(|e| format!("line {n}: {e}"))?;
        out.push(TraceLine {
            cycle,
            core,
            record,
        });
    }
    Ok(out)
}

/// Runs the invariant checker over a parsed trace and returns the final
/// report. Drop accounting records feed the Pass/Inconclusive decision.
pub fn audit_trace(lines: &[TraceLine], cfg: AuditConfig) -> AuditReport {
    let mut checker = Checker::new(cfg);
    for line in lines {
        match &line.record {
            TraceRecord::Audit(ev) => checker.observe(line.cycle, line.core, *ev),
            TraceRecord::Dropped { dropped } => checker.note_dropped(*dropped),
            _ => {}
        }
    }
    checker.finish();
    checker.report()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checker::{Verdict, ViolationKind};

    #[test]
    fn parses_an_exported_stream_round_trip() {
        // Exactly what write_jsonl produces for a small run.
        let text = "\
{\"cycle\":0,\"core\":null,\"event\":\"epoch_begin\",\"eid\":1}
{\"cycle\":10,\"core\":0,\"event\":\"nvm_enqueue\",\"class\":\"demand-read\",\"write\":false,\"bytes\":64}
{\"cycle\":40,\"core\":1,\"event\":\"undo_entry_appended\",\"line\":7,\"valid_from\":0,\"valid_till\":1}
{\"cycle\":50,\"core\":1,\"event\":\"undo_drain\",\"entries\":3,\"bytes\":192,\"forced\":true}
{\"cycle\":100,\"core\":null,\"event\":\"epoch_commit\",\"eid\":1}
{\"cycle\":120,\"core\":null,\"event\":\"acs_scan_start\",\"target\":1}
{\"cycle\":130,\"core\":null,\"event\":\"acs_line_writeback\",\"line\":3}
{\"cycle\":150,\"core\":0,\"event\":\"nvm_complete\",\"class\":\"demand-read\",\"queued_at\":10}
{\"cycle\":180,\"core\":null,\"event\":\"acs_scan_end\",\"target\":1,\"lines\":2}
{\"cycle\":185,\"core\":null,\"event\":\"epoch_persist\",\"eid\":1}
{\"cycle\":200,\"core\":null,\"event\":\"boundary_stall_begin\",\"until\":260}
{\"cycle\":260,\"core\":null,\"event\":\"boundary_stall_end\",\"since\":200}
{\"cycle\":260,\"core\":null,\"event\":\"dropped_events\",\"dropped\":0,\"by_lane\":[0,0,0]}
";
        let lines = parse_trace(text).expect("parses");
        assert_eq!(lines.len(), 13);
        assert_eq!(
            lines[0].record,
            TraceRecord::Audit(AuditEvent::EpochBegin { eid: 1 })
        );
        assert_eq!(lines[1].core, Some(0));
        assert_eq!(
            lines[1].record,
            TraceRecord::NvmEnqueue {
                class: "demand-read".into(),
                write: false,
                bytes: 64
            }
        );
        assert_eq!(lines[12].record, TraceRecord::Dropped { dropped: 0 });

        let report = audit_trace(&lines, AuditConfig::default());
        assert_eq!(report.verdict, Verdict::Pass, "{report}");
    }

    #[test]
    fn unknown_events_parse_to_other() {
        let lines = parse_trace(
            "{\"cycle\":5,\"core\":null,\"event\":\"marker\",\"name\":\"x\",\"value\":3}\n\
             {\"cycle\":9,\"core\":0,\"event\":\"bloom_check\",\"line\":7,\"hit\":true}\n",
        )
        .unwrap();
        assert!(lines.iter().all(|l| l.record == TraceRecord::Other));
    }

    #[test]
    fn malformed_lines_report_their_line_number() {
        let err = parse_trace(
            "{\"cycle\":1,\"core\":null,\"event\":\"epoch_begin\",\"eid\":1}\nnot json\n",
        )
        .unwrap_err();
        assert!(err.starts_with("line 2:"), "{err}");

        let err =
            parse_trace("{\"cycle\":1,\"core\":null,\"event\":\"epoch_commit\"}\n").unwrap_err();
        assert!(err.contains("eid"), "{err}");
    }

    #[test]
    fn audit_trace_flags_reordered_commits() {
        // A reversed stream: commits regress.
        let text = "\
{\"cycle\":200,\"core\":null,\"event\":\"epoch_commit\",\"eid\":2}
{\"cycle\":100,\"core\":null,\"event\":\"epoch_commit\",\"eid\":1}
";
        let lines = parse_trace(text).unwrap();
        let report = audit_trace(&lines, AuditConfig::default());
        assert_eq!(report.verdict, Verdict::Fail);
        assert!(report
            .violations
            .iter()
            .any(|v| v.kind == ViolationKind::CommitOutOfOrder));
    }

    #[test]
    fn dropped_record_makes_audit_inconclusive() {
        let text = "\
{\"cycle\":100,\"core\":null,\"event\":\"epoch_commit\",\"eid\":1}
{\"cycle\":100,\"core\":null,\"event\":\"dropped_events\",\"dropped\":12,\"by_lane\":[12]}
";
        let report = audit_trace(&parse_trace(text).unwrap(), AuditConfig::default());
        assert_eq!(report.verdict, Verdict::Inconclusive);
        assert_eq!(report.dropped, 12);
    }

    #[test]
    fn blank_lines_are_skipped() {
        let lines =
            parse_trace("\n{\"cycle\":1,\"core\":null,\"event\":\"recovery_start\"}\n\n").unwrap();
        assert_eq!(lines.len(), 1);
    }
}
