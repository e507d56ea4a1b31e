//! The machine-readable `audit-report-v1` format.
//!
//! One JSON object per audit, stable enough for CI to parse:
//!
//! ```json
//! {"format":"audit-report-v1","verdict":"pass","events_seen":9,
//!  "dropped":0,"violations":[]}
//! ```
//!
//! Violations carry the same provenance as the typed [`Violation`]s:
//! `{"kind":"...","cycle":N,"core":N|null,"line":N|null,"detail":"..."}`.

use picl_telemetry::json::escape;

use crate::checker::{AuditReport, Violation};

fn opt_num<T: std::fmt::Display>(v: Option<T>) -> String {
    match v {
        Some(n) => n.to_string(),
        None => "null".into(),
    }
}

fn violation_json(v: &Violation) -> String {
    format!(
        "{{\"kind\":\"{}\",\"cycle\":{},\"core\":{},\"line\":{},\"detail\":\"{}\"}}",
        v.kind.name(),
        v.cycle,
        opt_num(v.core),
        opt_num(v.addr),
        escape(&v.detail)
    )
}

/// Serializes an [`AuditReport`] as one `audit-report-v1` JSON document.
pub fn report_to_json(report: &AuditReport) -> String {
    let violations: Vec<String> = report.violations.iter().map(violation_json).collect();
    format!(
        "{{\"format\":\"audit-report-v1\",\"verdict\":\"{}\",\"events_seen\":{},\
         \"dropped\":{},\"violations\":[{}]}}",
        report.verdict.name(),
        report.events_seen,
        report.dropped,
        violations.join(",")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checker::{Verdict, ViolationKind};
    use picl_telemetry::json::validate_json;
    use picl_telemetry::json::Value;

    #[test]
    fn report_json_is_valid_and_round_trips() {
        let report = AuditReport {
            verdict: Verdict::Fail,
            violations: vec![Violation {
                kind: ViolationKind::UndoBeforeEviction,
                cycle: 1234,
                core: Some(1),
                addr: Some(42),
                detail: "a \"quoted\" detail".into(),
            }],
            events_seen: 99,
            dropped: 3,
        };
        let json = report_to_json(&report);
        validate_json(&json).expect("valid JSON");
        let v = Value::parse(&json).unwrap();
        assert_eq!(v.field_str("format"), Ok("audit-report-v1"));
        assert_eq!(v.field_str("verdict"), Ok("fail"));
        assert_eq!(v.field_u64("events_seen"), Ok(99));
        assert_eq!(v.field_u64("dropped"), Ok(3));
        let vs = v.get("violations").and_then(Value::as_arr).unwrap();
        assert_eq!(vs.len(), 1);
        assert_eq!(vs[0].field_str("kind"), Ok("undo_before_eviction"));
        assert_eq!(vs[0].field_u64("cycle"), Ok(1234));
        assert_eq!(vs[0].field_u64("core"), Ok(1));
        assert_eq!(vs[0].field_u64("line"), Ok(42));
        assert_eq!(vs[0].field_str("detail"), Ok("a \"quoted\" detail"));
    }

    #[test]
    fn clean_report_has_null_free_shape() {
        let report = AuditReport {
            verdict: Verdict::Pass,
            violations: Vec::new(),
            events_seen: 0,
            dropped: 0,
        };
        let json = report_to_json(&report);
        validate_json(&json).unwrap();
        assert!(json.contains("\"verdict\":\"pass\""));
        assert!(json.contains("\"violations\":[]"));
    }

    #[test]
    fn unattributed_violations_encode_nulls() {
        let report = AuditReport {
            verdict: Verdict::Fail,
            violations: vec![Violation {
                kind: ViolationKind::CommitOutOfOrder,
                cycle: 7,
                core: None,
                addr: None,
                detail: "x".into(),
            }],
            events_seen: 1,
            dropped: 0,
        };
        let json = report_to_json(&report);
        validate_json(&json).unwrap();
        assert!(json.contains("\"core\":null,\"line\":null"));
    }
}
