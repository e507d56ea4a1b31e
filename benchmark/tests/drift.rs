//! `BENCHMARK.json` must describe exactly what the benchmark emits:
//! the same workloads, and the same metrics with the same units,
//! directions and bounds.

use picl_benchmark::{Better, MetricSpec, Workload, E2E, PER_LAYER};
use picl_campaign::json::Value;

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    Value::parse(&text).expect("BENCHMARK.json parses")
}

fn keys(v: &Value) -> Vec<&str> {
    match v {
        Value::Obj(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
        other => panic!("not an object: {other:?}"),
    }
}

fn list<'a>(doc: &'a Value, key: &str) -> &'a [Value] {
    doc.get(key)
        .and_then(Value::as_arr)
        .unwrap_or_else(|| panic!("{key} is a list"))
}

fn is_name(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 64
        && s.starts_with(|c: char| c.is_ascii_alphanumeric())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn is_unit(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 16
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

fn check_metrics(entries: &[Value], specs: &[MetricSpec], with_bound: bool) {
    let names: Vec<&str> = entries
        .iter()
        .map(|e| e.field_str("name").unwrap())
        .collect();
    let want: Vec<&str> = specs.iter().map(|m| m.name).collect();
    assert_eq!(names, want);
    for (e, m) in entries.iter().zip(specs) {
        let expected_keys: &[&str] = if with_bound {
            &["name", "unit", "better", "bound"]
        } else {
            &["name", "unit", "better"]
        };
        assert_eq!(keys(e), expected_keys, "{}", m.name);
        assert!(is_name(m.name), "{} is not a valid name", m.name);
        assert!(is_unit(m.unit), "{}: unit {} is not valid", m.name, m.unit);
        assert_eq!(e.field_str("unit").unwrap(), m.unit, "{}", m.name);
        assert_eq!(
            e.field_str("better").unwrap(),
            m.better.name(),
            "{}",
            m.name
        );
        if with_bound {
            let bound = e.get("bound").and_then(Value::as_f64).unwrap();
            assert_eq!(Some(bound), m.bound, "{}", m.name);
            assert!(bound > 0.0 && bound <= 0.25, "{}: bound {bound}", m.name);
        }
    }
}

#[test]
fn benchmark_json_matches_what_the_benchmark_emits() {
    let doc = benchmark_json();
    assert_eq!(
        keys(&doc),
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let paths: Vec<&str> = list(&doc, "paths")
        .iter()
        .filter_map(Value::as_str)
        .collect();
    assert_eq!(paths, ["benchmark"]);
    let seconds = doc.get("run_seconds").and_then(Value::as_u64).unwrap();
    assert!((1..=60).contains(&seconds));

    let workloads = list(&doc, "workloads");
    assert_eq!(workloads.len(), Workload::ALL.len());
    for (entry, w) in workloads.iter().zip(Workload::ALL) {
        assert_eq!(keys(entry), ["name", "why"]);
        assert_eq!(entry.field_str("name").unwrap(), w.name());
        assert!(is_name(w.name()));
        let why = entry.field_str("why").unwrap();
        assert_eq!(why, w.why(), "{}", w.name());
        assert!(why.len() <= 200 && !why.contains('\n'), "{}", w.name());
    }

    check_metrics(list(&doc, "end_to_end"), &E2E, true);
    check_metrics(list(&doc, "per_layer"), &PER_LAYER, false);

    // Set-up time is gated, in seconds, and given the widest bound.
    let setup = E2E.iter().find(|m| m.name == "setup_s").expect("setup_s");
    assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
    assert!(E2E.iter().all(|m| m.bound <= setup.bound));

    let mut all: Vec<&str> = E2E.iter().chain(PER_LAYER.iter()).map(|m| m.name).collect();
    all.sort_unstable();
    all.dedup();
    assert_eq!(
        all.len(),
        E2E.len() + PER_LAYER.len(),
        "metric names are unique"
    );
}
