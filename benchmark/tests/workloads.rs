//! Every workload, end to end at 1% scale through the library API: the
//! correctness checks pass, every metric is emitted and finite, and the
//! result line has exactly the shape the benchmark promises.

use picl_benchmark::{run_workload, Settings, Workload, E2E, PER_LAYER};
use picl_campaign::json::Value;

fn keys(v: &Value) -> Vec<&str> {
    match v {
        Value::Obj(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
        other => panic!("not an object: {other:?}"),
    }
}

#[test]
fn every_workload_runs_at_one_percent_scale() {
    let settings = Settings {
        seed: 3,
        seconds: 0.5,
        trace: true,
        scale: 0.01,
    };
    for w in Workload::ALL {
        let out = run_workload(w, &settings).unwrap_or_else(|e| panic!("{}: {e}", w.name()));
        assert!(out.attempted > 0, "{}", w.name());
        assert!(
            out.correct(),
            "{}: {} of {} failed",
            w.name(),
            out.failed,
            out.attempted
        );

        let e2e: Vec<&str> = out.e2e.keys().copied().collect();
        let mut want: Vec<&str> = E2E.iter().map(|m| m.name).collect();
        want.sort_unstable();
        assert_eq!(e2e, want, "{}", w.name());
        for (name, stat) in &out.e2e {
            assert!(
                stat.value.is_finite() && stat.value > 0.0,
                "{} {name} = {}",
                w.name(),
                stat.value
            );
            assert!(stat.min <= stat.value && stat.value <= stat.max);
        }
        let layers: Vec<&str> = out.layers.keys().copied().collect();
        let mut want: Vec<&str> = PER_LAYER.iter().map(|m| m.name).collect();
        want.sort_unstable();
        assert_eq!(layers, want, "{}", w.name());
        assert!(out.layers.values().all(|v| v.is_finite()), "{}", w.name());

        for traced in [false, true] {
            let line = out.result_json(traced);
            let v = Value::parse(&line).unwrap_or_else(|e| panic!("{line}: {e}"));
            assert_eq!(keys(&v), ["correct", "attempted", "failed", "metrics"]);
            let metrics = v.get("metrics").unwrap();
            let expected = if traced { PER_LAYER.len() } else { E2E.len() };
            assert_eq!(keys(metrics).len(), expected);
            for name in keys(metrics) {
                assert_eq!(keys(metrics.get(name).unwrap()), ["value", "unit"]);
            }
        }
        assert!(!out.spans.is_empty());
        for line in &out.spans {
            Value::parse(line)
                .unwrap_or_else(|e| panic!("{}: bad span line {line}: {e}", w.name()));
        }
        Value::parse(&out.detail_json()).unwrap();
    }
}
