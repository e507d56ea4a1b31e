//! `compare A.json B.json`: judges result file B against baseline A.
//!
//! For every workload both files hold and every end-to-end metric, the
//! verdict uses the metric's bound and direction from `BENCHMARK.json`:
//! a change beyond the bound is `worse` or `better`, within it `same`.
//! When either side's own spread (the distance between the quartiles of
//! its rounds, as a share of its median) exceeds the bound, the
//! difference cannot be told from noise: the row is `unresolved`, unless
//! every round of one side reads better than every round of the other.

use picl_campaign::json::Value;

use crate::Better;

/// One row's judgement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Improved by more than the bound.
    Better,
    /// Within the bound.
    Same,
    /// Regressed by more than the bound.
    Worse,
    /// The spread is wider than the bound and the rounds overlap.
    Unresolved,
}

impl Verdict {
    /// Lower-case label.
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// A metric's reported value and the spread of its rounds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spread {
    /// Reported value.
    pub value: f64,
    /// Smallest round.
    pub min: f64,
    /// Largest round.
    pub max: f64,
    /// Distance between the rounds' quartiles, as a share of `value`.
    pub iqr: f64,
}

/// The distance between the first and third quartiles of `rounds`
/// (linear interpolation between order statistics), as a share of
/// `value`; 0 for fewer than two rounds.
pub fn relative_iqr(rounds: &[f64], value: f64) -> f64 {
    if rounds.len() < 2 {
        return 0.0;
    }
    let mut v = rounds.to_vec();
    v.sort_by(f64::total_cmp);
    let at = |q: f64| {
        let pos = q * (v.len() - 1) as f64;
        let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
        v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
    };
    (at(0.75) - at(0.25)) / value.abs().max(f64::MIN_POSITIVE)
}

/// A metric's comparison rule, from `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Rule {
    /// Metric name.
    pub name: String,
    /// Direction of improvement.
    pub better: Better,
    /// Allowed worsening, as a share of the baseline median.
    pub bound: f64,
}

/// Judges `b` against baseline `a` under `rule`.
pub fn judge(a: Spread, b: Spread, rule: &Rule) -> Verdict {
    let sign = match rule.better {
        Better::Lower => 1.0,
        Better::Higher => -1.0,
    };
    // Positive = worse, as a share of the baseline.
    let worse_by = sign * (b.value - a.value) / a.value.abs().max(f64::MIN_POSITIVE);
    let (all_better, all_worse) = match rule.better {
        Better::Lower => (b.max < a.min, b.min > a.max),
        Better::Higher => (b.min > a.max, b.max < a.min),
    };
    if a.iqr > rule.bound || b.iqr > rule.bound {
        return if all_better {
            Verdict::Better
        } else if all_worse && worse_by > rule.bound {
            Verdict::Worse
        } else {
            Verdict::Unresolved
        };
    }
    if worse_by > rule.bound {
        Verdict::Worse
    } else if -worse_by > rule.bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

/// The end-to-end rules in a `BENCHMARK.json` document.
///
/// # Errors
///
/// Reports malformed JSON or a malformed `end_to_end` entry.
pub fn rules(benchmark_json: &str) -> Result<Vec<Rule>, String> {
    let doc = Value::parse(benchmark_json)?;
    let entries = doc
        .get("end_to_end")
        .and_then(Value::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    entries
        .iter()
        .map(|e| {
            let better = match e.field_str("better")? {
                "higher" => Better::Higher,
                "lower" => Better::Lower,
                other => return Err(format!("unknown direction {other:?}")),
            };
            Ok(Rule {
                name: e.field_str("name")?.to_owned(),
                better,
                bound: e
                    .get("bound")
                    .and_then(Value::as_f64)
                    .ok_or("end_to_end entry without a numeric bound")?,
            })
        })
        .collect()
}

/// One printed row.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: String,
    /// Baseline median.
    pub a: f64,
    /// Candidate median.
    pub b: f64,
    /// The judgement.
    pub verdict: Verdict,
}

/// Each workload's end-to-end metrics, by name.
type Spreads = Vec<(String, Vec<(String, Spread)>)>;

fn spreads(doc: &Value) -> Result<Spreads, String> {
    let workloads = doc
        .get("workloads")
        .and_then(Value::as_arr)
        .ok_or("result file has no workloads list")?;
    workloads
        .iter()
        .map(|w| {
            let name = w.field_str("workload")?.to_owned();
            let Some(Value::Obj(metrics)) = w.get("e2e") else {
                return Err(format!("{name}: no e2e metrics"));
            };
            let metrics = metrics
                .iter()
                .map(|(m, v)| {
                    let num = |k: &str| {
                        v.get(k)
                            .and_then(Value::as_f64)
                            .ok_or_else(|| format!("{name} {m}: no numeric {k}"))
                    };
                    let rounds: Vec<f64> = v
                        .get("rounds")
                        .and_then(Value::as_arr)
                        .ok_or_else(|| format!("{name} {m}: no rounds"))?
                        .iter()
                        .filter_map(Value::as_f64)
                        .collect();
                    let value = num("value")?;
                    Ok((
                        m.clone(),
                        Spread {
                            value,
                            min: num("min")?,
                            max: num("max")?,
                            iqr: relative_iqr(&rounds, value),
                        },
                    ))
                })
                .collect::<Result<Vec<_>, String>>()?;
            Ok((name, metrics))
        })
        .collect()
}

/// Compares two result files under `rules`: one row per workload both
/// files hold and per rule.
///
/// # Errors
///
/// Reports malformed result files or a metric missing from either side.
pub fn compare(a_json: &str, b_json: &str, rules: &[Rule]) -> Result<Vec<Row>, String> {
    let a = spreads(&Value::parse(a_json)?)?;
    let b = spreads(&Value::parse(b_json)?)?;
    let mut rows = Vec::new();
    for (workload, a_metrics) in &a {
        let Some((_, b_metrics)) = b.iter().find(|(w, _)| w == workload) else {
            continue;
        };
        for rule in rules {
            let find = |ms: &[(String, Spread)]| {
                ms.iter()
                    .find(|(m, _)| *m == rule.name)
                    .map(|(_, s)| *s)
                    .ok_or_else(|| format!("{workload}: {} missing", rule.name))
            };
            let (sa, sb) = (find(a_metrics)?, find(b_metrics)?);
            rows.push(Row {
                workload: workload.clone(),
                metric: rule.name.clone(),
                a: sa.value,
                b: sb.value,
                verdict: judge(sa, sb, rule),
            });
        }
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rule(better: Better, bound: f64) -> Rule {
        Rule {
            name: "m".into(),
            better,
            bound,
        }
    }

    /// A spread whose quartiles sit halfway between median and extremes.
    fn s(value: f64, min: f64, max: f64) -> Spread {
        Spread {
            value,
            min,
            max,
            iqr: (max - min) / 2.0 / value,
        }
    }

    #[test]
    fn verdicts_follow_direction_and_bound() {
        let lower = rule(Better::Lower, 0.10);
        let base = s(100.0, 98.0, 102.0);
        assert_eq!(judge(base, s(105.0, 104.0, 106.0), &lower), Verdict::Same);
        assert_eq!(judge(base, s(120.0, 119.0, 121.0), &lower), Verdict::Worse);
        assert_eq!(judge(base, s(80.0, 79.0, 81.0), &lower), Verdict::Better);
        let higher = rule(Better::Higher, 0.10);
        assert_eq!(
            judge(base, s(120.0, 119.0, 121.0), &higher),
            Verdict::Better
        );
        assert_eq!(judge(base, s(80.0, 79.0, 81.0), &higher), Verdict::Worse);
    }

    #[test]
    fn wide_spread_is_unresolved_unless_rounds_separate() {
        let lower = rule(Better::Lower, 0.10);
        let noisy = s(100.0, 70.0, 130.0);
        assert_eq!(
            judge(noisy, s(112.0, 90.0, 125.0), &lower),
            Verdict::Unresolved
        );
        assert_eq!(judge(noisy, s(60.0, 55.0, 65.0), &lower), Verdict::Better);
        assert_eq!(judge(noisy, s(150.0, 140.0, 160.0), &lower), Verdict::Worse);
    }

    #[test]
    fn relative_iqr_interpolates_quartiles() {
        assert_eq!(relative_iqr(&[5.0], 5.0), 0.0);
        // Quartiles of 1..=5 are 2 and 4.
        assert!((relative_iqr(&[5.0, 1.0, 3.0, 2.0, 4.0], 3.0) - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn compare_reads_result_files() {
        let file = |tput: f64| {
            format!(
                "{{\"workloads\": [{{\"workload\": \"kv-read\", \"e2e\": {{\
                 \"throughput_ops_s\": {{\"value\": {tput}, \"unit\": \"1/s\", \"min\": {}, \"max\": {}, \
                 \"rounds\": [{}, {tput}, {}]}}}}}}]}}",
                tput * 0.99,
                tput * 1.01,
                tput * 0.99,
                tput * 1.01
            )
        };
        let rules = rules(
            "{\"end_to_end\": [{\"name\": \"throughput_ops_s\", \"unit\": \"1/s\", \
             \"better\": \"higher\", \"bound\": 0.1}]}",
        )
        .unwrap();
        let rows = compare(&file(1000.0), &file(850.0), &rules).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].verdict, Verdict::Worse);
        let rows = compare(&file(1000.0), &file(1020.0), &rules).unwrap();
        assert_eq!(rows[0].verdict, Verdict::Same);
    }
}
