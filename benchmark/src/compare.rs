//! `pres-benchmark compare A.json B.json` — did B get worse than A?
//!
//! Per (end-to-end metric, workload) one verdict from the bounds in
//! `BENCHMARK.json`. Exact counts are compared for equality and reported
//! as "behaviour changed", separately from "got slower".

use crate::json::Json;
use crate::registry::{self, Better};
use crate::stats::iqr_share;
use std::collections::BTreeMap;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Within,
    Worse,
    /// The trials of one side spread wider than the bound: the difference
    /// cannot be told from noise. Neither a pass nor a regression — run
    /// again, on a quieter host or for longer.
    Unresolved,
}

impl Verdict {
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Within => "within",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One side's reading of a metric: the reported value and the per-trial
/// values behind it (empty when the run made a single measurement).
#[derive(Debug, Clone, Default)]
pub struct Reading {
    pub value: f64,
    pub trials: Vec<f64>,
}

impl Reading {
    /// Distance between the quartiles of the trials as a share of their
    /// median — the spread every other part of the benchmark reports; 0
    /// without at least two trials.
    fn spread(&self) -> f64 {
        if self.trials.len() < 2 {
            0.0
        } else {
            iqr_share(&self.trials)
        }
    }
}

/// How much worse `b` reads than `a`, as a share of `a` (negative =
/// better), in the metric's own direction.
fn worse_by(better: Better, a: f64, b: f64) -> f64 {
    if a == 0.0 {
        return 0.0;
    }
    match better {
        Better::Lower => (b - a) / a.abs(),
        Better::Higher => (a - b) / a.abs(),
    }
}

pub fn verdict(better: Better, bound: f64, a: &Reading, b: &Reading) -> Verdict {
    if a.spread() > bound || b.spread() > bound {
        // Too noisy to resolve — unless every trial of B beats every
        // trial of A, which no amount of spread explains away.
        let beats = |x: f64, y: f64| worse_by(better, y, x) < 0.0;
        let clean_sweep = !a.trials.is_empty()
            && !b.trials.is_empty()
            && b.trials
                .iter()
                .all(|&x| a.trials.iter().all(|&y| beats(x, y)));
        return if clean_sweep {
            Verdict::Better
        } else {
            Verdict::Unresolved
        };
    }
    let delta = worse_by(better, a.value, b.value);
    if delta > bound {
        Verdict::Worse
    } else if delta < -bound {
        Verdict::Better
    } else {
        Verdict::Within
    }
}

/// Exact counts agree when they are the same number up to float printing.
pub fn same_count(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0)
}

fn reading(metric: &Json) -> Option<Reading> {
    Some(Reading {
        value: metric.get("value")?.as_f64()?,
        trials: metric
            .get("trials")
            .and_then(Json::as_arr)
            .map(|t| t.iter().filter_map(Json::as_f64).collect())
            .unwrap_or_default(),
    })
}

/// Metric name → bound, from `BENCHMARK.json`'s `end_to_end` section.
pub fn bounds(benchmark_json: &Json) -> Result<BTreeMap<String, f64>, String> {
    benchmark_json
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end section")?
        .iter()
        .map(|m| {
            let name = m
                .get("name")
                .and_then(Json::as_str)
                .ok_or("metric without a name")?;
            let bound = m
                .get("bound")
                .and_then(Json::as_f64)
                .ok_or("metric without a bound")?;
            Ok((name.to_string(), bound))
        })
        .collect()
}

pub struct Report {
    pub text: String,
    pub worse: usize,
    pub unresolved: usize,
    pub behaviour_changed: usize,
}

/// Compares two result files. `Err` when they cannot be gated at all.
pub fn compare(a: &Json, b: &Json, bounds: &BTreeMap<String, f64>) -> Result<Report, String> {
    for (side, doc) in [("A", a), ("B", b)] {
        let quick = doc
            .get("header")
            .and_then(|h| h.get("quick"))
            .and_then(Json::as_bool);
        if quick != Some(false) {
            return Err(format!(
                "{side} is a --quick result (or has no header): refusing to gate on it"
            ));
        }
    }
    let seed = |doc: &Json| {
        doc.get("header")
            .and_then(|h| h.get("seed"))
            .and_then(Json::as_f64)
    };
    let same_seed = seed(a) == seed(b);
    let mut report = Report {
        text: String::new(),
        worse: 0,
        unresolved: 0,
        behaviour_changed: 0,
    };
    let workloads_a = a.get("workloads").ok_or("A has no workloads")?;
    let workloads_b = b.get("workloads").ok_or("B has no workloads")?;
    for (workload, wa) in workloads_a.fields() {
        let Some(wb) = workloads_b.get(workload) else {
            report
                .text
                .push_str(&format!("{workload}: missing from B\n"));
            continue;
        };
        report.text.push_str(&format!("{workload}\n"));
        for side in [wa, wb] {
            if side.get("correct").and_then(Json::as_bool) != Some(true) {
                return Err(format!(
                    "{workload}: a side failed its correctness gate; nothing to compare"
                ));
            }
        }
        for (name, ma) in wa.get("end_to_end").map(Json::fields).unwrap_or_default() {
            let (Some(metric), Some(&bound)) = (registry::find(name), bounds.get(name)) else {
                continue;
            };
            let (Some(ra), Some(rb)) = (
                reading(ma),
                wb.get("end_to_end")
                    .and_then(|e| e.get(name))
                    .and_then(reading),
            ) else {
                continue;
            };
            let v = verdict(metric.better, bound, &ra, &rb);
            match v {
                Verdict::Worse => report.worse += 1,
                Verdict::Unresolved => report.unresolved += 1,
                _ => {}
            }
            report.text.push_str(&format!(
                "  {name:<40} {:>14.4} -> {:>14.4} {:<6} {:+7.2} % (bound {:.0} %)  {}\n",
                ra.value,
                rb.value,
                metric.unit,
                100.0 * (rb.value - ra.value) / if ra.value == 0.0 { 1.0 } else { ra.value.abs() },
                bound * 100.0,
                v.name()
            ));
        }
        for (name, ma) in wa.get("per_layer").map(Json::fields).unwrap_or_default() {
            let Some(metric) = registry::find(name) else {
                continue;
            };
            let (Some(ra), Some(rb)) = (
                reading(ma),
                wb.get("per_layer")
                    .and_then(|e| e.get(name))
                    .and_then(reading),
            ) else {
                continue;
            };
            if metric.exact {
                if !same_seed {
                    continue;
                }
                if !same_count(ra.value, rb.value) {
                    report.behaviour_changed += 1;
                    report.text.push_str(&format!(
                        "  {name:<40} {:>14.4} -> {:>14.4} {:<6} BEHAVIOUR CHANGED (exact count differs)\n",
                        ra.value, rb.value, metric.unit
                    ));
                }
            } else if ra.value != 0.0 || rb.value != 0.0 {
                report.text.push_str(&format!(
                    "  {name:<40} {:>14.4} -> {:>14.4} {:<6} {:+7.2} % (per layer, not gated)\n",
                    ra.value,
                    rb.value,
                    metric.unit,
                    100.0 * (rb.value - ra.value)
                        / if ra.value == 0.0 { 1.0 } else { ra.value.abs() },
                ));
            }
        }
    }
    if !same_seed {
        report
            .text
            .push_str("seeds differ: exact counts not compared\n");
    }
    report.text.push_str(&format!(
        "summary: {} worse, {} unresolved, {} exact counts changed\n",
        report.worse, report.unresolved, report.behaviour_changed
    ));
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::median;

    fn steady(value: f64) -> Reading {
        Reading {
            value,
            trials: vec![value * 0.99, value, value * 1.01],
        }
    }

    #[test]
    fn verdicts_follow_the_bound_in_the_metric_s_direction() {
        let v = |better, a, b| verdict(better, 0.10, &steady(a), &steady(b));
        assert_eq!(v(Better::Lower, 100.0, 105.0), Verdict::Within);
        assert_eq!(v(Better::Lower, 100.0, 111.0), Verdict::Worse);
        assert_eq!(v(Better::Lower, 100.0, 89.0), Verdict::Better);
        assert_eq!(v(Better::Higher, 100.0, 89.0), Verdict::Worse);
        assert_eq!(v(Better::Higher, 100.0, 111.0), Verdict::Better);
        assert_eq!(v(Better::Higher, 100.0, 95.0), Verdict::Within);
    }

    #[test]
    fn wide_spread_is_unresolved_unless_every_trial_wins() {
        let noisy = |trials: &[f64]| Reading {
            value: median(trials),
            trials: trials.to_vec(),
        };
        let a = noisy(&[90.0, 100.0, 120.0]);
        // Medians differ by more than the bound, but A's trials spread 30 %.
        assert_eq!(
            verdict(Better::Lower, 0.10, &a, &noisy(&[115.0, 118.0, 121.0])),
            Verdict::Unresolved
        );
        // Every B trial below every A trial: better, spread or not.
        assert_eq!(
            verdict(Better::Lower, 0.10, &a, &noisy(&[60.0, 70.0, 89.0])),
            Verdict::Better
        );
        // …and for a higher-is-better metric the sweep goes the other way.
        assert_eq!(
            verdict(Better::Higher, 0.10, &a, &noisy(&[121.0, 150.0, 160.0])),
            Verdict::Better
        );
        assert_eq!(
            verdict(Better::Higher, 0.10, &a, &noisy(&[60.0, 70.0, 89.0])),
            Verdict::Unresolved
        );
        // A single measurement has no spread to object to.
        let single = |value| Reading {
            value,
            trials: vec![],
        };
        assert_eq!(
            verdict(Better::Lower, 0.10, &single(100.0), &single(120.0)),
            Verdict::Worse
        );
    }

    #[test]
    fn exact_counts_compare_for_equality() {
        assert!(same_count(3900.0, 3900.0));
        assert!(same_count(0.1 + 0.2, 0.3));
        assert!(!same_count(3900.0, 3901.0));
    }

    fn result(quick: bool, ops: f64, picks: f64) -> Json {
        let metric = |value: f64, unit: &str| {
            Json::obj().with("value", value).with("unit", unit).with(
                "trials",
                vec![
                    Json::Num(value),
                    Json::Num(value * 1.01),
                    Json::Num(value * 0.99),
                ],
            )
        };
        Json::obj()
            .with(
                "header",
                Json::obj().with("quick", quick).with("seed", 1u64),
            )
            .with(
                "workloads",
                Json::obj().with(
                    "record-soak",
                    Json::obj()
                        .with("correct", true)
                        .with(
                            "end_to_end",
                            Json::obj().with("ops_per_s", metric(ops, "1/s")),
                        )
                        .with(
                            "per_layer",
                            Json::obj().with("tvm.vm.picks", metric(picks, "count")),
                        ),
                ),
            )
    }

    #[test]
    fn compare_counts_regressions_and_behaviour_changes_and_refuses_quick_runs() {
        let bounds = BTreeMap::from([("ops_per_s".to_string(), 0.10)]);
        let same = compare(
            &result(false, 1000.0, 50.0),
            &result(false, 990.0, 50.0),
            &bounds,
        )
        .unwrap();
        assert_eq!((same.worse, same.behaviour_changed), (0, 0));
        assert!(same.text.contains("within"));
        let slower = compare(
            &result(false, 1000.0, 50.0),
            &result(false, 800.0, 51.0),
            &bounds,
        )
        .unwrap();
        assert_eq!((slower.worse, slower.behaviour_changed), (1, 1));
        assert!(slower.text.contains("BEHAVIOUR CHANGED"));
        assert!(compare(
            &result(true, 1000.0, 50.0),
            &result(false, 1000.0, 50.0),
            &bounds
        )
        .is_err());
    }

    #[test]
    fn bounds_come_from_benchmark_json() {
        let doc = Json::parse(
            r#"{"end_to_end": [{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}]}"#,
        )
        .unwrap();
        assert_eq!(bounds(&doc).unwrap()["setup_s"], 0.25);
        assert!(bounds(&Json::obj()).is_err());
    }
}
