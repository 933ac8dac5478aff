//! Turning a workload's [`Outcome`] into what gets printed and written:
//! the human-readable table, the contract's one-line result, the detail
//! file, and the merged `result.json` of a full suite.

use crate::host;
use crate::json::Json;
use crate::registry::{Metric, END_TO_END, PER_LAYER};
use crate::workloads::{Outcome, RunConfig};
use std::collections::BTreeMap;

/// `name → {value, unit}` plus, where known, the sample count behind a
/// percentile and the per-trial values behind a median.
fn metric_json(
    metric: &Metric,
    value: f64,
    samples: Option<usize>,
    trials: Option<&Vec<f64>>,
) -> Json {
    let mut m = Json::obj().with("value", value).with("unit", metric.unit);
    if let Some(n) = samples {
        m.set("samples", n);
    }
    if let Some(t) = trials {
        m.set(
            "trials",
            t.iter().map(|&v| Json::Num(v)).collect::<Vec<_>>(),
        );
    }
    m
}

fn end_to_end_values(out: &Outcome) -> [f64; 6] {
    let e = &out.end_to_end;
    [
        e.setup_s,
        e.ops_per_s,
        e.op_ms_p50,
        e.op_ms_p90,
        e.cpu_ms_per_op,
        e.peak_rss_mib,
    ]
}

pub fn end_to_end_json(out: &Outcome) -> Json {
    let mut section = Json::obj();
    for (metric, value) in END_TO_END.iter().zip(end_to_end_values(out)) {
        let samples = metric.name.starts_with("op_ms").then_some(out.op_samples);
        section.set(
            metric.name,
            metric_json(metric, value, samples, out.trial_values.get(metric.name)),
        );
    }
    section
}

/// Every registry per-layer metric: the workload's value, else the
/// probe's, else 0 (the workload does not exercise that layer).
pub fn per_layer_json(out: &Outcome, probes: &BTreeMap<&'static str, f64>) -> Json {
    let mut section = Json::obj();
    for metric in &PER_LAYER {
        let value = out
            .per_layer
            .get(metric.name)
            .or_else(|| probes.get(metric.name))
            .copied()
            .unwrap_or(0.0);
        section.set(
            metric.name,
            metric_json(
                metric,
                value,
                out.layer_samples.get(metric.name).copied(),
                None,
            ),
        );
    }
    section
}

pub fn header(cfg: &RunConfig, trials: usize) -> Json {
    host::fingerprint()
        .with("seed", cfg.seed)
        .with("run_seconds", cfg.seconds)
        .with("trials", trials)
        .with("quick", cfg.quick)
}

/// The detail file of one workload run (both sections, whatever `--trace`
/// said: a traced run's end-to-end numbers are real, just not reported to
/// the driver).
pub fn detail(
    workload: &str,
    cfg: &RunConfig,
    out: &Outcome,
    probes: &BTreeMap<&'static str, f64>,
) -> Json {
    Json::obj()
        .with("header", header(cfg, out.trials))
        .with("workload", workload)
        .with("traced", cfg.trace)
        .with("correct", out.failed == 0)
        .with("attempted", out.attempted)
        .with("failed", out.failed)
        .with("trials", out.trials)
        .with("end_to_end", end_to_end_json(out))
        .with("per_layer", per_layer_json(out, probes))
}

/// The contract's last line: exactly `correct`, `attempted`, `failed`,
/// `metrics`, each metric exactly `value` and `unit`.
pub fn contract_line(detail: &Json, traced: bool) -> String {
    let section = if traced { "per_layer" } else { "end_to_end" };
    let mut metrics = Json::obj();
    for (name, m) in detail.get(section).map(Json::fields).unwrap_or_default() {
        metrics.set(
            name,
            Json::obj()
                .with("value", m.get("value").cloned().unwrap_or(Json::Num(0.0)))
                .with("unit", m.get("unit").cloned().unwrap_or(Json::Null)),
        );
    }
    Json::obj()
        .with(
            "correct",
            detail.get("correct").cloned().unwrap_or(Json::Bool(false)),
        )
        .with(
            "attempted",
            detail.get("attempted").cloned().unwrap_or(Json::Num(0.0)),
        )
        .with(
            "failed",
            detail.get("failed").cloned().unwrap_or(Json::Num(0.0)),
        )
        .with("metrics", metrics)
        .render()
}

/// Every metric of a section by name, with its unit (and sample count).
pub fn table(detail: &Json, section: &str) -> String {
    let mut text = String::new();
    for (name, m) in detail.get(section).map(Json::fields).unwrap_or_default() {
        let value = m.get("value").and_then(Json::as_f64).unwrap_or(0.0);
        let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
        let samples = m
            .get("samples")
            .and_then(Json::as_f64)
            .map_or(String::new(), |n| format!("  ({n} samples)"));
        text.push_str(&format!("  {name:<40} {value:>16.4} {unit}{samples}\n"));
    }
    text
}

/// Merges the detail files of a suite (`trace 0` and `trace 1` per
/// workload) into one result: header, then per workload the plain run's
/// end-to-end section beside the traced run's per-layer section.
pub fn merge(plain: &[Json], traced: &[Json]) -> Json {
    let mut workloads = Json::obj();
    for run in plain {
        let name = run.get("workload").and_then(Json::as_str).unwrap_or("?");
        let layer = traced
            .iter()
            .find(|t| t.get("workload").and_then(Json::as_str) == Some(name));
        let both_correct = [Some(run), layer]
            .into_iter()
            .flatten()
            .all(|r| r.get("correct").and_then(Json::as_bool) == Some(true));
        let sum = |key: &str| {
            [Some(run), layer]
                .into_iter()
                .flatten()
                .filter_map(|r| r.get(key).and_then(Json::as_f64))
                .sum::<f64>()
        };
        let failed = sum("failed");
        let attempted = sum("attempted");
        workloads.set(
            name,
            Json::obj()
                .with("correct", both_correct)
                .with("attempted", attempted)
                .with("failed", failed)
                .with("failed_share", failed / attempted.max(1.0))
                .with("trials", run.get("trials").cloned().unwrap_or(Json::Null))
                .with(
                    "end_to_end",
                    run.get("end_to_end").cloned().unwrap_or(Json::obj()),
                )
                .with(
                    "per_layer",
                    layer
                        .and_then(|l| l.get("per_layer").cloned())
                        .unwrap_or(Json::obj()),
                ),
        );
    }
    Json::obj()
        .with(
            "header",
            plain
                .first()
                .and_then(|r| r.get("header").cloned())
                .unwrap_or(Json::obj()),
        )
        .with("workloads", workloads)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn outcome() -> Outcome {
        let mut out = Outcome {
            attempted: 10,
            trials: 3,
            ..Outcome::default()
        };
        out.set_setup(vec![0.5, 0.4, 0.6]);
        out.set_trials(vec![
            (100.0, vec![1.0, 2.0]),
            (110.0, vec![3.0, 4.0]),
            (90.0, vec![5.0]),
        ]);
        out.layer("tvm.vm.picks", 1234.0);
        out
    }

    fn cfg(trace: bool) -> RunConfig {
        RunConfig {
            seed: 7,
            seconds: 1.0,
            trace,
            quick: false,
            lanes: 2,
            scratch: PathBuf::from("."),
        }
    }

    #[test]
    fn contract_line_has_exactly_the_contract_s_keys() {
        let probes = BTreeMap::from([("svc.journal.append_us", 812.5)]);
        let detail = detail("record-soak", &cfg(false), &outcome(), &probes);
        let line = Json::parse(&contract_line(&detail, false)).unwrap();
        let keys: Vec<&str> = line.fields().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let metrics = line.get("metrics").unwrap();
        assert_eq!(metrics.fields().len(), END_TO_END.len());
        let ops = metrics.get("ops_per_s").unwrap();
        assert_eq!(ops.fields().len(), 2, "value and unit only");
        assert_eq!(ops.get("value").and_then(Json::as_f64), Some(100.0));
        assert_eq!(
            metrics
                .get("setup_s")
                .and_then(|m| m.get("value"))
                .and_then(Json::as_f64),
            Some(0.5)
        );

        let traced = Json::parse(&contract_line(&detail, true)).unwrap();
        let layer = traced.get("metrics").unwrap();
        assert_eq!(layer.fields().len(), PER_LAYER.len());
        let value = |name| {
            layer
                .get(name)
                .and_then(|m| m.get("value"))
                .and_then(Json::as_f64)
        };
        assert_eq!(value("tvm.vm.picks"), Some(1234.0));
        assert_eq!(value("svc.journal.append_us"), Some(812.5));
        assert_eq!(value("svc.queue.drain_s"), Some(0.0));
    }

    #[test]
    fn detail_keeps_sample_counts_and_trial_values() {
        let detail = detail("record-soak", &cfg(false), &outcome(), &BTreeMap::new());
        let p50 = detail
            .get("end_to_end")
            .and_then(|e| e.get("op_ms_p50"))
            .unwrap();
        assert_eq!(p50.get("samples").and_then(Json::as_f64), Some(5.0));
        assert_eq!(p50.get("value").and_then(Json::as_f64), Some(3.0));
        assert_eq!(
            p50.get("trials").and_then(Json::as_arr).map(<[Json]>::len),
            Some(3)
        );
        assert_eq!(
            detail
                .get("header")
                .and_then(|h| h.get("seed"))
                .and_then(Json::as_f64),
            Some(7.0)
        );
        assert!(table(&detail, "end_to_end").contains("op_ms_p50"));
    }

    #[test]
    fn merge_pairs_plain_end_to_end_with_traced_per_layer() {
        let plain = detail("record-soak", &cfg(false), &outcome(), &BTreeMap::new());
        let mut bad = outcome();
        bad.fail("x");
        let traced = detail("record-soak", &cfg(true), &bad, &BTreeMap::new());
        let merged = merge(&[plain], &[traced]);
        let w = merged
            .get("workloads")
            .and_then(|w| w.get("record-soak"))
            .unwrap();
        assert_eq!(w.get("correct").and_then(Json::as_bool), Some(false));
        assert_eq!(w.get("attempted").and_then(Json::as_f64), Some(20.0));
        assert_eq!(w.get("failed_share").and_then(Json::as_f64), Some(0.05));
        assert!(w
            .get("per_layer")
            .and_then(|p| p.get("tvm.vm.picks"))
            .is_some());
        assert_eq!(
            merged
                .get("header")
                .and_then(|h| h.get("quick"))
                .and_then(Json::as_bool),
            Some(false)
        );
    }
}
