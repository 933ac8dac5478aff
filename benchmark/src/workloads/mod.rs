//! The four workloads and what they share: run configuration, the trial
//! loop, set-up timing, and the outcome every workload hands back.

pub mod diagnose_corpus;
pub mod explore_deep;
pub mod ingest_large;
pub mod record_soak;

use crate::host;
use crate::stats::{highest_percentile, median, Samples};
use crate::trace::Span;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

pub const NAMES: [&str; 4] = [
    "record-soak",
    "diagnose-corpus",
    "explore-deep",
    "ingest-large",
];

#[derive(Debug, Clone)]
pub struct RunConfig {
    pub seed: u64,
    /// How long the trials may measure.
    pub seconds: f64,
    /// Record spans and run the layer probes.
    pub trace: bool,
    /// One trial, counts ÷ 5: a smoke run, never gated.
    pub quick: bool,
    pub lanes: usize,
    /// Temp data dirs live here (inside the checkout); removed on exit.
    pub scratch: PathBuf,
}

impl RunConfig {
    /// A per-trial count, cut to a fifth under `--quick`.
    pub fn count(&self, full: usize) -> usize {
        if self.quick {
            (full / 5).max(1)
        } else {
            full
        }
    }

    /// A fresh, empty directory under the run's scratch root. Trials leave
    /// theirs behind and the whole root is removed when the run exits: on a
    /// filesystem mounted with online discard, deleting a trial's megabytes
    /// right before the next trial's fsyncs would put the TRIMs on its clock.
    pub fn fresh_dir(&self, name: &str) -> PathBuf {
        let dir = self.scratch.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("scratch directory is writable");
        dir
    }
}

/// Builds a workload's inputs several times and returns every build time;
/// `setup_s` is their median, so it is as steady as a trial metric. Three
/// builds at least (one under `--quick`), and a cheap set-up keeps going
/// until it has spent a second or run nine times — the shorter a build,
/// the more of them its median needs.
pub fn timed_setup<I>(cfg: &RunConfig, build: impl Fn() -> I) -> (I, Vec<f64>) {
    let mut times = Vec::new();
    let mut inputs = None;
    loop {
        // Drop the previous build first: two copies would count toward
        // peak memory that no real run pays.
        drop(inputs.take());
        let started = Instant::now();
        inputs = Some(build());
        times.push(started.elapsed().as_secs_f64());
        let enough = times.len() >= 3 && (times.iter().sum::<f64>() >= 1.0 || times.len() >= 9);
        if cfg.quick || enough {
            return (inputs.expect("at least one set-up"), times);
        }
    }
}

/// Whether a trial ran with spans on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    Plain,
    Traced,
}

/// Runs fixed-size trials for `cfg.seconds`: as many as fit, never fewer
/// than three (one under `--quick`). A traced run makes groups of four —
/// plain, traced, traced, plain — for half of `cfg.seconds` (the probes
/// get the rest): both arms see the same host conditions, and the cold
/// first trial and any drift fall on the plain arm from both sides.
pub fn run_trials<T>(cfg: &RunConfig, mut trial: impl FnMut(usize, Mode) -> T) -> Vec<(Mode, T)> {
    const TRACED_GROUP: [Mode; 4] = [Mode::Plain, Mode::Traced, Mode::Traced, Mode::Plain];
    let started = Instant::now();
    let mut out = Vec::new();
    loop {
        let mode = if cfg.trace {
            TRACED_GROUP[out.len() % 4]
        } else {
            Mode::Plain
        };
        out.push((mode, trial(out.len(), mode)));
        let elapsed = started.elapsed().as_secs_f64();
        let per_trial = elapsed / out.len() as f64;
        let enough = if cfg.trace {
            let group = if cfg.quick { 2 } else { 4 };
            out.len() % group == 0 && (cfg.quick || elapsed + 4.0 * per_trial > cfg.seconds / 2.0)
        } else {
            out.len() >= if cfg.quick { 1 } else { 3 }
                && (cfg.quick || elapsed + per_trial > cfg.seconds)
        };
        if enough {
            return out;
        }
    }
}

/// The end-to-end metrics, one value each per workload run.
#[derive(Debug, Clone, Copy, Default)]
pub struct EndToEnd {
    pub setup_s: f64,
    pub ops_per_s: f64,
    pub op_ms_p50: f64,
    pub op_ms_p90: f64,
    pub cpu_ms_per_op: f64,
    pub peak_rss_mib: f64,
}

/// What a workload run hands back to the reporter.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Why operations failed (first few), for the human-readable report.
    pub failures: Vec<String>,
    pub trials: usize,
    pub end_to_end: EndToEnd,
    /// The latency pool behind `op_ms_p50` / `op_ms_p90`.
    pub op_samples: usize,
    /// Per plain trial (per set-up for `setup_s`): the values each
    /// end-to-end median was taken over, so `compare` can tell a
    /// difference from run-to-run spread.
    pub trial_values: BTreeMap<&'static str, Vec<f64>>,
    /// Workload-derived per-layer metrics (registry names).
    pub per_layer: BTreeMap<&'static str, f64>,
    /// Sample counts behind per-layer percentiles.
    pub layer_samples: BTreeMap<&'static str, usize>,
    /// Spans of the traced trials (empty when tracing is off).
    pub spans: Vec<Span>,
    /// Human-readable extras (stage table, trace overhead).
    pub notes: Vec<String>,
}

impl Outcome {
    /// Counts one correctness-gate failure.
    pub fn fail(&mut self, why: impl Into<String>) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(why.into());
        }
    }

    pub fn layer(&mut self, name: &'static str, value: f64) {
        self.per_layer.insert(name, value);
    }

    pub fn set_setup(&mut self, times_s: Vec<f64>) {
        self.end_to_end.setup_s = median(&times_s);
        self.trial_values.insert("setup_s", times_s);
    }

    /// Fills throughput and latency from the plain trials: each is
    /// `(ops per second, latency samples in ms)`. Throughput is the median
    /// trial; percentiles are taken over the samples of all trials pooled.
    pub fn set_trials(&mut self, plain: Vec<(f64, Vec<f64>)>) {
        let rates: Vec<f64> = plain.iter().map(|(rate, _)| *rate).collect();
        self.end_to_end.ops_per_s = median(&rates);
        self.trial_values.insert("ops_per_s", rates);
        let per_trial: Vec<Samples> = plain
            .iter()
            .map(|(_, ms)| Samples::new(ms.clone()))
            .collect();
        self.trial_values
            .insert("op_ms_p50", per_trial.iter().map(|s| s.p(50.0)).collect());
        self.trial_values
            .insert("op_ms_p90", per_trial.iter().map(|s| s.p(90.0)).collect());
        let pooled = Samples::new(plain.into_iter().flat_map(|(_, ms)| ms).collect());
        self.op_samples = pooled.len();
        self.end_to_end.op_ms_p50 = pooled.p(50.0);
        self.end_to_end.op_ms_p90 = pooled.p(90.0);
        self.notes.push(match highest_percentile(pooled.len()) {
            Some(p) => format!(
                "op latency: {} samples; highest percentile with ten samples beyond it: p{p} = {:.4} ms",
                pooled.len(),
                pooled.p(p)
            ),
            None => format!("op latency: {} samples, too few for any percentile", pooled.len()),
        });
    }
}

/// `(rate(trial), latencies(trial))` of every plain trial, in order.
pub fn plain_trials<T>(
    trials: &[(Mode, T)],
    measure: impl Fn(&T) -> (f64, Vec<f64>),
) -> Vec<(f64, Vec<f64>)> {
    trials
        .iter()
        .filter(|(mode, _)| *mode == Mode::Plain)
        .map(|(_, t)| measure(t))
        .collect()
}

/// Span names whose mean self time per root operation is a per-layer
/// metric; for `diagnose-corpus` these tile the job span.
const STAGES: [(&str, &str); 7] = [
    ("codec.encode", "stage.codec_encode_ms"),
    ("flush.write", "stage.flush_write_ms"),
    ("submit", "stage.submit_ms"),
    ("queue.wait", "stage.queue_wait_ms"),
    ("fetch", "stage.fetch_ms"),
    ("cert.decode", "stage.cert_decode_ms"),
    ("cert.replay", "stage.cert_replay_ms"),
];

/// From the traced spans: every span name's self time per `root`
/// operation and its share of the root span, plus the root's own
/// residue (time no child accounts for). Fills the `stage.*` metrics and
/// a printable table.
pub fn stage_breakdown(out: &mut Outcome, root: &'static str) {
    let totals = crate::trace::totals_under(&out.spans, root);
    let Some(job) = totals.get(root).copied().filter(|t| t.count > 0) else {
        return;
    };
    let per_op_ms = |ns: u64| ns as f64 / job.count as f64 / 1e6;
    out.layer("stage.job_ms", per_op_ms(job.total_ns));
    out.layer("stage.residue_ms", per_op_ms(job.self_ns));
    for (span, metric) in STAGES {
        if let Some(t) = totals.get(span).filter(|_| span != root) {
            out.layer(metric, per_op_ms(t.self_ns));
        }
    }
    let share = |ns: u64| 100.0 * ns as f64 / job.total_ns.max(1) as f64;
    let mut table = format!(
        "stages of {root} ({} traced ops, mean {:.3} ms):\n",
        job.count,
        per_op_ms(job.total_ns)
    );
    let mut accounted = 0;
    for (name, t) in totals.iter().filter(|(name, _)| **name != root) {
        accounted += t.self_ns;
        table.push_str(&format!(
            "  {name:<18} self {:>9.3} ms/op  {:>5.1} %\n",
            per_op_ms(t.self_ns),
            share(t.self_ns)
        ));
    }
    table.push_str(&format!(
        "  {:<18} self {:>9.3} ms/op  {:>5.1} %  (stages + residue = {:.1} % of the span)",
        "(residue)",
        per_op_ms(job.self_ns),
        share(job.self_ns),
        share(accounted + job.self_ns)
    ));
    out.notes.push(table);
}

/// CPU and memory accounting around a workload's trials.
pub struct Meter {
    cpu_start_ms: f64,
    daemon_peak_mib: f64,
}

impl Meter {
    pub fn start() -> Meter {
        Meter {
            cpu_start_ms: host::cpu_ms(),
            daemon_peak_mib: 0.0,
        }
    }

    /// Call before stopping a trial's daemon, while `/proc/<pid>` exists.
    pub fn saw_daemon(&mut self, peak_mib: f64) {
        self.daemon_peak_mib = self.daemon_peak_mib.max(peak_mib);
    }

    /// Fills `cpu_ms_per_op` — CPU ms (generator + reaped daemons) per op —
    /// and `peak_rss_mib`, the larger of the generator's and any daemon's
    /// peak resident set.
    pub fn finish(self, out: &mut Outcome, ops: f64) {
        let cpu = host::cpu_ms() - self.cpu_start_ms;
        let own = host::peak_rss_mib(std::process::id()).unwrap_or(0.0);
        out.end_to_end.cpu_ms_per_op = cpu / ops.max(1.0);
        out.end_to_end.peak_rss_mib = own.max(self.daemon_peak_mib);
    }
}

/// The spans every lane of a trial recorded, as one vector.
pub fn lane_spans(traces: impl Iterator<Item = crate::trace::LaneTrace>) -> Vec<Span> {
    crate::trace::merge(traces.map(|t| t.into_spans()).collect())
}

/// Median over the plain trials of `value(trial)` (per-layer metrics).
pub fn plain_median<T>(trials: &[(Mode, T)], value: impl Fn(&T) -> f64) -> f64 {
    let values: Vec<f64> = trials
        .iter()
        .filter(|(mode, _)| *mode == Mode::Plain)
        .map(|(_, t)| value(t))
        .collect();
    median(&values)
}

/// `(traced / plain − 1) × 100` over the trials' wall times; 0 without
/// traced trials.
pub fn trace_overhead_pct<T>(trials: &[(Mode, T)], wall_s: impl Fn(&T) -> f64) -> f64 {
    let of = |wanted: Mode| -> Vec<f64> {
        trials
            .iter()
            .filter(|(mode, _)| *mode == wanted)
            .map(|(_, t)| wall_s(t))
            .collect()
    };
    let (plain, traced) = (of(Mode::Plain), of(Mode::Traced));
    if plain.is_empty() || traced.is_empty() {
        return 0.0;
    }
    (median(&traced) / median(&plain) - 1.0) * 100.0
}

pub fn run(name: &str, cfg: &RunConfig) -> Option<Outcome> {
    Some(match name {
        "record-soak" => record_soak::run(cfg),
        "diagnose-corpus" => diagnose_corpus::run(cfg),
        "explore-deep" => explore_deep::run(cfg),
        "ingest-large" => ingest_large::run(cfg),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(seconds: f64, trace: bool, quick: bool) -> RunConfig {
        RunConfig {
            seed: 1,
            seconds,
            trace,
            quick,
            lanes: 1,
            scratch: PathBuf::from("."),
        }
    }

    #[test]
    fn plain_runs_make_at_least_three_trials_and_quick_runs_one() {
        assert_eq!(run_trials(&cfg(0.0, false, false), |i, _| i).len(), 3);
        assert_eq!(run_trials(&cfg(0.0, false, true), |i, _| i).len(), 1);
    }

    #[test]
    fn traced_runs_go_plain_traced_traced_plain() {
        let trials = run_trials(&cfg(0.0, true, false), |i, _| i);
        let modes: Vec<Mode> = trials.iter().map(|(m, _)| *m).collect();
        assert_eq!(
            modes,
            [Mode::Plain, Mode::Traced, Mode::Traced, Mode::Plain]
        );
        assert_eq!(plain_median(&trials, |i| *i as f64), 1.5);
        let quick = run_trials(&cfg(0.0, true, true), |i, _| i);
        assert_eq!(quick.len(), 2);
        let walls = [(Mode::Plain, 1.0), (Mode::Traced, 1.5)];
        assert!((trace_overhead_pct(&walls, |w| *w) - 50.0).abs() < 1e-9);
        assert_eq!(trace_overhead_pct(&walls[..1], |w| *w), 0.0);
    }

    #[test]
    fn quick_cuts_counts_to_a_fifth() {
        assert_eq!(cfg(1.0, false, true).count(200), 40);
        assert_eq!(cfg(1.0, false, true).count(3), 1);
        assert_eq!(cfg(1.0, false, false).count(200), 200);
    }
}
