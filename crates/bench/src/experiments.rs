//! Experiment implementations — one function per table/figure of the
//! reconstructed evaluation (DESIGN.md §5, EXPERIMENTS.md).
//!
//! Every experiment is deterministic: fixed seeds, fixed workloads, fixed
//! exploration parameters, and every number is a count or a model-unit
//! cost. [`paper`] renders them all into one string, committed as
//! `tests/data/paper.txt` and diffed by `tests/paper.rs`.
//!
//! Each headline is computed from its rows against the paper's bound,
//! which is data here, and closes with "claim held" or "claim NOT held".

use crate::render::{bytes, pct, table};
use pres_apps::registry::{all_apps, all_bugs, BugCase, WorkloadScale};
use pres_core::explore::{ExploreConfig, SearchOrder, Strategy};
use pres_core::feedback::Ranking;
use pres_core::program::Program;
use pres_core::recorder::{record, RecordedRun, RecordingReport};
use pres_core::sketch::Mechanism;
use pres_core::stats::SketchStats;
use pres_core::{explore, Certificate};
use pres_tvm::sched::RandomScheduler;
use pres_tvm::trace::NullObserver;
use pres_tvm::vm::{self, VmConfig};

/// The mechanism columns of every table, in the paper's overhead order.
pub fn standard_mechanisms() -> Vec<Mechanism> {
    vec![
        Mechanism::Rw,
        Mechanism::Bb,
        Mechanism::BbN(4),
        Mechanism::Func,
        Mechanism::Sys,
        Mechanism::Sync,
    ]
}

/// The standard simulated machine for the evaluation (the paper's testbed
/// is an 8-core x86 server).
pub fn std_vm(processors: u32) -> VmConfig {
    VmConfig {
        processors,
        ..VmConfig::default()
    }
}

/// Bug-reproduction experiments run at the paper's default of 4 processors
/// (the scalability experiment varies this).
pub const REPRO_PROCESSORS: u32 = 4;
/// Overhead experiments run on the full 8-core machine model.
pub const OVERHEAD_PROCESSORS: u32 = 8;
/// Attempt budget for the attempt tables (the paper caps at 1000).
pub const ATTEMPT_CAP: u32 = 1000;
/// Attempt budget for the feedback-vs-random ablation.
pub const ABLATION_CAP: u32 = 300;
/// Seed-search budget for finding a failing production run.
pub const SEED_SEARCH: u64 = 3000;

/// The paper's best RW/SYNC overhead ratio ("by up to 4416 times").
pub const PAPER_RW_OVER_SYNC: f64 = 4416.0;
/// The paper's attempt bound ("most tested bugs in fewer than 10 replay
/// attempts").
pub const PAPER_ATTEMPTS: u32 = 10;
/// "Scales well" (E5): SYNC overhead, max over min across every processor
/// count, stays within this factor.
pub const FLAT_GROWTH: f64 = 1.5;
/// "Critical" (E6): random replay needs at least this many times the
/// attempts of feedback over the whole suite.
pub const CRITICAL_MARGIN: f64 = 2.0;

/// The close of every headline.
fn verdict(held: bool) -> &'static str {
    if held {
        "claim held"
    } else {
        "claim NOT held"
    }
}

/// The whole evaluation, E1–E10 in EXPERIMENTS.md order, as one string.
pub fn paper() -> String {
    let matrix = RecordingMatrix::run(OVERHEAD_PROCESSORS, WorkloadScale::Standard);
    [
        e1_bugs(),
        matrix.render_overhead(),
        matrix.render_logsize(),
        e3b_composition(),
        render_attempts(&e4_attempts(ATTEMPT_CAP), ATTEMPT_CAP),
        render_scalability(&e5_scalability(&[2, 4, 8, 16])),
        render_feedback(&e6_feedback(ABLATION_CAP), ABLATION_CAP),
        render_certificates(&e7_certificates(100)),
        render_bbn(&e8_bbn_sweep(&[1, 2, 4, 8, 16, 64])),
        render_ablation(&e9_ablation(200, Mechanism::Sync), 200, Mechanism::Sync),
        render_ablation(&e9_ablation(200, Mechanism::Sys), 200, Mechanism::Sys),
        render_distribution(&e10_distribution(8, 300), 300),
    ]
    .map(|section| section + "\n")
    .concat()
}

/// The production seeds below [`SEED_SEARCH`] on which the buggy program
/// fails natively, in order (recording does not perturb scheduling, so the
/// same seed fails under every mechanism).
fn failing_seeds<'a>(
    program: &'a dyn Program,
    config: &'a VmConfig,
) -> impl Iterator<Item = u64> + 'a {
    (0..SEED_SEARCH).filter(move |&seed| {
        let body = program.root();
        vm::run(
            VmConfig {
                world: program.world(),
                ..config.clone()
            },
            program.resources(),
            &mut RandomScheduler::new(seed),
            &mut NullObserver,
            move |ctx| body(ctx),
        )
        .status
        .is_failed()
    })
}

/// The first failing production seed of `bug`; a bug that never fails is
/// a broken corpus, not a row to drop.
fn failing_seed(bug: &BugCase, program: &dyn Program, config: &VmConfig) -> u64 {
    failing_seeds(program, config)
        .next()
        .unwrap_or_else(|| panic!("{}: no failing seed in {SEED_SEARCH}", bug.id))
}

/// Searches `run`'s sketch for its failure; the attempt count, or `None`
/// when the cap runs out first.
fn attempts(
    program: &dyn Program,
    run: &RecordedRun,
    config: &VmConfig,
    explore: &ExploreConfig,
) -> Option<u32> {
    let rep = explore::reproduce(
        program,
        &run.sketch,
        &run.sketch.meta.failure_signature,
        config,
        explore,
    );
    rep.reproduced.then_some(rep.attempts)
}

/// The default search with an attempt cap.
fn capped(cap: u32) -> ExploreConfig {
    ExploreConfig {
        max_attempts: cap,
        ..ExploreConfig::default()
    }
}

/// An attempt count, or `>cap` when the cap ran out.
fn cell(attempts: Option<u32>, cap: u32) -> String {
    attempts.map_or_else(|| format!(">{cap}"), |a| a.to_string())
}

/// max/min of a series (the growth across every point, not last/first).
fn spread(values: impl Iterator<Item = f64> + Clone) -> f64 {
    let max = values.clone().fold(f64::MIN, f64::max);
    let min = values.fold(f64::MAX, f64::min);
    max / min.max(0.01)
}

// ---------------------------------------------------------------------------
// E1 — applications & bugs table.
// ---------------------------------------------------------------------------

/// Renders the corpus table (paper Tables 1–2 analogue).
pub fn e1_bugs() -> String {
    let mut rows = Vec::new();
    for bug in all_bugs() {
        rows.push(vec![
            bug.id.to_string(),
            bug.app.to_string(),
            bug.category.label().to_string(),
            bug.class.label().to_string(),
            bug.modeled_after.to_string(),
        ]);
    }
    let mut out = String::from("E1. Evaluated applications and bugs (13 bugs, 11 apps)\n\n");
    out.push_str(&table(
        &["bug id", "app", "category", "class", "modeled after"],
        &rows,
    ));
    let apps = all_apps();
    out.push_str(&format!(
        "\napplications: {} total ({} servers, {} desktop/client, {} scientific)\n",
        apps.len(),
        apps.iter()
            .filter(|a| a.category == pres_apps::AppCategory::Server)
            .count(),
        apps.iter()
            .filter(|a| a.category == pres_apps::AppCategory::Desktop)
            .count(),
        apps.iter()
            .filter(|a| a.category == pres_apps::AppCategory::Scientific)
            .count(),
    ));
    out
}

// ---------------------------------------------------------------------------
// E2/E3 — recording overhead and log size matrix.
// ---------------------------------------------------------------------------

/// The full recording matrix: every app × every mechanism, bug-free
/// standard workloads.
#[derive(Debug, Clone)]
pub struct RecordingMatrix {
    /// One report per (app, mechanism) cell, app-major.
    pub reports: Vec<RecordingReport>,
}

impl RecordingMatrix {
    /// Runs the matrix.
    pub fn run(processors: u32, scale: WorkloadScale) -> Self {
        let mut reports = Vec::new();
        let config = std_vm(processors);
        for app in all_apps() {
            let prog = app.workload(scale);
            for mech in standard_mechanisms() {
                let run = record(prog.as_ref(), mech, &config, 7);
                assert!(
                    !run.failed(),
                    "bug-free workload {} failed during overhead measurement",
                    app.id
                );
                reports.push(RecordingReport::from_run(&run));
            }
        }
        RecordingMatrix { reports }
    }

    /// The report of one (app, mechanism) cell.
    pub fn cell(&self, program: &str, mech: Mechanism) -> Option<&RecordingReport> {
        self.reports
            .iter()
            .find(|r| r.program == program && r.mechanism == mech)
    }

    /// The headline ratio: max over apps of overhead(RW)/overhead(SYNC)
    /// (the paper reports "up to 4416 times" lower overhead).
    pub fn max_rw_over_sync(&self) -> (String, f64) {
        let mut best = (String::new(), 0.0f64);
        for app in all_apps() {
            let rw = self.cell(app.id, Mechanism::Rw).map(|r| r.overhead_pct);
            let sync = self.cell(app.id, Mechanism::Sync).map(|r| r.overhead_pct);
            if let (Some(rw), Some(sync)) = (rw, sync) {
                let ratio = rw / sync.max(0.01);
                if ratio > best.1 {
                    best = (app.id.to_string(), ratio);
                }
            }
        }
        best
    }

    /// One column per mechanism, one row per app, cells rendered by `fmt`.
    fn render_cells(&self, title: &str, fmt: impl Fn(&RecordingReport) -> String) -> String {
        let mechs = standard_mechanisms();
        let mut rows = Vec::new();
        for app in all_apps() {
            let mut row = vec![app.id.to_string()];
            for m in &mechs {
                row.push(self.cell(app.id, *m).map_or_else(|| "-".into(), &fmt));
            }
            rows.push(row);
        }
        let names: Vec<String> = mechs.iter().map(|m| m.name().into_owned()).collect();
        let mut headers = vec!["app"];
        headers.extend(names.iter().map(|s| s.as_str()));
        format!("{title}\n\n{}", table(&headers, &rows))
    }

    /// Renders the E2 overhead figure as a table.
    pub fn render_overhead(&self) -> String {
        let mut out = self.render_cells(
            "E2. Production-run recording overhead (% over native, 8 simulated cores)",
            |r| pct(r.overhead_pct),
        );
        let apps = all_apps();
        let ordered = apps
            .iter()
            .filter(|a| {
                let ovh = |m| self.cell(a.id, m).expect("full matrix").overhead_pct;
                ovh(Mechanism::Rw) >= ovh(Mechanism::Sync)
            })
            .count();
        let (app, ratio) = self.max_rw_over_sync();
        out.push_str(&format!(
            "\nheadline: SYNC sketching lowers recording overhead vs. the RW baseline by up to {ratio:.0}x (on {app}; paper: up to {PAPER_RW_OVER_SYNC:.0}x), and RW costs at least SYNC on {ordered}/{} apps — {}\n",
            apps.len(),
            verdict(ratio >= PAPER_RW_OVER_SYNC && ordered == apps.len()),
        ));
        out
    }

    /// Renders the E3 log-size table.
    pub fn render_logsize(&self) -> String {
        self.render_cells(
            "E3. Sketch log size per workload (encoded bytes, entries)",
            |r| format!("{} ({} ev)", bytes(r.log_bytes), r.entries),
        )
    }
}

/// E3b: which event class each mechanism's log bytes go to on httpd, and
/// the codec's density vs. a fixed-width encoding.
pub fn e3b_composition() -> String {
    let apps = all_apps();
    let app = apps.iter().find(|a| a.id == "httpd").expect("httpd");
    let prog = app.workload(WorkloadScale::Standard);
    let config = std_vm(OVERHEAD_PROCESSORS);
    let mechs: Vec<String> = standard_mechanisms()
        .into_iter()
        .map(|mech| {
            let sketch = record(prog.as_ref(), mech, &config, 7).sketch;
            format!("{}: {}", mech.name(), SketchStats::of(&sketch))
        })
        .collect();
    format!(
        "E3b. Sketch composition on httpd (standard workload)\n\n{}",
        mechs.join("\n")
    )
}

// ---------------------------------------------------------------------------
// E4 — replay attempts per bug per mechanism.
// ---------------------------------------------------------------------------

/// One row of the attempts table.
#[derive(Debug, Clone)]
pub struct AttemptsRow {
    /// Bug id.
    pub bug: String,
    /// Bug class label.
    pub class: String,
    /// Failing production seed used.
    pub seed: u64,
    /// Attempts per mechanism (`None` = not reproduced within the cap),
    /// in [`standard_mechanisms`] order.
    pub attempts: Vec<Option<u32>>,
}

/// Runs the attempts table for every bug.
pub fn e4_attempts(cap: u32) -> Vec<AttemptsRow> {
    let config = std_vm(REPRO_PROCESSORS);
    let mut rows = Vec::new();
    for bug in all_bugs() {
        let prog = bug.program();
        let seed = failing_seed(&bug, prog.as_ref(), &config);
        let mut row = Vec::new();
        for mech in standard_mechanisms() {
            let run = record(prog.as_ref(), mech, &config, seed);
            assert!(run.failed(), "{}: recording changed the outcome", bug.id);
            row.push(attempts(prog.as_ref(), &run, &config, &capped(cap)));
        }
        rows.push(AttemptsRow {
            bug: bug.id.to_string(),
            class: bug.class.label().to_string(),
            seed,
            attempts: row,
        });
    }
    rows
}

/// Renders the attempts table.
pub fn render_attempts(rows: &[AttemptsRow], cap: u32) -> String {
    let mechs = standard_mechanisms();
    let mut trows = Vec::new();
    for r in rows {
        let mut row = vec![r.bug.clone(), r.class.clone()];
        row.extend(r.attempts.iter().map(|a| cell(*a, cap)));
        trows.push(row);
    }
    let mut headers = vec!["bug", "class"];
    let names: Vec<String> = mechs.iter().map(|m| m.name().into_owned()).collect();
    headers.extend(names.iter().map(|s| s.as_str()));
    let mut out = format!(
        "E4. Replay attempts until reproduction (cap {cap}, {REPRO_PROCESSORS} simulated cores)\n\n"
    );
    out.push_str(&table(&headers, &trows));
    let column = |mech: Mechanism| {
        let i = mechs.iter().position(|m| *m == mech).expect("standard mechanism");
        rows.iter().map(move |r| (r.bug.as_str(), r.attempts[i]))
    };
    // Per mechanism: bugs under the paper's bound, and the worst bug
    // (a capped search counts as cap + 1).
    let under = |mech| {
        column(mech)
            .filter(|(_, a)| a.is_some_and(|a| a < PAPER_ATTEMPTS))
            .count()
    };
    let worst = |mech| {
        let (bug, a) = column(mech)
            .max_by_key(|(_, a)| a.unwrap_or(cap + 1))
            .unwrap_or(("-", Some(0)));
        format!("worst {} on {bug}", cell(a, cap))
    };
    let (sync, sys) = (under(Mechanism::Sync), under(Mechanism::Sys));
    let rw_once = column(Mechanism::Rw).filter(|(_, a)| *a == Some(1)).count();
    let n = rows.len();
    out.push_str(&format!(
        "\nheadline: {sync}/{n} bugs reproduce in fewer than {PAPER_ATTEMPTS} attempts under SYNC ({}) and {sys}/{n} under SYS ({}); RW takes 1 attempt on {rw_once}/{n}; paper: most bugs in fewer than {PAPER_ATTEMPTS} — {}\n",
        worst(Mechanism::Sync),
        worst(Mechanism::Sys),
        verdict(2 * sync > n && 2 * sys > n),
    ));
    out
}

// ---------------------------------------------------------------------------
// E5 — scalability with processor count.
// ---------------------------------------------------------------------------

/// Scalability results for one processor count.
#[derive(Debug, Clone)]
pub struct ScalabilityPoint {
    /// Simulated processors.
    pub processors: u32,
    /// Mean RW recording overhead (%) across the scalability apps.
    pub rw_overhead_pct: f64,
    /// Mean SYNC recording overhead (%).
    pub sync_overhead_pct: f64,
    /// Attempts to reproduce each scalability bug under SYNC.
    pub attempts: Vec<(String, Option<u32>)>,
}

/// Apps used for the scalability overhead curve (compute-heavy, so the
/// parallel-speedup denominator is meaningful).
const SCALABILITY_APPS: [&str; 3] = ["fft", "lu", "radix"];

/// Bugs used for the scalability attempts curve.
const SCALABILITY_BUGS: [&str; 3] = [
    "lu-reduction-atomicity",
    "aget-progress-atomicity",
    "sqld-deadlock",
];

/// Runs the scalability experiment over the given processor counts.
pub fn e5_scalability(processor_counts: &[u32]) -> Vec<ScalabilityPoint> {
    let apps = all_apps();
    let bugs = all_bugs();
    let mut points = Vec::new();
    for &p in processor_counts {
        let config = std_vm(p);
        let mut rw_sum = 0.0;
        let mut sync_sum = 0.0;
        for id in SCALABILITY_APPS {
            let app = apps.iter().find(|a| a.id == id).expect("app exists");
            // Size the program to the machine: one worker per core, as the
            // paper's scalability runs do.
            let prog = app.workload_with_threads(WorkloadScale::Standard, p);
            rw_sum += record(prog.as_ref(), Mechanism::Rw, &config, 7).overhead_pct();
            sync_sum += record(prog.as_ref(), Mechanism::Sync, &config, 7).overhead_pct();
        }
        let mut row = Vec::new();
        for id in SCALABILITY_BUGS {
            let bug = bugs.iter().find(|b| b.id == id).expect("bug exists");
            let prog = bug.program();
            let seed = failing_seed(bug, prog.as_ref(), &config);
            let run = record(prog.as_ref(), Mechanism::Sync, &config, seed);
            row.push((
                id.to_string(),
                attempts(prog.as_ref(), &run, &config, &capped(ATTEMPT_CAP)),
            ));
        }
        let n = SCALABILITY_APPS.len() as f64;
        points.push(ScalabilityPoint {
            processors: p,
            rw_overhead_pct: rw_sum / n,
            sync_overhead_pct: sync_sum / n,
            attempts: row,
        });
    }
    points
}

/// Renders the scalability figure.
pub fn render_scalability(points: &[ScalabilityPoint]) -> String {
    let mut rows = Vec::new();
    for pt in points {
        let mut row = vec![
            pt.processors.to_string(),
            pct(pt.rw_overhead_pct),
            pct(pt.sync_overhead_pct),
        ];
        row.extend(pt.attempts.iter().map(|(_, a)| cell(*a, ATTEMPT_CAP)));
        rows.push(row);
    }
    let mut headers = vec!["P", "RW ovh", "SYNC ovh"];
    let bug_names: Vec<String> = points
        .first()
        .map(|p| p.attempts.iter().map(|(b, _)| format!("{b} (att)")).collect())
        .unwrap_or_default();
    headers.extend(bug_names.iter().map(|s| s.as_str()));
    let mut out = String::from(
        "E5. Scalability with processor count (overhead: mean over fft/lu/radix; attempts: SYNC sketch)\n\n",
    );
    out.push_str(&table(&headers, &rows));
    let ps: Vec<String> = points.iter().map(|p| p.processors.to_string()).collect();
    let rw = spread(points.iter().map(|p| p.rw_overhead_pct));
    let sync = spread(points.iter().map(|p| p.sync_overhead_pct));
    let worst = points
        .iter()
        .flat_map(|p| p.attempts.iter().map(|(_, a)| a.unwrap_or(ATTEMPT_CAP + 1)))
        .max()
        .unwrap_or(0);
    out.push_str(&format!(
        "\nheadline: over P = {}, RW overhead grows {rw:.1}x (max/min) while SYNC overhead stays within {sync:.1}x and SYNC attempts stay at or below {}; bound: SYNC within {FLAT_GROWTH:.1}x and attempts under {PAPER_ATTEMPTS} at every P — {}\n",
        ps.join(", "),
        cell(Some(worst).filter(|&w| w <= ATTEMPT_CAP), ATTEMPT_CAP),
        verdict(sync <= FLAT_GROWTH && worst < PAPER_ATTEMPTS),
    ));
    out
}

// ---------------------------------------------------------------------------
// E6 — feedback vs. random exploration.
// ---------------------------------------------------------------------------

/// One bug's feedback-vs-random comparison.
#[derive(Debug, Clone)]
pub struct FeedbackRow {
    /// Bug id.
    pub bug: String,
    /// Attempts with feedback (None = cap exceeded).
    pub feedback: Option<u32>,
    /// Attempts with independent random attempts (None = cap exceeded).
    pub random: Option<u32>,
}

/// Runs the feedback ablation over every bug (SYS sketch — the coarsest
/// mechanism, where the replayer must search the most; under SYNC most
/// bugs reproduce on the first attempt regardless of strategy).
pub fn e6_feedback(cap: u32) -> Vec<FeedbackRow> {
    let config = std_vm(REPRO_PROCESSORS);
    let mut rows = Vec::new();
    for bug in all_bugs() {
        let prog = bug.program();
        let seed = failing_seed(&bug, prog.as_ref(), &config);
        let run = record(prog.as_ref(), Mechanism::Sys, &config, seed);
        let go = |strategy| {
            let explore = ExploreConfig {
                strategy,
                ..capped(cap)
            };
            attempts(prog.as_ref(), &run, &config, &explore)
        };
        rows.push(FeedbackRow {
            bug: bug.id.to_string(),
            feedback: go(Strategy::Feedback),
            random: go(Strategy::Random),
        });
    }
    rows
}

/// Renders the feedback ablation.
pub fn render_feedback(rows: &[FeedbackRow], cap: u32) -> String {
    let trows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| vec![r.bug.clone(), cell(r.feedback, cap), cell(r.random, cap)])
        .collect();
    let mut out = format!(
        "E6. Feedback generation vs. independent random replay (SYS sketch, cap {cap})\n\n"
    );
    out.push_str(&table(&["bug", "feedback", "random"], &trows));
    // A capped search counts as cap + 1.
    let pairs: Vec<(u32, u32)> = rows
        .iter()
        .map(|r| (r.feedback.unwrap_or(cap + 1), r.random.unwrap_or(cap + 1)))
        .collect();
    let wins = pairs.iter().filter(|(f, g)| f < g).count();
    let ties = pairs.iter().filter(|(f, g)| f == g).count();
    let random_caps = rows.iter().filter(|r| r.random.is_none()).count();
    let feedback_total: u32 = pairs.iter().map(|(f, _)| f).sum();
    let random_total: u32 = pairs.iter().map(|(_, g)| g).sum();
    let ratio = f64::from(random_total) / f64::from(feedback_total.max(1));
    let critical = ratio >= CRITICAL_MARGIN;
    out.push_str(&format!(
        "\nheadline: feedback beats random on {wins}/{n} bugs (ties {ties}, losses {}); random exhausts the cap on {random_caps}; over the suite random needs {ratio:.1}x feedback's attempts ({random_total} vs. {feedback_total}), so feedback {} by the {CRITICAL_MARGIN:.0}x margin — {}\n",
        rows.len() - wins - ties,
        if critical { "is critical" } else { "is not critical" },
        verdict(critical),
        n = rows.len(),
    ));
    out
}

// ---------------------------------------------------------------------------
// E7 — reproduce once, reproduce every time.
// ---------------------------------------------------------------------------

/// One bug's certificate-determinism result.
#[derive(Debug, Clone)]
pub struct CertRow {
    /// Bug id.
    pub bug: String,
    /// Successful certificate replays out of `trials`.
    pub successes: u32,
    /// Replay trials.
    pub trials: u32,
    /// Encoded certificate size; `None` when the search minted none.
    pub cert_bytes: Option<u64>,
}

/// Reproduces each bug once (SYNC) and replays its certificate `trials`
/// times.
pub fn e7_certificates(trials: u32) -> Vec<CertRow> {
    let config = std_vm(REPRO_PROCESSORS);
    let mut rows = Vec::new();
    for bug in all_bugs() {
        let prog = bug.program();
        let seed = failing_seed(&bug, prog.as_ref(), &config);
        let run = record(prog.as_ref(), Mechanism::Sync, &config, seed);
        let rep = explore::reproduce(
            prog.as_ref(),
            &run.sketch,
            &run.sketch.meta.failure_signature,
            &config,
            &capped(ATTEMPT_CAP),
        );
        let encoded = rep.certificate.map(|cert| cert.encode());
        let successes = encoded.as_ref().map_or(0, |encoded| {
            let decoded = Certificate::decode(encoded).expect("certificate round-trips");
            (0..trials)
                .filter(|_| decoded.replay(prog.as_ref()).is_ok())
                .count() as u32
        });
        rows.push(CertRow {
            bug: bug.id.to_string(),
            successes,
            trials,
            cert_bytes: encoded.map(|e| e.len() as u64),
        });
    }
    rows
}

/// Renders the certificate-determinism table.
pub fn render_certificates(rows: &[CertRow]) -> String {
    let trows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.bug.clone(),
                format!("{}/{}", r.successes, r.trials),
                r.cert_bytes.map_or_else(|| "not reproduced".into(), bytes),
            ]
        })
        .collect();
    let mut out = String::from(
        "E7. Reproduce once, reproduce every time (certificate replays)\n\n",
    );
    out.push_str(&table(&["bug", "deterministic replays", "cert size"], &trows));
    let perfect = rows
        .iter()
        .filter(|r| r.cert_bytes.is_some() && r.successes == r.trials)
        .count();
    let sizes = rows.iter().filter_map(|r| r.cert_bytes);
    let (min, max) = (sizes.clone().min().unwrap_or(0), sizes.max().unwrap_or(0));
    out.push_str(&format!(
        "\nheadline: {perfect}/{} bugs replay every trial from their certificate (certificates {}–{}); paper: reproduced once, reproduced every time — {}\n",
        rows.len(),
        bytes(min),
        bytes(max),
        verdict(perfect == rows.len() && !rows.is_empty()),
    ));
    out
}

// ---------------------------------------------------------------------------
// E8 — BB-N granularity sweep.
// ---------------------------------------------------------------------------

/// One point of the BB-N sweep.
#[derive(Debug, Clone)]
pub struct BbnPoint {
    /// Sampling period (1 = full BB).
    pub n: u32,
    /// Recording overhead (%) on the bug-free workload.
    pub overhead_pct: f64,
    /// Log bytes.
    pub log_bytes: u64,
    /// Attempts to reproduce the sweep bug.
    pub attempts: Option<u32>,
}

/// Runs the BB-N sweep on the `lu` kernel and its reduction bug.
pub fn e8_bbn_sweep(ns: &[u32]) -> Vec<BbnPoint> {
    let config = std_vm(REPRO_PROCESSORS);
    let apps = all_apps();
    let bugs = all_bugs();
    let app = apps.iter().find(|a| a.id == "lu").expect("lu exists");
    let bug = bugs
        .iter()
        .find(|b| b.id == "lu-reduction-atomicity")
        .expect("bug exists");
    let workload = app.workload(WorkloadScale::Standard);
    let buggy = bug.program();
    let seed = failing_seed(bug, buggy.as_ref(), &config);
    let mut points = Vec::new();
    for &n in ns {
        let mech = if n <= 1 { Mechanism::Bb } else { Mechanism::BbN(n) };
        let over = record(workload.as_ref(), mech, &config, 7);
        let run = record(buggy.as_ref(), mech, &config, seed);
        points.push(BbnPoint {
            n,
            overhead_pct: over.overhead_pct(),
            log_bytes: over.log_bytes,
            attempts: attempts(buggy.as_ref(), &run, &config, &capped(ATTEMPT_CAP)),
        });
    }
    points
}

/// Renders the BB-N sweep.
pub fn render_bbn(points: &[BbnPoint]) -> String {
    let name = |p: &BbnPoint| -> String {
        if p.n <= 1 {
            "BB".into()
        } else {
            format!("BB-{}", p.n)
        }
    };
    let trows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                name(p),
                pct(p.overhead_pct),
                bytes(p.log_bytes),
                cell(p.attempts, ATTEMPT_CAP),
            ]
        })
        .collect();
    let mut out = String::from(
        "E8. Sketch-granularity sweep on lu (recording cost vs. reproduction effort)\n\n",
    );
    out.push_str(&table(&["mechanism", "overhead", "log", "attempts"], &trows));
    let (Some(first), Some(last)) = (points.first(), points.last()) else {
        return out;
    };
    // Coarser sampling must cost less to record and never fewer attempts
    // to reproduce (a capped search counts as cap + 1).
    let steps = || points.windows(2).map(|w| (&w[0], &w[1]));
    let overhead_falls = steps().all(|(a, b)| b.overhead_pct < a.overhead_pct);
    let log_falls = steps().all(|(a, b)| b.log_bytes < a.log_bytes);
    let att = |p: &BbnPoint| p.attempts.unwrap_or(ATTEMPT_CAP + 1);
    let attempts_rise = steps().all(|(a, b)| att(b) >= att(a));
    let series: Vec<String> = points.iter().map(|p| cell(p.attempts, ATTEMPT_CAP)).collect();
    let monotone = |held: bool| if held { "monotonically" } else { "not monotonically" };
    out.push_str(&format!(
        "\nheadline: {} → {}: overhead falls {} → {} ({}), log falls {} → {} ({}), attempts never fall: {} ({}); paper: coarser sketches trade recording cost for replay attempts — {}\n",
        name(first),
        name(last),
        pct(first.overhead_pct),
        pct(last.overhead_pct),
        monotone(overhead_falls),
        bytes(first.log_bytes),
        bytes(last.log_bytes),
        monotone(log_falls),
        series.join(", "),
        if attempts_rise { "yes" } else { "no" },
        verdict(overhead_falls && log_falls && attempts_rise),
    ));
    out
}

// ---------------------------------------------------------------------------
// E9 — ablation of the feedback engine's design choices.
// ---------------------------------------------------------------------------

/// One ablation variant's results across the bug suite.
#[derive(Debug, Clone)]
pub struct AblationRow {
    /// Variant label.
    pub variant: String,
    /// Attempts per bug (bug order as in [`all_bugs`]); `None` = cap hit.
    pub attempts: Vec<Option<u32>>,
}

impl AblationRow {
    /// (bugs reproduced, mean attempts, worst attempts), a capped search
    /// counting as cap + 1.
    pub fn summary(&self, cap: u32) -> (usize, f64, u32) {
        let counts = self.attempts.iter().map(|a| a.unwrap_or(cap + 1));
        let solved = self.attempts.iter().filter(|a| a.is_some()).count();
        let mean = counts.clone().map(f64::from).sum::<f64>() / self.attempts.len().max(1) as f64;
        (solved, mean, counts.max().unwrap_or(0))
    }
}

/// The design-choice ablations DESIGN.md calls out: candidate ranking,
/// frontier discipline, and periodic restarts, each toggled independently
/// against the full configuration (the first row). Each variant runs the
/// entire suite, so the cap is reduced.
pub fn e9_ablation(cap: u32, mechanism: Mechanism) -> Vec<AblationRow> {
    let config = std_vm(REPRO_PROCESSORS);
    let variants: Vec<(&str, ExploreConfig)> = vec![
        ("full (lockset+recency, bfs, restarts)", capped(cap)),
        ("ranking: recency only", ExploreConfig {
            ranking: Ranking::RecencyOnly,
            ..capped(cap)
        }),
        ("ranking: oldest first", ExploreConfig {
            ranking: Ranking::Oldest,
            ..capped(cap)
        }),
        ("search: dfs", ExploreConfig {
            search: SearchOrder::Dfs,
            ..capped(cap)
        }),
        ("restarts: off", ExploreConfig {
            restart_period: 0,
            ..capped(cap)
        }),
    ];
    // Record each bug once; reuse across variants.
    let mut recorded = Vec::new();
    for bug in all_bugs() {
        let prog = bug.program();
        let seed = failing_seed(&bug, prog.as_ref(), &config);
        let run = record(prog.as_ref(), mechanism, &config, seed);
        recorded.push((prog, run));
    }
    variants
        .into_iter()
        .map(|(label, explore_cfg)| AblationRow {
            variant: label.to_string(),
            attempts: recorded
                .iter()
                .map(|(prog, run)| attempts(prog.as_ref(), run, &config, &explore_cfg))
                .collect(),
        })
        .collect()
}

/// Renders the ablation table: per-variant bugs reproduced within the
/// cap, mean and worst attempts, and both against the first (full) row.
pub fn render_ablation(rows: &[AblationRow], cap: u32, mechanism: Mechanism) -> String {
    let (_, full_mean, full_worst) = rows.first().map_or((0, 0.0, 0), |r| r.summary(cap));
    let capped_max = |max: u32| cell(Some(max).filter(|&m| m <= cap), cap);
    let mut trows = Vec::new();
    // Ablations (every row after the full one) that cost no attempts.
    let mut free = Vec::new();
    for (i, r) in rows.iter().enumerate() {
        let (solved, mean, max) = r.summary(cap);
        let (d_mean, d_worst) = (mean - full_mean, i64::from(max) - i64::from(full_worst));
        trows.push(vec![
            r.variant.clone(),
            format!("{solved}/{}", r.attempts.len()),
            format!("{mean:.1}"),
            capped_max(max),
            format!("{d_mean:+.2}"),
            format!("{d_worst:+}"),
        ]);
        if i > 0 && d_mean <= 0.0 && d_worst <= 0 {
            free.push(r.variant.as_str());
        }
    }
    let mut out = format!(
        "E9. Feedback-engine ablation ({} sketch, cap {cap}; attempts across all 13 bugs)\n\n",
        mechanism.name()
    );
    out.push_str(&table(
        &["variant", "reproduced", "mean att", "worst att", "mean vs full", "worst vs full"],
        &trows,
    ));
    let ablations = rows.len().saturating_sub(1);
    out.push_str(&format!(
        "\nheadline: against full (mean {full_mean:.1}, worst {}), {}/{ablations} ablations cost attempts{}; bound: disabling any one heuristic costs attempts — {}\n",
        capped_max(full_worst),
        ablations - free.len(),
        if free.is_empty() {
            String::new()
        } else {
            format!(", {} costs none", free.join(" and "))
        },
        verdict(free.is_empty()),
    ));
    out
}

// ---------------------------------------------------------------------------
// E10 — attempt distribution across distinct failing production runs.
// ---------------------------------------------------------------------------

/// Attempt statistics for one bug across several failing production runs.
#[derive(Debug, Clone)]
pub struct DistributionRow {
    /// Bug id.
    pub bug: String,
    /// Attempts for each distinct failing production seed.
    pub attempts: Vec<u32>,
}

impl DistributionRow {
    /// (min, median, max) of the attempt counts.
    pub fn summary(&self) -> (u32, u32, u32) {
        let mut v = self.attempts.clone();
        v.sort_unstable();
        if v.is_empty() {
            return (0, 0, 0);
        }
        (v[0], v[v.len() / 2], v[v.len() - 1])
    }
}

/// For each bug, reproduces from `runs` *distinct* failing production runs
/// (different seeds → different sketches) and records the attempt counts —
/// robustness beyond the single-seed numbers of E4. SYNC sketching.
pub fn e10_distribution(runs: usize, cap: u32) -> Vec<DistributionRow> {
    let config = std_vm(REPRO_PROCESSORS);
    all_bugs()
        .into_iter()
        .map(|bug| {
            let prog = bug.program();
            let attempts = failing_seeds(prog.as_ref(), &config)
                .take(runs)
                .map(|seed| {
                    let run = record(prog.as_ref(), Mechanism::Sync, &config, seed);
                    attempts(prog.as_ref(), &run, &config, &capped(cap)).unwrap_or(cap + 1)
                })
                .collect();
            DistributionRow {
                bug: bug.id.to_string(),
                attempts,
            }
        })
        .collect()
}

/// Renders the distribution table.
pub fn render_distribution(rows: &[DistributionRow], cap: u32) -> String {
    let capped_max = |max: u32| cell(Some(max).filter(|&m| m <= cap), cap);
    let mut trows = Vec::new();
    for r in rows {
        let (min, med, max) = r.summary();
        trows.push(vec![
            r.bug.clone(),
            r.attempts.len().to_string(),
            min.to_string(),
            med.to_string(),
            capped_max(max),
        ]);
    }
    let mut out = format!(
        "E10. Attempts across distinct failing production runs (SYNC sketch, cap {cap})\n\n"
    );
    out.push_str(&table(&["bug", "runs", "min", "median", "max"], &trows));
    let largest = |pick: fn((u32, u32, u32)) -> u32| {
        rows.iter()
            .map(|r| (pick(r.summary()), r.bug.as_str()))
            .max_by_key(|&(v, _)| v)
            .unwrap_or((0, "-"))
    };
    let (median, median_bug) = largest(|s| s.1);
    let (max, max_bug) = largest(|s| s.2);
    let small = rows
        .iter()
        .filter(|r| r.summary().1 < PAPER_ATTEMPTS)
        .count();
    out.push_str(&format!(
        "\nheadline: largest median {median} ({median_bug}), largest max {} ({max_bug}); median under {PAPER_ATTEMPTS} attempts for {small}/{} bugs, whichever production run failed — {}\n",
        capped_max(max),
        rows.len(),
        verdict(small == rows.len()),
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn headline(text: &str) -> &str {
        text.lines()
            .find(|l| l.starts_with("headline:"))
            .expect("every section has a headline")
    }

    #[test]
    fn e7_headline_fails_on_a_bug_without_a_certificate() {
        let row = |bug: &str, successes, cert_bytes| CertRow {
            bug: bug.into(),
            successes,
            trials: 100,
            cert_bytes,
        };
        let all = [row("a", 100, Some(67)), row("b", 100, Some(591))];
        let text = render_certificates(&all);
        assert!(headline(&text).ends_with("— claim held"), "{text}");

        let missing = [row("a", 100, Some(67)), row("b", 0, None)];
        let text = render_certificates(&missing);
        assert!(text.contains("0/100") && text.contains("not reproduced"), "{text}");
        assert!(headline(&text).contains("1/2 bugs"), "{text}");
        assert!(headline(&text).ends_with("— claim NOT held"), "{text}");
    }

    #[test]
    fn e6_headline_calls_feedback_critical_only_past_the_margin() {
        let row = |feedback, random| FeedbackRow {
            bug: "b".into(),
            feedback: Some(feedback),
            random,
        };
        let text = render_feedback(&[row(2, Some(4)), row(1, None)], 10);
        assert!(headline(&text).contains("is critical"), "{text}");
        let text = render_feedback(&[row(2, Some(3)), row(4, Some(2))], 10);
        assert!(headline(&text).contains("is not critical"), "{text}");
        assert!(headline(&text).ends_with("— claim NOT held"), "{text}");
    }

    #[test]
    fn e8_headline_fails_when_attempts_fall_with_coarser_sampling() {
        let point = |n, overhead_pct, log_bytes, attempts| BbnPoint {
            n,
            overhead_pct,
            log_bytes,
            attempts: Some(attempts),
        };
        let rising = [point(1, 200.0, 900, 2), point(4, 50.0, 300, 3)];
        assert!(headline(&render_bbn(&rising)).ends_with("— claim held"));
        let falling = [point(1, 200.0, 900, 2), point(4, 50.0, 300, 1)];
        assert!(headline(&render_bbn(&falling)).ends_with("— claim NOT held"));
    }

    #[test]
    fn e9_headline_names_an_ablation_that_costs_nothing() {
        let row = |variant: &str, attempts: &[u32]| AblationRow {
            variant: variant.into(),
            attempts: attempts.iter().copied().map(Some).collect(),
        };
        let rows = [row("full", &[1, 3]), row("dfs", &[4, 9]), row("off", &[1, 3])];
        let text = render_ablation(&rows, 200, Mechanism::Sync);
        assert!(headline(&text).contains("1/2 ablations cost attempts, off costs none"), "{text}");
        assert!(headline(&text).ends_with("— claim NOT held"), "{text}");
    }
}
