//! Experiment implementations — one function per table/figure of the
//! reconstructed evaluation (DESIGN.md §5, EXPERIMENTS.md).
//!
//! Every experiment is deterministic: fixed seeds, fixed workloads, fixed
//! exploration parameters. Each returns structured results plus a
//! plain-text rendering that the `pres-bench` binaries print.

use crate::render::{bytes, pct, table};
use pres_apps::registry::{all_apps, all_bugs, BugCase, WorkloadScale};
use pres_core::explore::{ExploreConfig, Strategy};
use pres_core::program::Program;
use pres_core::recorder::{record, RecordingReport};
use pres_core::sketch::Mechanism;
use pres_core::{explore, Certificate};
use pres_tvm::error::RunStatus;
use pres_tvm::sched::RandomScheduler;
use pres_tvm::trace::{NullObserver, TraceMode};
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

/// Finds a production seed on which the buggy program fails (native run —
/// recording does not perturb scheduling, so the same seed fails under
/// every mechanism).
pub fn find_failing_seed(program: &dyn Program, config: &VmConfig) -> Option<u64> {
    for seed in 0..SEED_SEARCH {
        let body = program.root();
        let out = vm::run(
            VmConfig {
                trace_mode: TraceMode::Off,
                world: program.world(),
                ..config.clone()
            },
            program.resources(),
            &mut RandomScheduler::new(seed),
            &mut NullObserver,
            move |ctx| body(ctx),
        );
        if out.status.is_failed() {
            return Some(seed);
        }
    }
    None
}

// ---------------------------------------------------------------------------
// E1 — applications & bugs table.
// ---------------------------------------------------------------------------

/// Renders the corpus table (paper Tables 1–2 analogue).
pub fn e1_table_bugs() -> String {
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

    /// Renders the E2 overhead figure as a table.
    pub fn render_overhead(&self) -> String {
        let mechs = standard_mechanisms();
        let mut rows = Vec::new();
        for app in all_apps() {
            let mut row = vec![app.id.to_string()];
            for m in &mechs {
                row.push(
                    self.cell(app.id, *m)
                        .map(|r| pct(r.overhead_pct))
                        .unwrap_or_else(|| "-".into()),
                );
            }
            rows.push(row);
        }
        let mut headers = vec!["app"];
        let names: Vec<String> = mechs.iter().map(|m| m.name().into_owned()).collect();
        headers.extend(names.iter().map(|s| s.as_str()));
        let mut out = String::from(
            "E2. Production-run recording overhead (% over native, 8 simulated cores)\n\n",
        );
        out.push_str(&table(&headers, &rows));
        let (app, ratio) = self.max_rw_over_sync();
        out.push_str(&format!(
            "\nheadline: SYNC sketching lowers recording overhead vs. the RW baseline by up to {ratio:.0}x (on {app})\n",
        ));
        out
    }

    /// Renders the E3 log-size table.
    pub fn render_logsize(&self) -> String {
        let mechs = standard_mechanisms();
        let mut rows = Vec::new();
        for app in all_apps() {
            let mut row = vec![app.id.to_string()];
            for m in &mechs {
                row.push(
                    self.cell(app.id, *m)
                        .map(|r| format!("{} ({} ev)", bytes(r.log_bytes), r.entries))
                        .unwrap_or_else(|| "-".into()),
                );
            }
            rows.push(row);
        }
        let mut headers = vec!["app"];
        let names: Vec<String> = mechs.iter().map(|m| m.name().into_owned()).collect();
        headers.extend(names.iter().map(|s| s.as_str()));
        let mut out = String::from("E3. Sketch log size per workload (encoded bytes, entries)\n\n");
        out.push_str(&table(&headers, &rows));
        out
    }
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
    e4_attempts_for(&all_bugs(), cap)
}

/// Runs the attempts table for a subset of bugs.
pub fn e4_attempts_for(bugs: &[BugCase], cap: u32) -> Vec<AttemptsRow> {
    let config = std_vm(REPRO_PROCESSORS);
    let mut rows = Vec::new();
    for bug in bugs {
        let prog = bug.program();
        let seed = find_failing_seed(prog.as_ref(), &config)
            .unwrap_or_else(|| panic!("{}: no failing seed in {SEED_SEARCH}", bug.id));
        let mut attempts = Vec::new();
        for mech in standard_mechanisms() {
            let run = record(prog.as_ref(), mech, &config, seed);
            assert!(run.failed(), "{}: recording changed the outcome", bug.id);
            let rep = explore::reproduce(
                prog.as_ref(),
                &run.sketch,
                &run.sketch.meta.failure_signature,
                &config,
                &ExploreConfig {
                    max_attempts: cap,
                    ..ExploreConfig::default()
                },
            );
            attempts.push(rep.reproduced.then_some(rep.attempts));
        }
        rows.push(AttemptsRow {
            bug: bug.id.to_string(),
            class: bug.class.label().to_string(),
            seed,
            attempts,
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
        for a in &r.attempts {
            row.push(match a {
                Some(n) => n.to_string(),
                None => format!(">{cap}"),
            });
        }
        trows.push(row);
    }
    let mut headers = vec!["bug", "class"];
    let names: Vec<String> = mechs.iter().map(|m| m.name().into_owned()).collect();
    headers.extend(names.iter().map(|s| s.as_str()));
    let mut out = format!(
        "E4. Replay attempts until reproduction (cap {cap}, {REPRO_PROCESSORS} simulated cores)\n\n"
    );
    out.push_str(&table(&headers, &trows));
    let sync_idx = mechs.iter().position(|m| *m == Mechanism::Sync).unwrap();
    let sys_idx = mechs.iter().position(|m| *m == Mechanism::Sys).unwrap();
    let under_10 = rows
        .iter()
        .filter(|r| {
            r.attempts[sync_idx].is_some_and(|a| a < 10)
                || r.attempts[sys_idx].is_some_and(|a| a < 10)
        })
        .count();
    out.push_str(&format!(
        "\nheadline: {under_10}/{} bugs reproduced in fewer than 10 attempts with SYNC or SYS sketching; RW reproduces every bug on attempt 1 by construction\n",
        rows.len()
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
fn scalability_apps() -> Vec<&'static str> {
    vec!["fft", "lu", "radix"]
}

/// Bugs used for the scalability attempts curve.
fn scalability_bugs() -> Vec<&'static str> {
    vec!["lu-reduction-atomicity", "aget-progress-atomicity", "sqld-deadlock"]
}

/// Runs the scalability experiment over the given processor counts.
pub fn e5_scalability(processor_counts: &[u32]) -> Vec<ScalabilityPoint> {
    let apps = all_apps();
    let bugs = all_bugs();
    let mut points = Vec::new();
    for &p in processor_counts {
        let config = std_vm(p);
        let mut rw_sum = 0.0;
        let mut sync_sum = 0.0;
        let mut n = 0.0;
        for id in scalability_apps() {
            let app = apps.iter().find(|a| a.id == id).expect("app exists");
            // Size the program to the machine: one worker per core, as the
            // paper's scalability runs do.
            let prog = app.workload_with_threads(WorkloadScale::Standard, p);
            let rw = record(prog.as_ref(), Mechanism::Rw, &config, 7);
            let sync = record(prog.as_ref(), Mechanism::Sync, &config, 7);
            rw_sum += rw.overhead_pct();
            sync_sum += sync.overhead_pct();
            n += 1.0;
        }
        let mut attempts = Vec::new();
        for id in scalability_bugs() {
            let bug = bugs.iter().find(|b| b.id == id).expect("bug exists");
            let prog = bug.program();
            let result = find_failing_seed(prog.as_ref(), &config).map(|seed| {
                let run = record(prog.as_ref(), Mechanism::Sync, &config, seed);
                let rep = explore::reproduce(
                    prog.as_ref(),
                    &run.sketch,
                    &run.sketch.meta.failure_signature,
                    &config,
                    &ExploreConfig {
                        max_attempts: ATTEMPT_CAP,
                        ..ExploreConfig::default()
                    },
                );
                rep.reproduced.then_some(rep.attempts)
            });
            attempts.push((id.to_string(), result.flatten()));
        }
        points.push(ScalabilityPoint {
            processors: p,
            rw_overhead_pct: rw_sum / n,
            sync_overhead_pct: sync_sum / n,
            attempts,
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
        for (_, a) in &pt.attempts {
            row.push(match a {
                Some(n) => n.to_string(),
                None => format!(">{ATTEMPT_CAP}"),
            });
        }
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
    if points.len() >= 2 {
        let first = &points[0];
        let last = &points[points.len() - 1];
        out.push_str(&format!(
            "\nheadline: from P={} to P={}, RW overhead grows {:.1}x while SYNC overhead stays within {:.1}x — PRES scales with the number of processors, the baseline does not\n",
            first.processors,
            last.processors,
            last.rw_overhead_pct / first.rw_overhead_pct.max(0.01),
            last.sync_overhead_pct / first.sync_overhead_pct.max(0.01),
        ));
    }
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
        let Some(seed) = find_failing_seed(prog.as_ref(), &config) else {
            continue;
        };
        let run = record(prog.as_ref(), Mechanism::Sys, &config, seed);
        let go = |strategy: Strategy| {
            let rep = explore::reproduce(
                prog.as_ref(),
                &run.sketch,
                &run.sketch.meta.failure_signature,
                &config,
                &ExploreConfig {
                    strategy,
                    max_attempts: cap,
                    ..ExploreConfig::default()
                },
            );
            rep.reproduced.then_some(rep.attempts)
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
        .map(|r| {
            vec![
                r.bug.clone(),
                r.feedback
                    .map(|a| a.to_string())
                    .unwrap_or_else(|| format!(">{cap}")),
                r.random
                    .map(|a| a.to_string())
                    .unwrap_or_else(|| format!(">{cap}")),
            ]
        })
        .collect();
    let mut out = format!(
        "E6. Feedback generation vs. independent random replay (SYS sketch, cap {cap})\n\n"
    );
    out.push_str(&table(&["bug", "feedback", "random"], &trows));
    let wins = rows
        .iter()
        .filter(|r| {
            let f = r.feedback.unwrap_or(cap + 1);
            let g = r.random.unwrap_or(cap + 1);
            f <= g
        })
        .count();
    let random_caps = rows.iter().filter(|r| r.random.is_none()).count();
    out.push_str(&format!(
        "\nheadline: feedback matches or beats random exploration on {wins}/{} bugs; random exhausts the cap on {random_caps} of them — feedback generation from unsuccessful replays is critical\n",
        rows.len()
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
    /// Encoded certificate size.
    pub cert_bytes: u64,
}

/// Reproduces each bug once (SYNC) and replays its certificate `trials`
/// times.
pub fn e7_certificates(trials: u32) -> Vec<CertRow> {
    let config = std_vm(REPRO_PROCESSORS);
    let mut rows = Vec::new();
    for bug in all_bugs() {
        let prog = bug.program();
        let Some(seed) = find_failing_seed(prog.as_ref(), &config) else {
            continue;
        };
        let run = record(prog.as_ref(), Mechanism::Sync, &config, seed);
        let rep = explore::reproduce(
            prog.as_ref(),
            &run.sketch,
            &run.sketch.meta.failure_signature,
            &config,
            &ExploreConfig {
                max_attempts: ATTEMPT_CAP,
                ..ExploreConfig::default()
            },
        );
        let Some(cert) = rep.certificate else {
            continue;
        };
        let encoded = cert.encode();
        let decoded = Certificate::decode(&encoded).expect("certificate round-trips");
        let mut successes = 0;
        for _ in 0..trials {
            if decoded.replay(prog.as_ref()).is_ok() {
                successes += 1;
            }
        }
        rows.push(CertRow {
            bug: bug.id.to_string(),
            successes,
            trials,
            cert_bytes: encoded.len() as u64,
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
                bytes(r.cert_bytes),
            ]
        })
        .collect();
    let mut out = String::from(
        "E7. Reproduce once, reproduce every time (certificate replays)\n\n",
    );
    out.push_str(&table(&["bug", "deterministic replays", "cert size"], &trows));
    let all_perfect = rows.iter().all(|r| r.successes == r.trials);
    out.push_str(&format!(
        "\nheadline: {} — after one successful reproduction, PRES reproduces the bug every time\n",
        if all_perfect { "100% deterministic" } else { "NON-DETERMINISM DETECTED" }
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
    let seed = find_failing_seed(buggy.as_ref(), &config).expect("failing seed");
    let mut points = Vec::new();
    for &n in ns {
        let mech = if n <= 1 { Mechanism::Bb } else { Mechanism::BbN(n) };
        let over = record(workload.as_ref(), mech, &config, 7);
        let run = record(buggy.as_ref(), mech, &config, seed);
        let rep = explore::reproduce(
            buggy.as_ref(),
            &run.sketch,
            &run.sketch.meta.failure_signature,
            &config,
            &ExploreConfig {
                max_attempts: ATTEMPT_CAP,
                ..ExploreConfig::default()
            },
        );
        points.push(BbnPoint {
            n,
            overhead_pct: over.overhead_pct(),
            log_bytes: over.log_bytes,
            attempts: rep.reproduced.then_some(rep.attempts),
        });
    }
    points
}

/// Renders the BB-N sweep.
pub fn render_bbn(points: &[BbnPoint]) -> String {
    let trows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                if p.n <= 1 { "BB".into() } else { format!("BB-{}", p.n) },
                pct(p.overhead_pct),
                bytes(p.log_bytes),
                p.attempts
                    .map(|a| a.to_string())
                    .unwrap_or_else(|| format!(">{ATTEMPT_CAP}")),
            ]
        })
        .collect();
    let mut out = String::from(
        "E8. Sketch-granularity sweep on lu (recording cost vs. reproduction effort)\n\n",
    );
    out.push_str(&table(&["mechanism", "overhead", "log", "attempts"], &trows));
    out.push_str(
        "\nheadline: coarser sampling trades recording overhead for replay attempts — the spectrum that motivates PRES's mechanism menu\n",
    );
    out
}

// ---------------------------------------------------------------------------
// Sanity check used by `run_all` and the integration tests.
// ---------------------------------------------------------------------------

/// Quick cross-check that a representative pipeline works end to end.
pub fn smoke() -> Result<(), String> {
    let config = std_vm(REPRO_PROCESSORS);
    let bugs = all_bugs();
    let bug = &bugs[0];
    let prog = bug.program();
    let seed = find_failing_seed(prog.as_ref(), &config).ok_or("no failing seed")?;
    let run = record(prog.as_ref(), Mechanism::Sync, &config, seed);
    let rep = explore::reproduce(
        prog.as_ref(),
        &run.sketch,
        &run.sketch.meta.failure_signature,
        &config,
        &ExploreConfig::default(),
    );
    if !rep.reproduced {
        return Err(format!("{} not reproduced", bug.id));
    }
    let cert = rep.certificate.ok_or("no certificate")?;
    let out = cert.replay(prog.as_ref()).map_err(|e| e.to_string())?;
    match out.status {
        RunStatus::Failed(_) => Ok(()),
        other => Err(format!("certificate replay ended {other}")),
    }
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

/// The design-choice ablations DESIGN.md calls out: candidate ranking,
/// frontier discipline, and periodic restarts, each toggled independently
/// against the full configuration. Runs under SYNC sketching with a
/// reduced cap (each variant runs the entire suite).
pub fn e9_ablation(cap: u32, mechanism: Mechanism) -> Vec<AblationRow> {
    use pres_core::explore::SearchOrder;
    use pres_core::feedback::Ranking;
    let config = std_vm(REPRO_PROCESSORS);
    let variants: Vec<(String, ExploreConfig)> = vec![
        ("full (lockset+recency, bfs, restarts)".into(), ExploreConfig {
            max_attempts: cap,
            ..ExploreConfig::default()
        }),
        ("ranking: recency only".into(), ExploreConfig {
            max_attempts: cap,
            ranking: Ranking::RecencyOnly,
            ..ExploreConfig::default()
        }),
        ("ranking: oldest first".into(), ExploreConfig {
            max_attempts: cap,
            ranking: Ranking::Oldest,
            ..ExploreConfig::default()
        }),
        ("search: dfs".into(), ExploreConfig {
            max_attempts: cap,
            search: SearchOrder::Dfs,
            ..ExploreConfig::default()
        }),
        ("restarts: off".into(), ExploreConfig {
            max_attempts: cap,
            restart_period: 0,
            ..ExploreConfig::default()
        }),
    ];
    let mut rows = Vec::new();
    // Record each bug once; reuse across variants.
    let mut recorded = Vec::new();
    for bug in all_bugs() {
        let prog = bug.program();
        let seed = find_failing_seed(prog.as_ref(), &config)
            .unwrap_or_else(|| panic!("{}: no failing seed", bug.id));
        let run = record(prog.as_ref(), mechanism, &config, seed);
        recorded.push((prog, run));
    }
    for (label, explore_cfg) in variants {
        let mut attempts = Vec::new();
        for (prog, run) in &recorded {
            let rep = explore::reproduce(
                prog.as_ref(),
                &run.sketch,
                &run.sketch.meta.failure_signature,
                &config,
                &explore_cfg,
            );
            attempts.push(rep.reproduced.then_some(rep.attempts));
        }
        rows.push(AblationRow {
            variant: label,
            attempts,
        });
    }
    rows
}

/// Renders the ablation table: per-variant worst case and mean, plus the
/// count of bugs each variant reproduces within the cap.
pub fn render_ablation_for(rows: &[AblationRow], cap: u32, mechanism: Mechanism) -> String {
    let bugs = all_bugs();
    let mut trows = Vec::new();
    for r in rows {
        let solved = r.attempts.iter().filter(|a| a.is_some()).count();
        let max = r
            .attempts
            .iter()
            .map(|a| a.unwrap_or(cap + 1))
            .max()
            .unwrap_or(0);
        let mean: f64 = r
            .attempts
            .iter()
            .map(|a| f64::from(a.unwrap_or(cap + 1)))
            .sum::<f64>()
            / r.attempts.len().max(1) as f64;
        trows.push(vec![
            r.variant.clone(),
            format!("{solved}/{}", bugs.len()),
            format!("{mean:.1}"),
            if max > cap {
                format!(">{cap}")
            } else {
                max.to_string()
            },
        ]);
    }
    let mut out = format!(
        "E9. Feedback-engine ablation ({} sketch, cap {cap}; attempts across all 13 bugs)\n\n",
        mechanism.name()
    );
    out.push_str(&table(
        &["variant", "reproduced", "mean att", "worst att"],
        &trows,
    ));
    out.push_str(
        "\nheadline: each heuristic earns its keep — disabling ranking, breadth-first search, or restarts costs attempts on the hard bugs\n",
    );
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
    let mut rows = Vec::new();
    for bug in all_bugs() {
        let prog = bug.program();
        let mut attempts = Vec::new();
        let mut seed = 0u64;
        while attempts.len() < runs && seed < SEED_SEARCH {
            let body = prog.root();
            let out = vm::run(
                VmConfig {
                    world: prog.world(),
                    ..config.clone()
                },
                prog.resources(),
                &mut RandomScheduler::new(seed),
                &mut NullObserver,
                move |ctx| body(ctx),
            );
            if out.status.is_failed() {
                let run = record(prog.as_ref(), Mechanism::Sync, &config, seed);
                let rep = explore::reproduce(
                    prog.as_ref(),
                    &run.sketch,
                    &run.sketch.meta.failure_signature,
                    &config,
                    &ExploreConfig {
                        max_attempts: cap,
                        ..ExploreConfig::default()
                    },
                );
                attempts.push(if rep.reproduced { rep.attempts } else { cap + 1 });
            }
            seed += 1;
        }
        rows.push(DistributionRow {
            bug: bug.id.to_string(),
            attempts,
        });
    }
    rows
}

/// Renders the distribution table.
pub fn render_distribution(rows: &[DistributionRow], cap: u32) -> String {
    let mut trows = Vec::new();
    for r in rows {
        let (min, med, max) = r.summary();
        trows.push(vec![
            r.bug.clone(),
            r.attempts.len().to_string(),
            min.to_string(),
            med.to_string(),
            if max > cap {
                format!(">{cap}")
            } else {
                max.to_string()
            },
        ]);
    }
    let mut out = format!(
        "E10. Attempts across distinct failing production runs (SYNC sketch, cap {cap})\n\n"
    );
    out.push_str(&table(&["bug", "runs", "min", "median", "max"], &trows));
    let all_small = rows
        .iter()
        .all(|r| r.summary().1 < 10);
    out.push_str(&format!(
        "\nheadline: median attempts below 10 for {} — reproduction effort is robust to which production run failed\n",
        if all_small { "every bug" } else { "most bugs" }
    ));
    out
}
