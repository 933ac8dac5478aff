//! Human-readable rendering of failing executions.
//!
//! Once a certificate exists, the developer has a fully deterministic
//! failing execution to stare at. This module turns a traced
//! [`RunOutcome`] into the diagnosis artifacts PRES's workflow ends with:
//! a failure report (what happened, who was involved), a per-thread
//! interleaving timeline of the final events before the failure, and the
//! flip candidates — racing access pairs and contended lock acquisitions —
//! ranked the same way the feedback engine ranks them.

use crate::feedback;
use pres_tvm::error::RunStatus;
use pres_tvm::ids::ThreadId;
use pres_tvm::vm::RunOutcome;
use std::fmt::Write as _;

/// Options for [`failure_report`].
#[derive(Debug, Clone)]
pub struct InspectOptions {
    /// How many trailing events the timeline shows.
    pub timeline_events: usize,
    /// How many flip candidates to list.
    pub max_candidates: usize,
}

impl Default for InspectOptions {
    fn default() -> Self {
        InspectOptions {
            timeline_events: 24,
            max_candidates: 8,
        }
    }
}

fn thread_label(outcome: &RunOutcome, tid: ThreadId) -> String {
    match outcome.thread_names.get(tid.index()) {
        Some(name) => format!("{tid}:{name}"),
        None => tid.to_string(),
    }
}

/// Renders a diagnosis report for a traced run.
///
/// Works best on certificate replays (deterministic, full trace); on a
/// non-failing run it degrades to a plain execution summary.
pub fn failure_report(outcome: &RunOutcome, options: &InspectOptions) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "=== execution report ===");
    let _ = writeln!(out, "status : {}", outcome.status);
    let _ = writeln!(
        out,
        "ops    : {} total ({} mem, {} sync, {} syscalls) on {} threads",
        outcome.stats.total_ops,
        outcome.stats.mem_accesses,
        outcome.stats.sync_ops,
        outcome.stats.syscalls,
        outcome.thread_names.len()
    );
    let _ = writeln!(
        out,
        "time   : makespan {} units on {} cores (work {}, span {}, serial {})",
        outcome.time.makespan,
        outcome.time.processors,
        outcome.time.work,
        outcome.time.span,
        outcome.time.serial
    );

    if let RunStatus::Failed(f) = &outcome.status {
        let _ = writeln!(out, "failure: {f}");
    }

    if outcome.trace.is_empty() {
        let _ = writeln!(out, "(no trace captured — run with TraceMode::Full)");
        return out;
    }

    // Interleaving timeline: one column-indented line per event, so the
    // thread switches leading into the failure are visible at a glance.
    let _ = writeln!(out, "\n--- final {} events ---", options.timeline_events);
    let events = outcome.trace.events();
    let start = events.len().saturating_sub(options.timeline_events);
    for e in &events[start..] {
        let indent = "        ".repeat(e.tid.index().min(6));
        let _ = writeln!(
            out,
            "{:>6}  {indent}{} {}",
            e.gseq,
            thread_label(outcome, e.tid),
            e.op
        );
    }

    // Flip candidates, feedback-ranked.
    let ranked = feedback::candidates_in(events);
    if !ranked.is_empty() {
        let _ = writeln!(out, "\n--- flip candidates (ranked) ---");
        for cand in ranked.into_iter().take(options.max_candidates) {
            let flag = if cand.lockset_flagged {
                " [lockset violation]"
            } else {
                ""
            };
            let _ = writeln!(out, "  flip {}{}", cand.constraint, flag);
        }
    }

    // Per-thread activity summary.
    let _ = writeln!(out, "\n--- per-thread activity ---");
    for (i, name) in outcome.thread_names.iter().enumerate() {
        let tid = ThreadId(i as u32);
        let count = outcome.trace.thread_events(tid).count();
        let last = outcome
            .trace
            .thread_events(tid)
            .last()
            .map(|e| e.op.to_string())
            .unwrap_or_else(|| "-".into());
        let _ = writeln!(out, "  {tid} {name:12} {count:6} events, last: {last}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{ClosureProgram, Program};
    use crate::recorder::run_traced;
    use pres_tvm::prelude::*;

    fn failing_outcome() -> RunOutcome {
        let mut spec = ResourceSpec::new();
        let x = spec.var("x", 0);
        let prog = ClosureProgram::new("demo", spec, WorldConfig::default(), move || {
            Box::new(move |ctx: &mut Ctx| {
                let t = ctx.spawn("writer", move |ctx| {
                    ctx.write(x, 1);
                });
                ctx.write(x, 2);
                ctx.join(t);
                ctx.check(false, "always fails");
            })
        });
        for seed in 0..50 {
            let out = run_traced(&prog, &VmConfig::default(), seed);
            if out.status.is_failed() {
                return out;
            }
        }
        panic!("program always fails by construction");
    }

    #[test]
    fn report_contains_the_essentials() {
        let out = failing_outcome();
        let report = failure_report(&out, &InspectOptions::default());
        assert!(report.contains("status : failed"));
        assert!(report.contains("always fails"));
        assert!(report.contains("final"));
        assert!(report.contains("per-thread activity"));
        assert!(report.contains("writer"));
        // The unlocked write/write race surfaces as a flip suggestion.
        assert!(report.contains("flip"), "{report}");
        assert!(report.contains("[lockset violation]"), "{report}");
    }

    #[test]
    fn lock_contention_alone_lists_a_lock_flip() {
        // Both threads take `m` around their accesses: no data race, one
        // contended lock.
        let mut spec = ResourceSpec::new();
        let x = spec.var("x", 0);
        let m = spec.lock("m");
        let prog = ClosureProgram::new("locked", spec, WorldConfig::default(), move || {
            Box::new(move |ctx: &mut Ctx| {
                let t = ctx.spawn("writer", move |ctx| {
                    ctx.with_lock(m, |ctx| ctx.write(x, 1));
                });
                ctx.with_lock(m, |ctx| ctx.write(x, 2));
                ctx.join(t);
                ctx.check(false, "always fails");
            })
        });
        let out = run_traced(&prog, &VmConfig::default(), 0);
        assert!(out.status.is_failed());
        let report = failure_report(&out, &InspectOptions::default());
        let flips: Vec<&str> = report
            .lines()
            .filter(|l| l.starts_with("  flip "))
            .collect();
        assert!(
            report.contains("--- flip candidates (ranked) ---"),
            "{report}"
        );
        assert!(!flips.is_empty(), "{report}");
        assert!(flips.iter().all(|l| l.contains("@m")), "{report}");
    }

    #[test]
    fn report_degrades_without_a_trace() {
        let spec = ResourceSpec::new();
        let prog = ClosureProgram::new("tiny", spec, WorldConfig::default(), || {
            Box::new(|ctx: &mut Ctx| ctx.compute(1))
        });
        let body = prog.root();
        let out = pres_tvm::vm::run(
            VmConfig::default(), // TraceMode::Off
            prog.resources(),
            &mut RoundRobinScheduler::new(),
            &mut NullObserver,
            move |ctx| body(ctx),
        );
        let report = failure_report(&out, &InspectOptions::default());
        assert!(report.contains("no trace captured"));
    }

    #[test]
    fn timeline_respects_the_event_budget() {
        let out = failing_outcome();
        let report = failure_report(
            &out,
            &InspectOptions {
                timeline_events: 3,
                max_candidates: 1,
            },
        );
        assert!(report.contains("final 3 events"));
    }
}
