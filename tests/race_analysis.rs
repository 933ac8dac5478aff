//! Race analysis over the application corpus: bug-free builds are clean on
//! their protected state, buggy builds expose exactly the seeded races,
//! and the feedback engine proposes flips on the culprit objects.

use pres_core::feedback::candidates_in;
use pres_core::recorder::run_traced;
use pres_core::replay::ActionObj;
use pres_race::hb::{dedup_static, detect_races};
use pres_race::lockset::check_lockset;
use pres_suite::apps::all_bugs;
use pres_suite::apps::registry::{all_apps, WorkloadScale};
use pres_tvm::op::MemLoc;
use pres_tvm::vm::VmConfig;

#[test]
fn buggy_builds_expose_races_or_lock_inversions() {
    let config = VmConfig::default();
    for bug in all_bugs() {
        let prog = bug.program();
        // Even a non-failing run of the buggy build shows flip candidates:
        // that is exactly what feedback relies on.
        let mut found = false;
        for seed in 0..30 {
            let out = run_traced(prog.as_ref(), &config, seed);
            if !candidates_in(out.trace.events()).is_empty() {
                found = true;
                break;
            }
        }
        assert!(found, "{}: no flip candidates in 30 schedules", bug.id);
    }
}

#[test]
fn atomicity_bugs_are_lockset_visible() {
    let config = VmConfig::default();
    for bug in all_bugs() {
        if !bug.id.contains("atomicity")
            || bug.id.contains("binlog")
            || bug.id.contains("multivar")
        {
            // The binlog bug is fully locked (each variable individually)
            // and the browser bug's updates are individually atomic; both
            // are invisible to lockset by design.
            continue;
        }
        let prog = bug.program();
        let mut flagged = false;
        for seed in 0..30 {
            let out = run_traced(prog.as_ref(), &config, seed);
            if !check_lockset(&out.trace).is_empty() {
                flagged = true;
                break;
            }
        }
        assert!(flagged, "{}: lockset never flagged the racy location", bug.id);
    }
}

#[test]
fn httpd_log_bug_feedback_targets_the_log_buffer() {
    let bugs = all_bugs();
    let bug = bugs
        .iter()
        .find(|b| b.id == "httpd-log-atomicity")
        .expect("bug exists");
    let prog = bug.program();
    let config = VmConfig::default();
    let mut saw_buffer_candidate = false;
    for seed in 0..50 {
        let out = run_traced(prog.as_ref(), &config, seed);
        if candidates_in(out.trace.events()).iter().any(|c| {
            matches!(c.constraint.after.obj, ActionObj::Mem(MemLoc::Buf(_)))
        }) {
            saw_buffer_candidate = true;
            break;
        }
    }
    assert!(saw_buffer_candidate, "feedback must target the log buffer");
}

#[test]
fn dynamic_races_dedup_to_few_static_pairs() {
    let config = VmConfig::default();
    for bug in all_bugs() {
        if bug.class == pres_suite::apps::BugClass::Deadlock {
            continue;
        }
        let prog = bug.program();
        let out = run_traced(prog.as_ref(), &config, 1);
        let races = detect_races(&out.trace);
        let unique = dedup_static(&races);
        // Missing-barrier kernels (fft/radix) legitimately race on whole
        // partitions; everything else stays focused.
        let cap = if matches!(bug.app, "fft" | "radix") { 80 } else { 24 };
        assert!(
            unique.len() <= cap,
            "{}: {} static races exceeds cap {cap}",
            bug.id,
            unique.len()
        );
    }
}

#[test]
fn bugfree_scientific_kernels_have_no_memory_races() {
    let config = VmConfig::default();
    for app in all_apps() {
        if !matches!(app.id, "fft" | "lu" | "radix") {
            continue;
        }
        let prog = app.workload(WorkloadScale::Small);
        for seed in 0..10 {
            let out = run_traced(prog.as_ref(), &config, seed);
            let races = detect_races(&out.trace);
            assert!(
                races.is_empty(),
                "{} seed {seed}: bug-free kernel races: {races:?}",
                app.id
            );
        }
    }
}
