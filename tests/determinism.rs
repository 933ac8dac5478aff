//! Determinism guarantees, checked across crates: identical seeds yield
//! identical executions for every application; recorded pick sequences
//! replay exactly; recording never perturbs scheduling.

use pres_core::recorder::{record, run_traced};
use pres_core::sketch::Mechanism;
use pres_suite::apps::registry::{all_apps, WorkloadScale};
use pres_suite::tvm::prelude::*;

#[test]
fn identical_seeds_give_identical_traces_for_every_app() {
    let config = VmConfig {
        trace_mode: TraceMode::Full,
        ..VmConfig::default()
    };
    for app in all_apps() {
        let prog = app.workload(WorkloadScale::Small);
        let a = run_traced(prog.as_ref(), &config, 17);
        let b = run_traced(prog.as_ref(), &config, 17);
        assert_eq!(a.schedule, b.schedule, "{}", app.id);
        assert_eq!(a.trace.len(), b.trace.len(), "{}", app.id);
        for (x, y) in a.trace.events().iter().zip(b.trace.events()) {
            assert_eq!(x, y, "{}", app.id);
        }
        assert_eq!(a.stdout, b.stdout, "{}", app.id);
        assert_eq!(a.files, b.files, "{}", app.id);
    }
}

#[test]
fn different_seeds_eventually_differ() {
    let apps = all_apps();
    let app = apps.iter().find(|a| a.id == "lu").expect("lu");
    let prog = app.workload(WorkloadScale::Small);
    let config = VmConfig::default();
    let base = run_traced(prog.as_ref(), &config, 0);
    let mut any_differs = false;
    for seed in 1..10 {
        if run_traced(prog.as_ref(), &config, seed).schedule != base.schedule {
            any_differs = true;
            break;
        }
    }
    assert!(any_differs, "the scheduler must actually vary with the seed");
}

#[test]
fn recorded_schedules_replay_exactly_for_every_app() {
    let config = VmConfig {
        trace_mode: TraceMode::Full,
        ..VmConfig::default()
    };
    for app in all_apps() {
        let prog = app.workload(WorkloadScale::Small);
        let first = run_traced(prog.as_ref(), &config, 23);
        let body = prog.root();
        let mut scripted = ScriptedScheduler::new(first.schedule.clone());
        let second = pres_suite::tvm::vm::run(
            VmConfig {
                trace_mode: TraceMode::Full,
                world: prog.world(),
                ..VmConfig::default()
            },
            prog.resources(),
            &mut scripted,
            &mut NullObserver,
            move |ctx| body(ctx),
        );
        assert_eq!(first.status, second.status, "{}", app.id);
        assert_eq!(first.schedule, second.schedule, "{}", app.id);
        for (x, y) in first.trace.events().iter().zip(second.trace.events()) {
            assert_eq!(x, y, "{}", app.id);
        }
    }
}

#[test]
fn recording_never_perturbs_the_schedule() {
    let config = VmConfig::default();
    for app in all_apps() {
        let prog = app.workload(WorkloadScale::Small);
        for mech in [Mechanism::Rw, Mechanism::Sync] {
            let run = record(prog.as_ref(), mech, &config, 9);
            assert_eq!(
                run.native.schedule, run.outcome.schedule,
                "{} under {}",
                app.id, mech
            );
            // `os_spawns` counts pool growth, not execution: the native run
            // warms the thread's pool for the recorded one.
            let executed = |stats: RunStats| RunStats {
                os_spawns: 0,
                ..stats
            };
            assert_eq!(
                executed(run.native.stats),
                executed(run.outcome.stats),
                "{}",
                app.id
            );
            // But the recorded run is never cheaper than native.
            assert!(run.outcome.time.makespan >= run.native.time.makespan);
        }
    }
}
