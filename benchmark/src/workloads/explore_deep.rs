//! `explore-deep` — explorer-bound, no daemon, no disk.
//!
//! *Search arm* (once, off the trial clock): reproduce every bug from its
//! SYNC and its SYS sketch with the real target, replay each certificate.
//! *Deep arm* (the trials): the same SYS sketches against a target that can
//! never match, so every reproduction spends its whole attempt cap and
//! each attempt ends in feedback extraction and candidate merge. The
//! steady-state attempt loop (`tvm::vm` pick/handoff, `core::replay`,
//! `core::feedback`, `race::hb`) is everything here and `svc` is absent;
//! it uses the explorer the opposite way from `diagnose-corpus` (long
//! failing search vs. short successful one), so a gain for one that costs
//! the other shows.

use super::{
    lane_spans, plain_median, plain_trials, run_trials, timed_setup, trace_overhead_pct, Meter,
    Mode, Outcome, RunConfig,
};
use crate::inputs::{bug_programs, classic_sketches};
use crate::lanes;
use crate::trace::{self, LaneTrace};
use pres_apps::registry::all_bugs;
use pres_core::explore::{self, ExploreConfig};
use pres_core::oracle::StatusOracle;
use pres_core::program::Program;
use pres_core::sketch::{Mechanism, Sketch};
use pres_tvm::pool::VthreadPool;
use pres_tvm::vm::VmConfig;
use std::time::Instant;

/// Attempts every deep reproduction spends.
const CAP: u32 = 100;
/// Deep reproductions per bug and trial, each from its own explorer base
/// seed (the daemon's retry ladder shifts the base seed the same way), so
/// a trial is `13 × TRIES × CAP` = 3 900 failed attempts in 39 tasks:
/// enough latency samples for a p90 and a short idle tail per lane.
const TRIES: usize = 3;
/// A failure signature no program produces.
const UNMATCHABLE: &str = "assert:__probe__";

struct Inputs {
    programs: Vec<Box<dyn Program>>,
    bug_ids: Vec<&'static str>,
    sync: Vec<Sketch>,
    sys: Vec<Sketch>,
}

struct Lane {
    pool: VthreadPool,
    trace: LaneTrace,
}

struct Deep {
    wall_ms: f64,
    attempts: u32,
    error: Option<String>,
}

struct Trial {
    wall_s: f64,
    busy_s: f64,
    spawned_workers: u64,
    deeps: Vec<Deep>,
    spans: Vec<trace::Span>,
}

fn deep_config(cap: u32, try_index: usize) -> ExploreConfig {
    let defaults = ExploreConfig::default();
    ExploreConfig {
        max_attempts: cap,
        workers: 1,
        base_seed: defaults
            .base_seed
            .wrapping_add((try_index as u64).wrapping_mul(0x9e37_79b9)),
        ..defaults
    }
}

pub fn run(cfg: &RunConfig) -> Outcome {
    let bugs = all_bugs();
    let cap = cfg.count(CAP as usize) as u32;
    let (inputs, setup_times) = timed_setup(cfg, || {
        let mut recorded =
            classic_sketches(cfg.seed, &[Mechanism::Sync, Mechanism::Sys], cfg.lanes);
        let sys = recorded.pop().expect("SYS sketches");
        let sync = recorded.pop().expect("SYNC sketches");
        Inputs {
            programs: bug_programs(),
            bug_ids: bugs.iter().map(|b| b.id).collect(),
            sync,
            sys,
        }
    });

    let mut out = Outcome::default();

    // Search arm: all 26 (bug, mechanism) sketches must reproduce and
    // every certificate must replay.
    let vm = VmConfig::default();
    let searches = lanes::run(
        cfg.lanes,
        2 * bugs.len(),
        |_| (),
        |_, n| {
            let (label, sketches) = [("SYNC", &inputs.sync), ("SYS", &inputs.sys)][n / bugs.len()];
            let b = n % bugs.len();
            let program = inputs.programs[b].as_ref();
            let sketch = &sketches[b];
            let repro = explore::reproduce(
                program,
                sketch,
                &sketch.meta.failure_signature,
                &vm,
                &ExploreConfig::default(),
            );
            let error = match &repro.certificate {
                Some(cert) => cert.replay(program).err().map(|e| {
                    format!(
                        "{} {label}: certificate does not replay: {e}",
                        inputs.bug_ids[b]
                    )
                }),
                None => Some(format!(
                    "{} {label}: not reproduced in {} attempts",
                    inputs.bug_ids[b], repro.attempts
                )),
            };
            (u64::from(repro.attempts), error)
        },
    )
    .results;
    let mut attempts_to_reproduce = 0;
    for (attempts, error) in searches {
        out.attempted += 1;
        attempts_to_reproduce += attempts;
        if let Some(why) = error {
            out.fail(why);
        }
    }

    let oracle = StatusOracle::new(UNMATCHABLE);
    let tasks = bugs.len() * TRIES;
    let meter = Meter::start();
    let trials = run_trials(cfg, |_, mode| {
        let epoch = (mode == Mode::Traced).then(Instant::now);
        let run = lanes::run(
            cfg.lanes,
            tasks,
            |_| {
                let lane = Lane {
                    pool: VthreadPool::new(ExploreConfig::default().pool_width),
                    trace: LaneTrace::new(epoch),
                };
                // Warm the lane's pool off the clock: one attempt per
                // program grows it to peak width.
                for (program, sketch) in inputs.programs.iter().zip(&inputs.sys) {
                    explore::reproduce_with_oracle_and_pool(
                        program.as_ref(),
                        sketch,
                        &oracle,
                        &vm,
                        &deep_config(1, 0),
                        Some(&lane.pool),
                    );
                }
                lane
            },
            |lane, n| {
                // Consecutive tasks are different bugs.
                let (b, try_index) = (n % bugs.len(), n / bugs.len());
                let program = inputs.programs[b].as_ref();
                let explore = deep_config(cap, try_index);
                let started = Instant::now();
                let pool = &lane.pool;
                let repro = lane.trace.span(
                    "explore.reproduce",
                    "core.explore",
                    n as u64,
                    LaneTrace::ROOT,
                    || {
                        explore::reproduce_with_oracle_and_pool(
                            program,
                            &inputs.sys[b],
                            &oracle,
                            &vm,
                            &explore,
                            Some(pool),
                        )
                    },
                );
                let error = (repro.reproduced || repro.attempts != cap).then(|| {
                    format!(
                        "{}: deep search spent {} of {cap} attempts (reproduced: {})",
                        inputs.bug_ids[b], repro.attempts, repro.reproduced
                    )
                });
                Deep {
                    wall_ms: started.elapsed().as_secs_f64() * 1e3,
                    attempts: repro.attempts,
                    error,
                }
            },
        );
        Trial {
            wall_s: run.wall.as_secs_f64(),
            busy_s: run.busy.iter().map(|b| b.as_secs_f64()).sum(),
            spawned_workers: run.states.iter().map(|l| l.pool.spawned_workers()).sum(),
            deeps: run.results,
            spans: lane_spans(run.states.into_iter().map(|l| l.trace)),
        }
    });

    out.trials = trials.len();
    for (_, trial) in &trials {
        for deep in &trial.deeps {
            out.attempted += 1;
            if let Some(why) = &deep.error {
                out.fail(why.clone());
            }
        }
    }
    let attempts = |t: &Trial| t.deeps.iter().map(|d| f64::from(d.attempts)).sum::<f64>();
    let total_attempts: f64 = trials.iter().map(|(_, t)| attempts(t)).sum();
    meter.finish(&mut out, total_attempts);
    let lane_f = cfg.lanes as f64;
    out.set_setup(setup_times);
    // Failed attempts per second over L serial lanes — by lane time, not
    // wall: uneven reproductions leave one lane idle at the tail, and that
    // idle time is not explorer speed. The latency sample is one
    // reproduction spending its whole cap.
    out.set_trials(plain_trials(&trials, |t| {
        (
            lane_f * attempts(t) / t.busy_s,
            t.deeps.iter().map(|d| d.wall_ms).collect(),
        )
    }));

    let report = &trials.last().expect("at least one trial").1;
    out.layer(
        "core.explore.attempt_us",
        plain_median(&trials, |t| t.busy_s * 1e6 / attempts(t)),
    );
    out.layer(
        "core.explore.attempts_to_reproduce",
        attempts_to_reproduce as f64,
    );
    out.layer("tvm.pool.spawned_workers", report.spawned_workers as f64);
    out.layer(
        "bench.trace_overhead_pct",
        trace_overhead_pct(&trials, |t| t.wall_s),
    );
    out.spans = trace::merge(trials.into_iter().map(|(_, t)| t.spans).collect());
    super::stage_breakdown(&mut out, "explore.reproduce");
    out
}
