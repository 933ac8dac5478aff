//! `record-soak` — the production side.
//!
//! Lanes run the eleven bug-free applications under the always-on ring
//! recorder, each recorded run interleaved with the same (app, seed) run
//! natively; every tenth recorded run is flushed to disk. The only
//! workload where `tvm::vm`, `core::recorder` and `tvm::snapshot` do
//! nearly all the work and the explorer and the daemon do none: it carries
//! the paper's headline — what recording costs — in wall-clock terms.

use super::{
    lane_spans, plain_median, plain_trials, run_trials, timed_setup, trace_overhead_pct, Meter,
    Mode, Outcome, RunConfig,
};
use crate::inputs::{meta_for, mix, vm_run};
use crate::lanes;
use crate::trace::{self, LaneTrace};
use pres_apps::registry::{all_apps, WorkloadScale};
use pres_core::codec::{decode_sketch, encode_sketch};
use pres_core::program::Program;
use pres_core::recorder::{RecordingObserver, RingConfig, RingRecorder};
use pres_core::sketch::Mechanism;
use pres_svc::flush::write_flush;
use pres_tvm::pool::VthreadPool;
use pres_tvm::trace::NullObserver;
use pres_tvm::vm::VmConfig;
use std::path::PathBuf;
use std::time::Instant;

/// Recorded runs per application per trial (each paired with a native run).
const REPS: usize = 100;
/// Native runs of every application per lane during set-up.
const WARM_REPS: usize = 24;
/// Every `FLUSH_EVERY`-th recorded run is flushed.
const FLUSH_EVERY: usize = 10;
const MECHANISMS: [Mechanism; 4] = [
    Mechanism::Sync,
    Mechanism::Sys,
    Mechanism::Func,
    Mechanism::Bb,
];

fn soak_ring() -> RingConfig {
    RingConfig {
        epoch_entries: 64,
        epoch_cost: 0,
        ring_epochs: 2,
    }
}

struct Inputs {
    programs: Vec<Box<dyn Program>>,
    config: VmConfig,
    /// One warm executor pool per lane.
    pools: Vec<VthreadPool>,
}

struct Lane<'a> {
    pool: &'a VthreadPool,
    trace: LaneTrace,
    flush_dir: PathBuf,
}

#[derive(Default)]
struct Flush {
    bytes: u64,
    snapshot_bytes: u64,
    finish_ns: u64,
    encode_ns: u64,
    write_ns: u64,
}

struct Pair {
    native_ns: u64,
    recorded_ns: u64,
    ops: u64,
    picks: u64,
    os_spawns: u64,
    model_overhead_pct: f64,
    flush: Option<Flush>,
    error: Option<String>,
}

struct Trial {
    wall_s: f64,
    pairs: Vec<Pair>,
    spans: Vec<trace::Span>,
}

fn ns(since: Instant) -> u64 {
    since.elapsed().as_nanos() as u64
}

fn run_pair(inputs: &Inputs, seed: u64, lane: &mut Lane<'_>, n: usize) -> Pair {
    let program = inputs.programs[n % inputs.programs.len()].as_ref();
    let rep = n / inputs.programs.len();
    let mechanism = MECHANISMS[rep % MECHANISMS.len()];
    let run_seed = mix(seed, n as u64);
    let op = n as u64;
    let pair = lane.trace.begin("soak.pair", "bench", op, LaneTrace::ROOT);

    let mut recorder = RingRecorder::new(mechanism, inputs.config.cost_model.clone(), soak_ring());
    // Alternate which arm goes first so neither always runs on the cache
    // the other just warmed.
    let mut native = None;
    let mut recorded = None;
    for arm in [n % 2, 1 - n % 2] {
        if arm == 0 {
            let open = lane.trace.begin("vm.native", "tvm.vm", op, pair);
            let started = Instant::now();
            let out = vm_run(
                program,
                &inputs.config,
                run_seed,
                &mut NullObserver,
                lane.pool,
            );
            native = Some((out, ns(started)));
            lane.trace.end(open);
        } else {
            let open = lane.trace.begin("vm.recorded", "core.recorder", op, pair);
            let started = Instant::now();
            let out = vm_run(program, &inputs.config, run_seed, &mut recorder, lane.pool);
            recorded = Some((out, ns(started)));
            lane.trace.end(open);
        }
    }
    let (native, native_ns) = native.expect("native arm ran");
    let (recorded, recorded_ns) = recorded.expect("recorded arm ran");

    let mut error = None;
    if recorded.status != native.status {
        error = Some(format!(
            "{}: recorded run ended '{}', native '{}'",
            program.name(),
            recorded.status,
            native.status
        ));
    } else if recorded.stats.total_ops != native.stats.total_ops {
        error = Some(format!(
            "{}: recorded run executed {} ops, native {}",
            program.name(),
            recorded.stats.total_ops,
            native.stats.total_ops
        ));
    }

    let flush = n.is_multiple_of(FLUSH_EVERY).then(|| {
        let mut flush = Flush::default();
        let meta = meta_for(program, &inputs.config, run_seed, &recorded);
        let started = Instant::now();
        let sketch = lane
            .trace
            .span("recorder.finish", "core.recorder", op, pair, || {
                recorder.finish(meta)
            });
        flush.finish_ns = ns(started);
        let started = Instant::now();
        let bytes = lane.trace.span("codec.encode", "core.codec", op, pair, || {
            encode_sketch(&sketch)
        });
        flush.encode_ns = ns(started);
        let target = lane.flush_dir.join(format!("flush-{n}.sketch"));
        let started = Instant::now();
        let written = lane.trace.span("flush.write", "svc.flush", op, pair, || {
            write_flush(&target, &bytes)
        });
        flush.write_ns = ns(started);
        if let Err(e) = written {
            error.get_or_insert(format!("{}: flush failed: {e}", program.name()));
        }
        let decoded = lane.trace.span("codec.decode", "core.codec", op, pair, || {
            decode_sketch(&bytes)
        });
        if !matches!(&decoded, Ok(d) if *d == sketch) {
            error.get_or_insert(format!(
                "{}: flushed sketch does not round-trip",
                program.name()
            ));
        }
        flush.bytes = bytes.len() as u64;
        flush.snapshot_bytes = sketch
            .checkpoint
            .as_ref()
            .map_or(0, |cp| cp.snapshot.len() as u64);
        flush
    });
    lane.trace.end(pair);

    Pair {
        native_ns,
        recorded_ns,
        ops: recorded.stats.total_ops,
        picks: recorded.schedule.len() as u64,
        os_spawns: native.stats.os_spawns + recorded.stats.os_spawns,
        model_overhead_pct: recorded.time.overhead_pct_vs(&native.time),
        flush,
        error,
    }
}

/// Recording-side time of a pair: the recorded run plus, when it flushed,
/// finishing, encoding and durably writing the sketch.
fn recording_ns(p: &Pair) -> u64 {
    p.recorded_ns
        + p.flush
            .as_ref()
            .map_or(0, |f| f.finish_ns + f.encode_ns + f.write_ns)
}

pub fn run(cfg: &RunConfig) -> Outcome {
    let lanes = cfg.lanes;
    // Set-up: instantiate the applications and warm one executor pool per
    // lane with `WARM_REPS` native runs of every application, which grows
    // each pool to every application's peak thread count.
    let (inputs, setup_times) = timed_setup(cfg, || {
        let programs: Vec<Box<dyn Program>> = all_apps()
            .iter()
            .map(|app| app.workload(WorkloadScale::Standard))
            .collect();
        let config = VmConfig {
            processors: 8,
            ..VmConfig::default()
        };
        let pools = lanes::run(
            lanes,
            programs.len() * lanes * WARM_REPS,
            |_| VthreadPool::new(8),
            |pool, n| {
                let program = programs[n % programs.len()].as_ref();
                vm_run(
                    program,
                    &config,
                    mix(cfg.seed, n as u64),
                    &mut NullObserver,
                    pool,
                );
            },
        )
        .states;
        Inputs {
            programs,
            config,
            pools,
        }
    });

    let tasks = cfg.count(REPS) * inputs.programs.len();
    let meter = Meter::start();
    let trials = run_trials(cfg, |t, mode| {
        let epoch = (mode == Mode::Traced).then(Instant::now);
        let dir = cfg.fresh_dir(&format!("soak-{t}"));
        let run = lanes::run(
            lanes,
            tasks,
            |lane| Lane {
                pool: &inputs.pools[lane],
                trace: LaneTrace::new(epoch),
                flush_dir: dir.clone(),
            },
            |lane, n| run_pair(&inputs, cfg.seed, lane, n),
        );
        Trial {
            wall_s: run.wall.as_secs_f64(),
            pairs: run.results,
            spans: lane_spans(run.states.into_iter().map(|l| l.trace)),
        }
    });

    let mut out = Outcome {
        trials: trials.len(),
        ..Outcome::default()
    };
    for (_, trial) in &trials {
        for pair in &trial.pairs {
            out.attempted += 1;
            if let Some(why) = &pair.error {
                out.fail(why.clone());
            }
        }
    }
    let lane_f = lanes as f64;
    let sum = |t: &Trial, f: &dyn Fn(&Pair) -> u64| t.pairs.iter().map(f).sum::<u64>() as f64;
    let total_pairs: usize = trials.iter().map(|(_, t)| t.pairs.len()).sum();
    meter.finish(&mut out, 2.0 * total_pairs as f64);
    out.set_setup(setup_times);
    // VM operations per host second under recording, all lanes busy. The
    // latency sample is one recorded run's wall time per 1000 VM operations
    // it executed: raw run times are eleven clusters, one per application,
    // and a percentile that lands between two clusters flips with noise.
    out.set_trials(plain_trials(&trials, |t| {
        (
            lane_f * sum(t, &|p| p.ops) / (sum(t, &recording_ns) / 1e9),
            t.pairs
                .iter()
                .map(|p| p.recorded_ns as f64 / 1e3 / p.ops as f64)
                .collect(),
        )
    }));

    // Per-layer, from the last trial: counts are identical in every trial
    // by construction.
    let report = &trials.last().expect("at least one trial").1;
    let flushes: Vec<&Flush> = report
        .pairs
        .iter()
        .filter_map(|p| p.flush.as_ref())
        .collect();
    let flushed_ops: u64 = report
        .pairs
        .iter()
        .filter(|p| p.flush.is_some())
        .map(|p| p.ops)
        .sum();
    let flush_mean = |f: &dyn Fn(&Flush) -> u64| {
        flushes.iter().map(|x| f(x)).sum::<u64>() as f64 / flushes.len().max(1) as f64
    };
    let native_s = sum(report, &|p| p.native_ns) / 1e9;
    out.layer(
        "core.recorder.wall_ratio",
        plain_median(&trials, |t| {
            sum(t, &|p| p.recorded_ns) / sum(t, &|p| p.native_ns)
        }),
    );
    out.layer(
        "core.codec.sketch_bytes_per_kop",
        flushes.iter().map(|f| f.bytes).sum::<u64>() as f64 * 1000.0 / flushed_ops.max(1) as f64,
    );
    out.layer(
        "tvm.vm.native_ops_per_s",
        lane_f * sum(report, &|p| p.ops) / native_s,
    );
    out.layer("tvm.vm.pick_us", native_s * 1e6 / sum(report, &|p| p.picks));
    out.layer("tvm.vm.picks", sum(report, &|p| p.picks));
    out.layer("tvm.vm.total_ops", sum(report, &|p| p.ops));
    out.layer(
        "tvm.pool.os_spawns_per_run",
        sum(report, &|p| p.os_spawns) / (2.0 * report.pairs.len() as f64),
    );
    out.layer(
        "tvm.snapshot.bytes_per_checkpoint",
        flush_mean(&|f| f.snapshot_bytes),
    );
    out.layer(
        "core.recorder.finish_us",
        flush_mean(&|f| f.finish_ns) / 1e3,
    );
    out.layer(
        "core.recorder.overhead_pct_model",
        report
            .pairs
            .iter()
            .map(|p| p.model_overhead_pct)
            .sum::<f64>()
            / report.pairs.len() as f64,
    );
    out.layer(
        "bench.trace_overhead_pct",
        trace_overhead_pct(&trials, |t| t.wall_s),
    );
    out.spans = trace::merge(trials.into_iter().map(|(_, t)| t.spans).collect());
    out
}
