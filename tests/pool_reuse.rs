//! Executor-pool reuse: hosting replay attempts on recycled OS workers is
//! invisible to every observable artifact. A caller's pool serves 50
//! PI-replay attempts of one corpus bug and each attempt's schedule,
//! status, output, and re-derived sketch are byte-identical to the same
//! attempt on the calling thread's own pool; re-running the same seeds on
//! either warmed pool creates zero OS threads.

use std::sync::Arc;

use pres_core::api::Pres;
use pres_core::codec::encode_sketch;
use pres_core::recorder::record;
use pres_core::replay::PiReplayScheduler;
use pres_core::sketch::{Mechanism, Sketch, SketchIndex};
use pres_suite::apps::all_bugs;
use pres_suite::tvm::pool::VthreadPool;
use pres_suite::tvm::trace::{NullObserver, TraceMode};
use pres_suite::tvm::vm::{self, RunOutcome, VmConfig};

const ATTEMPTS: u64 = 50;

/// One PI-replay attempt, on the given pool or on the calling thread's own.
fn attempt(
    prog: &dyn pres_core::program::Program,
    index: &Arc<SketchIndex>,
    seed: u64,
    pool: Option<&VthreadPool>,
) -> RunOutcome {
    let config = VmConfig {
        trace_mode: TraceMode::Full,
        world: prog.world(),
        ..VmConfig::default()
    };
    let mut sched = PiReplayScheduler::with_index(Arc::clone(index), Vec::new(), seed);
    let body = prog.root();
    match pool {
        Some(pool) => vm::run_with_pool(
            config,
            prog.resources(),
            &mut sched,
            &mut NullObserver,
            pool,
            move |ctx| body(ctx),
        ),
        None => vm::run(
            config,
            prog.resources(),
            &mut sched,
            &mut NullObserver,
            move |ctx| body(ctx),
        ),
    }
}

#[test]
fn fifty_attempts_on_a_width_one_pool_match_fresh_vms_byte_for_byte() {
    let bugs = all_bugs();
    let bug = &bugs[0];
    let prog = bug.program();
    let recorded = record(prog.as_ref(), Mechanism::Sync, &VmConfig::default(), 7);
    let index = Arc::new(SketchIndex::new(&recorded.sketch));

    // The width argument is ignored: the pool must still grow to the
    // program's peak concurrency and then serve every attempt from the
    // recycled workers.
    let pool = VthreadPool::new(1);
    let mut total_pool_spawns = 0;
    for seed in 0..ATTEMPTS {
        let pooled = attempt(prog.as_ref(), &index, seed, Some(&pool));
        let fresh = attempt(prog.as_ref(), &index, seed, None);

        assert_eq!(pooled.schedule, fresh.schedule, "seed {seed}: schedules");
        assert_eq!(
            pooled.status.to_string(),
            fresh.status.to_string(),
            "seed {seed}: status"
        );
        assert_eq!(pooled.stdout, fresh.stdout, "seed {seed}: stdout");
        assert_eq!(
            pooled.thread_names, fresh.thread_names,
            "seed {seed}: thread names"
        );

        // The sketch a recorder would distill from the attempt is the
        // artifact the whole system trades in: byte-identical too.
        let sketch_of = |out: &RunOutcome| {
            encode_sketch(&Sketch::from_events(Mechanism::Sync, out.trace.events()))
        };
        assert_eq!(
            sketch_of(&pooled),
            sketch_of(&fresh),
            "seed {seed}: re-derived sketches diverge"
        );

        // Virtual spawn counts agree; the caller's pool only grows.
        assert_eq!(pooled.stats.spawns, fresh.stats.spawns, "seed {seed}");
        total_pool_spawns += pooled.stats.os_spawns;
    }
    assert_eq!(
        total_pool_spawns,
        pool.spawned_workers(),
        "pool spawn accounting disagrees with per-run stats"
    );

    // Steady state: the same 50 seeds replayed on the warmed pool create
    // zero OS threads and leave the worker set untouched.
    let warmed = pool.spawned_workers();
    for seed in 0..ATTEMPTS {
        let out = attempt(prog.as_ref(), &index, seed, Some(&pool));
        assert_eq!(
            out.stats.os_spawns, 0,
            "seed {seed}: warm attempt spawned an OS thread"
        );
    }
    assert_eq!(
        pool.spawned_workers(),
        warmed,
        "worker set grew after warm-up"
    );
    assert!(
        pool.take_escaped_panics().is_empty(),
        "no vthread body panicked"
    );
}

#[test]
fn warm_runs_on_the_calling_thread_spawn_nothing() {
    let bugs = all_bugs();
    let bug = &bugs[0];
    let prog = bug.program();
    let recorded = record(prog.as_ref(), Mechanism::Sync, &VmConfig::default(), 7);
    let index = Arc::new(SketchIndex::new(&recorded.sketch));
    let pres = Pres::new(Mechanism::Sync);
    let failing = pres
        .record_until_failure(prog.as_ref(), 0..5000)
        .expect("the bug manifests in production");
    let certificate = pres
        .reproduce(prog.as_ref(), &failing)
        .certificate
        .expect("the bug reproduces");

    // A fresh OS thread starts with a cold pool of its own.
    std::thread::scope(|scope| {
        scope.spawn(|| {
            let prog = bug.program();
            for pass in 0..2 {
                for seed in 0..ATTEMPTS {
                    let out = attempt(prog.as_ref(), &index, seed, None);
                    if pass == 1 {
                        assert_eq!(out.stats.os_spawns, 0, "seed {seed}: warm run spawned");
                    }
                }
            }
            for replay in 1..=10 {
                let out = certificate
                    .replay(prog.as_ref())
                    .expect("the certificate replays");
                if replay > 1 {
                    assert_eq!(out.stats.os_spawns, 0, "replay {replay} spawned");
                }
            }
        });
    });
}
