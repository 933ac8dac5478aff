//! The executor pool behind `vm::run` belongs to the calling OS thread and
//! dies with it: once a thread that ran a VM has been joined, none of the
//! `vt-pool-*` workers it created is left in the process.
//!
//! This binary holds exactly one test because it counts every thread in
//! the process (`/proc/self/task`); another test running alongside would
//! start pools of its own.

#[cfg(target_os = "linux")]
#[test]
fn a_threads_pool_exits_with_the_thread() {
    use pres_tvm::prelude::*;
    use pres_tvm::state::ResourceSpec;
    use std::time::{Duration, Instant};

    fn pool_workers() -> usize {
        std::fs::read_dir("/proc/self/task")
            .expect("procfs lists this process's threads")
            .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
            .filter(|comm| comm.starts_with("vt-pool"))
            .count()
    }

    for round in 0..8u64 {
        std::thread::spawn(move || {
            let mut spec = ResourceSpec::new();
            let counter = spec.var("counter", 0);
            let out = pres_tvm::vm::run(
                VmConfig::default(),
                spec,
                &mut RandomScheduler::new(round),
                &mut NullObserver,
                move |ctx| {
                    let kids: Vec<ThreadId> = (0..3)
                        .map(|i| {
                            ctx.spawn(&format!("w{i}"), move |ctx| {
                                ctx.fetch_add(counter, 1);
                            })
                        })
                        .collect();
                    for k in kids {
                        ctx.join(k);
                    }
                },
            );
            assert_eq!(out.status, RunStatus::Completed, "round {round}");
            assert!(
                pool_workers() > 0,
                "round {round}: the run left no parked workers"
            );
        })
        .join()
        .expect("the VM thread finished");
    }

    // `join` returns once each thread's pool has joined its workers; the
    // kernel may list an exited thread for a moment longer.
    let deadline = Instant::now() + Duration::from_secs(5);
    while pool_workers() > 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(
        pool_workers(),
        0,
        "a joined thread's pool workers outlived it"
    );
}
