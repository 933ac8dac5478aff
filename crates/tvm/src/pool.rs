//! The VM's one executor: a reusable pool of OS workers for virtual threads.
//!
//! PRES runs the *same program* hundreds of times per bug — recording,
//! seed search, every replay attempt, the certificate replay. Every VM run
//! hosts its virtual threads on a [`VthreadPool`]: a set of parked OS
//! workers is checked out per run, each worker executes one vthread body
//! handed to it through a per-worker handoff slot, and **returns to the
//! pool at vthread exit**. [`crate::vm::run`] uses a pool owned by the
//! calling OS thread (a `thread_local!`, created on the thread's first run
//! and dropped with the thread); [`crate::vm::run_with_pool`] uses a
//! caller's. Steady state — run after run on one thread — performs zero
//! thread spawns ([`crate::vm::RunStats::os_spawns`] stays at 0).
//!
//! ## Checkout / reset / return protocol
//!
//! * **Checkout.** `execute(tid, job)` pops the most recently parked idle
//!   worker (LIFO, cache-warm) and deposits the job in its handoff slot.
//!   Only when no worker is idle does the pool grow by spawning one — so a
//!   pool warms up to the peak concurrent vthread count of the programs it
//!   hosts and then stops growing.
//! * **Reset.** Workers carry *no* per-run state: every piece of vthread
//!   state (slot phase, scheduler clocks, result channels, poisoning) lives
//!   in the VM's per-run `Shared` structure, which the job closure captures
//!   and which dies with the run. A run is a pure function of (program,
//!   world, scheduler decisions) — never of which OS thread hosts a vthread
//!   — so reuse cannot perturb schedules or sketches; `tests/pool_reuse.rs`
//!   pins this byte-for-byte.
//! * **Return.** The worker re-registers itself idle after the job body
//!   finishes, whether it returned or panicked.
//!
//! ## Panic containment
//!
//! The VM converts vthread-body panics to [`crate::error::Failure::Crash`]
//! inside the run; a panic that *escapes* that containment (or the run
//! accounting around it) is caught here at the worker boundary, converted
//! to [`VmError::ThreadPanic`], and parked in the pool for retrieval via
//! [`VthreadPool::take_escaped_panics`] — the worker itself survives and
//! serves the next attempt. Workers are named `vt-pool-N`, so the VM's
//! quiet panic hook keeps expected shutdown unwinds silent on them.

use crate::error::VmError;
use crate::ids::ThreadId;
use crate::sync::{Condvar, Mutex};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::thread::JoinHandle;

/// A unit of work: one virtual thread's entire lifetime.
struct Job {
    /// The vthread id, for panic attribution.
    tid: ThreadId,
    /// The body; captures the run's `Shared` state.
    run: Box<dyn FnOnce() + Send>,
    /// Completion hook, called unconditionally (body return *or* panic)
    /// **after** the worker has re-parked. Ordering matters: the submitter
    /// learns of completion only once the worker is already checkable-out
    /// again, so a warm steady state never races a re-park into a spurious
    /// spawn.
    done: Box<dyn FnOnce() + Send>,
}

/// What a parked worker finds in its handoff slot when woken.
enum Handoff {
    /// Execute this vthread, then return to the pool.
    Run(Job),
    /// The pool is shutting down; exit the worker thread.
    Exit,
}

/// The per-worker handoff slot: a one-deep mailbox the worker parks on.
struct WorkerSlot {
    mailbox: Mutex<Option<Handoff>>,
    wake: Condvar,
}

impl WorkerSlot {
    fn deliver(&self, handoff: Handoff) {
        {
            let mut mailbox = self.mailbox.lock();
            debug_assert!(mailbox.is_none(), "worker slot already occupied");
            *mailbox = Some(handoff);
        }
        // Signal after releasing the lock so the woken worker does not
        // immediately block on the mailbox mutex we still hold.
        self.wake.notify_one();
    }

    fn receive(&self) -> Handoff {
        let mut mailbox = self.mailbox.lock();
        loop {
            if let Some(handoff) = mailbox.take() {
                return handoff;
            }
            self.wake.wait(&mut mailbox);
        }
    }
}

struct PoolState {
    /// Parked workers, most recently parked last (LIFO checkout).
    idle: Vec<Arc<WorkerSlot>>,
    /// Join handles of every worker ever spawned, for the drop-time join.
    handles: Vec<JoinHandle<()>>,
    /// Total OS workers created over the pool's lifetime.
    spawned: u64,
    /// Panics that escaped a vthread body past the VM's containment.
    escaped: Vec<VmError>,
    /// Set by `Drop`: workers finishing a job exit instead of re-parking.
    shutdown: bool,
}

/// A reusable set of parked OS workers hosting virtual threads.
///
/// Every OS thread that calls [`crate::vm::run`] owns one; a caller that
/// wants a pool of its own passes it to [`crate::vm::run_with_pool`] run
/// after run. Dropping a pool parks-out and joins every worker. The pool
/// is lazy: `new` spawns nothing, workers are created on first demand and
/// retained for reuse.
pub struct VthreadPool {
    inner: Arc<Mutex<PoolState>>,
}

/// The cloneable submission handle the VM stores for the duration of a
/// pooled run. Crate-internal: external code holds [`VthreadPool`] and the
/// borrow in `run_with_pool(&pool, ..)` guarantees the pool outlives every
/// run submitted through it.
#[derive(Clone)]
pub(crate) struct PoolHandle {
    inner: Arc<Mutex<PoolState>>,
}

impl VthreadPool {
    /// A new, empty pool. `width` is ignored: the pool grows on demand to
    /// the peak concurrent vthread count of the programs it hosts and
    /// retains every worker for reuse.
    pub fn new(_width: usize) -> Self {
        VthreadPool {
            inner: Arc::new(Mutex::new(PoolState {
                idle: Vec::new(),
                handles: Vec::new(),
                spawned: 0,
                escaped: Vec::new(),
                shutdown: false,
            })),
        }
    }

    /// Total OS workers created over the pool's lifetime. Constant once the
    /// pool has warmed up to the peak concurrent vthread count.
    pub fn spawned_workers(&self) -> u64 {
        self.inner.lock().spawned
    }

    /// Workers currently parked awaiting a handoff.
    pub fn idle_workers(&self) -> usize {
        self.inner.lock().idle.len()
    }

    /// Drains the panics that escaped vthread bodies past the VM's own
    /// containment and were caught at the worker boundary. Empty in every
    /// healthy run — the VM converts body panics to `Failure::Crash` before
    /// they reach the worker.
    pub fn take_escaped_panics(&self) -> Vec<VmError> {
        std::mem::take(&mut self.inner.lock().escaped)
    }

    pub(crate) fn handle(&self) -> PoolHandle {
        PoolHandle {
            inner: self.inner.clone(),
        }
    }
}

impl PoolHandle {
    /// Hands `run` to an idle worker, spawning a new one only when none is
    /// parked. `done` fires after the body finished (or panicked) *and* the
    /// worker re-parked. Returns `true` iff an OS thread was created.
    pub(crate) fn execute(
        &self,
        tid: ThreadId,
        run: Box<dyn FnOnce() + Send>,
        done: Box<dyn FnOnce() + Send>,
    ) -> bool {
        let job = Job { tid, run, done };
        let idle = self.inner.lock().idle.pop();
        match idle {
            Some(slot) => {
                slot.deliver(Handoff::Run(job));
                false
            }
            None => {
                spawn_worker(&self.inner, job);
                true
            }
        }
    }
}

fn spawn_worker(inner: &Arc<Mutex<PoolState>>, job: Job) {
    let slot = Arc::new(WorkerSlot {
        mailbox: Mutex::new(Some(Handoff::Run(job))),
        wake: Condvar::new(),
    });
    let mut state = inner.lock();
    state.spawned += 1;
    let worker_inner = inner.clone();
    let worker_slot = slot.clone();
    let handle = std::thread::Builder::new()
        .name(format!("vt-pool-{}", state.spawned))
        .spawn(move || worker_main(&worker_inner, &worker_slot))
        .expect("failed to spawn pool worker");
    state.handles.push(handle);
}

fn worker_main(inner: &Arc<Mutex<PoolState>>, slot: &Arc<WorkerSlot>) {
    loop {
        match slot.receive() {
            Handoff::Exit => return,
            Handoff::Run(job) => {
                let Job { tid, run, done } = job;
                let result = catch_unwind(AssertUnwindSafe(run));
                let exiting = {
                    let mut state = inner.lock();
                    if let Err(payload) = result {
                        state.escaped.push(VmError::ThreadPanic {
                            tid,
                            msg: panic_message(payload.as_ref()),
                        });
                    }
                    if state.shutdown {
                        true
                    } else {
                        // Return to the pool for the next checkout. The
                        // worker keeps no other state: everything per-run
                        // lived in the job.
                        state.idle.push(slot.clone());
                        false
                    }
                };
                // Signal completion only now, with the worker already
                // re-parked: whoever learns the vthread is gone can check
                // this worker out immediately.
                done();
                if exiting {
                    return;
                }
            }
        }
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic of unknown type".to_string()
    }
}

impl Drop for VthreadPool {
    /// Parks-out the pool: every idle worker receives `Exit` and is joined.
    /// `run_with_pool` borrows the pool for the run's duration and its
    /// completion hook fires only after the worker re-parked, so by drop
    /// time every worker of a completed run is idle; the `shutdown` flag
    /// covers any worker still finishing a job (it exits instead of
    /// re-parking, and its join below completes).
    fn drop(&mut self) {
        let (idle, handles) = {
            let mut state = self.inner.lock();
            state.shutdown = true;
            (
                std::mem::take(&mut state.idle),
                std::mem::take(&mut state.handles),
            )
        };
        for slot in idle {
            slot.deliver(Handoff::Exit);
        }
        for handle in handles {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc;

    /// Submits a job and waits for its completion hook — which, by the
    /// pool's ordering guarantee, fires only after the worker re-parked.
    fn run_blocking(pool: &VthreadPool, tid: ThreadId, f: impl FnOnce() + Send + 'static) -> bool {
        let (tx, rx) = mpsc::channel();
        let spawned = pool
            .handle()
            .execute(tid, Box::new(f), Box::new(move || tx.send(()).unwrap()));
        rx.recv().unwrap();
        spawned
    }

    #[test]
    fn workers_are_reused_across_jobs() {
        let pool = VthreadPool::new(1);
        let hits = Arc::new(AtomicUsize::new(0));
        for i in 0..20 {
            let hits = hits.clone();
            let spawned = run_blocking(&pool, ThreadId(0), move || {
                hits.fetch_add(1, Ordering::SeqCst);
            });
            assert_eq!(spawned, i == 0, "only the first job may spawn");
            assert_eq!(pool.idle_workers(), 1, "worker parked before done fired");
        }
        assert_eq!(hits.load(Ordering::SeqCst), 20);
        assert_eq!(pool.spawned_workers(), 1);
    }

    #[test]
    fn pool_grows_to_peak_concurrency_then_stops() {
        let pool = VthreadPool::new(2);
        for round in 0..3 {
            // Two jobs that must be concurrent: each waits for the other.
            let (tx_a, rx_a) = mpsc::channel::<()>();
            let (tx_b, rx_b) = mpsc::channel::<()>();
            let (done_tx, done_rx) = mpsc::channel::<()>();
            let done_tx2 = done_tx.clone();
            pool.handle().execute(
                ThreadId(0),
                Box::new(move || {
                    tx_a.send(()).unwrap();
                    rx_b.recv().unwrap();
                }),
                Box::new(move || done_tx.send(()).unwrap()),
            );
            pool.handle().execute(
                ThreadId(1),
                Box::new(move || {
                    rx_a.recv().unwrap();
                    tx_b.send(()).unwrap();
                }),
                Box::new(move || done_tx2.send(()).unwrap()),
            );
            done_rx.recv().unwrap();
            done_rx.recv().unwrap();
            assert_eq!(pool.spawned_workers(), 2, "round {round} grew the pool");
            assert_eq!(pool.idle_workers(), 2, "round {round} left workers out");
        }
    }

    #[test]
    fn escaped_panics_are_contained_and_the_worker_survives() {
        // Workers are `vt-`-named, so the VM's quiet hook keeps the
        // deliberate panics below off stderr.
        crate::vm::install_quiet_hook();
        let pool = VthreadPool::new(1);
        for _ in 0..3 {
            let (tx, rx) = mpsc::channel::<()>();
            pool.handle().execute(
                ThreadId(7),
                Box::new(move || panic!("boom outside the vm")),
                Box::new(move || tx.send(()).unwrap()),
            );
            // The done hook fires despite the panic, after re-park.
            rx.recv().unwrap();
        }
        // The panicking worker kept serving; the panics were recorded.
        assert_eq!(pool.spawned_workers(), 1);
        assert_eq!(pool.idle_workers(), 1);
        let escaped = pool.take_escaped_panics();
        assert_eq!(escaped.len(), 3);
        for err in &escaped {
            assert_eq!(
                err,
                &VmError::ThreadPanic {
                    tid: ThreadId(7),
                    msg: "boom outside the vm".to_string(),
                }
            );
        }
        assert!(pool.take_escaped_panics().is_empty(), "drained");
    }

    #[test]
    fn a_busy_worker_makes_the_pool_grow() {
        let pool = VthreadPool::new(1);
        let (block_tx, block_rx) = mpsc::channel::<()>();
        let (done_tx, done_rx) = mpsc::channel::<()>();
        let done_tx2 = done_tx.clone();
        pool.handle().execute(
            ThreadId(0),
            Box::new(move || block_rx.recv().unwrap()),
            Box::new(move || done_tx.send(()).unwrap()),
        );
        // Second concurrent job: the pool must grow, not deadlock.
        pool.handle().execute(
            ThreadId(1),
            Box::new(|| {}),
            Box::new(move || done_tx2.send(()).unwrap()),
        );
        done_rx.recv().unwrap();
        block_tx.send(()).unwrap();
        done_rx.recv().unwrap();
        assert_eq!(pool.spawned_workers(), 2);
    }
}
