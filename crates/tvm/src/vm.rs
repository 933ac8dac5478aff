//! The virtual machine coordinator and the thread-side [`Ctx`] API.
//!
//! Each virtual thread runs on a worker of a warm [`VthreadPool`] and
//! *announces* its operations into a per-thread FIFO; the coordinator step
//! applies one queue head at a time according to the scheduler. VM-visible
//! effects are therefore applied one at a time in scheduler order, while
//! thread-local code between ops may overlap in wall time: a thread that
//! announces an op which can neither return a value nor fault
//! ([`Op::runs_ahead`]) keeps running to its next op instead of parking,
//! and parks only on an op whose result it needs. Bodies must not share
//! non-VM state between vthreads.
//!
//! The coordinator is not a thread but a function (`coordinate`) run by
//! whichever virtual thread made the last missing head known. It picks only
//! when *every* live thread's head op is known, so the candidates the
//! scheduler sees — and with them schedules, sketches, snapshots and
//! certificates — do not depend on how far any thread has run ahead. A pick
//! of a thread that has run ahead costs no wakeup and no context switch; a
//! pick that delivers a value (or a fault) to a parked thread costs one.
//! Execution is a deterministic function of (program, world, scheduler
//! decisions) — the property every recorder, replayer, and certificate in
//! this workspace is built on.

use crate::clock::{TimeReport, VClock};
use crate::cost::CostModel;
use crate::deadlock::{self, BlockedThread};
use crate::error::{Failure, RunStatus, VmError};
use crate::ids::{
    BarrierId, BbId, BufId, ChanId, CondId, ConnId, FdId, FuncId, LockId, RwLockId, SemId,
    ThreadId, VarId, ROOT_THREAD,
};
use crate::op::{BufOp, Op, OpResult, SyscallOp};
use crate::pool::{PoolHandle, VthreadPool};
use crate::sched::{Candidate, Decision, SchedView, Scheduler};
use crate::state::{Applied, ResourceSpec, VmState};
use crate::sys::{AcceptStatus, WorldConfig};
use crate::trace::{Event, Observer, Trace, TraceMode};
use crate::sync::{Condvar, Mutex, MutexGuard};
use std::collections::{BTreeMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// Configuration of one VM run.
#[derive(Debug, Clone)]
pub struct VmConfig {
    /// Simulated processor count (`P` in the paper's scalability study).
    pub processors: u32,
    /// Step budget: livelock/runaway guard.
    pub max_steps: u64,
    /// Whether the VM retains the full event trace.
    pub trace_mode: TraceMode,
    /// The virtual-time cost model.
    pub cost_model: CostModel,
    /// The simulated world.
    pub world: WorldConfig,
}

impl Default for VmConfig {
    fn default() -> Self {
        VmConfig {
            processors: 4,
            max_steps: 3_000_000,
            trace_mode: TraceMode::Off,
            cost_model: CostModel::default(),
            world: WorldConfig::default(),
        }
    }
}

impl VmConfig {
    /// Validates the configuration.
    pub fn validate(&self) -> Result<(), VmError> {
        if self.processors == 0 {
            return Err(VmError::InvalidConfig("processors must be >= 1".into()));
        }
        if self.max_steps == 0 {
            return Err(VmError::InvalidConfig("max_steps must be >= 1".into()));
        }
        Ok(())
    }
}

/// Per-class operation counts of a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Total applied operations.
    pub total_ops: u64,
    /// Shared-memory accesses.
    pub mem_accesses: u64,
    /// Synchronization operations.
    pub sync_ops: u64,
    /// System calls.
    pub syscalls: u64,
    /// Function-entry markers.
    pub func_markers: u64,
    /// Basic-block markers.
    pub bb_markers: u64,
    /// Threads spawned (excluding the root). These are *virtual* spawns:
    /// every `Ctx::spawn` counts here, whether or not an OS thread was
    /// created for it.
    pub spawns: u64,
    /// OS threads the executor pool created to host this run's virtual
    /// threads (root included). Only a cold pool spawns — it grows to the
    /// program's peak concurrent vthread count — so a warm run reports
    /// **zero**: the steady-state invariant of every repeated run.
    pub os_spawns: u64,
}

impl RunStats {
    fn count(&mut self, op: &Op) {
        self.total_ops += 1;
        if op.is_mem_access() {
            self.mem_accesses += 1;
        } else if op.is_syscall() {
            self.syscalls += 1;
        } else if matches!(op, Op::Spawn) {
            self.spawns += 1;
            self.sync_ops += 1;
        } else if op.is_sync() {
            self.sync_ops += 1;
        } else if matches!(op, Op::Func(_)) {
            self.func_markers += 1;
        } else if matches!(op, Op::BasicBlock(_)) {
            self.bb_markers += 1;
        }
    }
}

/// Everything a completed run reports.
#[derive(Debug)]
pub struct RunOutcome {
    /// How the run ended.
    pub status: RunStatus,
    /// Full event trace (empty under [`TraceMode::Off`]).
    pub trace: Trace,
    /// Virtual-time report.
    pub time: TimeReport,
    /// Operation counts.
    pub stats: RunStats,
    /// The exact pick sequence the scheduler produced; replaying it through
    /// a [`crate::sched::ScriptedScheduler`] reproduces this run exactly.
    pub schedule: Vec<ThreadId>,
    /// Names of every virtual thread, indexed by [`ThreadId`].
    pub thread_names: Vec<String>,
    /// Program standard output.
    pub stdout: Vec<u8>,
    /// Per-connection response bytes.
    pub conn_outputs: Vec<Vec<u8>>,
    /// Final filesystem snapshot.
    pub files: BTreeMap<String, Vec<u8>>,
}

// ---------------------------------------------------------------------------
// Thread-side machinery.
// ---------------------------------------------------------------------------

/// Panic payload used to unwind parked threads at shutdown. Not a crash.
struct Shutdown;

/// Bound on one thread's announced-but-unapplied ops: a thread that reaches
/// it parks until its queue drains, which caps the memory a
/// `loop { ctx.yield_now() }` body can pin while another thread computes.
const MAX_AHEAD: usize = 64;

enum Phase {
    /// Executing user code (or about to start), possibly ahead of ops it
    /// has queued.
    Running,
    /// Parked until its queue drains; the last queued op carries the result.
    Waiting,
    /// Result delivered; about to resume user code.
    Granted,
    /// Done. `None` = clean exit, `Some(msg)` = crash.
    Exited(Option<String>),
}

struct Slot {
    phase: Phase,
    /// Announced-but-unapplied ops, oldest first. The head is this thread's
    /// scheduling candidate; everything behind it runs ahead.
    queue: VecDeque<Op>,
    /// The body finished (`None` clean, `Some(msg)` crashed) with ops still
    /// queued: the slot turns `Exited` when the queue drains — the pick
    /// boundary at which the exit becomes VM-visible.
    exit_pending: Option<Option<String>>,
    result: Option<OpResult>,
    fault: Option<String>,
    /// Interned: shared with the spawn request instead of re-copied.
    name: Arc<str>,
    tseq: u32,
    spawn_req: Option<SpawnReq>,
    /// This thread's private wakeup: a grant (or shutdown poison) wakes
    /// exactly this thread, never the whole herd.
    cv: Arc<Condvar>,
}

impl Slot {
    /// A freshly launched thread: nothing announced yet.
    fn new(name: Arc<str>) -> Slot {
        Slot {
            phase: Phase::Running,
            queue: VecDeque::new(),
            exit_pending: None,
            result: None,
            fault: None,
            name,
            tseq: 0,
            spawn_req: None,
            cv: Arc::new(Condvar::new()),
        }
    }
}

struct SpawnReq {
    name: Arc<str>,
    body: Box<dyn FnOnce(&mut Ctx) + Send>,
}

struct Hub {
    slots: Vec<Slot>,
    poisoned: bool,
    coord: Coord,
}

/// Coordinator state: the scheduler, the observer, and everything the step
/// loop mutates. It lives *inside* the hub mutex so that the virtual
/// threads themselves can run scheduling steps ([`coordinate`]): whichever
/// thread makes the last missing head known (by announcing or exiting)
/// picks and applies while already holding the lock, and keeps doing so
/// for as long as every head is known. A pick of the announcing thread is
/// observed on the way out of the same critical section, and a pick of a
/// thread that ran ahead needs no wakeup either — only a result or fault
/// delivered to a *parked* thread costs a context switch. A dedicated
/// coordinator thread would instead pay two switches per event (to the
/// coordinator and back), which dominated replay attempt wall-clock.
///
/// `scheduler` and `observer` are lifetime-erased pointers to the borrows
/// passed to [`run_with_pool`]. Safety: they are dereferenced only while
/// holding the hub mutex, and that frame returns only once its
/// outstanding-jobs counter ([`Shared::jobs`]) is back to zero. A job is
/// counted out after its vthread body and every coordination step it ran
/// have finished, so every dereference happens strictly within the
/// lifetime of the erased borrows. Both trait objects are `Send` by
/// supertrait bound.
struct Coord {
    scheduler: *mut dyn Scheduler,
    observer: *mut dyn Observer,
    state: VmState,
    clock: VClock,
    stats: RunStats,
    trace: Trace,
    schedule: Vec<ThreadId>,
    step: u64,
    /// Mirrors `Phase::Exited` per slot so `Join` enabledness is answered
    /// without re-scanning phases.
    known_exited: Vec<bool>,
    /// Candidate buffers, reused across scheduling rounds: cleared and
    /// refilled each quiescence instead of reallocated.
    enabled: Vec<Candidate>,
    blocked: Vec<Candidate>,
    /// Set exactly once, when the run's outcome is decided.
    status: Option<RunStatus>,
    processors: u32,
    max_steps: u64,
    trace_mode: TraceMode,
    cost_model: CostModel,
}

// SAFETY: the raw pointers target `Send` trait objects (`Scheduler: Send`,
// `Observer: Send`), are dereferenced only under the hub mutex (one thread
// at a time), and never escape the `run_with_pool` frame that erased them.
unsafe impl Send for Coord {}

struct Shared {
    hub: Mutex<Hub>,
    /// Wakes the `run` caller once the run's status is decided.
    done: Condvar,
    /// The pool hosting this run's vthreads.
    exec: PoolHandle,
    /// Outstanding vthread jobs: incremented at submission, decremented
    /// once the job's body has finished and its worker is back in the
    /// pool. The run frame waits for zero before returning; that wait is
    /// the whole argument that no vthread code outlives the run, and so
    /// what keeps the erased scheduler/observer borrows in [`Coord`] sound.
    jobs: Mutex<usize>,
    /// Wakes the run frame when `jobs` reaches zero.
    jobs_done: Condvar,
}

/// Starts `body` as vthread `tid` on a parked pool worker (an OS thread is
/// created only when none is idle). Returns whether an OS thread was
/// created.
fn launch(shared: &Arc<Shared>, tid: ThreadId, body: Box<dyn FnOnce(&mut Ctx) + Send>) -> bool {
    *shared.jobs.lock() += 1;
    let sh = shared.clone();
    let done_sh = shared.clone();
    shared.exec.execute(
        tid,
        Box::new(move || thread_main(&sh, tid, body)),
        // The pool fires this unconditionally (return or panic), after the
        // worker re-parked — so once `jobs` hits zero the erased
        // scheduler/observer borrows are dead everywhere AND every worker
        // is already checkable-out again.
        Box::new(move || {
            let mut jobs = done_sh.jobs.lock();
            *jobs -= 1;
            if *jobs == 0 {
                done_sh.jobs_done.notify_all();
            }
        }),
    )
}

/// The handle a virtual thread uses for every interaction with shared
/// state. Obtained only inside [`run`]. Every method announces one op and
/// is a scheduling point; methods that return a value (or whose misuse
/// faults the caller) also block until that op has been applied, the rest
/// return at once and the op takes effect in scheduler order.
pub struct Ctx {
    shared: Arc<Shared>,
    tid: ThreadId,
}

impl Ctx {
    /// This thread's id.
    pub fn tid(&self) -> ThreadId {
        self.tid
    }

    fn op(&mut self, op: Op) -> OpResult {
        let me = self.tid.index();
        let mut hub = self.shared.hub.lock();
        if hub.poisoned {
            drop(hub);
            std::panic::panic_any(Shutdown);
        }
        let slot = &mut hub.slots[me];
        let ahead = op.runs_ahead() && slot.queue.len() + 1 < MAX_AHEAD;
        slot.queue.push_back(op);
        slot.phase = if ahead { Phase::Running } else { Phase::Waiting };
        // The announcing thread carries the baton: if this announce made
        // the last missing head known, run scheduling steps right here.
        coordinate(&mut hub, &self.shared, Some(self.tid));
        if ahead {
            return OpResult::Unit;
        }
        // A grant made by the call above is observed immediately below
        // without parking.
        let cv = hub.slots[me].cv.clone();
        loop {
            if hub.poisoned {
                drop(hub);
                std::panic::panic_any(Shutdown);
            }
            if matches!(hub.slots[me].phase, Phase::Granted) {
                break;
            }
            cv.wait(&mut hub);
        }
        // Granted -> Running needs no notification: nothing waits on that
        // transition; the next scheduling step runs at this thread's next
        // announce (or exit).
        if let Some(msg) = hub.slots[me].fault.take() {
            hub.slots[me].phase = Phase::Running;
            drop(hub);
            panic!("{msg}");
        }
        let res = hub.slots[me]
            .result
            .take()
            .expect("granted without a result");
        hub.slots[me].phase = Phase::Running;
        res
    }

    // ---- shared memory -------------------------------------------------

    /// Reads a shared scalar.
    pub fn read(&mut self, v: VarId) -> u64 {
        self.op(Op::Read(v)).value()
    }

    /// Writes a shared scalar.
    pub fn write(&mut self, v: VarId, val: u64) {
        self.op(Op::Write(v, val));
    }

    /// Atomically adds `delta` and returns the previous value.
    pub fn fetch_add(&mut self, v: VarId, delta: i64) -> u64 {
        self.op(Op::FetchAdd(v, delta)).value()
    }

    /// Compare-and-swap; returns the previous value.
    pub fn compare_swap(&mut self, v: VarId, expect: u64, new: u64) -> u64 {
        self.op(Op::CompareSwap(v, expect, new)).value()
    }

    /// Appends to a shared buffer.
    pub fn buf_append(&mut self, b: BufId, data: &[u8]) {
        self.op(Op::Buf(b, BufOp::Append(data.to_vec())));
    }

    /// Reads a whole shared buffer.
    pub fn buf_read(&mut self, b: BufId) -> Vec<u8> {
        self.op(Op::Buf(b, BufOp::ReadAll)).bytes()
    }

    /// Length of a shared buffer.
    pub fn buf_len(&mut self, b: BufId) -> usize {
        self.op(Op::Buf(b, BufOp::Len)).value() as usize
    }

    /// Clears a shared buffer.
    pub fn buf_clear(&mut self, b: BufId) {
        self.op(Op::Buf(b, BufOp::Clear));
    }

    /// Overwrites one byte of a shared buffer.
    pub fn buf_set(&mut self, b: BufId, index: usize, byte: u8) {
        self.op(Op::Buf(b, BufOp::Set { index, byte }));
    }

    // ---- synchronization -----------------------------------------------

    /// Acquires a mutex, blocking while it is held.
    pub fn lock(&mut self, l: LockId) {
        self.op(Op::LockAcquire(l));
    }

    /// Releases a mutex this thread holds.
    pub fn unlock(&mut self, l: LockId) {
        self.op(Op::LockRelease(l));
    }

    /// Runs `f` with the mutex held (acquire/release around it).
    pub fn with_lock<R>(&mut self, l: LockId, f: impl FnOnce(&mut Ctx) -> R) -> R {
        self.lock(l);
        let r = f(self);
        self.unlock(l);
        r
    }

    /// Acquires a reader-writer lock for reading.
    pub fn rw_read(&mut self, rw: RwLockId) {
        self.op(Op::RwAcquireRead(rw));
    }

    /// Acquires a reader-writer lock for writing.
    pub fn rw_write(&mut self, rw: RwLockId) {
        self.op(Op::RwAcquireWrite(rw));
    }

    /// Releases a reader-writer lock.
    pub fn rw_unlock(&mut self, rw: RwLockId) {
        self.op(Op::RwRelease(rw));
    }

    /// Atomically releases `l` and waits on `c`; reacquires `l` before
    /// returning. As with POSIX condition variables, spurious ordering is
    /// possible and callers re-check their predicate in a loop.
    pub fn cond_wait(&mut self, c: CondId, l: LockId) {
        self.op(Op::CondWait(c, l));
    }

    /// Wakes one waiter of `c`.
    pub fn notify_one(&mut self, c: CondId) {
        self.op(Op::CondNotifyOne(c));
    }

    /// Wakes all waiters of `c`.
    pub fn notify_all(&mut self, c: CondId) {
        self.op(Op::CondNotifyAll(c));
    }

    /// Waits at a cyclic barrier.
    pub fn barrier_wait(&mut self, b: BarrierId) {
        self.op(Op::BarrierWait(b));
    }

    /// Acquires a semaphore permit (P).
    pub fn sem_acquire(&mut self, s: SemId) {
        self.op(Op::SemAcquire(s));
    }

    /// Releases a semaphore permit (V).
    pub fn sem_release(&mut self, s: SemId) {
        self.op(Op::SemRelease(s));
    }

    /// Sends on a FIFO channel (unbounded; never blocks).
    pub fn send(&mut self, ch: ChanId, v: u64) {
        self.op(Op::ChanSend(ch, v));
    }

    /// Receives from a FIFO channel; `None` once closed and drained.
    pub fn recv(&mut self, ch: ChanId) -> Option<u64> {
        self.op(Op::ChanRecv(ch)).maybe_value()
    }

    /// Closes a channel.
    pub fn chan_close(&mut self, ch: ChanId) {
        self.op(Op::ChanClose(ch));
    }

    /// Spawns a virtual thread running `body`; returns its id.
    pub fn spawn(&mut self, name: &str, body: impl FnOnce(&mut Ctx) + Send + 'static) -> ThreadId {
        {
            let mut hub = self.shared.hub.lock();
            let me = self.tid.index();
            hub.slots[me].spawn_req = Some(SpawnReq {
                name: Arc::from(name),
                body: Box::new(body),
            });
        }
        self.op(Op::Spawn).tid()
    }

    /// Blocks until `t` has exited.
    pub fn join(&mut self, t: ThreadId) {
        self.op(Op::Join(t));
    }

    // ---- instrumentation markers ----------------------------------------

    /// Function-entry marker (FUNC sketching).
    pub fn func(&mut self, id: impl Into<FuncId>) {
        self.op(Op::Func(id.into()));
    }

    /// Basic-block marker (BB / BB-N sketching).
    pub fn bb(&mut self, id: impl Into<BbId>) {
        self.op(Op::BasicBlock(id.into()));
    }

    /// Pure thread-local computation of the given virtual cost.
    pub fn compute(&mut self, cost: u64) {
        self.op(Op::Compute(cost));
    }

    /// Voluntary yield.
    pub fn yield_now(&mut self) {
        self.op(Op::Yield);
    }

    /// Application-level assertion: on failure, the run ends with
    /// [`Failure::Assertion`] carrying `msg`. This never returns when the
    /// condition is false.
    pub fn check(&mut self, cond: bool, msg: &str) {
        if !cond {
            self.fail(msg);
        }
    }

    /// Unconditionally manifests a failure.
    pub fn fail(&mut self, msg: &str) -> ! {
        self.op(Op::Fail(msg.to_string()));
        unreachable!("Fail op never grants")
    }

    // ---- simulated system calls -----------------------------------------

    /// Opens (creating if absent) a file.
    pub fn sys_open(&mut self, path: &str) -> FdId {
        self.op(Op::Syscall(SyscallOp::FileOpen {
            path: path.to_string(),
        }))
        .fd()
    }

    /// Reads up to `len` bytes from an open file.
    pub fn sys_read(&mut self, fd: FdId, len: usize) -> Vec<u8> {
        self.op(Op::Syscall(SyscallOp::FileRead { fd, len })).bytes()
    }

    /// Appends bytes to an open file.
    pub fn sys_write(&mut self, fd: FdId, data: &[u8]) {
        self.op(Op::Syscall(SyscallOp::FileWrite {
            fd,
            data: data.to_vec(),
        }));
    }

    /// Closes a file.
    pub fn sys_close(&mut self, fd: FdId) {
        self.op(Op::Syscall(SyscallOp::FileClose { fd }));
    }

    /// Accepts the next inbound connection; blocks until one arrives;
    /// `None` once the workload script is exhausted.
    pub fn sys_accept(&mut self) -> Option<ConnId> {
        self.op(Op::Syscall(SyscallOp::NetAccept)).maybe_conn()
    }

    /// Receives up to `len` bytes; `None` at end of stream.
    pub fn sys_recv(&mut self, conn: ConnId, len: usize) -> Option<Vec<u8>> {
        self.op(Op::Syscall(SyscallOp::NetRecv { conn, len }))
            .maybe_bytes()
    }

    /// Sends response bytes on a connection.
    pub fn sys_send(&mut self, conn: ConnId, data: &[u8]) {
        self.op(Op::Syscall(SyscallOp::NetSend {
            conn,
            data: data.to_vec(),
        }));
    }

    /// Closes a connection.
    pub fn sys_net_close(&mut self, conn: ConnId) {
        self.op(Op::Syscall(SyscallOp::NetClose { conn }));
    }

    /// Reads the virtual clock.
    pub fn now(&mut self) -> u64 {
        self.op(Op::Syscall(SyscallOp::ClockNow)).value()
    }

    /// Draws from the input random stream; uniform in `[0, bound)` (or the
    /// full `u64` range when `bound` is 0).
    pub fn random(&mut self, bound: u64) -> u64 {
        self.op(Op::Syscall(SyscallOp::Random { bound })).value()
    }

    /// Writes a line to the program's standard output.
    pub fn println(&mut self, s: &str) {
        let mut data = s.as_bytes().to_vec();
        data.push(b'\n');
        self.op(Op::Syscall(SyscallOp::StdoutWrite { data }));
    }
}

/// Silences the default panic hook for virtual threads: their panics are
/// part of normal VM operation (shutdown unwinds, simulated crashes) and are
/// reported through [`RunOutcome::status`], not stderr.
pub(crate) fn install_quiet_hook() {
    use std::sync::Once;
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let in_vthread = std::thread::current()
                .name()
                .is_some_and(|n| n.starts_with("vt-"));
            if !in_vthread {
                default(info);
            }
        }));
    });
}

fn thread_main(shared: &Arc<Shared>, tid: ThreadId, body: Box<dyn FnOnce(&mut Ctx) + Send>) {
    let mut ctx = Ctx {
        shared: shared.clone(),
        tid,
    };
    let result = catch_unwind(AssertUnwindSafe(move || {
        ctx.op(Op::ThreadStart);
        body(&mut ctx);
        ctx.op(Op::ThreadExit);
    }));
    let exit = match result {
        Ok(()) => None,
        Err(payload) => {
            if payload.is::<Shutdown>() {
                None
            } else if let Some(s) = payload.downcast_ref::<&str>() {
                Some((*s).to_string())
            } else if let Some(s) = payload.downcast_ref::<String>() {
                Some(s.clone())
            } else {
                Some("panic with non-string payload".to_string())
            }
        }
    };
    let mut hub = shared.hub.lock();
    let slot = &mut hub.slots[tid.index()];
    if slot.queue.is_empty() {
        slot.phase = Phase::Exited(exit);
    } else {
        // The body ran ahead of ops that are not applied yet; the exit (or
        // crash) becomes visible once they are.
        slot.exit_pending = Some(exit);
    }
    // An exit can make the last missing head known too; the exiting thread
    // runs the next scheduling steps before its worker returns to the pool.
    coordinate(&mut hub, shared, None);
}

// ---------------------------------------------------------------------------
// Coordinator.
// ---------------------------------------------------------------------------

thread_local! {
    /// The calling OS thread's executor pool: created on its first
    /// [`run`], warm for every later one, and dropped — every worker told
    /// to exit and joined — when the thread exits.
    static THREAD_POOL: VthreadPool = VthreadPool::new(1);
}

/// Runs a program to completion under the given scheduler and observer.
///
/// The root closure runs as thread `t0`; it may spawn further threads via
/// [`Ctx::spawn`]. The call returns when every thread has exited, a failure
/// manifested, the scheduler aborted, or the step budget ran out.
///
/// Every virtual thread is hosted on a worker of the calling OS thread's
/// own pool, so the first run on a thread spawns the workers its program
/// needs and every later run on that thread spawns none
/// ([`RunStats::os_spawns`] is zero).
///
/// # Panics
///
/// Panics if `config` is invalid (see [`VmConfig::validate`]) or if the
/// scheduler returns a thread that is not enabled.
pub fn run(
    config: VmConfig,
    resources: ResourceSpec,
    scheduler: &mut dyn Scheduler,
    observer: &mut dyn Observer,
    root: impl FnOnce(&mut Ctx) + Send + 'static,
) -> RunOutcome {
    THREAD_POOL.with(|pool| run_with_pool(config, resources, scheduler, observer, pool, root))
}

/// As [`run`], but hosting every virtual thread on a worker checked out of
/// `pool` rather than the calling thread's own. Execution is
/// byte-identical either way — a run is a pure function of (program,
/// world, scheduler decisions), independent of which OS thread hosts a
/// vthread.
///
/// The pool is borrowed for the duration of the call; all submitted
/// vthreads have returned their workers before this function returns.
pub fn run_with_pool(
    config: VmConfig,
    resources: ResourceSpec,
    scheduler: &mut dyn Scheduler,
    observer: &mut dyn Observer,
    pool: &VthreadPool,
    root: impl FnOnce(&mut Ctx) + Send + 'static,
) -> RunOutcome {
    config.validate().expect("invalid VmConfig");
    install_quiet_hook();
    // Erase the borrow lifetimes so the coordinator state can live inside
    // the hub; see `Coord` for the safety argument (hub-mutex-only access,
    // every vthread job counted out before this frame returns).
    let scheduler: *mut dyn Scheduler =
        unsafe { std::mem::transmute::<&mut dyn Scheduler, *mut dyn Scheduler>(scheduler) };
    let observer: *mut dyn Observer =
        unsafe { std::mem::transmute::<&mut dyn Observer, *mut dyn Observer>(observer) };
    let shared = Arc::new(Shared {
        hub: Mutex::new(Hub {
            slots: Vec::new(),
            poisoned: false,
            coord: Coord {
                scheduler,
                observer,
                state: VmState::new(resources, config.world.clone()),
                clock: VClock::new(),
                stats: RunStats::default(),
                trace: Trace::new(),
                schedule: Vec::new(),
                step: 0,
                known_exited: Vec::new(),
                enabled: Vec::new(),
                blocked: Vec::new(),
                status: None,
                processors: config.processors,
                max_steps: config.max_steps,
                trace_mode: config.trace_mode,
                cost_model: config.cost_model.clone(),
            },
        }),
        done: Condvar::new(),
        exec: pool.handle(),
        jobs: Mutex::new(0),
        jobs_done: Condvar::new(),
    });

    // Launch the root thread on a pool worker.
    {
        let mut hub = shared.hub.lock();
        hub.slots.push(Slot::new(Arc::from("main")));
        hub.coord.known_exited.push(false);
        if launch(&shared, ROOT_THREAD, Box::new(root)) {
            hub.coord.stats.os_spawns += 1;
        }
    }

    // Wait for the outcome; the virtual threads coordinate themselves.
    // Then shut down: poison the hub *in the same critical section* — a
    // thread that ran ahead may announce at any moment, and must find
    // either the decided status or the poison, never a hub that looks
    // open for another pick — and wait for the outstanding-jobs count to
    // reach zero, i.e. for every vthread to be gone.
    let status = {
        let mut hub = shared.hub.lock();
        while hub.coord.status.is_none() {
            shared.done.wait(&mut hub);
        }
        let status = hub.coord.status.take().expect("status observed above");
        hub.poisoned = true;
        // Every parked thread waits on its own condvar; poison them all.
        for s in hub.slots.iter() {
            s.cv.notify_one();
        }
        status
    };
    {
        let mut jobs = shared.jobs.lock();
        while *jobs != 0 {
            shared.jobs_done.wait(&mut jobs);
        }
    }

    // Every virtual thread has exited: the erased scheduler/observer
    // borrows are dead everywhere, and the hub is exclusively ours.
    let mut hub = shared.hub.lock();
    let thread_names: Vec<String> = hub.slots.iter().map(|s| s.name.to_string()).collect();
    let coord = &mut hub.coord;
    let time = TimeReport::from_clock(&coord.clock, coord.processors);
    let (stdout, conn_outputs, files) = {
        let world = coord.state.world();
        (
            world.stdout().to_vec(),
            world.conn_outputs(),
            world.files().clone(),
        )
    };
    RunOutcome {
        status,
        trace: std::mem::replace(&mut coord.trace, Trace::new()),
        time,
        stats: coord.stats,
        schedule: std::mem::take(&mut coord.schedule),
        thread_names,
        stdout,
        conn_outputs,
        files,
    }
}

/// Marks the run's outcome and wakes the [`run`] caller.
fn finish(coord: &mut Coord, shared: &Shared, status: RunStatus) {
    coord.status = Some(status);
    shared.done.notify_one();
}

/// Captures a [`VmSnapshot`] at the current pick boundary. Called with the
/// hub mutex held, immediately after an event was applied: the boundary is
/// `coord.schedule.len()` and every coordinator-owned structure reflects
/// exactly those picks.
fn capture_snapshot(coord: &Coord, slots: &[Slot]) -> crate::snapshot::VmSnapshot {
    use crate::bytes::Writer;
    use crate::snapshot::{self, VmSnapshot};
    let mut e = Writer::new();
    e.section(snapshot::SEC_STATS, |e| {
        // `os_spawns` is deliberately excluded: it depends on which pool
        // hosts the run and how warm it is (both schedule-invisible), and
        // the snapshot must be byte-identical across them.
        let s = &coord.stats;
        for v in [
            s.total_ops,
            s.mem_accesses,
            s.sync_ops,
            s.syscalls,
            s.func_markers,
            s.bb_markers,
            s.spawns,
        ] {
            e.varint(v);
        }
    });
    e.section(snapshot::SEC_CLOCK, |e| coord.clock.snapshot_into(e));
    e.section(snapshot::SEC_THREADS, |e| {
        e.varint(slots.len() as u64);
        for (i, s) in slots.iter().enumerate() {
            e.str(&s.name);
            e.varint(u64::from(s.tseq));
            e.bool(coord.known_exited.get(i).copied().unwrap_or(false));
        }
    });
    e.section(snapshot::SEC_STATE, |e| coord.state.snapshot_into(e));
    VmSnapshot::from_parts(
        coord.schedule.len() as u64,
        coord.step,
        slots.len() as u32,
        e.finish(),
    )
}

/// Runs scheduling steps for as long as every live thread's head op is
/// known, applying exactly one head per pick. Called — with the hub lock
/// already held — by every thread right after it announces or exits; all
/// but the one that made the last missing head known return at once.
/// Returns once some live thread has nothing queued (it is computing its
/// next op, or was just granted a result, and will coordinate when it
/// announces) or the run's status is decided. `me` is the calling thread
/// when it announced (a grant to it then skips the wakeup: the caller
/// observes `Granted` on its way out).
fn coordinate(guard: &mut MutexGuard<'_, Hub>, shared: &Arc<Shared>, me: Option<ThreadId>) {
    let hub: &mut Hub = guard;
    let Hub {
        slots,
        poisoned,
        coord,
    } = hub;
    if *poisoned {
        return;
    }
    'steps: loop {
        if coord.status.is_some() {
            return;
        }
        let busy = slots
            .iter()
            .any(|s| s.queue.is_empty() && !matches!(s.phase, Phase::Exited(_)));
        if busy {
            // Someone else still carries the baton; they will coordinate.
            return;
        }

        // Detect crashes (newly exited with a message). `known_exited`
        // then mirrors `Phase::Exited` for every slot, so enabledness of
        // `Join` is answered without further phase scans.
        let mut crash = None;
        for (i, slot) in slots.iter().enumerate() {
            if let Phase::Exited(exit) = &slot.phase {
                if !coord.known_exited[i] {
                    coord.known_exited[i] = true;
                    if let Some(msg) = exit {
                        crash = Some((ThreadId(i as u32), msg.clone()));
                    }
                }
            }
        }
        if let Some((tid, message)) = crash {
            finish(coord, shared, RunStatus::Failed(Failure::Crash { thread: tid, message }));
            return;
        }

        // Partition the queue heads into enabled / blocked (one op clone
        // per candidate).
        coord.enabled.clear();
        coord.blocked.clear();
        for (i, s) in slots.iter().enumerate() {
            let Some(op) = s.queue.front() else {
                continue;
            };
            let tid = ThreadId(i as u32);
            let ok = match op {
                Op::Join(target) => {
                    coord.known_exited.get(target.index()).copied().unwrap_or(false)
                }
                other => coord.state.enabled(tid, other, coord.step),
            };
            let cand = Candidate {
                tid,
                op: op.clone(),
            };
            if ok {
                coord.enabled.push(cand);
            } else {
                coord.blocked.push(cand);
            }
        }

        if coord.enabled.is_empty() && coord.blocked.is_empty() {
            finish(coord, shared, RunStatus::Completed);
            return;
        }

        if coord.step >= coord.max_steps {
            finish(coord, shared, RunStatus::StepLimit);
            return;
        }

        if coord.enabled.is_empty() {
            // Fast-forward to the next scripted arrival if someone is
            // blocked on accept; otherwise the run is stuck.
            let next_arrival = coord.blocked.iter().find_map(|c| {
                if matches!(c.op, Op::Syscall(SyscallOp::NetAccept)) {
                    match coord.state.world().accept_status(coord.step) {
                        AcceptStatus::WaitUntil(s) => Some(s),
                        _ => None,
                    }
                } else {
                    None
                }
            });
            if let Some(arrival) = next_arrival {
                coord.step = arrival;
                continue 'steps;
            }
            let blocked_threads: Vec<BlockedThread> = coord
                .blocked
                .iter()
                .map(|c| BlockedThread {
                    tid: c.tid,
                    reason: match &c.op {
                        Op::Join(t) => crate::state::BlockReason::Other {
                            what: if coord.known_exited.get(t.index()).copied().unwrap_or(false)
                            {
                                "join"
                            } else {
                                "join-wait"
                            },
                        },
                        op => coord
                            .state
                            .block_reason(c.tid, op, coord.step)
                            .unwrap_or(crate::state::BlockReason::Other { what: "unknown" }),
                    },
                })
                .collect();
            let report = deadlock::analyze(&blocked_threads);
            finish(
                coord,
                shared,
                RunStatus::Failed(Failure::Deadlock {
                    threads: report.threads,
                    locks: report.locks,
                    description: report.description,
                }),
            );
            return;
        }

        // Ask the scheduler.
        let decision = {
            let view = SchedView {
                enabled: &coord.enabled,
                blocked: &coord.blocked,
                step: coord.step,
                processors: coord.processors,
            };
            // SAFETY: see `Coord` — hub mutex held, borrow outlives us.
            unsafe { &mut *coord.scheduler }.pick(&view)
        };
        let tid = match decision {
            Decision::Run(t) => t,
            Decision::Abort(reason) => {
                finish(coord, shared, RunStatus::Aborted(reason));
                return;
            }
        };
        let picked = coord
            .enabled
            .iter()
            .position(|c| c.tid == tid)
            .unwrap_or_else(|| panic!("scheduler picked non-enabled thread {tid}"));
        // Move the op out of the (per-round) candidate buffer: the pick is
        // final, so no second clone is needed.
        let op = coord.enabled.swap_remove(picked).op;
        coord.schedule.push(tid);
        coord.step += 1;

        // Charge the base cost.
        coord.clock.charge(tid, coord.cost_model.op_cost(&op));
        coord.stats.count(&op);

        // Apply. `done` marks whether the head completed and leaves the
        // queue; the result is carried by the event and moved (not cloned)
        // into the grant unless the trace retains it.
        let mut fail: Option<Failure> = None;
        let (done, event_result) = match &op {
            Op::Spawn => {
                let req = slots[tid.index()]
                    .spawn_req
                    .take()
                    .expect("Spawn announced without a spawn request");
                let new_tid = ThreadId(slots.len() as u32);
                slots.push(Slot::new(req.name));
                coord.known_exited.push(false);
                if launch(shared, new_tid, req.body) {
                    coord.stats.os_spawns += 1;
                }
                (true, OpResult::Tid(new_tid))
            }
            Op::Join(_) => (true, OpResult::Unit),
            Op::Fail(msg) => {
                fail = Some(Failure::Assertion {
                    thread: tid,
                    message: msg.clone(),
                });
                (false, OpResult::Unit)
            }
            other => match coord.state.apply(tid, other, coord.clock.now(), coord.step) {
                Applied::Done(res) => (true, res),
                Applied::BlockedRewrite(new_op) => {
                    *slots[tid.index()]
                        .queue
                        .front_mut()
                        .expect("picked thread has a head") = new_op;
                    (false, OpResult::Unit)
                }
                Applied::Fault(msg) => {
                    // Rides on the grant below: the thread resumes and
                    // panics, which the crash path picks up. No thread runs
                    // ahead of a faultable op, so it is parked on this one.
                    let slot = &mut slots[tid.index()];
                    debug_assert!(slot.queue.len() == 1 && matches!(slot.phase, Phase::Waiting));
                    slot.fault = Some(msg);
                    (true, OpResult::Unit)
                }
            },
        };

        // Emit the event. The applied op is moved into it, not cloned; the
        // scheduler and trace borrow it from there.
        let tseq = {
            let slot = &mut slots[tid.index()];
            let t = slot.tseq;
            slot.tseq += 1;
            t
        };
        let event = Event {
            gseq: coord.schedule.len() as u64 - 1,
            tid,
            tseq,
            op,
            result: event_result,
        };
        // SAFETY: see `Coord` — hub mutex held, borrow outlives us.
        let charge = unsafe { &mut *coord.observer }.on_event(&event);
        if charge.thread_cost > 0 {
            coord.clock.charge(tid, charge.thread_cost);
        }
        if charge.serial_cost > 0 {
            coord.clock.charge_serial(tid, charge.serial_cost);
        }
        // SAFETY: see `Coord` — hub mutex held, borrow outlives us.
        unsafe { &mut *coord.scheduler }.on_applied(tid, &event.op);
        // Epoch-boundary checkpoint: asked after every applied event,
        // captured while the hub is still exclusively ours — state, clock,
        // and schedule reflect exactly the picks made so far, so the
        // snapshot's boundary is simply the pick count.
        // SAFETY: see `Coord` — hub mutex held, borrow outlives us.
        if unsafe { &mut *coord.observer }.checkpoint_due() {
            let snap = capture_snapshot(coord, slots);
            // SAFETY: see `Coord` — hub mutex held, borrow outlives us.
            unsafe { &mut *coord.observer }.on_checkpoint(&snap);
        }
        // The thread is waiting for this result iff it is parked and this
        // was the last op it queued; a thread that ran ahead of the op
        // already took `Unit` for it. Only a retained trace forces the
        // grant result to be cloned; in Off/Feedback modes it is moved out
        // of the event.
        let grant = done && {
            let slot = &slots[tid.index()];
            slot.queue.len() == 1 && matches!(slot.phase, Phase::Waiting)
        };
        debug_assert!(grant || !done || event.result == OpResult::Unit);
        let granted = if coord.trace_mode == TraceMode::Full {
            let res = grant.then(|| event.result.clone());
            coord.trace.push(event);
            res
        } else {
            grant.then_some(event.result)
        };

        if let Some(f) = fail {
            finish(coord, shared, RunStatus::Failed(f));
            return;
        }

        if done {
            let slot = &mut slots[tid.index()];
            slot.queue.pop_front();
            // A grant to the calling thread needs no wakeup at all — it
            // reads `Granted` immediately after this function returns.
            if let Some(res) = granted {
                slot.result = Some(res);
                slot.phase = Phase::Granted;
                if me != Some(tid) {
                    slot.cv.notify_one();
                }
                return;
            }
            if slot.queue.is_empty() {
                if let Some(exit) = slot.exit_pending.take() {
                    slot.phase = Phase::Exited(exit);
                }
            }
        }
        // Every head may still be known (the thread ran ahead, or its head
        // was rewritten), so the baton stays with us — loop for the next
        // step.
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::{RandomScheduler, RoundRobinScheduler, ScriptedScheduler};
    use crate::sys::Session;
    use crate::trace::NullObserver;

    fn quick_config() -> VmConfig {
        VmConfig {
            trace_mode: TraceMode::Full,
            ..VmConfig::default()
        }
    }

    #[test]
    fn single_thread_program_completes() {
        let mut spec = ResourceSpec::new();
        let x = spec.var("x", 0);
        let out = run(
            quick_config(),
            spec,
            &mut RoundRobinScheduler::new(),
            &mut NullObserver,
            move |ctx| {
                ctx.write(x, 41);
                let v = ctx.read(x);
                ctx.write(x, v + 1);
            },
        );
        assert_eq!(out.status, RunStatus::Completed);
        assert!(out.stats.mem_accesses == 3);
        // start, 3 accesses, exit
        assert_eq!(out.stats.total_ops, 5);
    }

    #[test]
    fn spawn_join_and_shared_counter() {
        for pass in 0..2 {
            let mut spec = ResourceSpec::new();
            let counter = spec.var("counter", 0);
            let out = run(
                quick_config(),
                spec,
                &mut RandomScheduler::new(1),
                &mut NullObserver,
                move |ctx| {
                    let kids: Vec<ThreadId> = (0..4)
                        .map(|i| {
                            ctx.spawn(&format!("w{i}"), move |ctx| {
                                for _ in 0..10 {
                                    ctx.fetch_add(counter, 1);
                                }
                            })
                        })
                        .collect();
                    for k in kids {
                        ctx.join(k);
                    }
                    let total = ctx.read(counter);
                    ctx.check(total == 40, "lost updates");
                },
            );
            assert_eq!(out.status, RunStatus::Completed);
            assert_eq!(out.stats.spawns, 4);
            if pass > 0 {
                assert_eq!(out.stats.os_spawns, 0, "warm run on this thread spawned");
            }
        }
    }

    /// One parameterized program used by the pool tests: spawns
    /// workers, races a counter, joins, prints — exercising every launch
    /// path a program can take.
    fn pooled_probe(seed: u64) -> (ResourceSpec, impl FnOnce(&mut Ctx) + Send + 'static) {
        let mut spec = ResourceSpec::new();
        let counter = spec.var("counter", 0);
        let _ = seed;
        let body = move |ctx: &mut Ctx| {
            let kids: Vec<ThreadId> = (0..3)
                .map(|i| {
                    ctx.spawn(&format!("w{i}"), move |ctx| {
                        let v = ctx.read(counter);
                        ctx.write(counter, v + 1);
                    })
                })
                .collect();
            for k in kids {
                ctx.join(k);
            }
            let total = ctx.read(counter);
            ctx.println(&format!("total={total}"));
        };
        (spec, body)
    }

    #[test]
    fn caller_pool_runs_match_thread_pool_runs_and_reuse_workers() {
        let pool = crate::pool::VthreadPool::new(4);
        for seed in 0..8 {
            let (spec_p, body_p) = pooled_probe(seed);
            let pooled = run_with_pool(
                quick_config(),
                spec_p,
                &mut RandomScheduler::new(seed),
                &mut NullObserver,
                &pool,
                body_p,
            );
            let (spec_t, body_t) = pooled_probe(seed);
            let on_thread = run(
                quick_config(),
                spec_t,
                &mut RandomScheduler::new(seed),
                &mut NullObserver,
                body_t,
            );
            assert_eq!(pooled.status, on_thread.status, "seed {seed}");
            assert_eq!(pooled.schedule, on_thread.schedule, "seed {seed}");
            assert_eq!(pooled.stdout, on_thread.stdout, "seed {seed}");
            assert_eq!(pooled.stats.spawns, on_thread.stats.spawns, "seed {seed}");
            if seed > 0 {
                assert_eq!(pooled.stats.os_spawns, 0, "warm attempt spawned (seed {seed})");
                assert_eq!(on_thread.stats.os_spawns, 0, "warm run spawned (seed {seed})");
            }
        }
        // The pool warmed to the peak concurrent vthread count and stayed.
        assert!(pool.spawned_workers() <= 4, "pool overgrew");
        assert!(pool.take_escaped_panics().is_empty());
    }

    #[test]
    fn pooled_worker_survives_a_panicking_vthread_body() {
        let pool = crate::pool::VthreadPool::new(1);
        for attempt in 0..10 {
            let out = run_with_pool(
                quick_config(),
                ResourceSpec::new(),
                &mut RoundRobinScheduler::new(),
                &mut NullObserver,
                &pool,
                |_ctx| panic!("deliberate bug body"),
            );
            match out.status {
                RunStatus::Failed(Failure::Crash { message, .. }) => {
                    assert_eq!(message, "deliberate bug body", "attempt {attempt}");
                }
                other => panic!("attempt {attempt}: expected crash, got {other}"),
            }
        }
        // The VM contained every panic (Failure::Crash), so nothing escaped
        // to the worker boundary — and one worker served all ten attempts.
        assert_eq!(pool.spawned_workers(), 1);
        assert!(pool.take_escaped_panics().is_empty());
    }

    #[test]
    fn racy_read_write_counter_loses_updates_under_some_seed() {
        // The classic non-atomic increment: read, compute, write. Some seed
        // must interleave two threads inside the window.
        let lost_updates = |seed: u64| -> bool {
            let mut spec = ResourceSpec::new();
            let counter = spec.var("counter", 0);
            let out = run(
                VmConfig::default(),
                spec,
                &mut RandomScheduler::with_mean_slice(seed, 2),
                &mut NullObserver,
                move |ctx| {
                    let kids: Vec<ThreadId> = (0..2)
                        .map(|i| {
                            ctx.spawn(&format!("w{i}"), move |ctx| {
                                for _ in 0..20 {
                                    let v = ctx.read(counter);
                                    ctx.write(counter, v + 1);
                                }
                            })
                        })
                        .collect();
                    for k in kids {
                        ctx.join(k);
                    }
                    let total = ctx.read(counter);
                    ctx.check(total == 40, "lost update");
                },
            );
            out.status.is_failed()
        };
        let failures = (0..20).filter(|s| lost_updates(*s)).count();
        assert!(failures > 0, "no seed lost an update");
    }

    #[test]
    fn deadlock_is_detected_with_cycle() {
        let mut spec = ResourceSpec::new();
        let a = spec.lock("a");
        let b = spec.lock("b");
        // Force the ABBA interleaving with a scripted acquire order via
        // channel handshake.
        let ch = spec.chan("ready");
        let out = run(
            quick_config(),
            spec,
            &mut RoundRobinScheduler::new(),
            &mut NullObserver,
            move |ctx| {
                let t1 = ctx.spawn("t1", move |ctx| {
                    ctx.lock(a);
                    ctx.send(ch, 1);
                    ctx.lock(b); // will deadlock
                    ctx.unlock(b);
                    ctx.unlock(a);
                });
                let t2 = ctx.spawn("t2", move |ctx| {
                    ctx.lock(b);
                    ctx.recv(ch);
                    ctx.lock(a); // will deadlock
                    ctx.unlock(a);
                    ctx.unlock(b);
                });
                ctx.join(t1);
                ctx.join(t2);
            },
        );
        match out.status {
            RunStatus::Failed(Failure::Deadlock { locks, .. }) => {
                assert!(locks.contains(&a) && locks.contains(&b));
            }
            other => panic!("expected deadlock, got {other}"),
        }
    }

    #[test]
    fn assertion_failure_surfaces_with_message() {
        let spec = ResourceSpec::new();
        let out = run(
            quick_config(),
            spec,
            &mut RoundRobinScheduler::new(),
            &mut NullObserver,
            |ctx| {
                ctx.check(1 + 1 == 3, "math is broken");
            },
        );
        match out.status {
            RunStatus::Failed(Failure::Assertion { message, .. }) => {
                assert_eq!(message, "math is broken");
            }
            other => panic!("{other}"),
        }
    }

    #[test]
    fn panic_in_thread_is_a_crash() {
        let spec = ResourceSpec::new();
        let out = run(
            quick_config(),
            spec,
            &mut RoundRobinScheduler::new(),
            &mut NullObserver,
            |ctx| {
                ctx.compute(1);
                panic!("segfault simulated");
            },
        );
        match out.status {
            RunStatus::Failed(Failure::Crash { message, .. }) => {
                assert!(message.contains("segfault"));
            }
            other => panic!("{other}"),
        }
    }

    #[test]
    fn lock_misuse_is_a_crash_not_a_hang() {
        let mut spec = ResourceSpec::new();
        let l = spec.lock("m");
        let x = spec.var("x", 0);
        let out = run(
            quick_config(),
            spec,
            &mut RoundRobinScheduler::new(),
            &mut NullObserver,
            move |ctx| {
                ctx.write(x, 1);
                ctx.unlock(l);
                ctx.write(x, 2);
            },
        );
        match out.status {
            RunStatus::Failed(Failure::Crash { message, .. }) => {
                assert!(message.contains("does not hold"));
            }
            other => panic!("{other}"),
        }
        // The thread crashed *at* the unlock: it had run ahead of the write
        // before it, and never announced the one after.
        let ops: Vec<&Op> = out.trace.events().iter().map(|e| &e.op).collect();
        assert_eq!(
            ops,
            [&Op::ThreadStart, &Op::Write(x, 1), &Op::LockRelease(l)]
        );
    }

    /// Two threads that queue several unit ops each; the worker then
    /// panics in thread-local code with its last ops still unapplied.
    fn crash_after_queued_ops() -> (ResourceSpec, impl FnOnce(&mut Ctx) + Send + 'static) {
        let mut spec = ResourceSpec::new();
        let x = spec.var("x", 0);
        let y = spec.var("y", 0);
        let l = spec.lock("m");
        let body = move |ctx: &mut Ctx| {
            let w = ctx.spawn("w", move |ctx| {
                ctx.lock(l);
                ctx.write(x, 1);
                ctx.compute(5);
                ctx.yield_now();
                panic!("boom after queued ops");
            });
            ctx.write(y, 2);
            ctx.func(7u32);
            ctx.yield_now();
            ctx.write(y, 3);
            ctx.join(w);
        };
        (spec, body)
    }

    fn render(trace: &Trace) -> String {
        let events: Vec<String> = trace
            .events()
            .iter()
            .map(|e| format!("{}.{}:{}", e.tid.0, e.tseq, e.op))
            .collect();
        events.join(" ")
    }

    /// What the announce-and-park engine this protocol replaced produced
    /// for [`crash_after_queued_ops`]: `RandomScheduler` seed, schedule,
    /// rendered trace. Under seed 0 the crash surfaces while the root still
    /// has ops queued behind its head.
    const PARKED_ENGINE_RUNS: [(u64, &[u32], &str); 2] = [
        (
            0,
            &[0, 0, 0, 1, 0, 1, 1, 1, 0, 1],
            "0.0:start 0.1:spawn 0.2:wr v1=2 1.0:start 0.3:func fn7 1.1:lock m0 \
             1.2:wr v0=1 1.3:compute 0.4:yield 1.4:yield",
        ),
        (
            3,
            &[0, 0, 0, 0, 1, 1, 0, 1, 0, 1, 1],
            "0.0:start 0.1:spawn 0.2:wr v1=2 0.3:func fn7 1.0:start 1.1:lock m0 \
             0.4:yield 1.2:wr v0=1 0.5:wr v1=3 1.3:compute 1.4:yield",
        ),
    ];

    #[test]
    fn crash_after_queued_unit_ops_matches_the_parked_engine() {
        for (seed, schedule, trace) in PARKED_ENGINE_RUNS {
            let schedule: Vec<ThreadId> = schedule.iter().map(|t| ThreadId(*t)).collect();
            let (spec, body) = crash_after_queued_ops();
            let random = run(
                quick_config(),
                spec,
                &mut RandomScheduler::new(seed),
                &mut NullObserver,
                body,
            );
            assert_eq!(random.schedule, schedule, "seed {seed}");
            assert_eq!(render(&random.trace), trace, "seed {seed}");

            let (spec, body) = crash_after_queued_ops();
            let scripted = run(
                quick_config(),
                spec,
                &mut ScriptedScheduler::new(schedule),
                &mut NullObserver,
                body,
            );
            for out in [&random, &scripted] {
                match &out.status {
                    RunStatus::Failed(Failure::Crash { thread, message }) => {
                        assert_eq!(*thread, ThreadId(1));
                        assert_eq!(message, "boom after queued ops");
                    }
                    other => panic!("seed {seed}: expected crash, got {other}"),
                }
            }
            assert_eq!(scripted.schedule, random.schedule, "seed {seed}");
            assert_eq!(scripted.trace.events(), random.trace.events(), "seed {seed}");
        }
    }

    #[test]
    fn deadlock_between_threads_that_ran_ahead_reports_both_locks() {
        let mut spec = ResourceSpec::new();
        let a = spec.lock("a");
        let b = spec.lock("b");
        // Neither thread parks before its second `lock`: start, lock, yield
        // and lock all run ahead, so both queues hold the whole ABBA
        // sequence before the first pick can be made.
        let script = [0, 0, 0, 1, 2, 1, 2, 1, 2].map(ThreadId).to_vec();
        let out = run(
            quick_config(),
            spec,
            &mut ScriptedScheduler::new(script.clone()),
            &mut NullObserver,
            move |ctx| {
                let t1 = ctx.spawn("t1", move |ctx| {
                    ctx.lock(a);
                    ctx.yield_now();
                    ctx.lock(b); // will deadlock
                    ctx.unlock(b);
                    ctx.unlock(a);
                });
                let t2 = ctx.spawn("t2", move |ctx| {
                    ctx.lock(b);
                    ctx.yield_now();
                    ctx.lock(a); // will deadlock
                    ctx.unlock(a);
                    ctx.unlock(b);
                });
                ctx.join(t1);
                ctx.join(t2);
            },
        );
        assert_eq!(out.schedule, script);
        match out.status {
            RunStatus::Failed(Failure::Deadlock { locks, threads, .. }) => {
                assert!(locks.contains(&a) && locks.contains(&b));
                assert!(threads.contains(&ThreadId(1)) && threads.contains(&ThreadId(2)));
            }
            other => panic!("expected deadlock, got {other}"),
        }
    }

    /// Always runs the lowest enabled thread id.
    struct LowestFirst;

    impl Scheduler for LowestFirst {
        fn pick(&mut self, view: &SchedView<'_>) -> Decision {
            Decision::Run(view.enabled[0].tid)
        }
    }

    #[test]
    fn join_stays_blocked_while_the_targets_exit_is_still_queued() {
        let mut spec = ResourceSpec::new();
        let x = spec.var("x", 0);
        let (body_done, wait_body_done) = std::sync::mpsc::channel::<()>();
        let out = run(
            quick_config(),
            spec,
            &mut LowestFirst,
            &mut NullObserver,
            move |ctx| {
                let w = ctx.spawn("w", move |ctx| {
                    ctx.write(x, 1);
                    // Everything above ran ahead: the body is over while its
                    // ops (and the `ThreadExit` that follows) are unapplied.
                    body_done.send(()).expect("root is waiting");
                });
                wait_body_done.recv().expect("worker signals");
                ctx.join(w);
                let v = ctx.read(x);
                ctx.check(v == 1, "join returned before the worker's write");
            },
        );
        assert_eq!(out.status, RunStatus::Completed, "{}", out.status);
        // The scheduler prefers the root whenever it is enabled, so the join
        // is applied at the first pick at which the worker has exited.
        let pos = |tid: u32, op: &Op| {
            out.trace
                .events()
                .iter()
                .position(|e| e.tid == ThreadId(tid) && e.op == *op)
                .expect("event present")
        };
        assert_eq!(
            pos(0, &Op::Join(ThreadId(1))),
            pos(1, &Op::ThreadExit) + 1
        );
    }

    #[test]
    fn yield_loop_hits_the_step_limit_with_a_bounded_queue() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let returned = Arc::new(AtomicUsize::new(0));
        let seen = returned.clone();
        let mut config = quick_config();
        config.max_steps = 500;
        let out = run(
            config,
            ResourceSpec::new(),
            &mut RoundRobinScheduler::new(),
            &mut NullObserver,
            move |ctx| {
                ctx.spawn("spinner", move |ctx| loop {
                    ctx.yield_now();
                    returned.fetch_add(1, Ordering::SeqCst);
                });
                // The root announces nothing, so no pick can be made and
                // the spinner's queue only grows: `ThreadStart` plus the
                // yields that returned, plus the one it parks on at the cap.
                let cap = MAX_AHEAD - 2;
                while seen.load(Ordering::SeqCst) < cap {
                    std::thread::yield_now();
                }
                for _ in 0..1000 {
                    std::thread::yield_now();
                    assert_eq!(seen.load(Ordering::SeqCst), cap, "ran past MAX_AHEAD");
                }
                loop {
                    ctx.yield_now();
                }
            },
        );
        assert_eq!(out.status, RunStatus::StepLimit, "{}", out.status);
        assert_eq!(out.stats.total_ops, 500);
    }

    #[test]
    fn runs_ahead_is_false_for_every_op_that_can_fault_or_return_a_value() {
        use crate::ids::{ConnId, FdId};
        let mut spec = ResourceSpec::new();
        let x = spec.var("x", 0);
        let buf = spec.buf("buf");
        let l = spec.lock("m");
        let rw = spec.rwlock("rw");
        let c = spec.cond("c");
        let bar = spec.barrier("bar", 2);
        let sem = spec.sem("s", 1);
        let ch = spec.chan("ch");
        let closed = spec.chan("closed");
        let world = WorldConfig::default().with_session(Session::new(0, b"req".to_vec()));
        let (t1, t2) = (ThreadId(1), ThreadId(2));
        let (fd, conn) = (FdId(0), ConnId(0));
        let sys = |s: SyscallOp| Op::Syscall(s);

        // Each op with the ops applied first (by `t1` unless noted) that make
        // it a legal use. Every op is applied twice by `t1`: after its
        // set-up, and on a state where nothing is held or open.
        let by_t1 = |ops: Vec<Op>| ops.into_iter().map(|o| (t1, o)).collect::<Vec<_>>();
        let table: Vec<(Op, Vec<(ThreadId, Op)>)> = vec![
            (Op::ThreadStart, vec![]),
            (Op::Read(x), vec![]),
            (Op::Write(x, 1), vec![]),
            (Op::FetchAdd(x, 1), vec![]),
            (Op::CompareSwap(x, 0, 1), vec![]),
            (Op::Buf(buf, BufOp::Append(vec![1])), vec![]),
            (Op::Buf(buf, BufOp::ReadAll), vec![]),
            (Op::Buf(buf, BufOp::Len), vec![]),
            (Op::Buf(buf, BufOp::Clear), vec![]),
            (
                Op::Buf(buf, BufOp::Set { index: 0, byte: 1 }),
                by_t1(vec![Op::Buf(buf, BufOp::Append(vec![0]))]),
            ),
            (Op::LockAcquire(l), vec![]),
            (Op::LockRelease(l), by_t1(vec![Op::LockAcquire(l)])),
            (Op::RwAcquireRead(rw), vec![]),
            (Op::RwAcquireWrite(rw), vec![]),
            (Op::RwRelease(rw), by_t1(vec![Op::RwAcquireRead(rw)])),
            (Op::CondWait(c, l), by_t1(vec![Op::LockAcquire(l)])),
            (
                Op::CondReacquire(c, l),
                by_t1(vec![Op::LockAcquire(l), Op::CondWait(c, l), Op::CondNotifyOne(c)]),
            ),
            (Op::CondNotifyOne(c), vec![]),
            (Op::CondNotifyAll(c), vec![]),
            (Op::BarrierWait(bar), vec![]),
            (
                Op::BarrierResume(bar),
                vec![(t1, Op::BarrierWait(bar)), (t2, Op::BarrierWait(bar))],
            ),
            (Op::SemAcquire(sem), vec![]),
            (Op::SemRelease(sem), vec![]),
            (Op::ChanSend(ch, 1), vec![]),
            (Op::ChanSend(closed, 1), vec![]),
            (Op::ChanRecv(ch), by_t1(vec![Op::ChanSend(ch, 1)])),
            (Op::ChanClose(ch), vec![]),
            (sys(SyscallOp::FileOpen { path: "f".into() }), vec![]),
            (
                sys(SyscallOp::FileRead { fd, len: 1 }),
                by_t1(vec![sys(SyscallOp::FileOpen { path: "f".into() })]),
            ),
            (
                sys(SyscallOp::FileWrite { fd, data: vec![1] }),
                by_t1(vec![sys(SyscallOp::FileOpen { path: "f".into() })]),
            ),
            (
                sys(SyscallOp::FileClose { fd }),
                by_t1(vec![sys(SyscallOp::FileOpen { path: "f".into() })]),
            ),
            (sys(SyscallOp::NetAccept), vec![]),
            (
                sys(SyscallOp::NetRecv { conn, len: 1 }),
                by_t1(vec![sys(SyscallOp::NetAccept)]),
            ),
            (
                sys(SyscallOp::NetSend { conn, data: vec![1] }),
                by_t1(vec![sys(SyscallOp::NetAccept)]),
            ),
            (
                sys(SyscallOp::NetClose { conn }),
                by_t1(vec![sys(SyscallOp::NetAccept)]),
            ),
            (sys(SyscallOp::ClockNow), vec![]),
            (sys(SyscallOp::Random { bound: 4 }), vec![]),
            (sys(SyscallOp::StdoutWrite { data: vec![1] }), vec![]),
            (Op::Func(1u32.into()), vec![]),
            (Op::BasicBlock(1u32.into()), vec![]),
            (Op::Compute(1), vec![]),
            (Op::Yield, vec![]),
            (Op::ThreadExit, vec![]),
        ];

        let fresh = || {
            let mut state = VmState::new(spec.clone(), world.clone());
            state.apply(t2, &Op::ChanClose(closed), 0, 0);
            state
        };
        let needs_the_caller = |applied: Applied| match applied {
            Applied::Done(OpResult::Unit) | Applied::BlockedRewrite(_) => false,
            Applied::Done(_) | Applied::Fault(_) => true,
        };
        for (op, setup) in &table {
            let mut legal = fresh();
            for (tid, prior) in setup {
                legal.apply(*tid, prior, 0, 0);
            }
            let mut needs = needs_the_caller(legal.apply(t1, op, 0, 0));
            // Only an enabled head is ever applied.
            let mut bare = fresh();
            if bare.enabled(t1, op, 0) {
                needs |= needs_the_caller(bare.apply(t1, op, 0, 0));
            }
            if needs {
                assert!(!op.runs_ahead(), "{op} can fault or return a value");
            }
        }
        // The coordinator applies these itself: `Spawn` returns the new
        // thread's id, `Fail` never returns, `Join` returns nothing.
        assert!(!Op::Spawn.runs_ahead());
        assert!(!Op::Fail("f".into()).runs_ahead());
        assert!(Op::Join(t1).runs_ahead());
    }

    #[test]
    fn producer_consumer_with_condvar() {
        let mut spec = ResourceSpec::new();
        let l = spec.lock("m");
        let cv = spec.cond("cv");
        let q = spec.var("queued", 0);
        let consumed = spec.var("consumed", 0);
        let out = run(
            quick_config(),
            spec,
            &mut RandomScheduler::new(5),
            &mut NullObserver,
            move |ctx| {
                let cons = ctx.spawn("consumer", move |ctx| {
                    for _ in 0..5 {
                        ctx.lock(l);
                        while ctx.read(q) == 0 {
                            ctx.cond_wait(cv, l);
                        }
                        let n = ctx.read(q);
                        ctx.write(q, n - 1);
                        ctx.fetch_add(consumed, 1);
                        ctx.unlock(l);
                    }
                });
                for _ in 0..5 {
                    ctx.lock(l);
                    let n = ctx.read(q);
                    ctx.write(q, n + 1);
                    ctx.notify_one(cv);
                    ctx.unlock(l);
                }
                ctx.join(cons);
                let total = ctx.read(consumed);
                ctx.check(total == 5, "consumer missed items");
            },
        );
        assert_eq!(out.status, RunStatus::Completed, "{}", out.status);
    }

    #[test]
    fn barrier_synchronizes_phases() {
        let mut spec = ResourceSpec::new();
        let bar = spec.barrier("b", 3);
        let phase_sum = spec.var("sum", 0);
        let out = run(
            quick_config(),
            spec,
            &mut RandomScheduler::new(9),
            &mut NullObserver,
            move |ctx| {
                let kids: Vec<ThreadId> = (0..3)
                    .map(|i| {
                        ctx.spawn(&format!("w{i}"), move |ctx| {
                            ctx.fetch_add(phase_sum, 1);
                            ctx.barrier_wait(bar);
                            // After the barrier every thread must see all 3
                            // phase-1 increments.
                            let s = ctx.read(phase_sum);
                            ctx.check(s >= 3, "barrier let a thread through early");
                        })
                    })
                    .collect();
                for k in kids {
                    ctx.join(k);
                }
            },
        );
        assert_eq!(out.status, RunStatus::Completed, "{}", out.status);
    }

    #[test]
    fn server_accepts_scripted_sessions_and_responds() {
        let mut spec = ResourceSpec::new();
        let served = spec.var("served", 0);
        let mut config = quick_config();
        config.world = WorldConfig::default()
            .with_session(Session::new(0, b"GET /a".to_vec()))
            .with_session(Session::new(10, b"GET /b".to_vec()));
        let out = run(
            config,
            spec,
            &mut RandomScheduler::new(2),
            &mut NullObserver,
            move |ctx| {
                while let Some(conn) = ctx.sys_accept() {
                    let req = ctx.sys_recv(conn, 64).unwrap_or_default();
                    ctx.sys_send(conn, b"200 ");
                    ctx.sys_send(conn, &req);
                    ctx.sys_net_close(conn);
                    ctx.fetch_add(served, 1);
                }
                let n = ctx.read(served);
                ctx.check(n == 2, "not all sessions served");
            },
        );
        assert_eq!(out.status, RunStatus::Completed, "{}", out.status);
        assert_eq!(out.conn_outputs[0], b"200 GET /a".to_vec());
        assert_eq!(out.conn_outputs[1], b"200 GET /b".to_vec());
    }

    #[test]
    fn identical_seeds_give_identical_runs() {
        let run_once = |seed: u64| -> (Vec<ThreadId>, u64) {
            let mut spec = ResourceSpec::new();
            let x = spec.var("x", 0);
            let out = run(
                quick_config(),
                spec,
                &mut RandomScheduler::new(seed),
                &mut NullObserver,
                move |ctx| {
                    let kids: Vec<ThreadId> = (0..3)
                        .map(|i| {
                            ctx.spawn(&format!("w{i}"), move |ctx| {
                                for _ in 0..15 {
                                    let v = ctx.read(x);
                                    ctx.write(x, v + 1);
                                }
                            })
                        })
                        .collect();
                    for k in kids {
                        ctx.join(k);
                    }
                },
            );
            let final_x = out
                .trace
                .events()
                .iter()
                .rev()
                .find_map(|e| match e.op {
                    Op::Write(_, v) => Some(v),
                    _ => None,
                })
                .unwrap_or_default();
            (out.schedule, final_x)
        };
        let (s1, x1) = run_once(77);
        let (s2, x2) = run_once(77);
        assert_eq!(s1, s2);
        assert_eq!(x1, x2);
    }

    #[test]
    fn scripted_replay_of_a_recorded_schedule_is_identical() {
        let program = |ctx: &mut Ctx, x: VarId| {
            let kids: Vec<ThreadId> = (0..3)
                .map(|i| {
                    ctx.spawn(&format!("w{i}"), move |ctx| {
                        for _ in 0..10 {
                            let v = ctx.read(x);
                            ctx.compute(3);
                            ctx.write(x, v + 1);
                        }
                    })
                })
                .collect();
            for k in kids {
                ctx.join(k);
            }
        };
        let mut spec1 = ResourceSpec::new();
        let x1 = spec1.var("x", 0);
        let first = run(
            quick_config(),
            spec1,
            &mut RandomScheduler::new(123),
            &mut NullObserver,
            move |ctx| program(ctx, x1),
        );
        let mut spec2 = ResourceSpec::new();
        let x2 = spec2.var("x", 0);
        let mut scripted = ScriptedScheduler::new(first.schedule.clone());
        let second = run(
            quick_config(),
            spec2,
            &mut scripted,
            &mut NullObserver,
            move |ctx| program(ctx, x2),
        );
        assert_eq!(second.status, RunStatus::Completed);
        assert_eq!(first.schedule, second.schedule);
        assert_eq!(first.trace.len(), second.trace.len());
        for (a, b) in first.trace.events().iter().zip(second.trace.events()) {
            assert_eq!(a, b);
        }
    }

    #[test]
    fn step_limit_stops_runaway_programs() {
        let mut spec = ResourceSpec::new();
        let x = spec.var("x", 0);
        let mut config = quick_config();
        config.max_steps = 500;
        let out = run(
            config,
            spec,
            &mut RoundRobinScheduler::new(),
            &mut NullObserver,
            move |ctx| loop {
                ctx.fetch_add(x, 1);
            },
        );
        assert_eq!(out.status, RunStatus::StepLimit);
        assert!(out.stats.total_ops <= 501);
    }

    #[test]
    fn stdout_and_files_are_captured() {
        let spec = ResourceSpec::new();
        let out = run(
            quick_config(),
            spec,
            &mut RoundRobinScheduler::new(),
            &mut NullObserver,
            |ctx| {
                ctx.println("hello");
                let fd = ctx.sys_open("data.log");
                ctx.sys_write(fd, b"abc");
                ctx.sys_close(fd);
            },
        );
        assert_eq!(out.stdout, b"hello\n");
        assert_eq!(out.files.get("data.log").unwrap(), &b"abc".to_vec());
    }

    #[test]
    fn virtual_time_reflects_compute_costs() {
        let spec = ResourceSpec::new();
        let out = run(
            quick_config(),
            spec,
            &mut RoundRobinScheduler::new(),
            &mut NullObserver,
            |ctx| {
                ctx.compute(10_000);
            },
        );
        assert!(out.time.work >= 10_000);
        assert!(out.time.span >= 10_000);
    }
}
