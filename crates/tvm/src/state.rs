//! Shared program state: resources, enabledness, and operation semantics.
//!
//! [`VmState`] owns every shared object a program can touch. The coordinator
//! is its only user, so no internal locking is needed; determinism follows
//! from the coordinator applying exactly one operation at a time.
//!
//! Resources are declared up front through a [`ResourceSpec`] — dense id
//! allocation at declaration time keeps ids stable across runs regardless of
//! scheduling, which every recorder and replayer in the stack relies on.

use crate::ids::{
    BarrierId, BufId, ChanId, CondId, LockId, RwLockId, SemId, ThreadId, VarId,
};
use crate::op::{BufOp, Op, OpResult, SyscallOp};
use crate::sys::{AcceptStatus, World, WorldConfig};
use std::collections::VecDeque;

/// Up-front declaration of every shared resource a program uses.
///
/// Declaration returns the id immediately, so application setup code reads
/// naturally:
///
/// ```
/// use pres_tvm::state::ResourceSpec;
///
/// let mut spec = ResourceSpec::new();
/// let counter = spec.var("requests_served", 0);
/// let queue_lock = spec.lock("queue_lock");
/// let not_empty = spec.cond("queue_not_empty");
/// assert_eq!(spec.var_name(counter), "requests_served");
/// # let _ = (queue_lock, not_empty);
/// ```
#[derive(Debug, Clone, Default)]
pub struct ResourceSpec {
    vars: Vec<(String, u64)>,
    bufs: Vec<String>,
    locks: Vec<String>,
    rwlocks: Vec<String>,
    conds: Vec<String>,
    barriers: Vec<(String, u32)>,
    sems: Vec<(String, u64)>,
    chans: Vec<String>,
}

impl ResourceSpec {
    /// An empty specification.
    pub fn new() -> Self {
        Self::default()
    }

    /// Declares a shared scalar with an initial value.
    pub fn var(&mut self, name: &str, init: u64) -> VarId {
        self.vars.push((name.to_string(), init));
        VarId(self.vars.len() as u32 - 1)
    }

    /// Declares a block of `n` shared scalars (`name[0]`, `name[1]`, …),
    /// returning the id of element 0; elements are contiguous.
    pub fn var_array(&mut self, name: &str, n: u32, init: u64) -> VarId {
        let first = VarId(self.vars.len() as u32);
        for i in 0..n {
            self.vars.push((format!("{name}[{i}]"), init));
        }
        first
    }

    /// Declares a shared byte buffer.
    pub fn buf(&mut self, name: &str) -> BufId {
        self.bufs.push(name.to_string());
        BufId(self.bufs.len() as u32 - 1)
    }

    /// Declares a mutex.
    pub fn lock(&mut self, name: &str) -> LockId {
        self.locks.push(name.to_string());
        LockId(self.locks.len() as u32 - 1)
    }

    /// Declares a block of `n` mutexes, returning the id of element 0.
    pub fn lock_array(&mut self, name: &str, n: u32) -> LockId {
        let first = LockId(self.locks.len() as u32);
        for i in 0..n {
            self.locks.push(format!("{name}[{i}]"));
        }
        first
    }

    /// Declares a reader-writer lock.
    pub fn rwlock(&mut self, name: &str) -> RwLockId {
        self.rwlocks.push(name.to_string());
        RwLockId(self.rwlocks.len() as u32 - 1)
    }

    /// Declares a condition variable.
    pub fn cond(&mut self, name: &str) -> CondId {
        self.conds.push(name.to_string());
        CondId(self.conds.len() as u32 - 1)
    }

    /// Declares a cyclic barrier for `parties` threads.
    pub fn barrier(&mut self, name: &str, parties: u32) -> BarrierId {
        self.barriers.push((name.to_string(), parties));
        BarrierId(self.barriers.len() as u32 - 1)
    }

    /// Declares a counting semaphore with an initial count.
    pub fn sem(&mut self, name: &str, init: u64) -> SemId {
        self.sems.push((name.to_string(), init));
        SemId(self.sems.len() as u32 - 1)
    }

    /// Declares a FIFO channel.
    pub fn chan(&mut self, name: &str) -> ChanId {
        self.chans.push(name.to_string());
        ChanId(self.chans.len() as u32 - 1)
    }

    /// The declared name of a variable.
    pub fn var_name(&self, id: VarId) -> &str {
        &self.vars[id.index()].0
    }

    /// The declared name of a lock.
    pub fn lock_name(&self, id: LockId) -> &str {
        &self.locks[id.index()]
    }

    /// Number of declared variables.
    pub fn var_count(&self) -> usize {
        self.vars.len()
    }
}

#[derive(Debug, Clone, Default)]
struct LockState {
    holder: Option<ThreadId>,
}

#[derive(Debug, Clone, Default)]
struct RwState {
    writer: Option<ThreadId>,
    readers: Vec<ThreadId>,
}

#[derive(Debug, Clone, Default)]
struct CondState {
    /// Waiters not yet notified, in wait order.
    waiting: VecDeque<ThreadId>,
    /// Waiters that have been notified and must reacquire their lock.
    notified: Vec<ThreadId>,
}

#[derive(Debug, Clone)]
struct BarrierState {
    parties: u32,
    arrived: Vec<ThreadId>,
    /// Threads released by a completed generation that have not yet resumed.
    released: Vec<ThreadId>,
    generation: u64,
}

#[derive(Debug, Clone)]
struct SemState {
    count: u64,
}

#[derive(Debug, Clone, Default)]
struct ChanState {
    queue: VecDeque<u64>,
    closed: bool,
}

/// The result of applying an operation.
#[derive(Debug)]
pub enum Applied {
    /// The operation completed; the thread resumes with this result.
    Done(OpResult),
    /// The operation transitioned state but the thread stays blocked, its
    /// pending operation rewritten (condition waits, barrier waits).
    BlockedRewrite(Op),
    /// The operation was a misuse of the API; the thread crashes.
    Fault(String),
}

/// All shared state of a running program.
#[derive(Debug)]
pub struct VmState {
    spec: ResourceSpec,
    vars: Vec<u64>,
    bufs: Vec<Vec<u8>>,
    locks: Vec<LockState>,
    rwlocks: Vec<RwState>,
    conds: Vec<CondState>,
    barriers: Vec<BarrierState>,
    sems: Vec<SemState>,
    chans: Vec<ChanState>,
    world: World,
}

impl VmState {
    /// Instantiates state from a resource specification and world config.
    pub fn new(spec: ResourceSpec, world: WorldConfig) -> Self {
        VmState {
            vars: spec.vars.iter().map(|(_, init)| *init).collect(),
            bufs: vec![Vec::new(); spec.bufs.len()],
            locks: vec![LockState::default(); spec.locks.len()],
            rwlocks: vec![RwState::default(); spec.rwlocks.len()],
            conds: vec![CondState::default(); spec.conds.len()],
            barriers: spec
                .barriers
                .iter()
                .map(|(_, parties)| BarrierState {
                    parties: *parties,
                    arrived: Vec::new(),
                    released: Vec::new(),
                    generation: 0,
                })
                .collect(),
            sems: spec
                .sems
                .iter()
                .map(|(_, init)| SemState { count: *init })
                .collect(),
            chans: vec![ChanState::default(); spec.chans.len()],
            world: World::new(world),
            spec,
        }
    }

    /// The resource specification this state was built from.
    pub fn spec(&self) -> &ResourceSpec {
        &self.spec
    }

    /// The simulated world.
    pub fn world(&self) -> &World {
        &self.world
    }

    /// Whether `tid` could apply `op` right now without blocking.
    ///
    /// `Join` enabledness depends on thread liveness, which the coordinator
    /// owns; it is handled there and must not be passed here.
    pub fn enabled(&self, tid: ThreadId, op: &Op, step: u64) -> bool {
        match op {
            Op::LockAcquire(l) => self.locks[l.index()].holder.is_none(),
            Op::RwAcquireRead(rw) => self.rwlocks[rw.index()].writer.is_none(),
            Op::RwAcquireWrite(rw) => {
                let s = &self.rwlocks[rw.index()];
                s.writer.is_none() && s.readers.is_empty()
            }
            Op::CondReacquire(c, l) => {
                self.conds[c.index()].notified.contains(&tid)
                    && self.locks[l.index()].holder.is_none()
            }
            Op::BarrierResume(b) => self.barriers[b.index()].released.contains(&tid),
            Op::SemAcquire(s) => self.sems[s.index()].count > 0,
            Op::ChanRecv(ch) => {
                let c = &self.chans[ch.index()];
                !c.queue.is_empty() || c.closed
            }
            Op::Syscall(SyscallOp::NetAccept) => {
                !matches!(self.world.accept_status(step), AcceptStatus::WaitUntil(_))
            }
            Op::Join(_) => {
                unreachable!("Join enabledness is decided by the coordinator")
            }
            _ => true,
        }
    }

    /// If `tid`'s announced `op` is blocked, what is it waiting on?
    /// Used by deadlock analysis.
    pub fn block_reason(&self, tid: ThreadId, op: &Op, step: u64) -> Option<BlockReason> {
        if matches!(op, Op::Join(_)) {
            return None; // handled by the coordinator
        }
        if self.enabled(tid, op, step) {
            return None;
        }
        Some(match op {
            Op::LockAcquire(l) => BlockReason::Lock {
                lock: *l,
                holder: self.locks[l.index()].holder,
            },
            Op::RwAcquireRead(rw) | Op::RwAcquireWrite(rw) => BlockReason::RwLock {
                rwlock: *rw,
                writer: self.rwlocks[rw.index()].writer,
                readers: self.rwlocks[rw.index()].readers.clone(),
            },
            Op::CondReacquire(c, l) => {
                if self.conds[c.index()].notified.contains(&tid) {
                    BlockReason::Lock {
                        lock: *l,
                        holder: self.locks[l.index()].holder,
                    }
                } else {
                    BlockReason::CondNotify { cond: *c }
                }
            }
            Op::SemAcquire(s) => BlockReason::Semaphore { sem: *s },
            Op::ChanRecv(ch) => BlockReason::Channel { chan: *ch },
            Op::Syscall(SyscallOp::NetAccept) => BlockReason::NetArrival,
            other => BlockReason::Other {
                what: other.mnemonic(),
            },
        })
    }

    /// Applies an enabled operation for `tid`.
    ///
    /// `now` is the virtual clock and `step` the VM step counter (used by
    /// the simulated world).
    ///
    /// # Panics
    ///
    /// Panics if called with an op the coordinator should have handled
    /// itself (`Spawn`, `Join`, `Fail`, thread lifecycle markers are applied
    /// here only for their trivial results).
    pub fn apply(&mut self, tid: ThreadId, op: &Op, now: u64, step: u64) -> Applied {
        match op {
            Op::ThreadStart | Op::ThreadExit | Op::Yield => Applied::Done(OpResult::Unit),
            Op::Compute(_) | Op::Func(_) | Op::BasicBlock(_) => Applied::Done(OpResult::Unit),
            Op::Read(v) => Applied::Done(OpResult::Value(self.vars[v.index()])),
            Op::Write(v, val) => {
                self.vars[v.index()] = *val;
                Applied::Done(OpResult::Unit)
            }
            Op::FetchAdd(v, delta) => {
                let old = self.vars[v.index()];
                self.vars[v.index()] = old.wrapping_add_signed(*delta);
                Applied::Done(OpResult::Value(old))
            }
            Op::CompareSwap(v, expect, new) => {
                let old = self.vars[v.index()];
                if old == *expect {
                    self.vars[v.index()] = *new;
                }
                Applied::Done(OpResult::Value(old))
            }
            Op::Buf(b, bufop) => self.apply_buf(*b, bufop),
            Op::LockAcquire(l) => {
                let s = &mut self.locks[l.index()];
                debug_assert!(s.holder.is_none(), "apply of disabled LockAcquire");
                s.holder = Some(tid);
                Applied::Done(OpResult::Unit)
            }
            Op::LockRelease(l) => {
                let s = &mut self.locks[l.index()];
                if s.holder != Some(tid) {
                    return Applied::Fault(format!(
                        "{tid} released {l} ({}) which it does not hold",
                        self.spec.lock_name(*l)
                    ));
                }
                s.holder = None;
                Applied::Done(OpResult::Unit)
            }
            Op::RwAcquireRead(rw) => {
                self.rwlocks[rw.index()].readers.push(tid);
                Applied::Done(OpResult::Unit)
            }
            Op::RwAcquireWrite(rw) => {
                self.rwlocks[rw.index()].writer = Some(tid);
                Applied::Done(OpResult::Unit)
            }
            Op::RwRelease(rw) => {
                let s = &mut self.rwlocks[rw.index()];
                if s.writer == Some(tid) {
                    s.writer = None;
                } else if let Some(pos) = s.readers.iter().position(|r| *r == tid) {
                    s.readers.remove(pos);
                } else {
                    return Applied::Fault(format!("{tid} released {rw} which it does not hold"));
                }
                Applied::Done(OpResult::Unit)
            }
            Op::CondWait(c, l) => {
                if self.locks[l.index()].holder != Some(tid) {
                    return Applied::Fault(format!(
                        "{tid} waits on {c} without holding {l}"
                    ));
                }
                self.locks[l.index()].holder = None;
                self.conds[c.index()].waiting.push_back(tid);
                Applied::BlockedRewrite(Op::CondReacquire(*c, *l))
            }
            Op::CondReacquire(c, l) => {
                let cond = &mut self.conds[c.index()];
                let pos = cond
                    .notified
                    .iter()
                    .position(|t| *t == tid)
                    .expect("apply of CondReacquire without notification");
                cond.notified.remove(pos);
                debug_assert!(self.locks[l.index()].holder.is_none());
                self.locks[l.index()].holder = Some(tid);
                Applied::Done(OpResult::Unit)
            }
            Op::CondNotifyOne(c) => {
                let cond = &mut self.conds[c.index()];
                if let Some(w) = cond.waiting.pop_front() {
                    cond.notified.push(w);
                }
                Applied::Done(OpResult::Unit)
            }
            Op::CondNotifyAll(c) => {
                let cond = &mut self.conds[c.index()];
                while let Some(w) = cond.waiting.pop_front() {
                    cond.notified.push(w);
                }
                Applied::Done(OpResult::Unit)
            }
            Op::BarrierWait(b) => {
                let bar = &mut self.barriers[b.index()];
                bar.arrived.push(tid);
                if bar.arrived.len() as u32 >= bar.parties {
                    // The final arrival releases the generation: everyone
                    // else becomes resumable, the releaser completes now.
                    bar.generation += 1;
                    let releaser = tid;
                    bar.released
                        .extend(bar.arrived.drain(..).filter(|t| *t != releaser));
                    Applied::Done(OpResult::Unit)
                } else {
                    Applied::BlockedRewrite(Op::BarrierResume(*b))
                }
            }
            Op::BarrierResume(b) => {
                let bar = &mut self.barriers[b.index()];
                let pos = bar
                    .released
                    .iter()
                    .position(|t| *t == tid)
                    .expect("apply of BarrierResume without release");
                bar.released.remove(pos);
                Applied::Done(OpResult::Unit)
            }
            Op::SemAcquire(s) => {
                let sem = &mut self.sems[s.index()];
                debug_assert!(sem.count > 0, "apply of disabled SemAcquire");
                sem.count -= 1;
                Applied::Done(OpResult::Unit)
            }
            Op::SemRelease(s) => {
                self.sems[s.index()].count += 1;
                Applied::Done(OpResult::Unit)
            }
            Op::ChanSend(ch, v) => {
                let c = &mut self.chans[ch.index()];
                if c.closed {
                    return Applied::Fault(format!("{tid} sent on closed {ch}"));
                }
                c.queue.push_back(*v);
                Applied::Done(OpResult::Unit)
            }
            Op::ChanRecv(ch) => {
                let c = &mut self.chans[ch.index()];
                match c.queue.pop_front() {
                    Some(v) => Applied::Done(OpResult::MaybeValue(Some(v))),
                    None => {
                        debug_assert!(c.closed, "apply of disabled ChanRecv");
                        Applied::Done(OpResult::MaybeValue(None))
                    }
                }
            }
            Op::ChanClose(ch) => {
                self.chans[ch.index()].closed = true;
                Applied::Done(OpResult::Unit)
            }
            Op::Syscall(sys) => match self.world.apply(sys, now, step) {
                Ok(result) => Applied::Done(result),
                Err(msg) => Applied::Fault(msg),
            },
            Op::Spawn | Op::Join(_) | Op::Fail(_) => {
                panic!("{op:?} must be handled by the coordinator")
            }
        }
    }

    fn apply_buf(&mut self, b: BufId, op: &BufOp) -> Applied {
        let buf = &mut self.bufs[b.index()];
        match op {
            BufOp::Append(data) => {
                buf.extend_from_slice(data);
                Applied::Done(OpResult::Unit)
            }
            BufOp::ReadAll => Applied::Done(OpResult::Bytes(buf.clone())),
            BufOp::Len => Applied::Done(OpResult::Value(buf.len() as u64)),
            BufOp::Clear => {
                buf.clear();
                Applied::Done(OpResult::Unit)
            }
            BufOp::Set { index, byte } => {
                if *index >= buf.len() {
                    return Applied::Fault(format!(
                        "buf set out of bounds: index {index} len {}",
                        buf.len()
                    ));
                }
                buf[*index] = *byte;
                Applied::Done(OpResult::Unit)
            }
        }
    }

    /// The party count of a barrier.
    pub fn barrier_parties(&self, b: BarrierId) -> u32 {
        self.barriers[b.index()].parties
    }

    /// The current holder of a mutex, if any.
    pub fn lock_holder(&self, l: LockId) -> Option<ThreadId> {
        self.locks[l.index()].holder
    }

    /// Current value of a shared variable (diagnostics only).
    pub fn var_value(&self, v: VarId) -> u64 {
        self.vars[v.index()]
    }

    /// Mutable access to the world (coordinator use).
    pub fn world_mut(&mut self) -> &mut World {
        &mut self.world
    }

    /// Serializes every mutable piece of shared state into a snapshot
    /// section (see [`crate::snapshot`]). The [`ResourceSpec`] is
    /// config-derived — identical on replay by construction — so it is
    /// not captured.
    pub fn snapshot_into(&self, e: &mut crate::bytes::Writer) {
        fn tid_list(e: &mut crate::bytes::Writer, tids: &[ThreadId]) {
            e.varint(tids.len() as u64);
            for t in tids {
                e.varint(u64::from(t.0));
            }
        }
        fn opt_tid(e: &mut crate::bytes::Writer, t: Option<ThreadId>) {
            e.varint(t.map_or(0, |t| u64::from(t.0) + 1));
        }
        e.varint(self.vars.len() as u64);
        for v in &self.vars {
            e.varint(*v);
        }
        e.varint(self.bufs.len() as u64);
        for b in &self.bufs {
            e.bytes(b);
        }
        e.varint(self.locks.len() as u64);
        for l in &self.locks {
            opt_tid(e, l.holder);
        }
        e.varint(self.rwlocks.len() as u64);
        for rw in &self.rwlocks {
            opt_tid(e, rw.writer);
            tid_list(e, &rw.readers);
        }
        e.varint(self.conds.len() as u64);
        for c in &self.conds {
            let waiting: Vec<ThreadId> = c.waiting.iter().copied().collect();
            tid_list(e, &waiting);
            tid_list(e, &c.notified);
        }
        e.varint(self.barriers.len() as u64);
        for b in &self.barriers {
            e.varint(u64::from(b.parties));
            tid_list(e, &b.arrived);
            tid_list(e, &b.released);
            e.varint(b.generation);
        }
        e.varint(self.sems.len() as u64);
        for s in &self.sems {
            e.varint(s.count);
        }
        e.varint(self.chans.len() as u64);
        for c in &self.chans {
            e.varint(c.queue.len() as u64);
            for v in &c.queue {
                e.varint(*v);
            }
            e.bool(c.closed);
        }
        self.world.snapshot_into(e);
    }
}

/// Why a blocked thread cannot proceed; feeds deadlock analysis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BlockReason {
    /// Waiting for a mutex.
    Lock {
        /// The contended lock.
        lock: LockId,
        /// Its current holder (None only transiently).
        holder: Option<ThreadId>,
    },
    /// Waiting for a reader-writer lock.
    RwLock {
        /// The contended lock.
        rwlock: RwLockId,
        /// Current writer, if any.
        writer: Option<ThreadId>,
        /// Current readers.
        readers: Vec<ThreadId>,
    },
    /// Waiting for a condition-variable notification.
    CondNotify {
        /// The condition variable.
        cond: CondId,
    },
    /// Waiting for a semaphore permit.
    Semaphore {
        /// The semaphore.
        sem: SemId,
    },
    /// Waiting for a channel message.
    Channel {
        /// The channel.
        chan: ChanId,
    },
    /// Waiting for a scripted connection to arrive.
    NetArrival,
    /// Any other wait (barrier generations, etc.).
    Other {
        /// Mnemonic of the blocked op.
        what: &'static str,
    },
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::ROOT_THREAD;

    fn state(f: impl FnOnce(&mut ResourceSpec)) -> VmState {
        let mut spec = ResourceSpec::new();
        f(&mut spec);
        VmState::new(spec, WorldConfig::default())
    }

    #[test]
    fn var_read_write_fetch_add() {
        let mut s = state(|spec| {
            spec.var("x", 10);
        });
        let v = VarId(0);
        match s.apply(ROOT_THREAD, &Op::Read(v), 0, 0) {
            Applied::Done(OpResult::Value(10)) => {}
            other => panic!("{other:?}"),
        }
        s.apply(ROOT_THREAD, &Op::Write(v, 5), 0, 0);
        match s.apply(ROOT_THREAD, &Op::FetchAdd(v, -3), 0, 0) {
            Applied::Done(OpResult::Value(5)) => {}
            other => panic!("{other:?}"),
        }
        assert_eq!(s.var_value(v), 2);
    }

    #[test]
    fn compare_swap_only_succeeds_on_match() {
        let mut s = state(|spec| {
            spec.var("x", 7);
        });
        let v = VarId(0);
        s.apply(ROOT_THREAD, &Op::CompareSwap(v, 9, 1), 0, 0);
        assert_eq!(s.var_value(v), 7);
        s.apply(ROOT_THREAD, &Op::CompareSwap(v, 7, 1), 0, 0);
        assert_eq!(s.var_value(v), 1);
    }

    #[test]
    fn lock_mutual_exclusion_and_misuse_fault() {
        let mut s = state(|spec| {
            spec.lock("m");
        });
        let l = LockId(0);
        let (t0, t1) = (ThreadId(0), ThreadId(1));
        assert!(s.enabled(t0, &Op::LockAcquire(l), 0));
        s.apply(t0, &Op::LockAcquire(l), 0, 0);
        assert!(!s.enabled(t1, &Op::LockAcquire(l), 0));
        // Releasing someone else's lock is a fault.
        match s.apply(t1, &Op::LockRelease(l), 0, 0) {
            Applied::Fault(msg) => assert!(msg.contains("does not hold")),
            other => panic!("{other:?}"),
        }
        s.apply(t0, &Op::LockRelease(l), 0, 0);
        assert!(s.enabled(t1, &Op::LockAcquire(l), 0));
    }

    #[test]
    fn cond_wait_releases_lock_and_requires_notify() {
        let mut s = state(|spec| {
            spec.lock("m");
            spec.cond("cv");
        });
        let (l, c) = (LockId(0), CondId(0));
        let (waiter, notifier) = (ThreadId(1), ThreadId(2));
        s.apply(waiter, &Op::LockAcquire(l), 0, 0);
        let rewritten = match s.apply(waiter, &Op::CondWait(c, l), 0, 0) {
            Applied::BlockedRewrite(op) => op,
            other => panic!("{other:?}"),
        };
        assert_eq!(rewritten, Op::CondReacquire(c, l));
        // The lock was released by the wait.
        assert_eq!(s.lock_holder(l), None);
        // Not enabled until notified, even though the lock is free.
        assert!(!s.enabled(waiter, &rewritten, 0));
        s.apply(notifier, &Op::CondNotifyOne(c), 0, 0);
        assert!(s.enabled(waiter, &rewritten, 0));
        s.apply(waiter, &rewritten, 0, 0);
        assert_eq!(s.lock_holder(l), Some(waiter));
    }

    #[test]
    fn notify_with_no_waiters_is_lost() {
        let mut s = state(|spec| {
            spec.lock("m");
            spec.cond("cv");
        });
        let (l, c) = (LockId(0), CondId(0));
        // Notify first (lost), then wait: waiter stays blocked.
        s.apply(ThreadId(2), &Op::CondNotifyOne(c), 0, 0);
        s.apply(ThreadId(1), &Op::LockAcquire(l), 0, 0);
        let rewritten = match s.apply(ThreadId(1), &Op::CondWait(c, l), 0, 0) {
            Applied::BlockedRewrite(op) => op,
            other => panic!("{other:?}"),
        };
        assert!(!s.enabled(ThreadId(1), &rewritten, 0));
    }

    #[test]
    fn notify_all_wakes_every_waiter() {
        let mut s = state(|spec| {
            spec.lock("m");
            spec.cond("cv");
        });
        let (l, c) = (LockId(0), CondId(0));
        for t in 1..=3u32 {
            s.apply(ThreadId(t), &Op::LockAcquire(l), 0, 0);
            s.apply(ThreadId(t), &Op::CondWait(c, l), 0, 0);
        }
        s.apply(ThreadId(9), &Op::CondNotifyAll(c), 0, 0);
        for t in 1..=3u32 {
            assert!(s
                .conds[c.index()]
                .notified
                .contains(&ThreadId(t)));
        }
    }

    #[test]
    fn barrier_releases_on_last_arrival() {
        let mut s = state(|spec| {
            spec.barrier("b", 3);
        });
        let b = BarrierId(0);
        let resume = Op::BarrierResume(b);
        match s.apply(ThreadId(1), &Op::BarrierWait(b), 0, 0) {
            Applied::BlockedRewrite(Op::BarrierResume(_)) => {}
            other => panic!("{other:?}"),
        }
        // Not resumable until the generation completes.
        assert!(!s.enabled(ThreadId(1), &resume, 0));
        match s.apply(ThreadId(2), &Op::BarrierWait(b), 0, 0) {
            Applied::BlockedRewrite(_) => {}
            other => panic!("{other:?}"),
        }
        // Third arrival completes immediately and releases the others.
        match s.apply(ThreadId(3), &Op::BarrierWait(b), 0, 0) {
            Applied::Done(_) => {}
            other => panic!("{other:?}"),
        }
        assert!(s.enabled(ThreadId(1), &resume, 0));
        assert!(s.enabled(ThreadId(2), &resume, 0));
        s.apply(ThreadId(1), &resume, 0, 0);
        assert!(!s.enabled(ThreadId(1), &resume, 0));
        s.apply(ThreadId(2), &resume, 0, 0);
        // Reusable: next generation starts empty.
        match s.apply(ThreadId(1), &Op::BarrierWait(b), 0, 0) {
            Applied::BlockedRewrite(_) => {}
            other => panic!("{other:?}"),
        }
        assert!(!s.enabled(ThreadId(1), &resume, 0));
    }

    #[test]
    fn semaphore_counts_permits() {
        let mut s = state(|spec| {
            spec.sem("s", 2);
        });
        let sem = SemId(0);
        assert!(s.enabled(ThreadId(1), &Op::SemAcquire(sem), 0));
        s.apply(ThreadId(1), &Op::SemAcquire(sem), 0, 0);
        s.apply(ThreadId(2), &Op::SemAcquire(sem), 0, 0);
        assert!(!s.enabled(ThreadId(3), &Op::SemAcquire(sem), 0));
        s.apply(ThreadId(1), &Op::SemRelease(sem), 0, 0);
        assert!(s.enabled(ThreadId(3), &Op::SemAcquire(sem), 0));
    }

    #[test]
    fn channel_fifo_close_semantics() {
        let mut s = state(|spec| {
            spec.chan("q");
        });
        let ch = ChanId(0);
        assert!(!s.enabled(ThreadId(1), &Op::ChanRecv(ch), 0));
        s.apply(ThreadId(0), &Op::ChanSend(ch, 10), 0, 0);
        s.apply(ThreadId(0), &Op::ChanSend(ch, 20), 0, 0);
        match s.apply(ThreadId(1), &Op::ChanRecv(ch), 0, 0) {
            Applied::Done(OpResult::MaybeValue(Some(10))) => {}
            other => panic!("{other:?}"),
        }
        s.apply(ThreadId(0), &Op::ChanClose(ch), 0, 0);
        // Drain remaining, then observe None.
        match s.apply(ThreadId(1), &Op::ChanRecv(ch), 0, 0) {
            Applied::Done(OpResult::MaybeValue(Some(20))) => {}
            other => panic!("{other:?}"),
        }
        assert!(s.enabled(ThreadId(1), &Op::ChanRecv(ch), 0));
        match s.apply(ThreadId(1), &Op::ChanRecv(ch), 0, 0) {
            Applied::Done(OpResult::MaybeValue(None)) => {}
            other => panic!("{other:?}"),
        }
        // Sending on a closed channel is a fault.
        match s.apply(ThreadId(0), &Op::ChanSend(ch, 1), 0, 0) {
            Applied::Fault(_) => {}
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn rwlock_allows_shared_readers_excludes_writer() {
        let mut s = state(|spec| {
            spec.rwlock("rw");
        });
        let rw = RwLockId(0);
        s.apply(ThreadId(1), &Op::RwAcquireRead(rw), 0, 0);
        assert!(s.enabled(ThreadId(2), &Op::RwAcquireRead(rw), 0));
        assert!(!s.enabled(ThreadId(3), &Op::RwAcquireWrite(rw), 0));
        s.apply(ThreadId(2), &Op::RwAcquireRead(rw), 0, 0);
        s.apply(ThreadId(1), &Op::RwRelease(rw), 0, 0);
        s.apply(ThreadId(2), &Op::RwRelease(rw), 0, 0);
        assert!(s.enabled(ThreadId(3), &Op::RwAcquireWrite(rw), 0));
        s.apply(ThreadId(3), &Op::RwAcquireWrite(rw), 0, 0);
        assert!(!s.enabled(ThreadId(1), &Op::RwAcquireRead(rw), 0));
    }

    #[test]
    fn buffers_support_append_read_set() {
        let mut s = state(|spec| {
            spec.buf("log");
        });
        let b = BufId(0);
        s.apply(ROOT_THREAD, &Op::Buf(b, BufOp::Append(b"ab".to_vec())), 0, 0);
        match s.apply(ROOT_THREAD, &Op::Buf(b, BufOp::Len), 0, 0) {
            Applied::Done(OpResult::Value(2)) => {}
            other => panic!("{other:?}"),
        }
        s.apply(
            ROOT_THREAD,
            &Op::Buf(
                b,
                BufOp::Set {
                    index: 0,
                    byte: b'z',
                },
            ),
            0,
            0,
        );
        match s.apply(ROOT_THREAD, &Op::Buf(b, BufOp::ReadAll), 0, 0) {
            Applied::Done(OpResult::Bytes(bytes)) => assert_eq!(bytes, b"zb"),
            other => panic!("{other:?}"),
        }
        match s.apply(
            ROOT_THREAD,
            &Op::Buf(
                b,
                BufOp::Set {
                    index: 99,
                    byte: 0,
                },
            ),
            0,
            0,
        ) {
            Applied::Fault(_) => {}
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn block_reason_identifies_lock_holder() {
        let mut s = state(|spec| {
            spec.lock("m");
        });
        let l = LockId(0);
        s.apply(ThreadId(1), &Op::LockAcquire(l), 0, 0);
        match s.block_reason(ThreadId(2), &Op::LockAcquire(l), 0) {
            Some(BlockReason::Lock { lock, holder }) => {
                assert_eq!(lock, l);
                assert_eq!(holder, Some(ThreadId(1)));
            }
            other => panic!("{other:?}"),
        }
        assert!(s.block_reason(ThreadId(1), &Op::Yield, 0).is_none());
    }

    #[test]
    fn resource_spec_allocates_dense_ids() {
        let mut spec = ResourceSpec::new();
        let a = spec.var("a", 0);
        let b = spec.var("b", 1);
        let arr = spec.var_array("arr", 3, 9);
        assert_eq!(a, VarId(0));
        assert_eq!(b, VarId(1));
        assert_eq!(arr, VarId(2));
        assert_eq!(spec.var_count(), 5);
        assert_eq!(spec.var_name(VarId(3)), "arr[1]");
        let l0 = spec.lock_array("row", 2);
        assert_eq!(l0, LockId(0));
        assert_eq!(spec.lock_name(LockId(1)), "row[1]");
    }
}
