//! The instrumented operation vocabulary of the virtual machine.
//!
//! Every interaction a virtual thread has with shared state — memory
//! accesses, synchronization, simulated system calls, and the pure
//! instrumentation markers used by sketching (function entries and basic
//! blocks) — is described by an [`Op`]. A thread *announces* each op into
//! its FIFO; the coordinator applies the head op's effect to the VM state
//! when (and if) the scheduler selects that thread. A thread parks only on
//! an op whose [`OpResult`] it needs or whose misuse must fault it at that
//! call; after any other op ([`Op::runs_ahead`]) it keeps running and the op
//! takes effect later, in scheduler order.
//!
//! This announce/apply split is what makes execution deterministic: between
//! two ops a thread performs only thread-local computation — so what it
//! announces next cannot depend on *when* a result-less op is applied — and
//! the entire run is a pure function of (program, inputs, scheduler
//! decisions).

use crate::ids::{
    BarrierId, BbId, BufId, ChanId, CondId, ConnId, FdId, FuncId, LockId, RwLockId, SemId,
    ThreadId, VarId,
};
use std::fmt;

/// A simulated system call request.
///
/// System calls are the boundary where *input* nondeterminism enters the VM:
/// their results are produced by the simulated world ([`crate::sys`]) and are
/// recorded by every sketching mechanism (as in the paper, where syscall
/// results must be logged for any replay to be possible at all).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SyscallOp {
    /// Open (creating if absent) a file in the simulated filesystem.
    FileOpen { path: String },
    /// Read up to `len` bytes from an open file at the fd's cursor.
    FileRead { fd: FdId, len: usize },
    /// Append bytes to an open file.
    FileWrite { fd: FdId, data: Vec<u8> },
    /// Close an open file.
    FileClose { fd: FdId },
    /// Accept the next simulated inbound connection; `None` once the
    /// workload script is exhausted.
    NetAccept,
    /// Receive up to `len` bytes from a connection; blocks until the script
    /// delivers data; `None` (EOF) when the peer has closed.
    NetRecv { conn: ConnId, len: usize },
    /// Send bytes on a connection (captured as the connection's output).
    NetSend { conn: ConnId, data: Vec<u8> },
    /// Close a connection.
    NetClose { conn: ConnId },
    /// Read the VM's virtual clock.
    ClockNow,
    /// Draw a value from the VM's input random-number stream.
    Random { bound: u64 },
    /// Write bytes to the program's standard output buffer.
    StdoutWrite { data: Vec<u8> },
}

impl SyscallOp {
    /// A short stable name for the syscall family, used in sketches,
    /// divergence reports, and logs.
    pub fn name(&self) -> &'static str {
        match self {
            SyscallOp::FileOpen { .. } => "open",
            SyscallOp::FileRead { .. } => "read",
            SyscallOp::FileWrite { .. } => "write",
            SyscallOp::FileClose { .. } => "close",
            SyscallOp::NetAccept => "accept",
            SyscallOp::NetRecv { .. } => "recv",
            SyscallOp::NetSend { .. } => "send",
            SyscallOp::NetClose { .. } => "netclose",
            SyscallOp::ClockNow => "clock",
            SyscallOp::Random { .. } => "random",
            SyscallOp::StdoutWrite { .. } => "stdout",
        }
    }
}

/// An operation on a shared byte buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BufOp {
    /// Append bytes to the end of the buffer.
    Append(Vec<u8>),
    /// Read the whole buffer contents.
    ReadAll,
    /// Read the current length.
    Len,
    /// Truncate the buffer to zero length.
    Clear,
    /// Overwrite the byte at `index` (reads-modify-writes are split by the
    /// applications to open atomicity-violation windows).
    Set { index: usize, byte: u8 },
}

impl BufOp {
    /// Whether this operation writes to the buffer.
    pub fn is_write(&self) -> bool {
        matches!(self, BufOp::Append(_) | BufOp::Clear | BufOp::Set { .. })
    }
}

/// An announced instrumentation-point operation.
///
/// `Op` is pure data (no closures): thread-spawn bodies travel through a
/// side channel in the coordinator, so that ops can be cloned into traces
/// and serialized into logs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// First announcement of a freshly spawned thread.
    ThreadStart,
    /// Read a shared scalar.
    Read(VarId),
    /// Write a shared scalar.
    Write(VarId, u64),
    /// Atomic read-modify-write: add `delta` and return the *old* value.
    /// (Used by correct code; buggy code splits this into Read + Write.)
    FetchAdd(VarId, i64),
    /// Compare-and-swap: if current == `expect`, store `new`; returns the
    /// old value either way.
    CompareSwap(VarId, u64, u64),
    /// Operate on a shared byte buffer.
    Buf(BufId, BufOp),
    /// Acquire a mutex (blocks while held).
    LockAcquire(LockId),
    /// Release a mutex held by this thread.
    LockRelease(LockId),
    /// Acquire a reader-writer lock for reading.
    RwAcquireRead(RwLockId),
    /// Acquire a reader-writer lock for writing.
    RwAcquireWrite(RwLockId),
    /// Release a reader-writer lock.
    RwRelease(RwLockId),
    /// Atomically release `lock` and wait on `cond`.
    CondWait(CondId, LockId),
    /// Internal second stage of a condition wait: the thread has been
    /// notified and must reacquire the lock. Announced by the coordinator on
    /// the waiter's behalf; never announced by user code directly.
    CondReacquire(CondId, LockId),
    /// Wake one waiter.
    CondNotifyOne(CondId),
    /// Wake all waiters.
    CondNotifyAll(CondId),
    /// Wait at a cyclic barrier.
    BarrierWait(BarrierId),
    /// Internal second stage of a barrier wait: the generation completed and
    /// the thread may proceed.
    BarrierResume(BarrierId),
    /// Decrement a semaphore (blocks at zero).
    SemAcquire(SemId),
    /// Increment a semaphore.
    SemRelease(SemId),
    /// Send a message on a FIFO channel (unbounded, never blocks).
    ChanSend(ChanId, u64),
    /// Receive from a FIFO channel (blocks while empty; `None` when closed
    /// and drained).
    ChanRecv(ChanId),
    /// Close a channel: receivers drain then observe `None`.
    ChanClose(ChanId),
    /// Spawn a new thread; the body is delivered out of band.
    Spawn,
    /// Wait for a thread to exit.
    Join(ThreadId),
    /// Perform a simulated system call.
    Syscall(SyscallOp),
    /// Function-entry marker (FUNC sketching).
    Func(FuncId),
    /// Basic-block marker (BB / BB-N sketching).
    BasicBlock(BbId),
    /// Pure thread-local computation of the given virtual cost. A
    /// scheduling point, but touches no shared state.
    Compute(u64),
    /// Voluntary yield with no other effect.
    Yield,
    /// Announce an application-level failure (the bug manifested). The run
    /// stops with [`crate::error::Failure::Assertion`].
    Fail(String),
    /// Final announcement of a thread before its body returns.
    ThreadExit,
}

impl Op {
    /// Whether this op reads or writes a shared memory location
    /// (scalar or buffer). These are the accesses the RW baseline records
    /// and the accesses whose interleaving PI-replay must explore.
    pub fn is_mem_access(&self) -> bool {
        matches!(
            self,
            Op::Read(_)
                | Op::Write(..)
                | Op::FetchAdd(..)
                | Op::CompareSwap(..)
                | Op::Buf(..)
        )
    }

    /// Whether this op writes shared memory.
    pub fn is_mem_write(&self) -> bool {
        match self {
            Op::Write(..) | Op::FetchAdd(..) | Op::CompareSwap(..) => true,
            Op::Buf(_, b) => b.is_write(),
            _ => false,
        }
    }

    /// Whether this op is a synchronization operation (SYNC sketching).
    pub fn is_sync(&self) -> bool {
        matches!(
            self,
            Op::LockAcquire(_)
                | Op::LockRelease(_)
                | Op::RwAcquireRead(_)
                | Op::RwAcquireWrite(_)
                | Op::RwRelease(_)
                | Op::CondWait(..)
                | Op::CondReacquire(..)
                | Op::CondNotifyOne(_)
                | Op::CondNotifyAll(_)
                | Op::BarrierWait(_)
                | Op::BarrierResume(_)
                | Op::SemAcquire(_)
                | Op::SemRelease(_)
                | Op::ChanSend(..)
                | Op::ChanRecv(_)
                | Op::ChanClose(_)
                | Op::Spawn
                | Op::Join(_)
        )
    }

    /// Whether this op is a simulated system call (SYS sketching).
    pub fn is_syscall(&self) -> bool {
        matches!(self, Op::Syscall(_))
    }

    /// Whether a thread may keep running after announcing this op instead
    /// of parking until it is applied: `true` iff applying it always yields
    /// [`OpResult::Unit`] and can never fault (`VmState::apply` /
    /// `World::apply` never answer `Applied::Fault` for it), so the thread
    /// learns nothing from waiting. Exhaustive on purpose — a new variant
    /// must be classified here.
    pub fn runs_ahead(&self) -> bool {
        match self {
            Op::ThreadStart
            | Op::Write(..)
            | Op::LockAcquire(_)
            | Op::RwAcquireRead(_)
            | Op::RwAcquireWrite(_)
            | Op::CondReacquire(..)
            | Op::CondNotifyOne(_)
            | Op::CondNotifyAll(_)
            | Op::BarrierWait(_)
            | Op::BarrierResume(_)
            | Op::SemAcquire(_)
            | Op::SemRelease(_)
            | Op::ChanClose(_)
            | Op::Join(_)
            | Op::Func(_)
            | Op::BasicBlock(_)
            | Op::Compute(_)
            | Op::Yield
            | Op::ThreadExit => true,
            Op::Buf(_, b) => match b {
                BufOp::Append(_) | BufOp::Clear => true,
                // Value-returning, or (`Set`) faults out of bounds.
                BufOp::ReadAll | BufOp::Len | BufOp::Set { .. } => false,
            },
            // Value-returning.
            Op::Read(_) | Op::FetchAdd(..) | Op::CompareSwap(..) | Op::ChanRecv(_) | Op::Spawn => {
                false
            }
            // Unit, but a misuse faults the announcing thread at this call.
            Op::LockRelease(_) | Op::RwRelease(_) | Op::CondWait(..) | Op::ChanSend(..) => false,
            // Every syscall can fault in the simulated world; `Fail` never
            // returns.
            Op::Syscall(_) | Op::Fail(_) => false,
        }
    }

    /// The shared-memory location this op touches, if any.
    ///
    /// Buffers are modeled as a single location each: the applications use
    /// them for coarse-grained shared structures (log buffers, work queues)
    /// where whole-object conflicts are the interesting ones.
    pub fn mem_location(&self) -> Option<MemLoc> {
        match self {
            Op::Read(v) | Op::Write(v, _) | Op::FetchAdd(v, _) | Op::CompareSwap(v, ..) => {
                Some(MemLoc::Var(*v))
            }
            Op::Buf(b, _) => Some(MemLoc::Buf(*b)),
            _ => None,
        }
    }

    /// A short human-readable mnemonic for reports.
    pub fn mnemonic(&self) -> &'static str {
        match self {
            Op::ThreadStart => "start",
            Op::Read(_) => "rd",
            Op::Write(..) => "wr",
            Op::FetchAdd(..) => "faa",
            Op::CompareSwap(..) => "cas",
            Op::Buf(_, b) => {
                if b.is_write() {
                    "bufw"
                } else {
                    "bufr"
                }
            }
            Op::LockAcquire(_) => "lock",
            Op::LockRelease(_) => "unlock",
            Op::RwAcquireRead(_) => "rdlock",
            Op::RwAcquireWrite(_) => "wrlock",
            Op::RwRelease(_) => "rwunlock",
            Op::CondWait(..) => "wait",
            Op::CondReacquire(..) => "rewait",
            Op::CondNotifyOne(_) => "signal",
            Op::CondNotifyAll(_) => "broadcast",
            Op::BarrierWait(_) => "barrier",
            Op::BarrierResume(_) => "barrier-resume",
            Op::SemAcquire(_) => "p",
            Op::SemRelease(_) => "v",
            Op::ChanSend(..) => "send",
            Op::ChanRecv(_) => "recv",
            Op::ChanClose(_) => "chclose",
            Op::Spawn => "spawn",
            Op::Join(_) => "join",
            Op::Syscall(s) => s.name(),
            Op::Func(_) => "func",
            Op::BasicBlock(_) => "bb",
            Op::Compute(_) => "compute",
            Op::Yield => "yield",
            Op::Fail(_) => "fail",
            Op::ThreadExit => "exit",
        }
    }
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Op::Read(v) => write!(f, "rd {v}"),
            Op::Write(v, x) => write!(f, "wr {v}={x}"),
            Op::FetchAdd(v, d) => write!(f, "faa {v}+={d}"),
            Op::CompareSwap(v, e, n) => write!(f, "cas {v} {e}->{n}"),
            Op::Buf(b, op) => write!(f, "{} {b}", if op.is_write() { "bufw" } else { "bufr" }),
            Op::LockAcquire(l) => write!(f, "lock {l}"),
            Op::LockRelease(l) => write!(f, "unlock {l}"),
            Op::CondWait(c, l) => write!(f, "wait {c}/{l}"),
            Op::CondReacquire(c, l) => write!(f, "rewait {c}/{l}"),
            Op::Join(t) => write!(f, "join {t}"),
            Op::Syscall(s) => write!(f, "sys {}", s.name()),
            Op::Func(id) => write!(f, "func {id}"),
            Op::BasicBlock(id) => write!(f, "bb {id}"),
            Op::Fail(msg) => write!(f, "fail: {msg}"),
            other => f.write_str(other.mnemonic()),
        }
    }
}

/// A shared-memory location: either a scalar cell or a whole buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum MemLoc {
    /// A scalar variable.
    Var(VarId),
    /// A byte buffer treated as one location.
    Buf(BufId),
}

impl fmt::Display for MemLoc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemLoc::Var(v) => write!(f, "{v}"),
            MemLoc::Buf(b) => write!(f, "{b}"),
        }
    }
}

/// The value handed back to a thread when its announced op completes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OpResult {
    /// No interesting result.
    Unit,
    /// A scalar value (reads, fetch-add old value, clock, random, length).
    Value(u64),
    /// Raw bytes (file reads, buffer reads).
    Bytes(Vec<u8>),
    /// Bytes or end-of-stream (connection receive).
    MaybeBytes(Option<Vec<u8>>),
    /// A channel message or `None` when the channel is closed and drained.
    MaybeValue(Option<u64>),
    /// A freshly accepted connection, or `None` when the workload script is
    /// exhausted.
    MaybeConn(Option<ConnId>),
    /// A new file descriptor.
    Fd(FdId),
    /// The id of a spawned thread.
    Tid(ThreadId),
}

impl OpResult {
    /// Extracts a scalar value.
    ///
    /// # Panics
    ///
    /// Panics if the result is not [`OpResult::Value`]; this indicates a bug
    /// in the VM, not in user code.
    pub fn value(self) -> u64 {
        match self {
            OpResult::Value(v) => v,
            other => panic!("VM invariant violated: expected Value, got {other:?}"),
        }
    }

    /// Extracts raw bytes.
    ///
    /// # Panics
    ///
    /// Panics if the result is not [`OpResult::Bytes`].
    pub fn bytes(self) -> Vec<u8> {
        match self {
            OpResult::Bytes(b) => b,
            other => panic!("VM invariant violated: expected Bytes, got {other:?}"),
        }
    }

    /// Extracts optional bytes.
    ///
    /// # Panics
    ///
    /// Panics if the result is not [`OpResult::MaybeBytes`].
    pub fn maybe_bytes(self) -> Option<Vec<u8>> {
        match self {
            OpResult::MaybeBytes(b) => b,
            other => panic!("VM invariant violated: expected MaybeBytes, got {other:?}"),
        }
    }

    /// Extracts an optional channel message.
    ///
    /// # Panics
    ///
    /// Panics if the result is not [`OpResult::MaybeValue`].
    pub fn maybe_value(self) -> Option<u64> {
        match self {
            OpResult::MaybeValue(v) => v,
            other => panic!("VM invariant violated: expected MaybeValue, got {other:?}"),
        }
    }

    /// Extracts an optional connection id.
    ///
    /// # Panics
    ///
    /// Panics if the result is not [`OpResult::MaybeConn`].
    pub fn maybe_conn(self) -> Option<ConnId> {
        match self {
            OpResult::MaybeConn(c) => c,
            other => panic!("VM invariant violated: expected MaybeConn, got {other:?}"),
        }
    }

    /// Extracts a file descriptor.
    ///
    /// # Panics
    ///
    /// Panics if the result is not [`OpResult::Fd`].
    pub fn fd(self) -> FdId {
        match self {
            OpResult::Fd(fd) => fd,
            other => panic!("VM invariant violated: expected Fd, got {other:?}"),
        }
    }

    /// Extracts a thread id.
    ///
    /// # Panics
    ///
    /// Panics if the result is not [`OpResult::Tid`].
    pub fn tid(self) -> ThreadId {
        match self {
            OpResult::Tid(t) => t,
            other => panic!("VM invariant violated: expected Tid, got {other:?}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_is_disjoint_for_core_classes() {
        let mem = Op::Read(VarId(0));
        let sync = Op::LockAcquire(LockId(1));
        let sys = Op::Syscall(SyscallOp::ClockNow);
        assert!(mem.is_mem_access() && !mem.is_sync() && !mem.is_syscall());
        assert!(sync.is_sync() && !sync.is_mem_access() && !sync.is_syscall());
        assert!(sys.is_syscall() && !sys.is_mem_access() && !sys.is_sync());
    }

    #[test]
    fn writes_are_accesses() {
        assert!(Op::Write(VarId(3), 7).is_mem_write());
        assert!(Op::Write(VarId(3), 7).is_mem_access());
        assert!(!Op::Read(VarId(3)).is_mem_write());
        assert!(Op::FetchAdd(VarId(1), -2).is_mem_write());
        assert!(Op::CompareSwap(VarId(1), 0, 1).is_mem_write());
    }

    #[test]
    fn buffer_ops_classify_by_variant() {
        assert!(Op::Buf(BufId(0), BufOp::Append(vec![1])).is_mem_write());
        assert!(!Op::Buf(BufId(0), BufOp::ReadAll).is_mem_write());
        assert!(Op::Buf(BufId(0), BufOp::Clear).is_mem_write());
        assert!(!Op::Buf(BufId(0), BufOp::Len).is_mem_write());
        assert!(Op::Buf(BufId(0), BufOp::Set { index: 0, byte: 1 }).is_mem_write());
    }

    #[test]
    fn mem_location_extraction() {
        assert_eq!(Op::Read(VarId(4)).mem_location(), Some(MemLoc::Var(VarId(4))));
        assert_eq!(
            Op::Buf(BufId(2), BufOp::Len).mem_location(),
            Some(MemLoc::Buf(BufId(2)))
        );
        assert_eq!(Op::Yield.mem_location(), None);
        assert_eq!(Op::LockAcquire(LockId(0)).mem_location(), None);
    }

    #[test]
    fn spawn_and_join_are_sync_ops() {
        assert!(Op::Spawn.is_sync());
        assert!(Op::Join(ThreadId(1)).is_sync());
    }

    #[test]
    fn display_is_informative() {
        assert_eq!(Op::Read(VarId(1)).to_string(), "rd v1");
        assert_eq!(Op::Write(VarId(1), 5).to_string(), "wr v1=5");
        assert_eq!(Op::LockAcquire(LockId(2)).to_string(), "lock m2");
        assert_eq!(Op::Syscall(SyscallOp::NetAccept).to_string(), "sys accept");
    }

    #[test]
    fn result_accessors_extract_expected_variants() {
        assert_eq!(OpResult::Value(9).value(), 9);
        assert_eq!(OpResult::Bytes(vec![1, 2]).bytes(), vec![1, 2]);
        assert_eq!(OpResult::MaybeValue(None).maybe_value(), None);
        assert_eq!(OpResult::Tid(ThreadId(4)).tid(), ThreadId(4));
        assert_eq!(OpResult::Fd(FdId(1)).fd(), FdId(1));
        assert_eq!(OpResult::MaybeConn(Some(ConnId(2))).maybe_conn(), Some(ConnId(2)));
    }

    #[test]
    #[should_panic(expected = "VM invariant violated")]
    fn result_accessor_panics_on_mismatch() {
        OpResult::Unit.value();
    }

    #[test]
    fn syscall_names_are_stable() {
        assert_eq!(SyscallOp::NetAccept.name(), "accept");
        assert_eq!(SyscallOp::ClockNow.name(), "clock");
        assert_eq!(
            SyscallOp::FileOpen { path: "a".into() }.name(),
            "open"
        );
    }
}
