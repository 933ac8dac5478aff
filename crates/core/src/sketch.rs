//! Execution sketches: the five recording mechanisms and their filters.
//!
//! A *sketch* is the partial execution information PRES records during the
//! production run. The paper implements five sketching mechanisms spanning
//! the information/overhead spectrum, plus the prior-work RW baseline:
//!
//! | Mechanism | Records (in one global order)                        |
//! |-----------|------------------------------------------------------|
//! | `RW`      | every shared-memory access + everything below (prior work baseline: first-attempt deterministic replay) |
//! | `BB`      | every basic-block marker + everything below          |
//! | `BB-N`    | every N-th basic-block marker per thread + everything below |
//! | `FUNC`    | every function entry + everything below              |
//! | `SYNC`    | synchronization operations + `SYS`'s event classes   |
//! | `SYS`     | system calls (with results) + thread spawn/join      |
//!
//! The spectrum is *cumulative*: synchronization operations are function
//! calls and live inside basic blocks, so any mechanism that records
//! function entries or basic blocks necessarily captures synchronization
//! order too. All mechanisms record syscall results — without input
//! determinism no replay is possible at all — and thread creation order.
//! What varies is how much of the *interleaving* is pinned down, which is
//! exactly the space the partial-information replayer must search.

use pres_tvm::ids::ThreadId;
use pres_tvm::op::{MemLoc, Op, OpResult, SyscallOp};
use pres_tvm::trace::Event;
use std::borrow::Cow;
use std::fmt;

/// A sketching mechanism.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Mechanism {
    /// Prior-work baseline: global order over all shared accesses.
    Rw,
    /// Synchronization-operation sketching.
    Sync,
    /// System-call sketching.
    Sys,
    /// Function-entry sketching.
    Func,
    /// Basic-block sketching.
    Bb,
    /// Every `N`-th basic block per thread (sampled BB).
    BbN(u32),
}

impl Mechanism {
    /// All mechanisms evaluated in the paper's tables, in overhead order.
    pub fn all() -> Vec<Mechanism> {
        vec![
            Mechanism::Rw,
            Mechanism::Bb,
            Mechanism::BbN(4),
            Mechanism::Func,
            Mechanism::Sys,
            Mechanism::Sync,
        ]
    }

    /// Short display name, matching the paper's labels. Borrowed for every
    /// fixed mechanism; only `BB-N` (which interpolates its period) owns an
    /// allocation — logging and bench hot paths never pay for the common
    /// cases.
    pub fn name(&self) -> Cow<'static, str> {
        match self {
            Mechanism::Rw => Cow::Borrowed("RW"),
            Mechanism::Sync => Cow::Borrowed("SYNC"),
            Mechanism::Sys => Cow::Borrowed("SYS"),
            Mechanism::Func => Cow::Borrowed("FUNC"),
            Mechanism::Bb => Cow::Borrowed("BB"),
            Mechanism::BbN(n) => Cow::Owned(format!("BB-{n}")),
        }
    }
}

impl fmt::Display for Mechanism {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Mechanism::BbN(n) => write!(f, "BB-{n}"),
            other => f.write_str(match other {
                Mechanism::Rw => "RW",
                Mechanism::Sync => "SYNC",
                Mechanism::Sys => "SYS",
                Mechanism::Func => "FUNC",
                Mechanism::Bb => "BB",
                Mechanism::BbN(_) => unreachable!(),
            }),
        }
    }
}

/// Normalized operation identity stored in sketch entries.
///
/// Payloads (write values, appended bytes) are dropped — PRES records
/// *ordering*, not data — but object identities are kept so the replayer
/// can both match and detect divergence precisely.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SketchOp {
    /// Thread began.
    Start,
    /// Thread exited.
    Exit,
    /// A shared-memory access.
    Mem {
        /// The location.
        loc: MemLoc,
        /// Whether it writes.
        write: bool,
    },
    /// A synchronization operation on an object.
    Sync {
        /// Mnemonic of the operation (stable per op kind).
        kind: SyncKind,
        /// Raw id of the object (lock/cond/barrier/sem/chan id).
        obj: u32,
    },
    /// A thread spawn.
    Spawn,
    /// A join on a specific thread.
    Join {
        /// The joined thread.
        target: u32,
    },
    /// A system call.
    Sys {
        /// Which syscall.
        kind: SysKind,
        /// Salient object id (fd / conn), 0 when not applicable.
        obj: u32,
    },
    /// A function entry.
    Func(u32),
    /// A basic-block marker.
    Bb(u32),
}

/// Synchronization-operation kinds for sketch matching.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum SyncKind {
    Lock,
    Unlock,
    RwRead,
    RwWrite,
    RwUnlock,
    Wait,
    Rewait,
    Signal,
    Broadcast,
    Barrier,
    BarrierResume,
    SemP,
    SemV,
    Send,
    Recv,
    ChanClose,
}

/// System-call kinds for sketch matching.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum SysKind {
    Open,
    Read,
    Write,
    Close,
    Accept,
    Recv,
    Send,
    NetClose,
    Clock,
    Random,
    Stdout,
}

impl SketchOp {
    /// Normalizes a VM operation, or `None` for ops that never appear in
    /// any sketch (pure computation, yields, failure announcements).
    pub fn from_op(op: &Op) -> Option<SketchOp> {
        Some(match op {
            Op::ThreadStart => SketchOp::Start,
            Op::ThreadExit => SketchOp::Exit,
            Op::Read(_) | Op::Write(..) | Op::FetchAdd(..) | Op::CompareSwap(..) | Op::Buf(..) => {
                SketchOp::Mem {
                    loc: op.mem_location().expect("mem op has a location"),
                    write: op.is_mem_write(),
                }
            }
            Op::LockAcquire(l) => SketchOp::Sync {
                kind: SyncKind::Lock,
                obj: l.0,
            },
            Op::LockRelease(l) => SketchOp::Sync {
                kind: SyncKind::Unlock,
                obj: l.0,
            },
            Op::RwAcquireRead(r) => SketchOp::Sync {
                kind: SyncKind::RwRead,
                obj: r.0,
            },
            Op::RwAcquireWrite(r) => SketchOp::Sync {
                kind: SyncKind::RwWrite,
                obj: r.0,
            },
            Op::RwRelease(r) => SketchOp::Sync {
                kind: SyncKind::RwUnlock,
                obj: r.0,
            },
            Op::CondWait(c, _) => SketchOp::Sync {
                kind: SyncKind::Wait,
                obj: c.0,
            },
            Op::CondReacquire(c, _) => SketchOp::Sync {
                kind: SyncKind::Rewait,
                obj: c.0,
            },
            Op::CondNotifyOne(c) => SketchOp::Sync {
                kind: SyncKind::Signal,
                obj: c.0,
            },
            Op::CondNotifyAll(c) => SketchOp::Sync {
                kind: SyncKind::Broadcast,
                obj: c.0,
            },
            Op::BarrierWait(b) => SketchOp::Sync {
                kind: SyncKind::Barrier,
                obj: b.0,
            },
            Op::BarrierResume(b) => SketchOp::Sync {
                kind: SyncKind::BarrierResume,
                obj: b.0,
            },
            Op::SemAcquire(s) => SketchOp::Sync {
                kind: SyncKind::SemP,
                obj: s.0,
            },
            Op::SemRelease(s) => SketchOp::Sync {
                kind: SyncKind::SemV,
                obj: s.0,
            },
            Op::ChanSend(c, _) => SketchOp::Sync {
                kind: SyncKind::Send,
                obj: c.0,
            },
            Op::ChanRecv(c) => SketchOp::Sync {
                kind: SyncKind::Recv,
                obj: c.0,
            },
            Op::ChanClose(c) => SketchOp::Sync {
                kind: SyncKind::ChanClose,
                obj: c.0,
            },
            Op::Spawn => SketchOp::Spawn,
            Op::Join(t) => SketchOp::Join { target: t.0 },
            Op::Syscall(s) => {
                let (kind, obj) = match s {
                    SyscallOp::FileOpen { .. } => (SysKind::Open, 0),
                    SyscallOp::FileRead { fd, .. } => (SysKind::Read, fd.0),
                    SyscallOp::FileWrite { fd, .. } => (SysKind::Write, fd.0),
                    SyscallOp::FileClose { fd } => (SysKind::Close, fd.0),
                    SyscallOp::NetAccept => (SysKind::Accept, 0),
                    SyscallOp::NetRecv { conn, .. } => (SysKind::Recv, conn.0),
                    SyscallOp::NetSend { conn, .. } => (SysKind::Send, conn.0),
                    SyscallOp::NetClose { conn } => (SysKind::NetClose, conn.0),
                    SyscallOp::ClockNow => (SysKind::Clock, 0),
                    SyscallOp::Random { .. } => (SysKind::Random, 0),
                    SyscallOp::StdoutWrite { .. } => (SysKind::Stdout, 0),
                };
                SketchOp::Sys { kind, obj }
            }
            Op::Func(f) => SketchOp::Func(f.0),
            Op::BasicBlock(b) => SketchOp::Bb(b.0),
            Op::Compute(_) | Op::Yield | Op::Fail(_) => return None,
        })
    }

    /// Whether this normalized op is a memory access.
    pub fn is_mem(&self) -> bool {
        matches!(self, SketchOp::Mem { .. })
    }

    /// Whether recording this op must claim a slot in the serialized global
    /// order.
    ///
    /// Cross-thread event classes — memory accesses, synchronization,
    /// syscalls, and thread lifecycle — are only useful if their *relative*
    /// order across threads is pinned down, so recording one claims the
    /// next slot of the single global sequence (and pays the serialized
    /// charge, [`pres_tvm::cost::CostModel::record_serial`]). Function and
    /// basic-block markers are thread-local control-flow breadcrumbs: each
    /// thread's marker stream is totally ordered by its own sequence
    /// number, no global slot is needed, and recording one is charged only
    /// thread-local cost. This split is what lets FUNC/BB/BB-N overhead
    /// scale with thread-local work instead of global-order contention.
    pub fn claims_global_slot(&self) -> bool {
        !matches!(self, SketchOp::Func(_) | SketchOp::Bb(_))
    }
}

/// One sketch log entry: who did what, in canonical recorded order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SketchEntry {
    /// The recorded thread.
    pub tid: ThreadId,
    /// The normalized operation.
    pub op: SketchOp,
    /// The syscall result, recorded for input determinism and value-based
    /// divergence detection (always [`OpResult::Unit`] for non-syscalls).
    pub result: OpResult,
}

impl SketchEntry {
    /// Builds the logged entry for an applied event whose normalized op is
    /// already known. The non-syscall path constructs [`OpResult::Unit`]
    /// directly without inspecting the event's result at all; syscall
    /// entries copy the result exactly once — the VM grants the original
    /// to the executing thread, so the log must own its copy for input
    /// determinism (a move is impossible).
    pub fn for_event(op: SketchOp, event: &Event) -> SketchEntry {
        let result = if matches!(op, SketchOp::Sys { .. }) {
            event.result.clone()
        } else {
            OpResult::Unit
        };
        SketchEntry {
            tid: event.tid,
            op,
            result,
        }
    }
}

/// A sketch entry stamped with its canonical-merge key.
///
/// The sharded recorder keeps per-thread segments and only serialized
/// entries claim slots in the global order; at `finish()` the shards are
/// merged into one deterministic **canonical order**:
///
/// * a slot-claiming entry that claimed slot `g` sorts at `(g, serial)`;
/// * a thread-local entry stamped with the slot count `c` at the moment it
///   was appended sorts at `(c, local)` — *before* the serialized entry
///   that later claims slot `c`;
/// * ties (thread-local entries of different threads between the same two
///   serialized slots) break on `(tid, per-thread seq)`.
///
/// The order is a pure function of the recorded run: every recorder (and
/// the offline [`Sketch::from_events`] filter) produces byte-identical
/// canonical sketches. For mechanisms whose entries all claim slots
/// (RW/SYNC/SYS), the canonical order *is* the recorded global order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StampedEntry {
    /// Serialized-slot bucket: the claimed slot for slot-claiming entries,
    /// or the number of slots claimed before the entry for thread-local
    /// ones.
    pub bucket: u64,
    /// Whether the entry claimed a global slot (sorts after the locals of
    /// its bucket).
    pub serial: bool,
    /// The entry itself.
    pub entry: SketchEntry,
}

/// Sorts bucket-stamped entries into canonical order and strips the
/// stamps. The sort is stable, so entries carrying the same
/// `(bucket, serial, tid)` key — necessarily one thread's consecutive
/// thread-local entries — keep their per-thread sequence order.
pub fn canonical_order(mut stamped: Vec<StampedEntry>) -> Vec<SketchEntry> {
    stamped.sort_by_key(|s| (s.bucket, s.serial, s.entry.tid.0));
    stamped.into_iter().map(|s| s.entry).collect()
}

/// The stateful filter deciding which events a mechanism records.
///
/// `BB-N` sampling keeps a per-thread basic-block counter, so the filter is
/// split into a pure query ([`MechanismFilter::would_record`]) used by the
/// replayer when *considering* a candidate, and a state update
/// ([`MechanismFilter::note_executed`]) applied once the op actually runs.
#[derive(Debug, Clone)]
pub struct MechanismFilter {
    mechanism: Mechanism,
    bb_counters: Vec<u64>,
}

impl MechanismFilter {
    /// A filter for the given mechanism.
    pub fn new(mechanism: Mechanism) -> Self {
        MechanismFilter {
            mechanism,
            bb_counters: Vec::new(),
        }
    }

    /// A filter resuming mid-run: per-thread basic-block counters restored
    /// from a checkpoint, so `BB-N` sampling picks the same blocks the
    /// production recorder would have past the boundary. Equivalent to
    /// [`MechanismFilter::new`] when `bb_counters` is empty.
    pub fn with_counters(mechanism: Mechanism, bb_counters: Vec<u64>) -> Self {
        MechanismFilter {
            mechanism,
            bb_counters,
        }
    }

    /// The mechanism.
    pub fn mechanism(&self) -> Mechanism {
        self.mechanism
    }

    /// The per-thread basic-block sampling counters (indexed by
    /// `ThreadId`; absolute counts since genesis). What a checkpoint
    /// stores so a window replayer can resume sampling in phase.
    pub fn bb_counters(&self) -> &[u64] {
        &self.bb_counters
    }

    fn bb_count(&self, tid: ThreadId) -> u64 {
        self.bb_counters.get(tid.index()).copied().unwrap_or(0)
    }

    /// Whether executing `op` on `tid` *now* would produce a sketch entry.
    pub fn would_record(&self, tid: ThreadId, op: &Op) -> bool {
        // Event classes common to every mechanism: thread lifecycle,
        // spawn/join, and system calls (results are required for replay).
        let common = matches!(
            op,
            Op::ThreadStart | Op::ThreadExit | Op::Spawn | Op::Join(_) | Op::Syscall(_)
        );
        match self.mechanism {
            Mechanism::Rw => common || op.is_mem_access() || op.is_sync(),
            Mechanism::Sync => common || op.is_sync(),
            Mechanism::Sys => common,
            // Sync operations are function calls inside basic blocks, so
            // the finer mechanisms capture them too (cumulative spectrum).
            Mechanism::Func => common || op.is_sync() || matches!(op, Op::Func(_)),
            Mechanism::Bb => common || op.is_sync() || matches!(op, Op::BasicBlock(_)),
            Mechanism::BbN(n) => {
                common
                    || op.is_sync()
                    || (matches!(op, Op::BasicBlock(_))
                        && self.bb_count(tid).is_multiple_of(u64::from(n.max(1))))
            }
        }
    }

    /// Notes that `op` executed on `tid` (advances sampling counters).
    pub fn note_executed(&mut self, tid: ThreadId, op: &Op) {
        if matches!(op, Op::BasicBlock(_)) {
            let idx = tid.index();
            if idx >= self.bb_counters.len() {
                self.bb_counters.resize(idx + 1, 0);
            }
            self.bb_counters[idx] += 1;
        }
    }

    /// Convenience: query-and-update in one call (recorder side).
    pub fn record_and_note(&mut self, tid: ThreadId, op: &Op) -> bool {
        let yes = self.would_record(tid, op);
        self.note_executed(tid, op);
        yes
    }
}

/// Directory entry for one retained epoch of a ring-flushed sketch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EpochInfo {
    /// Epoch ordinal within the production run (0-based, absolute — the
    /// first retained epoch of a rotated ring has a nonzero index).
    pub index: u64,
    /// Pick boundary at which the epoch began.
    pub start_picks: u64,
    /// Sketch entries the epoch contributed to the retained window.
    pub entries: u64,
}

/// The checkpoint a ring-flushed sketch carries: everything replay needs
/// to reconstruct the VM at the retained window's start and search only
/// the window.
///
/// Restore is *deterministic fast-forward*: replay the production
/// scheduler ([`production_seed`](Self::production_seed)) for exactly
/// [`boundary`](Self::boundary) picks; the embedded snapshot is the
/// integrity witness a re-capture at the boundary must match
/// byte-for-byte. A **genesis** checkpoint (`boundary == 0`, empty
/// snapshot, empty counters) marks a ring that never rotated: the whole
/// run is retained and replay degenerates to the classic full-sketch
/// path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SketchCheckpoint {
    /// Number of scheduler picks (equivalently, applied events) that
    /// precede the checkpoint.
    pub boundary: u64,
    /// Scheduler seed of the production run the fast-forward replays.
    pub production_seed: u64,
    /// Epochs evicted from the ring before the retained window.
    pub dropped_epochs: u64,
    /// Sketch entries evicted with them.
    pub dropped_entries: u64,
    /// Per-thread `BB-N` sampling counters at the boundary (absolute
    /// counts since genesis), seeding the window replayer's
    /// [`MechanismFilter`]. Empty for non-sampling mechanisms and for
    /// genesis checkpoints.
    pub bbn_counters: Vec<u64>,
    /// Directory of the retained epochs, oldest first.
    pub epochs: Vec<EpochInfo>,
    /// The encoded VM snapshot ([`pres_tvm::snapshot::VmSnapshot`]) at
    /// the boundary; empty for a genesis checkpoint.
    pub snapshot: Vec<u8>,
}

impl SketchCheckpoint {
    /// Whether this is a genesis checkpoint (nothing was evicted; replay
    /// needs no fast-forward).
    pub fn is_genesis(&self) -> bool {
        self.boundary == 0
    }

    /// Entries across the retained epoch directory.
    pub fn retained_entries(&self) -> u64 {
        self.epochs.iter().map(|e| e.entries).sum()
    }
}

/// Metadata describing the recorded production run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SketchMeta {
    /// Program name.
    pub program: String,
    /// Scheduler seed of the production run.
    pub seed: u64,
    /// Simulated processor count.
    pub processors: u32,
    /// Total operations the production run executed.
    pub total_ops: u64,
    /// The failure signature observed (empty for bug-free runs).
    pub failure_signature: String,
}

/// A recorded execution sketch.
#[derive(Debug, Clone, PartialEq)]
pub struct Sketch {
    /// The mechanism that produced it.
    pub mechanism: Mechanism,
    /// Entries in canonical recorded order (see [`StampedEntry`]): the
    /// serialized global order over slot-claiming entries, with
    /// thread-local markers deterministically bucketed between slots.
    /// For a ring-flushed sketch these are the *retained window's*
    /// entries only, with their absolute bucket stamps.
    pub entries: Vec<SketchEntry>,
    /// Production-run metadata.
    pub meta: SketchMeta,
    /// The checkpoint of a ring-flushed sketch (`None` for classic
    /// full-run sketches).
    pub checkpoint: Option<Box<SketchCheckpoint>>,
}

impl Sketch {
    /// An empty sketch for a mechanism.
    pub fn new(mechanism: Mechanism) -> Self {
        Sketch {
            mechanism,
            entries: Vec::new(),
            meta: SketchMeta::default(),
            checkpoint: None,
        }
    }

    /// Builds a sketch by filtering a full event stream — the offline
    /// equivalent of online recording, used by tests to cross-validate the
    /// recorder. Emits the same canonical order as the sharded recorder:
    /// slot-claiming entries in their recorded global order, thread-local
    /// markers bucketed between the slots they were recorded between (see
    /// [`StampedEntry`]).
    pub fn from_events(mechanism: Mechanism, events: &[Event]) -> Self {
        let mut filter = MechanismFilter::new(mechanism);
        let mut stamped = Vec::new();
        let mut slots = 0u64;
        for e in events {
            if !filter.record_and_note(e.tid, &e.op) {
                continue;
            }
            let Some(op) = SketchOp::from_op(&e.op) else {
                continue;
            };
            let serial = op.claims_global_slot();
            let bucket = slots;
            if serial {
                slots += 1;
            }
            stamped.push(StampedEntry {
                bucket,
                serial,
                entry: SketchEntry::for_event(op, e),
            });
        }
        Sketch {
            mechanism,
            entries: canonical_order(stamped),
            meta: SketchMeta::default(),
            checkpoint: None,
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the sketch is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// An immutable, shareable, compact index over a sketch's entries.
///
/// Replay needs exactly two views of a sketch: each thread's recorded
/// order (the replayer's thread queues) and the normalized [`SketchOp`]
/// at each position (for divergence checks). The index keeps only those,
/// keyed by the threads that are *present*:
///
/// * `tids` — the recorded thread ids, ascending; a thread's *slot* is
///   its rank here, so memory is proportional to the threads that
///   recorded entries, never to the largest tid value;
/// * one column per slot, stored back to back (`starts[s]..starts[s+1]`):
///   the global position of each of the thread's entries (`u32`,
///   ascending) and its op as an id into `dict`, the sketch's distinct
///   ops. Ids are `u8` while the dictionary has at most 256 entries and
///   widen to `u16`/`u32` only beyond that.
///
/// On a production-scale SYNC sketch this is ≈ 5 bytes per entry. Both
/// views are pure functions of the sketch, so the explorer builds the
/// index **once per reproduction** (the daemon builds it straight from
/// container bytes, [`crate::codec::decode_index`]) and every
/// [`crate::replay::PiReplayScheduler`] — across attempts and across
/// workers — borrows it through an `Arc<SketchIndex>`.
#[derive(Debug, Clone)]
pub struct SketchIndex {
    mechanism: Mechanism,
    /// Recorded thread ids, ascending.
    tids: Vec<u32>,
    /// Column boundaries: slot `s` owns `starts[s]..starts[s + 1]`.
    starts: Vec<u32>,
    /// Global position of every entry, grouped by slot.
    positions: Vec<u32>,
    /// Dictionary id of every entry's op, parallel to `positions`.
    ids: OpIds,
    /// The distinct ops.
    dict: Vec<SketchOp>,
    /// The sketch's checkpoint, if ring-flushed.
    checkpoint: Option<Box<SketchCheckpoint>>,
}

/// Two indexes are equal when they describe the same sketch: mechanism,
/// checkpoint, threads, per-thread positions, and the op at every entry.
/// Dictionary *numbering* is not compared — it follows build order
/// ([`SketchIndex::new`] interns in recorded order, the decoder column by
/// column), which is not part of what the index means.
impl PartialEq for SketchIndex {
    fn eq(&self, other: &Self) -> bool {
        self.mechanism == other.mechanism
            && self.checkpoint == other.checkpoint
            && self.tids == other.tids
            && self.starts == other.starts
            && self.positions == other.positions
            && (0..self.positions.len()).all(|k| self.op_at(k) == other.op_at(k))
    }
}

impl SketchIndex {
    /// Builds the index from an in-memory sketch. One pass over the
    /// entries slots each thread in first-seen order, ranks each entry
    /// within its thread and interns its op; a second pass over those
    /// compact notes scatters every entry into its thread's column.
    pub fn new(sketch: &Sketch) -> Self {
        let n = sketch.entries.len();
        assert!(
            u32::try_from(n).is_ok(),
            "a sketch index addresses at most u32::MAX entries"
        );
        let mut slots = Interner::new();
        // Slot → tid, and slot → entry count.
        let mut seen: Vec<u32> = Vec::new();
        let mut counts: Vec<u32> = Vec::new();
        let mut dict = OpDict::new();
        // (first-seen slot, rank within the thread, op id) of every entry.
        let notes: Vec<(u32, u32, u32)> = sketch
            .entries
            .iter()
            .map(|e| {
                let s = slots.get_or_insert_with(u64::from(e.tid.0), || {
                    seen.push(e.tid.0);
                    counts.push(0);
                    seen.len() as u32 - 1
                });
                let rank = counts[s as usize];
                counts[s as usize] += 1;
                (s, rank, dict.id(&e.op))
            })
            .collect();
        // Columns are laid out by ascending tid.
        let mut by_tid: Vec<usize> = (0..seen.len()).collect();
        by_tid.sort_unstable_by_key(|&s| seen[s]);
        let tids = by_tid.iter().map(|&s| seen[s]).collect();
        let mut column_start = vec![0u32; seen.len()];
        let mut starts = Vec::with_capacity(seen.len() + 1);
        starts.push(0u32);
        for (r, &s) in by_tid.iter().enumerate() {
            column_start[s] = starts[r];
            starts.push(starts[r] + counts[s]);
        }
        let mut positions = vec![0u32; n];
        let mut ids = vec![0u32; n];
        for (g, &(s, rank, id)) in notes.iter().enumerate() {
            let k = (column_start[s as usize] + rank) as usize;
            positions[k] = g as u32;
            ids[k] = id;
        }
        dict.index(
            sketch.mechanism,
            tids,
            starts,
            positions,
            ids,
            sketch.checkpoint.clone(),
        )
    }

    /// The recording mechanism of the indexed sketch.
    pub fn mechanism(&self) -> Mechanism {
        self.mechanism
    }

    /// The checkpoint of a ring-flushed sketch (`None` for classic
    /// sketches). Replay uses it to fast-forward to the retained window
    /// and to seed the mechanism filter's sampling counters.
    pub fn checkpoint(&self) -> Option<&SketchCheckpoint> {
        self.checkpoint.as_deref()
    }

    /// Number of indexed entries.
    pub fn len(&self) -> usize {
        self.positions.len()
    }

    /// Whether the indexed sketch is empty.
    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }

    /// Number of threads with recorded entries.
    pub fn threads(&self) -> usize {
        self.tids.len()
    }

    /// The slot of `tid` (its rank among the recorded threads), or `None`
    /// when the thread recorded nothing.
    pub fn slot(&self, tid: ThreadId) -> Option<usize> {
        self.tids.binary_search(&tid.0).ok()
    }

    /// Entry `pos` of slot `slot`'s recorded order: its global position
    /// and its op, or `None` once the thread's entries are exhausted.
    pub fn front(&self, slot: usize, pos: usize) -> Option<(usize, &SketchOp)> {
        let k = self.starts[slot] as usize + pos;
        if k >= self.starts[slot + 1] as usize {
            return None;
        }
        Some((self.positions[k] as usize, self.op_at(k)))
    }

    /// The global positions of `tid`'s entries, ascending (empty for
    /// threads with no recorded entries).
    pub fn thread_positions(&self, tid: ThreadId) -> &[u32] {
        match self.slot(tid) {
            Some(s) => &self.positions[self.starts[s] as usize..self.starts[s + 1] as usize],
            None => &[],
        }
    }

    /// Number of distinct ops in the dictionary.
    pub fn distinct_ops(&self) -> usize {
        self.dict.len()
    }

    /// Width of the stored op ids: 8, 16 or 32.
    pub fn id_bits(&self) -> u32 {
        self.ids.bits()
    }

    /// Bytes the index keeps resident: the struct itself plus the exact
    /// capacity of every buffer it owns — columns, dictionary, and the
    /// checkpoint's counters, epoch directory and snapshot. What the
    /// daemon's sketch cache charges against its budget.
    pub fn resident_bytes(&self) -> usize {
        use std::mem::size_of;
        let checkpoint = self.checkpoint.as_deref().map_or(0, |cp| {
            size_of::<SketchCheckpoint>()
                + cp.bbn_counters.capacity() * size_of::<u64>()
                + cp.epochs.capacity() * size_of::<EpochInfo>()
                + cp.snapshot.capacity()
        });
        size_of::<Self>()
            + (self.tids.capacity() + self.starts.capacity() + self.positions.capacity())
                * size_of::<u32>()
            + self.ids.heap_bytes()
            + self.dict.capacity() * size_of::<SketchOp>()
            + checkpoint
    }

    fn op_at(&self, k: usize) -> &SketchOp {
        &self.dict[self.ids.get(k)]
    }
}

/// The distinct ops of a sketch, numbered in first-seen order — the
/// index dictionary under construction.
#[derive(Debug)]
pub(crate) struct OpDict {
    ops: Vec<SketchOp>,
    interned: Interner,
}

impl OpDict {
    pub(crate) fn new() -> Self {
        OpDict {
            ops: Vec::new(),
            interned: Interner::new(),
        }
    }

    /// The id of `op`, adding it on first sight.
    #[inline(always)]
    pub(crate) fn id(&mut self, op: &SketchOp) -> u32 {
        let (code, operand) = crate::codec::op_code(op);
        self.intern(code, operand.map_or(0, |(_, v)| v), || op.clone())
    }

    /// The id of the op with container dictionary code `code` and
    /// `operand`, adding `make()` on first sight. Both index builders key
    /// ops this way — [`SketchIndex::new`] through [`OpDict::id`], the
    /// decoder straight from a column — so an op has one numbering.
    /// Inlined into both builders' per-entry loops.
    #[inline(always)]
    pub(crate) fn intern(
        &mut self,
        code: u8,
        operand: u32,
        make: impl FnOnce() -> SketchOp,
    ) -> u32 {
        let ops = &mut self.ops;
        let key = u64::from(code) << 32 | u64::from(operand);
        self.interned.get_or_insert_with(key, || {
            ops.push(make());
            ops.len() as u32 - 1
        })
    }

    /// Assembles the index around the thread directory, position column
    /// and column-ordered op ids the caller built.
    pub(crate) fn index(
        self,
        mechanism: Mechanism,
        tids: Vec<u32>,
        starts: Vec<u32>,
        positions: Vec<u32>,
        ids: Vec<u32>,
        checkpoint: Option<Box<SketchCheckpoint>>,
    ) -> SketchIndex {
        let mut dict = self.ops;
        dict.shrink_to_fit();
        SketchIndex {
            mechanism,
            tids,
            starts,
            positions,
            ids: OpIds::narrow(dict.len(), ids),
            dict,
            checkpoint,
        }
    }
}

/// Op ids at the narrowest width the dictionary needs.
#[derive(Debug, Clone, PartialEq, Eq)]
enum OpIds {
    U8(Vec<u8>),
    U16(Vec<u16>),
    U32(Vec<u32>),
}

impl OpIds {
    /// Stores `ids` — each below `distinct` — at the narrowest width that
    /// holds every id of a `distinct`-op dictionary.
    fn narrow(distinct: usize, ids: Vec<u32>) -> Self {
        match id_bits(distinct) {
            8 => OpIds::U8(ids.iter().map(|&id| id as u8).collect()),
            16 => OpIds::U16(ids.iter().map(|&id| id as u16).collect()),
            _ => OpIds::U32(ids),
        }
    }

    fn get(&self, k: usize) -> usize {
        match self {
            OpIds::U8(v) => usize::from(v[k]),
            OpIds::U16(v) => usize::from(v[k]),
            OpIds::U32(v) => v[k] as usize,
        }
    }

    fn bits(&self) -> u32 {
        match self {
            OpIds::U8(_) => 8,
            OpIds::U16(_) => 16,
            OpIds::U32(_) => 32,
        }
    }

    fn heap_bytes(&self) -> usize {
        match self {
            OpIds::U8(v) => v.capacity(),
            OpIds::U16(v) => v.capacity() * 2,
            OpIds::U32(v) => v.capacity() * 4,
        }
    }
}

/// The id width for a `distinct`-op dictionary: 8 bits up to 256 ops, 16
/// up to 65 536, 32 beyond.
fn id_bits(distinct: usize) -> u32 {
    if distinct <= 1 << 8 {
        8
    } else if distinct <= 1 << 16 {
        16
    } else {
        32
    }
}

/// A `u64 → u32` map for interning. The `HashMap` holds every key. A
/// sketch has few distinct threads and ops but many entries, so a small
/// direct-mapped cache of recent pairs sits in front of it: a repeat
/// costs a multiply and a compare, and only a cache miss pays the keyed
/// hash.
#[derive(Debug)]
pub(crate) struct Interner {
    cache: Box<[(u64, u32); CACHE_SLOTS]>,
    map: std::collections::HashMap<u64, u32>,
}

/// Direct-mapped cache slots (a power of two).
const CACHE_SLOTS: usize = 1024;
/// An empty cache slot. No key is `u64::MAX`: tids are `u32`, and op keys
/// carry a container op code (below 64) above the operand.
const VACANT: u64 = u64::MAX;

impl Interner {
    pub(crate) fn new() -> Self {
        Interner {
            cache: Box::new([(VACANT, 0); CACHE_SLOTS]),
            map: std::collections::HashMap::new(),
        }
    }

    /// The value of `key`; a new key gets the value `insert` returns.
    #[inline(always)]
    pub(crate) fn get_or_insert_with(&mut self, key: u64, insert: impl FnOnce() -> u32) -> u32 {
        let slot = (key.wrapping_mul(0x9e37_79b9_7f4a_7c15)
            >> (u64::BITS - CACHE_SLOTS.trailing_zeros())) as usize;
        let (k, v) = self.cache[slot];
        if k == key {
            return v;
        }
        self.miss(slot, key, insert)
    }

    #[cold]
    #[inline(never)]
    fn miss(&mut self, slot: usize, key: u64, insert: impl FnOnce() -> u32) -> u32 {
        let v = *self.map.entry(key).or_insert_with(insert);
        self.cache[slot] = (key, v);
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pres_tvm::ids::{BbId, FuncId, LockId, VarId};

    fn ev(gseq: u64, tid: u32, op: Op) -> Event {
        Event {
            gseq,
            tid: ThreadId(tid),
            tseq: 0,
            op,
            result: OpResult::Unit,
        }
    }

    fn sample_events() -> Vec<Event> {
        vec![
            ev(0, 0, Op::ThreadStart),
            ev(1, 0, Op::Read(VarId(0))),
            ev(2, 0, Op::LockAcquire(LockId(1))),
            ev(3, 0, Op::Func(FuncId(2))),
            ev(4, 0, Op::BasicBlock(BbId(3))),
            ev(5, 0, Op::BasicBlock(BbId(4))),
            ev(6, 0, Op::Syscall(SyscallOp::ClockNow)),
            ev(7, 0, Op::Compute(100)),
            ev(8, 0, Op::LockRelease(LockId(1))),
            ev(9, 0, Op::ThreadExit),
        ]
    }

    #[test]
    fn mechanism_names() {
        assert_eq!(Mechanism::Rw.name(), "RW");
        assert_eq!(Mechanism::Sync.name(), "SYNC");
        assert_eq!(Mechanism::BbN(8).name(), "BB-8");
        assert_eq!(Mechanism::BbN(8).to_string(), "BB-8");
    }

    #[test]
    fn sync_sketch_keeps_sync_and_common_only() {
        let s = Sketch::from_events(Mechanism::Sync, &sample_events());
        let kinds: Vec<&SketchOp> = s.entries.iter().map(|e| &e.op).collect();
        assert!(kinds.iter().any(|k| matches!(k, SketchOp::Sync { kind: SyncKind::Lock, obj: 1 })));
        assert!(kinds.iter().all(|k| !k.is_mem()));
        assert!(kinds.iter().all(|k| !matches!(k, SketchOp::Bb(_) | SketchOp::Func(_))));
        // Syscall and lifecycle are kept.
        assert!(kinds.iter().any(|k| matches!(k, SketchOp::Sys { .. })));
        assert!(kinds.iter().any(|k| matches!(k, SketchOp::Start)));
    }

    #[test]
    fn rw_sketch_is_a_superset_of_sync_sketch() {
        let rw = Sketch::from_events(Mechanism::Rw, &sample_events());
        let sync = Sketch::from_events(Mechanism::Sync, &sample_events());
        // Every SYNC entry appears in RW, in order.
        let mut it = rw.entries.iter();
        for se in &sync.entries {
            assert!(
                it.any(|re| re == se),
                "SYNC entry {se:?} missing from RW sketch"
            );
        }
        assert!(rw.len() > sync.len());
    }

    #[test]
    fn sys_sketch_keeps_only_syscalls_and_lifecycle() {
        let s = Sketch::from_events(Mechanism::Sys, &sample_events());
        assert_eq!(s.len(), 3); // start, clock, exit
    }

    #[test]
    fn func_and_bb_sketches() {
        let f = Sketch::from_events(Mechanism::Func, &sample_events());
        assert!(f.entries.iter().any(|e| matches!(e.op, SketchOp::Func(2))));
        assert!(f.entries.iter().all(|e| !matches!(e.op, SketchOp::Bb(_))));
        let b = Sketch::from_events(Mechanism::Bb, &sample_events());
        assert_eq!(
            b.entries.iter().filter(|e| matches!(e.op, SketchOp::Bb(_))).count(),
            2
        );
    }

    #[test]
    fn bbn_samples_every_nth_block_per_thread() {
        let mut events = vec![ev(0, 0, Op::ThreadStart)];
        for i in 0..10 {
            events.push(ev(1 + i, 0, Op::BasicBlock(BbId(i as u32))));
        }
        let s = Sketch::from_events(Mechanism::BbN(4), &events);
        let bbs: Vec<u32> = s
            .entries
            .iter()
            .filter_map(|e| match e.op {
                SketchOp::Bb(id) => Some(id),
                _ => None,
            })
            .collect();
        assert_eq!(bbs, vec![0, 4, 8]);
    }

    #[test]
    fn bbn_counters_are_per_thread() {
        let events = vec![
            ev(0, 0, Op::BasicBlock(BbId(0))),
            ev(1, 1, Op::BasicBlock(BbId(10))),
            ev(2, 0, Op::BasicBlock(BbId(1))),
            ev(3, 1, Op::BasicBlock(BbId(11))),
        ];
        let s = Sketch::from_events(Mechanism::BbN(2), &events);
        let bbs: Vec<u32> = s
            .entries
            .iter()
            .filter_map(|e| match e.op {
                SketchOp::Bb(id) => Some(id),
                _ => None,
            })
            .collect();
        // Each thread's first block is its 0th — both sampled.
        assert_eq!(bbs, vec![0, 10]);
    }

    #[test]
    fn filter_split_query_and_update_agree_with_combined() {
        let ops = vec![
            Op::BasicBlock(BbId(0)),
            Op::BasicBlock(BbId(1)),
            Op::BasicBlock(BbId(2)),
            Op::BasicBlock(BbId(3)),
        ];
        let mut combined = MechanismFilter::new(Mechanism::BbN(2));
        let mut split = MechanismFilter::new(Mechanism::BbN(2));
        for op in &ops {
            let a = combined.record_and_note(ThreadId(0), op);
            let b = split.would_record(ThreadId(0), op);
            split.note_executed(ThreadId(0), op);
            assert_eq!(a, b);
        }
    }

    #[test]
    fn syscall_results_are_kept_only_for_syscalls() {
        let events = vec![
            Event {
                gseq: 0,
                tid: ThreadId(0),
                tseq: 0,
                op: Op::Read(VarId(0)),
                result: OpResult::Value(9),
            },
            Event {
                gseq: 1,
                tid: ThreadId(0),
                tseq: 1,
                op: Op::Syscall(SyscallOp::ClockNow),
                result: OpResult::Value(42),
            },
        ];
        let s = Sketch::from_events(Mechanism::Rw, &events);
        assert_eq!(s.entries[0].result, OpResult::Unit);
        assert_eq!(s.entries[1].result, OpResult::Value(42));
    }

    #[test]
    fn thread_positions_partition_the_sketch() {
        let events = vec![
            ev(0, 0, Op::LockAcquire(LockId(0))),
            ev(1, 1, Op::LockAcquire(LockId(1))),
            ev(2, 0, Op::LockRelease(LockId(0))),
        ];
        let s = Sketch::from_events(Mechanism::Sync, &events);
        let index = SketchIndex::new(&s);
        assert_eq!(index.thread_positions(ThreadId(0)), &[0, 2]);
        assert_eq!(index.thread_positions(ThreadId(1)), &[1]);
    }

    #[test]
    fn only_markers_skip_the_global_slot() {
        assert!(!SketchOp::Func(3).claims_global_slot());
        assert!(!SketchOp::Bb(9).claims_global_slot());
        for op in [
            SketchOp::Start,
            SketchOp::Exit,
            SketchOp::Spawn,
            SketchOp::Join { target: 1 },
            SketchOp::Mem {
                loc: MemLoc::Var(VarId(0)),
                write: false,
            },
            SketchOp::Sync {
                kind: SyncKind::Lock,
                obj: 0,
            },
            SketchOp::Sys {
                kind: SysKind::Clock,
                obj: 0,
            },
        ] {
            assert!(op.claims_global_slot(), "{op:?} must claim a slot");
        }
    }

    #[test]
    fn canonical_order_buckets_markers_before_their_slot() {
        // Thread 1's marker was recorded after slot 0 was claimed and
        // before slot 1; canonically it sorts between the two serialized
        // entries regardless of its raw arrival position.
        let events = vec![
            ev(0, 0, Op::LockAcquire(LockId(0))),
            ev(1, 1, Op::BasicBlock(BbId(7))),
            ev(2, 1, Op::BasicBlock(BbId(8))),
            ev(3, 0, Op::LockRelease(LockId(0))),
        ];
        let s = Sketch::from_events(Mechanism::Bb, &events);
        let ops: Vec<&SketchOp> = s.entries.iter().map(|e| &e.op).collect();
        assert!(matches!(ops[0], SketchOp::Sync { kind: SyncKind::Lock, .. }));
        assert_eq!(ops[1], &SketchOp::Bb(7));
        assert_eq!(ops[2], &SketchOp::Bb(8));
        assert!(matches!(ops[3], SketchOp::Sync { kind: SyncKind::Unlock, .. }));
    }

    #[test]
    fn canonical_order_ties_break_on_tid_then_seq() {
        // Two threads emit markers inside the same bucket (no serialized
        // entry between them): canonical order groups by tid, preserving
        // each thread's own sequence.
        let events = vec![
            ev(0, 2, Op::BasicBlock(BbId(20))),
            ev(1, 1, Op::BasicBlock(BbId(10))),
            ev(2, 2, Op::BasicBlock(BbId(21))),
            ev(3, 1, Op::BasicBlock(BbId(11))),
        ];
        let s = Sketch::from_events(Mechanism::Bb, &events);
        let bbs: Vec<u32> = s
            .entries
            .iter()
            .filter_map(|e| match e.op {
                SketchOp::Bb(id) => Some(id),
                _ => None,
            })
            .collect();
        assert_eq!(bbs, vec![10, 11, 20, 21]);
    }

    #[test]
    fn all_serial_mechanisms_keep_the_recorded_global_order() {
        let s = Sketch::from_events(Mechanism::Sync, &sample_events());
        // Every SYNC entry claims a slot, so canonical order == gseq order.
        let kinds: Vec<&SketchOp> = s.entries.iter().map(|e| &e.op).collect();
        assert!(matches!(kinds[0], SketchOp::Start));
        assert!(matches!(kinds[1], SketchOp::Sync { kind: SyncKind::Lock, .. }));
        assert!(matches!(kinds[2], SketchOp::Sys { .. }));
        assert!(matches!(kinds[3], SketchOp::Sync { kind: SyncKind::Unlock, .. }));
        assert!(matches!(kinds[4], SketchOp::Exit));
    }

    #[test]
    fn sketch_index_caches_ops_and_thread_lists() {
        let events = vec![
            ev(0, 0, Op::LockAcquire(LockId(0))),
            ev(1, 2, Op::LockAcquire(LockId(1))),
            ev(2, 0, Op::LockRelease(LockId(0))),
        ];
        let s = Sketch::from_events(Mechanism::Sync, &events);
        let index = SketchIndex::new(&s);
        assert_eq!(index.mechanism(), Mechanism::Sync);
        assert_eq!(index.len(), s.len());
        // Every entry is some thread's front at its recorded position.
        for tid in [0, 2] {
            let slot = index.slot(ThreadId(tid)).expect("recorded thread");
            for (pos, &g) in index.thread_positions(ThreadId(tid)).iter().enumerate() {
                let (at, op) = index.front(slot, pos).expect("within the column");
                assert_eq!((at, op), (g as usize, &s.entries[g as usize].op));
            }
            let len = index.thread_positions(ThreadId(tid)).len();
            assert_eq!(index.front(slot, len), None);
        }
        assert_eq!(index.thread_positions(ThreadId(0)), &[0, 2]);
        assert_eq!(index.thread_positions(ThreadId(2)), &[1]);
        // Absent tids — below or above the recorded ones — have no slot.
        assert_eq!(index.slot(ThreadId(1)), None);
        assert_eq!(index.thread_positions(ThreadId(1)), &[] as &[u32]);
        assert_eq!(index.thread_positions(ThreadId(9)), &[] as &[u32]);
        // Slots exist only for the threads present.
        assert_eq!(index.threads(), 2);
        assert_eq!((index.distinct_ops(), index.id_bits()), (3, 8));
    }

    #[test]
    fn op_ids_widen_with_the_dictionary() {
        for (distinct, bits) in [(256u32, 8), (257, 16), (70_000, 32)] {
            let mut s = Sketch::new(Mechanism::Func);
            // Twice over, so every op is looked up again after far more
            // distinct keys than the interning cache has slots.
            s.entries = (0..2 * distinct)
                .map(|g| SketchEntry {
                    tid: ThreadId(g % 3),
                    op: SketchOp::Func(g % distinct),
                    result: OpResult::Unit,
                })
                .collect();
            let index = SketchIndex::new(&s);
            assert_eq!(
                (index.distinct_ops(), index.id_bits()),
                (distinct as usize, bits)
            );
            for tid in 0..3 {
                let slot = index.slot(ThreadId(tid)).unwrap();
                for (pos, &g) in index.thread_positions(ThreadId(tid)).iter().enumerate() {
                    let op = &s.entries[g as usize].op;
                    assert_eq!(index.front(slot, pos), Some((g as usize, op)));
                }
            }
        }
    }

    #[test]
    fn fail_and_compute_never_sketch() {
        assert!(SketchOp::from_op(&Op::Fail("x".into())).is_none());
        assert!(SketchOp::from_op(&Op::Compute(5)).is_none());
        assert!(SketchOp::from_op(&Op::Yield).is_none());
    }
}
