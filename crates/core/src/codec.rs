//! Compact binary encoding of sketches — the on-disk log format.
//!
//! The paper reports recording overhead *and* log growth; both depend on a
//! realistic log encoding. Two container versions share a common header
//! (magic, version byte, mechanism, run metadata):
//!
//! * **v2** — a columnar layout: a thread directory (delta-encoded tids),
//!   an interleave stream capturing the cross-thread order (plain,
//!   run-length encoded or nibble-packed, whichever is smallest), and one
//!   column block per thread whose entries carry a one-byte op-kind
//!   dictionary code and a zigzag-varint operand delta against the
//!   previous operand of the same kind group on that thread. Same-thread
//!   runs and locally clustered ids — the common case for marker-dense
//!   sketches — collapse to a byte or two per entry.
//! * **v3** — a v2 body prefixed by a checkpoint segment, written for
//!   ring-flushed sketches.
//!
//! [`encode_sketch`] picks the version by whether the sketch carries a
//! checkpoint. One private reader walks every container — header,
//! optional checkpoint segment, body, trailing-bytes check — behind the
//! three public readers: [`decode_sketch`] (entries), [`decode_index`]
//! (the compact replay index) and [`layout`] (sizes, for tools). Any
//! other version byte, the retired flat v1 stream included, is refused
//! as `unsupported version`.
//!
//! Bytes are written and read through [`pres_tvm::bytes`], the workspace's
//! one byte codec (certificates, VM snapshots and the daemon's journal and
//! protocol use it too), and every error is its [`DecodeError`]. Its two
//! decode rules hold for every field here: a varint is canonical (a
//! tenth byte above 1 is `varint overflow`, never dropped bits, and a
//! zero-padded encoding is `overlong varint`), and every
//! `u32` field — the BB-N argument, the processor count, thread ids,
//! operands, syscall-result connection, fd and thread ids — is
//! refused as `<what> out of range` above `u32::MAX`, never truncated. So
//! no two byte strings decode to one sketch.

use crate::sketch::{
    EpochInfo, Interner, Mechanism, OpDict, Sketch, SketchCheckpoint, SketchEntry, SketchIndex,
    SketchMeta, SketchOp, SyncKind, SysKind,
};
use pres_tvm::bytes::{Reader, Writer};
use pres_tvm::ids::{ConnId, FdId, ThreadId};
use pres_tvm::op::{MemLoc, OpResult};

pub use pres_tvm::bytes::DecodeError;

// --- op kinds and syscall results ------------------------------------------

const RES_UNIT: u8 = 0;
const RES_VALUE: u8 = 1;
const RES_BYTES: u8 = 2;
const RES_MAYBE_BYTES_NONE: u8 = 3;
const RES_MAYBE_BYTES_SOME: u8 = 4;
const RES_MAYBE_VALUE_NONE: u8 = 5;
const RES_MAYBE_VALUE_SOME: u8 = 6;
const RES_MAYBE_CONN_NONE: u8 = 7;
const RES_MAYBE_CONN_SOME: u8 = 8;
const RES_FD: u8 = 9;
const RES_TID: u8 = 10;

fn sync_kind_code(k: SyncKind) -> u8 {
    match k {
        SyncKind::Lock => 0,
        SyncKind::Unlock => 1,
        SyncKind::RwRead => 2,
        SyncKind::RwWrite => 3,
        SyncKind::RwUnlock => 4,
        SyncKind::Wait => 5,
        SyncKind::Rewait => 6,
        SyncKind::Signal => 7,
        SyncKind::Broadcast => 8,
        SyncKind::Barrier => 9,
        SyncKind::BarrierResume => 10,
        SyncKind::SemP => 11,
        SyncKind::SemV => 12,
        SyncKind::Send => 13,
        SyncKind::Recv => 14,
        SyncKind::ChanClose => 15,
    }
}

#[inline]
fn sync_kind_from(code: u8) -> Option<SyncKind> {
    Some(match code {
        0 => SyncKind::Lock,
        1 => SyncKind::Unlock,
        2 => SyncKind::RwRead,
        3 => SyncKind::RwWrite,
        4 => SyncKind::RwUnlock,
        5 => SyncKind::Wait,
        6 => SyncKind::Rewait,
        7 => SyncKind::Signal,
        8 => SyncKind::Broadcast,
        9 => SyncKind::Barrier,
        10 => SyncKind::BarrierResume,
        11 => SyncKind::SemP,
        12 => SyncKind::SemV,
        13 => SyncKind::Send,
        14 => SyncKind::Recv,
        15 => SyncKind::ChanClose,
        _ => return None,
    })
}

fn sys_kind_code(k: SysKind) -> u8 {
    match k {
        SysKind::Open => 0,
        SysKind::Read => 1,
        SysKind::Write => 2,
        SysKind::Close => 3,
        SysKind::Accept => 4,
        SysKind::Recv => 5,
        SysKind::Send => 6,
        SysKind::NetClose => 7,
        SysKind::Clock => 8,
        SysKind::Random => 9,
        SysKind::Stdout => 10,
    }
}

#[inline]
fn sys_kind_from(code: u8) -> Option<SysKind> {
    Some(match code {
        0 => SysKind::Open,
        1 => SysKind::Read,
        2 => SysKind::Write,
        3 => SysKind::Close,
        4 => SysKind::Accept,
        5 => SysKind::Recv,
        6 => SysKind::Send,
        7 => SysKind::NetClose,
        8 => SysKind::Clock,
        9 => SysKind::Random,
        10 => SysKind::Stdout,
        _ => return None,
    })
}

#[inline(always)]
fn encode_result(w: &mut Writer, r: &OpResult) {
    match r {
        OpResult::Unit => w.u8(RES_UNIT),
        OpResult::Value(v) => {
            w.u8(RES_VALUE);
            w.varint(*v);
        }
        OpResult::Bytes(b) => {
            w.u8(RES_BYTES);
            w.bytes(b);
        }
        OpResult::MaybeBytes(None) => w.u8(RES_MAYBE_BYTES_NONE),
        OpResult::MaybeBytes(Some(b)) => {
            w.u8(RES_MAYBE_BYTES_SOME);
            w.bytes(b);
        }
        OpResult::MaybeValue(None) => w.u8(RES_MAYBE_VALUE_NONE),
        OpResult::MaybeValue(Some(v)) => {
            w.u8(RES_MAYBE_VALUE_SOME);
            w.varint(*v);
        }
        OpResult::MaybeConn(None) => w.u8(RES_MAYBE_CONN_NONE),
        OpResult::MaybeConn(Some(c)) => {
            w.u8(RES_MAYBE_CONN_SOME);
            w.varint(u64::from(c.0));
        }
        OpResult::Fd(fd) => {
            w.u8(RES_FD);
            w.varint(u64::from(fd.0));
        }
        OpResult::Tid(t) => {
            w.u8(RES_TID);
            w.varint(u64::from(t.0));
        }
    }
}

/// Reads one syscall result. With `keep == false` byte payloads are
/// validated and skipped without allocating (the returned result then
/// carries empty bytes); every error is the same either way.
#[inline(always)]
fn decode_result(r: &mut Reader<'_>, keep: bool) -> Result<OpResult, DecodeError> {
    let payload = |r: &mut Reader<'_>| {
        r.bytes()
            .map(|b| if keep { b.to_vec() } else { Vec::new() })
    };
    Ok(match r.u8()? {
        RES_UNIT => OpResult::Unit,
        RES_VALUE => OpResult::Value(r.varint()?),
        RES_BYTES => OpResult::Bytes(payload(r)?),
        RES_MAYBE_BYTES_NONE => OpResult::MaybeBytes(None),
        RES_MAYBE_BYTES_SOME => OpResult::MaybeBytes(Some(payload(r)?)),
        RES_MAYBE_VALUE_NONE => OpResult::MaybeValue(None),
        RES_MAYBE_VALUE_SOME => OpResult::MaybeValue(Some(r.varint()?)),
        RES_MAYBE_CONN_NONE => OpResult::MaybeConn(None),
        RES_MAYBE_CONN_SOME => {
            OpResult::MaybeConn(Some(ConnId(r.varint_u32("connection id")?)))
        }
        RES_FD => OpResult::Fd(FdId(r.varint_u32("fd id")?)),
        RES_TID => OpResult::Tid(ThreadId(r.varint_u32("thread id")?)),
        other => return Err(r.err(format!("unknown result tag {other}"))),
    })
}

const MAGIC: &[u8; 4] = b"PRES";
const VERSION_V2: u8 = 2;
/// v3 = v2 columnar body prefixed by a checkpoint segment. Only v3
/// containers carry checkpoints, so corrupt v2 input can never decode
/// into a phantom checkpoint.
const VERSION_V3: u8 = 3;

fn mechanism_code(m: Mechanism) -> (u8, u32) {
    match m {
        Mechanism::Rw => (0, 0),
        Mechanism::Sync => (1, 0),
        Mechanism::Sys => (2, 0),
        Mechanism::Func => (3, 0),
        Mechanism::Bb => (4, 0),
        Mechanism::BbN(n) => (5, n),
    }
}

fn mechanism_from(code: u8, arg: u32) -> Option<Mechanism> {
    Some(match code {
        0 => Mechanism::Rw,
        1 => Mechanism::Sync,
        2 => Mechanism::Sys,
        3 => Mechanism::Func,
        4 => Mechanism::Bb,
        5 => Mechanism::BbN(arg),
        _ => return None,
    })
}

fn encode_header(w: &mut Writer, sketch: &Sketch, version: u8) {
    w.raw(MAGIC);
    w.u8(version);
    let (code, arg) = mechanism_code(sketch.mechanism);
    w.u8(code);
    w.varint(u64::from(arg));
    w.str(&sketch.meta.program);
    w.varint(sketch.meta.seed);
    w.varint(u64::from(sketch.meta.processors));
    w.varint(sketch.meta.total_ops);
    w.str(&sketch.meta.failure_signature);
}

/// Serializes a sketch to its binary log form: the [v2](self) columnar
/// container, or v3 (checkpoint segment + the identical v2 body over the
/// retained window's entries) when the sketch carries a ring-flush
/// checkpoint.
pub fn encode_sketch(sketch: &Sketch) -> Vec<u8> {
    let mut w = Writer::new();
    let checkpoint = sketch.checkpoint.as_deref();
    let version = if checkpoint.is_some() {
        VERSION_V3
    } else {
        VERSION_V2
    };
    encode_header(&mut w, sketch, version);
    if let Some(cp) = checkpoint {
        encode_checkpoint(&mut w, cp);
    }
    encode_body_v2(&mut w, sketch);
    w.finish()
}

// --- v2 columnar container --------------------------------------------------

// One-byte op-kind dictionary. Sync and sys kinds fold into the code so a
// v2 entry needs no separate kind byte. The dictionary occupies the low 6
// bits; the top two bits encode the operand delta for the two overwhelmingly
// common cases (same object as last time: locks, hot counters; successor
// id: straight-line basic blocks), making such entries a single byte.
const CODE_START: u8 = 0;
const CODE_EXIT: u8 = 1;
const CODE_SPAWN: u8 = 2;
const CODE_MEM_READ_VAR: u8 = 3;
const CODE_MEM_WRITE_VAR: u8 = 4;
const CODE_MEM_READ_BUF: u8 = 5;
const CODE_MEM_WRITE_BUF: u8 = 6;
const CODE_JOIN: u8 = 7;
const CODE_FUNC: u8 = 8;
const CODE_BB: u8 = 9;
const CODE_SYNC_BASE: u8 = 10; // + sync_kind_code: 10..=25
const CODE_SYS_BASE: u8 = 26; // + sys_kind_code: 26..=36
const CODE_END: u8 = 37; // one past the last code; every code below it is valid

/// Operand delta folded into the code byte's top two bits.
const FLAG_SHIFT: u32 = 6;
const FLAG_VARINT: u8 = 0; // zigzag varint delta follows
const FLAG_DELTA_ZERO: u8 = 1; // operand == previous in group
const FLAG_DELTA_ONE: u8 = 2; // operand == previous + 1
const CODE_MASK: u8 = (1 << FLAG_SHIFT) - 1;

/// Operand delta groups: each thread keeps one "previous operand" per
/// group, so e.g. basic-block ids delta against the last basic-block id
/// on the same thread, not against an unrelated lock id.
const GROUP_MEM_VAR: usize = 0;
const GROUP_MEM_BUF: usize = 1;
const GROUP_SYNC: usize = 2;
const GROUP_SYS: usize = 3;
const GROUP_FUNC: usize = 4;
const GROUP_BB: usize = 5;
const GROUP_JOIN: usize = 6;
const GROUPS: usize = 7;

/// The dictionary code and (delta group, operand) of an op; operand is
/// `None` for the three operand-free lifecycle codes.
pub(crate) fn op_code(op: &SketchOp) -> (u8, Option<(usize, u32)>) {
    match op {
        SketchOp::Start => (CODE_START, None),
        SketchOp::Exit => (CODE_EXIT, None),
        SketchOp::Spawn => (CODE_SPAWN, None),
        SketchOp::Mem { loc, write } => match loc {
            MemLoc::Var(v) => (
                if *write {
                    CODE_MEM_WRITE_VAR
                } else {
                    CODE_MEM_READ_VAR
                },
                Some((GROUP_MEM_VAR, v.0)),
            ),
            MemLoc::Buf(b) => (
                if *write {
                    CODE_MEM_WRITE_BUF
                } else {
                    CODE_MEM_READ_BUF
                },
                Some((GROUP_MEM_BUF, b.0)),
            ),
        },
        SketchOp::Join { target } => (CODE_JOIN, Some((GROUP_JOIN, *target))),
        SketchOp::Func(f) => (CODE_FUNC, Some((GROUP_FUNC, *f))),
        SketchOp::Bb(b) => (CODE_BB, Some((GROUP_BB, *b))),
        SketchOp::Sync { kind, obj } => {
            (CODE_SYNC_BASE + sync_kind_code(*kind), Some((GROUP_SYNC, *obj)))
        }
        SketchOp::Sys { kind, obj } => {
            (CODE_SYS_BASE + sys_kind_code(*kind), Some((GROUP_SYS, *obj)))
        }
    }
}

/// The delta group an operand-carrying code reads/writes, or `None` for
/// operand-free codes. Unknown codes also return `None`; the decoder
/// rejects them separately.
#[inline]
fn code_group(code: u8) -> Option<usize> {
    match code {
        CODE_MEM_READ_VAR | CODE_MEM_WRITE_VAR => Some(GROUP_MEM_VAR),
        CODE_MEM_READ_BUF | CODE_MEM_WRITE_BUF => Some(GROUP_MEM_BUF),
        CODE_JOIN => Some(GROUP_JOIN),
        CODE_FUNC => Some(GROUP_FUNC),
        CODE_BB => Some(GROUP_BB),
        c if (CODE_SYNC_BASE..CODE_SYS_BASE).contains(&c) => Some(GROUP_SYNC),
        c if (CODE_SYS_BASE..CODE_END).contains(&c) => Some(GROUP_SYS),
        _ => None,
    }
}

#[inline]
fn op_from_code(code: u8, operand: u32) -> Option<SketchOp> {
    Some(match code {
        CODE_START => SketchOp::Start,
        CODE_EXIT => SketchOp::Exit,
        CODE_SPAWN => SketchOp::Spawn,
        CODE_MEM_READ_VAR | CODE_MEM_WRITE_VAR => SketchOp::Mem {
            loc: MemLoc::Var(pres_tvm::ids::VarId(operand)),
            write: code == CODE_MEM_WRITE_VAR,
        },
        CODE_MEM_READ_BUF | CODE_MEM_WRITE_BUF => SketchOp::Mem {
            loc: MemLoc::Buf(pres_tvm::ids::BufId(operand)),
            write: code == CODE_MEM_WRITE_BUF,
        },
        CODE_JOIN => SketchOp::Join { target: operand },
        CODE_FUNC => SketchOp::Func(operand),
        CODE_BB => SketchOp::Bb(operand),
        c if (CODE_SYNC_BASE..CODE_SYS_BASE).contains(&c) => SketchOp::Sync {
            kind: sync_kind_from(c - CODE_SYNC_BASE)?,
            obj: operand,
        },
        c if (CODE_SYS_BASE..CODE_END).contains(&c) => SketchOp::Sys {
            kind: sys_kind_from(c - CODE_SYS_BASE)?,
            obj: operand,
        },
        _ => return None,
    })
}

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

fn encode_checkpoint(w: &mut Writer, cp: &SketchCheckpoint) {
    w.varint(cp.boundary);
    w.varint(cp.production_seed);
    w.varint(cp.dropped_epochs);
    w.varint(cp.dropped_entries);
    w.varint(cp.bbn_counters.len() as u64);
    for c in &cp.bbn_counters {
        w.varint(*c);
    }
    w.varint(cp.epochs.len() as u64);
    for e in &cp.epochs {
        w.varint(e.index);
        w.varint(e.start_picks);
        w.varint(e.entries);
    }
    w.bytes(&cp.snapshot);
}

fn decode_checkpoint(r: &mut Reader<'_>) -> Result<SketchCheckpoint, DecodeError> {
    let boundary = r.varint()?;
    let production_seed = r.varint()?;
    let dropped_epochs = r.varint()?;
    let dropped_entries = r.varint()?;
    let nc = r.count(1, "bbn counter")?;
    let mut bbn_counters = Vec::with_capacity(nc);
    for _ in 0..nc {
        bbn_counters.push(r.varint()?);
    }
    let ne = r.count(3, "epoch directory")?;
    let mut epochs = Vec::with_capacity(ne);
    for _ in 0..ne {
        epochs.push(EpochInfo {
            index: r.varint()?,
            start_picks: r.varint()?,
            entries: r.varint()?,
        });
    }
    let snapshot = r.bytes()?.to_vec();
    // A checkpoint is only as trustworthy as its snapshot: validate the
    // embedded blob in full here so corruption surfaces at decode time,
    // never as a phantom restore target.
    if boundary == 0 {
        if !snapshot.is_empty() {
            return Err(r.err("genesis checkpoint carries a snapshot"));
        }
    } else {
        let snap = pres_tvm::snapshot::VmSnapshot::decode(&snapshot)
            .map_err(|e| r.err(format!("embedded vm snapshot: {e}")))?;
        if snap.picks() != boundary {
            return Err(r.err("snapshot pick count disagrees with checkpoint boundary"));
        }
    }
    Ok(SketchCheckpoint {
        boundary,
        production_seed,
        dropped_epochs,
        dropped_entries,
        bbn_counters,
        epochs,
        snapshot,
    })
}

/// Writes everything after the header of a v2/v3 container: entry count,
/// thread directory, interleave stream, and per-thread column blocks.
///
/// One pass over the entries feeds each thread's [`ColumnWriter`] and
/// notes the cross-thread order as same-thread runs, from which the
/// interleave encodings' lengths follow in closed form.
fn encode_body_v2(w: &mut Writer, sketch: &Sketch) {
    let (entries, n) = (&sketch.entries, sketch.entries.len());
    // Threads take slots in first-seen order, one lookup per same-thread
    // run; memory is O(threads), never O(largest tid).
    let mut slots = Interner::new();
    // Per slot: tid, runs, column. Same-thread runs as (slot, first
    // position), and the varint bytes their lengths take.
    let mut cols: Vec<(u32, u64, ColumnWriter)> = Vec::new();
    let (mut runs, mut run_bytes) = (Vec::<(u32, u32)>::new(), 0);
    let (mut run_tid, mut slot) = (None, 0);
    for (pos, e) in entries.iter().enumerate() {
        let tid = e.tid.0;
        if run_tid != Some(tid) {
            let cell = slots.get_or_insert_with(u64::from(tid), || {
                cols.push((tid, 0, ColumnWriter::default()));
                cols.len() as u32 - 1
            });
            run_bytes += runs
                .last()
                .map_or(0, |r| varint_size((pos - r.1 as usize) as u64));
            (run_tid, slot) = (Some(tid), cell as usize);
            cols[slot].1 += 1;
            runs.push((slot as u32, pos as u32));
        }
        cols[slot].2.push(&e.op, &e.result);
    }
    run_bytes += runs
        .last()
        .map_or(0, |r| varint_size((n - r.1 as usize) as u64));

    // Thread directory: ascending tids, delta-encoded; a thread's rank is
    // its interleave index and places its column. Per-thread entry counts
    // are *not* stored — the decoder counts the interleave stream, which
    // is plain index varints, (index, length) run pairs, or (for ≤16
    // threads) two indices nibble-packed per byte, whichever is smallest,
    // a tie going to the lowest flag.
    let mut order: Vec<usize> = (0..cols.len()).collect();
    order.sort_unstable_by_key(|&s| cols[s].0);
    let mut index = vec![0; cols.len()];
    let mut len = [
        0,
        varint_size(runs.len() as u64) + run_bytes,
        n.div_ceil(2) as u64,
    ];
    w.varint(n as u64);
    w.varint(cols.len() as u64);
    let mut next = 0;
    for (i, &s) in order.iter().enumerate() {
        let (tid, thread_runs, col) = &cols[s];
        let size = varint_size(i as u64);
        index[s] = i as u64;
        len[0] += col.entries * size;
        len[1] += thread_runs * size;
        w.varint(u64::from(*tid) - next);
        next = u64::from(*tid) + 1;
    }
    if cols.len() > 16 {
        len[2] = u64::MAX;
    }
    let flag = (0..3).min_by_key(|&f| (len[f as usize], f)).unwrap_or(0);
    let columns: usize = cols.iter().map(|c| c.2.w.len()).sum();
    w.reserve(1 + len[flag as usize] as usize + columns);
    w.u8(flag);
    if flag == 1 {
        w.varint(runs.len() as u64);
    }
    let ends = runs.iter().skip(1).map(|r| r.1).chain([n as u32]);
    let mut half = None; // the nibble stream's pending low half
    for (&(s, start), end) in runs.iter().zip(ends) {
        let (i, run) = (index[s as usize], end - start);
        match flag {
            0 => (0..run).for_each(|_| w.varint(i)),
            1 => {
                w.varint(i);
                w.varint(u64::from(run));
            }
            _ => (0..run).for_each(|_| match half.take() {
                None => half = Some(i as u8),
                Some(lo) => w.u8(lo | (i as u8) << 4),
            }),
        }
    }
    if let Some(lo) = half {
        w.u8(lo);
    }
    for s in order {
        w.raw(&std::mem::take(&mut cols[s].2.w).finish());
    }
}

/// One thread's v2 column block, written as its entries arrive: the
/// dictionary code with its delta flag, the zigzag operand delta against
/// the previous operand of the same group when no flag covers it, and a
/// syscall's result, which replay must reproduce verbatim.
#[derive(Default)]
struct ColumnWriter {
    w: Writer,
    prevs: [i64; GROUPS],
    entries: u64,
}

impl ColumnWriter {
    /// Appends the thread's next entry.
    #[inline]
    fn push(&mut self, op: &SketchOp, result: &OpResult) {
        self.entries += 1;
        let (code, operand) = op_code(op);
        let Some((group, v)) = operand else {
            return self.w.u8(code);
        };
        let delta = i64::from(v) - std::mem::replace(&mut self.prevs[group], i64::from(v));
        let flag = match delta {
            0 => FLAG_DELTA_ZERO,
            1 => FLAG_DELTA_ONE,
            _ => FLAG_VARINT,
        };
        self.w.u8(code | (flag << FLAG_SHIFT));
        if flag == FLAG_VARINT {
            self.w.varint(zigzag(delta));
        }
        if matches!(op, SketchOp::Sys { .. }) {
            encode_result(&mut self.w, result);
        }
    }
}

/// One per-thread shard of a container body: how many entries the thread
/// contributed and how many bytes its column block occupies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shard {
    /// The thread id owning the column.
    pub tid: u32,
    /// Entries in the column.
    pub entries: u64,
    /// Encoded bytes of the column block (codes, operand deltas, syscall
    /// results).
    pub column_bytes: u64,
}

/// The physical layout of a container — what `pres sketch-info` prints
/// as its version, checkpoint segment and shard directory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Layout {
    /// The container version byte: 2, or 3 for a checkpoint-bearing
    /// container.
    pub version: u8,
    /// Encoded bytes of the v3 checkpoint segment (header excluded);
    /// `None` for a v2 container.
    pub checkpoint_bytes: Option<u64>,
    /// Total entries in the container.
    pub entries: u64,
    /// How the cross-thread interleave stream is encoded.
    pub interleave_encoding: &'static str,
    /// Bytes of the interleave stream (including its selector byte).
    pub interleave_bytes: u64,
    /// Per-thread shards, ascending by thread id.
    pub threads: Vec<Shard>,
}

/// Where [`walk_body`] delivers a v2 body's entries, column by column.
/// One sink materialises [`SketchEntry`]s ([`decode_sketch`]), the other
/// builds the compact replay index ([`decode_index`]).
trait BodySink {
    /// Whether syscall byte payloads are copied out (`false`: validated
    /// and skipped without allocating).
    const KEEPS_RESULTS: bool;

    /// Thread `tid`'s next entry, at global position `pos`: its op as a
    /// dictionary code below `CODE_END` and its operand (0 for the
    /// operand-free codes).
    fn entry(&mut self, pos: u32, tid: u32, code: u8, operand: u32, result: OpResult);
}

/// Materialises entries straight into their global positions. The
/// interleave stream assigns every position exactly once, so each
/// placeholder is overwritten.
struct EntrySink(Vec<SketchEntry>);

impl EntrySink {
    fn new(n: usize) -> Self {
        let placeholder = SketchEntry {
            tid: ThreadId(0),
            op: SketchOp::Start,
            result: OpResult::Unit,
        };
        EntrySink(vec![placeholder; n])
    }
}

impl BodySink for EntrySink {
    const KEEPS_RESULTS: bool = true;

    #[inline]
    fn entry(&mut self, pos: u32, tid: u32, code: u8, operand: u32, result: OpResult) {
        // `walk_body` refused every code without an op, so this always
        // writes; an `expect` here slows the decode loop measurably.
        if let Some(op) = op_from_code(code, operand) {
            self.0[pos as usize] = SketchEntry {
                tid: ThreadId(tid),
                op,
                result,
            };
        }
    }
}

/// Interns every op, column by column — the index's op columns. The
/// dictionary is keyed on the raw (code, operand) pair, so a
/// [`SketchOp`] is built only the first time an op is seen.
struct IndexSink {
    dict: OpDict,
    ids: Vec<u32>,
}

impl IndexSink {
    fn new(n: usize) -> Self {
        IndexSink {
            dict: OpDict::new(),
            ids: Vec::with_capacity(n),
        }
    }
}

impl BodySink for IndexSink {
    const KEEPS_RESULTS: bool = false;

    #[inline]
    fn entry(&mut self, _pos: u32, _tid: u32, code: u8, operand: u32, _result: OpResult) {
        let id = self.dict.intern(code, operand, || {
            op_from_code(code, operand).expect("walk_body checked the code")
        });
        self.ids.push(id);
    }
}

/// Discards entries: [`layout`] needs only the walk itself.
impl BodySink for () {
    const KEEPS_RESULTS: bool = false;

    fn entry(&mut self, _pos: u32, _tid: u32, _code: u8, _operand: u32, _result: OpResult) {}
}

/// What [`walk_body`] recovers besides the entries: the thread directory,
/// each thread's column range and global positions (column order), and
/// the interleave encoding and shards [`layout`] reports.
struct Body {
    tids: Vec<u32>,
    starts: Vec<u32>,
    positions: Vec<u32>,
    interleave_encoding: &'static str,
    interleave_bytes: u64,
    shards: Vec<Shard>,
}

/// The body walker behind every reader: entry count, thread directory,
/// interleave stream, then each thread's column, handing every decoded
/// entry to `sink`.
///
/// Every count is bounded before it sizes an allocation: the entry count
/// by the bytes that remain (each entry costs at least its column byte)
/// and by `u32` (positions are `u32`), the thread count by the entry
/// count, interleave runs by the entries not yet covered. The interleave
/// is read twice — once to count each thread's entries, once to scatter
/// their positions — so no per-entry interleave vector is ever kept.
fn walk_body<S: BodySink>(
    r: &mut Reader<'_>,
    sink_for: impl FnOnce(usize) -> S,
) -> Result<(Body, S), DecodeError> {
    let n = r.count(1, "entry")?;
    if u32::try_from(n).is_err() {
        return Err(r.err("entry count exceeds u32 positions"));
    }
    let t = r.varint()?;
    if t > n as u64 {
        return Err(r.err("thread directory larger than entry count"));
    }
    let t = t as usize;

    let mut tids: Vec<u32> = Vec::with_capacity(t);
    for _ in 0..t {
        let raw = r.varint()?;
        let tid = match tids.last() {
            None => Some(raw),
            Some(&prev) => (u64::from(prev) + 1).checked_add(raw),
        };
        let tid = tid
            .and_then(|tid| u32::try_from(tid).ok())
            .ok_or_else(|| r.err("thread id out of range"))?;
        tids.push(tid);
    }

    let interleave_start = r.position();
    let flag = r.u8()?;
    let interleave_encoding = match flag {
        0 => "plain",
        1 => "rle",
        2 => "nibble",
        other => return Err(r.err(format!("unknown interleave flag {other}"))),
    };
    let mut interleave = r.clone();
    // Per-thread entry counts are implicit in the interleave stream.
    let mut counts = vec![0u32; t];
    walk_interleave(r, flag, n, t, |thread| counts[thread] += 1)?;
    let interleave_bytes = (r.position() - interleave_start) as u64;
    let mut starts = Vec::with_capacity(t + 1);
    starts.push(0u32);
    for &count in &counts {
        if count == 0 {
            return Err(r.err("empty thread column"));
        }
        starts.push(starts[starts.len() - 1] + count);
    }
    let mut cursor = starts[..t].to_vec();
    let mut positions = vec![0u32; n];
    let mut pos = 0u32;
    walk_interleave(&mut interleave, flag, n, t, |thread| {
        positions[cursor[thread] as usize] = pos;
        cursor[thread] += 1;
        pos += 1;
    })?;

    let mut sink = sink_for(n);
    let mut shards = Vec::with_capacity(t);
    for (slot, &tid) in tids.iter().enumerate() {
        let column_start = r.position();
        let mut prevs = [0i64; GROUPS];
        let column = starts[slot] as usize..starts[slot + 1] as usize;
        for &pos in &positions[column] {
            let byte = r.u8()?;
            let code = byte & CODE_MASK;
            let flag = byte >> FLAG_SHIFT;
            let operand = match code_group(code) {
                Some(group) => {
                    let delta = match flag {
                        FLAG_VARINT => unzigzag(r.varint()?),
                        FLAG_DELTA_ZERO => 0,
                        FLAG_DELTA_ONE => 1,
                        other => return Err(r.err(format!("reserved delta flag {other}"))),
                    };
                    let value = prevs[group]
                        .checked_add(delta)
                        .ok_or_else(|| r.err("operand delta overflow"))?;
                    let v = u32::try_from(value).map_err(|_| r.err("operand out of range"))?;
                    prevs[group] = value;
                    v
                }
                None => {
                    if flag != FLAG_VARINT {
                        return Err(r.err(format!("delta flag on operand-free code {code}")));
                    }
                    0
                }
            };
            if code >= CODE_END {
                return Err(r.err(format!("unknown op code {code}")));
            }
            let result = if code >= CODE_SYS_BASE {
                decode_result(r, S::KEEPS_RESULTS)?
            } else {
                OpResult::Unit
            };
            sink.entry(pos, tid, code, operand, result);
        }
        shards.push(Shard {
            tid,
            entries: u64::from(starts[slot + 1] - starts[slot]),
            column_bytes: (r.position() - column_start) as u64,
        });
    }
    let body = Body {
        tids,
        starts,
        positions,
        interleave_encoding,
        interleave_bytes,
        shards,
    };
    Ok((body, sink))
}

/// Parses and validates an interleave stream of `n` entries over `t`
/// threads (the selector byte already read), calling `next(thread)` for
/// each global position in order.
fn walk_interleave(
    r: &mut Reader<'_>,
    flag: u8,
    n: usize,
    t: usize,
    mut next: impl FnMut(usize),
) -> Result<(), DecodeError> {
    let out_of_range = |r: &Reader<'_>| r.err("interleave thread index out of range");
    match flag {
        0 => {
            for _ in 0..n {
                let idx = r.varint()?;
                if idx >= t as u64 {
                    return Err(out_of_range(r));
                }
                next(idx as usize);
            }
        }
        1 => {
            let mut covered = 0usize;
            for _ in 0..r.varint()? {
                let idx = r.varint()?;
                if idx >= t as u64 {
                    return Err(out_of_range(r));
                }
                let len = r.varint()?;
                if len > (n - covered) as u64 {
                    return Err(r.err("interleave runs exceed entry count"));
                }
                for _ in 0..len {
                    next(idx as usize);
                }
                covered += len as usize;
            }
            if covered != n {
                return Err(r.err("interleave runs do not cover entry count"));
            }
        }
        _ => {
            if t > 16 {
                return Err(r.err("nibble interleave with more than 16 threads"));
            }
            let mut covered = 0usize;
            for _ in 0..n.div_ceil(2) {
                let byte = r.u8()?;
                for idx in [byte & 0x0f, byte >> 4] {
                    let idx = usize::from(idx);
                    if covered == n {
                        if idx != 0 {
                            return Err(r.err("nonzero nibble padding"));
                        }
                    } else if idx >= t {
                        return Err(out_of_range(r));
                    } else {
                        next(idx);
                        covered += 1;
                    }
                }
            }
        }
    }
    Ok(())
}

/// A container as [`read`] recovers it: header, checkpoint segment, body
/// directory and whatever the sink built from the entries.
struct Container<S> {
    version: u8,
    mechanism: Mechanism,
    meta: SketchMeta,
    checkpoint: Option<Box<SketchCheckpoint>>,
    /// Encoded bytes of the checkpoint segment, for a v3 container.
    checkpoint_bytes: Option<u64>,
    body: Body,
    sink: S,
}

/// The one container reader: header, the checkpoint segment of a v3
/// container, the body through [`walk_body`] into the sink `sink_for`
/// builds, then the trailing-bytes check. Every public reader is a sink
/// choice of this walk, so each reports the same error (offset and
/// message) on the same bytes.
fn read<S: BodySink>(
    data: &[u8],
    sink_for: impl FnOnce(usize) -> S,
) -> Result<Container<S>, DecodeError> {
    let mut r = Reader::new(data);
    let (version, mechanism, meta) = decode_header(&mut r)?;
    let segment_start = r.position();
    let checkpoint = match version {
        VERSION_V3 => Some(Box::new(decode_checkpoint(&mut r)?)),
        _ => None,
    };
    let checkpoint_bytes = checkpoint
        .as_ref()
        .map(|_| (r.position() - segment_start) as u64);
    let (body, sink) = walk_body(&mut r, sink_for)?;
    if !r.at_end() {
        return Err(r.err("trailing bytes"));
    }
    Ok(Container {
        version,
        mechanism,
        meta,
        checkpoint,
        checkpoint_bytes,
        body,
        sink,
    })
}

/// Reads the common header: magic, version byte — refused right there
/// unless it is v2 or v3 —, mechanism and run metadata.
fn decode_header(r: &mut Reader<'_>) -> Result<(u8, Mechanism, SketchMeta), DecodeError> {
    let mut magic = [0u8; 4];
    for m in &mut magic {
        *m = r.u8()?;
    }
    if &magic != MAGIC {
        return Err(r.err("bad magic"));
    }
    let version = r.u8()?;
    if version != VERSION_V2 && version != VERSION_V3 {
        return Err(r.err(format!("unsupported version {version}")));
    }
    let code = r.u8()?;
    let arg = r.varint_u32("mechanism argument")?;
    let mechanism =
        mechanism_from(code, arg).ok_or_else(|| r.err(format!("bad mechanism {code}")))?;
    let meta = SketchMeta {
        program: r.str()?.to_string(),
        seed: r.varint()?,
        processors: r.varint_u32("processor count")?,
        total_ops: r.varint()?,
        failure_signature: r.str()?.to_string(),
    };
    Ok((version, mechanism, meta))
}

/// Deserializes a sketch from its binary log form, a v2 or v3 container
/// (see the version byte).
pub fn decode_sketch(data: &[u8]) -> Result<Sketch, DecodeError> {
    let c = read(data, EntrySink::new)?;
    Ok(Sketch {
        mechanism: c.mechanism,
        entries: c.sink.0,
        meta: c.meta,
        checkpoint: c.checkpoint,
    })
}

/// Decodes a container straight into its metadata and compact replay
/// index — what the daemon caches — without materialising a single
/// [`SketchEntry`]: syscall results are validated and skipped, and every
/// error (offset and message) is the one [`decode_sketch`] reports on the
/// same bytes.
pub fn decode_index(data: &[u8]) -> Result<(SketchMeta, SketchIndex), DecodeError> {
    let c = read(data, IndexSink::new)?;
    let IndexSink { dict, ids } = c.sink;
    let body = c.body;
    let index = dict.index(
        c.mechanism,
        body.tids,
        body.starts,
        body.positions,
        ids,
        c.checkpoint,
    );
    Ok((c.meta, index))
}

/// The physical layout of a container: its version, checkpoint-segment
/// bytes and shard directory. Errors mirror [`decode_sketch`] on the same
/// bytes.
pub fn layout(data: &[u8]) -> Result<Layout, DecodeError> {
    let c = read(data, |_| ())?;
    Ok(Layout {
        version: c.version,
        checkpoint_bytes: c.checkpoint_bytes,
        entries: c.body.positions.len() as u64,
        interleave_encoding: c.body.interleave_encoding,
        interleave_bytes: c.body.interleave_bytes,
        threads: c.body.shards,
    })
}

/// The number of bytes a value occupies as a LEB128 varint: one per
/// started group of 7 significant bits, and one for zero.
fn varint_size(v: u64) -> u64 {
    u64::from((64 + 6 - (v | 1).leading_zeros()) / 7)
}

/// The number of bytes [`encode_result`] writes for a result.
fn result_size(r: &OpResult) -> u64 {
    1 + match r {
        OpResult::Unit
        | OpResult::MaybeBytes(None)
        | OpResult::MaybeValue(None)
        | OpResult::MaybeConn(None) => 0,
        OpResult::Value(v) | OpResult::MaybeValue(Some(v)) => varint_size(*v),
        OpResult::Bytes(b) | OpResult::MaybeBytes(Some(b)) => {
            varint_size(b.len() as u64) + b.len() as u64
        }
        OpResult::MaybeConn(Some(c)) => varint_size(u64::from(c.0)),
        OpResult::Fd(fd) => varint_size(u64::from(fd.0)),
        OpResult::Tid(t) => varint_size(u64::from(t.0)),
    }
}

/// The encoded size of a single entry, in bytes — the per-event payload the
/// recorder charges to the virtual clock.
///
/// Computed arithmetically (this runs once per recorded event on the
/// recorder's hot path); a test pins it to the byte count of the flat
/// per-entry encoding it models, for every op and result variant.
pub fn entry_size(e: &SketchEntry) -> u64 {
    let op = match &e.op {
        SketchOp::Start | SketchOp::Exit | SketchOp::Spawn => 1,
        SketchOp::Mem { loc, .. } => {
            let id = match loc {
                MemLoc::Var(v) => v.0,
                MemLoc::Buf(b) => b.0,
            };
            1 + 1 + varint_size(u64::from(id))
        }
        SketchOp::Sync { obj, .. } => 1 + 1 + varint_size(u64::from(*obj)),
        SketchOp::Join { target } => 1 + varint_size(u64::from(*target)),
        SketchOp::Sys { obj, .. } => 1 + 1 + varint_size(u64::from(*obj)) + result_size(&e.result),
        SketchOp::Func(f) => 1 + varint_size(u64::from(*f)),
        SketchOp::Bb(b) => 1 + varint_size(u64::from(*b)),
    };
    varint_size(u64::from(e.tid.0)) + op
}

#[cfg(test)]
mod tests {
    use super::*;
    use pres_tvm::ids::VarId;

    const TAG_START: u8 = 0;
    const TAG_EXIT: u8 = 1;
    const TAG_MEM_READ: u8 = 2;
    const TAG_MEM_WRITE: u8 = 3;
    const TAG_SYNC: u8 = 4;
    const TAG_SPAWN: u8 = 5;
    const TAG_JOIN: u8 = 6;
    const TAG_SYS: u8 = 7;
    const TAG_FUNC: u8 = 8;
    const TAG_BB: u8 = 9;

    /// The flat per-entry encoding [`entry_size`] models: tid varint, tag
    /// byte, then the op's fields. Returns the bytes appended.
    fn encode_entry(w: &mut Writer, e: &SketchEntry) -> usize {
        let before = w.len();
        w.varint(u64::from(e.tid.0));
        match &e.op {
            SketchOp::Start => w.u8(TAG_START),
            SketchOp::Exit => w.u8(TAG_EXIT),
            SketchOp::Mem { loc, write } => {
                w.u8(if *write { TAG_MEM_WRITE } else { TAG_MEM_READ });
                match loc {
                    MemLoc::Var(v) => {
                        w.u8(0);
                        w.varint(u64::from(v.0));
                    }
                    MemLoc::Buf(b) => {
                        w.u8(1);
                        w.varint(u64::from(b.0));
                    }
                }
            }
            SketchOp::Sync { kind, obj } => {
                w.u8(TAG_SYNC);
                w.u8(sync_kind_code(*kind));
                w.varint(u64::from(*obj));
            }
            SketchOp::Spawn => w.u8(TAG_SPAWN),
            SketchOp::Join { target } => {
                w.u8(TAG_JOIN);
                w.varint(u64::from(*target));
            }
            SketchOp::Sys { kind, obj } => {
                w.u8(TAG_SYS);
                w.u8(sys_kind_code(*kind));
                w.varint(u64::from(*obj));
                encode_result(w, &e.result);
            }
            SketchOp::Func(f) => {
                w.u8(TAG_FUNC);
                w.varint(u64::from(*f));
            }
            SketchOp::Bb(b) => {
                w.u8(TAG_BB);
                w.varint(u64::from(*b));
            }
        }
        w.len() - before
    }

    fn entry(tid: u32, op: SketchOp) -> SketchEntry {
        SketchEntry {
            tid: ThreadId(tid),
            op,
            result: OpResult::Unit,
        }
    }

    fn sample_sketch() -> Sketch {
        Sketch {
            mechanism: Mechanism::BbN(8),
            entries: vec![
                entry(0, SketchOp::Start),
                entry(
                    0,
                    SketchOp::Mem {
                        loc: MemLoc::Var(VarId(3)),
                        write: true,
                    },
                ),
                entry(
                    1,
                    SketchOp::Sync {
                        kind: SyncKind::Lock,
                        obj: 2,
                    },
                ),
                entry(0, SketchOp::Spawn),
                entry(0, SketchOp::Join { target: 1 }),
                SketchEntry {
                    tid: ThreadId(1),
                    op: SketchOp::Sys {
                        kind: SysKind::Recv,
                        obj: 4,
                    },
                    result: OpResult::MaybeBytes(Some(b"hello".to_vec())),
                },
                entry(1, SketchOp::Func(9)),
                entry(1, SketchOp::Bb(200)),
                entry(1, SketchOp::Exit),
            ],
            meta: SketchMeta {
                program: "httpd".into(),
                seed: 42,
                processors: 8,
                total_ops: 12345,
                failure_signature: "assert:log corrupted".into(),
            },
            checkpoint: None,
        }
    }

    #[test]
    fn sketch_round_trips() {
        let s = sample_sketch();
        let encoded = encode_sketch(&s);
        let decoded = decode_sketch(&encoded).unwrap();
        assert_eq!(s, decoded);
    }

    #[test]
    fn all_mechanisms_round_trip() {
        for m in Mechanism::all() {
            let mut s = sample_sketch();
            s.mechanism = m;
            let decoded = decode_sketch(&encode_sketch(&s)).unwrap();
            assert_eq!(decoded.mechanism, m);
        }
    }

    #[test]
    fn truncated_input_is_an_error_not_a_panic() {
        let encoded = encode_sketch(&sample_sketch());
        for cut in [0, 3, 5, 10, encoded.len() - 1] {
            assert!(decode_sketch(&encoded[..cut]).is_err());
        }
    }

    #[test]
    fn corrupt_magic_is_rejected() {
        let mut encoded = encode_sketch(&sample_sketch());
        encoded[0] = b'X';
        let err = decode_sketch(&encoded).unwrap_err();
        assert!(err.message.contains("magic"));
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut encoded = encode_sketch(&sample_sketch());
        encoded.push(0xff);
        let err = decode_sketch(&encoded).unwrap_err();
        assert!(err.message.contains("trailing"));
    }

    #[test]
    fn sync_entries_are_compact() {
        let e = entry(
            3,
            SketchOp::Sync {
                kind: SyncKind::Unlock,
                obj: 7,
            },
        );
        // tid + tag + kind + obj = 4 bytes.
        assert_eq!(entry_size(&e), 4);
    }

    #[test]
    fn syscall_payload_dominates_its_entry_size() {
        let small = SketchEntry {
            tid: ThreadId(0),
            op: SketchOp::Sys {
                kind: SysKind::Clock,
                obj: 0,
            },
            result: OpResult::Value(1),
        };
        let big = SketchEntry {
            tid: ThreadId(0),
            op: SketchOp::Sys {
                kind: SysKind::Read,
                obj: 1,
            },
            result: OpResult::Bytes(vec![0; 1000]),
        };
        assert!(entry_size(&big) > entry_size(&small) + 990);
    }

    #[test]
    fn entry_size_matches_encoded_bytes_for_every_variant() {
        use pres_tvm::ids::{BufId, ConnId, FdId};
        // Boundary ids across varint length changes.
        let ids: Vec<u32> = vec![0, 1, 127, 128, 16383, 16384, u32::MAX];
        let results = vec![
            OpResult::Unit,
            OpResult::Value(0),
            OpResult::Value(u64::MAX),
            OpResult::Bytes(vec![]),
            OpResult::Bytes(vec![7; 300]),
            OpResult::MaybeBytes(None),
            OpResult::MaybeBytes(Some(vec![1, 2, 3])),
            OpResult::MaybeValue(None),
            OpResult::MaybeValue(Some(128)),
            OpResult::MaybeConn(None),
            OpResult::MaybeConn(Some(ConnId(u32::MAX))),
            OpResult::Fd(FdId(127)),
            OpResult::Tid(ThreadId(16384)),
        ];
        let mut entries: Vec<SketchEntry> = Vec::new();
        for &id in &ids {
            let mut ops = vec![
                SketchOp::Start,
                SketchOp::Exit,
                SketchOp::Spawn,
                SketchOp::Mem {
                    loc: MemLoc::Var(VarId(id)),
                    write: false,
                },
                SketchOp::Mem {
                    loc: MemLoc::Buf(BufId(id)),
                    write: true,
                },
                SketchOp::Join { target: id },
                SketchOp::Func(id),
                SketchOp::Bb(id),
            ];
            // Every sync and sys kind the codec knows.
            ops.extend((0..16).map(|c| SketchOp::Sync {
                kind: sync_kind_from(c).unwrap(),
                obj: id,
            }));
            for op in ops {
                entries.push(SketchEntry {
                    tid: ThreadId(id),
                    op,
                    result: OpResult::Unit,
                });
            }
            // Sys entries carry results: cross every kind with every result.
            for c in 0..11 {
                for res in &results {
                    entries.push(SketchEntry {
                        tid: ThreadId(id),
                        op: SketchOp::Sys {
                            kind: sys_kind_from(c).unwrap(),
                            obj: id,
                        },
                        result: res.clone(),
                    });
                }
            }
        }
        for e in &entries {
            let mut w = Writer::new();
            let encoded = encode_entry(&mut w, e);
            assert_eq!(
                entry_size(e),
                encoded as u64,
                "arithmetic size diverges from encoder for {e:?}"
            );
        }
    }

    #[test]
    fn default_container_is_v2() {
        let encoded = encode_sketch(&sample_sketch());
        assert_eq!(layout(&encoded).unwrap().version, 2);
    }

    #[test]
    fn empty_sketch_round_trips_in_both_versions() {
        let mut s = Sketch {
            mechanism: Mechanism::Sync,
            entries: vec![],
            meta: SketchMeta::default(),
            checkpoint: None,
        };
        assert_eq!(decode_sketch(&encode_sketch(&s)).unwrap(), s);
        s.checkpoint = checkpointed_sketch().checkpoint;
        let v3 = encode_sketch(&s);
        assert_eq!(layout(&v3).unwrap().version, 3);
        assert_eq!(decode_sketch(&v3).unwrap(), s);
    }

    #[test]
    fn v2_shrinks_a_marker_dense_sketch() {
        // The shape the recorder actually produces: long same-thread runs
        // of markers with locally clustered ids, punctuated by sync.
        let mut entries = Vec::new();
        for tid in 0..4u32 {
            entries.push(entry(tid, SketchOp::Start));
            for b in 0..200u32 {
                entries.push(entry(tid, SketchOp::Bb(1000 + b)));
                if b % 50 == 0 {
                    entries.push(entry(
                        tid,
                        SketchOp::Sync {
                            kind: SyncKind::Lock,
                            obj: 2,
                        },
                    ));
                    entries.push(entry(
                        tid,
                        SketchOp::Sync {
                            kind: SyncKind::Unlock,
                            obj: 2,
                        },
                    ));
                }
            }
            entries.push(entry(tid, SketchOp::Exit));
        }
        let s = Sketch {
            mechanism: Mechanism::Bb,
            entries,
            meta: SketchMeta::default(),
            checkpoint: None,
        };
        // The flat stream the recorder charges for: one tid, tag and
        // operand per entry.
        let flat: u64 = s.entries.iter().map(entry_size).sum();
        let v2 = encode_sketch(&s);
        assert_eq!(decode_sketch(&v2).unwrap(), s);
        assert!(
            (v2.len() as f64) < 0.75 * flat as f64,
            "v2 {} must be at least 25% smaller than the flat entry stream {flat}",
            v2.len(),
        );
    }

    #[test]
    fn v2_round_trips_arbitrary_interleavings() {
        // A worst case for the interleave stream: strict alternation, ids
        // jumping around (deltas exercise negative zigzag).
        let mut entries = Vec::new();
        for i in 0..60u32 {
            let tid = i % 3;
            entries.push(entry(tid, SketchOp::Bb(if i % 2 == 0 { 7 } else { 9000 })));
            entries.push(entry(
                tid,
                SketchOp::Mem {
                    loc: MemLoc::Var(VarId(u32::MAX - i)),
                    write: i % 2 == 0,
                },
            ));
        }
        let s = Sketch {
            mechanism: Mechanism::Rw,
            entries,
            meta: SketchMeta::default(),
            checkpoint: None,
        };
        assert_eq!(decode_sketch(&encode_sketch(&s)).unwrap(), s);
    }

    #[test]
    fn v2_truncations_and_corruptions_are_errors_not_panics() {
        let encoded = encode_sketch(&sample_sketch());
        for cut in 0..encoded.len() {
            assert!(decode_sketch(&encoded[..cut]).is_err());
        }
        let mut bad_version = encoded.clone();
        bad_version[4] = 9;
        assert!(decode_sketch(&bad_version)
            .unwrap_err()
            .message
            .contains("version"));
    }

    /// A checkpoint-bearing sample: genesis boundary, so no VM snapshot
    /// is needed (snapshots with nonzero boundaries are exercised by the
    /// recorder's ring-flush round-trip tests, which capture real ones).
    fn checkpointed_sketch() -> Sketch {
        let mut s = sample_sketch();
        s.checkpoint = Some(Box::new(SketchCheckpoint {
            boundary: 0,
            production_seed: 42,
            dropped_epochs: 0,
            dropped_entries: 0,
            bbn_counters: vec![],
            epochs: vec![
                EpochInfo {
                    index: 0,
                    start_picks: 0,
                    entries: 5,
                },
                EpochInfo {
                    index: 1,
                    start_picks: 40,
                    entries: 4,
                },
            ],
            snapshot: vec![],
        }));
        s
    }

    #[test]
    fn checkpoint_bearing_sketch_selects_v3_and_round_trips() {
        let s = checkpointed_sketch();
        let encoded = encode_sketch(&s);
        assert_eq!(layout(&encoded).unwrap().version, 3);
        assert_eq!(decode_sketch(&encoded).unwrap(), s);
        // Checkpoint-free sketches still emit v2.
        assert_eq!(layout(&encode_sketch(&sample_sketch())).unwrap().version, 2);
    }

    #[test]
    fn v3_truncations_are_errors_not_panics() {
        let encoded = encode_sketch(&checkpointed_sketch());
        for cut in 0..encoded.len() {
            assert!(decode_sketch(&encoded[..cut]).is_err());
        }
    }

    #[test]
    fn nonzero_boundary_demands_a_valid_snapshot() {
        let mut s = checkpointed_sketch();
        {
            let cp = s.checkpoint.as_deref_mut().unwrap();
            cp.boundary = 9;
            cp.snapshot = b"not a vm snapshot".to_vec();
        }
        let encoded = encode_sketch(&s);
        let err = decode_sketch(&encoded).unwrap_err();
        assert!(err.message.contains("snapshot"), "{}", err.message);
    }

    #[test]
    fn genesis_checkpoint_with_a_snapshot_is_rejected() {
        let mut s = checkpointed_sketch();
        s.checkpoint.as_deref_mut().unwrap().snapshot = vec![1, 2, 3];
        let encoded = encode_sketch(&s);
        let err = decode_sketch(&encoded).unwrap_err();
        assert!(err.message.contains("genesis"), "{}", err.message);
    }

    #[test]
    fn flipping_a_v2_container_to_v3_yields_no_phantom_checkpoint() {
        // Version-byte corruption must never reinterpret a v2 body as a
        // believable checkpoint: the first body varint (a nonzero entry
        // count) lands on `boundary`, and a nonzero boundary demands an
        // embedded snapshot that decodes — garbage cannot.
        let mut encoded = encode_sketch(&sample_sketch());
        encoded[4] = 3;
        assert!(decode_sketch(&encoded).is_err());
    }

    #[test]
    fn layout_reports_the_checkpoint_segment_of_v3_only() {
        let v3 = encode_sketch(&checkpointed_sketch());
        let seg = layout(&v3).unwrap().checkpoint_bytes;
        assert!(seg.is_some_and(|seg| seg > 0 && seg < v3.len() as u64));
        let v2 = encode_sketch(&sample_sketch());
        assert_eq!(layout(&v2).unwrap().checkpoint_bytes, None);
    }

    #[test]
    fn layout_skips_the_checkpoint_segment() {
        let s = checkpointed_sketch();
        let layout = layout(&encode_sketch(&s)).expect("valid container");
        assert_eq!(layout.entries, s.entries.len() as u64);
    }

    #[test]
    fn zigzag_round_trips_extremes() {
        for v in [0i64, 1, -1, i64::MAX, i64::MIN, 12345, -12345] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    #[test]
    fn all_result_variants_round_trip() {
        use pres_tvm::ids::{ConnId, FdId};
        let results = vec![
            OpResult::Unit,
            OpResult::Value(u64::MAX),
            OpResult::Bytes(vec![1, 2, 3]),
            OpResult::MaybeBytes(None),
            OpResult::MaybeBytes(Some(vec![])),
            OpResult::MaybeValue(None),
            OpResult::MaybeValue(Some(0)),
            OpResult::MaybeConn(None),
            OpResult::MaybeConn(Some(ConnId(9))),
            OpResult::Fd(FdId(2)),
            OpResult::Tid(ThreadId(5)),
        ];
        for res in results {
            let mut w = Writer::new();
            encode_result(&mut w, &res);
            let buf = w.finish();
            let mut r = Reader::new(&buf);
            assert_eq!(decode_result(&mut r, true).unwrap(), res);
            assert!(r.at_end());
            // Skipping consumes exactly the same bytes.
            let mut r = Reader::new(&buf);
            decode_result(&mut r, false).unwrap();
            assert!(r.at_end());
        }
    }

    #[test]
    fn layout_reports_the_shard_directory() {
        let sketch = sample_sketch();
        let encoded = encode_sketch(&sketch);
        let layout = layout(&encoded).expect("valid container");
        assert_eq!(layout.entries, sketch.entries.len() as u64);
        // Shards are ascending by tid and cover every entry exactly once.
        let tids: Vec<u32> = layout.threads.iter().map(|s| s.tid).collect();
        assert_eq!(tids, vec![0, 1]);
        let per_thread = |tid: u32| sketch.entries.iter().filter(|e| e.tid.0 == tid).count() as u64;
        for shard in &layout.threads {
            assert_eq!(shard.entries, per_thread(shard.tid), "tid {}", shard.tid);
            assert!(shard.column_bytes > 0, "tid {}", shard.tid);
        }
        let shard_entries: u64 = layout.threads.iter().map(|s| s.entries).sum();
        assert_eq!(shard_entries, layout.entries);
        // Interleave + columns never exceed the whole container.
        let body: u64 =
            layout.interleave_bytes + layout.threads.iter().map(|s| s.column_bytes).sum::<u64>();
        assert!(body < encoded.len() as u64);
        assert!(["plain", "rle", "nibble"].contains(&layout.interleave_encoding));
    }

    #[test]
    fn layout_refuses_what_decode_sketch_refuses() {
        let mut v1 = encode_sketch(&sample_sketch());
        v1[4] = 1;
        for bytes in [&v1[..], b"garbage"] {
            let want = decode_sketch(bytes).unwrap_err();
            assert_eq!(layout(bytes).unwrap_err(), want);
            assert_eq!(decode_index(bytes).unwrap_err(), want);
        }
    }

    /// The three interleave encodings of `indices` (each entry's thread
    /// index), built the long way: `(length, flag, bytes)`, nibble only
    /// for at most 16 threads.
    fn interleave_candidates(indices: &[u64], threads: usize) -> Vec<(usize, u8, Vec<u8>)> {
        let mut plain = Writer::new();
        let mut runs: Vec<(u64, u64)> = Vec::new();
        for &i in indices {
            plain.varint(i);
            match runs.last_mut() {
                Some((last, len)) if *last == i => *len += 1,
                _ => runs.push((i, 1)),
            }
        }
        let mut rle = Writer::new();
        rle.varint(runs.len() as u64);
        for (i, len) in runs {
            rle.varint(i);
            rle.varint(len);
        }
        let mut out = vec![(plain.len(), 0, plain.finish()), (rle.len(), 1, rle.finish())];
        if threads <= 16 {
            let mut nibble = Writer::new();
            for pair in indices.chunks(2) {
                nibble.u8(pair[0] as u8 | (pair.get(1).map_or(0, |&hi| hi as u8) << 4));
            }
            out.push((nibble.len(), 2, nibble.finish()));
        }
        out
    }

    #[test]
    fn interleave_selector_takes_the_smallest_encoding_and_the_lowest_flag_on_a_tie() {
        let runs = |spec: &[(u32, usize)]| -> Vec<u32> {
            spec.iter()
                .flat_map(|&(t, len)| std::iter::repeat_n(t, len))
                .collect()
        };
        let mut plain_eq_rle: Vec<(u32, usize)> = (0..16).map(|t| (t, 2)).collect();
        plain_eq_rle.push((16, 3));
        // 150 runs, so the run count's varint takes two bytes.
        let many_runs: Vec<(u32, usize)> =
            (0..150).map(|k| (k % 17, if k < 2 { 3 } else { 2 })).collect();
        let pairs = |threads: u32| runs(&(0..threads).map(|t| (t, 2)).collect::<Vec<_>>());
        // One run long enough for a two-byte length, then 124 single
        // entries over 17 other threads.
        let mut long_run = vec![(0, 128)];
        long_run.extend((0..124).map(|k| (1 + k % 17, 1)));
        // (case, every entry's thread index — its tid's rank —, expected flag)
        let cases: Vec<(&str, Vec<u32>, u8)> = vec![
            ("empty", vec![], 0),
            ("plain = nibble < rle", vec![0], 0),
            ("rle = nibble < plain", runs(&[(0, 5), (1, 5)]), 1),
            ("plain = rle, 17 threads", runs(&plain_eq_rle), 0),
            ("16 threads alternating", (0..64).map(|i| i % 16).collect(), 2),
            ("17 threads alternating", (0..68).map(|i| i % 17).collect(), 0),
            ("runs of 300", runs(&[(0, 300), (1, 300), (0, 1)]), 1),
            ("plain = rle, 150 runs", runs(&many_runs), 0),
            ("plain = rle, a run of 128", runs(&long_run), 0),
            ("plain = rle, 130 threads", pairs(130), 0),
            ("200 threads in runs of 2", pairs(200), 1),
            ("200 threads alternating", (0..400).map(|i| i % 200).collect(), 0),
        ];
        for (case, slots, flag) in cases {
            // Tids far from their indices and first seen out of order, so
            // the encoder must rank them.
            let tid = |slot: u32| 1_000 * (slot + 1) + slot % 7;
            let mut entries: Vec<SketchEntry> = slots
                .iter()
                .enumerate()
                .map(|(k, &slot)| entry(tid(slot), SketchOp::Bb(k as u32)))
                .collect();
            entries.reverse();
            let mut indices: Vec<u64> = slots.iter().map(|&slot| u64::from(slot)).collect();
            indices.reverse();
            let threads = slots.iter().max().map_or(0, |&m| m as usize + 1);
            let sketch = Sketch {
                mechanism: Mechanism::Bb,
                entries,
                meta: SketchMeta::default(),
                checkpoint: None,
            };
            let bytes = encode_sketch(&sketch);
            assert_eq!(decode_sketch(&bytes).unwrap(), sketch, "{case}");

            let mut prefix = Writer::new();
            encode_header(&mut prefix, &sketch, VERSION_V2);
            prefix.varint(indices.len() as u64);
            prefix.varint(threads as u64);
            for slot in 0..threads as u32 {
                let prev = slot.checked_sub(1).map_or(0, |p| tid(p) + 1);
                prefix.varint(u64::from(tid(slot) - prev));
            }
            let at = prefix.len();
            assert_eq!(bytes[..at], prefix.finish()[..], "{case}: directory");
            let (_, best, body) = interleave_candidates(&indices, threads)
                .into_iter()
                .min_by_key(|&(len, flag, _)| (len, flag))
                .unwrap();
            assert_eq!(best, flag, "{case}: the tie the case is built for");
            assert_eq!(bytes[at], best, "{case}: selector");
            assert_eq!(bytes[at + 1..at + 1 + body.len()], body[..], "{case}: stream");
        }
    }
}
