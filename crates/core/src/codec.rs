//! Compact binary encoding of sketches — the on-disk log format.
//!
//! The paper reports recording overhead *and* log growth; both depend on a
//! realistic log encoding. The container versions share a common header
//! (magic, version byte, mechanism, run metadata):
//!
//! * **v1** — a flat entry stream: single-byte tags and LEB128 varints,
//!   one `(tid, tag, operand, result?)` record per entry in sketch order.
//!   No longer written; still decoded, pinned by
//!   `tests/data/fixture_v1.sketch`.
//! * **v2** (default) — a columnar layout: a thread directory
//!   (delta-encoded tids + per-thread entry counts), an interleave stream
//!   capturing the cross-thread order (plain or run-length encoded,
//!   whichever is smaller), and one column block per thread whose entries
//!   carry a one-byte op-kind dictionary code and a zigzag-varint operand
//!   delta against the previous operand of the same kind group on that
//!   thread. Same-thread runs and locally clustered ids — the common case
//!   for marker-dense sketches — collapse to a byte or two per entry.
//! * **v3** — a v2 body prefixed by a checkpoint segment, written for
//!   ring-flushed sketches.
//!
//! [`decode_sketch`] accepts every version via the version byte, so logs
//! written by older recorders keep decoding.
//!
//! Bytes are written and read through [`pres_tvm::bytes`], the workspace's
//! one byte codec (certificates, VM snapshots and the daemon's journal and
//! protocol use it too), and every error is its [`DecodeError`]. Its two
//! decode rules hold for every field here: a varint is canonical (a
//! tenth byte above 1 is `varint overflow`, never dropped bits, and a
//! zero-padded encoding is `overlong varint`), and every
//! `u32` field — the BB-N argument, the processor count, v1 thread, object
//! and marker ids, syscall-result connection, fd and thread ids — is
//! refused as `<what> out of range` above `u32::MAX`, never truncated. So
//! no two byte strings decode to one sketch.

use crate::sketch::{
    EpochInfo, Mechanism, OpDict, Sketch, SketchCheckpoint, SketchEntry, SketchIndex, SketchMeta,
    SketchOp, SyncKind, SysKind,
};
use pres_tvm::bytes::{Reader, Writer};
use pres_tvm::ids::{ConnId, FdId, ThreadId};
use pres_tvm::op::{MemLoc, OpResult};

pub use pres_tvm::bytes::DecodeError;

// --- entry encoding ---------------------------------------------------------

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
#[inline]
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

/// Encodes one entry; returns bytes appended.
pub fn encode_entry(w: &mut Writer, e: &SketchEntry) -> usize {
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

fn decode_entry(r: &mut Reader<'_>) -> Result<SketchEntry, DecodeError> {
    let tid = ThreadId(r.varint_u32("thread id")?);
    let tag = r.u8()?;
    let mut result = OpResult::Unit;
    let op = match tag {
        TAG_START => SketchOp::Start,
        TAG_EXIT => SketchOp::Exit,
        TAG_MEM_READ | TAG_MEM_WRITE => {
            let kind = r.u8()?;
            let id = r.varint_u32("memory id")?;
            let loc = match kind {
                0 => MemLoc::Var(pres_tvm::ids::VarId(id)),
                1 => MemLoc::Buf(pres_tvm::ids::BufId(id)),
                other => return Err(r.err(format!("unknown loc kind {other}"))),
            };
            SketchOp::Mem {
                loc,
                write: tag == TAG_MEM_WRITE,
            }
        }
        TAG_SYNC => {
            let code = r.u8()?;
            let kind =
                sync_kind_from(code).ok_or_else(|| r.err(format!("bad sync kind {code}")))?;
            SketchOp::Sync {
                kind,
                obj: r.varint_u32("sync object")?,
            }
        }
        TAG_SPAWN => SketchOp::Spawn,
        TAG_JOIN => SketchOp::Join {
            target: r.varint_u32("join target")?,
        },
        TAG_SYS => {
            let code = r.u8()?;
            let kind =
                sys_kind_from(code).ok_or_else(|| r.err(format!("bad sys kind {code}")))?;
            let obj = r.varint_u32("syscall object")?;
            result = decode_result(r, true)?;
            SketchOp::Sys { kind, obj }
        }
        TAG_FUNC => SketchOp::Func(r.varint_u32("function id")?),
        TAG_BB => SketchOp::Bb(r.varint_u32("basic block id")?),
        other => return Err(r.err(format!("unknown entry tag {other}"))),
    };
    Ok(SketchEntry { tid, op, result })
}

const MAGIC: &[u8; 4] = b"PRES";
const VERSION_V1: u8 = 1;
const VERSION_V2: u8 = 2;
/// v3 = v2 columnar body prefixed by a checkpoint segment. Only v3
/// containers carry checkpoints, so corrupt v1/v2 input can never decode
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
/// container, or v3 (checkpoint segment + v2 body) when the sketch
/// carries a ring-flush checkpoint.
pub fn encode_sketch(sketch: &Sketch) -> Vec<u8> {
    if sketch.checkpoint.is_some() {
        encode_sketch_v3(sketch)
    } else {
        encode_sketch_v2(sketch)
    }
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
fn op_code(op: &SketchOp) -> (u8, Option<(usize, u32)>) {
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
        c if (CODE_SYS_BASE..=CODE_SYS_BASE + 10).contains(&c) => Some(GROUP_SYS),
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
        c if (CODE_SYS_BASE..=CODE_SYS_BASE + 10).contains(&c) => SketchOp::Sys {
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

/// Serializes a sketch in the v2 columnar container.
pub fn encode_sketch_v2(sketch: &Sketch) -> Vec<u8> {
    let mut w = Writer::new();
    encode_header(&mut w, sketch, VERSION_V2);
    encode_body_v2(&mut w, sketch);
    w.finish()
}

/// Serializes a checkpoint-bearing sketch in the v3 container: common
/// header, checkpoint segment, then the identical v2 columnar body over
/// the retained window's entries.
pub fn encode_sketch_v3(sketch: &Sketch) -> Vec<u8> {
    let mut w = Writer::new();
    encode_header(&mut w, sketch, VERSION_V3);
    let cp = sketch
        .checkpoint
        .as_deref()
        .expect("v3 container requires a checkpoint");
    encode_checkpoint(&mut w, cp);
    encode_body_v2(&mut w, sketch);
    w.finish()
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
fn encode_body_v2(w: &mut Writer, sketch: &Sketch) {
    w.varint(sketch.entries.len() as u64);

    // Thread directory: ascending tids, delta-encoded. Per-thread entry
    // counts are *not* stored — the decoder recovers them by counting the
    // interleave stream.
    let mut by_tid: std::collections::BTreeMap<u32, Vec<&SketchEntry>> =
        std::collections::BTreeMap::new();
    for e in &sketch.entries {
        by_tid.entry(e.tid.0).or_default().push(e);
    }
    w.varint(by_tid.len() as u64);
    let mut prev_tid: Option<u32> = None;
    for &tid in by_tid.keys() {
        match prev_tid {
            None => w.varint(u64::from(tid)),
            Some(p) => w.varint(u64::from(tid - p - 1)),
        }
        prev_tid = Some(tid);
    }
    let index_of: std::collections::BTreeMap<u32, usize> = by_tid
        .keys()
        .enumerate()
        .map(|(i, &tid)| (tid, i))
        .collect();

    // Interleave stream: the cross-thread order as thread indices. Three
    // encodings — plain varints, run-length pairs, and (for ≤16 threads)
    // two indices nibble-packed per byte; the smallest wins.
    let indices: Vec<usize> = sketch
        .entries
        .iter()
        .map(|e| index_of[&e.tid.0])
        .collect();
    let mut plain = Writer::new();
    let mut runs: Vec<(usize, u64)> = Vec::new();
    for &idx in &indices {
        plain.varint(idx as u64);
        match runs.last_mut() {
            Some((last, len)) if *last == idx => *len += 1,
            _ => runs.push((idx, 1)),
        }
    }
    let mut rle = Writer::new();
    rle.varint(runs.len() as u64);
    for (idx, len) in &runs {
        rle.varint(*idx as u64);
        rle.varint(*len);
    }
    let nibble = if by_tid.len() <= 16 {
        let mut nw = Writer::new();
        for pair in indices.chunks(2) {
            let lo = pair[0] as u8;
            let hi = if pair.len() == 2 { pair[1] as u8 } else { 0 };
            nw.u8(lo | (hi << 4));
        }
        Some(nw)
    } else {
        None
    };
    let mut candidates: Vec<(u8, Writer)> = vec![(0, plain), (1, rle)];
    if let Some(nw) = nibble {
        candidates.push((2, nw));
    }
    let (flag, body) = candidates
        .into_iter()
        .min_by_key(|(flag, body)| (body.len(), *flag))
        .expect("candidates is non-empty");
    w.u8(flag);
    w.raw(&body.finish());

    // Column blocks: per thread, dictionary code + operand delta (+ result
    // for syscalls, which replay must reproduce verbatim).
    for col in by_tid.values() {
        let mut prevs = [0i64; GROUPS];
        for e in col {
            let (code, operand) = op_code(&e.op);
            match operand {
                Some((group, value)) => {
                    let delta = i64::from(value) - prevs[group];
                    prevs[group] = i64::from(value);
                    match delta {
                        0 => w.u8(code | (FLAG_DELTA_ZERO << FLAG_SHIFT)),
                        1 => w.u8(code | (FLAG_DELTA_ONE << FLAG_SHIFT)),
                        _ => {
                            w.u8(code);
                            w.varint(zigzag(delta));
                        }
                    }
                }
                None => w.u8(code),
            }
            if matches!(e.op, SketchOp::Sys { .. }) {
                encode_result(w, &e.result);
            }
        }
    }
}

fn decode_entries_v1(r: &mut Reader<'_>) -> Result<Vec<SketchEntry>, DecodeError> {
    // A v1 entry is at least a tid varint and a tag byte.
    let n = r.count(2, "entry")?;
    let mut entries = Vec::with_capacity(n);
    for _ in 0..n {
        entries.push(decode_entry(r)?);
    }
    Ok(entries)
}

/// One per-thread shard of a v2 columnar container: how many entries the
/// thread contributed and how many bytes its column block occupies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct V2Shard {
    /// The thread id owning the column.
    pub tid: u32,
    /// Entries in the column.
    pub entries: u64,
    /// Encoded bytes of the column block (codes, operand deltas, syscall
    /// results).
    pub column_bytes: u64,
}

/// The physical layout of a v2 container body, per shard — what
/// `pres sketch-info` prints as the shard directory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct V2Layout {
    /// Total entries in the container.
    pub entries: u64,
    /// How the cross-thread interleave stream is encoded.
    pub interleave_encoding: &'static str,
    /// Bytes of the interleave stream (including its selector byte).
    pub interleave_bytes: u64,
    /// Per-thread shards, ascending by thread id.
    pub threads: Vec<V2Shard>,
}

/// Where [`walk_body`] delivers a v2 body's entries, column by column.
/// One sink materialises [`SketchEntry`]s ([`decode_sketch`]), the other
/// builds the compact replay index ([`decode_index`]).
trait BodySink {
    /// Whether syscall byte payloads are copied out (`false`: validated
    /// and skipped without allocating).
    const KEEPS_RESULTS: bool;

    /// Thread `tid`'s next entry, at global position `pos`.
    fn entry(&mut self, pos: u32, tid: u32, op: SketchOp, result: OpResult);
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
    fn entry(&mut self, pos: u32, tid: u32, op: SketchOp, result: OpResult) {
        self.0[pos as usize] = SketchEntry {
            tid: ThreadId(tid),
            op,
            result,
        };
    }
}

/// Interns every op, column by column — the index's op columns.
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
    fn entry(&mut self, _pos: u32, _tid: u32, op: SketchOp, _result: OpResult) {
        let id = self.dict.id(&op);
        self.ids.push(id);
    }
}

/// Discards entries: [`v2_layout`] needs only the walk itself.
impl BodySink for () {
    const KEEPS_RESULTS: bool = false;

    fn entry(&mut self, _pos: u32, _tid: u32, _op: SketchOp, _result: OpResult) {}
}

/// What [`walk_body`] recovers besides the entries: the thread directory,
/// each thread's column range and global positions (column order), and
/// the physical layout.
struct Body {
    tids: Vec<u32>,
    starts: Vec<u32>,
    positions: Vec<u32>,
    layout: V2Layout,
}

/// The one v2 body walker behind [`decode_sketch`], [`decode_index`] and
/// [`v2_layout`]: entry count, thread directory, interleave stream, then
/// each thread's column, handing every decoded entry to `sink`.
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
    let mut shards: Vec<V2Shard> = Vec::with_capacity(t);
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
            let op = op_from_code(code, operand)
                .ok_or_else(|| r.err(format!("unknown op code {code}")))?;
            let result = if matches!(op, SketchOp::Sys { .. }) {
                decode_result(r, S::KEEPS_RESULTS)?
            } else {
                OpResult::Unit
            };
            sink.entry(pos, tid, op, result);
        }
        shards.push(V2Shard {
            tid,
            entries: u64::from(starts[slot + 1] - starts[slot]),
            column_bytes: (r.position() - column_start) as u64,
        });
    }
    let layout = V2Layout {
        entries: n as u64,
        interleave_encoding,
        interleave_bytes,
        threads: shards,
    };
    let body = Body {
        tids,
        starts,
        positions,
        layout,
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

/// Deserializes a sketch from its binary log form (either container
/// version — see the version byte).
fn decode_header(
    r: &mut Reader<'_>,
) -> Result<(u8, Mechanism, SketchMeta), DecodeError> {
    let version = decode_version(r)?;
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

pub fn decode_sketch(data: &[u8]) -> Result<Sketch, DecodeError> {
    let mut r = Reader::new(data);
    let (version, mechanism, meta) = decode_header(&mut r)?;
    let mut checkpoint = None;
    let entries = match version {
        VERSION_V1 => decode_entries_v1(&mut r)?,
        VERSION_V2 | VERSION_V3 => {
            if version == VERSION_V3 {
                checkpoint = Some(Box::new(decode_checkpoint(&mut r)?));
            }
            let (_, EntrySink(entries)) = walk_body(&mut r, EntrySink::new)?;
            entries
        }
        other => return Err(r.err(format!("unsupported version {other}"))),
    };
    if !r.at_end() {
        return Err(r.err("trailing bytes"));
    }
    Ok(Sketch {
        mechanism,
        entries,
        meta,
        checkpoint,
    })
}

/// Decodes a container straight into its metadata and compact replay
/// index — what the daemon caches — without materialising a single
/// [`SketchEntry`]: the v2/v3 body goes through the same walker as
/// [`decode_sketch`], syscall results are validated and skipped, and
/// every error (offset and message) is the one [`decode_sketch`] reports
/// on the same bytes. v1 containers fall back to [`decode_sketch`] +
/// [`SketchIndex::new`].
pub fn decode_index(data: &[u8]) -> Result<(SketchMeta, SketchIndex), DecodeError> {
    let mut r = Reader::new(data);
    let (version, mechanism, meta) = decode_header(&mut r)?;
    let checkpoint = match version {
        VERSION_V1 => {
            let sketch = decode_sketch(data)?;
            let index = SketchIndex::new(&sketch);
            return Ok((sketch.meta, index));
        }
        VERSION_V2 => None,
        VERSION_V3 => Some(Box::new(decode_checkpoint(&mut r)?)),
        other => return Err(r.err(format!("unsupported version {other}"))),
    };
    let (body, IndexSink { dict, ids }) = walk_body(&mut r, IndexSink::new)?;
    if !r.at_end() {
        return Err(r.err("trailing bytes"));
    }
    let index = dict.index(
        mechanism,
        body.tids,
        body.starts,
        body.positions,
        ids,
        checkpoint,
    );
    Ok((meta, index))
}

/// The physical shard directory of a v2/v3 container: per-thread entry
/// and column-byte counts plus the interleave-stream encoding. Returns
/// `Ok(None)` for a (shard-free) v1 container; errors mirror
/// [`decode_sketch`] on corrupt input.
pub fn v2_layout(data: &[u8]) -> Result<Option<V2Layout>, DecodeError> {
    let mut r = Reader::new(data);
    let (version, _, _) = decode_header(&mut r)?;
    match version {
        VERSION_V1 => Ok(None),
        VERSION_V2 | VERSION_V3 => {
            if version == VERSION_V3 {
                decode_checkpoint(&mut r)?;
            }
            let (body, ()) = walk_body(&mut r, |_| ())?;
            if !r.at_end() {
                return Err(r.err("trailing bytes"));
            }
            Ok(Some(body.layout))
        }
        other => Err(r.err(format!("unsupported version {other}"))),
    }
}

/// The encoded byte span of a v3 container's checkpoint segment (header
/// excluded), for size reporting — `Ok(None)` for v1/v2 containers.
pub fn checkpoint_segment_bytes(data: &[u8]) -> Result<Option<u64>, DecodeError> {
    let mut r = Reader::new(data);
    let (version, _, _) = decode_header(&mut r)?;
    if version != VERSION_V3 {
        return Ok(None);
    }
    let start = r.position();
    decode_checkpoint(&mut r)?;
    Ok(Some((r.position() - start) as u64))
}

/// The container version byte of an encoded sketch (after validating the
/// magic). Lets tools report the format without a full decode.
pub fn container_version(data: &[u8]) -> Result<u8, DecodeError> {
    decode_version(&mut Reader::new(data))
}

/// Reads the magic, then the version byte.
fn decode_version(r: &mut Reader<'_>) -> Result<u8, DecodeError> {
    let mut magic = [0u8; 4];
    for m in &mut magic {
        *m = r.u8()?;
    }
    if &magic != MAGIC {
        return Err(r.err("bad magic"));
    }
    r.u8()
}

/// The number of bytes a value occupies as a LEB128 varint.
fn varint_size(v: u64) -> u64 {
    if v == 0 {
        1
    } else {
        u64::from((64 - v.leading_zeros()).div_ceil(7))
    }
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
/// recorder's hot path); a test pins it to [`encode_entry`]'s actual byte
/// count for every op and result variant.
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

    fn entry(tid: u32, op: SketchOp) -> SketchEntry {
        SketchEntry {
            tid: ThreadId(tid),
            op,
            result: OpResult::Unit,
        }
    }

    /// Hand-built v1 container bytes — header, entry count, flat entry
    /// stream — for the decoder's v1 path.
    fn v1_bytes(sketch: &Sketch) -> Vec<u8> {
        let mut w = Writer::new();
        encode_header(&mut w, sketch, VERSION_V1);
        w.varint(sketch.entries.len() as u64);
        for e in &sketch.entries {
            encode_entry(&mut w, e);
        }
        w.finish()
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
    fn v1_container_still_decodes() {
        let s = sample_sketch();
        let encoded = v1_bytes(&s);
        assert_eq!(container_version(&encoded).unwrap(), 1);
        assert_eq!(decode_sketch(&encoded).unwrap(), s);
    }

    #[test]
    fn default_container_is_v2() {
        let encoded = encode_sketch(&sample_sketch());
        assert_eq!(container_version(&encoded).unwrap(), 2);
        assert_eq!(encoded, encode_sketch_v2(&sample_sketch()));
    }

    #[test]
    fn empty_sketch_round_trips_in_both_versions() {
        let s = Sketch {
            mechanism: Mechanism::Sync,
            entries: vec![],
            meta: SketchMeta::default(),
            checkpoint: None,
        };
        assert_eq!(decode_sketch(&v1_bytes(&s)).unwrap(), s);
        assert_eq!(decode_sketch(&encode_sketch_v2(&s)).unwrap(), s);
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
        let v1 = v1_bytes(&s);
        let v2 = encode_sketch_v2(&s);
        assert_eq!(decode_sketch(&v2).unwrap(), s);
        assert!(
            (v2.len() as f64) < 0.75 * v1.len() as f64,
            "v2 {} must be at least 25% smaller than v1 {}",
            v2.len(),
            v1.len()
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
        assert_eq!(decode_sketch(&encode_sketch_v2(&s)).unwrap(), s);
    }

    #[test]
    fn v2_truncations_and_corruptions_are_errors_not_panics() {
        let encoded = encode_sketch_v2(&sample_sketch());
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
        assert_eq!(container_version(&encoded).unwrap(), 3);
        assert_eq!(decode_sketch(&encoded).unwrap(), s);
        // Checkpoint-free sketches still emit v2.
        assert_eq!(container_version(&encode_sketch(&sample_sketch())).unwrap(), 2);
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
        let encoded = encode_sketch_v3(&s);
        let err = decode_sketch(&encoded).unwrap_err();
        assert!(err.message.contains("snapshot"), "{}", err.message);
    }

    #[test]
    fn genesis_checkpoint_with_a_snapshot_is_rejected() {
        let mut s = checkpointed_sketch();
        s.checkpoint.as_deref_mut().unwrap().snapshot = vec![1, 2, 3];
        let encoded = encode_sketch_v3(&s);
        let err = decode_sketch(&encoded).unwrap_err();
        assert!(err.message.contains("genesis"), "{}", err.message);
    }

    #[test]
    fn flipping_a_v2_container_to_v3_yields_no_phantom_checkpoint() {
        // Version-byte corruption must never reinterpret a v2 body as a
        // believable checkpoint: the first body varint (a nonzero entry
        // count) lands on `boundary`, and a nonzero boundary demands an
        // embedded snapshot that decodes — garbage cannot.
        let mut encoded = encode_sketch_v2(&sample_sketch());
        encoded[4] = 3;
        assert!(decode_sketch(&encoded).is_err());
    }

    #[test]
    fn checkpoint_segment_bytes_is_v3_only() {
        let v3 = encode_sketch(&checkpointed_sketch());
        let seg = checkpoint_segment_bytes(&v3).unwrap().expect("v3 has a segment");
        assert!(seg > 0 && seg < v3.len() as u64);
        assert_eq!(checkpoint_segment_bytes(&encode_sketch_v2(&sample_sketch())).unwrap(), None);
        assert_eq!(checkpoint_segment_bytes(&v1_bytes(&sample_sketch())).unwrap(), None);
    }

    #[test]
    fn v2_layout_skips_the_checkpoint_segment() {
        let s = checkpointed_sketch();
        let layout = v2_layout(&encode_sketch(&s))
            .expect("valid container")
            .expect("v3 has a columnar layout");
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
    fn v2_layout_reports_the_shard_directory() {
        let sketch = sample_sketch();
        let encoded = encode_sketch_v2(&sketch);
        let layout = v2_layout(&encoded)
            .expect("valid container")
            .expect("v2 has a layout");
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
    fn v2_layout_is_absent_for_v1_containers() {
        let sketch = sample_sketch();
        let encoded = v1_bytes(&sketch);
        assert_eq!(v2_layout(&encoded).expect("valid container"), None);
        assert!(v2_layout(b"garbage").is_err());
    }
}
