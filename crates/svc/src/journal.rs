//! The append-only job journal, group-committed.
//!
//! Every state transition the queue cares about across restarts is one
//! framed record appended — and covered by an `fdatasync` — before the
//! transition is acknowledged: SUBMIT when a job is accepted, RETRY when
//! a job is requeued after exhausting its attempt budget, RESULT when a
//! job reaches a terminal status. On startup the queue replays the
//! journal front to back; a crash can leave at most one partially-written
//! record at the tail, which replay tolerates by *truncating* it (the
//! corresponding transition was never acknowledged, so dropping it is
//! correct — and physically truncating means later appends land after the
//! last clean record instead of behind unreadable garbage).
//!
//! ## Group commit
//!
//! `fdatasync` is the most expensive instruction on the append path, and
//! it costs the same whether it makes one record durable or sixty-four.
//! [`Journal::append`] therefore runs the classic WAL group-commit
//! protocol: an appender encodes its frame, enqueues it under the journal
//! lock, and blocks on a condvar; the first appender to find no active
//! leader *becomes* the leader, holds the door open while other appenders
//! are on their way in, then writes every pending frame with one `write`
//! sequence and exactly one `fdatasync`, and wakes the whole cohort.
//!
//! The hold waits for appenders already at the door, and for company
//! only where cohorts run large. Every appender raises an atomic
//! `entering` count before it takes the lock and lowers it under the
//! lock, where its frames are enqueued. A leader holds, for at most
//! [`GroupCommit::max_hold`] and until [`GroupCommit::max_records`]
//! frames are pending, while that count is non-zero or its cohort is
//! below half the moving average of cohort sizes; the enqueue that ends
//! the hold wakes it. Below an average of four records nobody entering
//! means no hold, so light load reads `records_per_sync` ≈ 1 by design.
//!
//! No appender returns `Ok` before the sync that covers its record — the
//! acknowledgement contract of per-record syncing is unchanged; only the
//! number of syncs per acknowledged record changes (from 1 to 1/cohort).
//! `GroupCommit { max_records: 1 }` restores the exact per-record
//! behavior: one `fdatasync` per record.
//!
//! A cohort that fails — torn write, injected crash, real I/O error —
//! fails *every* member: none were acked, so none may believe they were
//! made durable. A failure that can leave a partial frame on disk wedges
//! the journal for this process lifetime (subsequent appends fail fast);
//! reopening the file is the recovery path, exactly as it is for a real
//! crash.
//!
//! Record framing (format 2, header magic `PSJ2`):
//!
//! ```text
//! "PSJ2" | records…
//! record = u32 BE payload length | payload (kind u8 + fields) | u32 BE CRC-32(payload)
//! ```
//!
//! Both the frame and the payload fields are written with
//! [`pres_tvm::bytes::Writer`] and read with [`Reader`]; a field too long
//! for its `u32` length prefix fails the append, never truncates.
//!
//! The CRC trailer is what lets replay tell a *torn* append from
//! *corruption*: a record whose checksum mismatches and which ends the
//! file is a crash signature (truncate and continue); a mismatching
//! record with more bytes behind it is real damage and a hard error.
//! Without it, a torn write that happens to leave a plausible length
//! prefix would replay garbage fields as a real transition.
//!
//! A file that does not start with the magic is not a journal, and open
//! refuses it without writing a byte: pointing a daemon or `pres fsck` at
//! the wrong directory must not destroy what is there. The one exception
//! is a 1–3-byte prefix of the magic, the signature of a crash while the
//! header was being stamped, which is completed to an empty journal.

use crate::crc::crc32;
use crate::digest::Digest;
use crate::faultpoint::{FaultPoint, Faults};
use crate::metrics::Metrics;
use crate::queue::JobStatus;
use pres_tvm::bytes::{DecodeError, LenOverflow, Reader, Writer};
use pres_tvm::sync::{Condvar, Mutex, MutexGuard};
use std::collections::{BTreeMap, VecDeque};
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Format-2 header magic.
pub const MAGIC: [u8; 4] = *b"PSJ2";

/// One durable queue transition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Record {
    /// A job was accepted: `job` reproduces `bug` from the stored sketch.
    Submit {
        job: u64,
        bug: String,
        sketch: Digest,
    },
    /// A job was requeued for its `retries`-th retry.
    Retry { job: u64, retries: u32 },
    /// A job reached a terminal status.
    Result { job: u64, status: JobStatus },
}

const KIND_SUBMIT: u8 = 1;
const KIND_RETRY: u8 = 2;
const KIND_RESULT: u8 = 3;

impl Record {
    fn encode(&self) -> Result<Vec<u8>, LenOverflow> {
        let mut out = Writer::new();
        match self {
            Record::Submit { job, bug, sketch } => {
                out.u8(KIND_SUBMIT);
                out.be_u64(*job);
                out.be_str(bug)?;
                out.raw(&sketch.0);
            }
            Record::Retry { job, retries } => {
                out.u8(KIND_RETRY);
                out.be_u64(*job);
                out.be_u32(*retries);
            }
            Record::Result { job, status } => {
                out.u8(KIND_RESULT);
                out.be_u64(*job);
                status.encode(&mut out)?;
            }
        }
        Ok(out.finish())
    }

    /// The record's format-2 frame: `len | payload | crc`.
    fn frame(&self) -> Result<Vec<u8>, LenOverflow> {
        let payload = self.encode()?;
        let mut out = Writer::new();
        out.reserve(8 + payload.len());
        out.be_bytes(&payload)?;
        out.be_u32(crc32(&payload));
        Ok(out.finish())
    }

    fn decode(payload: &[u8]) -> Result<Record, DecodeError> {
        let mut r = Reader::new(payload);
        let record = match r.u8()? {
            KIND_SUBMIT => Record::Submit {
                job: r.be_u64()?,
                bug: r.be_str()?.to_string(),
                sketch: Digest(r.array()?),
            },
            KIND_RETRY => Record::Retry {
                job: r.be_u64()?,
                retries: r.be_u32()?,
            },
            KIND_RESULT => Record::Result {
                job: r.be_u64()?,
                status: JobStatus::decode(&mut r)?,
            },
            other => return Err(r.err(format!("unknown record kind {other}"))),
        };
        if !r.at_end() {
            return Err(r.err("trailing bytes"));
        }
        Ok(record)
    }
}

fn corrupt(path: &Path, at: usize, what: &str) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("malformed journal record at byte {at} of {}: {what}", path.display()),
    )
}

/// A parsed journal image: the records of the longest clean prefix and
/// that prefix's byte length (everything past it is tail damage).
struct Parsed {
    records: Vec<Record>,
    clean_len: u64,
}

/// Walks the records after the header. Incomplete or checksum-mismatching
/// data *at the end of the file* is a torn append; a bad checksum or
/// undecodable payload with more bytes behind it is corruption.
fn parse(data: &[u8], path: &Path) -> io::Result<Parsed> {
    let mut records = Vec::new();
    let mut r = Reader::new(&data[MAGIC.len()..]);
    let mut clean_len = MAGIC.len();
    while !r.at_end() {
        // A partial length prefix, payload or checksum at the tail.
        let Ok(payload) = r.be_bytes() else { break };
        let Ok(stored_crc) = r.be_u32() else { break };
        if crc32(payload) != stored_crc {
            if r.at_end() {
                break; // torn final record: a plausible frame, wrong bytes
            }
            return Err(corrupt(path, clean_len, "checksum mismatch mid-file"));
        }
        let Ok(record) = Record::decode(payload) else {
            // The checksum matched, so these bytes are what was written:
            // an undecodable payload is a writer bug or real corruption,
            // wherever it sits.
            return Err(corrupt(path, clean_len, "undecodable record payload"));
        };
        records.push(record);
        clean_len = MAGIC.len() + r.position();
    }
    Ok(Parsed {
        records,
        clean_len: clean_len as u64,
    })
}

/// Group-commit tuning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GroupCommit {
    /// Most records one `fdatasync` may cover. `1` = per-record syncing,
    /// byte-for-byte the PR 6 append path.
    pub max_records: usize,
    /// The longest a leader holds the door for appenders entering the
    /// commit path or, while cohorts run large, for company (see the
    /// module doc); a full cohort ends the hold early. `0` = never wait:
    /// the leader commits whatever is already enqueued (opportunistic
    /// batching only).
    pub max_hold: Duration,
}

impl Default for GroupCommit {
    fn default() -> Self {
        GroupCommit {
            max_records: 64,
            max_hold: Duration::from_micros(500),
        }
    }
}

impl GroupCommit {
    /// The per-record baseline: every append is its own cohort and its
    /// own `fdatasync` — exactly the pre-group-commit behavior.
    pub fn per_record() -> Self {
        GroupCommit {
            max_records: 1,
            max_hold: Duration::ZERO,
        }
    }
}

/// One enqueued-but-uncommitted frame.
struct Pending {
    seq: u64,
    frame: Vec<u8>,
}

/// Everything the commit protocol mutates, under one lock. The file
/// lives here too: the leader writes and syncs while holding the lock,
/// which is what makes "one leader at a time" and "file order == seq
/// order" trivially true. Appenders that arrive during a sync block on
/// the lock, enqueue the moment it is released, and form the next
/// cohort — the sync is never idle-waited on.
struct CommitState {
    file: File,
    /// Frames appended but not yet claimed by a leader, in seq order.
    pending: VecDeque<Pending>,
    /// The next sequence number to hand out (seqs are per-process).
    next_seq: u64,
    /// Every seq `<=` this has an outcome (synced, or an entry in
    /// `failed`).
    resolved: u64,
    /// Outcomes of failed cohorts, removed by their owners on observation
    /// — bounded by the number of appenders currently in flight.
    failed: BTreeMap<u64, String>,
    /// A leader is holding the door or writing (lock released during the
    /// hold, so the flag — not the lock — is what serializes leaders).
    leader: bool,
    /// Eight times the moving average of synced cohort sizes (each
    /// cohort moves it an eighth of the way).
    cohort_avg8: usize,
    /// Set when a failed cohort write may have left a partial frame on
    /// disk: the in-memory append position no longer matches a clean
    /// file tail, so every later append fails fast until reopen.
    wedged: Option<String>,
}

/// An open journal, positioned for appends (always format 2). Appends
/// take `&self`: the journal owns its synchronization, because the
/// group-commit protocol *is* that synchronization.
pub struct Journal {
    shared: Mutex<CommitState>,
    /// Woken when a cohort resolves and when the leader role frees up.
    commit: Condvar,
    /// Woken when an enqueue ends a leader's hold (see `holds`). Separate
    /// from `commit` so it wakes exactly the holding leader, not every
    /// parked follower (with tens of concurrent appenders that thundering
    /// herd is real CPU).
    hold: Condvar,
    /// Appenders between "about to take the lock" and "frames enqueued":
    /// the ones a holding leader always waits for. Read and lowered under
    /// the lock. `Relaxed` because it publishes no data: a stale read
    /// only decides whether a hold goes on, never what is written or
    /// acknowledged.
    entering: AtomicUsize,
    faults: Faults,
    config: GroupCommit,
    metrics: Arc<Metrics>,
}

impl std::fmt::Debug for Journal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Journal").field("config", &self.config).finish_non_exhaustive()
    }
}

impl Journal {
    /// Opens (creating if needed) the journal at `path`, replaying every
    /// complete record already present. A truncated or torn final record
    /// — the signature of a crash mid-append — is discarded and the file
    /// truncated back to its last clean record; a malformed record
    /// *before* the tail means real corruption and is an error, and so is
    /// a file that is not a journal at all (left untouched).
    pub fn open(path: impl AsRef<Path>) -> io::Result<(Journal, Vec<Record>)> {
        Journal::open_with_faults(path, Faults::none())
    }

    /// [`Journal::open`] with an injectable crash-point handle.
    pub fn open_with_faults(
        path: impl AsRef<Path>,
        faults: Faults,
    ) -> io::Result<(Journal, Vec<Record>)> {
        Journal::open_with(path, faults, GroupCommit::default(), Arc::new(Metrics::new()))
    }

    /// [`Journal::open`] with everything injectable: crash points,
    /// group-commit tuning, and the metrics block the commit path counts
    /// records/syncs/cohorts into (the daemon passes its shared one).
    pub fn open_with(
        path: impl AsRef<Path>,
        faults: Faults,
        config: GroupCommit,
        metrics: Arc<Metrics>,
    ) -> io::Result<(Journal, Vec<Record>)> {
        let path = path.as_ref();
        let mut file = OpenOptions::new()
            .create(true)
            .read(true)
            .append(true)
            .open(path)?;
        let mut data = Vec::new();
        file.read_to_end(&mut data)?;

        if data.len() < MAGIC.len() && MAGIC.starts_with(&data) {
            // Fresh journal, or one whose header stamping a crash cut
            // short: complete the header durably before any record relies
            // on it.
            file.write_all(&MAGIC[data.len()..])?;
            file.sync_data()?;
            if let Some(dir) = path.parent() {
                let _ = File::open(dir).and_then(|d| d.sync_all());
            }
            return Ok((Journal::assemble(file, faults, config, metrics), Vec::new()));
        }

        if !data.starts_with(&MAGIC) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "{} is not a job journal (no PSJ2 header); refusing to open it",
                    path.display()
                ),
            ));
        }
        let parsed = parse(&data, path)?;
        if parsed.clean_len < data.len() as u64 {
            // Drop the torn tail so future appends extend the clean
            // prefix instead of hiding behind unreadable bytes.
            file.set_len(parsed.clean_len)?;
            file.sync_data()?;
        }
        Ok((
            Journal::assemble(file, faults, config, metrics),
            parsed.records,
        ))
    }

    fn assemble(file: File, faults: Faults, config: GroupCommit, metrics: Arc<Metrics>) -> Journal {
        Journal {
            shared: Mutex::new(CommitState {
                file,
                pending: VecDeque::new(),
                next_seq: 1,
                resolved: 0,
                failed: BTreeMap::new(),
                leader: false,
                cohort_avg8: 8,
                wedged: None,
            }),
            commit: Condvar::new(),
            hold: Condvar::new(),
            entering: AtomicUsize::new(0),
            faults,
            config,
            metrics,
        }
    }

    /// The metrics block the commit path counts into (the journal's own
    /// unless one was shared via [`Journal::open_with`]).
    pub fn metrics(&self) -> &Arc<Metrics> {
        &self.metrics
    }

    /// Appends one record, returning once an `fdatasync` covers it —
    /// callers may acknowledge the transition the moment this returns
    /// `Ok`. Concurrent appenders are group-committed: their frames ride
    /// one cohort and share one sync.
    pub fn append(&self, record: &Record) -> io::Result<()> {
        self.commit_frames(vec![record.frame()?])
    }

    /// Appends several records as members of the same commit cohort(s):
    /// they are enqueued atomically and in order, so with
    /// [`GroupCommit::max_records`] `>=` the batch length they share a
    /// single `fdatasync`. All-or-nothing acknowledgement: `Ok` means
    /// every record is covered by a sync; `Err` means none may be
    /// treated as durable.
    pub fn append_batch(&self, records: &[Record]) -> io::Result<()> {
        if records.is_empty() {
            return Ok(());
        }
        let frames = records.iter().map(Record::frame).collect::<Result<_, _>>()?;
        self.commit_frames(frames)
    }

    /// The commit protocol: enqueue `frames`, then wait for their outcome
    /// — leading (writing cohorts) whenever no other appender is.
    fn commit_frames(&self, frames: Vec<Vec<u8>>) -> io::Result<()> {
        let count = frames.len() as u64;
        self.entering.fetch_add(1, Ordering::Relaxed);
        let mut shared = self.shared.lock();
        // Lowered under the lock, so a leader (which reads it under the
        // lock) never sees this appender as both entering and enqueued.
        self.entering.fetch_sub(1, Ordering::Relaxed);
        if let Some(msg) = &shared.wedged {
            return Err(wedged_error(msg));
        }
        let first = shared.next_seq;
        for frame in frames {
            let seq = shared.next_seq;
            shared.next_seq += 1;
            shared.pending.push_back(Pending { seq, frame });
        }
        let last = first + count - 1;
        if shared.leader && !self.holds(&shared) {
            // A leader may be holding the door for exactly this.
            self.hold.notify_all();
        }
        loop {
            if shared.resolved >= last {
                return Self::take_outcome(&mut shared, first, last);
            }
            if !shared.leader {
                shared.leader = true;
                self.lead(&mut shared, last);
                shared.leader = false;
                // Wake both cohort members (their outcome is in) and the
                // next leader candidate (pending may be non-empty).
                self.commit.notify_all();
            } else {
                self.commit.wait(&mut shared);
            }
        }
    }

    /// Runs commit cohorts until every seq up to `upto` (the leader's own
    /// last frame) has an outcome. Called with the `leader` flag held;
    /// the lock is released only during the hold window (so entering
    /// appenders can enqueue), never during the write+sync itself —
    /// appenders arriving mid-sync park on the lock and form the next
    /// cohort the moment it is released.
    fn lead(&self, shared: &mut MutexGuard<'_, CommitState>, upto: u64) {
        while shared.resolved < upto && shared.wedged.is_none() {
            if !self.config.max_hold.is_zero() && self.holds(shared) {
                let started = Instant::now();
                let deadline = started + self.config.max_hold;
                while self.holds(shared) {
                    let left = deadline.saturating_duration_since(Instant::now());
                    if left.is_zero() {
                        break;
                    }
                    self.hold.wait_timeout(shared, left);
                }
                self.metrics
                    .journal_hold_us
                    .fetch_add(started.elapsed().as_micros() as u64, Ordering::Relaxed);
            }
            let take = shared.pending.len().min(self.config.max_records.max(1));
            let cohort: Vec<Pending> = shared.pending.drain(..take).collect();
            let hi = cohort.last().expect("leader leads only with pending frames").seq;
            match self.write_cohort(shared, &cohort) {
                Ok(()) => {
                    shared.cohort_avg8 -= shared.cohort_avg8 / 8;
                    shared.cohort_avg8 += cohort.len();
                    self.metrics.journal_records.fetch_add(cohort.len() as u64, Ordering::Relaxed);
                    self.metrics.journal_syncs.fetch_add(1, Ordering::Relaxed);
                    self.metrics
                        .journal_cohort_max
                        .fetch_max(cohort.len() as u64, Ordering::Relaxed);
                }
                Err(WriteFailure { error, tail_dirty }) => {
                    // The cohort was not synced: every member errors, none
                    // acks. A possibly-partial frame on disk additionally
                    // wedges the journal — later appends would land behind
                    // unreadable bytes.
                    let msg = error.to_string();
                    for p in &cohort {
                        shared.failed.insert(p.seq, msg.clone());
                    }
                    if tail_dirty {
                        shared.wedged = Some(msg.clone());
                        // Unclaimed frames can never be written either.
                        while let Some(p) = shared.pending.pop_front() {
                            shared.failed.insert(p.seq, msg.clone());
                            shared.resolved = shared.resolved.max(p.seq);
                        }
                    }
                }
            }
            shared.resolved = shared.resolved.max(hi);
            self.commit.notify_all();
        }
    }

    /// Whether a leader keeps holding the door (for at most `max_hold`):
    /// the cohort is not full, and either some appender is blocked on the
    /// lock or the cohort is below half the recent average cohort size.
    fn holds(&self, shared: &CommitState) -> bool {
        let pending = shared.pending.len();
        pending < self.config.max_records
            && (self.entering.load(Ordering::Relaxed) > 0 || pending < shared.cohort_avg8 / 16)
    }

    /// Writes one cohort's frames and issues its single `fdatasync`,
    /// threading the crash-injection points through: the per-record
    /// points fire per frame (so a single-record cohort crashes exactly
    /// like a PR 6 append), the cohort points at the batch boundaries.
    fn write_cohort(
        &self,
        shared: &mut MutexGuard<'_, CommitState>,
        cohort: &[Pending],
    ) -> Result<(), WriteFailure> {
        let clean = |e: io::Error| WriteFailure { error: e, tail_dirty: false };
        let dirty = |e: io::Error| WriteFailure { error: e, tail_dirty: true };
        self.faults.check(FaultPoint::JournalCohortWriteCrash).map_err(clean)?;
        for p in cohort {
            // Every earlier frame is complete: a crash at this check
            // leaves whole (if unsynced) records, not a torn tail.
            self.faults.check(FaultPoint::JournalWriteCrash).map_err(clean)?;
            if let Some(keep) = self.faults.torn(FaultPoint::JournalWriteTorn, p.frame.len()) {
                let _ = shared.file.write_all(&p.frame[..keep]);
                let _ = shared.file.sync_data();
                return Err(dirty(Faults::torn_error(FaultPoint::JournalWriteTorn)));
            }
            shared.file.write_all(&p.frame).map_err(dirty)?;
        }
        self.faults.check(FaultPoint::JournalSyncCrash).map_err(clean)?;
        self.faults.check(FaultPoint::JournalCohortSyncCrash).map_err(clean)?;
        // A buffered flush only reaches the kernel; the acknowledgement
        // contract is power-loss durability, which needs fdatasync.
        shared.file.sync_data().map_err(clean)
    }

    /// Collects the outcome for seqs `first..=last` once resolved: the
    /// first failure wins, success otherwise. Failed entries are removed
    /// here — each seq has exactly one owner — so the map stays bounded
    /// by the number of in-flight appenders.
    fn take_outcome(
        shared: &mut MutexGuard<'_, CommitState>,
        first: u64,
        last: u64,
    ) -> io::Result<()> {
        let mut outcome = Ok(());
        for seq in first..=last {
            if let Some(msg) = shared.failed.remove(&seq) {
                if outcome.is_ok() {
                    outcome = Err(io::Error::other(msg));
                }
            }
        }
        outcome
    }
}

/// A cohort write error plus whether it may have left a partial frame on
/// disk (in which case the journal must wedge).
struct WriteFailure {
    error: io::Error,
    tail_dirty: bool,
}

fn wedged_error(msg: &str) -> io::Error {
    io::Error::other(format!("journal is wedged by an earlier failed write: {msg}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::digest::sha256;
    use crate::faultpoint::{FaultMode, INJECTED};
    use std::path::PathBuf;

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "pres-svc-journal-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("journal.log")
    }

    fn sample_records() -> Vec<Record> {
        vec![
            Record::Submit {
                job: 1,
                bug: "pbzip-order".into(),
                sketch: sha256(b"sketch"),
            },
            Record::Retry { job: 1, retries: 1 },
            Record::Result {
                job: 1,
                status: JobStatus::Succeeded {
                    attempts: 17,
                    certificate: sha256(b"cert"),
                },
            },
            Record::Result {
                job: 2,
                status: JobStatus::Failed {
                    message: "unknown bug 'nope'".into(),
                },
            },
        ]
    }

    fn write_all(path: &Path, records: &[Record]) {
        let (j, _) = Journal::open(path).unwrap();
        for r in records {
            j.append(r).unwrap();
        }
    }

    #[test]
    fn append_then_replay() {
        let path = scratch("replay");
        let records = sample_records();
        write_all(&path, &records);
        let (_, replayed) = Journal::open(&path).unwrap();
        assert_eq!(replayed, records);
        assert!(std::fs::read(&path).unwrap().starts_with(&MAGIC));
    }

    #[test]
    fn truncated_tail_is_dropped_and_physically_truncated() {
        let path = scratch("truncated");
        let records = sample_records();
        write_all(&path, &records);
        let full = std::fs::read(&path).unwrap();
        let without_last = {
            let mut out = MAGIC.to_vec();
            for r in &records[..records.len() - 1] {
                out.extend(r.frame().unwrap());
            }
            out
        };
        // Chop the file mid-final-record at every possible byte offset.
        for cut in 1..(full.len() - without_last.len()) {
            std::fs::write(&path, &full[..full.len() - cut]).unwrap();
            let (_, replayed) = Journal::open(&path).unwrap();
            assert_eq!(replayed, records[..records.len() - 1], "cut {cut}");
            // The torn bytes are gone: the file ends at the clean prefix.
            assert_eq!(
                std::fs::read(&path).unwrap(),
                without_last,
                "cut {cut} left tail bytes behind"
            );
        }
    }

    #[test]
    fn appends_after_a_torn_tail_are_replayable() {
        let path = scratch("append-after-tear");
        let records = sample_records();
        write_all(&path, &records);
        let full = std::fs::read(&path).unwrap();
        // Tear the final record mid-frame, then append a new record
        // through a reopened journal.
        std::fs::write(&path, &full[..full.len() - 3]).unwrap();
        let extra = Record::Retry { job: 9, retries: 2 };
        {
            let (j, replayed) = Journal::open(&path).unwrap();
            assert_eq!(replayed, records[..records.len() - 1]);
            j.append(&extra).unwrap();
        }
        let (_, replayed) = Journal::open(&path).unwrap();
        let mut expected = records[..records.len() - 1].to_vec();
        expected.push(extra);
        assert_eq!(replayed, expected);
    }

    #[test]
    fn mid_file_corruption_is_an_error() {
        let path = scratch("corrupt");
        write_all(&path, &sample_records());
        let mut data = std::fs::read(&path).unwrap();
        // Clobber the first record's kind byte (magic 4 + length 4 = 8).
        data[8] = 0xee;
        std::fs::write(&path, &data).unwrap();
        let err = Journal::open(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("checksum mismatch"), "{err}");
    }

    #[test]
    fn torn_final_record_with_plausible_length_is_detected_by_crc() {
        let path = scratch("plausible-tear");
        let records = sample_records();
        write_all(&path, &records);
        let mut data = std::fs::read(&path).unwrap();
        // Corrupt a payload byte of the FINAL record while keeping its
        // length prefix and total size intact: without the CRC this
        // replays as a (garbage) record; with it, it is a torn tail.
        let n = data.len();
        data[n - 6] ^= 0xff;
        std::fs::write(&path, &data).unwrap();
        let (_, replayed) = Journal::open(&path).unwrap();
        assert_eq!(replayed, records[..records.len() - 1]);
    }

    #[test]
    fn a_file_without_the_magic_is_refused_and_left_untouched() {
        let path = scratch("foreign");
        // Text whose first four bytes read as a huge length prefix, and a
        // headerless image of real records: neither is a journal, and
        // neither may be rewritten.
        let mut headerless = Vec::new();
        for r in &sample_records() {
            headerless.extend(r.frame().unwrap());
        }
        for foreign in [
            b"not a journal, just notes\n".to_vec(),
            headerless,
            b"PSJ".repeat(3),
        ] {
            std::fs::write(&path, &foreign).unwrap();
            let err = Journal::open(&path).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
            assert!(err.to_string().contains("not a job journal"), "{err}");
            assert_eq!(std::fs::read(&path).unwrap(), foreign);
        }
    }

    #[test]
    fn a_torn_header_is_completed_to_an_empty_journal() {
        let path = scratch("torn-header");
        for cut in 1..MAGIC.len() {
            std::fs::write(&path, &MAGIC[..cut]).unwrap();
            let (j, replayed) = Journal::open(&path).unwrap();
            assert!(replayed.is_empty(), "cut {cut}");
            assert_eq!(std::fs::read(&path).unwrap(), MAGIC, "cut {cut}");
            let extra = Record::Retry { job: 3, retries: 1 };
            j.append(&extra).unwrap();
            drop(j);
            assert_eq!(Journal::open(&path).unwrap().1, [extra], "cut {cut}");
        }
    }

    #[test]
    fn concurrent_appends_share_syncs_and_all_replay() {
        let path = scratch("group");
        let (j, _) = Journal::open_with(
            &path,
            Faults::none(),
            GroupCommit {
                max_records: 64,
                max_hold: Duration::from_millis(5),
            },
            Arc::new(Metrics::new()),
        )
        .unwrap();
        let j = Arc::new(j);
        const THREADS: u64 = 8;
        const PER_THREAD: u64 = 25;
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let j = Arc::clone(&j);
                std::thread::spawn(move || {
                    for i in 0..PER_THREAD {
                        j.append(&Record::Retry {
                            job: t * PER_THREAD + i,
                            retries: 1,
                        })
                        .unwrap();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let snap = j.metrics().snapshot();
        assert_eq!(snap.journal_records, THREADS * PER_THREAD);
        assert!(snap.journal_syncs >= 1 && snap.journal_syncs <= snap.journal_records);
        drop(j);
        let (_, replayed) = Journal::open(&path).unwrap();
        assert_eq!(replayed.len(), (THREADS * PER_THREAD) as usize);
        // Every acked record replays exactly once, whatever the cohorts.
        let mut jobs: Vec<u64> = replayed
            .iter()
            .map(|r| match r {
                Record::Retry { job, .. } => *job,
                other => panic!("unexpected record {other:?}"),
            })
            .collect();
        jobs.sort_unstable();
        assert_eq!(jobs, (0..THREADS * PER_THREAD).collect::<Vec<_>>());
    }

    #[test]
    fn a_lone_appender_never_waits_out_the_hold() {
        let path = scratch("lone");
        let hold = Duration::from_secs(10);
        let (j, _) = Journal::open_with(
            &path,
            Faults::none(),
            GroupCommit {
                max_records: 64,
                max_hold: hold,
            },
            Arc::new(Metrics::new()),
        )
        .unwrap();
        let records = sample_records();
        for r in &records {
            let started = Instant::now();
            j.append(r).unwrap();
            let took = started.elapsed();
            assert!(
                took < hold / 10,
                "a lone append took {took:?} under a {hold:?} hold"
            );
        }
        let snap = j.metrics().snapshot();
        assert_eq!(snap.journal_records, records.len() as u64);
        assert_eq!(snap.journal_syncs, records.len() as u64);
        drop(j);
        assert_eq!(Journal::open(&path).unwrap().1, records);
    }

    #[test]
    fn a_leader_stops_holding_once_nobody_is_entering() {
        // A two-record cohort followed by a lone append: company in the
        // previous round is no reason to hold when nobody is entering.
        let path = scratch("nobody-entering");
        let hold = Duration::from_secs(10);
        let (j, _) = Journal::open_with(
            &path,
            Faults::none(),
            GroupCommit {
                max_records: 64,
                max_hold: hold,
            },
            Arc::new(Metrics::new()),
        )
        .unwrap();
        let records = sample_records();
        j.append_batch(&records[..2]).unwrap();
        let started = Instant::now();
        j.append(&records[2]).unwrap();
        let took = started.elapsed();
        assert!(took < hold / 10, "the lone append took {took:?} under a {hold:?} hold");
        assert_eq!(j.metrics().snapshot().journal_syncs, 2);
        drop(j);
        assert_eq!(Journal::open(&path).unwrap().1, records[..3]);
    }

    #[test]
    fn a_leader_holds_for_company_only_while_cohorts_run_large() {
        // Three 32-record cohorts lift the average cohort size above
        // four, so a lone append holds for company; lone cohorts then pull
        // the average back down until an append syncs at once again.
        let path = scratch("company");
        let hold = Duration::from_millis(20);
        let (j, _) = Journal::open_with(
            &path,
            Faults::none(),
            GroupCommit {
                max_records: 64,
                max_hold: hold,
            },
            Arc::new(Metrics::new()),
        )
        .unwrap();
        let records = sample_records();
        let batch: Vec<Record> = records.iter().cycle().take(32).cloned().collect();
        for _ in 0..3 {
            j.append_batch(&batch).unwrap();
        }
        let started = Instant::now();
        j.append(&records[0]).unwrap();
        let took = started.elapsed();
        assert!(took >= hold, "a lone append after large cohorts took only {took:?}");
        let held_us = |j: &Journal| j.metrics().snapshot().journal_hold_us;
        let mut lone = 1;
        loop {
            let before = held_us(&j);
            j.append(&records[0]).unwrap();
            lone += 1;
            if held_us(&j) == before {
                break;
            }
            assert!(lone < 20, "{lone} lone appends still hold for company");
        }
        assert!(lone > 2, "the hold for company ended after {lone} lone appends");
        assert_eq!(j.metrics().snapshot().journal_syncs, 3 + lone);
    }

    #[test]
    fn per_record_config_syncs_every_append() {
        let path = scratch("per-record");
        let (j, _) = Journal::open_with(
            &path,
            Faults::none(),
            GroupCommit::per_record(),
            Arc::new(Metrics::new()),
        )
        .unwrap();
        for r in &sample_records() {
            j.append(r).unwrap();
        }
        let snap = j.metrics().snapshot();
        assert_eq!(snap.journal_records, 4);
        assert_eq!(snap.journal_syncs, 4);
        assert_eq!(snap.journal_cohort_max, 1);
    }

    #[test]
    fn append_batch_commits_one_cohort() {
        let path = scratch("batch");
        let (j, _) = Journal::open_with(
            &path,
            Faults::none(),
            GroupCommit {
                max_records: 64,
                max_hold: Duration::ZERO,
            },
            Arc::new(Metrics::new()),
        )
        .unwrap();
        let records = sample_records();
        j.append_batch(&records).unwrap();
        let snap = j.metrics().snapshot();
        assert_eq!(snap.journal_records, 4);
        assert_eq!(snap.journal_syncs, 1);
        assert_eq!(snap.journal_cohort_max, 4);
        drop(j);
        let (_, replayed) = Journal::open(&path).unwrap();
        assert_eq!(replayed, records);
    }

    #[test]
    fn a_torn_cohort_wedges_the_journal_until_reopen() {
        let path = scratch("wedge");
        let faults = Faults::new();
        let (j, _) = Journal::open_with(
            &path,
            faults.clone(),
            GroupCommit {
                max_records: 64,
                max_hold: Duration::ZERO,
            },
            Arc::new(Metrics::new()),
        )
        .unwrap();
        let records = sample_records();
        j.append(&records[0]).unwrap();
        // Tear the second frame of a three-record cohort: the first
        // member's bytes are on disk (unsynced), the tail is garbage.
        faults.arm(FaultPoint::JournalWriteTorn, FaultMode::Torn { keep: 6 }, 2);
        let err = j.append_batch(&records[1..]).unwrap_err();
        assert!(err.to_string().contains(INJECTED), "{err}");
        // Wedged: the in-memory position sits behind torn bytes, so a
        // later append must refuse rather than write unreadable records.
        let err = j.append(&records[1]).unwrap_err();
        assert!(err.to_string().contains("wedged"), "{err}");
        drop(j);
        // Reopen = recovery: the torn tail is truncated. The first
        // cohort frame was written before the tear and never synced, so
        // it may legitimately survive; no member was acked, and nothing
        // is garbage.
        let (j, replayed) = Journal::open(&path).unwrap();
        assert!(!replayed.is_empty() && replayed[0] == records[0]);
        assert!(replayed.len() <= 2);
        j.append(&records[3]).unwrap();
        drop(j);
        let (_, replayed) = Journal::open(&path).unwrap();
        assert_eq!(replayed.last(), Some(&records[3]));
    }

    #[test]
    fn a_failed_cohort_fails_every_member() {
        let path = scratch("cohort-fail");
        let faults = Faults::new();
        let (j, _) = Journal::open_with(
            &path,
            faults.clone(),
            GroupCommit {
                max_records: 64,
                max_hold: Duration::ZERO,
            },
            Arc::new(Metrics::new()),
        )
        .unwrap();
        let records = sample_records();
        faults.arm(FaultPoint::JournalCohortSyncCrash, FaultMode::Crash, 1);
        let err = j.append_batch(&records).unwrap_err();
        assert!(err.to_string().contains("cohort-sync"), "{err}");
        assert_eq!(j.metrics().snapshot().journal_syncs, 0);
        // A sync crash leaves complete frames behind: not wedged, the
        // journal keeps accepting work.
        j.append(&records[0]).unwrap();
        drop(j);
        let (_, replayed) = Journal::open(&path).unwrap();
        // The unacked cohort's bytes were written (sync was the crash),
        // so it replays — as unacknowledged work, which is allowed —
        // followed by the acked append.
        assert_eq!(replayed.last(), Some(&records[0]));
        assert_eq!(replayed.len(), records.len() + 1);
    }

    #[test]
    fn bit_flips_never_yield_phantom_records() {
        // The safety property of the framing: whatever single bit is
        // flipped, replay returns an error or a strict prefix of the
        // true record sequence — never a record that was not appended.
        let path = scratch("flips");
        let records = sample_records();
        write_all(&path, &records);
        let pristine = std::fs::read(&path).unwrap();
        for offset in 0..pristine.len() {
            for bit in [0u8, 3, 7] {
                let mut mutant = pristine.clone();
                mutant[offset] ^= 1 << bit;
                std::fs::write(&path, &mutant).unwrap();
                match Journal::open(&path) {
                    Err(_) => {}
                    Ok((_, replayed)) => {
                        assert!(
                            replayed.len() <= records.len()
                                && replayed == records[..replayed.len()],
                            "offset {offset} bit {bit}: phantom or reordered records"
                        );
                    }
                }
            }
        }
    }
}
