//! Production-run recording: the sharded sketch recorder and overhead
//! accounting.
//!
//! The recorder is a `pres-tvm` [`Observer`]: it sees every applied event,
//! filters by mechanism, and appends matching entries to **per-thread
//! shards** — each vthread's segment buffer, ordered by the thread's own
//! sequence. Only operations that genuinely need a cross-thread order
//! (memory accesses, synchronization, syscalls, thread lifecycle — see
//! [`SketchOp::claims_global_slot`]) claim a slot in the serialized global
//! sequence and pay the serialized slot-claim charge; thread-local
//! function/basic-block markers are charged thread-local cost only. At
//! [`SketchRecorder::finish`] the shards are merged into the deterministic
//! canonical order (see [`crate::sketch::StampedEntry`]).
//!
//! Overhead is measured exactly the way the paper does: run the same
//! workload natively and recorded (the observer does not influence
//! scheduling, so the interleaving is identical) and compare makespans.

use crate::codec;
use crate::sketch::{
    canonical_order, EpochInfo, Mechanism, MechanismFilter, Sketch, SketchCheckpoint, SketchEntry,
    SketchMeta, SketchOp, StampedEntry,
};
use crate::program::Program;
use pres_tvm::cost::CostModel;
use pres_tvm::sched::RandomScheduler;
use pres_tvm::trace::{Event, NullObserver, Observer, ObserverCharge, TraceMode};
use pres_tvm::vm::{self, RunOutcome, VmConfig};

/// A recording observer that can account for and finish into a sketch —
/// implemented by the sharded [`SketchRecorder`] and the epoch
/// [`RingRecorder`] so [`record`]/[`record_ring`] share one pipeline.
pub trait RecordingObserver: Observer + Sized {
    /// Encoded log bytes accumulated so far (explicit + implicit stream).
    fn bytes(&self) -> u64;
    /// Implicit instruction-stream events recorded so far.
    fn implicit_events(&self) -> u64;
    /// Finishes recording into a canonical [`Sketch`].
    fn finish(self, meta: SketchMeta) -> Sketch;
}

/// How many implicit instruction-stream events a `Compute(units)` block
/// contains under a mechanism (see
/// [`CostModel::units_per_implicit_access`]): a conservative binary
/// instrumentor logs the whole instruction stream, not just the
/// explicitly shared operations, and that is what the paper's RW/BB/
/// FUNC overheads are made of. SYNC and SYS log nothing implicit.
fn implicit_count(mechanism: Mechanism, cost: &CostModel, units: u64) -> u64 {
    let per = match mechanism {
        Mechanism::Rw => cost.units_per_implicit_access,
        Mechanism::Bb => cost.units_per_implicit_bb,
        Mechanism::BbN(n) => cost.units_per_implicit_bb * u64::from(n.max(1)),
        Mechanism::Func => cost.units_per_implicit_func,
        Mechanism::Sync | Mechanism::Sys => return 0,
    };
    units / per.max(1)
}

/// The per-event recording step shared by every production recorder.
///
/// Filtering, bucket stamping, implicit-stream accounting, and — crucially
/// — the recording *charge* live here, so the sharded recorder, the epoch
/// ring recorder, and the checkpoint verifier's charge mirror bill the
/// virtual clock identically event for event. Checkpoint snapshots embed
/// the clock; byte-identical restore verification depends on this charge
/// parity, so any new recorder must route its events through this core
/// rather than re-deriving charges.
#[derive(Debug)]
struct RecorderCore {
    filter: MechanismFilter,
    cost: CostModel,
    /// Serialized global-order slots claimed so far.
    slots: u64,
    bytes: u64,
    implicit_events: u64,
}

impl RecorderCore {
    fn new(mechanism: Mechanism, cost: CostModel) -> Self {
        RecorderCore {
            filter: MechanismFilter::new(mechanism),
            cost,
            slots: 0,
            bytes: 0,
            implicit_events: 0,
        }
    }

    /// Processes one applied event exactly as production recording does:
    /// returns the charge to bill and the stamped entry to log (if the
    /// mechanism records this event).
    fn step(&mut self, event: &Event) -> (ObserverCharge, Option<StampedEntry>) {
        // Thread-local computation: charge the implicit instruction-stream
        // recording this mechanism performs inside the block. Implicit
        // events never claim slot numbers — only under RW do they model
        // shared-memory accesses whose cross-thread order must be pinned,
        // and only then is the serialized portion charged. Under BB/BB-N/
        // FUNC the implicit stream is thread-local control flow.
        if let pres_tvm::op::Op::Compute(units) = event.op {
            let mechanism = self.filter.mechanism();
            let n = implicit_count(mechanism, &self.cost, units);
            if n == 0 {
                return (ObserverCharge::FREE, None);
            }
            self.implicit_events += n;
            self.bytes += n * self.cost.implicit_bytes;
            return (self.cost.implicit_cost(n, mechanism == Mechanism::Rw), None);
        }
        if !self.filter.record_and_note(event.tid, &event.op) {
            return (ObserverCharge::FREE, None);
        }
        let Some(op) = SketchOp::from_op(&event.op) else {
            return (ObserverCharge::FREE, None);
        };
        // Only cross-thread event classes claim a serialized slot; markers
        // are stamped with the current slot count and stay thread-local.
        let serial = op.claims_global_slot();
        let entry = SketchEntry::for_event(op, event);
        let payload = codec::entry_size(&entry);
        self.bytes += payload;
        let bucket = self.slots;
        if serial {
            self.slots += 1;
        }
        let (thread_cost, serial_cost) = self.cost.record_cost(payload, serial);
        (
            ObserverCharge {
                thread_cost,
                serial_cost,
            },
            Some(StampedEntry {
                bucket,
                serial,
                entry,
            }),
        )
    }
}

/// The sharded sketch-recording observer.
#[derive(Debug)]
pub struct SketchRecorder {
    core: RecorderCore,
    /// Per-thread segment buffers, indexed by `ThreadId::index()`. Each
    /// shard is in the thread's own program order; entries carry the
    /// bucket stamps the canonical merge sorts on.
    shards: Vec<Vec<StampedEntry>>,
}

impl SketchRecorder {
    /// A recorder for `mechanism` charging per the given cost model.
    pub fn new(mechanism: Mechanism, cost: CostModel) -> Self {
        SketchRecorder {
            core: RecorderCore::new(mechanism, cost),
            shards: Vec::new(),
        }
    }

    /// Serialized global-order slots claimed so far (the length of the
    /// serialized backbone of the log; markers live between slots).
    pub fn serialized_slots(&self) -> u64 {
        self.core.slots
    }
}

impl RecordingObserver for SketchRecorder {
    fn bytes(&self) -> u64 {
        self.core.bytes
    }

    fn implicit_events(&self) -> u64 {
        self.core.implicit_events
    }

    /// Merges the per-thread shards into the canonical order.
    ///
    /// Each shard is already nondecreasing in `(bucket, serial)` — buckets
    /// only grow over a thread's lifetime — so a linear k-way merge on
    /// `(bucket, serial, tid)` produces the canonical order directly,
    /// without re-sorting. Ties (thread-local markers of different threads
    /// in the same bucket) resolve to the lowest tid first, each thread's
    /// own sequence preserved.
    fn finish(self, meta: SketchMeta) -> Sketch {
        let total: usize = self.shards.iter().map(Vec::len).sum();
        let mut entries = Vec::with_capacity(total);
        let mut queues: Vec<_> = self
            .shards
            .into_iter()
            .map(|s| s.into_iter().peekable())
            .collect();
        loop {
            let mut best: Option<(u64, bool, usize)> = None;
            for (t, q) in queues.iter_mut().enumerate() {
                if let Some(s) = q.peek() {
                    let key = (s.bucket, s.serial, t);
                    if best.is_none_or(|b| key < b) {
                        best = Some(key);
                    }
                }
            }
            let Some((_, _, t)) = best else { break };
            entries.push(queues[t].next().expect("peeked above").entry);
        }
        debug_assert_eq!(entries.len(), total);
        Sketch {
            mechanism: self.core.filter.mechanism(),
            entries,
            meta,
            checkpoint: None,
        }
    }
}

impl Observer for SketchRecorder {
    fn on_event(&mut self, event: &Event) -> ObserverCharge {
        let (charge, stamped) = self.core.step(event);
        if let Some(stamped) = stamped {
            let idx = stamped.entry.tid.index();
            if idx >= self.shards.len() {
                self.shards.resize_with(idx + 1, Vec::new);
            }
            self.shards[idx].push(stamped);
        }
        charge
    }
}

/// Epoch budgets and retention for the always-on ring recorder.
#[derive(Debug, Clone)]
pub struct RingConfig {
    /// Cut an epoch after this many recorded sketch entries (0 disables
    /// the entry budget).
    pub epoch_entries: u64,
    /// Cut an epoch after this much charged recording cost — thread plus
    /// serial virtual-clock units, implicit stream included (0 disables
    /// the cost budget).
    pub epoch_cost: u64,
    /// Epochs retained, counting the open one; older epochs (entries and
    /// checkpoint alike) are evicted. Must be at least 1.
    pub ring_epochs: usize,
}

impl Default for RingConfig {
    fn default() -> Self {
        RingConfig {
            epoch_entries: 4096,
            epoch_cost: 0,
            ring_epochs: 4,
        }
    }
}

/// One epoch of the ring: the entries recorded since its starting
/// checkpoint, plus everything a flush needs to resume replay there.
#[derive(Debug)]
struct RingEpoch {
    /// Absolute epoch ordinal within the run.
    index: u64,
    /// Pick boundary of the starting checkpoint.
    start_picks: u64,
    /// Encoded starting snapshot; empty for the genesis epoch.
    start_snapshot: Vec<u8>,
    /// The mechanism filter's `BB-N` counters at the start boundary.
    start_bbn: Vec<u64>,
    /// Entries recorded inside the epoch, in arrival order with absolute
    /// bucket stamps.
    entries: Vec<StampedEntry>,
    /// Recording cost charged inside the epoch (for the cost budget).
    cost: u64,
}

impl RingEpoch {
    fn genesis() -> Self {
        RingEpoch {
            index: 0,
            start_picks: 0,
            start_snapshot: Vec::new(),
            start_bbn: Vec::new(),
            entries: Vec::new(),
            cost: 0,
        }
    }
}

/// The always-on recording observer: production recording into a bounded
/// epoch ring instead of an unbounded log.
///
/// Recording (filtering, stamping, charging) is byte-for-byte the
/// sharded recorder's — both route through the same `RecorderCore` —
/// but entries land in the current *epoch*. When the epoch exceeds its
/// budget the recorder asks the VM for a checkpoint
/// ([`Observer::checkpoint_due`]), seals the epoch at that pick
/// boundary, and opens a new one; only the last
/// [`RingConfig::ring_epochs`] epochs survive, so memory stays bounded
/// no matter how long the run. On failure, [`RecordingObserver::finish`]
/// flushes the retained window as a checkpoint-bearing [`Sketch`] whose
/// checkpoint is the oldest retained epoch's starting snapshot.
#[derive(Debug)]
pub struct RingRecorder {
    core: RecorderCore,
    config: RingConfig,
    /// Sealed epochs still retained, oldest first (at most
    /// `ring_epochs - 1`; the open epoch is the rest of the quota).
    sealed: std::collections::VecDeque<RingEpoch>,
    /// The open epoch.
    current: RingEpoch,
    next_index: u64,
    dropped_epochs: u64,
    dropped_entries: u64,
}

impl RingRecorder {
    /// A ring recorder for `mechanism`, charging per `cost`, with the
    /// given epoch budgets and retention.
    ///
    /// # Panics
    ///
    /// Panics if `config.ring_epochs` is zero.
    pub fn new(mechanism: Mechanism, cost: CostModel, config: RingConfig) -> Self {
        assert!(config.ring_epochs >= 1, "ring must retain at least one epoch");
        RingRecorder {
            core: RecorderCore::new(mechanism, cost),
            config,
            sealed: std::collections::VecDeque::new(),
            current: RingEpoch::genesis(),
            next_index: 1,
            dropped_epochs: 0,
            dropped_entries: 0,
        }
    }

    /// Epochs currently retained (sealed plus the open one). Never
    /// exceeds [`RingConfig::ring_epochs`].
    pub fn retained_epochs(&self) -> usize {
        self.sealed.len() + 1
    }

    /// Entries currently held across the retained epochs.
    pub fn retained_entries(&self) -> usize {
        self.sealed.iter().map(|e| e.entries.len()).sum::<usize>() + self.current.entries.len()
    }

    /// Epochs evicted so far.
    pub fn dropped_epochs(&self) -> u64 {
        self.dropped_epochs
    }

    /// Entries evicted with them.
    pub fn dropped_entries(&self) -> u64 {
        self.dropped_entries
    }

    /// Seals the open epoch at the captured boundary and opens the next
    /// one, evicting beyond-quota epochs oldest-first.
    fn rotate(&mut self, snapshot: &pres_tvm::snapshot::VmSnapshot) {
        let next = RingEpoch {
            index: self.next_index,
            start_picks: snapshot.picks(),
            start_snapshot: snapshot.encode(),
            start_bbn: self.core.filter.bb_counters().to_vec(),
            entries: Vec::new(),
            cost: 0,
        };
        self.next_index += 1;
        self.sealed.push_back(std::mem::replace(&mut self.current, next));
        while self.sealed.len() > self.config.ring_epochs.saturating_sub(1) {
            let evicted = self.sealed.pop_front().expect("len checked");
            self.dropped_epochs += 1;
            self.dropped_entries += evicted.entries.len() as u64;
        }
    }
}

impl RecordingObserver for RingRecorder {
    /// Log bytes *recorded* over the whole run (evicted epochs included):
    /// the ring pays recording cost for everything, it just doesn't keep
    /// everything.
    fn bytes(&self) -> u64 {
        self.core.bytes
    }

    fn implicit_events(&self) -> u64 {
        self.core.implicit_events
    }

    /// Flushes the retained window into a checkpoint-bearing sketch.
    ///
    /// Entries of all retained epochs are concatenated and canonically
    /// ordered — bucket stamps are absolute, so when nothing was evicted
    /// (a never-rotated or wide-enough ring) the entries equal the
    /// classic full-run sketch's exactly, and the checkpoint degenerates
    /// to genesis.
    fn finish(self, meta: SketchMeta) -> Sketch {
        let oldest = self.sealed.front().unwrap_or(&self.current);
        let mut epochs: Vec<EpochInfo> = Vec::with_capacity(self.sealed.len() + 1);
        for e in self.sealed.iter().chain(std::iter::once(&self.current)) {
            epochs.push(EpochInfo {
                index: e.index,
                start_picks: e.start_picks,
                entries: e.entries.len() as u64,
            });
        }
        let checkpoint = SketchCheckpoint {
            boundary: oldest.start_picks,
            production_seed: meta.seed,
            dropped_epochs: self.dropped_epochs,
            dropped_entries: self.dropped_entries,
            bbn_counters: oldest.start_bbn.clone(),
            epochs,
            snapshot: oldest.start_snapshot.clone(),
        };
        let mut stamped: Vec<StampedEntry> = Vec::with_capacity(self.retained_entries());
        for e in self.sealed {
            stamped.extend(e.entries);
        }
        stamped.extend(self.current.entries);
        Sketch {
            mechanism: self.core.filter.mechanism(),
            entries: canonical_order(stamped),
            meta,
            checkpoint: Some(Box::new(checkpoint)),
        }
    }
}

impl Observer for RingRecorder {
    fn on_event(&mut self, event: &Event) -> ObserverCharge {
        let (charge, stamped) = self.core.step(event);
        self.current.cost += charge.thread_cost + charge.serial_cost;
        if let Some(stamped) = stamped {
            self.current.entries.push(stamped);
        }
        charge
    }

    fn checkpoint_due(&mut self) -> bool {
        let entries_full = self.config.epoch_entries > 0
            && self.current.entries.len() as u64 >= self.config.epoch_entries;
        let cost_full = self.config.epoch_cost > 0 && self.current.cost >= self.config.epoch_cost;
        entries_full || cost_full
    }

    fn on_checkpoint(&mut self, snapshot: &pres_tvm::snapshot::VmSnapshot) {
        self.rotate(snapshot);
    }
}

/// Everything a recorded production run yields.
#[derive(Debug)]
pub struct RecordedRun {
    /// The sketch (the only artifact that survives to diagnosis time).
    pub sketch: Sketch,
    /// The recorded run's outcome (status, time, stats).
    pub outcome: RunOutcome,
    /// The same workload run natively (no recording), for overhead math.
    pub native: RunOutcome,
    /// Encoded log size in bytes (explicit entries + implicit stream).
    pub log_bytes: u64,
    /// Implicit instruction-stream events recorded (RW/BB/FUNC mechanisms).
    pub implicit_events: u64,
}

impl RecordedRun {
    /// Recording slowdown: recorded makespan / native makespan.
    pub fn slowdown(&self) -> f64 {
        self.outcome.time.slowdown_vs(&self.native.time)
    }

    /// Recording overhead percentage, the paper's headline metric.
    pub fn overhead_pct(&self) -> f64 {
        self.outcome.time.overhead_pct_vs(&self.native.time)
    }

    /// Whether the production run failed (a bug manifested while recording).
    pub fn failed(&self) -> bool {
        self.outcome.status.is_failed()
    }
}

/// Summary row for the overhead/log-size tables.
#[derive(Debug, Clone)]
pub struct RecordingReport {
    /// Program name.
    pub program: String,
    /// Mechanism.
    pub mechanism: Mechanism,
    /// Overhead percentage vs. native.
    pub overhead_pct: f64,
    /// Explicit sketch entry count.
    pub entries: u64,
    /// Encoded log bytes.
    pub log_bytes: u64,
}

impl RecordingReport {
    /// Builds a report row from a recorded run.
    pub fn from_run(run: &RecordedRun) -> Self {
        RecordingReport {
            program: run.sketch.meta.program.clone(),
            mechanism: run.sketch.mechanism,
            overhead_pct: run.overhead_pct(),
            entries: run.sketch.entries.len() as u64,
            log_bytes: run.log_bytes,
        }
    }
}

/// Records one production run of `program` under `mechanism` with the
/// sharded [`SketchRecorder`].
///
/// Runs the workload twice with the identical scheduler seed — once
/// natively, once recorded — so the overhead comparison is exact. The
/// returned [`RecordedRun`] carries both outcomes and the sketch.
pub fn record(
    program: &dyn Program,
    mechanism: Mechanism,
    config: &VmConfig,
    seed: u64,
) -> RecordedRun {
    record_with(
        program,
        config,
        seed,
        SketchRecorder::new(mechanism, config.cost_model.clone()),
    )
}

/// Records one production run into a bounded epoch ring (always-on
/// recording) and flushes the retained window into a checkpoint-bearing
/// sketch — what a production deployment would do on failure. Same
/// native-vs-recorded overhead pipeline as [`record`].
pub fn record_ring(
    program: &dyn Program,
    mechanism: Mechanism,
    ring: RingConfig,
    config: &VmConfig,
    seed: u64,
) -> RecordedRun {
    record_with(
        program,
        config,
        seed,
        RingRecorder::new(mechanism, config.cost_model.clone(), ring),
    )
}

/// Searches production seeds until the bug manifests while ring-recording;
/// returns the failing run with its flushed, checkpoint-bearing sketch.
pub fn record_ring_until_failure(
    program: &dyn Program,
    mechanism: Mechanism,
    ring: RingConfig,
    config: &VmConfig,
    seeds: impl IntoIterator<Item = u64>,
) -> Option<RecordedRun> {
    for seed in seeds {
        let run = record_ring(program, mechanism, ring.clone(), config, seed);
        if run.failed() {
            return Some(run);
        }
    }
    None
}

/// Byte-verifies a flushed checkpoint against its program.
///
/// Re-executes the production prefix — same seed, same recording charges
/// (a [`SketchRecorder`] mirror routes events through the shared
/// `RecorderCore`, so the virtual clock the snapshot embeds is billed
/// identically) — and compares the state snapshot the VM captures at the
/// boundary with the snapshot the checkpoint carries. A mismatch means
/// the sketch does not belong to this program/configuration, and
/// fast-forwarded replay would explore garbage; callers abort the
/// reproduction instead. Genesis checkpoints verify trivially.
///
/// The verification run is cut off at the boundary (the scheduler aborts
/// once the capture is in hand), so its cost is one prefix, not one full
/// production run, and it happens once per reproduction — not per attempt.
/// It runs on `pool` when given one, on the calling thread's pool
/// otherwise.
pub fn verify_checkpoint(
    program: &dyn Program,
    checkpoint: &crate::sketch::SketchCheckpoint,
    mechanism: Mechanism,
    config: &VmConfig,
    pool: Option<&pres_tvm::pool::VthreadPool>,
) -> Result<(), String> {
    if checkpoint.is_genesis() {
        return Ok(());
    }

    /// Counts events, mirrors production recording charges, and grabs the
    /// boundary snapshot's bytes.
    struct SnapshotProbe {
        mirror: SketchRecorder,
        boundary: u64,
        seen: u64,
        captured: Option<Vec<u8>>,
    }

    impl Observer for SnapshotProbe {
        fn on_event(&mut self, event: &Event) -> ObserverCharge {
            self.seen += 1;
            self.mirror.on_event(event)
        }

        fn checkpoint_due(&mut self) -> bool {
            self.seen == self.boundary
        }

        fn on_checkpoint(&mut self, snapshot: &pres_tvm::snapshot::VmSnapshot) {
            self.captured = Some(snapshot.encode());
        }
    }

    /// The production scheduler, cut off one pick past the boundary — by
    /// then the capture hook has fired, and the rest of the run is not
    /// needed for verification.
    struct BoundedScheduler {
        inner: RandomScheduler,
        picks_left: u64,
    }

    impl pres_tvm::sched::Scheduler for BoundedScheduler {
        fn pick(
            &mut self,
            view: &pres_tvm::sched::SchedView<'_>,
        ) -> pres_tvm::sched::Decision {
            if self.picks_left == 0 {
                return pres_tvm::sched::Decision::Abort(
                    "checkpoint boundary verified".to_string(),
                );
            }
            self.picks_left -= 1;
            self.inner.pick(view)
        }
    }

    let mut probe = SnapshotProbe {
        mirror: SketchRecorder::new(mechanism, config.cost_model.clone()),
        boundary: checkpoint.boundary,
        seen: 0,
        captured: None,
    };
    let mut sched = BoundedScheduler {
        inner: RandomScheduler::new(checkpoint.production_seed),
        picks_left: checkpoint.boundary,
    };
    let mut cfg = config.clone();
    cfg.trace_mode = TraceMode::Off;
    cfg.world = program.world();
    let body = program.root();
    match pool {
        Some(pool) => vm::run_with_pool(
            cfg,
            program.resources(),
            &mut sched,
            &mut probe,
            pool,
            move |ctx| body(ctx),
        ),
        None => vm::run(
            cfg,
            program.resources(),
            &mut sched,
            &mut probe,
            move |ctx| body(ctx),
        ),
    };
    match probe.captured {
        None => Err(format!(
            "program ended after {} events, before the checkpoint boundary {}",
            probe.seen, checkpoint.boundary
        )),
        Some(bytes) if bytes == checkpoint.snapshot => Ok(()),
        Some(_) => Err(format!(
            "snapshot mismatch at boundary {}: the sketch was not recorded \
             from this program/configuration",
            checkpoint.boundary
        )),
    }
}

fn record_with<R: RecordingObserver>(
    program: &dyn Program,
    config: &VmConfig,
    seed: u64,
    mut recorder: R,
) -> RecordedRun {
    let native = run_once(program, config, seed, &mut NullObserver, TraceMode::Off);
    let outcome = run_once(program, config, seed, &mut recorder, TraceMode::Off);
    debug_assert_eq!(
        native.schedule, outcome.schedule,
        "recording must not perturb scheduling"
    );
    let log_bytes = recorder.bytes();
    let implicit_events = recorder.implicit_events();
    let meta = SketchMeta {
        program: program.name(),
        seed,
        processors: config.processors,
        total_ops: outcome.stats.total_ops,
        failure_signature: outcome
            .status
            .failure()
            .map(|f| f.signature())
            .unwrap_or_default(),
    };
    let sketch = recorder.finish(meta);
    RecordedRun {
        sketch,
        outcome,
        native,
        log_bytes,
        implicit_events,
    }
}

/// Searches production seeds until the bug manifests while recording;
/// returns the failing recorded run. This models the paper's setting: the
/// production run that exhibited the failure is the one whose sketch is
/// replayed.
pub fn record_until_failure(
    program: &dyn Program,
    mechanism: Mechanism,
    config: &VmConfig,
    seeds: impl IntoIterator<Item = u64>,
) -> Option<RecordedRun> {
    for seed in seeds {
        let run = record(program, mechanism, config, seed);
        if run.failed() {
            return Some(run);
        }
    }
    None
}

fn run_once(
    program: &dyn Program,
    config: &VmConfig,
    seed: u64,
    observer: &mut dyn Observer,
    trace_mode: TraceMode,
) -> RunOutcome {
    let mut cfg = config.clone();
    cfg.trace_mode = trace_mode;
    cfg.world = program.world();
    let body = program.root();
    vm::run(
        cfg,
        program.resources(),
        &mut RandomScheduler::new(seed),
        observer,
        move |ctx| body(ctx),
    )
}

/// Runs the program once with full tracing and no recording — used by
/// tests and the replayer's ground-truth comparisons.
pub fn run_traced(program: &dyn Program, config: &VmConfig, seed: u64) -> RunOutcome {
    run_once(
        program,
        config,
        seed,
        &mut NullObserver,
        TraceMode::Full,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::ClosureProgram;
    use pres_tvm::prelude::*;

    fn compute_heavy_program() -> impl Program {
        let mut spec = ResourceSpec::new();
        let x = spec.var("x", 0);
        let m = spec.lock("m");
        ClosureProgram::new("compute-heavy", spec, WorldConfig::default(), move || {
            Box::new(move |ctx: &mut Ctx| {
                let kids: Vec<ThreadId> = (0..3)
                    .map(|i| {
                        ctx.spawn(&format!("w{i}"), move |ctx| {
                            for b in 0..40u32 {
                                ctx.bb(b);
                                // Lots of unshared work, a few shared accesses,
                                // rare sync: the scientific-app profile.
                                ctx.compute(200);
                                let v = ctx.read(x);
                                ctx.write(x, v + 1);
                                if b % 20 == 0 {
                                    ctx.with_lock(m, |ctx| {
                                        let v = ctx.read(x);
                                        ctx.write(x, v);
                                    });
                                }
                            }
                        })
                    })
                    .collect();
                for k in kids {
                    ctx.join(k);
                }
            })
        })
    }

    /// Many threads, marker-dense loops: the profile where claiming a
    /// global slot per marker would make the serialized section the
    /// makespan floor.
    fn marker_heavy_program() -> impl Program {
        let mut spec = ResourceSpec::new();
        let x = spec.var("x", 0);
        ClosureProgram::new("marker-heavy", spec, WorldConfig::default(), move || {
            Box::new(move |ctx: &mut Ctx| {
                let kids: Vec<ThreadId> = (0..8)
                    .map(|i| {
                        ctx.spawn(&format!("w{i}"), move |ctx| {
                            for b in 0..400u32 {
                                ctx.func(b % 16);
                                ctx.bb(b);
                                ctx.compute(4);
                            }
                            let v = ctx.read(x);
                            ctx.write(x, v + 1);
                        })
                    })
                    .collect();
                for k in kids {
                    ctx.join(k);
                }
            })
        })
    }

    #[test]
    fn recording_does_not_perturb_the_schedule() {
        let prog = compute_heavy_program();
        let run = record(&prog, Mechanism::Rw, &VmConfig::default(), 3);
        assert_eq!(run.native.schedule, run.outcome.schedule);
        // `os_spawns` counts pool growth, not execution: the native run
        // warms the thread's pool for the recorded one.
        assert_eq!(
            RunStats {
                os_spawns: 0,
                ..run.native.stats
            },
            RunStats {
                os_spawns: 0,
                ..run.outcome.stats
            }
        );
    }

    #[test]
    fn overhead_ordering_matches_the_paper() {
        let prog = compute_heavy_program();
        let config = VmConfig {
            processors: 8,
            ..VmConfig::default()
        };
        let overhead = |m: Mechanism| record(&prog, m, &config, 7).overhead_pct();
        let rw = overhead(Mechanism::Rw);
        let bb = overhead(Mechanism::Bb);
        let sync = overhead(Mechanism::Sync);
        let sys = overhead(Mechanism::Sys);
        assert!(rw > bb, "RW {rw} must exceed BB {bb}");
        assert!(bb >= sync, "BB {bb} must be at least SYNC {sync}");
        assert!(rw > 10.0 * sync.max(0.01), "RW {rw} vs SYNC {sync}: order-of-magnitude gap");
        assert!(sys <= bb);
    }

    #[test]
    fn sync_log_is_much_smaller_than_rw_log() {
        let prog = compute_heavy_program();
        let config = VmConfig::default();
        let rw = record(&prog, Mechanism::Rw, &config, 7);
        let sync = record(&prog, Mechanism::Sync, &config, 7);
        assert!(rw.log_bytes > 5 * sync.log_bytes);
        assert_eq!(rw.sketch.meta.program, "compute-heavy");
    }

    /// What the sharded charge model bills one recorded run, beyond its
    /// native twin: `(slot-claiming entries, thread-local work, serialized
    /// work, log bytes)`, derived from the sketch alone.
    fn model_charges(run: &RecordedRun, cost: &CostModel) -> (u64, u64, u64, u64) {
        let entries = &run.sketch.entries;
        let slots = entries.iter().filter(|e| e.op.claims_global_slot()).count() as u64;
        let payload: u64 = entries.iter().map(codec::entry_size).sum();
        let implicit = run.implicit_events;
        let implicit_serial = if run.sketch.mechanism == Mechanism::Rw {
            implicit * cost.implicit_serial
        } else {
            0
        };
        let local = entries.len() as u64 * cost.record_event
            + payload * cost.record_per_byte
            + implicit * cost.implicit_record;
        let serial = slots * cost.record_serial + implicit_serial;
        (slots, local, serial, payload + implicit * cost.implicit_bytes)
    }

    #[test]
    fn recorded_charges_and_bytes_follow_the_sharded_model() {
        // Every unit of work and serialized time the recorded run adds over
        // the native run, and every log byte, is accounted for by the
        // sketch's own entries and implicit stream.
        let prog = compute_heavy_program();
        let config = VmConfig::default();
        for m in Mechanism::all() {
            let run = record(&prog, m, &config, 7);
            let (_, local, serial, bytes) = model_charges(&run, &config.cost_model);
            let (rec, nat) = (&run.outcome.time, &run.native.time);
            assert_eq!(rec.serial - nat.serial, serial, "{m}: serialized charge");
            assert_eq!(rec.work - nat.work, local + serial, "{m}: total charge");
            assert_eq!(run.log_bytes, bytes, "{m}: log bytes");
            let encoded = crate::codec::encode_sketch(&run.sketch);
            assert_eq!(crate::codec::decode_sketch(&encoded).unwrap(), run.sketch, "{m}");
        }
    }

    #[test]
    fn sharding_removes_marker_serialization_cost() {
        let prog = marker_heavy_program();
        let config = VmConfig {
            processors: 8,
            ..VmConfig::default()
        };
        let cost = &config.cost_model;
        // Marker mechanisms: thread-local markers add no serialized charge,
        // so the serialized section is well below a log that serializes
        // every append.
        for m in [Mechanism::Func, Mechanism::Bb, Mechanism::BbN(4)] {
            let run = record(&prog, m, &config, 7);
            let (slots, _, serial, _) = model_charges(&run, cost);
            let entries = run.sketch.entries.len() as u64;
            assert!(entries > slots, "{m}: the sketch must hold markers");
            assert_eq!(run.outcome.time.serial - run.native.time.serial, serial, "{m}");
            assert!(serial < entries * cost.record_serial, "{m}");
        }
        // SYNC and SYS record nothing thread-local: every entry claims a
        // slot, and the recorded makespan is the native run plus exactly the
        // model's slot charges.
        for m in [Mechanism::Sync, Mechanism::Sys] {
            let run = record(&prog, m, &config, 7);
            let (slots, local, serial, _) = model_charges(&run, cost);
            assert_eq!(slots, run.sketch.entries.len() as u64, "{m}");
            let (rec, nat) = (&run.outcome.time, &run.native.time);
            assert_eq!(rec.serial, nat.serial + serial, "{m}");
            assert_eq!(rec.work, nat.work + local + serial, "{m}");
            let area = rec.work.div_ceil(u64::from(config.processors));
            assert_eq!(rec.makespan, area.max(rec.span).max(rec.serial), "{m}");
        }
        // RW still serializes its implicit accesses.
        let rw = record(&prog, Mechanism::Rw, &config, 7);
        let (slots, _, serial, _) = model_charges(&rw, cost);
        assert!(serial > slots * cost.record_serial);
        assert_eq!(rw.outcome.time.serial - rw.native.time.serial, serial);
    }

    #[test]
    fn serialized_slots_count_only_slot_claiming_entries() {
        let prog = compute_heavy_program();
        let config = VmConfig::default();
        let mut recorder = SketchRecorder::new(Mechanism::Bb, config.cost_model.clone());
        let outcome = run_once(&prog, &config, 3, &mut recorder, TraceMode::Off);
        assert!(!outcome.status.is_failed());
        let slots = recorder.serialized_slots();
        let sketch = recorder.finish(SketchMeta::default());
        let serial = sketch
            .entries
            .iter()
            .filter(|e| e.op.claims_global_slot())
            .count() as u64;
        let markers = sketch.entries.len() as u64 - serial;
        assert_eq!(slots, serial);
        assert!(markers > 0, "BB sketch must contain thread-local markers");
    }

    #[test]
    fn recorder_matches_offline_filtering() {
        let prog = compute_heavy_program();
        let config = VmConfig::default();
        let traced = run_traced(&prog, &config, 11);
        for m in Mechanism::all() {
            let online = record(&prog, m, &config, 11).sketch;
            let offline = Sketch::from_events(m, traced.trace.events());
            assert_eq!(online.entries, offline.entries, "mechanism {m}");
        }
    }

    #[test]
    fn record_until_failure_finds_a_failing_seed() {
        let mut spec = ResourceSpec::new();
        let x = spec.var("x", 0);
        let prog = ClosureProgram::new("racy", spec, WorldConfig::default(), move || {
            Box::new(move |ctx: &mut Ctx| {
                let t = ctx.spawn("w", move |ctx| {
                    let v = ctx.read(x);
                    ctx.compute(20);
                    ctx.write(x, v + 1);
                });
                let v = ctx.read(x);
                ctx.compute(20);
                ctx.write(x, v + 1);
                ctx.join(t);
                let total = ctx.read(x);
                ctx.check(total == 2, "lost update");
            })
        });
        let config = VmConfig {
            processors: 4,
            ..VmConfig::default()
        };
        let found = record_until_failure(&prog, Mechanism::Sync, &config, 0..200);
        let run = found.expect("some seed must lose an update");
        assert!(run.failed());
        assert_eq!(run.sketch.meta.failure_signature, "assert:lost update");
    }

    /// Serial (slot-claiming) ops of a sketch, for window/suffix checks.
    fn serial_ops(s: &Sketch) -> Vec<&SketchEntry> {
        s.entries
            .iter()
            .filter(|e| e.op.claims_global_slot())
            .collect()
    }

    #[test]
    fn ring_with_full_retention_matches_classic_sketch() {
        // A ring wide enough to never evict must flush the classic
        // sketch's entries exactly, under a genesis checkpoint — Pin A's
        // foundation.
        let prog = compute_heavy_program();
        let config = VmConfig::default();
        for m in Mechanism::all() {
            let classic = record(&prog, m, &config, 7);
            let ring = record_ring(
                &prog,
                m,
                RingConfig {
                    epoch_entries: 16,
                    epoch_cost: 0,
                    ring_epochs: 100_000,
                },
                &config,
                7,
            );
            let cp = ring.sketch.checkpoint.as_deref().expect("ring flush bears a checkpoint");
            assert!(cp.is_genesis(), "{m}: nothing evicted, checkpoint must be genesis");
            assert_eq!(cp.dropped_epochs, 0);
            assert_eq!(cp.dropped_entries, 0);
            assert!(cp.snapshot.is_empty());
            assert!(cp.bbn_counters.is_empty());
            assert_eq!(classic.sketch.entries, ring.sketch.entries, "{m}");
            assert_eq!(classic.sketch.meta, ring.sketch.meta, "{m}");
            assert_eq!(cp.retained_entries(), ring.sketch.entries.len() as u64);
        }
    }

    #[test]
    fn ring_charges_exactly_like_the_classic_recorder() {
        // Charge parity: ring recording must bill the virtual clock the
        // way production recording does, whatever the budgets — the
        // checkpoint snapshots embed the clock, so verification depends
        // on it.
        let prog = marker_heavy_program();
        let config = VmConfig {
            processors: 8,
            ..VmConfig::default()
        };
        for m in Mechanism::all() {
            let classic = record(&prog, m, &config, 9);
            let ring = record_ring(&prog, m, RingConfig::default(), &config, 9);
            assert_eq!(classic.outcome.schedule, ring.outcome.schedule, "{m}");
            assert_eq!(
                classic.outcome.time.makespan, ring.outcome.time.makespan,
                "{m}: ring charges diverged from production recording"
            );
            assert_eq!(classic.log_bytes, ring.log_bytes, "{m}");
            assert_eq!(classic.implicit_events, ring.implicit_events, "{m}");
        }
    }

    #[test]
    fn rotated_ring_flushes_the_retained_suffix() {
        let prog = marker_heavy_program();
        let config = VmConfig::default();
        let ring_cfg = RingConfig {
            epoch_entries: 300,
            epoch_cost: 0,
            ring_epochs: 3,
        };
        let classic = record(&prog, Mechanism::Bb, &config, 5);
        let ring = record_ring(&prog, Mechanism::Bb, ring_cfg, &config, 5);
        let cp = ring.sketch.checkpoint.as_deref().expect("checkpoint");
        assert!(cp.dropped_epochs > 0, "budgets must force eviction here");
        assert!(cp.boundary > 0);
        assert_eq!(
            cp.dropped_entries + ring.sketch.entries.len() as u64,
            classic.sketch.entries.len() as u64,
            "dropped + retained must cover the classic log"
        );
        // The epoch directory is contiguous and covers the window.
        for (a, b) in cp.epochs.iter().zip(cp.epochs.iter().skip(1)) {
            assert_eq!(a.index + 1, b.index);
            assert!(a.start_picks <= b.start_picks);
        }
        assert_eq!(cp.epochs.first().expect("nonempty").start_picks, cp.boundary);
        assert_eq!(cp.retained_entries(), ring.sketch.entries.len() as u64);
        // The boundary snapshot is a decodable VM snapshot at the boundary.
        let snap = pres_tvm::snapshot::VmSnapshot::decode(&cp.snapshot).expect("valid snapshot");
        assert_eq!(snap.picks(), cp.boundary);
        // Slot-claiming entries have unique ascending buckets, so the
        // retained window's serial backbone is exactly a suffix of the
        // classic log's.
        let classic_serial = serial_ops(&classic.sketch);
        let ring_serial = serial_ops(&ring.sketch);
        assert!(!ring_serial.is_empty());
        assert_eq!(
            &classic_serial[classic_serial.len() - ring_serial.len()..],
            &ring_serial[..],
            "retained serial entries must be the classic log's suffix"
        );
    }

    #[test]
    fn ring_memory_stays_bounded_throughout_the_run() {
        // Wrap the ring recorder in an observer that checks the retention
        // invariant after every single event — not just at flush time.
        struct BoundsChecked {
            inner: RingRecorder,
            cap_epochs: usize,
            cap_entries: usize,
        }
        impl Observer for BoundsChecked {
            fn on_event(&mut self, event: &Event) -> ObserverCharge {
                let charge = self.inner.on_event(event);
                assert!(self.inner.retained_epochs() <= self.cap_epochs);
                assert!(self.inner.retained_entries() <= self.cap_entries);
                charge
            }
            fn checkpoint_due(&mut self) -> bool {
                self.inner.checkpoint_due()
            }
            fn on_checkpoint(&mut self, snapshot: &pres_tvm::snapshot::VmSnapshot) {
                self.inner.on_checkpoint(snapshot);
            }
        }
        let prog = marker_heavy_program();
        let config = VmConfig::default();
        let (k, budget) = (2usize, 100u64);
        let mut obs = BoundsChecked {
            inner: RingRecorder::new(
                Mechanism::Bb,
                config.cost_model.clone(),
                RingConfig {
                    epoch_entries: budget,
                    epoch_cost: 0,
                    ring_epochs: k,
                },
            ),
            cap_epochs: k,
            cap_entries: k * budget as usize,
        };
        let outcome = run_once(&prog, &config, 3, &mut obs, TraceMode::Off);
        assert!(!outcome.status.is_failed());
        assert!(obs.inner.dropped_epochs() > 0, "run must overflow a 2-epoch ring");
        let sketch = obs.inner.finish(SketchMeta::default());
        assert!(sketch.entries.len() <= k * budget as usize);
    }

    #[test]
    fn cost_budget_cuts_epochs_too() {
        let prog = compute_heavy_program();
        let config = VmConfig::default();
        let ring = record_ring(
            &prog,
            Mechanism::Rw,
            RingConfig {
                epoch_entries: 0,
                epoch_cost: 2_000,
                ring_epochs: 2,
            },
            &config,
            7,
        );
        let cp = ring.sketch.checkpoint.as_deref().expect("checkpoint");
        assert!(
            cp.dropped_epochs > 0 || cp.epochs.len() > 1,
            "cost budget must have sealed at least one epoch"
        );
    }

    #[test]
    fn disabled_budgets_never_rotate() {
        let prog = compute_heavy_program();
        let config = VmConfig::default();
        let ring = record_ring(
            &prog,
            Mechanism::Sync,
            RingConfig {
                epoch_entries: 0,
                epoch_cost: 0,
                ring_epochs: 1,
            },
            &config,
            7,
        );
        let cp = ring.sketch.checkpoint.as_deref().expect("checkpoint");
        assert!(cp.is_genesis());
        assert_eq!(cp.epochs.len(), 1);
        let classic = record(&prog, Mechanism::Sync, &config, 7);
        assert_eq!(classic.sketch.entries, ring.sketch.entries);
    }

    #[test]
    fn bbn_counters_travel_with_the_checkpoint() {
        let prog = marker_heavy_program();
        let config = VmConfig::default();
        let ring = record_ring(
            &prog,
            Mechanism::BbN(4),
            RingConfig {
                epoch_entries: 64,
                epoch_cost: 0,
                ring_epochs: 2,
            },
            &config,
            5,
        );
        let cp = ring.sketch.checkpoint.as_deref().expect("checkpoint");
        assert!(cp.boundary > 0, "marker-heavy run must rotate a 2x64 ring");
        assert!(
            cp.bbn_counters.iter().any(|&c| c > 0),
            "BB-N sampling counters must be snapshotted at the boundary"
        );
    }

    #[test]
    fn ring_flush_round_trips_through_the_codec() {
        let prog = marker_heavy_program();
        let config = VmConfig::default();
        let ring = record_ring(
            &prog,
            Mechanism::Bb,
            RingConfig {
                epoch_entries: 300,
                epoch_cost: 0,
                ring_epochs: 3,
            },
            &config,
            5,
        );
        assert!(ring.sketch.checkpoint.is_some());
        let encoded = crate::codec::encode_sketch(&ring.sketch);
        assert_eq!(crate::codec::layout(&encoded).unwrap().version, 3);
        let decoded = crate::codec::decode_sketch(&encoded).unwrap();
        assert_eq!(decoded, ring.sketch);
    }

    #[test]
    fn record_ring_until_failure_flushes_on_the_failing_seed() {
        let mut spec = ResourceSpec::new();
        let x = spec.var("x", 0);
        let prog = ClosureProgram::new("racy", spec, WorldConfig::default(), move || {
            Box::new(move |ctx: &mut Ctx| {
                let t = ctx.spawn("w", move |ctx| {
                    let v = ctx.read(x);
                    ctx.compute(20);
                    ctx.write(x, v + 1);
                });
                let v = ctx.read(x);
                ctx.compute(20);
                ctx.write(x, v + 1);
                ctx.join(t);
                let total = ctx.read(x);
                ctx.check(total == 2, "lost update");
            })
        });
        let config = VmConfig {
            processors: 4,
            ..VmConfig::default()
        };
        let found =
            record_ring_until_failure(&prog, Mechanism::Sync, RingConfig::default(), &config, 0..200);
        let run = found.expect("some seed must lose an update");
        assert!(run.failed());
        assert_eq!(run.sketch.meta.failure_signature, "assert:lost update");
        assert!(run.sketch.checkpoint.is_some());
    }

    #[test]
    fn bug_free_run_has_empty_signature() {
        let prog = compute_heavy_program();
        let run = record(&prog, Mechanism::Sync, &VmConfig::default(), 1);
        assert!(!run.failed());
        assert!(run.sketch.meta.failure_signature.is_empty());
    }
}
