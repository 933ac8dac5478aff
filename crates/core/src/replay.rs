//! The partial-information replayer (PI-replay).
//!
//! Given a sketch, the replay scheduler enforces the recorded global order
//! over sketch-relevant operations while leaving everything the sketch did
//! not record — the interleaving of racing memory accesses and, under
//! coarse sketches, of synchronization — to an exploration policy:
//!
//! * a thread whose announced operation *is* sketch-relevant runs only when
//!   it is the next entry of the recorded order (otherwise it stalls);
//! * a thread whose announced relevant operation does not match its own
//!   next recorded entry has **diverged** — the run has left the recorded
//!   path, so enforcement is dropped and the attempt plays out free, for
//!   the failure oracle to judge ([`PiReplayScheduler::relaxed_at`] marks
//!   the step);
//! * unrecorded operations are scheduled freely, subject to the *flip
//!   constraints* installed by the feedback engine: "thread A's i-th action
//!   on object O must wait until thread B's j-th action on O has executed".
//!
//! Once the sketch is exhausted (replay has reached the end of the recorded
//! prefix), all ordering is free — the failure typically manifests at or
//! near this frontier, since production recording stopped at the failure.
//!
//! The replayer consumes the sketch in its **canonical order** — the
//! order the sharded recorder's deterministic merge produces (see
//! `sketch::canonical_order` and DESIGN.md §3.2.2). Thread-local marker
//! entries (FUNC/BB) sit at the same positions a single global log would
//! have given them, so replay semantics are recorder-independent.

use crate::sketch::{MechanismFilter, Sketch, SketchIndex, SketchOp};
use pres_tvm::ids::ThreadId;
use pres_tvm::op::{MemLoc, Op};
use pres_tvm::sched::{Decision, SchedView, Scheduler};

use pres_tvm::rng::ChaCha8Rng;
use pres_tvm::sched::RandomScheduler;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// The object an order constraint talks about.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ActionObj {
    /// A shared-memory location.
    Mem(MemLoc),
    /// A mutex (raw lock id) — lock-acquire interleavings are explorable
    /// too, which is how deadlocks are reproduced under sketches that do
    /// not record synchronization.
    Lock(u32),
}

impl ActionObj {
    /// The constrained object of an operation, if any.
    pub fn of_op(op: &Op) -> Option<ActionObj> {
        if let Some(loc) = op.mem_location() {
            return Some(ActionObj::Mem(loc));
        }
        if let Op::LockAcquire(l) = op {
            return Some(ActionObj::Lock(l.0));
        }
        None
    }
}

impl fmt::Display for ActionObj {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ActionObj::Mem(loc) => write!(f, "{loc}"),
            ActionObj::Lock(l) => write!(f, "m{l}"),
        }
    }
}

/// One side of an order constraint: the `index`-th action of `tid` on `obj`
/// (indices count that thread's accesses/acquires of that object, from 0).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct ActionKey {
    /// The acting thread.
    pub tid: ThreadId,
    /// The object.
    pub obj: ActionObj,
    /// Per-(thread, object) occurrence index.
    pub index: u32,
}

impl fmt::Display for ActionKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}#{}@{}", self.tid, self.index, self.obj)
    }
}

/// A feedback flip: `before` must execute before `after` may run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct OrderConstraint {
    /// Must happen first.
    pub before: ActionKey,
    /// Held back until then.
    pub after: ActionKey,
}

impl fmt::Display for OrderConstraint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} < {}", self.before, self.after)
    }
}

/// Why a replay attempt was aborted. A thread that leaves the recorded
/// path never aborts the attempt: enforcement relaxes instead (see
/// [`PiReplayScheduler::relaxed_at`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Divergence {
    /// Every enabled thread is stalled by sketch order or flip constraints.
    Stuck {
        /// Global sketch cursor at detection.
        cursor: usize,
    },
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Divergence::Stuck { cursor } => {
                write!(f, "replay stuck at sketch cursor {cursor}: all enabled threads stalled")
            }
        }
    }
}

/// The sketch-constrained exploration scheduler.
pub struct PiReplayScheduler {
    /// The shared, immutable sketch index (per-thread recorded order +
    /// op dictionary). Built once per reproduction and borrowed by every
    /// attempt on every worker; only the cursors below are per-attempt.
    index: Arc<SketchIndex>,
    filter: MechanismFilter,
    cursor: usize,
    /// Per-slot progress through the index's thread columns —
    /// `thread_pos[s]` entries of the thread in slot `s` have been
    /// consumed. One slot per thread *present* in the sketch.
    thread_pos: Vec<usize>,
    constraints: Vec<OrderConstraint>,
    satisfied: Vec<bool>,
    counters: BTreeMap<(ThreadId, ActionObj), u32>,
    rng: ChaCha8Rng,
    /// Whether the sketch order is still being enforced. Replay is
    /// best-effort, as in the paper: the sketch steers execution along the
    /// recorded path, but the moment the run leaves that path — content
    /// divergence, or a stall that would wedge a pending flip constraint —
    /// enforcement is dropped and the run continues free; the failure
    /// oracle, not the sketch, decides whether the attempt succeeded.
    enforcing: bool,
    relaxed_at: Option<u64>,
}

impl PiReplayScheduler {
    /// Builds a replay scheduler for `sketch` with the given flip
    /// constraints and exploration seed. Convenience wrapper over
    /// [`PiReplayScheduler::with_index`] for one-off replays; loops that
    /// run many attempts against one sketch should build the
    /// [`SketchIndex`] once and share it.
    pub fn new(sketch: &Sketch, constraints: Vec<OrderConstraint>, seed: u64) -> Self {
        Self::with_index(Arc::new(SketchIndex::new(sketch)), constraints, seed)
    }

    /// Builds a replay scheduler over a pre-built, shared sketch index.
    /// The scheduler's per-attempt state is just cursors and constraint
    /// bookkeeping; the index itself is never copied.
    pub fn with_index(
        index: Arc<SketchIndex>,
        constraints: Vec<OrderConstraint>,
        seed: u64,
    ) -> Self {
        let satisfied = vec![false; constraints.len()];
        // A checkpoint-bearing index describes only the retained window:
        // its entries start at the boundary, and the BB-N sampling counters
        // must resume from the recorded mid-run state or every Nth-marker
        // decision after the boundary would disagree with production.
        let filter = match index.checkpoint() {
            Some(cp) => MechanismFilter::with_counters(index.mechanism(), cp.bbn_counters.clone()),
            None => MechanismFilter::new(index.mechanism()),
        };
        PiReplayScheduler {
            filter,
            thread_pos: vec![0; index.threads()],
            index,
            cursor: 0,
            constraints,
            satisfied,
            counters: BTreeMap::new(),
            rng: ChaCha8Rng::seed_from_u64(seed),
            enforcing: true,
            relaxed_at: None,
        }
    }

    /// The step at which sketch enforcement was relaxed, if it was.
    pub fn relaxed_at(&self) -> Option<u64> {
        self.relaxed_at
    }

    /// How much of the sketch has been consumed (0..=1).
    pub fn progress(&self) -> f64 {
        if self.index.is_empty() {
            1.0
        } else {
            self.cursor as f64 / self.index.len() as f64
        }
    }

    /// Whether the full recorded prefix has been replayed.
    pub fn sketch_exhausted(&self) -> bool {
        self.cursor >= self.index.len()
    }

    /// The next unconsumed sketch entry of `tid`, if any: its slot, its
    /// global position, and its op.
    fn thread_front(&self, tid: ThreadId) -> Option<(usize, usize, &SketchOp)> {
        let slot = self.index.slot(tid)?;
        let (position, op) = self.index.front(slot, self.thread_pos[slot])?;
        Some((slot, position, op))
    }

    fn counter(&self, tid: ThreadId, obj: ActionObj) -> u32 {
        self.counters.get(&(tid, obj)).copied().unwrap_or(0)
    }

    /// Whether running this op now would violate a pending flip constraint.
    fn constraint_blocked(&self, tid: ThreadId, op: &Op) -> bool {
        let Some(obj) = ActionObj::of_op(op) else {
            return false;
        };
        let key = ActionKey {
            tid,
            obj,
            index: self.counter(tid, obj),
        };
        self.constraints
            .iter()
            .zip(&self.satisfied)
            .any(|(c, sat)| !sat && c.after == key)
    }

    /// Classification of one enabled candidate.
    fn classify(&self, tid: ThreadId, op: &Op) -> CandidateClass {
        if self.constraint_blocked(tid, op) {
            return CandidateClass::StalledByFlip;
        }
        if !self.enforcing || !self.filter.would_record(tid, op) {
            return CandidateClass::Free;
        }
        let Some(normalized) = SketchOp::from_op(op) else {
            return CandidateClass::Free; // Fail op: always schedulable
        };
        let Some((_, front, expected)) = self.thread_front(tid) else {
            // This thread has no recorded entries left. Production
            // recording stopped at the failure, so anything past a
            // thread's recorded prefix either blocked or never ran before
            // the failure point: hold it back until the whole sketch is
            // consumed, then run free.
            return if self.sketch_exhausted() {
                CandidateClass::Free
            } else {
                CandidateClass::StalledBySketch
            };
        };
        if *expected != normalized {
            return CandidateClass::Diverged;
        }
        if front == self.cursor {
            CandidateClass::Free
        } else {
            CandidateClass::StalledBySketch
        }
    }
}

enum CandidateClass {
    Free,
    StalledBySketch,
    StalledByFlip,
    Diverged,
}

impl Scheduler for PiReplayScheduler {
    fn pick(&mut self, view: &SchedView<'_>) -> Decision {
        let mut allowed: Vec<ThreadId> = Vec::new();
        let mut sketch_stalled: Vec<ThreadId> = Vec::new();
        for cand in view.enabled {
            match self.classify(cand.tid, &cand.op) {
                CandidateClass::Free => allowed.push(cand.tid),
                CandidateClass::StalledBySketch => sketch_stalled.push(cand.tid),
                CandidateClass::StalledByFlip => {}
                CandidateClass::Diverged => {
                    // The execution left the recorded path (a flip did its
                    // job, or the unrecorded nondeterminism resolved
                    // differently): stop enforcing the sketch and let the
                    // run play out.
                    self.enforcing = false;
                    self.relaxed_at = Some(view.step);
                    return self.pick(view);
                }
            }
        }

        if allowed.is_empty() {
            if self.enforcing && !sketch_stalled.is_empty() {
                // The sketch order wedges progress: relax it.
                self.enforcing = false;
                self.relaxed_at = Some(view.step);
                allowed = sketch_stalled;
            } else {
                return Decision::Abort(
                    Divergence::Stuck { cursor: self.cursor }.to_string(),
                );
            }
        }
        let idx = self.rng.gen_range(0..allowed.len());
        Decision::Run(allowed[idx])
    }

    fn on_applied(&mut self, tid: ThreadId, op: &Op) {
        // Advance the sketch cursor if this was the expected entry.
        let relevant = self.filter.would_record(tid, op) && SketchOp::from_op(op).is_some();
        self.filter.note_executed(tid, op);
        if relevant {
            if let Some((slot, front, _)) = self.thread_front(tid) {
                if front == self.cursor {
                    self.thread_pos[slot] += 1;
                    self.cursor += 1;
                }
                // `front != cursor` can only mean the thread is past its
                // recorded prefix in a region the filter still matches —
                // impossible by construction (pick stalls it), except
                // when its list drained: handled by thread_front's None.
            }
        }
        // Advance action counters and mark satisfied constraints.
        if let Some(obj) = ActionObj::of_op(op) {
            let key = ActionKey {
                tid,
                obj,
                index: self.counter(tid, obj),
            };
            for (i, c) in self.constraints.iter().enumerate() {
                if c.before == key {
                    self.satisfied[i] = true;
                }
            }
            *self.counters.entry((tid, obj)).or_insert(0) += 1;
        }
    }
}

/// Replay-from-checkpoint: fast-forwards an attempt through the
/// unretained prefix, then hands control to the sketch-constrained
/// explorer at the checkpoint boundary.
///
/// A ring-flushed sketch covers only the retained window; everything
/// before its checkpoint boundary was evicted. The VM is deterministic
/// given a pick sequence, so the prefix needs no log at all: replaying
/// the production run's own scheduler (reconstructed from the recorded
/// seed) for exactly `boundary` picks re-derives the checkpointed state —
/// re-execution *is* restoration, and the embedded snapshot serves as the
/// integrity witness (see [`crate::recorder::verify_checkpoint`]) rather
/// than as the restore source.
///
/// During the prefix the wrapped [`PiReplayScheduler`] is completely
/// inert: its `on_applied` is suppressed, so its sketch cursor, flip
/// bookkeeping, and per-(thread, object) action counters all start
/// counting at the boundary — the same origin the retained entries and
/// the feedback extractor's candidates use. A checkpoint-free index has
/// boundary 0 and delegates from the first pick, so every classic replay
/// is just the degenerate case of this scheduler.
pub struct FastForwardScheduler {
    /// The production scheduler, reconstructed from the recorded seed;
    /// owns every pick before the boundary.
    production: RandomScheduler,
    /// Picks before this boundary fast-forward; picks at or after it
    /// explore.
    boundary: u64,
    /// Events applied so far.
    applied: u64,
    inner: PiReplayScheduler,
}

impl FastForwardScheduler {
    /// Builds the fast-forwarding explorer over a shared sketch index. The
    /// boundary and production seed come from the index's checkpoint;
    /// without one the scheduler is exactly a [`PiReplayScheduler`].
    pub fn with_index(
        index: Arc<SketchIndex>,
        constraints: Vec<OrderConstraint>,
        seed: u64,
    ) -> Self {
        let (boundary, production_seed) = index
            .checkpoint()
            .map(|cp| (cp.boundary, cp.production_seed))
            .unwrap_or((0, 0));
        FastForwardScheduler {
            production: RandomScheduler::new(production_seed),
            boundary,
            applied: 0,
            inner: PiReplayScheduler::with_index(index, constraints, seed),
        }
    }

    /// The checkpoint boundary in picks (0 for classic sketches).
    pub fn boundary(&self) -> u64 {
        self.boundary
    }

    /// The step at which sketch enforcement was relaxed, if it was.
    pub fn relaxed_at(&self) -> Option<u64> {
        self.inner.relaxed_at()
    }

    /// Whether the full retained window has been replayed.
    pub fn sketch_exhausted(&self) -> bool {
        self.inner.sketch_exhausted()
    }
}

impl Scheduler for FastForwardScheduler {
    fn pick(&mut self, view: &SchedView<'_>) -> Decision {
        if self.applied < self.boundary {
            self.production.pick(view)
        } else {
            self.inner.pick(view)
        }
    }

    fn on_applied(&mut self, tid: ThreadId, op: &Op) {
        if self.applied < self.boundary {
            self.production.on_applied(tid, op);
        } else {
            self.inner.on_applied(tid, op);
        }
        self.applied += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{ClosureProgram, Program};
    use crate::recorder::{record, record_until_failure};
    use crate::sketch::Mechanism;
    use pres_tvm::prelude::*;

    fn two_phase_program() -> impl Program {
        let mut spec = ResourceSpec::new();
        let x = spec.var("x", 0);
        let m = spec.lock("m");
        ClosureProgram::new("two-phase", spec, WorldConfig::default(), move || {
            Box::new(move |ctx: &mut Ctx| {
                let t = ctx.spawn("w", move |ctx| {
                    ctx.with_lock(m, |ctx| {
                        let v = ctx.read(x);
                        ctx.write(x, v + 10);
                    });
                });
                ctx.with_lock(m, |ctx| {
                    let v = ctx.read(x);
                    ctx.write(x, v + 1);
                });
                ctx.join(t);
            })
        })
    }

    fn replay(
        prog: &dyn Program,
        sketch: &crate::sketch::Sketch,
        constraints: Vec<OrderConstraint>,
        seed: u64,
    ) -> pres_tvm::vm::RunOutcome {
        let mut sched = PiReplayScheduler::new(sketch, constraints, seed);
        let body = prog.root();
        pres_tvm::vm::run(
            VmConfig {
                trace_mode: TraceMode::Full,
                world: prog.world(),
                ..VmConfig::default()
            },
            prog.resources(),
            &mut sched,
            &mut NullObserver,
            move |ctx| body(ctx),
        )
    }

    #[test]
    fn rw_sketch_replays_deterministically() {
        let prog = two_phase_program();
        let config = VmConfig::default();
        // Find a seed where the worker wins the lock first (x = 10 then 11)
        // and one where main wins (x = 1 then 11) — the lock order differs.
        let run = record(&prog, Mechanism::Rw, &config, 3);
        for attempt_seed in 0..5 {
            let out = replay(&prog, &run.sketch, vec![], attempt_seed);
            assert_eq!(
                out.status,
                RunStatus::Completed,
                "RW replay must complete: {}",
                out.status
            );
            // The shared-access interleaving is pinned: traces of shared ops
            // must match the production order regardless of seed.
            let sketch2 = crate::sketch::Sketch::from_events(Mechanism::Rw, out.trace.events());
            assert_eq!(sketch2.entries, run.sketch.entries, "seed {attempt_seed}");
        }
    }

    #[test]
    fn sync_sketch_pins_lock_order() {
        let prog = two_phase_program();
        let config = VmConfig::default();
        let run = record(&prog, Mechanism::Sync, &config, 3);
        for attempt_seed in 0..5 {
            let out = replay(&prog, &run.sketch, vec![], attempt_seed);
            assert_eq!(out.status, RunStatus::Completed);
            let sync2 = crate::sketch::Sketch::from_events(Mechanism::Sync, out.trace.events());
            assert_eq!(sync2.entries, run.sketch.entries);
        }
    }

    #[test]
    fn rw_replay_reproduces_a_recorded_failure_first_try() {
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
        let config = VmConfig::default();
        let run = record_until_failure(&prog, Mechanism::Rw, &config, 0..200)
            .expect("a failing seed exists");
        let out = replay(&prog, &run.sketch, vec![], 999);
        match out.status {
            RunStatus::Failed(f) => assert_eq!(f.signature(), "assert:lost update"),
            other => panic!("RW replay must reproduce on attempt 1, got {other}"),
        }
    }

    #[test]
    fn flip_constraint_reorders_unrecorded_accesses() {
        // Two unsynchronized writers; record under SYS (no memory order).
        // A flip constraint forces the loser of the recorded run to go
        // first during replay.
        let mut spec = ResourceSpec::new();
        let x = spec.var("x", 0);
        let prog = ClosureProgram::new("order", spec, WorldConfig::default(), move || {
            Box::new(move |ctx: &mut Ctx| {
                let t = ctx.spawn("w", move |ctx| {
                    ctx.write(x, 1);
                });
                ctx.write(x, 2);
                ctx.join(t);
                // Record the final value through stdout for inspection.
                let v = ctx.read(x);
                ctx.println(&format!("final={v}"));
            })
        });
        let config = VmConfig::default();
        let run = record(&prog, Mechanism::Sys, &config, 3);

        // Unconstrained replay with seed s: observe some final value.
        let base = replay(&prog, &run.sketch, vec![], 7);
        assert_eq!(base.status, RunStatus::Completed);
        let base_out = String::from_utf8(base.stdout.clone()).unwrap();

        // Find the two writes in the replay trace and flip their order.
        let loc = ActionObj::Mem(MemLoc::Var(x));
        let writes: Vec<(ThreadId, u64)> = base
            .trace
            .events()
            .iter()
            .filter(|e| matches!(e.op, Op::Write(v, _) if v == x))
            .map(|e| (e.tid, e.gseq))
            .collect();
        assert_eq!(writes.len(), 2);
        let (first_tid, _) = writes[0];
        let (second_tid, _) = writes[1];
        assert_ne!(first_tid, second_tid);
        let constraint = OrderConstraint {
            before: ActionKey {
                tid: second_tid,
                obj: loc,
                index: 0,
            },
            after: ActionKey {
                tid: first_tid,
                obj: loc,
                index: 0,
            },
        };
        let flipped = replay(&prog, &run.sketch, vec![constraint], 7);
        assert_eq!(flipped.status, RunStatus::Completed);
        let flipped_out = String::from_utf8(flipped.stdout.clone()).unwrap();
        assert_ne!(
            base_out, flipped_out,
            "flipping the write order must change the final value"
        );
    }

    #[test]
    fn divergence_is_detected_when_program_changes() {
        // Record program A; replay program B whose sync sequence differs.
        let mut spec_a = ResourceSpec::new();
        let m = spec_a.lock("m");
        let prog_a = ClosureProgram::new("a", spec_a.clone(), WorldConfig::default(), move || {
            Box::new(move |ctx: &mut Ctx| {
                ctx.lock(m);
                ctx.unlock(m);
                ctx.lock(m);
                ctx.unlock(m);
            })
        });
        let run = record(&prog_a, Mechanism::Sync, &VmConfig::default(), 1);

        let prog_b = ClosureProgram::new("b", spec_a, WorldConfig::default(), move || {
            Box::new(move |ctx: &mut Ctx| {
                ctx.lock(m);
                ctx.unlock(m);
                // Second acquire missing: announces exit where the sketch
                // expects a lock.
            })
        });
        let run_with = |prog: &dyn Program| {
            let mut sched = PiReplayScheduler::new(&run.sketch, vec![], 1);
            let body = prog.root();
            let out = pres_tvm::vm::run(
                VmConfig {
                    world: prog.world(),
                    ..VmConfig::default()
                },
                prog.resources(),
                &mut sched,
                &mut NullObserver,
                move |ctx| body(ctx),
            );
            (out.status, sched.relaxed_at())
        };
        // The recorded program follows its sketch to the end.
        assert_eq!(run_with(&prog_a), (RunStatus::Completed, None));
        // The changed program diverges: enforcement relaxes at the step of
        // the mismatch, and the run completes free.
        let (status, relaxed_at) = run_with(&prog_b);
        assert_eq!(status, RunStatus::Completed);
        assert!(relaxed_at.is_some(), "the divergence went unnoticed");
    }

    #[test]
    fn contradictory_constraints_stall_and_abort() {
        let mut spec = ResourceSpec::new();
        let x = spec.var("x", 0);
        let prog = ClosureProgram::new("tiny", spec, WorldConfig::default(), move || {
            Box::new(move |ctx: &mut Ctx| {
                ctx.write(x, 1);
            })
        });
        let run = record(&prog, Mechanism::Sys, &VmConfig::default(), 1);
        // Constraint: t0's first write to x must wait for t1's write — but
        // there is no t1, so replay stalls and aborts.
        let loc = ActionObj::Mem(MemLoc::Var(x));
        let c = OrderConstraint {
            before: ActionKey {
                tid: ThreadId(1),
                obj: loc,
                index: 0,
            },
            after: ActionKey {
                tid: ThreadId(0),
                obj: loc,
                index: 0,
            },
        };
        let out = replay(&prog, &run.sketch, vec![c], 1);
        match out.status {
            RunStatus::Aborted(msg) => assert!(msg.contains("stuck"), "{msg}"),
            other => panic!("expected stuck abort, got {other}"),
        }
    }

    #[test]
    fn thread_slots_are_keyed_by_the_tids_present() {
        // One thread with the second-largest tid: indexing, decoding and
        // replay setup must cost one slot, not one per tid value below it.
        use crate::sketch::{SketchEntry, SyncKind};
        let tid = ThreadId(0xFFFF_FFFE);
        let mut sketch = Sketch::new(Mechanism::Sync);
        let lock = SketchOp::Sync {
            kind: SyncKind::Lock,
            obj: 1,
        };
        sketch.entries = [SketchOp::Start, lock, SketchOp::Exit]
            .into_iter()
            .map(|op| SketchEntry {
                tid,
                op,
                result: pres_tvm::op::OpResult::Unit,
            })
            .collect();
        let built = SketchIndex::new(&sketch);
        let (_, decoded) =
            crate::codec::decode_index(&crate::codec::encode_sketch(&sketch)).expect("decodes");
        assert_eq!(decoded, built);
        assert_eq!(decoded.threads(), 1);
        assert!(
            decoded.resident_bytes() < 1024,
            "{} resident bytes",
            decoded.resident_bytes()
        );
        let sched = PiReplayScheduler::with_index(Arc::new(decoded), vec![], 0);
        assert_eq!(sched.thread_pos.len(), 1);
        assert_eq!(sched.thread_front(tid), Some((0, 0, &SketchOp::Start)));
        assert_eq!(sched.thread_front(ThreadId(0)), None);
    }

    #[test]
    fn progress_tracks_cursor() {
        let prog = two_phase_program();
        let run = record(&prog, Mechanism::Sync, &VmConfig::default(), 3);
        let sched = PiReplayScheduler::new(&run.sketch, vec![], 0);
        assert_eq!(sched.progress(), 0.0);
        assert!(!sched.sketch_exhausted());
        let empty = crate::sketch::Sketch::new(Mechanism::Sync);
        let sched2 = PiReplayScheduler::new(&empty, vec![], 0);
        assert!(sched2.sketch_exhausted());
        assert_eq!(sched2.progress(), 1.0);
    }
}
