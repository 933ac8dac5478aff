//! Happens-before (FastTrack-style) race detection over execution traces.
//!
//! PRES's feedback generator needs to know, given a failed replay attempt's
//! trace, *which pairs of shared-memory accesses raced* — those are the
//! unrecorded ordering decisions worth flipping on the next attempt. This
//! module replays the trace through vector clocks and reports every
//! conflicting, concurrent access pair.
//!
//! Happens-before edges modeled:
//!
//! * program order within each thread;
//! * lock release → subsequent acquire (mutexes and rwlocks);
//! * condvar notify → wakeup (`CondReacquire`), and the lock hand-off of
//!   the wait itself;
//! * channel send → receive of the same message; close → `None` receive;
//! * atomic read-modify-writes (`FetchAdd`, `CompareSwap`) synchronize
//!   through their location, as sequentially-consistent atomics do: two
//!   atomic operations on the same cell are ordered and never reported as
//!   a race, while a *plain* access racing an atomic one still is;
//! * semaphore release → acquire (conservative: one clock per semaphore,
//!   which over-approximates HB and can only hide races, never invent them);
//! * barrier generations (conservative bidirectional join at arrival — an
//!   over-approximation that cannot produce false positives because access
//!   checks happen at access time, before any later join);
//! * spawn → child start, child exit → join.

use crate::vclock::{Epoch, VectorClock};
use pres_tvm::ids::ThreadId;
use pres_tvm::op::{MemLoc, Op, OpResult};
use pres_tvm::trace::{Event, Trace};
use std::collections::{BTreeMap, VecDeque};

/// One side of a race: a shared-memory access in the trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Access {
    /// Global sequence number of the access event.
    pub gseq: u64,
    /// Accessing thread.
    pub tid: ThreadId,
    /// Whether the access writes.
    pub is_write: bool,
}

/// A pair of conflicting, concurrent accesses (`first.gseq < second.gseq`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RacePair {
    /// The contended location.
    pub loc: MemLoc,
    /// The earlier access in this trace.
    pub first: Access,
    /// The later access.
    pub second: Access,
}

impl RacePair {
    /// A coarse dedup key: location plus the unordered thread pair and
    /// access kinds. Distinct dynamic occurrences of the same static race
    /// share a key.
    pub fn static_key(&self) -> (MemLoc, ThreadId, ThreadId, bool, bool) {
        if self.first.tid <= self.second.tid {
            (
                self.loc,
                self.first.tid,
                self.second.tid,
                self.first.is_write,
                self.second.is_write,
            )
        } else {
            (
                self.loc,
                self.second.tid,
                self.first.tid,
                self.second.is_write,
                self.first.is_write,
            )
        }
    }
}

#[derive(Debug, Default)]
struct LocState {
    last_write: Option<Epoch>,
    /// Reads since the last write, at most one per thread.
    reads: Vec<Epoch>,
}

/// Streaming happens-before detector.
#[derive(Debug, Default)]
pub struct HbDetector {
    clocks: Vec<VectorClock>,
    locks: BTreeMap<u32, VectorClock>,
    rwlocks: BTreeMap<u32, VectorClock>,
    conds: BTreeMap<u32, VectorClock>,
    barriers: BTreeMap<u32, VectorClock>,
    sems: BTreeMap<u32, VectorClock>,
    chans: BTreeMap<u32, VecDeque<VectorClock>>,
    chan_close: BTreeMap<u32, VectorClock>,
    atomics: BTreeMap<MemLoc, VectorClock>,
    exit_clocks: BTreeMap<u32, VectorClock>,
    locs: BTreeMap<MemLoc, LocState>,
    races: Vec<RacePair>,
    max_races: usize,
}

impl HbDetector {
    /// Default cap on reported dynamic races.
    pub const DEFAULT_MAX_RACES: usize = 10_000;

    /// A detector with the default race cap.
    pub fn new() -> Self {
        HbDetector {
            max_races: Self::DEFAULT_MAX_RACES,
            ..Default::default()
        }
    }

    /// A detector reporting at most `max_races` dynamic pairs.
    pub fn with_max_races(max_races: usize) -> Self {
        HbDetector {
            max_races,
            ..Default::default()
        }
    }

    fn clock_mut(&mut self, tid: ThreadId) -> &mut VectorClock {
        let idx = tid.index();
        if idx >= self.clocks.len() {
            self.clocks.resize_with(idx + 1, VectorClock::new);
        }
        &mut self.clocks[idx]
    }

    fn report(&mut self, loc: MemLoc, a: Epoch, a_write: bool, b: Epoch, b_write: bool) {
        if self.races.len() >= self.max_races {
            return;
        }
        let (first, second) = if a.gseq < b.gseq {
            (
                Access {
                    gseq: a.gseq,
                    tid: a.tid,
                    is_write: a_write,
                },
                Access {
                    gseq: b.gseq,
                    tid: b.tid,
                    is_write: b_write,
                },
            )
        } else {
            (
                Access {
                    gseq: b.gseq,
                    tid: b.tid,
                    is_write: b_write,
                },
                Access {
                    gseq: a.gseq,
                    tid: a.tid,
                    is_write: a_write,
                },
            )
        };
        self.races.push(RacePair { loc, first, second });
    }

    /// Feeds one event.
    pub fn observe(&mut self, event: &Event) {
        let tid = event.tid;
        // Tick first: every event is a distinct point in its thread.
        let c = self.clock_mut(tid);
        c.tick(tid);

        // Atomic RMWs synchronize through their cell (seq-cst semantics):
        // join the cell's clock before the race check so prior atomics are
        // ordered before this one.
        let is_atomic = matches!(event.op, Op::FetchAdd(..) | Op::CompareSwap(..));
        if is_atomic {
            if let Some(loc) = event.op.mem_location() {
                if let Some(ac) = self.atomics.get(&loc) {
                    let ac = ac.clone();
                    self.clock_mut(tid).join(&ac);
                }
            }
        }
        let my_clock = self.clock_mut(tid).clone();

        // Memory access checks (before any sync joins for this event —
        // accesses and sync ops are distinct ops, so ordering is moot).
        if let Some(loc) = event.op.mem_location() {
            let epoch = Epoch {
                tid,
                clock: my_clock.get(tid),
                gseq: event.gseq,
            };
            let is_write = event.op.is_mem_write();
            let st = self.locs.entry(loc).or_default();
            let mut pending: Vec<(Epoch, bool)> = Vec::new();
            if let Some(lw) = st.last_write {
                if lw.tid != tid && !lw.happens_before(&my_clock) {
                    pending.push((lw, true));
                }
            }
            if is_write {
                for r in &st.reads {
                    if r.tid != tid && !r.happens_before(&my_clock) {
                        pending.push((*r, false));
                    }
                }
                st.last_write = Some(epoch);
                st.reads.clear();
            } else {
                if let Some(pos) = st.reads.iter().position(|r| r.tid == tid) {
                    st.reads[pos] = epoch;
                } else {
                    st.reads.push(epoch);
                }
            }
            for (other, other_write) in pending {
                self.report(loc, other, other_write, epoch, is_write);
            }
            // Publish this atomic access's clock to the cell.
            if is_atomic {
                let snap = my_clock.clone();
                self.atomics
                    .entry(loc)
                    .and_modify(|ac| ac.join(&snap))
                    .or_insert(snap);
            }
        }

        // Synchronization edges.
        match &event.op {
            Op::LockAcquire(l) => {
                if let Some(lc) = self.locks.get(&l.0) {
                    let lc = lc.clone();
                    self.clock_mut(tid).join(&lc);
                }
            }
            Op::LockRelease(l) => {
                let c = self.clock_mut(tid).clone();
                self.locks
                    .entry(l.0)
                    .and_modify(|lc| lc.join(&c))
                    .or_insert(c);
            }
            Op::RwAcquireRead(rw) | Op::RwAcquireWrite(rw) => {
                if let Some(lc) = self.rwlocks.get(&rw.0) {
                    let lc = lc.clone();
                    self.clock_mut(tid).join(&lc);
                }
            }
            Op::RwRelease(rw) => {
                let c = self.clock_mut(tid).clone();
                self.rwlocks
                    .entry(rw.0)
                    .and_modify(|lc| lc.join(&c))
                    .or_insert(c);
            }
            Op::CondWait(c, l) => {
                // The wait releases the lock.
                let snap = self.clock_mut(tid).clone();
                self.locks
                    .entry(l.0)
                    .and_modify(|lc| lc.join(&snap))
                    .or_insert(snap);
                let _ = c;
            }
            Op::CondReacquire(c, l) => {
                // Wakeup: notified-by edge plus lock reacquisition.
                if let Some(cc) = self.conds.get(&c.0) {
                    let cc = cc.clone();
                    self.clock_mut(tid).join(&cc);
                }
                if let Some(lc) = self.locks.get(&l.0) {
                    let lc = lc.clone();
                    self.clock_mut(tid).join(&lc);
                }
            }
            Op::CondNotifyOne(c) | Op::CondNotifyAll(c) => {
                let snap = self.clock_mut(tid).clone();
                self.conds
                    .entry(c.0)
                    .and_modify(|cc| cc.join(&snap))
                    .or_insert(snap);
            }
            Op::BarrierWait(b) => {
                // Conservative bidirectional join (see module docs).
                let entry = self.barriers.entry(b.0).or_default();
                let merged = {
                    let mut m = entry.clone();
                    m.join(&my_clock);
                    m
                };
                *entry = merged.clone();
                self.clock_mut(tid).join(&merged);
            }
            Op::BarrierResume(b) => {
                if let Some(bc) = self.barriers.get(&b.0) {
                    let bc = bc.clone();
                    self.clock_mut(tid).join(&bc);
                }
            }
            Op::SemAcquire(s) => {
                if let Some(sc) = self.sems.get(&s.0) {
                    let sc = sc.clone();
                    self.clock_mut(tid).join(&sc);
                }
            }
            Op::SemRelease(s) => {
                let snap = self.clock_mut(tid).clone();
                self.sems
                    .entry(s.0)
                    .and_modify(|sc| sc.join(&snap))
                    .or_insert(snap);
            }
            Op::ChanSend(ch, _) => {
                let snap = self.clock_mut(tid).clone();
                self.chans.entry(ch.0).or_default().push_back(snap);
            }
            Op::ChanRecv(ch) => match &event.result {
                OpResult::MaybeValue(Some(_)) => {
                    if let Some(q) = self.chans.get_mut(&ch.0) {
                        if let Some(snap) = q.pop_front() {
                            self.clock_mut(tid).join(&snap);
                        }
                    }
                }
                _ => {
                    if let Some(cc) = self.chan_close.get(&ch.0) {
                        let cc = cc.clone();
                        self.clock_mut(tid).join(&cc);
                    }
                }
            },
            Op::ChanClose(ch) => {
                let snap = self.clock_mut(tid).clone();
                self.chan_close
                    .entry(ch.0)
                    .and_modify(|cc| cc.join(&snap))
                    .or_insert(snap);
            }
            Op::Spawn => {
                if let OpResult::Tid(child) = event.result {
                    let snap = self.clock_mut(tid).clone();
                    self.clock_mut(child).join(&snap);
                }
            }
            Op::Join(target) => {
                if let Some(ec) = self.exit_clocks.get(&target.0) {
                    let ec = ec.clone();
                    self.clock_mut(tid).join(&ec);
                }
            }
            Op::ThreadExit => {
                let snap = self.clock_mut(tid).clone();
                self.exit_clocks.insert(tid.0, snap);
            }
            _ => {}
        }
    }

    /// All dynamic races observed so far, in detection order.
    pub fn races(&self) -> &[RacePair] {
        &self.races
    }

    /// Consumes the detector, returning the races.
    pub fn into_races(self) -> Vec<RacePair> {
        self.races
    }
}

/// Runs the detector over a whole trace.
pub fn detect_races(trace: &Trace) -> Vec<RacePair> {
    detect_races_in(trace.events())
}

/// Runs the detector over a slice of events (e.g. the prefix before a
/// failure point).
pub fn detect_races_in(events: &[Event]) -> Vec<RacePair> {
    let mut det = HbDetector::new();
    for e in events {
        det.observe(e);
    }
    det.into_races()
}

/// Deduplicates dynamic races by [`RacePair::static_key`], keeping the
/// earliest occurrence of each.
pub fn dedup_static(races: &[RacePair]) -> Vec<RacePair> {
    let mut seen = std::collections::BTreeSet::new();
    let mut out = Vec::new();
    for r in races {
        if seen.insert(r.static_key()) {
            out.push(*r);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pres_tvm::prelude::*;

    /// Runs a program under the given seed with full tracing.
    fn traced(
        seed: u64,
        build: impl Fn(&mut ResourceSpec) -> Box<dyn FnOnce(&mut Ctx) + Send>,
    ) -> Trace {
        let mut spec = ResourceSpec::new();
        let body = build(&mut spec);
        let out = pres_tvm::vm::run(
            VmConfig {
                trace_mode: TraceMode::Full,
                ..VmConfig::default()
            },
            spec,
            &mut RandomScheduler::new(seed),
            &mut NullObserver,
            move |ctx| body(ctx),
        );
        assert!(
            matches!(out.status, RunStatus::Completed | RunStatus::Failed(_)),
            "{}",
            out.status
        );
        out.trace
    }

    #[test]
    fn unsynchronized_writes_race() {
        let trace = traced(1, |spec| {
            let x = spec.var("x", 0);
            Box::new(move |ctx| {
                let t = ctx.spawn("w", move |ctx| {
                    ctx.write(x, 1);
                });
                ctx.write(x, 2);
                ctx.join(t);
            })
        });
        let races = detect_races(&trace);
        assert!(!races.is_empty(), "write-write race must be detected");
        assert!(races.iter().all(|r| r.first.is_write && r.second.is_write));
    }

    #[test]
    fn lock_protected_writes_do_not_race() {
        let trace = traced(2, |spec| {
            let x = spec.var("x", 0);
            let m = spec.lock("m");
            Box::new(move |ctx| {
                let t = ctx.spawn("w", move |ctx| {
                    ctx.lock(m);
                    let v = ctx.read(x);
                    ctx.write(x, v + 1);
                    ctx.unlock(m);
                });
                ctx.lock(m);
                let v = ctx.read(x);
                ctx.write(x, v + 1);
                ctx.unlock(m);
                ctx.join(t);
            })
        });
        assert!(detect_races(&trace).is_empty());
    }

    #[test]
    fn spawn_and_join_order_accesses() {
        let trace = traced(3, |spec| {
            let x = spec.var("x", 0);
            Box::new(move |ctx| {
                ctx.write(x, 1); // before spawn: ordered
                let t = ctx.spawn("w", move |ctx| {
                    ctx.write(x, 2);
                });
                ctx.join(t);
                ctx.write(x, 3); // after join: ordered
            })
        });
        assert!(detect_races(&trace).is_empty());
    }

    #[test]
    fn read_write_race_is_detected_and_classified() {
        let trace = traced(4, |spec| {
            let x = spec.var("x", 0);
            Box::new(move |ctx| {
                let t = ctx.spawn("reader", move |ctx| {
                    for _ in 0..5 {
                        ctx.read(x);
                        ctx.compute(5);
                    }
                });
                for _ in 0..5 {
                    ctx.write(x, 7);
                    ctx.compute(5);
                }
                ctx.join(t);
            })
        });
        let races = detect_races(&trace);
        assert!(!races.is_empty());
        assert!(races
            .iter()
            .any(|r| r.first.is_write != r.second.is_write));
    }

    #[test]
    fn channel_send_recv_creates_order() {
        let trace = traced(5, |spec| {
            let x = spec.var("x", 0);
            let ch = spec.chan("q");
            Box::new(move |ctx| {
                let t = ctx.spawn("consumer", move |ctx| {
                    ctx.recv(ch);
                    ctx.write(x, 2); // ordered after producer's write
                });
                ctx.write(x, 1);
                ctx.send(ch, 0);
                ctx.join(t);
            })
        });
        assert!(detect_races(&trace).is_empty());
    }

    #[test]
    fn barrier_orders_cross_phase_accesses() {
        let trace = traced(6, |spec| {
            let x = spec.var_array("x", 2, 0);
            let bar = spec.barrier("b", 2);
            Box::new(move |ctx| {
                let other = VarId(x.0 + 1);
                let t = ctx.spawn("w", move |ctx| {
                    ctx.write(other, 1);
                    ctx.barrier_wait(bar);
                    ctx.read(x);
                });
                ctx.write(x, 1);
                ctx.barrier_wait(bar);
                ctx.read(other);
                ctx.join(t);
            })
        });
        assert!(detect_races(&trace).is_empty());
    }

    #[test]
    fn condvar_handoff_creates_order() {
        let trace = traced(7, |spec| {
            let x = spec.var("x", 0);
            let flag = spec.var("flag", 0);
            let m = spec.lock("m");
            let cv = spec.cond("cv");
            Box::new(move |ctx| {
                let t = ctx.spawn("waiter", move |ctx| {
                    ctx.lock(m);
                    while ctx.read(flag) == 0 {
                        ctx.cond_wait(cv, m);
                    }
                    ctx.unlock(m);
                    ctx.write(x, 2); // ordered after the producer's write
                });
                ctx.write(x, 1);
                ctx.lock(m);
                ctx.write(flag, 1);
                ctx.notify_one(cv);
                ctx.unlock(m);
                ctx.join(t);
            })
        });
        assert!(detect_races(&trace).is_empty());
    }

    #[test]
    fn racing_pair_gseqs_point_at_real_events() {
        let trace = traced(8, |spec| {
            let x = spec.var("x", 0);
            Box::new(move |ctx| {
                let t = ctx.spawn("w", move |ctx| {
                    ctx.write(x, 1);
                });
                ctx.write(x, 2);
                ctx.join(t);
            })
        });
        for r in detect_races(&trace) {
            let a = trace.get(r.first.gseq).expect("gseq valid");
            let b = trace.get(r.second.gseq).expect("gseq valid");
            assert!(a.op.is_mem_access() && b.op.is_mem_access());
            assert_eq!(a.tid, r.first.tid);
            assert_eq!(b.tid, r.second.tid);
            assert!(r.first.gseq < r.second.gseq);
            assert_ne!(r.first.tid, r.second.tid);
        }
    }

    #[test]
    fn dedup_static_collapses_dynamic_repeats() {
        let trace = traced(9, |spec| {
            let x = spec.var("x", 0);
            Box::new(move |ctx| {
                let t = ctx.spawn("w", move |ctx| {
                    for _ in 0..10 {
                        ctx.write(x, 1);
                        ctx.compute(3);
                    }
                });
                for _ in 0..10 {
                    ctx.write(x, 2);
                    ctx.compute(3);
                }
                ctx.join(t);
            })
        });
        let races = detect_races(&trace);
        let deduped = dedup_static(&races);
        assert!(deduped.len() <= races.len());
        assert!(deduped.len() <= 2, "one static pair expected, got {deduped:?}");
    }

    #[test]
    fn race_cap_is_respected() {
        let trace = traced(10, |spec| {
            let x = spec.var("x", 0);
            Box::new(move |ctx| {
                let t = ctx.spawn("w", move |ctx| {
                    for _ in 0..50 {
                        ctx.write(x, 1);
                    }
                });
                for _ in 0..50 {
                    ctx.write(x, 2);
                }
                ctx.join(t);
            })
        });
        let mut det = HbDetector::with_max_races(3);
        for e in trace.events() {
            det.observe(e);
        }
        assert!(det.races().len() <= 3);
    }
}
