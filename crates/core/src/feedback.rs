//! Feedback generation from unsuccessful replay attempts.
//!
//! This is the component the paper's evaluation singles out as *critical*:
//! a failed attempt is not wasted — its full trace (cheap to capture at
//! diagnosis time) is analysed for the ordering decisions the sketch left
//! open, and each such decision becomes a *flip candidate* for the next
//! attempt:
//!
//! * **racing memory-access pairs** found by happens-before analysis
//!   (`pres-race`), deduplicated to one representative per static race;
//! * **contended lock-acquisition pairs** — consecutive acquisitions of the
//!   same lock by different threads — which is how lock-order bugs
//!   (deadlocks) are explored under sketches that do not record
//!   synchronization.
//!
//! Candidates are ranked: pairs on locations that also violate the lockset
//! discipline come first (an unprotected location is the likelier root
//! cause), then later-occurring pairs before earlier ones (the failure, had
//! it manifested, would have been near the end of the recorded prefix).

use crate::replay::{ActionKey, ActionObj, OrderConstraint};
use pres_race::hb::{dedup_static, HbDetector};
use pres_race::lockset::LocksetDetector;
use pres_tvm::ids::ThreadId;
use pres_tvm::op::Op;
use pres_tvm::trace::{Event, Observer, ObserverCharge};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet};

/// A flip candidate extracted from a failed attempt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlipCandidate {
    /// The constraint to install for the next attempt (the observed order,
    /// reversed).
    pub constraint: OrderConstraint,
    /// Global sequence of the later of the two observed actions — the
    /// recency used for ranking.
    pub gseq: u64,
    /// Whether the object also violates the lockset discipline.
    pub lockset_flagged: bool,
}

/// How flip candidates are ordered before the explorer consumes them.
/// The default is the full PRES heuristic; the alternatives exist for the
/// ablation study (experiment E9).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ranking {
    /// Lockset-flagged locations first, then most recent first (default).
    LocksetThenRecency,
    /// Most recent first, ignoring lockset analysis.
    RecencyOnly,
    /// Earliest first (the anti-heuristic: the failure was near the end).
    Oldest,
}

impl Ranking {
    /// Display name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            Ranking::LocksetThenRecency => "lockset+recency",
            Ranking::RecencyOnly => "recency",
            Ranking::Oldest => "oldest-first",
        }
    }
}

/// Extracts flip candidates from an event slice (a trace, or a failure
/// prefix) and ranks them by the default policy.
///
/// Returns candidates in **descending priority** (try the first one first).
pub fn candidates_in(events: &[Event]) -> Vec<FlipCandidate> {
    let mut ext = StreamingExtractor::new(0);
    for e in events {
        ext.observe(e);
    }
    ext.finish(Ranking::LocksetThenRecency)
}

/// A contended lock-acquisition pair observed in the event stream: two
/// consecutive acquisitions of the same lock by different threads.
#[derive(Debug, Clone)]
struct LockPairObs {
    lock: u32,
    first_tid: ThreadId,
    first_gseq: u64,
    second_tid: ThreadId,
    second_gseq: u64,
}

/// Streaming flip-candidate extraction: consumes events one at a time
/// (as an [`Observer`] installed on the VM, or fed from a buffered trace)
/// and assembles the ranked candidate list at the end of the run.
///
/// This maintains only bounded analysis state — the happens-before
/// detector's vector clocks and last-access tables, lockset state, the
/// per-(thread, object) occurrence counters, and the contended-lock pairs
/// seen so far — instead of buffering the full event vector, so replay
/// attempts run with [`pres_tvm::trace::TraceMode::Off`] and the VM keeps
/// no trace at all. [`candidates_in`] is this extractor fed from a slice.
#[derive(Debug)]
pub struct StreamingExtractor {
    /// Events before this gseq are dropped: a fast-forwarded attempt's
    /// prefix is production history, not attempt behavior, and its action
    /// indices would disagree with the replay scheduler's boundary-origin
    /// counters.
    window_start: u64,
    hb: HbDetector,
    lockset: LocksetDetector,
    /// Per-(thread, object) occurrence counters, counted from
    /// `window_start`.
    counters: BTreeMap<(ThreadId, ActionObj), u32>,
    /// gseq → per-(thread, object) occurrence index.
    by_gseq: BTreeMap<u64, u32>,
    /// Most recent acquisition of each lock.
    last_acquire: BTreeMap<u32, (ThreadId, u64)>,
    /// (lock, first thread, second thread) pairs already emitted.
    seen_lock_pairs: BTreeSet<(u32, ThreadId, ThreadId)>,
    /// Contended-lock observations, in stream order.
    lock_pairs: Vec<LockPairObs>,
}

impl StreamingExtractor {
    /// Creates an extractor with empty analysis state that analyses the
    /// events from gseq `window_start` on (0 for a whole run).
    pub fn new(window_start: u64) -> Self {
        StreamingExtractor {
            window_start,
            hb: HbDetector::new(),
            lockset: LocksetDetector::new(),
            counters: BTreeMap::new(),
            by_gseq: BTreeMap::new(),
            last_acquire: BTreeMap::new(),
            seen_lock_pairs: BTreeSet::new(),
            lock_pairs: Vec::new(),
        }
    }

    /// Feeds one event through every analysis, unless it precedes the
    /// window.
    pub fn observe(&mut self, e: &Event) {
        if e.gseq < self.window_start {
            return;
        }
        self.hb.observe(e);
        self.lockset.observe(e);
        if let Some(obj) = ActionObj::of_op(&e.op) {
            let c = self.counters.entry((e.tid, obj)).or_insert(0);
            self.by_gseq.insert(e.gseq, *c);
            *c += 1;
        }
        if let Op::LockAcquire(l) = &e.op {
            if let Some((prev_tid, prev_gseq)) = self.last_acquire.get(&l.0).copied() {
                if prev_tid != e.tid && self.seen_lock_pairs.insert((l.0, prev_tid, e.tid)) {
                    self.lock_pairs.push(LockPairObs {
                        lock: l.0,
                        first_tid: prev_tid,
                        first_gseq: prev_gseq,
                        second_tid: e.tid,
                        second_gseq: e.gseq,
                    });
                }
            }
            self.last_acquire.insert(l.0, (e.tid, e.gseq));
        }
    }

    /// The per-(thread, object) occurrence index of the action at `gseq`.
    fn index_of(&self, gseq: u64) -> Option<u32> {
        self.by_gseq.get(&gseq).copied()
    }

    /// Assembles the candidate list ranked by `ranking` (descending
    /// priority).
    pub fn finish(self, ranking: Ranking) -> Vec<FlipCandidate> {
        let mut out = self.unranked();
        // One stable sort over push order; ties keep the order of the
        // default ranking.
        match ranking {
            Ranking::LocksetThenRecency => {
                out.sort_by_key(|c| (Reverse(c.lockset_flagged), Reverse(c.gseq)))
            }
            Ranking::RecencyOnly => {
                out.sort_by_key(|c| (Reverse(c.gseq), Reverse(c.lockset_flagged)))
            }
            Ranking::Oldest => out.sort_by_key(|c| (c.gseq, Reverse(c.lockset_flagged))),
        }
        out
    }

    /// The candidates in push order: racing memory pairs, then contended
    /// lock pairs.
    fn unranked(self) -> Vec<FlipCandidate> {
        let flagged = self.lockset.violating_locs();
        let mut out: Vec<FlipCandidate> = Vec::new();

        // Racing memory pairs, one representative per static race.
        for r in dedup_static(self.hb.races()) {
            let obj = ActionObj::Mem(r.loc);
            let (Some(first_idx), Some(second_idx)) =
                (self.index_of(r.first.gseq), self.index_of(r.second.gseq))
            else {
                continue;
            };
            out.push(FlipCandidate {
                constraint: OrderConstraint {
                    before: ActionKey {
                        tid: r.second.tid,
                        obj,
                        index: second_idx,
                    },
                    after: ActionKey {
                        tid: r.first.tid,
                        obj,
                        index: first_idx,
                    },
                },
                gseq: r.second.gseq,
                lockset_flagged: flagged.contains(&r.loc),
            });
        }

        // Contended lock-acquire pairs, in stream order.
        for p in &self.lock_pairs {
            let obj = ActionObj::Lock(p.lock);
            let (Some(first_idx), Some(second_idx)) =
                (self.index_of(p.first_gseq), self.index_of(p.second_gseq))
            else {
                continue;
            };
            out.push(FlipCandidate {
                constraint: OrderConstraint {
                    before: ActionKey {
                        tid: p.second_tid,
                        obj,
                        index: second_idx,
                    },
                    after: ActionKey {
                        tid: p.first_tid,
                        obj,
                        index: first_idx,
                    },
                },
                gseq: p.second_gseq,
                lockset_flagged: false,
            });
        }

        out
    }
}

impl Observer for StreamingExtractor {
    fn on_event(&mut self, event: &Event) -> ObserverCharge {
        self.observe(event);
        ObserverCharge::FREE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pres_tvm::prelude::*;

    fn extractor(trace: &Trace, window_start: u64) -> StreamingExtractor {
        let mut ext = StreamingExtractor::new(window_start);
        for e in trace.events() {
            ext.on_event(e);
        }
        ext
    }

    fn ranked(trace: &Trace, ranking: Ranking) -> Vec<FlipCandidate> {
        extractor(trace, 0).finish(ranking)
    }

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
        out.trace
    }

    #[test]
    fn race_yields_a_flip_candidate_reversing_observed_order() {
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
        let cands = candidates_in(trace.events());
        assert!(!cands.is_empty());
        let c = &cands[0];
        // before/after are on the same object, different threads.
        assert_eq!(c.constraint.before.obj, c.constraint.after.obj);
        assert_ne!(c.constraint.before.tid, c.constraint.after.tid);
        assert!(c.lockset_flagged, "unlocked shared var must be flagged");
    }

    #[test]
    fn lock_contention_yields_lock_flip_candidates() {
        let trace = traced(2, |spec| {
            let m = spec.lock("m");
            let x = spec.var("x", 0);
            Box::new(move |ctx| {
                let t = ctx.spawn("w", move |ctx| {
                    ctx.with_lock(m, |ctx| {
                        let v = ctx.read(x);
                        ctx.write(x, v + 1);
                    });
                });
                ctx.with_lock(m, |ctx| {
                    let v = ctx.read(x);
                    ctx.write(x, v + 1);
                });
                ctx.join(t);
            })
        });
        let cands = candidates_in(trace.events());
        assert!(
            cands
                .iter()
                .any(|c| matches!(c.constraint.before.obj, ActionObj::Lock(_))),
            "contended lock must yield a flip candidate: {cands:?}"
        );
        // Properly locked variable: no memory-race candidates.
        assert!(cands
            .iter()
            .all(|c| !matches!(c.constraint.before.obj, ActionObj::Mem(_))));
    }

    #[test]
    fn quiet_programs_yield_no_candidates() {
        let trace = traced(3, |spec| {
            let x = spec.var("x", 0);
            Box::new(move |ctx| {
                for i in 0..5 {
                    ctx.write(x, i);
                }
            })
        });
        assert!(candidates_in(trace.events()).is_empty());
    }

    #[test]
    fn lockset_flagged_candidates_rank_first() {
        let trace = traced(4, |spec| {
            let unlocked = spec.var("unlocked", 0);
            let m = spec.lock("m");
            let x = spec.var("x", 0);
            Box::new(move |ctx| {
                let t = ctx.spawn("w", move |ctx| {
                    ctx.write(unlocked, 1);
                    ctx.with_lock(m, |ctx| {
                        let v = ctx.read(x);
                        ctx.write(x, v + 1);
                    });
                });
                ctx.write(unlocked, 2);
                ctx.with_lock(m, |ctx| {
                    let v = ctx.read(x);
                    ctx.write(x, v + 1);
                });
                ctx.join(t);
            })
        });
        let cands = candidates_in(trace.events());
        assert!(!cands.is_empty());
        assert!(
            cands[0].lockset_flagged,
            "lockset-flagged candidate must rank first: {cands:?}"
        );
    }

    #[test]
    fn ranking_policies_reorder_candidates() {
        let trace = traced(6, |spec| {
            let x = spec.var("x", 0);
            let y = spec.var("y", 0);
            Box::new(move |ctx| {
                let t = ctx.spawn("w", move |ctx| {
                    ctx.write(x, 1);
                    ctx.compute(30);
                    ctx.write(y, 1);
                });
                ctx.write(x, 2);
                ctx.compute(30);
                ctx.write(y, 2);
                ctx.join(t);
            })
        });
        let newest = ranked(&trace, Ranking::RecencyOnly);
        let oldest = ranked(&trace, Ranking::Oldest);
        assert!(newest.len() >= 2);
        assert!(newest.windows(2).all(|w| w[0].gseq >= w[1].gseq));
        assert!(oldest.windows(2).all(|w| w[0].gseq <= w[1].gseq));
        // The default ranks lockset violations first, then recency.
        let full = ranked(&trace, Ranking::LocksetThenRecency);
        assert_eq!(full.len(), newest.len());
    }

    #[test]
    fn each_ranking_keeps_the_tie_order_of_a_resorted_default() {
        // `finish(ranking)` is one stable sort. It must order exactly like
        // the two-step sort it replaced — the default sort, then a stable
        // re-sort by recency — ties included. Two reads of `x` racing with
        // one later write give two candidates sharing a gseq; the lock
        // pairs add unflagged candidates beside the flagged `x` races.
        let mut ties = 0;
        for seed in 0..8u64 {
            let trace = traced(seed, |spec| {
                let x = spec.var("x", 0);
                let m = spec.lock("m");
                Box::new(move |ctx| {
                    let readers: Vec<ThreadId> = (0..2)
                        .map(|i| {
                            ctx.spawn(&format!("r{i}"), move |ctx| {
                                ctx.read(x);
                                ctx.with_lock(m, |ctx| ctx.compute(1));
                            })
                        })
                        .collect();
                    ctx.compute(40);
                    ctx.write(x, 1);
                    ctx.with_lock(m, |ctx| ctx.compute(1));
                    for r in readers {
                        ctx.join(r);
                    }
                })
            });
            let pushed = extractor(&trace, 0).unranked();
            ties += pushed
                .iter()
                .enumerate()
                .filter(|(i, a)| pushed[i + 1..].iter().any(|b| b.gseq == a.gseq))
                .count();
            for ranking in [
                Ranking::LocksetThenRecency,
                Ranking::RecencyOnly,
                Ranking::Oldest,
            ] {
                let mut reference = pushed.clone();
                reference.sort_by(|a, b| {
                    b.lockset_flagged
                        .cmp(&a.lockset_flagged)
                        .then(b.gseq.cmp(&a.gseq))
                });
                match ranking {
                    Ranking::LocksetThenRecency => {}
                    Ranking::RecencyOnly => reference.sort_by_key(|a| Reverse(a.gseq)),
                    Ranking::Oldest => reference.sort_by_key(|a| a.gseq),
                }
                assert_eq!(
                    ranked(&trace, ranking),
                    reference,
                    "seed {seed}, {}",
                    ranking.name()
                );
            }
        }
        assert!(ties > 0, "no two candidates shared a gseq");
    }

    #[test]
    fn the_window_drops_the_prefix_and_counts_actions_from_its_start() {
        // Main writes `x` once before spawning the worker, then races the
        // worker's write with its second one.
        let trace = traced(5, |spec| {
            let x = spec.var("x", 0);
            Box::new(move |ctx| {
                ctx.write(x, 1);
                let t = ctx.spawn("w", move |ctx| {
                    ctx.write(x, 2);
                });
                ctx.write(x, 3);
                ctx.join(t);
            })
        });
        let main_index = |window_start: u64| {
            let cands = extractor(&trace, window_start).finish(Ranking::LocksetThenRecency);
            assert_eq!(cands.len(), 1, "{cands:?}");
            let c = cands[0].constraint;
            [c.before, c.after]
                .into_iter()
                .find(|k| k.tid == ThreadId(0))
                .expect("main is one side of the race")
                .index
        };
        let first_write = trace
            .events()
            .iter()
            .find(|e| e.op.is_mem_access())
            .expect("main writes x")
            .gseq;
        // The whole run counts main's first write; a window past it does
        // not.
        assert_eq!(main_index(0), 1);
        assert_eq!(main_index(first_write + 1), 0);
    }
}
