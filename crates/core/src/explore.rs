//! The exploration engine: coordinated replay attempts until reproduction.
//!
//! PRES relaxes "reproduce on the first attempt" to "reproduce within a few
//! attempts". The explorer drives that loop:
//!
//! 1. run a sketch-constrained replay attempt on the calling thread's warm
//!    executor pool, streaming its events through a
//!    [`feedback::StreamingExtractor`] rather than buffering a trace;
//! 2. if the target failure manifested — done; mint a certificate from the
//!    attempt's scheduling decisions;
//! 3. otherwise generate feedback: rank the flip candidates the extractor
//!    accumulated ([`crate::feedback`]) and append refined constraint
//!    sets to a breadth-first frontier — single flips are all tried before
//!    any pair of flips, because one reordering near the failure point is
//!    usually sufficient;
//! 4. take the next constraint set and go to 1.
//!
//! The sketch itself is consulted through a [`SketchIndex`] built **once**
//! per reproduction and shared (via `Arc`) by every attempt, so per-attempt
//! scheduler setup allocates only the cursor state.
//!
//! When the frontier drains without success the explorer starts a new
//! *round* with a fresh exploration seed — coarse sketches sometimes leave
//! so much freedom that a different base interleaving is needed before
//! flipping becomes productive.
//!
//! The **random** strategy (no feedback, fresh seed each attempt) is the
//! paper's ablation baseline: "PRES's feedback generation from unsuccessful
//! replays is critical in bug reproduction".
//!
//! The search is one serial chain: attempt `k + 1`'s plan depends on the
//! feedback of attempts `1..=k`, so a reproduction — attempt count, history
//! and certificate bytes — is a pure function of its inputs.

use crate::certificate::Certificate;
use crate::feedback;
use crate::oracle::{FailureOracle, StatusOracle};
use crate::program::Program;
use crate::recorder::verify_checkpoint;
use crate::replay::{FastForwardScheduler, OrderConstraint};
use crate::sketch::{Sketch, SketchIndex};
use pres_tvm::error::RunStatus;
use pres_tvm::pool::VthreadPool;
use pres_tvm::trace::{Event, NullObserver, Observer, ObserverCharge, TraceMode};
use pres_tvm::vm::{self, RunOutcome, VmConfig};
use std::collections::{BTreeSet, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How the explorer chooses the next attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// PRES: feedback-guided systematic flipping.
    Feedback,
    /// Ablation baseline: independent random attempts.
    Random,
}

impl Strategy {
    /// Display name used in reports.
    pub fn name(&self) -> &'static str {
        match self {
            Strategy::Feedback => "feedback",
            Strategy::Random => "random",
        }
    }
}

/// Exploration parameters.
#[derive(Debug, Clone)]
pub struct ExploreConfig {
    /// Attempt strategy.
    pub strategy: Strategy,
    /// Attempt budget (the paper caps tables at 1000).
    pub max_attempts: u32,
    /// Base exploration seed.
    pub base_seed: u64,
    /// Max flip candidates expanded per failed attempt (frontier fanout).
    pub fanout: usize,
    /// Every this many attempts, the feedback strategy restarts with a
    /// fresh base interleaving (fresh seed, empty constraints) even if the
    /// frontier is non-empty — insurance against an unlucky base schedule
    /// trapping the search in a barren subtree. `0` disables restarts.
    pub restart_period: u32,
    /// Candidate ranking policy (ablation knob; see experiment E9).
    pub ranking: feedback::Ranking,
    /// Frontier discipline (ablation knob): breadth-first tries every
    /// single flip before any composed set; depth-first commits to a
    /// subtree.
    pub search: SearchOrder,
    /// Ignored: the search is one serial chain on the calling thread.
    pub workers: usize,
    /// Ignored: attempts run on the calling thread's executor pool, which
    /// grows on demand.
    pub pool_width: usize,
    /// Cooperative stop token: checked between attempts, so a reproduction
    /// can be cut short by a wall-clock budget (`pres reproduce
    /// --timeout-secs`, the daemon's per-job timeout) or an external
    /// cancellation. `None` (the default) never stops early.
    pub stop: Option<StopToken>,
}

/// A cooperative cancellation handle for a reproduction in flight.
///
/// The explorer polls [`StopToken::is_stopped`] before claiming each
/// attempt; it never interrupts an attempt mid-run, so stopping is always
/// clean — the [`Reproduction`] reports the attempts actually spent and
/// sets [`Reproduction::stopped`]. A token trips either explicitly
/// ([`StopToken::stop`]) or by passing its deadline, which makes a
/// wall-clock budget a one-liner: `StopToken::after(timeout)`.
#[derive(Debug, Clone, Default)]
pub struct StopToken {
    flag: Arc<AtomicBool>,
    deadline: Option<Instant>,
}

impl StopToken {
    /// A token with no deadline; trips only via [`StopToken::stop`].
    pub fn new() -> Self {
        StopToken::default()
    }

    /// A token that trips once `budget` wall-clock time has elapsed (or
    /// earlier via [`StopToken::stop`]).
    pub fn after(budget: Duration) -> Self {
        StopToken {
            flag: Arc::new(AtomicBool::new(false)),
            deadline: Some(Instant::now() + budget),
        }
    }

    /// A token that trips at `deadline`.
    pub fn at(deadline: Instant) -> Self {
        StopToken {
            flag: Arc::new(AtomicBool::new(false)),
            deadline: Some(deadline),
        }
    }

    /// Trips the token: every explorer sharing it stops claiming attempts.
    pub fn stop(&self) {
        self.flag.store(true, Ordering::SeqCst);
    }

    /// Whether the token has tripped (explicitly or by deadline).
    pub fn is_stopped(&self) -> bool {
        self.flag.load(Ordering::SeqCst)
            || self.deadline.is_some_and(|d| Instant::now() >= d)
    }
}

/// Frontier discipline for the feedback strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SearchOrder {
    /// Breadth-first (default).
    Bfs,
    /// Depth-first (the ablation alternative).
    Dfs,
}

impl SearchOrder {
    /// Display name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            SearchOrder::Bfs => "bfs",
            SearchOrder::Dfs => "dfs",
        }
    }
}

impl Default for ExploreConfig {
    fn default() -> Self {
        ExploreConfig {
            strategy: Strategy::Feedback,
            max_attempts: 1000,
            base_seed: 0x5eed,
            fanout: 12,
            restart_period: 10,
            ranking: feedback::Ranking::LocksetThenRecency,
            search: SearchOrder::Bfs,
            workers: 1,
            pool_width: 8,
            stop: None,
        }
    }
}

/// One attempt's summary.
#[derive(Debug, Clone)]
pub struct AttemptRecord {
    /// 1-based attempt number.
    pub index: u32,
    /// Whether the attempt ended in the target failure.
    pub reproduced: bool,
    /// Whether the attempt aborted because replay stalled: every enabled
    /// thread was held back by the sketch order or a flip constraint. A
    /// thread that leaves the recorded path relaxes enforcement instead.
    pub diverged: bool,
    /// Final status, rendered.
    pub status: String,
    /// Number of flip constraints active.
    pub constraints: usize,
    /// Exploration seed used.
    pub seed: u64,
    /// Canonical plan signature (seed plus sorted constraints). Unique
    /// across a reproduction's history: the explorer never spends budget
    /// on a plan it has already tried.
    pub plan: String,
}

/// The result of a reproduction effort.
#[derive(Debug, Clone)]
pub struct Reproduction {
    /// Whether the bug was reproduced within budget.
    pub reproduced: bool,
    /// Attempts consumed (= index of the successful attempt if reproduced).
    pub attempts: u32,
    /// The minted certificate, if reproduced.
    pub certificate: Option<Certificate>,
    /// Per-attempt history, ordered by attempt index.
    pub history: Vec<AttemptRecord>,
    /// Whether the effort ended because [`ExploreConfig::stop`] tripped
    /// (wall-clock timeout or external cancellation) before the attempt
    /// budget was spent. Always `false` on success.
    pub stopped: bool,
    /// Fast-forward verification outcome for checkpoint-bearing (ring-
    /// flushed) sketches; `None` for classic sketches and genesis
    /// checkpoints. A failed verification aborts the reproduction before
    /// any attempt is spent.
    pub checkpoint: Option<CheckpointStatus>,
}

/// The one-time integrity check run before exploring a ring-flushed
/// sketch: the production prefix is re-executed
/// ([`crate::recorder::verify_checkpoint`]) and the state snapshot at the
/// boundary byte-compared against the one the flush embedded.
#[derive(Debug, Clone)]
pub struct CheckpointStatus {
    /// The checkpoint boundary, in picks.
    pub boundary: u64,
    /// Whether the re-derived boundary snapshot matched byte-for-byte.
    pub verified: bool,
    /// The mismatch explanation when `verified` is false.
    pub detail: Option<String>,
}

#[derive(Debug, Clone)]
struct Plan {
    seed: u64,
    constraints: Vec<OrderConstraint>,
}

fn plan_signature(constraints: &[OrderConstraint], seed: u64) -> String {
    let mut cs: Vec<String> = constraints.iter().map(|c| c.to_string()).collect();
    cs.sort();
    format!("{seed}|{}", cs.join(";"))
}

/// The signature the plan `base + [extra]` *would* have — lets the dedup
/// check run before the constraint vector is cloned.
fn plan_signature_with(base: &[OrderConstraint], extra: &OrderConstraint, seed: u64) -> String {
    let mut cs: Vec<String> = base.iter().map(|c| c.to_string()).collect();
    cs.push(extra.to_string());
    cs.sort();
    format!("{seed}|{}", cs.join(";"))
}

/// The search state: the plan frontier plus the signature set of every
/// plan ever scheduled.
struct SearchState {
    frontier: VecDeque<Plan>,
    /// Signatures of every plan ever handed out — the dedup ledger.
    tried: BTreeSet<String>,
    /// Restart counter: round `k` proposes base seed + `k`.
    round: u64,
    /// Random-strategy seed cursor; monotone so no two attempts derive the
    /// same seed.
    random_cursor: u64,
}

impl SearchState {
    fn new(explore: &ExploreConfig) -> SearchState {
        let mut tried = BTreeSet::new();
        tried.insert(plan_signature(&[], explore.base_seed));
        SearchState {
            frontier: VecDeque::from([Plan {
                seed: explore.base_seed,
                constraints: Vec::new(),
            }]),
            tried,
            round: 0,
            random_cursor: 0,
        }
    }

    /// A fresh-seed restart plan that has never been tried. The round
    /// counter advances until the signature is fresh, so a restart never
    /// silently repeats an interleaving the budget already paid for.
    fn restart_plan(&mut self, explore: &ExploreConfig) -> Plan {
        loop {
            self.round += 1;
            let seed = explore.base_seed.wrapping_add(self.round);
            if self.tried.insert(plan_signature(&[], seed)) {
                return Plan {
                    seed,
                    constraints: Vec::new(),
                };
            }
        }
    }

    /// The plan for attempt `attempt` (1-based).
    fn next_plan(&mut self, explore: &ExploreConfig, attempt: u32) -> Plan {
        match explore.strategy {
            Strategy::Random => loop {
                // Random is the no-feedback ablation, but it still must not
                // waste budget: advance the cursor until the derived seed's
                // signature is fresh.
                self.random_cursor += 1;
                let seed = explore
                    .base_seed
                    .wrapping_add(self.random_cursor.wrapping_mul(0x9e37_79b9_7f4a_7c15));
                if self.tried.insert(plan_signature(&[], seed)) {
                    return Plan {
                        seed,
                        constraints: Vec::new(),
                    };
                }
            },
            Strategy::Feedback => {
                let restart = explore.restart_period > 0
                    && attempt > 1
                    && (attempt - 1).is_multiple_of(explore.restart_period);
                if restart {
                    return self.restart_plan(explore);
                }
                let popped = match explore.search {
                    SearchOrder::Bfs => self.frontier.pop_front(),
                    SearchOrder::Dfs => self.frontier.pop_back(),
                };
                popped.unwrap_or_else(|| self.restart_plan(explore))
            }
        }
    }

    /// Ranks a failed attempt's flip candidates — the extractor already did
    /// the happens-before analysis during the run — and merges the best
    /// `fanout` of them back into the frontier, best-first, deduplicated
    /// against every plan ever scheduled.
    fn merge_feedback(
        &mut self,
        explore: &ExploreConfig,
        plan: &Plan,
        extractor: feedback::StreamingExtractor,
    ) {
        let mut cands = extractor.finish_ranked(explore.ranking);
        cands.truncate(explore.fanout);
        // DFS pops from the back, so highest priority must land last.
        if explore.search == SearchOrder::Dfs {
            cands.reverse();
        }
        for cand in cands {
            if plan.constraints.contains(&cand.constraint) {
                continue;
            }
            // Signature first: the constraint vector is cloned only for
            // plans that actually enter the frontier, not for every
            // candidate the dedup ledger rejects.
            let signature = plan_signature_with(&plan.constraints, &cand.constraint, plan.seed);
            if self.tried.insert(signature) {
                let mut constraints = plan.constraints.clone();
                constraints.push(cand.constraint);
                // Breadth-first: every single flip is tried before any
                // composed set; `cands` arrives best-first.
                self.frontier.push_back(Plan {
                    seed: plan.seed,
                    constraints,
                });
            }
        }
    }
}

/// Forwards only post-boundary events to the wrapped extractor: during
/// fast-forward the attempt is replaying the production prefix, which must
/// not contribute flip candidates (their action indices would also
/// disagree with the replay scheduler's boundary-origin counters).
struct WindowObserver<'a> {
    boundary: u64,
    inner: &'a mut feedback::StreamingExtractor,
}

impl Observer for WindowObserver<'_> {
    fn on_event(&mut self, event: &Event) -> ObserverCharge {
        if event.gseq >= self.boundary {
            self.inner.on_event(event)
        } else {
            ObserverCharge::FREE
        }
    }
}

/// Runs one replay attempt for a plan against the shared sketch index, on
/// `pool`'s workers when given one and on the calling thread's pool
/// otherwise.
///
/// Feedback attempts deliver their post-boundary events to a
/// [`feedback::StreamingExtractor`] and buffer no trace; random attempts
/// need no events at all (the oracle judges status and schedule only), so
/// they return no extractor.
fn run_attempt(
    program: &dyn Program,
    index: &Arc<SketchIndex>,
    vm_config: &VmConfig,
    explore: &ExploreConfig,
    plan: &Plan,
    pool: Option<&VthreadPool>,
) -> (RunOutcome, Option<feedback::StreamingExtractor>) {
    let mut sched =
        FastForwardScheduler::with_index(Arc::clone(index), plan.constraints.clone(), plan.seed);
    let boundary = sched.boundary();
    let mut cfg = vm_config.clone();
    cfg.world = program.world();
    let mut extractor =
        (explore.strategy == Strategy::Feedback).then(feedback::StreamingExtractor::new);
    let mut window;
    let observer: &mut dyn Observer = match extractor.as_mut() {
        Some(inner) => {
            cfg.trace_mode = TraceMode::Feedback;
            window = WindowObserver { boundary, inner };
            &mut window
        }
        None => {
            cfg.trace_mode = TraceMode::Off;
            &mut NullObserver
        }
    };
    let body = program.root();
    let resources = program.resources();
    let out = match pool {
        Some(pool) => vm::run_with_pool(cfg, resources, &mut sched, observer, pool, move |ctx| {
            body(ctx)
        }),
        None => vm::run(cfg, resources, &mut sched, observer, move |ctx| body(ctx)),
    };
    (out, extractor)
}

fn attempt_record(attempt: u32, plan: &Plan, out: &RunOutcome, reproduced: bool) -> AttemptRecord {
    AttemptRecord {
        index: attempt,
        reproduced,
        diverged: matches!(&out.status, RunStatus::Aborted(_)),
        status: out.status.to_string(),
        constraints: plan.constraints.len(),
        seed: plan.seed,
        plan: plan_signature(&plan.constraints, plan.seed),
    }
}

/// Runs the reproduction loop for a recorded failure.
///
/// `target_signature` is the failure signature the production run exhibited
/// (from [`crate::sketch::SketchMeta::failure_signature`]).
pub fn reproduce(
    program: &dyn Program,
    sketch: &Sketch,
    target_signature: &str,
    vm_config: &VmConfig,
    explore: &ExploreConfig,
) -> Reproduction {
    reproduce_with_oracle(
        program,
        sketch,
        &StatusOracle::new(target_signature),
        vm_config,
        explore,
    )
}

/// As [`reproduce`], but the bug's manifestation is decided by an arbitrary
/// [`FailureOracle`] — the hook through which silent-corruption bugs
/// (wrong output, no crash) are reproduced. The minted certificate's
/// expected signature is whatever the oracle reported; verify such
/// certificates with [`Certificate::replay_with`].
pub fn reproduce_with_oracle(
    program: &dyn Program,
    sketch: &Sketch,
    oracle: &dyn FailureOracle,
    vm_config: &VmConfig,
    explore: &ExploreConfig,
) -> Reproduction {
    reproduce_with_oracle_and_pool(program, sketch, oracle, vm_config, explore, None)
}

/// As [`reproduce_with_oracle`], running the checkpoint check and every
/// attempt on `pool` instead of the calling thread's own pool (`None`).
/// Pool identity is schedule-invisible, so results are byte-identical
/// either way.
pub fn reproduce_with_oracle_and_pool(
    program: &dyn Program,
    sketch: &Sketch,
    oracle: &dyn FailureOracle,
    vm_config: &VmConfig,
    explore: &ExploreConfig,
    pool: Option<&VthreadPool>,
) -> Reproduction {
    // One immutable index serves every attempt: the sketch is scanned
    // exactly once per reproduction, not once per scheduler construction.
    let index = Arc::new(SketchIndex::new(sketch));
    reproduce_with_index(program, &index, oracle, vm_config, explore, pool)
}

/// As [`reproduce_with_oracle_and_pool`], but against a caller-built
/// [`SketchIndex`]. The index is a pure function of the sketch, so a
/// caller that runs many reproductions of one sketch (the `pres-svc`
/// decode cache) can build it once and share it; the search — and the
/// minted certificate — is byte-identical to the sketch-taking entry
/// points.
pub fn reproduce_with_index(
    program: &dyn Program,
    index: &Arc<SketchIndex>,
    oracle: &dyn FailureOracle,
    vm_config: &VmConfig,
    explore: &ExploreConfig,
    pool: Option<&VthreadPool>,
) -> Reproduction {
    // Ring-flushed sketches are verified once, up front: re-derive the
    // boundary snapshot from the production seed and byte-compare it with
    // the one the flush embedded. Exploring past a bogus checkpoint would
    // replay a window that never happened, so a mismatch aborts before any
    // attempt is spent.
    let checkpoint = match index.checkpoint().filter(|cp| !cp.is_genesis()) {
        Some(cp) => {
            match verify_checkpoint(program, cp, index.mechanism(), vm_config, pool) {
                Ok(()) => Some(CheckpointStatus {
                    boundary: cp.boundary,
                    verified: true,
                    detail: None,
                }),
                Err(detail) => {
                    return Reproduction {
                        reproduced: false,
                        attempts: 0,
                        certificate: None,
                        history: Vec::new(),
                        stopped: false,
                        checkpoint: Some(CheckpointStatus {
                            boundary: cp.boundary,
                            verified: false,
                            detail: Some(detail),
                        }),
                    };
                }
            }
        }
        None => None,
    };
    let mut rep = run_search(program, index, oracle, vm_config, explore, pool);
    rep.checkpoint = checkpoint;
    rep
}

fn run_search(
    program: &dyn Program,
    index: &Arc<SketchIndex>,
    oracle: &dyn FailureOracle,
    vm_config: &VmConfig,
    explore: &ExploreConfig,
    pool: Option<&VthreadPool>,
) -> Reproduction {
    let mut history = Vec::new();
    let mut search = SearchState::new(explore);

    for attempt in 1..=explore.max_attempts {
        if explore.stop.as_ref().is_some_and(StopToken::is_stopped) {
            return Reproduction {
                reproduced: false,
                attempts: attempt - 1,
                certificate: None,
                history,
                stopped: true,
                checkpoint: None,
            };
        }
        let plan = search.next_plan(explore, attempt);
        let (out, extractor) = run_attempt(program, index, vm_config, explore, &plan, pool);
        let verdict = oracle.judge(&out);
        history.push(attempt_record(attempt, &plan, &out, verdict.is_some()));

        if let Some(signature) = verdict {
            let certificate = Certificate {
                program: program.name(),
                schedule: out.schedule,
                expected_signature: signature,
                processors: vm_config.processors,
            };
            return Reproduction {
                reproduced: true,
                attempts: attempt,
                certificate: Some(certificate),
                history,
                stopped: false,
                checkpoint: None,
            };
        }

        if let Some(extractor) = extractor {
            search.merge_feedback(explore, &plan, extractor);
        }
    }

    Reproduction {
        reproduced: false,
        attempts: explore.max_attempts,
        certificate: None,
        history,
        stopped: false,
        checkpoint: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::ClosureProgram;
    use crate::recorder::record_until_failure;
    use crate::sketch::Mechanism;
    use pres_tvm::prelude::*;
    use std::collections::BTreeSet;

    /// The canonical atomicity violation: unprotected read-compute-write
    /// with plenty of surrounding work so the window rarely splits.
    fn atomicity_program() -> impl Program {
        let mut spec = ResourceSpec::new();
        let counter = spec.var("counter", 0);
        let m = spec.lock("m");
        let noise = spec.var("noise", 0);
        ClosureProgram::new("atomicity", spec, WorldConfig::default(), move || {
            Box::new(move |ctx: &mut Ctx| {
                let kids: Vec<ThreadId> = (0..2)
                    .map(|i| {
                        ctx.spawn(&format!("w{i}"), move |ctx| {
                            for k in 0..6u64 {
                                // Plenty of properly-locked work.
                                ctx.with_lock(m, |ctx| {
                                    let v = ctx.read(noise);
                                    ctx.write(noise, v + k);
                                });
                                ctx.compute(40);
                            }
                            // The buggy window: unprotected RMW.
                            let v = ctx.read(counter);
                            ctx.compute(8);
                            ctx.write(counter, v + 1);
                        })
                    })
                    .collect();
                for k in kids {
                    ctx.join(k);
                }
                let total = ctx.read(counter);
                ctx.check(total == 2, "lost update");
            })
        })
    }

    #[test]
    fn rw_sketch_reproduces_on_first_attempt() {
        let prog = atomicity_program();
        let config = VmConfig::default();
        let run = record_until_failure(&prog, Mechanism::Rw, &config, 0..2000)
            .expect("failing seed exists");
        let rep = reproduce(
            &prog,
            &run.sketch,
            &run.sketch.meta.failure_signature,
            &config,
            &ExploreConfig::default(),
        );
        assert!(rep.reproduced);
        assert_eq!(rep.attempts, 1, "{:#?}", rep.history);
    }

    #[test]
    fn sync_sketch_with_feedback_reproduces_quickly() {
        let prog = atomicity_program();
        let config = VmConfig::default();
        let run = record_until_failure(&prog, Mechanism::Sync, &config, 0..2000)
            .expect("failing seed exists");
        let rep = reproduce(
            &prog,
            &run.sketch,
            &run.sketch.meta.failure_signature,
            &config,
            &ExploreConfig::default(),
        );
        assert!(rep.reproduced, "{:#?}", rep.history);
        assert!(
            rep.attempts <= 10,
            "feedback should reproduce within 10 attempts, took {}",
            rep.attempts
        );
        // The certificate reproduces deterministically.
        let cert = rep.certificate.expect("certificate minted");
        for _ in 0..5 {
            cert.replay(&prog).expect("certificate replays");
        }
    }

    #[test]
    fn feedback_beats_random_on_attempts() {
        let prog = atomicity_program();
        let config = VmConfig::default();
        let run = record_until_failure(&prog, Mechanism::Sync, &config, 0..2000)
            .expect("failing seed exists");
        let target = run.sketch.meta.failure_signature.clone();
        let fb = reproduce(
            &prog,
            &run.sketch,
            &target,
            &config,
            &ExploreConfig {
                strategy: Strategy::Feedback,
                max_attempts: 200,
                ..ExploreConfig::default()
            },
        );
        let rnd = reproduce(
            &prog,
            &run.sketch,
            &target,
            &config,
            &ExploreConfig {
                strategy: Strategy::Random,
                max_attempts: 200,
                ..ExploreConfig::default()
            },
        );
        assert!(fb.reproduced);
        let rnd_attempts = if rnd.reproduced { rnd.attempts } else { 201 };
        assert!(
            fb.attempts <= rnd_attempts,
            "feedback {} vs random {rnd_attempts}",
            fb.attempts
        );
    }

    #[test]
    fn unreproducible_target_exhausts_budget() {
        let prog = atomicity_program();
        let config = VmConfig::default();
        let run = record_until_failure(&prog, Mechanism::Sync, &config, 0..2000).unwrap();
        let rep = reproduce(
            &prog,
            &run.sketch,
            "assert:some bug that does not exist",
            &config,
            &ExploreConfig {
                max_attempts: 5,
                ..ExploreConfig::default()
            },
        );
        assert!(!rep.reproduced);
        assert_eq!(rep.attempts, 5);
        assert!(rep.certificate.is_none());
        assert_eq!(rep.history.len(), 5);
    }

    #[test]
    fn dfs_search_also_reproduces() {
        let prog = atomicity_program();
        let config = VmConfig::default();
        let run = record_until_failure(&prog, Mechanism::Sync, &config, 0..2000).unwrap();
        let rep = reproduce(
            &prog,
            &run.sketch,
            &run.sketch.meta.failure_signature,
            &config,
            &ExploreConfig {
                search: SearchOrder::Dfs,
                max_attempts: 200,
                ..ExploreConfig::default()
            },
        );
        assert!(rep.reproduced, "{:#?}", rep.history);
    }

    #[test]
    fn restarts_can_be_disabled() {
        let prog = atomicity_program();
        let config = VmConfig::default();
        let run = record_until_failure(&prog, Mechanism::Sync, &config, 0..2000).unwrap();
        let rep = reproduce(
            &prog,
            &run.sketch,
            &run.sketch.meta.failure_signature,
            &config,
            &ExploreConfig {
                restart_period: 0,
                max_attempts: 200,
                ..ExploreConfig::default()
            },
        );
        assert!(rep.reproduced);
        // Without restarts, every attempt uses the base seed.
        assert!(rep
            .history
            .iter()
            .all(|h| h.seed == ExploreConfig::default().base_seed));
    }

    #[test]
    fn history_indices_are_sequential() {
        let prog = atomicity_program();
        let config = VmConfig::default();
        let run = record_until_failure(&prog, Mechanism::Sync, &config, 0..2000).unwrap();
        let rep = reproduce(
            &prog,
            &run.sketch,
            "assert:never",
            &config,
            &ExploreConfig {
                max_attempts: 4,
                ..ExploreConfig::default()
            },
        );
        let idx: Vec<u32> = rep.history.iter().map(|h| h.index).collect();
        assert_eq!(idx, vec![1, 2, 3, 4]);
    }

    #[test]
    fn serial_history_never_repeats_a_plan() {
        let prog = atomicity_program();
        let config = VmConfig::default();
        let run = record_until_failure(&prog, Mechanism::Sync, &config, 0..2000).unwrap();
        // An unmatchable target forces the full budget, restarts included.
        let rep = reproduce(
            &prog,
            &run.sketch,
            "assert:never",
            &config,
            &ExploreConfig {
                max_attempts: 60,
                restart_period: 3,
                ..ExploreConfig::default()
            },
        );
        let plans: BTreeSet<&str> = rep.history.iter().map(|h| h.plan.as_str()).collect();
        assert_eq!(
            plans.len(),
            rep.history.len(),
            "duplicate (seed, constraints) plan in serial history"
        );
    }

    #[test]
    fn random_strategy_never_repeats_a_seed() {
        let prog = atomicity_program();
        let config = VmConfig::default();
        let run = record_until_failure(&prog, Mechanism::Sync, &config, 0..2000).unwrap();
        let rep = reproduce(
            &prog,
            &run.sketch,
            "assert:never",
            &config,
            &ExploreConfig {
                strategy: Strategy::Random,
                max_attempts: 60,
                ..ExploreConfig::default()
            },
        );
        let seeds: BTreeSet<u64> = rep.history.iter().map(|h| h.seed).collect();
        assert_eq!(seeds.len(), rep.history.len());
        // And none of them equals the pre-seeded base plan's seed.
        assert!(seeds.iter().all(|&s| s != ExploreConfig::default().base_seed));
    }

    #[test]
    fn pre_tripped_stop_token_spends_no_attempts() {
        let prog = atomicity_program();
        let config = VmConfig::default();
        let run = record_until_failure(&prog, Mechanism::Sync, &config, 0..2000).unwrap();
        let token = StopToken::new();
        token.stop();
        let rep = reproduce(
            &prog,
            &run.sketch,
            &run.sketch.meta.failure_signature,
            &config,
            &ExploreConfig {
                stop: Some(token),
                ..ExploreConfig::default()
            },
        );
        assert!(!rep.reproduced);
        assert!(rep.stopped);
        assert_eq!(rep.attempts, 0);
        assert!(rep.history.is_empty());
    }

    #[test]
    fn deadline_stop_token_cuts_an_unmatchable_search_short() {
        let prog = atomicity_program();
        let config = VmConfig::default();
        let run = record_until_failure(&prog, Mechanism::Sync, &config, 0..2000).unwrap();
        // An unmatchable target would otherwise burn the full budget; the
        // deadline must cut it short well below the cap.
        let rep = reproduce(
            &prog,
            &run.sketch,
            "assert:never",
            &config,
            &ExploreConfig {
                max_attempts: 1_000_000,
                stop: Some(StopToken::after(Duration::from_millis(100))),
                ..ExploreConfig::default()
            },
        );
        assert!(!rep.reproduced);
        assert!(rep.stopped);
        assert!(rep.attempts < 1_000_000);
        assert_eq!(rep.attempts as usize, rep.history.len());
    }

    #[test]
    fn stop_token_does_not_perturb_a_completed_search() {
        // A token that never trips must leave the reproduction identical
        // to a token-free run, plan for plan.
        let prog = atomicity_program();
        let config = VmConfig::default();
        let run = record_until_failure(&prog, Mechanism::Sync, &config, 0..2000).unwrap();
        let base = reproduce(
            &prog,
            &run.sketch,
            "assert:never",
            &config,
            &ExploreConfig {
                max_attempts: 20,
                ..ExploreConfig::default()
            },
        );
        let with_token = reproduce(
            &prog,
            &run.sketch,
            "assert:never",
            &config,
            &ExploreConfig {
                max_attempts: 20,
                stop: Some(StopToken::new()),
                ..ExploreConfig::default()
            },
        );
        assert!(!with_token.stopped);
        let plans = |rep: &Reproduction| -> Vec<String> {
            rep.history.iter().map(|h| h.plan.clone()).collect()
        };
        assert_eq!(plans(&base), plans(&with_token));
    }

    #[test]
    fn caller_pool_reuse_matches_thread_pool_results() {
        let prog = atomicity_program();
        let config = VmConfig::default();
        let run = record_until_failure(&prog, Mechanism::Sync, &config, 0..2000).unwrap();
        let explore = ExploreConfig::default();
        let on_thread = reproduce(
            &prog,
            &run.sketch,
            &run.sketch.meta.failure_signature,
            &config,
            &explore,
        );
        // One caller-owned pool serving several reproductions back to back.
        // Results must be byte-identical to the thread's own pool and the
        // pool must stop spawning after the first job warms it.
        let pool = VthreadPool::new(explore.pool_width);
        let mut spawned_after_first = 0;
        for round in 0..3 {
            let on_caller = reproduce_with_oracle_and_pool(
                &prog,
                &run.sketch,
                &crate::oracle::StatusOracle::new(&run.sketch.meta.failure_signature),
                &config,
                &explore,
                Some(&pool),
            );
            assert_eq!(on_caller.reproduced, on_thread.reproduced, "round {round}");
            assert_eq!(on_caller.attempts, on_thread.attempts, "round {round}");
            assert_eq!(
                on_caller.certificate.as_ref().map(Certificate::encode),
                on_thread.certificate.as_ref().map(Certificate::encode),
                "round {round}: certificates must be byte-identical"
            );
            match round {
                0 => spawned_after_first = pool.spawned_workers(),
                _ => assert_eq!(
                    pool.spawned_workers(),
                    spawned_after_first,
                    "warm pool must not spawn for later jobs"
                ),
            }
        }
    }
}
