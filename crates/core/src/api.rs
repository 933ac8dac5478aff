//! The top-level PRES API: record production runs, reproduce failures.
//!
//! This is the façade a downstream user drives:
//!
//! ```
//! use pres_core::api::Pres;
//! use pres_core::program::ClosureProgram;
//! use pres_core::sketch::Mechanism;
//! use pres_tvm::prelude::*;
//!
//! // A tiny racy program: two unprotected increments.
//! let mut spec = ResourceSpec::new();
//! let x = spec.var("x", 0);
//! let prog = ClosureProgram::new("demo", spec, WorldConfig::default(), move || {
//!     Box::new(move |ctx: &mut Ctx| {
//!         let t = ctx.spawn("w", move |ctx| {
//!             let v = ctx.read(x);
//!             ctx.compute(20);
//!             ctx.write(x, v + 1);
//!         });
//!         let v = ctx.read(x);
//!         ctx.compute(20);
//!         ctx.write(x, v + 1);
//!         ctx.join(t);
//!         let total = ctx.read(x);
//!         ctx.check(total == 2, "lost update");
//!     })
//! });
//!
//! let pres = Pres::new(Mechanism::Sync);
//! // Production: record (cheaply) until the bug bites.
//! let recorded = pres
//!     .record_until_failure(&prog, 0..2000)
//!     .expect("some production run fails");
//! // Diagnosis: search the unrecorded interleaving space.
//! let repro = pres.reproduce(&prog, &recorded);
//! assert!(repro.reproduced);
//! // Forever after: deterministic replay.
//! let cert = repro.certificate.unwrap();
//! cert.replay(&prog).expect("reproduces every time");
//! ```

use crate::explore::{self, ExploreConfig, Reproduction, Strategy};
use crate::recorder::{self, RecordedRun, RingConfig};
use crate::sketch::Mechanism;
use crate::program::Program;
use pres_tvm::vm::VmConfig;

/// PRES configured for one mechanism and machine model.
#[derive(Debug, Clone)]
pub struct Pres {
    /// The sketching mechanism used during production recording.
    pub mechanism: Mechanism,
    /// The simulated machine (processors, cost model, step budget).
    pub vm: VmConfig,
    /// Exploration parameters for diagnosis time.
    pub explore: ExploreConfig,
    /// Always-on ring recording: when set, [`Pres::record`] and
    /// [`Pres::record_until_failure`] keep only the last
    /// `ring_epochs` epochs plus a restart checkpoint, and a failing
    /// run's sketch replays from that retained window.
    pub ring: Option<RingConfig>,
}

impl Pres {
    /// PRES with default machine and exploration settings.
    pub fn new(mechanism: Mechanism) -> Self {
        Pres {
            mechanism,
            vm: VmConfig::default(),
            explore: ExploreConfig::default(),
            ring: None,
        }
    }

    /// Switches recording to always-on ring mode with the given epoch
    /// budgets and retention.
    pub fn with_ring(mut self, ring: RingConfig) -> Self {
        self.ring = Some(ring);
        self
    }

    /// Sets the simulated processor count.
    pub fn with_processors(mut self, processors: u32) -> Self {
        self.vm.processors = processors;
        self
    }

    /// Sets the exploration strategy (feedback vs. the random ablation).
    pub fn with_strategy(mut self, strategy: Strategy) -> Self {
        self.explore.strategy = strategy;
        self
    }

    /// Sets the attempt budget.
    pub fn with_max_attempts(mut self, max_attempts: u32) -> Self {
        self.explore.max_attempts = max_attempts;
        self
    }

    /// Records one production run under this mechanism (running the
    /// workload natively as well, for exact overhead accounting).
    pub fn record(&self, program: &dyn Program, seed: u64) -> RecordedRun {
        match &self.ring {
            Some(ring) => {
                recorder::record_ring(program, self.mechanism, ring.clone(), &self.vm, seed)
            }
            None => recorder::record(program, self.mechanism, &self.vm, seed),
        }
    }

    /// Records production runs across `seeds` until one fails.
    pub fn record_until_failure(
        &self,
        program: &dyn Program,
        seeds: impl IntoIterator<Item = u64>,
    ) -> Option<RecordedRun> {
        match &self.ring {
            Some(ring) => recorder::record_ring_until_failure(
                program,
                self.mechanism,
                ring.clone(),
                &self.vm,
                seeds,
            ),
            None => recorder::record_until_failure(program, self.mechanism, &self.vm, seeds),
        }
    }

    /// Reproduces the failure captured by a recorded run.
    ///
    /// # Panics
    ///
    /// Panics if the recorded run did not fail — there is nothing to
    /// reproduce from a clean run.
    pub fn reproduce(&self, program: &dyn Program, recorded: &RecordedRun) -> Reproduction {
        assert!(
            recorded.failed(),
            "reproduce() needs a failing production run; this one completed cleanly"
        );
        explore::reproduce(
            program,
            &recorded.sketch,
            &recorded.sketch.meta.failure_signature,
            &self.vm,
            &self.explore,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::ClosureProgram;
    use pres_tvm::prelude::*;

    fn racy() -> impl Program {
        let mut spec = ResourceSpec::new();
        let x = spec.var("x", 0);
        ClosureProgram::new("racy", spec, WorldConfig::default(), move || {
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
        })
    }

    #[test]
    fn end_to_end_record_reproduce_certify() {
        let prog = racy();
        let pres = Pres::new(Mechanism::Sync);
        let recorded = pres
            .record_until_failure(&prog, 0..2000)
            .expect("failing production run");
        let repro = pres.reproduce(&prog, &recorded);
        assert!(repro.reproduced, "{:#?}", repro.history);
        let cert = repro.certificate.unwrap();
        for _ in 0..3 {
            cert.replay(&prog).unwrap();
        }
    }

    #[test]
    #[should_panic(expected = "failing production run")]
    fn reproducing_a_clean_run_is_a_programming_error() {
        // Deterministic single-thread program never fails.
        let mut spec = ResourceSpec::new();
        let x = spec.var("x", 0);
        let prog = ClosureProgram::new("clean", spec, WorldConfig::default(), move || {
            Box::new(move |ctx: &mut Ctx| {
                ctx.write(x, 1);
            })
        });
        let pres = Pres::new(Mechanism::Sync);
        let run = pres.record(&prog, 0);
        let _ = pres.reproduce(&prog, &run);
    }

    #[test]
    fn builder_methods_configure() {
        let pres = Pres::new(Mechanism::Rw)
            .with_processors(16)
            .with_strategy(Strategy::Random)
            .with_max_attempts(50);
        assert_eq!(pres.vm.processors, 16);
        assert_eq!(pres.explore.strategy, Strategy::Random);
        assert_eq!(pres.explore.max_attempts, 50);
    }

    #[test]
    fn ring_recording_reproduces_through_the_facade() {
        let prog = racy();
        let pres = Pres::new(Mechanism::Sync).with_ring(RingConfig::default());
        let recorded = pres
            .record_until_failure(&prog, 0..2000)
            .expect("failing production run");
        assert!(
            recorded.sketch.checkpoint.is_some(),
            "ring mode always attaches a checkpoint"
        );
        let repro = pres.reproduce(&prog, &recorded);
        assert!(repro.reproduced, "{:#?}", repro.history);
        repro.certificate.unwrap().replay(&prog).unwrap();
    }
}
