//! # pres-tvm — a deterministic multithreaded virtual machine
//!
//! The execution substrate for the PRES reproduction (SOSP 2009,
//! "PRES: probabilistic replay with execution sketching on
//! multiprocessors"). The original system instruments native binaries with
//! Pin; this crate provides the equivalent capability as a library: programs
//! are written against an instrumented API ([`vm::Ctx`]) in which **every**
//! interaction with shared state — memory accesses, synchronization, system
//! calls, and the pure markers used by sketching — is an explicit,
//! schedulable, recordable event.
//!
//! Key properties:
//!
//! * **Determinism.** A run is a pure function of (program, world
//!   configuration, scheduler decisions). Identical seeds produce identical
//!   traces; a recorded pick sequence replays exactly.
//! * **All nondeterminism is capturable.** Interleaving nondeterminism is
//!   the scheduler's pick sequence; input nondeterminism flows through
//!   simulated system calls whose results are part of every sketch.
//! * **Virtual time.** A cost model ([`cost::CostModel`]) and clock
//!   ([`clock::VClock`]) estimate the makespan on a `P`-processor machine,
//!   including the serialization penalty of total-order recording — the
//!   quantity behind the paper's overhead and scalability results.
//!
//! ## Quick example
//!
//! ```
//! use pres_tvm::prelude::*;
//!
//! let mut spec = ResourceSpec::new();
//! let counter = spec.var("counter", 0);
//! let out = pres_tvm::vm::run(
//!     VmConfig::default(),
//!     spec,
//!     &mut RandomScheduler::new(42),
//!     &mut NullObserver,
//!     move |ctx| {
//!         let worker = ctx.spawn("worker", move |ctx| {
//!             ctx.fetch_add(counter, 1);
//!         });
//!         ctx.fetch_add(counter, 1);
//!         ctx.join(worker);
//!         let total = ctx.read(counter);
//!         ctx.check(total == 2, "atomic increments cannot be lost");
//!     },
//! );
//! assert_eq!(out.status, RunStatus::Completed);
//! ```

pub mod bytes;
pub mod clock;
pub mod cost;
pub mod deadlock;
pub mod error;
pub mod ids;
pub mod op;
pub mod pool;
pub mod rng;
pub mod sched;
pub mod snapshot;
pub mod state;
pub mod sync;
pub mod sys;
pub mod trace;
pub mod vm;

/// Convenient glob import for application and test code.
pub mod prelude {
    pub use crate::clock::TimeReport;
    pub use crate::cost::CostModel;
    pub use crate::error::{Failure, RunStatus};
    pub use crate::ids::{
        BarrierId, BbId, BufId, ChanId, CondId, ConnId, FdId, FuncId, LockId, RwLockId, SemId,
        ThreadId, VarId, ROOT_THREAD,
    };
    pub use crate::op::{BufOp, MemLoc, Op, OpResult, SyscallOp};
    pub use crate::pool::VthreadPool;
    pub use crate::sched::{
        Candidate, Decision, RandomScheduler, RoundRobinScheduler, SchedView, Scheduler,
        ScriptedScheduler,
    };
    pub use crate::snapshot::VmSnapshot;
    pub use crate::state::ResourceSpec;
    pub use crate::sys::{Session, WorldConfig};
    pub use crate::trace::{Event, NullObserver, Observer, ObserverCharge, Trace, TraceMode};
    pub use crate::vm::{run, run_with_pool, Ctx, RunOutcome, RunStats, VmConfig};
}
