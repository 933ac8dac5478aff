//! # pres-core — PRES: Probabilistic Replay with Execution Sketching
//!
//! A faithful reimplementation of the system described in
//! *"PRES: probabilistic replay with execution sketching on
//! multiprocessors"* (Park, Zhou, Xiong, Yin, Kaushik, Lee, Lu — SOSP
//! 2009), built on the deterministic multithreaded VM of [`pres_tvm`].
//!
//! Reproducing a concurrency bug requires capturing two kinds of
//! nondeterminism: inputs and thread interleaving. Recording the complete
//! interleaving (a global order over every shared-memory access — the
//! [`sketch::Mechanism::Rw`] baseline) makes replay deterministic on the
//! first attempt, but at production-run slowdowns users will not accept.
//! PRES's bet: record only a cheap *sketch* of the execution, then spend
//! effort at diagnosis time, when performance does not matter, searching
//! the unrecorded space — guided by feedback from each unsuccessful
//! attempt. Once any attempt reproduces the failure, its complete schedule
//! is minted into a [`certificate::Certificate`] that replays the bug
//! deterministically forever after.
//!
//! ## Architecture
//!
//! | Module | Role |
//! |---|---|
//! | [`sketch`] | the five sketching mechanisms (+ RW baseline) and their filters |
//! | [`codec`] | the compact binary log format (log-size accounting) |
//! | [`recorder`] | production-run recording and overhead measurement |
//! | [`replay`] | the sketch-constrained partial-information replayer |
//! | [`feedback`] | flip-candidate extraction from failed attempts |
//! | [`explore`] | the attempt loop (feedback strategy + random ablation) |
//! | [`certificate`] | deterministic reproduction certificates |
//! | [`inspect`] | human-readable diagnosis reports for failing executions |
//! | [`program`] | the re-runnable program abstraction |
//! | [`api`] | the [`api::Pres`] façade |
//!
//! See the crate-level example on [`api::Pres`] for the full
//! record → reproduce → certify pipeline.

pub mod api;
pub mod certificate;
pub mod codec;
pub mod explore;
pub mod feedback;
pub mod inspect;
pub mod oracle;
pub mod program;
pub mod recorder;
pub mod replay;
pub mod sketch;
pub mod stats;

pub use api::Pres;
pub use certificate::{Certificate, CertificateError};
pub use explore::{ExploreConfig, Reproduction, SearchOrder, StopToken, Strategy};
pub use oracle::{AnyOracle, FailureOracle, OutputOracle, StatusOracle};
pub use program::{ClosureProgram, Program};
pub use recorder::{
    RecordedRun, RecordingObserver, RecordingReport, RingConfig, SketchRecorder,
};
pub use replay::{ActionKey, ActionObj, OrderConstraint, PiReplayScheduler};
pub use sketch::{Mechanism, Sketch, SketchEntry, SketchIndex, SketchMeta, SketchOp};
