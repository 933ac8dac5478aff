//! # pres-bench — the evaluation harness
//!
//! Regenerates every table and figure of the reconstructed evaluation
//! (DESIGN.md §5). Each experiment has a binary that prints the table:
//!
//! | Binary | Experiment |
//! |---|---|
//! | `table_bugs` | E1 applications & bugs |
//! | `fig_overhead` | E2 recording overhead |
//! | `table_logsize` | E3 log sizes |
//! | `table_attempts` | E4 replay attempts per bug per mechanism |
//! | `fig_scalability` | E5 overhead/attempts vs. processor count |
//! | `fig_feedback` | E6 feedback vs. random ablation |
//! | `fig_bbn_sweep` | E8 BB-N granularity sweep |
//! | `run_all` | everything, in EXPERIMENTS.md order (incl. E7) |
//!
//! The wall-clock benches (`cargo bench`, driven by [`harness`]) measure
//! the same pipelines in real time: per-mechanism recording cost,
//! replay-attempt cost, codec throughput, the feedback analysis, and
//! parallel-reproduction scaling.

pub mod experiments;
pub mod harness;
pub mod render;
