//! # pres-bench — the evaluation harness
//!
//! Regenerates every table and figure of the reconstructed evaluation
//! (DESIGN.md §5):
//!
//! | Binary | Experiment |
//! |---|---|
//! | `run_all` | E1–E10 (and E3b), the text pinned in `tests/data/paper.txt` |
//! | `fig_ring` | E21 always-on ring flushes, pinned in `BENCH_ring.json` |
//!
//! [`experiments::paper`] is the one entry point to E1–E10; `run_all`
//! prints it and `tests/paper.rs` diffs it against the pin.

pub mod experiments;
pub mod render;
