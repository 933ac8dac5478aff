//! Sketch composition analytics: what a log is made of, byte by byte.
//!
//! The log-size experiment (E3) reports totals; this module breaks a
//! sketch down by event class — how many entries and bytes each class
//! contributes — which is how one decides *what to stop recording next*
//! when production overhead must come down. Also computes the compression
//! ratio of the varint codec against a naive fixed-width encoding.
//!
//! Also home to [`ExploreStats`]: the per-reproduction summary the CLI
//! prints after an exploration run — attempts, divergences, distinct base
//! interleavings, constraint depth.

use crate::codec;
use crate::explore::Reproduction;
use crate::sketch::{Sketch, SketchOp};
use std::collections::BTreeSet;
use std::fmt;

/// The event classes a sketch entry can belong to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum EntryClass {
    /// Thread lifecycle (start/exit/spawn/join).
    Lifecycle,
    /// Shared-memory accesses.
    Memory,
    /// Synchronization operations.
    Sync,
    /// System calls (including recorded results).
    Syscall,
    /// Function-entry markers.
    Func,
    /// Basic-block markers.
    BasicBlock,
}

impl EntryClass {
    /// All classes, in display order.
    pub fn all() -> [EntryClass; 6] {
        [
            EntryClass::Lifecycle,
            EntryClass::Memory,
            EntryClass::Sync,
            EntryClass::Syscall,
            EntryClass::Func,
            EntryClass::BasicBlock,
        ]
    }

    /// Display label.
    pub fn label(&self) -> &'static str {
        match self {
            EntryClass::Lifecycle => "lifecycle",
            EntryClass::Memory => "memory",
            EntryClass::Sync => "sync",
            EntryClass::Syscall => "syscall",
            EntryClass::Func => "func",
            EntryClass::BasicBlock => "bb",
        }
    }

    /// The class of a sketch operation.
    pub fn of(op: &SketchOp) -> EntryClass {
        match op {
            SketchOp::Start | SketchOp::Exit | SketchOp::Spawn | SketchOp::Join { .. } => {
                EntryClass::Lifecycle
            }
            SketchOp::Mem { .. } => EntryClass::Memory,
            SketchOp::Sync { .. } => EntryClass::Sync,
            SketchOp::Sys { .. } => EntryClass::Syscall,
            SketchOp::Func(_) => EntryClass::Func,
            SketchOp::Bb(_) => EntryClass::BasicBlock,
        }
    }
}

/// Entry and byte counts for one class.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClassStats {
    /// Number of entries.
    pub entries: u64,
    /// Encoded bytes.
    pub bytes: u64,
}

/// The composition of a sketch.
#[derive(Debug, Clone)]
pub struct SketchStats {
    /// Per-class breakdown, indexed in [`EntryClass::all`] order.
    pub per_class: Vec<(EntryClass, ClassStats)>,
    /// Total encoded bytes (entries only, excluding the header).
    pub total_bytes: u64,
    /// Total entries.
    pub total_entries: u64,
    /// Bytes a naive fixed-width encoding (16 B/entry + payload) would use.
    pub naive_bytes: u64,
}

impl SketchStats {
    /// Analyses a sketch.
    pub fn of(sketch: &Sketch) -> SketchStats {
        let mut per_class: Vec<(EntryClass, ClassStats)> = EntryClass::all()
            .into_iter()
            .map(|c| (c, ClassStats::default()))
            .collect();
        let mut total_bytes = 0;
        let mut naive_bytes = 0;
        for entry in &sketch.entries {
            let class = EntryClass::of(&entry.op);
            let size = codec::entry_size(entry);
            let slot = per_class
                .iter_mut()
                .find(|(c, _)| *c == class)
                .expect("all classes present");
            slot.1.entries += 1;
            slot.1.bytes += size;
            total_bytes += size;
            // Fixed-width strawman: 16-byte record plus any result payload.
            naive_bytes += 16 + entry.result_payload_len();
        }
        SketchStats {
            per_class,
            total_bytes,
            total_entries: sketch.entries.len() as u64,
            naive_bytes,
        }
    }

    /// The stats for one class.
    pub fn class(&self, class: EntryClass) -> ClassStats {
        self.per_class
            .iter()
            .find(|(c, _)| *c == class)
            .map(|(_, s)| *s)
            .unwrap_or_default()
    }

    /// Codec compression ratio vs. the fixed-width strawman.
    pub fn compression_ratio(&self) -> f64 {
        if self.total_bytes == 0 {
            1.0
        } else {
            self.naive_bytes as f64 / self.total_bytes as f64
        }
    }

    /// The class contributing the most bytes, if any entries exist.
    pub fn dominant_class(&self) -> Option<EntryClass> {
        self.per_class
            .iter()
            .max_by_key(|(_, s)| s.bytes)
            .filter(|(_, s)| s.entries > 0)
            .map(|(c, _)| *c)
    }
}

impl fmt::Display for SketchStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} entries, {} bytes encoded ({:.1}x vs fixed-width)",
            self.total_entries,
            self.total_bytes,
            self.compression_ratio()
        )?;
        for (class, stats) in &self.per_class {
            if stats.entries > 0 {
                writeln!(
                    f,
                    "  {:9} {:8} entries {:10} bytes",
                    class.label(),
                    stats.entries,
                    stats.bytes
                )?;
            }
        }
        Ok(())
    }
}

/// Summary statistics over one reproduction effort's attempt history.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExploreStats {
    /// Attempts recorded in the history.
    pub attempts: u64,
    /// Attempts that aborted on divergence/stall.
    pub diverged: u64,
    /// Distinct exploration seeds (base interleavings) tried.
    pub distinct_seeds: u64,
    /// Distinct `(seed, constraints)` plans tried. Equals `attempts`
    /// unless the dedup ledger is broken — wasted attempts show up as a
    /// gap between these two numbers.
    pub distinct_plans: u64,
    /// Deepest constraint set executed.
    pub max_constraints: u64,
}

impl ExploreStats {
    /// Analyses a reproduction's history.
    pub fn of(rep: &Reproduction) -> ExploreStats {
        let seeds: BTreeSet<u64> = rep.history.iter().map(|h| h.seed).collect();
        let plans: BTreeSet<&str> = rep.history.iter().map(|h| h.plan.as_str()).collect();
        ExploreStats {
            attempts: rep.history.len() as u64,
            diverged: rep.history.iter().filter(|h| h.diverged).count() as u64,
            distinct_seeds: seeds.len() as u64,
            distinct_plans: plans.len() as u64,
            max_constraints: rep
                .history
                .iter()
                .map(|h| h.constraints as u64)
                .max()
                .unwrap_or(0),
        }
    }

    /// Attempts spent on a plan already tried before — always zero with a
    /// healthy explorer.
    pub fn wasted_attempts(&self) -> u64 {
        self.attempts - self.distinct_plans
    }
}

impl fmt::Display for ExploreStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} attempts ({} diverged), {} seeds, {} distinct plans, depth {}",
            self.attempts,
            self.diverged,
            self.distinct_seeds,
            self.distinct_plans,
            self.max_constraints,
        )
    }
}

impl crate::sketch::SketchEntry {
    /// Bytes of recorded result payload (syscall results).
    pub fn result_payload_len(&self) -> u64 {
        match &self.result {
            pres_tvm::op::OpResult::Bytes(b) => b.len() as u64,
            pres_tvm::op::OpResult::MaybeBytes(Some(b)) => b.len() as u64,
            _ => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::ClosureProgram;
    use crate::recorder::record;
    use crate::sketch::Mechanism;
    use pres_tvm::prelude::*;

    fn sample_sketch(mechanism: Mechanism) -> Sketch {
        let mut spec = ResourceSpec::new();
        let x = spec.var("x", 0);
        let m = spec.lock("m");
        let prog = ClosureProgram::new("sample", spec, WorldConfig::default(), move || {
            Box::new(move |ctx: &mut Ctx| {
                let t = ctx.spawn("w", move |ctx| {
                    for i in 0..5u32 {
                        ctx.bb(i);
                        ctx.with_lock(m, |ctx| {
                            let v = ctx.read(x);
                            ctx.write(x, v + 1);
                        });
                        ctx.compute(50);
                    }
                });
                ctx.println("hello");
                ctx.join(t);
            })
        });
        record(&prog, mechanism, &VmConfig::default(), 3).sketch
    }

    #[test]
    fn totals_are_consistent() {
        let sketch = sample_sketch(Mechanism::Rw);
        let stats = SketchStats::of(&sketch);
        assert_eq!(stats.total_entries, sketch.entries.len() as u64);
        let class_sum: u64 = stats.per_class.iter().map(|(_, s)| s.entries).sum();
        assert_eq!(class_sum, stats.total_entries);
        let byte_sum: u64 = stats.per_class.iter().map(|(_, s)| s.bytes).sum();
        assert_eq!(byte_sum, stats.total_bytes);
    }

    #[test]
    fn rw_is_memory_dominated_sync_is_not() {
        let rw = SketchStats::of(&sample_sketch(Mechanism::Rw));
        assert!(rw.class(EntryClass::Memory).entries > 0);
        let sync = SketchStats::of(&sample_sketch(Mechanism::Sync));
        assert_eq!(sync.class(EntryClass::Memory).entries, 0);
        assert!(sync.class(EntryClass::Sync).entries > 0);
    }

    #[test]
    fn codec_beats_the_fixed_width_strawman() {
        let stats = SketchStats::of(&sample_sketch(Mechanism::Rw));
        assert!(
            stats.compression_ratio() > 2.0,
            "varint encoding should be at least 2x denser, got {:.2}",
            stats.compression_ratio()
        );
    }

    #[test]
    fn dominant_class_tracks_the_mechanism() {
        let bb = SketchStats::of(&sample_sketch(Mechanism::Bb));
        assert!(bb.class(EntryClass::BasicBlock).entries > 0);
        let sys = SketchStats::of(&sample_sketch(Mechanism::Sys));
        // SYS sketches are dominated by syscalls or lifecycle events.
        let dom = sys.dominant_class().unwrap();
        assert!(
            matches!(dom, EntryClass::Syscall | EntryClass::Lifecycle),
            "{dom:?}"
        );
    }

    #[test]
    fn display_renders_nonempty_classes_only() {
        let stats = SketchStats::of(&sample_sketch(Mechanism::Sync));
        let text = stats.to_string();
        assert!(text.contains("sync"));
        assert!(!text.contains(" memory"));
    }

    #[test]
    fn explore_stats_count_attempts_and_plans() {
        use crate::explore::{reproduce, ExploreConfig};
        use crate::recorder::record_until_failure;

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
        let run = record_until_failure(&prog, Mechanism::Sync, &config, 0..2000).unwrap();
        let rep = reproduce(
            &prog,
            &run.sketch,
            "assert:never",
            &config,
            &ExploreConfig {
                max_attempts: 12,
                ..ExploreConfig::default()
            },
        );
        let stats = ExploreStats::of(&rep);
        assert_eq!(stats.attempts, 12);
        assert_eq!(stats.wasted_attempts(), 0);
        assert!(stats.distinct_seeds >= 1);
        let text = stats.to_string();
        assert!(text.contains("12 attempts"));
    }

    #[test]
    fn empty_sketch_is_handled() {
        let stats = SketchStats::of(&Sketch::new(Mechanism::Sync));
        assert_eq!(stats.total_entries, 0);
        assert_eq!(stats.compression_ratio(), 1.0);
        assert_eq!(stats.dominant_class(), None);
    }
}
