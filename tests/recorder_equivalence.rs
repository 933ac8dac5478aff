//! The sharded recorder against an independent trace oracle, over the
//! whole bug corpus.
//!
//! The recorder filters events online into per-thread shards, claims
//! global slots only for order-requiring classes and k-way merges the
//! shards at the end. The oracle here shares none of that: it takes the
//! full trace of the same run (`run_traced` at the same seed), walks it in
//! arrival order through a fresh [`MechanismFilter`], stamps each entry
//! with the count of slot-claiming entries before it, and sorts with
//! [`canonical_order`]. The two must agree on every corpus bug under every
//! mechanism, sketch for sketch and byte for byte, and downstream
//! reproduction must mint the identical certificate from either.

use pres_core::codec::encode_sketch;
use pres_core::explore::{reproduce, ExploreConfig};
use pres_core::program::Program;
use pres_core::recorder::{record, record_until_failure, run_traced};
use pres_core::sketch::{
    canonical_order, Mechanism, MechanismFilter, Sketch, SketchEntry, SketchMeta, SketchOp,
    StampedEntry,
};
use pres_suite::apps::all_bugs;
use pres_suite::tvm::vm::VmConfig;

/// The sketch of `program`'s run at `seed`, derived from its full trace
/// rather than by the recorder.
fn trace_oracle(program: &dyn Program, mechanism: Mechanism, config: &VmConfig, seed: u64) -> Sketch {
    let run = run_traced(program, config, seed);
    let mut filter = MechanismFilter::new(mechanism);
    let mut slots = 0u64;
    let mut stamped = Vec::new();
    for event in run.trace.events() {
        if !filter.record_and_note(event.tid, &event.op) {
            continue;
        }
        let Some(op) = SketchOp::from_op(&event.op) else {
            continue;
        };
        let serial = op.claims_global_slot();
        stamped.push(StampedEntry {
            bucket: slots,
            serial,
            entry: SketchEntry::for_event(op, event),
        });
        if serial {
            slots += 1;
        }
    }
    Sketch {
        mechanism,
        entries: canonical_order(stamped),
        meta: SketchMeta {
            program: program.name(),
            seed,
            processors: config.processors,
            total_ops: run.stats.total_ops,
            failure_signature: run
                .status
                .failure()
                .map(|f| f.signature())
                .unwrap_or_default(),
        },
        checkpoint: None,
    }
}

#[test]
fn recorded_sketches_equal_the_trace_oracle_on_the_corpus() {
    let config = VmConfig::default();
    for bug in all_bugs() {
        let prog = bug.program();
        for m in Mechanism::all() {
            let recorded = record(prog.as_ref(), m, &config, 7);
            let oracle = trace_oracle(prog.as_ref(), m, &config, 7);
            assert_eq!(
                recorded.sketch, oracle,
                "{}: recorder and trace oracle diverge under {m}",
                bug.id
            );
            assert_eq!(
                encode_sketch(&recorded.sketch),
                encode_sketch(&oracle),
                "{}: encoded logs diverge under {m}",
                bug.id
            );
        }
    }
}

#[test]
fn reproduction_mints_identical_certificates_from_either_recorder() {
    // Reproduction is a deterministic function of (program, sketch), so
    // identical sketches must yield byte-identical certificates. SYNC is
    // the paper's headline mechanism; RW is the deterministic baseline.
    let config = VmConfig::default();
    let explore = ExploreConfig {
        max_attempts: 300,
        ..ExploreConfig::default()
    };
    for m in [Mechanism::Sync, Mechanism::Rw] {
        for bug in all_bugs() {
            let prog = bug.program();
            let Some(recorded) = record_until_failure(prog.as_ref(), m, &config, 0..5000) else {
                panic!("{}: no failing production run under {m}", bug.id);
            };
            let sketch = &recorded.sketch;
            let oracle = trace_oracle(prog.as_ref(), m, &config, sketch.meta.seed);
            assert_eq!(*sketch, oracle, "{} {m}", bug.id);

            let target = &sketch.meta.failure_signature;
            let a = reproduce(prog.as_ref(), sketch, target, &config, &explore);
            let b = reproduce(prog.as_ref(), &oracle, target, &config, &explore);
            assert!(a.reproduced, "{}: not reproduced under {m}", bug.id);
            assert_eq!(a.attempts, b.attempts, "{} {m}", bug.id);
            let ca = a.certificate.expect("certificate minted").encode();
            let cb = b.certificate.expect("certificate minted").encode();
            assert_eq!(ca, cb, "{}: certificates diverge under {m}", bug.id);
        }
    }
}
