//! Executor-pool equivalence over the whole bug corpus.
//!
//! The executor pool decides *where vthread bodies run* (recycled parked
//! workers vs. freshly spawned OS threads, one pool or another); it must
//! never change *what runs*. These tests pin that contract: recording
//! under a pool yields byte-identical sketches to the spawning reference
//! VM (`vm::run`) for all 13 corpus bugs under every mechanism, and
//! exploring on one caller-owned pool shared across the corpus reaches the
//! same verdict, plan for plan, with a byte-identical certificate as
//! exploring on a pool of its own.

use pres_core::api::Pres;
use pres_core::codec::encode_sketch;
use pres_core::explore::reproduce_with_oracle_and_pool;
use pres_core::oracle::StatusOracle;
use pres_core::recorder::{record, record_pooled};
use pres_core::sketch::Mechanism;
use pres_suite::apps::all_bugs;
use pres_suite::tvm::pool::VthreadPool;
use pres_suite::tvm::vm::VmConfig;

#[test]
fn pooled_recording_is_byte_identical_on_the_corpus_for_every_mechanism() {
    let config = VmConfig::default();
    // One pool across the whole matrix: equivalence must survive arbitrary
    // reuse, not just a fresh pool per run.
    let pool = VthreadPool::new(4);
    for bug in all_bugs() {
        let prog = bug.program();
        for m in Mechanism::all() {
            let spawned = record(prog.as_ref(), m, &config, 7);
            let pooled = record_pooled(prog.as_ref(), m, &config, 7, &pool);
            assert_eq!(
                spawned.sketch, pooled.sketch,
                "{}: sketches diverge under {m}",
                bug.id
            );
            assert_eq!(
                encode_sketch(&spawned.sketch),
                encode_sketch(&pooled.sketch),
                "{}: encoded logs diverge under {m}",
                bug.id
            );
            assert_eq!(spawned.log_bytes, pooled.log_bytes, "{} {m}", bug.id);
            assert_eq!(
                spawned.outcome.status.to_string(),
                pooled.outcome.status.to_string(),
                "{} {m}",
                bug.id
            );
            assert_eq!(
                spawned.outcome.schedule, pooled.outcome.schedule,
                "{} {m}",
                bug.id
            );
            assert_eq!(
                spawned.outcome.stats.spawns, pooled.outcome.stats.spawns,
                "{} {m}",
                bug.id
            );
        }
    }
    assert!(pool.take_escaped_panics().is_empty());
}

#[test]
fn pooled_exploration_mints_identical_certificates_on_the_corpus() {
    // One caller-owned pool across the whole corpus, the daemon's steady
    // state: warm workers left behind by other programs must not leak into
    // any search.
    let shared = VthreadPool::new(1);
    for bug in all_bugs() {
        let prog = bug.program();
        let base = Pres::new(Mechanism::Sync).with_max_attempts(300);
        let recorded = base
            .record_until_failure(prog.as_ref(), 0..5000)
            .unwrap_or_else(|| panic!("{}: no failing production run", bug.id));

        let owned = base.reproduce(prog.as_ref(), &recorded);
        let on_shared = reproduce_with_oracle_and_pool(
            prog.as_ref(),
            &recorded.sketch,
            &StatusOracle::new(&recorded.sketch.meta.failure_signature),
            &base.vm,
            &base.explore,
            Some(&shared),
        );

        assert_eq!(owned.reproduced, on_shared.reproduced, "{}", bug.id);
        assert_eq!(owned.attempts, on_shared.attempts, "{}", bug.id);
        let plans = |rep: &pres_core::Reproduction| -> Vec<String> {
            rep.history.iter().map(|h| h.plan.clone()).collect()
        };
        assert_eq!(
            plans(&owned),
            plans(&on_shared),
            "{}: attempt-plan sequences diverge",
            bug.id
        );
        let cert_bytes =
            |rep: &pres_core::Reproduction| rep.certificate.as_ref().map(|c| c.encode());
        assert_eq!(
            cert_bytes(&owned),
            cert_bytes(&on_shared),
            "{}: certificates are not byte-identical",
            bug.id
        );
    }
    assert!(shared.take_escaped_panics().is_empty());
}
