//! Executor-pool equivalence over the whole bug corpus.
//!
//! The executor pool decides *where vthread bodies run* (the calling
//! thread's own pool or a caller's, cold or warm); it must never change
//! *what runs*. Exploring on one caller-owned pool shared across the
//! corpus reaches the same verdict, plan for plan, with a byte-identical
//! certificate as exploring on the calling thread's pool. Recording on
//! the thread's pool is pinned by `tests/golden_engine.rs`.

use pres_core::api::Pres;
use pres_core::explore::reproduce_with_oracle_and_pool;
use pres_core::oracle::StatusOracle;
use pres_core::sketch::Mechanism;
use pres_suite::apps::all_bugs;
use pres_suite::tvm::pool::VthreadPool;

#[test]
fn pooled_exploration_mints_identical_certificates_on_the_corpus() {
    // One caller-owned pool across the whole corpus: warm workers left
    // behind by other programs must not leak into any search.
    let shared = VthreadPool::new(1);
    for bug in all_bugs() {
        let prog = bug.program();
        let base = Pres::new(Mechanism::Sync).with_max_attempts(300);
        let recorded = base
            .record_until_failure(prog.as_ref(), 0..5000)
            .unwrap_or_else(|| panic!("{}: no failing production run", bug.id));

        let on_thread = base.reproduce(prog.as_ref(), &recorded);
        let on_shared = reproduce_with_oracle_and_pool(
            prog.as_ref(),
            &recorded.sketch,
            &StatusOracle::new(&recorded.sketch.meta.failure_signature),
            &base.vm,
            &base.explore,
            Some(&shared),
        );

        assert_eq!(on_thread.reproduced, on_shared.reproduced, "{}", bug.id);
        assert_eq!(on_thread.attempts, on_shared.attempts, "{}", bug.id);
        let plans = |rep: &pres_core::Reproduction| -> Vec<String> {
            rep.history.iter().map(|h| h.plan.clone()).collect()
        };
        assert_eq!(
            plans(&on_thread),
            plans(&on_shared),
            "{}: attempt-plan sequences diverge",
            bug.id
        );
        let cert_bytes =
            |rep: &pres_core::Reproduction| rep.certificate.as_ref().map(|c| c.encode());
        assert_eq!(
            cert_bytes(&on_thread),
            cert_bytes(&on_shared),
            "{}: certificates are not byte-identical",
            bug.id
        );
    }
    assert!(shared.take_escaped_panics().is_empty());
}
