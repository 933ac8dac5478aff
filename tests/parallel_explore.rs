//! Parallel exploration integration: the worker pool must change only the
//! wall clock, never the verdict. For every bug in the corpus, a 4-worker
//! reproduction agrees with the serial one on `reproduced`, neither mode
//! ever spends budget on a duplicate `(seed, constraints)` plan or wastes
//! an attempt, a one-attempt search mints the same certificate bytes in
//! both modes, and the certificate minted under contention replays
//! deterministically.

use pres_core::api::Pres;
use pres_core::oracle::StatusOracle;
use pres_core::sketch::Mechanism;
use pres_core::stats::ExploreStats;
use pres_suite::apps::all_bugs;
use pres_suite::svc::{sha256, Digest};
use std::collections::{BTreeMap, BTreeSet};

#[test]
fn parallel_and_serial_agree_across_the_corpus() {
    for bug in all_bugs() {
        let prog = bug.program();
        let pres = Pres::new(Mechanism::Sync).with_max_attempts(300);
        let recorded = pres
            .record_until_failure(prog.as_ref(), 0..5000)
            .unwrap_or_else(|| panic!("{}: no failing production run", bug.id));

        let serial = pres.reproduce(prog.as_ref(), &recorded);
        let parallel = pres
            .clone()
            .with_workers(4)
            .reproduce(prog.as_ref(), &recorded);

        assert_eq!(
            serial.reproduced, parallel.reproduced,
            "{}: serial and parallel disagree on the verdict",
            bug.id
        );

        for (mode, rep) in [("serial", &serial), ("parallel", &parallel)] {
            let plans: BTreeSet<&str> = rep.history.iter().map(|h| h.plan.as_str()).collect();
            assert_eq!(
                plans.len(),
                rep.history.len(),
                "{}: duplicate (seed, constraints) plan in {mode} history",
                bug.id
            );
            assert_eq!(
                ExploreStats::of(rep).wasted_attempts(),
                0,
                "{}: wasted attempts in {mode} mode",
                bug.id
            );
        }

        // When the base plan already succeeds (serial attempts == 1) the
        // winning plan is deterministic even under contention, so both
        // modes mint the same certificate bytes.
        if serial.attempts == 1 {
            assert_eq!(parallel.attempts, 1, "{}", bug.id);
            assert_eq!(
                serial.certificate.as_ref().map(|c| c.encode()),
                parallel.certificate.as_ref().map(|c| c.encode()),
                "{}: serial and parallel certificates differ",
                bug.id
            );
        }

        // The winner is the lowest-numbered success recorded, so the
        // report does not depend on thread timing.
        let lowest = parallel
            .history
            .iter()
            .filter(|h| h.reproduced)
            .map(|h| h.index)
            .min()
            .unwrap_or_else(|| panic!("{}: no successful attempt in history", bug.id));
        assert_eq!(parallel.attempts, lowest, "{}", bug.id);

        // Reproduce once under contention => reproduce every time.
        let cert = parallel
            .certificate
            .unwrap_or_else(|| panic!("{}: no parallel certificate", bug.id));
        let oracle = StatusOracle::new(&cert.expected_signature);
        for trial in 0..5 {
            cert.replay_with(prog.as_ref(), &oracle)
                .unwrap_or_else(|e| panic!("{} trial {trial}: {e}", bug.id));
        }
    }
}

#[test]
fn worker_count_does_not_change_an_unreproducible_verdict() {
    let bugs = all_bugs();
    let bug = &bugs[0];
    let prog = bug.program();
    let pres = Pres::new(Mechanism::Sync).with_max_attempts(24);
    let mut recorded = pres
        .record_until_failure(prog.as_ref(), 0..5000)
        .expect("failing production run");
    // A signature no run can exhibit: the full budget must be spent.
    recorded.sketch.meta.failure_signature = "assert:never-happens".into();
    for workers in [1usize, 2, 4, 8] {
        let rep = pres
            .clone()
            .with_workers(workers)
            .reproduce(prog.as_ref(), &recorded);
        assert!(!rep.reproduced, "{workers} workers");
        assert_eq!(rep.attempts, 24, "{workers} workers");
        assert_eq!(rep.history.len(), 24, "{workers} workers");
    }
}

/// The parallel search is deterministic: claiming an attempt index and
/// popping its plan happen in one critical section, so index `k` always
/// runs the `k`-th plan handed out and "lowest index wins" crowns the
/// same schedule on every run. Forty `workers = 4` searches per corpus bug
/// must mint one certificate digest per bug.
#[test]
fn repeated_parallel_searches_mint_one_certificate_per_bug() {
    const RUNS: usize = 40;
    for bug in all_bugs() {
        let prog = bug.program();
        let pres = Pres::new(Mechanism::Sync)
            .with_max_attempts(300)
            .with_workers(4);
        let recorded = pres
            .record_until_failure(prog.as_ref(), 0..5000)
            .unwrap_or_else(|| panic!("{}: no failing production run", bug.id));
        // digest -> (attempts, winning plan, how many runs minted it)
        let mut outcomes: BTreeMap<Digest, (u32, String, usize)> = BTreeMap::new();
        for _ in 0..RUNS {
            let rep = pres.reproduce(prog.as_ref(), &recorded);
            let cert = rep
                .certificate
                .unwrap_or_else(|| panic!("{}: no parallel certificate", bug.id));
            let plan = rep
                .history
                .iter()
                .find(|h| h.index == rep.attempts)
                .map(|h| h.plan.clone())
                .unwrap_or_default();
            outcomes
                .entry(sha256(&cert.encode()))
                .or_insert((rep.attempts, plan, 0))
                .2 += 1;
        }
        assert_eq!(
            outcomes.len(),
            1,
            "{}: {RUNS} workers-4 searches minted {} certificates: {:#?}",
            bug.id,
            outcomes.len(),
            outcomes
        );
    }
}
