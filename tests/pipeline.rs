//! End-to-end pipeline integration: for every bug in the corpus, a failing
//! production run recorded with SYNC sketching is reproducible, and the
//! minted certificate replays the identical failure deterministically —
//! the full record → explore → certify loop across all five crates.

use pres_core::api::Pres;
use pres_core::explore::Strategy;
use pres_core::sketch::Mechanism;
use pres_suite::apps::all_bugs;

#[test]
fn every_bug_reproduces_under_sync_sketching() {
    for bug in all_bugs() {
        let prog = bug.program();
        let pres = Pres::new(Mechanism::Sync).with_max_attempts(300);
        let recorded = pres
            .record_until_failure(prog.as_ref(), 0..5000)
            .unwrap_or_else(|| panic!("{}: no failing production run", bug.id));
        assert_eq!(
            recorded.sketch.meta.program, bug.id,
            "sketch is tagged with the program"
        );
        let repro = pres.reproduce(prog.as_ref(), &recorded);
        assert!(
            repro.reproduced,
            "{}: not reproduced in 300 attempts: {:#?}",
            bug.id,
            repro.history.last()
        );
        assert!(
            repro.attempts <= 60,
            "{}: took {} attempts under SYNC",
            bug.id,
            repro.attempts
        );
        // Reproduce once => reproduce every time.
        let cert = repro.certificate.expect("certificate minted");
        let bytes = cert.encode();
        let decoded = pres_core::Certificate::decode(&bytes)
            .unwrap_or_else(|e| panic!("{}: certificate does not decode: {e}", bug.id));
        assert_eq!(decoded, cert, "{}", bug.id);
        assert_eq!(
            decoded.encode(),
            bytes,
            "{}: re-encoding changed bytes",
            bug.id
        );
        for trial in 0..5 {
            cert.replay(prog.as_ref())
                .unwrap_or_else(|e| panic!("{} trial {trial}: {e}", bug.id));
        }
    }
}

#[test]
fn rw_baseline_reproduces_every_bug_first_try() {
    for bug in all_bugs() {
        let prog = bug.program();
        let pres = Pres::new(Mechanism::Rw).with_max_attempts(5);
        let recorded = pres
            .record_until_failure(prog.as_ref(), 0..5000)
            .unwrap_or_else(|| panic!("{}: no failing production run", bug.id));
        let repro = pres.reproduce(prog.as_ref(), &recorded);
        assert!(repro.reproduced, "{}", bug.id);
        assert_eq!(
            repro.attempts, 1,
            "{}: RW must be deterministic on the first attempt",
            bug.id
        );
    }
}

#[test]
fn random_strategy_also_terminates_for_an_easy_bug() {
    let bugs = all_bugs();
    let bug = bugs
        .iter()
        .find(|b| b.id == "browser-multivar-atomicity")
        .expect("bug exists");
    let prog = bug.program();
    let pres = Pres::new(Mechanism::Sync)
        .with_strategy(Strategy::Random)
        .with_max_attempts(300);
    let recorded = pres
        .record_until_failure(prog.as_ref(), 0..5000)
        .expect("failing run");
    let repro = pres.reproduce(prog.as_ref(), &recorded);
    assert!(repro.reproduced);
}

#[test]
fn certificates_survive_serialization() {
    let bugs = all_bugs();
    let bug = bugs.iter().find(|b| b.id == "pbzip-order").expect("bug");
    let prog = bug.program();
    let pres = Pres::new(Mechanism::Sync).with_max_attempts(300);
    let recorded = pres
        .record_until_failure(prog.as_ref(), 0..5000)
        .expect("failing run");
    let repro = pres.reproduce(prog.as_ref(), &recorded);
    let cert = repro.certificate.expect("certificate");
    let decoded = pres_core::Certificate::decode(&cert.encode()).expect("round-trips");
    assert_eq!(decoded, cert);
    decoded.replay(prog.as_ref()).expect("still reproduces");
}
