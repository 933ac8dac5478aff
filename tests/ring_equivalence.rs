//! Always-on ring recording vs. classic full-run recording, across the
//! whole bug corpus.
//!
//! Two pins:
//!
//! * **Full retention** (budgets larger than any run): the ring never
//!   rotates, its checkpoint is genesis, and everything downstream —
//!   sketch entries, exploration, the minted certificate — must be
//!   *byte-identical* to classic recording. Always-on mode costs nothing
//!   when nothing is evicted.
//! * **Bounded retention** (budgets forcing rotation): memory is provably
//!   bounded by `ring_epochs x epoch_entries`, the flush replays only the
//!   retained window after a deterministic fast-forward, reproduction
//!   still succeeds for every corpus bug (the failure always lies in the
//!   retained window — the flush happens *at* the failure), and the
//!   minted certificate's schedule is prefix-faithful to the production
//!   run up to the checkpoint boundary.

use pres_core::api::Pres;
use pres_core::recorder::{run_traced, RingConfig};
use pres_core::sketch::Mechanism;
use pres_suite::apps::all_bugs;
use pres_suite::tvm::vm::VmConfig;

fn explorer() -> Pres {
    Pres::new(Mechanism::Sync).with_max_attempts(300)
}

#[test]
fn full_retention_ring_is_byte_identical_to_classic() {
    // Budgets no corpus run can exhaust: the ring holds the whole run.
    let full = RingConfig {
        epoch_entries: 1 << 20,
        epoch_cost: 0,
        ring_epochs: 4,
    };
    for bug in all_bugs() {
        let prog = bug.program();
        let classic = Pres::new(Mechanism::Sync)
            .record_until_failure(prog.as_ref(), 0..5000)
            .unwrap_or_else(|| panic!("{}: no failing production run", bug.id));
        let ring = Pres::new(Mechanism::Sync)
            .with_ring(full.clone())
            .record_until_failure(prog.as_ref(), 0..5000)
            .unwrap_or_else(|| panic!("{}: no failing ring run", bug.id));

        // Same production run, same window: the ring saw everything.
        assert_eq!(classic.sketch.meta, ring.sketch.meta, "{}", bug.id);
        assert_eq!(classic.sketch.entries, ring.sketch.entries, "{}", bug.id);
        let cp = ring
            .sketch
            .checkpoint
            .as_deref()
            .unwrap_or_else(|| panic!("{}: ring run lost its checkpoint", bug.id));
        assert!(cp.is_genesis(), "{}: full retention must not rotate", bug.id);
        assert_eq!(cp.dropped_entries, 0, "{}", bug.id);

        // Exploration is byte-deterministic, so the genesis-checkpoint
        // ring must mint the *same bytes* as classic.
        let from_classic = explorer().reproduce(prog.as_ref(), &classic);
        let from_ring = explorer().reproduce(prog.as_ref(), &ring);
        assert_eq!(
            from_classic.reproduced, from_ring.reproduced,
            "{}: verdicts diverge",
            bug.id,
        );
        let a = from_classic
            .certificate
            .unwrap_or_else(|| panic!("{}: classic did not reproduce", bug.id));
        let b = from_ring
            .certificate
            .unwrap_or_else(|| panic!("{}: ring did not reproduce", bug.id));
        assert_eq!(a.expected_signature, b.expected_signature, "{}", bug.id);
        assert_eq!(from_classic.attempts, from_ring.attempts, "{}", bug.id);
        assert_eq!(a.encode(), b.encode(), "{}: certificates differ", bug.id);
        b.replay(prog.as_ref())
            .unwrap_or_else(|e| panic!("{}: {e}", bug.id));
    }
}

#[test]
fn bounded_ring_reproduces_every_corpus_bug_from_its_retained_window() {
    let mut any_rotated = false;
    for bug in all_bugs() {
        let prog = bug.program();
        // Size the window off the classic sketch so every bug rotates but
        // still retains meaningful context: two epochs of ~one third of
        // the full run each (the oldest third is evicted).
        let classic = Pres::new(Mechanism::Sync)
            .record_until_failure(prog.as_ref(), 0..5000)
            .unwrap_or_else(|| panic!("{}: no failing production run", bug.id));
        let epoch_entries = (classic.sketch.len() as u64 / 3).max(8);
        let ring_cfg = RingConfig {
            epoch_entries,
            epoch_cost: 0,
            ring_epochs: 2,
        };
        let ring = Pres::new(Mechanism::Sync)
            .with_ring(ring_cfg.clone())
            .record_until_failure(prog.as_ref(), 0..5000)
            .unwrap_or_else(|| panic!("{}: no failing ring run", bug.id));
        let cp = ring
            .sketch
            .checkpoint
            .as_deref()
            .unwrap_or_else(|| panic!("{}: ring run lost its checkpoint", bug.id));

        // Bounded memory, proven: the retained window never exceeds the
        // configured budget (each epoch cuts at `epoch_entries`), and the
        // epoch directory accounts for exactly the retained entries.
        assert!(
            ring.sketch.len() as u64 <= ring_cfg.ring_epochs as u64 * epoch_entries,
            "{}: {} retained entries exceed the {}x{} budget",
            bug.id,
            ring.sketch.len(),
            ring_cfg.ring_epochs,
            epoch_entries,
        );
        assert_eq!(
            cp.retained_entries(),
            ring.sketch.len() as u64,
            "{}: epoch directory disagrees with the window",
            bug.id
        );
        if !cp.is_genesis() {
            any_rotated = true;
            assert!(cp.dropped_entries > 0, "{}", bug.id);
            assert!(
                ring.sketch.len() < classic.sketch.len(),
                "{}: rotation must shrink the flushed window",
                bug.id
            );
        }

        // The production schedule prefix the fast-forward must retrace.
        let production = run_traced(prog.as_ref(), &VmConfig::default(), ring.sketch.meta.seed);

        // The failure lies in the retained window by construction (the
        // flush happens at the failure), so the search must reproduce it.
        let first = explorer().reproduce(prog.as_ref(), &ring);
        assert!(
            first.reproduced,
            "{}: not reproduced from the window",
            bug.id
        );
        if !cp.is_genesis() {
            let status = first
                .checkpoint
                .as_ref()
                .unwrap_or_else(|| panic!("{}: no checkpoint status", bug.id));
            assert!(status.verified, "{}: {:?}", bug.id, status.detail);
            assert_eq!(status.boundary, cp.boundary, "{}", bug.id);
        }
        let cert = first.certificate.expect("certificate exists on success");
        assert_eq!(
            cert.expected_signature, ring.sketch.meta.failure_signature,
            "{}",
            bug.id
        );
        // Prefix fidelity: the certificate's schedule replays the
        // production run's picks verbatim up to the boundary — the
        // window replay really did resume *that* run.
        let boundary = cp.boundary as usize;
        assert!(cert.schedule.len() >= boundary, "{}", bug.id);
        assert_eq!(
            cert.schedule[..boundary],
            production.schedule[..boundary],
            "{}: fast-forward prefix diverges",
            bug.id,
        );
        // Certificates replay standalone, window or no window.
        cert.replay(prog.as_ref())
            .unwrap_or_else(|e| panic!("{}: {e}", bug.id));

        // Determinism: a rerun mints the same certificate bytes.
        let again = explorer().reproduce(prog.as_ref(), &ring);
        assert_eq!(
            again.certificate.expect("reproduces again").encode(),
            cert.encode(),
            "{}: rerun diverged",
            bug.id,
        );
    }
    assert!(
        any_rotated,
        "no corpus bug rotated its ring; the bounded pin tested nothing"
    );
}
