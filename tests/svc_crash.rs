//! Crash-consistency matrix for the service store and journal.
//!
//! Every injectable crash point in [`FaultPoint::ALL`] is driven here:
//! arm the point, perform the write until it "crashes" (the injected
//! error leaves the same bytes on disk a SIGKILL at that instruction
//! would), then reopen the directory — the restart — and assert the
//! recovery invariants:
//!
//! * no write that was acknowledged before the crash is lost;
//! * no write that was *not* acknowledged surfaces after recovery
//!   (no phantom objects, no phantom journal records);
//! * the store's index (the directory walk) matches the objects on disk,
//!   every readable object passes its self-verifying read, and staging
//!   leftovers are swept;
//! * the journal replays cleanly and appends land after the last clean
//!   record, not behind torn garbage.
//!
//! The `pres-torture` binary covers the same invariants against the real
//! daemon under SIGKILL; this file covers them deterministically, one
//! crash point at a time.

mod common;

use common::scratch;
use pres_suite::svc::faultpoint::{FaultMode, FaultPoint, Faults, INJECTED};
use pres_suite::svc::journal::{Journal, Record};
use pres_suite::svc::queue::{JobQueue, JobStatus, QueueConfig};
use pres_suite::svc::store::Store;
use pres_suite::svc::{sha256, Metrics};
use std::sync::Arc;

fn dir_entry_count(dir: &std::path::Path) -> usize {
    std::fs::read_dir(dir).map(|d| d.count()).unwrap_or(0)
}

/// The store half of the matrix: `(point, mode, published after crash?)`.
/// Publication is the rename; only a crash *after* it leaves the object
/// visible — and then it must verify, because the staging bytes were
/// fsynced before the rename was issued.
fn store_matrix() -> Vec<(FaultPoint, FaultMode, bool)> {
    vec![
        (FaultPoint::StoreStageCrash, FaultMode::Crash, false),
        (
            FaultPoint::StoreStageTorn,
            FaultMode::Torn { keep: 3 },
            false,
        ),
        (FaultPoint::StoreTmpSyncCrash, FaultMode::Crash, false),
        (FaultPoint::StoreRenameCrash, FaultMode::Crash, false),
        (FaultPoint::StoreDirSyncCrash, FaultMode::Crash, true),
    ]
}

/// The journal half: every point interrupts the append of a second
/// record. `keep: 6` leaves a plausible length prefix plus partial
/// payload — the torn shape only the CRC trailer can unmask. The cohort
/// points are the group-commit batch boundaries: before any cohort byte
/// is written, and between the cohort write and its single `fdatasync`
/// (a single-record append is a one-member cohort, so they fire on plain
/// `append` too).
fn journal_matrix() -> Vec<(FaultPoint, FaultMode)> {
    vec![
        (FaultPoint::JournalWriteCrash, FaultMode::Crash),
        (
            FaultPoint::JournalWriteTorn,
            FaultMode::Torn { keep: 6 },
        ),
        (FaultPoint::JournalSyncCrash, FaultMode::Crash),
        (FaultPoint::JournalCohortWriteCrash, FaultMode::Crash),
        (FaultPoint::JournalCohortSyncCrash, FaultMode::Crash),
    ]
}

/// The ring-flush half: `(point, mode, target complete after crash?)`.
/// Same contract as the store — the rename is the commit point, so only
/// [`FaultPoint::FlushDirSyncCrash`] leaves the target visible, and then
/// it must hold the complete sketch (staging was fsynced first).
fn flush_matrix() -> Vec<(FaultPoint, FaultMode, bool)> {
    vec![
        (FaultPoint::FlushStageCrash, FaultMode::Crash, false),
        (
            FaultPoint::FlushStageTorn,
            FaultMode::Torn { keep: 10 },
            false,
        ),
        (FaultPoint::FlushTmpSyncCrash, FaultMode::Crash, false),
        (FaultPoint::FlushRenameCrash, FaultMode::Crash, false),
        (FaultPoint::FlushDirSyncCrash, FaultMode::Crash, true),
    ]
}

#[test]
fn the_matrix_covers_every_injectable_crash_point() {
    let mut covered: Vec<FaultPoint> = store_matrix().iter().map(|&(p, _, _)| p).collect();
    covered.extend(journal_matrix().iter().map(|&(p, _)| p));
    covered.extend(flush_matrix().iter().map(|&(p, _, _)| p));
    for point in FaultPoint::ALL {
        assert!(
            covered.contains(&point),
            "crash point {} has no matrix entry",
            point.name()
        );
    }
    assert_eq!(covered.len(), FaultPoint::ALL.len());
}

#[test]
fn store_put_recovers_from_a_crash_at_every_point() {
    for (point, mode, published) in store_matrix() {
        let root = scratch(point.name().replace('.', "-").as_str());
        let data = b"sketch bytes for the crash matrix".to_vec();
        let expected_digest = sha256(&data);

        // Crash mid-put at `point`.
        let faults = Faults::new();
        let (store, count) =
            Store::open_with_faults(&root, faults.clone()).expect("fresh store opens");
        assert_eq!(count, 0);
        faults.arm(point, mode, 1);
        let err = store.put(&data).expect_err("armed put crashes");
        assert!(
            err.to_string().contains(INJECTED),
            "{}: unexpected error {err}",
            point.name()
        );
        assert!(faults.fired(), "{}: fault never hit", point.name());
        drop(store);

        // Restart: reopen without faults and check the invariants.
        let (store, count) = Store::open(&root).expect("store reopens after crash");
        assert_eq!(
            count,
            usize::from(published),
            "{}: index/object mismatch after crash",
            point.name()
        );
        assert_eq!(
            dir_entry_count(&root.join("tmp")),
            0,
            "{}: staging leftovers survived the reopen sweep",
            point.name()
        );
        assert_eq!(
            dir_entry_count(&store.quarantine_dir()),
            0,
            "{}: a clean crash must never quarantine",
            point.name()
        );
        let read_back = store.get(&expected_digest).expect("get never errors here");
        if published {
            // Crash after the rename: the object is visible and — because
            // staging was fsynced before rename — verifies.
            assert_eq!(read_back.as_deref(), Some(data.as_slice()));
        } else {
            assert_eq!(read_back, None, "{}: phantom object", point.name());
        }

        // A resubmission repairs/repeats the put and the store converges.
        let (digest, fresh) = store.put(&data).expect("re-put succeeds");
        assert_eq!(digest, expected_digest);
        assert_eq!(fresh, !published);
        assert_eq!(
            store.get(&expected_digest).unwrap().as_deref(),
            Some(data.as_slice())
        );
        let report = store.fsck().unwrap();
        assert_eq!((report.verified, report.quarantined), (1, 0));
    }
}

#[test]
fn journal_append_recovers_from_a_crash_at_every_point() {
    let first = Record::Submit {
        job: 1,
        bug: "pbzip-order".into(),
        sketch: sha256(b"first"),
    };
    let second = Record::Result {
        job: 1,
        status: JobStatus::Exhausted { attempts: 7 },
    };
    let third = Record::Retry { job: 1, retries: 2 };

    for (point, mode) in journal_matrix() {
        let dir = scratch(point.name().replace('.', "-").as_str());
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("journal.log");

        let faults = Faults::new();
        let (journal, records) =
            Journal::open_with_faults(&path, faults.clone()).expect("fresh journal opens");
        assert!(records.is_empty());
        journal.append(&first).expect("unarmed append succeeds");
        faults.arm(point, mode, 1);
        let err = journal.append(&second).expect_err("armed append crashes");
        assert!(
            err.to_string().contains(INJECTED),
            "{}: unexpected error {err}",
            point.name()
        );
        assert!(faults.fired(), "{}: fault never hit", point.name());
        drop(journal);

        // Restart. The acknowledged record must be there; the interrupted
        // one may be (sync-crash points: bytes written, fdatasync lost)
        // or not (write-crash points, torn write) — but never as garbage.
        let (journal, records) = Journal::open(&path).expect("journal reopens after crash");
        assert!(!records.is_empty() && records[0] == first,
            "{}: acknowledged record lost", point.name());
        match point {
            FaultPoint::JournalSyncCrash | FaultPoint::JournalCohortSyncCrash => {
                assert_eq!(records, vec![first.clone(), second.clone()]);
            }
            _ => assert_eq!(records, vec![first.clone()], "{}: phantom record", point.name()),
        }

        // Appends after the crash land after the clean prefix and replay.
        journal.append(&third).expect("post-crash append succeeds");
        drop(journal);
        let (_, records) = Journal::open(&path).unwrap();
        assert_eq!(records.last(), Some(&third), "{}: post-crash append lost", point.name());
    }
}

/// The batch-boundary invariants for *multi-record* cohorts: a cohort
/// that crashes between claim and write vanishes wholesale; one that
/// crashes between write and sync may replay wholesale (its bytes are on
/// disk, unsynced) — but either way no member was acknowledged, every
/// appender got the error, and nothing replays as garbage or out of
/// order.
#[test]
fn a_crashed_cohort_is_all_unacked_and_never_garbage() {
    use pres_suite::svc::journal::GroupCommit;
    use pres_suite::svc::Metrics;
    use std::sync::Arc;
    use std::time::Duration;

    let acked = Record::Submit {
        job: 1,
        bug: "pbzip-order".into(),
        sketch: sha256(b"acked"),
    };
    let cohort = [
        Record::Retry { job: 1, retries: 1 },
        Record::Result {
            job: 1,
            status: JobStatus::Exhausted { attempts: 3 },
        },
        Record::Retry { job: 2, retries: 2 },
    ];
    for (point, surfaces) in [
        (FaultPoint::JournalCohortWriteCrash, false),
        (FaultPoint::JournalCohortSyncCrash, true),
    ] {
        let dir = scratch(&format!("cohort-{}", point.name().replace('.', "-")));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("journal.log");
        let faults = Faults::new();
        let (journal, _) = Journal::open_with(
            &path,
            faults.clone(),
            GroupCommit {
                max_records: 64,
                max_hold: Duration::ZERO,
            },
            Arc::new(Metrics::new()),
        )
        .expect("journal opens");
        journal.append(&acked).expect("unarmed append succeeds");
        faults.arm(point, FaultMode::Crash, 1);
        let err = journal
            .append_batch(&cohort)
            .expect_err("armed cohort commit crashes");
        assert!(err.to_string().contains(INJECTED), "{}: {err}", point.name());
        assert!(faults.fired(), "{}: fault never hit", point.name());
        drop(journal);

        let (_, records) = Journal::open(&path).expect("journal reopens after cohort crash");
        assert_eq!(records.first(), Some(&acked), "{}: acked record lost", point.name());
        if surfaces {
            // Written-but-unsynced: the whole cohort may replay, intact
            // and in order — unacknowledged work, never phantoms.
            assert_eq!(records[1..], cohort, "{}: cohort mangled", point.name());
        } else {
            assert_eq!(records.len(), 1, "{}: phantom cohort records", point.name());
        }
    }
}

/// The flush-on-failure contract: a crash at any point of the ring-flush
/// write leaves the target path either absent or holding the complete
/// encoded sketch — a half-flushed file must never decode as a valid
/// sketch (same tmp+rename chain as `store::put`).
#[test]
fn a_half_flushed_ring_sketch_never_decodes_as_valid() {
    use pres_suite::core::codec::{decode_sketch, encode_sketch};
    use pres_suite::core::sketch::Mechanism;
    use pres_suite::core::{Pres, RingConfig};
    use pres_suite::svc::flush::{sweep_stale, write_flush_with_faults};

    // A real ring-flushed sketch (rotated ring: nonzero boundary, so the
    // checkpoint segment is load-bearing, not a genesis stub).
    let bug = pres_suite::apps::registry::all_bugs()
        .into_iter()
        .find(|b| b.id == "httpd-log-atomicity")
        .expect("corpus bug exists");
    let prog = bug.program();
    let ring = RingConfig {
        epoch_entries: 48,
        epoch_cost: 0,
        ring_epochs: 2,
    };
    let recorded = Pres::new(Mechanism::Sync)
        .with_ring(ring)
        .record_until_failure(prog.as_ref(), 0..2000)
        .expect("failing production run");
    let bytes = encode_sketch(&recorded.sketch);
    assert!(
        recorded.sketch.checkpoint.is_some(),
        "ring recording attaches a checkpoint"
    );

    for (point, mode, complete) in flush_matrix() {
        let dir = scratch(&format!("flush-{}", point.name().replace('.', "-")));
        std::fs::create_dir_all(&dir).unwrap();
        let target = dir.join("ring-flush.sketch");

        let faults = Faults::new();
        faults.arm(point, mode, 1);
        let err =
            write_flush_with_faults(&target, &bytes, &faults).expect_err("armed flush crashes");
        assert!(err.to_string().contains(INJECTED), "{}: {err}", point.name());
        assert!(faults.fired(), "{}: fault never hit", point.name());

        // Restart invariant: the target is absent or complete — never a
        // prefix that parses.
        if complete {
            let on_disk = std::fs::read(&target).expect("post-rename crash leaves the flush");
            assert_eq!(on_disk, bytes, "{}: flush bytes mangled", point.name());
        } else {
            assert!(
                !target.exists(),
                "{}: half-flushed sketch is visible at the target path",
                point.name()
            );
        }
        // A torn staging write strands a prefix that must not parse.
        // (A clean crash *after* `write_all` may strand a complete tmp
        // file — harmless, because recovery only ever trusts the target
        // name, and the sweep below removes it.)
        if point.is_torn() {
            for entry in std::fs::read_dir(&dir).unwrap().flatten() {
                if entry.path() != target {
                    let leftover = std::fs::read(entry.path()).unwrap();
                    assert!(
                        decode_sketch(&leftover).is_err(),
                        "{}: torn staging file decodes as a valid sketch",
                        point.name()
                    );
                }
            }
        }
        sweep_stale(&target);
        assert_eq!(
            dir_entry_count(&dir),
            usize::from(complete),
            "{}: staging leftovers survived the sweep",
            point.name()
        );

        // A retry after restart completes, and the flushed sketch round-
        // trips with its checkpoint intact.
        write_flush_with_faults(&target, &bytes, &faults).expect("retry flush succeeds");
        let decoded =
            decode_sketch(&std::fs::read(&target).unwrap()).expect("flushed sketch decodes");
        assert_eq!(decoded.checkpoint, recorded.sketch.checkpoint);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn a_journal_crash_during_submit_is_an_unacknowledged_submit() {
    let dir = scratch("queue-submit");
    std::fs::create_dir_all(&dir).unwrap();
    let faults = Faults::new();
    let (store, _) = Store::open(dir.join("store")).unwrap();
    let open = |faults: Faults, store: Store| {
        JobQueue::open_with_faults(
            dir.join("journal.log"),
            Arc::new(store),
            Arc::new(Metrics::new()),
            QueueConfig::default(),
            faults,
        )
        .expect("queue opens")
    };
    let queue = open(faults.clone(), store);

    let sketch_a = queue.store().put(b"sketch a").unwrap().0;
    let sketch_b = queue.store().put(b"sketch b").unwrap().0;
    let (job_a, fresh) = queue.submit("pbzip-order", sketch_a).unwrap();
    assert!(fresh);

    // The journal dies mid-append: the submit must fail loudly *before*
    // the job becomes visible, because acknowledging it would promise a
    // durability the journal no longer has.
    faults.arm(FaultPoint::JournalWriteCrash, FaultMode::Crash, 1);
    queue
        .submit("pbzip-order", sketch_b)
        .expect_err("submit with a dead journal append must fail");
    assert_eq!(queue.status(job_a), Some(JobStatus::Queued { retries: 0 }));
    assert_eq!(queue.status(job_a + 1), None, "failed submit leaked a job");
    drop(queue);

    // Restart: the acknowledged submit is back (requeued), the failed one
    // never existed, and resubmitting it creates a *fresh* job.
    let (store, _) = Store::open(dir.join("store")).unwrap();
    let queue = open(Faults::none(), store);
    assert_eq!(queue.status(job_a), Some(JobStatus::Queued { retries: 0 }));
    assert_eq!(queue.status(job_a + 1), None);
    let (job_b, fresh) = queue.submit("pbzip-order", sketch_b).unwrap();
    assert!(fresh, "the unacknowledged submit must not have been replayed");
    assert_ne!(job_b, job_a);
}
