//! Byte-identity pin for the digest-keyed sketch decode cache.
//!
//! The cache memoizes a *pure function* of immutable, content-addressed
//! bytes (digest → decoded sketch + replay index), so it must be
//! observationally invisible: the daemon run with `--sketch-cache-bytes 0`
//! (every execution re-reads, re-verifies, re-decodes, re-indexes) and the
//! daemon run with the default budget must mint identical certificates
//! with identical attempt counts for the same corpus. These tests hold it
//! to that, to staying correct when a starvation-sized budget forces
//! eviction on every insert, and to charging exactly what it holds.

mod common;

use common::{recorded_sketch_bytes, scratch, start};
use pres_suite::svc::queue::QueueConfig;
use pres_suite::svc::server::Server;
use pres_suite::svc::{Client, Digest, JobStatus};
use std::collections::BTreeSet;
use std::sync::atomic::Ordering;
use std::time::Duration;

/// Three bugs across three mechanisms — enough digests that a tiny budget
/// must evict between jobs.
const CORPUS: [&str; 3] = ["pbzip-order", "aget-progress-atomicity", "fft-barrier-order"];

/// The cache holds what it charged for and never more than its budget:
/// its byte count is the sum of the resident values' own
/// `resident_bytes()`, and that sum fits the budget. `submitted` names
/// every digest the daemon has seen; call only while it is idle.
fn assert_charges_what_it_holds(server: &Server, submitted: &BTreeSet<Digest>) {
    let cache = server.queue().cache();
    let (bytes, entries) = cache.usage();
    assert!(
        bytes <= cache.budget(),
        "{bytes} B held over a {} B budget",
        cache.budget()
    );
    let held: Vec<_> = submitted.iter().filter_map(|d| cache.get(d)).collect();
    assert_eq!(held.len(), entries);
    assert_eq!(bytes, held.iter().map(|v| v.resident_bytes()).sum::<u64>());
    // The daemon caches the header and the index, never the entries.
    assert!(held.iter().all(|v| v.sketch.entries.is_empty()));
}

/// Runs the corpus through a daemon with the given queue config, one job
/// at a time, and returns, per bug, the attempt count and certificate
/// bytes.
fn run_corpus(tag: &str, queue: QueueConfig) -> Vec<(u32, Vec<u8>)> {
    let dir = scratch(tag);
    let server = start(&dir, queue);
    let mut client = Client::connect(server.addr()).unwrap();
    let mut submitted = BTreeSet::new();
    let mut out = Vec::new();
    for bug in CORPUS {
        let sketch_bytes = recorded_sketch_bytes(bug);
        let receipt = client.submit(bug, &sketch_bytes).unwrap();
        submitted.insert(receipt.sketch);
        let status = client.wait(receipt.job, Duration::from_secs(240)).unwrap();
        assert_charges_what_it_holds(&server, &submitted);
        let JobStatus::Succeeded { attempts, .. } = status else {
            panic!("expected success, got {status:?}");
        };
        let cert = client.fetch_certificate(receipt.job).unwrap();
        assert!(!cert.is_empty());
        out.push((attempts, cert));
    }
    server.shutdown();
    server.join();
    out
}

/// The pin itself: cache off vs cache on (default budget) — identical
/// certificates, identical attempt counts, for every bug in the corpus.
#[test]
fn cached_and_uncached_runs_mint_identical_certificates() {
    let uncached = run_corpus(
        "uncached",
        QueueConfig {
            sketch_cache_bytes: 0,
            ..QueueConfig::default()
        },
    );
    let cached = run_corpus("cached", QueueConfig::default());
    assert_eq!(uncached.len(), cached.len());
    for (bug, ((ua, ucert), (ca, ccert))) in
        CORPUS.iter().zip(uncached.iter().zip(cached.iter()))
    {
        assert_eq!(ua, ca, "{bug}: attempt counts diverge with the cache on");
        assert_eq!(ucert, ccert, "{bug}: certificate bytes diverge with the cache on");
    }
}

/// A starvation budget — smaller than any encoded sketch — disables
/// residency without disabling correctness: every lookup is a miss,
/// nothing is retained, and the corpus still reproduces.
#[test]
fn eviction_under_a_tiny_budget_stays_correct() {
    let results = run_corpus(
        "tiny",
        QueueConfig {
            sketch_cache_bytes: 1,
            ..QueueConfig::default()
        },
    );
    assert_eq!(results.len(), CORPUS.len());
    for (bug, (attempts, _)) in CORPUS.iter().zip(results.iter()) {
        assert!(*attempts >= 1, "{bug}: no attempts recorded");
    }
}

/// Hit/miss accounting and the hit *path*: a second job sharing a digest
/// (same sketch bytes submitted under a different bug id — dedup keys on
/// the pair, so this is a fresh job) must be served from the cache, and
/// must fail identically to the uncached daemon's store-read path.
#[test]
fn a_shared_digest_hits_the_cache_and_behaves_identically() {
    let sketch_bytes = recorded_sketch_bytes("pbzip-order");
    let mut failures = Vec::new();
    let mut hit_counts = Vec::new();
    for (tag, budget) in [("hit-off", 0u64), ("hit-on", 64 << 20)] {
        let dir = scratch(tag);
        let server = start(
            &dir,
            QueueConfig {
                sketch_cache_bytes: budget,
                ..QueueConfig::default()
            },
        );
        let mut client = Client::connect(server.addr()).unwrap();
        let good = client.submit("pbzip-order", &sketch_bytes).unwrap();
        let submitted = BTreeSet::from([good.sketch]);
        let status = client.wait(good.job, Duration::from_secs(240)).unwrap();
        assert!(matches!(status, JobStatus::Succeeded { .. }), "{status:?}");
        assert_charges_what_it_holds(&server, &submitted);
        // Same bytes, wrong bug id: a distinct job over the same digest.
        let mismatch = client.submit("aget-progress-atomicity", &sketch_bytes).unwrap();
        assert_ne!(mismatch.job, good.job);
        assert!(!mismatch.fresh_object, "store must dedup identical bytes");
        let status = client.wait(mismatch.job, Duration::from_secs(60)).unwrap();
        assert_charges_what_it_holds(&server, &submitted);
        let JobStatus::Failed { message } = status else {
            panic!("expected program-name mismatch, got {status:?}");
        };
        failures.push(message);
        // Jobs ran one at a time, so the STATS gauges are exact.
        let stats = client.stats().unwrap();
        let (bytes, entries) = server.queue().cache().usage();
        assert!(
            stats.contains(&format!("sketch_cache_resident_bytes {bytes}\n")),
            "{stats}"
        );
        assert!(
            stats.contains(&format!("sketch_cache_entries {entries}\n")),
            "{stats}"
        );
        let metrics = server.metrics();
        let hits = metrics.sketch_cache_hits.load(Ordering::Relaxed);
        let misses = metrics.sketch_cache_misses.load(Ordering::Relaxed);
        if budget == 0 {
            assert_eq!(hits, 0, "a disabled cache must never hit");
            assert_eq!(misses, 2, "both executions re-read the store");
            assert!(server.queue().cache().is_empty());
        } else {
            assert_eq!(hits, 1, "the shared-digest job must be a hit");
            assert_eq!(misses, 1, "only the first execution decodes");
            assert_eq!(server.queue().cache().len(), 1);
        }
        hit_counts.push(hits);
        server.shutdown();
        server.join();
    }
    // The rejection is byte-identical either way — the cached sketch is
    // the decoded sketch.
    assert_eq!(failures[0], failures[1]);
    assert_eq!(hit_counts, vec![0, 1]);
}
