//! End-to-end tests of the replay-as-a-service daemon over real loopback
//! TCP: the full serve → submit → poll → fetch-certificate → replay
//! pipeline, plus the abuse cases the daemon must survive (malformed
//! frames, mid-submit disconnects, job timeouts), the restart story
//! (journal replay, store dedup) and the shared-secret perimeter.

mod common;

use common::{recorded_sketch_bytes, scratch, start, start_with};
use pres_suite::apps::registry::all_bugs;
use pres_suite::core::api::Pres;
use pres_suite::core::codec::decode_sketch;
use pres_suite::core::sketch::Mechanism;
use pres_suite::core::Certificate;
use pres_suite::svc::proto::{Frame, Request};
use pres_suite::svc::queue::QueueConfig;
use pres_suite::svc::server::ServeOptions;
use pres_suite::svc::{sha256, Client, JobStatus};
use std::io::Write;
use std::net::TcpStream;
use std::time::Duration;

const BUG: &str = "pbzip-order";

#[test]
fn loopback_certificate_is_byte_identical_to_in_process_reproduction() {
    let dir = scratch("pipeline");
    let server = start(&dir, QueueConfig::default());
    let sketch_bytes = recorded_sketch_bytes(BUG);

    let mut client = Client::connect(server.addr()).unwrap();
    let receipt = client.submit(BUG, &sketch_bytes).unwrap();
    assert!(receipt.fresh_object);
    assert!(receipt.fresh_job);
    let status = client.wait(receipt.job, Duration::from_secs(120)).unwrap();
    let JobStatus::Succeeded { attempts, .. } = status else {
        panic!("expected success, got {status:?}");
    };
    assert!(attempts >= 1);
    let served_cert = client.fetch_certificate(receipt.job).unwrap();

    // The same sketch reproduced in-process mints the same certificate,
    // byte for byte: the service layer adds zero nondeterminism.
    let case = all_bugs().into_iter().find(|b| b.id == BUG).unwrap();
    let program = case.program();
    let pres = Pres::new(Mechanism::Sync);
    let sketch = decode_sketch(&sketch_bytes).unwrap();
    let mut recorded = pres.record(program.as_ref(), sketch.meta.seed);
    recorded.sketch = sketch;
    let repro = pres.reproduce(program.as_ref(), &recorded);
    assert_eq!(served_cert, repro.certificate.unwrap().encode());

    // And the served bytes replay the failure deterministically.
    let cert = Certificate::decode(&served_cert).unwrap();
    for _ in 0..3 {
        cert.replay(program.as_ref()).unwrap();
    }

    server.shutdown();
    server.join();
}

#[test]
fn two_job_workers_mint_the_certificates_one_worker_mints() {
    let corpus: Vec<(&str, Vec<u8>)> = all_bugs()
        .iter()
        .take(3)
        .map(|b| (b.id, recorded_sketch_bytes(b.id)))
        .collect();
    let certificates = |workers: usize| -> Vec<Vec<u8>> {
        let dir = scratch(&format!("workers-{workers}"));
        let server = start(
            &dir,
            QueueConfig {
                workers,
                ..QueueConfig::default()
            },
        );
        let mut client = Client::connect(server.addr()).unwrap();
        // The whole batch is queued before any wait, so two workers
        // explore side by side.
        let jobs: Vec<u64> = corpus
            .iter()
            .map(|(bug, bytes)| client.submit(bug, bytes).unwrap().job)
            .collect();
        let certs = jobs
            .iter()
            .zip(&corpus)
            .map(|(&job, (bug, _))| {
                let status = client.wait(job, Duration::from_secs(120)).unwrap();
                assert!(
                    matches!(status, JobStatus::Succeeded { .. }),
                    "{bug} under {workers} worker(s): {status:?}"
                );
                let cert = client.fetch_certificate(job).unwrap();
                assert!(!cert.is_empty(), "{bug}: empty certificate");
                cert
            })
            .collect();
        server.shutdown();
        server.join();
        certs
    };
    assert_eq!(certificates(2), certificates(1));
}

#[test]
fn duplicate_submission_dedups_object_and_job() {
    let dir = scratch("dedup");
    let server = start(&dir, QueueConfig::default());
    let sketch_bytes = recorded_sketch_bytes(BUG);

    let mut client = Client::connect(server.addr()).unwrap();
    let first = client.submit(BUG, &sketch_bytes).unwrap();
    client.wait(first.job, Duration::from_secs(120)).unwrap();
    let objects_after_first = server.queue().store().len().unwrap();

    // Same bytes, same bug — joins the finished job, writes nothing.
    let second = client.submit(BUG, &sketch_bytes).unwrap();
    assert_eq!(second.job, first.job);
    assert_eq!(second.sketch, first.sketch);
    assert!(!second.fresh_object, "store must dedup identical content");
    assert!(!second.fresh_job, "queue must join the existing job");
    assert_eq!(server.queue().store().len().unwrap(), objects_after_first);
    // The joined job's certificate is immediately fetchable.
    assert!(!client.fetch_certificate(second.job).unwrap().is_empty());

    let stats = client.stats().unwrap();
    assert!(stats.contains("dedup_hits         1"), "stats:\n{stats}");

    server.shutdown();
    server.join();
}

#[test]
fn daemon_survives_malformed_frames_and_mid_submit_disconnects() {
    let dir = scratch("abuse");
    let server = start(&dir, QueueConfig::default());

    // 1. Pure garbage bytes.
    {
        let mut s = TcpStream::connect(server.addr()).unwrap();
        s.write_all(b"GET / HTTP/1.1\r\n\r\n").unwrap();
    }
    // 2. A valid header announcing an absurd payload length.
    {
        let mut s = TcpStream::connect(server.addr()).unwrap();
        let mut frame = Request::Stats.to_frame(1).unwrap().encode();
        frame[4..8].copy_from_slice(&u32::MAX.to_be_bytes());
        s.write_all(&frame).unwrap();
    }
    // 3. A submit whose connection dies mid-stream: BEGIN, then half a
    //    CHUNK frame.
    {
        let mut s = TcpStream::connect(server.addr()).unwrap();
        let begin = Request::SubmitBegin { bug: BUG.into() };
        s.write_all(&begin.to_frame(1).unwrap().encode()).unwrap();
        let chunk = Request::SubmitChunk {
            data: vec![0xab; 10_000],
        }
        .to_frame(1)
        .unwrap()
        .encode();
        s.write_all(&chunk[..chunk.len() / 2]).unwrap();
        drop(s); // hang up mid-frame
    }
    // 4. An unknown message kind.
    {
        let mut s = TcpStream::connect(server.addr()).unwrap();
        s.write_all(
            &Frame {
                tag: 1,
                kind: 0x6e,
                payload: vec![],
            }
            .encode(),
        )
        .unwrap();
    }

    // After all that, the daemon still serves the real pipeline.
    let sketch_bytes = recorded_sketch_bytes(BUG);
    let mut client = Client::connect(server.addr()).unwrap();
    let receipt = client.submit(BUG, &sketch_bytes).unwrap();
    let status = client.wait(receipt.job, Duration::from_secs(120)).unwrap();
    assert!(matches!(status, JobStatus::Succeeded { .. }));

    server.shutdown();
    server.join();
}

#[test]
fn unreproducible_submissions_fail_without_poisoning_the_daemon() {
    let dir = scratch("badjobs");
    // One attempt and no retries: jobs resolve fast.
    let server = start(
        &dir,
        QueueConfig {
            max_attempts: 1,
            max_retries: 0,
            ..QueueConfig::default()
        },
    );
    let mut client = Client::connect(server.addr()).unwrap();

    // Unknown bug: rejected at submit time.
    let err = client.submit("no-such-bug", b"x").unwrap_err();
    assert!(err.to_string().contains("unknown bug"), "{err}");

    // Garbage sketch for a real bug: accepted, then fails cleanly.
    let receipt = client.submit(BUG, b"not a sketch container").unwrap();
    let status = client.wait(receipt.job, Duration::from_secs(60)).unwrap();
    assert!(matches!(status, JobStatus::Failed { .. }), "{status:?}");
    let err = client.fetch_certificate(receipt.job).unwrap_err();
    assert!(err.to_string().contains("no certificate"), "{err}");

    // A real sketch with a one-attempt budget exhausts (pbzip-order needs
    // more than one attempt under SYNC).
    let sketch_bytes = recorded_sketch_bytes(BUG);
    let receipt = client.submit(BUG, &sketch_bytes).unwrap();
    let status = client.wait(receipt.job, Duration::from_secs(60)).unwrap();
    assert!(matches!(status, JobStatus::Exhausted { .. }), "{status:?}");

    server.shutdown();
    server.join();
}

#[test]
fn job_timeout_trips_and_daemon_keeps_serving() {
    let dir = scratch("timeout");
    // A zero wall-clock budget trips the stop token before the first
    // attempt; a huge attempt budget proves the timeout (not the attempt
    // cap) is what stopped it.
    let server = start(
        &dir,
        QueueConfig {
            max_attempts: 1_000_000,
            job_timeout: Duration::ZERO,
            max_retries: 0,
            ..QueueConfig::default()
        },
    );
    let sketch_bytes = recorded_sketch_bytes(BUG);
    let mut client = Client::connect(server.addr()).unwrap();
    let receipt = client.submit(BUG, &sketch_bytes).unwrap();
    let status = client.wait(receipt.job, Duration::from_secs(60)).unwrap();
    let JobStatus::TimedOut { attempts } = status else {
        panic!("expected timeout, got {status:?}");
    };
    assert_eq!(attempts, 0, "zero budget spends zero attempts");

    // Still alive for the next query.
    assert!(client.status(receipt.job).unwrap().is_some());
    server.shutdown();
    server.join();
}

#[test]
fn shutdown_drains_and_journal_replays_across_restart() {
    let dir = scratch("restart");
    let sketch_bytes = recorded_sketch_bytes(BUG);

    // First life: finish one job, then drain via the wire protocol.
    let (job, digest) = {
        let server = start(&dir, QueueConfig::default());
        let mut client = Client::connect(server.addr()).unwrap();
        let receipt = client.submit(BUG, &sketch_bytes).unwrap();
        let status = client.wait(receipt.job, Duration::from_secs(120)).unwrap();
        assert!(matches!(status, JobStatus::Succeeded { .. }));
        client.shutdown().unwrap(); // SIGTERM equivalent, over the wire
        server.join();
        (receipt.job, receipt.sketch)
    };

    // Second life: same data dir. The journal replays the finished job,
    // the store still holds sketch + certificate, dedup still routes a
    // resubmission onto the old job, and its certificate replays.
    let server = start(&dir, QueueConfig::default());
    let mut client = Client::connect(server.addr()).unwrap();
    let status = client.status(job).unwrap();
    assert!(
        matches!(status, Some(JobStatus::Succeeded { .. })),
        "journal replay lost the result: {status:?}"
    );
    let receipt = client.submit(BUG, &sketch_bytes).unwrap();
    assert_eq!(receipt.job, job);
    assert_eq!(receipt.sketch, digest);
    assert!(!receipt.fresh_object);
    assert!(!receipt.fresh_job);

    let cert_bytes = client.fetch_certificate(job).unwrap();
    let case = all_bugs().into_iter().find(|b| b.id == BUG).unwrap();
    let program = case.program();
    Certificate::decode(&cert_bytes)
        .unwrap()
        .replay(program.as_ref())
        .unwrap();

    server.shutdown();
    server.join();
}

#[test]
fn auth_token_gates_every_frame() {
    const TOKEN: &str = "e2e-secret";
    let dir = scratch("auth");
    let server = start_with(
        &dir,
        ServeOptions {
            auth_token: Some(TOKEN.into()),
            ..ServeOptions::default()
        },
    );
    let sketch = recorded_sketch_bytes(BUG);

    // No HELLO: the first real frame is answered with an error and the
    // connection is closed.
    let mut bare = Client::connect(server.addr()).unwrap();
    assert!(bare.submit(BUG, &sketch).is_err());

    // Wrong token: refused at the HELLO itself.
    let mut wrong = Client::connect(server.addr()).unwrap();
    assert!(wrong.hello(b"not-the-secret").is_err());

    // The object RPCs sit behind the same perimeter.
    let mut object = Client::connect(server.addr()).unwrap();
    assert!(object.peer_stat(&sha256(&sketch)).is_err());

    // The right token opens everything.
    let mut client = Client::connect(server.addr()).unwrap();
    client.hello(TOKEN.as_bytes()).unwrap();
    let receipt = client.submit(BUG, &sketch).unwrap();
    let status = client.wait(receipt.job, Duration::from_secs(120)).unwrap();
    let JobStatus::Succeeded { certificate, .. } = status else {
        panic!("expected success, got {status:?}");
    };
    let cert = client.fetch_certificate(receipt.job).unwrap();
    assert_eq!(sha256(&cert), certificate, "served cert matches its digest");

    server.shutdown();
    server.join();
}
