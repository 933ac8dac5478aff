//! End-to-end tests of the daemon's front end over real loopback TCP:
//! chunked streaming submits, pipelined tagged requests, the
//! payload-vs-framing error severity contract with its connection-level
//! tag-0 ERROR, and the connection cap.

mod common;

use common::{recorded_sketch_bytes, scratch, start, start_with};
use pres_suite::svc::digest::sha256;
use pres_suite::svc::proto::{Frame, Request, Response, CONNECTION_TAG, DEFAULT_MAX_FRAME};
use pres_suite::svc::queue::QueueConfig;
use pres_suite::svc::server::ServeOptions;
use pres_suite::svc::{Client, JobStatus};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

const BUG: &str = "pbzip-order";

/// A quick queue config for tests that only exercise the submit path.
fn quick_queue() -> QueueConfig {
    QueueConfig {
        max_attempts: 1,
        max_retries: 0,
        ..QueueConfig::default()
    }
}

/// Raw-socket helpers for tests that need frame-level control.
fn send(s: &mut TcpStream, tag: u32, req: &Request) {
    req.to_frame(tag).unwrap().write_to(s).unwrap();
}

fn recv(s: &mut TcpStream) -> (u32, Response) {
    let frame = Frame::read_from(s, DEFAULT_MAX_FRAME).unwrap().unwrap();
    (frame.tag, Response::from_frame(&frame).unwrap())
}

/// Reads the one connection-level ERROR a refused or broken connection
/// gets, asserts the daemon hangs up behind it, and returns its message.
fn recv_connection_error_then_eof(s: &mut TcpStream) -> String {
    let (tag, response) = recv(s);
    assert_eq!(tag, CONNECTION_TAG, "connection errors ride tag 0");
    let Response::Error { message } = response else {
        panic!("expected an error frame, got {response:?}");
    };
    let mut rest = Vec::new();
    s.read_to_end(&mut rest).unwrap();
    assert!(
        rest.is_empty(),
        "nothing may follow the connection error: {rest:?}"
    );
    message
}

#[test]
fn two_chunk_sizes_give_one_digest_one_job_and_one_certificate() {
    let dir = scratch("digest");
    let server = start(&dir, QueueConfig::default());
    let sketch_bytes = recorded_sketch_bytes(BUG);

    // Stream at an adversarially small chunk size: the digest must land on
    // the content hash of the whole message regardless of the split.
    let mut small = Client::connect(server.addr()).unwrap();
    small.set_chunk_bytes(1024);
    let first = small.submit(BUG, &sketch_bytes).unwrap();
    assert_eq!(first.sketch, sha256(&sketch_bytes));
    assert!(first.fresh_object);
    assert!(first.fresh_job);

    // The same bytes split differently dedup onto the same object and
    // job: the incremental digest does not see chunk boundaries.
    let mut large = Client::connect(server.addr()).unwrap();
    large.set_chunk_bytes(7 * 1024 + 3);
    let second = large.submit(BUG, &sketch_bytes).unwrap();
    assert_eq!(second.sketch, first.sketch);
    assert_eq!(second.job, first.job);
    assert!(!second.fresh_object);
    assert!(!second.fresh_job);

    // One certificate, the same bytes whichever client fetches it.
    let status = small.wait(first.job, Duration::from_secs(120)).unwrap();
    assert!(matches!(status, JobStatus::Succeeded { .. }), "{status:?}");
    let cert_small = small.fetch_certificate(first.job).unwrap();
    let cert_large = large.fetch_certificate(second.job).unwrap();
    assert!(!cert_small.is_empty());
    assert_eq!(cert_small, cert_large);

    let stats = small.stats().unwrap();
    assert!(stats.contains("streaming_submits  2"), "stats:\n{stats}");

    server.shutdown();
    server.join();
}

#[test]
fn status_is_answered_while_a_submit_is_still_streaming() {
    let dir = scratch("pipeline");
    let server = start_with(
        &dir,
        ServeOptions {
            queue: quick_queue(),
            ..ServeOptions::default()
        },
    );

    let mut s = TcpStream::connect(server.addr()).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();

    // Open a stream and push one chunk, but do NOT close it...
    send(&mut s, 1, &Request::SubmitBegin { bug: BUG.into() });
    send(
        &mut s,
        1,
        &Request::SubmitChunk {
            data: vec![0xaa; 4096],
        },
    );
    // ...then ask an unrelated question on the same connection.
    send(&mut s, 2, &Request::Status { job: 999 });
    let (tag, response) = recv(&mut s);
    assert_eq!(tag, 2, "the status answer must not wait for the stream");
    assert_eq!(response, Response::Status { status: None });

    // Now finish the stream; its receipt arrives on the stream's tag.
    send(
        &mut s,
        1,
        &Request::SubmitChunk {
            data: vec![0xbb; 4096],
        },
    );
    send(&mut s, 1, &Request::SubmitEnd);
    let (tag, response) = recv(&mut s);
    assert_eq!(tag, 1);
    let Response::Submitted { sketch, .. } = response else {
        panic!("expected a receipt, got {response:?}");
    };
    let mut whole = vec![0xaa; 4096];
    whole.extend_from_slice(&vec![0xbb; 4096]);
    assert_eq!(sketch, sha256(&whole));

    server.shutdown();
    server.join();
}

#[test]
fn two_streams_interleave_on_one_connection() {
    let dir = scratch("interleave");
    let server = start_with(
        &dir,
        ServeOptions {
            queue: quick_queue(),
            ..ServeOptions::default()
        },
    );

    let mut s = TcpStream::connect(server.addr()).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();

    let body_a: Vec<u8> = (0..10_000u32).map(|i| i as u8).collect();
    let body_b: Vec<u8> = (0..7_777u32).map(|i| (i * 3 + 1) as u8).collect();

    // Two submits in flight at once, chunks strictly alternating: the
    // server must key stream state by tag, not by connection.
    send(&mut s, 10, &Request::SubmitBegin { bug: BUG.into() });
    send(&mut s, 20, &Request::SubmitBegin { bug: BUG.into() });
    let (mut ca, mut cb) = (body_a.chunks(1000), body_b.chunks(1000));
    loop {
        let (a, b) = (ca.next(), cb.next());
        if let Some(a) = a {
            send(&mut s, 10, &Request::SubmitChunk { data: a.to_vec() });
        }
        if let Some(b) = b {
            send(&mut s, 20, &Request::SubmitChunk { data: b.to_vec() });
        }
        if a.is_none() && b.is_none() {
            break;
        }
    }
    send(&mut s, 20, &Request::SubmitEnd);
    send(&mut s, 10, &Request::SubmitEnd);

    // Both receipts arrive, tagged, in completion order (B closed first).
    let (tag_first, resp_first) = recv(&mut s);
    let (tag_second, resp_second) = recv(&mut s);
    assert_eq!((tag_first, tag_second), (20, 10));
    let Response::Submitted { sketch: got_b, .. } = resp_first else {
        panic!("expected a receipt, got {resp_first:?}");
    };
    let Response::Submitted { sketch: got_a, .. } = resp_second else {
        panic!("expected a receipt, got {resp_second:?}");
    };
    assert_eq!(got_a, sha256(&body_a));
    assert_eq!(got_b, sha256(&body_b));
    assert_ne!(got_a, got_b);

    server.shutdown();
    server.join();
}

#[test]
fn mid_stream_disconnect_leaves_the_store_clean() {
    let dir = scratch("disconnect");
    let server = start(&dir, QueueConfig::default());
    let objects_before = server.queue().store().len().unwrap();

    {
        let mut s = TcpStream::connect(server.addr()).unwrap();
        send(&mut s, 1, &Request::SubmitBegin { bug: BUG.into() });
        send(
            &mut s,
            1,
            &Request::SubmitChunk {
                data: vec![0xcd; 100_000],
            },
        );
        // Hang up with the stream open: the staging file must go with us.
    }

    // The worker notices the EOF on its next poll round; wait for the
    // live-connection gauge to drop before inspecting the staging dir.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let live = server.metrics().snapshot().connections_live;
        if live == 0 {
            break;
        }
        assert!(Instant::now() < deadline, "connection never reaped (live {live})");
        std::thread::sleep(Duration::from_millis(20));
    }
    // Give the Drop a moment past the gauge update, then: no objects
    // gained, no staging litter.
    std::thread::sleep(Duration::from_millis(50));
    assert_eq!(server.queue().store().len().unwrap(), objects_before);
    let tmp_entries: Vec<_> = std::fs::read_dir(dir.join("store").join("tmp"))
        .unwrap()
        .collect();
    assert!(tmp_entries.is_empty(), "staging litter: {tmp_entries:?}");

    // And the daemon still serves.
    let mut client = Client::connect(server.addr()).unwrap();
    assert!(client.status(0).unwrap().is_none());

    server.shutdown();
    server.join();
}

#[test]
fn object_put_get_stat_round_trip_through_the_store() {
    let dir = scratch("objects");
    let server = start(&dir, QueueConfig::default());
    let mut client = Client::connect(server.addr()).unwrap();
    client.set_chunk_bytes(1000);

    // A multi-chunk put lands whole and reads back byte for byte.
    let blob: Vec<u8> = (0..10_000u32).map(|i| (i * 7 + 3) as u8).collect();
    let digest = sha256(&blob);
    assert!(
        client.peer_put(&digest, &mut &blob[..]).unwrap(),
        "first put is fresh"
    );
    assert!(client.peer_stat(&digest).unwrap());
    assert_eq!(
        client.peer_get(&digest).unwrap().as_deref(),
        Some(&blob[..])
    );

    // The same bytes again dedup.
    assert!(!client.peer_put(&digest, &mut &blob[..]).unwrap());

    // A put whose advertised digest is not the bytes' digest is refused
    // with exactly one ERROR naming both; the next request on the
    // connection is answered normally.
    let lie = sha256(b"not these bytes");
    let other: Vec<u8> = blob.iter().rev().copied().collect();
    let mut s = TcpStream::connect(server.addr()).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    send(&mut s, 1, &Request::PeerPutBegin { digest: lie });
    for chunk in other.chunks(1000) {
        send(&mut s, 1, &Request::SubmitChunk { data: chunk.to_vec() });
    }
    send(&mut s, 1, &Request::SubmitEnd);
    send(&mut s, 2, &Request::Status { job: 0 });
    let (tag, response) = recv(&mut s);
    assert_eq!(tag, 1);
    let Response::Error { message } = response else {
        panic!("expected an error, got {response:?}");
    };
    assert!(message.contains(&lie.to_string()), "{message}");
    assert!(message.contains(&sha256(&other).to_string()), "{message}");
    assert_eq!(recv(&mut s), (2, Response::Status { status: None }));
    assert!(!client.peer_stat(&lie).unwrap());

    // An absent object is a clean miss.
    assert_eq!(client.peer_get(&sha256(b"never stored")).unwrap(), None);

    let tmp_entries: Vec<_> = std::fs::read_dir(dir.join("store").join("tmp"))
        .unwrap()
        .collect();
    assert!(tmp_entries.is_empty(), "staging litter: {tmp_entries:?}");

    server.shutdown();
    server.join();
}

#[test]
fn payload_errors_keep_the_connection_framing_errors_drop_it() {
    let dir = scratch("severity");
    let server = start(&dir, QueueConfig::default());

    // Payload severity: an unknown kind costs one tagged ERROR, then the
    // same connection keeps serving. 0x0E, the retired PEER_STEAL, is as
    // unknown as any never-assigned kind.
    let mut s = TcpStream::connect(server.addr()).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    for (tag, kind) in [(7, 0x6e), (9, 0x0E)] {
        Frame {
            tag,
            kind,
            payload: vec![],
        }
        .write_to(&mut s)
        .unwrap();
        let (got, response) = recv(&mut s);
        assert_eq!(got, tag);
        assert!(matches!(response, Response::Error { .. }));
        send(&mut s, tag + 1, &Request::Status { job: 1 });
        let (got, response) = recv(&mut s);
        assert_eq!(got, tag + 1, "connection must survive a payload error");
        assert_eq!(response, Response::Status { status: None });
    }

    // Chunks without a BEGIN are payload errors too, and named as such.
    send(&mut s, 11, &Request::SubmitEnd);
    let (tag, response) = recv(&mut s);
    assert_eq!(tag, 11);
    let Response::Error { message } = response else {
        panic!("expected an error, got {response:?}");
    };
    assert!(message.contains("no open stream"), "{message}");

    // Framing severity: garbage magic gets one tag-0 ERROR, then EOF.
    let mut bad = TcpStream::connect(server.addr()).unwrap();
    bad.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    bad.write_all(b"XXXXXXXXXXXX").unwrap();
    let message = recv_connection_error_then_eof(&mut bad);
    assert!(message.contains("magic"), "{message}");

    server.shutdown();
    server.join();
}

#[test]
fn framing_errors_get_one_tag_zero_error_naming_the_cause() {
    let dir = scratch("tag-zero");
    let server = start(&dir, QueueConfig::default());

    // A version-1 header (the untagged dialect's STATUS, job 5) and
    // garbage magic: each is answered by exactly one ERROR on the
    // connection tag, naming what was wrong, and then the connection
    // closes.
    let mut v1_status = b"PS\x01\x02\x00\x00\x00\x08".to_vec();
    v1_status.extend_from_slice(&5u64.to_be_bytes());
    for (bytes, cause) in [
        (v1_status, "unsupported protocol version 1"),
        (b"GET / HTTP/1.1\r\n\r\n".to_vec(), "bad frame magic"),
    ] {
        let mut s = TcpStream::connect(server.addr()).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
        s.write_all(&bytes).unwrap();
        let message = recv_connection_error_then_eof(&mut s);
        assert!(message.contains(cause), "{message}");
    }

    server.shutdown();
    server.join();

    // A client waiting on its own tag takes a tag-0 ERROR as the daemon's
    // answer, not as a response that fails to echo its tag.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let daemon = std::thread::spawn(move || {
        let (mut s, _) = listener.accept().unwrap();
        Frame::read_from(&mut s, DEFAULT_MAX_FRAME)
            .unwrap()
            .unwrap();
        Response::Error {
            message: "going away".into(),
        }
        .to_frame(CONNECTION_TAG)
        .unwrap()
        .write_to(&mut s)
        .unwrap();
    });
    let err = Client::connect(addr).unwrap().status(0).unwrap_err();
    assert_eq!(err.to_string(), "daemon: going away");
    daemon.join().unwrap();
}

#[test]
fn connection_cap_refuses_with_an_error_frame() {
    let dir = scratch("cap");
    let server = start_with(
        &dir,
        ServeOptions {
            max_connections: 2,
            ..ServeOptions::default()
        },
    );

    // Two live connections, proven live with a roundtrip each.
    let mut a = Client::connect(server.addr()).unwrap();
    let mut b = Client::connect(server.addr()).unwrap();
    assert!(a.status(0).unwrap().is_none());
    assert!(b.status(0).unwrap().is_none());

    // The third is answered with one connection-level ERROR and closed.
    let mut c = TcpStream::connect(server.addr()).unwrap();
    c.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    let message = recv_connection_error_then_eof(&mut c);
    assert!(message.contains("connection limit"), "{message}");

    let stats = a.stats().unwrap();
    assert!(stats.contains("connections_refused 1"), "stats:\n{stats}");

    // Freeing a slot readmits new clients.
    drop(b);
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if server.metrics().snapshot().connections_live < 2 {
            break;
        }
        assert!(Instant::now() < deadline, "closed connection never reaped");
        std::thread::sleep(Duration::from_millis(20));
    }
    let mut d = Client::connect(server.addr()).unwrap();
    assert!(d.status(0).unwrap().is_none());

    server.shutdown();
    server.join();
}

#[test]
fn a_filled_pipeline_window_stalls_and_recovers() {
    let dir = scratch("window");
    let server = start_with(
        &dir,
        ServeOptions {
            inflight_window: 2,
            ..ServeOptions::default()
        },
    );

    // Fire a burst of pipelined requests without reading a single
    // response: the tiny window must stall reads rather than buffer
    // unboundedly — and every response must still arrive, tagged, once we
    // start draining.
    let mut client = Client::connect(server.addr()).unwrap();
    let tags: Vec<u32> = (0..50u64)
        .map(|job| client.send(&Request::Status { job }).unwrap())
        .collect();
    let mut got = Vec::new();
    for _ in &tags {
        let (tag, response) = client.recv().unwrap();
        assert_eq!(response, Response::Status { status: None });
        got.push(tag);
    }
    assert_eq!(got, tags, "responses arrive in dispatch order");

    assert!(
        server.metrics().snapshot().window_stalls >= 1,
        "a 2-deep window under a 50-deep burst must stall at least once"
    );

    server.shutdown();
    server.join();
}
