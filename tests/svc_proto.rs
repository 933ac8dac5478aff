//! Property tests over the daemon's wire protocol: every message
//! round-trips exactly, and every way an attacker (or a flaky network) can
//! mangle a frame is rejected without a panic.
//!
//! Driven by the workspace's own deterministic generator so the cases are
//! reproducible by construction and the suite builds offline.

mod common;

use pres_suite::svc::digest::{sha256, Digest};
use pres_suite::svc::journal::{Journal, Record};
use pres_suite::svc::proto::{
    Frame, ProtoError, Request, Response, Severity, DEFAULT_MAX_FRAME, VERSION,
};
use pres_suite::svc::queue::JobStatus;
use pres_tvm::rng::ChaCha8Rng;

// ---------------------------------------------------------------------------
// Generators.
// ---------------------------------------------------------------------------

fn gen_bytes(rng: &mut ChaCha8Rng, max_len: usize) -> Vec<u8> {
    let len = rng.gen_range(0..max_len + 1);
    (0..len).map(|_| rng.next_u32() as u8).collect()
}

fn gen_string(rng: &mut ChaCha8Rng, max_len: usize) -> String {
    let len = rng.gen_range(0..max_len + 1);
    (0..len)
        .map(|_| char::from(rng.gen_range(32..=126u32) as u8))
        .collect()
}

fn gen_digest(rng: &mut ChaCha8Rng) -> Digest {
    sha256(&gen_bytes(rng, 64))
}

fn gen_status(rng: &mut ChaCha8Rng) -> JobStatus {
    match rng.gen_range(0..6usize) {
        0 => JobStatus::Queued {
            retries: rng.gen_range(0..=9u32),
        },
        1 => JobStatus::Running,
        2 => JobStatus::Succeeded {
            attempts: rng.gen_range(1..=1000u32),
            certificate: gen_digest(rng),
        },
        3 => JobStatus::Exhausted {
            attempts: rng.gen_range(1..=1000u32),
        },
        4 => JobStatus::TimedOut {
            attempts: rng.gen_range(0..=1000u32),
        },
        _ => JobStatus::Failed {
            message: gen_string(rng, 80),
        },
    }
}

fn gen_request(rng: &mut ChaCha8Rng) -> Request {
    match rng.gen_range(0..11usize) {
        0 => Request::SubmitBegin {
            bug: gen_string(rng, 40),
        },
        1 => Request::SubmitChunk {
            data: gen_bytes(rng, 2048),
        },
        2 => Request::SubmitEnd,
        3 => Request::Status {
            job: rng.next_u64(),
        },
        4 => Request::Result {
            job: rng.next_u64(),
        },
        5 => Request::Stats,
        6 => Request::Hello {
            token: gen_bytes(rng, 64),
        },
        7 => Request::PeerPutBegin {
            digest: gen_digest(rng),
        },
        8 => Request::PeerGet {
            digest: gen_digest(rng),
        },
        9 => Request::PeerStat {
            digest: gen_digest(rng),
        },
        _ => Request::Shutdown,
    }
}

fn gen_response(rng: &mut ChaCha8Rng) -> Response {
    match rng.gen_range(0..10usize) {
        0 => Response::Submitted {
            job: rng.next_u64(),
            sketch: gen_digest(rng),
            fresh_object: rng.next_u32() & 1 == 0,
            fresh_job: rng.next_u32() & 1 == 0,
        },
        1 => Response::Status {
            status: (rng.next_u32() & 1 == 0).then(|| gen_status(rng)),
        },
        2 => Response::Result {
            certificate: gen_bytes(rng, 4096),
        },
        3 => Response::Stats {
            text: gen_string(rng, 400),
        },
        4 => Response::ShuttingDown,
        5 => Response::HelloOk,
        6 => Response::PeerPut {
            digest: gen_digest(rng),
            fresh: rng.next_u32() & 1 == 0,
        },
        7 => Response::PeerObject {
            body: (rng.next_u32() & 1 == 0).then(|| gen_bytes(rng, 4096)),
        },
        8 => Response::PeerStatIs {
            present: rng.next_u32() & 1 == 0,
        },
        _ => Response::Error {
            message: gen_string(rng, 120),
        },
    }
}

// ---------------------------------------------------------------------------
// Round-trip properties.
// ---------------------------------------------------------------------------

#[test]
fn requests_roundtrip_through_frames_and_bytes() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x5c_70);
    for case in 0..300 {
        let req = gen_request(&mut rng);
        let bytes = req.to_frame(rng.next_u32()).unwrap().encode();
        let mut cursor = &bytes[..];
        let frame = Frame::read_from(&mut cursor, DEFAULT_MAX_FRAME)
            .unwrap()
            .unwrap();
        assert!(cursor.is_empty(), "case {case}: frame consumed exactly");
        assert_eq!(Request::from_frame(&frame).unwrap(), req, "case {case}");
    }
}

#[test]
fn responses_roundtrip_through_frames_and_bytes() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x5c_71);
    for case in 0..300 {
        let resp = gen_response(&mut rng);
        let bytes = resp.to_frame(rng.next_u32()).unwrap().encode();
        let frame = Frame::read_from(&mut &bytes[..], DEFAULT_MAX_FRAME)
            .unwrap()
            .unwrap();
        assert_eq!(Response::from_frame(&frame).unwrap(), resp, "case {case}");
    }
}

#[test]
fn back_to_back_frames_parse_from_one_stream() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x5c_72);
    let expect: Vec<(u32, Request)> = (0..20)
        .map(|_| (rng.next_u32(), gen_request(&mut rng)))
        .collect();
    let stream: Vec<u8> = expect
        .iter()
        .flat_map(|(tag, req)| req.to_frame(*tag).unwrap().encode())
        .collect();
    // The blocking reader walks the stream frame by frame...
    let mut cursor = &stream[..];
    for (tag, req) in &expect {
        let frame = Frame::read_from(&mut cursor, DEFAULT_MAX_FRAME)
            .unwrap()
            .unwrap();
        assert_eq!(frame.tag, *tag);
        assert_eq!(&Request::from_frame(&frame).unwrap(), req);
    }
    assert!(cursor.is_empty());
    // ...and the incremental parser walks it however the transport
    // fragments it, fed random-sized slices exactly as the connection
    // workers are.
    for _ in 0..20 {
        let mut buf: Vec<u8> = Vec::new();
        let mut fed = 0usize;
        let mut got = Vec::new();
        while got.len() < expect.len() {
            match Frame::parse(&buf, DEFAULT_MAX_FRAME).unwrap() {
                Some((frame, used)) => {
                    buf.drain(..used);
                    got.push((frame.tag, Request::from_frame(&frame).unwrap()));
                }
                None => {
                    assert!(fed < stream.len(), "parser starved with input left");
                    let step = (rng.gen_range(1..=64u32) as usize).min(stream.len() - fed);
                    buf.extend_from_slice(&stream[fed..fed + step]);
                    fed += step;
                }
            }
        }
        assert_eq!(got, expect);
        assert!(Frame::parse(&buf, DEFAULT_MAX_FRAME).unwrap().is_none());
    }
}

#[test]
fn tagged_requests_roundtrip_and_echo_their_tag() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x5c_78);
    for case in 0..300 {
        let req = gen_request(&mut rng);
        let tag = rng.next_u32();
        let bytes = req.to_frame(tag).unwrap().encode();
        // Through the blocking reader...
        let mut cursor = &bytes[..];
        let frame = Frame::read_from(&mut cursor, DEFAULT_MAX_FRAME)
            .unwrap()
            .unwrap();
        assert!(cursor.is_empty(), "case {case}: frame consumed exactly");
        assert_eq!(frame.tag, tag, "case {case}");
        assert_eq!(Request::from_frame(&frame).unwrap(), req, "case {case}");
        // ...and through the incremental parser, byte identical.
        let (parsed, used) = Frame::parse(&bytes, DEFAULT_MAX_FRAME).unwrap().unwrap();
        assert_eq!(used, bytes.len(), "case {case}");
        assert_eq!(parsed, frame, "case {case}");
    }
}

#[test]
fn responses_carry_tags_without_touching_payload_bytes() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x5c_79);
    for case in 0..300 {
        let resp = gen_response(&mut rng);
        let tag = rng.next_u32();
        let frame = resp.to_frame(tag).unwrap();
        // The payload encoding is tag-independent: the tag lives in the
        // header, nothing else moves.
        assert_eq!(
            frame.payload,
            resp.to_frame(!tag).unwrap().payload,
            "case {case}"
        );
        let read = Frame::read_from(&mut &frame.encode()[..], DEFAULT_MAX_FRAME)
            .unwrap()
            .unwrap();
        assert_eq!(read.tag, tag);
        assert_eq!(Response::from_frame(&read).unwrap(), resp, "case {case}");
    }
}

#[test]
fn the_wire_bytes_of_a_tagged_status_exchange_are_pinned() {
    // One request and its response as literal bytes: the frame layout,
    // version byte, kinds and field encodings may not move.
    let request = Request::Status { job: 7 }.to_frame(0x0102_0304).unwrap();
    assert_eq!(
        request.encode(),
        [
            b'P', b'S', 0x02, 0x02, // magic, version, STATUS
            0, 0, 0, 8, // payload length
            1, 2, 3, 4, // tag
            0, 0, 0, 0, 0, 0, 0, 7, // job id
        ]
    );
    let response = Response::Status {
        status: Some(JobStatus::Queued { retries: 3 }),
    }
    .to_frame(0x0102_0304)
    .unwrap();
    assert_eq!(
        response.encode(),
        [
            b'P', b'S', 0x02, 0x82, // magic, version, STATUS response
            0, 0, 0, 6, // payload length
            1, 2, 3, 4, // echoed tag
            1, // status present
            0, 0, 0, 0, 3, // Queued, retries 3
        ]
    );
}

#[test]
fn every_message_status_and_journal_record_is_pinned_byte_for_byte() {
    // Literal hex; spaces only group fields. A frame is `5053 02 kind`,
    // payload length, tag 01020304, payload. D is the digest 00 01 .. 1f.
    const D: &str = "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f";
    let d = Digest(std::array::from_fn(|i| i as u8));
    let hex = |bytes: &[u8]| bytes.iter().map(|b| format!("{b:02x}")).collect::<String>();
    let pin = |bytes: &[u8], pin: &str| assert_eq!(hex(bytes), pin.replace(' ', ""));
    let request = |r: Request| r.to_frame(0x0102_0304).unwrap().encode();
    let response = |r: Response| r.to_frame(0x0102_0304).unwrap().encode();
    let status = |s: Option<JobStatus>| response(Response::Status { status: s });

    let bug = || "ab".to_string();
    pin(&request(Request::SubmitBegin { bug: bug() }), "50530206 00000006 01020304 00000002 6162");
    pin(&request(Request::SubmitChunk { data: vec![1, 2, 3] }), "50530207 00000003 01020304 010203");
    pin(&request(Request::SubmitEnd), "50530208 00000000 01020304");
    pin(&request(Request::Status { job: 7 }), "50530202 00000008 01020304 0000000000000007");
    pin(&request(Request::Result { job: 0x0102_0304_0506_0708 }), "50530203 00000008 01020304 0102030405060708");
    pin(&request(Request::Stats), "50530204 00000000 01020304");
    pin(&request(Request::Shutdown), "50530205 00000000 01020304");
    pin(&request(Request::Hello { token: vec![0xaa, 0xbb] }), "50530209 00000006 01020304 00000002 aabb");
    pin(&request(Request::PeerPutBegin { digest: d }), &format!("5053020a 00000020 01020304 {D}"));
    pin(&request(Request::PeerGet { digest: d }), &format!("5053020b 00000020 01020304 {D}"));
    pin(&request(Request::PeerStat { digest: d }), &format!("5053020c 00000020 01020304 {D}"));

    let submitted = |fresh_object, fresh_job| {
        response(Response::Submitted { job: 5, sketch: d, fresh_object, fresh_job })
    };
    pin(&submitted(true, false), &format!("50530281 0000002a 01020304 0000000000000005 {D} 01 00"));
    pin(&submitted(false, true), &format!("50530281 0000002a 01020304 0000000000000005 {D} 00 01"));
    pin(&status(None), "50530282 00000001 01020304 00");
    pin(&status(Some(JobStatus::Queued { retries: 3 })), "50530282 00000006 01020304 01 00 00000003");
    pin(&status(Some(JobStatus::Running)), "50530282 00000002 01020304 01 01");
    let succeeded = JobStatus::Succeeded { attempts: 4, certificate: d };
    pin(&status(Some(succeeded.clone())), &format!("50530282 00000026 01020304 01 02 00000004 {D}"));
    pin(&status(Some(JobStatus::Exhausted { attempts: 5 })), "50530282 00000006 01020304 01 03 00000005");
    pin(&status(Some(JobStatus::TimedOut { attempts: 6 })), "50530282 00000006 01020304 01 04 00000006");
    let failed = JobStatus::Failed { message: "no".into() };
    pin(&status(Some(failed.clone())), "50530282 00000008 01020304 01 05 00000002 6e6f");
    pin(&response(Response::Result { certificate: vec![1, 2] }), "50530283 00000006 01020304 00000002 0102");
    pin(&response(Response::Stats { text: "x=1".into() }), "50530284 00000007 01020304 00000003 783d31");
    pin(&response(Response::ShuttingDown), "50530285 00000000 01020304");
    pin(&response(Response::HelloOk), "50530286 00000000 01020304");
    pin(&response(Response::PeerPut { digest: d, fresh: true }), &format!("50530287 00000021 01020304 {D} 01"));
    pin(&response(Response::PeerPut { digest: d, fresh: false }), &format!("50530287 00000021 01020304 {D} 00"));
    pin(&response(Response::PeerObject { body: None }), "50530288 00000001 01020304 00");
    pin(&response(Response::PeerObject { body: Some(vec![7]) }), "50530288 00000006 01020304 01 00000001 07");
    pin(&response(Response::PeerStatIs { present: true }), "50530289 00000001 01020304 01");
    pin(&response(Response::PeerStatIs { present: false }), "50530289 00000001 01020304 00");
    pin(&response(Response::Error { message: "bad".into() }), "505302ff 00000007 01020304 00000003 626164");

    // The journal as `Journal::append` leaves it on disk: the magic, then
    // per record `len u32 | payload (kind, fields) | crc32 u32`.
    let path = common::scratch("pins");
    let (journal, _) = Journal::open(&path).unwrap();
    journal.append(&Record::Submit { job: 1, bug: bug(), sketch: d }).unwrap();
    journal.append(&Record::Retry { job: 1, retries: 2 }).unwrap();
    journal.append(&Record::Result { job: 1, status: succeeded }).unwrap();
    journal.append(&Record::Result { job: 2, status: failed }).unwrap();
    let on_disk = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).unwrap();
    pin(&on_disk, &format!(
        "50534a32 \
         0000002f 01 0000000000000001 00000002 6162 {D} 23b28f3a \
         0000000d 02 0000000000000001 00000002 bc46bb55 \
         0000002e 03 0000000000000001 02 00000004 {D} 87da1928 \
         00000010 03 0000000000000002 05 00000002 6e6f f09939f3"
    ));
}

// ---------------------------------------------------------------------------
// Rejection properties.
// ---------------------------------------------------------------------------

#[test]
fn every_truncation_of_a_valid_frame_is_rejected_cleanly() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x5c_73);
    for _ in 0..50 {
        let bytes = gen_request(&mut rng)
            .to_frame(rng.next_u32())
            .unwrap()
            .encode();
        for cut in 0..bytes.len() {
            // Truncation is a transport error (connection died mid-frame),
            // never a successful parse and never a panic.
            assert!(
                Frame::read_from(&mut &bytes[..cut], DEFAULT_MAX_FRAME).is_err(),
                "cut at {cut}/{}",
                bytes.len()
            );
        }
    }
}

#[test]
fn truncated_v2_frames_are_incomplete_never_garbage() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x5c_7b);
    for _ in 0..50 {
        let bytes = gen_request(&mut rng)
            .to_frame(rng.next_u32())
            .unwrap()
            .encode();
        for cut in 0..bytes.len() {
            // Every proper prefix of a valid frame is "read more", never a
            // parse and never a framing error.
            assert!(
                Frame::parse(&bytes[..cut], DEFAULT_MAX_FRAME)
                    .unwrap()
                    .is_none(),
                "cut at {cut}/{}",
                bytes.len()
            );
        }
    }
}

#[test]
fn corrupted_headers_are_rejected_with_the_right_error() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x5c_74);
    for _ in 0..100 {
        let good = gen_request(&mut rng)
            .to_frame(rng.next_u32())
            .unwrap()
            .encode();

        let mut bad_magic = good.clone();
        bad_magic[rng.gen_range(0..2usize)] ^= 1 << rng.gen_range(0..8usize);
        assert!(matches!(
            Frame::read_from(&mut &bad_magic[..], DEFAULT_MAX_FRAME)
                .unwrap()
                .unwrap_err(),
            ProtoError::BadMagic(_)
        ));

        let mut bad_version = good.clone();
        bad_version[2] = VERSION.wrapping_add(rng.gen_range(1..=255u32) as u8);
        assert!(matches!(
            Frame::read_from(&mut &bad_version[..], DEFAULT_MAX_FRAME)
                .unwrap()
                .unwrap_err(),
            ProtoError::BadVersion(_)
        ));
    }
}

#[test]
fn corrupted_v2_headers_fail_with_framing_severity() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x5c_7c);
    for _ in 0..100 {
        let good = gen_request(&mut rng)
            .to_frame(rng.next_u32())
            .unwrap()
            .encode();

        let mut bad_magic = good.clone();
        bad_magic[rng.gen_range(0..2usize)] ^= 1 << rng.gen_range(0..8usize);
        let err = Frame::parse(&bad_magic, DEFAULT_MAX_FRAME).unwrap_err();
        assert!(matches!(err, ProtoError::BadMagic(_)));
        assert_eq!(err.severity(), Severity::Framing);

        let mut bad_version = good.clone();
        bad_version[2] = VERSION.wrapping_add(rng.gen_range(1..=255u32) as u8);
        let err = Frame::parse(&bad_version, DEFAULT_MAX_FRAME).unwrap_err();
        assert!(matches!(err, ProtoError::BadVersion(_)));
        assert_eq!(err.severity(), Severity::Framing);

        let mut oversize = good.clone();
        let cap = rng.gen_range(0..=1024u32);
        let len = cap.saturating_add(rng.gen_range(1..=u32::MAX - 1024));
        oversize[4..8].copy_from_slice(&len.to_be_bytes());
        let err = Frame::parse(&oversize, cap).unwrap_err();
        assert!(matches!(err, ProtoError::Oversized { .. }));
        assert_eq!(err.severity(), Severity::Framing);
    }
}

#[test]
fn a_v1_header_is_a_framing_version_error() {
    // Version 1 framed the same kinds without a tag. Both readers refuse
    // it from its 8-byte prefix alone — before a tag or payload is read —
    // as a connection-fatal version error, never a misparse.
    let mut rng = ChaCha8Rng::seed_from_u64(0x5c_7e);
    for _ in 0..50 {
        let frame = gen_request(&mut rng).to_frame(rng.next_u32()).unwrap();
        let mut v1 = b"PS\x01".to_vec();
        v1.push(frame.kind);
        v1.extend_from_slice(&(frame.payload.len() as u32).to_be_bytes());
        v1.extend_from_slice(&frame.payload);
        let err = Frame::read_from(&mut &v1[..8], DEFAULT_MAX_FRAME)
            .unwrap()
            .unwrap_err();
        assert_eq!(err, ProtoError::BadVersion(1));
        assert_eq!(err.severity(), Severity::Framing);
        assert_eq!(Frame::parse(&v1, DEFAULT_MAX_FRAME).unwrap_err(), err);
    }
}

#[test]
fn oversized_length_prefixes_are_rejected_before_allocation() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x5c_75);
    for _ in 0..100 {
        let mut bytes = gen_request(&mut rng)
            .to_frame(rng.next_u32())
            .unwrap()
            .encode();
        let cap = rng.gen_range(0..=1024u32);
        let oversize = cap.saturating_add(rng.gen_range(1..=u32::MAX - 1024));
        bytes[4..8].copy_from_slice(&oversize.to_be_bytes());
        match Frame::read_from(&mut &bytes[..], cap).unwrap().unwrap_err() {
            ProtoError::Oversized { len, max } => {
                assert_eq!(len, oversize);
                assert_eq!(max, cap);
            }
            other => panic!("expected Oversized, got {other:?}"),
        }
    }
}

/// Mutates a frame's kind, one payload bit, or the payload length.
fn mutate(rng: &mut ChaCha8Rng, frame: &mut Frame) {
    match rng.gen_range(0..3usize) {
        0 => frame.kind = rng.next_u32() as u8,
        1 if !frame.payload.is_empty() => {
            let i = rng.gen_range(0..frame.payload.len());
            frame.payload[i] ^= 1 << rng.gen_range(0..8usize);
        }
        _ => {
            let new_len = rng.gen_range(0..frame.payload.len() + 9);
            frame.payload.resize(new_len, rng.next_u32() as u8);
        }
    }
}

#[test]
fn random_payload_mutations_never_panic_the_decoder() {
    // The response decoder, which every client runs on daemon bytes.
    let mut rng = ChaCha8Rng::seed_from_u64(0x5c_76);
    let mut survivors = 0u32;
    for _ in 0..500 {
        let mut frame = gen_response(&mut rng).to_frame(rng.next_u32()).unwrap();
        mutate(&mut rng, &mut frame);
        // Must not panic; decoding to a *different but valid* message is
        // acceptable (a flipped bit inside a string stays a string).
        if Response::from_frame(&frame).is_ok() {
            survivors += 1;
        }
    }
    // The decoder isn't so loose that everything passes.
    assert!(survivors < 400, "decoder accepted {survivors}/500 mutants");
}

#[test]
fn v2_payload_mutations_fail_with_payload_severity_not_panics() {
    // The request decoder, which the daemon runs on client bytes.
    let mut rng = ChaCha8Rng::seed_from_u64(0x5c_7d);
    let mut survivors = 0u32;
    for _ in 0..500 {
        let mut frame = gen_request(&mut rng).to_frame(rng.next_u32()).unwrap();
        mutate(&mut rng, &mut frame);
        match Request::from_frame(&frame) {
            Ok(_) => survivors += 1,
            // Whatever the decode error, it costs one request, not the
            // connection: pipelined peers depend on that.
            Err(e) => assert_eq!(e.severity(), Severity::Payload),
        }
    }
    assert!(survivors < 400, "decoder accepted {survivors}/500 mutants");
}

#[test]
fn pure_garbage_streams_never_panic_the_frame_reader() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x5c_77);
    for _ in 0..300 {
        let junk = gen_bytes(&mut rng, 64);
        // Any outcome except a panic is fine; almost all junk fails magic.
        let _ = Frame::read_from(&mut &junk[..], 4096);
        let _ = Frame::parse(&junk, 4096);
    }
}

#[test]
fn empty_chunks_and_empty_streams_are_legal_frames() {
    let chunk = Request::SubmitChunk { data: Vec::new() };
    let bytes = chunk.to_frame(7).unwrap().encode();
    let (frame, used) = Frame::parse(&bytes, DEFAULT_MAX_FRAME).unwrap().unwrap();
    assert_eq!(used, bytes.len());
    assert_eq!(Request::from_frame(&frame).unwrap(), chunk);
    // A frame with an empty payload is exactly the 12-byte header.
    assert_eq!(
        Frame {
            tag: 7,
            kind: 0x08,
            payload: Vec::new()
        }
        .encode()
        .len(),
        12
    );
}
