//! The byte codec's fuzz harness. Seeded varint-overwrite mutants of a
//! classic v2 recording (no checkpoint segment, so the body's directory
//! follows the header) and of the committed v3 fixture, a corpus
//! certificate, the v3 fixture's embedded `VmSnapshot`, one journal record
//! payload of each kind and one protocol frame of each request and
//! response kind go through every decoder that reads hostile bytes:
//! `decode_sketch`, `decode_index`, `layout`, `Certificate::decode`,
//! `VmSnapshot::decode`, journal replay (the mutant payload re-framed with
//! a valid checksum, so the record decoder runs) and `Frame::parse` +
//! `{Request,Response}::from_frame`. No decode may panic, or ask the
//! allocator for more than `16 × len + 64 KiB` bytes in all, `len` being
//! the bytes it was given.
//!
//! The same counting allocator bounds the encoder: a sketch with sparse
//! thread ids encodes in memory proportional to its entries, never to its
//! largest thread id.

mod common;

use pres_core::codec::{decode_index, decode_sketch, encode_sketch, layout};
use pres_core::sketch::{Mechanism, Sketch, SketchEntry, SketchMeta, SketchOp};
use pres_core::{Certificate, Pres};
use pres_suite::apps::all_bugs;
use pres_svc::crc::crc32;
use pres_svc::journal::{Journal, Record, MAGIC};
use pres_svc::proto::{Frame, Request, Response, DEFAULT_MAX_FRAME};
use pres_svc::{sha256, JobStatus};
use pres_tvm::bytes::Writer;
use pres_tvm::ids::ThreadId;
use pres_tvm::op::OpResult;
use pres_tvm::rng::ChaCha8Rng;
use pres_tvm::snapshot::VmSnapshot;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Mutants drawn per input; 28 inputs make 28 672 mutants.
const MUTANTS_PER_INPUT: usize = 1024;
/// The generator seed every mutant stream derives from.
const SEED: u64 = 0xdec0de;

const FIXTURE_V3: &[u8] = include_bytes!("data/fixture_v3.sketch");

/// Counts the bytes each thread asks the system allocator for.
struct Counting;

thread_local! {
    static REQUESTED: Cell<usize> = const { Cell::new(0) };
}

// `alloc_zeroed` and `realloc` default to `alloc`, so they count too.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // `try_with`: allocations during thread teardown find no counter.
        let _ = REQUESTED.try_with(|r| r.set(r.get().saturating_add(layout.size())));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Runs `decode` over `len` input bytes: it must not panic, and must not
/// request more than the bound from the allocator.
fn check(label: &str, mutant: usize, len: usize, decode: impl FnOnce()) {
    REQUESTED.with(|r| r.set(0));
    let outcome = catch_unwind(AssertUnwindSafe(decode));
    let requested = REQUESTED.with(Cell::get);
    assert!(outcome.is_ok(), "{label} mutant {mutant}: the decoder panicked");
    let bound = 16 * len + (64 << 10);
    assert!(
        requested <= bound,
        "{label} mutant {mutant}: {requested} bytes requested for a {len}-byte input (bound {bound})"
    );
}

/// `base` with the LEB128 bytes of one hostile value written over a
/// random offset (extending it when they run past the end).
fn mutant(base: &[u8], rng: &mut ChaCha8Rng) -> Vec<u8> {
    let mut w = Writer::new();
    match rng.gen_range(0..4usize) {
        0 => w.varint(rng.next_u64() >> rng.gen_range(0..64usize)),
        1 => w.varint((1 << 32) + rng.gen_range(0..8u64)),
        2 => w.varint(1 << rng.gen_range(0..64usize)),
        _ => {
            for _ in 0..9 {
                w.u8(0xff);
            }
            w.u8(rng.gen_range(2..=127u32) as u8);
        }
    }
    let mut out = base.to_vec();
    let at = rng.gen_range(0..base.len().max(1));
    for (i, b) in w.finish().into_iter().enumerate() {
        match out.get_mut(at + i) {
            Some(slot) => *slot = b,
            None => out.push(b),
        }
    }
    out
}

/// Draws `MUTANTS_PER_INPUT` mutants of `base` and checks `decode` on
/// each.
fn fuzz(label: &str, base: &[u8], rng: &mut ChaCha8Rng, mut decode: impl FnMut(&[u8])) {
    for i in 0..MUTANTS_PER_INPUT {
        let bytes = mutant(base, rng);
        check(label, i, bytes.len(), || decode(&bytes));
    }
}

/// A corpus bug's failing production run, recorded classically under
/// SYNC: its v2 container, and the certificate of its schedule (which
/// replays the failure, as a minted certificate's does).
fn corpus_sketch_and_certificate() -> (Vec<u8>, Vec<u8>) {
    let case = all_bugs().into_iter().find(|b| b.id == "pbzip-order").unwrap();
    let program = case.program();
    let run = Pres::new(Mechanism::Sync)
        .record_until_failure(program.as_ref(), 0..5000)
        .expect("bug manifests in production");
    let certificate = Certificate {
        program: case.id.to_string(),
        schedule: run.outcome.schedule.clone(),
        expected_signature: run.sketch.meta.failure_signature.clone(),
        processors: run.sketch.meta.processors,
    };
    (encode_sketch(&run.sketch), certificate.encode())
}

/// One record payload of each journal kind, as `Journal::append` frames
/// them: `(len u32 BE, payload, crc u32 BE)` after the file magic.
fn journal_payloads(dir: &std::path::Path) -> Vec<Vec<u8>> {
    let path = dir.join("seed.journal");
    let (journal, _) = Journal::open(&path).unwrap();
    journal
        .append_batch(&[
            Record::Submit {
                job: 7,
                bug: "pbzip-order".into(),
                sketch: sha256(b"sketch"),
            },
            Record::Retry { job: 7, retries: 2 },
            Record::Result {
                job: 7,
                status: JobStatus::Failed {
                    message: "unknown bug".into(),
                },
            },
        ])
        .unwrap();
    drop(journal);
    let data = std::fs::read(&path).unwrap();
    let mut rest = &data[MAGIC.len()..];
    let mut payloads = Vec::new();
    while !rest.is_empty() {
        let len = u32::from_be_bytes(rest[..4].try_into().unwrap()) as usize;
        payloads.push(rest[4..4 + len].to_vec());
        rest = &rest[4 + len + 4..];
    }
    payloads
}

/// One frame of every request and response kind.
fn frames() -> Vec<Vec<u8>> {
    let digest = sha256(b"object");
    let requests = [
        Request::SubmitBegin { bug: "b".into() },
        Request::SubmitChunk { data: vec![1] },
        Request::SubmitEnd,
        Request::Status { job: 3 },
        Request::Result { job: 3 },
        Request::Stats,
        Request::Shutdown,
        Request::Hello { token: vec![2] },
        Request::PeerPutBegin { digest },
        Request::PeerGet { digest },
        Request::PeerStat { digest },
    ];
    let status = Some(JobStatus::Succeeded {
        attempts: 4,
        certificate: digest,
    });
    let responses = [
        Response::Submitted {
            job: 3,
            sketch: digest,
            fresh_object: true,
            fresh_job: false,
        },
        Response::Status { status },
        Response::Result { certificate: vec![3] },
        Response::Stats { text: "s".into() },
        Response::ShuttingDown,
        Response::HelloOk,
        Response::PeerPut { digest, fresh: true },
        Response::PeerObject { body: Some(vec![4]) },
        Response::PeerStatIs { present: true },
        Response::Error { message: "e".into() },
    ];
    let requests = requests.iter().map(|r| r.to_frame(9).unwrap().encode());
    let responses = responses.iter().map(|r| r.to_frame(9).unwrap().encode());
    requests.chain(responses).collect()
}

#[test]
fn hostile_bytes_never_panic_a_decoder_or_ask_for_unbounded_memory() {
    let mut rng = ChaCha8Rng::seed_from_u64(SEED);
    let (sketch, certificate) = corpus_sketch_and_certificate();
    assert_eq!(layout(&sketch).unwrap().checkpoint_bytes, None);
    for (label, container) in [("v2 recording", &sketch[..]), ("v3 fixture", FIXTURE_V3)] {
        fuzz(label, container, &mut rng, |bytes| {
            let _ = decode_sketch(bytes);
            let _ = decode_index(bytes);
            let _ = layout(bytes);
        });
    }

    fuzz("certificate", &certificate, &mut rng, |bytes| {
        let _ = Certificate::decode(bytes);
    });

    let snapshot = decode_sketch(FIXTURE_V3)
        .unwrap()
        .checkpoint
        .expect("the v3 fixture carries a checkpoint")
        .snapshot;
    VmSnapshot::decode(&snapshot).expect("the embedded snapshot decodes");
    fuzz("vm snapshot", &snapshot, &mut rng, |bytes| {
        let _ = VmSnapshot::decode(bytes);
    });

    let dir = common::scratch("journal");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("mutant.journal");
    let payloads = journal_payloads(&dir);
    assert_eq!(payloads.len(), 3);
    for payload in &payloads {
        for i in 0..MUTANTS_PER_INPUT {
            let bytes = mutant(payload, &mut rng);
            let mut image = MAGIC.to_vec();
            image.extend_from_slice(&(bytes.len() as u32).to_be_bytes());
            image.extend_from_slice(&bytes);
            image.extend_from_slice(&crc32(&bytes).to_be_bytes());
            std::fs::write(&path, &image).unwrap();
            check("journal replay", i, image.len(), || {
                let _ = Journal::open(&path);
            });
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();

    let frames = frames();
    assert_eq!(frames.len(), 21);
    for frame in &frames {
        fuzz("frame", frame, &mut rng, |bytes| {
            if let Ok(Some((frame, _))) = Frame::parse(bytes, DEFAULT_MAX_FRAME) {
                let _ = Request::from_frame(&frame);
                let _ = Response::from_frame(&frame);
            }
        });
    }
}

#[test]
fn sparse_thread_ids_encode_in_memory_proportional_to_the_entries() {
    // Runs of 50 entries cycling over tids {0, 7, u32::MAX - 1}: a table
    // indexed by the largest tid would ask for 16 GiB.
    let tids = [0, 7, u32::MAX - 1];
    let entries: Vec<SketchEntry> = (0..3_000u32)
        .map(|k| SketchEntry {
            tid: ThreadId(tids[(k / 50) as usize % tids.len()]),
            op: SketchOp::Bb(k),
            result: OpResult::Unit,
        })
        .collect();
    let sketch = Sketch {
        mechanism: Mechanism::Bb,
        entries,
        meta: SketchMeta::default(),
        checkpoint: None,
    };
    REQUESTED.with(|r| r.set(0));
    let bytes = encode_sketch(&sketch);
    let requested = REQUESTED.with(Cell::get);
    assert_eq!(decode_sketch(&bytes).unwrap(), sketch);
    let bound = 16 * bytes.len();
    assert!(
        requested <= bound,
        "{requested} bytes requested to encode a {}-byte container (bound {bound})",
        bytes.len()
    );
}
