//! The daemon's decode path against the reference path, and hostile
//! bytes against both.
//!
//! `codec::decode_index` builds the compact replay index straight from
//! container bytes through the same body walker `decode_sketch` uses. It
//! must agree with `decode_sketch` + `SketchIndex::new` on every valid
//! container — the corpus (13 bugs × 6 mechanisms × {classic, 2×16-entry
//! ring}), a production-scale tiled blob, and dictionaries wide enough to
//! need 16- and 32-bit op ids — and fail with the *identical*
//! `DecodeError` (offset and message) on every invalid one: every
//! truncation of every corpus container and committed fixture, single-byte
//! corruptions of the fixtures, and three committed hostile containers
//! that used to crash or exhaust the daemon.

use pres_core::codec::{decode_index, decode_sketch, encode_sketch, DecodeError};
use pres_core::recorder::RingConfig;
use pres_core::sketch::{Mechanism, Sketch, SketchEntry, SketchIndex, SketchOp};
use pres_core::Pres;
use pres_suite::apps::all_bugs;
use pres_tvm::bytes::Writer;
use pres_tvm::ids::{FdId, ThreadId};
use pres_tvm::op::OpResult;

const FIXTURE_V1: &[u8] = include_bytes!("data/fixture_v1.sketch");
const FIXTURE_V3: &[u8] = include_bytes!("data/fixture_v3.sketch");
const DATA: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/data");

/// Every corpus bug under every mechanism, recorded classically and under
/// a 2×16-entry ring: `(label, sketch)`.
fn corpus() -> Vec<(String, Sketch)> {
    let ring = RingConfig {
        epoch_entries: 16,
        epoch_cost: 0,
        ring_epochs: 2,
    };
    let mut out = Vec::new();
    for bug in all_bugs() {
        let program = bug.program();
        for mechanism in Mechanism::all() {
            for (shape, pres) in [
                ("classic", Pres::new(mechanism)),
                ("ring", Pres::new(mechanism).with_ring(ring.clone())),
            ] {
                // A clean run indexes just as well when no seed fails.
                let run = pres
                    .record_until_failure(program.as_ref(), 0..500)
                    .unwrap_or_else(|| pres.record(program.as_ref(), 0));
                out.push((format!("{} {mechanism} {shape}", bug.id), run.sketch));
            }
        }
    }
    out
}

/// The reference result `decode_index` must reproduce.
fn reference(bytes: &[u8]) -> Result<(pres_core::SketchMeta, SketchIndex), String> {
    decode_sketch(bytes)
        .map(|s| (s.meta.clone(), SketchIndex::new(&s)))
        .map_err(|e| e.to_string())
}

fn assert_agrees(label: &str, bytes: &[u8]) {
    let got = decode_index(bytes).map_err(|e| e.to_string());
    assert_eq!(got, reference(bytes), "{label}: decode_index disagrees");
}

/// Every proper prefix fails, identically in both decoders.
fn assert_truncations_agree(label: &str, bytes: &[u8]) {
    for cut in 0..bytes.len() {
        let want = decode_sketch(&bytes[..cut]).expect_err("a proper prefix never decodes");
        let got = decode_index(&bytes[..cut]).expect_err("a proper prefix never decodes");
        assert_eq!(got, want, "{label}: cut at {cut}");
    }
}

#[test]
fn decode_index_equals_the_reference_index_across_the_corpus() {
    let corpus = corpus();
    assert_eq!(corpus.len(), 13 * 6 * 2);
    assert!(
        corpus
            .iter()
            .any(|(_, s)| s.checkpoint.as_deref().is_some_and(|cp| !cp.is_genesis())),
        "no ring run rotated; the checkpoint-bearing arm tested nothing"
    );
    for (label, sketch) in &corpus {
        let bytes = encode_sketch(sketch);
        let (meta, index) = decode_index(&bytes).unwrap_or_else(|e| panic!("{label}: {e}"));
        assert_eq!(meta, sketch.meta, "{label}");
        assert_eq!(index, SketchIndex::new(sketch), "{label}");
        assert_eq!(index.checkpoint(), sketch.checkpoint.as_deref(), "{label}");
    }
}

#[test]
fn truncated_corpus_containers_fail_identically() {
    for (label, sketch) in corpus() {
        assert_truncations_agree(&label, &encode_sketch(&sketch));
    }
    assert_truncations_agree("fixture_v1", FIXTURE_V1);
    assert_truncations_agree("fixture_v3", FIXTURE_V3);
}

#[test]
fn corrupted_fixtures_decode_or_fail_identically() {
    for (label, fixture) in [("fixture_v1", FIXTURE_V1), ("fixture_v3", FIXTURE_V3)] {
        assert_agrees(label, fixture);
        for at in 0..fixture.len() {
            for value in [0x00, 0x01, 0x7f, 0x80, 0xff, fixture[at] ^ 0x40] {
                let mut bytes = fixture.to_vec();
                bytes[at] = value;
                assert_agrees(&format!("{label} byte {at} = {value:#04x}"), &bytes);
            }
        }
    }
}

#[test]
fn a_production_scale_tiled_blob_indexes_identically() {
    // The benchmark's ingest-large blob: one pbzip-order SYNC recording
    // with its entry stream tiled × 500.
    let bug = all_bugs()
        .into_iter()
        .find(|b| b.id == "pbzip-order")
        .expect("corpus bug");
    let base = Pres::new(Mechanism::Sync)
        .record_until_failure(bug.program().as_ref(), 1000..9000)
        .expect("failing production run")
        .sketch;
    let mut big = base.clone();
    big.entries = base
        .entries
        .iter()
        .cycle()
        .take(base.len() * 500)
        .cloned()
        .collect();
    let bytes = encode_sketch(&big);
    let (_, index) = decode_index(&bytes).expect("tiled blob decodes");
    assert_eq!(index, SketchIndex::new(&big));
    assert_eq!(index.id_bits(), 8);
    // The daemon's cache budget (64 MiB for ingest-large's 128 blobs)
    // leaves 8 bytes per entry all-in.
    let per_entry = index.resident_bytes() as f64 / index.len() as f64;
    assert!(per_entry < 6.0, "{per_entry:.2} resident bytes per entry");
}

#[test]
fn wide_dictionaries_round_trip_through_wider_ids() {
    for (distinct, bits) in [(257u32, 16), (70_000, 32)] {
        let mut sketch = Sketch::new(Mechanism::Func);
        sketch.entries = (0..distinct)
            .map(|f| SketchEntry {
                tid: ThreadId(f % 4),
                op: SketchOp::Func(f),
                result: OpResult::Unit,
            })
            .collect();
        let bytes = encode_sketch(&sketch);
        let (_, index) = decode_index(&bytes).expect("synthetic sketch decodes");
        assert_eq!(index, SketchIndex::new(&sketch), "{distinct} distinct ops");
        assert_eq!(
            (index.distinct_ops(), index.id_bits()),
            (distinct as usize, bits)
        );
    }
}

/// A container header with an empty program name and signature.
fn header(w: &mut Writer) {
    for b in *b"PRES" {
        w.u8(b);
    }
    w.u8(2); // container v2
    w.u8(1); // SYNC
    w.varint(0); // mechanism argument
    w.str(""); // program
    w.varint(0); // seed
    w.varint(0); // processors
    w.varint(0); // total ops
    w.str(""); // failure signature
}

/// The three hostile containers committed under `tests/data/`, one per
/// defect the shared walker used to have.
fn hostile() -> [(&'static str, Vec<u8>); 3] {
    // 1. A syscall result whose byte-length varint is near `u64::MAX`:
    //    `pos + len` wrapped and the slice panicked.
    let mut slice_len = Writer::new();
    header(&mut slice_len);
    slice_len.varint(1); // entries
    slice_len.varint(1); // threads
    slice_len.varint(0); // tid 0
    slice_len.u8(0); // plain interleave
    slice_len.varint(0); // entry 0 → thread 0
    slice_len.u8(27 | (1 << 6)); // SYS Read, operand delta 0
    slice_len.u8(2); // RES_BYTES
    slice_len.varint(u64::MAX - 3); // payload length
    slice_len.u8(0);

    // 2. 29 bytes claiming 2^36 entries in one RLE run: the interleave
    //    vector asked for 512 GiB and aborted the process.
    let mut entry_count = Writer::new();
    header(&mut entry_count);
    entry_count.varint(1 << 36); // entries
    entry_count.varint(1); // threads
    entry_count.varint(0); // tid 0
    entry_count.u8(1); // RLE interleave
    entry_count.varint(1); // one run
    entry_count.varint(0); // of thread 0
    entry_count.varint(1 << 36); // covering every entry

    // 3. A tid delta that overflows `u64`: wrapped to a tid *below* its
    //    predecessor, breaking the ascending thread directory.
    let mut tid_delta = Writer::new();
    header(&mut tid_delta);
    tid_delta.varint(2); // entries
    tid_delta.varint(2); // threads
    tid_delta.varint(5); // tid 5
    tid_delta.varint(u64::MAX - 5); // next tid: 5 + 1 + (2^64 - 6)
    tid_delta.u8(0); // plain interleave
    tid_delta.varint(0);
    tid_delta.varint(1);
    tid_delta.u8(0); // START
    tid_delta.u8(0); // START

    [
        ("hostile_slice_len.sketch", slice_len.finish()),
        ("hostile_entry_count.sketch", entry_count.finish()),
        ("hostile_tid_delta.sketch", tid_delta.finish()),
    ]
}

#[test]
fn hostile_containers_are_errors_in_both_decoders() {
    for (name, built) in hostile() {
        let committed =
            std::fs::read(format!("{DATA}/{name}")).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(
            committed, built,
            "{name}: committed bytes drifted from their recipe"
        );
        let want = decode_sketch(&committed).expect_err(name);
        let got = decode_index(&committed).expect_err(name);
        assert_eq!(got, want, "{name}");
        assert_truncations_agree(name, &committed);
    }
    let (_, entry_count) = &hostile()[1];
    assert_eq!(entry_count.len(), 29);
}

/// A container of `version` whose header carries `seed` as raw bytes (so
/// a non-varint can stand there) and `processors`, then `body`.
fn forged(version: u8, seed: &[u8], processors: u64, body: &[u64]) -> Vec<u8> {
    let mut w = Writer::new();
    w.raw(b"PRES");
    w.u8(version);
    w.u8(1); // SYNC
    w.varint(0); // mechanism argument
    w.str(""); // program
    w.raw(seed);
    w.varint(processors);
    w.varint(0); // total ops
    w.str(""); // failure signature
    for &v in body {
        w.varint(v);
    }
    w.finish()
}

/// The codec's two decode rules at container level: a varint whose tenth
/// byte would drop bits, an overlong (zero-padded) varint, and a `u32`
/// field above `u32::MAX`, are refused
/// at the same offset with the same message by both decoders, where the
/// honest container beside each one decodes.
#[test]
fn overflowing_varints_and_ids_above_u32_are_refused_by_both_decoders() {
    let seed = |tenth: u8| [0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, tenth];
    // v2: no entries, no threads, plain interleave.
    let empty = [0, 0, 0];
    // v2: one START (code 0) on thread `tid`, plain interleave.
    let tid = |tid: u64| [1, 1, tid, 0, 0, 0];
    // v2: one `read` syscall (code 27, operand delta 0) on thread 0,
    // plain interleave, whose result is RES_FD (9) `fd`.
    let fd = |fd: u64| [1, 1, 0, 0, 0, 27 | (1 << 6), 9, fd];

    let honest = decode_sketch(&forged(2, &seed(1), 7, &empty)).unwrap();
    assert_eq!((honest.meta.seed, honest.meta.processors), (u64::MAX, 7));
    let honest = decode_sketch(&forged(2, &[0], 0, &tid(5))).unwrap();
    assert_eq!(honest.entries[0].tid, ThreadId(5));
    let honest = decode_sketch(&forged(2, &[0], 0, &fd(3))).unwrap();
    assert_eq!(honest.entries[0].result, OpResult::Fd(FdId(3)));

    let cases = [
        (forged(2, &seed(3), 7, &empty), 18, "varint overflow"),
        (forged(2, &seed(0), 7, &empty), 18, "overlong varint"),
        (forged(2, &[0x84, 0x00], 7, &empty), 10, "overlong varint"),
        (forged(2, &[0], (1 << 32) + 7, &empty), 14, "processor count out of range"),
        (forged(2, &[0], 0, &tid(1 << 32)), 19, "thread id out of range"),
        (forged(2, &[0], 0, &fd((1 << 32) + 3)), 24, "fd id out of range"),
    ];
    for (bytes, offset, message) in cases {
        let want = DecodeError {
            offset,
            message: message.into(),
        };
        assert_eq!(decode_sketch(&bytes).expect_err(message), want);
        assert_eq!(decode_index(&bytes).expect_err(message), want);
    }
}

/// Rewrites the hostile fixtures from their recipes:
/// `cargo test --test index_equivalence -- --ignored`.
#[test]
#[ignore]
fn regenerate_hostile_fixtures() {
    for (name, bytes) in hostile() {
        std::fs::write(format!("{DATA}/{name}"), bytes).unwrap();
    }
}
