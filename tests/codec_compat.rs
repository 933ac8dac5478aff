//! On-disk format compatibility: committed containers must keep decoding
//! byte-for-byte forever, whatever the current default version — the v1
//! legacy format (no longer written) and the v3 checkpoint-bearing
//! ring-flush format alike.

use pres_core::codec::{checkpoint_segment_bytes, container_version, decode_sketch, encode_sketch};
use pres_core::sketch::{Mechanism, Sketch, SketchEntry, SketchMeta, SketchOp, SyncKind, SysKind};
use pres_suite::tvm::prelude::*;
use pres_tvm::op::{MemLoc, OpResult};

const FIXTURE: &[u8] = include_bytes!("data/fixture_v1.sketch");
const FIXTURE_V3: &[u8] = include_bytes!("data/fixture_v3.sketch");

/// The exact sketch `data/fixture_v1.sketch` was written from. Committed
/// alongside the bytes so the fixture never depends on the recorder.
fn fixture_sketch() -> Sketch {
    let entry = |tid: u32, op: SketchOp| SketchEntry {
        tid: ThreadId(tid),
        op,
        result: OpResult::Unit,
    };
    Sketch {
        mechanism: Mechanism::Sync,
        entries: vec![
            entry(0, SketchOp::Start),
            entry(0, SketchOp::Spawn),
            entry(1, SketchOp::Start),
            entry(
                1,
                SketchOp::Sync {
                    kind: SyncKind::Lock,
                    obj: 3,
                },
            ),
            entry(
                0,
                SketchOp::Mem {
                    loc: MemLoc::Var(VarId(12)),
                    write: true,
                },
            ),
            entry(
                1,
                SketchOp::Sync {
                    kind: SyncKind::Unlock,
                    obj: 3,
                },
            ),
            SketchEntry {
                tid: ThreadId(1),
                op: SketchOp::Sys {
                    kind: SysKind::Read,
                    obj: 5,
                },
                result: OpResult::Bytes(b"payload".to_vec()),
            },
            entry(1, SketchOp::Exit),
            entry(0, SketchOp::Join { target: 1 }),
            entry(0, SketchOp::Exit),
        ],
        meta: SketchMeta {
            program: "fixture-app".into(),
            seed: 99,
            processors: 4,
            total_ops: 321,
            failure_signature: "assert: broken invariant".into(),
        },
        checkpoint: None,
    }
}

#[test]
fn committed_v1_fixture_still_decodes() {
    assert_eq!(container_version(FIXTURE).unwrap(), 1);
    let decoded = decode_sketch(FIXTURE).expect("v1 fixture decodes");
    assert_eq!(decoded, fixture_sketch());
}

/// The committed v3 fixture: a real rotated-ring flush of
/// `httpd-log-atomicity` (seed 1, `epoch_entries 48`, `ring_epochs 2`),
/// so the checkpoint segment is load-bearing — nonzero boundary, evicted
/// epochs, and a 640-byte embedded VM snapshot the decoder validates.
#[test]
fn committed_v3_ring_fixture_still_decodes() {
    assert_eq!(container_version(FIXTURE_V3).unwrap(), 3);
    let decoded = decode_sketch(FIXTURE_V3).expect("v3 fixture decodes");
    let cp = decoded
        .checkpoint
        .as_deref()
        .expect("the fixture carries a checkpoint");
    assert_eq!(decoded.meta.program, "httpd-log-atomicity");
    assert_eq!(decoded.meta.seed, 1);
    assert_eq!(decoded.entries.len(), 48);
    assert_eq!(cp.boundary, 249);
    assert_eq!(cp.production_seed, 1);
    assert_eq!((cp.dropped_epochs, cp.dropped_entries), (2, 96));
    assert_eq!(cp.epochs.len(), 2);
    assert_eq!(cp.retained_entries(), 48);
    assert!(!cp.snapshot.is_empty());
    assert_eq!(
        checkpoint_segment_bytes(FIXTURE_V3).unwrap(),
        Some(661),
        "checkpoint segment size is part of the committed layout"
    );
    // And the current encoder still produces those exact bytes.
    assert_eq!(encode_sketch(&decoded), FIXTURE_V3);
}

/// Regenerates the v3 fixture after an *intentional* format change:
/// `cargo test --test codec_compat -- --ignored`. Update the literal
/// assertions in [`committed_v3_ring_fixture_still_decodes`] to match.
#[test]
#[ignore]
fn regenerate_v3_fixture() {
    use pres_core::{Pres, RingConfig};
    let bug = pres_suite::apps::registry::all_bugs()
        .into_iter()
        .find(|b| b.id == "httpd-log-atomicity")
        .expect("corpus bug exists");
    let prog = bug.program();
    let run = Pres::new(Mechanism::Sync)
        .with_ring(RingConfig {
            epoch_entries: 48,
            epoch_cost: 0,
            ring_epochs: 2,
        })
        .record_until_failure(prog.as_ref(), 0..2000)
        .expect("failing production run");
    std::fs::write(
        concat!(env!("CARGO_MANIFEST_DIR"), "/tests/data/fixture_v3.sketch"),
        encode_sketch(&run.sketch),
    )
    .unwrap();
}
