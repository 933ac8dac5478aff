//! On-disk format compatibility: v2 and v3 keep decoding; v1 is refused.
//! Committed containers must decode byte-for-byte whatever the current
//! encoder writes — the v3 checkpoint-bearing ring-flush format included —
//! and the retired flat v1 format fails the same way in every reader.

use pres_core::codec::{decode_index, decode_sketch, encode_sketch, layout, DecodeError};
use pres_core::sketch::Mechanism;

const FIXTURE_V1: &[u8] = include_bytes!("data/fixture_v1.sketch");
const FIXTURE_V3: &[u8] = include_bytes!("data/fixture_v3.sketch");

/// The committed v1 container (87 bytes, written before the flat format
/// was retired) is refused at its version byte, identically by every
/// reader.
#[test]
fn a_v1_container_is_refused() {
    assert_eq!(FIXTURE_V1.len(), 87);
    let want = DecodeError {
        offset: 5,
        message: "unsupported version 1".into(),
    };
    assert_eq!(decode_sketch(FIXTURE_V1).unwrap_err(), want);
    assert_eq!(decode_index(FIXTURE_V1).unwrap_err(), want);
    assert_eq!(layout(FIXTURE_V1).unwrap_err(), want);
}

/// The committed v3 fixture: a real rotated-ring flush of
/// `httpd-log-atomicity` (seed 1, `epoch_entries 48`, `ring_epochs 2`),
/// so the checkpoint segment is load-bearing — nonzero boundary, evicted
/// epochs, and a 640-byte embedded VM snapshot the decoder validates.
#[test]
fn committed_v3_ring_fixture_still_decodes() {
    let layout = layout(FIXTURE_V3).expect("v3 fixture lays out");
    assert_eq!(layout.version, 3);
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
        layout.checkpoint_bytes,
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
