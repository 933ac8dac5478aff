//! `pres sketch-info` on the committed containers: the v3 ring flush
//! prints the version, checkpoint, epoch and shard lines the release
//! smoke run greps for, and the retired v1 container is refused with a
//! usage error rather than a panic.

use std::process::{Command, Output};

const DATA: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/data");

fn sketch_info(fixture: &str) -> Output {
    Command::new(env!("CARGO_BIN_EXE_pres"))
        .args(["sketch-info", "--sketch", &format!("{DATA}/{fixture}")])
        .output()
        .expect("run pres")
}

#[test]
fn the_v3_fixture_prints_its_checkpoint_and_shard_directory() {
    let out = sketch_info("fixture_v3.sketch");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{out:?}");
    for line in [
        "container v3",
        "checkpoint: boundary pick 249",
        "segment 661 bytes",
        "epoch directory: 2 retained epoch(s), 48 entries in window",
        "shard directory:",
    ] {
        assert!(stdout.contains(line), "no `{line}` in:\n{stdout}");
    }
}

#[test]
fn the_v1_fixture_is_refused_without_a_panic() {
    let out = sketch_info("fixture_v1.sketch");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "a v1 container was read: {out:?}");
    assert_ne!(out.status.code(), Some(101), "pres panicked: {stderr}");
    assert!(
        stderr.contains("unsupported version 1"),
        "stderr does not name the version: {stderr}"
    );
}
