//! `pres reproduce` end to end: the binary explores the sketch it is given
//! and nothing else, so its certificate is byte-identical to an in-process
//! [`explore::reproduce`] of the decoded sketch, and a sketch of a clean
//! run is refused with a usage error rather than a panic.

use pres_apps::all_bugs;
use pres_core::codec::{decode_sketch, encode_sketch};
use pres_core::explore::{self, ExploreConfig};
use pres_core::recorder::record;
use pres_core::sketch::Mechanism;
use pres_tvm::vm::VmConfig;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const BUG: &str = "pbzip-order";

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pres-cli-reproduce-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn pres(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_pres"))
        .args(args)
        .output()
        .expect("run pres")
}

fn path(p: &Path) -> &str {
    p.to_str().expect("utf-8 temp path")
}

#[test]
fn reproduce_certificate_matches_in_process_exploration() {
    let dir = scratch("cert");
    let sketch_path = dir.join("sketch.pres");
    let cert_path = dir.join("cert.pres");

    let recorded = pres(&["record", "--bug", BUG, "--out", path(&sketch_path)]);
    assert!(recorded.status.success(), "{recorded:?}");
    let reproduced = pres(&[
        "reproduce",
        "--bug",
        BUG,
        "--sketch",
        path(&sketch_path),
        "--cert",
        path(&cert_path),
    ]);
    assert!(reproduced.status.success(), "{reproduced:?}");

    let sketch = decode_sketch(&std::fs::read(&sketch_path).unwrap()).expect("sketch decodes");
    let bug = all_bugs().into_iter().find(|b| b.id == BUG).unwrap();
    let local = explore::reproduce(
        bug.program().as_ref(),
        &sketch,
        &sketch.meta.failure_signature,
        &VmConfig::default(),
        &ExploreConfig::default(),
    );
    let local = local.certificate.expect("in-process search reproduces");
    assert_eq!(
        std::fs::read(&cert_path).unwrap(),
        local.encode(),
        "the CLI certificate differs from the in-process one"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_clean_run_sketch_is_refused_without_a_panic() {
    let dir = scratch("clean");
    let sketch_path = dir.join("clean.pres");
    let program = all_bugs()
        .into_iter()
        .find(|b| b.id == BUG)
        .unwrap()
        .program();
    let clean = (0..1000)
        .map(|seed| {
            record(
                program.as_ref(),
                Mechanism::Sync,
                &VmConfig::default(),
                seed,
            )
        })
        .find(|run| !run.failed())
        .expect("some schedule runs clean");
    std::fs::write(&sketch_path, encode_sketch(&clean.sketch)).unwrap();

    let out = pres(&["reproduce", "--bug", BUG, "--sketch", path(&sketch_path)]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "a clean sketch reproduced: {out:?}");
    assert_ne!(out.status.code(), Some(101), "pres panicked: {stderr}");
    assert!(
        stderr.contains("clean run"),
        "stderr does not name the clean run: {stderr}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
