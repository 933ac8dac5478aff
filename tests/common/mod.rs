//! Helpers shared by the `svc_*` suites: a scratch data directory, an
//! in-process daemon on an ephemeral loopback port, and a recorded
//! corpus sketch. Not every suite uses every helper.
#![allow(dead_code)]

use pres_suite::apps::registry::all_bugs;
use pres_suite::core::api::Pres;
use pres_suite::core::codec::encode_sketch;
use pres_suite::core::sketch::Mechanism;
use pres_suite::svc::queue::QueueConfig;
use pres_suite::svc::server::{ServeOptions, Server};
use std::path::{Path, PathBuf};

/// A fresh, empty-if-present path under the temp dir, named after the
/// suite (`svc_e2e` → `pres-svc-e2e-…`), the tag, the process and the
/// test thread, so parallel tests and suites never share one.
pub fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "pres-{}-{tag}-{}-{:?}",
        env!("CARGO_CRATE_NAME").replace('_', "-"),
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Starts a daemon on `127.0.0.1:0` over `data_dir`, with the metrics
/// log line off; every other option comes from `opts`.
pub fn start_with(data_dir: &Path, opts: ServeOptions) -> Server {
    Server::start(ServeOptions {
        addr: "127.0.0.1:0".into(),
        data_dir: data_dir.to_path_buf(),
        log_interval: None,
        ..opts
    })
    .expect("daemon starts")
}

/// [`start_with`] the default front end and the given queue.
pub fn start(data_dir: &Path, queue: QueueConfig) -> Server {
    start_with(
        data_dir,
        ServeOptions {
            queue,
            ..ServeOptions::default()
        },
    )
}

/// The encoded SYNC sketch of `bug`'s first failing production run.
pub fn recorded_sketch_bytes(bug: &str) -> Vec<u8> {
    let case = all_bugs().into_iter().find(|b| b.id == bug).unwrap();
    let program = case.program();
    let pres = Pres::new(Mechanism::Sync);
    let run = pres
        .record_until_failure(program.as_ref(), 0..5000)
        .expect("bug manifests in production");
    encode_sketch(&run.sketch)
}
