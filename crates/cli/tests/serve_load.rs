//! The shipped `pres serve` under load: each test starts the real binary
//! on an ephemeral loopback port with its own data directory and holds
//! it to one bound.
//!
//! * Memory: 16 concurrent 4 MiB submits streamed in 256 KiB chunks peak
//!   the daemon's resident set (`VmHWM`) below the 64 MiB a daemon that
//!   held every in-flight submit whole would need for the payloads alone.
//! * Group commit: 64 clients pipelining 32 streamed submits each into a
//!   daemon with `--journal-batch 32 --journal-batch-usecs 2000` commit
//!   at least four journal records per `fdatasync`.
//! * Ignored by default, because they are wall-clock tripwires: the same
//!   pipelined load acks at least 1.5× faster grouped than with
//!   per-record syncs (`--journal-batch 1 --journal-batch-usecs 0`), on
//!   the median of five alternated burst pairs, and
//!   256 clients × 20 ops (every tenth a streamed 64 KiB submit) are all
//!   answered with a p99 of at most 2 000 ms. CI runs them in release:
//!
//! ```text
//! cargo test --release -p pres-cli --test serve_load -- --include-ignored
//! ```
//!
//! The tests take one lock, so no test's load skews another's clock.
//! Every submitted sketch is garbage: its job fails at decode, and the
//! measured work is the front end's and the journal's.

use pres_apps::all_bugs;
use pres_svc::proto::{Frame, Request, Response, DEFAULT_MAX_FRAME};
use pres_svc::Client;
use std::io::{BufRead, BufReader, Lines, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::{Barrier, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

const BUG: &str = "pbzip-order";

/// Journal flags of the grouped arm: the batch matches the connection
/// workers, which are the appenders, so a full house commits early.
const GROUPED: &[&str] = &[
    "--journal-batch",
    "32",
    "--journal-batch-usecs",
    "2000",
    "--conn-workers",
    "32",
];
const PER_RECORD: &[&str] = &[
    "--journal-batch",
    "1",
    "--journal-batch-usecs",
    "0",
    "--conn-workers",
    "32",
];

fn one_at_a_time() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A `pres serve` child process; killed and its data directory removed
/// on drop.
struct Daemon {
    child: Child,
    addr: String,
    data_dir: PathBuf,
    /// Held open so the daemon's last line never meets a closed pipe.
    _stdout: Lines<BufReader<ChildStdout>>,
}

impl Daemon {
    fn start(tag: &str, flags: &[&str]) -> Daemon {
        let data_dir =
            std::env::temp_dir().join(format!("pres-serve-load-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&data_dir);
        let mut child = Command::new(env!("CARGO_BIN_EXE_pres"))
            .args(["serve", "--addr", "127.0.0.1:0", "--data-dir"])
            .arg(&data_dir)
            .args(["--log-interval-secs", "0", "--job-workers", "1"])
            .args(["--max-attempts", "1"])
            .args(flags)
            .stdout(Stdio::piped())
            .spawn()
            .expect("spawn pres serve");
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout")).lines();
        let addr = stdout
            .find_map(|line| {
                let line = line.ok()?;
                let rest = line.strip_prefix("pres-svc listening on ")?;
                rest.split_whitespace().next().map(str::to_owned)
            })
            .expect("pres serve announces its address");
        Daemon {
            child,
            addr,
            data_dir,
            _stdout: stdout,
        }
    }

    /// The daemon's peak resident set so far, in KiB.
    fn peak_rss_kb(&self) -> u64 {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))
            .expect("daemon /proc status");
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
            .expect("VmHWM in /proc status")
    }

    /// `(journal_records, journal_syncs, journal_hold_us)` from the
    /// daemon's STATS.
    fn journal_counts(&self) -> (u64, u64, u64) {
        let stats = Client::connect(&self.addr).unwrap().stats().unwrap();
        let stat = |key: &str| -> u64 {
            stats
                .lines()
                .find_map(|l| l.strip_prefix(key)?.trim().parse().ok())
                .unwrap_or_else(|| panic!("no {key} in STATS:\n{stats}"))
        };
        (
            stat("journal_records "),
            stat("journal_syncs "),
            stat("journal_hold_us "),
        )
    }

    fn shutdown(mut self) {
        Client::connect(&self.addr)
            .unwrap()
            .shutdown()
            .expect("daemon acknowledges SHUTDOWN");
        let status = self.child.wait().unwrap();
        assert!(status.success(), "pres serve exited with {status}");
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        let _ = std::fs::remove_dir_all(&self.data_dir);
    }
}

/// `len` xorshift bytes; distinct seeds give distinct blobs, so the
/// store's dedup cannot collapse the load.
fn blob(seed: u64, len: usize) -> Vec<u8> {
    let mut x = (seed << 1) | 1;
    (0..len)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x as u8
        })
        .collect()
}

/// 64 connected clients each write 32 streamed submits (a
/// SUBMIT_BEGIN, CHUNK, END triple per submit) in one burst, then read
/// the 32 acks. Returns acks per second, timed from the first burst.
///
/// Each submit is a fresh `(bug, digest)` job, so each one appends a
/// journal record, but payloads come from a pool just large enough for
/// that: the store dedups all but the pool's first puts, and the
/// journal's sync schedule is what serializes the acks.
fn pipelined_submits(addr: &str) -> f64 {
    const CLIENTS: usize = 64;
    const DEPTH: usize = 32;
    let bugs: Vec<&str> = all_bugs().iter().map(|b| b.id).collect();
    let pool = (CLIENTS * DEPTH).div_ceil(bugs.len());
    let clients: Vec<(TcpStream, TcpStream, Vec<u8>)> = (0..CLIENTS)
        .map(|id| {
            let tx = TcpStream::connect(addr).unwrap();
            tx.set_nodelay(true).unwrap();
            let rx = tx.try_clone().unwrap();
            let mut burst = Vec::new();
            for k in id * DEPTH..(id + 1) * DEPTH {
                // Tag 0 addresses the connection; submits start at 1.
                let tag = k as u32 + 1;
                for req in [
                    Request::SubmitBegin {
                        bug: bugs[k / pool].to_string(),
                    },
                    Request::SubmitChunk {
                        data: blob((k % pool) as u64, 512),
                    },
                    Request::SubmitEnd,
                ] {
                    burst.extend(req.to_frame(tag).unwrap().encode());
                }
            }
            (tx, rx, burst)
        })
        .collect();
    // Every client is parked at the barrier before the clock starts, so
    // all 64 bursts land together; nothing before the wait can panic.
    let ready = Barrier::new(CLIENTS + 1);
    // The scope returns the start time only once it has joined every
    // client, so the elapsed time below covers every ack.
    let started = std::thread::scope(|s| {
        for (mut tx, rx, burst) in clients {
            let ready = &ready;
            s.spawn(move || {
                let mut rx = BufReader::new(rx);
                ready.wait();
                tx.write_all(&burst).unwrap();
                for _ in 0..DEPTH {
                    let frame = Frame::read_from(&mut rx, DEFAULT_MAX_FRAME)
                        .expect("ack read")
                        .expect("ack frame");
                    match Response::from_frame(&frame).expect("ack decodes") {
                        Response::Submitted { .. } => {}
                        other => panic!("submit refused: {other:?}"),
                    }
                }
            });
        }
        ready.wait();
        Instant::now()
    });
    (CLIENTS * DEPTH) as f64 / started.elapsed().as_secs_f64()
}

#[test]
fn streamed_submits_peak_below_the_payloads_in_flight() {
    let _serial = one_at_a_time();
    const CLIENTS: usize = 16;
    const BLOB: usize = 4 << 20;
    let daemon = Daemon::start("rss", &[]);
    std::thread::scope(|s| {
        for id in 0..CLIENTS {
            let addr = &daemon.addr;
            s.spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                client.set_chunk_bytes(256 << 10);
                let bytes = blob(0xAB00 + id as u64, BLOB);
                client
                    .submit(BUG, &bytes)
                    .expect("streamed submit accepted");
            });
        }
    });
    let peak_kb = daemon.peak_rss_kb();
    let materialized_kb = (CLIENTS * BLOB) as u64 >> 10;
    println!("VmHWM {peak_kb} kB for {CLIENTS} x {BLOB} B streamed submits");
    assert!(
        peak_kb < materialized_kb,
        "streaming daemon peaked at {peak_kb} kB, not below the {materialized_kb} kB \
         of {CLIENTS} whole {BLOB}-byte submits"
    );
    daemon.shutdown();
}

#[test]
fn grouped_commit_covers_four_records_per_sync() {
    let _serial = one_at_a_time();
    let daemon = Daemon::start("grouped", GROUPED);
    pipelined_submits(&daemon.addr);
    let (records, syncs, hold_us) = daemon.journal_counts();
    println!("grouped journal: {syncs} syncs for {records} records, {hold_us} us held");
    assert!(
        syncs * 4 <= records,
        "grouped journal did not batch: {syncs} syncs for {records} records"
    );
    daemon.shutdown();
}

#[test]
#[ignore = "wall-clock tripwire; CI smoke runs it in release"]
fn grouped_commit_acks_one_and_a_half_times_per_record_syncing() {
    let _serial = one_at_a_time();
    // One burst per arm swings with the host's fsync latency of the
    // moment, so the verdict is the median ratio of alternated pairs,
    // each burst on a fresh daemon; the order flips every pair.
    const PAIRS: usize = 5;
    let acks_per_s = |tag: &str, flags: &[&str]| {
        let daemon = Daemon::start(tag, flags);
        let rate = pipelined_submits(&daemon.addr);
        let (records, syncs, hold_us) = daemon.journal_counts();
        println!("{tag}: {syncs} syncs for {records} records, {hold_us} us held");
        daemon.shutdown();
        rate
    };
    let mut speedups: Vec<f64> = (0..PAIRS)
        .map(|pair| {
            let (per_record, grouped) = if pair % 2 == 0 {
                let per_record = acks_per_s("per-record", PER_RECORD);
                (per_record, acks_per_s("grouped-rate", GROUPED))
            } else {
                let grouped = acks_per_s("grouped-rate", GROUPED);
                (acks_per_s("per-record", PER_RECORD), grouped)
            };
            let speedup = grouped / per_record;
            println!("pair {pair}: acks/s per-record {per_record:.0}, grouped {grouped:.0}, {speedup:.2}x");
            speedup
        })
        .collect();
    speedups.sort_by(f64::total_cmp);
    let median = speedups[PAIRS / 2];
    println!("median group-commit speedup {median:.2}x over {PAIRS} pairs");
    assert!(
        median >= 1.5,
        "median group-commit speedup {median:.2}x over {PAIRS} pairs below the 1.5x bound"
    );
}

#[test]
#[ignore = "wall-clock tripwire; CI smoke runs it in release"]
fn every_op_of_256_clients_is_answered_with_p99_under_two_seconds() {
    let _serial = one_at_a_time();
    const CLIENTS: usize = 256;
    const OPS: usize = 20;
    let daemon = Daemon::start("latency", &[]);
    let mut latencies_ms: Vec<f64> = std::thread::scope(|s| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|id| {
                let addr = &daemon.addr;
                s.spawn(move || {
                    let mut client = Client::connect(addr).unwrap();
                    client.set_chunk_bytes(8 << 10);
                    (0..OPS)
                        .map(|op| {
                            let t = Instant::now();
                            if op % 10 == 9 {
                                let bytes = blob(((id as u64) << 32) | op as u64, 64 << 10);
                                client
                                    .submit(BUG, &bytes)
                                    .expect("streamed submit accepted");
                            } else {
                                client
                                    .status((id * OPS + op) as u64)
                                    .expect("status answered");
                            }
                            t.elapsed().as_secs_f64() * 1e3
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        clients
            .into_iter()
            .flat_map(|c| c.join().expect("client thread"))
            .collect()
    });
    assert_eq!(latencies_ms.len(), CLIENTS * OPS, "every op answered");
    latencies_ms.sort_by(f64::total_cmp);
    let p99 = latencies_ms[(latencies_ms.len() * 99).div_ceil(100) - 1];
    println!("p99 {p99:.2} ms over {} ops", latencies_ms.len());
    assert!(
        p99 <= 2000.0,
        "p99 latency {p99:.2} ms exceeds the 2000 ms bound"
    );
    daemon.shutdown();
}
