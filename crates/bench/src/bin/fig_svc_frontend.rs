//! E18: the many-connection front end — request latency under ~1000
//! concurrent loopback clients, and the daemon's peak memory for large
//! streamed submits.
//!
//! Two phases, each against a daemon running in a **separate process**
//! (this binary re-execs itself with `--daemon`), so the measuring
//! clients' own memory never pollutes the daemon's peak-RSS reading:
//!
//! 1. **Latency.** N client threads hammer one sharded daemon with a
//!    mixed workload — mostly STATUS polls, every tenth request a chunked
//!    streaming submit of a distinct blob — and every request's
//!    roundtrip latency lands in one merged distribution (p50/p95/p99 by
//!    nearest rank). Full mode runs 1000 clients; `--reduced` runs 256,
//!    sized for CI runners whose default fd limit is 1024.
//! 2. **Peak RSS.** A fresh daemon ingests one large distinct blob per
//!    client, streamed in 256 KiB chunks, and the daemon's `VmHWM` (peak
//!    resident set, from `/proc/<pid>/status`) is read before shutdown.
//!    The streaming path holds one chunk per connection, so the peak must
//!    stay below `clients × blob bytes` — what a daemon that materialized
//!    every in-flight submit whole would hold for the payloads alone.
//!
//! ```text
//! fig_svc_frontend [--reduced] [--clients N] [--max-p99-ms N] [--out FILE]
//! ```
//!
//! Prints both tables and writes `BENCH_svc_frontend.json` (or `--out`)
//! for the CI artifact. With `--max-p99-ms` the run fails if the latency
//! phase's p99 exceeds the bound — the CI regression tripwire.

use pres_svc::queue::QueueConfig;
use pres_svc::server::{ServeOptions, Server};
use pres_svc::Client;
use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

const STREAM_CHUNK: usize = 256 << 10;

// ---------------------------------------------------------------------------
// Daemon-in-a-child-process plumbing.
// ---------------------------------------------------------------------------

/// Child mode: start a daemon, print the bound address, serve until a
/// SHUTDOWN frame drains us.
fn run_daemon(data_dir: String) -> ! {
    let server = Server::start(ServeOptions {
        addr: "127.0.0.1:0".into(),
        data_dir: data_dir.into(),
        queue: QueueConfig {
            workers: 1,
            max_attempts: 1,
            max_retries: 0,
            ..QueueConfig::default()
        },
        log_interval: None,
        // The latency phase holds every client connection open at once.
        max_connections: 8192,
        read_timeout: Duration::from_secs(120),
        ..ServeOptions::default()
    })
    .expect("daemon starts");
    println!("LISTEN {}", server.addr());
    server.join();
    std::process::exit(0);
}

struct Daemon {
    child: Child,
    addr: String,
    data_dir: std::path::PathBuf,
}

impl Daemon {
    fn spawn(tag: &str) -> Daemon {
        let data_dir = std::env::temp_dir().join(format!(
            "pres-fig-frontend-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&data_dir);
        let exe = std::env::current_exe().expect("own path");
        let mut child = Command::new(exe)
            .args(["--daemon", data_dir.to_str().unwrap()])
            .stdout(Stdio::piped())
            .spawn()
            .expect("spawn daemon child");
        let stdout = child.stdout.take().expect("child stdout");
        let mut lines = BufReader::new(stdout).lines();
        let addr = loop {
            let line = lines
                .next()
                .expect("daemon prints its address")
                .expect("read child stdout");
            if let Some(addr) = line.strip_prefix("LISTEN ") {
                break addr.to_string();
            }
        };
        Daemon {
            child,
            addr,
            data_dir,
        }
    }

    /// The daemon's peak resident set (KiB) so far, from `VmHWM`.
    fn peak_rss_kb(&self) -> u64 {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))
            .expect("daemon /proc status");
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
            .expect("VmHWM in /proc status")
    }

    fn shutdown(mut self) {
        if let Ok(mut c) = Client::connect(&self.addr) {
            c.shutdown().expect("daemon acknowledges shutdown");
        }
        let _ = self.child.wait();
        let _ = std::fs::remove_dir_all(&self.data_dir);
    }
}

fn connect_retrying(addr: &str) -> Client {
    // A thousand simultaneous connects can transiently overflow the
    // accept backlog; back off and retry rather than counting that
    // against the daemon.
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut pause = Duration::from_millis(5);
    loop {
        match Client::connect(addr) {
            Ok(c) => return c,
            Err(e) if Instant::now() < deadline => {
                std::thread::sleep(pause);
                pause = (pause * 2).min(Duration::from_millis(200));
                let _ = e;
            }
            Err(e) => panic!("cannot connect to {addr}: {e}"),
        }
    }
}

/// Deterministic filler so every (client, op) submits distinct bytes —
/// dedup must not collapse the workload.
fn blob(seed: u64, len: usize) -> Vec<u8> {
    let mut x = seed | 1;
    (0..len)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x as u8
        })
        .collect()
}

/// Best-effort `RLIMIT_NOFILE` raise toward the hard cap: the full run
/// holds >1000 sockets in this process alone.
#[cfg(target_os = "linux")]
fn raise_fd_limit() {
    #[repr(C)]
    struct RLimit {
        cur: u64,
        max: u64,
    }
    extern "C" {
        fn getrlimit(resource: i32, rlim: *mut RLimit) -> i32;
        fn setrlimit(resource: i32, rlim: *const RLimit) -> i32;
    }
    const RLIMIT_NOFILE: i32 = 7;
    unsafe {
        let mut r = RLimit { cur: 0, max: 0 };
        if getrlimit(RLIMIT_NOFILE, &mut r) == 0 && r.cur < r.max {
            r.cur = r.max;
            let _ = setrlimit(RLIMIT_NOFILE, &r);
        }
    }
}

#[cfg(not(target_os = "linux"))]
fn raise_fd_limit() {}

// ---------------------------------------------------------------------------
// Phase 1: latency under many concurrent clients.
// ---------------------------------------------------------------------------

struct LatencyResult {
    clients: usize,
    ops: usize,
    submits: usize,
    wall_ms: f64,
    p50_ms: f64,
    p95_ms: f64,
    p99_ms: f64,
    max_ms: f64,
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty());
    let rank = ((p / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank - 1]
}

fn latency_phase(clients: usize, ops_per_client: usize) -> LatencyResult {
    let daemon = Daemon::spawn("latency");
    let addr = daemon.addr.clone();

    let started = Instant::now();
    let handles: Vec<_> = (0..clients)
        .map(|id| {
            let addr = addr.clone();
            std::thread::Builder::new()
                .stack_size(128 << 10)
                .spawn(move || {
                    let mut client = connect_retrying(&addr);
                    client.set_chunk_bytes(8 << 10);
                    let mut lats = Vec::with_capacity(ops_per_client);
                    let mut submits = 0usize;
                    for op in 0..ops_per_client {
                        let t = Instant::now();
                        if op % 10 == 9 {
                            // A streamed submit of a distinct 64 KiB blob.
                            // The sketch is garbage, so the job fails fast;
                            // the measured work is the front end's.
                            let bytes =
                                blob((id as u64) << 32 | op as u64, 64 << 10);
                            client
                                .submit("pbzip-order", &bytes)
                                .expect("streamed submit accepted");
                            submits += 1;
                        } else {
                            let _ = client
                                .status((id * ops_per_client + op) as u64)
                                .expect("status answered");
                        }
                        lats.push(t.elapsed().as_secs_f64() * 1e3);
                    }
                    (lats, submits)
                })
                .expect("spawn client thread")
        })
        .collect();

    let mut all = Vec::with_capacity(clients * ops_per_client);
    let mut submits = 0usize;
    for h in handles {
        let (lats, s) = h.join().expect("client thread");
        all.extend(lats);
        submits += s;
    }
    let wall_ms = started.elapsed().as_secs_f64() * 1e3;
    daemon.shutdown();

    all.sort_by(|a, b| a.total_cmp(b));
    LatencyResult {
        clients,
        ops: all.len(),
        submits,
        wall_ms,
        p50_ms: percentile(&all, 50.0),
        p95_ms: percentile(&all, 95.0),
        p99_ms: percentile(&all, 99.0),
        max_ms: *all.last().unwrap(),
    }
}

// ---------------------------------------------------------------------------
// Phase 2: daemon peak RSS under large streamed submits.
// ---------------------------------------------------------------------------

struct RssResult {
    clients: usize,
    blob_bytes: usize,
    peak_rss_kb: u64,
}

fn rss_phase(clients: usize, blob_bytes: usize) -> RssResult {
    let daemon = Daemon::spawn("rss");
    let addr = daemon.addr.clone();

    let handles: Vec<_> = (0..clients)
        .map(|id| {
            let addr = addr.clone();
            std::thread::Builder::new()
                .stack_size(128 << 10)
                .spawn(move || {
                    let mut client = connect_retrying(&addr);
                    let bytes = blob(0xAB00 + id as u64, blob_bytes);
                    client.set_chunk_bytes(STREAM_CHUNK);
                    client.submit("pbzip-order", &bytes).expect("submit accepted");
                })
                .expect("spawn client thread")
        })
        .collect();
    for h in handles {
        h.join().expect("client thread");
    }

    // Read the high-water mark while the daemon is still alive.
    let peak_rss_kb = daemon.peak_rss_kb();
    daemon.shutdown();
    RssResult {
        clients,
        blob_bytes,
        peak_rss_kb,
    }
}

// ---------------------------------------------------------------------------
// Output.
// ---------------------------------------------------------------------------

fn to_json(lat: &LatencyResult, rss: &RssResult) -> String {
    let mut out = String::from("{\n  \"experiment\": \"E18\",\n");
    out.push_str(&format!(
        "  \"latency\": {{\"clients\": {}, \"ops\": {}, \"streamed_submits\": {}, \"wall_ms\": {:.1}, \"ops_per_sec\": {:.1}, \"p50_ms\": {:.3}, \"p95_ms\": {:.3}, \"p99_ms\": {:.3}, \"max_ms\": {:.3}}},\n",
        lat.clients,
        lat.ops,
        lat.submits,
        lat.wall_ms,
        lat.ops as f64 / (lat.wall_ms / 1e3),
        lat.p50_ms,
        lat.p95_ms,
        lat.p99_ms,
        lat.max_ms,
    ));
    out.push_str(&format!(
        "  \"peak_rss\": {{\"frontend\": \"sharded-streaming\", \"clients\": {}, \"blob_bytes\": {}, \"peak_rss_kb\": {}}}\n}}\n",
        rss.clients, rss.blob_bytes, rss.peak_rss_kb,
    ));
    out
}

fn main() {
    let mut args = std::env::args().skip(1);
    let mut reduced = false;
    let mut clients: Option<usize> = None;
    let mut max_p99_ms: Option<f64> = None;
    let mut out_path = String::from("BENCH_svc_frontend.json");
    while let Some(a) = args.next() {
        match a.as_str() {
            "--daemon" => run_daemon(args.next().expect("--daemon needs a data dir")),
            "--reduced" => reduced = true,
            "--clients" => {
                clients = Some(args.next().expect("--clients needs N").parse().unwrap())
            }
            "--max-p99-ms" => {
                max_p99_ms = Some(args.next().expect("--max-p99-ms needs N").parse().unwrap())
            }
            "--out" => out_path = args.next().expect("--out needs a path"),
            other => panic!("unknown argument '{other}'"),
        }
    }
    raise_fd_limit();

    // CI runners default to 1024 fds; the reduced shape stays well under
    // that even if the raise above was a no-op.
    let clients = clients.unwrap_or(if reduced { 256 } else { 1000 });
    let ops_per_client = if reduced { 20 } else { 30 };
    let (rss_clients, blob_bytes) = if reduced {
        (16, 4 << 20)
    } else {
        (32, 8 << 20)
    };

    println!(
        "E18: front-end latency with {clients} concurrent clients \
         ({ops_per_client} ops each, every 10th a streamed submit)\n"
    );
    let lat = latency_phase(clients, ops_per_client);
    println!(
        "{:>8} | {:>7} | {:>8} | {:>9} | {:>8} | {:>8} | {:>8} | {:>8}",
        "clients", "ops", "wall ms", "ops/s", "p50 ms", "p95 ms", "p99 ms", "max ms"
    );
    println!("{}", "-".repeat(84));
    println!(
        "{:>8} | {:>7} | {:>8.0} | {:>9.1} | {:>8.2} | {:>8.2} | {:>8.2} | {:>8.2}",
        lat.clients,
        lat.ops,
        lat.wall_ms,
        lat.ops as f64 / (lat.wall_ms / 1e3),
        lat.p50_ms,
        lat.p95_ms,
        lat.p99_ms,
        lat.max_ms,
    );

    println!(
        "\nE18: daemon peak RSS, {rss_clients} clients x {} MiB distinct blobs\n",
        blob_bytes >> 20
    );
    let rss = rss_phase(rss_clients, blob_bytes);
    println!(
        "{:>7} | {:>9} | {:>11}",
        "clients", "blob MiB", "peak RSS MiB"
    );
    println!("{}", "-".repeat(34));
    println!(
        "{:>7} | {:>9} | {:>11.1}",
        rss.clients,
        rss.blob_bytes >> 20,
        rss.peak_rss_kb as f64 / 1024.0
    );

    let json = to_json(&lat, &rss);
    std::fs::write(&out_path, &json).expect("write frontend JSON");
    println!("\nwrote {out_path} ({} bytes)", json.len());

    if let Some(bound) = max_p99_ms {
        assert!(
            lat.p99_ms <= bound,
            "p99 latency {:.2}ms exceeds the {bound}ms bound",
            lat.p99_ms
        );
        println!("p99 {:.2}ms within the {bound}ms bound", lat.p99_ms);
    }

    // The whole point of streaming: the daemon's peak memory must not
    // scale with sketch size times connection count. A daemon that
    // materialized every in-flight submit would hold at least all the
    // payloads at once; the streamed run must stay below that.
    let materialized_kb = (rss_clients * blob_bytes) as u64 >> 10;
    assert!(
        rss.peak_rss_kb < materialized_kb,
        "streaming daemon peaked at {} kB, not below the {materialized_kb} kB of {rss_clients} \
         whole {blob_bytes}-byte submits",
        rss.peak_rss_kb
    );
    println!(
        "peak RSS {} kB below the {materialized_kb} kB a materializing ingest holds",
        rss.peak_rss_kb
    );
}
