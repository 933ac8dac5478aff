//! E20: cluster scale-out — aggregate jobs/s across 1→2→4 daemon
//! processes sharing one workload, with certificate byte-identity
//! checked through the replicated store.
//!
//! For each node count a fresh cluster is started: N `pres serve`
//! daemons in **separate processes** (this binary re-execs itself with
//! `--daemon`), wired together with static `--peer` lists and a shared
//! auth token, N=2 replication. The workload is the corpus: every bug
//! that records under SYNC, in several distinct seed variants so dedup
//! cannot collapse the run, submitted round-robin across the nodes by
//! one client thread per node. Every job must succeed; the row's score
//! is aggregate jobs completed per second of wall clock.
//!
//! Why this scales on a single-core host: a replay job's cost is part
//! CPU (decode + schedule exploration) and part durability I/O (the
//! sketch and certificate store publishes, the journal's SUBMIT and
//! terminal records — each an `fsync` on the ack path). One daemon
//! pays those fsyncs serially between executions; N daemons overlap
//! their durability waits with each other's CPU, so aggregate
//! throughput rises even with one core, exactly like E17's connection
//! sharding. Replication and peer routing push against that (every
//! object put also travels to its ring owners), which is why the
//! measured speedup — not an idealized N× — is the headline.
//!
//! Correctness rides along: for every unmodified base sketch the
//! minted certificate is fetched from every node that holds a replica
//! and compared byte-for-byte against an in-process
//! `Pres::reproduce` of the same recording — the cluster must mint
//! exactly the certificate a single local process would, no matter
//! which node ran the job.
//!
//! ```text
//! fig_svc_cluster [--reduced] [--min-speedup X] [--out FILE]
//! ```
//!
//! Prints the table and writes `BENCH_svc_cluster.json` (or `--out`).
//! With `--min-speedup X` the run fails unless the 3-node row clears
//! X times the 1-node row — the CI regression tripwire.

use pres_apps::registry::all_bugs;
use pres_core::api::Pres;
use pres_core::codec::encode_sketch;
use pres_core::sketch::Mechanism;
use pres_svc::queue::QueueConfig;
use pres_svc::server::{ServeOptions, Server};
use pres_svc::{Client, JobStatus};
use std::io::{BufRead, BufReader};
use std::net::TcpListener;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Peer links and clients share one secret: the bench measures the
/// authenticated path, because that is the only path a real cluster
/// serves.
const TOKEN: &str = "bench-cluster-secret";

// ---------------------------------------------------------------------------
// Daemon-in-a-child-process plumbing.
// ---------------------------------------------------------------------------

/// Child mode: serve one cluster member until SHUTDOWN drains us.
fn run_daemon(addr: String, data_dir: String, replicas: usize, peers: Vec<String>) -> ! {
    // The parent pre-allocated our port by binding and dropping an
    // ephemeral listener (every node needs every address before any
    // node starts); the kernel may hold it briefly, so retry the bind.
    let deadline = Instant::now() + Duration::from_secs(10);
    let server = loop {
        match Server::start(ServeOptions {
            addr: addr.clone(),
            data_dir: data_dir.clone().into(),
            queue: QueueConfig {
                workers: 1,
                ..QueueConfig::default()
            },
            log_interval: None,
            peers: peers.clone(),
            auth_token: Some(TOKEN.to_string()),
            replicas,
            ..ServeOptions::default()
        }) {
            Ok(s) => break s,
            Err(e) if Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(50));
                let _ = e;
            }
            Err(e) => panic!("daemon cannot bind {addr}: {e}"),
        }
    };
    println!("LISTEN {}", server.addr());
    server.join();
    std::process::exit(0);
}

struct Daemon {
    child: Child,
    addr: String,
    data_dir: std::path::PathBuf,
}

/// Reserves `n` distinct loopback ports by binding ephemeral listeners
/// and dropping them — the static peer lists need every node's address
/// before any node starts.
fn free_addrs(n: usize) -> Vec<String> {
    let listeners: Vec<TcpListener> = (0..n)
        .map(|_| TcpListener::bind("127.0.0.1:0").expect("reserve port"))
        .collect();
    listeners
        .iter()
        .map(|l| l.local_addr().expect("local addr").to_string())
        .collect()
}

fn spawn_cluster(nodes: usize, tag: &str) -> Vec<Daemon> {
    let addrs = free_addrs(nodes);
    let mut daemons = Vec::new();
    for (i, addr) in addrs.iter().enumerate() {
        let data_dir = std::env::temp_dir().join(format!(
            "pres-fig-cluster-{tag}-n{i}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&data_dir);
        let peers: Vec<&String> = addrs.iter().filter(|a| *a != addr).collect();
        let peer_arg = if peers.is_empty() {
            "-".to_string()
        } else {
            peers
                .iter()
                .map(|s| s.as_str())
                .collect::<Vec<_>>()
                .join(",")
        };
        let exe = std::env::current_exe().expect("own path");
        let child = Command::new(exe)
            .args([
                "--daemon",
                addr,
                data_dir.to_str().unwrap(),
                "2", // replicas; Cluster clamps to the node count
                &peer_arg,
            ])
            .stdout(Stdio::piped())
            .spawn()
            .expect("spawn daemon child");
        daemons.push(Daemon {
            child,
            addr: addr.clone(),
            data_dir,
        });
    }
    // Only now wait for the LISTEN lines: the nodes come up
    // concurrently, and each one's startup repair pass may already be
    // probing its peers.
    for d in &mut daemons {
        let stdout = d.child.stdout.take().expect("child stdout");
        let mut lines = BufReader::new(stdout).lines();
        loop {
            let line = lines
                .next()
                .expect("daemon prints its address")
                .expect("read child stdout");
            if line.strip_prefix("LISTEN ").is_some() {
                break;
            }
        }
    }
    daemons
}

fn connect(addr: &str) -> Client {
    let mut c = Client::connect_with_retry(addr, 60, Duration::from_millis(25))
        .unwrap_or_else(|e| panic!("cannot connect to {addr}: {e}"));
    c.hello(TOKEN.as_bytes()).expect("auth token accepted");
    c
}

fn shutdown_cluster(daemons: Vec<Daemon>) {
    // Ask every node to drain before reaping any: a node blocked on a
    // peer RPC to an already-dead sibling would stall its own drain.
    for d in &daemons {
        if let Ok(mut c) = Client::connect(&d.addr) {
            let _ = c.hello(TOKEN.as_bytes());
            let _ = c.shutdown();
        }
    }
    for mut d in daemons {
        let _ = d.child.wait();
        let _ = std::fs::remove_dir_all(&d.data_dir);
    }
}

/// Pulls one counter out of a daemon's STATS text.
fn stat(stats: &str, key: &str) -> u64 {
    stats
        .lines()
        .find_map(|l| {
            let mut it = l.split_whitespace();
            (it.next() == Some(key)).then(|| it.next())?
        })
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("no '{key}' in STATS:\n{stats}"))
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty());
    let rank = ((p / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank - 1]
}

// ---------------------------------------------------------------------------
// Workload.
// ---------------------------------------------------------------------------

/// One submittable job: a bug id and an encoded sketch. `base` marks
/// the unmodified recording whose certificate has an in-process
/// reference to compare against.
struct WorkItem {
    bug: String,
    sketch: Vec<u8>,
    base: bool,
}

/// Records the corpus once and fans each recording into `variants`
/// distinct-seed copies — distinct digests, so neither dedup nor the
/// sketch cache can collapse the cluster's store traffic.
fn build_workload(reduced: bool, variants: usize) -> (Vec<WorkItem>, Vec<(String, Vec<u8>)>) {
    let mut bugs = all_bugs();
    if reduced {
        bugs.truncate(3);
    }
    let mut items = Vec::new();
    let mut references = Vec::new();
    for case in bugs {
        let program = case.program();
        let pres = Pres::new(Mechanism::Sync);
        let Some(run) = pres.record_until_failure(program.as_ref(), 0..5000) else {
            continue;
        };
        // The reference certificate: what a single in-process replay
        // of this exact recording mints. The daemon's worker follows
        // the same path with the same seeds, so every cluster node
        // must reproduce these bytes exactly.
        let repro = pres.reproduce(program.as_ref(), &run);
        let reference = repro
            .certificate
            .unwrap_or_else(|| panic!("{}: reproduce fails locally", case.id))
            .encode();
        references.push((case.id.to_string(), reference));
        for v in 0..variants {
            let mut sketch = run.sketch.clone();
            if v > 0 {
                // A distinct replay seed: a new digest and a new job,
                // but the same recorded schedule to reproduce from.
                sketch.meta.seed = sketch.meta.seed.wrapping_add(v as u64);
            }
            items.push(WorkItem {
                bug: case.id.to_string(),
                sketch: encode_sketch(&sketch),
                base: v == 0,
            });
        }
    }
    (items, references)
}

// ---------------------------------------------------------------------------
// One cluster row.
// ---------------------------------------------------------------------------

struct Row {
    nodes: usize,
    jobs: usize,
    wall_ms: f64,
    jobs_per_sec: f64,
    p50_ms: f64,
    max_ms: f64,
    peer_rpcs: u64,
    replica_copies: usize,
}

fn measure(nodes: usize, items: &[WorkItem], references: &[(String, Vec<u8>)]) -> Row {
    let daemons = spawn_cluster(nodes, &format!("x{nodes}"));
    let addrs: Vec<String> = daemons.iter().map(|d| d.addr.clone()).collect();

    // One client thread per node, jobs dealt round-robin: the cluster
    // front door as a load balancer would drive it. Submit the whole
    // share first (the queue overlaps execution with intake), then
    // wait each job to its terminal state.
    let started = Instant::now();
    let handles: Vec<_> = (0..nodes)
        .map(|n| {
            let addr = addrs[n].clone();
            let share: Vec<(usize, String, Vec<u8>)> = items
                .iter()
                .enumerate()
                .filter(|(i, _)| i % nodes == n)
                .map(|(i, w)| (i, w.bug.clone(), w.sketch.clone()))
                .collect();
            std::thread::spawn(move || {
                let mut client = connect(&addr);
                let submitted: Vec<(usize, u64, Instant)> = share
                    .iter()
                    .map(|(i, bug, sketch)| {
                        let receipt = client.submit(bug, sketch).expect("submit succeeds");
                        (*i, receipt.job, Instant::now())
                    })
                    .collect();
                submitted
                    .into_iter()
                    .map(|(i, job, at)| {
                        let status = client
                            .wait(job, Duration::from_secs(300))
                            .expect("job reaches a terminal status");
                        let JobStatus::Succeeded { certificate, .. } = status else {
                            panic!("job {job} on {addr}: expected success, got {status}");
                        };
                        (i, certificate, at.elapsed().as_secs_f64() * 1e3)
                    })
                    .collect::<Vec<_>>()
            })
        })
        .collect();
    let mut done: Vec<(usize, pres_svc::Digest, f64)> = Vec::new();
    for h in handles {
        done.extend(h.join().expect("client thread"));
    }
    let wall_ms = started.elapsed().as_secs_f64() * 1e3;
    assert_eq!(done.len(), items.len(), "{nodes} nodes: lost jobs");

    // Identity + replication check, off the clock: every base job's
    // certificate must sit on at least min(2, nodes) nodes, and every
    // copy must be byte-identical to the in-process reference.
    let mut peers: Vec<Client> = addrs.iter().map(|a| connect(a)).collect();
    let mut replica_copies = 0;
    for (i, cert_digest, _) in &done {
        if !items[*i].base {
            continue;
        }
        let reference = &references
            .iter()
            .find(|(bug, _)| *bug == items[*i].bug)
            .expect("reference recorded")
            .1;
        let mut copies = 0;
        for peer in peers.iter_mut() {
            if let Some(bytes) = peer.peer_get(cert_digest).expect("peer get") {
                assert_eq!(
                    &bytes, reference,
                    "{}: cluster certificate differs from in-process reproduce",
                    items[*i].bug
                );
                copies += 1;
            }
        }
        assert!(
            copies >= 2.min(nodes),
            "{}: certificate on {copies} node(s), replication owes {}",
            items[*i].bug,
            2.min(nodes)
        );
        replica_copies += copies;
    }

    let mut peer_rpcs = 0;
    for peer in peers.iter_mut() {
        peer_rpcs += stat(&peer.stats().expect("node STATS"), "peer_rpcs");
    }
    drop(peers);
    shutdown_cluster(daemons);

    let mut lats: Vec<f64> = done.iter().map(|(_, _, l)| *l).collect();
    lats.sort_by(|a, b| a.total_cmp(b));
    Row {
        nodes,
        jobs: done.len(),
        wall_ms,
        jobs_per_sec: done.len() as f64 / (wall_ms / 1e3),
        p50_ms: percentile(&lats, 50.0),
        max_ms: lats.last().copied().unwrap_or(0.0),
        peer_rpcs,
        replica_copies,
    }
}

// ---------------------------------------------------------------------------
// Output.
// ---------------------------------------------------------------------------

fn to_json(rows: &[Row], speedup_3v1: Option<f64>, cpus: usize) -> String {
    let mut out = format!(
        "{{\n  \"experiment\": \"E20\",\n  \"host_cpus\": {cpus},\n  \"rows\": [\n"
    );
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"nodes\": {}, \"jobs\": {}, \"wall_ms\": {:.1}, \"jobs_per_sec\": {:.2}, \"p50_ms\": {:.1}, \"max_ms\": {:.1}, \"peer_rpcs\": {}, \"replica_copies\": {}}}{}\n",
            r.nodes,
            r.jobs,
            r.wall_ms,
            r.jobs_per_sec,
            r.p50_ms,
            r.max_ms,
            r.peer_rpcs,
            r.replica_copies,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    match speedup_3v1 {
        Some(s) => out.push_str(&format!("  ],\n  \"speedup_3v1\": {s:.2}\n}}\n")),
        None => out.push_str("  ]\n}\n"),
    }
    out
}

fn main() {
    let mut args = std::env::args().skip(1);
    let mut reduced = false;
    let mut min_speedup: Option<f64> = None;
    let mut out_path = String::from("BENCH_svc_cluster.json");
    while let Some(a) = args.next() {
        match a.as_str() {
            "--daemon" => {
                let addr = args.next().expect("--daemon needs an address");
                let dir = args.next().expect("--daemon needs a data dir");
                let replicas: usize = args
                    .next()
                    .expect("--daemon needs a replica count")
                    .parse()
                    .unwrap();
                let peers: Vec<String> = match args.next().expect("--daemon needs peers").as_str() {
                    "-" => Vec::new(),
                    list => list.split(',').map(|s| s.to_string()).collect(),
                };
                run_daemon(addr, dir, replicas, peers);
            }
            "--reduced" => reduced = true,
            "--min-speedup" => {
                min_speedup =
                    Some(args.next().expect("--min-speedup needs X").parse().unwrap())
            }
            "--out" => out_path = args.next().expect("--out needs a path"),
            other => panic!("unknown argument '{other}'"),
        }
    }

    // Reduced keeps the acceptance shape — the 1-node baseline and the
    // 3-node acceptance point — and trims the corpus; the full run adds
    // the 2- and 4-node rows for the scaling curve.
    let node_counts: &[usize] = if reduced { &[1, 3] } else { &[1, 2, 3, 4] };
    let variants = if reduced { 4 } else { 8 };
    let (items, references) = build_workload(reduced, variants);
    assert!(
        references.len() >= 2,
        "need at least two recordable bugs for a cluster workload"
    );
    println!(
        "E20: {} jobs ({} corpus bugs x {} seed variants) over clusters of {:?} daemon process(es), N=2 replication\n",
        items.len(),
        references.len(),
        variants,
        node_counts
    );

    let rows: Vec<Row> = node_counts
        .iter()
        .map(|&n| measure(n, &items, &references))
        .collect();

    println!(
        "{:>5} | {:>5} | {:>8} | {:>8} | {:>8} | {:>8} | {:>9} | {:>8}",
        "nodes", "jobs", "wall ms", "jobs/s", "p50 ms", "max ms", "peer_rpcs", "replicas"
    );
    println!("{}", "-".repeat(77));
    for r in &rows {
        println!(
            "{:>5} | {:>5} | {:>8.0} | {:>8.2} | {:>8.1} | {:>8.1} | {:>9} | {:>8}",
            r.nodes,
            r.jobs,
            r.wall_ms,
            r.jobs_per_sec,
            r.p50_ms,
            r.max_ms,
            r.peer_rpcs,
            r.replica_copies,
        );
    }

    let baseline = rows.iter().find(|r| r.nodes == 1).expect("1-node row");
    let speedup_3v1 = rows
        .iter()
        .find(|r| r.nodes == 3)
        .map(|r| r.jobs_per_sec / baseline.jobs_per_sec);
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    if let Some(s) = speedup_3v1 {
        println!("\n3-node speedup over 1 node: {s:.2}x on a {cpus}-cpu host");
        if cpus == 1 {
            // EXPERIMENTS.md "Deviations" 4 and 5: replay is CPU-bound,
            // so on one core N processes time-share the corpus and only
            // the durability waits overlap. The identity and
            // replication assertions above are the host-independent
            // claims; the ratio is reported, not asserted, here.
            println!(
                "note: single-cpu host — aggregate replay throughput cannot \
                 exceed one core's; the curve measures cluster overhead plus \
                 durability-overlap, not CPU scale-out"
            );
        }
    }

    let json = to_json(&rows, speedup_3v1, cpus);
    std::fs::write(&out_path, &json).expect("write cluster JSON");
    println!("wrote {out_path} ({} bytes)", json.len());

    if let Some(bound) = min_speedup {
        let s = speedup_3v1.expect("--min-speedup needs the 3-node row");
        assert!(
            s >= bound,
            "3-node speedup {s:.2}x below the {bound}x bound"
        );
        println!("speedup {s:.2}x clears the {bound}x bound");
    }
}
