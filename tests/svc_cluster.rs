//! Multi-node cluster end-to-end tests over real loopback TCP: three
//! `pres serve` processes-worth of daemons acting as one service.
//!
//! What these pin down:
//!
//! * **Any node, same bytes.** A sketch submitted to any cluster member
//!   mints the same certificate, byte for byte — sharding and
//!   replication add zero nondeterminism.
//! * **One node is expendable.** With N=2 replication on three nodes,
//!   killing any single node loses no object: every sketch and every
//!   certificate is still fetchable from the survivors.
//! * **Repair restores the invariant.** A node restarted over a wiped
//!   data directory pulls everything it owns back from its peers.
//! * **The shared secret gates every frame.** No HELLO (or a wrong
//!   token) means one error and a closed connection, on client and
//!   peer links alike.

use pres_suite::apps::registry::all_bugs;
use pres_suite::core::api::Pres;
use pres_suite::core::codec::encode_sketch;
use pres_suite::core::sketch::Mechanism;
use pres_suite::svc::queue::QueueConfig;
use pres_suite::svc::server::{ServeOptions, Server};
use pres_suite::svc::{sha256, Client, Cluster, ClusterConfig, Digest, JobStatus, Metrics};
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

const TOKEN: &str = "e2e-cluster-secret";
const WAIT: Duration = Duration::from_secs(180);

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "pres-svc-cluster-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Reserves `n` distinct loopback addresses: bind ephemeral listeners,
/// record their addresses, drop them. The cluster needs every node's
/// address *before* any node starts (the static peer lists), which
/// port 0 alone cannot give us.
fn free_addrs(n: usize) -> Vec<String> {
    let listeners: Vec<TcpListener> = (0..n)
        .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind ephemeral"))
        .collect();
    listeners
        .iter()
        .map(|l| l.local_addr().unwrap().to_string())
        .collect()
}

fn start_node(data_dir: &Path, addr: &str, peers: &[String], token: Option<&str>) -> Server {
    // The address was just released by `free_addrs` (or by a node this
    // test killed); tolerate a briefly lingering bind.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let opts = ServeOptions {
            addr: addr.into(),
            data_dir: data_dir.to_path_buf(),
            queue: QueueConfig::default(),
            log_interval: None,
            peers: peers.to_vec(),
            auth_token: token.map(String::from),
            ..ServeOptions::default()
        };
        match Server::start(opts) {
            Ok(server) => return server,
            Err(e) if Instant::now() < deadline => {
                let _ = e;
                std::thread::sleep(Duration::from_millis(100));
            }
            Err(e) => panic!("node on {addr} failed to start: {e}"),
        }
    }
}

/// Starts an `n`-node cluster with a shared token; node `i` listens on
/// `addrs[i]` and peers with everyone else.
fn start_cluster(tag: &str, n: usize) -> (Vec<Server>, Vec<String>) {
    let addrs = free_addrs(n);
    let servers = (0..n)
        .map(|i| {
            let peers: Vec<String> = (0..n).filter(|&j| j != i).map(|j| addrs[j].clone()).collect();
            start_node(&scratch(&format!("{tag}-{i}")), &addrs[i], &peers, Some(TOKEN))
        })
        .collect();
    (servers, addrs)
}

fn client(addr: &str) -> Client {
    let mut c = Client::connect(addr).expect("connect");
    c.hello(TOKEN.as_bytes()).expect("authenticate");
    c
}

fn recorded_sketch_bytes(bug: &str) -> Vec<u8> {
    let case = all_bugs().into_iter().find(|b| b.id == bug).unwrap();
    let program = case.program();
    let pres = Pres::new(Mechanism::Sync);
    let run = pres
        .record_until_failure(program.as_ref(), 0..5000)
        .expect("bug manifests in production");
    encode_sketch(&run.sketch)
}

fn succeed(client: &mut Client, bug: &str, sketch: &[u8]) -> (u64, Digest, Vec<u8>) {
    let receipt = client.submit(bug, sketch).unwrap();
    let status = client.wait(receipt.job, WAIT).unwrap();
    let JobStatus::Succeeded { certificate, .. } = status else {
        panic!("job for {bug} did not succeed: {status:?}");
    };
    let bytes = client.fetch_certificate(receipt.job).unwrap();
    assert_eq!(sha256(&bytes), certificate, "served cert matches its digest");
    (receipt.job, certificate, bytes)
}

#[test]
fn any_node_mints_the_same_certificate_and_replicates_objects() {
    let (servers, addrs) = start_cluster("identity", 3);
    let sketch = recorded_sketch_bytes("pbzip-order");
    let sketch_digest = sha256(&sketch);

    // The same sketch through two different nodes: same certificate,
    // byte for byte.
    let (_, cert_digest_a, cert_a) = succeed(&mut client(&addrs[0]), "pbzip-order", &sketch);
    let (_, cert_digest_b, cert_b) = succeed(&mut client(&addrs[1]), "pbzip-order", &sketch);
    assert_eq!(cert_digest_a, cert_digest_b);
    assert_eq!(cert_a, cert_b, "executing node must not leak into the certificate");

    // N=2 replication: sketch and certificate each live on at least two
    // of the three nodes (push is synchronous with the routed put).
    for (what, digest) in [("sketch", sketch_digest), ("certificate", cert_digest_a)] {
        let copies = addrs
            .iter()
            .filter(|addr| client(addr).peer_stat(&digest).unwrap())
            .count();
        assert!(copies >= 2, "{what} {digest} on {copies} node(s), want >= 2");
    }

    for server in &servers {
        server.shutdown();
    }
    for server in servers {
        server.join();
    }
}

#[test]
fn killing_one_node_of_three_loses_no_objects() {
    let (mut servers, addrs) = start_cluster("kill", 3);
    let bugs = ["pbzip-order", "fft-barrier-order", "radix-rank-order"];

    // Round-robin the corpus across the nodes and remember every object
    // the cluster now owes us.
    let mut objects: Vec<(Digest, Vec<u8>)> = Vec::new();
    for (i, bug) in bugs.iter().enumerate() {
        let sketch = recorded_sketch_bytes(bug);
        let (_, cert_digest, cert) = succeed(&mut client(&addrs[i % addrs.len()]), bug, &sketch);
        objects.push((sha256(&sketch), sketch));
        objects.push((cert_digest, cert));
    }

    // Kill node 0 outright (drain, join, gone).
    let dead = servers.remove(0);
    dead.shutdown();
    dead.join();

    // Every object must still be fetchable — and verify — from some
    // survivor. N=2 of 3 guarantees at least one owner outlived node 0.
    for (digest, expect) in &objects {
        let found = addrs[1..].iter().find_map(|addr| {
            client(addr).peer_get(digest).unwrap()
        });
        let Some(bytes) = found else {
            panic!("object {digest} lost with node 0");
        };
        assert_eq!(sha256(&bytes), *digest);
        assert_eq!(&bytes, expect);
    }

    for server in &servers {
        server.shutdown();
    }
    for server in servers {
        server.join();
    }
}

#[test]
fn wiped_node_repairs_itself_on_restart() {
    let tag_a = scratch("repair-a");
    let tag_b = scratch("repair-b");
    let addrs = free_addrs(2);
    let peers_a = vec![addrs[1].clone()];
    let peers_b = vec![addrs[0].clone()];
    let node_a = start_node(&tag_a, &addrs[0], &peers_a, Some(TOKEN));
    let mut node_b = start_node(&tag_b, &addrs[1], &peers_b, Some(TOKEN));

    let sketch = recorded_sketch_bytes("pbzip-order");
    let (_, cert_digest, _) = succeed(&mut client(&addrs[0]), "pbzip-order", &sketch);
    let sketch_digest = sha256(&sketch);
    // Two nodes, N=2: both own everything.
    assert!(client(&addrs[1]).peer_stat(&sketch_digest).unwrap());
    assert!(client(&addrs[1]).peer_stat(&cert_digest).unwrap());

    // Node B dies and loses its disk.
    node_b.shutdown();
    node_b.join();
    std::fs::remove_dir_all(&tag_b).unwrap();

    // The restarted B's startup repair pass pulls back everything it
    // owns (here: everything).
    node_b = start_node(&tag_b, &addrs[1], &peers_b, Some(TOKEN));
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let mut c = client(&addrs[1]);
        if c.peer_stat(&sketch_digest).unwrap() && c.peer_stat(&cert_digest).unwrap() {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "startup repair did not restore node B's objects"
        );
        std::thread::sleep(Duration::from_millis(100));
    }

    // The `pres fsck --peer` repair path agrees the invariant holds:
    // an offline view of A's store against live B reports healthy.
    node_a.shutdown();
    node_a.join();
    let (store, _) = pres_suite::svc::Store::open(tag_a.join("store")).unwrap();
    let mut config = ClusterConfig::new(addrs[0].clone(), peers_a.clone());
    config.auth_token = Some(TOKEN.into());
    let cluster = Cluster::new(config, Arc::new(Metrics::new()));
    let report = cluster.repair(&store).unwrap();
    assert!(
        report.healthy(),
        "offline repair found damage after the live repair: {report:?}"
    );

    node_b.shutdown();
    node_b.join();
}

#[test]
fn auth_token_gates_every_frame() {
    let dir = scratch("auth");
    let addrs = free_addrs(2);
    let peers = vec![addrs[1].clone()];
    let server = start_node(&dir, &addrs[0], &peers, Some(TOKEN));
    let sketch = recorded_sketch_bytes("pbzip-order");

    // No HELLO: the first real frame is answered with an error and the
    // connection is closed.
    let mut bare = Client::connect(&addrs[0]).unwrap();
    assert!(bare.submit("pbzip-order", &sketch).is_err());

    // Wrong token: refused at the HELLO itself.
    let mut wrong = Client::connect(&addrs[0]).unwrap();
    assert!(wrong.hello(b"not-the-secret").is_err());

    // Unauthenticated peer frames are refused too — replication does
    // not punch a hole in the perimeter.
    let mut peer = Client::connect(&addrs[0]).unwrap();
    assert!(peer.peer_list().is_err());

    // The right token opens everything.
    let (_, _, cert) = succeed(&mut client(&addrs[0]), "pbzip-order", &sketch);
    assert!(!cert.is_empty());

    server.shutdown();
    server.join();
}
