//! The node-to-node layer: a static, gossip-free cluster of `pres serve`
//! daemons acting as one sharded, replicated store. Jobs never cross
//! nodes: each runs on the node whose queue journaled it, and since a
//! certificate is a pure function of the sketch, any node that accepts a
//! job mints the same bytes.
//!
//! ## Membership and the ring
//!
//! Every node is started with the same peer set (`--peer addr`, repeated)
//! and identifies itself by its advertised address string. There is no
//! gossip, no failure detector, and no membership change at runtime: the
//! ring is a pure function of the command line, so every node computes
//! identical placement with zero coordination.
//!
//! Placement uses rendezvous (highest-random-weight) hashing rather than
//! a hashed token circle: for an object `d`, every node is scored
//! `sha256(node_id ‖ 0x00 ‖ d)` and the `replicas` highest scores own
//! the object. Rendezvous hashing needs no virtual nodes to balance, and
//! removing one node reassigns only that node's share — the minimal-
//! disruption property consistent hashing is used for, in ~10 lines.
//!
//! ## Replication invariant
//!
//! Every published object should live on its `replicas` (default 2)
//! owners. Writes enforce this eagerly: a fresh local publish is pushed
//! to each remote owner before the put returns (best-effort — an
//! unreachable owner is skipped, not an error, because the local fsynced
//! copy already backs the durability ack). The startup/`pres fsck`
//! repair pass restores the invariant after a node was down: a *pull*
//! phase fetches objects this node owns but lacks (by listing each
//! peer), and a *push* phase re-sends local objects to owners that lack
//! them. Reads route local → owners → every remaining node, so any node
//! can serve any surviving object; a remote hit is re-published locally
//! when this node is an owner, which makes reads self-repairing too.
//!
//! Peer links authenticate with the shared `--auth-token` secret when
//! one is configured (mandatory: a cluster mixing token and no-token
//! nodes will refuse each other's links rather than silently split).

use crate::client::Client;
use crate::digest::{sha256, Digest};
use crate::metrics::Metrics;
use crate::store::Store;
use pres_tvm::sync::Mutex;
use std::io;
use std::sync::Arc;
use std::time::Duration;

/// How a digest relates to this node under the ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObjectRole {
    /// This node has the highest rendezvous score: it is the object's
    /// first owner.
    Primary,
    /// This node is one of the non-primary owners.
    Replica,
    /// This node does not own the object; a local copy is a courtesy
    /// cache (e.g. fetched through a routed read), never relied upon.
    Foreign,
}

/// Static cluster configuration, straight off the command line.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// This node's advertised address — its identity on the ring. Must
    /// be the address peers dial, byte-for-byte.
    pub self_id: String,
    /// The other nodes' advertised addresses.
    pub peers: Vec<String>,
    /// Owners per object (clamped to the node count; 2 = survive one
    /// node loss).
    pub replicas: usize,
    /// Shared secret for peer links (and enforced on clients when set).
    pub auth_token: Option<String>,
    /// Connect attempts per peer RPC before giving up on the peer.
    pub connect_attempts: u32,
    /// Base backoff between connect attempts (doubles per attempt).
    pub connect_backoff: Duration,
}

impl ClusterConfig {
    /// A config for `self_id` with `peers`, N=2, no auth, snappy
    /// reconnects — the common test/bench shape.
    pub fn new(self_id: impl Into<String>, peers: Vec<String>) -> ClusterConfig {
        ClusterConfig {
            self_id: self_id.into(),
            peers,
            replicas: 2,
            auth_token: None,
            connect_attempts: 3,
            connect_backoff: Duration::from_millis(50),
        }
    }
}

/// What a repair pass did, and what it could not do.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RepairReport {
    /// Objects this node owns, lacked, and fetched from a peer.
    pub pulled: usize,
    /// Objects pushed to a remote owner that lacked them.
    pub pushed: usize,
    /// Owner slots that remain unfilled because the owner was
    /// unreachable — the cluster is under-replicated until it returns.
    pub under_replicated: usize,
    /// Peers that answered no RPC at all during the pass.
    pub peers_unreachable: usize,
}

impl RepairReport {
    /// Whether the replication invariant fully holds as far as this
    /// node can see.
    pub fn healthy(&self) -> bool {
        self.under_replicated == 0 && self.peers_unreachable == 0
    }
}

struct Peer {
    id: String,
    /// A cached, authenticated connection; dropped on any I/O error and
    /// re-dialed (with bounded backoff) on the next RPC.
    link: Mutex<Option<Client>>,
}

/// One node's view of the cluster. Shared by the store (object
/// routing), the server (peer frames, STATS), and
/// `pres fsck` (offline repair).
pub struct Cluster {
    self_id: String,
    peers: Vec<Peer>,
    replicas: usize,
    auth_token: Option<Vec<u8>>,
    connect_attempts: u32,
    connect_backoff: Duration,
    metrics: Arc<Metrics>,
}

/// Constant-time 32-byte comparison: the XOR-accumulate loop touches
/// every byte regardless of where the first mismatch is, so a token
/// check leaks no prefix-length timing.
pub fn constant_time_eq(a: &[u8; 32], b: &[u8; 32]) -> bool {
    a.iter().zip(b.iter()).fold(0u8, |acc, (x, y)| acc | (x ^ y)) == 0
}

/// Whether a presented token matches the configured secret. Both sides
/// are hashed first so the comparison is fixed-width and constant-time
/// even though tokens are variable-length.
pub fn token_matches(secret: &[u8], presented: &[u8]) -> bool {
    constant_time_eq(&sha256(secret).0, &sha256(presented).0)
}

impl Cluster {
    /// Builds a cluster view. `metrics` is the node's shared counter
    /// block (peer RPC traffic lands there); pass a fresh one for
    /// offline use (`pres fsck`).
    pub fn new(config: ClusterConfig, metrics: Arc<Metrics>) -> Cluster {
        let node_count = 1 + config.peers.len();
        Cluster {
            self_id: config.self_id,
            peers: config
                .peers
                .into_iter()
                .map(|id| Peer {
                    id,
                    link: Mutex::new(None),
                })
                .collect(),
            replicas: config.replicas.clamp(1, node_count),
            auth_token: config.auth_token.map(String::into_bytes),
            connect_attempts: config.connect_attempts,
            connect_backoff: config.connect_backoff,
            metrics,
        }
    }

    /// This node's ring identity.
    pub fn self_id(&self) -> &str {
        &self.self_id
    }

    /// The other nodes' identities (= the addresses they are dialed at).
    pub fn peer_ids(&self) -> Vec<String> {
        self.peers.iter().map(|p| p.id.clone()).collect()
    }

    /// Owners per object.
    pub fn replicas(&self) -> usize {
        self.replicas
    }

    /// The rendezvous score of `node` for `digest`.
    fn score(node: &str, digest: &Digest) -> [u8; 32] {
        let mut keyed = Vec::with_capacity(node.len() + 1 + 32);
        keyed.extend_from_slice(node.as_bytes());
        keyed.push(0);
        keyed.extend_from_slice(&digest.0);
        sha256(&keyed).0
    }

    /// The object's owners: the `replicas` nodes with the highest
    /// rendezvous scores, best first. Identical on every node because it
    /// depends only on the (static) membership and the digest.
    pub fn owners(&self, digest: &Digest) -> Vec<&str> {
        let mut scored: Vec<(&str, [u8; 32])> = std::iter::once(self.self_id.as_str())
            .chain(self.peers.iter().map(|p| p.id.as_str()))
            .map(|id| (id, Cluster::score(id, digest)))
            .collect();
        // Descending by score; the score is a hash of the id so ties are
        // cryptographically negligible, but break them by id for total
        // determinism anyway.
        scored.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(b.0)));
        scored.truncate(self.replicas);
        scored.into_iter().map(|(id, _)| id).collect()
    }

    /// This node's relationship to `digest` under the ring.
    pub fn role(&self, digest: &Digest) -> ObjectRole {
        let owners = self.owners(digest);
        match owners.iter().position(|id| *id == self.self_id) {
            Some(0) => ObjectRole::Primary,
            Some(_) => ObjectRole::Replica,
            None => ObjectRole::Foreign,
        }
    }

    /// Whether this node is among the object's owners.
    pub fn is_owner(&self, digest: &Digest) -> bool {
        self.role(digest) != ObjectRole::Foreign
    }

    /// Runs one RPC against a peer over its cached link, dialing (with
    /// bounded-backoff retry) and authenticating first if needed. Any
    /// error drops the cached link so the next RPC starts clean.
    fn with_peer<T>(
        &self,
        peer: &Peer,
        op: impl FnOnce(&mut Client) -> io::Result<T>,
    ) -> io::Result<T> {
        let mut slot = peer.link.lock();
        if slot.is_none() {
            let mut client =
                Client::connect_with_retry(&peer.id, self.connect_attempts, self.connect_backoff)?;
            if let Some(token) = &self.auth_token {
                client.hello(token)?;
            }
            *slot = Some(client);
        }
        let client = slot.as_mut().expect("link dialed above");
        self.metrics.peer_rpcs.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let result = op(client);
        if result.is_err() {
            *slot = None;
        }
        result
    }

    fn peer(&self, id: &str) -> Option<&Peer> {
        self.peers.iter().find(|p| p.id == id)
    }

    /// Pushes a locally published object to every remote owner that
    /// lacks it. Best-effort: an unreachable owner is skipped (the
    /// repair pass will finish the job), a reachable one that already
    /// holds the bytes costs one STAT. Returns how many copies were
    /// actually transferred.
    pub fn replicate(&self, digest: &Digest, store: &Store) -> usize {
        let owners: Vec<String> = self
            .owners(digest)
            .into_iter()
            .filter(|id| *id != self.self_id)
            .map(str::to_string)
            .collect();
        let mut pushed = 0;
        for owner in owners {
            if self.push_to(&owner, digest, store).unwrap_or(false) {
                pushed += 1;
            }
        }
        pushed
    }

    /// Streams one local object to one peer unless it already holds it.
    /// `Ok(true)` = bytes moved, `Ok(false)` = peer already had it.
    fn push_to(&self, peer_id: &str, digest: &Digest, store: &Store) -> io::Result<bool> {
        let peer = self
            .peer(peer_id)
            .ok_or_else(|| io::Error::other(format!("unknown peer {peer_id}")))?;
        let present = self.with_peer(peer, |c| c.peer_stat(digest))?;
        if present {
            return Ok(false);
        }
        // Stream straight off the object file: the sending node holds
        // one chunk in memory, the receiver spills to its staging file.
        let path = store.local_object_path(digest);
        self.with_peer(peer, |c| {
            let mut file = std::fs::File::open(&path)?;
            let fresh = c.peer_put(digest, &mut file)?;
            Ok(fresh)
        })?;
        let bytes = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
        self.metrics
            .peer_bytes_out
            .fetch_add(bytes, std::sync::atomic::Ordering::Relaxed);
        Ok(true)
    }

    /// Fetches `digest` from the cluster: owners first (most likely to
    /// hold it), then every remaining peer (courtesy copies and
    /// replication gaps make this worth one STAT-free try each). The
    /// returned bytes are verified against the digest — a lying or
    /// corrupt peer yields `None` for that peer, not bad data.
    pub fn fetch(&self, digest: &Digest) -> Option<Vec<u8>> {
        let owners = self.owners(digest);
        let ordered: Vec<&Peer> = owners
            .iter()
            .filter_map(|id| self.peer(id))
            .chain(
                self.peers
                    .iter()
                    .filter(|p| !owners.contains(&p.id.as_str())),
            )
            .collect();
        for peer in ordered {
            if let Ok(Some(bytes)) = self.with_peer(peer, |c| c.peer_get(digest)) {
                if sha256(&bytes) == *digest {
                    self.metrics
                        .peer_bytes_in
                        .fetch_add(bytes.len() as u64, std::sync::atomic::Ordering::Relaxed);
                    return Some(bytes);
                }
                // Verification failure: the peer's copy is corrupt; its
                // own fsck will quarantine it. Keep looking.
            }
        }
        None
    }

    /// The repair pass: restores the replication invariant as far as
    /// reachable peers allow. Run in the background at daemon startup
    /// and in the foreground by `pres fsck --peer`.
    ///
    /// *Pull*: list each peer, fetch anything this node owns but lacks.
    /// *Push*: for every local object, send it to each remote owner
    /// missing it. Unreachable owners are counted, not retried — the
    /// report's `healthy()` is the "safe to lose a node again" signal.
    pub fn repair(&self, store: &Store) -> io::Result<RepairReport> {
        let mut report = RepairReport::default();

        // Pull phase. A peer that fails the LIST is marked unreachable
        // and skipped for the rest of the pass (its owner slots surface
        // as under-replication in the push phase).
        let mut reachable: Vec<bool> = Vec::with_capacity(self.peers.len());
        for peer in &self.peers {
            match self.with_peer(peer, |c| c.peer_list()) {
                Ok(digests) => {
                    reachable.push(true);
                    for digest in digests {
                        if !self.is_owner(&digest) || store.contains(&digest) {
                            continue;
                        }
                        match self.with_peer(peer, |c| c.peer_get(&digest)) {
                            Ok(Some(bytes)) if sha256(&bytes) == digest => {
                                self.metrics.peer_bytes_in.fetch_add(
                                    bytes.len() as u64,
                                    std::sync::atomic::Ordering::Relaxed,
                                );
                                store.put_local(&bytes)?;
                                report.pulled += 1;
                                self.metrics
                                    .repair_pulled
                                    .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                            }
                            _ => {}
                        }
                    }
                }
                Err(_) => {
                    reachable.push(false);
                    report.peers_unreachable += 1;
                }
            }
        }

        // Push phase: walk the local objects and fill remote owner slots.
        let unreachable = |id: &str| {
            self.peers
                .iter()
                .position(|p| p.id == id)
                .is_some_and(|i| !reachable[i])
        };
        for digest in store.local_digests()? {
            for owner in self.owners(&digest) {
                if owner == self.self_id {
                    continue;
                }
                let owner = owner.to_string();
                if unreachable(&owner) {
                    report.under_replicated += 1;
                    continue;
                }
                match self.push_to(&owner, &digest, store) {
                    Ok(true) => {
                        report.pushed += 1;
                        self.metrics
                            .repair_pushed
                            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    }
                    Ok(false) => {}
                    Err(_) => report.under_replicated += 1,
                }
            }
        }
        Ok(report)
    }

    /// Counts this node's objects by ring role — the replication-health
    /// section of STATS and `pres fsck`.
    pub fn census(&self, store: &Store) -> io::Result<(usize, usize, usize)> {
        let (mut primary, mut replica, mut foreign) = (0, 0, 0);
        for digest in store.local_digests()? {
            match self.role(&digest) {
                ObjectRole::Primary => primary += 1,
                ObjectRole::Replica => replica += 1,
                ObjectRole::Foreign => foreign += 1,
            }
        }
        Ok((primary, replica, foreign))
    }
}

impl std::fmt::Debug for Cluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cluster")
            .field("self_id", &self.self_id)
            .field("peers", &self.peer_ids())
            .field("replicas", &self.replicas)
            .field("auth", &self.auth_token.is_some())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cluster(self_id: &str, peers: &[&str], replicas: usize) -> Cluster {
        let mut config = ClusterConfig::new(self_id, peers.iter().map(|s| s.to_string()).collect());
        config.replicas = replicas;
        Cluster::new(config, Arc::new(Metrics::new()))
    }

    #[test]
    fn every_node_computes_identical_owners() {
        let ids = ["10.0.0.1:7", "10.0.0.2:7", "10.0.0.3:7", "10.0.0.4:7"];
        let views: Vec<Cluster> = ids
            .iter()
            .map(|id| {
                let peers: Vec<&str> = ids.iter().filter(|p| *p != id).copied().collect();
                cluster(id, &peers, 2)
            })
            .collect();
        for i in 0..64u32 {
            let digest = sha256(&i.to_be_bytes());
            let want: Vec<String> = views[0]
                .owners(&digest)
                .into_iter()
                .map(str::to_string)
                .collect();
            assert_eq!(want.len(), 2);
            for view in &views[1..] {
                let got: Vec<String> = view
                    .owners(&digest)
                    .into_iter()
                    .map(str::to_string)
                    .collect();
                assert_eq!(got, want, "digest {i}: views disagree");
            }
        }
    }

    #[test]
    fn rendezvous_spread_is_roughly_balanced() {
        let ids = ["a:1", "b:1", "c:1"];
        let view = cluster(ids[0], &ids[1..], 1);
        let mut counts = std::collections::BTreeMap::new();
        let n = 600u32;
        for i in 0..n {
            let digest = sha256(&i.to_be_bytes());
            let owner = view.owners(&digest)[0].to_string();
            *counts.entry(owner).or_insert(0u32) += 1;
        }
        assert_eq!(counts.len(), 3, "every node should own something");
        for (node, count) in counts {
            // Perfectly even would be 200 each; allow a wide band — the
            // claim is "no node is starved or doubled", not uniformity.
            assert!(
                (100..=300).contains(&count),
                "node {node} owns {count} of {n}"
            );
        }
    }

    #[test]
    fn removing_a_node_only_moves_its_own_share() {
        let ids = ["a:1", "b:1", "c:1"];
        let full = cluster(ids[0], &ids[1..], 1);
        let reduced = cluster(ids[0], &ids[1..2], 1); // c:1 removed
        for i in 0..200u32 {
            let digest = sha256(&i.to_be_bytes());
            let before = full.owners(&digest)[0].to_string();
            let after = reduced.owners(&digest)[0].to_string();
            if before != "c:1" {
                assert_eq!(before, after, "digest {i} moved although its owner survived");
            }
        }
    }

    #[test]
    fn roles_partition_the_ring() {
        let ids = ["a:1", "b:1", "c:1"];
        let views: Vec<Cluster> = ids
            .iter()
            .map(|id| {
                let peers: Vec<&str> = ids.iter().filter(|p| *p != id).copied().collect();
                cluster(id, &peers, 2)
            })
            .collect();
        for i in 0..100u32 {
            let digest = sha256(&i.to_be_bytes());
            let primaries = views
                .iter()
                .filter(|v| v.role(&digest) == ObjectRole::Primary)
                .count();
            let replicas = views
                .iter()
                .filter(|v| v.role(&digest) == ObjectRole::Replica)
                .count();
            assert_eq!(primaries, 1, "digest {i}");
            assert_eq!(replicas, 1, "digest {i}");
        }
    }

    #[test]
    fn replicas_clamp_to_node_count() {
        let view = cluster("a:1", &["b:1"], 9);
        assert_eq!(view.replicas(), 2);
        let digest = sha256(b"x");
        assert_eq!(view.owners(&digest).len(), 2);
        let solo = cluster("a:1", &[], 2);
        assert_eq!(solo.replicas(), 1);
    }

    #[test]
    fn token_comparison_accepts_equal_rejects_unequal() {
        assert!(token_matches(b"sesame", b"sesame"));
        assert!(!token_matches(b"sesame", b"sesame "));
        assert!(!token_matches(b"sesame", b""));
        assert!(token_matches(b"", b""));
        assert!(constant_time_eq(&[7; 32], &[7; 32]));
        let mut other = [7u8; 32];
        other[31] ^= 1;
        assert!(!constant_time_eq(&[7; 32], &other));
    }
}
