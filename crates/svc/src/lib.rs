//! # pres-svc — replay as a service
//!
//! The PRES workflow is batch-shaped: a production machine records a cheap
//! sketch when a failure bites, and *somewhere* an explorer spends minutes
//! of CPU turning that sketch into a deterministic replay certificate.
//! This crate is the "somewhere": a daemon that accepts sketches over a
//! small binary protocol, queues the exploration work, and hands back
//! certificates — so one warm machine serves many recording hosts, and
//! repeated submissions of the same failure cost one exploration total.
//!
//! | Module | Role |
//! |---|---|
//! | [`digest`] | SHA-256, in-repo (the workspace is dependency-free) |
//! | [`crc`] | CRC-32 (IEEE), in-repo — per-record journal checksums |
//! | [`store`] | content-addressed object store (sketches + certificates) |
//! | [`journal`] | append-only, crash-tolerant job journal (group commit) |
//! | [`cache`] | digest-keyed, byte-budgeted sketch decode cache |
//! | [`queue`] | FIFO job queue: dedup, retries with backoff, timeouts |
//! | [`metrics`] | atomic counters + latency histogram |
//! | [`proto`] | length-prefixed tagged frames (one version, size-capped) |
//! | [`netpoll`] | std-only `poll(2)` shim for the connection workers |
//! | [`server`] | the daemon: accept loop, connection workers, lifecycle |
//! | [`client`] | the client the CLI and the tests both use |
//! | [`faultpoint`] | deterministic crash injection for durability tests |
//! | [`flush`] | durable flush-on-failure writer for ring-mode sketches |
//!
//! Two properties anchor the design:
//!
//! * **Determinism survives the network.** A job runs the same serial
//!   exploration path as [`pres_core::Pres::reproduce`] with default
//!   settings, so a daemon-minted certificate is byte-identical to an
//!   in-process reproduction of the same sketch — storage and transport
//!   add zero nondeterminism.
//! * **Restart is replay.** The store's objects are named by their own
//!   content hash and the queue journals every transition before
//!   acknowledging it, so recovery after a crash is a directory walk plus
//!   a journal replay — there is no separate index to rebuild or trust.

pub mod cache;
pub mod client;
pub mod crc;
pub mod digest;
pub mod faultpoint;
pub mod flush;
pub mod journal;
pub mod metrics;
pub mod netpoll;
pub mod proto;
pub mod queue;
pub mod server;
pub mod store;

pub use cache::{CachedSketch, SketchCache};
pub use client::{Client, SubmitReceipt};
pub use digest::{sha256, Digest, Sha256};
pub use faultpoint::{FaultMode, FaultPoint, Faults};
pub use journal::GroupCommit;
pub use metrics::Metrics;
pub use proto::{Frame, ProtoError, Request, Response, Severity};
pub use queue::{JobQueue, JobStatus, QueueConfig};
pub use server::{ServeOptions, Server};
pub use store::{FsckReport, Store, StreamingPut};
