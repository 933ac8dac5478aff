//! The daemon: accept loop, connection workers, job workers, lifecycle.
//!
//! ## Threading model
//!
//! One accept thread, a small fixed pool of *connection workers*, and
//! [`QueueConfig::workers`](crate::queue::QueueConfig) job workers, each
//! running its explorations on its own thread's warm executor pool.
//!
//! The accept thread only accepts: each new connection is handed
//! round-robin to a connection worker's mailbox (or refused with a single
//! ERROR frame once [`ServeOptions::max_connections`] are live — explicit
//! backpressure, counted in [`Metrics::connections_refused`]). Each
//! connection worker multiplexes its share of non-blocking sockets with
//! [`crate::netpoll`] (`poll(2)`): it reads whatever bytes are ready,
//! walks complete frames out of a per-connection buffer with
//! [`Frame::parse`], dispatches them inline, and queues responses into
//! a per-connection write buffer flushed as the socket accepts them. A
//! connection may pipeline many tagged requests; responses complete in
//! dispatch order, which is *not* arrival order for streaming submits —
//! a STATUS poll is answered while a SUBMIT's chunks are still arriving.
//! Two backpressure bounds protect the worker: a connection whose
//! unflushed-response window fills ([`ServeOptions::inflight_window`])
//! stops being read until its client drains responses
//! ([`Metrics::window_stalls`]), and streamed submits spill to a store
//! staging file chunk-by-chunk ([`Store::put_streaming`]) so per-connection
//! memory is bounded by one chunk, not one sketch.
//!
//! Connections are isolated per the [`crate::proto`] severity contract: a
//! framing error (bad magic/version, oversized length) costs that one
//! connection, answered by one ERROR on [`CONNECTION_TAG`]; a payload
//! error (unknown kind, malformed fields) costs only that one request —
//! the connection keeps serving, which pipelining requires. Both are
//! counted in [`Metrics::frames_rejected`]; neither ever touches the
//! accept loop.
//!
//! ## Hot-path economics
//!
//! Two costs dominate a loaded daemon and both are amortized here rather
//! than paid per request. Every state transition is journaled, but the
//! journal group-commits ([`crate::journal::GroupCommit`], tuned by
//! `--journal-batch` / `--journal-batch-usecs`): concurrent submits from
//! the connection workers land in one cohort and share a single
//! `fdatasync`, with no record acknowledged before its cohort is on disk.
//! Every execution needs a sketch's metadata plus its replay index, but
//! repeat executions of a digest are served from the queue's
//! byte-budgeted decode cache ([`crate::cache::SketchCache`], tuned by
//! `--sketch-cache-bytes`) instead of re-reading and re-indexing from the
//! store.
//!
//! Shutdown — whether from [`Server::shutdown`] or a SHUTDOWN frame — is a
//! drain: the queue stops accepting, running jobs finish, queued jobs stay
//! journaled for the next start, and [`Server::join`] returns once every
//! worker is idle.

use crate::digest::{sha256, Digest};
use crate::metrics::Metrics;
use crate::netpoll;
use crate::proto::{Frame, Request, Response, CONNECTION_TAG, DEFAULT_MAX_FRAME};
use crate::queue::{JobQueue, JobStatus, QueueConfig};
use crate::store::{Store, StreamingPut};
use pres_apps::registry::all_bugs;
use pres_tvm::sync::Mutex;
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// How many streaming submits one connection may hold open at once. A
/// well-behaved client streams a handful concurrently; an adversarial one
/// must not pin unbounded staging files.
const MAX_STREAMS_PER_CONN: usize = 16;

/// Per-connection bytes read per poll round: large enough to swallow a
/// whole default chunk in one pass, small enough to keep the worker fair
/// across its connections.
const READ_BUDGET_PER_ROUND: usize = 256 << 10;

/// How long the poll loop sleeps when nothing is ready — also the bound on
/// how stale a worker's view of its mailbox and the shutdown flag can be.
const POLL_TICK: Duration = Duration::from_millis(5);

/// How long a draining worker keeps flushing pending responses before
/// dropping its connections.
const DRAIN_FLUSH_DEADLINE: Duration = Duration::from_secs(2);

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Bind address (`127.0.0.1:7557`; port 0 picks an ephemeral port).
    pub addr: String,
    /// Root directory for the store and journal.
    pub data_dir: PathBuf,
    /// Queue tuning (worker count, budgets, retries).
    pub queue: QueueConfig,
    /// Cap on accepted frame payloads, and on the cumulative size of one
    /// streamed submit.
    pub max_frame: u32,
    /// Per-connection idle timeout: a connection silent this long is
    /// dropped, bounding the cost of abandoned clients.
    pub read_timeout: Duration,
    /// How often the metrics log line is emitted (`None` = never).
    pub log_interval: Option<Duration>,
    /// Connection-worker threads multiplexing the live connections.
    pub conn_workers: usize,
    /// Live-connection cap; connections past it are answered with one
    /// ERROR frame and closed.
    pub max_connections: usize,
    /// Per-connection pipelining window: once this many responses are
    /// queued unflushed, the connection is not read again until the
    /// client drains them.
    pub inflight_window: usize,
    /// Shared secret: when set, every connection must open with a HELLO
    /// carrying it.
    pub auth_token: Option<String>,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            addr: "127.0.0.1:7557".into(),
            data_dir: PathBuf::from("pres-svc-data"),
            queue: QueueConfig::default(),
            max_frame: DEFAULT_MAX_FRAME,
            read_timeout: Duration::from_secs(10),
            log_interval: Some(Duration::from_secs(10)),
            conn_workers: 4,
            max_connections: 4096,
            inflight_window: 128,
            auth_token: None,
        }
    }
}

/// Constant-time 32-byte comparison: the XOR-accumulate loop touches
/// every byte regardless of where the first mismatch is, so a token
/// check leaks no prefix-length timing.
fn constant_time_eq(a: &[u8; 32], b: &[u8; 32]) -> bool {
    a.iter()
        .zip(b.iter())
        .fold(0u8, |acc, (x, y)| acc | (x ^ y))
        == 0
}

/// Whether a presented token matches the configured secret. Both sides
/// are hashed first so the comparison is fixed-width and constant-time
/// even though tokens are variable-length.
fn token_matches(secret: &[u8], presented: &[u8]) -> bool {
    constant_time_eq(&sha256(secret).0, &sha256(presented).0)
}

/// Everything a connection worker needs, shared across the front end.
struct Frontend {
    queue: Arc<JobQueue>,
    metrics: Arc<Metrics>,
    shutdown: Arc<AtomicBool>,
    /// The daemon's own listen address — the SHUTDOWN handler connects to
    /// it to kick the accept thread out of `accept(2)`.
    listen_addr: SocketAddr,
    max_frame: u32,
    read_timeout: Duration,
    inflight_window: usize,
    /// The configured shared secret, raw. `Some` ⇒ every connection must
    /// HELLO before anything else.
    auth_token: Option<Vec<u8>>,
}

type Mailbox = Arc<Mutex<Vec<TcpStream>>>;

/// A running daemon.
pub struct Server {
    addr: SocketAddr,
    queue: Arc<JobQueue>,
    metrics: Arc<Metrics>,
    shutdown: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    conn_workers: Vec<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    logger: Option<JoinHandle<()>>,
}

impl Server {
    /// Opens the store and journal under `data_dir`, replays unfinished
    /// jobs, binds the listener, and starts accepting.
    pub fn start(opts: ServeOptions) -> io::Result<Server> {
        let metrics = Arc::new(Metrics::new());
        let listener = TcpListener::bind(&opts.addr)?;
        let addr = listener.local_addr()?;
        let (store, _) = Store::open(opts.data_dir.join("store"))?;
        // Self-verify the whole store before serving: any object that
        // rotted on disk is quarantined now, so every post-start read
        // either verifies or is a clean miss (a resubmission repairs it).
        let fsck = store.fsck()?;
        if fsck.quarantined > 0 {
            eprintln!(
                "pres-svc: startup fsck quarantined {} corrupt object(s) ({} verified)",
                fsck.quarantined, fsck.verified
            );
        }
        let queue = Arc::new(JobQueue::open(
            opts.data_dir.join("journal.log"),
            Arc::new(store),
            Arc::clone(&metrics),
            opts.queue.clone(),
        )?);
        let shutdown = Arc::new(AtomicBool::new(false));

        let workers: Vec<JoinHandle<()>> = (0..opts.queue.workers.max(1))
            .map(|i| {
                let queue = Arc::clone(&queue);
                thread::Builder::new()
                    .name(format!("svc-job-{i}"))
                    .spawn(move || queue.work())
                    .expect("spawn job worker")
            })
            .collect();

        let frontend = Arc::new(Frontend {
            queue: Arc::clone(&queue),
            metrics: Arc::clone(&metrics),
            shutdown: Arc::clone(&shutdown),
            listen_addr: addr,
            max_frame: opts.max_frame,
            read_timeout: opts.read_timeout,
            inflight_window: opts.inflight_window.max(1),
            auth_token: opts.auth_token.as_ref().map(|t| t.as_bytes().to_vec()),
        });

        let n = opts.conn_workers.max(1);
        let mailboxes: Vec<Mailbox> = (0..n).map(|_| Arc::new(Mutex::new(Vec::new()))).collect();
        let conn_workers: Vec<JoinHandle<()>> = mailboxes
            .iter()
            .enumerate()
            .map(|(i, mailbox)| {
                let frontend = Arc::clone(&frontend);
                let mailbox = Arc::clone(mailbox);
                thread::Builder::new()
                    .name(format!("svc-conn-{i}"))
                    .spawn(move || conn_worker(&frontend, &mailbox))
                    .expect("spawn connection worker")
            })
            .collect();
        let accept = {
            let frontend = Arc::clone(&frontend);
            let max_connections = opts.max_connections.max(1);
            thread::Builder::new()
                .name("svc-accept".into())
                .spawn(move || {
                    let mut next = 0usize;
                    for conn in listener.incoming() {
                        if frontend.shutdown.load(Ordering::SeqCst) {
                            break;
                        }
                        let Ok(stream) = conn else { continue };
                        let live = frontend.metrics.connections_live.load(Ordering::Relaxed);
                        if live >= max_connections as u64 {
                            refuse_connection(stream, &frontend.metrics, max_connections);
                            continue;
                        }
                        frontend.metrics.connections.fetch_add(1, Ordering::Relaxed);
                        frontend
                            .metrics
                            .connections_live
                            .fetch_add(1, Ordering::Relaxed);
                        mailboxes[next].lock().push(stream);
                        next = (next + 1) % mailboxes.len();
                    }
                })
                .expect("spawn accept loop")
        };

        let logger = opts.log_interval.map(|interval| {
            let metrics = Arc::clone(&metrics);
            let shutdown = Arc::clone(&shutdown);
            thread::Builder::new()
                .name("svc-log".into())
                .spawn(move || {
                    let tick = Duration::from_millis(100);
                    let mut since_log = Duration::ZERO;
                    while !shutdown.load(Ordering::SeqCst) {
                        thread::sleep(tick);
                        since_log += tick;
                        if since_log >= interval {
                            eprintln!("{}", metrics.snapshot().log_line());
                            since_log = Duration::ZERO;
                        }
                    }
                })
                .expect("spawn metrics logger")
        });

        Ok(Server {
            addr,
            queue,
            metrics,
            shutdown,
            accept: Some(accept),
            conn_workers,
            workers,
            logger,
        })
    }

    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The live metrics block.
    pub fn metrics(&self) -> &Arc<Metrics> {
        &self.metrics
    }

    /// The queue (for in-process inspection in tests and benches).
    pub fn queue(&self) -> &Arc<JobQueue> {
        &self.queue
    }

    /// Initiates the drain-and-exit sequence (idempotent).
    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.queue.drain();
        // The accept loop blocks in `accept(2)`; a throwaway local
        // connection is the portable way to kick it loose.
        let _ = TcpStream::connect(self.addr);
    }

    /// Waits for the drain to complete: running jobs finished, accept loop
    /// and workers exited.
    pub fn join(mut self) {
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        for h in self.conn_workers.drain(..) {
            let _ = h.join();
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        if let Some(h) = self.logger.take() {
            let _ = h.join();
        }
        self.queue.await_drained();
    }
}

/// Answers a connection refused at the cap with one best-effort ERROR
/// on [`CONNECTION_TAG`], then drops it.
fn refuse_connection(mut stream: TcpStream, metrics: &Metrics, max_connections: usize) {
    metrics.connections_refused.fetch_add(1, Ordering::Relaxed);
    let _ = stream.set_write_timeout(Some(Duration::from_millis(200)));
    let _ = encode_response(
        CONNECTION_TAG,
        &error(format!(
            "connection limit reached ({max_connections} live); retry shortly"
        )),
    )
    .write_to(&mut stream);
}

fn error(message: String) -> Response {
    Response::Error { message }
}

#[cfg(unix)]
fn raw_fd(stream: &TcpStream) -> i32 {
    use std::os::unix::io::AsRawFd;
    stream.as_raw_fd()
}

#[cfg(not(unix))]
fn raw_fd(_stream: &TcpStream) -> i32 {
    0
}

/// What an inbound byte stream becomes when its END frame arrives.
enum StreamKind {
    /// A client's streaming submit: verify the bug id, enqueue a job.
    Submit { bug: String },
    /// A plain object put: verify the advertised digest, publish.
    PeerPut { expect: Digest },
}

/// One in-progress inbound stream (streaming submit or object put), keyed
/// by its tag on the connection.
struct InboundStream<'a> {
    kind: StreamKind,
    put: StreamingPut<'a>,
}

/// What a tag maps to between SUBMIT_BEGIN and SUBMIT_END.
///
/// A stream that failed (unknown bug, store error, cap overflow) is not
/// simply removed: the client pipelined its chunks before it could see
/// our error, so the tag is left as a tombstone that swallows the rest of
/// the stream silently. The client gets exactly one error — on the frame
/// that failed — instead of one per in-flight chunk, and the connection
/// stays in sync for whatever it sends next.
enum StreamSlot<'a> {
    Open(InboundStream<'a>),
    Poisoned,
}

/// One multiplexed connection's state.
struct Conn<'a> {
    stream: TcpStream,
    /// Unparsed inbound bytes (at most one partial frame plus whatever
    /// arrived behind it this round).
    read_buf: Vec<u8>,
    /// Encoded responses not yet accepted by the socket.
    write_buf: Vec<u8>,
    write_pos: usize,
    /// Responses queued since the write buffer last drained — the
    /// pipelining window.
    pending_responses: usize,
    /// Reads paused until the client drains our responses.
    stalled: bool,
    /// Flush what is queued, then close (framing error or shutdown).
    close_after_flush: bool,
    /// Dead now: transport error or EOF.
    dead: bool,
    last_activity: Instant,
    /// Open streaming submits by tag (or their failure tombstones).
    streams: HashMap<u32, StreamSlot<'a>>,
    /// Whether this connection has presented the shared secret; only
    /// consulted when the daemon has one configured.
    authed: bool,
}

impl<'a> Conn<'a> {
    fn new(stream: TcpStream) -> Conn<'a> {
        Conn {
            stream,
            read_buf: Vec::new(),
            write_buf: Vec::new(),
            write_pos: 0,
            pending_responses: 0,
            stalled: false,
            close_after_flush: false,
            dead: false,
            last_activity: Instant::now(),
            streams: HashMap::new(),
            authed: false,
        }
    }

    fn wants_read(&self) -> bool {
        !self.dead && !self.stalled && !self.close_after_flush
    }

    fn wants_write(&self) -> bool {
        !self.dead && self.write_pos < self.write_buf.len()
    }

    /// Queues one response on `tag`.
    fn enqueue_response(&mut self, tag: u32, response: &Response) {
        let frame = encode_response(tag, response);
        self.write_buf.extend_from_slice(&frame.encode());
        self.pending_responses += 1;
    }

    /// Non-blocking flush. Returns `Ok(true)` when the buffer drained.
    fn flush(&mut self) -> io::Result<bool> {
        while self.write_pos < self.write_buf.len() {
            match self.stream.write(&self.write_buf[self.write_pos..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => {
                    self.write_pos += n;
                    self.last_activity = Instant::now();
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(false),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        self.write_buf.clear();
        self.write_pos = 0;
        self.pending_responses = 0;
        Ok(true)
    }

    /// Non-blocking read of up to the per-round budget. Returns the byte
    /// count (0 = nothing ready); EOF surfaces as an error.
    fn read_some(&mut self, scratch: &mut [u8]) -> io::Result<usize> {
        let mut total = 0;
        while total < READ_BUDGET_PER_ROUND {
            match self.stream.read(scratch) {
                Ok(0) => {
                    return if total > 0 {
                        Ok(total)
                    } else {
                        Err(io::ErrorKind::UnexpectedEof.into())
                    }
                }
                Ok(n) => {
                    self.read_buf.extend_from_slice(&scratch[..n]);
                    total += n;
                    self.last_activity = Instant::now();
                    if n < scratch.len() {
                        break;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        Ok(total)
    }
}

/// Encodes one response on `tag`. A response too large for the u32 frame
/// length (a pathological certificate) degrades to an ERROR frame rather
/// than killing the connection with nothing on the wire.
fn encode_response(tag: u32, response: &Response) -> Frame {
    response.to_frame(tag).unwrap_or_else(|e| {
        error(e.to_string())
            .to_frame(tag)
            .expect("an error frame is always small enough to encode")
    })
}

/// A connection worker's loop: adopt mailbox connections, poll, flush,
/// read, parse, dispatch — until shutdown.
fn conn_worker(frontend: &Frontend, mailbox: &Mailbox) {
    let store: &Store = frontend.queue.store();
    let mut conns: Vec<Conn<'_>> = Vec::new();
    let mut scratch = vec![0u8; 64 << 10];
    let mut drain_since: Option<Instant> = None;

    loop {
        // Adopt newly accepted connections.
        for stream in mailbox.lock().drain(..) {
            if stream.set_nonblocking(true).is_err() {
                frontend
                    .metrics
                    .connections_live
                    .fetch_sub(1, Ordering::Relaxed);
                continue;
            }
            let _ = stream.set_nodelay(true);
            conns.push(Conn::new(stream));
        }

        let draining = frontend.shutdown.load(Ordering::SeqCst);
        if draining {
            let since = *drain_since.get_or_insert_with(Instant::now);
            let done = conns.iter().all(|c| !c.wants_write());
            if done || since.elapsed() > DRAIN_FLUSH_DEADLINE {
                break;
            }
        }

        // Poll every socket for the readiness we currently want.
        let mut fds: Vec<netpoll::PollFd> = conns
            .iter()
            .map(|c| {
                let mut events = 0i16;
                if c.wants_read() && !draining {
                    events |= netpoll::POLLIN;
                }
                if c.wants_write() {
                    events |= netpoll::POLLOUT;
                }
                netpoll::PollFd::new(raw_fd(&c.stream), events)
            })
            .collect();
        let _ = netpoll::wait(&mut fds, POLL_TICK);

        for (conn, fd) in conns.iter_mut().zip(&fds) {
            // Flush first: draining the write buffer is what un-stalls a
            // windowed connection and completes a close_after_flush.
            if conn.wants_write() && fd.writable() {
                match conn.flush() {
                    Ok(true) => {
                        conn.stalled = false;
                        if conn.close_after_flush {
                            conn.dead = true;
                        }
                    }
                    Ok(false) => {}
                    Err(_) => conn.dead = true,
                }
            } else if conn.close_after_flush && !conn.wants_write() {
                conn.dead = true;
            }

            if conn.wants_read()
                && !draining
                && fd.readable()
                && conn.read_some(&mut scratch).is_err()
            {
                // EOF or transport error. Anything already queued has
                // lost its reader; just drop.
                conn.dead = true;
            }
            // Parse whatever is buffered — including frames left behind by
            // an earlier stall, which no new read will ever re-deliver.
            if !conn.dead && !draining && !conn.stalled && !conn.read_buf.is_empty() {
                drive_parse(frontend, store, conn);
            }

            if !conn.dead && conn.last_activity.elapsed() > frontend.read_timeout {
                // Idle cull: abandoned clients (and their open streaming
                // submits — StreamingPut's Drop removes the staging file).
                conn.dead = true;
            }
        }

        let before = conns.len();
        conns.retain(|c| !c.dead);
        let closed = before - conns.len();
        if closed > 0 {
            frontend
                .metrics
                .connections_live
                .fetch_sub(closed as u64, Ordering::Relaxed);
        }
    }

    // Connections dropped at exit are closed, not gracefully flushed; the
    // gauge must not leak them.
    if !conns.is_empty() {
        frontend
            .metrics
            .connections_live
            .fetch_sub(conns.len() as u64, Ordering::Relaxed);
    }
}

/// Walks every complete frame out of `conn.read_buf`, dispatching each.
fn drive_parse<'a>(frontend: &Frontend, store: &'a Store, conn: &mut Conn<'a>) {
    let mut consumed = 0;
    loop {
        if conn.close_after_flush || conn.dead {
            break;
        }
        // Pipelining window: stop reading new requests until the client
        // drains the responses it already has.
        if conn.pending_responses >= frontend.inflight_window && conn.wants_write() {
            if !conn.stalled {
                conn.stalled = true;
                frontend.metrics.window_stalls.fetch_add(1, Ordering::Relaxed);
            }
            break;
        }
        match Frame::parse(&conn.read_buf[consumed..], frontend.max_frame) {
            Ok(None) => break,
            Ok(Some((frame, used))) => {
                consumed += used;
                dispatch(frontend, store, conn, frame);
            }
            Err(e) => {
                // Framing is gone (parse yields only framing errors): no
                // request tag can be trusted, so the one ERROR goes to the
                // connection.
                frontend
                    .metrics
                    .frames_rejected
                    .fetch_add(1, Ordering::Relaxed);
                conn.enqueue_response(CONNECTION_TAG, &error(e.to_string()));
                conn.close_after_flush = true;
                break;
            }
        }
    }
    conn.read_buf.drain(..consumed);
}

/// Dispatches one decoded frame on one connection, queueing its response
/// (if it gets one) on the frame's tag.
fn dispatch<'a>(frontend: &Frontend, store: &'a Store, conn: &mut Conn<'a>, frame: Frame) {
    let reject = || {
        frontend
            .metrics
            .frames_rejected
            .fetch_add(1, Ordering::Relaxed)
    };
    let response = match Request::from_frame(&frame) {
        // Payload severity by construction (framing errors never make it
        // out of the parser): answer and keep the connection.
        Err(e) => {
            reject();
            Some(error(e.to_string()))
        }
        // HELLO passes the auth gate — it *is* the auth gate.
        Ok(request)
            if frontend.auth_token.is_some()
                && !conn.authed
                && !matches!(request, Request::Hello { .. }) =>
        {
            reject();
            conn.close_after_flush = true;
            Some(error("authentication required: send HELLO first".into()))
        }
        Ok(request) => handle(request, frontend, store, conn, frame.tag),
    };
    if let Some(response) = response {
        conn.enqueue_response(frame.tag, &response);
    }
}

/// Opens an inbound stream on `tag`. BEGIN is answered only when it
/// fails; a successful stream is answered on its END.
fn open_stream<'a>(
    store: &'a Store,
    conn: &mut Conn<'a>,
    tag: u32,
    kind: StreamKind,
) -> Option<Response> {
    if conn.streams.contains_key(&tag) {
        return Some(error(format!("stream tag {tag} already open")));
    }
    if conn.streams.len() >= MAX_STREAMS_PER_CONN {
        // No tombstone here: tombstones live in the same map, so minting
        // one would defeat the cap it enforces.
        return Some(error(format!(
            "too many open streams on this connection (max {MAX_STREAMS_PER_CONN})"
        )));
    }
    let opened = match &kind {
        StreamKind::Submit { bug } if !all_bugs().iter().any(|b| b.id == *bug) => {
            Err(format!("unknown bug '{bug}' — see `pres list`"))
        }
        _ => store
            .put_streaming()
            .map_err(|e| format!("store ingest failed: {e}")),
    };
    match opened {
        Ok(put) => {
            conn.streams
                .insert(tag, StreamSlot::Open(InboundStream { kind, put }));
            None
        }
        Err(message) => {
            conn.streams.insert(tag, StreamSlot::Poisoned);
            Some(error(message))
        }
    }
}

/// Spills one chunk into the stream open on `tag`. Chunks are answered
/// only when they fail.
fn write_chunk(max_frame: u32, conn: &mut Conn<'_>, tag: u32, data: &[u8]) -> Option<Response> {
    let Some(slot) = conn.streams.get_mut(&tag) else {
        return Some(error(format!("no open stream for tag {tag}")));
    };
    let StreamSlot::Open(stream) = slot else {
        // The error already went out when the stream failed; the client
        // pipelined this chunk before seeing it.
        return None;
    };
    let failure = if stream.put.written() + data.len() as u64 > max_frame as u64 {
        format!("streamed submit exceeds the {max_frame} byte cap")
    } else {
        match stream.put.write(data) {
            Ok(()) => return None,
            Err(e) => format!("store ingest failed: {e}"),
        }
    };
    *slot = StreamSlot::Poisoned;
    Some(error(failure))
}

/// Closes the stream on `tag`: publishes its object and, for a submit,
/// enqueues the job.
fn close_stream(frontend: &Frontend, conn: &mut Conn<'_>, tag: u32) -> Option<Response> {
    let stream = match conn.streams.remove(&tag) {
        Some(StreamSlot::Open(stream)) => stream,
        // END of a failed stream: the tombstone absorbed it and its one
        // error response is already on the wire.
        Some(StreamSlot::Poisoned) => return None,
        None => return Some(error(format!("no open stream for tag {tag}"))),
    };
    Some(match stream.kind {
        StreamKind::Submit { bug } => {
            frontend.metrics.submits.fetch_add(1, Ordering::Relaxed);
            frontend
                .metrics
                .streaming_submits
                .fetch_add(1, Ordering::Relaxed);
            match stream.put.finish() {
                Ok((digest, fresh_object)) => match frontend.queue.submit(&bug, digest) {
                    Ok((job, fresh_job)) => Response::Submitted {
                        job,
                        sketch: digest,
                        fresh_object,
                        fresh_job,
                    },
                    Err(e) => error(e.to_string()),
                },
                Err(e) => error(format!("store ingest failed: {e}")),
            }
        }
        StreamKind::PeerPut { expect } => match stream.put.finish() {
            Ok((digest, fresh)) if digest == expect => Response::PeerPut { digest, fresh },
            Ok((digest, _)) => error(format!(
                "peer put advertised {expect} but the bytes hash to {digest}"
            )),
            Err(e) => error(format!("store ingest failed: {e}")),
        },
    })
}

/// Serves one authorized request; `None` means it is not answered (a
/// stream's BEGIN or CHUNK that succeeded).
fn handle<'a>(
    request: Request,
    frontend: &Frontend,
    store: &'a Store,
    conn: &mut Conn<'a>,
    tag: u32,
) -> Option<Response> {
    let queue = &frontend.queue;
    let metrics = &frontend.metrics;
    Some(match request {
        Request::SubmitBegin { bug } => {
            return open_stream(store, conn, tag, StreamKind::Submit { bug })
        }
        Request::PeerPutBegin { digest } => {
            return open_stream(store, conn, tag, StreamKind::PeerPut { expect: digest })
        }
        Request::SubmitChunk { data } => return write_chunk(frontend.max_frame, conn, tag, &data),
        Request::SubmitEnd => return close_stream(frontend, conn, tag),
        Request::Hello { token } => {
            let ok = match &frontend.auth_token {
                Some(secret) => token_matches(secret, &token),
                None => true,
            };
            if !ok {
                metrics.frames_rejected.fetch_add(1, Ordering::Relaxed);
                conn.close_after_flush = true;
                return Some(error("authentication failed".into()));
            }
            conn.authed = true;
            Response::HelloOk
        }
        Request::Status { job } => Response::Status {
            status: queue.status(job),
        },
        Request::Result { job } => match queue.status(job) {
            Some(JobStatus::Succeeded { certificate, .. }) => {
                match queue.store().get(&certificate) {
                    Ok(Some(bytes)) => Response::Result { certificate: bytes },
                    Ok(None) => Response::Error {
                        message: format!("certificate object {certificate} missing from store"),
                    },
                    Err(e) => Response::Error {
                        message: format!("certificate read failed: {e}"),
                    },
                }
            }
            Some(status) => Response::Error {
                message: format!("job {job} has no certificate: {status}"),
            },
            None => Response::Error {
                message: format!("unknown job {job}"),
            },
        },
        Request::Stats => Response::Stats {
            text: metrics.snapshot().to_string(),
        },
        Request::Shutdown => {
            frontend.shutdown.store(true, Ordering::SeqCst);
            queue.drain();
            conn.close_after_flush = true;
            // Kick the accept loop out of `accept(2)` so it observes the
            // flag.
            let _ = TcpStream::connect(frontend.listen_addr);
            Response::ShuttingDown
        }
        Request::PeerGet { digest } => match queue.store().get(&digest) {
            Ok(body) => Response::PeerObject { body },
            Err(e) => Response::Error {
                message: format!("peer get failed: {e}"),
            },
        },
        Request::PeerStat { digest } => Response::PeerStatIs {
            present: queue.store().contains(&digest),
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;

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
