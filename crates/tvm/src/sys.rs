//! The simulated world: filesystem, network, clock, and input randomness.
//!
//! Everything nondeterministic that is *not* thread interleaving — file
//! contents, client connections, timestamps, random numbers — lives here and
//! is a deterministic function of the [`WorldConfig`]. System-call results
//! are therefore reproducible by construction, mirroring the paper's design
//! in which every sketching mechanism logs syscall results so that input
//! nondeterminism never has to be searched.
//!
//! The network model is *scripted*: a workload description lists client
//! sessions (arrival step, request bytes). `accept` blocks until the next
//! session arrives (the VM fast-forwards idle time), returns `None` once the
//! script is exhausted — which is how server applications drain and
//! terminate — and each connection's inbound bytes are available immediately
//! after accept.

use crate::ids::{ConnId, FdId};
use crate::op::{OpResult, SyscallOp};

use crate::rng::ChaCha8Rng;
use std::collections::BTreeMap;

/// One scripted client session.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Session {
    /// The VM step at which the connection becomes acceptable.
    pub arrival_step: u64,
    /// The full request byte stream the client sends.
    pub request: Vec<u8>,
}

impl Session {
    /// A session arriving at `arrival_step` carrying `request`.
    pub fn new(arrival_step: u64, request: impl Into<Vec<u8>>) -> Self {
        Session {
            arrival_step,
            request: request.into(),
        }
    }
}

/// Initial state of the simulated world.
#[derive(Debug, Clone, Default)]
pub struct WorldConfig {
    /// Initial filesystem contents (path → bytes).
    pub files: BTreeMap<String, Vec<u8>>,
    /// Scripted inbound connections, in arrival order.
    pub sessions: Vec<Session>,
    /// Seed for the input random stream (`Ctx::random`).
    pub input_seed: u64,
}

impl WorldConfig {
    /// Adds an initial file.
    pub fn with_file(mut self, path: &str, data: impl Into<Vec<u8>>) -> Self {
        self.files.insert(path.to_string(), data.into());
        self
    }

    /// Adds a scripted session.
    pub fn with_session(mut self, session: Session) -> Self {
        self.sessions.push(session);
        self
    }
}

/// Whether an `accept` can proceed right now.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AcceptStatus {
    /// A session has arrived and is waiting.
    Ready,
    /// No session will ever arrive again; accept returns `None`.
    Exhausted,
    /// The next session arrives at this step; accept must block.
    WaitUntil(u64),
}

#[derive(Debug, Clone)]
struct OpenFd {
    path: String,
    cursor: usize,
    closed: bool,
}

#[derive(Debug, Clone)]
struct ConnState {
    inbox: Vec<u8>,
    read_cursor: usize,
    outbox: Vec<u8>,
    closed: bool,
}

/// The live simulated world during a run.
#[derive(Debug)]
pub struct World {
    files: BTreeMap<String, Vec<u8>>,
    fds: Vec<OpenFd>,
    sessions: Vec<Session>,
    next_session: usize,
    conns: Vec<ConnState>,
    rng: ChaCha8Rng,
    stdout: Vec<u8>,
}

impl World {
    /// Instantiates the world from its configuration.
    pub fn new(config: WorldConfig) -> Self {
        World {
            files: config.files,
            fds: Vec::new(),
            sessions: config.sessions,
            next_session: 0,
            conns: Vec::new(),
            rng: ChaCha8Rng::seed_from_u64(config.input_seed),
            stdout: Vec::new(),
        }
    }

    /// Accept readiness at the given VM step.
    pub fn accept_status(&self, step: u64) -> AcceptStatus {
        match self.sessions.get(self.next_session) {
            None => AcceptStatus::Exhausted,
            Some(s) if s.arrival_step <= step => AcceptStatus::Ready,
            Some(s) => AcceptStatus::WaitUntil(s.arrival_step),
        }
    }

    /// Applies a system call and produces its result.
    ///
    /// `now` is the virtual clock reading; `step` the VM step counter.
    /// Misuse (bad fd, recv on a closed connection, …) is reported as
    /// `Err(message)` and surfaces as a thread crash, the moral equivalent
    /// of `EBADF` taken fatally.
    pub fn apply(&mut self, op: &SyscallOp, now: u64, step: u64) -> Result<OpResult, String> {
        match op {
            SyscallOp::FileOpen { path } => {
                self.files.entry(path.clone()).or_default();
                self.fds.push(OpenFd {
                    path: path.clone(),
                    cursor: 0,
                    closed: false,
                });
                Ok(OpResult::Fd(FdId(self.fds.len() as u32 - 1)))
            }
            SyscallOp::FileRead { fd, len } => {
                let f = self.fd(*fd)?;
                let data = self
                    .files
                    .get(&f.path)
                    .map(|bytes| {
                        let start = f.cursor.min(bytes.len());
                        let end = (f.cursor + len).min(bytes.len());
                        bytes[start..end].to_vec()
                    })
                    .unwrap_or_default();
                let advanced = data.len();
                self.fds[fd.index()].cursor += advanced;
                Ok(OpResult::Bytes(data))
            }
            SyscallOp::FileWrite { fd, data } => {
                let f = self.fd(*fd)?;
                let path = f.path.clone();
                self.files
                    .get_mut(&path)
                    .ok_or_else(|| format!("file vanished: {path}"))?
                    .extend_from_slice(data);
                Ok(OpResult::Unit)
            }
            SyscallOp::FileClose { fd } => {
                self.fd(*fd)?;
                self.fds[fd.index()].closed = true;
                Ok(OpResult::Unit)
            }
            SyscallOp::NetAccept => match self.accept_status(step) {
                AcceptStatus::Exhausted => Ok(OpResult::MaybeConn(None)),
                AcceptStatus::Ready => {
                    let session = self.sessions[self.next_session].clone();
                    self.next_session += 1;
                    self.conns.push(ConnState {
                        inbox: session.request,
                        read_cursor: 0,
                        outbox: Vec::new(),
                        closed: false,
                    });
                    Ok(OpResult::MaybeConn(Some(ConnId(self.conns.len() as u32 - 1))))
                }
                AcceptStatus::WaitUntil(_) => {
                    Err("accept applied while no session is ready".to_string())
                }
            },
            SyscallOp::NetRecv { conn, len } => {
                let c = self.conn(*conn)?;
                if c.read_cursor >= c.inbox.len() {
                    return Ok(OpResult::MaybeBytes(None));
                }
                let start = c.read_cursor;
                let end = (start + len).min(c.inbox.len());
                let data = c.inbox[start..end].to_vec();
                self.conns[conn.index()].read_cursor = end;
                Ok(OpResult::MaybeBytes(Some(data)))
            }
            SyscallOp::NetSend { conn, data } => {
                self.conn(*conn)?;
                self.conns[conn.index()].outbox.extend_from_slice(data);
                Ok(OpResult::Unit)
            }
            SyscallOp::NetClose { conn } => {
                self.conn(*conn)?;
                self.conns[conn.index()].closed = true;
                Ok(OpResult::Unit)
            }
            SyscallOp::ClockNow => Ok(OpResult::Value(now)),
            SyscallOp::Random { bound } => {
                let raw: u64 = self.rng.next_u64();
                Ok(OpResult::Value(if *bound == 0 { raw } else { raw % bound }))
            }
            SyscallOp::StdoutWrite { data } => {
                self.stdout.extend_from_slice(data);
                Ok(OpResult::Unit)
            }
        }
    }

    fn fd(&self, fd: FdId) -> Result<&OpenFd, String> {
        match self.fds.get(fd.index()) {
            Some(f) if !f.closed => Ok(f),
            Some(_) => Err(format!("use of closed {fd}")),
            None => Err(format!("unknown {fd}")),
        }
    }

    fn conn(&self, conn: ConnId) -> Result<&ConnState, String> {
        match self.conns.get(conn.index()) {
            Some(c) if !c.closed => Ok(c),
            Some(_) => Err(format!("use of closed {conn}")),
            None => Err(format!("unknown {conn}")),
        }
    }

    /// The program's accumulated standard output.
    pub fn stdout(&self) -> &[u8] {
        &self.stdout
    }

    /// Per-connection response bytes, in connection order.
    pub fn conn_outputs(&self) -> Vec<Vec<u8>> {
        self.conns.iter().map(|c| c.outbox.clone()).collect()
    }

    /// Final filesystem snapshot.
    pub fn files(&self) -> &BTreeMap<String, Vec<u8>> {
        &self.files
    }

    /// Serializes the live world into a snapshot section (see
    /// [`crate::snapshot`]). The session script is config-derived and
    /// identical on replay, so only the `next_session` cursor is captured.
    pub fn snapshot_into(&self, e: &mut crate::bytes::Writer) {
        e.varint(self.files.len() as u64);
        for (path, data) in &self.files {
            e.str(path);
            e.bytes(data);
        }
        e.varint(self.fds.len() as u64);
        for fd in &self.fds {
            e.str(&fd.path);
            e.varint(fd.cursor as u64);
            e.bool(fd.closed);
        }
        e.varint(self.next_session as u64);
        e.varint(self.conns.len() as u64);
        for c in &self.conns {
            e.bytes(&c.inbox);
            e.varint(c.read_cursor as u64);
            e.bytes(&c.outbox);
            e.bool(c.closed);
        }
        self.rng.snapshot_into(e);
        e.bytes(&self.stdout);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn world(sessions: Vec<Session>) -> World {
        World::new(WorldConfig {
            sessions,
            input_seed: 1,
            ..WorldConfig::default()
        })
    }

    #[test]
    fn file_round_trip() {
        let mut w = world(vec![]);
        let fd = w
            .apply(&SyscallOp::FileOpen { path: "log".into() }, 0, 0)
            .unwrap()
            .fd();
        w.apply(
            &SyscallOp::FileWrite {
                fd,
                data: b"hello".to_vec(),
            },
            0,
            0,
        )
        .unwrap();
        let fd2 = w
            .apply(&SyscallOp::FileOpen { path: "log".into() }, 0, 0)
            .unwrap()
            .fd();
        let data = w
            .apply(&SyscallOp::FileRead { fd: fd2, len: 3 }, 0, 0)
            .unwrap()
            .bytes();
        assert_eq!(data, b"hel");
        let rest = w
            .apply(&SyscallOp::FileRead { fd: fd2, len: 100 }, 0, 0)
            .unwrap()
            .bytes();
        assert_eq!(rest, b"lo");
    }

    #[test]
    fn closed_fd_is_a_fault() {
        let mut w = world(vec![]);
        let fd = w
            .apply(&SyscallOp::FileOpen { path: "a".into() }, 0, 0)
            .unwrap()
            .fd();
        w.apply(&SyscallOp::FileClose { fd }, 0, 0).unwrap();
        assert!(w.apply(&SyscallOp::FileRead { fd, len: 1 }, 0, 0).is_err());
    }

    #[test]
    fn accept_follows_script_order_and_arrival_times() {
        let mut w = world(vec![Session::new(5, b"one".to_vec()), Session::new(10, b"two".to_vec())]);
        assert_eq!(w.accept_status(0), AcceptStatus::WaitUntil(5));
        assert_eq!(w.accept_status(5), AcceptStatus::Ready);
        let c1 = w.apply(&SyscallOp::NetAccept, 0, 5).unwrap().maybe_conn();
        assert_eq!(c1, Some(ConnId(0)));
        assert_eq!(w.accept_status(7), AcceptStatus::WaitUntil(10));
        let c2 = w.apply(&SyscallOp::NetAccept, 0, 12).unwrap().maybe_conn();
        assert_eq!(c2, Some(ConnId(1)));
        assert_eq!(w.accept_status(12), AcceptStatus::Exhausted);
        assert_eq!(w.apply(&SyscallOp::NetAccept, 0, 12).unwrap().maybe_conn(), None);
    }

    #[test]
    fn recv_drains_then_eof() {
        let mut w = world(vec![Session::new(0, b"abcd".to_vec())]);
        let c = w
            .apply(&SyscallOp::NetAccept, 0, 0)
            .unwrap()
            .maybe_conn()
            .unwrap();
        let a = w
            .apply(&SyscallOp::NetRecv { conn: c, len: 3 }, 0, 0)
            .unwrap()
            .maybe_bytes();
        assert_eq!(a.as_deref(), Some(b"abc".as_ref()));
        let b = w
            .apply(&SyscallOp::NetRecv { conn: c, len: 3 }, 0, 0)
            .unwrap()
            .maybe_bytes();
        assert_eq!(b.as_deref(), Some(b"d".as_ref()));
        let eof = w
            .apply(&SyscallOp::NetRecv { conn: c, len: 3 }, 0, 0)
            .unwrap()
            .maybe_bytes();
        assert_eq!(eof, None);
    }

    #[test]
    fn send_accumulates_per_connection_output() {
        let mut w = world(vec![Session::new(0, b"req".to_vec())]);
        let c = w
            .apply(&SyscallOp::NetAccept, 0, 0)
            .unwrap()
            .maybe_conn()
            .unwrap();
        w.apply(
            &SyscallOp::NetSend {
                conn: c,
                data: b"200 ".to_vec(),
            },
            0,
            0,
        )
        .unwrap();
        w.apply(
            &SyscallOp::NetSend {
                conn: c,
                data: b"OK".to_vec(),
            },
            0,
            0,
        )
        .unwrap();
        assert_eq!(w.conn_outputs(), vec![b"200 OK".to_vec()]);
    }

    #[test]
    fn random_stream_is_seed_deterministic() {
        let draw = |seed: u64| {
            let mut w = World::new(WorldConfig {
                input_seed: seed,
                ..WorldConfig::default()
            });
            (0..5)
                .map(|_| {
                    w.apply(&SyscallOp::Random { bound: 1000 }, 0, 0)
                        .unwrap()
                        .value()
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(draw(42), draw(42));
        assert_ne!(draw(42), draw(43));
        assert!(draw(42).iter().all(|v| *v < 1000));
    }

    #[test]
    fn clock_reports_now() {
        let mut w = world(vec![]);
        assert_eq!(w.apply(&SyscallOp::ClockNow, 777, 0).unwrap().value(), 777);
    }

    #[test]
    fn stdout_accumulates() {
        let mut w = world(vec![]);
        w.apply(
            &SyscallOp::StdoutWrite {
                data: b"a".to_vec(),
            },
            0,
            0,
        )
        .unwrap();
        w.apply(
            &SyscallOp::StdoutWrite {
                data: b"b".to_vec(),
            },
            0,
            0,
        )
        .unwrap();
        assert_eq!(w.stdout(), b"ab");
    }
}
