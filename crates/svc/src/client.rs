//! The daemon's client side, shared by the `pres` CLI subcommands and the
//! integration tests — both speak to the server through exactly this code,
//! so the tests exercise what users run.
//!
//! Every request carries a tag, responses echo it, and submits stream
//! chunk-by-chunk so neither end ever holds a whole sketch in a single
//! frame. The low-level [`Client::send`] / [`Client::recv`] pair is public
//! so tests and benchmarks can pipeline many tagged requests on one
//! connection before reading any response.

use crate::digest::Digest;
use crate::proto::{
    Frame, ProtoError, Request, Response, CONNECTION_TAG, DEFAULT_CHUNK_BYTES,
    DEFAULT_MAX_FRAME,
};
use crate::queue::JobStatus;
use std::io::{self, Read};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

/// Default attempt count for [`Client::connect_with_retry`]: with the
/// default base backoff the last attempt lands ~3 s after the first —
/// enough to ride out a daemon restart, short enough to fail a dead
/// address promptly.
pub const DEFAULT_CONNECT_ATTEMPTS: u32 = 6;
/// Default base backoff for [`Client::connect_with_retry`]; doubles per
/// attempt (100 ms, 200 ms, 400 ms, ...).
pub const DEFAULT_CONNECT_BACKOFF: Duration = Duration::from_millis(100);

/// The sleep after the `polls`-th unfinished poll of [`Client::wait`]
/// (0-based): 1 ms doubling to a 25 ms cap. Corpus jobs finish in 3–10 ms,
/// so a fixed 25 ms poll floored every `submit --wait` at several times
/// the job itself; a long job still settles at 40 polls/s.
fn wait_poll_delay(polls: u32) -> Duration {
    Duration::from_millis((1u64 << polls.min(5)).min(25))
}

/// What a submit returned: the job joined (created or existing) and how
/// the dedup went.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SubmitReceipt {
    /// The job handling this `(bug, sketch)`.
    pub job: u64,
    /// Content digest of the submitted sketch.
    pub sketch: Digest,
    /// `false` = the store already held these bytes.
    pub fresh_object: bool,
    /// `false` = an existing job (or finished result) was joined.
    pub fresh_job: bool,
}

/// A connected client.
pub struct Client {
    stream: TcpStream,
    max_frame: u32,
    chunk_bytes: usize,
    next_tag: u32,
}

fn proto_io(e: ProtoError) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, e.to_string())
}

fn server_error(message: String) -> io::Error {
    io::Error::other(format!("daemon: {message}"))
}

impl Client {
    /// Connects to a daemon.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        // Generous transport timeouts: a healthy daemon answers every
        // request immediately (job waiting happens client-side by
        // polling), so a silent 30 s means the daemon is gone.
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        stream.set_write_timeout(Some(Duration::from_secs(30)))?;
        Ok(Client {
            stream,
            max_frame: DEFAULT_MAX_FRAME,
            chunk_bytes: DEFAULT_CHUNK_BYTES,
            next_tag: 0,
        })
    }

    /// [`Client::connect`], retried with bounded exponential backoff: up
    /// to `attempts` tries, sleeping `base_backoff * 2^i` (capped at 2 s)
    /// between them. A refused connection during a daemon restart is the
    /// expected case — CLI commands racing a `serve` land here; only a
    /// persistently dead address errors.
    pub fn connect_with_retry(
        addr: impl ToSocketAddrs,
        attempts: u32,
        base_backoff: Duration,
    ) -> io::Result<Client> {
        let attempts = attempts.max(1);
        let mut backoff = base_backoff;
        let mut last_err = None;
        for attempt in 0..attempts {
            match Client::connect(&addr) {
                Ok(client) => return Ok(client),
                Err(e) => last_err = Some(e),
            }
            if attempt + 1 < attempts {
                std::thread::sleep(backoff);
                backoff = (backoff * 2).min(Duration::from_secs(2));
            }
        }
        Err(last_err.unwrap_or_else(|| io::Error::other("no connect attempts made")))
    }

    /// Sets the streamed-submit chunk size (bytes; clamped to >= 1).
    pub fn set_chunk_bytes(&mut self, chunk_bytes: usize) -> &mut Self {
        self.chunk_bytes = chunk_bytes.max(1);
        self
    }

    /// The next request tag; never [`CONNECTION_TAG`].
    fn take_tag(&mut self) -> u32 {
        self.next_tag = self.next_tag.wrapping_add(1).max(1);
        self.next_tag
    }

    fn write_tagged(&mut self, tag: u32, request: &Request) -> io::Result<()> {
        request
            .to_frame(tag)
            .map_err(proto_io)?
            .write_to(&mut self.stream)
    }

    /// Writes one request without reading its response; returns the tag
    /// the response will echo. Pair with [`Client::recv`] to pipeline.
    pub fn send(&mut self, request: &Request) -> io::Result<u32> {
        let tag = self.take_tag();
        self.write_tagged(tag, request)?;
        Ok(tag)
    }

    /// Reads one response frame, returning `(tag, response)`.
    pub fn recv(&mut self) -> io::Result<(u32, Response)> {
        let frame = Frame::read_from(&mut self.stream, self.max_frame)?.map_err(proto_io)?;
        let response = Response::from_frame(&frame).map_err(proto_io)?;
        Ok((frame.tag, response))
    }

    /// Reads the response to `expect_tag`. An ERROR on [`CONNECTION_TAG`]
    /// answers every outstanding request: the daemon refused or dropped
    /// the connection.
    fn recv_expect(&mut self, expect_tag: u32) -> io::Result<Response> {
        match self.recv()? {
            (CONNECTION_TAG, Response::Error { message }) => Err(server_error(message)),
            (tag, _) if tag != expect_tag => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("response tag {tag} does not echo request tag {expect_tag}"),
            )),
            (_, response) => Ok(response),
        }
    }

    fn roundtrip(&mut self, request: &Request) -> io::Result<Response> {
        let tag = self.send(request)?;
        self.recv_expect(tag)
    }

    fn expect_submitted(response: Response) -> io::Result<SubmitReceipt> {
        match response {
            Response::Submitted {
                job,
                sketch,
                fresh_object,
                fresh_job,
            } => Ok(SubmitReceipt {
                job,
                sketch,
                fresh_object,
                fresh_job,
            }),
            Response::Error { message } => Err(server_error(message)),
            other => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unexpected response to submit: {other:?}"),
            )),
        }
    }

    /// Submits `sketch` (raw container bytes) for reproduction of `bug`,
    /// over the chunked streaming path.
    pub fn submit(&mut self, bug: &str, sketch: &[u8]) -> io::Result<SubmitReceipt> {
        let mut cursor = sketch;
        self.submit_stream(bug, &mut cursor)
    }

    /// Streams a sketch from any reader: BEGIN, then `chunk_bytes`-sized
    /// CHUNK frames as the reader yields them, then END — the one frame
    /// the daemon answers. Peak memory on both ends is one chunk.
    pub fn submit_stream(
        &mut self,
        bug: &str,
        reader: &mut impl Read,
    ) -> io::Result<SubmitReceipt> {
        let begin = Request::SubmitBegin {
            bug: bug.to_string(),
        };
        let response = self.stream_object(&begin, reader)?;
        Self::expect_submitted(response)
    }

    /// The stream shared by submits and object puts: `begin` opens a fresh
    /// tag, the reader's bytes follow as CHUNK frames, and END fetches
    /// the one response.
    fn stream_object(&mut self, begin: &Request, reader: &mut impl Read) -> io::Result<Response> {
        let tag = self.take_tag();
        self.write_tagged(tag, begin)?;
        let mut buf = vec![0u8; self.chunk_bytes];
        loop {
            let n = match reader.read(&mut buf) {
                Ok(0) => break,
                Ok(n) => n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            };
            self.write_tagged(
                tag,
                &Request::SubmitChunk {
                    data: buf[..n].to_vec(),
                },
            )?;
        }
        self.write_tagged(tag, &Request::SubmitEnd)?;
        self.recv_expect(tag)
    }

    /// A job's status (`None` = the daemon does not know the id).
    pub fn status(&mut self, job: u64) -> io::Result<Option<JobStatus>> {
        match self.roundtrip(&Request::Status { job })? {
            Response::Status { status } => Ok(status),
            Response::Error { message } => Err(server_error(message)),
            other => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unexpected response to status: {other:?}"),
            )),
        }
    }

    /// Polls until `job` reaches a terminal status or `budget` elapses,
    /// sleeping `wait_poll_delay` between polls.
    pub fn wait(&mut self, job: u64, budget: Duration) -> io::Result<JobStatus> {
        let deadline = Instant::now() + budget;
        let mut polls = 0u32;
        loop {
            match self.status(job)? {
                Some(status) if status.is_terminal() => return Ok(status),
                Some(_) if Instant::now() < deadline => {
                    std::thread::sleep(wait_poll_delay(polls));
                    polls = polls.saturating_add(1);
                }
                Some(status) => {
                    return Err(io::Error::new(
                        io::ErrorKind::TimedOut,
                        format!("job {job} still '{status}' after {budget:?}"),
                    ))
                }
                None => {
                    return Err(io::Error::new(
                        io::ErrorKind::NotFound,
                        format!("unknown job {job}"),
                    ))
                }
            }
        }
    }

    /// Fetches a succeeded job's certificate bytes.
    pub fn fetch_certificate(&mut self, job: u64) -> io::Result<Vec<u8>> {
        match self.roundtrip(&Request::Result { job })? {
            Response::Result { certificate } => Ok(certificate),
            Response::Error { message } => Err(server_error(message)),
            other => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unexpected response to result: {other:?}"),
            )),
        }
    }

    /// The daemon's rendered metrics.
    pub fn stats(&mut self) -> io::Result<String> {
        match self.roundtrip(&Request::Stats)? {
            Response::Stats { text } => Ok(text),
            Response::Error { message } => Err(server_error(message)),
            other => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unexpected response to stats: {other:?}"),
            )),
        }
    }

    /// Asks the daemon to drain and exit.
    pub fn shutdown(&mut self) -> io::Result<()> {
        match self.roundtrip(&Request::Shutdown)? {
            Response::ShuttingDown => Ok(()),
            Response::Error { message } => Err(server_error(message)),
            other => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unexpected response to shutdown: {other:?}"),
            )),
        }
    }

    /// Authenticates the connection with the daemon's shared secret.
    /// Must be the first request when the daemon runs with
    /// `--auth-token`; harmless (answered `HelloOk`) when it runs open.
    pub fn hello(&mut self, token: &[u8]) -> io::Result<()> {
        match self.roundtrip(&Request::Hello {
            token: token.to_vec(),
        })? {
            Response::HelloOk => Ok(()),
            Response::Error { message } => Err(server_error(message)),
            other => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unexpected response to hello: {other:?}"),
            )),
        }
    }

    /// Streams an object (which must hash to `digest`) into the daemon's
    /// store over the chunked path. Returns `fresh` (`false` = the store
    /// already held it).
    pub fn peer_put(&mut self, digest: &Digest, reader: &mut impl Read) -> io::Result<bool> {
        match self.stream_object(&Request::PeerPutBegin { digest: *digest }, reader)? {
            Response::PeerPut {
                digest: echoed,
                fresh,
            } => {
                if echoed != *digest {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        "peer acknowledged a different digest than was sent",
                    ));
                }
                Ok(fresh)
            }
            Response::Error { message } => Err(server_error(message)),
            other => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unexpected response to peer-put: {other:?}"),
            )),
        }
    }

    /// Fetches an object from the daemon's store (`None` = it has none).
    pub fn peer_get(&mut self, digest: &Digest) -> io::Result<Option<Vec<u8>>> {
        match self.roundtrip(&Request::PeerGet { digest: *digest })? {
            Response::PeerObject { body } => Ok(body),
            Response::Error { message } => Err(server_error(message)),
            other => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unexpected response to peer-get: {other:?}"),
            )),
        }
    }

    /// Whether the daemon's store holds `digest`.
    pub fn peer_stat(&mut self, digest: &Digest) -> io::Result<bool> {
        match self.roundtrip(&Request::PeerStat { digest: *digest })? {
            Response::PeerStatIs { present } => Ok(present),
            Response::Error { message } => Err(server_error(message)),
            other => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unexpected response to peer-stat: {other:?}"),
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wait_polls_back_off_from_one_millisecond_to_the_cap() {
        let delays: Vec<u64> = (0..8).map(|n| wait_poll_delay(n).as_millis() as u64).collect();
        assert_eq!(delays, [1, 2, 4, 8, 16, 25, 25, 25]);
        assert_eq!(wait_poll_delay(u32::MAX), Duration::from_millis(25));
    }
}
