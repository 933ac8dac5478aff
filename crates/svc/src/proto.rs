//! The daemon's length-prefixed binary protocol.
//!
//! One frame per message, either direction, each carrying a `tag` the
//! daemon echoes in its response, so a client may pipeline many
//! outstanding requests on one connection and match responses out of
//! order:
//!
//! ```text
//! +----+----+------+------+-------------+----------+----------------+
//! | 'P'| 'S'| 0x02 | kind | length: u32 | tag: u32 | payload bytes  |
//! +----+----+------+------+-------------+----------+----------------+
//! ```
//!
//! The version byte is always 2. Version 1, an untagged dialect of the
//! same header, is no longer spoken: its header is a
//! [`ProtoError::BadVersion`] like any other unknown version. The length
//! covers the payload only (not the tag). Magic and version are checked
//! before the length is trusted; the length is checked against a
//! receiver-chosen cap before anything is allocated, so an adversarial
//! 4 GiB length prefix costs the receiver nothing. Kinds `0x01..` are
//! requests, `0x81..` responses, `0xFF` the error response. Unknown kinds
//! fail at message decode, not at frame framing — a future version can add
//! kinds without changing the frame walk.
//!
//! A sketch is submitted as the streaming triple `SUBMIT_BEGIN` (bug id)
//! / `SUBMIT_CHUNK` (raw sketch bytes, no inner length prefix) /
//! `SUBMIT_END` (empty), all carrying the same tag. The server digests
//! chunks incrementally and spills them to a store staging file as they
//! arrive, so its peak memory per connection is one chunk, not one sketch;
//! only `SUBMIT_END` is answered (with the usual `Submitted` response).
//!
//! ## Tag 0: the connection
//!
//! Clients never send tag 0 ([`CONNECTION_TAG`]). The daemon uses it for
//! an ERROR that answers no request but the connection itself: a framing
//! error (after which it hangs up) and the refusal of a connection past
//! its live-connection cap. A client waiting on any tag must treat a
//! tag-0 ERROR as addressed to it.
//!
//! ## Auth and object kinds
//!
//! `HELLO` carries a shared-secret auth token and must be the first frame
//! on a connection when the daemon was started with `--auth-token`.
//! Three kinds read and write the daemon's content-addressed store
//! directly: `PEER_PUT_BEGIN` (expected digest) opens a stream that
//! reuses the `SUBMIT_CHUNK`/`SUBMIT_END` path — same tag, same
//! incremental-digest spill — so a multi-MB object never materializes
//! whole on the daemon; `PEER_GET` fetches an object and `PEER_STAT`
//! asks whether one is present.
//!
//! ## Error severity
//!
//! Decode failures split into two severities, and connection handling
//! differs by which side of the line an error falls on
//! ([`ProtoError::severity`]):
//!
//! * **Framing** errors — [`ProtoError::BadMagic`],
//!   [`ProtoError::BadVersion`], [`ProtoError::Oversized`] — mean the
//!   byte stream itself cannot be walked any further: frame boundaries are
//!   lost, so the server answers one final ERROR frame and drops the
//!   connection.
//! * **Payload** errors — [`ProtoError::UnknownKind`],
//!   [`ProtoError::BadPayload`], [`ProtoError::TooLarge`] — are confined
//!   to one well-framed message. The server answers an ERROR on that
//!   message's tag and keeps the connection: with pipelining, other
//!   requests in flight on the same connection are unaffected.
//!
//! Payload fields are written with [`crate::wire`] and read with
//! [`pres_tvm::bytes::Reader`]. Every decoder demands full consumption
//! ([`Reader::at_end`]): trailing bytes are a protocol error, never
//! silently ignored.

use crate::digest::Digest;
use crate::queue::JobStatus;
use crate::wire;
use pres_tvm::bytes::{DecodeError, Reader};
use std::io::{self, Read, Write};

/// Frame magic: the first two bytes of every frame.
pub const MAGIC: [u8; 2] = *b"PS";
/// The protocol version: tagged, pipelined, streaming submits.
pub const VERSION: u8 = 2;
/// The tag of an ERROR addressed to the whole connection (see the module
/// docs); never issued to a request.
pub const CONNECTION_TAG: u32 = 0;
/// Default cap on accepted frame payloads (sketches are small; 64 MiB is
/// generous headroom, not an invitation).
pub const DEFAULT_MAX_FRAME: u32 = 64 << 20;
/// Default chunk size for streaming submits: large enough that framing
/// overhead vanishes, small enough that per-connection buffering is
/// negligible next to a multi-MB sketch.
pub const DEFAULT_CHUNK_BYTES: usize = 256 << 10;

// 0x01 was the untagged dialect's monolithic SUBMIT; it is now an
// unknown kind.
const REQ_STATUS: u8 = 0x02;
const REQ_RESULT: u8 = 0x03;
const REQ_STATS: u8 = 0x04;
const REQ_SHUTDOWN: u8 = 0x05;
const REQ_SUBMIT_BEGIN: u8 = 0x06;
const REQ_SUBMIT_CHUNK: u8 = 0x07;
const REQ_SUBMIT_END: u8 = 0x08;
const REQ_HELLO: u8 = 0x09;
const REQ_PEER_PUT_BEGIN: u8 = 0x0A;
const REQ_PEER_GET: u8 = 0x0B;
const REQ_PEER_STAT: u8 = 0x0C;
// 0x0D was PEER_LIST (the cluster repair walk, removed); it is now an
// unknown kind.
// 0x0E and 0x0F were PEER_STEAL and PEER_DONE (idle-node job migration,
// removed); they are now unknown kinds.
const RESP_SUBMIT: u8 = 0x81;
const RESP_STATUS: u8 = 0x82;
const RESP_RESULT: u8 = 0x83;
const RESP_STATS: u8 = 0x84;
const RESP_SHUTDOWN: u8 = 0x85;
const RESP_HELLO: u8 = 0x86;
const RESP_PEER_PUT: u8 = 0x87;
const RESP_PEER_OBJECT: u8 = 0x88;
const RESP_PEER_STAT: u8 = 0x89;
// 0x8A was the PEER_LIST answer; it is now an unknown kind.
// 0x8B and 0x8C were the PEER_JOBS and PEER_DONE answers; they are now
// unknown kinds.
const RESP_ERROR: u8 = 0xFF;

/// Why a frame or message failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtoError {
    /// The first two bytes were not [`MAGIC`].
    BadMagic([u8; 2]),
    /// A version this build does not speak.
    BadVersion(u8),
    /// Length prefix beyond the receiver's cap.
    Oversized { len: u32, max: u32 },
    /// A kind byte the message layer does not know.
    UnknownKind(u8),
    /// Payload failed field-level decoding (truncated field, trailing
    /// bytes, invalid UTF-8).
    BadPayload(&'static str),
    /// An outgoing payload too large for a `u32` length prefix — the
    /// checked-conversion refusal that replaces silent truncation.
    TooLarge(usize),
}

impl From<wire::LenOverflow> for ProtoError {
    fn from(e: wire::LenOverflow) -> ProtoError {
        ProtoError::TooLarge(e.0)
    }
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::BadMagic(m) => write!(f, "bad frame magic {m:02x?}"),
            ProtoError::BadVersion(v) => write!(f, "unsupported protocol version {v}"),
            ProtoError::Oversized { len, max } => {
                write!(f, "frame of {len} bytes exceeds cap of {max}")
            }
            ProtoError::UnknownKind(k) => write!(f, "unknown message kind {k:#04x}"),
            ProtoError::BadPayload(what) => write!(f, "malformed payload: {what}"),
            ProtoError::TooLarge(n) => {
                write!(f, "payload of {n} bytes exceeds the u32 frame length")
            }
        }
    }
}

impl std::error::Error for ProtoError {}

/// How much of the connection a [`ProtoError`] poisons — see the module
/// docs ("Error severity") for the contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// Frame boundaries are lost; answer once and drop the connection.
    Framing,
    /// One well-framed message was bad; answer it and keep the connection.
    Payload,
}

impl ProtoError {
    /// Classifies this error as connection-fatal framing corruption or a
    /// per-message payload problem.
    pub fn severity(&self) -> Severity {
        match self {
            ProtoError::BadMagic(_) | ProtoError::BadVersion(_) | ProtoError::Oversized { .. } => {
                Severity::Framing
            }
            ProtoError::UnknownKind(_) | ProtoError::BadPayload(_) | ProtoError::TooLarge(_) => {
                Severity::Payload
            }
        }
    }
}

/// Maps a field's decode failure to the [`ProtoError::BadPayload`]
/// naming that field.
fn bad(what: &'static str) -> impl Fn(DecodeError) -> ProtoError {
    move |_| ProtoError::BadPayload(what)
}

/// Bytes every frame header starts with: magic, version, kind, length.
const PREFIX: usize = 8;
/// The whole header: the prefix plus the echo tag.
const HEADER: usize = PREFIX + 4;

/// Validates a frame's fixed prefix, returning `(kind, payload length)`.
/// Magic and version are checked before the length is trusted, and the
/// length against the receiver's cap before anything is allocated.
fn check_prefix(prefix: &[u8], max_payload: u32) -> Result<(u8, u32), ProtoError> {
    if prefix[..2] != MAGIC {
        return Err(ProtoError::BadMagic([prefix[0], prefix[1]]));
    }
    if prefix[2] != VERSION {
        return Err(ProtoError::BadVersion(prefix[2]));
    }
    let len = u32::from_be_bytes(prefix[4..8].try_into().unwrap());
    if len > max_payload {
        return Err(ProtoError::Oversized {
            len,
            max: max_payload,
        });
    }
    Ok((prefix[3], len))
}

/// A raw frame: echo tag, kind, opaque payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    pub tag: u32,
    pub kind: u8,
    pub payload: Vec<u8>,
}

impl Frame {
    /// The full on-wire encoding. Panics on a payload beyond `u32::MAX`
    /// bytes — use [`Frame::write_to`] (which refuses with an error) on
    /// any path where the payload size is not already checked.
    pub fn encode(&self) -> Vec<u8> {
        let len = wire::check_len(self.payload.len())
            .expect("frame payload length checked at construction");
        let mut out = Vec::with_capacity(HEADER + self.payload.len());
        out.extend_from_slice(&MAGIC);
        out.push(VERSION);
        out.push(self.kind);
        wire::put_u32(&mut out, len);
        wire::put_u32(&mut out, self.tag);
        out.extend_from_slice(&self.payload);
        out
    }

    /// Writes the frame to a stream, refusing (with `InvalidInput`, not
    /// truncating) a payload the `u32` length prefix cannot describe.
    pub fn write_to(&self, w: &mut impl Write) -> io::Result<()> {
        wire::check_len(self.payload.len()).map_err(io::Error::from)?;
        w.write_all(&self.encode())?;
        w.flush()
    }

    /// Incremental frame walk over a partially-received buffer.
    ///
    /// Returns `Ok(None)` when `buf` holds only a prefix of a frame (read
    /// more and retry), `Ok(Some((frame, consumed)))` when a complete frame
    /// starts at `buf[0]`, and `Err` on a framing violation — every error
    /// this returns has [`Severity::Framing`]. The cap is enforced from the
    /// length prefix alone — an adversarial length never allocates.
    pub fn parse(buf: &[u8], max_payload: u32) -> Result<Option<(Frame, usize)>, ProtoError> {
        if buf.len() < PREFIX {
            return Ok(None);
        }
        let (kind, len) = check_prefix(&buf[..PREFIX], max_payload)?;
        let total = HEADER + len as usize;
        if buf.len() < total {
            return Ok(None);
        }
        let frame = Frame {
            tag: u32::from_be_bytes(buf[PREFIX..HEADER].try_into().unwrap()),
            kind,
            payload: buf[HEADER..total].to_vec(),
        };
        Ok(Some((frame, total)))
    }

    /// Blocking read of one frame, enforcing `max_payload` before
    /// allocating. `Err(io)` covers transport failures (including read
    /// timeouts); protocol violations come back as `Ok(Err(proto))` so the
    /// caller can answer with an ERROR frame before hanging up.
    pub fn read_from(r: &mut impl Read, max_payload: u32) -> io::Result<Result<Frame, ProtoError>> {
        let mut prefix = [0u8; PREFIX];
        r.read_exact(&mut prefix)?;
        let (kind, len) = match check_prefix(&prefix, max_payload) {
            Ok(v) => v,
            Err(e) => return Ok(Err(e)),
        };
        let mut tag = [0u8; 4];
        r.read_exact(&mut tag)?;
        let mut payload = vec![0u8; len as usize];
        r.read_exact(&mut payload)?;
        Ok(Ok(Frame {
            tag: u32::from_be_bytes(tag),
            kind,
            payload,
        }))
    }
}

/// A client→daemon message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Opens a streaming submit for `bug` on this frame's tag. Not
    /// answered; the response arrives on [`Request::SubmitEnd`].
    SubmitBegin { bug: String },
    /// One chunk of the sketch opened by the same tag's `SubmitBegin`.
    /// The payload is the raw chunk bytes, no inner length prefix.
    SubmitChunk { data: Vec<u8> },
    /// Closes the stream; answered with the usual `Submitted` response.
    SubmitEnd,
    /// Where does job `job` stand?
    Status { job: u64 },
    /// The certificate bytes of a succeeded job.
    Result { job: u64 },
    /// The metrics snapshot, rendered.
    Stats,
    /// Drain and exit (the SIGTERM equivalent, deliverable over the wire).
    Shutdown,
    /// Authenticate the connection with a shared-secret token. Must be
    /// the first frame when the daemon enforces `--auth-token`.
    Hello { token: Vec<u8> },
    /// Opens a streaming object put on this frame's tag: the chunks
    /// arrive as [`Request::SubmitChunk`] / [`Request::SubmitEnd`] and
    /// must hash to `digest` or the put is refused.
    PeerPutBegin { digest: Digest },
    /// Fetch an object from the daemon's store.
    PeerGet { digest: Digest },
    /// Does the daemon's store hold `digest`?
    PeerStat { digest: Digest },
}

impl Request {
    /// Encodes into a frame carrying `tag`; a payload beyond what a `u32`
    /// length prefix can carry is a [`ProtoError::TooLarge`], never a
    /// truncated frame.
    pub fn to_frame(&self, tag: u32) -> Result<Frame, ProtoError> {
        let (kind, payload) = match self {
            Request::SubmitBegin { bug } => {
                let mut p = Vec::new();
                wire::put_str(&mut p, bug)?;
                (REQ_SUBMIT_BEGIN, p)
            }
            Request::SubmitChunk { data } => (REQ_SUBMIT_CHUNK, data.clone()),
            Request::SubmitEnd => (REQ_SUBMIT_END, Vec::new()),
            Request::Status { job } => {
                let mut p = Vec::new();
                wire::put_u64(&mut p, *job);
                (REQ_STATUS, p)
            }
            Request::Result { job } => {
                let mut p = Vec::new();
                wire::put_u64(&mut p, *job);
                (REQ_RESULT, p)
            }
            Request::Stats => (REQ_STATS, Vec::new()),
            Request::Shutdown => (REQ_SHUTDOWN, Vec::new()),
            Request::Hello { token } => {
                let mut p = Vec::new();
                wire::put_bytes(&mut p, token)?;
                (REQ_HELLO, p)
            }
            Request::PeerPutBegin { digest } => {
                let mut p = Vec::new();
                wire::put_digest(&mut p, digest);
                (REQ_PEER_PUT_BEGIN, p)
            }
            Request::PeerGet { digest } => {
                let mut p = Vec::new();
                wire::put_digest(&mut p, digest);
                (REQ_PEER_GET, p)
            }
            Request::PeerStat { digest } => {
                let mut p = Vec::new();
                wire::put_digest(&mut p, digest);
                (REQ_PEER_STAT, p)
            }
        };
        wire::check_len(payload.len())?;
        Ok(Frame { tag, kind, payload })
    }

    /// Decodes a frame's kind and payload (the tag is the caller's).
    pub fn from_frame(frame: &Frame) -> Result<Request, ProtoError> {
        let mut r = Reader::new(&frame.payload);
        let req = match frame.kind {
            REQ_SUBMIT_BEGIN => Request::SubmitBegin {
                bug: r.be_str().map_err(bad("submit-begin bug id"))?.to_string(),
            },
            // The chunk payload is opaque bytes: consume it whole so the
            // trailing-bytes check below stays an invariant, not a case.
            REQ_SUBMIT_CHUNK => Request::SubmitChunk {
                data: r.rest().to_vec(),
            },
            REQ_SUBMIT_END => Request::SubmitEnd,
            REQ_STATUS => Request::Status {
                job: r.be_u64().map_err(bad("status job id"))?,
            },
            REQ_RESULT => Request::Result {
                job: r.be_u64().map_err(bad("result job id"))?,
            },
            REQ_STATS => Request::Stats,
            REQ_SHUTDOWN => Request::Shutdown,
            REQ_HELLO => Request::Hello {
                token: r.be_bytes().map_err(bad("hello token"))?.to_vec(),
            },
            REQ_PEER_PUT_BEGIN => Request::PeerPutBegin {
                digest: r.array().map(Digest).map_err(bad("peer-put digest"))?,
            },
            REQ_PEER_GET => Request::PeerGet {
                digest: r.array().map(Digest).map_err(bad("peer-get digest"))?,
            },
            REQ_PEER_STAT => Request::PeerStat {
                digest: r.array().map(Digest).map_err(bad("peer-stat digest"))?,
            },
            k => return Err(ProtoError::UnknownKind(k)),
        };
        if !r.at_end() {
            return Err(ProtoError::BadPayload("trailing bytes"));
        }
        Ok(req)
    }
}

/// A daemon→client message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// The submitted sketch's digest and job. `fresh_object` /
    /// `fresh_job` report dedup: `false` means the store / queue already
    /// had it.
    Submitted {
        job: u64,
        sketch: Digest,
        fresh_object: bool,
        fresh_job: bool,
    },
    /// A job's status (`None` = unknown job id — not an error, a query).
    Status { status: Option<JobStatus> },
    /// Certificate bytes of a succeeded job.
    Result { certificate: Vec<u8> },
    /// Rendered metrics.
    Stats { text: String },
    /// Shutdown acknowledged; the daemon drains after answering.
    ShuttingDown,
    /// The connection is authenticated (or the daemon runs open).
    HelloOk,
    /// An object put landed. `fresh` is `false` when the store already
    /// held the object (dedup, not an error).
    PeerPut { digest: Digest, fresh: bool },
    /// An object's bytes, or `None` if the store has none.
    PeerObject { body: Option<Vec<u8>> },
    /// Whether the store holds the object.
    PeerStatIs { present: bool },
    /// The request could not be served.
    Error { message: String },
}

impl Response {
    /// Encodes into a frame echoing `tag`; a payload beyond what a `u32`
    /// length prefix can carry is a [`ProtoError::TooLarge`].
    pub fn to_frame(&self, tag: u32) -> Result<Frame, ProtoError> {
        let (kind, payload) = match self {
            Response::Submitted {
                job,
                sketch,
                fresh_object,
                fresh_job,
            } => {
                let mut p = Vec::new();
                wire::put_u64(&mut p, *job);
                wire::put_digest(&mut p, sketch);
                p.push(u8::from(*fresh_object));
                p.push(u8::from(*fresh_job));
                (RESP_SUBMIT, p)
            }
            Response::Status { status } => {
                let mut p = Vec::new();
                match status {
                    None => p.push(0),
                    Some(s) => {
                        p.push(1);
                        s.encode(&mut p)?;
                    }
                }
                (RESP_STATUS, p)
            }
            Response::Result { certificate } => {
                let mut p = Vec::new();
                wire::put_bytes(&mut p, certificate)?;
                (RESP_RESULT, p)
            }
            Response::Stats { text } => {
                let mut p = Vec::new();
                wire::put_str(&mut p, text)?;
                (RESP_STATS, p)
            }
            Response::ShuttingDown => (RESP_SHUTDOWN, Vec::new()),
            Response::HelloOk => (RESP_HELLO, Vec::new()),
            Response::PeerPut { digest, fresh } => {
                let mut p = Vec::new();
                wire::put_digest(&mut p, digest);
                p.push(u8::from(*fresh));
                (RESP_PEER_PUT, p)
            }
            Response::PeerObject { body } => {
                let mut p = Vec::new();
                match body {
                    None => p.push(0),
                    Some(bytes) => {
                        p.push(1);
                        wire::put_bytes(&mut p, bytes)?;
                    }
                }
                (RESP_PEER_OBJECT, p)
            }
            Response::PeerStatIs { present } => (RESP_PEER_STAT, vec![u8::from(*present)]),
            Response::Error { message } => {
                let mut p = Vec::new();
                wire::put_str(&mut p, message)?;
                (RESP_ERROR, p)
            }
        };
        wire::check_len(payload.len())?;
        Ok(Frame { tag, kind, payload })
    }

    /// Decodes a frame's kind and payload (the tag is the caller's).
    pub fn from_frame(frame: &Frame) -> Result<Response, ProtoError> {
        let mut r = Reader::new(&frame.payload);
        let resp = match frame.kind {
            RESP_SUBMIT => Response::Submitted {
                job: r.be_u64().map_err(bad("submitted job id"))?,
                sketch: r.array().map(Digest).map_err(bad("submitted digest"))?,
                fresh_object: r.u8().map_err(bad("submitted fresh_object"))? != 0,
                fresh_job: r.u8().map_err(bad("submitted fresh_job"))? != 0,
            },
            RESP_STATUS => Response::Status {
                status: match r.u8().map_err(bad("status presence byte"))? {
                    0 => None,
                    1 => Some(JobStatus::decode(&mut r).map_err(bad("status body"))?),
                    _ => return Err(ProtoError::BadPayload("status presence byte")),
                },
            },
            RESP_RESULT => Response::Result {
                certificate: r.be_bytes().map_err(bad("result certificate"))?.to_vec(),
            },
            RESP_STATS => Response::Stats {
                text: r.be_str().map_err(bad("stats text"))?.to_string(),
            },
            RESP_SHUTDOWN => Response::ShuttingDown,
            RESP_HELLO => Response::HelloOk,
            RESP_PEER_PUT => Response::PeerPut {
                digest: r.array().map(Digest).map_err(bad("peer-put digest"))?,
                fresh: r.u8().map_err(bad("peer-put fresh byte"))? != 0,
            },
            RESP_PEER_OBJECT => Response::PeerObject {
                body: match r.u8().map_err(bad("peer-object presence byte"))? {
                    0 => None,
                    1 => Some(r.be_bytes().map_err(bad("peer-object bytes"))?.to_vec()),
                    _ => return Err(ProtoError::BadPayload("peer-object presence byte")),
                },
            },
            RESP_PEER_STAT => Response::PeerStatIs {
                present: r.u8().map_err(bad("peer-stat presence byte"))? != 0,
            },
            RESP_ERROR => Response::Error {
                message: r.be_str().map_err(bad("error message"))?.to_string(),
            },
            k => return Err(ProtoError::UnknownKind(k)),
        };
        if !r.at_end() {
            return Err(ProtoError::BadPayload("trailing bytes"));
        }
        Ok(resp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::digest::sha256;

    fn frame(kind: u8, payload: &[u8]) -> Frame {
        Frame {
            tag: 0xdead_beef,
            kind,
            payload: payload.to_vec(),
        }
    }

    #[test]
    fn frame_roundtrips_through_both_readers() {
        let frame = frame(REQ_SUBMIT_CHUNK, b"chunk bytes");
        let bytes = frame.encode();
        // Blocking reader.
        let mut cursor = &bytes[..];
        let got = Frame::read_from(&mut cursor, DEFAULT_MAX_FRAME)
            .unwrap()
            .unwrap();
        assert_eq!(got, frame);
        assert!(cursor.is_empty());
        // Incremental parser.
        let (got, used) = Frame::parse(&bytes, DEFAULT_MAX_FRAME).unwrap().unwrap();
        assert_eq!(got, frame);
        assert_eq!(used, bytes.len());
    }

    #[test]
    fn oversized_frame_is_rejected_before_allocation() {
        let mut bytes = frame(REQ_STATS, b"").encode();
        bytes[4..8].copy_from_slice(&u32::MAX.to_be_bytes());
        let err = Frame::read_from(&mut &bytes[..], 1024)
            .unwrap()
            .unwrap_err();
        assert!(matches!(err, ProtoError::Oversized { .. }));
        assert!(matches!(
            Frame::parse(&bytes, 1024).unwrap_err(),
            ProtoError::Oversized { .. }
        ));
    }

    #[test]
    fn bad_magic_and_version_are_rejected() {
        let mut bytes = frame(REQ_STATS, b"").encode();
        bytes[0] = b'X';
        assert!(matches!(
            Frame::read_from(&mut &bytes[..], 1024)
                .unwrap()
                .unwrap_err(),
            ProtoError::BadMagic(_)
        ));
        // Version 1 is gone: its header is a framing error like any other
        // unknown version, decided from the 8-byte prefix alone.
        for version in [1, 3, 9] {
            let mut bytes = frame(REQ_STATS, b"").encode();
            bytes[2] = version;
            let err = Frame::read_from(&mut &bytes[..8], 1024)
                .unwrap()
                .unwrap_err();
            assert_eq!(err, ProtoError::BadVersion(version));
            assert_eq!(err.severity(), Severity::Framing);
            assert_eq!(Frame::parse(&bytes[..8], 1024).unwrap_err(), err);
        }
    }

    #[test]
    fn truncated_stream_is_an_io_error() {
        let bytes = frame(REQ_SUBMIT_CHUNK, b"payload").encode();
        for cut in 0..bytes.len() {
            assert!(
                Frame::read_from(&mut &bytes[..cut], DEFAULT_MAX_FRAME).is_err(),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn request_and_response_roundtrip() {
        let requests = [
            Request::Status { job: 7 },
            Request::Result { job: u64::MAX },
            Request::Stats,
            Request::Shutdown,
        ];
        for req in requests {
            assert_eq!(Request::from_frame(&req.to_frame(3).unwrap()).unwrap(), req);
        }
        let responses = [
            Response::Submitted {
                job: 1,
                sketch: sha256(b"s"),
                fresh_object: true,
                fresh_job: false,
            },
            Response::Status { status: None },
            Response::Status {
                status: Some(JobStatus::Running),
            },
            Response::Result {
                certificate: vec![0; 64],
            },
            Response::Stats {
                text: "everything is fine".into(),
            },
            Response::ShuttingDown,
            Response::Error {
                message: "unknown bug".into(),
            },
        ];
        for resp in responses {
            let frame = resp.to_frame(0xfeed).unwrap();
            assert_eq!(frame.tag, 0xfeed);
            assert_eq!(Response::from_frame(&frame).unwrap(), resp);
        }
    }

    #[test]
    fn incremental_parse_handles_partial_and_back_to_back_frames() {
        let a = Request::Stats.to_frame(1).unwrap().encode();
        let b = Request::Status { job: 9 }.to_frame(2).unwrap().encode();
        let mut stream = a.clone();
        stream.extend_from_slice(&b);
        // Every prefix short of frame A is "need more bytes".
        for cut in 0..a.len() {
            assert_eq!(
                Frame::parse(&stream[..cut], DEFAULT_MAX_FRAME).unwrap(),
                None,
                "cut at {cut}"
            );
        }
        // A complete first frame parses without touching the second.
        let (first, used) = Frame::parse(&stream, DEFAULT_MAX_FRAME).unwrap().unwrap();
        assert_eq!(used, a.len());
        assert_eq!(first.tag, 1);
        let (second, used2) = Frame::parse(&stream[used..], DEFAULT_MAX_FRAME)
            .unwrap()
            .unwrap();
        assert_eq!(used2, b.len());
        assert_eq!(second.tag, 2);
        assert_eq!(
            Request::from_frame(&second).unwrap(),
            Request::Status { job: 9 }
        );
    }

    #[test]
    fn severity_splits_framing_from_payload_errors() {
        for (err, want) in [
            (ProtoError::BadMagic(*b"XX"), Severity::Framing),
            (ProtoError::BadVersion(1), Severity::Framing),
            (ProtoError::Oversized { len: 9, max: 1 }, Severity::Framing),
            (ProtoError::UnknownKind(0x42), Severity::Payload),
            (ProtoError::BadPayload("x"), Severity::Payload),
            (ProtoError::TooLarge(1 << 40), Severity::Payload),
        ] {
            assert_eq!(err.severity(), want, "{err}");
        }
    }

    #[test]
    fn streaming_requests_roundtrip_tagged() {
        let reqs = [
            Request::SubmitBegin {
                bug: "pbzip-order".into(),
            },
            Request::SubmitChunk {
                data: vec![7; 1000],
            },
            // An empty chunk is legal framing (the decoder consumes the
            // rest, which may be nothing).
            Request::SubmitChunk { data: vec![] },
            Request::SubmitEnd,
        ];
        for req in reqs {
            let frame = req.to_frame(41).unwrap();
            assert_eq!(frame.tag, 41);
            assert_eq!(Request::from_frame(&frame).unwrap(), req);
        }
    }

    #[test]
    fn auth_and_object_requests_and_responses_roundtrip() {
        let requests = [
            Request::Hello {
                token: b"sesame".to_vec(),
            },
            Request::Hello { token: vec![] },
            Request::PeerPutBegin {
                digest: sha256(b"obj"),
            },
            Request::PeerGet {
                digest: sha256(b"obj"),
            },
            Request::PeerStat {
                digest: sha256(b"obj"),
            },
        ];
        for req in requests {
            let frame = req.to_frame(77).unwrap();
            assert_eq!(frame.tag, 77);
            assert_eq!(Request::from_frame(&frame).unwrap(), req);
        }
        let responses = [
            Response::HelloOk,
            Response::PeerPut {
                digest: sha256(b"obj"),
                fresh: true,
            },
            Response::PeerObject { body: None },
            Response::PeerObject {
                body: Some(vec![7; 100]),
            },
            Response::PeerStatIs { present: false },
        ];
        for resp in responses {
            assert_eq!(
                Response::from_frame(&resp.to_frame(77).unwrap()).unwrap(),
                resp
            );
        }
    }

    #[test]
    fn unknown_kind_and_trailing_bytes_are_rejected() {
        // 0x01 (the monolithic SUBMIT), 0x0D (PEER_LIST) and 0x0E/0x0F
        // (PEER_STEAL, PEER_DONE) are retired: as unknown as any other
        // kind.
        for kind in [0x01, 0x0D, 0x0E, 0x0F, 0x42] {
            let err = Request::from_frame(&frame(kind, b"")).unwrap_err();
            assert_eq!(err, ProtoError::UnknownKind(kind));
            assert_eq!(err.severity(), Severity::Payload);
        }
        // 0x8A (the PEER_LIST answer) and 0x8B/0x8C (PEER_JOBS, PEER_DONE
        // answers) likewise.
        for kind in [0x8A, 0x8B, 0x8C] {
            let err = Response::from_frame(&frame(kind, b"")).unwrap_err();
            assert_eq!(err, ProtoError::UnknownKind(kind));
            assert_eq!(err.severity(), Severity::Payload);
        }
        let mut frame = Request::Stats.to_frame(1).unwrap();
        frame.payload.push(0);
        assert!(matches!(
            Request::from_frame(&frame).unwrap_err(),
            ProtoError::BadPayload(_)
        ));
    }
}
