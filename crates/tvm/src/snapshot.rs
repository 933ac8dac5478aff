//! Mid-execution VM snapshots: the checkpoint surface of always-on
//! recording.
//!
//! A [`VmSnapshot`] captures everything the coordinator owns at a pick
//! boundary — run statistics, the virtual clock, per-vthread control state
//! (names, per-thread sequence numbers, exit flags), and the full
//! [`crate::state::VmState`] including the simulated world and its input
//! RNG — in a versioned binary encoding. The capture point is defined by
//! *pick count*: a snapshot at boundary `B` reflects the state after
//! exactly the first `B` scheduler picks have been applied.
//!
//! Restoration is by **deterministic fast-forward**: vthread bodies are
//! native Rust closures, so the way to reconstruct the VM at boundary `B`
//! is to re-run the program under the recorded production scheduler for
//! exactly `B` picks. The serialized snapshot is the integrity witness for
//! that fast-forward — the replayer re-captures at `B` and byte-compares
//! the encodings, so any drift between the production run and the replay
//! environment is detected instead of silently corrupting exploration
//! (see `pres-core`'s checkpoint verification).
//!
//! The encoding is [`crate::bytes`], the workspace's one byte codec:
//! owning modules ([`crate::state`], [`crate::sys`], [`crate::clock`],
//! [`crate::rng`]) write their private fields through a
//! [`crate::bytes::Writer`], and the coordinator assembles the
//! tagged sections. Decoding is strictly structural, never panics, never
//! accepts trailing bytes, and bounds every collection count against the
//! remaining input, so corrupt or truncated snapshots fail fast with an
//! offset-carrying [`DecodeError`]. The codec's two decode rules apply: a
//! varint is canonical (it fits `u64` and is not zero-padded), and the
//! header's thread count is a checked `u32`.

use crate::bytes::{DecodeError, Reader, Writer};

/// Current snapshot encoding version.
pub const SNAPSHOT_VERSION: u8 = 1;

/// Section tags of the snapshot payload, in required order.
pub const SEC_STATS: u8 = 1;
/// Virtual-clock section.
pub const SEC_CLOCK: u8 = 2;
/// Per-vthread control-state section.
pub const SEC_THREADS: u8 = 3;
/// Shared state + simulated world section.
pub const SEC_STATE: u8 = 4;

/// A serialized checkpoint of a VM at a pick boundary.
///
/// Opaque to everything except the tvm coordinator (which captures it) and
/// the verification path (which byte-compares re-captures against it); the
/// payload layout is internal and versioned.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VmSnapshot {
    picks: u64,
    step: u64,
    threads: u32,
    payload: Vec<u8>,
}

impl VmSnapshot {
    /// Assembles a snapshot from coordinator-captured parts.
    pub(crate) fn from_parts(picks: u64, step: u64, threads: u32, payload: Vec<u8>) -> Self {
        VmSnapshot {
            picks,
            step,
            threads,
            payload,
        }
    }

    /// The pick boundary: the number of scheduler picks applied before
    /// this snapshot was taken.
    pub fn picks(&self) -> u64 {
        self.picks
    }

    /// The VM step counter at capture (>= `picks`: blocked-arrival
    /// fast-forwards advance steps without picks).
    pub fn step(&self) -> u64 {
        self.step
    }

    /// Number of vthreads (spawned so far, exited included) at capture.
    pub fn threads(&self) -> u32 {
        self.threads
    }

    /// The serialized state payload.
    pub fn payload(&self) -> &[u8] {
        &self.payload
    }

    /// Serializes the snapshot (version, boundary, step, threads, payload).
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.u8(SNAPSHOT_VERSION);
        w.varint(self.picks);
        w.varint(self.step);
        w.varint(u64::from(self.threads));
        w.bytes(&self.payload);
        w.finish()
    }

    /// Decodes and structurally validates a snapshot. Never panics; errors
    /// on truncation, corruption, version mismatch, or trailing bytes.
    pub fn decode(data: &[u8]) -> Result<VmSnapshot, DecodeError> {
        let mut r = Reader::new(data);
        let version = r.u8()?;
        if version != SNAPSHOT_VERSION {
            return Err(r.err(format!("unsupported snapshot version {version}")));
        }
        let picks = r.varint()?;
        let step = r.varint()?;
        let threads = r.varint_u32("thread count")?;
        let payload = r.bytes()?.to_vec();
        if !r.at_end() {
            return Err(r.err("trailing bytes after snapshot"));
        }
        let declared = validate_payload(&payload)?;
        if declared != threads {
            return Err(DecodeError {
                offset: 0,
                message: format!(
                    "header thread count {threads} disagrees with payload ({declared})"
                ),
            });
        }
        Ok(VmSnapshot {
            picks,
            step,
            threads,
            payload,
        })
    }
}

/// Structurally validates a snapshot payload, returning the thread count
/// declared by its thread section.
fn validate_payload(payload: &[u8]) -> Result<u32, DecodeError> {
    let mut r = Reader::new(payload);
    let mut threads: u32 = 0;
    for expected in [SEC_STATS, SEC_CLOCK, SEC_THREADS, SEC_STATE] {
        let tag = r.u8()?;
        if tag != expected {
            return Err(r.err(format!("expected section {expected}, found {tag}")));
        }
        let mut s = Reader::new(r.bytes()?);
        match tag {
            SEC_STATS => validate_stats(&mut s)?,
            SEC_CLOCK => validate_clock(&mut s)?,
            SEC_THREADS => threads = validate_threads(&mut s)?,
            SEC_STATE => validate_state(&mut s)?,
            _ => unreachable!(),
        }
        if !s.at_end() {
            return Err(s.err(format!("trailing bytes in section {tag}")));
        }
    }
    if !r.at_end() {
        return Err(r.err("trailing bytes after final section"));
    }
    Ok(threads)
}

/// Reads a count-prefixed list of varints.
fn validate_varints(r: &mut Reader<'_>, what: &str) -> Result<(), DecodeError> {
    for _ in 0..r.count(1, what)? {
        r.varint()?;
    }
    Ok(())
}

/// 7 operation counters: `os_spawns` is executor-dependent and excluded.
fn validate_stats(r: &mut Reader<'_>) -> Result<(), DecodeError> {
    for _ in 0..7 {
        r.varint()?;
    }
    Ok(())
}

fn validate_clock(r: &mut Reader<'_>) -> Result<(), DecodeError> {
    validate_varints(r, "clock thread")?;
    r.varint()?; // work
    r.varint()?; // serial
    Ok(())
}

fn validate_threads(r: &mut Reader<'_>) -> Result<u32, DecodeError> {
    let n = r.count(1, "thread")?;
    let n = u32::try_from(n).map_err(|_| r.err(format!("thread count {n} out of range")))?;
    for _ in 0..n {
        r.str()?; // name
        r.varint()?; // tseq
        r.bool()?; // exited
    }
    Ok(n)
}

fn validate_state(r: &mut Reader<'_>) -> Result<(), DecodeError> {
    validate_varints(r, "var")?;
    for _ in 0..r.count(1, "buf")? {
        r.bytes()?;
    }
    // Lock holders: `Option<ThreadId>` as 0 = None, otherwise tid + 1.
    validate_varints(r, "lock")?;
    for _ in 0..r.count(1, "rwlock")? {
        r.varint()?; // writer
        validate_varints(r, "rwlock reader")?;
    }
    for _ in 0..r.count(1, "condvar")? {
        validate_varints(r, "condvar waiter")?;
        validate_varints(r, "condvar notified")?;
    }
    for _ in 0..r.count(1, "barrier")? {
        r.varint()?; // parties
        validate_varints(r, "barrier arrived")?;
        validate_varints(r, "barrier released")?;
        r.varint()?; // generation
    }
    validate_varints(r, "semaphore")?;
    for _ in 0..r.count(1, "channel")? {
        validate_varints(r, "channel message")?;
        r.bool()?; // closed
    }
    validate_world(r)
}

fn validate_world(r: &mut Reader<'_>) -> Result<(), DecodeError> {
    for _ in 0..r.count(1, "file")? {
        r.str()?;
        r.bytes()?;
    }
    for _ in 0..r.count(1, "fd")? {
        r.str()?; // path
        r.varint()?; // cursor
        r.bool()?; // closed
    }
    r.varint()?; // next_session
    for _ in 0..r.count(1, "connection")? {
        r.bytes()?; // inbox
        r.varint()?; // read_cursor
        r.bytes()?; // outbox
        r.bool()?; // closed
    }
    // rng: 16 state words + 16 block words + cursor
    for _ in 0..33 {
        r.varint()?;
    }
    r.bytes()?; // stdout
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A structurally valid payload for an empty VM: zero-count sections
    /// and a zeroed RNG.
    fn empty_payload() -> Vec<u8> {
        let mut e = Writer::new();
        e.section(SEC_STATS, |e| {
            for _ in 0..7 {
                e.varint(0);
            }
        });
        e.section(SEC_CLOCK, |e| {
            e.varint(0); // per-thread count
            e.varint(0); // work
            e.varint(0); // serial
        });
        e.section(SEC_THREADS, |e| {
            e.varint(1);
            e.str("main");
            e.varint(0);
            e.bool(false);
        });
        e.section(SEC_STATE, |e| {
            for _ in 0..8 {
                e.varint(0); // vars..chans counts
            }
            e.varint(0); // files
            e.varint(0); // fds
            e.varint(0); // next_session
            e.varint(0); // conns
            for _ in 0..33 {
                e.varint(0); // rng
            }
            e.bytes(&[]); // stdout
        });
        e.finish()
    }

    fn sample() -> VmSnapshot {
        VmSnapshot::from_parts(42, 45, 1, empty_payload())
    }

    #[test]
    fn round_trip_preserves_everything() {
        let snap = sample();
        let bytes = snap.encode();
        let back = VmSnapshot::decode(&bytes).expect("decodes");
        assert_eq!(back, snap);
        assert_eq!(back.picks(), 42);
        assert_eq!(back.step(), 45);
        assert_eq!(back.threads(), 1);
        assert_eq!(back.encode(), bytes);
    }

    #[test]
    fn every_truncation_errors_without_panicking() {
        let bytes = sample().encode();
        for cut in 0..bytes.len() {
            assert!(
                VmSnapshot::decode(&bytes[..cut]).is_err(),
                "truncation at {cut} must not decode"
            );
        }
    }

    #[test]
    fn bit_flips_never_panic() {
        let bytes = sample().encode();
        for i in 0..bytes.len() {
            for bit in 0..8 {
                let mut corrupt = bytes.clone();
                corrupt[i] ^= 1 << bit;
                // Must return (Ok for benign flips in e.g. stats values,
                // Err for structural damage) — never panic.
                let _ = VmSnapshot::decode(&corrupt);
            }
        }
    }

    #[test]
    fn varint_overflow_is_an_error_not_a_panic() {
        let mut e = Writer::new();
        e.u8(SNAPSHOT_VERSION);
        // 11-byte varint: overflows u64.
        for _ in 0..10 {
            e.u8(0xff);
        }
        e.u8(0x7f);
        assert!(VmSnapshot::decode(&e.finish()).is_err());
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = sample().encode();
        bytes.push(0);
        assert!(VmSnapshot::decode(&bytes).is_err());
    }

    #[test]
    fn wrong_version_is_rejected() {
        let mut bytes = sample().encode();
        bytes[0] = SNAPSHOT_VERSION + 1;
        let err = VmSnapshot::decode(&bytes).unwrap_err();
        assert!(err.message.contains("version"));
    }

    #[test]
    fn header_payload_thread_disagreement_is_rejected() {
        // Re-encode with a lying header thread count.
        let snap = sample();
        let mut e = Writer::new();
        e.u8(SNAPSHOT_VERSION);
        e.varint(snap.picks());
        e.varint(snap.step());
        e.varint(7); // payload says 1
        e.bytes(snap.payload());
        let err = VmSnapshot::decode(&e.finish()).unwrap_err();
        assert!(err.message.contains("disagrees"), "{err}");
    }
}
