//! The content-addressed object store.
//!
//! Sketch containers and minted certificates are immutable blobs, so the
//! store keys them by SHA-256 and never overwrites: submitting the same
//! sketch twice costs one hash and zero disk writes. Layout mirrors git's
//! loose objects —
//!
//! ```text
//! <root>/objects/ab/cdef...   # first hex byte is the fan-out directory
//! <root>/tmp/                 # staging area for atomic ingest
//! <root>/quarantine/          # objects that failed self-verification
//! ```
//!
//! Publication is tmp-write → fsync(tmp file) → `rename(2)` →
//! fsync(destination dir) → fsync(tmp dir): the rename is atomic on
//! POSIX *and* every link in the chain is forced down before `put`
//! returns, so an acknowledged object survives power loss, not just
//! process death. All 256 fan-out directories are created at open, and
//! `objects/` synced once after creating any, so the first object in a
//! fan-out is as durable as the rest without a put ever paying for a
//! directory creation. A crash mid-ingest leaves a stale temp file
//! (swept on the next open) but never a truncated object. Because the
//! name *is* the hash, a rebuild after any crash is just a directory
//! walk, and [`Store::fsck`] makes the walk adversarial: every object is
//! re-hashed and mismatches are quarantined (moved aside, never served
//! again from their digest path — a later `put` of the true bytes
//! re-ingests cleanly).
//!
//! Each fallible step is guarded by a [`Faults`] crash point so tests can
//! stop the sequence at any link and assert what a restart observes.
//!
//! Immutability is also what makes the queue's decode cache
//! ([`crate::cache::SketchCache`]) sound: a digest's bytes never change,
//! so a hot sketch skips [`Store::get`] — and the read + hash-verify +
//! decode behind it — entirely, with no invalidation protocol needed.

use crate::digest::{sha256, Digest, Sha256};
use crate::faultpoint::{FaultPoint, Faults};
use std::fs::File;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// An in-progress streaming ingest: chunks are digested incrementally and
/// spilled straight into a staging file, so ingesting a multi-MB blob
/// never holds more than one chunk in memory. Obtained from
/// [`Store::put_streaming`]; finish with [`StreamingPut::finish`] (the
/// dedup + atomic-publish + fsync chain [`Store::put`] also ends in) or
/// drop it to abort, which removes the staging file.
#[derive(Debug)]
pub struct StreamingPut<'a> {
    store: &'a Store,
    file: Option<File>,
    tmp: PathBuf,
    hasher: Sha256,
    written: u64,
}

impl StreamingPut<'_> {
    /// Appends one chunk to the staging file and the running digest.
    pub fn write(&mut self, chunk: &[u8]) -> io::Result<()> {
        let file = self
            .file
            .as_mut()
            .expect("write after finish/abort on a StreamingPut");
        if let Some(keep) = self
            .store
            .faults
            .torn(FaultPoint::StoreStageTorn, chunk.len())
        {
            file.write_all(&chunk[..keep])?;
            let _ = file.sync_all();
            return Err(Faults::torn_error(FaultPoint::StoreStageTorn));
        }
        file.write_all(chunk)?;
        self.hasher.update(chunk);
        self.written += chunk.len() as u64;
        Ok(())
    }

    /// Bytes streamed so far — the server's stream-size cap reads this.
    pub fn written(&self) -> u64 {
        self.written
    }

    /// Syncs the staged bytes, then publishes them under their digest.
    /// Returns the digest and whether a new object was written (`false` =
    /// identical content was already published; the staging file is
    /// discarded).
    pub fn finish(mut self) -> io::Result<(Digest, bool)> {
        let file = self
            .file
            .take()
            .expect("finish called twice on a StreamingPut");
        let digest = self.hasher.clone().finalize();
        if self.store.contains(&digest) {
            // The dedup probe `put` makes before staging, made as
            // soon as the digest is known: the staged copy is discarded
            // without paying for its durability (a crash before the unlink
            // leaves an orphan the next open sweeps).
            drop(file);
            let _ = std::fs::remove_file(&self.tmp);
            return Ok((digest, false));
        }
        self.store.faults.check(FaultPoint::StoreTmpSyncCrash)?;
        // The staged bytes must be durable BEFORE the rename: a rename of
        // an unsynced file can publish a name whose content is lost by
        // power failure.
        file.sync_all()?;
        drop(file);
        let fresh = self.store.publish(&self.tmp, &digest)?;
        Ok((digest, fresh))
    }
}

impl Drop for StreamingPut<'_> {
    fn drop(&mut self) {
        // An unfinished stream (client disconnect, protocol error, crash
        // of the handler) must not leak staging files; publication already
        // happened if `finish` consumed the file.
        if self.file.take().is_some() {
            let _ = std::fs::remove_file(&self.tmp);
        }
    }
}

/// What [`Store::fsck`] found.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FsckReport {
    /// Objects that re-hashed to their own name.
    pub verified: usize,
    /// Objects whose bytes mismatched their name, now moved to
    /// `quarantine/`.
    pub quarantined: usize,
}

/// A content-addressed blob store rooted at one directory.
#[derive(Debug)]
pub struct Store {
    root: PathBuf,
    /// Monotone counter naming temp files; uniqueness matters only within
    /// this process (cross-process staging races are resolved by rename).
    tmp_seq: AtomicU64,
    faults: Faults,
}

/// Opens `dir` and fsyncs it, making recently created/renamed/unlinked
/// entries durable.
fn sync_dir(dir: &Path) -> io::Result<()> {
    File::open(dir)?.sync_all()
}

impl Store {
    /// Opens (creating if needed) a store at `root`, sweeping any staging
    /// files a previous crash left behind and verifying the object
    /// directory is readable. Returns the store and the number of objects
    /// already present — the crash-safe "index rebuild" is exactly this
    /// walk, because object names are their own index.
    pub fn open(root: impl Into<PathBuf>) -> io::Result<(Store, usize)> {
        Store::open_with_faults(root, Faults::none())
    }

    /// [`Store::open`] with an injectable crash-point handle (tests and
    /// the torture harness).
    pub fn open_with_faults(
        root: impl Into<PathBuf>,
        faults: Faults,
    ) -> io::Result<(Store, usize)> {
        let root = root.into();
        let objects = root.join("objects");
        let fresh_layout = !objects.is_dir();
        std::fs::create_dir_all(&objects)?;
        std::fs::create_dir_all(root.join("tmp"))?;
        std::fs::create_dir_all(root.join("quarantine"))?;
        // Every fan-out directory exists, durably, before the first put:
        // `publish` then never creates a directory, so no put needs a
        // sync beyond its own fan-out directory and `tmp/`.
        let mut created = false;
        for byte in 0..=u8::MAX {
            match std::fs::create_dir(objects.join(format!("{byte:02x}"))) {
                Ok(()) => created = true,
                Err(e) if e.kind() == io::ErrorKind::AlreadyExists => {}
                Err(e) => return Err(e),
            }
        }
        if created {
            sync_dir(&objects)?;
        }
        if fresh_layout {
            sync_dir(&root)?;
        }
        let mut swept = false;
        for entry in std::fs::read_dir(root.join("tmp"))? {
            let entry = entry?;
            // Best effort: a sweep failure leaves garbage, not corruption.
            swept |= std::fs::remove_file(entry.path()).is_ok();
        }
        if swept {
            let _ = sync_dir(&root.join("tmp"));
        }
        let store = Store {
            root,
            tmp_seq: AtomicU64::new(0),
            faults,
        };
        let count = store.walk_count()?;
        Ok((store, count))
    }

    /// Every digest currently published (directory-walk order).
    fn walk(&self) -> io::Result<Vec<Digest>> {
        let mut digests = Vec::new();
        for fan in std::fs::read_dir(self.root.join("objects"))? {
            let fan = fan?;
            if !fan.file_type()?.is_dir() {
                continue;
            }
            for obj in std::fs::read_dir(fan.path())? {
                let obj = obj?;
                let name = format!(
                    "{}{}",
                    fan.file_name().to_string_lossy(),
                    obj.file_name().to_string_lossy()
                );
                if let Some(digest) = Digest::from_hex(&name) {
                    digests.push(digest);
                }
            }
        }
        Ok(digests)
    }

    fn walk_count(&self) -> io::Result<usize> {
        Ok(self.walk()?.len())
    }

    fn object_path(&self, digest: &Digest) -> PathBuf {
        let hex = digest.to_hex();
        self.root.join("objects").join(&hex[..2]).join(&hex[2..])
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The quarantine directory (corrupt objects are moved here by
    /// [`Store::get`]/[`Store::fsck`], named `<hex>-<seq>`).
    pub fn quarantine_dir(&self) -> PathBuf {
        self.root.join("quarantine")
    }

    /// A fresh staging path; uniqueness matters only within this process.
    fn stage_path(&self) -> PathBuf {
        self.root.join("tmp").join(format!(
            "ingest-{}-{}",
            std::process::id(),
            self.tmp_seq.fetch_add(1, Ordering::Relaxed)
        ))
    }

    /// The publish half shared by [`Store::put`] and
    /// [`StreamingPut::finish`]: moves an already-synced staging file to
    /// its digest path (or discards it on dedup) and forces the directory
    /// entries down. Returns whether a new object was published.
    fn publish(&self, tmp: &Path, digest: &Digest) -> io::Result<bool> {
        let path = self.object_path(digest);
        if path.exists() {
            // Identical content already published (a streamed re-submit,
            // or a concurrent ingest that won): drop the staging copy.
            let _ = std::fs::remove_file(tmp);
            let _ = sync_dir(&self.root.join("tmp"));
            return Ok(false);
        }
        let parent = path.parent().expect("object path has fan-out parent");
        self.faults.check(FaultPoint::StoreRenameCrash)?;
        match std::fs::rename(tmp, &path) {
            Ok(()) => {}
            Err(e) => {
                // A concurrent ingest of the same content may have won the
                // rename race; identical bytes mean either outcome is fine
                // (and the winner performed the directory syncs).
                let _ = std::fs::remove_file(tmp);
                if path.exists() {
                    return Ok(false);
                }
                return Err(e);
            }
        }
        self.faults.check(FaultPoint::StoreDirSyncCrash)?;
        // Make the publication durable: the new dirent in the fan-out
        // directory and the unlink from the staging directory.
        sync_dir(parent)?;
        sync_dir(&self.root.join("tmp"))?;
        Ok(true)
    }

    /// Ingests a blob. Returns its digest and whether a new object was
    /// written (`false` = content already present, nothing touched disk
    /// beyond the existence probe). On success the object *and* the
    /// directory entries publishing it are fsynced.
    pub fn put(&self, data: &[u8]) -> io::Result<(Digest, bool)> {
        let digest = sha256(data);
        if self.contains(&digest) {
            return Ok((digest, false));
        }
        let mut put = self.put_streaming()?;
        put.write(data)?;
        put.finish()
    }

    /// Opens a streaming ingest: the returned writer spills chunks into a
    /// staging file and digests them incrementally, so peak memory is one
    /// chunk regardless of blob size. [`Store::put`] is this path with
    /// one chunk, so both walk the same crash points (stage → torn-write →
    /// tmp-sync → rename → dir-sync) under one durability contract.
    pub fn put_streaming(&self) -> io::Result<StreamingPut<'_>> {
        let tmp = self.stage_path();
        self.faults.check(FaultPoint::StoreStageCrash)?;
        let file = File::create(&tmp)?;
        Ok(StreamingPut {
            store: self,
            file: Some(file),
            tmp,
            hasher: Sha256::new(),
            written: 0,
        })
    }

    /// Whether an object is present.
    pub fn contains(&self, digest: &Digest) -> bool {
        self.object_path(digest).exists()
    }

    /// Reads an object back, verifying its content still matches its name
    /// (silent disk corruption surfaces here, not in a replay). A
    /// mismatching object is *quarantined*: moved out of its digest path
    /// so it is never served again and a fresh `put` of the true bytes can
    /// repair the store, then reported as an error for this read.
    pub fn get(&self, digest: &Digest) -> io::Result<Option<Vec<u8>>> {
        let path = self.object_path(digest);
        let data = match std::fs::read(&path) {
            Ok(d) => d,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e),
        };
        if sha256(&data) != *digest {
            let qpath = self.quarantine_dir().join(format!(
                "{}-{}",
                digest.to_hex(),
                self.tmp_seq.fetch_add(1, Ordering::Relaxed)
            ));
            let quarantined = std::fs::rename(&path, &qpath).is_ok();
            if quarantined {
                let _ = path.parent().map(sync_dir);
                let _ = sync_dir(&self.quarantine_dir());
            }
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "object {digest} fails content verification{}",
                    if quarantined {
                        format!("; quarantined to {}", qpath.display())
                    } else {
                        String::new()
                    }
                ),
            ));
        }
        Ok(Some(data))
    }

    /// Re-hashes every object, quarantining any whose bytes no longer
    /// match their name. Run at daemon startup: after it returns, every
    /// object that `get` can find verifies.
    pub fn fsck(&self) -> io::Result<FsckReport> {
        let mut report = FsckReport::default();
        for digest in self.walk()? {
            match self.get(&digest) {
                Ok(Some(_)) => report.verified += 1,
                Ok(None) => {} // raced with a concurrent quarantine
                Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                    report.quarantined += 1;
                }
                Err(e) => return Err(e),
            }
        }
        Ok(report)
    }

    /// Number of objects currently stored (a directory walk; cheap at the
    /// corpus scales this daemon serves).
    pub fn len(&self) -> io::Result<usize> {
        self.walk_count()
    }

    /// Whether the store holds no objects.
    pub fn is_empty(&self) -> io::Result<bool> {
        Ok(self.len()? == 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "pres-svc-store-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn put_get_roundtrip_and_dedup() {
        let (store, seeded) = Store::open(scratch("roundtrip")).unwrap();
        assert_eq!(seeded, 0);
        let (d1, fresh1) = store.put(b"sketch bytes").unwrap();
        assert!(fresh1);
        let (d2, fresh2) = store.put(b"sketch bytes").unwrap();
        assert_eq!(d1, d2);
        assert!(!fresh2, "second put of identical content must dedup");
        assert_eq!(store.get(&d1).unwrap().unwrap(), b"sketch bytes");
        assert_eq!(store.len().unwrap(), 1);
    }

    #[test]
    fn open_lays_out_every_fan_out_so_a_put_creates_no_directory() {
        let root = scratch("fan-outs");
        let fan_outs = |root: &Path| std::fs::read_dir(root.join("objects")).unwrap().count();
        let (store, _) = Store::open(&root).unwrap();
        assert_eq!(fan_outs(&root), 256);
        store.put(b"first object of its fan-out").unwrap();
        assert_eq!(fan_outs(&root), 256);
        drop(store);
        let (_, count) = Store::open(&root).unwrap();
        assert_eq!((fan_outs(&root), count), (256, 1));
    }

    #[test]
    fn missing_object_is_none() {
        let (store, _) = Store::open(scratch("missing")).unwrap();
        let ghost = sha256(b"never stored");
        assert_eq!(store.get(&ghost).unwrap(), None);
        assert!(!store.contains(&ghost));
    }

    #[test]
    fn reopen_rebuilds_the_index_and_sweeps_staging() {
        let root = scratch("reopen");
        let digests: Vec<Digest> = {
            let (store, _) = Store::open(&root).unwrap();
            (0..5u8)
                .map(|i| store.put(&[i; 100]).unwrap().0)
                .collect()
        };
        // Simulate a crash mid-ingest: a stale staging file survives.
        std::fs::write(root.join("tmp").join("ingest-crashed"), b"partial").unwrap();
        let (store, seeded) = Store::open(&root).unwrap();
        assert_eq!(seeded, 5);
        assert!(std::fs::read_dir(root.join("tmp")).unwrap().next().is_none());
        for (i, d) in digests.iter().enumerate() {
            assert_eq!(store.get(d).unwrap().unwrap(), vec![i as u8; 100]);
        }
    }

    #[test]
    fn corrupted_object_is_quarantined_not_served_and_repairable() {
        let root = scratch("corrupt");
        let (store, _) = Store::open(&root).unwrap();
        let (d, _) = store.put(b"pristine").unwrap();
        let hex = d.to_hex();
        let path = root.join("objects").join(&hex[..2]).join(&hex[2..]);
        std::fs::write(&path, b"tampered").unwrap();

        // First read: detected, quarantined, reported.
        let err = store.get(&d).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("quarantined"), "{err}");
        assert!(!path.exists(), "corrupt object must leave its digest path");
        let quarantined: Vec<_> = std::fs::read_dir(store.quarantine_dir())
            .unwrap()
            .collect();
        assert_eq!(quarantined.len(), 1);

        // Second read: plain miss, not a poisoned error forever.
        assert_eq!(store.get(&d).unwrap(), None);
        assert!(!store.contains(&d));

        // Re-ingesting the true bytes repairs the store.
        let (d2, fresh) = store.put(b"pristine").unwrap();
        assert_eq!(d2, d);
        assert!(fresh);
        assert_eq!(store.get(&d).unwrap().unwrap(), b"pristine");
    }

    #[test]
    fn streaming_put_matches_monolithic_put() {
        let (store, _) = Store::open(scratch("streaming")).unwrap();
        let blob: Vec<u8> = (0..300_000u32).map(|i| (i % 251) as u8).collect();
        let expect = sha256(&blob);

        let mut put = store.put_streaming().unwrap();
        for chunk in blob.chunks(7_001) {
            put.write(chunk).unwrap();
        }
        assert_eq!(put.written(), blob.len() as u64);
        let (digest, fresh) = put.finish().unwrap();
        assert_eq!(digest, expect, "streamed digest must equal one-shot");
        assert!(fresh);
        assert_eq!(store.get(&digest).unwrap().unwrap(), blob);

        // A monolithic re-put of the same bytes dedups, and vice versa.
        assert_eq!(store.put(&blob).unwrap(), (expect, false));
        let mut again = store.put_streaming().unwrap();
        again.write(&blob).unwrap();
        assert_eq!(again.finish().unwrap(), (expect, false));
        assert_eq!(store.len().unwrap(), 1);
        // Dedup discarded both staging files.
        assert!(std::fs::read_dir(store.root().join("tmp"))
            .unwrap()
            .next()
            .is_none());
    }

    #[test]
    fn empty_stream_is_the_empty_object() {
        let (store, _) = Store::open(scratch("streaming-empty")).unwrap();
        let put = store.put_streaming().unwrap();
        let (digest, fresh) = put.finish().unwrap();
        assert_eq!(digest, sha256(b""));
        assert!(fresh);
        assert_eq!(store.get(&digest).unwrap().unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn dropped_stream_removes_its_staging_file() {
        let (store, _) = Store::open(scratch("streaming-abort")).unwrap();
        {
            let mut put = store.put_streaming().unwrap();
            put.write(b"half a sketch").unwrap();
            // Dropped without finish: the disconnect-mid-stream path.
        }
        assert!(std::fs::read_dir(store.root().join("tmp"))
            .unwrap()
            .next()
            .is_none());
        assert_eq!(store.len().unwrap(), 0);
    }

    #[test]
    fn streaming_put_hits_the_same_crash_points() {
        use crate::faultpoint::{FaultMode, FaultPoint};
        // Arm each store-path crash point and check the streamed ingest
        // fails at it, leaving no published object — the same contract
        // tests/svc_crash.rs pins for the monolithic path.
        for point in [
            FaultPoint::StoreStageCrash,
            FaultPoint::StoreTmpSyncCrash,
            FaultPoint::StoreRenameCrash,
        ] {
            let faults = Faults::new();
            faults.arm(point, FaultMode::Crash, 1);
            let (store, _) =
                Store::open_with_faults(scratch(&format!("stream-{point:?}")), faults).unwrap();
            let res = store.put_streaming().and_then(|mut p| {
                p.write(b"doomed bytes")?;
                p.finish().map(|_| ())
            });
            assert!(res.is_err(), "{point:?} did not fire");
            assert_eq!(store.len().unwrap(), 0, "{point:?} published anyway");
        }
        // A streamed duplicate stops at the dedup probe: it never reaches
        // the staging fsync, exactly like a one-shot `put` of known bytes.
        let faults = Faults::new();
        let (store, _) = Store::open_with_faults(scratch("stream-dup"), faults.clone()).unwrap();
        let (digest, _) = store.put(b"known bytes").unwrap();
        faults.arm(FaultPoint::StoreTmpSyncCrash, FaultMode::Crash, 1);
        let mut put = store.put_streaming().unwrap();
        put.write(b"known bytes").unwrap();
        assert_eq!(put.finish().unwrap(), (digest, false));
        assert!(!faults.fired());
        // Torn chunk write: fails the stream; nothing is ever published
        // and the in-process drop (unlike a real crash) clears the stage.
        let faults = Faults::new();
        faults.arm(FaultPoint::StoreStageTorn, FaultMode::Torn { keep: 4 }, 1);
        let (store, _) = Store::open_with_faults(scratch("stream-torn"), faults).unwrap();
        let mut put = store.put_streaming().unwrap();
        assert!(put.write(b"these bytes get torn").is_err());
        drop(put);
        assert_eq!(store.len().unwrap(), 0);
    }

    #[test]
    fn fsck_quarantines_every_corrupt_object() {
        let root = scratch("fsck");
        let (store, _) = Store::open(&root).unwrap();
        let good: Vec<Digest> = (0..3u8).map(|i| store.put(&[i; 64]).unwrap().0).collect();
        let (bad, _) = store.put(b"will rot").unwrap();
        let hex = bad.to_hex();
        std::fs::write(
            root.join("objects").join(&hex[..2]).join(&hex[2..]),
            b"rotted",
        )
        .unwrap();

        let report = store.fsck().unwrap();
        assert_eq!(report.verified, 3);
        assert_eq!(report.quarantined, 1);
        assert_eq!(store.len().unwrap(), 3);
        for d in &good {
            assert!(store.get(d).unwrap().is_some());
        }
        // A second pass finds a clean store.
        let report = store.fsck().unwrap();
        assert_eq!(report, FsckReport { verified: 3, quarantined: 0 });
    }

    #[test]
    fn an_uppercase_object_name_is_not_an_object() {
        // A stray file named by a digest spelled in uppercase: no `get`
        // can reach it, because object paths are lowercase, so neither
        // the open count, `len` nor fsck may count it.
        let root = scratch("uppercase");
        let hex = sha256(b"stray").to_hex().to_uppercase();
        assert_ne!(hex, hex.to_lowercase());
        let fan = root.join("objects").join(&hex[..2]);
        std::fs::create_dir_all(&fan).unwrap();
        std::fs::write(fan.join(&hex[2..]), b"stray").unwrap();
        let (store, count) = Store::open(&root).unwrap();
        assert_eq!(count, 0);
        assert_eq!(store.len().unwrap(), 0);
        let report = store.fsck().unwrap();
        assert_eq!(report, FsckReport { verified: 0, quarantined: 0 });
    }
}
