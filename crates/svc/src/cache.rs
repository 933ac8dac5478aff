//! The digest-keyed sketch decode cache.
//!
//! Every job execution needs a sketch's metadata plus the
//! [`SketchIndex`] the replay schedulers consume. Without a cache the
//! worker pays `Store::get` (a disk read **and** a full SHA-256
//! re-verification) and a container decode for every try — even when the
//! try is a retry of the same job, a second bug over the same sketch, or
//! a duplicate submission. Content addressing makes caching these trivial
//! to get right: a digest's bytes never change, so a cached decode can
//! never go stale and there is no invalidation protocol at all — the only
//! policy is eviction.
//!
//! The cache is a byte-budgeted LRU, and an entry is charged what it
//! actually keeps resident ([`CachedSketch::resident_bytes`]): the daemon
//! caches only the sketch header and the compact index
//! ([`pres_core::codec::decode_index`]), ≈ 5 bytes per sketch entry, so
//! the budget bounds memory in the unit memory is spent in. A budget of
//! `0` disables the cache outright: every execution re-reads,
//! re-verifies and re-decodes its sketch. That is the byte-identity
//! pin's control arm: hits and misses must produce
//! bit-identical certificates, and `--sketch-cache-bytes 0` is how the
//! tests prove it.
//!
//! Compact entries let tens of thousands of sketches be resident under
//! the default budget, so recency is kept in an ordered map beside the
//! entries: a touch, an insert and an eviction are each O(log n).

use crate::digest::Digest;
use pres_core::sketch::{Sketch, SketchIndex};
use pres_tvm::sync::Mutex;
use std::collections::BTreeMap;
use std::sync::Arc;

/// A sketch header and its replay index, shared immutably between the
/// cache and every worker using it.
#[derive(Debug)]
pub struct CachedSketch {
    /// The sketch *header*: workers read `mechanism` and `meta`. The
    /// daemon never materialises entries, so it fills this with `entries`
    /// empty and `checkpoint: None` — the checkpoint lives in the index.
    pub sketch: Sketch,
    /// The index every replay attempt borrows (built once per digest,
    /// not once per job execution).
    pub index: Arc<SketchIndex>,
}

impl CachedSketch {
    /// Bytes this value keeps resident — what the daemon's cache charges
    /// for it: the struct, the header's strings, and
    /// [`SketchIndex::resident_bytes`]. Only defined for the header-only
    /// `sketch` the daemon builds: a full sketch's entries and checkpoint
    /// are not counted, and debug builds assert they are absent.
    pub fn resident_bytes(&self) -> u64 {
        debug_assert!(
            self.sketch.entries.capacity() == 0 && self.sketch.checkpoint.is_none(),
            "resident_bytes charges a header-only sketch"
        );
        let meta = &self.sketch.meta;
        let header = std::mem::size_of::<Self>()
            + meta.program.capacity()
            + meta.failure_signature.capacity();
        (header + self.index.resident_bytes()) as u64
    }
}

struct Entry {
    value: Arc<CachedSketch>,
    charge: u64,
    /// Logical access clock at last touch; its key in `Inner::recency`.
    stamp: u64,
}

struct Inner {
    map: BTreeMap<Digest, Entry>,
    /// Last-touch stamp → digest; the first key is the LRU entry.
    recency: BTreeMap<u64, Digest>,
    clock: u64,
    bytes: u64,
}

impl Inner {
    /// Advances the clock and, if `digest` is resident, makes it the most
    /// recent entry and returns its value.
    fn touch(&mut self, digest: Digest) -> Option<Arc<CachedSketch>> {
        self.clock += 1;
        let clock = self.clock;
        let entry = self.map.get_mut(&digest)?;
        self.recency.remove(&entry.stamp);
        entry.stamp = clock;
        self.recency.insert(clock, digest);
        Some(Arc::clone(&entry.value))
    }
}

/// A byte-budgeted LRU of `sketch digest → Arc<CachedSketch>`.
///
/// All methods are `&self`; the cache carries its own lock. Counters
/// (hits/misses/evictions) are the caller's job — [`crate::queue`] bumps
/// [`crate::metrics::Metrics`] at the call sites — so this type stays a
/// pure policy container.
pub struct SketchCache {
    budget: u64,
    inner: Mutex<Inner>,
}

impl SketchCache {
    /// A cache holding at most `budget` charged bytes. `0` disables
    /// caching entirely: every `get` misses, every `insert` is a no-op.
    pub fn new(budget: u64) -> SketchCache {
        SketchCache {
            budget,
            inner: Mutex::new(Inner {
                map: BTreeMap::new(),
                recency: BTreeMap::new(),
                clock: 0,
                bytes: 0,
            }),
        }
    }

    /// The configured byte budget.
    pub fn budget(&self) -> u64 {
        self.budget
    }

    /// Looks `digest` up, bumping its recency on a hit.
    pub fn get(&self, digest: &Digest) -> Option<Arc<CachedSketch>> {
        if self.budget == 0 {
            return None;
        }
        self.inner.lock().touch(*digest)
    }

    /// Inserts `value` under `digest`, charged at `charge` bytes,
    /// evicting least-recently-used entries until the budget holds.
    /// Returns how many entries were evicted. A value larger than the
    /// whole budget is not cached (and evicts nothing); re-inserting a
    /// present digest only refreshes its recency (the bytes under a
    /// digest are immutable, so the values are interchangeable).
    pub fn insert(&self, digest: Digest, value: Arc<CachedSketch>, charge: u64) -> u64 {
        if self.budget == 0 || charge > self.budget {
            return 0;
        }
        let mut inner = self.inner.lock();
        if inner.touch(digest).is_some() {
            return 0;
        }
        let mut evicted = 0;
        while inner.bytes + charge > self.budget {
            let (_, lru) = inner
                .recency
                .pop_first()
                .expect("over budget implies a resident entry");
            let gone = inner.map.remove(&lru).expect("lru key resident");
            inner.bytes -= gone.charge;
            evicted += 1;
        }
        // The missed `touch` above already advanced the clock.
        let stamp = inner.clock;
        inner.bytes += charge;
        inner.recency.insert(stamp, digest);
        inner.map.insert(
            digest,
            Entry {
                value,
                charge,
                stamp,
            },
        );
        evicted
    }

    /// Resident entry count.
    pub fn len(&self) -> usize {
        self.inner.lock().map.len()
    }

    /// Whether nothing is resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Charged bytes currently resident.
    pub fn bytes(&self) -> u64 {
        self.inner.lock().bytes
    }

    /// Charged bytes and resident entry count, read under one lock.
    pub fn usage(&self) -> (u64, usize) {
        let inner = self.inner.lock();
        (inner.bytes, inner.map.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::digest::sha256;
    use pres_core::sketch::Mechanism;

    fn cached() -> Arc<CachedSketch> {
        let sketch = Sketch {
            mechanism: Mechanism::Sync,
            entries: Vec::new(),
            meta: Default::default(),
            checkpoint: None,
        };
        let index = Arc::new(SketchIndex::new(&sketch));
        Arc::new(CachedSketch { sketch, index })
    }

    #[test]
    fn zero_budget_disables_the_cache() {
        let c = SketchCache::new(0);
        let d = sha256(b"a");
        assert_eq!(c.insert(d, cached(), 10), 0);
        assert!(c.get(&d).is_none());
        assert_eq!((c.len(), c.bytes()), (0, 0));
    }

    #[test]
    fn lru_eviction_respects_recency_and_budget() {
        let c = SketchCache::new(100);
        let (a, b, d) = (sha256(b"a"), sha256(b"b"), sha256(b"c"));
        assert_eq!(c.insert(a, cached(), 40), 0);
        assert_eq!(c.insert(b, cached(), 40), 0);
        // Touch `a`: `b` becomes the LRU.
        assert!(c.get(&a).is_some());
        assert_eq!(c.insert(d, cached(), 40), 1);
        assert!(c.get(&a).is_some());
        assert!(c.get(&b).is_none(), "LRU entry should have been evicted");
        assert!(c.get(&d).is_some());
        assert_eq!(c.bytes(), 80);
    }

    #[test]
    fn oversized_values_are_not_cached() {
        let c = SketchCache::new(100);
        let (a, b) = (sha256(b"a"), sha256(b"big"));
        c.insert(a, cached(), 60);
        assert_eq!(c.insert(b, cached(), 101), 0, "must not evict for an uncacheable value");
        assert!(c.get(&a).is_some());
        assert!(c.get(&b).is_none());
    }

    #[test]
    fn reinserting_a_digest_refreshes_without_double_charging() {
        let c = SketchCache::new(100);
        let (a, b, d) = (sha256(b"a"), sha256(b"b"), sha256(b"c"));
        c.insert(a, cached(), 40);
        c.insert(b, cached(), 40);
        // Re-insert `a` (same digest ⇒ interchangeable value): recency
        // refreshed, bytes unchanged.
        assert_eq!(c.insert(a, cached(), 40), 0);
        assert_eq!(c.bytes(), 80);
        assert_eq!(c.insert(d, cached(), 40), 1);
        assert!(c.get(&a).is_some());
        assert!(c.get(&b).is_none());
    }

    #[test]
    fn a_single_entry_can_fill_the_whole_budget() {
        let c = SketchCache::new(50);
        let (a, b) = (sha256(b"a"), sha256(b"b"));
        c.insert(a, cached(), 50);
        assert!(c.get(&a).is_some());
        // The next full-budget entry evicts the first.
        assert_eq!(c.insert(b, cached(), 50), 1);
        assert!(c.get(&a).is_none());
        assert!(c.get(&b).is_some());
    }
}
