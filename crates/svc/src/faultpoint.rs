//! Deterministic crash-point injection for the store and journal write
//! paths.
//!
//! A *fault point* names one place a process death can land inside a
//! durability-critical write sequence: before the staging write, between
//! write and fsync, between rename and the directory sync, and so on.
//! The store and journal call [`Faults::check`] (and, for torn writes,
//! [`Faults::torn`]) at every such point; production code passes
//! [`Faults::none`], which compiles down to an always-`Ok` pointer check.
//!
//! Tests arm exactly one fault — `(point, mode, nth hit)` — and drive a
//! write until it "crashes" (returns the injected error after leaving the
//! same on-disk state a SIGKILL at that instruction would). Dropping the
//! store/journal and reopening the same directory then *is* the restart,
//! and recovery invariants can be asserted per crash point:
//! [`FaultPoint::ALL`] enumerates the matrix so a test can prove every
//! point is covered.
//!
//! This simulates the crash *schedule* deterministically; the
//! `pres-torture` binary complements it by killing the real daemon
//! process at seeded wall-clock points, where the kernel — not this
//! module — decides what was durable.

use pres_tvm::sync::Mutex;
use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// One injectable crash point in a durability-critical write path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultPoint {
    /// `store::put`, before any staging byte is written: the crash leaves
    /// no trace (or an empty tmp file).
    StoreStageCrash,
    /// `store::put`, mid-staging-write: a torn tmp file exists, never
    /// published. Armed with [`FaultMode::Torn`].
    StoreStageTorn,
    /// `store::put`, staging bytes written but not yet fsynced.
    StoreTmpSyncCrash,
    /// `store::put`, staging file durable but `rename(2)` not yet issued.
    StoreRenameCrash,
    /// `store::put`, object renamed into place but the directory entries
    /// not yet fsynced.
    StoreDirSyncCrash,
    /// `journal::append`, before any frame byte is written.
    JournalWriteCrash,
    /// `journal::append`, mid-frame-write: a torn record at the tail.
    /// Armed with [`FaultMode::Torn`].
    JournalWriteTorn,
    /// `journal::append`, frame written but `fdatasync` not yet issued.
    JournalSyncCrash,
    /// Group commit: the leader claimed a cohort but has not yet written
    /// any of its bytes — the whole cohort vanishes, none of it acked.
    JournalCohortWriteCrash,
    /// Group commit: every cohort frame is written but the cohort's single
    /// `fdatasync` has not been issued — the batch-boundary twin of
    /// [`FaultPoint::JournalSyncCrash`]. Nothing in the cohort was acked,
    /// so the records may surface after replay (as unacknowledged work)
    /// or not, but never as garbage.
    JournalCohortSyncCrash,
    /// `flush::write_flush`, before any staging byte is written: the
    /// ring flush leaves no trace (or an empty tmp file).
    FlushStageCrash,
    /// `flush::write_flush`, mid-staging-write: a torn tmp file exists,
    /// never renamed into place. Armed with [`FaultMode::Torn`].
    FlushStageTorn,
    /// `flush::write_flush`, staging bytes written but not yet fsynced.
    FlushTmpSyncCrash,
    /// `flush::write_flush`, staging file durable but `rename(2)` not
    /// yet issued.
    FlushRenameCrash,
    /// `flush::write_flush`, sketch renamed into place but the directory
    /// entries not yet fsynced.
    FlushDirSyncCrash,
}

impl FaultPoint {
    /// Every crash point, in write-path order — the coverage matrix.
    pub const ALL: [FaultPoint; 15] = [
        FaultPoint::StoreStageCrash,
        FaultPoint::StoreStageTorn,
        FaultPoint::StoreTmpSyncCrash,
        FaultPoint::StoreRenameCrash,
        FaultPoint::StoreDirSyncCrash,
        FaultPoint::JournalWriteCrash,
        FaultPoint::JournalWriteTorn,
        FaultPoint::JournalSyncCrash,
        FaultPoint::JournalCohortWriteCrash,
        FaultPoint::JournalCohortSyncCrash,
        FaultPoint::FlushStageCrash,
        FaultPoint::FlushStageTorn,
        FaultPoint::FlushTmpSyncCrash,
        FaultPoint::FlushRenameCrash,
        FaultPoint::FlushDirSyncCrash,
    ];

    /// Stable human-readable name (used in injected-error messages).
    pub fn name(self) -> &'static str {
        match self {
            FaultPoint::StoreStageCrash => "store.put.stage",
            FaultPoint::StoreStageTorn => "store.put.stage-torn",
            FaultPoint::StoreTmpSyncCrash => "store.put.tmp-sync",
            FaultPoint::StoreRenameCrash => "store.put.rename",
            FaultPoint::StoreDirSyncCrash => "store.put.dir-sync",
            FaultPoint::JournalWriteCrash => "journal.append.write",
            FaultPoint::JournalWriteTorn => "journal.append.torn",
            FaultPoint::JournalSyncCrash => "journal.append.sync",
            FaultPoint::JournalCohortWriteCrash => "journal.commit.cohort-write",
            FaultPoint::JournalCohortSyncCrash => "journal.commit.cohort-sync",
            FaultPoint::FlushStageCrash => "flush.write.stage",
            FaultPoint::FlushStageTorn => "flush.write.stage-torn",
            FaultPoint::FlushTmpSyncCrash => "flush.write.tmp-sync",
            FaultPoint::FlushRenameCrash => "flush.write.rename",
            FaultPoint::FlushDirSyncCrash => "flush.write.dir-sync",
        }
    }

    /// Whether this point models a torn (partial) write rather than a
    /// clean stop. Torn points must be armed with [`FaultMode::Torn`].
    pub fn is_torn(self) -> bool {
        matches!(
            self,
            FaultPoint::StoreStageTorn | FaultPoint::JournalWriteTorn | FaultPoint::FlushStageTorn
        )
    }
}

/// How an armed fault fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultMode {
    /// Stop before the guarded operation: nothing of it reaches disk.
    Crash,
    /// Perform a prefix of the guarded write (`keep` bytes, clamped to
    /// the write length), then stop.
    Torn { keep: usize },
}

#[derive(Debug, Clone, Copy)]
struct Armed {
    point: FaultPoint,
    mode: FaultMode,
    /// Fires on the hit that decrements this to zero (1 = next hit).
    countdown: u64,
}

#[derive(Debug)]
struct Inner {
    armed: Mutex<Option<Armed>>,
    fired: AtomicBool,
}

/// A handle to the (at most one) armed fault, shared by every component
/// whose write path it can interrupt. Cloning shares the same fault.
#[derive(Debug, Clone, Default)]
pub struct Faults(Option<Arc<Inner>>);

/// The error an injected crash surfaces as. Callers treat it like any
/// other I/O failure; tests match on the message prefix.
pub const INJECTED: &str = "faultpoint: injected crash at ";

fn injected(point: FaultPoint) -> io::Error {
    io::Error::other(format!("{INJECTED}{}", point.name()))
}

impl Faults {
    /// The production handle: no faults, ever.
    pub fn none() -> Faults {
        Faults(None)
    }

    /// An injectable (initially unarmed) handle for tests and harnesses.
    pub fn new() -> Faults {
        Faults(Some(Arc::new(Inner {
            armed: Mutex::new(None),
            fired: AtomicBool::new(false),
        })))
    }

    /// Arms `point` to fire on its `nth` hit (1 = the very next one),
    /// replacing any previously armed fault and clearing [`fired`].
    ///
    /// Panics on a [`Faults::none`] handle (arming nothing is a test
    /// bug, not a runtime condition) and on a mode/point mismatch.
    ///
    /// [`fired`]: Faults::fired
    pub fn arm(&self, point: FaultPoint, mode: FaultMode, nth: u64) {
        assert!(
            point.is_torn() == matches!(mode, FaultMode::Torn { .. }),
            "fault point {} armed with mismatched mode {mode:?}",
            point.name()
        );
        assert!(nth >= 1, "nth is 1-based");
        let inner = self.0.as_ref().expect("arming a Faults::none() handle");
        *inner.armed.lock() = Some(Armed {
            point,
            mode,
            countdown: nth,
        });
        inner.fired.store(false, Ordering::SeqCst);
    }

    /// Whether the armed fault has fired since it was armed.
    pub fn fired(&self) -> bool {
        self.0
            .as_ref()
            .is_some_and(|i| i.fired.load(Ordering::SeqCst))
    }

    /// A crash-mode hook: returns the injected error when the armed
    /// crash fault's countdown reaches this hit of `point`.
    pub fn check(&self, point: FaultPoint) -> io::Result<()> {
        let Some(inner) = &self.0 else { return Ok(()) };
        let mut armed = inner.armed.lock();
        match armed.as_mut() {
            Some(a) if a.point == point && a.mode == FaultMode::Crash => {
                a.countdown -= 1;
                if a.countdown == 0 {
                    *armed = None;
                    inner.fired.store(true, Ordering::SeqCst);
                    return Err(injected(point));
                }
                Ok(())
            }
            _ => Ok(()),
        }
    }

    /// A torn-write hook: when the armed torn fault's countdown reaches
    /// this hit of `point`, returns how many prefix bytes of the
    /// `len`-byte write to perform before crashing.
    pub fn torn(&self, point: FaultPoint, len: usize) -> Option<usize> {
        let inner = self.0.as_ref()?;
        let mut armed = inner.armed.lock();
        match armed.as_mut() {
            Some(a) if a.point == point => {
                let FaultMode::Torn { keep } = a.mode else {
                    return None;
                };
                a.countdown -= 1;
                if a.countdown == 0 {
                    *armed = None;
                    inner.fired.store(true, Ordering::SeqCst);
                    return Some(keep.min(len));
                }
                None
            }
            _ => None,
        }
    }

    /// The error a torn write returns after performing its prefix.
    pub fn torn_error(point: FaultPoint) -> io::Error {
        injected(point)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_handle_never_fires() {
        let f = Faults::none();
        for p in FaultPoint::ALL {
            if !p.is_torn() {
                assert!(f.check(p).is_ok());
            }
            assert_eq!(f.torn(p, 100), None);
        }
        assert!(!f.fired());
    }

    #[test]
    fn crash_fires_on_the_nth_hit_then_disarms() {
        let f = Faults::new();
        f.arm(FaultPoint::StoreRenameCrash, FaultMode::Crash, 3);
        assert!(f.check(FaultPoint::StoreRenameCrash).is_ok());
        // Other points never consume the countdown.
        assert!(f.check(FaultPoint::StoreStageCrash).is_ok());
        assert!(f.check(FaultPoint::StoreRenameCrash).is_ok());
        let err = f.check(FaultPoint::StoreRenameCrash).unwrap_err();
        assert!(err.to_string().contains("store.put.rename"), "{err}");
        assert!(f.fired());
        // One-shot: the same point is clean afterwards.
        assert!(f.check(FaultPoint::StoreRenameCrash).is_ok());
    }

    #[test]
    fn torn_returns_clamped_prefix_length() {
        let f = Faults::new();
        f.arm(
            FaultPoint::JournalWriteTorn,
            FaultMode::Torn { keep: 1000 },
            1,
        );
        assert_eq!(f.torn(FaultPoint::JournalWriteTorn, 10), Some(10));
        assert!(f.fired());
        f.arm(FaultPoint::JournalWriteTorn, FaultMode::Torn { keep: 3 }, 1);
        assert_eq!(f.torn(FaultPoint::JournalWriteTorn, 10), Some(3));
    }

    #[test]
    #[should_panic(expected = "mismatched mode")]
    fn torn_point_rejects_crash_mode() {
        Faults::new().arm(FaultPoint::StoreStageTorn, FaultMode::Crash, 1);
    }

    #[test]
    fn clones_share_the_armed_fault() {
        let f = Faults::new();
        let g = f.clone();
        f.arm(FaultPoint::JournalSyncCrash, FaultMode::Crash, 1);
        assert!(g.check(FaultPoint::JournalSyncCrash).is_err());
        assert!(f.fired());
    }
}
