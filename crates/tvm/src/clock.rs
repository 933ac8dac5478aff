//! Virtual-time accounting: work, span, serial sections, and makespan.
//!
//! The VM applies operations serially (one at a time, in scheduler order),
//! but models a `P`-processor machine for *timing*. Three quantities are
//! accumulated during a run:
//!
//! * **work** — the sum of all costs across all threads;
//! * **span** — the largest single-thread total (the critical path through
//!   one thread; a lower bound no number of processors can beat);
//! * **serial** — the sum of costs that must execute inside a single global
//!   serialization point (claiming slots in a total-order log).
//!
//! The *makespan* estimate is the classic scheduling lower bound
//! `max(work / P, span, serial)`. Recording overhead for a mechanism is
//! `makespan(recorded run) / makespan(native run)`, which reproduces both
//! the per-mechanism overhead ordering and the RW-vs-SYNC scalability split
//! of the paper (DESIGN.md §2, experiments E2/E5).

use crate::ids::ThreadId;

/// Accumulates virtual time for one run.
#[derive(Debug, Clone, Default)]
pub struct VClock {
    per_thread: Vec<u64>,
    work: u64,
    serial: u64,
}

impl VClock {
    /// Creates an empty clock.
    pub fn new() -> Self {
        Self::default()
    }

    /// Charges `cost` units of ordinary work to `tid`.
    pub fn charge(&mut self, tid: ThreadId, cost: u64) {
        let idx = tid.index();
        if idx >= self.per_thread.len() {
            self.per_thread.resize(idx + 1, 0);
        }
        self.per_thread[idx] += cost;
        self.work += cost;
    }

    /// Charges `cost` units that execute inside the global serialization
    /// point (in addition to being work on `tid`).
    pub fn charge_serial(&mut self, tid: ThreadId, cost: u64) {
        self.charge(tid, cost);
        self.serial += cost;
    }

    /// Total work across all threads.
    pub fn work(&self) -> u64 {
        self.work
    }

    /// The largest per-thread total.
    pub fn span(&self) -> u64 {
        self.per_thread.iter().copied().max().unwrap_or(0)
    }

    /// Total serialized work.
    pub fn serial(&self) -> u64 {
        self.serial
    }

    /// Virtual time accrued by one thread so far.
    pub fn thread_time(&self, tid: ThreadId) -> u64 {
        self.per_thread.get(tid.index()).copied().unwrap_or(0)
    }

    /// Estimated completion time on `processors` cores.
    ///
    /// # Panics
    ///
    /// Panics if `processors` is zero.
    pub fn makespan(&self, processors: u32) -> u64 {
        assert!(processors > 0, "a machine needs at least one processor");
        let area = self.work.div_ceil(u64::from(processors));
        area.max(self.span()).max(self.serial)
    }

    /// A coarse monotonically increasing "now" used by the simulated clock
    /// syscall: total work so far (independent of `P`, which keeps recorded
    /// timestamps comparable across machine sizes).
    pub fn now(&self) -> u64 {
        self.work
    }

    /// Serializes the clock into a snapshot section
    /// (see [`crate::snapshot`]).
    pub fn snapshot_into(&self, e: &mut crate::snapshot::Enc) {
        e.u64(self.per_thread.len() as u64);
        for t in &self.per_thread {
            e.u64(*t);
        }
        e.u64(self.work);
        e.u64(self.serial);
    }
}

/// Timing summary of a completed run, as reported in [`crate::vm::RunOutcome`].
#[derive(Debug, Clone)]
pub struct TimeReport {
    /// Number of simulated processors.
    pub processors: u32,
    /// Total work in virtual instruction units.
    pub work: u64,
    /// Critical path through a single thread.
    pub span: u64,
    /// Globally serialized work (total-order log appends).
    pub serial: u64,
    /// Estimated makespan on `processors` cores.
    pub makespan: u64,
}

impl TimeReport {
    /// Builds a report from a clock.
    pub fn from_clock(clock: &VClock, processors: u32) -> Self {
        TimeReport {
            processors,
            work: clock.work(),
            span: clock.span(),
            serial: clock.serial(),
            makespan: clock.makespan(processors),
        }
    }

    /// The slowdown of this run relative to a baseline run of the same
    /// program (typically the uninstrumented native run): `makespan /
    /// baseline.makespan`.
    pub fn slowdown_vs(&self, baseline: &TimeReport) -> f64 {
        if baseline.makespan == 0 {
            return 1.0;
        }
        self.makespan as f64 / baseline.makespan as f64
    }

    /// Recording overhead as a percentage: `(slowdown - 1) * 100`, the
    /// quantity the paper's overhead figures report.
    pub fn overhead_pct_vs(&self, baseline: &TimeReport) -> f64 {
        (self.slowdown_vs(baseline) - 1.0).max(0.0) * 100.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn work_and_span_accumulate() {
        let mut c = VClock::new();
        c.charge(ThreadId(0), 10);
        c.charge(ThreadId(1), 30);
        c.charge(ThreadId(0), 5);
        assert_eq!(c.work(), 45);
        assert_eq!(c.span(), 30);
        assert_eq!(c.thread_time(ThreadId(0)), 15);
        assert_eq!(c.thread_time(ThreadId(7)), 0);
    }

    #[test]
    fn makespan_is_area_bound_when_parallel() {
        let mut c = VClock::new();
        for t in 0..4 {
            c.charge(ThreadId(t), 100);
        }
        // 400 work on 4 cores with balanced threads: area bound dominates.
        assert_eq!(c.makespan(4), 100);
        assert_eq!(c.makespan(2), 200);
        assert_eq!(c.makespan(1), 400);
    }

    #[test]
    fn makespan_is_span_bound_when_imbalanced() {
        let mut c = VClock::new();
        c.charge(ThreadId(0), 1000);
        c.charge(ThreadId(1), 10);
        assert_eq!(c.makespan(8), 1000);
    }

    #[test]
    fn serial_work_floors_the_makespan() {
        let mut c = VClock::new();
        for t in 0..8 {
            c.charge(ThreadId(t), 100);
            c.charge_serial(ThreadId(t), 50);
        }
        // work = 1200, serial = 400. On 16 cores the area bound is 75 but
        // the serial section cannot be parallelized.
        assert_eq!(c.serial(), 400);
        assert_eq!(c.makespan(16), 400);
    }

    #[test]
    fn serial_charge_is_also_work() {
        let mut c = VClock::new();
        c.charge_serial(ThreadId(0), 7);
        assert_eq!(c.work(), 7);
        assert_eq!(c.span(), 7);
    }

    #[test]
    #[should_panic(expected = "at least one processor")]
    fn zero_processors_is_rejected() {
        VClock::new().makespan(0);
    }

    #[test]
    fn slowdown_and_overhead() {
        let mut native = VClock::new();
        native.charge(ThreadId(0), 100);
        let mut rec = VClock::new();
        rec.charge(ThreadId(0), 250);
        let nr = TimeReport::from_clock(&native, 1);
        let rr = TimeReport::from_clock(&rec, 1);
        assert!((rr.slowdown_vs(&nr) - 2.5).abs() < 1e-9);
        assert!((rr.overhead_pct_vs(&nr) - 150.0).abs() < 1e-9);
        // A faster run reports zero overhead, not negative.
        assert_eq!(nr.overhead_pct_vs(&rr), 0.0);
    }

    #[test]
    fn rw_style_serial_recording_scales_worse_than_sync_style() {
        // Miniature of experiment E5: 8 threads, heavy memory traffic.
        let build = |serial_per_event: u64| {
            let mut c = VClock::new();
            for t in 0..8u32 {
                for _ in 0..1000 {
                    c.charge(ThreadId(t), 2);
                    if serial_per_event > 0 {
                        c.charge_serial(ThreadId(t), serial_per_event);
                    }
                }
            }
            c
        };
        let native = build(0);
        let rw = build(40);
        let over_p2 = rw.makespan(2) as f64 / native.makespan(2) as f64;
        let over_p16 = rw.makespan(16) as f64 / native.makespan(16) as f64;
        assert!(
            over_p16 > over_p2 * 2.0,
            "serialized recording must hurt more at higher core counts: {over_p2} vs {over_p16}"
        );
    }
}
