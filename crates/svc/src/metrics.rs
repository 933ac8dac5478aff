//! The daemon's metrics surface.
//!
//! Lock-free atomic counters bumped from the accept loop, connection
//! handlers, and job workers, plus a coarse submit→certificate latency
//! histogram. Snapshots feed two consumers: the STATS protocol response
//! and the periodic one-line log the server emits while running. The
//! histogram's bucket bounds are powers of ten in milliseconds — queue
//! latency spans orders of magnitude, and order-of-magnitude is the
//! question operators actually ask.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Upper bounds (milliseconds, inclusive) of the latency buckets; the last
/// bucket is unbounded.
pub const LATENCY_BOUNDS_MS: [u64; 5] = [1, 10, 100, 1_000, 10_000];

/// Shared atomic counters. One instance lives for the server's lifetime.
#[derive(Debug, Default)]
pub struct Metrics {
    /// Accepted connections.
    pub connections: AtomicU64,
    /// Connections refused at the cap (answered with one ERROR frame).
    pub connections_refused: AtomicU64,
    /// Connections currently open (a gauge: incremented on accept,
    /// decremented on close).
    pub connections_live: AtomicU64,
    /// Times a connection's reads were paused because its in-flight
    /// response window filled (pipelining backpressure).
    pub window_stalls: AtomicU64,
    /// SUBMITs that arrived over the chunked streaming path.
    pub streaming_submits: AtomicU64,
    /// Frames rejected as malformed/oversized (connection dropped, server
    /// kept serving).
    pub frames_rejected: AtomicU64,
    /// SUBMIT requests accepted (including dedup hits).
    pub submits: AtomicU64,
    /// SUBMITs answered from an existing object + job.
    pub dedup_hits: AtomicU64,
    /// Jobs finished with a minted certificate.
    pub jobs_succeeded: AtomicU64,
    /// Jobs that exhausted their attempt budget (after all retries).
    pub jobs_exhausted: AtomicU64,
    /// Jobs cut short by the per-job wall-clock timeout.
    pub jobs_timed_out: AtomicU64,
    /// Jobs rejected before exploration (unknown bug, undecodable sketch).
    pub jobs_failed: AtomicU64,
    /// Job executions that panicked; each resolved its job as failed
    /// and the worker carried on.
    pub worker_panics: AtomicU64,
    /// Retry requeues.
    pub retries: AtomicU64,
    /// Total exploration attempts spent across all jobs.
    pub attempts: AtomicU64,
    /// Job executions whose sketch carried a ring-flush checkpoint —
    /// replay started from a retained-window boundary, not from genesis.
    pub jobs_from_checkpoint: AtomicU64,
    /// Records group-committed to the journal.
    pub journal_records: AtomicU64,
    /// `fdatasync` calls the journal issued — one per commit cohort, so
    /// `journal_records / journal_syncs` is the mean cohort size.
    pub journal_syncs: AtomicU64,
    /// Largest cohort a single sync covered (updated with `fetch_max`).
    pub journal_cohort_max: AtomicU64,
    /// Total microseconds commit leaders spent holding the door for
    /// entering appenders or company — what group commit costs in
    /// latency.
    pub journal_hold_us: AtomicU64,
    /// Journal appends that returned an error (submit refused, or a
    /// retry/result record lost for this process lifetime) — the "is the
    /// disk dying?" counter.
    pub journal_append_failures: AtomicU64,
    /// Job executions served a decoded sketch + index from the cache
    /// (no disk read, no SHA-256 re-verify, no decode).
    pub sketch_cache_hits: AtomicU64,
    /// Job executions that went to the store and decoded the sketch.
    pub sketch_cache_misses: AtomicU64,
    /// Cache entries evicted to fit the byte budget.
    pub sketch_cache_evictions: AtomicU64,
    /// Bytes the decode cache holds, as charged against its budget (a
    /// gauge, refreshed after every insert).
    pub sketch_cache_resident_bytes: AtomicU64,
    /// Sketches the decode cache holds (a gauge, refreshed with the one
    /// above).
    pub sketch_cache_entries: AtomicU64,
    /// Submit→terminal-status latency histogram.
    latency: [AtomicU64; LATENCY_BOUNDS_MS.len() + 1],
}

impl Metrics {
    /// A zeroed metrics block.
    pub fn new() -> Self {
        Metrics::default()
    }

    /// Records one job's submit→terminal latency.
    pub fn observe_latency(&self, elapsed: Duration) {
        let ms = elapsed.as_millis() as u64;
        let bucket = LATENCY_BOUNDS_MS
            .iter()
            .position(|&bound| ms <= bound)
            .unwrap_or(LATENCY_BOUNDS_MS.len());
        self.latency[bucket].fetch_add(1, Ordering::Relaxed);
    }

    /// A point-in-time copy of every counter.
    pub fn snapshot(&self) -> Snapshot {
        let load = |c: &AtomicU64| c.load(Ordering::Relaxed);
        Snapshot {
            connections: load(&self.connections),
            connections_refused: load(&self.connections_refused),
            connections_live: load(&self.connections_live),
            window_stalls: load(&self.window_stalls),
            streaming_submits: load(&self.streaming_submits),
            frames_rejected: load(&self.frames_rejected),
            submits: load(&self.submits),
            dedup_hits: load(&self.dedup_hits),
            jobs_succeeded: load(&self.jobs_succeeded),
            jobs_exhausted: load(&self.jobs_exhausted),
            jobs_timed_out: load(&self.jobs_timed_out),
            jobs_failed: load(&self.jobs_failed),
            worker_panics: load(&self.worker_panics),
            retries: load(&self.retries),
            attempts: load(&self.attempts),
            jobs_from_checkpoint: load(&self.jobs_from_checkpoint),
            journal_records: load(&self.journal_records),
            journal_syncs: load(&self.journal_syncs),
            journal_cohort_max: load(&self.journal_cohort_max),
            journal_hold_us: load(&self.journal_hold_us),
            journal_append_failures: load(&self.journal_append_failures),
            sketch_cache_hits: load(&self.sketch_cache_hits),
            sketch_cache_misses: load(&self.sketch_cache_misses),
            sketch_cache_evictions: load(&self.sketch_cache_evictions),
            sketch_cache_resident_bytes: load(&self.sketch_cache_resident_bytes),
            sketch_cache_entries: load(&self.sketch_cache_entries),
            latency: std::array::from_fn(|i| load(&self.latency[i])),
        }
    }
}

/// A consistent-enough copy of the counters (individually atomic reads).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Snapshot {
    pub connections: u64,
    pub connections_refused: u64,
    pub connections_live: u64,
    pub window_stalls: u64,
    pub streaming_submits: u64,
    pub frames_rejected: u64,
    pub submits: u64,
    pub dedup_hits: u64,
    pub jobs_succeeded: u64,
    pub jobs_exhausted: u64,
    pub jobs_timed_out: u64,
    pub jobs_failed: u64,
    pub worker_panics: u64,
    pub retries: u64,
    pub attempts: u64,
    pub jobs_from_checkpoint: u64,
    pub journal_records: u64,
    pub journal_syncs: u64,
    pub journal_cohort_max: u64,
    pub journal_hold_us: u64,
    pub journal_append_failures: u64,
    pub sketch_cache_hits: u64,
    pub sketch_cache_misses: u64,
    pub sketch_cache_evictions: u64,
    pub sketch_cache_resident_bytes: u64,
    pub sketch_cache_entries: u64,
    pub latency: [u64; LATENCY_BOUNDS_MS.len() + 1],
}

/// A percentile read off the coarse latency histogram: the bucket the
/// cumulative count crosses in, not an interpolated value — honest about
/// the histogram's order-of-magnitude resolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LatencyEstimate {
    /// No observations yet.
    Empty,
    /// The percentile falls in a bounded bucket: at most this many ms.
    AtMostMs(u64),
    /// The percentile falls in the unbounded bucket: over this many ms.
    OverMs(u64),
}

impl std::fmt::Display for LatencyEstimate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LatencyEstimate::Empty => write!(f, "n/a"),
            LatencyEstimate::AtMostMs(ms) => write!(f, "<={ms}ms"),
            LatencyEstimate::OverMs(ms) => write!(f, ">{ms}ms"),
        }
    }
}

impl Snapshot {
    /// Jobs that reached any terminal status.
    pub fn jobs_finished(&self) -> u64 {
        self.jobs_succeeded + self.jobs_exhausted + self.jobs_timed_out + self.jobs_failed
    }

    /// Mean records per journal `fdatasync` — the group-commit win, as a
    /// ratio (1.0 = per-record syncing, the PR 6 behavior).
    pub fn journal_mean_cohort(&self) -> f64 {
        if self.journal_syncs == 0 {
            0.0
        } else {
            self.journal_records as f64 / self.journal_syncs as f64
        }
    }

    /// The bucket the `p`th percentile (0 < p <= 100) of observed
    /// latencies falls in.
    pub fn latency_percentile(&self, p: f64) -> LatencyEstimate {
        let total: u64 = self.latency.iter().sum();
        if total == 0 {
            return LatencyEstimate::Empty;
        }
        // The rank of the percentile observation, 1-based, ceiling — the
        // nearest-rank definition (p99 of 100 samples is sample #99).
        let rank = ((p / 100.0) * total as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, count) in self.latency.iter().enumerate() {
            seen += count;
            if seen >= rank {
                return match LATENCY_BOUNDS_MS.get(i) {
                    Some(&bound) => LatencyEstimate::AtMostMs(bound),
                    None => LatencyEstimate::OverMs(*LATENCY_BOUNDS_MS.last().unwrap()),
                };
            }
        }
        unreachable!("rank is bounded by the total")
    }

    /// The compact one-line form used by the periodic server log.
    pub fn log_line(&self) -> String {
        format!(
            "svc: conns={} (live {} / refused {}) submits={} (dedup {}, streamed {}) done={} (ok {} / exhausted {} / timeout {} / failed {}) retries={} attempts={} ckpt-jobs={} stalls={} rejected-frames={} journal={}r/{}s (mean {:.1}, max {}, failures {}) cache={}h/{}m (evicted {}, {} resident / {}B) p50={} p95={} p99={}",
            self.connections,
            self.connections_live,
            self.connections_refused,
            self.submits,
            self.dedup_hits,
            self.streaming_submits,
            self.jobs_finished(),
            self.jobs_succeeded,
            self.jobs_exhausted,
            self.jobs_timed_out,
            self.jobs_failed,
            self.retries,
            self.attempts,
            self.jobs_from_checkpoint,
            self.window_stalls,
            self.frames_rejected,
            self.journal_records,
            self.journal_syncs,
            self.journal_mean_cohort(),
            self.journal_cohort_max,
            self.journal_append_failures,
            self.sketch_cache_hits,
            self.sketch_cache_misses,
            self.sketch_cache_evictions,
            self.sketch_cache_entries,
            self.sketch_cache_resident_bytes,
            self.latency_percentile(50.0),
            self.latency_percentile(95.0),
            self.latency_percentile(99.0),
        )
    }
}

impl std::fmt::Display for Snapshot {
    /// The multi-line rendering served to STATS clients.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "connections        {}", self.connections)?;
        writeln!(f, "connections_refused {}", self.connections_refused)?;
        writeln!(f, "connections_live   {}", self.connections_live)?;
        writeln!(f, "window_stalls      {}", self.window_stalls)?;
        writeln!(f, "streaming_submits  {}", self.streaming_submits)?;
        writeln!(f, "frames_rejected    {}", self.frames_rejected)?;
        writeln!(f, "submits            {}", self.submits)?;
        writeln!(f, "dedup_hits         {}", self.dedup_hits)?;
        writeln!(f, "jobs_succeeded     {}", self.jobs_succeeded)?;
        writeln!(f, "jobs_exhausted     {}", self.jobs_exhausted)?;
        writeln!(f, "jobs_timed_out     {}", self.jobs_timed_out)?;
        writeln!(f, "jobs_failed        {}", self.jobs_failed)?;
        writeln!(f, "worker_panics      {}", self.worker_panics)?;
        writeln!(f, "retries            {}", self.retries)?;
        writeln!(f, "attempts           {}", self.attempts)?;
        writeln!(f, "jobs_from_checkpoint {}", self.jobs_from_checkpoint)?;
        writeln!(f, "journal_records    {}", self.journal_records)?;
        writeln!(f, "journal_syncs      {}", self.journal_syncs)?;
        writeln!(f, "journal_mean_cohort {:.2}", self.journal_mean_cohort())?;
        writeln!(f, "journal_cohort_max {}", self.journal_cohort_max)?;
        writeln!(f, "journal_hold_us    {}", self.journal_hold_us)?;
        writeln!(f, "journal_append_failures {}", self.journal_append_failures)?;
        writeln!(f, "sketch_cache_hits  {}", self.sketch_cache_hits)?;
        writeln!(f, "sketch_cache_misses {}", self.sketch_cache_misses)?;
        writeln!(f, "sketch_cache_evictions {}", self.sketch_cache_evictions)?;
        writeln!(
            f,
            "sketch_cache_resident_bytes {}",
            self.sketch_cache_resident_bytes
        )?;
        writeln!(f, "sketch_cache_entries {}", self.sketch_cache_entries)?;
        writeln!(f, "latency_p50        {}", self.latency_percentile(50.0))?;
        writeln!(f, "latency_p95        {}", self.latency_percentile(95.0))?;
        writeln!(f, "latency_p99        {}", self.latency_percentile(99.0))?;
        write!(f, "latency_ms        ")?;
        for (i, count) in self.latency.iter().enumerate() {
            match LATENCY_BOUNDS_MS.get(i) {
                Some(bound) => write!(f, " <={bound}:{count}")?,
                None => write!(f, " inf:{count}")?,
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_lands_in_the_right_bucket() {
        let m = Metrics::new();
        m.observe_latency(Duration::from_micros(500)); // <=1ms
        m.observe_latency(Duration::from_millis(10)); // <=10ms (inclusive)
        m.observe_latency(Duration::from_millis(11)); // <=100ms
        m.observe_latency(Duration::from_secs(60)); // inf
        assert_eq!(m.snapshot().latency, [1, 1, 1, 0, 0, 1]);
    }

    #[test]
    fn percentiles_follow_the_nearest_rank_rule() {
        let m = Metrics::new();
        assert_eq!(m.snapshot().latency_percentile(99.0), LatencyEstimate::Empty);
        // 98 fast observations, one mid, one catastrophic: p50 stays in
        // the fastest bucket, p99 lands on the mid one, p100 the tail.
        for _ in 0..98 {
            m.observe_latency(Duration::from_micros(100));
        }
        m.observe_latency(Duration::from_millis(500));
        m.observe_latency(Duration::from_secs(100));
        let snap = m.snapshot();
        assert_eq!(snap.latency_percentile(50.0), LatencyEstimate::AtMostMs(1));
        assert_eq!(snap.latency_percentile(98.0), LatencyEstimate::AtMostMs(1));
        assert_eq!(
            snap.latency_percentile(99.0),
            LatencyEstimate::AtMostMs(1_000)
        );
        assert_eq!(
            snap.latency_percentile(100.0),
            LatencyEstimate::OverMs(10_000)
        );
        assert_eq!(snap.latency_percentile(100.0).to_string(), ">10000ms");
    }

    #[test]
    fn snapshot_renders_both_forms() {
        let m = Metrics::new();
        m.submits.fetch_add(3, Ordering::Relaxed);
        m.dedup_hits.fetch_add(1, Ordering::Relaxed);
        m.jobs_succeeded.fetch_add(2, Ordering::Relaxed);
        let snap = m.snapshot();
        assert_eq!(snap.jobs_finished(), 2);
        assert!(snap.log_line().contains("submits=3 (dedup 1, streamed 0)"));
        assert!(snap.log_line().contains("p99=n/a"));
        assert!(snap.log_line().contains("(evicted 0, 0 resident / 0B)"));
        let long = snap.to_string();
        assert!(long.contains("submits            3"));
        assert!(long.contains("sketch_cache_resident_bytes 0"));
        assert!(long.contains("sketch_cache_entries 0"));
        assert!(long.contains("connections_refused 0"));
        assert!(long.contains("window_stalls      0"));
        assert!(long.contains("worker_panics      0"));
        assert!(long.contains("journal_hold_us    0"));
        assert!(long.contains("latency_p99        n/a"));
        assert!(long.contains("latency_ms"));
    }
}
