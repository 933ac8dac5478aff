//! The job queue and its worker pool.
//!
//! A *job* is one reproduction request: a bug id from the evaluation
//! corpus plus the digest of a sketch already ingested into the store.
//! Jobs are FIFO, deduplicated on `(bug, sketch)` — resubmitting the same
//! failure joins the existing job (or its finished result) instead of
//! burning a second exploration — and journaled before acknowledgement so
//! a restarted daemon resumes exactly the unfinished work.
//!
//! Every exploration a worker thread runs
//! ([`explore::reproduce_with_index`]) hosts its vthreads on that thread's
//! own warm executor pool (see [`pres_tvm::vm::run`]), so steady-state job
//! turnover performs zero OS thread spawns. The decoded sketch and its
//! replay index come from the digest-keyed
//! [`SketchCache`], so repeated executions over one sketch (retries,
//! multi-bug jobs, duplicate submissions) skip the store read, the
//! SHA-256 re-verification, the decode, and the index build entirely.
//! Exploration runs the serial loop (the same path as
//! [`pres_core::Pres::reproduce`] with default settings), which keeps a
//! daemon-minted certificate byte-identical to an in-process
//! reproduction of the same sketch — cached or not.
//!
//! A job that exhausts its attempt budget is retried with exponential
//! backoff up to [`QueueConfig::max_retries`] times; each retry offsets
//! the exploration base seed, so a retry searches a fresh neighborhood
//! instead of deterministically repeating the failed one. A job that
//! exceeds [`QueueConfig::job_timeout`] is stopped cooperatively via
//! [`StopToken`] and marked terminal. Shutdown is a drain: workers finish
//! the jobs they are running, queued jobs stay journaled for the next
//! start.

use crate::cache::{CachedSketch, SketchCache};
use crate::digest::Digest;
use crate::faultpoint::Faults;
use crate::journal::{GroupCommit, Journal, Record};
use crate::metrics::Metrics;
use crate::store::Store;
use crate::wire;
use pres_apps::registry::all_bugs;
use pres_core::codec::decode_index;
use pres_core::explore::{self, ExploreConfig, StopToken};
use pres_core::oracle::StatusOracle;
use pres_core::sketch::Sketch;
use pres_tvm::bytes::{DecodeError, Reader};
use pres_tvm::sync::{Condvar, Mutex};
use pres_tvm::vm::VmConfig;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::io;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Where a job stands. `Queued`/`Running` are transient; the rest are
/// terminal and journaled.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobStatus {
    /// Waiting for a worker. `retries` counts requeues already performed.
    Queued { retries: u32 },
    /// An exploration is running right now.
    Running,
    /// Reproduced: the certificate is in the store under `certificate`.
    Succeeded { attempts: u32, certificate: Digest },
    /// Every attempt budget (including retries) spent without reproducing.
    Exhausted { attempts: u32 },
    /// The per-job wall-clock timeout tripped mid-search.
    TimedOut { attempts: u32 },
    /// Rejected before exploration could start.
    Failed { message: String },
}

impl JobStatus {
    /// Whether no further transition will happen.
    pub fn is_terminal(&self) -> bool {
        !matches!(self, JobStatus::Queued { .. } | JobStatus::Running)
    }

    /// Appends the wire form (shared by the journal and the protocol).
    pub fn encode(&self, out: &mut Vec<u8>) -> Result<(), wire::LenOverflow> {
        match self {
            JobStatus::Queued { retries } => {
                out.push(0);
                wire::put_u32(out, *retries);
            }
            JobStatus::Running => out.push(1),
            JobStatus::Succeeded {
                attempts,
                certificate,
            } => {
                out.push(2);
                wire::put_u32(out, *attempts);
                wire::put_digest(out, certificate);
            }
            JobStatus::Exhausted { attempts } => {
                out.push(3);
                wire::put_u32(out, *attempts);
            }
            JobStatus::TimedOut { attempts } => {
                out.push(4);
                wire::put_u32(out, *attempts);
            }
            JobStatus::Failed { message } => {
                out.push(5);
                wire::put_str(out, message)?;
            }
        }
        Ok(())
    }

    /// Decodes the wire form.
    pub fn decode(r: &mut Reader<'_>) -> Result<JobStatus, DecodeError> {
        Ok(match r.u8()? {
            0 => JobStatus::Queued {
                retries: r.be_u32()?,
            },
            1 => JobStatus::Running,
            2 => JobStatus::Succeeded {
                attempts: r.be_u32()?,
                certificate: Digest(r.array()?),
            },
            3 => JobStatus::Exhausted {
                attempts: r.be_u32()?,
            },
            4 => JobStatus::TimedOut {
                attempts: r.be_u32()?,
            },
            5 => JobStatus::Failed {
                message: r.be_str()?.to_string(),
            },
            other => return Err(r.err(format!("unknown job status {other}"))),
        })
    }
}

impl std::fmt::Display for JobStatus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobStatus::Queued { retries: 0 } => write!(f, "queued"),
            JobStatus::Queued { retries } => write!(f, "queued (retry {retries})"),
            JobStatus::Running => write!(f, "running"),
            JobStatus::Succeeded {
                attempts,
                certificate,
            } => write!(f, "succeeded after {attempts} attempt(s); certificate {certificate}"),
            JobStatus::Exhausted { attempts } => {
                write!(f, "exhausted {attempts} attempt(s) without reproducing")
            }
            JobStatus::TimedOut { attempts } => {
                write!(f, "timed out after {attempts} attempt(s)")
            }
            JobStatus::Failed { message } => write!(f, "failed: {message}"),
        }
    }
}

/// Queue tuning.
#[derive(Debug, Clone)]
pub struct QueueConfig {
    /// Worker threads executing jobs.
    pub workers: usize,
    /// Attempt budget per exploration try.
    pub max_attempts: u32,
    /// Wall-clock budget per exploration try.
    pub job_timeout: Duration,
    /// Requeues allowed after the budget is exhausted without success.
    pub max_retries: u32,
    /// Backoff before retry `r` is eligible: `retry_backoff << (r - 1)`.
    pub retry_backoff: Duration,
    /// Most records one journal `fdatasync` may cover (group commit).
    /// `1` syncs every record on its own, before its append returns.
    pub journal_batch: usize,
    /// How long a commit leader holds a cohort open for concurrent
    /// appenders to join (`0` = commit immediately; concurrent appends
    /// still batch opportunistically). A leader that sees no other
    /// appender skips the hold and syncs at once, so light load reads
    /// ≈ 1 record per sync by design (see [`crate::journal`]).
    pub journal_hold: Duration,
    /// Byte budget of the digest-keyed sketch decode cache (`0` disables
    /// it — every execution re-reads, re-verifies, and re-decodes).
    pub sketch_cache_bytes: u64,
}

impl Default for QueueConfig {
    fn default() -> Self {
        QueueConfig {
            workers: 1,
            max_attempts: 1000,
            job_timeout: Duration::from_secs(60),
            max_retries: 2,
            retry_backoff: Duration::from_millis(50),
            journal_batch: GroupCommit::default().max_records,
            journal_hold: GroupCommit::default().max_hold,
            sketch_cache_bytes: 64 << 20,
        }
    }
}

/// One job's bookkeeping.
#[derive(Debug, Clone)]
struct Job {
    bug: String,
    sketch: Digest,
    status: JobStatus,
    submitted: Instant,
}

/// The state every worker and connection handler shares under one lock.
struct Shared {
    jobs: BTreeMap<u64, Job>,
    /// `(bug, sketch digest)` → job id: the dedup index.
    dedup: BTreeMap<(String, Digest), u64>,
    /// `(bug, sketch digest)` keys whose SUBMIT record is being journaled
    /// right now. A concurrent duplicate submit must wait for the
    /// original's sync (joining it before would acknowledge a job whose
    /// record may never become durable) — see [`JobQueue::submit`].
    submit_inflight: BTreeSet<(String, Digest)>,
    /// Ready-to-run job ids, FIFO.
    ready: VecDeque<u64>,
    /// Backoff parking lot: `(eligible_at, job id)`, unordered (scanned).
    parked: Vec<(Instant, u64)>,
    next_id: u64,
    draining: bool,
    /// Workers currently executing a job (drain waits for zero).
    busy: usize,
}

/// The queue handle shared by the server and its workers.
pub struct JobQueue {
    shared: Mutex<Shared>,
    work_ready: Condvar,
    idle: Condvar,
    /// Woken when an in-flight submit settles (journaled or failed).
    submit_settled: Condvar,
    /// The journal owns its own synchronization (the group-commit
    /// protocol), so concurrent submitters and workers append without an
    /// outer lock — that is what lets their records share cohorts.
    journal: Journal,
    store: Arc<Store>,
    cache: SketchCache,
    metrics: Arc<Metrics>,
    config: QueueConfig,
}

impl JobQueue {
    /// Opens the queue against `store`, replaying `journal` to restore
    /// jobs from the previous run: terminal jobs come back queryable,
    /// unfinished jobs (submitted or retried but never resolved) are
    /// requeued for execution.
    pub fn open(
        journal_path: impl AsRef<std::path::Path>,
        store: Arc<Store>,
        metrics: Arc<Metrics>,
        config: QueueConfig,
    ) -> io::Result<JobQueue> {
        JobQueue::open_with_faults(journal_path, store, metrics, config, Faults::none())
    }

    /// [`JobQueue::open`] with an injectable crash-point handle for the
    /// journal write path (the store's handle travels with the store).
    pub fn open_with_faults(
        journal_path: impl AsRef<std::path::Path>,
        store: Arc<Store>,
        metrics: Arc<Metrics>,
        config: QueueConfig,
        faults: Faults,
    ) -> io::Result<JobQueue> {
        let group = GroupCommit {
            max_records: config.journal_batch.max(1),
            max_hold: config.journal_hold,
        };
        let (journal, records) =
            Journal::open_with(journal_path, faults, group, Arc::clone(&metrics))?;
        let mut shared = Shared {
            jobs: BTreeMap::new(),
            dedup: BTreeMap::new(),
            submit_inflight: BTreeSet::new(),
            ready: VecDeque::new(),
            parked: Vec::new(),
            next_id: 1,
            draining: false,
            busy: 0,
        };
        let now = Instant::now();
        for record in records {
            match record {
                Record::Submit { job, bug, sketch } => {
                    shared.dedup.insert((bug.clone(), sketch), job);
                    shared.jobs.insert(
                        job,
                        Job {
                            bug,
                            sketch,
                            status: JobStatus::Queued { retries: 0 },
                            submitted: now,
                        },
                    );
                    shared.next_id = shared.next_id.max(job + 1);
                }
                Record::Retry { job, retries } => {
                    if let Some(j) = shared.jobs.get_mut(&job) {
                        j.status = JobStatus::Queued { retries };
                    }
                }
                Record::Result { job, status } => {
                    if let Some(j) = shared.jobs.get_mut(&job) {
                        j.status = status;
                    }
                }
            }
        }
        // Everything non-terminal was in flight or waiting when the
        // previous process exited: run it (again).
        let unfinished: Vec<u64> = shared
            .jobs
            .iter()
            .filter(|(_, j)| !j.status.is_terminal())
            .map(|(&id, _)| id)
            .collect();
        shared.ready.extend(&unfinished);
        Ok(JobQueue {
            shared: Mutex::new(shared),
            work_ready: Condvar::new(),
            idle: Condvar::new(),
            submit_settled: Condvar::new(),
            journal,
            store,
            cache: SketchCache::new(config.sketch_cache_bytes),
            metrics,
            config,
        })
    }

    /// The decode cache (read-mostly introspection for tests and stats).
    pub fn cache(&self) -> &SketchCache {
        &self.cache
    }

    /// The store this queue resolves sketches from and mints certificates
    /// into.
    pub fn store(&self) -> &Store {
        &self.store
    }

    /// Submits a job. Returns `(job id, freshly created?)`; a duplicate
    /// `(bug, sketch)` joins the existing job whatever its state.
    ///
    /// The journal append runs *outside* the queue lock — that is what
    /// lets concurrent submits ride one group-commit cohort and share a
    /// single `fdatasync` instead of serializing on it. The job becomes
    /// visible (dedup-joinable, claimable) only after its SUBMIT record
    /// is covered by a sync; a concurrent duplicate arriving in that
    /// window waits for the original to settle rather than acking a job
    /// whose durability is still in flight.
    pub fn submit(&self, bug: &str, sketch: Digest) -> io::Result<(u64, bool)> {
        let key = (bug.to_string(), sketch);
        let id = loop {
            let mut s = self.shared.lock();
            if let Some(&existing) = s.dedup.get(&key) {
                self.metrics.dedup_hits.fetch_add(1, Ordering::Relaxed);
                return Ok((existing, false));
            }
            if s.draining {
                return Err(io::Error::new(
                    io::ErrorKind::ConnectionRefused,
                    "daemon is draining; not accepting new jobs",
                ));
            }
            if s.submit_inflight.contains(&key) {
                // The same (bug, sketch) is being journaled right now:
                // wait for its outcome, then re-evaluate (dedup hit if
                // it succeeded, fresh submit if it failed).
                self.submit_settled.wait(&mut s);
                continue;
            }
            let id = s.next_id;
            s.next_id += 1;
            s.submit_inflight.insert(key.clone());
            break id;
        };
        let appended = self.journal.append(&Record::Submit {
            job: id,
            bug: bug.to_string(),
            sketch,
        });
        let mut s = self.shared.lock();
        s.submit_inflight.remove(&key);
        if let Err(e) = appended {
            // The record is not durable, so the job must not exist: an
            // acknowledgement here would promise a durability the
            // journal no longer has.
            self.metrics.journal_append_failures.fetch_add(1, Ordering::Relaxed);
            drop(s);
            self.submit_settled.notify_all();
            return Err(e);
        }
        s.dedup.insert(key, id);
        s.jobs.insert(
            id,
            Job {
                bug: bug.to_string(),
                sketch,
                status: JobStatus::Queued { retries: 0 },
                submitted: Instant::now(),
            },
        );
        s.ready.push_back(id);
        drop(s);
        self.submit_settled.notify_all();
        self.work_ready.notify_one();
        Ok((id, true))
    }

    /// A job's current status (`None` = unknown id).
    pub fn status(&self, job: u64) -> Option<JobStatus> {
        self.shared.lock().jobs.get(&job).map(|j| j.status.clone())
    }

    /// Begins the drain: no new submissions, queued jobs stay journaled,
    /// and `await_drained` unblocks once running jobs finish.
    pub fn drain(&self) {
        self.shared.lock().draining = true;
        self.work_ready.notify_all();
    }

    /// Blocks until the drain completes (every worker idle).
    pub fn await_drained(&self) {
        let mut s = self.shared.lock();
        while s.busy > 0 {
            self.idle.wait(&mut s);
        }
    }

    /// One worker's main loop: claim → execute → resolve, until drain.
    /// Called from [`crate::server`]-spawned threads.
    pub fn work(&self) {
        loop {
            let Some((id, job, retries)) = self.claim() else {
                return;
            };
            let outcome = self.execute(&job, retries);
            self.resolve(id, &job, retries, outcome);
        }
    }

    /// Claims the next runnable job, honoring backoff eligibility; blocks
    /// while the queue is empty, returns `None` once draining.
    fn claim(&self) -> Option<(u64, Job, u32)> {
        let mut s = self.shared.lock();
        loop {
            let now = Instant::now();
            // Promote parked jobs whose backoff has elapsed.
            let mut i = 0;
            while i < s.parked.len() {
                if s.parked[i].0 <= now {
                    let (_, id) = s.parked.swap_remove(i);
                    s.ready.push_back(id);
                } else {
                    i += 1;
                }
            }
            if let Some(id) = s.ready.pop_front() {
                let job = s.jobs.get_mut(&id).expect("ready id has a job");
                let retries = match job.status {
                    JobStatus::Queued { retries } => retries,
                    // Terminal while parked (shouldn't happen) — skip.
                    _ => continue,
                };
                job.status = JobStatus::Running;
                s.busy += 1;
                return Some((id, s.jobs[&id].clone(), retries));
            }
            // Draining: exit once nothing is runnable now *or* parked for
            // a retry — a parked job was accepted, so the drain honors its
            // backoff rather than stranding it mid-retry.
            if s.draining && s.parked.is_empty() {
                return None;
            }
            match s.parked.iter().map(|&(at, _)| at).min() {
                // Sleep until the earliest parked job becomes eligible.
                Some(at) => {
                    let wait = at.saturating_duration_since(now).max(Duration::from_millis(1));
                    self.work_ready.wait_timeout(&mut s, wait);
                }
                None => self.work_ready.wait(&mut s),
            }
        }
    }

    /// Loads `digest`'s sketch header + replay index, from the cache when
    /// resident, from the store (read + SHA-256 verify + decode straight
    /// into the index) otherwise. The decode is a pure function of the
    /// digest's immutable bytes, so a hit is observationally identical
    /// to a miss — that is the byte-identity pin `tests/svc_cache.rs`
    /// holds the daemon to.
    fn load_sketch(&self, digest: &Digest) -> Result<Arc<CachedSketch>, JobStatus> {
        if let Some(cached) = self.cache.get(digest) {
            self.metrics.sketch_cache_hits.fetch_add(1, Ordering::Relaxed);
            return Ok(cached);
        }
        self.metrics.sketch_cache_misses.fetch_add(1, Ordering::Relaxed);
        let data = match self.store.get(digest) {
            Ok(Some(data)) => data,
            Ok(None) => {
                return Err(JobStatus::Failed {
                    message: format!("sketch {digest} not in store"),
                })
            }
            Err(e) => {
                return Err(JobStatus::Failed {
                    message: format!("sketch {digest}: {e}"),
                })
            }
        };
        let (meta, index) = match decode_index(&data) {
            Ok(decoded) => decoded,
            Err(e) => {
                return Err(JobStatus::Failed {
                    message: format!("sketch {digest} does not decode: {e}"),
                })
            }
        };
        let sketch = Sketch {
            meta,
            ..Sketch::new(index.mechanism())
        };
        let cached = Arc::new(CachedSketch {
            sketch,
            index: Arc::new(index),
        });
        let evicted = self
            .cache
            .insert(*digest, Arc::clone(&cached), cached.resident_bytes());
        self.metrics.sketch_cache_evictions.fetch_add(evicted, Ordering::Relaxed);
        let (bytes, entries) = self.cache.usage();
        self.metrics
            .sketch_cache_resident_bytes
            .store(bytes, Ordering::Relaxed);
        self.metrics
            .sketch_cache_entries
            .store(entries as u64, Ordering::Relaxed);
        Ok(cached)
    }

    /// Runs one exploration try for `job`.
    fn execute(&self, job: &Job, retries: u32) -> JobStatus {
        let Some(bug) = all_bugs().into_iter().find(|b| b.id == job.bug) else {
            return JobStatus::Failed {
                message: format!("unknown bug '{}'", job.bug),
            };
        };
        let program = bug.program();
        let cached = match self.load_sketch(&job.sketch) {
            Ok(cached) => cached,
            Err(status) => return status,
        };
        let sketch = &cached.sketch;
        if sketch.meta.program != program.name() {
            return JobStatus::Failed {
                message: format!(
                    "sketch was recorded from '{}', not '{}'",
                    sketch.meta.program,
                    program.name()
                ),
            };
        }
        if sketch.meta.failure_signature.is_empty() {
            return JobStatus::Failed {
                message: "sketch records a clean run; nothing to reproduce".into(),
            };
        }
        if cached.index.checkpoint().is_some() {
            self.metrics
                .jobs_from_checkpoint
                .fetch_add(1, Ordering::Relaxed);
        }

        let mut explore = ExploreConfig {
            max_attempts: self.config.max_attempts,
            stop: Some(StopToken::after(self.config.job_timeout)),
            ..ExploreConfig::default()
        };
        // Retry `r` shifts the seed neighborhood: exploration is
        // deterministic, so re-running the identical search would fail
        // identically. The first try (r = 0) keeps the default base seed —
        // that is what makes daemon certificates byte-identical to
        // `Pres::reproduce` for first-try successes.
        explore.base_seed = explore
            .base_seed
            .wrapping_add(u64::from(retries).wrapping_mul(0x9e37_79b9));

        // The cached index is exactly what `reproduce_with_oracle_and_pool`
        // would build from the sketch, so the search — and the minted
        // certificate — is byte-identical to the uncached path.
        let repro = explore::reproduce_with_index(
            program.as_ref(),
            &cached.index,
            &StatusOracle::new(&sketch.meta.failure_signature),
            &VmConfig::default(),
            &explore,
            None,
        );
        self.metrics
            .attempts
            .fetch_add(u64::from(repro.attempts), Ordering::Relaxed);
        if repro.reproduced {
            let cert = repro
                .certificate
                .expect("certificate exists on success")
                .encode();
            match self.store.put(&cert) {
                Ok((certificate, _)) => JobStatus::Succeeded {
                    attempts: repro.attempts,
                    certificate,
                },
                Err(e) => JobStatus::Failed {
                    message: format!("certificate store write failed: {e}"),
                },
            }
        } else if repro.stopped {
            JobStatus::TimedOut {
                attempts: repro.attempts,
            }
        } else {
            JobStatus::Exhausted {
                attempts: repro.attempts,
            }
        }
    }

    /// Journals and publishes a try's outcome, requeueing exhausted jobs
    /// that still have retries left.
    fn resolve(&self, id: u64, job: &Job, retries: u32, outcome: JobStatus) {
        let next = match outcome {
            JobStatus::Exhausted { .. } if retries < self.config.max_retries => {
                let retries = retries + 1;
                self.metrics.retries.fetch_add(1, Ordering::Relaxed);
                if let Err(e) = self.journal.append(&Record::Retry { job: id, retries }) {
                    // A lost RETRY record only costs seed-offset fidelity
                    // after a crash (the job replays as retry 0); requeue
                    // regardless — dropping the job would be worse. But a
                    // failing journal is an operator's problem either
                    // way: count it where STATS can surface it.
                    self.metrics.journal_append_failures.fetch_add(1, Ordering::Relaxed);
                    eprintln!("pres-svc: journal append (retry, job {id}) failed: {e}");
                }
                let backoff = self.config.retry_backoff * 2u32.pow(retries - 1);
                let mut s = self.shared.lock();
                s.parked.push((Instant::now() + backoff, id));
                s.jobs.get_mut(&id).expect("job exists").status =
                    JobStatus::Queued { retries };
                s.busy -= 1;
                drop(s);
                self.work_ready.notify_all();
                self.idle.notify_all();
                return;
            }
            terminal => terminal,
        };
        match &next {
            JobStatus::Succeeded { .. } => &self.metrics.jobs_succeeded,
            JobStatus::Exhausted { .. } => &self.metrics.jobs_exhausted,
            JobStatus::TimedOut { .. } => &self.metrics.jobs_timed_out,
            _ => &self.metrics.jobs_failed,
        }
        .fetch_add(1, Ordering::Relaxed);
        self.metrics.observe_latency(job.submitted.elapsed());
        // Durability ordering: the RESULT record is fdatasync'ed by
        // `append` BEFORE the status below becomes observable, so any
        // terminal status a client has seen survives a crash. If the
        // append itself fails the status is still served for this process
        // lifetime (the work is done and the certificate, if any, is
        // already content-addressed in the store); a restart re-runs the
        // job and converges on the identical result.
        if let Err(e) = self.journal.append(&Record::Result {
            job: id,
            status: next.clone(),
        }) {
            self.metrics.journal_append_failures.fetch_add(1, Ordering::Relaxed);
            eprintln!("pres-svc: journal append (result, job {id}) failed: {e}");
        }
        let mut s = self.shared.lock();
        s.jobs.get_mut(&id).expect("job exists").status = next;
        s.busy -= 1;
        drop(s);
        self.idle.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pres_core::api::Pres;
    use pres_core::sketch::Mechanism;
    use std::path::PathBuf;

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "pres-svc-queue-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn queue(dir: &std::path::Path, config: QueueConfig) -> JobQueue {
        let (store, _) = Store::open(dir.join("store")).unwrap();
        JobQueue::open(
            dir.join("journal.log"),
            Arc::new(store),
            Arc::new(Metrics::new()),
            config,
        )
        .unwrap()
    }

    fn recorded_sketch_bytes(bug: &str) -> Vec<u8> {
        let case = all_bugs().into_iter().find(|b| b.id == bug).unwrap();
        let program = case.program();
        let pres = Pres::new(Mechanism::Sync);
        let run = pres
            .record_until_failure(program.as_ref(), 0..5000)
            .expect("bug manifests in production");
        pres_core::codec::encode_sketch(&run.sketch)
    }

    fn drive(q: &JobQueue) {
        q.drain();
        q.work();
        q.await_drained();
    }

    #[test]
    fn submit_execute_and_certificate_matches_in_process_reproduction() {
        let dir = scratch("endtoend");
        let q = queue(&dir, QueueConfig::default());
        let bytes = recorded_sketch_bytes("pbzip-order");
        let (digest, fresh) = q.store().put(&bytes).unwrap();
        assert!(fresh);
        let (id, created) = q.submit("pbzip-order", digest).unwrap();
        assert!(created);
        drive(&q);
        let JobStatus::Succeeded {
            certificate,
            attempts,
        } = q.status(id).unwrap()
        else {
            panic!("expected success, got {:?}", q.status(id));
        };
        assert!(attempts >= 1);

        // Byte-identical with the in-process facade on the same sketch.
        let case = all_bugs().into_iter().find(|b| b.id == "pbzip-order").unwrap();
        let program = case.program();
        let pres = Pres::new(Mechanism::Sync);
        let sketch = pres_core::codec::decode_sketch(&bytes).unwrap();
        let mut recorded = pres.record(program.as_ref(), sketch.meta.seed);
        recorded.sketch = sketch;
        let repro = pres.reproduce(program.as_ref(), &recorded);
        let expected = repro.certificate.unwrap().encode();
        assert_eq!(q.store().get(&certificate).unwrap().unwrap(), expected);
    }

    #[test]
    fn duplicate_submit_joins_the_existing_job() {
        let dir = scratch("dedup");
        let q = queue(&dir, QueueConfig::default());
        let bytes = recorded_sketch_bytes("pbzip-order");
        let (digest, _) = q.store().put(&bytes).unwrap();
        let (id1, created1) = q.submit("pbzip-order", digest).unwrap();
        let (id2, created2) = q.submit("pbzip-order", digest).unwrap();
        assert_eq!(id1, id2);
        assert!(created1);
        assert!(!created2);
    }

    #[test]
    fn unknown_bug_fails_cleanly() {
        let dir = scratch("unknown");
        let q = queue(&dir, QueueConfig::default());
        let (digest, _) = q.store().put(b"whatever").unwrap();
        let (id, _) = q.submit("no-such-bug", digest).unwrap();
        drive(&q);
        let JobStatus::Failed { message } = q.status(id).unwrap() else {
            panic!("expected failure");
        };
        assert!(message.contains("unknown bug"), "{message}");
    }

    #[test]
    fn undecodable_sketch_fails_cleanly() {
        let dir = scratch("garbage");
        let q = queue(&dir, QueueConfig::default());
        let (digest, _) = q.store().put(b"not a sketch container").unwrap();
        let (id, _) = q.submit("pbzip-order", digest).unwrap();
        drive(&q);
        assert!(matches!(q.status(id).unwrap(), JobStatus::Failed { .. }));
    }

    #[test]
    fn exhausted_budget_retries_with_backoff_then_goes_terminal() {
        let dir = scratch("retries");
        let config = QueueConfig {
            // A budget of one attempt cannot reproduce pbzip-order, so
            // every try exhausts and the retry ladder runs to the end.
            max_attempts: 1,
            max_retries: 2,
            retry_backoff: Duration::from_millis(1),
            ..QueueConfig::default()
        };
        let q = queue(&dir, config);
        let bytes = recorded_sketch_bytes("pbzip-order");
        let (digest, _) = q.store().put(&bytes).unwrap();
        let (id, _) = q.submit("pbzip-order", digest).unwrap();
        drive(&q);
        assert!(
            matches!(q.status(id).unwrap(), JobStatus::Exhausted { .. }),
            "got {:?}",
            q.status(id)
        );
    }

    #[test]
    fn journal_replay_restores_results_and_requeues_unfinished_jobs() {
        let dir = scratch("restart");
        let bytes = recorded_sketch_bytes("pbzip-order");
        let (finished, unfinished, digest) = {
            let q = queue(&dir, QueueConfig::default());
            let (digest, _) = q.store().put(&bytes).unwrap();
            let (finished, _) = q.submit("pbzip-order", digest).unwrap();
            drive(&q);
            // A second job submitted after the drain's workers exited
            // never runs — it models a job in flight at crash time.
            let q2 = queue(&dir, QueueConfig::default());
            let (digest2, _) = q2.store().put(&bytes).unwrap();
            assert_eq!(digest2, digest);
            let (unfinished, created) = q2.submit("pbzip-app", digest).unwrap();
            assert!(created, "different bug, same sketch: distinct job");
            (finished, unfinished, digest)
        };
        let q = queue(&dir, QueueConfig::default());
        // The finished job's terminal status survived the restart.
        assert!(matches!(
            q.status(finished).unwrap(),
            JobStatus::Succeeded { .. }
        ));
        // The unfinished one came back queued, and dedup still routes a
        // resubmission onto it.
        assert!(matches!(
            q.status(unfinished).unwrap(),
            JobStatus::Queued { .. }
        ));
        let (rejoined, created) = q.submit("pbzip-app", digest).unwrap();
        assert_eq!(rejoined, unfinished);
        assert!(!created);
    }

    #[test]
    fn job_status_wire_roundtrip() {
        let statuses = [
            JobStatus::Queued { retries: 3 },
            JobStatus::Running,
            JobStatus::Succeeded {
                attempts: 42,
                certificate: crate::digest::sha256(b"c"),
            },
            JobStatus::Exhausted { attempts: 1000 },
            JobStatus::TimedOut { attempts: 12 },
            JobStatus::Failed {
                message: "nope".into(),
            },
        ];
        for status in statuses {
            let mut buf = Vec::new();
            status.encode(&mut buf).unwrap();
            let mut r = Reader::new(&buf);
            assert_eq!(JobStatus::decode(&mut r), Ok(status));
            assert!(r.at_end());
        }
    }
}
