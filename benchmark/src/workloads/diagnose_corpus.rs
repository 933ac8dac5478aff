//! `diagnose-corpus` — the north-star pipeline, latency-bound.
//!
//! Set-up records thirteen bugs × `PER_BUG` distinct failing production
//! runs under the SYNC ring. On the clock, per job: encode → durable flush
//! to a file → streamed submit from that file → poll → fetch certificate →
//! decode → replay. Sketches are ≤ 2 KB and most jobs need one to three
//! attempts, so fsync latency, wire round trips and explorer start-up
//! dominate; byte-volume code does almost nothing and every digest is
//! distinct, so the decode cache always misses.

use super::{
    lane_spans, plain_trials, run_trials, timed_setup, trace_overhead_pct, Meter, Mode, Outcome,
    RunConfig,
};
use crate::daemon::{poll_terminal, Daemon};
use crate::inputs::{bug_programs, ring_corpus, Corpus};
use crate::lanes;
use crate::stats::Samples;
use crate::trace::{self, LaneTrace};
use pres_apps::registry::all_bugs;
use pres_core::codec::encode_sketch;
use pres_core::explore::{self, ExploreConfig};
use pres_core::program::Program;
use pres_core::Certificate;
use pres_svc::flush::write_flush;
use pres_svc::{Client, JobStatus};
use pres_tvm::vm::VmConfig;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Failing production runs recorded per bug; a trial is `13 × PER_BUG` jobs.
const PER_BUG: usize = 20;
const JOB_BUDGET: Duration = Duration::from_secs(60);

struct Inputs {
    corpus: Corpus,
    programs: Vec<Box<dyn Program>>,
    bug_ids: Vec<&'static str>,
}

struct Lane {
    client: Client,
    trace: LaneTrace,
    dir: PathBuf,
}

struct Job {
    flush_to_cert_ms: f64,
    queue_wait_ms: f64,
    polls: u32,
    cert_bytes: Vec<u8>,
    error: Option<String>,
}

struct Trial {
    wall_s: f64,
    jobs: Vec<Job>,
    attempts: u64,
    journal_records: u64,
    journal_syncs: u64,
    cache_hits: u64,
    cache_misses: u64,
    spans: Vec<trace::Span>,
}

fn ms(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1e3
}

/// Task `n` → corpus job: consecutive tasks are different bugs.
fn job_index(n: usize, bugs: usize, per_bug: usize) -> usize {
    (n % bugs) * per_bug + n / bugs
}

fn run_job(inputs: &Inputs, per_bug: usize, lane: &mut Lane, n: usize) -> Job {
    let item = &inputs.corpus.jobs[job_index(n, inputs.programs.len(), per_bug)];
    let bug_id = inputs.bug_ids[item.bug];
    let program = inputs.programs[item.bug].as_ref();
    let op = n as u64;
    let mut job = Job {
        flush_to_cert_ms: 0.0,
        queue_wait_ms: 0.0,
        polls: 0,
        cert_bytes: Vec::new(),
        error: None,
    };
    let span = lane
        .trace
        .begin("diagnose.job", "bench", op, LaneTrace::ROOT);
    let result = (|| -> Result<(), String> {
        let started = Instant::now();
        let bytes = lane.trace.span("codec.encode", "core.codec", op, span, || {
            encode_sketch(&item.sketch)
        });
        let path = lane.dir.join(format!("flush-{n}.sketch"));
        lane.trace
            .span("flush.write", "svc.flush", op, span, || {
                write_flush(&path, &bytes)
            })
            .map_err(|e| format!("flush: {e}"))?;
        let client = &mut lane.client;
        let receipt = lane
            .trace
            .span("submit", "svc.server", op, span, || {
                let mut file = std::fs::File::open(&path)?;
                client.submit_stream(bug_id, &mut file)
            })
            .map_err(|e| format!("submit: {e}"))?;
        let acked = Instant::now();
        let (status, polls) = lane
            .trace
            .span("queue.wait", "svc.queue", op, span, || {
                poll_terminal(client, receipt.job, JOB_BUDGET)
            })
            .map_err(|e| format!("poll: {e}"))?;
        job.queue_wait_ms = ms(acked);
        job.polls = polls;
        if !matches!(status, JobStatus::Succeeded { .. }) {
            return Err(format!("job ended '{status}'"));
        }
        job.cert_bytes = lane
            .trace
            .span("fetch", "svc.server", op, span, || {
                client.fetch_certificate(receipt.job)
            })
            .map_err(|e| format!("fetch: {e}"))?;
        job.flush_to_cert_ms = ms(started);
        let cert = lane
            .trace
            .span("cert.decode", "core.certificate", op, span, || {
                Certificate::decode(&job.cert_bytes)
            })
            .map_err(|e| format!("certificate does not decode: {e}"))?;
        lane.trace
            .span("cert.replay", "core.certificate", op, span, || {
                cert.replay(program).map(drop)
            })
            .map_err(|e| format!("certificate does not replay: {e}"))
    })();
    lane.trace.end(span);
    job.error = result
        .err()
        .map(|e| format!("{bug_id} seed {}: {e}", item.production_seed));
    job
}

pub fn run(cfg: &RunConfig) -> Outcome {
    let per_bug = cfg.count(PER_BUG);
    let bugs = all_bugs();
    let (corpus, setup_times) = timed_setup(cfg, || ring_corpus(cfg.seed, per_bug, cfg.lanes));
    let inputs = Inputs {
        corpus,
        programs: bug_programs(),
        bug_ids: bugs.iter().map(|b| b.id).collect(),
    };
    let tasks = inputs.corpus.jobs.len();

    // What an in-process reproduction mints for each bug's first job: the
    // daemon's certificate must be these bytes exactly.
    let reference: Vec<Option<Vec<u8>>> = lanes::run(
        cfg.lanes,
        bugs.len(),
        |_| (),
        |_, b| {
            let item = &inputs.corpus.jobs[b * per_bug];
            explore::reproduce(
                inputs.programs[b].as_ref(),
                &item.sketch,
                &item.sketch.meta.failure_signature,
                &VmConfig::default(),
                &ExploreConfig::default(),
            )
            .certificate
            .map(|c| c.encode())
        },
    )
    .results;

    let mut meter = Meter::start();
    let trials = run_trials(cfg, |t, mode| {
        let epoch = (mode == Mode::Traced).then(Instant::now);
        let data = cfg.fresh_dir(&format!("diagnose-{t}-data"));
        let flush = cfg.fresh_dir(&format!("diagnose-{t}-flush"));
        let daemon = Daemon::spawn(&data, cfg.lanes).expect("daemon starts");
        let run = lanes::run(
            cfg.lanes,
            tasks,
            |_| Lane {
                client: daemon.client().expect("lane connects"),
                trace: LaneTrace::new(epoch),
                dir: flush.clone(),
            },
            |lane, n| run_job(&inputs, per_bug, lane, n),
        );
        let stats = daemon.stats().expect("daemon STATS");
        let count = |key| stats.count(key).expect("STATS counter");
        let trial = Trial {
            wall_s: run.wall.as_secs_f64(),
            jobs: run.results,
            attempts: count("attempts"),
            journal_records: count("journal_records"),
            journal_syncs: count("journal_syncs"),
            cache_hits: count("sketch_cache_hits"),
            cache_misses: count("sketch_cache_misses"),
            spans: lane_spans(run.states.into_iter().map(|l| l.trace)),
        };
        meter.saw_daemon(daemon.peak_rss_mib());
        daemon.stop().expect("daemon drains");
        trial
    });

    let mut out = Outcome {
        trials: trials.len(),
        ..Outcome::default()
    };
    let mut waits = Vec::new();
    for (mode, trial) in &trials {
        for (n, job) in trial.jobs.iter().enumerate() {
            out.attempted += 1;
            let index = job_index(n, bugs.len(), per_bug);
            if let Some(why) = &job.error {
                out.fail(why.clone());
            } else if index.is_multiple_of(per_bug)
                && reference[index / per_bug].as_deref() != Some(&job.cert_bytes)
            {
                out.fail(format!(
                    "{}: daemon certificate differs from the in-process reproduction",
                    inputs.bug_ids[index / per_bug]
                ));
            }
            if *mode == Mode::Plain && job.error.is_none() {
                waits.push(job.queue_wait_ms);
            }
        }
    }
    let total_jobs: usize = trials.iter().map(|(_, t)| t.jobs.len()).sum();
    meter.finish(&mut out, total_jobs as f64);
    out.set_setup(setup_times);
    // Jobs per second including decode and replay of the certificate; the
    // latency sample is flush start → certificate bytes in hand.
    let plain = plain_trials(&trials, |t| {
        (
            t.jobs.len() as f64 / t.wall_s,
            t.jobs
                .iter()
                .filter(|j| j.error.is_none())
                .map(|j| j.flush_to_cert_ms)
                .collect(),
        )
    });
    let p99 = Samples::new(
        plain
            .iter()
            .flat_map(|(_, ms)| ms.iter().copied())
            .collect(),
    );
    out.set_trials(plain);

    let report = &trials.last().expect("at least one trial").1;
    let jobs = report.jobs.len() as f64;
    out.layer(
        "core.recorder.seeds_per_failure",
        inputs.corpus.runs_searched as f64 / inputs.corpus.jobs.len() as f64,
    );
    out.layer(
        "core.explore.attempts_per_job",
        report.attempts as f64 / jobs,
    );
    out.layer(
        "svc.journal.records_per_sync",
        report.journal_records as f64 / report.journal_syncs.max(1) as f64,
    );
    out.layer(
        "svc.cache.hit_share",
        report.cache_hits as f64 / (report.cache_hits + report.cache_misses).max(1) as f64,
    );
    let waits = Samples::new(waits);
    out.layer("svc.queue.wait_ms_p50", waits.p(50.0));
    out.layer_samples
        .insert("svc.queue.wait_ms_p50", waits.len());
    out.layer("svc.queue.flush_to_cert_ms_p99", p99.p(99.0));
    out.layer_samples
        .insert("svc.queue.flush_to_cert_ms_p99", p99.len());
    out.layer(
        "svc.client.polls_per_job",
        report.jobs.iter().map(|j| f64::from(j.polls)).sum::<f64>() / jobs,
    );
    out.layer(
        "core.certificate.bytes",
        report
            .jobs
            .iter()
            .map(|j| j.cert_bytes.len())
            .sum::<usize>() as f64
            / jobs,
    );
    out.layer(
        "bench.trace_overhead_pct",
        trace_overhead_pct(&trials, |t| t.wall_s),
    );
    out.spans = trace::merge(trials.into_iter().map(|(_, t)| t.spans).collect());
    super::stage_breakdown(&mut out, "diagnose.job");
    out
}
