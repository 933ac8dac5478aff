//! `ingest-large` — the byte-volume path.
//!
//! Set-up tiles one real `pbzip-order` SYNC recording to ≈ 256 KiB and
//! makes `BLOBS` variants with distinct digests. *Cold pass:* lanes stream
//! the blobs under a mismatched bug id, so each job is exactly one sketch
//! load (store read + SHA-256 verify + decode + index build) ending in
//! the expected name-mismatch failure. *Hot pass:* the same bytes under a
//! second mismatched bug id — the store dedups and the decode cache hits.
//! The only workload where wire chunking, `svc::digest`, `svc::store`
//! streaming, `core::codec` decode and `svc::cache` carry the time; cold
//! vs. hot is the write-beside-read pair for store and cache.

use super::{
    lane_spans, plain_median, plain_trials, run_trials, timed_setup, trace_overhead_pct, Meter,
    Mode, Outcome, RunConfig,
};
use crate::daemon::{poll_terminal, Daemon};
use crate::host;
use crate::inputs::{tiled_blobs, TILED_BUG};
use crate::lanes;
use crate::trace::{self, LaneTrace};
use pres_apps::registry::all_bugs;
use pres_svc::{sha256, Client, Digest, JobStatus};
use std::time::{Duration, Instant};

const BLOBS: usize = 128;
/// Entry-stream repeats: ≈ 256 KiB encoded.
const TILE: usize = 500;
const JOB_BUDGET: Duration = Duration::from_secs(120);
const MIB: f64 = (1 << 20) as f64;

struct Inputs {
    blobs: Vec<Vec<u8>>,
    digests: Vec<Digest>,
}

struct Lane {
    client: Client,
    trace: LaneTrace,
}

struct Ack {
    job: u64,
    ack_ms: f64,
    error: Option<String>,
}

struct Pass {
    /// First submit → last job terminal.
    wall_s: f64,
    /// Last ack → last job terminal.
    drain_s: f64,
    acks: Vec<Ack>,
    errors: Vec<String>,
    spans: Vec<trace::Span>,
}

struct Trial {
    cold: Pass,
    hot: Pass,
    hot_hits: u64,
    rss_per_cached_mib: f64,
}

/// Streams every blob under `bug`, then waits for every job to end in the
/// name-mismatch failure.
fn pass(
    daemon: &Daemon,
    inputs: &Inputs,
    bug: &str,
    expect_fresh_object: bool,
    lanes: usize,
    epoch: Option<Instant>,
) -> Pass {
    let started = Instant::now();
    let run = lanes::run(
        lanes,
        inputs.blobs.len(),
        |_| Lane {
            client: daemon.client().expect("lane connects"),
            trace: LaneTrace::new(epoch),
        },
        |lane, n| {
            let sent = Instant::now();
            let client = &mut lane.client;
            let receipt =
                lane.trace
                    .span("submit", "svc.server", n as u64, LaneTrace::ROOT, || {
                        client.submit_stream(bug, &mut &inputs.blobs[n][..])
                    });
            let ack_ms = sent.elapsed().as_secs_f64() * 1e3;
            match receipt {
                Ok(r) => Ack {
                    job: r.job,
                    ack_ms,
                    error: if r.sketch != inputs.digests[n] {
                        Some(format!("blob {n}: daemon acknowledged digest {}", r.sketch))
                    } else if r.fresh_object != expect_fresh_object || !r.fresh_job {
                        Some(format!(
                            "blob {n}: fresh_object {} (expected {expect_fresh_object}), fresh_job {}",
                            r.fresh_object, r.fresh_job
                        ))
                    } else {
                        None
                    },
                },
                Err(e) => Ack {
                    job: 0,
                    ack_ms,
                    error: Some(format!("blob {n}: submit failed: {e}")),
                },
            }
        },
    );
    let acked = Instant::now();
    let mut errors = Vec::new();
    let mut lanes_done = run.states;
    let Lane { client, trace } = &mut lanes_done[0];
    let drain = trace.begin("queue.drain", "svc.queue", 0, LaneTrace::ROOT);
    for ack in run.results.iter().filter(|a| a.error.is_none()) {
        match poll_terminal(client, ack.job, JOB_BUDGET) {
            Ok((JobStatus::Failed { message }, _)) if message.contains("recorded from") => {}
            Ok((status, _)) => errors.push(format!(
                "job {}: expected a name mismatch, got '{status}'",
                ack.job
            )),
            Err(e) => errors.push(format!("job {}: {e}", ack.job)),
        }
    }
    trace.end(drain);
    Pass {
        wall_s: started.elapsed().as_secs_f64(),
        drain_s: acked.elapsed().as_secs_f64(),
        acks: run.results,
        errors,
        spans: lane_spans(lanes_done.into_iter().map(|l| l.trace)),
    }
}

pub fn run(cfg: &RunConfig) -> Outcome {
    let count = cfg.count(BLOBS);
    let (inputs, setup_times) = timed_setup(cfg, || {
        let blobs = tiled_blobs(cfg.seed, count, TILE, cfg.lanes);
        let digests = lanes::run(cfg.lanes, blobs.len(), |_| (), |_, n| sha256(&blobs[n])).results;
        Inputs { blobs, digests }
    });
    let total_mib = inputs.blobs.iter().map(Vec::len).sum::<usize>() as f64 / MIB;
    let tiled_program = all_bugs()
        .iter()
        .find(|b| b.id == TILED_BUG)
        .expect("corpus has the tiled bug")
        .program()
        .name();
    let wrong: Vec<&'static str> = all_bugs()
        .iter()
        .filter(|b| b.program().name() != tiled_program)
        .map(|b| b.id)
        .take(2)
        .collect();

    let mut meter = Meter::start();
    let trials = run_trials(cfg, |t, mode| {
        let epoch = (mode == Mode::Traced).then(Instant::now);
        let data = cfg.fresh_dir(&format!("ingest-{t}-data"));
        let daemon = Daemon::spawn(&data, cfg.lanes).expect("daemon starts");
        let idle_rss = host::rss_mib(daemon.pid()).unwrap_or(0.0);
        let cold = pass(&daemon, &inputs, wrong[0], true, cfg.lanes, epoch);
        let loaded_rss = host::rss_mib(daemon.pid()).unwrap_or(0.0);
        let hits_before = daemon
            .stats()
            .and_then(|s| s.count("sketch_cache_hits"))
            .expect("STATS");
        let hot = pass(&daemon, &inputs, wrong[1], false, cfg.lanes, epoch);
        let hits_after = daemon
            .stats()
            .and_then(|s| s.count("sketch_cache_hits"))
            .expect("STATS");
        meter.saw_daemon(daemon.peak_rss_mib());
        daemon.stop().expect("daemon drains");
        Trial {
            cold,
            hot,
            hot_hits: hits_after - hits_before,
            rss_per_cached_mib: (loaded_rss - idle_rss) / total_mib,
        }
    });

    let mut out = Outcome {
        trials: trials.len(),
        ..Outcome::default()
    };
    for (_, trial) in &trials {
        for p in [&trial.cold, &trial.hot] {
            out.attempted += p.acks.len() as u64;
            for why in p
                .acks
                .iter()
                .filter_map(|a| a.error.as_ref())
                .chain(&p.errors)
            {
                out.fail(why.clone());
            }
        }
        if trial.hot_hits != count as u64 {
            out.fail(format!(
                "hot pass hit the decode cache {} times for {count} jobs",
                trial.hot_hits
            ));
        }
    }
    meter.finish(&mut out, 2.0 * total_mib * trials.len() as f64);
    out.set_setup(setup_times);
    // MiB per second, first submit → last job terminal, cold; the latency
    // sample is one cold submit call → durable ack.
    out.set_trials(plain_trials(&trials, |t| {
        (
            total_mib / t.cold.wall_s,
            t.cold.acks.iter().map(|a| a.ack_ms).collect(),
        )
    }));

    let report = &trials.last().expect("at least one trial").1;
    out.layer(
        "svc.cache.reingest_mib_per_s",
        plain_median(&trials, |t| total_mib / t.hot.wall_s),
    );
    out.layer("svc.cache.hit_share", report.hot_hits as f64 / count as f64);
    out.layer("svc.cache.rss_per_cached_mib", report.rss_per_cached_mib);
    out.layer(
        "svc.queue.drain_s",
        plain_median(&trials, |t| t.cold.drain_s),
    );
    let ack_total_s = report.cold.acks.iter().map(|a| a.ack_ms).sum::<f64>() / 1e3;
    out.layer(
        "svc.server.stream_mib_per_s",
        total_mib / (ack_total_s / cfg.lanes as f64),
    );
    out.layer(
        "bench.trace_overhead_pct",
        trace_overhead_pct(&trials, |t| t.cold.wall_s + t.hot.wall_s),
    );
    out.spans = trace::merge(
        trials
            .into_iter()
            .flat_map(|(_, t)| [t.cold.spans, t.hot.spans])
            .collect(),
    );
    super::stage_breakdown(&mut out, "submit");
    out
}
