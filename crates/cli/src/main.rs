//! `pres` — the command-line workflow of the PRES reproduction.
//!
//! ```text
//! pres list                                       # the evaluation corpus
//! pres record      --bug <id> [--mechanism SYNC] [--out sketch.pres]
//!                  [--ring-epochs K --epoch-entries N]   # always-on ring mode
//! pres reproduce   --bug <id> --sketch sketch.pres [--cert cert.pres]
//! pres replay      --bug <id> --cert cert.pres [--report]
//! pres sketch-info --sketch sketch.pres
//! pres overhead    --app <id> [--processors 8]
//!
//! pres serve       --addr 127.0.0.1:7557 --data-dir DIR [--job-workers N]
//!                  [--conn-workers N] [--max-connections N]
//!                  [--journal-batch N] [--journal-batch-usecs N] [--sketch-cache-bytes N]
//! pres submit      --addr HOST:PORT --bug <id> --sketch sketch.pres [--wait-secs N]
//!                  [--chunk-bytes N]
//! pres status      --addr HOST:PORT --job N
//! pres fetch-cert  --addr HOST:PORT --job N [--out cert.pres]
//! pres shutdown    --addr HOST:PORT
//! ```
//!
//! `record` searches production schedules until the bug manifests while
//! recording, then writes the binary sketch log. `reproduce` runs the
//! coordinated-replay exploration and writes a reproduction certificate.
//! `replay` reproduces deterministically from the certificate, optionally
//! printing the diagnosis report.
//!
//! The second block drives the [`pres_svc`] daemon: `serve` runs the
//! replay-as-a-service loop (content-addressed sketch store + job queue);
//! the rest are thin wrappers over [`pres_svc::Client`].

mod args;

use args::{Args, UsageError};
use pres_apps::registry::{all_apps, all_bugs, WorkloadScale};
use pres_core::api::Pres;
use pres_core::codec::{decode_index, decode_sketch, encode_sketch, layout};
use pres_core::explore::{reproduce, ExploreConfig};
use pres_core::inspect::{failure_report, InspectOptions};
use pres_core::stats::{ExploreStats, SketchStats};
use pres_core::program::Program;
use pres_core::sketch::Mechanism;
use pres_core::{Certificate, RingConfig, StopToken};
use pres_svc::{Client, QueueConfig, ServeOptions, Server};
use pres_tvm::vm::VmConfig;
use std::process::ExitCode;
use std::time::{Duration, Instant};

const USAGE: &str = "usage:
  pres list
  pres record      --bug <id> [--mechanism RW|BB|BB-N|FUNC|SYS|SYNC] [--seed N] [--out FILE]
                   [--ring-epochs N] [--epoch-entries N] [--epoch-cost N]
  pres reproduce   --bug <id> --sketch FILE [--max-attempts N] [--timeout-secs N]
                   [--cert FILE]
  pres replay      --bug <id> --cert FILE [--report]
  pres sketch-info --sketch FILE
  pres overhead    --app <id> [--mechanism SYNC] [--processors N]
  pres serve       [--addr HOST:PORT] [--data-dir DIR] [--job-workers N]
                   [--max-attempts N] [--job-timeout-secs N] [--log-interval-secs N]
                   [--conn-workers N] [--max-connections N]
                   [--journal-batch N] [--journal-batch-usecs N] [--sketch-cache-bytes N]
                   [--auth-token SECRET]
  pres submit      --addr HOST:PORT --bug <id> --sketch FILE [--wait-secs N]
                   [--chunk-bytes N] [--auth-token SECRET] [--connect-attempts N]
  pres status      --addr HOST:PORT --job N [--auth-token SECRET]
  pres fetch-cert  --addr HOST:PORT --job N [--out FILE] [--auth-token SECRET]
  pres stats       --addr HOST:PORT [--auth-token SECRET]
  pres shutdown    --addr HOST:PORT [--auth-token SECRET]
  pres fsck        --data-dir DIR";

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => return fail(&e.to_string()),
    };
    let result = match args.command.as_deref() {
        Some("list") => cmd_list(&args),
        Some("record") => cmd_record(&args),
        Some("reproduce") => cmd_reproduce(&args),
        Some("replay") => cmd_replay(&args),
        Some("sketch-info") => cmd_sketch_info(&args),
        Some("overhead") => cmd_overhead(&args),
        Some("serve") => cmd_serve(&args),
        Some("submit") => cmd_submit(&args),
        Some("status") => cmd_status(&args),
        Some("fetch-cert") => cmd_fetch_cert(&args),
        Some("stats") => cmd_stats(&args),
        Some("shutdown") => cmd_shutdown(&args),
        Some("fsck") => cmd_fsck(&args),
        Some(other) => Err(UsageError(format!("unknown command '{other}'\n{USAGE}"))),
        None => Err(UsageError(USAGE.to_string())),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => fail(&e.to_string()),
    }
}

fn fail(msg: &str) -> ExitCode {
    eprintln!("pres: {msg}");
    ExitCode::FAILURE
}

fn parse_mechanism(raw: &str) -> Result<Mechanism, UsageError> {
    Ok(match raw.to_uppercase().as_str() {
        "RW" => Mechanism::Rw,
        "SYNC" => Mechanism::Sync,
        "SYS" => Mechanism::Sys,
        "FUNC" => Mechanism::Func,
        "BB" => Mechanism::Bb,
        other => {
            if let Some(n) = other.strip_prefix("BB-") {
                Mechanism::BbN(n.parse().map_err(|_| {
                    UsageError(format!("bad BB-N mechanism '{raw}'"))
                })?)
            } else {
                return Err(UsageError(format!(
                    "unknown mechanism '{raw}' (RW, BB, BB-N, FUNC, SYS, SYNC)"
                )));
            }
        }
    })
}

fn bug_program(id: &str) -> Result<Box<dyn Program>, UsageError> {
    all_bugs()
        .into_iter()
        .find(|b| b.id == id)
        .map(|b| b.program())
        .ok_or_else(|| {
            UsageError(format!("unknown bug '{id}' — see `pres list`"))
        })
}

fn cmd_list(args: &Args) -> Result<(), UsageError> {
    args.finish()?;
    println!("applications (bug-free workloads for `pres overhead`):");
    for app in all_apps() {
        println!("  {:10} [{}]", app.id, app.category.label());
    }
    println!("\nbugs (for `pres record` / `pres reproduce` / `pres replay`):");
    for bug in all_bugs() {
        println!(
            "  {:28} {:22} {}",
            bug.id,
            bug.class.label(),
            bug.modeled_after
        );
    }
    Ok(())
}

fn cmd_record(args: &Args) -> Result<(), UsageError> {
    let bug = args.required("bug")?;
    let mechanism = parse_mechanism(&args.get("mechanism").unwrap_or_else(|| "SYNC".into()))?;
    let seed: Option<u64> = args.get_parsed("seed")?;
    let out = args.get("out").unwrap_or_else(|| format!("{bug}.sketch"));
    let ring_epochs: Option<usize> = args.get_parsed("ring-epochs")?;
    let epoch_entries: Option<u64> = args.get_parsed("epoch-entries")?;
    let epoch_cost: Option<u64> = args.get_parsed("epoch-cost")?;
    args.finish()?;

    // Any ring flag switches recording to always-on mode; the others
    // keep their `RingConfig` defaults.
    let ring = (ring_epochs.is_some() || epoch_entries.is_some() || epoch_cost.is_some()).then(
        || {
            let mut ring = RingConfig::default();
            if let Some(k) = ring_epochs {
                ring.ring_epochs = k.max(1);
            }
            if let Some(n) = epoch_entries {
                ring.epoch_entries = n;
            }
            if let Some(c) = epoch_cost {
                ring.epoch_cost = c;
            }
            ring
        },
    );
    let prog = bug_program(&bug)?;
    let mut pres = Pres::new(mechanism);
    if let Some(ring) = ring.clone() {
        pres = pres.with_ring(ring);
    }
    let recorded = match seed {
        Some(s) => {
            let run = pres.record(prog.as_ref(), s);
            if !run.failed() {
                return Err(UsageError(format!(
                    "seed {s} completed cleanly; omit --seed to search for a failing run"
                )));
            }
            run
        }
        None => pres
            .record_until_failure(prog.as_ref(), 0..10_000)
            .ok_or_else(|| UsageError("no failing production run in 10000 schedules".into()))?,
    };
    println!(
        "recorded failing run: {} (seed {}, {} sketch entries, overhead {:.2}%)",
        recorded.sketch.meta.failure_signature,
        recorded.sketch.meta.seed,
        recorded.sketch.len(),
        recorded.overhead_pct()
    );
    if let Some(cp) = &recorded.sketch.checkpoint {
        println!(
            "ring flush: {} retained epoch(s) from pick {} ({} entries kept, {} epoch(s) / {} entries evicted)",
            cp.epochs.len(),
            cp.boundary,
            cp.retained_entries(),
            cp.dropped_epochs,
            cp.dropped_entries,
        );
    }
    // A ring flush is a v3 container (v2 body plus checkpoint); a classic
    // sketch is v2.
    let bytes = encode_sketch(&recorded.sketch);
    if ring.is_some() {
        // The flush file is the failure's only evidence: write it with
        // the daemon store's durability chain (stage → fsync → rename →
        // dir sync), never a bare `fs::write`.
        pres_svc::flush::write_flush(std::path::Path::new(&out), &bytes)
            .map_err(|e| UsageError(format!("cannot flush {out}: {e}")))?;
    } else {
        std::fs::write(&out, &bytes)
            .map_err(|e| UsageError(format!("cannot write {out}: {e}")))?;
    }
    let version = layout(&bytes)
        .map_err(|e| UsageError(e.to_string()))?
        .version;
    println!("wrote {out} ({} bytes, codec v{version})", bytes.len());
    Ok(())
}

fn cmd_reproduce(args: &Args) -> Result<(), UsageError> {
    let bug = args.required("bug")?;
    let sketch_path = args.required("sketch")?;
    let max_attempts: u32 = args.get_parsed("max-attempts")?.unwrap_or(1000);
    let timeout_secs: Option<u64> = args.get_parsed("timeout-secs")?;
    let cert_path = args.get("cert").unwrap_or_else(|| format!("{bug}.cert"));
    args.finish()?;

    let prog = bug_program(&bug)?;
    let data = std::fs::read(&sketch_path)
        .map_err(|e| UsageError(format!("cannot read {sketch_path}: {e}")))?;
    let sketch = decode_sketch(&data).map_err(|e| UsageError(e.to_string()))?;
    if sketch.meta.program != prog.name() {
        return Err(UsageError(format!(
            "sketch was recorded from '{}', not '{}'",
            sketch.meta.program,
            prog.name()
        )));
    }
    let target = &sketch.meta.failure_signature;
    if target.is_empty() {
        return Err(UsageError(
            "sketch records a clean run; nothing to reproduce".into(),
        ));
    }
    // The wall-clock budget covers the search alone.
    let explore = ExploreConfig {
        max_attempts,
        stop: timeout_secs.map(|secs| StopToken::after(Duration::from_secs(secs))),
        ..ExploreConfig::default()
    };
    let started = Instant::now();
    let repro = reproduce(
        prog.as_ref(),
        &sketch,
        target,
        &VmConfig::default(),
        &explore,
    );
    let elapsed = started.elapsed();
    for h in &repro.history {
        println!(
            "attempt {:3}: {} ({} constraints)",
            h.index, h.status, h.constraints
        );
    }
    println!("exploration: {}", ExploreStats::of(&repro));
    let secs = elapsed.as_secs_f64();
    if secs > 0.0 {
        println!(
            "throughput: {:.1} attempts/s ({} attempts in {:.3}s)",
            f64::from(repro.attempts) / secs,
            repro.attempts,
            secs,
        );
    }
    if !repro.reproduced {
        if repro.stopped {
            return Err(UsageError(format!(
                "timed out after {} attempt(s) (--timeout-secs {})",
                repro.attempts,
                timeout_secs.unwrap_or_default()
            )));
        }
        return Err(UsageError(format!(
            "not reproduced within {max_attempts} attempts"
        )));
    }
    println!("reproduced after {} attempt(s)", repro.attempts);
    let cert = repro.certificate.expect("certificate exists on success");
    let bytes = cert.encode();
    std::fs::write(&cert_path, &bytes)
        .map_err(|e| UsageError(format!("cannot write {cert_path}: {e}")))?;
    println!("wrote {} ({} bytes)", cert_path, bytes.len());
    Ok(())
}

fn cmd_replay(args: &Args) -> Result<(), UsageError> {
    let bug = args.required("bug")?;
    let cert_path = args.required("cert")?;
    let report = args.has("report");
    args.finish()?;

    let prog = bug_program(&bug)?;
    let data = std::fs::read(&cert_path)
        .map_err(|e| UsageError(format!("cannot read {cert_path}: {e}")))?;
    let cert = Certificate::decode(&data).map_err(|e| UsageError(e.to_string()))?;
    let outcome = cert
        .replay(prog.as_ref())
        .map_err(|e| UsageError(e.to_string()))?;
    println!("deterministic reproduction: {}", outcome.status);
    if report {
        println!("\n{}", failure_report(&outcome, &InspectOptions::default()));
    }
    Ok(())
}

fn cmd_sketch_info(args: &Args) -> Result<(), UsageError> {
    let path = args.required("sketch")?;
    args.finish()?;
    let data = std::fs::read(&path)
        .map_err(|e| UsageError(format!("cannot read {path}: {e}")))?;
    let layout = layout(&data).map_err(|e| UsageError(e.to_string()))?;
    let sketch = decode_sketch(&data).map_err(|e| UsageError(e.to_string()))?;
    println!(
        "program {} | mechanism {} | container v{} | production seed {} | {} cores | failure: {}",
        sketch.meta.program,
        sketch.mechanism.name(),
        layout.version,
        sketch.meta.seed,
        sketch.meta.processors,
        if sketch.meta.failure_signature.is_empty() {
            "(none)"
        } else {
            &sketch.meta.failure_signature
        }
    );
    print!("{}", SketchStats::of(&sketch));
    // What a daemon's decode cache holds — and charges — for this sketch.
    let (_, index) = decode_index(&data).map_err(|e| UsageError(e.to_string()))?;
    let resident = index.resident_bytes();
    println!(
        "index: {} entries, {} distinct ops, {}-bit ids, {} resident bytes ({:.1} B/entry)",
        index.len(),
        index.distinct_ops(),
        index.id_bits(),
        resident,
        resident as f64 / index.len().max(1) as f64
    );
    if let Some(cp) = &sketch.checkpoint {
        let segment = layout.checkpoint_bytes.unwrap_or(0);
        if cp.is_genesis() {
            println!(
                "checkpoint: genesis (ring never rotated; full run retained, {segment} segment bytes)"
            );
        } else {
            println!(
                "checkpoint: boundary pick {} | snapshot {} bytes | segment {} bytes | evicted {} epoch(s) / {} entries",
                cp.boundary,
                cp.snapshot.len(),
                segment,
                cp.dropped_epochs,
                cp.dropped_entries,
            );
        }
        println!(
            "epoch directory: {} retained epoch(s), {} entries in window",
            cp.epochs.len(),
            cp.retained_entries()
        );
        for epoch in &cp.epochs {
            println!(
                "  epoch {:>4}: starts at pick {:>8}, {:>8} entries",
                epoch.index, epoch.start_picks, epoch.entries
            );
        }
    }
    println!(
        "shard directory: {} thread(s), {} entries, interleave {} ({} bytes)",
        layout.threads.len(),
        layout.entries,
        layout.interleave_encoding,
        layout.interleave_bytes
    );
    for shard in &layout.threads {
        println!(
            "  thread {:>4}: {:>8} entries, {:>8} column bytes",
            shard.tid, shard.entries, shard.column_bytes
        );
    }
    Ok(())
}

fn cmd_overhead(args: &Args) -> Result<(), UsageError> {
    let app_id = args.required("app")?;
    let mechanism = parse_mechanism(&args.get("mechanism").unwrap_or_else(|| "SYNC".into()))?;
    let processors: u32 = args.get_parsed("processors")?.unwrap_or(8);
    args.finish()?;

    let apps = all_apps();
    let app = apps
        .iter()
        .find(|a| a.id == app_id)
        .ok_or_else(|| UsageError(format!("unknown app '{app_id}' — see `pres list`")))?;
    let prog = app.workload(WorkloadScale::Standard);
    let pres = Pres::new(mechanism).with_processors(processors);
    let run = pres.record(prog.as_ref(), 7);
    println!(
        "{} under {} on {} cores: overhead {:.2}% (slowdown {:.2}x), log {} bytes ({} entries + {} implicit)",
        app_id,
        mechanism.name(),
        processors,
        run.overhead_pct(),
        run.slowdown(),
        run.log_bytes,
        run.sketch.len(),
        run.implicit_events,
    );
    Ok(())
}

fn io_err(context: &str, e: std::io::Error) -> UsageError {
    UsageError(format!("{context}: {e}"))
}

fn connect(args: &Args) -> Result<Client, UsageError> {
    let addr = args.required("addr")?;
    let attempts: u32 = args
        .get_parsed("connect-attempts")?
        .unwrap_or(pres_svc::client::DEFAULT_CONNECT_ATTEMPTS)
        .max(1);
    let token = args.get("auth-token");
    let mut client =
        Client::connect_with_retry(&addr, attempts, pres_svc::client::DEFAULT_CONNECT_BACKOFF)
            .map_err(|e| io_err(&format!("cannot connect to {addr}"), e))?;
    if let Some(token) = token {
        client
            .hello(token.as_bytes())
            .map_err(|e| io_err("authentication failed", e))?;
    }
    Ok(client)
}

fn cmd_serve(args: &Args) -> Result<(), UsageError> {
    let mut opts = ServeOptions::default();
    if let Some(addr) = args.get("addr") {
        opts.addr = addr;
    }
    if let Some(dir) = args.get("data-dir") {
        opts.data_dir = dir.into();
    }
    let mut queue = QueueConfig::default();
    if let Some(workers) = args.get_parsed::<usize>("job-workers")? {
        queue = QueueConfig {
            workers: workers.max(1),
            ..queue
        };
    }
    if let Some(attempts) = args.get_parsed::<u32>("max-attempts")? {
        queue.max_attempts = attempts;
    }
    if let Some(secs) = args.get_parsed::<u64>("job-timeout-secs")? {
        queue.job_timeout = Duration::from_secs(secs);
    }
    if let Some(n) = args.get_parsed::<usize>("journal-batch")? {
        queue.journal_batch = n.max(1);
    }
    if let Some(usecs) = args.get_parsed::<u64>("journal-batch-usecs")? {
        queue.journal_hold = Duration::from_micros(usecs);
    }
    if let Some(bytes) = args.get_parsed::<u64>("sketch-cache-bytes")? {
        queue.sketch_cache_bytes = bytes;
    }
    if let Some(secs) = args.get_parsed::<u64>("log-interval-secs")? {
        opts.log_interval = (secs > 0).then(|| Duration::from_secs(secs));
    }
    if let Some(n) = args.get_parsed::<usize>("conn-workers")? {
        opts.conn_workers = n.max(1);
    }
    if let Some(n) = args.get_parsed::<usize>("max-connections")? {
        opts.max_connections = n.max(1);
    }
    opts.auth_token = args.get("auth-token");
    opts.queue = queue;
    args.finish()?;

    let data_dir = opts.data_dir.clone();
    let QueueConfig { workers, .. } = opts.queue;
    let server = Server::start(opts).map_err(|e| io_err("cannot start daemon", e))?;
    println!(
        "pres-svc listening on {} (data dir {}, {} job worker(s))",
        server.addr(),
        data_dir.display(),
        workers
    );
    // Runs until a SHUTDOWN frame arrives; `pres shutdown --addr ...` is
    // the remote off switch.
    server.join();
    println!("pres-svc drained and stopped");
    Ok(())
}

fn cmd_submit(args: &Args) -> Result<(), UsageError> {
    let bug = args.required("bug")?;
    let sketch_path = args.required("sketch")?;
    let wait_secs: Option<u64> = args.get_parsed("wait-secs")?;
    let chunk_bytes: Option<usize> = args.get_parsed("chunk-bytes")?;
    let mut client = connect(args)?;
    args.finish()?;

    if let Some(n) = chunk_bytes {
        client.set_chunk_bytes(n);
    }
    // Stream straight off the file: the sketch is never whole in memory
    // on either end of the connection.
    let mut sketch = std::fs::File::open(&sketch_path)
        .map_err(|e| io_err(&format!("cannot read {sketch_path}"), e))?;
    let receipt = client
        .submit_stream(&bug, &mut sketch)
        .map_err(|e| io_err("submit failed", e))?;
    println!(
        "job {} sketch {} ({}, {})",
        receipt.job,
        receipt.sketch,
        if receipt.fresh_object {
            "new object"
        } else {
            "object deduplicated"
        },
        if receipt.fresh_job {
            "new job"
        } else {
            "joined existing job"
        },
    );
    if let Some(secs) = wait_secs {
        let status = client
            .wait(receipt.job, Duration::from_secs(secs))
            .map_err(|e| io_err("waiting for job", e))?;
        println!("job {}: {status}", receipt.job);
    }
    Ok(())
}

fn cmd_status(args: &Args) -> Result<(), UsageError> {
    let job: u64 = args
        .get_parsed("job")?
        .ok_or_else(|| UsageError("missing required flag --job".into()))?;
    let mut client = connect(args)?;
    args.finish()?;
    match client.status(job).map_err(|e| io_err("status failed", e))? {
        Some(status) => println!("job {job}: {status}"),
        None => return Err(UsageError(format!("unknown job {job}"))),
    }
    Ok(())
}

fn cmd_fetch_cert(args: &Args) -> Result<(), UsageError> {
    let job: u64 = args
        .get_parsed("job")?
        .ok_or_else(|| UsageError("missing required flag --job".into()))?;
    let out = args.get("out").unwrap_or_else(|| format!("job-{job}.cert"));
    let mut client = connect(args)?;
    args.finish()?;
    let cert = client
        .fetch_certificate(job)
        .map_err(|e| io_err("fetch failed", e))?;
    std::fs::write(&out, &cert).map_err(|e| io_err(&format!("cannot write {out}"), e))?;
    println!("wrote {} ({} bytes)", out, cert.len());
    Ok(())
}

fn cmd_stats(args: &Args) -> Result<(), UsageError> {
    let mut client = connect(args)?;
    args.finish()?;
    let text = client.stats().map_err(|e| io_err("stats failed", e))?;
    println!("{text}");
    Ok(())
}

fn cmd_shutdown(args: &Args) -> Result<(), UsageError> {
    let mut client = connect(args)?;
    args.finish()?;
    client.shutdown().map_err(|e| io_err("shutdown failed", e))?;
    println!("daemon draining");
    Ok(())
}

fn cmd_fsck(args: &Args) -> Result<(), UsageError> {
    let data_dir: std::path::PathBuf = args.required("data-dir")?.into();
    args.finish()?;
    // Offline check: run it against a *stopped* daemon's data directory
    // (a live daemon quarantines on read and fscks at startup anyway).
    let (store, objects) = pres_svc::Store::open(data_dir.join("store"))
        .map_err(|e| io_err("cannot open store", e))?;
    let report = store.fsck().map_err(|e| io_err("store fsck failed", e))?;
    println!(
        "store: {objects} object(s), {} verified, {} quarantined",
        report.verified, report.quarantined
    );
    let journal_path = data_dir.join("journal.log");
    if journal_path.exists() {
        let (_, records) = pres_svc::journal::Journal::open(&journal_path)
            .map_err(|e| io_err("journal replay failed", e))?;
        let (mut submits, mut retries, mut results) = (0u64, 0u64, 0u64);
        for record in &records {
            match record {
                pres_svc::journal::Record::Submit { .. } => submits += 1,
                pres_svc::journal::Record::Retry { .. } => retries += 1,
                pres_svc::journal::Record::Result { .. } => results += 1,
            }
        }
        println!(
            "journal: {} record(s) replayed ({submits} submit, {retries} retry, {results} result)",
            records.len()
        );
    } else {
        println!("journal: none at {}", journal_path.display());
    }
    if report.quarantined > 0 {
        return Err(UsageError(format!(
            "{} corrupt object(s) moved to {}",
            report.quarantined,
            store.quarantine_dir().display()
        )));
    }
    println!("fsck clean");
    Ok(())
}
