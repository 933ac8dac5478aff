//! `pres-torture` — the kill-the-real-process crash-consistency harness.
//!
//! The faultpoint matrix (`tests/svc_crash.rs`) proves recovery at every
//! *simulated* crash point; this binary removes the simulation. Each
//! iteration starts a real `pres serve` daemon on a persistent data
//! directory, drives submit load over loopback TCP, SIGKILLs the process
//! at a seeded random moment, and then verifies — offline against the
//! files, and online against the restarted daemon — that the durability
//! contract held:
//!
//! * every submit acknowledged before the kill is still known (journal
//!   replay) and every terminal status observed is preserved exactly;
//! * the object store self-verifies: fsck quarantines nothing, staging
//!   is swept, the index matches the objects on disk;
//! * resubmitting a known `(bug, sketch)` joins the existing job rather
//!   than forking a duplicate;
//! * after a final kill-free drain, every job is terminal, every
//!   certificate fetches, decodes, and matches its content digest, and
//!   the store holds exactly |sketches| + |fresh-job payloads| +
//!   |distinct certificates| objects — re-executions after crashes
//!   minted byte-identical certificates, never duplicates.
//!
//! The load is three submit loops: one cycles a small pool of real
//! sketches (whose jobs reproduce and mint certificates), the other two
//! each submit a never-seen payload every time (a job that fails at
//! decode), so every iteration journals concurrent SUBMIT and RESULT
//! records and the kill can land inside a multi-record commit cohort. Each iteration
//! prints the journal's largest cohort read from STATS just before the
//! kill, and the run fails if no iteration saw one of two or more
//! records.
//!
//! Usage (all flags optional):
//!
//! ```text
//! pres-torture [--pres PATH] [--iterations N] [--seed N]
//!              [--data-dir DIR] [--kill-max-ms N]
//! ```
//!
//! Exits 0 only if every invariant held across every iteration.

use pres_apps::registry::all_bugs;
use pres_core::api::Pres;
use pres_core::codec::encode_sketch;
use pres_core::sketch::Mechanism;
use pres_core::Certificate;
use pres_svc::queue::JobStatus;
use pres_svc::store::Store;
use pres_svc::journal::{Journal, Record};
use pres_svc::{sha256, Client, Digest};
use pres_tvm::rng::ChaCha8Rng;
use pres_tvm::sync::Mutex;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitCode, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const BUG: &str = "pbzip-order";

/// Unpaced fresh-job submit loops beside the paced sketch-pool loop.
const FRESH_LOADERS: usize = 2;

struct Options {
    pres: PathBuf,
    iterations: u32,
    seed: u64,
    data_dir: PathBuf,
    kill_max_ms: u64,
}

fn parse_options() -> Result<Options, String> {
    // Default to the `pres` binary built next to this one.
    let sibling_pres = std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(|d| d.join("pres")))
        .unwrap_or_else(|| PathBuf::from("pres"));
    let mut opts = Options {
        pres: sibling_pres,
        iterations: 25,
        seed: 1,
        data_dir: std::env::temp_dir().join(format!("pres-torture-{}", std::process::id())),
        kill_max_ms: 300,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |flag: &str| {
            args.next()
                .ok_or_else(|| format!("missing value for {flag}"))
        };
        match flag.as_str() {
            "--pres" => opts.pres = value("--pres")?.into(),
            "--iterations" => {
                opts.iterations = value("--iterations")?
                    .parse()
                    .map_err(|e| format!("bad --iterations: {e}"))?;
            }
            "--seed" => {
                opts.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("bad --seed: {e}"))?;
            }
            "--data-dir" => opts.data_dir = value("--data-dir")?.into(),
            "--kill-max-ms" => {
                opts.kill_max_ms = value("--kill-max-ms")?
                    .parse::<u64>()
                    .map_err(|e| format!("bad --kill-max-ms: {e}"))?
                    .max(1);
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    Ok(opts)
}

/// What the harness has been *promised* and may therefore demand back
/// after any number of kills.
#[derive(Default)]
struct Ledger {
    /// job id → (bug, sketch digest) for every acknowledged submit.
    acked: BTreeMap<u64, (String, Digest)>,
    /// job id → the terminal status once observed. Terminal means
    /// *forever*: any later disagreement is a violation.
    terminal: BTreeMap<u64, JobStatus>,
}

struct Daemon {
    child: Child,
    addr: String,
    stdout_drain: std::thread::JoinHandle<()>,
}

fn start_daemon(opts: &Options) -> Result<Daemon, String> {
    let mut child = Command::new(&opts.pres)
        .args([
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--data-dir",
            opts.data_dir.to_str().expect("utf-8 data dir"),
            "--job-workers",
            "2",
            "--log-interval-secs",
            "0",
            // Group commit explicitly on, with a hold cap wide enough
            // that SIGKILLs land while a leader waits for entering
            // appenders — the torture audit must hold for batched
            // cohorts, not just per-record syncs.
            "--journal-batch",
            "64",
            "--journal-batch-usecs",
            "2000",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("cannot spawn {}: {e}", opts.pres.display()))?;
    let stdout = child.stdout.take().expect("stdout piped");
    let mut reader = BufReader::new(stdout);
    let mut line = String::new();
    let addr = loop {
        line.clear();
        let n = reader
            .read_line(&mut line)
            .map_err(|e| format!("reading daemon stdout: {e}"))?;
        if n == 0 {
            let _ = child.kill();
            return Err("daemon exited before announcing its address".into());
        }
        // cmd_serve prints: "pres-svc listening on HOST:PORT (data dir ..."
        if let Some(rest) = line.strip_prefix("pres-svc listening on ") {
            match rest.split_whitespace().next() {
                Some(addr) => break addr.to_string(),
                None => return Err(format!("unparsable listen line: {line:?}")),
            }
        }
    };
    // Keep draining stdout so the daemon never blocks on a full pipe.
    let stdout_drain = std::thread::spawn(move || {
        let mut sink = String::new();
        while matches!(reader.read_line(&mut sink), Ok(n) if n > 0) {
            sink.clear();
        }
    });
    Ok(Daemon {
        child,
        addr,
        stdout_drain,
    })
}

/// Distinct sketch blobs for one bug: different production seeds record
/// different failing schedules, so each is its own store object and job.
fn sketch_pool() -> Vec<Vec<u8>> {
    let case = all_bugs()
        .into_iter()
        .find(|b| b.id == BUG)
        .expect("torture bug exists");
    let pres = Pres::new(Mechanism::Sync);
    let mut pool = Vec::new();
    let mut from = 0;
    while pool.len() < 4 && from < 50_000 {
        let program = case.program();
        let Some(run) = pres.record_until_failure(program.as_ref(), from..from + 10_000) else {
            break;
        };
        from = run.sketch.meta.seed + 1;
        pool.push(encode_sketch(&run.sketch));
    }
    assert!(!pool.is_empty(), "no failing run recorded for {BUG}");
    pool
}

/// The `n`th fresh-job payload: bytes no codec accepts, so its job fails
/// at decode — a SUBMIT and a RESULT record for the journal, no search.
fn garbage(n: u64) -> Vec<u8> {
    format!("pres-torture: not a sketch, #{n}").into_bytes()
}

/// What one submit loop sends.
enum Payloads {
    /// A random sketch of the recorded pool, 1–10 ms apart.
    Pool(Arc<Vec<Vec<u8>>>),
    /// The next never-sent `garbage(n)`, back to back.
    Fresh(Arc<AtomicU64>),
}

/// Loops submit + status-poll against `addr` until `stop`, recording
/// acknowledgements in the ledger. Transport errors are expected (the
/// daemon is being murdered) and simply end the loop.
fn submit_load(
    addr: String,
    payloads: Payloads,
    ledger: Arc<Mutex<Ledger>>,
    stop: Arc<AtomicBool>,
    seed: u64,
) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let Ok(mut client) = Client::connect(&addr) else {
        return;
    };
    while !stop.load(Ordering::SeqCst) {
        let blob = match &payloads {
            Payloads::Pool(pool) => pool[rng.gen_range(0..pool.len())].clone(),
            Payloads::Fresh(sent) => garbage(sent.fetch_add(1, Ordering::SeqCst)),
        };
        match client.submit(BUG, &blob) {
            Ok(receipt) => {
                let mut ledger = ledger.lock();
                ledger
                    .acked
                    .insert(receipt.job, (BUG.to_string(), receipt.sketch));
            }
            Err(_) => return,
        }
        // Poll a random known job; a terminal answer is a promise.
        let known: Vec<u64> = ledger.lock().acked.keys().copied().collect();
        if !known.is_empty() {
            let job = known[rng.gen_range(0..known.len())];
            match client.status(job) {
                Ok(Some(status)) if status.is_terminal() => {
                    ledger.lock().terminal.entry(job).or_insert(status);
                }
                Ok(_) => {}
                Err(_) => return,
            }
        }
        if let Payloads::Pool(_) = payloads {
            std::thread::sleep(Duration::from_millis(rng.gen_range(1usize..10) as u64));
        }
    }
}

/// The offline half: with the daemon dead, open the files directly.
fn check_offline(data_dir: &Path, ledger: &Ledger, violations: &mut Vec<String>) {
    // Store: index == objects on disk, everything self-verifies, staging
    // is swept by the open itself.
    match Store::open(data_dir.join("store")) {
        Ok((store, _)) => {
            match store.fsck() {
                Ok(report) => {
                    if report.quarantined != 0 {
                        violations.push(format!(
                            "store fsck quarantined {} object(s) after SIGKILL",
                            report.quarantined
                        ));
                    }
                }
                Err(e) => violations.push(format!("store fsck failed: {e}")),
            }
            let tmp_left = std::fs::read_dir(data_dir.join("store/tmp"))
                .map(|d| d.count())
                .unwrap_or(0);
            if tmp_left != 0 {
                violations.push(format!("{tmp_left} staging file(s) survived the sweep"));
            }
        }
        Err(e) => violations.push(format!("store reopen failed: {e}")),
    }

    // Journal: replays cleanly and holds every acknowledged transition.
    match Journal::open(data_dir.join("journal.log")) {
        Ok((_, records)) => {
            let mut submits: BTreeMap<u64, (String, Digest)> = BTreeMap::new();
            let mut results: BTreeMap<u64, JobStatus> = BTreeMap::new();
            for record in &records {
                match record {
                    Record::Submit { job, bug, sketch } => {
                        if submits.insert(*job, (bug.clone(), *sketch)).is_some() {
                            violations.push(format!("job {job} journaled SUBMIT twice"));
                        }
                    }
                    Record::Result { job, status } => {
                        results.insert(*job, status.clone());
                    }
                    Record::Retry { .. } => {}
                }
            }
            for (job, promised) in &ledger.acked {
                match submits.get(job) {
                    Some(on_disk) if on_disk == promised => {}
                    Some(on_disk) => violations.push(format!(
                        "job {job}: journal says {on_disk:?}, client was promised {promised:?}"
                    )),
                    None => violations.push(format!(
                        "job {job}: acknowledged submit missing from the journal"
                    )),
                }
            }
            for (job, promised) in &ledger.terminal {
                match results.get(job) {
                    Some(on_disk) if on_disk == promised => {}
                    other => violations.push(format!(
                        "job {job}: terminal status {promised:?} not durably {other:?}"
                    )),
                }
            }
        }
        Err(e) => violations.push(format!("journal reopen failed: {e}")),
    }
}

/// The online half: the restarted daemon must still honor every promise.
fn check_online(addr: &str, ledger: &mut Ledger, sketches: &[Vec<u8>], violations: &mut Vec<String>) {
    let mut client = match Client::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            violations.push(format!("cannot connect to restarted daemon: {e}"));
            return;
        }
    };
    for (job, (_, digest)) in &ledger.acked {
        match client.status(*job) {
            Ok(Some(status)) => {
                if let Some(promised) = ledger.terminal.get(job) {
                    if status != *promised {
                        violations.push(format!(
                            "job {job}: terminal {promised:?} became {status:?} after restart"
                        ));
                    }
                }
            }
            Ok(None) => violations.push(format!("job {job} (sketch {digest}) forgotten after restart")),
            Err(e) => violations.push(format!("status({job}) failed after restart: {e}")),
        }
    }
    // Dedup must survive restart: resubmitting a sketch the daemon has
    // already acknowledged joins the existing object and job, never
    // forking a duplicate. Sketches never acknowledged yet are simply
    // ingested now (and become promises themselves).
    let known: Vec<Digest> = ledger.acked.values().map(|(_, d)| *d).collect();
    for sketch in sketches {
        match client.submit(BUG, sketch) {
            Ok(receipt) => {
                if known.contains(&receipt.sketch) {
                    if receipt.fresh_object {
                        violations.push(format!(
                            "sketch {} re-ingested as a fresh object after restart",
                            receipt.sketch
                        ));
                    }
                    if receipt.fresh_job {
                        violations.push(format!(
                            "sketch {} forked duplicate job {} after restart",
                            receipt.sketch, receipt.job
                        ));
                    }
                }
                ledger
                    .acked
                    .insert(receipt.job, (BUG.to_string(), receipt.sketch));
            }
            Err(e) => violations.push(format!("resubmit after restart failed: {e}")),
        }
    }
}

/// The daemon's `journal_cohort_max` from STATS: whether the kill about
/// to land can fall inside a multi-record commit window. `None` when the
/// daemon does not answer.
fn journal_cohort_max(addr: &str) -> Option<u64> {
    let stats = Client::connect(addr).ok()?.stats().ok()?;
    stats
        .lines()
        .find_map(|l| l.strip_prefix("journal_cohort_max ")?.trim().parse().ok())
}

fn kill(mut daemon: Daemon) {
    let _ = daemon.child.kill(); // SIGKILL on unix
    let _ = daemon.child.wait();
    let _ = daemon.stdout_drain.join();
}

fn main() -> ExitCode {
    let opts = match parse_options() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("pres-torture: {e}");
            return ExitCode::FAILURE;
        }
    };
    let _ = std::fs::remove_dir_all(&opts.data_dir);
    std::fs::create_dir_all(&opts.data_dir).expect("create data dir");
    eprintln!(
        "pres-torture: {} iterations, seed {}, data dir {}, pres = {}",
        opts.iterations,
        opts.seed,
        opts.data_dir.display(),
        opts.pres.display()
    );

    let started = Instant::now();
    let sketches = Arc::new(sketch_pool());
    let sketch_digests: Vec<Digest> = sketches.iter().map(|s| sha256(s)).collect();
    eprintln!("pres-torture: {} distinct sketches recorded", sketches.len());
    let ledger = Arc::new(Mutex::new(Ledger::default()));
    let mut rng = ChaCha8Rng::seed_from_u64(opts.seed);
    let mut violations: Vec<String> = Vec::new();
    let mut cohort_max_seen = 0;
    // Fresh-job payloads handed out so far: `garbage(0..n)`.
    let garbage_sent = Arc::new(AtomicU64::new(0));

    for iteration in 1..=opts.iterations {
        let daemon = match start_daemon(&opts) {
            Ok(d) => d,
            Err(e) => {
                violations.push(format!("iteration {iteration}: {e}"));
                break;
            }
        };

        // Restart promises first: the daemon we just started must still
        // honor everything acknowledged before the previous kill.
        {
            let mut ledger = ledger.lock();
            let before = violations.len();
            check_online(&daemon.addr, &mut ledger, &sketches, &mut violations);
            for v in &violations[before..] {
                eprintln!("pres-torture: VIOLATION (iteration {iteration}, online): {v}");
            }
        }

        // Load until the seeded kill moment. The pool's few sketches are
        // all journaled by the first iteration, after which their submits
        // only join existing jobs; the fresh loaders' jobs keep SUBMIT
        // and RESULT records flowing, so the journal has concurrent
        // appenders to form cohorts from when the kill lands.
        let stop = Arc::new(AtomicBool::new(false));
        let seed = opts.seed ^ (u64::from(iteration) << 32);
        let fresh = (0..FRESH_LOADERS).map(|_| Payloads::Fresh(Arc::clone(&garbage_sent)));
        let loaders: Vec<_> = std::iter::once(Payloads::Pool(Arc::clone(&sketches)))
            .chain(fresh)
            .zip(0u64..)
            .map(|(payloads, k)| {
                let addr = daemon.addr.clone();
                let ledger = Arc::clone(&ledger);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || submit_load(addr, payloads, ledger, stop, seed ^ k))
            })
            .collect();
        let kill_after = Duration::from_millis(rng.gen_range(1..opts.kill_max_ms as usize) as u64);
        std::thread::sleep(kill_after);
        let cohort_max = journal_cohort_max(&daemon.addr);
        cohort_max_seen = cohort_max_seen.max(cohort_max.unwrap_or(0));
        kill(daemon);
        stop.store(true, Ordering::SeqCst);
        for loader in loaders {
            let _ = loader.join();
        }

        let before = violations.len();
        {
            let ledger = ledger.lock();
            check_offline(&opts.data_dir, &ledger, &mut violations);
        }
        for v in &violations[before..] {
            eprintln!("pres-torture: VIOLATION (iteration {iteration}, offline): {v}");
        }
        let l = ledger.lock();
        eprintln!(
            "pres-torture: iteration {iteration}/{}: killed after {kill_after:?} (largest cohort {}); {} acked job(s), {} terminal, {} violation(s)",
            opts.iterations,
            cohort_max.map_or_else(|| "unknown".to_string(), |n| n.to_string()),
            l.acked.len(),
            l.terminal.len(),
            violations.len()
        );
    }

    // The audit only covers batched cohorts if the load formed some.
    if cohort_max_seen < 2 {
        violations.push(format!(
            "no kill followed a multi-record journal cohort (largest {cohort_max_seen}): \
             the load no longer exercises group commit"
        ));
        eprintln!(
            "pres-torture: VIOLATION: {}",
            violations.last().expect("just pushed")
        );
    }

    // Final kill-free pass: drain everything and audit the end state.
    eprintln!("pres-torture: final drain (no kill)");
    match start_daemon(&opts) {
        Ok(daemon) => {
            let before = violations.len();
            // Every fresh-job payload handed out, acknowledged or not,
            // may be in the store; resubmitting them all makes the store
            // count below exact (and re-checks dedup for the acked ones).
            let garbage_count = garbage_sent.load(Ordering::SeqCst);
            let mut blobs = sketches.to_vec();
            blobs.extend((0..garbage_count).map(garbage));
            {
                let mut ledger = ledger.lock();
                check_online(&daemon.addr, &mut ledger, &blobs, &mut violations);
            }
            match Client::connect(&daemon.addr) {
                Ok(mut client) => {
                    let jobs: Vec<(u64, Digest)> = ledger
                        .lock()
                        .acked
                        .iter()
                        .map(|(job, (_, d))| (*job, *d))
                        .collect();
                    let mut certs: Vec<Digest> = Vec::new();
                    for (job, sketch) in jobs {
                        match client.wait(job, Duration::from_secs(300)) {
                            Ok(JobStatus::Succeeded { certificate, .. }) => {
                                match client.fetch_certificate(job) {
                                    Ok(bytes) => {
                                        if sha256(&bytes) != certificate {
                                            violations.push(format!(
                                                "job {job}: certificate bytes do not match digest {certificate}"
                                            ));
                                        } else if Certificate::decode(&bytes).is_err() {
                                            violations.push(format!(
                                                "job {job}: certificate {certificate} does not decode"
                                            ));
                                        }
                                        if !certs.contains(&certificate) {
                                            certs.push(certificate);
                                        }
                                    }
                                    Err(e) => violations
                                        .push(format!("job {job}: certificate fetch failed: {e}")),
                                }
                            }
                            // A fresh-job payload is meant to fail.
                            Ok(_) if !sketch_digests.contains(&sketch) => {}
                            Ok(terminal) => eprintln!(
                                "pres-torture: note: job {job} drained as {terminal} (not Succeeded)"
                            ),
                            Err(e) => {
                                violations.push(format!("job {job} never drained: {e}"));
                            }
                        }
                    }
                    let _ = client.shutdown();
                    let _ = daemon.stdout_drain.join();
                    let mut child = daemon.child;
                    let _ = child.wait();

                    // Duplicate-certificate audit: the store must hold the
                    // sketches plus one object per *distinct* certificate —
                    // crash-era re-executions converged, byte for byte.
                    match Store::open(opts.data_dir.join("store")) {
                        Ok((store, count)) => {
                            let expected =
                                sketch_digests.len() + garbage_count as usize + certs.len();
                            if count != expected {
                                violations.push(format!(
                                    "store holds {count} objects; expected {} sketches + {} fresh-job payloads + {} certificates",
                                    sketch_digests.len(),
                                    garbage_count,
                                    certs.len()
                                ));
                            }
                            match store.fsck() {
                                Ok(report) if report.quarantined == 0 => {}
                                Ok(report) => violations.push(format!(
                                    "final fsck quarantined {} object(s)",
                                    report.quarantined
                                )),
                                Err(e) => violations.push(format!("final fsck failed: {e}")),
                            }
                        }
                        Err(e) => violations.push(format!("final store open failed: {e}")),
                    }
                }
                Err(e) => violations.push(format!("final connect failed: {e}")),
            }
            for v in &violations[before..] {
                eprintln!("pres-torture: VIOLATION (final drain): {v}");
            }
        }
        Err(e) => violations.push(format!("final daemon start failed: {e}")),
    }

    let l = ledger.lock();
    eprintln!(
        "pres-torture: done in {:.1?}: {} iterations, {} acked job(s), largest journal cohort before a kill {}, {} violation(s)",
        started.elapsed(),
        opts.iterations,
        l.acked.len(),
        cohort_max_seen,
        violations.len()
    );
    if violations.is_empty() {
        let _ = std::fs::remove_dir_all(&opts.data_dir);
        eprintln!("pres-torture: PASS");
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "pres-torture: FAIL — state preserved in {}",
            opts.data_dir.display()
        );
        ExitCode::FAILURE
    }
}
