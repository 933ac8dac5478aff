//! A `pres-svc` daemon in a child process of the benchmark binary, one per
//! trial: its CPU time and peak memory are its own, and nothing it cached
//! survives into the next trial.

use crate::host;
use pres_svc::queue::QueueConfig;
use pres_svc::server::{ServeOptions, Server};
use pres_svc::{Client, JobStatus};
use std::collections::BTreeMap;
use std::io::{self, BufRead, BufReader, Read};
use std::path::Path;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// Child mode (`pres-benchmark daemon <data-dir> <lanes>`): start a daemon
/// with defaults except the worker counts, print the bound address, serve
/// until SHUTDOWN — or until stdin closes, which means the generator that
/// spawned us is gone and nobody will ever send SHUTDOWN.
pub fn serve(data_dir: &Path, lanes: usize) -> ! {
    let server = Server::start(ServeOptions {
        addr: "127.0.0.1:0".into(),
        data_dir: data_dir.to_path_buf(),
        queue: QueueConfig {
            workers: lanes,
            ..QueueConfig::default()
        },
        conn_workers: lanes,
        log_interval: None,
        ..ServeOptions::default()
    })
    .unwrap_or_else(|e| {
        eprintln!("pres-benchmark daemon: cannot start: {e}");
        std::process::exit(2);
    });
    println!("LISTEN {}", server.addr());
    std::thread::spawn(|| {
        let mut sink = Vec::new();
        let _ = io::stdin().read_to_end(&mut sink);
        std::process::exit(3);
    });
    server.join();
    std::process::exit(0);
}

pub struct Daemon {
    child: Child,
    /// Held open for the child's lifetime; closing it is the child's cue
    /// that its parent is gone.
    _stdin: ChildStdin,
    /// Held so a late write by the child never meets a closed pipe.
    _stdout: BufReader<ChildStdout>,
    pub addr: String,
    /// Spawn → address printed (store scan, journal replay, listen).
    pub start_ms: f64,
}

impl Daemon {
    pub fn spawn(data_dir: &Path, lanes: usize) -> io::Result<Daemon> {
        let exe = std::env::current_exe()?;
        let started = Instant::now();
        let mut child = Command::new(exe)
            .arg("daemon")
            .arg(data_dir)
            .arg(lanes.to_string())
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()?;
        let stdin = child.stdin.take().expect("piped stdin");
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut first = String::new();
        stdout.read_line(&mut first)?;
        let Some(addr) = first.trim().strip_prefix("LISTEN ") else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(io::Error::other(format!(
                "daemon child did not announce an address (said {first:?})"
            )));
        };
        Ok(Daemon {
            child,
            _stdin: stdin,
            _stdout: stdout,
            addr: addr.to_string(),
            start_ms: started.elapsed().as_secs_f64() * 1e3,
        })
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    pub fn client(&self) -> io::Result<Client> {
        Client::connect_with_retry(&self.addr, 6, Duration::from_millis(20))
    }

    pub fn stats(&self) -> io::Result<Stats> {
        Ok(Stats::parse(&self.client()?.stats()?))
    }

    pub fn peak_rss_mib(&self) -> f64 {
        host::peak_rss_mib(self.pid()).unwrap_or(0.0)
    }

    /// Drains and reaps the daemon; its CPU time is in
    /// [`host::cpu_ms`] once this returns.
    pub fn stop(mut self) -> io::Result<()> {
        self.client()?.shutdown()?;
        let status = self.child.wait()?;
        if status.success() {
            Ok(())
        } else {
            Err(io::Error::other(format!(
                "daemon child exited with {status}"
            )))
        }
    }
}

impl Drop for Daemon {
    /// A trial that panics or errors out must not leave its daemon behind.
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// The daemon's STATS text: one `key value…` pair per line.
#[derive(Debug, Clone, Default)]
pub struct Stats(BTreeMap<String, String>);

impl Stats {
    pub fn parse(text: &str) -> Stats {
        Stats(
            text.lines()
                .filter_map(|line| {
                    let line = line.trim();
                    let (key, value) = line.split_once(char::is_whitespace)?;
                    Some((key.to_string(), value.trim().to_string()))
                })
                .collect(),
        )
    }

    pub fn text(&self, key: &str) -> Option<&str> {
        self.0.get(key).map(String::as_str)
    }

    /// A counter; a missing or non-numeric key is an error in the caller's
    /// correctness gate, not a silent zero.
    pub fn count(&self, key: &str) -> io::Result<u64> {
        self.text(key)
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| io::Error::other(format!("no counter '{key}' in daemon STATS")))
    }
}

/// Polls a job every millisecond until it is terminal. [`Client::wait`]
/// sleeps 25 ms between polls, which would floor every job's latency at
/// 25 ms; the benchmark polls itself and reports how often.
pub fn poll_terminal(
    client: &mut Client,
    job: u64,
    budget: Duration,
) -> io::Result<(JobStatus, u32)> {
    let deadline = Instant::now() + budget;
    let mut polls = 0;
    loop {
        polls += 1;
        match client.status(job)? {
            Some(status) if status.is_terminal() => return Ok((status, polls)),
            Some(_) if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(1)),
            Some(status) => {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    format!("job {job} still '{status}' after {budget:?}"),
                ))
            }
            None => return Err(io::Error::other(format!("daemon does not know job {job}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Captured from a daemon after a 26-job diagnose-corpus trial.
    const CAPTURED: &str = "connections        5\n\
        connections_refused 0\n\
        connections_live   1\n\
        window_stalls      0\n\
        streaming_submits  26\n\
        frames_rejected    0\n\
        submits            26\n\
        dedup_hits         0\n\
        jobs_succeeded     26\n\
        jobs_exhausted     0\n\
        jobs_timed_out     0\n\
        jobs_failed        0\n\
        retries            0\n\
        attempts           41\n\
        jobs_from_checkpoint 26\n\
        journal_records    52\n\
        journal_syncs      38\n\
        journal_mean_cohort 1.37\n\
        journal_cohort_max 2\n\
        journal_append_failures 0\n\
        sketch_cache_hits  0\n\
        sketch_cache_misses 26\n\
        sketch_cache_evictions 0\n\
        peer_rpcs          0\n\
        latency_p50        <=10ms\n\
        latency_p99        n/a\n\
        latency_ms         <=1:0 <=10:20 <=100:6 <=1000:0 <=10000:0 inf:0";

    #[test]
    fn stats_text_parses_counters_and_keeps_free_text() {
        let stats = Stats::parse(CAPTURED);
        assert_eq!(stats.count("attempts").unwrap(), 41);
        assert_eq!(stats.count("jobs_from_checkpoint").unwrap(), 26);
        assert_eq!(stats.count("journal_syncs").unwrap(), 38);
        assert_eq!(stats.count("sketch_cache_misses").unwrap(), 26);
        assert_eq!(stats.text("journal_mean_cohort"), Some("1.37"));
        assert_eq!(stats.text("latency_p50"), Some("<=10ms"));
        assert_eq!(
            stats.text("latency_ms"),
            Some("<=1:0 <=10:20 <=100:6 <=1000:0 <=10000:0 inf:0")
        );
        assert!(stats.count("latency_p50").is_err());
        assert!(stats.count("no_such_counter").is_err());
    }
}
