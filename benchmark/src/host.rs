//! What the host can tell us: CPU time, peak memory, and the fingerprint a
//! result needs to mean anything on another machine.

use crate::json::Json;
use std::process::Command;

/// Closed-loop lanes per workload: every core busy, never more than four.
pub fn lanes() -> usize {
    host_cpus().min(4)
}

pub fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Linux reports process times in `USER_HZ` ticks, which is 100 on every
/// supported architecture (reading it properly takes `sysconf`, i.e. libc).
const TICK_MS: f64 = 10.0;

/// CPU milliseconds this process has used (all threads, user + system)
/// plus those of every child it has already waited for — so a daemon
/// child's CPU time lands here the moment the trial reaps it.
pub fn cpu_ms() -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| parse_stat_cpu_ticks(&s))
        .map_or(0.0, |ticks| ticks as f64 * TICK_MS)
}

/// utime + stime + cutime + cstime from a `/proc/<pid>/stat` line. The
/// command name (field 2) may contain spaces and parentheses, so fields
/// are counted from the last `)`.
pub fn parse_stat_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    // `rest` starts at field 3 (state); utime..cstime are fields 14..17.
    let fields: Vec<&str> = rest.split_whitespace().collect();
    fields
        .get(11..15)?
        .iter()
        .map(|f| f.parse::<u64>().ok())
        .sum()
}

/// A `/proc/<pid>/status` memory figure in MiB; `None` once `pid` has exited.
fn status_mib(pid: u32, key: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    parse_status_kib(&status, key).map(|kib| kib as f64 / 1024.0)
}

/// Peak resident set of `pid` in MiB (`VmHWM`).
pub fn peak_rss_mib(pid: u32) -> Option<f64> {
    status_mib(pid, "VmHWM")
}

/// Current resident set of `pid` in MiB (`VmRSS`).
pub fn rss_mib(pid: u32) -> Option<f64> {
    status_mib(pid, "VmRSS")
}

pub fn parse_status_kib(status: &str, key: &str) -> Option<u64> {
    status.lines().find_map(|line| {
        let value = line.strip_prefix(key)?.strip_prefix(':')?;
        value.split_whitespace().next()?.parse().ok()
    })
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// `git rev-parse HEAD`, with `-dirty` when the tree has changes;
/// `"unknown"` outside a git checkout.
fn commit() -> String {
    let Some(head) = command_line("git", &["rev-parse", "HEAD"]) else {
        return "unknown".into();
    };
    match command_line("git", &["status", "--porcelain"]) {
        Some(changes) if !changes.is_empty() => format!("{head}-dirty"),
        _ => head,
    }
}

/// The host half of a result header.
pub fn fingerprint() -> Json {
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".into(), |s| s.trim().to_string());
    Json::obj()
        .with("commit", commit())
        .with("host_cpus", host_cpus())
        .with("lanes", lanes())
        .with("kernel", kernel)
        .with(
            "rustc",
            command_line("rustc", &["-V"]).unwrap_or_else(|| "unknown".into()),
        )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_cpu_fields_are_found_past_a_hostile_command_name() {
        let stat = "4242 (pres) bench (x)) S 1 4242 4242 0 -1 4194304 911 0 0 0 \
                    37 5 11 2 20 0 3 0 123456 1000000 250 18446744073709551615 1 1 0 0";
        assert_eq!(parse_stat_cpu_ticks(stat), Some(37 + 5 + 11 + 2));
        assert_eq!(parse_stat_cpu_ticks("garbage"), None);
        assert_eq!(parse_stat_cpu_ticks("1 (x) S 1 2"), None);
    }

    #[test]
    fn status_keys_parse_in_kib() {
        let status = "Name:\tpres\nVmPeak:\t  9000 kB\nVmHWM:\t    2048 kB\nVmRSS:\t 1024 kB\n";
        assert_eq!(parse_status_kib(status, "VmHWM"), Some(2048));
        assert_eq!(parse_status_kib(status, "VmRSS"), Some(1024));
        assert_eq!(parse_status_kib(status, "VmSwap"), None);
    }

    #[test]
    fn this_process_has_cpu_time_and_memory() {
        assert!(peak_rss_mib(std::process::id()).unwrap() > 0.0);
        assert!(lanes() >= 1 && lanes() <= 4);
        assert!(cpu_ms() >= 0.0);
    }
}
