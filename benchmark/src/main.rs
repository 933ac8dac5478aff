//! `pres-benchmark` — one benchmark for the whole PRES pipeline.
//!
//! ```text
//! pres-benchmark --workload W --seed N --seconds S --trace 0|1 [--quick] [--out DIR]
//! pres-benchmark suite [--seed N] [--seconds S] [--quick] [--out DIR]
//! pres-benchmark compare A.json B.json [--bounds BENCHMARK.json]
//! pres-benchmark spread RUN.json RUN.json …
//! ```
//!
//! The first form runs one workload and prints, as its last line, the
//! result object the benchmark contract asks for; `suite` runs all four
//! workloads plus the traced pass, each in a child process, and writes
//! `result.json`. See `benchmark/README.md`.

mod compare;
mod daemon;
mod host;
mod inputs;
mod json;
mod lanes;
mod probes;
mod registry;
mod report;
mod stats;
mod trace;
mod workloads;

use json::Json;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use workloads::RunConfig;

/// `--key value` pairs and bare flags after the subcommand.
struct Args {
    options: BTreeMap<String, String>,
    flags: Vec<String>,
    positional: Vec<String>,
}

impl Args {
    fn parse(raw: &[String], flags: &[&str]) -> Result<Args, String> {
        let mut args = Args {
            options: BTreeMap::new(),
            flags: Vec::new(),
            positional: Vec::new(),
        };
        let mut it = raw.iter();
        while let Some(a) = it.next() {
            match a.strip_prefix("--") {
                Some(flag) if flags.contains(&flag) => args.flags.push(flag.to_string()),
                Some(key) => {
                    let value = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
                    args.options.insert(key.to_string(), value.clone());
                }
                None => args.positional.push(a.clone()),
            }
        }
        Ok(args)
    }

    fn number<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.options.get(key) {
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{key}: '{v}' is not a number")),
            None => Ok(default),
        }
    }

    fn flag(&self, name: &str) -> bool {
        self.flags.iter().any(|f| f == name)
    }

    /// Where results go: `--out`, else `benchmark/out` when run from the
    /// repository root, else `out`.
    fn out_dir(&self) -> PathBuf {
        match self.options.get("out") {
            Some(dir) => PathBuf::from(dir),
            None if Path::new("benchmark").is_dir() => PathBuf::from("benchmark/out"),
            None => PathBuf::from("out"),
        }
    }
}

/// Removes the run's scratch directory on every exit path, panics included.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn read_json(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn detail_path(out: &Path, workload: &str, seed: u64, traced: bool) -> PathBuf {
    out.join(format!(
        "run-{workload}-seed{seed}-trace{}.json",
        u8::from(traced)
    ))
}

/// Runs one workload; returns whether its correctness gates held.
fn run_workload(args: &Args) -> Result<bool, String> {
    let workload = args
        .options
        .get("workload")
        .ok_or("--workload is required")?;
    let trace = match args.number::<u8>("trace", 0)? {
        0 => false,
        1 => true,
        other => return Err(format!("--trace takes 0 or 1, not {other}")),
    };
    let out_dir = args.out_dir();
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    let scratch = Scratch(out_dir.join(format!("tmp-{}", std::process::id())));
    std::fs::create_dir_all(&scratch.0).map_err(|e| format!("{}: {e}", scratch.0.display()))?;
    let cfg = RunConfig {
        seed: args.number("seed", 1)?,
        seconds: args.number("seconds", 10.0)?,
        trace,
        quick: args.flag("quick"),
        lanes: host::lanes(),
        scratch: scratch.0.clone(),
    };

    let outcome = workloads::run(workload, &cfg).ok_or_else(|| {
        format!(
            "unknown workload '{workload}' (one of {})",
            workloads::NAMES.join(", ")
        )
    })?;
    let probes = if trace {
        probes::run(&cfg)
    } else {
        BTreeMap::new()
    };
    let detail = report::detail(workload, &cfg, &outcome, &probes);

    if trace {
        let path = out_dir.join(format!("trace-{workload}.jsonl"));
        std::fs::write(&path, trace::to_jsonl(&outcome.spans))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!("{} spans -> {}", outcome.spans.len(), path.display());
    }
    let path = detail_path(&out_dir, workload, cfg.seed, trace);
    std::fs::write(&path, detail.render_pretty())
        .map_err(|e| format!("{}: {e}", path.display()))?;

    println!(
        "{workload}: seed {} | {} lanes | {} trials | {} ops attempted, {} failed",
        cfg.seed, cfg.lanes, outcome.trials, outcome.attempted, outcome.failed
    );
    for why in &outcome.failures {
        println!("  FAILED: {why}");
    }
    print!(
        "{}",
        report::table(&detail, if trace { "per_layer" } else { "end_to_end" })
    );
    for note in &outcome.notes {
        println!("{note}");
    }
    println!("{}", report::contract_line(&detail, trace));
    Ok(outcome.failed == 0)
}

/// All four workloads, then the traced pass — each in its own child
/// process, so peak memory is per workload.
fn suite(args: &Args) -> Result<bool, String> {
    let out_dir = args.out_dir();
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let seconds = match args.options.get("seconds") {
        Some(s) => s.clone(),
        None => read_json(Path::new("BENCHMARK.json"))
            .ok()
            .and_then(|doc| doc.get("run_seconds").and_then(Json::as_f64))
            .unwrap_or(10.0)
            .to_string(),
    };
    let seed = args.number::<u64>("seed", 1)?;
    let mut all_correct = true;
    let mut details: [Vec<Json>; 2] = [Vec::new(), Vec::new()];
    for traced in [false, true] {
        for workload in workloads::NAMES {
            let mut child = Command::new(&exe);
            child
                .args([
                    "--workload",
                    workload,
                    "--seed",
                    &seed.to_string(),
                    "--seconds",
                    &seconds,
                ])
                .args(["--trace", if traced { "1" } else { "0" }])
                .arg("--out")
                .arg(&out_dir);
            if args.flag("quick") {
                child.arg("--quick");
            }
            let status = child
                .status()
                .map_err(|e| format!("cannot run {workload}: {e}"))?;
            all_correct &= status.success();
            details[usize::from(traced)]
                .push(read_json(&detail_path(&out_dir, workload, seed, traced))?);
            println!();
        }
    }
    let result = report::merge(&details[0], &details[1]);
    let path = out_dir.join("result.json");
    std::fs::write(&path, result.render_pretty())
        .map_err(|e| format!("{}: {e}", path.display()))?;
    for (workload, w) in result
        .get("workloads")
        .map(Json::fields)
        .unwrap_or_default()
    {
        println!(
            "{workload}: failed_share {} | trace overhead {:.2} %",
            w.get("failed_share").and_then(Json::as_f64).unwrap_or(1.0),
            w.get("per_layer")
                .and_then(|p| p.get("bench.trace_overhead_pct"))
                .and_then(|m| m.get("value"))
                .and_then(Json::as_f64)
                .unwrap_or(0.0)
        );
    }
    println!("wrote {}", path.display());
    Ok(all_correct)
}

fn compare_files(args: &Args) -> Result<bool, String> {
    let [a, b] = args.positional.as_slice() else {
        return Err("usage: pres-benchmark compare A.json B.json [--bounds BENCHMARK.json]".into());
    };
    let bounds_path = args
        .options
        .get("bounds")
        .map_or("BENCHMARK.json", String::as_str);
    let bounds = compare::bounds(&read_json(Path::new(bounds_path))?)?;
    let report = compare::compare(
        &read_json(Path::new(a))?,
        &read_json(Path::new(b))?,
        &bounds,
    )?;
    print!("{}", report.text);
    Ok(report.worse == 0)
}

/// Run-to-run spread of every end-to-end metric over several detail
/// files of one workload: IQR as a share of the median, the same
/// quartiles the acceptance check takes.
fn spread(args: &Args) -> Result<bool, String> {
    if args.positional.len() < 2 {
        return Err("usage: pres-benchmark spread RUN.json RUN.json …".into());
    }
    let runs: Vec<Json> = args
        .positional
        .iter()
        .map(|p| read_json(Path::new(p)))
        .collect::<Result<_, _>>()?;
    for metric in &registry::END_TO_END {
        let values: Vec<f64> = runs
            .iter()
            .filter_map(|r| {
                r.get("end_to_end")?
                    .get(metric.name)?
                    .get("value")?
                    .as_f64()
            })
            .collect();
        if values.len() >= 2 {
            println!(
                "{:<16} median {:>14.4} {:<4} ({} is better) spread {:>6.2} %  ({} runs)",
                metric.name,
                stats::median(&values),
                metric.unit,
                metric.better.name(),
                100.0 * stats::iqr_share(&values),
                values.len()
            );
        }
    }
    Ok(true)
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match raw.first().map(String::as_str) {
        Some(c) if !c.starts_with("--") => (c, &raw[1..]),
        _ => ("run", &raw[..]),
    };
    if command == "daemon" {
        let [dir, lanes] = rest else {
            eprintln!("usage: pres-benchmark daemon <data-dir> <lanes>");
            return ExitCode::from(2);
        };
        daemon::serve(Path::new(dir), lanes.parse().unwrap_or(1));
    }
    let outcome = Args::parse(rest, &["quick"]).and_then(|args| match command {
        "run" => run_workload(&args),
        "suite" => suite(&args),
        "compare" => compare_files(&args),
        "spread" => spread(&args),
        other => Err(format!(
            "unknown command '{other}' (run, suite, compare, spread)"
        )),
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("pres-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}
