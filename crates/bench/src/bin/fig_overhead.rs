//! E2: production-run recording overhead per app per mechanism.
//!
//! ```text
//! fig_overhead [--reduced] [--out FILE]
//! ```
//!
//! Prints the tables and writes the measurements as JSON (for the CI
//! artifact) to `BENCH_overhead.json` unless `--out` overrides it.
//! `--reduced` runs the small workloads (CI smoke).
use pres_apps::registry::all_apps;
use pres_apps::WorkloadScale;
use pres_bench::experiments::{RecordingMatrix, OVERHEAD_PROCESSORS};
use pres_core::sketch::Mechanism;

fn json_escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => "\\\"".chars().collect::<Vec<_>>(),
            '\\' => "\\\\".chars().collect(),
            '\n' => "\\n".chars().collect(),
            c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32).chars().collect(),
            c => vec![c],
        })
        .collect()
}

fn to_json(m: &RecordingMatrix, processors: u32) -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!(
        "  \"experiment\": \"E2\",\n  \"processors\": {processors},\n  \"rows\": [\n"
    ));
    for (i, r) in m.reports.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"app\": \"{}\", \"mechanism\": \"{}\", \"overhead_pct\": {:.4}, \"slowdown\": {:.4}, \"entries\": {}, \"implicit_events\": {}}}{}\n",
            json_escape(&r.program),
            json_escape(&r.mechanism.name()),
            r.overhead_pct,
            r.slowdown,
            r.entries,
            r.implicit_events,
            if i + 1 < m.reports.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

fn main() {
    let mut reduced = false;
    let mut out_path = String::from("BENCH_overhead.json");
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--reduced" => reduced = true,
            "--out" => out_path = args.next().expect("--out needs a path"),
            other => panic!("unknown argument '{other}'"),
        }
    }
    let scale = if reduced {
        WorkloadScale::Small
    } else {
        WorkloadScale::Standard
    };

    let m = RecordingMatrix::run(OVERHEAD_PROCESSORS, scale);
    print!("{}", m.render_overhead());

    // Sanity: on every app the RW baseline costs at least as much as SYNC
    // sketching (the paper's headline ordering).
    for app in all_apps() {
        let overhead = |mech| m.cell(app.id, mech).expect("full matrix").overhead_pct;
        let (rw, sync) = (overhead(Mechanism::Rw), overhead(Mechanism::Sync));
        assert!(rw >= sync, "{}: RW {rw} below SYNC {sync}", app.id);
    }

    let json = to_json(&m, OVERHEAD_PROCESSORS);
    std::fs::write(&out_path, &json).expect("write overhead JSON");
    println!("wrote {out_path} ({} bytes)", json.len());
}
