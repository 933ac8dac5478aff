//! E3: sketch log sizes per app per mechanism, with the actual v2 container
//! bytes of each sketch.
//!
//! ```text
//! table_logsize [--reduced] [--out FILE]
//! ```
//!
//! Prints the tables and writes the measurements as JSON (for the CI
//! artifact) to `BENCH_logsize.json` unless `--out` overrides it.
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

fn to_json(m: &RecordingMatrix) -> String {
    let mut out = String::from("{\n  \"experiment\": \"E3\",\n  \"rows\": [\n");
    for (i, r) in m.reports.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"app\": \"{}\", \"mechanism\": \"{}\", \"entries\": {}, \"log_bytes\": {}, \"encoded_v2\": {}, \"total_ops\": {}, \"bytes_per_kop\": {:.2}}}{}\n",
            json_escape(&r.program),
            json_escape(&r.mechanism.name()),
            r.entries,
            r.log_bytes,
            r.encoded_v2,
            r.total_ops,
            r.bytes_per_kop(),
            if i + 1 < m.reports.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

fn main() {
    let mut reduced = false;
    let mut out_path = String::from("BENCH_logsize.json");
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
    print!("{}", m.render_logsize());

    // Sanity: a SYNC sketch never logs more than the RW baseline of the
    // same run (the paper's log-size ordering).
    for app in all_apps() {
        let log = |mech| m.cell(app.id, mech).expect("full matrix").log_bytes;
        let (rw, sync) = (log(Mechanism::Rw), log(Mechanism::Sync));
        assert!(sync <= rw, "{}: SYNC log {sync} exceeds RW log {rw}", app.id);
    }

    let json = to_json(&m);
    std::fs::write(&out_path, &json).expect("write logsize JSON");
    println!("wrote {out_path} ({} bytes)", json.len());
}
