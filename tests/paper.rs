//! The paper pin.
//!
//! `pres_bench::experiments::paper()` renders E1–E10 (and E3b) from fixed
//! seeds, fixed workloads and model-unit costs, so it is one deterministic
//! string. It is committed as `tests/data/paper.txt`, and this suite
//! regenerates it and compares byte for byte: a change that moves a paper
//! number must re-bless the file in the same diff, with
//!
//! ```sh
//! GOLDEN_BLESS=1 cargo test --offline --test paper
//! ```
//!
//! and name every moved row in its change log.

use pres_apps::registry::{all_apps, WorkloadScale};
use pres_bench::experiments::{self, RecordingMatrix, OVERHEAD_PROCESSORS};
use pres_core::sketch::Mechanism;

const PIN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/data/paper.txt");

#[test]
fn paper_matches_the_committed_pin() {
    let now = experiments::paper();
    if std::env::var_os("GOLDEN_BLESS").is_some() {
        std::fs::write(PIN, &now).expect("write paper pin");
        return;
    }
    let pinned = std::fs::read_to_string(PIN)
        .unwrap_or_else(|e| panic!("{PIN}: {e} (generate with GOLDEN_BLESS=1)"));
    let (want, got): (Vec<&str>, Vec<&str>) = (pinned.lines().collect(), now.lines().collect());
    if let Some(i) = (0..want.len().max(got.len())).find(|&i| want.get(i) != got.get(i)) {
        let line = |lines: &[&str]| lines.get(i).map_or("<past the end>".into(), |l| format!("{l:?}"));
        panic!(
            "tests/data/paper.txt line {} differs from experiments::paper():\n  pinned: {}\n  now:    {}",
            i + 1,
            line(&want),
            line(&got),
        );
    }
    assert_eq!(pinned, now, "tests/data/paper.txt differs in line endings");
}

/// The paper's orderings, at the small scale CI smoke-tested and at the
/// standard scale the pin renders: on every app the RW baseline costs at
/// least as much as SYNC sketching, and a SYNC sketch never logs more than
/// RW's.
#[test]
fn rw_costs_and_logs_at_least_as_much_as_sync_on_every_app() {
    for scale in [WorkloadScale::Small, WorkloadScale::Standard] {
        let m = RecordingMatrix::run(OVERHEAD_PROCESSORS, scale);
        for app in all_apps() {
            let cell = |mech| m.cell(app.id, mech).expect("full matrix");
            let (rw, sync) = (cell(Mechanism::Rw), cell(Mechanism::Sync));
            assert!(
                rw.overhead_pct >= sync.overhead_pct,
                "{} ({scale:?}): RW overhead {} below SYNC {}",
                app.id,
                rw.overhead_pct,
                sync.overhead_pct,
            );
            assert!(
                sync.log_bytes <= rw.log_bytes,
                "{} ({scale:?}): SYNC log {} exceeds RW log {}",
                app.id,
                sync.log_bytes,
                rw.log_bytes,
            );
        }
    }
}
