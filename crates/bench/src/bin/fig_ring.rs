//! E21: always-on ring recording — flush size vs. full-sketch size, and
//! reproduction from the retained window.
//!
//! Two arms:
//!
//! * **Corpus** — every bug recorded classically and under a bounded ring
//!   (two epochs of ~one third of the classic run each). Asserts the
//!   structural claims: retained entries never exceed the configured
//!   budget, the epoch directory accounts for the window exactly, and
//!   every bug reproduces from its flush. Corpus runs are short, so the
//!   embedded VM snapshot dominates the flush — the table reports that
//!   honestly rather than hiding it.
//! * **Soak** — the headline. A long synchronized production phase
//!   (three workers, R locked rounds each) ending in a racy finale, with
//!   a *fixed* ring budget. As R grows the classic sketch grows
//!   linearly while the flush stays flat (bounded window + constant-size
//!   state snapshot), so the flush/full ratio falls without bound. The
//!   binary asserts the largest soak point flushes at most a quarter of
//!   the full sketch and that every soak point reproduces from its
//!   window.
//!
//! ```text
//! fig_ring [--out FILE]
//! ```
//!
//! Prints the tables and writes the measurements as JSON to
//! `BENCH_ring.json` unless `--out` overrides it. Every number is a count
//! or a model-unit cost, so the committed `BENCH_ring.json` is a pin: CI
//! regenerates it and fails on any difference.
use pres_apps::registry::all_bugs;
use pres_bench::render::{bytes, table};
use pres_core::codec::{encode_sketch, layout};
use pres_core::program::{ClosureProgram, Program};
use pres_core::recorder::RingConfig;
use pres_core::sketch::Mechanism;
use pres_core::Pres;
use pres_tvm::prelude::*;
use pres_tvm::state::ResourceSpec;
use pres_tvm::sys::WorldConfig;

/// One measured (program, ring budget) cell.
struct RingRow {
    program: String,
    full_entries: usize,
    retained_entries: usize,
    dropped_entries: u64,
    boundary: u64,
    full_bytes: usize,
    flush_bytes: usize,
    checkpoint_bytes: u64,
    classic_overhead_pct: f64,
    ring_overhead_pct: f64,
    attempts: u32,
}

impl RingRow {
    fn flush_ratio(&self) -> f64 {
        self.flush_bytes as f64 / self.full_bytes as f64
    }
}

/// The soak program: `workers` threads each run `rounds` correctly
/// locked increments (the long, boring production phase), then finish
/// with an unsynchronized read-compute-write on a shared flag — a lost
/// update the root thread's final check catches. Shared state is a
/// handful of scalars, so the checkpoint snapshot stays the same size
/// however long the production phase runs.
fn soak_program(rounds: u64) -> impl Program {
    const WORKERS: u32 = 3;
    let mut spec = ResourceSpec::new();
    let counter = spec.var("counter", 0);
    let flag = spec.var("flag", 0);
    let lock = spec.lock("lock");
    ClosureProgram::new(
        &format!("ring-soak-{rounds}"),
        spec,
        WorldConfig::default(),
        move || {
            Box::new(move |ctx: &mut Ctx| {
                let workers: Vec<ThreadId> = (0..WORKERS)
                    .map(|i| {
                        ctx.spawn(&format!("w{i}"), move |ctx| {
                            for _ in 0..rounds {
                                ctx.with_lock(lock, |ctx| {
                                    let v = ctx.read(counter);
                                    ctx.compute(2);
                                    ctx.write(counter, v + 1);
                                });
                            }
                            // Racy finale: check-then-act without the lock.
                            let v = ctx.read(flag);
                            ctx.compute(3);
                            ctx.write(flag, v + 1);
                        })
                    })
                    .collect();
                for w in workers {
                    ctx.join(w);
                }
                let v = ctx.read(flag);
                ctx.check(
                    v == u64::from(WORKERS),
                    "lost update in unsynchronized finale",
                );
            })
        },
    )
}

fn measure(prog: &dyn Program, ring_cfg: RingConfig, seed_cap: u64) -> RingRow {
    let classic = Pres::new(Mechanism::Sync)
        .record_until_failure(prog, 0..seed_cap)
        .unwrap_or_else(|| panic!("{}: no failing production run", prog.name()));
    let ring = Pres::new(Mechanism::Sync)
        .with_ring(ring_cfg.clone())
        .record_until_failure(prog, 0..seed_cap)
        .unwrap_or_else(|| panic!("{}: no failing ring run", prog.name()));
    let cp = ring
        .sketch
        .checkpoint
        .as_deref()
        .expect("ring mode attaches a checkpoint");

    // Bounded memory: the retained window never exceeds the budget, and
    // the epoch directory accounts for exactly the retained entries.
    let budget = ring_cfg.ring_epochs as u64 * ring_cfg.epoch_entries;
    assert!(
        ring.sketch.len() as u64 <= budget,
        "{}: {} retained entries exceed the budget {budget}",
        prog.name(),
        ring.sketch.len(),
    );
    assert_eq!(cp.retained_entries(), ring.sketch.len() as u64);

    let full_encoded = encode_sketch(&classic.sketch);
    let flush_encoded = encode_sketch(&ring.sketch);
    let checkpoint_bytes = layout(&flush_encoded)
        .expect("flush container parses")
        .checkpoint_bytes
        .expect("flush container carries a checkpoint segment");

    // Reproduction from the flush: fast-forward to the boundary, search
    // only the retained window.
    let result = Pres::new(Mechanism::Sync)
        .with_max_attempts(300)
        .reproduce(prog, &ring);
    assert!(
        result.reproduced,
        "{}: not reproduced from the retained window",
        prog.name()
    );
    let cert = result.certificate.expect("certificate exists on success");
    assert_eq!(cert.expected_signature, ring.sketch.meta.failure_signature);

    RingRow {
        program: prog.name(),
        full_entries: classic.sketch.len(),
        retained_entries: ring.sketch.len(),
        dropped_entries: cp.dropped_entries,
        boundary: cp.boundary,
        full_bytes: full_encoded.len(),
        flush_bytes: flush_encoded.len(),
        checkpoint_bytes,
        classic_overhead_pct: classic.overhead_pct(),
        ring_overhead_pct: ring.overhead_pct(),
        attempts: result.attempts,
    }
}

fn render(title: &str, rows: &[RingRow]) -> String {
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.program.clone(),
                r.full_entries.to_string(),
                format!("{}(-{})", r.retained_entries, r.dropped_entries),
                r.boundary.to_string(),
                bytes(r.full_bytes as u64),
                bytes(r.flush_bytes as u64),
                bytes(r.checkpoint_bytes),
                format!("{:.2}x", 1.0 / r.flush_ratio()),
                format!(
                    "{:.2}%/{:.2}%",
                    r.classic_overhead_pct, r.ring_overhead_pct
                ),
                r.attempts.to_string(),
            ]
        })
        .collect();
    format!(
        "{title}\n{}",
        table(
            &[
                "program",
                "entries",
                "window",
                "boundary",
                "full",
                "flush",
                "ckpt",
                "shrink",
                "ovh cls/ring",
                "attempts",
            ],
            &body,
        )
    )
}

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

fn to_json(corpus: &[RingRow], soak: &[RingRow]) -> String {
    let arm = |rows: &[RingRow]| -> String {
        rows.iter()
            .map(|r| {
                format!(
                    "    {{\"program\": \"{}\", \"full_entries\": {}, \"retained_entries\": {}, \"dropped_entries\": {}, \"boundary\": {}, \"full_bytes\": {}, \"flush_bytes\": {}, \"checkpoint_bytes\": {}, \"shrink\": {:.3}, \"classic_overhead_pct\": {:.4}, \"ring_overhead_pct\": {:.4}, \"attempts\": {}}}",
                    json_escape(&r.program),
                    r.full_entries,
                    r.retained_entries,
                    r.dropped_entries,
                    r.boundary,
                    r.full_bytes,
                    r.flush_bytes,
                    r.checkpoint_bytes,
                    1.0 / r.flush_ratio(),
                    r.classic_overhead_pct,
                    r.ring_overhead_pct,
                    r.attempts,
                )
            })
            .collect::<Vec<_>>()
            .join(",\n")
    };
    format!(
        "{{\n  \"experiment\": \"E21\",\n  \"corpus\": [\n{}\n  ],\n  \"soak\": [\n{}\n  ]\n}}\n",
        arm(corpus),
        arm(soak)
    )
}

fn main() {
    let mut out_path = String::from("BENCH_ring.json");
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--out" => out_path = args.next().expect("--out needs a path"),
            other => panic!("unknown argument '{other}'"),
        }
    }

    // Corpus arm: bounded ring sized off each bug's classic run.
    let mut corpus = Vec::new();
    for bug in &all_bugs() {
        let prog = bug.program();
        let classic_len = Pres::new(Mechanism::Sync)
            .record_until_failure(prog.as_ref(), 0..5000)
            .unwrap_or_else(|| panic!("{}: no failing production run", bug.id))
            .sketch
            .len();
        let ring_cfg = RingConfig {
            epoch_entries: (classic_len as u64 / 3).max(8),
            epoch_cost: 0,
            ring_epochs: 2,
        };
        corpus.push(measure(prog.as_ref(), ring_cfg, 5000));
    }
    println!("{}", render("E21a: corpus, window = 2 epochs of len/3", &corpus));

    // Soak arm: fixed ring budget, growing production run.
    let soak_cfg = RingConfig {
        epoch_entries: 64,
        epoch_cost: 0,
        ring_epochs: 2,
    };
    let soak: Vec<RingRow> = [64, 256, 1024]
        .into_iter()
        .map(|r| measure(&soak_program(r), soak_cfg.clone(), 2000))
        .collect();
    println!(
        "{}",
        render("E21b: soak, fixed window = 2 epochs of 64 entries", &soak)
    );

    // The headline: with a fixed budget the flush stays flat while the
    // full sketch grows, so the largest soak point must flush at most a
    // quarter of its full sketch. (Corpus shrink ratios are reported,
    // not asserted — corpus runs are short enough that the constant
    // snapshot cost dominates, which the table shows honestly.)
    let largest = soak.last().expect("at least one soak point");
    assert!(
        largest.flush_bytes * 4 <= largest.full_bytes,
        "{}: flush {} not <= 1/4 of full {}",
        largest.program,
        largest.flush_bytes,
        largest.full_bytes,
    );
    // And the window really rotated everywhere in the soak arm.
    for r in &soak {
        assert!(
            r.dropped_entries > 0,
            "{}: soak point never rotated its ring",
            r.program
        );
    }
    println!(
        "headline: {} flushes {} of a {} full sketch ({:.1}x smaller)",
        largest.program,
        bytes(largest.flush_bytes as u64),
        bytes(largest.full_bytes as u64),
        1.0 / largest.flush_ratio(),
    );

    let json = to_json(&corpus, &soak);
    std::fs::write(&out_path, &json).expect("write ring JSON");
    println!("wrote {out_path} ({} bytes)", json.len());
}
