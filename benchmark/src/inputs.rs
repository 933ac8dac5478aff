//! Everything a workload feeds the programs under test, derived from
//! `--seed`: production seed ranges, app seeds, blob variants. The same
//! seed gives the same inputs; the programs see only what is made here.

use crate::lanes;
use pres_apps::registry::all_bugs;
use pres_core::codec::encode_sketch;
use pres_core::program::Program;
use pres_core::recorder::{RecordingObserver, RingConfig, RingRecorder, SketchRecorder};
use pres_core::sketch::{Mechanism, Sketch, SketchMeta};
use pres_tvm::pool::VthreadPool;
use pres_tvm::sched::RandomScheduler;
use pres_tvm::trace::{NullObserver, Observer, TraceMode};
use pres_tvm::vm::{self, RunOutcome, VmConfig};

/// SplitMix64 over `(seed, stream)`: independent, reproducible sub-seeds.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(stream.wrapping_mul(0xd1b5_4a32_d192_ed03))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One production run: `program` under the seeded random scheduler with
/// `observer` attached, hosted on `pool`. This is the call the recording
/// layers are timed through.
pub fn vm_run(
    program: &dyn Program,
    config: &VmConfig,
    seed: u64,
    observer: &mut dyn Observer,
    pool: &VthreadPool,
) -> RunOutcome {
    let mut cfg = config.clone();
    cfg.trace_mode = TraceMode::Off;
    cfg.world = program.world();
    let body = program.root();
    vm::run_with_pool(
        cfg,
        program.resources(),
        &mut RandomScheduler::new(seed),
        observer,
        pool,
        move |ctx| body(ctx),
    )
}

/// The metadata a recorder's `finish` stamps into the sketch.
pub fn meta_for(
    program: &dyn Program,
    config: &VmConfig,
    seed: u64,
    outcome: &RunOutcome,
) -> SketchMeta {
    SketchMeta {
        program: program.name(),
        seed,
        processors: config.processors,
        total_ops: outcome.stats.total_ops,
        failure_signature: outcome
            .status
            .failure()
            .map(|f| f.signature())
            .unwrap_or_default(),
    }
}

/// The ring the diagnose-corpus production side records into: small
/// enough that every flush carries a non-genesis checkpoint, so the
/// daemon's `verify_checkpoint` runs on every job.
pub fn corpus_ring() -> RingConfig {
    RingConfig {
        epoch_entries: 16,
        epoch_cost: 0,
        ring_epochs: 2,
    }
}

/// Seeds scanned per search task: small, so every lane stays busy to the
/// end of the search (a VM driven from one lane alone runs in a slower,
/// bimodal regime on a shared host — see the README's sizing facts).
const SEARCH_CHUNK: u64 = 8;

/// The first `per_bug` natively failing production seeds of every program,
/// walking upward from a seed-derived start, plus the number of runs a
/// serial search would have made to find them. The walk is cut into
/// [`SEARCH_CHUNK`]-seed tasks interleaved across programs; which seeds
/// come back does not depend on the lane count.
pub fn failing_seeds(
    programs: &[Box<dyn Program>],
    config: &VmConfig,
    seed: u64,
    stream: u64,
    per_bug: usize,
    lanes: usize,
) -> (Vec<Vec<u64>>, u64) {
    let starts: Vec<u64> = (0..programs.len())
        .map(|b| mix(seed, stream + b as u64) & 0xffff_ffff)
        .collect();
    let mut found: Vec<Vec<u64>> = vec![Vec::new(); programs.len()];
    let mut scanned = vec![0u64; programs.len()];
    // Most corpus bugs bite about one production run in eight, the rarest
    // (`radix-rank-order`) one in sixty or more. A round scans a fixed
    // window per bug — at least 128 seeds, so that a search for a single
    // failure costs about the same whichever seeds it starts from.
    let chunks_per_round = ((per_bug as u64 * 12).div_ceil(SEARCH_CHUNK)).max(16);
    loop {
        let pending: Vec<usize> = (0..programs.len())
            .filter(|&b| found[b].len() < per_bug)
            .collect();
        if pending.is_empty() {
            break;
        }
        // Chunk-major order: consecutive tasks belong to different bugs.
        let tasks: Vec<(usize, u64)> = (0..chunks_per_round)
            .flat_map(|c| pending.iter().map(move |&b| (b, c)))
            .map(|(b, c)| (b, starts[b] + scanned[b] + c * SEARCH_CHUNK))
            .collect();
        let run = lanes::run(
            lanes,
            tasks.len(),
            |_| VthreadPool::new(8),
            |pool, n| {
                let (b, first) = tasks[n];
                (first..first + SEARCH_CHUNK)
                    .filter(|&s| {
                        vm_run(programs[b].as_ref(), config, s, &mut NullObserver, pool)
                            .status
                            .is_failed()
                    })
                    .collect::<Vec<u64>>()
            },
        );
        for (&(b, _), seeds) in tasks.iter().zip(run.results) {
            found[b].extend(seeds);
        }
        for &b in &pending {
            scanned[b] += chunks_per_round * SEARCH_CHUNK;
            assert!(
                scanned[b] < 1_000_000,
                "{}: no failing production seed",
                programs[b].name()
            );
        }
    }
    let mut searched = 0;
    for (b, seeds) in found.iter_mut().enumerate() {
        seeds.truncate(per_bug);
        searched += seeds[per_bug - 1] - starts[b] + 1;
    }
    (found, searched)
}

/// Records `program` at `seed` under `recorder` and finishes the sketch.
pub fn record_with<R: RecordingObserver>(
    program: &dyn Program,
    config: &VmConfig,
    seed: u64,
    mut recorder: R,
    pool: &VthreadPool,
) -> Sketch {
    let outcome = vm_run(program, config, seed, &mut recorder, pool);
    assert!(
        outcome.status.is_failed(),
        "recording never perturbs the schedule"
    );
    recorder.finish(meta_for(program, config, seed, &outcome))
}

/// Every corpus bug's program, in [`all_bugs`] order.
pub fn bug_programs() -> Vec<Box<dyn Program>> {
    all_bugs().iter().map(|b| b.program()).collect()
}

/// One failing production run, flushed.
pub struct CorpusJob {
    /// Index into [`all_bugs`].
    pub bug: usize,
    pub production_seed: u64,
    pub sketch: Sketch,
}

pub struct Corpus {
    /// Bug-major: job `b * per_bug + k` is bug `b`'s `k`-th failure.
    pub jobs: Vec<CorpusJob>,
    /// Native production runs searched to find the failures.
    pub runs_searched: u64,
}

/// `per_bug` distinct failing production runs of every corpus bug, each
/// recorded under the SYNC ring and flushed. Seeds are searched natively
/// first and only the failing one is recorded — the production host pays
/// for recording, not for the search.
pub fn ring_corpus(seed: u64, per_bug: usize, lanes: usize) -> Corpus {
    let programs = bug_programs();
    let config = VmConfig::default();
    let (seeds, runs_searched) = failing_seeds(&programs, &config, seed, 0, per_bug, lanes);
    let jobs = lanes::run(
        lanes,
        programs.len() * per_bug,
        |_| VthreadPool::new(8),
        |pool, n| {
            let (bug, production_seed) = (n / per_bug, seeds[n / per_bug][n % per_bug]);
            let recorder =
                RingRecorder::new(Mechanism::Sync, config.cost_model.clone(), corpus_ring());
            CorpusJob {
                bug,
                production_seed,
                sketch: record_with(
                    programs[bug].as_ref(),
                    &config,
                    production_seed,
                    recorder,
                    pool,
                ),
            }
        },
    )
    .results;
    Corpus {
        jobs,
        runs_searched,
    }
}

/// A classic (full-sketch, no ring) recording of a failing production run.
fn record_classic(
    program: &dyn Program,
    config: &VmConfig,
    seed: u64,
    mechanism: Mechanism,
    pool: &VthreadPool,
) -> Sketch {
    let recorder = SketchRecorder::new(mechanism, config.cost_model.clone());
    record_with(program, config, seed, recorder, pool)
}

/// Every corpus bug's first failing production run past a seed-derived
/// start, recorded classically (full sketch, no ring) under each of
/// `mechanisms`: `result[m][b]` is bug `b` under `mechanisms[m]`.
pub fn classic_sketches(seed: u64, mechanisms: &[Mechanism], lanes: usize) -> Vec<Vec<Sketch>> {
    let programs = bug_programs();
    let config = VmConfig::default();
    let (seeds, _) = failing_seeds(&programs, &config, seed, 1000, 1, lanes);
    let mut flat = lanes::run(
        lanes,
        mechanisms.len() * programs.len(),
        |_| VthreadPool::new(8),
        |pool, n| {
            let (m, b) = (n / programs.len(), n % programs.len());
            record_classic(
                programs[b].as_ref(),
                &config,
                seeds[b][0],
                mechanisms[m],
                pool,
            )
        },
    )
    .results;
    mechanisms
        .iter()
        .map(|_| flat.drain(..programs.len()).collect())
        .collect()
}

/// The bug whose recording the large blobs are tiled from.
pub const TILED_BUG: &str = "pbzip-order";

/// `count` production-scale blobs: one real SYNC recording of
/// [`TILED_BUG`] with its entry stream tiled `tile` times (the paper's
/// sketches run to millions of events; the in-repo programs record a few
/// hundred), `meta.seed` varied so every digest is distinct.
pub fn tiled_blobs(seed: u64, count: usize, tile: usize, lanes: usize) -> Vec<Vec<u8>> {
    let b = all_bugs()
        .iter()
        .position(|c| c.id == TILED_BUG)
        .expect("corpus has the tiled bug");
    let program = all_bugs()[b].program();
    let config = VmConfig::default();
    let (seeds, _) = failing_seeds(
        std::slice::from_ref(&program),
        &config,
        seed,
        1000 + b as u64,
        1,
        lanes,
    );
    let base = record_classic(
        program.as_ref(),
        &config,
        seeds[0][0],
        Mechanism::Sync,
        &VthreadPool::new(8),
    );
    let mut big = base.clone();
    big.entries = base
        .entries
        .iter()
        .cycle()
        .take(base.entries.len() * tile)
        .cloned()
        .collect();
    let big = &big;
    lanes::run(
        lanes,
        count,
        |_| big.clone(),
        |sketch, i| {
            sketch.meta.seed = mix(seed, 2000 + i as u64);
            encode_sketch(sketch)
        },
    )
    .results
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sub_seeds_are_reproducible_and_distinct() {
        assert_eq!(mix(1, 7), mix(1, 7));
        assert_ne!(mix(1, 7), mix(1, 8));
        assert_ne!(mix(1, 7), mix(2, 7));
    }
}
