//! Layer probes: direct, timed calls into one layer's public functions on
//! seed-derived inputs. They fill the per-layer metrics no workload can
//! isolate from outside (a codec's MiB/s, one journal append, one SHA-256
//! pass), run only in the traced pass, and are never gated.

use crate::daemon::Daemon;
use crate::inputs::{self, bug_programs, classic_sketches, ring_corpus, tiled_blobs, vm_run};
use crate::stats::Samples;
use crate::workloads::RunConfig;
use pres_apps::registry::{all_apps, all_bugs, WorkloadScale};
use pres_core::codec::{decode_sketch, encode_sketch};
use pres_core::explore::{self, ExploreConfig};
use pres_core::feedback::candidates_in;
use pres_core::oracle::StatusOracle;
use pres_core::recorder::{run_traced, verify_checkpoint, SketchRecorder};
use pres_core::sketch::{Mechanism, SketchIndex};
use pres_core::Certificate;
use pres_race::hb::detect_races_in;
use pres_svc::cache::{CachedSketch, SketchCache};
use pres_svc::flush::write_flush;
use pres_svc::journal::{Journal, Record};
use pres_svc::{sha256, Store};
use pres_tvm::pool::VthreadPool;
use pres_tvm::snapshot::VmSnapshot;
use pres_tvm::trace::{NullObserver, Observer};
use pres_tvm::vm::VmConfig;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

const MIB: f64 = (1 << 20) as f64;

/// Calls `f(i)` back to back until `budget` has passed (at least once);
/// returns `(calls, seconds)`.
fn spin(budget: Duration, mut f: impl FnMut(usize)) -> (f64, f64) {
    let started = Instant::now();
    let mut calls = 0;
    loop {
        f(calls);
        calls += 1;
        if started.elapsed() >= budget {
            return (calls as f64, started.elapsed().as_secs_f64());
        }
    }
}

/// Microseconds per call of `f`.
fn us_per_call(budget: Duration, f: impl FnMut(usize)) -> f64 {
    let (calls, secs) = spin(budget, f);
    secs * 1e6 / calls
}

/// Runs every probe; returns registry metric names → values.
pub fn run(cfg: &RunConfig) -> BTreeMap<&'static str, f64> {
    let mut m = BTreeMap::new();
    // Each probe gets an equal slice of what the traced trials left over.
    let budget = Duration::from_secs_f64(if cfg.quick {
        0.01
    } else {
        (cfg.seconds / 2.0 / 40.0).clamp(0.01, 0.15)
    });
    let vm = VmConfig::default();
    let bugs = all_bugs();
    let programs = bug_programs();
    let pool = VthreadPool::new(8);

    // -- inputs --------------------------------------------------------
    let corpus = ring_corpus(cfg.seed, 1, cfg.lanes);
    let small: Vec<Vec<u8>> = corpus
        .jobs
        .iter()
        .map(|j| encode_sketch(&j.sketch))
        .collect();
    let sys = classic_sketches(cfg.seed, &[Mechanism::Sys], cfg.lanes)
        .remove(0)
        .remove(0);
    let big_bytes = tiled_blobs(cfg.seed, 1, 500, 1).remove(0);
    let big = decode_sketch(&big_bytes).expect("tiled blob decodes");
    // Full traces of the failing production runs the corpus was cut from.
    let traces: Vec<_> = corpus
        .jobs
        .iter()
        .map(|j| run_traced(programs[j.bug].as_ref(), &vm, j.production_seed).trace)
        .collect();
    let trace_events: usize = traces.iter().map(|t| t.len()).sum();

    // -- tvm -----------------------------------------------------------
    let apps: Vec<_> = all_apps()
        .iter()
        .map(|a| a.workload(WorkloadScale::Standard))
        .collect();
    let mut ops = 0u64;
    let (_, secs) = spin(budget * 3, |i| {
        let program = apps[i % apps.len()].as_ref();
        ops += vm_run(
            program,
            &vm,
            inputs::mix(cfg.seed, i as u64),
            &mut NullObserver,
            &pool,
        )
        .stats
        .total_ops;
    });
    m.insert("tvm.vm.serial_ops_per_s", ops as f64 / secs);

    let snapshots: Vec<&[u8]> = corpus
        .jobs
        .iter()
        .filter_map(|j| j.sketch.checkpoint.as_deref())
        .filter(|cp| !cp.is_genesis())
        .map(|cp| cp.snapshot.as_slice())
        .collect();
    if !snapshots.is_empty() {
        m.insert(
            "tvm.snapshot.decode_us",
            us_per_call(budget, |i| {
                black_box(
                    VmSnapshot::decode(snapshots[i % snapshots.len()]).expect("snapshot decodes"),
                );
            }),
        );
    }

    // -- core.recorder ---------------------------------------------------
    let mechanisms = [
        Mechanism::Sync,
        Mechanism::Sys,
        Mechanism::Func,
        Mechanism::Bb,
    ];
    let (passes, secs) = spin(budget, |i| {
        let mut recorder = SketchRecorder::new(mechanisms[i % 4], vm.cost_model.clone());
        for trace in &traces {
            for event in trace.events() {
                black_box(recorder.on_event(event));
            }
        }
    });
    m.insert(
        "core.recorder.event_ns",
        secs * 1e9 / (passes * trace_events as f64),
    );

    // -- core.codec / core.sketch ---------------------------------------
    let big_mib = big_bytes.len() as f64 / MIB;
    let (calls, secs) = spin(budget, |_| {
        black_box(encode_sketch(black_box(&big)));
    });
    m.insert("core.codec.encode_mib_per_s", calls * big_mib / secs);
    let (calls, secs) = spin(budget, |_| {
        black_box(decode_sketch(black_box(&big_bytes)).expect("tiled blob decodes"));
    });
    m.insert("core.codec.decode_mib_per_s", calls * big_mib / secs);
    m.insert(
        "core.codec.decode_small_us",
        us_per_call(budget, |i| {
            black_box(decode_sketch(&small[i % small.len()]).expect("corpus sketch decodes"));
        }),
    );
    m.insert(
        "core.sketch.index_build_us",
        us_per_call(budget, |_| {
            black_box(SketchIndex::new(black_box(&big)));
        }),
    );

    // -- core.explore / core.certificate --------------------------------
    let indices: Vec<Arc<SketchIndex>> = corpus
        .jobs
        .iter()
        .map(|j| Arc::new(SketchIndex::new(&j.sketch)))
        .collect();
    let mut certs: Vec<Vec<u8>> = Vec::new();
    let first_cert_us = us_per_call(budget * 3, |i| {
        let j = i % corpus.jobs.len();
        let job = &corpus.jobs[j];
        let repro = explore::reproduce_with_index(
            programs[job.bug].as_ref(),
            &indices[j],
            &StatusOracle::new(&job.sketch.meta.failure_signature),
            &vm,
            &ExploreConfig::default(),
            Some(&pool),
        );
        if i < corpus.jobs.len() {
            certs.extend(repro.certificate.map(|c| c.encode()));
        }
    });
    m.insert("core.explore.first_cert_ms", first_cert_us / 1e3);
    let checkpoints: Vec<_> = corpus
        .jobs
        .iter()
        .filter_map(|j| {
            Some((
                j.bug,
                j.sketch
                    .checkpoint
                    .as_deref()
                    .filter(|cp| !cp.is_genesis())?,
            ))
        })
        .collect();
    if !checkpoints.is_empty() {
        m.insert(
            "core.explore.checkpoint_verify_us",
            us_per_call(budget, |i| {
                let (bug, cp) = checkpoints[i % checkpoints.len()];
                verify_checkpoint(
                    programs[bug].as_ref(),
                    cp,
                    Mechanism::Sync,
                    &vm,
                    Some(&pool),
                )
                .expect("corpus checkpoint verifies");
            }),
        );
    }
    let parallel = ExploreConfig {
        max_attempts: 100,
        workers: cfg.lanes,
        ..ExploreConfig::default()
    };
    let started = Instant::now();
    let repro = explore::reproduce_with_oracle(
        programs[0].as_ref(),
        &sys,
        &StatusOracle::new("assert:__probe__"),
        &vm,
        &parallel,
    );
    m.insert(
        "core.explore.par_attempts_per_s",
        f64::from(repro.attempts) / started.elapsed().as_secs_f64(),
    );
    if !certs.is_empty() {
        m.insert(
            "core.certificate.decode_us",
            us_per_call(budget, |i| {
                black_box(
                    Certificate::decode(&certs[i % certs.len()]).expect("certificate decodes"),
                );
            }),
        );
        let decoded: Vec<(usize, Certificate)> = corpus
            .jobs
            .iter()
            .zip(&certs)
            .map(|(j, c)| (j.bug, Certificate::decode(c).expect("certificate decodes")))
            .collect();
        m.insert(
            "core.certificate.replay_us",
            us_per_call(budget, |i| {
                let (bug, cert) = &decoded[i % decoded.len()];
                cert.replay(programs[*bug].as_ref())
                    .expect("certificate replays");
            }),
        );
    }

    // -- core.feedback / race.hb ----------------------------------------
    let mut candidates = 0usize;
    let (passes, secs) = spin(budget, |_| {
        candidates = traces.iter().map(|t| candidates_in(t.events()).len()).sum();
    });
    m.insert(
        "core.feedback.extract_ns_per_event",
        secs * 1e9 / (passes * trace_events as f64),
    );
    m.insert(
        "core.feedback.candidates_per_attempt",
        candidates as f64 / traces.len() as f64,
    );
    let (passes, secs) = spin(budget, |_| {
        for t in &traces {
            black_box(detect_races_in(t.events()));
        }
    });
    m.insert(
        "race.hb.detect_ns_per_event",
        secs * 1e9 / (passes * trace_events as f64),
    );

    // -- svc.digest / svc.store / svc.journal / svc.flush / svc.cache ----
    let (calls, secs) = spin(budget, |_| {
        black_box(sha256(black_box(&big_bytes)));
    });
    m.insert("svc.digest.sha256_mib_per_s", calls * big_mib / secs);

    let dir = cfg.fresh_dir("probe");
    let (store, _) = Store::open(dir.join("store")).expect("store opens");
    // Distinct contents: stamp the call number into otherwise fixed bytes.
    let stamped = |base: &[u8], i: usize| {
        let mut bytes = base.to_vec();
        bytes[..8].copy_from_slice(&(i as u64).to_le_bytes());
        bytes
    };
    let kib = vec![0xa5u8; 1024];
    m.insert(
        "svc.store.put_small_us",
        us_per_call(budget, |i| {
            store.put(&stamped(&kib, i)).expect("store put");
        }),
    );
    let mut stored = Vec::new();
    let (calls, secs) = spin(budget * 2, |i| {
        let bytes = stamped(&big_bytes, i);
        let mut put = store.put_streaming().expect("streaming put opens");
        for chunk in bytes.chunks(64 << 10) {
            put.write(chunk).expect("chunk spills");
        }
        stored.push(put.finish().expect("streaming put publishes").0);
    });
    m.insert("svc.store.put_mib_per_s", calls * big_mib / secs);
    let (calls, secs) = spin(budget, |i| {
        black_box(store.get(&stored[i % stored.len()]).expect("store get"));
    });
    m.insert("svc.store.get_mib_per_s", calls * big_mib / secs);
    let dup = stamped(&big_bytes, 0);
    m.insert(
        "svc.store.put_dup_us",
        us_per_call(budget, |_| {
            let (_, fresh) = store.put(&dup).expect("store put");
            assert!(!fresh, "duplicate put must dedup");
        }),
    );

    let (journal, _) = Journal::open(dir.join("probe.journal")).expect("journal opens");
    m.insert(
        "svc.journal.append_us",
        us_per_call(budget, |i| {
            journal
                .append(&Record::Retry {
                    job: i as u64,
                    retries: 1,
                })
                .expect("journal append");
        }),
    );
    m.insert(
        "svc.flush.write_us",
        us_per_call(budget, |i| {
            write_flush(
                &dir.join(format!("flush-{}.sketch", i % 8)),
                &small[i % small.len()],
            )
            .expect("flush write");
        }),
    );

    let cache = SketchCache::new(64 << 20);
    let keys: Vec<_> = corpus
        .jobs
        .iter()
        .zip(&small)
        .map(|(j, bytes)| {
            let digest = sha256(bytes);
            let entry = CachedSketch {
                sketch: j.sketch.clone(),
                index: Arc::new(SketchIndex::new(&j.sketch)),
            };
            cache.insert(digest, Arc::new(entry), bytes.len() as u64);
            digest
        })
        .collect();
    let (calls, secs) = spin(budget, |i| {
        black_box(cache.get(&keys[i % keys.len()]).expect("cache hit"));
    });
    m.insert("svc.cache.get_ns", secs * 1e9 / calls);

    // -- svc.server / svc.cluster (one idle daemon child) ----------------
    let data = dir.join("daemon");
    let daemon = Daemon::spawn(&data, cfg.lanes).expect("daemon starts");
    m.insert("svc.server.start_ms", daemon.start_ms);
    let mut client = daemon.client().expect("probe connects");
    let mut rtts = Vec::new();
    spin(budget, |_| {
        let sent = Instant::now();
        black_box(client.status(u64::MAX).expect("status round trip"));
        rtts.push(sent.elapsed().as_secs_f64() * 1e6);
    });
    m.insert("svc.server.rtt_us_p50", Samples::new(rtts).p(50.0));
    let mut pushed = Vec::new();
    let (calls, secs) = spin(budget * 2, |i| {
        let bytes = stamped(&big_bytes, 1_000_000 + i);
        let digest = sha256(&bytes);
        client.peer_put(&digest, &mut &bytes[..]).expect("peer put");
        pushed.push(digest);
    });
    m.insert("svc.cluster.peer_put_mib_per_s", calls * big_mib / secs);
    let (calls, secs) = spin(budget, |i| {
        black_box(
            client
                .peer_get(&pushed[i % pushed.len()])
                .expect("peer get"),
        );
    });
    m.insert("svc.cluster.peer_get_mib_per_s", calls * big_mib / secs);
    m.insert(
        "svc.cluster.peer_stat_us",
        us_per_call(budget, |i| {
            assert!(client
                .peer_stat(&pushed[i % pushed.len()])
                .expect("peer stat"));
        }),
    );
    // Give the restart something to replay: a journal of finished jobs
    // next to the objects pushed above.
    for (job, bytes) in corpus.jobs.iter().zip(&small) {
        let receipt = client.submit(bugs[job.bug].id, bytes).expect("submit");
        crate::daemon::poll_terminal(&mut client, receipt.job, Duration::from_secs(60))
            .expect("job ends");
    }
    drop(client);
    daemon.stop().expect("daemon drains");
    let again = Daemon::spawn(&data, cfg.lanes).expect("daemon restarts");
    m.insert("svc.server.restart_ms", again.start_ms);
    again.stop().expect("daemon drains");
    let _ = std::fs::remove_dir_all(&dir);
    m
}
