//! Randomized property tests over the core data structures and the
//! determinism invariants the whole system rests on.
//!
//! These were originally proptest properties; they are now driven by the
//! workspace's own deterministic generator ([`pres_tvm::rng`]) so the test
//! suite builds offline with zero external dependencies. Each property runs
//! over a fixed-seed stream of generated cases, which keeps failures
//! reproducible by construction.

use pres_core::codec::{container_version, decode_sketch, encode_sketch};
use pres_core::sketch::{Mechanism, Sketch, SketchEntry, SketchMeta, SketchOp, SyncKind, SysKind};
use pres_race::vclock::VectorClock;
use pres_suite::tvm::prelude::*;
use pres_tvm::bytes::{Reader, Writer};
use pres_tvm::op::{MemLoc, OpResult};
use pres_tvm::rng::ChaCha8Rng;

// ---------------------------------------------------------------------------
// Generators.
// ---------------------------------------------------------------------------

fn gen_mechanism(rng: &mut ChaCha8Rng) -> Mechanism {
    match rng.gen_range(0..6usize) {
        0 => Mechanism::Rw,
        1 => Mechanism::Sync,
        2 => Mechanism::Sys,
        3 => Mechanism::Func,
        4 => Mechanism::Bb,
        _ => Mechanism::BbN(rng.gen_range(1..=63u32)),
    }
}

fn gen_sync_kind(rng: &mut ChaCha8Rng) -> SyncKind {
    match rng.gen_range(0..11usize) {
        0 => SyncKind::Lock,
        1 => SyncKind::Unlock,
        2 => SyncKind::Wait,
        3 => SyncKind::Rewait,
        4 => SyncKind::Signal,
        5 => SyncKind::Broadcast,
        6 => SyncKind::Barrier,
        7 => SyncKind::SemP,
        8 => SyncKind::SemV,
        9 => SyncKind::Send,
        _ => SyncKind::Recv,
    }
}

fn gen_sketch_op(rng: &mut ChaCha8Rng) -> SketchOp {
    match rng.gen_range(0..9usize) {
        0 => SketchOp::Start,
        1 => SketchOp::Exit,
        2 => SketchOp::Spawn,
        3 => SketchOp::Join {
            target: rng.gen_range(0..=99u32),
        },
        4 => SketchOp::Mem {
            loc: MemLoc::Var(VarId(rng.gen_range(0..=999u32))),
            write: rng.next_u32() & 1 == 0,
        },
        5 => SketchOp::Mem {
            loc: MemLoc::Buf(BufId(rng.gen_range(0..=49u32))),
            write: rng.next_u32() & 1 == 0,
        },
        6 => SketchOp::Sync {
            kind: gen_sync_kind(rng),
            obj: rng.gen_range(0..=99u32),
        },
        7 => SketchOp::Func(rng.gen_range(0..=9_999u32)),
        _ => SketchOp::Bb(rng.gen_range(0..=99_999u32)),
    }
}

fn gen_bytes(rng: &mut ChaCha8Rng, max: usize) -> Vec<u8> {
    let n = rng.gen_range(0..max);
    (0..n).map(|_| rng.next_u32() as u8).collect()
}

fn gen_result(rng: &mut ChaCha8Rng) -> OpResult {
    match rng.gen_range(0..6usize) {
        0 => OpResult::Unit,
        1 => OpResult::Value(rng.next_u64()),
        2 => OpResult::Bytes(gen_bytes(rng, 64)),
        3 => OpResult::MaybeBytes(Some(gen_bytes(rng, 64))),
        4 => OpResult::MaybeBytes(None),
        _ => {
            if rng.next_u32() & 1 == 0 {
                OpResult::MaybeValue(Some(rng.next_u64()))
            } else {
                OpResult::MaybeValue(None)
            }
        }
    }
}

fn gen_entry(rng: &mut ChaCha8Rng) -> SketchEntry {
    if rng.gen_range(0..4usize) == 0 {
        // Sys entries carry their results.
        SketchEntry {
            tid: ThreadId(rng.gen_range(0..=31u32)),
            op: SketchOp::Sys {
                kind: SysKind::Read,
                obj: rng.gen_range(0..=49u32),
            },
            result: gen_result(rng),
        }
    } else {
        SketchEntry {
            tid: ThreadId(rng.gen_range(0..=31u32)),
            op: gen_sketch_op(rng),
            result: OpResult::Unit,
        }
    }
}

fn gen_sketch(rng: &mut ChaCha8Rng) -> Sketch {
    let n = rng.gen_range(0..200usize);
    let name_len = rng.gen_range(0..13usize);
    let program: String = (0..name_len)
        .map(|_| char::from(b'a' + (rng.gen_range(0..26usize) as u8)))
        .collect();
    Sketch {
        mechanism: gen_mechanism(rng),
        entries: (0..n).map(|_| gen_entry(rng)).collect(),
        meta: SketchMeta {
            program,
            seed: rng.next_u64(),
            processors: rng.gen_range(1..=63u32),
            total_ops: 0,
            failure_signature: String::new(),
        },
        checkpoint: None,
    }
}

// ---------------------------------------------------------------------------
// Codec properties.
// ---------------------------------------------------------------------------

#[test]
fn codec_round_trips_any_sketch() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xc0dec);
    for _ in 0..64 {
        let sketch = gen_sketch(&mut rng);
        let encoded = encode_sketch(&sketch);
        let decoded = decode_sketch(&encoded).expect("well-formed input decodes");
        assert_eq!(sketch, decoded);
    }
}

#[test]
fn both_container_versions_round_trip_any_sketch() {
    // The v2 columnar container must reproduce *arbitrary* interleavings
    // and id sequences exactly. v1 is no longer written, but the committed
    // v1 fixture must keep decoding into a sketch that round-trips via v2.
    let v1 = include_bytes!("data/fixture_v1.sketch");
    assert_eq!(container_version(v1).unwrap(), 1);
    let legacy = decode_sketch(v1).expect("v1 fixture decodes");
    let mut rng = ChaCha8Rng::seed_from_u64(0xc0dec2);
    for sketch in std::iter::once(legacy).chain((0..64).map(|_| gen_sketch(&mut rng))) {
        let v2 = encode_sketch(&sketch);
        assert_eq!(container_version(&v2).unwrap(), 2);
        assert_eq!(decode_sketch(&v2).unwrap(), sketch);
    }
}

#[test]
fn codec_never_panics_on_corrupt_input() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xbad);
    for _ in 0..256 {
        // Decoding arbitrary bytes must fail cleanly, not crash.
        let data = gen_bytes(&mut rng, 512);
        let _ = decode_sketch(&data);
    }
}

#[test]
fn truncation_is_always_detected() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x77);
    for _ in 0..64 {
        let sketch = gen_sketch(&mut rng);
        let encoded = encode_sketch(&sketch);
        let cut = rng.gen_range(0..encoded.len().max(1));
        if cut < encoded.len() {
            assert!(decode_sketch(&encoded[..cut]).is_err());
        }
    }
}

// ---------------------------------------------------------------------------
// Checkpoint-bearing (v3) container properties.
// ---------------------------------------------------------------------------

/// Records a generated mini program in always-on ring mode and returns
/// the flushed sketch. Tiny epoch budgets force real rotation on most
/// generated programs, so the checkpoint segment is exercised with
/// nonzero boundaries and evicted epochs — not just the genesis stub.
fn gen_ring_sketch(rng: &mut ChaCha8Rng) -> Sketch {
    use pres_core::{ClosureProgram, Pres, RingConfig};
    let workers = vec![
        gen_mini_ops(rng),
        gen_mini_ops(rng),
        gen_mini_ops(rng),
    ];
    let seed = rng.next_u64();
    let mut spec = ResourceSpec::new();
    let v0 = spec.var_array("v", 3, 0);
    let lock = spec.lock("m");
    let prog = ClosureProgram::new("props-ring", spec, WorldConfig::default(), move || {
        Box::new(mini_body(workers.clone(), v0, lock))
    });
    // RW records every memory access, maximizing entries per op so the
    // 6-entry epochs rotate even on short generated programs.
    Pres::new(Mechanism::Rw)
        .with_ring(RingConfig {
            epoch_entries: 6,
            epoch_cost: 0,
            ring_epochs: 2,
        })
        .record(&prog, seed)
        .sketch
}

#[test]
fn v3_round_trips_ring_flushed_sketches() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xc0dec3);
    let mut rotated = 0;
    for _ in 0..12 {
        let sketch = gen_ring_sketch(&mut rng);
        let cp = sketch.checkpoint.as_deref().expect("ring mode attaches a checkpoint");
        rotated += usize::from(!cp.is_genesis());
        let encoded = encode_sketch(&sketch);
        assert_eq!(container_version(&encoded).unwrap(), 3);
        assert_eq!(decode_sketch(&encoded).unwrap(), sketch);
    }
    assert!(rotated > 0, "no generated ring ever rotated; budgets too loose");
}

#[test]
fn v3_truncation_at_every_offset_is_detected() {
    // One rotated ring flush, cut at *every* byte offset: no prefix may
    // decode — in particular none may yield a sketch with a phantom (or
    // silently shortened) checkpoint.
    let mut rng = ChaCha8Rng::seed_from_u64(0x77f);
    let sketch = loop {
        let s = gen_ring_sketch(&mut rng);
        if s.checkpoint.as_deref().is_some_and(|cp| !cp.is_genesis()) {
            break s;
        }
    };
    let encoded = encode_sketch(&sketch);
    for cut in 0..encoded.len() {
        assert!(
            decode_sketch(&encoded[..cut]).is_err(),
            "prefix of {cut}/{} bytes decoded",
            encoded.len()
        );
    }
}

#[test]
fn bit_flips_never_panic_and_never_forge_a_phantom_checkpoint() {
    use pres_tvm::snapshot::VmSnapshot;
    let mut rng = ChaCha8Rng::seed_from_u64(0xf11b);
    let ring = gen_ring_sketch(&mut rng);
    let v3 = encode_sketch(&ring);
    let mut plain = gen_sketch(&mut rng);
    plain.entries.truncate(64);
    let v2 = encode_sketch(&plain);
    for base in [&v3, &v2] {
        for _ in 0..512 {
            // Flip 3 random bits: decode must fail cleanly or produce a
            // sketch whose checkpoint (if any) still satisfies the
            // invariants the decoder promises to enforce.
            let mut mutated = base.clone();
            for _ in 0..3 {
                let bit = rng.gen_range(0..mutated.len() * 8);
                mutated[bit / 8] ^= 1 << (bit % 8);
            }
            let Ok(decoded) = decode_sketch(&mutated) else {
                continue;
            };
            match container_version(&mutated) {
                // Only a v3 container can carry a checkpoint at all.
                Ok(3) => {
                    if let Some(cp) = decoded.checkpoint.as_deref() {
                        if cp.is_genesis() {
                            assert!(cp.snapshot.is_empty());
                        } else {
                            let snap = VmSnapshot::decode(&cp.snapshot)
                                .expect("decoder validated the embedded snapshot");
                            assert_eq!(snap.picks(), cp.boundary);
                        }
                    }
                }
                _ => assert!(
                    decoded.checkpoint.is_none(),
                    "non-v3 container decoded with a phantom checkpoint"
                ),
            }
        }
    }
}

#[test]
fn varints_round_trip() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xa1);
    for _ in 0..64 {
        let n = rng.gen_range(0..100usize);
        // Mix small and full-width values to cover all varint lengths.
        let values: Vec<u64> = (0..n)
            .map(|_| {
                let raw = rng.next_u64();
                raw >> (rng.gen_range(0..64usize) as u32)
            })
            .collect();
        let mut w = Writer::new();
        for v in &values {
            w.varint(*v);
        }
        let buf = w.finish();
        let mut r = Reader::new(&buf);
        for v in &values {
            assert_eq!(r.varint().unwrap(), *v);
        }
        assert!(r.at_end());
    }
}

// ---------------------------------------------------------------------------
// Vector-clock laws.
// ---------------------------------------------------------------------------

fn gen_vclock(rng: &mut ChaCha8Rng) -> VectorClock {
    let n = rng.gen_range(0..8usize);
    let mut vc = VectorClock::new();
    for i in 0..n {
        vc.set(ThreadId(i as u32), rng.gen_range(0..=49u32));
    }
    vc
}

#[test]
fn join_is_an_upper_bound() {
    let mut rng = ChaCha8Rng::seed_from_u64(1);
    for _ in 0..128 {
        let a = gen_vclock(&mut rng);
        let b = gen_vclock(&mut rng);
        let mut j = a.clone();
        j.join(&b);
        assert!(a.le(&j));
        assert!(b.le(&j));
    }
}

#[test]
fn join_is_commutative_and_idempotent() {
    let mut rng = ChaCha8Rng::seed_from_u64(2);
    for _ in 0..128 {
        let a = gen_vclock(&mut rng);
        let b = gen_vclock(&mut rng);
        let mut ab = a.clone();
        ab.join(&b);
        let mut ba = b.clone();
        ba.join(&a);
        assert_eq!(ab, ba);
        let mut again = ab.clone();
        again.join(&b);
        assert_eq!(ab, again);
    }
}

#[test]
fn hb_is_antisymmetric() {
    let mut rng = ChaCha8Rng::seed_from_u64(3);
    for _ in 0..256 {
        let a = gen_vclock(&mut rng);
        let b = gen_vclock(&mut rng);
        if a.le(&b) && b.le(&a) {
            for i in 0..8u32 {
                assert_eq!(a.get(ThreadId(i)), b.get(ThreadId(i)));
            }
        }
    }
}

#[test]
fn concurrency_is_symmetric() {
    let mut rng = ChaCha8Rng::seed_from_u64(4);
    for _ in 0..128 {
        let a = gen_vclock(&mut rng);
        let b = gen_vclock(&mut rng);
        assert_eq!(a.concurrent(&b), b.concurrent(&a));
    }
}

// ---------------------------------------------------------------------------
// Determinism and sketch-filter invariants over generated programs.
// ---------------------------------------------------------------------------

/// A tiny generated concurrent program: N workers each run a generated
/// sequence of operations over a few shared variables and a lock.
#[derive(Debug, Clone)]
enum MiniOp {
    Read(u8),
    Write(u8, u8),
    FetchAdd(u8),
    Locked(u8),
    Compute(u8),
    Bb(u8),
}

fn gen_mini_ops(rng: &mut ChaCha8Rng) -> Vec<MiniOp> {
    let n = rng.gen_range(1..12usize);
    (0..n)
        .map(|_| match rng.gen_range(0..6usize) {
            0 => MiniOp::Read(rng.gen_range(0..3usize) as u8),
            1 => MiniOp::Write(rng.gen_range(0..3usize) as u8, rng.next_u32() as u8),
            2 => MiniOp::FetchAdd(rng.gen_range(0..3usize) as u8),
            3 => MiniOp::Locked(rng.gen_range(0..3usize) as u8),
            4 => MiniOp::Compute(rng.gen_range(1..=19u32) as u8),
            _ => MiniOp::Bb(rng.gen_range(0..16usize) as u8),
        })
        .collect()
}

fn mini_body(
    workers: Vec<Vec<MiniOp>>,
    v0: VarId,
    lock: LockId,
) -> impl FnOnce(&mut Ctx) + Send + 'static {
    move |ctx: &mut Ctx| {
        let handles: Vec<ThreadId> = workers
            .into_iter()
            .enumerate()
            .map(|(i, ops)| {
                ctx.spawn(&format!("w{i}"), move |ctx| {
                    for op in ops {
                        match op {
                            MiniOp::Read(v) => {
                                ctx.read(VarId(v0.0 + u32::from(v)));
                            }
                            MiniOp::Write(v, x) => {
                                ctx.write(VarId(v0.0 + u32::from(v)), u64::from(x));
                            }
                            MiniOp::FetchAdd(v) => {
                                ctx.fetch_add(VarId(v0.0 + u32::from(v)), 1);
                            }
                            MiniOp::Locked(v) => {
                                ctx.with_lock(lock, |ctx| {
                                    let x = ctx.read(VarId(v0.0 + u32::from(v)));
                                    ctx.write(VarId(v0.0 + u32::from(v)), x + 1);
                                });
                            }
                            MiniOp::Compute(n) => ctx.compute(u64::from(n) * 10),
                            MiniOp::Bb(b) => ctx.bb(u32::from(b)),
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            ctx.join(h);
        }
    }
}

fn run_mini(workers: Vec<Vec<MiniOp>>, seed: u64) -> pres_suite::tvm::vm::RunOutcome {
    let mut spec = ResourceSpec::new();
    let v0 = spec.var_array("v", 3, 0);
    let lock = spec.lock("m");
    pres_suite::tvm::vm::run(
        VmConfig {
            trace_mode: TraceMode::Full,
            max_steps: 100_000,
            ..VmConfig::default()
        },
        spec,
        &mut RandomScheduler::new(seed),
        &mut NullObserver,
        mini_body(workers, v0, lock),
    )
}

#[test]
fn generated_programs_are_seed_deterministic() {
    let mut rng = ChaCha8Rng::seed_from_u64(5);
    for _ in 0..32 {
        let w1 = gen_mini_ops(&mut rng);
        let w2 = gen_mini_ops(&mut rng);
        let w3 = gen_mini_ops(&mut rng);
        let seed = rng.next_u64();
        let a = run_mini(vec![w1.clone(), w2.clone(), w3.clone()], seed);
        let b = run_mini(vec![w1, w2, w3], seed);
        assert_eq!(a.status, b.status);
        assert_eq!(a.schedule, b.schedule);
        assert_eq!(a.trace.len(), b.trace.len());
        for (x, y) in a.trace.events().iter().zip(b.trace.events()) {
            assert_eq!(x, y);
        }
    }
}

#[test]
fn every_sketch_is_a_filtered_subsequence_of_rw() {
    let mut rng = ChaCha8Rng::seed_from_u64(6);
    for _ in 0..32 {
        let w1 = gen_mini_ops(&mut rng);
        let w2 = gen_mini_ops(&mut rng);
        let seed = rng.next_u64();
        let mech = gen_mechanism(&mut rng);
        let out = run_mini(vec![w1, w2], seed);
        let rw = Sketch::from_events(Mechanism::Rw, out.trace.events());
        let other = Sketch::from_events(mech, out.trace.events());
        // Every non-marker entry of any sketch appears in RW order.
        let mut it = rw.entries.iter();
        for e in other
            .entries
            .iter()
            .filter(|e| !matches!(e.op, SketchOp::Func(_) | SketchOp::Bb(_)))
        {
            assert!(it.any(|r| r == e), "entry {e:?} of {mech} missing from RW");
        }
    }
}

#[test]
fn scripted_replay_reproduces_generated_runs() {
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    for _ in 0..32 {
        let w1 = gen_mini_ops(&mut rng);
        let w2 = gen_mini_ops(&mut rng);
        let seed = rng.next_u64();
        let first = run_mini(vec![w1.clone(), w2.clone()], seed);
        let mut scripted = ScriptedScheduler::new(first.schedule.clone());
        let mut spec = ResourceSpec::new();
        let v0 = spec.var_array("v", 3, 0);
        let lock = spec.lock("m");
        let second = pres_suite::tvm::vm::run(
            VmConfig {
                trace_mode: TraceMode::Full,
                max_steps: 100_000,
                ..VmConfig::default()
            },
            spec,
            &mut scripted,
            &mut NullObserver,
            mini_body(vec![w1, w2], v0, lock),
        );
        assert_eq!(first.schedule, second.schedule);
        for (x, y) in first.trace.events().iter().zip(second.trace.events()) {
            assert_eq!(x, y);
        }
    }
}

#[test]
fn hb_detection_is_deterministic_and_bounded() {
    let mut rng = ChaCha8Rng::seed_from_u64(8);
    for _ in 0..32 {
        let w1 = gen_mini_ops(&mut rng);
        let w2 = gen_mini_ops(&mut rng);
        let seed = rng.next_u64();
        let out = run_mini(vec![w1, w2], seed);
        let a = pres_race::detect_races(&out.trace);
        let b = pres_race::detect_races(&out.trace);
        assert_eq!(&a, &b);
        // Race end points always reference in-trace accesses.
        for r in &a {
            assert!(r.first.gseq < r.second.gseq);
            assert!(out.trace.get(r.second.gseq).is_some());
        }
    }
}
