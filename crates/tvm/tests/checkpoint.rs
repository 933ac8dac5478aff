//! Scenario tests for the checkpoint capture hook: a periodic observer
//! over a real multithreaded program, pinning the boundary model (picks ==
//! observer events), decode round-trips, and the byte-identity guarantees
//! the replay-from-checkpoint path depends on — same seed ⇒ same snapshot
//! bytes, whichever pool hosts the run and however warm it is.

use pres_tvm::prelude::*;
use pres_tvm::state::ResourceSpec;
use pres_tvm::trace::ObserverCharge;

/// Captures a snapshot every `every` events and remembers them all.
struct PeriodicCheckpointer {
    every: u64,
    seen: u64,
    snaps: Vec<VmSnapshot>,
}

impl PeriodicCheckpointer {
    fn new(every: u64) -> Self {
        Self {
            every,
            seen: 0,
            snaps: Vec::new(),
        }
    }
}

impl Observer for PeriodicCheckpointer {
    fn on_event(&mut self, _event: &Event) -> ObserverCharge {
        self.seen += 1;
        ObserverCharge::FREE
    }

    fn checkpoint_due(&mut self) -> bool {
        self.seen.is_multiple_of(self.every)
    }

    fn on_checkpoint(&mut self, snapshot: &VmSnapshot) {
        // The boundary contract: exactly `seen` picks precede the capture.
        assert_eq!(snapshot.picks(), self.seen, "boundary must equal events seen");
        self.snaps.push(snapshot.clone());
    }
}

type RootBody = Box<dyn FnOnce(&mut Ctx) + Send>;

fn contended_spec() -> (ResourceSpec, RootBody) {
    let mut spec = ResourceSpec::new();
    let counter = spec.var("counter", 0);
    let lock = spec.lock("guard");
    let body: RootBody = Box::new(move |ctx| {
        let mut kids = Vec::new();
        for i in 0..3 {
            kids.push(ctx.spawn(&format!("w{i}"), move |ctx| {
                for _ in 0..5 {
                    ctx.lock(lock);
                    let v = ctx.read(counter);
                    ctx.compute(3);
                    ctx.write(counter, v + 1);
                    ctx.unlock(lock);
                }
            }));
        }
        for k in kids {
            ctx.join(k);
        }
        let total = ctx.read(counter);
        ctx.check(total == 15, "increments under lock cannot be lost");
    });
    (spec, body)
}

fn run_on_thread(seed: u64, every: u64) -> (RunOutcome, Vec<VmSnapshot>) {
    let (spec, body) = contended_spec();
    let mut obs = PeriodicCheckpointer::new(every);
    let out = pres_tvm::vm::run(
        VmConfig::default(),
        spec,
        &mut RandomScheduler::new(seed),
        &mut obs,
        move |ctx| body(ctx),
    );
    (out, obs.snaps)
}

fn run_on_pool(seed: u64, every: u64, pool: &VthreadPool) -> (RunOutcome, Vec<VmSnapshot>) {
    let (spec, body) = contended_spec();
    let mut obs = PeriodicCheckpointer::new(every);
    let out = pres_tvm::vm::run_with_pool(
        VmConfig::default(),
        spec,
        &mut RandomScheduler::new(seed),
        &mut obs,
        pool,
        move |ctx| body(ctx),
    );
    (out, obs.snaps)
}

#[test]
fn periodic_checkpoints_fire_at_exact_boundaries() {
    let (out, snaps) = run_on_thread(7, 10);
    assert_eq!(out.status, RunStatus::Completed);
    assert!(!snaps.is_empty(), "a contended run must cross epoch cuts");
    for (i, s) in snaps.iter().enumerate() {
        assert_eq!(s.picks(), (i as u64 + 1) * 10);
        assert!(s.threads() >= 1);
    }
}

#[test]
fn snapshots_round_trip_through_the_codec() {
    let (_, snaps) = run_on_thread(11, 16);
    for s in &snaps {
        let back = VmSnapshot::decode(&s.encode()).expect("captured snapshot must decode");
        assert_eq!(&back, s);
    }
}

#[test]
fn same_seed_same_snapshot_bytes() {
    let (out_a, a) = run_on_thread(42, 8);
    let (out_b, b) = run_on_thread(42, 8);
    assert_eq!(out_a.status, out_b.status);
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.encode(), y.encode(), "same-seed snapshots must be byte-identical");
    }
}

#[test]
fn executor_choice_is_invisible_to_snapshots() {
    // A caller's pool and the thread's own pool host the run on different
    // OS threads (different `os_spawns` stats, different warmness) but
    // drive the identical schedule; snapshots deliberately exclude
    // pool-dependent state, so the bytes must match exactly. Run the
    // caller's pool twice so the second pass is warm — warmness must be
    // invisible too.
    let pool = VthreadPool::new(8);
    let (_, cold) = run_on_pool(42, 8, &pool);
    let (_, warm) = run_on_pool(42, 8, &pool);
    let (_, on_thread) = run_on_thread(42, 8);
    assert_eq!(cold.len(), on_thread.len());
    for ((c, w), t) in cold.iter().zip(&warm).zip(&on_thread) {
        assert_eq!(
            c.encode(),
            t.encode(),
            "caller pool vs thread pool must agree"
        );
        assert_eq!(w.encode(), t.encode(), "pool warmness must be invisible");
    }
}

#[test]
fn checkpoints_capture_mid_run_progress() {
    let (out, snaps) = run_on_thread(3, 12);
    assert_eq!(out.status, RunStatus::Completed);
    // Snapshots are strictly ordered in picks and step.
    for w in snaps.windows(2) {
        assert!(w[0].picks() < w[1].picks());
        assert!(w[0].step() <= w[1].step());
    }
    // The last capture happens before the run finishes.
    let last = snaps.last().unwrap();
    assert!(last.picks() <= out.stats.total_ops);
}
