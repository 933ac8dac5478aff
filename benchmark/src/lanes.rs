//! The load shape every workload shares: `L` closed-loop lanes in one
//! generator process, pulling small tasks from one shared counter so no
//! lane idles at the tail of a trial.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

pub struct LaneRun<S, R> {
    /// First task claimed → last task finished.
    pub wall: Duration,
    /// Per lane: time from its first claim to its last task's end.
    pub busy: Vec<Duration>,
    /// Task results, indexed by task number.
    pub results: Vec<R>,
    /// Each lane's state after its last task (pools, clients, traces).
    pub states: Vec<S>,
}

/// What one lane thread hands back.
struct LaneDone<S, R> {
    state: S,
    results: Vec<(usize, R)>,
    started: Instant,
    ended: Instant,
}

/// Runs tasks `0..tasks` over `lanes` threads. `init(lane)` builds the
/// lane's private state off the clock (a barrier holds every lane until
/// all are ready); `task(&mut state, n)` runs task `n`.
pub fn run<S: Send, R: Send>(
    lanes: usize,
    tasks: usize,
    init: impl Fn(usize) -> S + Sync,
    task: impl Fn(&mut S, usize) -> R + Sync,
) -> LaneRun<S, R> {
    let next = AtomicUsize::new(0);
    let ready = std::sync::Barrier::new(lanes);
    let (init, task, next, ready) = (&init, &task, &next, &ready);
    let per_lane: Vec<LaneDone<S, R>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..lanes)
            .map(|lane| {
                scope.spawn(move || {
                    let mut state = init(lane);
                    ready.wait();
                    let started = Instant::now();
                    let mut results = Vec::new();
                    loop {
                        // Relaxed: the counter publishes nothing but itself.
                        let n = next.fetch_add(1, Ordering::Relaxed);
                        if n >= tasks {
                            break;
                        }
                        results.push((n, task(&mut state, n)));
                    }
                    LaneDone {
                        state,
                        results,
                        started,
                        ended: Instant::now(),
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("lane thread panicked"))
            .collect()
    });
    let first = per_lane
        .iter()
        .map(|l| l.started)
        .min()
        .expect("at least one lane");
    let last = per_lane
        .iter()
        .map(|l| l.ended)
        .max()
        .expect("at least one lane");
    let busy = per_lane.iter().map(|l| l.ended - l.started).collect();
    let mut slots: Vec<Option<R>> = (0..tasks).map(|_| None).collect();
    let mut states = Vec::with_capacity(lanes);
    for lane in per_lane {
        states.push(lane.state);
        for (n, r) in lane.results {
            slots[n] = Some(r);
        }
    }
    LaneRun {
        wall: last - first,
        busy,
        results: slots
            .into_iter()
            .map(|r| r.expect("every task ran exactly once"))
            .collect(),
        states,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_task_runs_once_and_results_keep_task_order() {
        let out = run(
            3,
            100,
            |lane| (lane, 0usize),
            |state, n| {
                state.1 += 1;
                n * 2
            },
        );
        assert_eq!(out.results, (0..100).map(|n| n * 2).collect::<Vec<_>>());
        assert_eq!(out.states.len(), 3);
        assert_eq!(out.states.iter().map(|s| s.1).sum::<usize>(), 100);
        assert_eq!(out.busy.len(), 3);
        assert!(out.busy.iter().all(|b| *b <= out.wall));
    }

    #[test]
    fn zero_tasks_is_an_empty_run() {
        let out = run(2, 0, |_| (), |_, n| n);
        assert!(out.results.is_empty());
    }
}
