//! Execution traces and the recording observer interface.
//!
//! The coordinator emits one [`Event`] per applied operation, in global
//! order. An [`Observer`] installed on the VM sees every event as it is
//! applied and returns the recording charge (if any) to bill to the virtual
//! clock — this is how `pres-core`'s sketch recorder both captures its log
//! and accounts for its own overhead in a single pass, exactly as the
//! production-run instrumentation does in the paper.

use crate::ids::ThreadId;
use crate::op::{Op, OpResult};
use crate::snapshot::VmSnapshot;

/// One applied operation in global order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// Position in the global total order of applied operations (0-based).
    pub gseq: u64,
    /// The thread that performed the operation.
    pub tid: ThreadId,
    /// Position within the thread's own sequence of applied operations.
    pub tseq: u32,
    /// The operation.
    pub op: Op,
    /// The result handed back to the thread (normalized: bulky payloads may
    /// be elided from traces by configuration, never from recorder logs).
    pub result: OpResult,
}

impl Event {
    /// Approximate payload size in bytes if this event's *result* had to be
    /// logged (only syscalls need result logging; scheduling-order entries
    /// log ids only).
    pub fn result_payload_bytes(&self) -> u64 {
        match &self.result {
            OpResult::Bytes(b) => b.len() as u64,
            OpResult::MaybeBytes(Some(b)) => b.len() as u64,
            _ => 0,
        }
    }
}

/// The recording charge an observer wants billed for an event.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ObserverCharge {
    /// Cost added to the issuing thread's virtual time.
    pub thread_cost: u64,
    /// Cost added to the global serialization section (see
    /// [`crate::clock::VClock::charge_serial`]).
    pub serial_cost: u64,
}

impl ObserverCharge {
    /// A charge of zero (event not recorded).
    pub const FREE: ObserverCharge = ObserverCharge {
        thread_cost: 0,
        serial_cost: 0,
    };

    /// A purely thread-local charge: the recorded event appends to the
    /// issuing thread's own shard and claims no slot in the serialized
    /// global order (function/basic-block markers, thread-local implicit
    /// streams).
    pub const fn local(thread_cost: u64) -> ObserverCharge {
        ObserverCharge {
            thread_cost,
            serial_cost: 0,
        }
    }

    /// A charge with a serialized portion: the recorded event claims a
    /// slot in the single global order, so part of its cost lands in the
    /// serial section that floors the makespan (see
    /// [`crate::clock::VClock::charge_serial`]).
    pub const fn serialized(thread_cost: u64, serial_cost: u64) -> ObserverCharge {
        ObserverCharge {
            thread_cost,
            serial_cost,
        }
    }
}

/// Receives every applied event during a run.
///
/// Implementations must be deterministic functions of the event stream:
/// the VM guarantees it will deliver identical streams for identical
/// (program, scheduler) pairs, and replay correctness depends on observers
/// not introducing nondeterminism of their own.
pub trait Observer: Send {
    /// Called after each event is applied; returns the recording charge.
    fn on_event(&mut self, event: &Event) -> ObserverCharge;

    /// Asked once after every [`Observer::on_event`]: should the VM
    /// capture a checkpoint at this pick boundary? Epoch-segmented
    /// recorders answer `true` at epoch cuts; the default never
    /// checkpoints, so observers that don't opt in pay nothing.
    fn checkpoint_due(&mut self) -> bool {
        false
    }

    /// Delivers the snapshot captured after [`Observer::checkpoint_due`]
    /// returned `true`. The boundary is `snapshot.picks()`: exactly that
    /// many scheduler picks (equivalently, observer events) precede it.
    fn on_checkpoint(&mut self, _snapshot: &VmSnapshot) {}
}

/// An observer that records nothing and charges nothing (native runs).
#[derive(Debug, Default, Clone, Copy)]
pub struct NullObserver;

impl Observer for NullObserver {
    fn on_event(&mut self, _event: &Event) -> ObserverCharge {
        ObserverCharge::FREE
    }
}

/// Whether and how the VM itself retains the full event trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceMode {
    /// Keep nothing. Every event still reaches the installed [`Observer`],
    /// which keeps what it needs: the recorder its sketch log, a replay
    /// attempt's feedback extractor its bounded analysis state.
    Off,
    /// Keep every event (inspection, certificates, trace-diffing tests).
    Full,
}

/// The full event trace of a run (when [`TraceMode::Full`]).
#[derive(Debug, Clone, Default)]
pub struct Trace {
    events: Vec<Event>,
}

impl Trace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends an event.
    ///
    /// # Panics
    ///
    /// Panics if the event's `gseq` is not the next sequence number —
    /// traces are dense by construction.
    pub fn push(&mut self, event: Event) {
        assert_eq!(
            event.gseq,
            self.events.len() as u64,
            "trace must be dense in gseq"
        );
        self.events.push(event);
    }

    /// All events in global order.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Iterates over the events of a single thread, in program order.
    pub fn thread_events(&self, tid: ThreadId) -> impl Iterator<Item = &Event> {
        self.events.iter().filter(move |e| e.tid == tid)
    }

    /// The event at a global sequence number.
    pub fn get(&self, gseq: u64) -> Option<&Event> {
        self.events.get(gseq as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::VarId;

    fn ev(gseq: u64, tid: u32, tseq: u32) -> Event {
        Event {
            gseq,
            tid: ThreadId(tid),
            tseq,
            op: Op::Read(VarId(0)),
            result: OpResult::Value(0),
        }
    }

    #[test]
    fn trace_is_dense_and_ordered() {
        let mut t = Trace::new();
        t.push(ev(0, 0, 0));
        t.push(ev(1, 1, 0));
        t.push(ev(2, 0, 1));
        assert_eq!(t.len(), 3);
        assert_eq!(t.get(1).unwrap().tid, ThreadId(1));
        assert!(t.get(3).is_none());
    }

    #[test]
    #[should_panic(expected = "dense in gseq")]
    fn sparse_push_is_rejected() {
        let mut t = Trace::new();
        t.push(ev(5, 0, 0));
    }

    #[test]
    fn thread_events_filters_in_order() {
        let mut t = Trace::new();
        t.push(ev(0, 0, 0));
        t.push(ev(1, 1, 0));
        t.push(ev(2, 0, 1));
        let seqs: Vec<u32> = t.thread_events(ThreadId(0)).map(|e| e.tseq).collect();
        assert_eq!(seqs, vec![0, 1]);
    }

    #[test]
    fn payload_bytes_counts_result_payloads() {
        let mut e = ev(0, 0, 0);
        assert_eq!(e.result_payload_bytes(), 0);
        e.result = OpResult::Bytes(vec![0; 12]);
        assert_eq!(e.result_payload_bytes(), 12);
        e.result = OpResult::MaybeBytes(Some(vec![0; 5]));
        assert_eq!(e.result_payload_bytes(), 5);
        e.result = OpResult::MaybeBytes(None);
        assert_eq!(e.result_payload_bytes(), 0);
    }

    #[test]
    fn null_observer_is_free() {
        let mut o = NullObserver;
        assert_eq!(o.on_event(&ev(0, 0, 0)), ObserverCharge::FREE);
    }
}
