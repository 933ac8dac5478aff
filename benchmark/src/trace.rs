//! Spans recorded in the benchmark's own code, around calls into each layer.
//!
//! Every lane owns a [`LaneTrace`]: spans are pushed to a lane-local vector
//! (no lock on the measured path), merged after the trial, and written out
//! as JSON lines when the run ends. With tracing off, [`LaneTrace::span`]
//! is a plain call — no clock read, no allocation.

use crate::json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

/// One timed call. `id`/`parent` are indices within the lane's trace;
/// [`merge`] rebases them to indices in the merged vector.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub layer: &'static str,
    /// The operation (job, run, reproduction) this span belongs to.
    pub op_id: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle to an open span (`None` when tracing is off).
#[derive(Debug, Clone, Copy)]
pub struct Open(Option<usize>);

#[derive(Debug)]
pub struct LaneTrace {
    /// `None` = tracing off.
    epoch: Option<Instant>,
    spans: Vec<Span>,
}

impl LaneTrace {
    /// A lane trace; `epoch` is shared by every lane of a run so their
    /// timestamps are comparable. `None` disables recording.
    pub fn new(epoch: Option<Instant>) -> LaneTrace {
        LaneTrace {
            epoch,
            spans: Vec::new(),
        }
    }

    fn now_ns(epoch: Instant) -> u64 {
        epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`LaneTrace::end`].
    pub fn begin(
        &mut self,
        name: &'static str,
        layer: &'static str,
        op_id: u64,
        parent: Open,
    ) -> Open {
        let Some(epoch) = self.epoch else {
            return Open(None);
        };
        let now = Self::now_ns(epoch);
        self.spans.push(Span {
            name,
            layer,
            op_id,
            parent: parent.0,
            start_ns: now,
            end_ns: now,
        });
        Open(Some(self.spans.len() - 1))
    }

    pub fn end(&mut self, open: Open) {
        if let (Some(epoch), Some(id)) = (self.epoch, open.0) {
            self.spans[id].end_ns = Self::now_ns(epoch);
        }
    }

    /// Times `f` as a child of `parent`.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        layer: &'static str,
        op_id: u64,
        parent: Open,
        f: impl FnOnce() -> R,
    ) -> R {
        let open = self.begin(name, layer, op_id, parent);
        let out = f();
        self.end(open);
        out
    }

    /// A span with no parent.
    pub const ROOT: Open = Open(None);

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Concatenates lane traces, rebasing parent indices.
pub fn merge(lanes: Vec<Vec<Span>>) -> Vec<Span> {
    let mut out = Vec::with_capacity(lanes.iter().map(Vec::len).sum());
    for lane in lanes {
        let base = out.len();
        out.extend(lane.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }
    out
}

/// A span's self time: its duration minus the part of its interval that
/// its direct children cover. Children are clipped to the parent and
/// overlapping children are counted once (union of intervals).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let start = s.start_ns.clamp(parent.start_ns, parent.end_ns);
            let end = s.end_ns.clamp(parent.start_ns, parent.end_ns);
            if end > start {
                children[p].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for (start, end) in kids {
                let start = start.max(reach);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            s.dur_ns() - covered
        })
        .collect()
}

/// Per span name: how many spans, their summed duration and self time.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Totals per span name over the spans named `root` and everything
/// beneath them; spans outside those trees are left out, so when children
/// nest inside their parents the self times sum to the roots' duration.
pub fn totals_under(spans: &[Span], root: &str) -> BTreeMap<&'static str, NameTotals> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    // A parent is always recorded before its children.
    let mut in_tree = vec![false; spans.len()];
    for (i, (s, self_ns)) in spans.iter().zip(selfs).enumerate() {
        in_tree[i] = s.name == root || s.parent.is_some_and(|p| in_tree[p]);
        if !in_tree[i] {
            continue;
        }
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.dur_ns();
        t.self_ns += self_ns;
    }
    out
}

/// One JSON object per line: `{name, layer, op_id, id, parent, start_ns, end_ns}`.
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for (id, s) in spans.iter().enumerate() {
        let line = Json::obj()
            .with("name", s.name)
            .with("layer", s.layer)
            .with("op_id", s.op_id)
            .with("id", id)
            .with("parent", s.parent.map_or(Json::Null, Json::from))
            .with("start_ns", s.start_ns)
            .with("end_ns", s.end_ns);
        out.push_str(&line.render());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            layer: "test",
            op_id: 1,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn nested_children_are_subtracted_once_per_level() {
        // job [0,100] > submit [10,60] > chunk [20,30]; job > fetch [70,90]
        let spans = vec![
            span("job", None, 0, 100),
            span("submit", Some(0), 10, 60),
            span("chunk", Some(1), 20, 30),
            span("fetch", Some(0), 70, 90),
        ];
        assert_eq!(self_times(&spans), vec![30, 40, 10, 20]);
        // Self times of a tree sum to the root's duration.
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_their_union() {
        // Children [10,50] and [30,70] overlap; [90,120] overhangs the
        // parent's end and is clipped to [90,100].
        let spans = vec![
            span("job", None, 0, 100),
            span("a", Some(0), 10, 50),
            span("b", Some(0), 30, 70),
            span("c", Some(0), 90, 120),
        ];
        assert_eq!(self_times(&spans)[0], 100 - 60 - 10);
        // A child wholly inside another adds nothing.
        let spans = vec![
            span("job", None, 0, 100),
            span("a", Some(0), 10, 90),
            span("b", Some(0), 20, 30),
        ];
        assert_eq!(self_times(&spans)[0], 20);
    }

    #[test]
    fn merge_rebases_parents_and_totals_group_by_name() {
        let lane = |offset| {
            vec![
                span("job", None, offset, offset + 10),
                span("stage", Some(0), offset + 2, offset + 6),
            ]
        };
        let merged = merge(vec![lane(0), lane(100)]);
        assert_eq!(merged[3].parent, Some(2));
        let totals = totals_under(&merged, "job");
        assert_eq!(
            totals["job"],
            NameTotals {
                count: 2,
                total_ns: 20,
                self_ns: 12
            }
        );
        assert_eq!(totals["stage"].self_ns, 8);
        // Spans outside the root's trees are not counted.
        assert!(!totals_under(&merged, "stage").contains_key("job"));
        let text = to_jsonl(&merged);
        assert_eq!(text.lines().count(), 4);
        let last = Json::parse(text.lines().last().unwrap()).unwrap();
        assert_eq!(last.get("parent").and_then(Json::as_f64), Some(2.0));
    }

    #[test]
    fn a_disabled_trace_records_nothing() {
        let mut off = LaneTrace::new(None);
        let job = off.begin("job", "bench", 1, LaneTrace::ROOT);
        assert_eq!(off.span("stage", "x", 1, job, || 7), 7);
        off.end(job);
        assert!(off.into_spans().is_empty());

        let mut on = LaneTrace::new(Some(Instant::now()));
        let job = on.begin("job", "bench", 1, LaneTrace::ROOT);
        on.span("stage", "x", 1, job, || ());
        on.end(job);
        let spans = on.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].end_ns >= spans[1].end_ns);
    }
}
