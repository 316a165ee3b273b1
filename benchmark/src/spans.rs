//! In-memory spans around the calls into each layer.
//!
//! The traced run records one span per layer boundary — name, start, end,
//! the span that caused it, and the operation it belongs to — keeps them in
//! memory, and writes them out when the benchmark ends. A layer's self time
//! is its span's duration minus the part of that interval its children
//! cover.

use std::collections::BTreeMap;
use std::time::Instant;

use serde::{Deserialize, Serialize};

/// One recorded interval. Times are nanoseconds since the recorder started.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Span {
    /// Layer name, e.g. `sim.engine.run`.
    pub name: String,
    /// Operation the span belongs to (spans of one request share it).
    pub op: u32,
    /// Index of the enclosing span in the recorder, if any.
    pub parent: Option<u32>,
    /// Start, ns.
    pub start_ns: u64,
    /// End, ns.
    pub end_ns: u64,
}

/// Handle returned by [`Recorder::enter`]; pass it to [`Recorder::exit`].
#[derive(Debug, Clone, Copy)]
pub struct SpanId(u32);

/// Collects spans for one thread of the traced run.
pub struct Recorder {
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    op: u32,
}

impl Recorder {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Self { t0: Instant::now(), spans: Vec::new(), open: Vec::new(), op: 0 }
    }

    fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Start attributing spans to the next operation.
    pub fn next_op(&mut self) {
        debug_assert!(self.open.is_empty(), "an operation ended with open spans");
        self.op += 1;
    }

    /// Open a span under the innermost open one.
    pub fn enter(&mut self, name: &str) -> SpanId {
        let id = self.spans.len() as u32;
        let start_ns = self.now();
        self.spans.push(Span {
            name: name.to_string(),
            op: self.op,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        SpanId(id)
    }

    /// Close `id`, which must be the innermost open span.
    pub fn exit(&mut self, id: SpanId) {
        let top = self.open.pop();
        assert_eq!(top, Some(id.0), "spans must close innermost first");
        self.spans[id.0 as usize].end_ns = self.now();
    }

    /// Time `f` as a span named `name`.
    pub fn time<R>(&mut self, name: &str, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    /// The spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Take the spans, leaving the recorder empty.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Append `src` to `dst`, keeping parent links and giving the appended
/// operations ids after the ones already there (two connections'
/// recorders number their operations independently).
pub fn append_spans(dst: &mut Vec<Span>, src: Vec<Span>) {
    let base = dst.len() as u32;
    let op_base = dst.iter().map(|s| s.op).max().unwrap_or(0);
    dst.extend(src.into_iter().map(|mut s| {
        s.parent = s.parent.map(|p| p + base);
        s.op += op_base;
        s
    }));
}

/// Self time of every span: its duration minus the union of its
/// children's intervals, clipped to the span. Children may overlap each
/// other (two threads working for one parent); the union counts an
/// instant once.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let (lo, hi) = (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns));
            if hi > lo {
                children[p as usize].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// Per-operation busy time of each layer, in milliseconds: for every
/// span name, one value per operation that has such a span — the sum of
/// that operation's spans of that name (total or self time). `under`
/// keeps only spans whose outermost ancestor has that name.
pub fn per_op_ms(
    spans: &[Span],
    self_time: bool,
    under: Option<&str>,
) -> BTreeMap<String, Vec<f64>> {
    let selfs = self_times_ns(spans);
    // Parents precede their children, so one forward sweep finds roots.
    let mut root: Vec<usize> = Vec::with_capacity(spans.len());
    for (i, s) in spans.iter().enumerate() {
        root.push(s.parent.map_or(i, |p| root[p as usize]));
    }
    let mut sums: BTreeMap<(String, u32), u64> = BTreeMap::new();
    for ((s, own), r) in spans.iter().zip(&selfs).zip(&root) {
        if under.is_some_and(|name| spans[*r].name != name) {
            continue;
        }
        let ns = if self_time { *own } else { s.end_ns - s.start_ns };
        *sums.entry((s.name.clone(), s.op)).or_insert(0) += ns;
    }
    let mut out: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for ((name, _op), ns) in sums {
        out.entry(name).or_default().push(ns as f64 / 1e6);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span { name: name.into(), op: 1, parent, start_ns, end_ns }
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        // root 0..100, child 10..60, grandchild 20..30: the grandchild is
        // the child's business, not the root's.
        let spans = [
            span("root", None, 0, 100),
            span("kid", Some(0), 10, 60),
            span("grandkid", Some(1), 20, 30),
        ];
        assert_eq!(self_times_ns(&spans), vec![50, 40, 10]);
    }

    #[test]
    fn overlapping_children_count_each_instant_once() {
        // Two children overlap on 30..50; a third starts before the parent
        // and is clipped to it; a fourth lies inside an earlier one.
        let spans = [
            span("root", None, 100, 200),
            span("a", Some(0), 110, 150),
            span("b", Some(0), 130, 170),
            span("early", Some(0), 50, 105),
            span("inner", Some(0), 135, 140),
        ];
        // Covered: 100..105 and 110..170 = 65.
        assert_eq!(self_times_ns(&spans)[0], 35);
    }

    #[test]
    fn appended_spans_keep_their_parents_and_get_fresh_op_ids() {
        let mut dst = vec![span("a", None, 0, 10), span("b", Some(0), 1, 2)];
        let src = vec![span("c", None, 0, 10), span("d", Some(0), 3, 4)];
        append_spans(&mut dst, src);
        assert_eq!(dst[3].parent, Some(2));
        assert_eq!((dst[2].op, dst[3].op), (2, 2));
        assert_eq!(self_times_ns(&dst), vec![9, 1, 9, 1]);
    }

    #[test]
    fn per_op_sums_spans_of_one_name_within_an_operation() {
        let mut rec = Recorder::new();
        rec.next_op();
        let root = rec.enter("root");
        rec.time("leaf", || std::hint::black_box(1 + 1));
        rec.time("leaf", || std::hint::black_box(2 + 2));
        rec.exit(root);
        rec.next_op();
        rec.time("leaf", || ());
        let total = per_op_ms(rec.spans(), false, None);
        assert_eq!(total["leaf"].len(), 2, "one value per operation");
        assert_eq!(total["root"].len(), 1);
        assert_eq!(rec.spans()[1].parent, Some(0));
        assert_eq!(rec.spans()[3].parent, None);
        let own = per_op_ms(rec.spans(), true, None);
        assert!(own["root"][0] <= total["root"][0]);
        // Only the first operation's leaves sit under a `root` span.
        let under = per_op_ms(rec.spans(), false, Some("root"));
        assert_eq!(under["leaf"].len(), 1);
        assert!(per_op_ms(rec.spans(), false, Some("nothing")).is_empty());
    }
}
