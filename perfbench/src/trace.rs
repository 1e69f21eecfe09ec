//! In-memory spans around the benchmark's own calls into each layer.
//!
//! A span has a name, a start, an end, its parent and the pass it
//! belongs to. Spans are kept in memory and written out once, at the
//! end of a traced run. A layer's self time is its span's duration
//! minus the part of that interval its child spans cover.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded interval, in nanoseconds since the tracer's origin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer boundary name, e.g. `netsim.try_run`.
    pub name: &'static str,
    /// Pass identifier shared by every span of one pass.
    pub pass: u32,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, ns since origin.
    pub start_ns: u64,
    /// End, ns since origin.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records nested spans on one thread. A disabled tracer runs the
/// wrapped closures and records nothing.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    pass: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recording tracer.
    pub fn new() -> Tracer {
        Tracer { enabled: true, origin: Instant::now(), pass: 0, spans: Vec::new(), open: Vec::new() }
    }

    /// A tracer that records nothing.
    pub fn disabled() -> Tracer {
        Tracer { enabled: false, ..Tracer::new() }
    }

    /// Sets the pass id stamped on spans opened from now on.
    pub fn set_pass(&mut self, pass: u32) {
        self.pass = pass;
    }

    /// Runs `f` inside a span named `name`, nested under the innermost
    /// open span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            pass: self.pass,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// Every span recorded so far, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ms) of every span named `name`, in opening order.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(|s| s.dur_ns() as f64 / 1e6).collect()
    }

    /// The spans as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\":{id},\"name\":\"{}\",\"pass\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}\n",
                s.name, s.pass, s.start_ns, s.end_ns
            ));
        }
        out
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

/// Self time of every span: its duration minus the union of its
/// children's intervals, clipped to its own.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (id, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            children[p].push(id);
        }
    }
    spans
        .iter()
        .zip(&children)
        .map(|(s, kids)| {
            let mut iv: Vec<(u64, u64)> = kids
                .iter()
                .map(|&k| (spans[k].start_ns.max(s.start_ns), spans[k].end_ns.min(s.end_ns)))
                .filter(|(a, b)| a < b)
                .collect();
            iv.sort_unstable();
            let (mut covered, mut reach) = (0u64, s.start_ns);
            for (a, b) in iv {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.dur_ns() - covered
        })
        .collect()
}

/// Per span name: `(count, total ms, self ms)`, ordered by name.
pub fn self_time_table(spans: &[Span]) -> BTreeMap<&'static str, (u64, f64, f64)> {
    let mut table = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(self_times_ns(spans)) {
        let e = table.entry(s.name).or_insert((0u64, 0.0, 0.0));
        e.0 += 1;
        e.1 += s.dur_ns() as f64 / 1e6;
        e.2 += self_ns as f64 / 1e6;
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span { name, pass: 0, parent, start_ns, end_ns }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children_clipped_to_the_parent() {
        let spans = vec![
            span("pass", None, 0, 100),
            span("a", Some(0), 10, 30),
            span("b", Some(0), 20, 50),  // overlaps a: union 10..50
            span("c", Some(0), 90, 120), // clipped to 90..100
            span("d", Some(1), 12, 18),  // grandchild: counts against a only
        ];
        assert_eq!(self_times_ns(&spans), vec![50, 14, 30, 30, 6]);
    }

    #[test]
    fn self_time_of_a_leaf_is_its_duration() {
        assert_eq!(self_times_ns(&[span("x", None, 5, 9)]), vec![4]);
    }

    #[test]
    fn recorded_spans_nest_and_sum_by_name() {
        let mut t = Tracer::new();
        t.set_pass(3);
        t.span("outer", |t| {
            t.span("inner", |_| ());
            t.span("inner", |_| ());
        });
        let s = t.spans();
        assert_eq!(s.len(), 3);
        assert_eq!((s[0].parent, s[1].parent, s[2].parent), (None, Some(0), Some(0)));
        assert!(s.iter().all(|x| x.pass == 3 && x.start_ns <= x.end_ns));
        assert!(s[1].end_ns <= s[2].start_ns);
        let table = self_time_table(s);
        assert_eq!(table["inner"].0, 2);
        assert_eq!(t.durations_ms("inner").len(), 2);
        assert_eq!(t.to_jsonl().lines().count(), 3);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::disabled();
        assert_eq!(t.span("x", |_| 7), 7);
        assert!(t.spans().is_empty());
    }
}
