//! In-memory spans recorded by the harness around its own calls into each
//! layer, and the self-time arithmetic over them.
//!
//! A span is `{op, name, start_ns, end_ns, parent}`. Spans of one operation
//! share `op`. Two kinds of span exist:
//!
//! * **real** spans time a call where it happened (`serve.annotate_groups`,
//!   a client's wait for the first response byte);
//! * **replayed** spans time the same work re-executed stage by stage on the
//!   same inputs, because the program has no spans of its own yet. A
//!   replayed child is *re-based*: it is laid inside its parent, after its
//!   previous sibling, with the duration that was measured. The file then
//!   reads as one timeline and the usual rule applies — a span's self time
//!   is its duration minus the part of it its children cover.

use std::collections::BTreeMap;
use std::time::Instant;

/// Index of a span in its [`Trace`]; `NO_PARENT` marks a root.
pub type SpanId = i32;
pub const NO_PARENT: SpanId = -1;

#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub op: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: SpanId,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Per-name totals over a trace.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

pub struct Trace {
    origin: Instant,
    pub spans: Vec<Span>,
    /// Where the next re-based child of each span starts.
    cursor: Vec<u64>,
}

impl Trace {
    pub fn new() -> Trace {
        Trace { origin: Instant::now(), spans: Vec::new(), cursor: Vec::new() }
    }

    fn push(&mut self, span: Span) -> SpanId {
        self.cursor.push(span.start_ns);
        self.spans.push(span);
        (self.spans.len() - 1) as SpanId
    }

    /// Records a real span between two instants.
    pub fn real(
        &mut self,
        op: u32,
        name: &'static str,
        parent: SpanId,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        let start_ns = start.saturating_duration_since(self.origin).as_nanos() as u64;
        let end_ns = end.saturating_duration_since(self.origin).as_nanos() as u64;
        self.push(Span { op, name, start_ns, end_ns: end_ns.max(start_ns), parent })
    }

    /// Moves the end of a real span opened before its extent was known.
    pub fn close(&mut self, id: SpanId, end: Instant) {
        let end_ns = end.saturating_duration_since(self.origin).as_nanos() as u64;
        let span = &mut self.spans[id as usize];
        span.end_ns = end_ns.max(span.start_ns);
    }

    /// Records a replayed span of `dur_ns`, re-based to follow `parent`'s
    /// previous re-based child (or to start where `parent` starts). With
    /// `NO_PARENT` the span is a detached root placed at its real `start`.
    pub fn replayed(
        &mut self,
        op: u32,
        name: &'static str,
        parent: SpanId,
        start: Instant,
        dur_ns: u64,
    ) -> SpanId {
        let start_ns = if parent == NO_PARENT {
            start.saturating_duration_since(self.origin).as_nanos() as u64
        } else {
            self.cursor[parent as usize]
        };
        if parent != NO_PARENT {
            self.cursor[parent as usize] = start_ns + dur_ns;
        }
        self.push(Span { op, name, start_ns, end_ns: start_ns + dur_ns, parent })
    }

    /// Self time of every span: its duration minus the length of the union
    /// of its children's intervals clipped to it.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                let p = &self.spans[s.parent as usize];
                let (a, b) = (s.start_ns.max(p.start_ns), s.end_ns.min(p.end_ns));
                if b > a {
                    children[s.parent as usize].push((a, b));
                }
            }
        }
        self.spans
            .iter()
            .zip(children.iter_mut())
            .map(|(s, kids)| {
                kids.sort_unstable();
                let mut covered = 0u64;
                let mut reach = s.start_ns;
                for &(a, b) in kids.iter() {
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

    /// Count, total and self time per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, NameTotals> {
        let selfs = self.self_ns();
        let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
        for (s, self_ns) in self.spans.iter().zip(selfs) {
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += s.dur_ns();
            t.self_ns += self_ns;
        }
        out
    }

    /// Duration in milliseconds of every span called `name`, in span order.
    pub fn durations_ms_of(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(|s| s.dur_ns() as f64 / 1e6).collect()
    }

    /// Self time of every span called `name`, in span order.
    pub fn self_ns_of(&self, name: &str) -> Vec<u64> {
        let selfs = self.self_ns();
        self.spans.iter().zip(selfs).filter(|(s, _)| s.name == name).map(|(_, v)| v).collect()
    }

    /// The trace as compact JSON: a name table plus one
    /// `[op, name, start_ns, end_ns, parent]` row per span.
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let mut names: Vec<&'static str> = Vec::new();
        let mut index: BTreeMap<&'static str, usize> = BTreeMap::new();
        let mut rows = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let n = *index.entry(s.name).or_insert_with(|| {
                names.push(s.name);
                names.len() - 1
            });
            if i > 0 {
                rows.push(',');
            }
            rows.push_str(&format!("\n[{},{},{},{},{}]", s.op, n, s.start_ns, s.end_ns, s.parent));
        }
        let names_json = names.iter().map(|n| format!("\"{n}\"")).collect::<Vec<_>>().join(",");
        format!(
            "{{\"workload\":\"{workload}\",\"seed\":{seed},\
             \"columns\":[\"op\",\"name\",\"start_ns\",\"end_ns\",\"parent\"],\
             \"names\":[{names_json}],\"spans\":[{rows}\n]}}\n"
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: SpanId) -> Span {
        Span { op: 0, name, start_ns, end_ns, parent }
    }

    fn trace_of(spans: Vec<Span>) -> Trace {
        let cursor = spans.iter().map(|s| s.start_ns).collect();
        Trace { origin: Instant::now(), spans, cursor }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let t = trace_of(vec![
            span("root", 0, 100, NO_PARENT),
            span("a", 10, 40, 0),
            span("b", 30, 60, 0),  // overlaps a by 10
            span("c", 90, 130, 0), // sticks out of the parent by 30
            span("leaf", 12, 20, 1),
        ]);
        // root covers [10,60] = 50 and [90,100] = 10.
        assert_eq!(t.self_ns(), vec![40, 22, 30, 40, 8]);
    }

    #[test]
    fn replayed_children_are_laid_end_to_end_inside_the_parent() {
        let mut t = Trace::new();
        let now = Instant::now();
        let root = t.real(7, "root", NO_PARENT, now, now + std::time::Duration::from_nanos(1000));
        let a = t.replayed(7, "a", root, now, 300);
        let b = t.replayed(7, "b", root, now, 500);
        let leaf = t.replayed(7, "leaf", a, now, 100);
        let s = &t.spans;
        assert_eq!(s[a as usize].start_ns, s[root as usize].start_ns);
        assert_eq!(s[b as usize].start_ns, s[a as usize].end_ns);
        assert_eq!(s[leaf as usize].start_ns, s[a as usize].start_ns);
        assert_eq!(t.self_ns(), vec![200, 200, 500, 100]);
        let totals = t.totals();
        assert_eq!(totals["root"], NameTotals { count: 1, total_ns: 1000, self_ns: 200 });
    }

    #[test]
    fn a_replay_slower_than_its_parent_clamps_self_time_at_zero() {
        let mut t = Trace::new();
        let now = Instant::now();
        let root = t.real(0, "root", NO_PARENT, now, now + std::time::Duration::from_nanos(100));
        t.replayed(0, "slow", root, now, 150);
        assert_eq!(t.self_ns()[0], 0);
    }

    #[test]
    fn json_lists_each_name_once() {
        let t = trace_of(vec![span("x", 0, 5, NO_PARENT), span("y", 1, 2, 0), span("x", 6, 9, -1)]);
        let json = t.to_json("w", 3);
        assert!(json.contains("\"names\":[\"x\",\"y\"]"));
        assert!(json.contains("[0,1,1,2,0]"));
        doduo_served::json::Json::parse(json.trim()).expect("trace file is valid JSON");
    }
}
