//! In-memory span recorder for the traced run.
//!
//! A span has a name, a start, an end, the span that caused it and the
//! run it belongs to. Spans stay in memory and are written out once,
//! when the run ends. A layer's self time is its span's duration minus
//! the part of it that its child spans cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Records spans when enabled; every call is a no-op when not.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    run: u64,
    spans: Vec<Span>,
    /// Open spans, innermost last: `(index into spans)`.
    open: Vec<usize>,
}

/// Handle of an open span; pass it back to [`Tracer::end`].
#[derive(Debug, Clone, Copy)]
pub struct Open(Option<usize>);

impl Tracer {
    pub fn new(enabled: bool, run: u64) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            run,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Turns recording on or off; spans already open still close.
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span named `name` under the innermost open span.
    pub fn begin(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            id: idx as u32,
            parent: self.open.last().map(|&p| self.spans[p].id),
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.open.push(idx);
        Open(Some(idx))
    }

    /// Closes `span`, and any span opened inside it and left open.
    pub fn end(&mut self, span: Open) {
        let Some(idx) = span.0 else { return };
        let now = self.now_ns();
        while let Some(top) = self.open.pop() {
            self.spans[top].end_ns = now;
            if top == idx {
                break;
            }
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in nanoseconds of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .collect()
    }

    /// Writes every span, one JSON object a line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"run\":{},\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                self.run, s.id, parent, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Self time per span name: `(total self ns, span count)`. A span's
/// self time is its duration minus the union of its children's
/// intervals, clipped to the span.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64)> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for s in spans {
        let covered = children
            .get_mut(&s.id)
            .map_or(0, |c| covered(c, s.start_ns, s.end_ns));
        let entry = out.entry(s.name).or_default();
        entry.0 += (s.end_ns - s.start_ns).saturating_sub(covered);
        entry.1 += 1;
    }
    out
}

/// Length of the union of `intervals`, each clipped to `[lo, hi]`.
fn covered(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = lo;
    for &(a, b) in intervals.iter() {
        let (a, b) = (a.max(reach), b.min(hi));
        if b > a {
            total += b - a;
            reach = b;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, name: &'static str, a: u64, b: u64) -> Span {
        Span {
            id,
            parent,
            name,
            start_ns: a,
            end_ns: b,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            span(0, None, "round", 0, 100),
            span(1, Some(0), "sweep", 10, 30),
            span(2, Some(0), "encode", 40, 70),
            span(3, Some(2), "alloc", 50, 55),
            span(4, None, "round", 200, 210),
        ];
        let t = self_times(&spans);
        assert_eq!(t["round"], (100 - 20 - 30 + 10, 2));
        assert_eq!(t["sweep"], (20, 1));
        assert_eq!(t["encode"], (25, 1));
        assert_eq!(t["alloc"], (5, 1));
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = vec![
            span(0, None, "p", 100, 200),
            span(1, Some(0), "c", 90, 120),
            span(2, Some(0), "c", 110, 150),
            span(3, Some(0), "c", 190, 260),
        ];
        let t = self_times(&spans);
        // Covered: [100,150] + [190,200] = 60.
        assert_eq!(t["p"], (40, 1));
    }

    #[test]
    fn tracer_nests_and_is_free_when_off() {
        let mut t = Tracer::new(true, 1);
        let outer = t.begin("outer");
        let inner = t.begin("inner");
        t.end(inner);
        let _left_open = t.begin("leak");
        t.end(outer);
        let s = t.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].parent, Some(0));
        assert!(s.iter().all(|x| x.end_ns >= x.start_ns));
        let after = t.begin("next");
        assert_eq!(t.spans()[3].parent, None);
        t.end(after);

        let mut off = Tracer::new(false, 1);
        let x = off.begin("x");
        off.end(x);
        assert!(off.spans().is_empty());
    }
}
