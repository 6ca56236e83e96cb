//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span records its name, start, end, parent and the id of the operation
//! (sweep repetition, cell or request) it belongs to. Spans stay in memory
//! until the run ends and are then written out as JSON lines.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub op: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// One thread's spans. Nesting follows enter/exit order.
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new(epoch: Instant) -> Recorder {
        Recorder {
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open span.
    pub fn enter(&mut self, name: &'static str, op: u64) -> usize {
        let id = self.spans.len();
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            op,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open span; returns its
    /// duration in seconds.
    pub fn exit(&mut self, id: usize) -> f64 {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end_ns = self.now();
        self.spans[id].seconds()
    }

    /// Times `f` in a span.
    pub fn time<R>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name, op);
        let out = f();
        self.exit(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Appends another thread's spans, re-basing their parent links.
    pub fn absorb(&mut self, other: Recorder) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                r#"{{"id":{id},"name":"{}","op":{},"parent":{parent},"start_ns":{},"end_ns":{}}}"#,
                s.name, s.op, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the part of it that its
/// children cover (children of one parent never overlap, since each
/// recorder is one thread).
pub fn self_seconds(spans: &[Span]) -> Vec<f64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let covered = s.end_ns.min(parent.end_ns) - s.start_ns.max(parent.start_ns);
            own[p] = own[p].saturating_sub(covered);
        }
    }
    own.into_iter().map(|ns| ns as f64 * 1e-9).collect()
}

/// Self seconds summed per span name, over the spans from index `from` on
/// (parent links index the whole slice).
pub fn self_by_name(spans: &[Span], from: usize) -> BTreeMap<&'static str, f64> {
    let mut totals = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_seconds(spans)).skip(from) {
        *totals.entry(s.name).or_insert(0.0) += own;
    }
    totals
}

/// Durations of every span with `name`, in recording order.
pub fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::seconds)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start: u64, end: u64) -> Span {
        Span {
            name,
            op: 0,
            parent,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            span("request", None, 0, 1_000),
            span("submit", Some(0), 100, 300),
            span("result", Some(0), 300, 900),
            span("decode", Some(2), 500, 800),
        ];
        let own: Vec<u64> = self_seconds(&spans)
            .iter()
            .map(|s| (s * 1e9).round() as u64)
            .collect();
        assert_eq!(own, vec![200, 200, 300, 300]);
        let by_name = self_by_name(&spans, 0);
        let total: f64 = by_name.values().sum();
        // Self times partition the root span exactly.
        assert!((total - 1_000e-9).abs() < 1e-15);
        // Summing from a later span keeps the parent links intact.
        let tail = self_by_name(&spans, 2);
        assert!((tail["result"] - 300e-9).abs() < 1e-15);
        assert!(!tail.contains_key("request"));
    }

    #[test]
    fn recorder_nests_and_absorbs() {
        let epoch = Instant::now();
        let mut a = Recorder::new(epoch);
        let root = a.enter("root", 1);
        a.time("child", 1, || ());
        a.exit(root);
        let mut b = Recorder::new(epoch);
        let other = b.enter("root", 2);
        b.time("child", 2, || ());
        b.exit(other);
        a.absorb(b);
        let parents: Vec<Option<usize>> = a.spans().iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![None, Some(0), None, Some(2)]);
    }
}
