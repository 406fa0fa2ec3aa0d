//! In-memory spans around calls into each layer, written out at exit.
//!
//! Spans are recorded from the benchmark's side of every call (spans inside
//! the crates are a later change), so a span's name is `<crate>.<call>` and
//! the layer of a span is the part before the dot.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed interval. `parent` indexes the tracer's span list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op_id: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A span recorder for one thread. Disabled tracers record nothing, so the
/// same workload code runs traced and untraced.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(origin: Instant, enabled: bool) -> Self {
        Self {
            enabled,
            origin,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn off() -> Self {
        Self::new(Instant::now(), false)
    }

    /// Runs `f` inside a span named `name`; spans opened by `f` through
    /// this tracer become its children.
    pub fn span<T>(&mut self, name: &'static str, op_id: u64, f: impl FnOnce(&mut Self) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.origin.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.open.last().copied(),
            op_id,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.origin.elapsed().as_nanos() as u64;
        out
    }

    /// The instant span times count from; threads that share it can be
    /// absorbed into one timeline.
    pub fn origin(&self) -> Instant {
        self.origin
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Appends another thread's spans, keeping their parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op_id\":{}}}",
                s.name, s.start_ns, s.end_ns, s.op_id
            )?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that child spans cover. Children may overlap each other (two client
/// threads under one op) and may stick out of the parent; covered time is
/// the union of the children clipped to the parent.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let start = s.start_ns.max(spans[p].start_ns);
            let end = s.end_ns.min(spans[p].end_ns);
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
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for (start, end) in kids {
                if end > reach {
                    covered += end - start.max(reach);
                    reach = end;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// Summed self time per span name, in nanoseconds.
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut by_name = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times_ns(spans)) {
        *by_name.entry(s.name).or_insert(0) += t;
    }
    by_name
}

/// The layer a span belongs to: the crate part of `<crate>.<call>`.
pub fn layer_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            op_id: 0,
        }
    }

    #[test]
    fn nested_children_are_subtracted_once_per_level() {
        let spans = [
            span("op", 0, 100, None),
            span("core.search", 10, 90, Some(0)),
            span("cost.score", 20, 50, Some(1)),
            span("nn.forward", 25, 45, Some(2)),
        ];
        assert_eq!(self_times_ns(&spans), vec![20, 50, 10, 20]);
        let total: u64 = self_times_ns(&spans).iter().sum();
        assert_eq!(total, 100, "self times partition the root span");
    }

    #[test]
    fn overlapping_children_count_their_union() {
        let spans = [
            span("op", 0, 100, None),
            span("serve.a", 10, 60, Some(0)),
            span("serve.b", 40, 80, Some(0)),
            span("serve.c", 50, 55, Some(0)),
        ];
        // Union of [10,60] ∪ [40,80] ∪ [50,55] = [10,80] → 70 covered.
        assert_eq!(self_times_ns(&spans)[0], 30);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        let spans = [
            span("op", 10, 50, None),
            span("a.x", 0, 20, Some(0)),
            span("a.y", 45, 70, Some(0)),
            span("a.z", 60, 70, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans)[0], 25);
    }

    #[test]
    fn tracer_links_parents_and_survives_absorb() {
        let mut t = Tracer::new(Instant::now(), true);
        t.span("op", 7, |t| {
            t.span("core.build", 7, |_| ());
            t.span("core.search", 7, |_| ());
        });
        let mut u = Tracer::new(Instant::now(), true);
        u.span("op", 8, |u| u.span("serve.hit", 8, |_| ()));
        t.absorb(u);
        let parents: Vec<Option<usize>> = t.spans().iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![None, Some(0), Some(0), None, Some(3)]);
        assert!(t.spans().iter().all(|s| s.end_ns >= s.start_ns));
        let by_name = self_time_by_name(t.spans());
        assert_eq!(by_name.len(), 4);
        assert_eq!(layer_of("core.search"), "core");
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::off();
        assert_eq!(t.span("op", 0, |t| t.span("x.y", 0, |_| 5)), 5);
        assert!(t.spans().is_empty());
    }
}
