//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code, around each call into
//! a layer's public functions; the program itself is not instrumented. They
//! are kept in memory and written out once, after the measurements.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// The trace file holds every span's totals by name, and the first this
/// many spans verbatim (a serve run records one span per request).
const MAX_WRITTEN_SPANS: usize = 20_000;

/// One timed interval at a layer boundary.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// `<layer>.<call>`.
    pub name: &'static str,
    /// Nanoseconds since the tracer's origin.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<u32>,
    /// Batch or request id the span belongs to (0 when it has none).
    pub id: u64,
}

/// Records spans when enabled; a disabled tracer runs the wrapped code and
/// records nothing, so the end-to-end run pays no tracing cost.
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer { origin: Instant::now(), enabled, spans: Vec::new(), stack: Vec::new() }
    }

    /// Spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// The instant span times count from; threads that time their own
    /// spans for [`Tracer::record`] measure against it.
    pub fn origin(&self) -> Instant {
        self.origin
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span; spans opened by `f` become its children.
    pub fn span<R>(&mut self, name: &'static str, id: u64, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len() as u32;
        let parent = self.stack.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, id });
        self.stack.push(index);
        let out = f(self);
        self.stack.pop();
        self.spans[index as usize].end_ns = self.now_ns();
        out
    }

    /// Adds a span that was timed elsewhere (a client thread), as a child
    /// of the span currently open.
    pub fn record(&mut self, name: &'static str, id: u64, start_ns: u64, end_ns: u64) {
        if self.enabled {
            let parent = self.stack.last().copied();
            self.spans.push(Span { name, start_ns, end_ns, parent, id });
        }
    }

    /// Durations of every span called `name`, in recording order.
    pub fn durations_ns(&self, name: &str) -> Vec<u64> {
        self.spans.iter().filter(|s| s.name == name).map(|s| s.end_ns - s.start_ns).collect()
    }

    /// Summed duration of every span called `name`, in seconds.
    pub fn total_s(&self, name: &str) -> f64 {
        self.durations_ns(name).iter().sum::<u64>() as f64 / 1e9
    }

    /// Writes the trace as one JSON object: `header` fields first, then
    /// count, total and self time per span name, then the first spans.
    pub fn write_json(&self, path: &Path, header: &[(&str, String)]) -> std::io::Result<()> {
        let self_ns = self_times(&self.spans);
        let mut by_name: BTreeMap<&str, (u64, u64, u64)> = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(&self_ns) {
            let e = by_name.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.end_ns - s.start_ns;
            e.2 += own;
        }
        let mut out = String::from("{\n");
        for (k, v) in header {
            let _ = writeln!(out, "  \"{k}\": {v},");
        }
        let _ = writeln!(out, "  \"spans_recorded\": {},", self.spans.len());
        out.push_str("  \"by_name\": [\n");
        let rows: Vec<String> = by_name
            .iter()
            .map(|(name, (count, total, own))| {
                format!(
                    "    {{\"name\": \"{name}\", \"count\": {count}, \"total_ns\": {total}, \
                     \"self_ns\": {own}}}"
                )
            })
            .collect();
        out.push_str(&rows.join(",\n"));
        out.push_str("\n  ],\n  \"spans\": [\n");
        let rows: Vec<String> = self
            .spans
            .iter()
            .take(MAX_WRITTEN_SPANS)
            .map(|s| {
                let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
                format!(
                    "    {{\"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \
                     \"id\": {}}}",
                    s.name, s.start_ns, s.end_ns, s.id
                )
            })
            .collect();
        out.push_str(&rows.join(",\n"));
        out.push_str("\n  ]\n}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

/// Each span's self time: its duration minus the part of its interval that
/// its child spans cover. Children may overlap one another (requests in
/// flight together) and are clipped to the parent's interval.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p as usize].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let a = a.max(reach);
                let b = b.min(s.end_ns);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<u32>) -> Span {
        Span { name: "t", start_ns, end_ns, parent, id: 0 }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span(0, 100, None),
            span(10, 30, Some(0)),  // 20 covered
            span(20, 50, Some(0)),  // overlaps the first: 20 more
            span(90, 140, Some(0)), // clipped to the parent: 10
            span(25, 28, Some(2)),  // grandchild: only its own parent pays
            span(200, 260, None),   // childless
        ];
        assert_eq!(self_times(&spans), vec![50, 20, 27, 50, 3, 60]);
    }

    #[test]
    fn nested_spans_record_their_parent_and_a_disabled_tracer_records_nothing() {
        let mut tr = Tracer::new(true);
        let got = tr.span("outer", 7, |tr| tr.span("inner", 8, |_| 1) + tr.span("inner", 9, |_| 2));
        tr.record("remote", 10, 5, 9);
        assert_eq!(got, 3);
        let names: Vec<_> = tr.spans.iter().map(|s| (s.name, s.parent, s.id)).collect();
        assert_eq!(
            names,
            vec![
                ("outer", None, 7),
                ("inner", Some(0), 8),
                ("inner", Some(0), 9),
                ("remote", None, 10)
            ]
        );
        assert!(tr.spans[0].end_ns >= tr.spans[2].end_ns);
        assert_eq!(tr.durations_ns("inner").len(), 2);
        assert_eq!(tr.durations_ns("remote"), vec![4]);

        let mut off = Tracer::new(false);
        assert_eq!(off.span("outer", 0, |tr| tr.span("inner", 0, |_| 5)), 5);
        off.record("remote", 0, 1, 2);
        assert!(off.spans.is_empty());
    }
}
