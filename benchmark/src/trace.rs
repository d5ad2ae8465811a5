//! In-memory span trace of a traced run.
//!
//! A span is `(name, start, end, parent, request)`, with times in
//! nanoseconds since the run's epoch. Spans stay in memory and are written
//! once, when the run ends. Worker threads record into trace fragments of
//! their own that share the epoch; a fragment is grafted under a parent span
//! when its worker's results are merged.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::time::Instant;

use crate::timed::NorCall;

/// Index of a span inside its [`Trace`].
pub type SpanId = usize;

/// One recorded span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `core.verify`.
    pub name: &'static str,
    /// Start, ns since the epoch.
    pub start_ns: u64,
    /// End, ns since the epoch.
    pub end_ns: u64,
    /// Enclosing span, if any.
    pub parent: Option<SpanId>,
    /// The request (or die) the span serves, if any.
    pub request: Option<u64>,
}

impl Span {
    /// Duration in ns.
    #[must_use]
    pub fn ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A list of spans sharing one epoch.
#[derive(Debug, Clone)]
pub struct Trace {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Trace {
    /// An empty trace measuring from `epoch`.
    #[must_use]
    pub fn new(epoch: Instant) -> Self {
        Self {
            epoch,
            spans: Vec::new(),
        }
    }

    /// An empty fragment with this trace's epoch, for a worker thread.
    #[must_use]
    pub fn fragment(&self) -> Self {
        Self::new(self.epoch)
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a finished span.
    pub fn push(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<SpanId>,
        request: Option<u64>,
    ) -> SpanId {
        self.spans.push(Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            request,
        });
        self.spans.len() - 1
    }

    /// Opens a span now; [`Trace::close`] sets its end.
    pub fn open(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        request: Option<u64>,
    ) -> SpanId {
        let now = Instant::now();
        self.push(name, now, now, parent, request)
    }

    /// Ends span `id` now.
    pub fn close(&mut self, id: SpanId) {
        self.spans[id].end_ns = self.ns(Instant::now());
    }

    /// Records each NOR call as a child of `parent`.
    pub fn push_calls(&mut self, calls: &[NorCall], parent: SpanId, request: Option<u64>) {
        for call in calls {
            self.push(
                call.op.span_name(),
                call.start,
                call.end,
                Some(parent),
                request,
            );
        }
    }

    /// Appends a worker's fragment; its root spans become children of
    /// `parent`.
    pub fn graft(&mut self, fragment: Trace, parent: SpanId) {
        let base = self.spans.len();
        self.spans.extend(fragment.spans.into_iter().map(|s| Span {
            parent: Some(s.parent.map_or(parent, |p| base + p)),
            ..s
        }));
    }

    /// Appends another trace of the same epoch, keeping its roots as roots.
    pub fn extend(&mut self, other: Trace) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|s| Span {
            parent: s.parent.map(|p| base + p),
            ..s
        }));
    }

    /// All spans, in recording order.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Spans named `name`.
    pub fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// `(count, total ns)` over spans named `name`.
    #[must_use]
    pub fn total(&self, name: &str) -> (u64, u64) {
        self.named(name)
            .fold((0, 0), |(n, ns), s| (n + 1, ns + s.ns()))
    }

    /// Total self time of spans named `name`: their durations minus the
    /// time their direct children cover.
    #[must_use]
    pub fn self_ns(&self, name: &str) -> u64 {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.ns();
            }
        }
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
            .map(|(i, s)| s.ns().saturating_sub(child_ns[i]))
            .sum()
    }

    /// `(count, total ns)` over spans named `name` whose parent is named
    /// `parent`.
    #[must_use]
    pub fn total_under(&self, name: &str, parent: &str) -> (u64, u64) {
        self.named(name)
            .filter(|s| s.parent.is_some_and(|p| self.spans[p].name == parent))
            .fold((0, 0), |(n, ns), s| (n + 1, ns + s.ns()))
    }

    /// Writes the trace as JSON to `path`: one `[name, start_ns, end_ns,
    /// parent, request]` array per span.
    ///
    /// # Errors
    ///
    /// I/O errors creating or writing `path`.
    pub fn write_file(&self, path: &Path) -> std::io::Result<()> {
        let mut out = BufWriter::new(File::create(path)?);
        self.write_json(&mut out)?;
        out.flush()
    }

    fn write_json(&self, out: &mut impl Write) -> std::io::Result<()> {
        let opt = |v: Option<u64>| v.map_or_else(|| "null".to_string(), |v| v.to_string());
        writeln!(
            out,
            "{{\"fields\": [\"name\", \"start_ns\", \"end_ns\", \"parent\", \"request\"], \"spans\": ["
        )?;
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            writeln!(
                out,
                "[\"{}\", {}, {}, {}, {}]{sep}",
                s.name,
                s.start_ns,
                s.end_ns,
                opt(s.parent.map(|p| p as u64)),
                opt(s.request)
            )?;
        }
        writeln!(out, "]}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_direct_children_and_graft_rebases() {
        let t0 = Instant::now();
        let at = |us: u64| t0 + Duration::from_micros(us);
        let mut trace = Trace::new(t0);
        let batch = trace.push("batch", at(0), at(100), None, None);

        let mut worker = trace.fragment();
        let req = worker.push("request", at(10), at(60), None, Some(7));
        worker.push("verify", at(10), at(40), Some(req), Some(7));
        worker.push("probe", at(40), at(50), Some(req), Some(7));
        trace.graft(worker, batch);

        assert_eq!(trace.spans()[1].parent, Some(batch));
        assert_eq!(trace.spans()[2].parent, Some(1));
        assert_eq!(trace.total("request"), (1, 50_000));
        assert_eq!(trace.self_ns("request"), 10_000);
        assert_eq!(trace.self_ns("batch"), 50_000);
        assert_eq!(trace.total_under("verify", "request"), (1, 30_000));
        assert_eq!(trace.total_under("verify", "batch"), (0, 0));
    }

    #[test]
    fn written_trace_is_json() {
        let t0 = Instant::now();
        let mut trace = Trace::new(t0);
        let a = trace.open("a", None, None);
        trace.close(a);
        trace.open("b", Some(a), Some(3));
        let mut out = Vec::new();
        trace.write_json(&mut out).unwrap();
        let doc = json::parse(std::str::from_utf8(&out).unwrap()).unwrap();
        let spans = json::get(&doc, "spans")
            .and_then(json::Value::as_array)
            .unwrap();
        assert_eq!(spans.len(), 2);
        assert_eq!(json::num(&spans[1].as_array().unwrap()[3]), Some(0.0));
    }
}
