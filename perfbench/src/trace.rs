//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code around each call into
//! a layer's public API.  Every span carries a name, an optional backend
//! tag, its start and end (nanoseconds since the tracer was created), its
//! parent span, and the id of the cell or request it belongs to.  Spans
//! are kept in memory and written out as JSON lines when the run ends.
//!
//! A disabled tracer records nothing: `begin` returns a dummy id and
//! `end` ignores it, so the untraced path pays one branch per call.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

use effective_san::SanitizerKind;

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub backend: Option<SanitizerKind>,
    pub group: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Handle returned by [`Tracer::begin`].
#[derive(Clone, Copy, Debug)]
pub struct SpanId(Option<usize>);

/// Self time and count of one span name (and backend tag).
#[derive(Clone, Copy, Debug, Default)]
pub struct SelfTime {
    pub count: u64,
    pub self_ns: u64,
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span nested in the innermost open span.
    pub fn begin(
        &mut self,
        name: &'static str,
        backend: Option<SanitizerKind>,
        group: u64,
    ) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            backend,
            group,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        SpanId(Some(id))
    }

    /// Close a span opened by [`Tracer::begin`], and with it any span
    /// nested in it that an early return left open.
    pub fn end(&mut self, span: SpanId) {
        let Some(id) = span.0 else { return };
        let end_ns = self.now_ns();
        while let Some(top) = self.open.pop() {
            self.spans[top].end_ns = end_ns;
            if top == id {
                break;
            }
        }
    }

    /// Run `f` inside a span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        backend: Option<SanitizerKind>,
        group: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, backend, group);
        let out = f();
        self.end(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per (name, backend): each span's duration minus the part
    /// of it its children cover.  Children of one parent are sequential
    /// (the client is one thread), so their durations add up.
    pub fn self_times(&self) -> BTreeMap<(&'static str, Option<SanitizerKind>), SelfTime> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.end_ns - span.start_ns;
            }
        }
        let mut out: BTreeMap<_, SelfTime> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            let entry = out.entry((span.name, span.backend)).or_default();
            entry.count += 1;
            entry.self_ns += (span.end_ns - span.start_ns).saturating_sub(children);
        }
        out
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path, header: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{header}")?;
        for (id, s) in self.spans.iter().enumerate() {
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"backend\":{},\"group\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.name,
                s.backend
                    .map(|k| format!("\"{}\"", k.name()))
                    .unwrap_or_else(|| "null".to_string()),
                s.group,
                s.parent
                    .map(|p| p.to_string())
                    .unwrap_or_else(|| "null".to_string()),
                s.start_ns,
                s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true);
        let outer = t.begin("outer", None, 7);
        t.span("inner", None, 7, || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        t.end(outer);
        let times = t.self_times();
        let outer = times[&("outer", None)];
        let inner = times[&("inner", None)];
        assert_eq!(outer.count, 1);
        assert!(inner.self_ns >= 5_000_000);
        assert!(outer.self_ns < inner.self_ns);
        let root = &t.spans()[0];
        assert_eq!(
            outer.self_ns + inner.self_ns,
            root.end_ns - root.start_ns,
            "self times partition the root span"
        );
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.begin("x", None, 0);
        t.end(id);
        assert!(t.spans().is_empty());
    }
}
