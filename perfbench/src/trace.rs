//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark itself, around its calls into each
//! layer's public functions: name, start, end, the enclosing span, and a
//! request id (one per chunk on `serve-stream`). They stay in memory and
//! are written out as JSON lines when the run ends. A disabled tracer
//! records nothing and reads no clock, so the untraced run pays only a
//! branch per call site.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span; times are nanoseconds since the tracer's origin.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: Option<u64>,
}

#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Turns recording on or off between rounds (the traced run alternates
    /// to measure its own overhead).
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, nested under the innermost
    /// open span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        self.nested(name, None, f)
    }

    fn nested<T>(
        &mut self,
        name: &'static str,
        request: Option<u64>,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        let id = self.open(name, request);
        self.stack.extend(id);
        let out = f(self);
        if id.is_some() {
            self.stack.pop();
        }
        self.close(id);
        out
    }

    /// Opens a span that closes later, out of call order (a chunk is in
    /// flight while its siblings are sent). Returns its id, or `None` when
    /// tracing is off.
    pub fn open(&mut self, name: &'static str, request: Option<u64>) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            request,
        });
        Some(self.spans.len() - 1)
    }

    pub fn close(&mut self, id: Option<usize>) {
        if let Some(id) = id {
            self.spans[id].end_ns = self.now_ns();
        }
    }

    /// Runs `f` inside a span that is a child of the already opened `parent`
    /// (and carries its request id), whatever span is innermost.
    pub fn child<T>(
        &mut self,
        parent: Option<usize>,
        name: &'static str,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        let Some(parent) = parent else {
            return self.span(name, f);
        };
        let request = self.spans[parent].request;
        self.stack.push(parent);
        let out = self.nested(name, request, f);
        self.stack.pop();
        out
    }

    /// Per span name: (span count, total self time in seconds). A span's
    /// self time is its duration minus the time its direct children cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, f64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.end_ns - span.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, (u64, f64)> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            let own = (span.end_ns - span.start_ns).saturating_sub(children);
            let entry = out.entry(span.name).or_default();
            entry.0 += 1;
            entry.1 += own as f64 * 1e-9;
        }
        out
    }

    /// Self time in seconds summed over every span named `name`.
    pub fn self_secs(&self, name: &str) -> f64 {
        self.self_times().get(name).map_or(0.0, |&(_, secs)| secs)
    }

    /// The spans as JSON lines.
    pub fn jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let request = s.request.map_or("null".to_string(), |r| r.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{request}}}",
                s.name, s.start_ns, s.end_ns
            );
        }
        out
    }
}
