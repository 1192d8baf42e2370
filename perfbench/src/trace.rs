//! In-memory spans recorded by the benchmark around its calls into the
//! program's public API (the traced run only). Each generator thread owns a
//! [`Tracer`]; they are merged at the end and written out as JSON lines.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Index of a span within its [`Tracer`].
pub type SpanId = usize;

/// One timed call: name, interval (ns since the run's origin), the span
/// that caused it, the request it served, and measured attributes (audit
/// phases ride on the audit span this way).
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    pub req: u64,
    pub attrs: Vec<(&'static str, f64)>,
}

impl Span {
    pub fn ms(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e6
    }
}

/// A per-thread span recorder; every method is a no-op when tracing is off.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool, origin: Instant) -> Tracer {
        Tracer { on, origin, spans: Vec::new() }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// A tracer sharing this one's origin, for another thread.
    pub fn fork(&self, on: bool) -> Tracer {
        Tracer::new(on, self.origin)
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, req: u64, parent: Option<SpanId>) -> SpanId {
        if !self.on {
            return 0;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, req, attrs: Vec::new() });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: SpanId) {
        if self.on {
            self.spans[id].end_ns = self.now_ns();
        }
    }

    pub fn attr(&mut self, id: SpanId, key: &'static str, value: f64) {
        if self.on {
            self.spans[id].attrs.push((key, value));
        }
    }

    /// Runs `f` inside a span.
    pub fn wrap<T>(
        &mut self,
        name: &'static str,
        req: u64,
        parent: Option<SpanId>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, req, parent);
        let out = f();
        self.close(id);
        out
    }

    /// Moves `other`'s spans into this tracer, remapping their parents.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ms) of every span called `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(Span::ms).collect()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            write!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"req\":{}",
                s.name,
                s.start_ns,
                s.end_ns,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.req
            )?;
            for (k, v) in &s.attrs {
                write!(out, ",\"{k}\":{v}")?;
            }
            writeln!(out, "}}")?;
        }
        out.flush()
    }
}
