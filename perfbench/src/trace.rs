//! In-memory span recorder for the traced run.
//!
//! Spans are opened around calls into each layer's public functions from
//! this package only; nothing inside the program is instrumented. Each span
//! carries its name (`<layer>.<function>`), start and end on one monotonic
//! clock, the index of its parent span and the op it belongs to. Spans stay
//! in memory until [`Tracer::write_jsonl`] at the end of the run.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Name of the root span of every traced op.
pub const OP: &str = "core.op";

/// One timed call.
struct Span {
    /// `<layer>.<function>`, the layer being a workspace crate name.
    name: &'static str,
    /// Nanoseconds since the tracer's epoch.
    start_ns: u64,
    /// Nanoseconds since the tracer's epoch.
    end_ns: u64,
    /// Index of the enclosing span, `None` for an op's root.
    parent: Option<usize>,
    /// The op this span belongs to.
    op: u64,
}

impl Span {
    fn nanos(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records nested spans for a sequence of ops.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Time `f` as a span nested in whatever span is open.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.timed(name, |_| f())
    }

    /// Time one whole op as a root span; `f` opens the layer spans.
    pub fn op<T>(&mut self, op: u64, f: impl FnOnce(&mut Tracer) -> T) -> T {
        assert!(self.open.is_empty(), "ops do not nest");
        self.op = op;
        self.timed(OP, f)
    }

    fn timed<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent: self.open.last().copied(),
            op: self.op,
        });
        self.open.push(idx);
        self.spans[idx].start_ns = self.now();
        let out = f(self);
        self.spans[idx].end_ns = self.now();
        self.open.pop();
        out
    }

    /// Total nanoseconds per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, u64> {
        let mut out = BTreeMap::new();
        for s in &self.spans {
            *out.entry(s.name).or_insert(0) += s.nanos();
        }
        out
    }

    /// Per op: `(op id, root nanos, root nanos not covered by a child)`.
    pub fn unattributed(&self) -> Vec<(u64, u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.nanos();
            }
        }
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.parent.is_none())
            .map(|(i, s)| (s.op, s.nanos(), s.nanos().saturating_sub(child_ns[i])))
            .collect()
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}",
                s.name, s.start_ns, s.end_ns, s.op
            )?;
        }
        w.flush()
    }
}
