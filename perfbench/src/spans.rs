//! In-memory span recorder for the traced run.
//!
//! Spans are taken from outside the program, around calls into the
//! workspace crates' public functions. A span's name is
//! `<layer>.<call>`, where the layer is the crate it calls into. Each
//! span keeps its parent (the span open when it began) and the pass it
//! belongs to; the whole list is written out once, when the run ends.
//!
//! Work done per record inside a callback (the streaming digest's
//! `push`) is not recorded as one span per call: [`Recorder::record`]
//! stores it as one span with a call count and the summed busy time.

use std::io::Write;
use std::time::Instant;

/// The monotonic host clock. The only clock read in the benchmark.
pub fn now() -> Instant {
    // detlint::allow(DL001): the benchmark measures host wall time by design
    Instant::now()
}

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// `<layer>.<call>`.
    pub name: &'static str,
    /// Pass the span belongs to.
    pub pass: u32,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, in ns since the recorder was created.
    pub start_ns: u64,
    /// End, in ns since the recorder was created.
    pub end_ns: u64,
    /// Time spent inside the span: `end - start` for a call, the summed
    /// call times for an aggregated callback span.
    pub busy_ns: u64,
    /// Calls covered (1 for a single call).
    pub count: u64,
}

/// Records spans when on; every method is a no-op when off, so traced
/// and untraced passes run the same code.
#[derive(Debug)]
pub struct Recorder {
    on: bool,
    origin: Instant,
    pass: u32,
    stack: Vec<usize>,
    spans: Vec<Span>,
}

impl Recorder {
    /// A recorder that keeps spans only when `on`.
    pub fn new(on: bool) -> Recorder {
        Recorder {
            on,
            origin: now(),
            pass: 0,
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Whether spans are being kept.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Switch recording on or off and tag later spans with `pass`.
    pub fn begin_pass(&mut self, pass: u32, on: bool) {
        self.pass = pass;
        self.on = on;
    }

    /// Nanoseconds since the recorder was created.
    fn ns_since_origin(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Time one call as a span named `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.open(name);
        let r = f();
        self.close(id);
        r
    }

    /// Open a span; spans recorded until the matching [`close`] are its
    /// children.
    ///
    /// [`close`]: Recorder::close
    pub fn open(&mut self, name: &'static str) -> Option<usize> {
        if !self.on {
            return None;
        }
        let start = self.ns_since_origin(now());
        let id = self.push(name, start, start, 0, 1);
        self.stack.push(id);
        Some(id)
    }

    /// Close a span opened by [`Recorder::open`].
    pub fn close(&mut self, id: Option<usize>) {
        let Some(id) = id else { return };
        let end = self.ns_since_origin(now());
        self.stack.pop();
        if let Some(span) = self.spans.get_mut(id) {
            span.end_ns = end;
            span.busy_ns = end.saturating_sub(span.start_ns);
        }
    }

    /// Record an already-measured span under the span open now.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        busy_ns: u64,
        count: u64,
    ) -> Option<usize> {
        if !self.on {
            return None;
        }
        let (start, end) = (self.ns_since_origin(start), self.ns_since_origin(end));
        Some(self.push(name, start, end, busy_ns, count))
    }

    /// Make `id` the enclosing span for spans recorded until
    /// [`Recorder::leave`]; used to nest callback spans under a phase
    /// span recorded after the fact.
    pub fn enter(&mut self, id: Option<usize>) {
        if let Some(id) = id {
            self.stack.push(id);
        }
    }

    /// Undo [`Recorder::enter`].
    pub fn leave(&mut self, id: Option<usize>) {
        if id.is_some() {
            self.stack.pop();
        }
    }

    fn push(&mut self, name: &'static str, start: u64, end: u64, busy: u64, count: u64) -> usize {
        self.spans.push(Span {
            name,
            pass: self.pass,
            parent: self.stack.last().copied(),
            start_ns: start,
            end_ns: end,
            busy_ns: busy,
            count,
        });
        self.spans.len() - 1
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"pass\":{},\"parent\":{parent},\"start_ns\":{},\
                 \"end_ns\":{},\"busy_ns\":{},\"count\":{}}}",
                s.name, s.pass, s.start_ns, s.end_ns, s.busy_ns, s.count
            )?;
        }
        out.flush()
    }
}
