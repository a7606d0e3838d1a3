//! Spans recorded from the benchmark's side of each layer boundary.
//!
//! A span is one call into a layer's public functions: its name, start,
//! end, the span that contains it, and the iteration it belongs to. Spans
//! stay in memory while the run measures and are written out once, when
//! it ends. A disabled tracer records nothing, so the untraced run pays
//! one branch per boundary.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// A span id as handed out by [`Tracer::enter`].
pub type SpanId = usize;

/// Id returned while tracing is off; [`Tracer::exit`] ignores it.
const OFF: SpanId = usize::MAX;

struct Span {
    name: &'static str,
    iter: u64,
    parent: Option<SpanId>,
    start_ns: u64,
    end_ns: u64,
}

pub struct Tracer {
    on: bool,
    epoch: Instant,
    iter: u64,
    stack: Vec<SpanId>,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            on: false,
            epoch: Instant::now(),
            iter: 0,
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Turns recording on or off; spans already recorded are kept.
    pub fn set_enabled(&mut self, on: bool) {
        self.on = on;
    }

    pub fn is_enabled(&self) -> bool {
        self.on
    }

    /// Starts iteration `iter`: spans entered from now on carry its id.
    pub fn begin_iteration(&mut self, iter: u64) {
        self.iter = iter;
    }

    pub fn enter(&mut self, name: &'static str) -> SpanId {
        if !self.on {
            return OFF;
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            iter: self.iter,
            parent: self.stack.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.stack.push(id);
        id
    }

    pub fn exit(&mut self, id: SpanId) {
        if id == OFF {
            return;
        }
        let end = self.now_ns();
        let top = self.stack.pop();
        assert_eq!(top, Some(id), "spans must close innermost first");
        self.spans[id].end_ns = end;
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Per iteration, the self time in seconds of every span name: its
    /// duration minus the part its child spans cover.
    pub fn self_seconds(&self) -> BTreeMap<u64, BTreeMap<&'static str, f64>> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<u64, BTreeMap<&'static str, f64>> = BTreeMap::new();
        for (s, kids) in self.spans.iter().zip(child_ns) {
            let own = (s.end_ns - s.start_ns).saturating_sub(kids);
            *out.entry(s.iter).or_default().entry(s.name).or_default() += own as f64 * 1e-9;
        }
        out
    }

    /// The spans as JSON lines, in the order they were entered.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"iter\":{},\"name\":\"{}\",\"parent\":{parent},\
                 \"start_ns\":{},\"end_ns\":{}}}",
                s.iter, s.name, s.start_ns, s.end_ns
            );
        }
        out
    }
}
