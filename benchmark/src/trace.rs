//! In-memory span recorder for the traced run.
//!
//! Spans are opened and closed by `adapter.rs` around each call into a
//! layer's public function; counts are attached to the span at the same
//! boundary.  Nothing is written until the run ends.  An `off` tracer never
//! reads the clock, and the end-to-end metrics are only ever measured with it.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.  `parent` is an index into the tracer's span list.
#[derive(Debug, Clone)]
pub struct Span {
    pub op_id: u32,
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    pub counts: Vec<(&'static str, f64)>,
}

impl Span {
    pub fn duration_ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// Handle of an open span; `None` when the tracer is off.
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<usize>);

#[derive(Debug)]
pub struct Tracer {
    origin: Option<Instant>,
    op_id: u32,
    open: Vec<usize>,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Self {
        Tracer {
            origin: None,
            op_id: 0,
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// A recording tracer; span times are nanoseconds since this call.
    pub fn on() -> Self {
        Tracer {
            origin: Some(Instant::now()),
            ..Tracer::off()
        }
    }

    /// Spans opened from now on belong to operation `op_id`.
    pub fn set_op(&mut self, op_id: u32) {
        self.op_id = op_id;
    }

    fn now_ns(origin: Instant) -> u64 {
        origin.elapsed().as_nanos() as u64
    }

    /// Opens a span whose parent is the innermost span still open.
    pub fn begin(&mut self, name: &'static str) -> SpanId {
        let Some(origin) = self.origin else {
            return SpanId(None);
        };
        let index = self.spans.len();
        self.spans.push(Span {
            op_id: self.op_id,
            name,
            parent: self.open.last().copied(),
            start_ns: 0,
            end_ns: 0,
            counts: Vec::new(),
        });
        self.open.push(index);
        // Read the clock last so the bookkeeping above is outside the span.
        self.spans[index].start_ns = Self::now_ns(origin);
        SpanId(Some(index))
    }

    /// Closes `id`, which must be the innermost open span.
    pub fn end(&mut self, id: SpanId) {
        let (Some(origin), Some(index)) = (self.origin, id.0) else {
            return;
        };
        self.spans[index].end_ns = Self::now_ns(origin);
        let closed = self.open.pop();
        assert_eq!(closed, Some(index), "spans must close innermost first");
    }

    /// Attaches a count to a span, at the boundary where it was measured.
    pub fn count(&mut self, id: SpanId, name: &'static str, value: f64) {
        if let Some(index) = id.0 {
            self.spans[index].counts.push((name, value));
        }
    }

    /// Durations, in milliseconds, of every span called `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_ms)
            .collect()
    }

    /// Duration of the first span called `name` in operation `op_id`.
    pub fn op_duration_ms(&self, op_id: u32, name: &str) -> Option<f64> {
        self.spans
            .iter()
            .find(|s| s.op_id == op_id && s.name == name)
            .map(Span::duration_ms)
    }

    /// Every value recorded under count `count` on spans called `span`.
    pub fn counts(&self, span: &str, count: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == span)
            .flat_map(|s| s.counts.iter())
            .filter(|(name, _)| *name == count)
            .map(|&(_, value)| value)
            .collect()
    }

    /// Self time of every span: its duration minus the part of it that its
    /// child spans cover (children of one span never overlap here, because
    /// one client issues the calls one after the other).
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                own[parent] = own[parent].saturating_sub(span.end_ns - span.start_ns);
            }
        }
        own
    }

    /// One JSON object per line and span:
    /// `{op_id, span, parent, start_ns, end_ns, self_ns, counts}`, where
    /// `parent` is the line number (from 0) of the parent span or `null`.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (span, own) in self.spans.iter().zip(self.self_ns()) {
            let parent = span
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            write!(
                out,
                "{{\"op_id\": {}, \"span\": \"{}\", \"parent\": {}, \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {}, \"counts\": {{",
                span.op_id, span.name, parent, span.start_ns, span.end_ns, own
            )
            .expect("writing to a String cannot fail");
            for (i, (name, value)) in span.counts.iter().enumerate() {
                let sep = if i == 0 { "" } else { ", " };
                write!(out, "{sep}\"{name}\": {value}").expect("writing to a String cannot fail");
            }
            out.push_str("}}\n");
        }
        out
    }
}
