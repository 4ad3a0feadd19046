//! In-memory span recording for the traced run (`--trace 1`).
//!
//! Spans are recorded by the benchmark around its calls into each layer's
//! public API (spans inside the program are a later change) and written
//! out as JSONL once the run ends, so recording costs one `Instant::now()`
//! and a `Vec` push per span.

use blazer_ir::json::Json;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// One closed span.
pub struct Span {
    trace_id: u64,
    span_id: u64,
    parent_id: Option<u64>,
    name: &'static str,
    start_us: u64,
    end_us: u64,
    attrs: Vec<(&'static str, Json)>,
}

impl Span {
    fn to_json(&self) -> Json {
        Json::obj([
            ("trace_id", Json::from(self.trace_id)),
            ("span_id", Json::from(self.span_id)),
            ("parent_id", self.parent_id.map_or(Json::Null, Json::from)),
            ("name", Json::from(self.name)),
            ("start_us", Json::from(self.start_us)),
            ("end_us", Json::from(self.end_us)),
            ("attrs", Json::obj(self.attrs.iter().map(|(k, v)| (*k, v.clone())))),
        ])
    }
}

/// An open span: closed by [`Tracer::end`].
pub struct Open {
    trace_id: u64,
    span_id: u64,
    parent_id: Option<u64>,
    name: &'static str,
    start_us: u64,
}

impl Open {
    /// This span's id, the parent of the spans it causes.
    pub fn id(&self) -> u64 {
        self.span_id
    }
}

/// A span recorder. Every clone made with [`Tracer::fork`] shares the
/// epoch and the id counter, so client threads record on their own
/// recorder and [`Tracer::absorb`] merges them afterwards. A disabled
/// recorder (the untraced run) reads no clock and records nothing.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    ids: Arc<AtomicU64>,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            ids: Arc::new(AtomicU64::new(1)),
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// An empty recorder sharing this one's clock and ids.
    pub fn fork(&self) -> Tracer {
        Tracer {
            enabled: self.enabled,
            epoch: self.epoch,
            ids: Arc::clone(&self.ids),
            spans: Vec::new(),
        }
    }

    /// Takes over every span `other` recorded.
    pub fn absorb(&mut self, other: Tracer) {
        self.spans.extend(other.spans);
    }

    fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// Opens a span of trace `trace_id` caused by `parent`.
    pub fn start(&self, trace_id: u64, parent: Option<u64>, name: &'static str) -> Open {
        if !self.enabled {
            return Open { trace_id, span_id: 0, parent_id: parent, name, start_us: 0 };
        }
        Open {
            trace_id,
            span_id: self.ids.fetch_add(1, Ordering::Relaxed),
            parent_id: parent,
            name,
            start_us: self.now_us(),
        }
    }

    /// Closes `open` now; `attrs` is only evaluated when recording.
    pub fn end(&mut self, open: Open, attrs: impl FnOnce() -> Vec<(&'static str, Json)>) {
        if !self.enabled {
            return;
        }
        let end_us = self.now_us();
        self.spans.push(Span {
            trace_id: open.trace_id,
            span_id: open.span_id,
            parent_id: open.parent_id,
            name: open.name,
            start_us: open.start_us,
            end_us,
            attrs: attrs(),
        });
    }

    /// Number of spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// The spans as JSON lines, ordered by start time.
    pub fn to_jsonl(&self) -> String {
        let mut spans: Vec<&Span> = self.spans.iter().collect();
        spans.sort_by_key(|s| (s.start_us, s.span_id));
        spans.iter().map(|s| s.to_json().to_string() + "\n").collect()
    }
}
