//! Hierarchical RAII spans.
//!
//! A [`Span`] marks a timed region. Spans nest through an implicit per-thread
//! stack: a span created while another is open becomes its child, and its
//! emitted record carries the parent id and the slash-joined ancestry path.
//! The record is written when the span drops (or is [`Span::close`]d), with
//! `ts_us` at entry and `dur_us` measured monotonically.
//!
//! When tracing is disabled the constructor returns an inert span: no clock
//! read, no allocation beyond the empty struct, one atomic load.
//!
//! ```
//! let mut span = ant_obs::span("phase");
//! span.record("machine", "ANT");
//! // ... work ...
//! drop(span); // emits {"kind":"span","name":"phase",...}
//! ```

use std::cell::RefCell;
use std::time::Instant;

use crate::alloc::{self, AllocStats};
use crate::json::Value;
use crate::trace::{self, Event};

thread_local! {
    /// Open spans on this thread, innermost last: (span id, span name).
    static STACK: RefCell<Vec<(u64, String)>> = const { RefCell::new(Vec::new()) };
}

/// The innermost open span id on this thread, if any.
pub fn current_span_id() -> Option<u64> {
    STACK.with(|stack| stack.borrow().last().map(|(id, _)| *id))
}

/// The spans open on one thread, captured to be entered on another: a
/// scoped worker that enters its caller's context opens its spans under the
/// caller's, so a span's path does not depend on which thread ran it.
/// Empty, and captured without allocating, when tracing is off.
#[derive(Debug, Clone, Default)]
pub struct SpanContext {
    stack: Vec<(u64, String)>,
}

/// Captures the spans open on this thread, for [`SpanContext::enter`] on a
/// worker thread.
pub fn span_context() -> SpanContext {
    SpanContext {
        stack: STACK.with(|stack| stack.borrow().clone()),
    }
}

impl SpanContext {
    /// Makes the captured spans the ancestors of every span this thread
    /// opens until the returned guard drops. Entering an empty context does
    /// nothing.
    pub fn enter(&self) -> EnteredContext {
        let base = STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            let base = stack.len();
            stack.extend(self.stack.iter().cloned());
            base
        });
        EnteredContext {
            base,
            _not_send: std::marker::PhantomData,
        }
    }
}

/// Guard of an entered [`SpanContext`]: dropping it takes the captured
/// spans off this thread's stack again.
#[derive(Debug)]
pub struct EnteredContext {
    base: usize,
    /// The guard refers to this thread's stack, so it stays on the thread.
    _not_send: std::marker::PhantomData<*const ()>,
}

impl Drop for EnteredContext {
    fn drop(&mut self) {
        STACK.with(|stack| stack.borrow_mut().truncate(self.base));
    }
}

/// A timed, named region. Emits one `"span"` record on drop when tracing is
/// enabled; inert otherwise.
#[derive(Debug)]
pub struct Span {
    state: Option<SpanState>,
}

#[derive(Debug)]
struct SpanState {
    id: u64,
    name: String,
    parent: Option<u64>,
    path: String,
    entered_us: u64,
    entered: Instant,
    fields: Vec<(&'static str, Value)>,
    /// Allocator counters at entry, when allocation counting is on; the
    /// drop attaches the delta to the record.
    alloc_entry: Option<AllocStats>,
}

/// Opens a span named `name`. The span becomes the parent of any span opened
/// on this thread before it closes. Spans are live only while tracing
/// (`ANT_TRACE`) is on.
pub fn span(name: impl Into<String>) -> Span {
    if !trace::enabled() {
        return Span { state: None };
    }
    let name = name.into();
    let id = trace::next_span_id();
    let (parent, path) = STACK.with(|stack| {
        let mut stack = stack.borrow_mut();
        let parent = stack.last().map(|(id, _)| *id);
        let mut path = String::new();
        for (_, ancestor) in stack.iter() {
            path.push_str(ancestor);
            path.push('/');
        }
        path.push_str(&name);
        stack.push((id, name.clone()));
        (parent, path)
    });
    Span {
        state: Some(SpanState {
            id,
            name,
            parent,
            path,
            entered_us: trace::now_us(),
            entered: Instant::now(),
            fields: Vec::new(),
            alloc_entry: alloc::enabled().then(alloc::snapshot),
        }),
    }
}

impl Span {
    /// Whether this span is live — tracing was enabled at creation. Use to
    /// skip expensive field computation.
    pub fn is_recording(&self) -> bool {
        self.state.is_some()
    }

    /// This span's id, if recording.
    pub fn id(&self) -> Option<u64> {
        self.state.as_ref().map(|s| s.id)
    }

    /// Attaches a typed field to the span's record. No-op when inert.
    pub fn record(&mut self, key: &'static str, value: impl Into<Value>) -> &mut Self {
        if let Some(state) = &mut self.state {
            state.fields.push((key, value.into()));
        }
        self
    }

    /// Attaches many fields at once. No-op when inert.
    pub fn record_all(&mut self, fields: impl IntoIterator<Item = (&'static str, Value)>) {
        if let Some(state) = &mut self.state {
            state.fields.extend(fields);
        }
    }

    /// Closes the span now (identical to dropping it).
    pub fn close(self) {}
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(mut state) = self.state.take() else {
            return;
        };
        let dur_us = state.entered.elapsed().as_micros() as u64;
        STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            // Normally this span is the innermost; tolerate out-of-order
            // drops by removing it wherever it sits.
            if let Some(pos) = stack.iter().rposition(|(id, _)| *id == state.id) {
                stack.remove(pos);
            }
        });
        if let Some(entry) = state.alloc_entry.take() {
            let delta = alloc::snapshot().delta_from(&entry);
            state.fields.push(("allocs", Value::U64(delta.allocs)));
            state
                .fields
                .push(("alloc_bytes", Value::U64(delta.allocated_bytes)));
            state
                .fields
                .push(("alloc_net_bytes", Value::I64(delta.net_bytes)));
        }
        trace::emit_at(
            &Event {
                kind: "span",
                name: &state.name,
                span: Some(state.id),
                parent: state.parent,
                path: Some(&state.path),
                dur_us: Some(dur_us),
                fields: &state.fields_as_slice(),
            },
            state.entered_us,
        );
    }
}

impl SpanState {
    fn fields_as_slice(&self) -> Vec<(&str, Value)> {
        self.fields.iter().map(|(k, v)| (*k, v.clone())).collect()
    }
}

/// Emits a point-in-time `"event"` record attributed to the innermost open
/// span on this thread. No-op when tracing is disabled.
pub fn event(name: &str, fields: &[(&str, Value)]) {
    if !trace::enabled() {
        return;
    }
    trace::emit(&Event {
        kind: "event",
        name,
        span: None,
        parent: current_span_id(),
        path: None,
        dur_us: None,
        fields,
    });
}
