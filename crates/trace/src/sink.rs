//! The recording interface: [`TraceSink`], the cheap cloneable
//! [`Tracer`] handle the pipeline threads around, and RAII [`Span`]s.
//!
//! Disabled tracing must cost nothing on hot paths, so the contract is:
//!
//! - [`Tracer::enabled`] is one virtual call on an `Arc`; hot loops hoist
//!   it out and skip all recording when it is `false`;
//! - the convenience methods ([`Tracer::add`], [`Tracer::gauge`],
//!   [`Tracer::record`]) check `enabled()` themselves, so call sites
//!   outside hot loops need no guard;
//! - a disabled [`Span`] never reads the clock and never calls the sink.
//!
//! No method formats or allocates on the disabled path; metric and span
//! names are `&'static str` literals.

use std::sync::{Arc, OnceLock};
use std::time::Instant;

use crate::HistogramSnapshot;

/// Identifies one started span to its sink (sink-defined meaning).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(pub u64);

/// Receives spans and metric events from instrumented code.
pub trait TraceSink: Send + Sync {
    /// Whether recording is on. Hot loops guard behind this.
    fn enabled(&self) -> bool;

    /// A span named `name` begins; the returned id is passed to
    /// [`TraceSink::span_end`].
    fn span_start(&self, name: &'static str) -> SpanId;

    /// The span `id` finished after `wall_ns` nanoseconds.
    fn span_end(&self, id: SpanId, wall_ns: u64);

    /// Adds `delta` to the monotonic counter `name`.
    fn counter_add(&self, name: &'static str, delta: u64);

    /// Sets the gauge `name` to `value`.
    fn gauge_set(&self, name: &'static str, value: f64);

    /// Folds a batch of samples into the histogram `name`.
    fn hist_merge(&self, name: &'static str, samples: &HistogramSnapshot);
}

/// The default sink: reports disabled and drops everything.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoopSink;

impl TraceSink for NoopSink {
    fn enabled(&self) -> bool {
        false
    }

    fn span_start(&self, _name: &'static str) -> SpanId {
        SpanId(0)
    }

    fn span_end(&self, _id: SpanId, _wall_ns: u64) {}

    fn counter_add(&self, _name: &'static str, _delta: u64) {}

    fn gauge_set(&self, _name: &'static str, _value: f64) {}

    fn hist_merge(&self, _name: &'static str, _samples: &HistogramSnapshot) {}
}

/// A cheap cloneable handle to a [`TraceSink`]; the type threaded through
/// the Merced pipeline.
#[derive(Clone)]
pub struct Tracer {
    sink: Arc<dyn TraceSink>,
}

static NOOP: OnceLock<Tracer> = OnceLock::new();

impl Tracer {
    /// A tracer over the given sink.
    pub fn new(sink: Arc<dyn TraceSink>) -> Self {
        Tracer { sink }
    }

    /// The shared no-op tracer (the default everywhere). Cloning it is
    /// one atomic increment; after the first call nothing allocates.
    #[must_use]
    pub fn noop() -> Self {
        NOOP.get_or_init(|| Tracer::new(Arc::new(NoopSink))).clone()
    }

    /// A tracer recording into a fresh [`crate::CollectingSink`];
    /// returns the sink too so the caller can pull the
    /// [`crate::TraceReport`] afterwards.
    #[must_use]
    pub fn collecting() -> (Self, Arc<crate::CollectingSink>) {
        let sink = Arc::new(crate::CollectingSink::new());
        (Tracer::new(sink.clone()), sink)
    }

    /// Whether the sink records anything. Hoist out of hot loops.
    #[inline]
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.sink.enabled()
    }

    /// Opens a span; it closes (and reports its duration) on drop.
    pub fn span(&self, name: &'static str) -> Span<'_> {
        Span::enter(self, name)
    }

    /// Adds `delta` to counter `name` (no-op when disabled).
    #[inline]
    pub fn add(&self, name: &'static str, delta: u64) {
        if self.enabled() {
            self.sink.counter_add(name, delta);
        }
    }

    /// Sets gauge `name` (no-op when disabled).
    #[inline]
    pub fn gauge(&self, name: &'static str, value: f64) {
        if self.enabled() {
            self.sink.gauge_set(name, value);
        }
    }

    /// Folds `samples` into histogram `name` (no-op when disabled). A hot
    /// loop accumulates into a local [`HistogramSnapshot`] and records it
    /// once, so the sink's registry is visited once per batch rather than
    /// once per sample.
    #[inline]
    pub fn record(&self, name: &'static str, samples: &HistogramSnapshot) {
        if self.enabled() {
            self.sink.hist_merge(name, samples);
        }
    }
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("enabled", &self.enabled())
            .finish()
    }
}

/// An RAII span: reports its wall-clock duration to the sink when
/// dropped. Does not read the clock at all when the tracer is disabled.
#[must_use = "a span measures the scope it lives in; bind it to a variable"]
pub struct Span<'a> {
    active: Option<(&'a Tracer, SpanId, Instant)>,
}

impl<'a> Span<'a> {
    /// Opens a span named `name` on `tracer` (inert when disabled).
    pub fn enter(tracer: &'a Tracer, name: &'static str) -> Self {
        let active = tracer
            .enabled()
            .then(|| (tracer, tracer.sink.span_start(name), Instant::now()));
        Span { active }
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        if let Some((tracer, id, start)) = self.active.take() {
            // Clamp to 1 ns so "the span happened" survives coarse clocks.
            let wall_ns = u64::try_from(start.elapsed().as_nanos())
                .unwrap_or(u64::MAX)
                .max(1);
            tracer.sink.span_end(id, wall_ns);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_tracer_is_disabled_and_shared() {
        let a = Tracer::noop();
        let b = Tracer::noop();
        assert!(!a.enabled());
        assert!(!b.enabled());
        // Disabled spans and metric calls are inert.
        let span = a.span("anything");
        a.add("c", 1);
        a.gauge("g", 1.0);
        a.record("h", &HistogramSnapshot::default());
        drop(span);
    }

    #[test]
    fn spans_report_through_enabled_sinks() {
        let (tracer, sink) = Tracer::collecting();
        assert!(tracer.enabled());
        {
            let _root = tracer.span("root");
            tracer.add("n", 2);
        }
        let report = sink.report();
        assert_eq!(report.spans.len(), 1);
        assert_eq!(report.spans[0].name, "root");
        assert!(report.spans[0].wall_ns >= 1);
        assert_eq!(report.counters["n"], 2);
    }
}
