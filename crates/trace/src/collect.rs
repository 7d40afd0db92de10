//! The in-memory collecting sink and its rendered outputs: a span tree
//! with per-span counter deltas, plus snapshots of every metric.

use std::collections::BTreeMap;
use std::fmt;

use crate::metrics::{HistogramSnapshot, Metrics};
use crate::sink::{SpanId, TraceSink};

#[derive(Debug)]
struct Node {
    name: &'static str,
    wall_ns: u64,
    open: bool,
    start_counters: BTreeMap<String, u64>,
    counter_deltas: Vec<(String, u64)>,
    children: Vec<usize>,
}

#[derive(Debug, Default)]
struct Arena {
    nodes: Vec<Node>,
    stack: Vec<usize>,
    roots: Vec<usize>,
}

/// A [`TraceSink`] that keeps everything in memory: a tree of spans (with
/// the counter deltas observed while each span was open) and a
/// [`Metrics`] registry.
///
/// Span nesting is tracked per sink, not per thread: the expected use is
/// one collecting sink per compile call. Counter deltas are snapshots, so
/// concurrent recorders blur attribution but never lose counts.
#[derive(Debug, Default)]
pub struct CollectingSink {
    metrics: Metrics,
    arena: std::sync::Mutex<Arena>,
}

impl CollectingSink {
    /// An empty sink.
    #[must_use]
    pub fn new() -> Self {
        CollectingSink::default()
    }

    /// The metric registry events are recorded into.
    #[must_use]
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// A point-in-time report of everything recorded so far. Spans still
    /// open appear with their current (possibly zero) duration.
    #[must_use]
    pub fn report(&self) -> TraceReport {
        let arena = self.arena.lock().unwrap();
        fn build(arena: &Arena, idx: usize) -> SpanData {
            let node = &arena.nodes[idx];
            SpanData {
                name: node.name.to_owned(),
                wall_ns: node.wall_ns,
                closed: !node.open,
                counter_deltas: node.counter_deltas.clone(),
                children: node.children.iter().map(|&c| build(arena, c)).collect(),
            }
        }
        TraceReport {
            spans: arena.roots.iter().map(|&r| build(&arena, r)).collect(),
            counters: self.metrics.counters_snapshot(),
            gauges: self.metrics.gauges_snapshot(),
            histograms: self.metrics.histograms_snapshot(),
        }
    }
}

impl TraceSink for CollectingSink {
    fn enabled(&self) -> bool {
        true
    }

    fn span_start(&self, name: &'static str) -> SpanId {
        let start_counters = self.metrics.counters_snapshot();
        let mut arena = self.arena.lock().unwrap();
        let idx = arena.nodes.len();
        arena.nodes.push(Node {
            name,
            wall_ns: 0,
            open: true,
            start_counters,
            counter_deltas: Vec::new(),
            children: Vec::new(),
        });
        match arena.stack.last().copied() {
            Some(parent) => arena.nodes[parent].children.push(idx),
            None => arena.roots.push(idx),
        }
        arena.stack.push(idx);
        SpanId(idx as u64)
    }

    fn span_end(&self, id: SpanId, wall_ns: u64) {
        let end_counters = self.metrics.counters_snapshot();
        let mut arena = self.arena.lock().unwrap();
        let idx = id.0 as usize;
        if idx >= arena.nodes.len() {
            return;
        }
        // Tolerate mis-nested closes: unwind the stack down to this span.
        while let Some(top) = arena.stack.pop() {
            if top == idx {
                break;
            }
        }
        let node = &mut arena.nodes[idx];
        node.wall_ns = wall_ns;
        node.open = false;
        node.counter_deltas = end_counters
            .iter()
            .filter_map(|(name, &end)| {
                let start = node.start_counters.get(name).copied().unwrap_or(0);
                (end > start).then(|| (name.clone(), end - start))
            })
            .collect();
    }

    fn counter_add(&self, name: &'static str, delta: u64) {
        self.metrics.counter(name).add(delta);
    }

    fn gauge_set(&self, name: &'static str, value: f64) {
        self.metrics.gauge(name).set(value);
    }

    fn hist_merge(&self, name: &'static str, samples: &HistogramSnapshot) {
        self.metrics.histogram(name).merge(samples);
    }
}

/// One span in a [`TraceReport`]: name, duration, the counter increments
/// observed while it was open, and its child spans.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanData {
    /// The span's static name.
    pub name: String,
    /// Wall-clock nanoseconds from enter to drop (0 if still open).
    pub wall_ns: u64,
    /// Whether the span had closed when the report was taken.
    pub closed: bool,
    /// Counter increments observed during the span, sorted by name.
    pub counter_deltas: Vec<(String, u64)>,
    /// Nested spans, in start order.
    pub children: Vec<SpanData>,
}

/// Everything one [`CollectingSink`] recorded.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceReport {
    /// Root spans in start order.
    pub spans: Vec<SpanData>,
    /// Final counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Final gauge values by name.
    pub gauges: BTreeMap<String, f64>,
    /// Final histogram states by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

/// Formats `ns` with a human unit (`ns`, `µs`, `ms`, `s`).
#[must_use]
pub fn human_duration(ns: u64) -> String {
    if ns < 1_000 {
        format!("{ns} ns")
    } else if ns < 1_000_000 {
        format!("{:.1} µs", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else {
        format!("{:.3} s", ns as f64 / 1e9)
    }
}

impl TraceReport {
    /// Writes the indented span tree (durations plus per-span counter
    /// deltas), then totals for counters, gauges, and histograms.
    pub fn render_tree(&self, out: &mut dyn fmt::Write) -> fmt::Result {
        fn span(out: &mut dyn fmt::Write, data: &SpanData, depth: usize) -> fmt::Result {
            let indent = "  ".repeat(depth);
            let name_width = 32usize.saturating_sub(indent.len());
            writeln!(
                out,
                "{indent}{:<name_width$} {:>12}{}",
                data.name,
                human_duration(data.wall_ns),
                if data.closed { "" } else { "  (open)" },
            )?;
            for (counter, delta) in &data.counter_deltas {
                writeln!(out, "{indent}  · {counter} +{delta}")?;
            }
            for child in &data.children {
                span(out, child, depth + 1)?;
            }
            Ok(())
        }

        for root in &self.spans {
            span(out, root, 0)?;
        }
        if !self.counters.is_empty() {
            writeln!(out, "counters:")?;
            for (name, value) in &self.counters {
                writeln!(out, "  {name} = {value}")?;
            }
        }
        if !self.gauges.is_empty() {
            writeln!(out, "gauges:")?;
            for (name, value) in &self.gauges {
                writeln!(out, "  {name} = {value}")?;
            }
        }
        if !self.histograms.is_empty() {
            writeln!(out, "histograms:")?;
            for (name, h) in &self.histograms {
                write!(
                    out,
                    "  {name}: count={} sum={} mean={:.1}  ",
                    h.count,
                    h.sum,
                    h.mean()
                )?;
                for (i, (lower, count)) in h.buckets.iter().enumerate() {
                    if i > 0 {
                        write!(out, " ")?;
                    }
                    write!(out, "[{lower}+]={count}")?;
                }
                writeln!(out)?;
            }
        }
        Ok(())
    }

    /// [`TraceReport::render_tree`] into a fresh `String`.
    #[must_use]
    pub fn tree_string(&self) -> String {
        let mut out = String::new();
        self.render_tree(&mut out).expect("fmt::Write to String");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::Tracer;

    #[test]
    fn nesting_and_deltas_are_attributed() {
        let (tracer, sink) = Tracer::collecting();
        {
            let _outer = tracer.span("outer");
            tracer.add("a", 1);
            {
                let _inner = tracer.span("inner");
                tracer.add("a", 2);
                tracer.add("b", 5);
            }
            tracer.add("a", 4);
        }
        let report = sink.report();
        assert_eq!(report.spans.len(), 1);
        let outer = &report.spans[0];
        assert_eq!(outer.name, "outer");
        assert_eq!(outer.children.len(), 1);
        let inner = &outer.children[0];
        assert_eq!(inner.name, "inner");
        // Inner saw only its own increments; outer saw everything.
        assert_eq!(
            inner.counter_deltas,
            vec![("a".to_owned(), 2), ("b".to_owned(), 5)]
        );
        assert_eq!(
            outer.counter_deltas,
            vec![("a".to_owned(), 7), ("b".to_owned(), 5)]
        );
        assert_eq!(report.counters["a"], 7);
        assert_eq!(report.counters["b"], 5);
    }

    #[test]
    fn sibling_spans_attach_to_the_same_parent() {
        let (tracer, sink) = Tracer::collecting();
        {
            let _root = tracer.span("root");
            for _ in 0..3 {
                let _child = tracer.span("child");
            }
        }
        let report = sink.report();
        assert_eq!(report.spans[0].children.len(), 3);
        assert!(report.spans[0].children.iter().all(|c| c.name == "child"));
    }

    #[test]
    fn tree_rendering_mentions_everything() {
        let (tracer, sink) = Tracer::collecting();
        {
            let _s = tracer.span("phase");
            tracer.add("hits", 3);
            tracer.gauge("ratio", 0.5);
            let mut sizes = HistogramSnapshot::default();
            sizes.record(17);
            tracer.record("sizes", &sizes);
        }
        let text = sink.report().tree_string();
        for needle in [
            "phase",
            "hits +3",
            "counters:",
            "gauges:",
            "ratio = 0.5",
            "histograms:",
            "sizes",
        ] {
            assert!(text.contains(needle), "missing `{needle}` in:\n{text}");
        }
    }

    #[test]
    fn human_durations() {
        assert_eq!(human_duration(17), "17 ns");
        assert_eq!(human_duration(1_500), "1.5 µs");
        assert_eq!(human_duration(2_500_000), "2.50 ms");
        assert_eq!(human_duration(3_000_000_000), "3.000 s");
    }
}
