//! `ppet-trace`: structured pipeline tracing, phase metrics, and run
//! manifests for the Merced compiler.
//!
//! The Merced pipeline is a five-phase stochastic compiler; its results
//! are only trustworthy when every run is attributable — which seed, how
//! many Dijkstra trees, how many nets cut, where the wall-clock went.
//! This crate is the std-only observability layer the rest of the
//! workspace records into:
//!
//! - [`Tracer`] / [`Span`] — a cheap handle threaded through the
//!   pipeline; RAII spans measure phases, counters/gauges/histograms
//!   measure work. The default [`Tracer::noop`] is disabled and records
//!   nothing; hot loops guard behind [`Tracer::enabled`] so disabled
//!   tracing costs nothing (no allocation, no formatting, no clock
//!   reads).
//! - [`Metrics`] — the registry behind an enabled sink: monotonic
//!   [`Counter`]s, [`Gauge`]s, and fixed log-bucket u64 [`Histogram`]s.
//! - [`expo`] — Prometheus text-exposition parsing, relabeling, merging,
//!   and re-rendering, so aggregators (`merced stat`, the cluster
//!   router) can fold many scrapes into one rollup.
//! - [`CollectingSink`] / [`TraceReport`] — in-memory collection and the
//!   human-readable indented tree summary (spans with durations and
//!   counter deltas).
//! - [`RunManifest`] — the self-describing JSON manifest
//!   (`{circuit, seed, config, phases: [{name, wall_ns, counters}],
//!   totals}`) written and parsed by the hand-rolled [`json`] module.
//!
//! ```
//! use ppet_trace::Tracer;
//!
//! let (tracer, sink) = Tracer::collecting();
//! {
//!     let _phase = tracer.span("saturate_network");
//!     tracer.add("flow.trees_built", 3);
//! }
//! let report = sink.report();
//! assert_eq!(report.counters["flow.trees_built"], 3);
//! assert_eq!(report.spans[0].name, "saturate_network");
//!
//! // The default tracer is free: disabled, shared, and allocation-less.
//! let off = Tracer::noop();
//! assert!(!off.enabled());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod collect;
pub mod expo;
pub mod json;
mod manifest;
mod metrics;
mod sink;

pub use collect::{human_duration, CollectingSink, SpanData, TraceReport};
pub use manifest::{PhaseManifest, RunManifest, ENGINE_EPOCH, SCHEMA};
pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot, Metrics, HISTOGRAM_BUCKETS};
pub use sink::{NoopSink, Span, SpanId, TraceSink, Tracer};
