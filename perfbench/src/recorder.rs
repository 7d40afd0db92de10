//! The traced run's backend: `MercedBackend` wrapped so that every
//! `normalize`, `compile_traced` and `verify_stored` a real request makes is
//! timed, and every compile's phase spans and counters are kept.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use ppet_core::MercedBackend;
use ppet_serve::{BackendError, CompileBackend, CompileRequest, NormalizedRequest};
use ppet_trace::Tracer;

/// Which backend call an event timed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Call {
    /// `CompileBackend::normalize`.
    Normalize,
    /// `CompileBackend::compile_traced`.
    Compile,
    /// `CompileBackend::verify_stored`.
    Verify,
}

/// One compile's phase spans and counters, read through
/// `Tracer::collecting()`.
#[derive(Debug, Clone, Default)]
pub struct Phases {
    /// Wall time of the `merced` root span.
    pub pipeline_ns: u64,
    /// Wall time of each phase span under it, by span name.
    pub spans: BTreeMap<String, u64>,
    /// Every counter the compile emitted.
    pub counters: BTreeMap<String, u64>,
}

impl Phases {
    /// Reads one compile's collected report.
    pub fn of(report: &ppet_trace::TraceReport) -> Self {
        let mut phases = Phases {
            counters: report.counters.clone(),
            ..Phases::default()
        };
        for root in &report.spans {
            phases.pipeline_ns += root.wall_ns;
            for child in &root.children {
                *phases.spans.entry(child.name.clone()).or_insert(0) += child.wall_ns;
            }
        }
        phases
    }

    /// A span's wall time in milliseconds (0 when the span is absent).
    pub fn span_ms(&self, name: &str) -> f64 {
        self.spans.get(name).copied().unwrap_or(0) as f64 / 1e6
    }

    /// A counter's value (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }
}

/// One timed backend call.
#[derive(Debug, Clone)]
pub struct Event {
    /// The call.
    pub call: Call,
    /// [`request_id`] of the normalized request (normalize, compile) or
    /// [`body_id`] of the verified body (verify).
    pub id: u64,
    /// Entry into the wrapped call.
    pub start: Instant,
    /// Return from it.
    pub end: Instant,
    /// The compile's spans and counters (compile events only).
    pub phases: Option<Phases>,
}

impl Event {
    /// Duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        u64::try_from((self.end - self.start).as_nanos()).unwrap_or(u64::MAX)
    }
}

/// The shared event log behind every clone of a [`TracedBackend`].
#[derive(Debug, Default)]
pub struct Recorder {
    paused: AtomicBool,
    events: Mutex<Vec<Event>>,
}

impl Recorder {
    /// Stops recording; from then on the backend only forwards.
    pub fn pause(&self) {
        self.paused.store(true, Ordering::SeqCst);
    }

    fn recording(&self) -> bool {
        !self.paused.load(Ordering::SeqCst)
    }

    fn push(&self, event: Event) {
        self.events.lock().expect("event log poisoned").push(event);
    }

    /// Every event so far, in arrival order.
    pub fn events(&self) -> Vec<Event> {
        self.events.lock().expect("event log poisoned").clone()
    }
}

/// 64-bit FNV-1a.
fn fnv64(parts: &[&[u8]]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325_u64;
    for part in parts {
        for &byte in *part {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
        hash = hash.wrapping_mul(0x0100_0000_01b3) ^ 0xff;
    }
    hash
}

/// Identifies a normalized request: circuit name, effective config, seed.
pub fn request_id(normalized: &NormalizedRequest) -> u64 {
    let mut parts: Vec<&[u8]> = vec![normalized.circuit.name().as_bytes()];
    for (k, v) in &normalized.config_entries {
        parts.push(k.as_bytes());
        parts.push(v.as_bytes());
    }
    let seed = normalized.seed.to_le_bytes();
    parts.push(&seed);
    fnv64(&parts)
}

/// Identifies a manifest body.
pub fn body_id(body: &str) -> u64 {
    fnv64(&[body.as_bytes()])
}

/// `MercedBackend` with every call timed into a [`Recorder`].
#[derive(Debug, Clone)]
pub struct TracedBackend {
    inner: MercedBackend,
    recorder: Arc<Recorder>,
}

impl TracedBackend {
    /// Wraps `inner`, logging into `recorder`.
    pub fn new(inner: MercedBackend, recorder: Arc<Recorder>) -> Self {
        Self { inner, recorder }
    }
}

impl CompileBackend for TracedBackend {
    fn normalize(&self, request: &CompileRequest) -> Result<NormalizedRequest, BackendError> {
        let start = Instant::now();
        let normalized = self.inner.normalize(request)?;
        let end = Instant::now();
        if self.recorder.recording() {
            self.recorder.push(Event {
                call: Call::Normalize,
                id: request_id(&normalized),
                start,
                end,
                phases: None,
            });
        }
        Ok(normalized)
    }

    fn compile(&self, normalized: &NormalizedRequest) -> Result<String, BackendError> {
        self.compile_traced(normalized, &Tracer::noop())
    }

    /// Substitutes a collecting tracer for the server's, so the compile's
    /// phase spans and counters land in the event log.
    fn compile_traced(
        &self,
        normalized: &NormalizedRequest,
        tracer: &Tracer,
    ) -> Result<String, BackendError> {
        if !self.recorder.recording() {
            return self.inner.compile_traced(normalized, tracer);
        }
        let (collecting, sink) = Tracer::collecting();
        let start = Instant::now();
        let manifest = self.inner.compile_traced(normalized, &collecting)?;
        let end = Instant::now();
        self.recorder.push(Event {
            call: Call::Compile,
            id: request_id(normalized),
            start,
            end,
            phases: Some(Phases::of(&sink.report())),
        });
        Ok(manifest)
    }

    fn verify_stored(&self, stored: &str) -> Result<(), BackendError> {
        let start = Instant::now();
        let verdict = self.inner.verify_stored(stored);
        let end = Instant::now();
        if self.recorder.recording() {
            self.recorder.push(Event {
                call: Call::Verify,
                id: body_id(stored),
                start,
                end,
                phases: None,
            });
        }
        verdict
    }
}
