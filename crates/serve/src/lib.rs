//! `ppet-serve`: the long-running compile service of the `ppet`
//! workspace.
//!
//! Batch compiles (`merced` CLI, `ppet-exec` batch runner) pay the full
//! pipeline cost on every invocation even when the input has not
//! changed. This crate turns the compiler into a service: a hand-rolled
//! HTTP/1.1 front end over `std::net` (the workspace stays
//! dependency-free), a bounded [`ppet_exec::WorkQueue`] of compile
//! workers, and a **content-addressed result cache** keyed by
//! `hash(canonical netlist bytes, effective config entries, seed)` — the
//! exact inputs the deterministic compiler's output is a function of.
//! Identical requests in flight coalesce onto one compile; repeated
//! requests are answered from the cache byte-for-byte.
//!
//! The crate is deliberately compiler-agnostic: it depends on
//! `ppet-netlist`/`ppet-exec`/`ppet-trace` but *not* on `ppet-core`.
//! The compiler plugs in through the [`CompileBackend`] trait, and
//! `ppet-core` mounts the whole thing as `merced serve --addr
//! <host:port>`.
//!
//! The HTTP front end ([`front`]: listener, accept loop, connection
//! handler, request IDs, [`ServerHandle`]) is shared with
//! `ppet-cluster`'s router, which also coalesces on [`Gate`] and runs its
//! proxy attempts on the same kind of [`ThreadCache`] the front end
//! answers connections on; [`server`] supplies the compile service's
//! routes and drain.
//!
//! # Endpoints
//!
//! | Route | Meaning |
//! |---|---|
//! | `POST /compile` | compile a [`CompileRequest`]; returns the run manifest |
//! | `PUT /cache/<32-hex-key>` | replication ingest: seed the cache with an already-compiled, verified manifest |
//! | `GET /healthz` | liveness probe |
//! | `GET /metrics` | Prometheus text exposition 0.0.4 ([`ppet_trace::expo::Exposition::render_prometheus`]) |
//! | `GET /debug/requests` | summary of recent request traces, newest first |
//! | `GET /debug/trace/<id>` | full span tree of one request (`ppet-trace/v1`-compatible) |
//! | `POST /shutdown` | begin graceful drain |
//!
//! # Request observability
//!
//! Every `POST /compile` carries a request ID — client-supplied via the
//! `X-Ppet-Request-Id` header or generated from the deterministic PRNG
//! substrate — echoed back in the response header. With the trace ring
//! enabled ([`ServeConfig::trace_ring`], default 256) each completed
//! request leaves a span tree (serve phases plus the backend's compile
//! spans, shared across coalesced requests) in a bounded ring; requests
//! slower than [`ServeConfig::slow_ms`] are pinned so churn cannot evict
//! them. Latency is recorded per outcome
//! (`hit|store_hit|miss|timeout|error|shed`) into separate histograms.
//!
//! Failure surface, all as structured `ppet-error/v1` JSON bodies:
//! `429 backpressure` when the bounded queue is full, `408 timeout` when
//! a compile exceeds the per-request deadline (the compile keeps running
//! and still populates the cache), `400` for malformed or unresolvable
//! requests (or a request head over 64 KiB), `413` for a body over 4 MiB,
//! `500` when the backend fails or panics, `503 shutdown` while
//! draining.
//!
//! # Persistence
//!
//! The in-memory cache is bounded (LRU over completed entries, see
//! [`ServeConfig::cache_capacity`]) and optionally backed by a
//! [`ppet_store::Store`] ([`ServeConfig::store_dir`]): compiled
//! manifests are written through to disk, survive restarts, and are
//! re-verified (CRC by the store, semantically by
//! [`CompileBackend::verify_stored`]) before being served again. The
//! store's `store.*` counters surface on `GET /metrics`.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod front;
pub mod http;
pub mod obs;
mod request;
pub mod server;
pub mod signal;
pub mod threads;

pub use cache::{CacheKey, Claim, CompileResult, Gate, ResultCache, DEFAULT_CACHE_CAPACITY};
pub use front::ServerHandle;
pub use obs::{PhaseRecorder, RequestIds, RequestTrace, TraceRing, REQUEST_ID_HEADER};
pub use request::{
    normalize_body, BackendError, CompileBackend, CompileRequest, NormalizedRequest, REQUEST_SCHEMA,
};
pub use server::{ServeConfig, Server, DEFAULT_TRACE_RING};
pub use threads::ThreadCache;
