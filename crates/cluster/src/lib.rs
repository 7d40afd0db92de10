//! `ppet-cluster`: a consistent-hash shard router in front of N
//! `ppet-serve` compile services.
//!
//! One `merced serve` process caches and coalesces perfectly — for one
//! process. This crate is the horizontal-scale step: a router that
//! speaks the same HTTP/1.1 + `ppet-error/v1` contract as the backends
//! and places every compile on a shard by its *content* key (the same
//! FNV-1a-128 over canonical netlist bytes + effective config + seed
//! that keys each backend's own cache), so identical requests land on
//! the same shard's cache no matter which client sent them.
//!
//! The moving parts, each its own module:
//!
//! - [`ring`] — the consistent-hash [`Ring`] with virtual nodes. Keys
//!   map to a *preference list* of backends; membership changes remap
//!   only the affected arcs.
//! - [`proxy`] — outbound HTTP/1.1 with cooperative cancellation
//!   ([`CancelHandle`]), the primitive under hedged reads.
//! - [`router`] — the [`Router`]: a route table on `ppet-serve`'s shared
//!   front end ([`ppet_serve::front`]), router-side in-flight coalescing
//!   on the shared [`ppet_serve::Gate`] (composing with each shard's
//!   per-process coalescing),
//!   hedging to the next replica after [`ClusterConfig::hedge`],
//!   failover with down-marking and probe-based recovery, replication
//!   of fresh results to [`ClusterConfig::replication`] ring replicas
//!   (verified `PUT /cache/<key>` — so killing any single shard never
//!   forces a recompile), and aggregated Prometheus `/metrics`
//!   (per-backend labels + cluster rollups via [`ppet_trace::expo`]).
//!
//! # Endpoints
//!
//! | Route | Meaning |
//! |---|---|
//! | `POST /compile` | route, hedge, and proxy a compile to its shard |
//! | `GET /healthz` | quorum health: 200 iff a strict majority of backends is up |
//! | `GET /metrics` | aggregated exposition: `backend="addr"`-labelled series + rollups + `cluster.*` |
//! | `POST /shutdown` | begin graceful drain |
//!
//! Shard failures surface as structured `ppet-error/v1` bodies: `502
//! upstream` when every candidate transport fails, `503 unavailable`
//! when no backend is up (or quorum is lost on `/healthz`). Requests
//! carry `X-Ppet-Request-Id` end to end — minted or sanitized at the
//! router, forwarded to the shard — so one ID correlates both tiers'
//! traces.
//!
//! The crate depends on `ppet-serve` for the shared HTTP front end,
//! coalescing gate and error contract, and the [`CompileBackend`] used
//! for keying (normalized behind the same panic boundary as a shard's),
//! but *not* on `ppet-core`;
//! `ppet-core` mounts it as `merced cluster --addr <host:port>
//! --backend <addr>...`.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod proxy;
pub mod ring;
pub mod router;

pub use proxy::{CancelHandle, Response};
pub use ring::{Ring, DEFAULT_VNODES};
pub use router::{ClusterConfig, Router};

// Re-exported so router embedders name the keying contract without
// depending on `ppet-serve` directly.
pub use ppet_serve::{CacheKey, CompileBackend, CompileRequest, ServerHandle};
