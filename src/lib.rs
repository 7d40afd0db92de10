//! `ppet` — pipelined pseudo-exhaustive testing with retiming.
//!
//! Facade crate re-exporting the whole workspace: a reproduction of
//! *"Area Efficient Pipelined Pseudo-Exhaustive Testing with Retiming"*
//! (Liou, Lin & Cheng, DAC 1996) and every substrate it depends on.
//!
//! Each subsystem is its own crate; this facade gives applications a single
//! dependency and a stable module layout:
//!
//! * [`netlist`] — circuit model, ISCAS89 `.bench` parser/writer, area
//!   model, synthetic benchmark generator;
//! * [`graph`] — multi-pin circuit graph, SCC, shortest paths,
//!   Leiserson–Saxe retiming;
//! * [`flow`] — probabilistic multicommodity-flow congestion
//!   (`Saturate_Network`);
//! * [`partition`] — input-constrained clustering (`Make_Group`) and CBIT
//!   merging (`Assign_CBIT`), plus the simulated-annealing baseline;
//! * [`cbit`] — LFSR/MISR test hardware, primitive polynomials, A_CELL and
//!   CBIT cost models, test-pipe scheduling;
//! * [`exec`] — deterministic parallel execution: a scoped thread pool
//!   whose results are bit-identical to sequential at any worker count;
//! * [`sim`] — gate-level logic and stuck-at fault simulation,
//!   pseudo-exhaustive coverage measurement;
//! * [`trace`] — structured pipeline tracing: spans, counters, and the
//!   JSON run manifest (`merced --trace-json`);
//! * [`audit`] — independent verification: re-derives every paper
//!   invariant from the netlist and partition alone (`merced audit`);
//! * [`dedup`] — similarity detection: the Gear-hash super-feature
//!   sketches the store's delta-base selection runs on;
//! * [`store`] — persistent content-addressed artifact store: append-only
//!   segment log, similarity-based delta encoding with bounded-depth
//!   chains, byte-budget LRU eviction with pinning, crash-safe recovery
//!   (`merced store`);
//! * [`serve`] — the long-running compile service: HTTP front end,
//!   content-addressed result cache, bounded-queue backpressure
//!   (`merced serve`);
//! * [`cluster`] — the consistent-hash shard router in front of N
//!   compile services: hedged reads, result replication, aggregated
//!   metrics (`merced cluster`);
//! * [`core`] — **Merced**, the end-to-end BIST compiler.
//!
//! # Quick start
//!
//! ```
//! use ppet::core::{Merced, MercedConfig};
//! use ppet::netlist::data;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let circuit = data::s27();
//! let report = Merced::new(MercedConfig::default().with_cbit_length(4)).compile(&circuit)?;
//! println!("{report}");
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

pub use ppet_audit as audit;
pub use ppet_cbit as cbit;
pub use ppet_cluster as cluster;
pub use ppet_core as core;
pub use ppet_dedup as dedup;
pub use ppet_exec as exec;
pub use ppet_flow as flow;
pub use ppet_graph as graph;
pub use ppet_netlist as netlist;
pub use ppet_partition as partition;
pub use ppet_prng as prng;
pub use ppet_serve as serve;
pub use ppet_sim as sim;
pub use ppet_store as store;
pub use ppet_trace as trace;
