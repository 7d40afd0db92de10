//! Circuit graph algorithms for the PPET workspace.
//!
//! Implements the graph substrate of the paper's §2:
//!
//! * [`CircuitGraph`] — the directed **multi-pin model** of §2.1: one node
//!   per cell (registers `R` and combinational components `C`), one net per
//!   driver with explicit fan-out branches;
//! * [`csr`] — the packed struct-of-arrays (CSR) view of the graph, built
//!   once per compile and shared by every shortest-path tree of
//!   `Saturate_Network`;
//! * [`scc`] — Tarjan's strongly-connected-components algorithm (the paper's
//!   STEP 2, used to bound what legal retiming can do on loops);
//! * [`dijkstra`] — deterministic shortest-path trees over real-valued net
//!   lengths (the inner step of `Saturate_Network`);
//! * [`bellman`] — a difference-constraint solver with negative-cycle
//!   extraction (the engine of the retiming solver);
//! * [`mincost`] — successive-shortest-paths minimum-cost flow (the engine
//!   of min-area retiming);
//! * [`retime`] — Leiserson–Saxe retiming: the register-weighted graph, the
//!   legality conditions of the paper's Lemma 1 / Corollaries 2–3, a solver
//!   that realizes CBIT register positions with existing flip-flops, and
//!   application of a retiming back to a [`Circuit`](ppet_netlist::Circuit).
//!
//! # Examples
//!
//! ```
//! use ppet_graph::{CircuitGraph, scc::Scc};
//! use ppet_netlist::data;
//!
//! let g = CircuitGraph::from_circuit(&data::s27());
//! let scc = Scc::of(&g);
//! // s27 has a sequential core: at least one nontrivial SCC.
//! assert!(scc.components().iter().any(|c| c.len() > 1));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bellman;
pub mod csr;
pub mod dfs;
pub mod dijkstra;
mod graph;
pub mod mincost;
pub mod retime;
pub mod scc;

pub use csr::Csr;
pub use graph::{Branch, CircuitGraph, Net};
pub use ppet_netlist::{CellId as NodeId, NetId};
