//! Probabilistic multicommodity-flow congestion estimation — the paper's
//! `Saturate_Network` procedure (§3.1, Table 3).
//!
//! The partitioner needs to know which nets are *congested*: nets that many
//! source-to-sink commodities would route through. Yeh, Cheng & Lin's
//! probabilistic multicommodity-flow method (ICCAD 1992, the paper's
//! reference \[10\]) estimates this by repeatedly
//!
//! 1. picking a random source node (in rounds, each a fresh random order
//!    of all nodes, until every node was picked more than `min_visit`
//!    times),
//! 2. computing the shortest-path tree to all reachable sinks under the
//!    current distance function, and
//! 3. injecting `Δ` units of flow on every net of the tree, then updating
//!    each net's distance to `d(e) = exp(α · flow(e) / cap(e))`.
//!
//! Congested nets grow exponentially long and later trees route around
//! them, so at saturation the distance function ranks nets by how much the
//! network "wants" to use them. Nets inside strongly connected regions
//! absorb flow from many sources and end up the most congested — exactly
//! the nets whose removal dissects the circuit (the paper's Fig. 5).
//!
//! [`saturate_network`] runs the loop sequentially, exactly as Table 3
//! states it: every tree routes over the distances all earlier trees left,
//! so the result is a pure function of `(graph, params, seed)`. Its hot
//! path is one engine — the component-ordered Dijkstra over one lazily
//! stamped node-state array (`ppet_graph::dijkstra`); the
//! pre-rewrite loop survives only as [`saturate_network_reference`], the
//! specification the tests and the perf gate compare against. The two
//! return equal profiles, search-work counters included.
//!
//! # Examples
//!
//! ```
//! use ppet_flow::{saturate_network, FlowParams};
//! use ppet_graph::{scc::Scc, CircuitGraph};
//! use ppet_netlist::data;
//!
//! let g = CircuitGraph::from_circuit(&data::s27());
//! let profile = saturate_network(&g, &Scc::of(&g), &FlowParams::paper(), 42);
//! // Every net with sinks received a finite, positive distance.
//! for (net, _) in g.nets() {
//!     assert!(profile.distance(net) >= 1.0);
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod params;
mod profile;
mod saturate;

pub use params::FlowParams;
pub use profile::CongestionProfile;
pub use saturate::{saturate_network, saturate_network_reference};
