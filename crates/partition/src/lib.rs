//! Input-constrained circuit partitioning for PPET (paper §2.3 and §3).
//!
//! The *partition with input constraint* (PIC) problem: dissect the circuit
//! into disjoint clusters, each with at most `l_k` inputs, cutting as few
//! nets as possible — every cut net becomes one CBIT test-register bit.
//! PIC is NP-complete (the paper's reference \[4\]), so Merced uses the
//! congestion-guided heuristic of §3:
//!
//! * [`make_group`] — the clustering driver (paper Table 4): pop congestion
//!   boundaries from the sorted distance stack and re-split oversized
//!   clusters (`Make_Set`, Table 5) until every cluster satisfies the
//!   input constraint, honouring the per-SCC retiming budget
//!   `χ(SCC) ≤ β · f(SCC)` (Eq. (6), [`budget`]);
//! * [`assign_cbit`] — the greedy merge pass (Table 8) that packs small
//!   clusters into full CBIT widths using the gain function
//!   `γ = l_k − ι(ω₁+ω₂)` (Eq. (7));
//! * [`refine`] — a Fiduccia–Mattheyses-style boundary refinement
//!   post-pass (an extension beyond the paper, used by the ablations);
//! * [`sa`] — a simulated-annealing PIC partitioner, reimplementing the
//!   authors' earlier comparison point (\[4\], CICC 1994) as the baseline for
//!   the ablation experiments;
//! * [`inputs`] — the input-counting function ι (Eq. (5)) and cut-net
//!   accounting shared by all of the above.
//!
//! # Examples
//!
//! Reproduce the paper's s27 walkthrough (Figs. 5–7) at `l_k = 3`:
//!
//! ```
//! use ppet_flow::{saturate_network, FlowParams};
//! use ppet_graph::{scc::Scc, CircuitGraph};
//! use ppet_netlist::data;
//! use ppet_partition::{assign_cbit, make_group, MakeGroupParams};
//!
//! let g = CircuitGraph::from_circuit(&data::s27());
//! let scc = Scc::of(&g);
//! let profile = saturate_network(&g, &scc, &FlowParams::paper(), 1996);
//! let grouped = make_group(&g, &scc, &profile, &MakeGroupParams::new(3));
//! let assigned = assign_cbit(&g, grouped.clustering.clone(), 3);
//! assert!(assigned.partitions.iter().all(|p| p.input_nets.len() <= 3));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod budget;
mod cluster;
pub mod inputs;
mod make_group;
pub mod refine;
pub mod sa;
pub mod validate;

mod assign_cbit_impl;

pub use assign_cbit_impl::{assign_cbit, CbitAssignment, Partition};
pub use cluster::{ClusterId, Clustering};
pub use make_group::{make_group, MakeGroupParams, MakeGroupResult};
