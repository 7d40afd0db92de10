//! Leiserson–Saxe retiming for PPET (paper §2.2–§2.3).
//!
//! Retiming relocates registers across combinational logic without changing
//! circuit function. The paper uses it to move existing flip-flops onto the
//! partition cut nets, where they become CBIT bits for 0.9 DFF-areas instead
//! of full multiplexed test registers at 2.3 DFF-areas.
//!
//! The module is organized around three pieces:
//!
//! * [`RetimeGraph`] — the register-weighted graph `G_r`: nodes are
//!   combinational cells plus primary inputs, virtual output sinks, and
//!   the registers of register-only rings as fixed sources;
//!   each edge is a register chain between two of them, annotated with the
//!   original nets it passes through so partition cut nets can be mapped
//!   onto it;
//! * `legal` — the paper's Lemma 1 (path weight transformation),
//!   Corollary 2 (cycle invariance) and Corollary 3 (legality) as checkable
//!   predicates;
//! * [`CutRealizer`] — a difference-constraint solver that finds a legal
//!   retiming placing a register on as many cut nets as possible, reporting
//!   the excess cuts that must fall back to multiplexed test registers;
//! * [`minimize_registers`] — exact minimum-register retiming (min-cost
//!   flow over the LP dual), optionally honouring the realizer's cut
//!   demands — the "further optimization" the paper's conclusion points
//!   at;
//! * [`apply`] — materializes a retiming back into a
//!   [`Circuit`](ppet_netlist::Circuit), with register sharing at fan-outs.

mod apply;
mod legal;
mod minarea;
mod solver;
mod weights;

pub use apply::{apply, shared_register_count, ApplyRetimingError};
pub use legal::{is_legal, path_weight, retimed_path_weight, retimed_weight, Retiming};
pub use minarea::{minimize_registers, minimize_shared_registers, MinAreaResult};
pub use solver::{CutRealization, CutRealizer, IoLatency};
pub use weights::{EdgeId, REdge, RNodeId, RNodeKind, RetimeGraph};
