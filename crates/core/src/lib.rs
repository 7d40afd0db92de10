//! **Merced** — the DAC'96 BIST compiler for area-efficient pipelined
//! pseudo-exhaustive testing with retiming.
//!
//! This crate is the paper's primary contribution, assembled end-to-end
//! from the workspace substrates (paper Table 2):
//!
//! ```text
//! STEP 1  Construct the graph representation G(V,E)      (ppet-graph)
//! STEP 2  Identify strongly connected components          (ppet-graph)
//! STEP 3  Assign_CBIT(G, Δ, α, l_k) honouring Eq. (6):
//!           Saturate_Network                              (ppet-flow)
//!           Make_Group / Make_Set                         (ppet-partition)
//!           greedy CBIT merging                           (ppet-partition)
//! STEP 4  Return the partition and its cost               (this crate)
//! ```
//!
//! plus the part the paper's Table 2 leaves implicit: CBIT area accounting
//! **with and without retiming** ([`cost`]), the CBIT hardware sizing of
//! Eq. (4) (ppet-cbit), and the test-pipe schedule of Fig. 1.
//!
//! # Quick start
//!
//! ```
//! use ppet_core::{Merced, MercedConfig};
//! use ppet_netlist::data;
//!
//! # fn main() -> Result<(), ppet_core::MercedError> {
//! let report = Merced::new(MercedConfig::default().with_cbit_length(4))
//!     .compile(&data::s27())?;
//! assert!(report.area.saving_pct() >= 0.0);
//! println!("{report}");
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod audit;
pub mod batch;
pub mod builtin;
mod config;
pub mod cost;
mod error;
pub mod instrument;
mod merced;
pub mod power_sched;
pub mod report;
pub mod serve_backend;
pub mod stat;

pub use batch::{compile_batch, BatchOutcome};
pub use builtin::resolve_builtin;
pub use config::{CostPolicy, MercedConfig};
pub use error::MercedError;
pub use merced::{Compilation, Merced};
pub use report::PpetReport;
pub use serve_backend::MercedBackend;
