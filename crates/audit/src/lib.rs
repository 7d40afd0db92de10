//! # ppet-audit — independent verification of Merced compiler outputs
//!
//! The compiler (`ppet-core`) and this auditor answer the same questions
//! with different code: the compiler *constructs* a PPET configuration,
//! the auditor re-derives every paper invariant from the original netlist
//! and the configuration alone, treating the compiler's numbers as claims
//! to be checked rather than facts.
//!
//! One call to [`audit`] re-establishes, from scratch:
//!
//! * **partition legality** — exact cell coverage, input cones within
//!   `l_k` (Eq. (5)), the cut set implied by membership, and the per-SCC
//!   cut budget `χ(λ) ≤ β · f(λ)` (Eq. (6));
//! * **retiming legality** — the compile's cut realization, checked as
//!   data: its covered and excess cuts split the cut set, and its lags
//!   satisfy Corollary 3 (no negative retimed edge weight, one I/O lag
//!   under fixed latency) and the cut-coverage demands, with Corollary 2
//!   spot-checked on sampled cycles and the per-SCC donation bound on the
//!   claimed converted bits;
//! * **CBIT structure** — Table 1 sizing, an independent GF(2) order
//!   proof of every feedback polynomial ([`gf2`]), MISR widths and
//!   maximal periods, and the Fig. 1 cascade wiring / test schedule;
//! * **cost accounting** — Eq. (4) totals, the 0.9 / 2.3 DFF breakdown
//!   with and without retiming, and the headline saving;
//! * **power scheduling** — every partition block tested exactly once,
//!   every step within the recorded peak-power budget (rates re-derived
//!   from the input cones, never from the claimed CBIT lengths), and an
//!   exact rebuild with `ppet-sched`'s deterministic list scheduler.
//!
//! Every verdict carries a stable kebab-case [`AuditCode`] so CI names
//! the violated paper property directly. [`manifest::cross_check`]
//! additionally compares a recorded golden manifest against a fresh
//! recompile, and [`retime::verify_recorded_witness`] re-validates a
//! recorded lag witness against the netlist.
//!
//! The crate deliberately depends only on the substrate crates (netlist,
//! graph, partition, cbit, sched, trace) — never on `ppet-core` — so the
//! checker and the compiler share no accounting code.

mod code;
mod ctx;
mod report;
mod subject;

mod cbit;
mod cost;
mod partition;
mod retime;
mod sched;

pub mod gf2;
pub mod manifest;

pub use code::AuditCode;
pub use report::{AuditCheck, AuditReport};
pub use retime::{serialize_witness, verify_recorded_witness};
pub use subject::{
    AuditSubject, ClaimedBreakdown, ClaimedPartition, ClaimedPowerStep, Claims, RetimingPolicy,
};

use ctx::Ctx;

/// Runs the full independent audit over one compiled configuration.
///
/// # Examples
///
/// ```
/// use ppet_audit::{audit, AuditSubject, ClaimedBreakdown, ClaimedPartition,
///                  ClaimedPowerStep, Claims, RetimingPolicy};
/// use ppet_cbit::cost::CostSource;
/// use ppet_graph::{retime::{CutRealization, RetimeGraph}, CircuitGraph};
/// use ppet_netlist::data;
/// use ppet_partition::Partition;
///
/// // One partition holding all of s27; its inputs are the four PIs.
/// let circuit = data::s27();
/// // No cut nets: the identity retiming realizes the empty cut set.
/// let nodes = RetimeGraph::from_graph(&CircuitGraph::from_circuit(&circuit)).num_nodes();
/// let realization =
///     CutRealization { retiming: vec![0; nodes], covered: vec![], excess: vec![], iterations: 0 };
/// let members: Vec<_> = (0..circuit.num_cells())
///     .map(ppet_netlist::CellId::from_index)
///     .collect();
/// let input_nets: Vec<_> = members
///     .iter()
///     .copied()
///     .filter(|&c| circuit.cell(c).kind() == ppet_netlist::CellKind::Input)
///     .collect();
/// let partitions = vec![Partition { members, input_nets: input_nets.clone() }];
/// let subject = AuditSubject {
///     circuit: &circuit,
///     cbit_length: 4,
///     beta: 50,
///     policy: RetimingPolicy::PaperScc,
///     cost_source: CostSource::PaperTable,
///     partitions: &partitions,
///     cut_nets: &[],
///     realization: &realization,
///     claims: Claims {
///         flow_saturated: true,
///         dffs: 3,
///         dffs_on_scc: 3,
///         nets_cut: 0,
///         cut_nets_on_scc: 0,
///         partitions: vec![ClaimedPartition { cells: 17, inputs: 4, cbit_length: 4 }],
///         cbit_cost_dff: 8.14,
///         circuit_area: 51,
///         with_retiming: ClaimedBreakdown { converted_bits: 0, mux_bits: 0, deci_dff: 0 },
///         without_retiming: ClaimedBreakdown { converted_bits: 0, mux_bits: 0, deci_dff: 0 },
///         schedule_pipes: 1,
///         schedule_total_cycles: 16,
///         schedule_sequential_cycles: 16,
///         power_budget_cdf: 814,
///         power_steps: vec![ClaimedPowerStep { blocks: vec![0], cycles: 16, power_cdf: 814 }],
///     },
/// };
/// let report = audit(&subject);
/// assert!(report.pass(), "{report}");
/// ```
#[must_use]
pub fn audit(subject: &AuditSubject<'_>) -> AuditReport {
    let ctx = Ctx::new(subject);
    let mut report = AuditReport::default();
    if subject.claims.flow_saturated {
        report.ok(
            AuditCode::FlowSaturation,
            "congestion profile met the full visit quota",
        );
    } else {
        // Advisory, not a failure: a truncated max_trees run is a
        // documented large-circuit trade-off, but it must never feed the
        // partitioner silently.
        report.warn(
            AuditCode::FlowSaturation,
            "congestion profile under-saturated: the tree budget ran out \
             before every node met its visit quota",
        );
    }
    partition::check(&ctx, &mut report);
    retime::check(&ctx, &mut report);
    cbit::check(&ctx, &mut report);
    cost::check(&ctx, &mut report);
    sched::check(&ctx, &mut report);
    report
}
