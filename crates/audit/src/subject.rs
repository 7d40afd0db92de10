//! What the auditor examines: the compiled configuration plus the numbers
//! the compiler claimed for it.

use ppet_cbit::cost::CostSource;
use ppet_graph::retime::{CutRealization, IoLatency};
use ppet_netlist::{Circuit, NetId};
use ppet_partition::Partition;

/// Which with-retiming accounting rule the compiler used — the audit
/// re-derives the breakdown under the same rule (with its own
/// implementation of the per-SCC rule; for the solver, from the checked
/// cut realization).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RetimingPolicy {
    /// The paper's per-SCC aggregate (§4.2): `min(χ, f)` converted bits
    /// per cyclic SCC.
    PaperScc,
    /// The exact Leiserson–Saxe realization with the given I/O latency
    /// freedom.
    Solver(IoLatency),
}

/// One bit-realization breakdown as claimed by the compiler (the paper's
/// Fig. 3 mix).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClaimedBreakdown {
    /// Converted functional flip-flops (0.9 DFF each).
    pub converted_bits: usize,
    /// Multiplexed test registers (2.3 DFF each).
    pub mux_bits: usize,
    /// Claimed total in tenths of a DFF.
    pub deci_dff: u64,
}

/// One partition's claimed summary row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClaimedPartition {
    /// Member cell count.
    pub cells: usize,
    /// Input width ι(π).
    pub inputs: usize,
    /// Assigned standard CBIT length (0 for input-free partitions).
    pub cbit_length: u32,
}

/// One claimed power-schedule step: blocks tested concurrently.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClaimedPowerStep {
    /// Member partition indices.
    pub blocks: Vec<usize>,
    /// Claimed step duration in cycles (the longest member session).
    pub cycles: u128,
    /// Claimed step power in centi-DFF (the sum of member rates).
    pub power_cdf: u64,
}

/// Every number the compiler reported that the audit re-derives.
#[derive(Debug, Clone, PartialEq)]
pub struct Claims {
    /// Whether the flow phase met its full visit quota before the
    /// partitioner consumed the congestion profile. `false` (a truncated
    /// `max_trees` run) does not invalidate the configuration — every
    /// structural invariant is still checked — but the audit flags it with
    /// a [`AuditCode::FlowSaturation`](crate::AuditCode) warning so an
    /// under-saturated profile never feeds a partition silently.
    pub flow_saturated: bool,
    /// Registers in the circuit.
    pub dffs: usize,
    /// Registers inside cyclic SCCs.
    pub dffs_on_scc: usize,
    /// Total cut nets.
    pub nets_cut: usize,
    /// Cut nets inside cyclic SCCs.
    pub cut_nets_on_scc: usize,
    /// Per-partition summaries, in partition order.
    pub partitions: Vec<ClaimedPartition>,
    /// Total CBIT hardware cost `Σ p_k n_k` in DFF equivalents (Eq. (4)).
    pub cbit_cost_dff: f64,
    /// Original circuit area in the paper's units.
    pub circuit_area: u64,
    /// With-retiming breakdown.
    pub with_retiming: ClaimedBreakdown,
    /// Without-retiming breakdown.
    pub without_retiming: ClaimedBreakdown,
    /// Number of test pipes (Fig. 1).
    pub schedule_pipes: usize,
    /// Pipelined testing time in cycles.
    pub schedule_total_cycles: u128,
    /// Sequential testing time in cycles.
    pub schedule_sequential_cycles: u128,
    /// The peak-power budget the power schedule was packed under
    /// (centi-DFF of switched area).
    pub power_budget_cdf: u64,
    /// The claimed power-schedule steps, in execution order.
    pub power_steps: Vec<ClaimedPowerStep>,
}

/// The audit subject: the original netlist, the compiled configuration
/// (partition membership, cut set and cut realization — the ground truth
/// the auditor walks), the compile parameters, and the claimed [`Claims`].
#[derive(Debug, Clone)]
pub struct AuditSubject<'a> {
    /// The original, uninstrumented netlist.
    pub circuit: &'a Circuit,
    /// The input constraint `l_k` the compile used.
    pub cbit_length: usize,
    /// The SCC cut-budget factor `β` the compile used.
    pub beta: usize,
    /// The with-retiming accounting rule the compile used.
    pub policy: RetimingPolicy,
    /// Where the per-type CBIT areas came from (published Table 1 or the
    /// synthesized first-principles model).
    pub cost_source: CostSource,
    /// The final partitions (member cells + input nets).
    pub partitions: &'a [Partition],
    /// The cut nets of the final clustering.
    pub cut_nets: &'a [NetId],
    /// The compile's cut realization: the retiming lags, the covered cuts
    /// and the excess (multiplexed) cuts. The audit checks it as data —
    /// legality, coverage, and that it splits exactly the cut set.
    pub realization: &'a CutRealization,
    /// The numbers the compiler reported.
    pub claims: Claims,
}
