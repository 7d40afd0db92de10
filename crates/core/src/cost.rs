//! CBIT area accounting with and without retiming (paper §4.2, Table 12).
//!
//! Every cut net receives one CBIT bit. Its cost depends on how the bit is
//! realized (paper Fig. 3):
//!
//! * 0.9 DFF — an existing functional flip-flop moved onto the cut by legal
//!   retiming (only the three A_CELL mode gates are added);
//! * 2.3 DFF — no flip-flop can legally serve the cut: a full A_CELL plus a
//!   2-to-1 multiplexer splices the test register into the data path.
//!
//! *Without* retiming, flip-flops stay where they are: only cuts that
//! happen to fall on a register output get the cheap conversion, everything
//! else pays full price. *With* retiming, every cut can be served except
//! the excess inside each SCC — on loops the register count is invariant
//! (Corollary 2), so at most `f(SCC)` cuts per component find a donor.
//! This is exactly why retiming saves area, and why the saving grows with
//! circuits whose cuts mostly avoid loops.

use ppet_cbit::acell::{AcellCost, AcellVariant};
use ppet_graph::retime::{
    minimize_shared_registers, shared_register_count, CutRealization, RetimeGraph,
};
use ppet_graph::{scc::Scc, CircuitGraph, NetId};
use ppet_netlist::{AreaModel, Circuit};

/// The realization mix of a set of CBIT bits and its area.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AreaBreakdown {
    /// Bits realized as converted functional flip-flops (0.9 DFF each).
    pub converted_bits: usize,
    /// Bits realized as multiplexed test registers (2.3 DFF each).
    pub mux_bits: usize,
    /// Total CBIT overhead in tenths of a DFF.
    pub deci_dff: u64,
}

impl AreaBreakdown {
    pub(crate) fn from_counts(converted_bits: usize, mux_bits: usize) -> Self {
        let cost = AcellCost::paper();
        let deci_dff = converted_bits as u64 * cost.deci_dff(AcellVariant::ConvertedFf)
            + mux_bits as u64 * cost.deci_dff(AcellVariant::Multiplexed);
        Self {
            converted_bits,
            mux_bits,
            deci_dff,
        }
    }

    /// `A_CBIT / A_total` as a percentage, with `A_total` the original
    /// circuit area — the Table 12 convention used by this reproduction.
    #[must_use]
    pub fn pct_of_circuit(&self, circuit_area_units: u64) -> f64 {
        if circuit_area_units == 0 {
            return 0.0;
        }
        100.0 * self.deci_dff as f64 / circuit_area_units as f64
    }

    /// `A_CBIT / (A_orig + A_CBIT)` as a percentage — the alternative
    /// reading of the paper's ratio, reported for completeness.
    #[must_use]
    pub fn pct_of_total(&self, circuit_area_units: u64) -> f64 {
        let total = circuit_area_units as f64 + self.deci_dff as f64;
        if total == 0.0 {
            return 0.0;
        }
        100.0 * self.deci_dff as f64 / total
    }
}

/// With-retiming accounting, paper policy (§4.2): per cyclic SCC `s`,
/// `min(χ(s), f(s))` bits convert existing flip-flops and
/// `max(0, χ(s) − f(s))` bits are multiplexed; every cut outside cyclic
/// SCCs is retimable.
///
/// # Examples
///
/// ```
/// use ppet_core::cost::with_retiming_scc;
/// use ppet_graph::{scc::Scc, CircuitGraph};
/// use ppet_netlist::data;
///
/// let c = data::s27();
/// let g = CircuitGraph::from_circuit(&c);
/// let scc = Scc::of(&g);
/// // One cut, outside any loop: retimable.
/// let cut = [c.find("G14").unwrap()];
/// let b = with_retiming_scc(&g, &scc, &cut);
/// assert_eq!((b.converted_bits, b.mux_bits), (1, 0));
/// ```
#[must_use]
pub fn with_retiming_scc(graph: &CircuitGraph, scc: &Scc, cuts: &[NetId]) -> AreaBreakdown {
    let mut per_scc: Vec<usize> = vec![0; scc.len()];
    let mut off_scc = 0usize;
    for &net in cuts {
        if scc.net_in_cyclic_component(graph, net) {
            per_scc[scc.component_of(graph.net(net).src()).index()] += 1;
        } else {
            off_scc += 1;
        }
    }
    let mut converted = off_scc;
    let mut mux = 0usize;
    for (ci, &chi) in per_scc.iter().enumerate() {
        if chi == 0 {
            continue;
        }
        let f = scc.registers_in(ppet_graph::scc::SccId(ci as u32));
        converted += chi.min(f);
        mux += chi.saturating_sub(f);
    }
    AreaBreakdown::from_counts(converted, mux)
}

/// Fully realized with-retiming accounting: the breakdown of the cut
/// realization `real` (covered cuts convert flip-flops, excess cuts are
/// multiplexed) plus the **new registers** the retiming must create. The
/// paper's 0.9-DFF-per-covered-cut figure assumes every covered cut is
/// served by an *existing* functional flip-flop; when the cut count
/// exceeds the register supply (common at small `l_k`), legal retiming
/// conjures extra registers on acyclic paths — real hardware the
/// optimistic accounting omits. This
/// function computes the exact minimum register count that still covers
/// every cut `real` covers (min-area retiming with fan-out sharing) and
/// charges each register beyond the original supply one full DFF.
#[must_use]
pub fn realized_with_retiming(
    circuit: &Circuit,
    real: &CutRealization,
) -> Option<RealizedRetimingCost> {
    let graph = CircuitGraph::from_circuit(circuit);
    let rg = RetimeGraph::from_graph(&graph);
    let demands: Vec<i64> = rg
        .edges()
        .iter()
        .map(|e| e.nets.iter().filter(|n| real.covered.contains(n)).count() as i64)
        .collect();
    let min = minimize_shared_registers(&rg, &demands)?;
    let registers_after = shared_register_count(&rg, &min.retiming);
    let registers_before = circuit.num_flip_flops();
    let breakdown = AreaBreakdown::from_counts(real.covered.len(), real.excess.len());
    let new_registers = registers_after.saturating_sub(registers_before);
    let total_deci_dff = breakdown.deci_dff + 10 * new_registers as u64;
    Some(RealizedRetimingCost {
        breakdown,
        registers_before,
        registers_after,
        new_registers,
        total_deci_dff,
    })
}

/// The outcome of [`realized_with_retiming`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RealizedRetimingCost {
    /// The optimistic gate-level breakdown (paper accounting).
    pub breakdown: AreaBreakdown,
    /// Functional registers before retiming.
    pub registers_before: usize,
    /// Registers after the register-minimal covering retiming (fan-out
    /// shared).
    pub registers_after: usize,
    /// Registers the retiming had to create (`after − before`, clamped).
    pub new_registers: usize,
    /// Total realized overhead: paper accounting + 1.0 DFF per new
    /// register, in tenths of a DFF.
    pub total_deci_dff: u64,
}

impl RealizedRetimingCost {
    /// Realized overhead as a percentage of the original circuit area.
    #[must_use]
    pub fn pct_of_circuit(&self, circuit_area_units: u64) -> f64 {
        if circuit_area_units == 0 {
            return 0.0;
        }
        100.0 * self.total_deci_dff as f64 / circuit_area_units as f64
    }
}

/// Without-retiming accounting (§4.2): flip-flops stay put, so a cut net
/// driven by a register converts it in place (0.9 DFF); every other cut
/// needs the multiplexed test register (2.3 DFF).
#[must_use]
pub fn without_retiming(graph: &CircuitGraph, cuts: &[NetId]) -> AreaBreakdown {
    let mut converted = 0usize;
    let mut mux = 0usize;
    for &net in cuts {
        if graph.is_register(net) {
            converted += 1;
        } else {
            mux += 1;
        }
    }
    AreaBreakdown::from_counts(converted, mux)
}

/// The estimated area of a circuit under the paper's model, in units.
#[must_use]
pub fn circuit_area_units(circuit: &Circuit) -> u64 {
    AreaModel::paper().circuit_area(circuit)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppet_graph::retime::CutRealizer;
    use ppet_netlist::data;

    fn realize(c: &Circuit, cuts: &[NetId]) -> CutRealization {
        let rg = RetimeGraph::from_graph(&CircuitGraph::from_circuit(c));
        CutRealizer::new(&rg).realize(cuts)
    }

    fn setup() -> (Circuit, CircuitGraph, Scc) {
        let c = data::s27();
        let g = CircuitGraph::from_circuit(&c);
        let scc = Scc::of(&g);
        (c, g, scc)
    }

    #[test]
    fn breakdown_arithmetic() {
        let b = AreaBreakdown::from_counts(3, 2);
        assert_eq!(b.deci_dff, 3 * 9 + 2 * 23);
        assert!((b.pct_of_circuit(730) - 100.0 * 73.0 / 730.0).abs() < 1e-12);
        assert!(b.pct_of_total(730) < b.pct_of_circuit(730));
    }

    #[test]
    fn retiming_never_costs_more_than_no_retiming() {
        let (_, g, scc) = setup();
        // Every possible cut set over single nets.
        for net in g.nodes() {
            if g.net(net).sinks().is_empty() {
                continue;
            }
            let cuts = [net];
            let with = with_retiming_scc(&g, &scc, &cuts);
            let without = without_retiming(&g, &cuts);
            assert!(with.deci_dff <= without.deci_dff, "net {net}");
        }
    }

    #[test]
    fn scc_excess_is_multiplexed() {
        let (_, g, scc) = setup();
        // Cut every net of the register-rich SCC containing G12/G13/G7
        // (f = 1): only one bit converts, the rest multiplex.
        let comp = scc.component_of(g.find("G12").unwrap());
        let cuts: Vec<NetId> = g
            .nodes()
            .filter(|&n| {
                scc.net_in_cyclic_component(&g, n) && scc.component_of(g.net(n).src()) == comp
            })
            .collect();
        assert!(cuts.len() > 1);
        let b = with_retiming_scc(&g, &scc, &cuts);
        assert_eq!(b.converted_bits, 1);
        assert_eq!(b.mux_bits, cuts.len() - 1);
    }

    #[test]
    fn without_retiming_rewards_register_cuts() {
        let (c, g, _) = setup();
        let reg_cut = [c.find("G5").unwrap()];
        let logic_cut = [c.find("G9").unwrap()];
        assert_eq!(without_retiming(&g, &reg_cut).converted_bits, 1);
        assert_eq!(without_retiming(&g, &logic_cut).mux_bits, 1);
    }

    #[test]
    fn solver_policy_agrees_on_easy_cases() {
        let (c, g, scc) = setup();
        let cuts = [c.find("G10").unwrap()]; // register already there
        let paper = with_retiming_scc(&g, &scc, &cuts);
        let real = realize(&c, &cuts);
        let solver = AreaBreakdown::from_counts(real.covered.len(), real.excess.len());
        assert_eq!(paper, solver);
    }

    #[test]
    fn realized_cost_charges_new_registers() {
        let (c, g, scc) = setup();
        // Cut many nets: more cuts than the 3 existing registers can serve,
        // so the realized cost must exceed the optimistic paper accounting.
        let cuts: Vec<NetId> = ["G8", "G9", "G10", "G11", "G12", "G14", "G15"]
            .iter()
            .map(|n| c.find(n).unwrap())
            .collect();
        let realized = realized_with_retiming(&c, &realize(&c, &cuts)).unwrap();
        let optimistic = with_retiming_scc(&g, &scc, &cuts);
        assert!(realized.total_deci_dff >= optimistic.deci_dff);
        assert_eq!(realized.registers_before, 3);
        assert!(realized.registers_after >= 3);
        assert_eq!(
            realized.total_deci_dff,
            realized.breakdown.deci_dff + 10 * realized.new_registers as u64
        );
    }

    #[test]
    fn realized_cost_free_when_register_already_there() {
        let (c, _, _) = setup();
        let cuts = [c.find("G10").unwrap()];
        let realized = realized_with_retiming(&c, &realize(&c, &cuts)).unwrap();
        // One covered cut, registers unchanged: only the 0.9 gates.
        assert_eq!(realized.new_registers, 0);
        assert_eq!(realized.total_deci_dff, 9);
    }

    #[test]
    fn area_units_of_s27() {
        let (c, _, _) = setup();
        assert_eq!(circuit_area_units(&c), 51);
    }
}
