//! The shared re-derivation context: everything the individual check
//! modules read is computed here, once, directly from the netlist — never
//! copied from the compiler's claims.

use ppet_graph::scc::{Scc, SccId};
use ppet_graph::CircuitGraph;
use ppet_netlist::NetId;

use crate::subject::AuditSubject;

/// Ground truth re-derived from the netlist and the partition membership.
pub(crate) struct Ctx<'a> {
    pub subject: &'a AuditSubject<'a>,
    pub graph: CircuitGraph,
    pub scc: Scc,
    /// Partition index of each cell; `None` for cells no partition claims
    /// (the coverage check reports those).
    pub cluster_of: Vec<Option<usize>>,
    /// Cells claimed by more than one partition.
    pub duplicate_cells: Vec<NetId>,
    /// Per-partition input cone, re-derived from fan-in (paper Eq. (5)):
    /// nets driven outside the partition with a sink inside, plus
    /// primary-input nets regardless of the PI cell's placement.
    pub derived_inputs: Vec<Vec<NetId>>,
    /// Cut nets implied by the membership (driver's partition differs from
    /// some sink's), ascending.
    pub derived_cuts: Vec<NetId>,
    /// The recorded cut nets, ascending and deduplicated.
    pub cuts: Vec<NetId>,
}

impl<'a> Ctx<'a> {
    pub fn new(subject: &'a AuditSubject<'a>) -> Self {
        let graph = CircuitGraph::from_circuit(subject.circuit);
        let scc = Scc::of(&graph);
        let n = graph.num_nodes();

        let mut cluster_of: Vec<Option<usize>> = vec![None; n];
        let mut duplicate_cells = Vec::new();
        for (k, p) in subject.partitions.iter().enumerate() {
            for &m in &p.members {
                if m.index() >= n {
                    continue; // out-of-range member: coverage check reports
                }
                match cluster_of[m.index()] {
                    Some(_) => duplicate_cells.push(m),
                    None => cluster_of[m.index()] = Some(k),
                }
            }
        }

        let mut derived_inputs: Vec<Vec<NetId>> = vec![Vec::new(); subject.partitions.len()];
        for (k, p) in subject.partitions.iter().enumerate() {
            let nets = &mut derived_inputs[k];
            for &m in &p.members {
                if m.index() >= n {
                    continue;
                }
                for &driver in graph.fanin(m) {
                    if cluster_of[driver.index()] != Some(k) || graph.is_input(driver) {
                        nets.push(driver);
                    }
                }
                if graph.is_input(m) {
                    nets.push(m);
                }
            }
            nets.sort_unstable();
            nets.dedup();
        }

        let mut derived_cuts = Vec::new();
        for (net, record) in graph.nets() {
            let home = cluster_of[net.index()];
            if home.is_some()
                && record
                    .sinks()
                    .iter()
                    .any(|&s| cluster_of[s.index()] != home)
            {
                derived_cuts.push(net);
            }
        }

        let mut cuts = subject.cut_nets.to_vec();
        cuts.sort_unstable();
        cuts.dedup();

        Self {
            subject,
            graph,
            scc,
            cluster_of,
            duplicate_cells,
            derived_inputs,
            derived_cuts,
            cuts,
        }
    }

    /// The paper's per-SCC split (§4.2) of the recorded cuts into
    /// `(converted, multiplexed)`: a cyclic SCC converts `min(χ, f)` of its
    /// `χ` cuts (Corollary 2), every other cut converts.
    pub fn paper_split(&self) -> (usize, usize) {
        let mut chi = vec![0usize; self.scc.len()];
        for &c in &self.cuts {
            if self.scc.net_in_cyclic_component(&self.graph, c) {
                chi[self.scc.component_of(self.graph.net(c).src()).index()] += 1;
            }
        }
        let mux: usize = (chi.iter().enumerate())
            .map(|(i, &x)| x.saturating_sub(self.scc.registers_in(SccId(i as u32))))
            .sum();
        (self.cuts.len() - mux, mux)
    }
}
