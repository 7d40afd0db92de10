//! Materializing a retiming back into a circuit.
//!
//! Registers are re-instantiated along each retimed edge; chains leaving the
//! same driver share registers up to each branch's depth (the classic
//! fan-out sharing of Leiserson–Saxe), so the register count after retiming
//! is `Σ_v max_{e∈out(v)} w_ρ(e)`.
//!
//! Initial states are *not* recomputed: the new registers power up at the
//! simulator's reset value. Computing equivalent initial states is the
//! Touati–Brayton problem the paper cites as [16] and is orthogonal to the
//! area question studied here.

use std::error::Error;
use std::fmt;

use ppet_netlist::{CellId, CellKind, Circuit, NetId};

use crate::retime::legal::{retimed_weight, Retiming};
use crate::retime::weights::{EdgeId, RNodeKind, RetimeGraph};

/// Error raised by [`apply`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ApplyRetimingError {
    /// The retiming is illegal: the given edge would get a negative register
    /// count (violates the paper's Corollary 3).
    Illegal {
        /// The offending edge.
        edge: EdgeId,
        /// Its retimed weight.
        weight: i64,
    },
}

impl fmt::Display for ApplyRetimingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Illegal { edge, weight } => write!(
                f,
                "illegal retiming: edge {} would carry {weight} registers",
                edge.index()
            ),
        }
    }
}

impl Error for ApplyRetimingError {}

/// Number of registers the circuit will contain after applying `r`, with
/// fan-out sharing. The registers of register-only rings never move and
/// count once each.
///
/// # Examples
///
/// ```
/// use ppet_graph::{retime::{shared_register_count, RetimeGraph}, CircuitGraph};
/// use ppet_netlist::data;
///
/// let g = CircuitGraph::from_circuit(&data::s27());
/// let rg = RetimeGraph::from_graph(&g);
/// let identity = vec![0i64; rg.num_nodes()];
/// assert_eq!(shared_register_count(&rg, &identity), 3);
/// ```
#[must_use]
pub fn shared_register_count(rg: &RetimeGraph, r: &Retiming) -> usize {
    let mut total = 0i64;
    for node in 0..rg.num_nodes() {
        let node_id = crate::retime::weights::RNodeId(node as u32);
        let max_w = rg
            .out_edges(node_id)
            .iter()
            .map(|&e| retimed_weight(rg, r, e))
            .max()
            .unwrap_or(0);
        total += max_w.max(0);
        if matches!(rg.nodes()[node], RNodeKind::Ring(_)) {
            total += 1;
        }
    }
    usize::try_from(total).unwrap_or(0)
}

/// Applies a legal retiming to `circuit`, producing the retimed circuit.
///
/// Combinational cells and the registers of register-only rings keep
/// their names; other registers are re-created with `<driver>__rt<k>`
/// names. Primary outputs are reattached at their retimed depths.
///
/// # Errors
///
/// Returns [`ApplyRetimingError::Illegal`] when any edge's retimed weight is
/// negative.
///
/// # Examples
///
/// ```
/// use ppet_graph::{retime::{apply, RetimeGraph}, CircuitGraph};
/// use ppet_netlist::data;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let circuit = data::s27();
/// let g = CircuitGraph::from_circuit(&circuit);
/// let rg = RetimeGraph::from_graph(&g);
/// let identity = vec![0i64; rg.num_nodes()];
/// let same = apply(&circuit, &rg, &identity)?;
/// assert_eq!(same.num_flip_flops(), 3);
/// # Ok(())
/// # }
/// ```
pub fn apply(
    circuit: &Circuit,
    rg: &RetimeGraph,
    r: &Retiming,
) -> Result<Circuit, ApplyRetimingError> {
    // Validate legality first.
    for i in 0..rg.edges().len() {
        let e = EdgeId::from_index(i);
        let w = retimed_weight(rg, r, e);
        if w < 0 {
            return Err(ApplyRetimingError::Illegal { edge: e, weight: w });
        }
    }

    let mut out = Circuit::new(format!("{}_retimed", circuit.name()));

    // 1. Create combinational/PI cells (empty fan-in, patched later).
    let mut new_id: Vec<Option<CellId>> = vec![None; circuit.num_cells()];
    for (id, cell) in circuit.iter() {
        match cell.kind() {
            CellKind::Dff if rg.rnode_of(id).is_none() => {}
            CellKind::Input => {
                let nid = out.add_input(cell.name()).expect("unique names");
                new_id[id.index()] = Some(nid);
            }
            kind => {
                let nid = out
                    .add_cell_deferred(cell.name(), kind)
                    .expect("names are unique in the source circuit");
                new_id[id.index()] = Some(nid);
            }
        }
    }

    // 2. Register chains: for each rnode, a chain of max out-edge weight.
    //    chain_cells[v][0] is v itself; [k] is the k-th register.
    let mut chain_cells: Vec<Vec<CellId>> = vec![Vec::new(); rg.num_nodes()];
    for (ni, kind) in rg.nodes().iter().enumerate() {
        let node = crate::retime::weights::RNodeId(ni as u32);
        let cell = match kind {
            RNodeKind::Input(c) | RNodeKind::Comb(c) | RNodeKind::Ring(c) => *c,
            RNodeKind::Output(_) => continue,
        };
        let base = new_id[cell.index()].expect("node cells are created");
        let max_w = rg
            .out_edges(node)
            .iter()
            .map(|&e| retimed_weight(rg, r, e))
            .max()
            .unwrap_or(0);
        let mut chain = vec![base];
        for k in 1..=max_w {
            let name = format!("{}__rt{}", circuit.cell(cell).name(), k);
            let prev = *chain.last().expect("non-empty");
            let reg = out
                .add_cell_deferred(name, CellKind::Dff)
                .expect("generated register names are fresh");
            out.set_fanin(reg, vec![prev]).expect("driver exists");
            chain.push(reg);
        }
        chain_cells[ni] = chain;
    }

    // 3. Patch combinational fan-ins: the signal for a pin originally driven
    //    by cell p is the chain of p's origin at the retimed depth.
    let signal_at = |driver: CellId, consumer_rnode: crate::retime::weights::RNodeId| -> CellId {
        let (origin, _depth) = rg.chain_of(driver);
        let origin_rnode = rg.rnode_of(origin).expect("chain origins are nodes");
        // Retimed depth of this connection = w(e) + r(to) − r(from) for the
        // edge origin→consumer; equivalently depth + r(to) − r(origin) works
        // for every edge of the same (origin, consumer, weight) class.
        let (_, depth) = rg.chain_of(driver);
        let d = i64::from(depth) + r[consumer_rnode.index()] - r[origin_rnode.index()];
        let chain = &chain_cells[origin_rnode.index()];
        let idx = usize::try_from(d).expect("legal retiming keeps depths non-negative");
        chain[idx]
    };

    for (id, cell) in circuit.iter() {
        let fanin: Vec<CellId> = if cell.kind().is_combinational() {
            let rnode = rg.rnode_of(id).expect("comb cell has rnode");
            cell.fanin().iter().map(|&p| signal_at(p, rnode)).collect()
        } else if cell.kind() == CellKind::Dff && rg.rnode_of(id).is_some() {
            // A ring register keeps its ring predecessor as its D input.
            vec![new_id[cell.fanin()[0].index()].expect("ring register created")]
        } else {
            continue;
        };
        out.set_fanin(new_id[id.index()].expect("created"), fanin)
            .expect("drivers exist and arity is preserved");
    }

    // 4. Primary outputs. Two POs with different original latencies can
    //    land on the same retimed signal (flexible I/O lag); a buffer keeps
    //    them distinct pins so the output count survives.
    for (ni, kind) in rg.nodes().iter().enumerate() {
        if let RNodeKind::Output(po_net) = kind {
            let rnode = crate::retime::weights::RNodeId(ni as u32);
            let driver: NetId = *po_net;
            let mut sig = signal_at(driver, rnode);
            if out.is_output(sig) {
                let name = format!("{}__podup{}", out.cell(sig).name(), ni);
                let buf = out
                    .add_cell_deferred(name, CellKind::Buf)
                    .expect("fresh duplicate-output buffer name");
                out.set_fanin(buf, vec![sig]).expect("signal exists");
                sig = buf;
            }
            out.mark_output(sig).expect("signal exists");
        }
    }

    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::CircuitGraph;
    use crate::retime::solver::CutRealizer;
    use crate::scc::Scc;
    use ppet_netlist::{bench_format, data};

    fn setup(c: &Circuit) -> (CircuitGraph, RetimeGraph) {
        let g = CircuitGraph::from_circuit(c);
        let rg = RetimeGraph::from_graph(&g);
        (g, rg)
    }

    #[test]
    fn register_only_ring_survives_retiming_in_place() {
        let c = bench_format::parse(
            "ring",
            "INPUT(a)\nOUTPUT(y)\nq1 = DFF(q2)\nq2 = DFF(q1)\nq3 = DFF(q1)\n\
             g1 = AND(a, q3)\ny = NOT(g1)\n",
        )
        .unwrap();
        let (_, rg) = setup(&c);
        let identity = vec![0i64; rg.num_nodes()];
        assert_eq!(shared_register_count(&rg, &identity), 3);
        let out = apply(&c, &rg, &identity).unwrap();
        assert_eq!(out.num_flip_flops(), 3);
        let [q1, q2] = ["q1", "q2"].map(|n| out.find(n).expect("ring register keeps its name"));
        assert_eq!(out.cell(q1).fanin(), &[q2]);
        assert_eq!(out.cell(q2).fanin(), &[q1]);
    }

    #[test]
    fn identity_retiming_reproduces_register_count_and_structure() {
        let c = data::s27();
        let (_g, rg) = setup(&c);
        let identity = vec![0i64; rg.num_nodes()];
        let out = apply(&c, &rg, &identity).unwrap();
        assert_eq!(out.num_flip_flops(), c.num_flip_flops());
        assert_eq!(out.num_inputs(), c.num_inputs());
        assert_eq!(out.outputs().len(), c.outputs().len());
        // Combinational cells survive by name with the same kind.
        for (_, cell) in c.iter() {
            if cell.kind().is_combinational() {
                let nid = out.find(cell.name()).expect("cell kept");
                assert_eq!(out.cell(nid).kind(), cell.kind());
            }
        }
    }

    #[test]
    fn illegal_retiming_rejected() {
        let c = data::s27();
        let (_g, rg) = setup(&c);
        // Push one node with a zero-weight out-edge forward.
        let (i, e) = rg
            .edges()
            .iter()
            .enumerate()
            .find(|(_, e)| e.weight == 0)
            .unwrap();
        let mut r = vec![0i64; rg.num_nodes()];
        r[e.from.index()] = 1;
        let err = apply(&c, &rg, &r).unwrap_err();
        assert!(matches!(err, ApplyRetimingError::Illegal { .. }));
        let _ = i;
    }

    #[test]
    fn comb_structure_and_register_count_preserved_after_apply() {
        // Retiming may redistribute registers between edges (even in and out
        // of SCC regions — only *per-cycle* counts are invariant, which the
        // legal.rs Corollary 2 test verifies), but the combinational
        // skeleton must be untouched: every comb cell keeps its kind and the
        // chain-origin of each of its fan-in connections.
        let c = data::s27();
        let (_g, rg) = setup(&c);
        let cuts: Vec<_> = [c.find("G10").unwrap(), c.find("G11").unwrap()].to_vec();
        let real = CutRealizer::new(&rg).realize(&cuts);
        let out = apply(&c, &rg, &real.retiming).unwrap();

        assert_eq!(
            out.num_flip_flops(),
            shared_register_count(&rg, &real.retiming)
        );

        let g_after = CircuitGraph::from_circuit(&out);
        let rg_after = RetimeGraph::from_graph(&g_after);
        for (id, cell) in c.iter() {
            if !cell.kind().is_combinational() {
                continue;
            }
            let nid = out.find(cell.name()).expect("comb cell kept");
            assert_eq!(out.cell(nid).kind(), cell.kind());
            // Chain origins of fan-ins map to the same named comb/PI cells.
            let orig_origins: Vec<String> = cell
                .fanin()
                .iter()
                .map(|&p| c.cell(rg.chain_of(p).0).name().to_string())
                .collect();
            let new_origins: Vec<String> = out
                .cell(nid)
                .fanin()
                .iter()
                .map(|&p| out.cell(rg_after.chain_of(p).0).name().to_string())
                .collect();
            assert_eq!(new_origins, orig_origins, "{}", cell.name());
            let _ = id;
        }
        // The retimed circuit still has feedback (registers on cycles).
        assert!(Scc::of(&g_after).registers_on_cyclic() > 0);
    }

    #[test]
    fn covered_cut_nets_carry_registers_after_apply() {
        // Realize a cut on a combinational net, apply, and check that the
        // cut driver's fan-out in the new circuit goes through a register.
        let c = bench_format::parse(
            "loop2",
            "INPUT(x)\nOUTPUT(g2)\nq1 = DFF(g2)\nq2 = DFF(q1)\n\
             g1 = AND(q2, x)\ng2 = OR(g1, x)\n",
        )
        .unwrap();
        let (_g, rg) = setup(&c);
        let cut = c.find("g1").unwrap();
        let real = CutRealizer::new(&rg).realize(&[cut]);
        assert_eq!(real.covered, vec![cut]);
        let out = apply(&c, &rg, &real.retiming).unwrap();
        // In the retimed circuit, every sink of g1 must be a register.
        let g1_new = out.find("g1").unwrap();
        let fanouts = out.fanouts();
        assert!(!fanouts.of(g1_new).is_empty());
        for &s in fanouts.of(g1_new) {
            assert_eq!(
                out.cell(s).kind(),
                CellKind::Dff,
                "sink {}",
                out.cell(s).name()
            );
        }
        // Total register count is preserved on the loop (Corollary 2).
        assert_eq!(
            out.num_flip_flops(),
            shared_register_count(&rg, &real.retiming)
        );
    }

    #[test]
    fn shared_register_count_identity_matches_original() {
        for text in [
            "INPUT(a)\nOUTPUT(y)\nq1 = DFF(a)\nq2 = DFF(q1)\ny = NOT(q2)\n",
            "INPUT(x)\nOUTPUT(g2)\nq = DFF(g2)\ng1 = AND(q, x)\ng2 = OR(g1, x)\n",
        ] {
            let c = bench_format::parse("t", text).unwrap();
            let (_, rg) = setup(&c);
            let identity = vec![0i64; rg.num_nodes()];
            assert_eq!(shared_register_count(&rg, &identity), c.num_flip_flops());
        }
    }

    #[test]
    fn retimed_circuit_is_structurally_valid() {
        let c = data::s27();
        let (_g, rg) = setup(&c);
        let cuts: Vec<_> = c.flip_flops().map(|q| c.cell(q).fanin()[0]).collect();
        let real = CutRealizer::new(&rg).realize(&cuts);
        let out = apply(&c, &rg, &real.retiming).unwrap();
        assert!(ppet_netlist::validate::find_combinational_cycle(&out).is_none());
    }
}
