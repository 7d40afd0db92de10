//! Realizing CBIT register positions through legal retiming.
//!
//! Given the partition's cut nets, the solver searches for a legal retiming
//! that leaves at least one register on every cut. The constraint system is
//! exactly the paper's §2.2/§2.3 conditions:
//!
//! * legality (Corollary 3): for every edge, `ρ(tail) − ρ(head) ≤ w(e)`;
//! * a register chain crossing `c` distinct cut nets must carry at least
//!   `c` registers after retiming: `ρ(tail) − ρ(head) ≤ w(e) − c`;
//! * optionally, fixed I/O latency ties all primary inputs and outputs to a
//!   common lag (the conservative interpretation; the paper's Eq. (1)
//!   reading permits latency changes, which is the default here).
//!
//! When the system is infeasible the offending cuts necessarily lie on a
//! negative-weight constraint cycle — by Corollary 2 the registers on a
//! cycle are invariant, so a cycle asking for more registers than it owns
//! cannot be retimed (`χ(p) > f(p)`, paper §2.3). The solver then drops the
//! cut that appears on the most constraint-cycle edges (deterministic
//! tie-break by net id) and re-solves; dropped cuts are reported as *excess*
//! and must be realized as multiplexed test registers (A_CELL + MUX,
//! Fig. 3(c)) instead of converted functional flip-flops (Fig. 3(b)).

use std::collections::BTreeSet;

use ppet_netlist::NetId;

use crate::bellman::{DifferenceConstraints, Solution};
use crate::retime::legal::Retiming;
use crate::retime::weights::{EdgeId, RNodeKind, RetimeGraph};

/// How primary I/O latency is treated during retiming.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IoLatency {
    /// Inputs and outputs may be lagged freely — the paper's reading of its
    /// Eq. (1) ("additional registers can be added arbitrarily"). Default.
    #[default]
    Flexible,
    /// All primary inputs and outputs keep their relative latency (they
    /// share one lag value), the conservative choice for drop-in designs.
    Fixed,
}

/// The result of [`CutRealizer::realize`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CutRealization {
    /// A legal retiming satisfying every covered cut.
    pub retiming: Retiming,
    /// Cut nets that hold at least one register after retiming — these cost
    /// only the three A_CELL gates (0.9 DFF) each.
    pub covered: Vec<NetId>,
    /// Cut nets that cannot be covered — each needs A_CELL + MUX (2.3 DFF).
    pub excess: Vec<NetId>,
    /// Number of solve/drop iterations performed.
    pub iterations: usize,
}

/// Solver binding a [`RetimeGraph`] with an I/O latency policy.
///
/// # Examples
///
/// ```
/// use ppet_graph::{retime::{CutRealizer, RetimeGraph}, CircuitGraph};
/// use ppet_netlist::data;
///
/// let circuit = data::s27();
/// let g = CircuitGraph::from_circuit(&circuit);
/// let rg = RetimeGraph::from_graph(&g);
/// // Ask for a register on G10's output (it already has one: DFF G5).
/// let cut = circuit.find("G10").unwrap();
/// let result = CutRealizer::new(&rg).realize(&[cut]);
/// assert_eq!(result.covered, vec![cut]);
/// assert!(result.excess.is_empty());
/// ```
#[derive(Debug)]
pub struct CutRealizer<'g> {
    rg: &'g RetimeGraph,
    io: IoLatency,
}

impl<'g> CutRealizer<'g> {
    /// Creates a solver with [`IoLatency::Flexible`].
    #[must_use]
    pub fn new(rg: &'g RetimeGraph) -> Self {
        Self {
            rg,
            io: IoLatency::Flexible,
        }
    }

    /// Sets the I/O latency policy.
    #[must_use]
    pub fn io_latency(mut self, io: IoLatency) -> Self {
        self.io = io;
        self
    }

    /// Finds a legal retiming covering as many of `cuts` as possible.
    ///
    /// Duplicate cut nets are coalesced. Cut nets that map to no register
    /// chain (for example a net whose only sink is unreachable logic) are
    /// reported as covered — nothing crosses them, so no test register is
    /// needed there.
    #[must_use]
    pub fn realize(&self, cuts: &[NetId]) -> CutRealization {
        let rg = self.rg;
        let mut active: BTreeSet<NetId> = cuts.iter().copied().collect();
        let mut excess: Vec<NetId> = Vec::new();
        let mut iterations = 0;

        // One constraint per edge, in edge order: legality less one
        // register per active cut the chain crosses. Dropping a cut later
        // raises only the bounds of the edges through it.
        let mut demand = vec![0i64; rg.edges().len()];
        for &net in &active {
            for &e in rg.edges_on_net(net) {
                demand[e.index()] += 1;
            }
        }
        let mut sys: DifferenceConstraints<Option<EdgeId>> =
            DifferenceConstraints::new(rg.num_nodes());
        for (i, e) in rg.edges().iter().enumerate() {
            sys.add(
                e.from.index(),
                e.to.index(),
                i64::from(e.weight) - demand[i],
                Some(EdgeId::from_index(i)),
            );
        }
        // Optional I/O tie: chain all IO nodes with 0/0 constraints.
        if self.io == IoLatency::Fixed {
            let ios: Vec<usize> = rg
                .nodes()
                .iter()
                .enumerate()
                .filter(|(_, k)| matches!(k, RNodeKind::Input(_) | RNodeKind::Output(_)))
                .map(|(i, _)| i)
                .collect();
            for pair in ios.windows(2) {
                sys.add(pair[0], pair[1], 0, None);
                sys.add(pair[1], pair[0], 0, None);
            }
        }

        loop {
            iterations += 1;
            match sys.solve() {
                Solution::Feasible(r) => {
                    excess.sort_unstable();
                    excess.dedup();
                    let covered: Vec<NetId> = active.into_iter().collect();
                    return CutRealization {
                        retiming: r,
                        covered,
                        excess,
                        iterations,
                    };
                }
                Solution::NegativeCycle(cycle) => {
                    // Count how often each active cut appears on the cycle's
                    // edges; drop the most frequent (ties: larger net id,
                    // deterministic).
                    let mut counts: Vec<(NetId, usize)> = Vec::new();
                    for c in &cycle {
                        let Some(edge) = c.tag else { continue };
                        for net in &rg.edge(edge).nets {
                            if active.contains(net) {
                                match counts.iter_mut().find(|(n, _)| n == net) {
                                    Some((_, k)) => *k += 1,
                                    None => counts.push((*net, 1)),
                                }
                            }
                        }
                    }
                    let victim = counts
                        .iter()
                        .max_by_key(|&&(n, k)| (k, n))
                        .map(|&(n, _)| n)
                        .expect("negative cycle must involve a cut constraint");
                    active.remove(&victim);
                    excess.push(victim);
                    for &e in rg.edges_on_net(victim) {
                        sys.raise_bound(e.index(), 1);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::CircuitGraph;
    use crate::retime::legal::{is_legal, retimed_weight};
    use ppet_netlist::{bench_format, data, Circuit};

    fn setup(c: &Circuit) -> (CircuitGraph, RetimeGraph) {
        let g = CircuitGraph::from_circuit(c);
        let rg = RetimeGraph::from_graph(&g);
        (g, rg)
    }

    /// Checks the realization invariant: covered cuts have enough registers
    /// on every edge through them.
    fn assert_covered(rg: &RetimeGraph, real: &CutRealization) {
        assert!(is_legal(rg, &real.retiming));
        for (i, e) in rg.edges().iter().enumerate() {
            let demand = e.nets.iter().filter(|n| real.covered.contains(n)).count() as i64;
            let w = retimed_weight(rg, &real.retiming, EdgeId::from_index(i));
            assert!(w >= demand, "edge {i}: w_r={w} demand={demand}");
        }
    }

    #[test]
    fn register_already_on_cut_is_free() {
        let c = data::s27();
        let (_, rg) = setup(&c);
        let cut = c.find("G10").unwrap(); // feeds DFF G5
        let real = CutRealizer::new(&rg).realize(&[cut]);
        assert_eq!(real.covered, vec![cut]);
        assert!(real.excess.is_empty());
        assert_covered(&rg, &real);
    }

    #[test]
    fn acyclic_cut_is_satisfiable_with_flexible_io() {
        // A purely feed-forward circuit: a cut anywhere can be retimed by
        // borrowing latency from the I/O boundary.
        let c = bench_format::parse(
            "ff",
            "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ng1 = AND(a, b)\ng2 = OR(g1, a)\ny = NOT(g2)\n",
        )
        .unwrap();
        let (_, rg) = setup(&c);
        let cut = c.find("g1").unwrap();
        let real = CutRealizer::new(&rg).realize(&[cut]);
        assert_eq!(real.covered, vec![cut]);
        assert_covered(&rg, &real);
    }

    #[test]
    fn fixed_io_makes_feed_forward_cut_excess() {
        // With fixed I/O latency no register can be conjured on a pure
        // combinational path from input to output.
        let c = bench_format::parse(
            "ff",
            "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ng1 = AND(a, b)\ny = NOT(g1)\n",
        )
        .unwrap();
        let (_, rg) = setup(&c);
        let cut = c.find("g1").unwrap();
        let real = CutRealizer::new(&rg)
            .io_latency(IoLatency::Fixed)
            .realize(&[cut]);
        assert_eq!(real.excess, vec![cut]);
        assert!(real.covered.is_empty());
        assert_covered(&rg, &real);
    }

    #[test]
    fn loop_with_one_register_covers_one_of_two_cuts() {
        // q = DFF(g2); g1 = AND(q, x); g2 = OR(g1, x): the loop
        // q -> g1 -> g2 -> q holds exactly one register. Cutting both g1
        // and g2 demands two registers on the cycle: impossible
        // (Corollary 2), so exactly one cut must become excess.
        let c = bench_format::parse(
            "loop1",
            "INPUT(x)\nOUTPUT(g2)\nq = DFF(g2)\ng1 = AND(q, x)\ng2 = OR(g1, x)\n",
        )
        .unwrap();
        let (_, rg) = setup(&c);
        let cuts = [c.find("g1").unwrap(), c.find("g2").unwrap()];
        let real = CutRealizer::new(&rg).realize(&cuts);
        assert_eq!(real.covered.len(), 1, "{real:?}");
        assert_eq!(real.excess.len(), 1);
        assert_covered(&rg, &real);
    }

    #[test]
    fn two_register_loop_covers_two_cuts() {
        let c = bench_format::parse(
            "loop2",
            "INPUT(x)\nOUTPUT(g2)\nq1 = DFF(g2)\nq2 = DFF(q1)\n\
             g1 = AND(q2, x)\ng2 = OR(g1, x)\n",
        )
        .unwrap();
        let (_, rg) = setup(&c);
        let cuts = [c.find("g1").unwrap(), c.find("g2").unwrap()];
        let real = CutRealizer::new(&rg).realize(&cuts);
        assert_eq!(real.covered.len(), 2, "{real:?}");
        assert!(real.excess.is_empty());
        assert_covered(&rg, &real);
    }

    #[test]
    fn duplicate_cuts_coalesce() {
        let c = data::s27();
        let (_, rg) = setup(&c);
        let cut = c.find("G10").unwrap();
        let real = CutRealizer::new(&rg).realize(&[cut, cut, cut]);
        assert_eq!(real.covered.len(), 1);
    }

    #[test]
    fn s27_full_register_cut_set_is_coverable() {
        // Cutting every register output net must be satisfiable with the
        // identity-ish retiming: registers are already there.
        let c = data::s27();
        let (g, rg) = setup(&c);
        let cuts: Vec<_> = g.nodes().filter(|&v| g.is_register(v)).collect();
        let real = CutRealizer::new(&rg).realize(&cuts);
        assert_eq!(real.covered.len(), 3);
        assert!(real.excess.is_empty());
        assert_covered(&rg, &real);
    }

    #[test]
    fn iterations_reported() {
        let c = bench_format::parse(
            "loop1",
            "INPUT(x)\nOUTPUT(g2)\nq = DFF(g2)\ng1 = AND(q, x)\ng2 = OR(g1, x)\n",
        )
        .unwrap();
        let (_, rg) = setup(&c);
        let cuts = [c.find("g1").unwrap(), c.find("g2").unwrap()];
        let real = CutRealizer::new(&rg).realize(&cuts);
        assert!(real.iterations >= 2); // at least one drop happened
    }
}
