//! The register-weighted retiming graph.

use ppet_netlist::{CellId, NetId};

use crate::graph::CircuitGraph;

/// Identifier of a node in a [`RetimeGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RNodeId(pub(crate) u32);

impl RNodeId {
    /// Dense index.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Identifier of an edge in a [`RetimeGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EdgeId(pub(crate) u32);

impl EdgeId {
    /// Dense index.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// What a retime-graph node stands for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RNodeKind {
    /// A primary input of the circuit.
    Input(CellId),
    /// A combinational cell (gate, inverter, buffer).
    Comb(CellId),
    /// A virtual sink for one primary output; the payload is the net that
    /// feeds the output.
    Output(NetId),
    /// A register on a register-only ring, modeled as a fixed source. The
    /// ring has no gate to lag and, by Corollary 2, keeps its register
    /// count, so its registers stay where they are: the ring's internal
    /// connections are not edges, and each ring register's output net
    /// starts register chains the way a primary input's does.
    Ring(CellId),
}

/// One edge of the retiming graph: a pure register chain (possibly empty)
/// from one node to another.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct REdge {
    /// Tail node (the driver).
    pub from: RNodeId,
    /// Head node (the consumer).
    pub to: RNodeId,
    /// Number of registers on the chain — the Leiserson–Saxe `w(e)`.
    pub weight: u32,
    /// The register cells traversed, in order from `from` to `to`.
    pub via: Vec<CellId>,
    /// The original nets this edge passes through, in order: the driver's
    /// net first, then the net of each register in `via`. A partition cut
    /// on any of these nets demands a register on this edge.
    pub nets: Vec<NetId>,
}

/// The Leiserson–Saxe register-weighted view of a circuit.
///
/// # Examples
///
/// ```
/// use ppet_graph::{retime::RetimeGraph, CircuitGraph};
/// use ppet_netlist::data;
///
/// let g = CircuitGraph::from_circuit(&data::s27());
/// let rg = RetimeGraph::from_graph(&g);
/// // Total edge weight equals... at least the number of registers.
/// let total: u32 = rg.edges().iter().map(|e| e.weight).sum();
/// assert!(total >= 3);
/// ```
#[derive(Debug, Clone)]
pub struct RetimeGraph {
    nodes: Vec<RNodeKind>,
    edges: Vec<REdge>,
    out_edges: Vec<Vec<EdgeId>>,
    in_edges: Vec<Vec<EdgeId>>,
    rnode_of_cell: Vec<Option<RNodeId>>,
    /// For every original cell: the combinational/PI origin of its driver
    /// chain and the register depth of its net from that origin. For a
    /// comb/PI cell this is `(itself, 0)`; for a register it is
    /// `(chain origin, number of registers up to and including itself)`.
    chain: Vec<(CellId, u32)>,
    /// `edges_on_net[net] = edges whose chain passes through that net`.
    edges_on_net: Vec<Vec<EdgeId>>,
}

impl RetimeGraph {
    /// Builds the retiming graph of `graph`.
    #[must_use]
    pub fn from_graph(graph: &CircuitGraph) -> Self {
        let n = graph.num_nodes();

        // Chain origin/depth for every cell. Walking up a register chain
        // either reaches a comb/PI cell or closes a register-only ring,
        // whose registers each become their own origin (a fixed source,
        // see `RNodeKind::Ring`).
        let mut chain: Vec<Option<(CellId, u32)>> = vec![None; n];
        let mut on_ring = vec![false; n];
        for v in graph.nodes() {
            if !graph.is_register(v) {
                chain[v.index()] = Some((v, 0));
            }
        }
        for v in graph.nodes() {
            if chain[v.index()].is_some() {
                continue;
            }
            // Walk up the single-driver chain of registers.
            let mut path = vec![v];
            let mut cur = v;
            let ((origin, base), resolved) = loop {
                let driver = graph.fanin(cur)[0];
                if let Some(oc) = chain[driver.index()] {
                    break (oc, path.len());
                }
                if let Some(pos) = path.iter().position(|&r| r == driver) {
                    for &reg in &path[pos..] {
                        chain[reg.index()] = Some((reg, 0));
                        on_ring[reg.index()] = true;
                    }
                    break ((driver, 0), pos);
                }
                path.push(driver);
                cur = driver;
            };
            // `path[..resolved]` runs v, parent, ..., last-unresolved; assign
            // depths from the resolved end backwards.
            for (i, &reg) in path[..resolved].iter().rev().enumerate() {
                chain[reg.index()] = Some((origin, base + 1 + i as u32));
            }
        }
        let chain: Vec<(CellId, u32)> = chain
            .into_iter()
            .map(|c| c.expect("all chains resolved"))
            .collect();

        let mut nodes = Vec::new();
        let mut rnode_of_cell = vec![None; n];
        for v in graph.nodes() {
            let kind = if on_ring[v.index()] {
                RNodeKind::Ring(v)
            } else if graph.is_register(v) {
                continue;
            } else if graph.is_input(v) {
                RNodeKind::Input(v)
            } else {
                RNodeKind::Comb(v)
            };
            rnode_of_cell[v.index()] = Some(RNodeId(nodes.len() as u32));
            nodes.push(kind);
        }
        // Virtual sink per primary output.
        let mut po_node_of_net: Vec<(NetId, RNodeId)> = Vec::new();
        for &po in graph.outputs() {
            let id = RNodeId(nodes.len() as u32);
            nodes.push(RNodeKind::Output(po));
            po_node_of_net.push((po, id));
        }

        // Trace edges from every comb/PI/ring node.
        let mut edges: Vec<REdge> = Vec::new();
        let mut edges_on_net: Vec<Vec<EdgeId>> = vec![Vec::new(); n];
        for u in graph.nodes() {
            let Some(from) = rnode_of_cell[u.index()] else {
                continue;
            };
            // Depth-first over the register chain tree rooted at u's net.
            // Each stack item: (net, weight so far, registers so far).
            let mut stack: Vec<(NetId, u32, Vec<CellId>)> = vec![(u, 0, Vec::new())];
            while let Some((net, w, via)) = stack.pop() {
                for &sink in graph.net(net).sinks() {
                    if on_ring[sink.index()] {
                        // A ring's own D-pin connection: fixed, not an edge.
                        continue;
                    }
                    if graph.is_register(sink) {
                        let mut via2 = via.clone();
                        via2.push(sink);
                        stack.push((sink, w + 1, via2));
                    } else {
                        let to = rnode_of_cell[sink.index()].expect("comb/PI has an rnode");
                        push_edge(&mut edges, &mut edges_on_net, from, to, w, &via, u);
                    }
                }
                // Primary output attached to this net?
                for &(po_net, po_node) in &po_node_of_net {
                    if po_net == net {
                        push_edge(&mut edges, &mut edges_on_net, from, po_node, w, &via, u);
                    }
                }
            }
        }

        let mut out_edges = vec![Vec::new(); nodes.len()];
        let mut in_edges = vec![Vec::new(); nodes.len()];
        for (i, e) in edges.iter().enumerate() {
            out_edges[e.from.index()].push(EdgeId(i as u32));
            in_edges[e.to.index()].push(EdgeId(i as u32));
        }

        Self {
            nodes,
            edges,
            out_edges,
            in_edges,
            rnode_of_cell,
            chain,
            edges_on_net,
        }
    }

    /// The nodes of the graph.
    #[must_use]
    pub fn nodes(&self) -> &[RNodeKind] {
        &self.nodes
    }

    /// Number of nodes.
    #[must_use]
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// The edges of the graph.
    #[must_use]
    pub fn edges(&self) -> &[REdge] {
        &self.edges
    }

    /// One edge.
    #[must_use]
    pub fn edge(&self, id: EdgeId) -> &REdge {
        &self.edges[id.index()]
    }

    /// Edges leaving `node`.
    #[must_use]
    pub fn out_edges(&self, node: RNodeId) -> &[EdgeId] {
        &self.out_edges[node.index()]
    }

    /// Edges entering `node`.
    #[must_use]
    pub fn in_edges(&self, node: RNodeId) -> &[EdgeId] {
        &self.in_edges[node.index()]
    }

    /// The retime-graph node of a combinational, input, or ring cell.
    #[must_use]
    pub fn rnode_of(&self, cell: CellId) -> Option<RNodeId> {
        self.rnode_of_cell.get(cell.index()).copied().flatten()
    }

    /// The chain origin and register depth of a cell's output net; see the
    /// field docs on [`RetimeGraph`].
    #[must_use]
    pub fn chain_of(&self, cell: CellId) -> (CellId, u32) {
        self.chain[cell.index()]
    }

    /// The edges whose register chain passes through `net` — a partition
    /// cut on `net` requires one register on each of these edges. Empty
    /// for a net outside the graph.
    #[must_use]
    pub fn edges_on_net(&self, net: NetId) -> &[EdgeId] {
        self.edges_on_net
            .get(net.index())
            .map_or(&[], Vec::as_slice)
    }
}

fn push_edge(
    edges: &mut Vec<REdge>,
    edges_on_net: &mut [Vec<EdgeId>],
    from: RNodeId,
    to: RNodeId,
    weight: u32,
    via: &[CellId],
    origin_net: NetId,
) {
    let id = EdgeId(edges.len() as u32);
    let mut nets = Vec::with_capacity(via.len() + 1);
    nets.push(origin_net);
    nets.extend(via.iter().copied());
    for &net in &nets {
        edges_on_net[net.index()].push(id);
    }
    edges.push(REdge {
        from,
        to,
        weight,
        via: via.to_vec(),
        nets,
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppet_netlist::{bench_format, data};

    fn s27_rg() -> (CircuitGraph, RetimeGraph) {
        let g = CircuitGraph::from_circuit(&data::s27());
        let rg = RetimeGraph::from_graph(&g);
        (g, rg)
    }

    #[test]
    fn node_census() {
        let (g, rg) = s27_rg();
        // 17 cells − 3 registers + 1 virtual PO = 15 nodes.
        assert_eq!(rg.num_nodes(), g.num_nodes() - 3 + 1);
        let inputs = rg
            .nodes()
            .iter()
            .filter(|k| matches!(k, RNodeKind::Input(_)))
            .count();
        assert_eq!(inputs, 4);
    }

    #[test]
    fn edge_weights_count_registers() {
        let (g, rg) = s27_rg();
        // G10 drives DFF G5 which drives G11: edge G10 -> G11 with weight 1.
        let g10 = rg.rnode_of(g.find("G10").unwrap()).unwrap();
        let g11 = rg.rnode_of(g.find("G11").unwrap()).unwrap();
        let e = rg
            .out_edges(g10)
            .iter()
            .map(|&id| rg.edge(id))
            .find(|e| e.to == g11)
            .expect("edge exists");
        assert_eq!(e.weight, 1);
        assert_eq!(e.via.len(), 1);
        assert_eq!(g.node_name(e.via[0]), "G5");
        // The edge passes through the nets of G10 and G5.
        assert_eq!(e.nets.len(), 2);
    }

    #[test]
    fn zero_weight_edges_for_direct_connections() {
        let (g, rg) = s27_rg();
        let g14 = rg.rnode_of(g.find("G14").unwrap()).unwrap();
        let g8 = rg.rnode_of(g.find("G8").unwrap()).unwrap();
        let direct = rg
            .out_edges(g14)
            .iter()
            .map(|&id| rg.edge(id))
            .any(|e| e.to == g8 && e.weight == 0);
        assert!(direct);
    }

    #[test]
    fn po_virtual_node_receives_edge() {
        let (g, rg) = s27_rg();
        let po_node = rg
            .nodes()
            .iter()
            .position(|k| matches!(k, RNodeKind::Output(_)))
            .unwrap();
        assert!(!rg.in_edges(RNodeId(po_node as u32)).is_empty());
        let _ = g;
    }

    #[test]
    fn chain_depths() {
        let (g, rg) = s27_rg();
        let g10 = g.find("G10").unwrap();
        let g5 = g.find("G5").unwrap();
        assert_eq!(rg.chain_of(g10), (g10, 0));
        assert_eq!(rg.chain_of(g5), (g10, 1));
    }

    #[test]
    fn edges_on_net_maps_register_nets() {
        let (g, rg) = s27_rg();
        // A cut on DFF G5's output net constrains the edges through G5.
        let g5 = g.find("G5").unwrap();
        let edges = rg.edges_on_net(g5);
        assert!(!edges.is_empty());
        for &e in edges {
            assert!(rg.edge(e).via.contains(&g5));
        }
    }

    #[test]
    fn total_edge_branches_match_pin_count() {
        let (g, rg) = s27_rg();
        // Every comb/PI pin of every comb cell yields exactly one edge;
        // plus one per PO. Register D-pins are absorbed into chains.
        let comb_pins: usize = g
            .nodes()
            .filter(|&v| g.kind(v).is_combinational())
            .map(|v| g.fanin(v).len())
            .sum();
        assert_eq!(rg.edges().len(), comb_pins + g.outputs().len());
    }

    #[test]
    fn register_ring_is_a_fixed_source() {
        let c = bench_format::parse(
            "ring",
            "INPUT(a)\nOUTPUT(y)\nq1 = DFF(q2)\nq2 = DFF(q1)\nq3 = DFF(q1)\n\
             g1 = AND(a, q3)\ny = NOT(g1)\n",
        )
        .unwrap();
        let g = CircuitGraph::from_circuit(&c);
        let rg = RetimeGraph::from_graph(&g);
        let [q1, q2, q3, g1] = ["q1", "q2", "q3", "g1"].map(|n| g.find(n).unwrap());
        // Each ring register is a source node; q3 hangs off the ring and
        // is a chain register like any other.
        for q in [q1, q2] {
            let node = rg.rnode_of(q).unwrap();
            assert_eq!(rg.nodes()[node.index()], RNodeKind::Ring(q));
            assert!(rg.in_edges(node).is_empty(), "ring wiring is not an edge");
            assert_eq!(rg.chain_of(q), (q, 0));
        }
        assert_eq!(rg.rnode_of(q3), None);
        assert_eq!(rg.chain_of(q3), (q1, 1));
        let to_g1 = rg.rnode_of(g1).unwrap();
        let e = rg
            .out_edges(rg.rnode_of(q1).unwrap())
            .iter()
            .map(|&id| rg.edge(id))
            .find(|e| e.to == to_g1)
            .unwrap();
        assert_eq!((e.weight, e.nets.clone()), (1, vec![q1, q3]));
        assert!(rg.out_edges(rg.rnode_of(q2).unwrap()).is_empty());
    }

    #[test]
    fn dff_chain_produces_weight_two() {
        let c = bench_format::parse(
            "chain",
            "INPUT(a)\nOUTPUT(y)\nq1 = DFF(a)\nq2 = DFF(q1)\ny = NOT(q2)\n",
        )
        .unwrap();
        let g = CircuitGraph::from_circuit(&c);
        let rg = RetimeGraph::from_graph(&g);
        let a = rg.rnode_of(g.find("a").unwrap()).unwrap();
        let y = rg.rnode_of(g.find("y").unwrap()).unwrap();
        let e = rg
            .out_edges(a)
            .iter()
            .map(|&id| rg.edge(id))
            .find(|e| e.to == y)
            .unwrap();
        assert_eq!(e.weight, 2);
        assert_eq!(e.nets.len(), 3); // a's net, q1's net, q2's net
    }
}
