//! Deterministic single-source shortest-path trees over net lengths.
//!
//! `Saturate_Network` (paper Table 3, STEP 3.2) computes, for a randomly
//! chosen source, the shortest-path tree `T_v = Dijkstra(G, d(E), v)` to all
//! reachable sinks, where the length of every branch of a net is that net's
//! congestion distance `d(e)`. Ties are broken by node id so the tree — and
//! therefore the whole stochastic flow process — is reproducible.
//!
//! Nodes settle one strongly connected component at a time, in the
//! topological order of the SCC condensation (the components of the
//! paper's STEP 2), and by `(distance, node)` inside a component. No
//! branch enters a component from a later one, so when a component comes
//! up every fanin outside it is final: a single-node component settles
//! with no priority queue at all, and only cyclic components need one. A
//! node's parent is the smallest-id fanin that settled before it and
//! reaches it at its final distance. Two engines settle in this order:
//!
//! * [`DijkstraScratch::run`] — the **reference**: a `BinaryHeap` keyed
//!   `(topological index, distance bits, node)` over the pointer-rich
//!   [`CircuitGraph`] adjacency. Kept as the executable specification the
//!   property tests compare against.
//! * [`DijkstraScratch::run_fast`] — the **saturation hot path**, over the
//!   packed [`Csr`] adjacency. A bitmap over topological indices drives
//!   the outer loop; a cyclic component drains a `BinaryHeap` of its own,
//!   keyed by the distance bits above the node id. For non-negative
//!   doubles the bit pattern orders like the value, so the heap pops in
//!   the reference's `(distance, node)` order inside the component.
//!   Distances, parents, settle order, relaxations and tree sizes are
//!   bit-identical to the reference; only the pop counts differ. See
//!   `DESIGN.md` §13.
//!
//! Both engines keep their per-node search state in one lazily stamped
//! array ([`DijkstraScratch`]), so a tree never pays to reset the nodes
//! it does not reach.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::ops::Range;

use ppet_netlist::{CellId, NetId};

use crate::csr::Csr;
use crate::graph::CircuitGraph;
use crate::scc::Scc;

/// A two-level bitmap over `0..len`: one bit per index and one summary
/// bit per 64-bit word, so the next set index at or after a cursor is a
/// handful of word scans away.
#[derive(Debug, Clone, Default)]
struct Bitmap {
    words: Vec<u64>,
    summary: Vec<u64>,
}

impl Bitmap {
    fn new(len: usize) -> Self {
        let words = len.div_ceil(64);
        Self {
            words: vec![0; words],
            summary: vec![0; words.div_ceil(64)],
        }
    }

    #[inline(always)]
    fn insert(&mut self, i: usize) {
        self.words[i >> 6] |= 1u64 << (i & 63);
        self.summary[i >> 12] |= 1u64 << ((i >> 6) & 63);
    }

    /// Removes and returns the smallest set index at or after `from`.
    #[inline(always)]
    fn take_from(&mut self, from: usize) -> Option<usize> {
        let mut w = from >> 6;
        let mut bits = *self.words.get(w)? & (!0u64 << (from & 63));
        if bits == 0 {
            let mut s = w >> 6;
            let mut above = self.summary[s] & (!1u64 << (w & 63));
            while above == 0 {
                s += 1;
                above = *self.summary.get(s)?;
            }
            w = (s << 6) + above.trailing_zeros() as usize;
            bits = self.words[w];
        }
        let i = (w << 6) + bits.trailing_zeros() as usize;
        self.words[w] &= !(1u64 << (i & 63));
        if self.words[w] == 0 {
            self.summary[w >> 6] &= !(1u64 << (w & 63));
        }
        Some(i)
    }

    #[cfg(test)]
    fn is_empty(&self) -> bool {
        self.summary.iter().all(|&s| s == 0)
    }

    /// Clears every set bit, visiting only the words the summary marks.
    fn clear(&mut self) {
        for (s, summary) in self.summary.iter_mut().enumerate() {
            let mut above = std::mem::take(summary);
            while above != 0 {
                self.words[(s << 6) + above.trailing_zeros() as usize] = 0;
                above &= above - 1;
            }
        }
    }
}

/// The graph's SCC condensation in topological order: the order both
/// engines settle components in. [`Scc::of`] numbers components in
/// reverse topological order, so component `id` of `C` has topological
/// index `C − 1 − id`, and every branch leaving a component points to a
/// higher index.
#[derive(Debug, Clone)]
struct Condensation {
    /// Topological index of each node's component.
    topo: Vec<u32>,
    /// The members of the component at topological index `t` are
    /// `members[start[t]..start[t + 1]]`, ascending.
    start: Vec<u32>,
    members: Vec<u32>,
}

impl Condensation {
    fn of(graph: &CircuitGraph) -> Self {
        let scc = Scc::of(graph);
        let mut topo = vec![0; graph.num_nodes()];
        let mut start = Vec::with_capacity(scc.len() + 1);
        let mut members = Vec::with_capacity(graph.num_nodes());
        start.push(0);
        for (t, comp) in scc.components().iter().rev().enumerate() {
            for &v in comp {
                topo[v.index()] = t as u32;
                members.push(v.index() as u32);
            }
            start.push(members.len() as u32);
        }
        Self {
            topo,
            start,
            members,
        }
    }

    /// Number of components.
    fn len(&self) -> usize {
        self.start.len() - 1
    }

    /// Positions in `members` of the component at topological index `t`.
    #[inline(always)]
    fn range(&self, t: usize) -> Range<usize> {
        self.start[t] as usize..self.start[t + 1] as usize
    }
}

/// The component heap's key for `node` at `dist`: the distance bits
/// above the node id, so it orders as `(distance, node)` does (the bits
/// of a non-negative double order like its value). One 128-bit compare
/// is cheaper than a tuple's two.
#[inline(always)]
fn component_key(dist: f64, node: u32) -> Reverse<u128> {
    Reverse(u128::from(dist.to_bits()) << 32 | u128::from(node))
}

/// One node's search state, packed so a relaxation reads and writes a
/// single 16-byte slot.
///
/// `mark` tells how much of the slot is current, relative to the
/// scratch's (even) epoch: below it the slot is stale and reads as
/// unreached (`INFINITY`, no parent); equal to it the node is reached
/// with a tentative distance; `epoch + 1` means settled.
#[derive(Debug, Clone, Copy)]
struct NodeState {
    dist: f64,
    /// Parent net id, [`NO_PARENT`] for the source.
    parent: u32,
    mark: u32,
}

const NO_PARENT: u32 = u32::MAX;

const UNREACHED: NodeState = NodeState {
    dist: f64::INFINITY,
    parent: NO_PARENT,
    mark: 0,
};

/// Reusable work buffers for repeated shortest-path-tree computations
/// over one graph.
///
/// `Saturate_Network` runs tens of thousands of Dijkstra trees over the
/// same graph. The scratch computes the graph's SCC condensation once,
/// when it is made, and keeps one 16-byte state slot per node
/// (distance, parent net, epoch mark) alive across runs, invalidating
/// it lazily: each run advances an epoch, and a slot whose mark predates
/// it reads as unreached. Nothing is refilled per tree, so a run
/// touching `k` nodes costs `O(k)`-ish regardless of `|V|`, and the
/// tree's per-net branch counts are accumulated *while nodes settle* — no
/// post-pass allocation or sort on the hot path.
///
/// # Examples
///
/// ```
/// use ppet_graph::{dijkstra::DijkstraScratch, CircuitGraph};
/// use ppet_netlist::data;
///
/// let g = CircuitGraph::from_circuit(&data::s27());
/// let unit = vec![1.0; g.num_nodes()];
/// let mut scratch = DijkstraScratch::new(&g);
/// scratch.run_fast(g.csr(), g.find("G0").unwrap(), &unit);
/// let visited = scratch.visited_order().len();
/// assert!(visited >= 2);
/// ```
#[derive(Debug, Clone)]
pub struct DijkstraScratch {
    state: Vec<NodeState>,
    /// Always even; advanced by two per run (see [`NodeState`]).
    epoch: u32,
    order: Condensation,
    /// The reference's queue: `(topological index, distance bits, node)`,
    /// smallest first.
    heap: BinaryHeap<Reverse<(u32, u64, u32)>>,
    /// The production engine's components to settle: the topological
    /// index of every component holding a node reached with a finite
    /// distance and not yet settled.
    pending: Bitmap,
    /// The production engine's queue inside one cyclic component:
    /// [`component_key`]s, smallest first.
    component_heap: BinaryHeap<Reverse<u128>>,
    visited: Vec<CellId>,
    /// Branches of each net in the last run's tree; a net's slot is reset
    /// when its driver settles, which precedes every branch it feeds.
    net_count: Vec<u32>,
    tree_list: Vec<NetId>,
    stats: DijkstraStats,
}

/// Work counters accumulated across every [`DijkstraScratch`] run since
/// creation (or [`DijkstraScratch::take_stats`]). Plain integers —
/// always maintained, cheap enough to never need a feature gate — so the
/// flow phase can report how much search work its trees cost.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DijkstraStats {
    /// Queue pops, including stale entries skipped as already settled.
    /// The reference pops every entry it pushes: one per relaxation plus
    /// each run's source. The production engine pops one bitmap entry
    /// per component it settles, plus the component-heap entries (seeds
    /// and relaxations) of the cyclic ones.
    pub heap_pops: u64,
    /// Successful relaxations (`dist` improvements to a finite distance).
    pub relaxations: u64,
    /// Nodes settled (final distance fixed) — the total tree size.
    pub settled: u64,
    /// Runs by tree size (nodes settled in the run), indexed by bit
    /// length: entry `i ≥ 1` counts trees of `[2^(i-1), 2^i)` nodes;
    /// trees of `2^31` nodes or more land in the last entry.
    pub tree_sizes: [u64; 32],
}

impl DijkstraScratch {
    /// Creates buffers for trees over `graph`, and its condensation
    /// order (one Tarjan pass). Every run must be over the same graph.
    #[must_use]
    pub fn new(graph: &CircuitGraph) -> Self {
        let n = graph.num_nodes();
        let order = Condensation::of(graph);
        Self {
            state: vec![UNREACHED; n],
            epoch: 0,
            pending: Bitmap::new(order.len()),
            order,
            heap: BinaryHeap::new(),
            component_heap: BinaryHeap::new(),
            visited: Vec::new(),
            net_count: vec![0; n],
            tree_list: Vec::new(),
            stats: DijkstraStats::default(),
        }
    }

    /// The work counters accumulated so far.
    #[must_use]
    pub fn stats(&self) -> DijkstraStats {
        self.stats
    }

    /// Returns the accumulated counters and resets them to zero.
    pub fn take_stats(&mut self) -> DijkstraStats {
        std::mem::take(&mut self.stats)
    }

    fn begin(&mut self, num_nodes: usize, length: &[f64]) {
        assert_eq!(
            num_nodes,
            self.state.len(),
            "a scratch runs over the graph it was made for"
        );
        assert_eq!(length.len(), num_nodes, "one length per net slot required");
        if self.epoch >= u32::MAX - 2 {
            // Epoch wrap-around: the next epoch would collide with marks
            // still in the arrays, so clear them once.
            self.state.fill(UNREACHED);
            self.epoch = 0;
        }
        self.epoch += 2;
        // These only hold entries after an abandoned (panicked) run.
        self.heap.clear();
        self.component_heap.clear();
        self.pending.clear();
        self.visited.clear();
        self.tree_list.clear();
    }

    /// Counts the finished run's tree into [`DijkstraStats`].
    fn end_run(&mut self) {
        let size = self.visited.len();
        self.stats.settled += size as u64;
        let bits = (usize::BITS - size.leading_zeros()) as usize;
        self.stats.tree_sizes[bits.min(31)] += 1;
    }

    /// Marks `v` settled: final distance fixed, parent final, tree-net
    /// branch accounting updated. Returns the length of `v`'s net, checked.
    #[inline(always)]
    fn settle(&mut self, v: usize, length: &[f64]) -> f64 {
        let state = &mut self.state[v];
        state.mark = self.epoch + 1;
        let p = state.parent;
        self.visited.push(CellId::from_index(v));
        self.net_count[v] = 0;
        if p != NO_PARENT {
            let count = &mut self.net_count[p as usize];
            if *count == 0 {
                self.tree_list.push(CellId::from_index(p as usize));
            }
            *count += 1;
        }
        // Checked in every build, not by a `debug_assert!`: a NaN admitted
        // in release corrupts the queue order silently. Once per settled
        // node; lengths of unreached nodes are never read.
        let l = length[v];
        assert!(
            l >= 0.0,
            "net length of node {v} must be non-negative and not NaN, got {l}"
        );
        l
    }

    /// Relaxes the branch from settled `node` to `w` at distance `nd`:
    /// the tie rule of both engines. Returns whether `w`'s distance
    /// improved to a finite value, i.e. whether `w` must be queued.
    #[inline(always)]
    fn relax(&mut self, node: u32, w: usize, nd: f64) -> bool {
        let epoch = self.epoch;
        let st = &mut self.state[w];
        if st.mark < epoch {
            // First touch this run: the stale slot reads as
            // (INFINITY, no parent), which any finite `nd` beats.
            *st = NodeState {
                dist: nd,
                parent: node,
                mark: epoch,
            };
            nd < f64::INFINITY
        } else if nd < st.dist {
            // Never true for a settled node: its distance is at most
            // the settling node's, and `nd` adds a non-negative length.
            st.dist = nd;
            st.parent = node;
            true
        } else {
            if nd == st.dist && st.mark == epoch && node < st.parent {
                // Equal distance: prefer the smaller parent net id among
                // the fanins settled so far (`NO_PARENT` loses to all).
                st.parent = node;
            }
            false
        }
    }

    /// Runs the reference binary-heap Dijkstra from `source`; results are
    /// readable until the next run via [`DijkstraScratch::distance`],
    /// [`DijkstraScratch::parent`], and [`DijkstraScratch::visited_order`].
    ///
    /// Its heap is keyed `(topological index, distance bits, node)`, so
    /// it pops in exactly the settle order [`DijkstraScratch::run_fast`]
    /// produces: the executable specification that engine is
    /// property-tested against. It pushes once per relaxation and once
    /// for the source, and pops every push, so its `heap_pops` equals
    /// `relaxations` plus the number of runs.
    ///
    /// # Panics
    ///
    /// Panics if `graph` is not the graph the scratch was made for,
    /// `length.len()` differs from the node count, or any length the
    /// search consumes is negative or NaN. Each length is checked once,
    /// when its node settles.
    pub fn run(&mut self, graph: &CircuitGraph, source: CellId, length: &[f64]) {
        self.begin(graph.num_nodes(), length);
        let epoch = self.epoch;
        let s = source.index();
        self.state[s] = NodeState {
            dist: 0.0,
            parent: NO_PARENT,
            mark: epoch,
        };
        self.heap.push(Reverse((self.order.topo[s], 0, s as u32)));
        while let Some(Reverse((_, key, node))) = self.heap.pop() {
            self.stats.heap_pops += 1;
            let v = node as usize;
            if self.state[v].mark != epoch {
                continue; // settled
            }
            let nd = f64::from_bits(key) + self.settle(v, length);
            for &w in graph.net(CellId::from_index(v)).sinks() {
                let wi = w.index();
                if self.relax(node, wi, nd) {
                    self.stats.relaxations += 1;
                    self.heap
                        .push(Reverse((self.order.topo[wi], nd.to_bits(), wi as u32)));
                }
            }
        }
        self.end_run();
    }

    /// Runs the component-ordered Dijkstra over the packed [`Csr`]
    /// adjacency — the `Saturate_Network` hot path.
    ///
    /// A bitmap over topological indices holds the components reached
    /// and not yet settled; the outer loop takes them smallest index
    /// first. A single-node component settles at once: every fanin is in
    /// an earlier component, so its tentative distance is final (a
    /// self-loop can never shorten a settled node). A cyclic component
    /// runs a heap Dijkstra, seeded with its members reached so far at
    /// their tentative distances. A relaxation inside the component
    /// pushes to that heap; one into a later component only sets that
    /// component's bit. Settle order, distances, parents, relaxations
    /// and tree sizes are bit-identical to [`DijkstraScratch::run`]. See
    /// `DESIGN.md` §13.
    ///
    /// # Panics
    ///
    /// As [`DijkstraScratch::run`]: a graph other than the scratch's,
    /// a length-vector size mismatch, or a negative/NaN length consumed
    /// by the search.
    pub fn run_fast(&mut self, csr: &Csr, source: CellId, length: &[f64]) {
        self.begin(csr.num_nodes(), length);
        let epoch = self.epoch;
        let s = source.index();
        self.state[s] = NodeState {
            dist: 0.0,
            parent: NO_PARENT,
            mark: epoch,
        };
        self.pending.insert(self.order.topo[s] as usize);
        let mut pops = 0u64;
        let mut relaxations = 0u64;
        let mut next = 0;
        while let Some(t) = self.pending.take_from(next) {
            pops += 1;
            next = t + 1;
            let members = self.order.range(t);
            if members.len() == 1 {
                let v = self.order.members[members.start] as usize;
                relaxations += self.settle_and_relax(csr, v, length, t);
                continue;
            }
            for i in members {
                let v = self.order.members[i];
                let st = self.state[v as usize];
                if st.mark == epoch && st.dist < f64::INFINITY {
                    self.component_heap.push(component_key(st.dist, v));
                }
            }
            while let Some(Reverse(key)) = self.component_heap.pop() {
                pops += 1;
                let v = key as u32 as usize; // the node id, below the distance
                if self.state[v].mark == epoch {
                    relaxations += self.settle_and_relax(csr, v, length, t);
                }
            }
        }
        self.stats.heap_pops += pops;
        self.stats.relaxations += relaxations;
        self.end_run();
    }

    /// Settles `v`, a node of the component at topological index `t`, and
    /// relaxes its branches: an improved sink in `t` goes into the
    /// component heap, one in a later component sets that component's bit.
    /// Returns the relaxations.
    #[inline(always)]
    fn settle_and_relax(&mut self, csr: &Csr, v: usize, length: &[f64], t: usize) -> u64 {
        let nd = self.state[v].dist + self.settle(v, length);
        let mut relaxations = 0;
        for &w in csr.sinks(CellId::from_index(v)) {
            let wi = w.index();
            if self.relax(v as u32, wi, nd) {
                relaxations += 1;
                let c = self.order.topo[wi] as usize;
                if c == t {
                    self.component_heap.push(component_key(nd, wi as u32));
                } else {
                    self.pending.insert(c);
                }
            }
        }
        relaxations
    }

    /// Distance of `node` from the last run's source (`INFINITY` when
    /// unreached).
    #[must_use]
    pub fn distance(&self, node: CellId) -> f64 {
        let st = self.state[node.index()];
        if st.mark >= self.epoch {
            st.dist
        } else {
            f64::INFINITY
        }
    }

    /// The tree parent net of `node`, if reached.
    #[must_use]
    pub fn parent(&self, node: CellId) -> Option<NetId> {
        let st = self.state[node.index()];
        (st.mark >= self.epoch && st.parent != NO_PARENT)
            .then(|| CellId::from_index(st.parent as usize))
    }

    /// Nodes settled by the last run, in settle order (source first).
    #[must_use]
    pub fn visited_order(&self) -> &[CellId] {
        &self.visited
    }

    /// The distinct nets of the last run's tree with their branch counts,
    /// in first-settled order — the allocation-free view the saturation
    /// loop folds its flow updates over. The order is deterministic; use
    /// [`DijkstraScratch::tree_nets`] for the sorted view.
    pub fn tree_net_counts(&self) -> impl Iterator<Item = (NetId, u32)> + '_ {
        self.tree_list
            .iter()
            .map(move |&n| (n, self.net_count[n.index()]))
    }

    /// The distinct nets used by the last run's tree (each net once,
    /// ascending id).
    #[must_use]
    pub fn tree_nets(&self) -> Vec<NetId> {
        let mut nets = self.tree_list.clone();
        nets.sort_unstable();
        nets
    }

    /// Per-net branch counts of the last run's tree, ascending net id.
    #[must_use]
    pub fn tree_net_branch_counts(&self) -> Vec<(NetId, usize)> {
        let mut out: Vec<(NetId, usize)> = self
            .tree_list
            .iter()
            .map(|&n| (n, self.net_count[n.index()] as usize))
            .collect();
        out.sort_unstable();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppet_netlist::data;

    fn s27_graph() -> CircuitGraph {
        CircuitGraph::from_circuit(&data::s27())
    }

    /// A fresh production-engine tree from `source`.
    fn fast_tree(g: &CircuitGraph, source: CellId, length: &[f64]) -> DijkstraScratch {
        let mut scratch = DijkstraScratch::new(g);
        scratch.run_fast(g.csr(), source, length);
        scratch
    }

    /// Asserts that one reference run and one production run (each on a
    /// fresh scratch) found the same tree in the same settle order with
    /// the same work, the pops aside: the two engines pop different
    /// queues, and the reference pops exactly its pushes.
    fn assert_same_run(g: &CircuitGraph, reference: &DijkstraScratch, fast: &DijkstraScratch) {
        assert_eq!(reference.visited_order(), fast.visited_order());
        let (r, f) = (reference.stats(), fast.stats());
        assert_eq!(
            r.heap_pops,
            r.relaxations + 1,
            "one push per relaxation and source"
        );
        assert_eq!(
            (r.relaxations, r.settled, r.tree_sizes),
            (f.relaxations, f.settled, f.tree_sizes)
        );
        for v in g.nodes() {
            assert_eq!(
                reference.distance(v).to_bits(),
                fast.distance(v).to_bits(),
                "node {v}"
            );
            assert_eq!(reference.parent(v), fast.parent(v), "node {v}");
        }
        assert_eq!(reference.tree_nets(), fast.tree_nets());
        assert_eq!(
            reference.tree_net_branch_counts(),
            fast.tree_net_branch_counts()
        );
    }

    #[test]
    fn source_distance_zero_and_unreachable_infinite() {
        let g = s27_graph();
        let unit = vec![1.0; g.num_nodes()];
        let src = g.find("G9").unwrap();
        let spt = fast_tree(&g, src, &unit);
        assert_eq!(spt.distance(src), 0.0);
        // Primary inputs are unreachable from internal nodes.
        assert!(spt.distance(g.find("G0").unwrap()).is_infinite());
    }

    #[test]
    fn tree_parent_edges_are_consistent() {
        let g = s27_graph();
        let unit = vec![1.0; g.num_nodes()];
        let spt = fast_tree(&g, g.find("G0").unwrap(), &unit);
        for v in g.nodes() {
            if let Some(p) = spt.parent(v) {
                // The parent net's branch must land on v and distances must
                // satisfy the tree equality.
                assert!(g.net(p).sinks().contains(&v));
                let d_parent = spt.distance(p);
                assert!((spt.distance(v) - (d_parent + unit[p.index()])).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn matches_bellman_ford_distances() {
        let g = s27_graph();
        // Varied lengths: net i has length (i % 5) + 0.5.
        let lengths: Vec<f64> = (0..g.num_nodes()).map(|i| (i % 5) as f64 + 0.5).collect();
        for src in g.nodes() {
            let spt = fast_tree(&g, src, &lengths);
            // Reference: Bellman-Ford relaxation.
            let mut dist = vec![f64::INFINITY; g.num_nodes()];
            dist[src.index()] = 0.0;
            for _ in 0..g.num_nodes() {
                for b in g.branches() {
                    let nd = dist[b.src.index()] + lengths[b.net.index()];
                    if nd < dist[b.sink.index()] {
                        dist[b.sink.index()] = nd;
                    }
                }
            }
            for v in g.nodes() {
                let a = spt.distance(v);
                let b = dist[v.index()];
                assert!(
                    (a.is_infinite() && b.is_infinite()) || (a - b).abs() < 1e-9,
                    "src {src} node {v}: {a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn deterministic_tree() {
        let g = s27_graph();
        let unit = vec![1.0; g.num_nodes()];
        let a = fast_tree(&g, g.find("G1").unwrap(), &unit);
        let b = fast_tree(&g, g.find("G1").unwrap(), &unit);
        for v in g.nodes() {
            assert_eq!(a.parent(v), b.parent(v));
        }
    }

    #[test]
    fn tree_nets_deduplicate() {
        let g = s27_graph();
        let unit = vec![1.0; g.num_nodes()];
        let spt = fast_tree(&g, g.find("G0").unwrap(), &unit);
        let nets = spt.tree_nets();
        let mut sorted = nets.clone();
        sorted.dedup();
        assert_eq!(nets, sorted);
        let per_branch = spt.tree_net_branch_counts();
        let total: usize = per_branch.iter().map(|(_, c)| c).sum();
        let used_branches = g.nodes().filter_map(|v| spt.parent(v)).count();
        assert_eq!(total, used_branches);
    }

    #[test]
    fn tree_net_counts_agree_with_sorted_views() {
        let g = s27_graph();
        let unit = vec![1.0; g.num_nodes()];
        let mut scratch = DijkstraScratch::new(&g);
        scratch.run_fast(g.csr(), g.find("G0").unwrap(), &unit);
        let mut from_iter: Vec<(NetId, usize)> = scratch
            .tree_net_counts()
            .map(|(n, c)| (n, c as usize))
            .collect();
        from_iter.sort_unstable();
        assert_eq!(from_iter, scratch.tree_net_branch_counts());
    }

    #[test]
    fn csr_run_matches_reference_exactly() {
        let g = s27_graph();
        let lengths: Vec<f64> = (0..g.num_nodes()).map(|i| (i % 7) as f64 * 0.5).collect();
        for src in g.nodes() {
            let mut a = DijkstraScratch::new(&g);
            a.run(&g, src, &lengths);
            assert_same_run(&g, &a, &fast_tree(&g, src, &lengths));
        }
    }

    #[test]
    fn slot_queue_run_matches_reference_exactly() {
        let g = s27_graph();
        // A coarse grid with zeros to force distance ties and absorption-
        // style equal keys — the cases a sloppy drain order would break.
        let lengths: Vec<f64> = (0..g.num_nodes()).map(|i| (i % 4) as f64 * 0.5).collect();
        for src in g.nodes() {
            let mut a = DijkstraScratch::new(&g);
            a.run(&g, src, &lengths);
            // Bit-identical in every observable, settle order included:
            // the bitmap takes components in topological order and the
            // component heap drains one in the reference's (distance,
            // node) order.
            assert_same_run(&g, &a, &fast_tree(&g, src, &lengths));
        }
    }

    #[test]
    fn slot_queue_handles_clamped_congestion_range() {
        let g = s27_graph();
        // Clamped-congestion-sized lengths span the whole f64 exponent
        // range; the heap's bit-pattern keys must order all of it.
        let mut lengths = vec![1.0; g.num_nodes()];
        let src = g.find("G9").unwrap();
        lengths[src.index()] = 1e300;
        lengths[g.find("G0").unwrap().index()] = 1e-12;
        let mut a = DijkstraScratch::new(&g);
        a.run(&g, src, &lengths);
        assert_same_run(&g, &a, &fast_tree(&g, src, &lengths));
    }

    #[test]
    fn a_fanin_in_an_earlier_component_counts_on_an_absorbed_tie() {
        // s → x → w and s → m → u → w, where u's length vanishes next to
        // H (H + 1 == H): x and u both reach w at exactly H. u sits in an
        // earlier component than w, so it settles first and, as the
        // smaller id, becomes w's parent. A global (distance, node) order
        // would settle w (id 0) before u (id 1) and leave it x's.
        use ppet_netlist::{CellKind, Circuit};
        let mut c = Circuit::new("tie");
        let cells = [
            ("w", CellKind::Or),
            ("u", CellKind::Buf),
            ("x", CellKind::Buf),
            ("s", CellKind::Input),
            ("m", CellKind::Buf),
        ]
        .map(|(name, kind)| c.add_cell_deferred(name, kind).unwrap());
        let [w, u, x, s, m] = cells;
        c.set_fanin(w, vec![x, u]).unwrap();
        c.set_fanin(u, vec![m]).unwrap();
        c.set_fanin(x, vec![s]).unwrap();
        c.set_fanin(m, vec![s]).unwrap();
        c.mark_output(w).unwrap();
        let g = CircuitGraph::from_circuit(&c);
        const H: f64 = 1e20;
        assert_eq!(H + 1.0, H);
        let mut lengths = vec![1.0; g.num_nodes()];
        lengths[x.index()] = H;
        lengths[m.index()] = H;
        let fast = fast_tree(&g, s, &lengths);
        assert_eq!(fast.distance(w), H);
        assert_eq!(fast.distance(u), H);
        assert_eq!(fast.parent(w), Some(u));
        let mut reference = DijkstraScratch::new(&g);
        reference.run(&g, s, &lengths);
        assert_same_run(&g, &reference, &fast);
    }

    #[test]
    fn stats_accumulate_and_reset() {
        let g = s27_graph();
        let unit = vec![1.0; g.num_nodes()];
        let mut scratch = DijkstraScratch::new(&g);
        scratch.run(&g, g.find("G0").unwrap(), &unit);
        let one = scratch.stats();
        assert!(one.heap_pops >= one.settled);
        assert!(one.settled >= 2);
        assert!(one.relaxations >= one.settled - 1);
        assert_eq!(one.settled, scratch.visited_order().len() as u64);
        let bits = (u64::BITS - one.settled.leading_zeros()) as usize;
        assert_eq!(one.tree_sizes.iter().sum::<u64>(), 1);
        assert_eq!(one.tree_sizes[bits], 1, "one tree of {} nodes", one.settled);

        scratch.run(&g, g.find("G0").unwrap(), &unit);
        let two = scratch.stats();
        assert_eq!(
            two.heap_pops,
            2 * one.heap_pops,
            "identical runs add equal work"
        );

        assert_eq!(scratch.take_stats(), two);
        assert_eq!(scratch.stats(), DijkstraStats::default());
    }

    #[test]
    fn epoch_wrap_around_matches_a_fresh_scratch() {
        // Runs straddling the epoch wrap must agree with a fresh scratch:
        // without the reset, marks written just before the wrap would read
        // as "reached" or "settled" in the first epochs after it. Both
        // engines share the state array, so alternate them.
        let g = s27_graph();
        let lengths: Vec<f64> = (0..g.num_nodes()).map(|i| (i % 4) as f64 * 0.5).collect();
        let mut scratch = DijkstraScratch::new(&g);
        scratch.epoch = u32::MAX - 7;
        for (i, src) in g.nodes().chain(g.nodes()).enumerate() {
            let mut fresh = DijkstraScratch::new(&g);
            if i % 2 == 0 {
                scratch.run_fast(g.csr(), src, &lengths);
                fresh.run_fast(g.csr(), src, &lengths);
            } else {
                scratch.run(&g, src, &lengths);
                fresh.run(&g, src, &lengths);
            }
            assert_eq!(scratch.visited_order(), fresh.visited_order(), "run {i}");
            for v in g.nodes() {
                assert_eq!(
                    scratch.distance(v).to_bits(),
                    fresh.distance(v).to_bits(),
                    "run {i} node {v}"
                );
                assert_eq!(scratch.parent(v), fresh.parent(v), "run {i} node {v}");
            }
            assert_eq!(
                scratch.tree_net_branch_counts(),
                fresh.tree_net_branch_counts(),
                "run {i}"
            );
        }
        assert!(scratch.epoch < 100, "the runs never crossed the wrap");
    }

    /// Saturates `g` the way `ppet_flow::saturate_network` does under
    /// `FlowParams::paper()` (capacity 1, Δ = 0.01, α = 4, min_visit = 20
    /// rounds of shuffled sources, per-net accounting, exponent clamped
    /// at 700), with `scratch` as the engine. Returns the final net
    /// lengths, the most pushes one run made (its relaxations plus the
    /// source), and which exponents the settled distances had.
    fn saturate_paper(
        scratch: &mut DijkstraScratch,
        g: &CircuitGraph,
    ) -> (Vec<f64>, u64, Vec<bool>) {
        use ppet_prng::{Rng, Xoshiro256PlusPlus};
        const DELTA: f64 = 0.01;
        const ALPHA: f64 = 4.0;
        const MIN_VISIT: u32 = 20;
        const MAX_EXPONENT: f64 = 700.0;
        let n = g.num_nodes();
        let mut rng = Xoshiro256PlusPlus::seed_from(1);
        let mut length = vec![1.0f64; n];
        let mut flow = vec![0.0f64; n];
        let mut order: Vec<CellId> = g.nodes().collect();
        let mut max_pushes = 0;
        let mut touched = vec![false; 1 << 11];
        for v in (0..=MIN_VISIT).flat_map(|_| {
            rng.shuffle(&mut order);
            order.clone()
        }) {
            let before = scratch.stats().relaxations;
            scratch.run_fast(g.csr(), v, &length);
            max_pushes = max_pushes.max(scratch.stats().relaxations - before + 1);
            for &u in scratch.visited_order() {
                touched[(scratch.distance(u).to_bits() >> 52) as usize] = true;
            }
            for (net, _) in scratch.tree_net_counts() {
                let i = net.index();
                flow[i] += DELTA;
                length[i] = (ALPHA * flow[i]).min(MAX_EXPONENT).exp();
            }
        }
        (length, max_pushes, touched)
    }

    /// The Table-9 stand-in `name`, as the compiler synthesizes it.
    fn table9_graph(name: &str) -> CircuitGraph {
        let record = data::table9::find(name).expect("stand-in");
        CircuitGraph::from_circuit(
            &ppet_netlist::Synthesizer::new(ppet_netlist::synth::calibrated_spec(record, 0))
                .build(),
        )
    }

    #[test]
    fn slot_queue_memory_is_bounded_by_tree_size_not_key_range() {
        let g = table9_graph("s1423");
        let mut scratch = DijkstraScratch::new(&g);
        let (length, max_pushes, touched) = saturate_paper(&mut scratch, &g);
        let retained_bytes = |scratch: &DijkstraScratch| {
            scratch.component_heap.capacity() * std::mem::size_of::<Reverse<u128>>()
        };
        // 16 B per entry, doubled for the heap's growth; no fixed part.
        let bound = 2 * 16 * (max_pushes as usize + 1);
        let after_saturation = retained_bytes(&scratch);
        assert!(
            after_saturation <= bound,
            "{after_saturation} B retained, bound {bound} B ({max_pushes} pushes)"
        );

        // Replaying trees with each length scaled by 2^-100k is exact (no
        // length or sum leaves the normal range), so the heap does the
        // same work with every key's exponent 100k lower: largely
        // exponents the saturation never reached. What it retains must
        // not change.
        let replay = |scratch: &mut DijkstraScratch, k: i32, seen: &mut Vec<bool>| {
            let scaled: Vec<f64> = length.iter().map(|&l| l * 0.5f64.powi(100 * k)).collect();
            let before = scratch.take_stats();
            for src in g.nodes() {
                scratch.run_fast(g.csr(), src, &scaled);
                for &u in scratch.visited_order() {
                    seen[(scratch.distance(u).to_bits() >> 52) as usize] = true;
                }
            }
            std::mem::replace(&mut scratch.stats, before)
        };
        let mut seen = touched;
        let work = replay(&mut scratch, 0, &mut seen);
        let retained = retained_bytes(&scratch);
        let exps_before = seen.iter().filter(|&&t| t).count();
        for k in 1..=10 {
            assert_eq!(work, replay(&mut scratch, k, &mut seen), "2^-{}", 100 * k);
        }
        let exps_after = seen.iter().filter(|&&t| t).count();
        assert!(
            exps_after >= exps_before + 500,
            "the replays reached few new exponents: {exps_before} -> {exps_after}"
        );
        assert_eq!(
            retained_bytes(&scratch),
            retained,
            "retained bytes grew with the exponents reached ({exps_before} -> {exps_after})"
        );
    }

    #[test]
    fn scratch_reused_after_a_panicked_run_matches_a_fresh_one() {
        // A NaN length panics `run_fast` mid-search: once on a node of a
        // cyclic component, with several entries still in the component
        // heap, and once on a single-node component; both times with later
        // components' bits still set. The next run must sweep them (the
        // paths a completed run never takes) and find the same tree as a
        // fresh scratch.
        let g = table9_graph("s510");
        let lengths: Vec<f64> = (0..g.num_nodes()).map(|i| (i % 9) as f64 * 0.75).collect();
        let src = g.nodes().next().unwrap();
        let good = fast_tree(&g, src, &lengths);
        // The middle settle of the largest cyclic component, and the
        // middle settle among single-node components.
        let order = &good.order;
        let size = |v: &CellId| order.range(order.topo[v.index()] as usize).len();
        let largest = good.visited_order().iter().map(size).max().unwrap();
        assert!(largest > 1, "the tree reaches no cycle");
        let (cyclic, acyclic): (Vec<CellId>, Vec<CellId>) = good
            .visited_order()
            .iter()
            .filter(|v| [1, largest].contains(&size(v)))
            .partition(|v| size(v) > 1);
        for (poison, on_cycle) in [
            (cyclic[cyclic.len() / 2], true),
            (acyclic[acyclic.len() / 2], false),
        ] {
            let mut poisoned = lengths.clone();
            poisoned[poison.index()] = f64::NAN;
            let mut scratch = DijkstraScratch::new(&g);
            let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                scratch.run_fast(g.csr(), src, &poisoned);
            }));
            assert!(panicked.is_err(), "the NaN length was never consumed");
            assert!(
                !scratch.pending.is_empty(),
                "no component bit set at the panic on {poison}"
            );
            if on_cycle {
                let queued = scratch.component_heap.len();
                assert!(queued > 1, "only {queued} entries queued at the panic");
            }

            for source in [src, g.nodes().nth(7).unwrap()] {
                scratch.run_fast(g.csr(), source, &lengths);
                let fresh = fast_tree(&g, source, &lengths);
                assert_eq!(scratch.visited_order(), fresh.visited_order());
                assert_eq!(scratch.take_stats(), fresh.stats());
                for v in g.nodes() {
                    assert_eq!(scratch.distance(v).to_bits(), fresh.distance(v).to_bits());
                    assert_eq!(scratch.parent(v), fresh.parent(v));
                }
                assert_eq!(
                    scratch.tree_net_branch_counts(),
                    fresh.tree_net_branch_counts()
                );
            }
        }
    }

    // The `*_rejected*` tests below are regression tests for a release-mode
    // hole: the length check used to be a `debug_assert!`, so `--release`
    // builds accepted NaN (and negative) lengths and silently corrupted the
    // queue order. CI runs them under the release profile as well, for the
    // reference and for the production engine, with the bad length on the
    // source (a single-node component, settled without a queue) and on a
    // node of a cyclic component (settled from the component heap).

    /// s27's `G11`: a node of its sequential core, settled mid-tree by a
    /// run from `G0`.
    fn s27_cyclic_node(g: &CircuitGraph) -> CellId {
        let v = g.find("G11").unwrap();
        let order = Condensation::of(g);
        assert!(order.range(order.topo[v.index()] as usize).len() > 1);
        let unit = vec![1.0; g.num_nodes()];
        assert!(fast_tree(g, g.find("G0").unwrap(), &unit).distance(v) > 0.0);
        v
    }

    #[test]
    #[should_panic(expected = "not NaN")]
    fn nan_length_on_a_cyclic_node_rejected() {
        let g = s27_graph();
        let mut lengths = vec![1.0; g.num_nodes()];
        lengths[s27_cyclic_node(&g).index()] = f64::NAN;
        let mut scratch = DijkstraScratch::new(&g);
        scratch.run(&g, g.find("G0").unwrap(), &lengths);
    }

    #[test]
    #[should_panic(expected = "not NaN")]
    fn nan_length_on_a_cyclic_node_rejected_by_fast_run() {
        let g = s27_graph();
        let mut lengths = vec![1.0; g.num_nodes()];
        lengths[s27_cyclic_node(&g).index()] = f64::NAN;
        let _ = fast_tree(&g, g.find("G0").unwrap(), &lengths);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_length_rejected() {
        let g = s27_graph();
        let src = g.find("G0").unwrap();
        let mut lengths = vec![1.0; g.num_nodes()];
        lengths[src.index()] = -1.0; // the source always settles first
        let mut scratch = DijkstraScratch::new(&g);
        scratch.run(&g, src, &lengths);
    }

    #[test]
    #[should_panic(expected = "not NaN")]
    fn nan_length_rejected() {
        let g = s27_graph();
        let src = g.find("G0").unwrap();
        let mut lengths = vec![1.0; g.num_nodes()];
        lengths[src.index()] = f64::NAN;
        let mut scratch = DijkstraScratch::new(&g);
        scratch.run(&g, src, &lengths);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn slot_queue_rejects_negative_lengths() {
        let g = s27_graph();
        let src = g.find("G0").unwrap();
        let mut lengths = vec![1.0; g.num_nodes()];
        lengths[src.index()] = -0.5; // the source always settles first
        let mut scratch = DijkstraScratch::new(&g);
        scratch.run_fast(g.csr(), src, &lengths);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_length_rejected_by_fast_run() {
        let g = s27_graph();
        let src = g.find("G0").unwrap();
        let mut lengths = vec![1.0; g.num_nodes()];
        lengths[src.index()] = -1.0;
        let _ = fast_tree(&g, src, &lengths);
    }

    #[test]
    #[should_panic(expected = "not NaN")]
    fn nan_length_rejected_by_fast_run() {
        let g = s27_graph();
        let src = g.find("G0").unwrap();
        let mut lengths = vec![1.0; g.num_nodes()];
        lengths[src.index()] = f64::NAN;
        let _ = fast_tree(&g, src, &lengths);
    }
}
