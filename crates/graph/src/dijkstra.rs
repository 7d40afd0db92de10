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
//! reaches it at its final distance.
//!
//! A [`DijkstraScratch`] renumbers the graph once, into **condensation
//! positions**: components in topological order, node ids ascending
//! inside each. Two engines settle in the order above:
//!
//! * [`DijkstraScratch::run`] — the **reference**: a `BinaryHeap` keyed
//!   `(component, distance bits, node)` over the pointer-rich
//!   [`CircuitGraph`] adjacency, with node-indexed lengths. Kept as the
//!   executable specification the property tests compare against.
//! * [`DijkstraScratch::run_fast`] — the **saturation hot path**, entirely
//!   in position space: its lengths are indexed by position, and it walks
//!   a sink CSR of positions. A bitmap over positions drives the outer
//!   loop; a cyclic component drains a `BinaryHeap` of its own, keyed by
//!   the distance bits above the position. For non-negative doubles the
//!   bit pattern orders like the value, and inside a component position
//!   order is id order, so the heap pops in the reference's
//!   `(distance, node)` order. Distances, parents, settle order,
//!   relaxations and tree sizes are bit-identical to the reference; only
//!   the pop counts differ. See `DESIGN.md` §13.
//!
//! Both engines keep their per-node search state in one lazily stamped
//! array ([`DijkstraScratch`]), so a tree never pays to reset the nodes
//! it does not reach.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use ppet_netlist::{CellId, NetId};

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

    /// Removes and returns the smallest set index in `from..end`.
    #[inline(always)]
    fn take(&mut self, from: usize, end: usize) -> Option<usize> {
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
        if i >= end {
            return None;
        }
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

/// The graph renumbered in condensation order: the SCC components in
/// topological order, node ids ascending inside each. [`Scc::of`]
/// numbers components in reverse topological order, so they are laid
/// out from the highest component id down, and every branch leaving a
/// component points to a higher position.
#[derive(Debug, Clone)]
struct Layout {
    /// Position of each node, indexed by node id.
    position: Vec<u32>,
    /// Node id at each position.
    node: Vec<u32>,
    /// The sinks of the net at position `p`, as positions:
    /// `sink_adj[sink_off[p]..sink_off[p + 1]]`, in the graph's pin order.
    sink_off: Vec<u32>,
    sink_adj: Vec<u32>,
    /// Per position, `end << 1 | cyclic` of its component: one past the
    /// component's last position, and whether it has more than one
    /// member. A component's `end` orders it as its topological index
    /// does.
    component: Vec<u32>,
}

impl Layout {
    fn of(graph: &CircuitGraph, scc: &Scc) -> Self {
        let n = graph.num_nodes();
        assert!(n < 1 << 31, "{n} nodes leave no bit for the cyclic flag");
        let mut position = vec![0; n];
        let mut node = Vec::with_capacity(n);
        let mut component = Vec::with_capacity(n);
        for members in scc.components().iter().rev() {
            let end = (node.len() + members.len()) as u32;
            let cyclic = u32::from(members.len() > 1);
            for &v in members {
                position[v.index()] = node.len() as u32;
                node.push(v.index() as u32);
                component.push(end << 1 | cyclic);
            }
        }
        assert_eq!(node.len(), n, "the SCC decomposition is of another graph");
        let csr = graph.csr();
        let mut sink_off = Vec::with_capacity(n + 1);
        let mut sink_adj = Vec::with_capacity(csr.num_branches());
        sink_off.push(0);
        for &v in &node {
            let sinks = csr.sinks(CellId::from_index(v as usize));
            sink_adj.extend(sinks.iter().map(|w| position[w.index()]));
            sink_off.push(sink_adj.len() as u32);
        }
        Self {
            position,
            node,
            sink_off,
            sink_adj,
            component,
        }
    }
}

/// The component heap's key for position `p` at `dist`: the distance
/// bits above the position, so it orders as `(distance, node)` does
/// inside one component (the bits of a non-negative double order like
/// its value). One 128-bit compare is cheaper than a tuple's two.
#[inline(always)]
fn component_key(dist: f64, p: u32) -> Reverse<u128> {
    Reverse(u128::from(dist.to_bits()) << 32 | u128::from(p))
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
    /// Position of the parent net's driver, [`NO_PARENT`] for the source.
    parent: u32,
    mark: u32,
}

const NO_PARENT: u32 = u32::MAX;

const UNREACHED: NodeState = NodeState {
    dist: f64::INFINITY,
    parent: NO_PARENT,
    mark: 0,
};

/// Relaxes the branch from settled position `from` to the node whose
/// state is `st`, at distance `nd`: the tie rule of both engines.
/// Returns whether the node's distance improved to a finite value, i.e.
/// whether it must be queued. `node` maps positions to node ids.
#[inline(always)]
fn relax(st: &mut NodeState, epoch: u32, from: u32, nd: f64, node: &[u32]) -> bool {
    if st.mark < epoch {
        // First touch this run: the stale slot reads as
        // (INFINITY, no parent), which any finite `nd` beats.
        *st = NodeState {
            dist: nd,
            parent: from,
            mark: epoch,
        };
        nd < f64::INFINITY
    } else if nd < st.dist {
        // Never true for a settled node: its distance is at most
        // the settling node's, and `nd` adds a non-negative length.
        st.dist = nd;
        st.parent = from;
        true
    } else {
        // Equal distance: prefer the smaller parent net id among the
        // fanins settled so far (`NO_PARENT` loses to all). Ids, not
        // positions: the fanins may sit in different components.
        if nd == st.dist
            && st.mark == epoch
            && node
                .get(st.parent as usize)
                .map_or(true, |&p| node[from as usize] < p)
        {
            st.parent = from;
        }
        false
    }
}

/// Reusable work buffers for repeated shortest-path-tree computations
/// over one graph.
///
/// `Saturate_Network` runs tens of thousands of Dijkstra trees over the
/// same graph. The scratch lays the graph out in condensation positions
/// once, when it is made, and keeps one 16-byte state slot per position
/// (distance, parent, epoch mark) alive across runs, invalidating it
/// lazily: each run advances an epoch, and a slot whose mark predates
/// it reads as unreached. Nothing is refilled per tree, so a run
/// touching `k` nodes costs `O(k)`-ish regardless of `|V|`, and the
/// tree's per-net branch counts are accumulated *while nodes settle* — no
/// post-pass allocation or sort on the hot path.
///
/// # Examples
///
/// ```
/// use ppet_graph::{dijkstra::DijkstraScratch, scc::Scc, CircuitGraph};
/// use ppet_netlist::data;
///
/// let g = CircuitGraph::from_circuit(&data::s27());
/// let mut scratch = DijkstraScratch::new(&g, &Scc::of(&g));
/// let unit = vec![1.0; g.num_nodes()]; // the same in any order
/// scratch.run_fast(g.find("G0").unwrap(), &unit);
/// let visited = scratch.visited_order().len();
/// assert!(visited >= 2);
/// ```
#[derive(Debug, Clone)]
pub struct DijkstraScratch {
    layout: Layout,
    /// Search state, indexed by position.
    state: Vec<NodeState>,
    /// Always even; advanced by two per run (see [`NodeState`]).
    epoch: u32,
    /// The reference's queue: `(component end, distance bits, node)`,
    /// smallest first.
    heap: BinaryHeap<Reverse<(u32, u64, u32)>>,
    /// The production engine's positions to settle: every one reached
    /// with a finite distance, not yet settled and not in a component
    /// heap.
    pending: Bitmap,
    /// The production engine's queue inside one cyclic component:
    /// [`component_key`]s, smallest first.
    component_heap: BinaryHeap<Reverse<u128>>,
    /// Positions settled by the last run, in settle order.
    visited: Vec<u32>,
    /// Branches of each net in the last run's tree, by the position of
    /// its driver; a slot is reset when its driver settles, which
    /// precedes every branch it feeds.
    net_count: Vec<u32>,
    /// Positions of the last run's tree nets, in first-settled order.
    tree_list: Vec<u32>,
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
    /// per component it settles (a cyclic component's first reached
    /// position), plus the component-heap entries (seeds and
    /// relaxations) of the cyclic ones.
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
    /// Creates buffers for trees over `graph`, laid out in the
    /// condensation order of `scc`, which must be `graph`'s SCC
    /// decomposition ([`Scc::of`]). Every run must be over the same graph.
    ///
    /// # Panics
    ///
    /// Panics if `scc` does not cover exactly `graph`'s nodes.
    #[must_use]
    pub fn new(graph: &CircuitGraph, scc: &Scc) -> Self {
        let n = graph.num_nodes();
        Self {
            layout: Layout::of(graph, scc),
            state: vec![UNREACHED; n],
            epoch: 0,
            heap: BinaryHeap::new(),
            pending: Bitmap::new(n),
            component_heap: BinaryHeap::new(),
            visited: Vec::new(),
            net_count: vec![0; n],
            tree_list: Vec::new(),
            stats: DijkstraStats::default(),
        }
    }

    /// The condensation position of `node`: the index of its slot in
    /// [`DijkstraScratch::run_fast`]'s lengths.
    #[must_use]
    pub fn position(&self, node: CellId) -> usize {
        self.layout.position[node.index()] as usize
    }

    /// `by_node` (indexed by node id) reordered by condensation position.
    #[must_use]
    pub fn by_position<T: Copy>(&self, by_node: &[T]) -> Vec<T> {
        self.layout
            .node
            .iter()
            .map(|&v| by_node[v as usize])
            .collect()
    }

    /// `by_position` (indexed by condensation position) reordered by node
    /// id: the inverse of [`DijkstraScratch::by_position`].
    #[must_use]
    pub fn by_node<T: Copy>(&self, by_position: &[T]) -> Vec<T> {
        self.layout
            .position
            .iter()
            .map(|&p| by_position[p as usize])
            .collect()
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

    fn begin(&mut self, length: &[f64]) {
        assert_eq!(
            length.len(),
            self.state.len(),
            "one length per net slot required"
        );
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

    /// Marks position `v` settled: final distance fixed, parent final,
    /// tree-net branch accounting updated. Returns `l`, the length of
    /// `v`'s net, checked.
    #[inline(always)]
    fn settle(&mut self, v: usize, l: f64) -> f64 {
        let state = &mut self.state[v];
        state.mark = self.epoch + 1;
        let p = state.parent;
        self.visited.push(v as u32);
        self.net_count[v] = 0;
        if p != NO_PARENT {
            let count = &mut self.net_count[p as usize];
            if *count == 0 {
                self.tree_list.push(p);
            }
            *count += 1;
        }
        // Checked in every build, not by a `debug_assert!`: a NaN admitted
        // in release corrupts the queue order silently. Once per settled
        // node; lengths of unreached nodes are never read.
        assert!(
            l >= 0.0,
            "net length of node {} must be non-negative and not NaN, got {l}",
            self.layout.node[v]
        );
        l
    }

    /// Runs the reference binary-heap Dijkstra from `source`, with
    /// `length` indexed by node id; results are readable until the next
    /// run via [`DijkstraScratch::distance`], [`DijkstraScratch::parent`],
    /// and [`DijkstraScratch::visited_order`].
    ///
    /// Its heap is keyed `(component, distance bits, node)`, so it pops in
    /// exactly the settle order [`DijkstraScratch::run_fast`] produces:
    /// the executable specification that engine is property-tested
    /// against. It pushes once per relaxation and once for the source,
    /// and pops every push, so its `heap_pops` equals `relaxations` plus
    /// the number of runs.
    ///
    /// # Panics
    ///
    /// Panics if `graph` is not the graph the scratch was made for,
    /// `length.len()` differs from the node count, or any length the
    /// search consumes is negative or NaN. Each length is checked once,
    /// when its node settles.
    pub fn run(&mut self, graph: &CircuitGraph, source: CellId, length: &[f64]) {
        assert_eq!(
            graph.num_nodes(),
            self.state.len(),
            "a scratch runs over the graph it was made for"
        );
        self.begin(length);
        let epoch = self.epoch;
        let s = self.position(source);
        self.state[s] = NodeState {
            dist: 0.0,
            parent: NO_PARENT,
            mark: epoch,
        };
        self.heap.push(Reverse((
            self.layout.component[s] >> 1,
            0,
            source.index() as u32,
        )));
        while let Some(Reverse((_, key, node))) = self.heap.pop() {
            self.stats.heap_pops += 1;
            let v = self.layout.position[node as usize] as usize;
            if self.state[v].mark != epoch {
                continue; // settled
            }
            let nd = f64::from_bits(key) + self.settle(v, length[node as usize]);
            for &w in graph.net(CellId::from_index(node as usize)).sinks() {
                let wp = self.layout.position[w.index()] as usize;
                if relax(&mut self.state[wp], epoch, v as u32, nd, &self.layout.node) {
                    self.stats.relaxations += 1;
                    self.heap.push(Reverse((
                        self.layout.component[wp] >> 1,
                        nd.to_bits(),
                        w.index() as u32,
                    )));
                }
            }
        }
        self.end_run();
    }

    /// Runs the component-ordered Dijkstra from `source` over the
    /// scratch's position-space adjacency — the `Saturate_Network` hot
    /// path. `length[p]` is the length of the net at condensation
    /// position `p` ([`DijkstraScratch::position`],
    /// [`DijkstraScratch::by_position`]).
    ///
    /// A bitmap over positions holds the nodes reached at a finite
    /// distance and not yet settled; the outer loop takes the smallest
    /// first. A single-node component settles at once: every fanin is in
    /// an earlier component, so its tentative distance is final (a
    /// self-loop can never shorten a settled node). A cyclic component,
    /// whichever member it is first reached at, runs a heap Dijkstra
    /// seeded with its set bits at their tentative distances. A
    /// relaxation inside the component pushes to that heap; one into a
    /// later component only sets that position's bit. Settle order,
    /// distances, parents, relaxations and tree sizes are bit-identical
    /// to [`DijkstraScratch::run`]. See `DESIGN.md` §13.
    ///
    /// # Panics
    ///
    /// As [`DijkstraScratch::run`]: a length-vector size mismatch, or a
    /// negative/NaN length consumed by the search.
    pub fn run_fast(&mut self, source: CellId, length: &[f64]) {
        self.begin(length);
        let epoch = self.epoch;
        let n = self.state.len();
        let s = self.position(source);
        self.state[s] = NodeState {
            dist: 0.0,
            parent: NO_PARENT,
            mark: epoch,
        };
        self.pending.insert(s);
        let mut pops = 0u64;
        let mut relaxations = 0u64;
        let mut next = 0;
        while let Some(p) = self.pending.take(next, n) {
            pops += 1;
            let component = self.layout.component[p];
            let end = (component >> 1) as usize;
            next = end;
            if component & 1 == 0 {
                relaxations += self.settle_and_relax(p, end, length);
                continue;
            }
            // Not `end == p + 1`: a cyclic component can be first reached
            // at its last position. Seed its heap with every member
            // reached so far: `p` and the set bits after it.
            let mut q = p;
            loop {
                self.component_heap
                    .push(component_key(self.state[q].dist, q as u32));
                match self.pending.take(q + 1, end) {
                    Some(r) => q = r,
                    None => break,
                }
            }
            while let Some(Reverse(key)) = self.component_heap.pop() {
                pops += 1;
                let v = key as u32 as usize; // the position, below the distance
                if self.state[v].mark == epoch {
                    relaxations += self.settle_and_relax(v, end, length);
                }
            }
        }
        self.stats.heap_pops += pops;
        self.stats.relaxations += relaxations;
        self.end_run();
    }

    /// Settles position `v`, of the component ending at `end`, and
    /// relaxes its branches: an improved sink before `end` goes into the
    /// component heap, a later one sets its bit. Returns the relaxations.
    #[inline(always)]
    fn settle_and_relax(&mut self, v: usize, end: usize, length: &[f64]) -> u64 {
        let nd = self.state[v].dist + self.settle(v, length[v]);
        let Self {
            layout,
            state,
            epoch,
            pending,
            component_heap,
            ..
        } = self;
        let sinks = &layout.sink_adj[layout.sink_off[v] as usize..layout.sink_off[v + 1] as usize];
        let mut relaxations = 0;
        for &w in sinks {
            let wi = w as usize;
            if relax(&mut state[wi], *epoch, v as u32, nd, &layout.node) {
                relaxations += 1;
                if wi < end {
                    component_heap.push(component_key(nd, w));
                } else {
                    pending.insert(wi);
                }
            }
        }
        relaxations
    }

    /// Distance of `node` from the last run's source (`INFINITY` when
    /// unreached).
    #[must_use]
    pub fn distance(&self, node: CellId) -> f64 {
        let st = self.state[self.position(node)];
        if st.mark >= self.epoch {
            st.dist
        } else {
            f64::INFINITY
        }
    }

    /// The tree parent net of `node`, if reached.
    #[must_use]
    pub fn parent(&self, node: CellId) -> Option<NetId> {
        let st = self.state[self.position(node)];
        (st.mark >= self.epoch && st.parent != NO_PARENT)
            .then(|| CellId::from_index(self.layout.node[st.parent as usize] as usize))
    }

    /// Nodes settled by the last run, in settle order (source first).
    #[must_use]
    pub fn visited_order(&self) -> Vec<CellId> {
        self.visited
            .iter()
            .map(|&p| CellId::from_index(self.layout.node[p as usize] as usize))
            .collect()
    }

    /// The distinct nets of the last run's tree, each as the condensation
    /// position of its driver, with their branch counts, in
    /// first-settled order — the allocation-free view the saturation
    /// loop folds its position-indexed flow updates over. The order is
    /// deterministic; use [`DijkstraScratch::tree_net_branch_counts`]
    /// for the view by net id.
    pub fn tree_net_positions(&self) -> impl Iterator<Item = (usize, u32)> + '_ {
        self.tree_list
            .iter()
            .map(move |&p| (p as usize, self.net_count[p as usize]))
    }

    /// The distinct nets used by the last run's tree (each net once,
    /// ascending id).
    #[must_use]
    pub fn tree_nets(&self) -> Vec<NetId> {
        let mut nets: Vec<NetId> = self
            .tree_list
            .iter()
            .map(|&p| CellId::from_index(self.layout.node[p as usize] as usize))
            .collect();
        nets.sort_unstable();
        nets
    }

    /// Per-net branch counts of the last run's tree, ascending net id.
    #[must_use]
    pub fn tree_net_branch_counts(&self) -> Vec<(NetId, usize)> {
        let mut out: Vec<(NetId, usize)> = self
            .tree_net_positions()
            .map(|(p, count)| {
                let net = CellId::from_index(self.layout.node[p] as usize);
                (net, count as usize)
            })
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

    fn scratch(g: &CircuitGraph) -> DijkstraScratch {
        DijkstraScratch::new(g, &Scc::of(g))
    }

    /// A production-engine run from `source`, with node-indexed lengths.
    fn run_fast_by_node(scratch: &mut DijkstraScratch, source: CellId, length: &[f64]) {
        let by_position = scratch.by_position(length);
        scratch.run_fast(source, &by_position);
    }

    /// A fresh production-engine tree from `source`.
    fn fast_tree(g: &CircuitGraph, source: CellId, length: &[f64]) -> DijkstraScratch {
        let mut scratch = scratch(g);
        run_fast_by_node(&mut scratch, source, length);
        scratch
    }

    /// A fresh reference tree from `source`.
    fn reference_tree(g: &CircuitGraph, source: CellId, length: &[f64]) -> DijkstraScratch {
        let mut scratch = scratch(g);
        scratch.run(g, source, length);
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

    /// The size of `v`'s SCC component.
    fn component_size(g: &CircuitGraph, v: CellId) -> usize {
        let scc = Scc::of(g);
        scc.components()[scc.component_of(v).index()].len()
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
        let scratch = fast_tree(&g, g.find("G0").unwrap(), &unit);
        let node_of = scratch.by_position(&g.nodes().collect::<Vec<_>>());
        let mut from_iter: Vec<(NetId, usize)> = scratch
            .tree_net_positions()
            .map(|(p, c)| (node_of[p], c as usize))
            .collect();
        from_iter.sort_unstable();
        assert_eq!(from_iter, scratch.tree_net_branch_counts());
        for v in g.nodes() {
            assert_eq!(node_of[scratch.position(v)], v);
        }
    }

    #[test]
    fn positions_are_the_condensation_order() {
        // Components in topological order, ids ascending inside each, and
        // `by_node` undoes `by_position`.
        let g = s27_graph();
        let scc = Scc::of(&g);
        let scratch = DijkstraScratch::new(&g, &scc);
        let expected: Vec<CellId> = scc.components().iter().rev().flatten().copied().collect();
        let ids: Vec<CellId> = g.nodes().collect();
        assert_eq!(scratch.by_position(&ids), expected);
        assert_eq!(scratch.by_node(&scratch.by_position(&ids)), ids);
        for b in g.branches() {
            let (u, w) = (scratch.position(b.src), scratch.position(b.sink));
            let same = scc.component_of(b.src) == scc.component_of(b.sink);
            assert!(same || u < w, "branch {} -> {} points back", b.src, b.sink);
        }
    }

    #[test]
    fn csr_run_matches_reference_exactly() {
        let g = s27_graph();
        let lengths: Vec<f64> = (0..g.num_nodes()).map(|i| (i % 7) as f64 * 0.5).collect();
        for src in g.nodes() {
            let a = reference_tree(&g, src, &lengths);
            assert_same_run(&g, &a, &fast_tree(&g, src, &lengths));
        }
    }

    #[test]
    fn fast_run_matches_reference_on_distance_ties() {
        let g = s27_graph();
        // A coarse grid with zeros to force distance ties and absorption-
        // style equal keys — the cases a sloppy drain order would break.
        let lengths: Vec<f64> = (0..g.num_nodes()).map(|i| (i % 4) as f64 * 0.5).collect();
        for src in g.nodes() {
            let a = reference_tree(&g, src, &lengths);
            // Bit-identical in every observable, settle order included:
            // the bitmap takes positions in condensation order and the
            // component heap drains one in the reference's (distance,
            // node) order.
            assert_same_run(&g, &a, &fast_tree(&g, src, &lengths));
        }
    }

    #[test]
    fn component_heap_orders_the_clamped_congestion_range() {
        let g = s27_graph();
        // Clamped-congestion-sized lengths span the whole f64 exponent
        // range; the heap's bit-pattern keys must order all of it.
        let mut lengths = vec![1.0; g.num_nodes()];
        let src = g.find("G9").unwrap();
        lengths[src.index()] = 1e300;
        lengths[g.find("G0").unwrap().index()] = 1e-12;
        let a = reference_tree(&g, src, &lengths);
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
        assert_same_run(&g, &reference_tree(&g, s, &lengths), &fast);
    }

    #[test]
    fn a_cycle_first_reached_at_its_last_position_runs_its_heap() {
        // The source s feeds one member of the cycle a → b → c → a, whose
        // positions ascend a, b, c; the tail t hangs off a. Entered at c,
        // its last position, the cycle must still go through the
        // component heap: settled alone, c would leave a and b behind the
        // bitmap cursor. Entered at b (mid-range) likewise.
        use ppet_netlist::{CellKind, Circuit};
        for entry in [2, 1] {
            let mut c = Circuit::new("entry");
            let gate = |i: usize| {
                if i == entry {
                    CellKind::Or
                } else {
                    CellKind::Buf
                }
            };
            let cells = [
                ("a", gate(0)),
                ("b", gate(1)),
                ("c", gate(2)),
                ("s", CellKind::Input),
                ("t", CellKind::Buf),
            ]
            .map(|(name, kind)| c.add_cell_deferred(name, kind).unwrap());
            let [a, b, cc, s, t] = cells;
            let cycle = [a, b, cc];
            for (i, &v) in cycle.iter().enumerate() {
                let mut fanin = vec![cycle[(i + 2) % 3]];
                if i == entry {
                    fanin.push(s);
                }
                c.set_fanin(v, fanin).unwrap();
            }
            c.set_fanin(t, vec![a]).unwrap();
            c.mark_output(t).unwrap();
            let g = CircuitGraph::from_circuit(&c);
            let fast = fast_tree(&g, s, &vec![1.0; g.num_nodes()]);
            assert_eq!(component_size(&g, cycle[entry]), 3);
            assert_eq!(fast.position(cycle[entry]), fast.position(a) + entry);
            let order = fast.visited_order();
            assert_eq!(order.len(), 5, "entry {entry}: settled {order:?}");
            assert_eq!(order[1], cycle[entry]);
            assert_eq!(fast.distance(t), 5.0 - entry as f64);
            assert_same_run(&g, &reference_tree(&g, s, &vec![1.0; g.num_nodes()]), &fast);
            // One pop for s, one for the cycle's bit, and one heap pop per
            // member (the seed and two relaxations), one for t.
            assert_eq!(fast.stats().heap_pops, 6, "entry {entry}");
        }
    }

    #[test]
    fn stats_accumulate_and_reset() {
        let g = s27_graph();
        let unit = vec![1.0; g.num_nodes()];
        let mut scratch = scratch(&g);
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
        let mut scratch = scratch(&g);
        scratch.epoch = u32::MAX - 7;
        for (i, src) in g.nodes().chain(g.nodes()).enumerate() {
            let fresh = if i % 2 == 0 {
                run_fast_by_node(&mut scratch, src, &lengths);
                fast_tree(&g, src, &lengths)
            } else {
                scratch.run(&g, src, &lengths);
                reference_tree(&g, src, &lengths)
            };
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
    /// lengths by position, the most pushes one run made (its
    /// relaxations plus the source), and which exponents the settled
    /// distances had.
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
            scratch.run_fast(v, &length);
            max_pushes = max_pushes.max(scratch.stats().relaxations - before + 1);
            for u in scratch.visited_order() {
                touched[(scratch.distance(u).to_bits() >> 52) as usize] = true;
            }
            for (p, _) in scratch.tree_net_positions() {
                flow[p] += DELTA;
                length[p] = (ALPHA * flow[p]).min(MAX_EXPONENT).exp();
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
    fn component_heap_memory_is_bounded_by_tree_size_not_key_range() {
        let g = table9_graph("s1423");
        let mut scratch = scratch(&g);
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
                scratch.run_fast(src, &scaled);
                for u in scratch.visited_order() {
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
        // positions' bits still set. The next run must sweep them (the
        // paths a completed run never takes) and find the same tree as a
        // fresh scratch.
        let g = table9_graph("s510");
        let lengths: Vec<f64> = (0..g.num_nodes()).map(|i| (i % 9) as f64 * 0.75).collect();
        let src = g.nodes().next().unwrap();
        let good = fast_tree(&g, src, &lengths);
        // The middle settle of the largest cyclic component, and the
        // middle settle among single-node components.
        let size = |v: &CellId| component_size(&g, *v);
        let largest = good.visited_order().iter().map(size).max().unwrap();
        assert!(largest > 1, "the tree reaches no cycle");
        let (cyclic, acyclic): (Vec<CellId>, Vec<CellId>) = good
            .visited_order()
            .into_iter()
            .filter(|v| [1, largest].contains(&size(v)))
            .partition(|v| size(v) > 1);
        for (poison, on_cycle) in [
            (cyclic[cyclic.len() / 2], true),
            (acyclic[acyclic.len() / 2], false),
        ] {
            let mut poisoned = lengths.clone();
            poisoned[poison.index()] = f64::NAN;
            let mut scratch = scratch(&g);
            let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                run_fast_by_node(&mut scratch, src, &poisoned);
            }));
            assert!(panicked.is_err(), "the NaN length was never consumed");
            assert!(
                !scratch.pending.is_empty(),
                "no position bit set at the panic on {poison}"
            );
            if on_cycle {
                let queued = scratch.component_heap.len();
                assert!(queued > 1, "only {queued} entries queued at the panic");
            }

            for source in [src, g.nodes().nth(7).unwrap()] {
                run_fast_by_node(&mut scratch, source, &lengths);
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
        assert!(component_size(g, v) > 1);
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
        let _ = reference_tree(&g, g.find("G0").unwrap(), &lengths);
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
        let _ = reference_tree(&g, src, &lengths);
    }

    #[test]
    #[should_panic(expected = "not NaN")]
    fn nan_length_rejected() {
        let g = s27_graph();
        let src = g.find("G0").unwrap();
        let mut lengths = vec![1.0; g.num_nodes()];
        lengths[src.index()] = f64::NAN;
        let _ = reference_tree(&g, src, &lengths);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn fractional_negative_length_rejected_by_fast_run() {
        let g = s27_graph();
        let src = g.find("G0").unwrap();
        let mut lengths = vec![1.0; g.num_nodes()];
        lengths[src.index()] = -0.5; // the source always settles first
        let _ = fast_tree(&g, src, &lengths);
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
