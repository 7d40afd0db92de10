//! Deterministic single-source shortest-path trees over net lengths.
//!
//! `Saturate_Network` (paper Table 3, STEP 3.2) computes, for a randomly
//! chosen source, the shortest-path tree `T_v = Dijkstra(G, d(E), v)` to all
//! reachable sinks, where the length of every branch of a net is that net's
//! congestion distance `d(e)`. Ties are broken by node id so the tree — and
//! therefore the whole stochastic flow process — is reproducible.
//!
//! Two interchangeable engines compute the tree:
//!
//! * [`DijkstraScratch::run`] — the **reference**: a `BinaryHeap` over the
//!   pointer-rich [`CircuitGraph`] adjacency. Kept as the executable
//!   specification the property tests compare against.
//! * [`DijkstraScratch::run_fast`] — the **saturation hot path**: a
//!   fixed-slot bucket queue (`SlotQueue`) over the packed [`Csr`]
//!   adjacency, keyed by the top 16 bits of the distance bit pattern. For
//!   non-negative doubles the bit pattern is a monotone fixed-point
//!   encoding, so the slots cover the entire non-negative `f64` range
//!   (saturation's clamped-exponential weights span `[1, e^700]`, far
//!   beyond any bounded calendar), entries never migrate between slots,
//!   and the drain order reproduces the binary heap's `(distance, node)`
//!   order exactly — so *everything* observable (distances, parents,
//!   settle order, work counters) is bit-identical to the reference, at a
//!   fraction of the per-settle cost. See `DESIGN.md` §13.
//!
//! [`SsspCache`] adds an incremental layer for the saturation loop: when
//! the congestion weights a cached tree depends on did not change between
//! trees, the unchanged part is reused instead of re-relaxed.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use ppet_netlist::{CellId, NetId};

use crate::csr::Csr;
use crate::graph::CircuitGraph;

#[derive(Debug, Clone, PartialEq)]
struct HeapEntry {
    dist: f64,
    node: u32,
}

impl Eq for HeapEntry {}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-heap by distance, tie-broken by node id for determinism.
        other
            .dist
            .partial_cmp(&self.dist)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.node.cmp(&self.node))
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A monotone fixed-slot bucket queue over `(f64-bit key, node)` pairs —
/// the engine behind [`DijkstraScratch::run_fast`] and the seeded
/// re-search of [`SsspCache`].
///
/// The slot of a key is its top 16 bits (sign, the 11 exponent bits, and
/// the 4 leading mantissa bits): a monotone index for non-negative
/// doubles, so [`NUM_SLOTS`] = 2¹⁵ slots cover the entire
/// non-negative `f64` range — including `+inf` — with an exponentially
/// scaled grid whose slot width is a fixed ×(1 + 2⁻⁴) distance band.
/// Entries never migrate: a push lands in its final slot, and a
/// two-level occupancy bitmap finds the next occupied slot in a handful
/// of word scans. The slot being drained is sorted descending
/// by `(key, node)` once, and same-slot arrivals (Dijkstra pushes keys ≥
/// the minimum, so they can land in the cursor slot but never before it)
/// are inserted in order — pops therefore leave in exactly the
/// `(distance, node)` order of a tie-broken binary heap, which is what
/// makes `run_fast` bit-identical to the reference.
#[derive(Debug, Clone, Default)]
struct SlotQueue {
    /// Lazily sized to [`NUM_SLOTS`] on first use, so scratch
    /// areas that only run the reference stay small.
    slots: Vec<Vec<(u64, u32)>>,
    /// One occupancy bit per slot.
    occ1: Vec<u64>,
    /// One occupancy bit per `occ1` word.
    occ2: [u64; SLOT_SUMMARY_WORDS],
    /// Slot currently being drained.
    cur: usize,
    /// The drained slot's entries, sorted descending (pop from the back).
    cur_vec: Vec<(u64, u32)>,
    len: usize,
}

/// `f64::to_bits() >> 48` of any non-negative double (`+inf` included) is
/// below this.
const NUM_SLOTS: usize = 1 << 15;
/// Words of the second-level occupancy bitmap: one bit per `occ1` word.
const SLOT_SUMMARY_WORDS: usize = NUM_SLOTS / 64 / 64;

impl SlotQueue {
    fn new() -> Self {
        Self::default()
    }

    /// Allocates the slot array (~0.75 MiB of empty `Vec` headers) on
    /// first use.
    fn ensure(&mut self) {
        if self.slots.is_empty() {
            self.slots = vec![Vec::new(); NUM_SLOTS];
            self.occ1 = vec![0; NUM_SLOTS / 64];
        }
    }

    /// Prepares for a new run. A completed run drains every slot, so this
    /// is O(1) then; after an abandoned run (caller panicked mid-search)
    /// it sweeps the occupied slots clean.
    fn reset(&mut self) {
        if self.len != 0 {
            for w in 0..self.occ1.len() {
                let mut bits = self.occ1[w];
                while bits != 0 {
                    let s = (w << 6) + bits.trailing_zeros() as usize;
                    self.slots[s].clear();
                    bits &= bits - 1;
                }
                self.occ1[w] = 0;
            }
            self.occ2 = [0; SLOT_SUMMARY_WORDS];
            self.len = 0;
        }
        self.cur = 0;
        self.cur_vec.clear();
    }

    // `inline(always)`, not `inline`: with two callers (`run_fast` and
    // the seeded re-search) LLVM stops inlining these on its own, which
    // measured ~10 % slower cold compiles end to end.
    #[inline(always)]
    fn push(&mut self, key: u64, node: u32) {
        self.len += 1;
        let s = (key >> 48) as usize;
        if s == self.cur {
            // A same-slot arrival while the slot drains: keep it sorted.
            let pos = self.cur_vec.partition_point(|&e| e > (key, node));
            self.cur_vec.insert(pos, (key, node));
            return;
        }
        let sv = &mut self.slots[s];
        if sv.is_empty() {
            self.occ1[s >> 6] |= 1u64 << (s & 63);
            self.occ2[s >> 12] |= 1u64 << ((s >> 6) & 63);
        }
        sv.push((key, node));
    }

    #[inline(always)]
    fn pop(&mut self) -> Option<(u64, u32)> {
        if let Some(e) = self.cur_vec.pop() {
            self.len -= 1;
            return Some(e);
        }
        if self.len == 0 {
            return None;
        }
        // Find the next occupied slot strictly after `cur` via the
        // two-level bitmap.
        let mut w = self.cur >> 6;
        let rest = if (self.cur & 63) == 63 {
            0
        } else {
            !0u64 << ((self.cur & 63) + 1)
        };
        let mut bits = self.occ1[w] & rest;
        if bits == 0 {
            let mut w2 = w >> 6;
            let rest2 = if (w & 63) == 63 {
                0
            } else {
                !0u64 << ((w & 63) + 1)
            };
            let mut bits2 = self.occ2[w2] & rest2;
            while bits2 == 0 {
                w2 += 1;
                bits2 = self.occ2[w2];
            }
            w = (w2 << 6) + bits2.trailing_zeros() as usize;
            bits = self.occ1[w];
        }
        let s = (w << 6) + bits.trailing_zeros() as usize;
        self.cur = s;
        self.occ1[w] &= !(1u64 << (s & 63));
        if self.occ1[w] == 0 {
            self.occ2[w >> 6] &= !(1u64 << (w & 63));
        }
        self.len -= 1;
        if self.slots[s].len() == 1 {
            // The common late-saturation case: distances span a huge
            // dynamic range, one entry per slot — skip the swap and sort.
            return self.slots[s].pop();
        }
        std::mem::swap(&mut self.cur_vec, &mut self.slots[s]);
        self.cur_vec.sort_unstable_by(|a, b| b.cmp(a));
        self.cur_vec.pop()
    }
}

/// Reusable work buffers for repeated shortest-path-tree computations.
///
/// `Saturate_Network` runs tens of thousands of Dijkstra trees over the
/// same graph; reallocating and re-initializing the distance/parent/done
/// arrays every time dominates small-tree runs. The scratch keeps the
/// arrays alive and resets them lazily through a visitation stamp, so a run
/// touching `k` nodes costs `O(k)`-ish regardless of `|V|`, and the tree's
/// per-net branch counts are accumulated *while nodes settle* — no
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
/// let mut scratch = DijkstraScratch::new(g.num_nodes());
/// scratch.run_fast(g.csr(), g.find("G0").unwrap(), &unit);
/// let visited = scratch.visited_order().len();
/// assert!(visited >= 2);
/// ```
#[derive(Debug, Clone)]
pub struct DijkstraScratch {
    dist: Vec<f64>,
    parent_net: Vec<Option<NetId>>,
    stamp: Vec<u32>,
    done: Vec<bool>,
    epoch: u32,
    heap: BinaryHeap<HeapEntry>,
    slot_queue: SlotQueue,
    visited: Vec<CellId>,
    net_stamp: Vec<u32>,
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
    /// Heap pops, including stale entries skipped by the `done` check.
    pub heap_pops: u64,
    /// Successful relaxations (`dist` improvements pushed to the heap).
    pub relaxations: u64,
    /// Nodes settled (final distance fixed) — restored-from-cache nodes
    /// count too, so this always equals the total tree size.
    pub settled: u64,
    /// Nodes whose `(distance, parent)` were reused verbatim from a
    /// cached tree by the incremental path ([`SsspCache`]); zero for
    /// fresh runs.
    pub reused: u64,
    /// Nodes an incremental run had to requeue and re-relax because a
    /// congestion weight on their cached tree path changed; zero for
    /// fresh runs.
    pub requeued: u64,
}

/// One node of a cached shortest-path tree, in settle order.
#[derive(Debug, Clone, Copy)]
struct CacheNode {
    node: u32,
    /// Parent net id, `u32::MAX` for the source.
    parent: u32,
    dist: f64,
}

impl DijkstraScratch {
    /// Creates buffers for graphs of `n` nodes.
    #[must_use]
    pub fn new(n: usize) -> Self {
        Self {
            dist: vec![f64::INFINITY; n],
            parent_net: vec![None; n],
            stamp: vec![0; n],
            done: vec![false; n],
            epoch: 0,
            heap: BinaryHeap::new(),
            slot_queue: SlotQueue::new(),
            visited: Vec::new(),
            net_stamp: vec![0; n],
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

    fn begin(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Stamp wrap-around: force full reset.
            self.stamp.fill(u32::MAX);
            self.net_stamp.fill(u32::MAX);
            self.epoch = 1;
        }
        self.heap.clear();
        self.slot_queue.reset();
        self.visited.clear();
        self.tree_list.clear();
    }

    fn fresh(&mut self, v: usize) -> bool {
        if self.stamp[v] != self.epoch {
            self.stamp[v] = self.epoch;
            self.dist[v] = f64::INFINITY;
            self.parent_net[v] = None;
            self.done[v] = false;
            true
        } else {
            false
        }
    }

    /// Marks `v` settled: final distance fixed, parent final, tree-net
    /// branch accounting updated.
    fn settle(&mut self, v: usize) {
        self.done[v] = true;
        self.stats.settled += 1;
        self.visited.push(CellId::from_index(v));
        if let Some(p) = self.parent_net[v] {
            let pi = p.index();
            if self.net_stamp[pi] == self.epoch {
                self.net_count[pi] += 1;
            } else {
                self.net_stamp[pi] = self.epoch;
                self.net_count[pi] = 1;
                self.tree_list.push(p);
            }
        }
    }

    /// Runs the reference binary-heap Dijkstra from `source`; results are
    /// readable until the next run via [`DijkstraScratch::distance`],
    /// [`DijkstraScratch::parent`], and [`DijkstraScratch::visited_order`].
    ///
    /// This is the executable specification [`DijkstraScratch::run_fast`]
    /// is property-tested against; the hot saturation loop uses the CSR
    /// variant.
    ///
    /// # Panics
    ///
    /// Panics if `length.len()` differs from the node count, or if any
    /// length the search consumes is negative or NaN. The validation is
    /// always on — not a `debug_assert!` — because a NaN admitted in a
    /// release build makes the heap entry's `partial_cmp` fall back to
    /// `Ordering::Equal`, silently corrupting heap order; each length is
    /// checked once when its node settles, so the check adds O(1) per
    /// settled node and never touches lengths of unreached nodes.
    pub fn run(&mut self, graph: &CircuitGraph, source: CellId, length: &[f64]) {
        assert_eq!(
            length.len(),
            graph.num_nodes(),
            "one length per net slot required"
        );
        self.begin();
        let s = source.index();
        self.fresh(s);
        self.dist[s] = 0.0;
        self.heap.push(HeapEntry {
            dist: 0.0,
            node: s as u32,
        });
        while let Some(HeapEntry { dist: d, node }) = self.heap.pop() {
            self.stats.heap_pops += 1;
            let v = node as usize;
            if self.done[v] {
                continue;
            }
            self.settle(v);
            let net = CellId::from_index(v);
            let l = length[v];
            assert!(
                l >= 0.0,
                "net length of node {v} must be non-negative and not NaN, got {l}"
            );
            for &w in graph.net(net).sinks() {
                let wi = w.index();
                self.fresh(wi);
                let nd = d + l;
                if nd < self.dist[wi] {
                    self.dist[wi] = nd;
                    self.parent_net[wi] = Some(net);
                    self.stats.relaxations += 1;
                    self.heap.push(HeapEntry {
                        dist: nd,
                        node: wi as u32,
                    });
                } else if nd == self.dist[wi]
                    && !self.done[wi]
                    && should_replace(self.parent_net[wi], net)
                {
                    // Equal distance: prefer the smaller parent net id so
                    // the tree is unique regardless of heap pop order.
                    self.parent_net[wi] = Some(net);
                }
            }
        }
    }

    /// Runs the fixed-slot bucket-queue Dijkstra over the packed [`Csr`]
    /// adjacency — the `Saturate_Network` hot path.
    ///
    /// The queue keys are the distances' IEEE-754 bit patterns (an exact
    /// monotone quantization for non-negative doubles), bucketed by their
    /// top 16 bits into a fixed array of 2¹⁵ slots
    /// that covers the *entire* non-negative `f64` range — saturation's
    /// clamped-exponential congestion distances span `[1, e^700]`, so no
    /// bounded-range calendar works. Entries never migrate between slots
    /// and the slot being drained is kept sorted, so pops come out in
    /// exactly the `(distance, node)` order of the binary-heap reference:
    /// distances, parents, settle order, and work counters are all
    /// bit-identical to [`DijkstraScratch::run`]. See `DESIGN.md` §13.
    ///
    /// # Panics
    ///
    /// As [`DijkstraScratch::run`]: length-vector size mismatch, or a
    /// negative/NaN length consumed by the search.
    pub fn run_fast(&mut self, csr: &Csr, source: CellId, length: &[f64]) {
        assert_eq!(
            length.len(),
            csr.num_nodes(),
            "one length per net slot required"
        );
        self.begin();
        self.slot_queue.ensure();
        // Bulk-initialize instead of the per-touch lazy `fresh()`: four
        // vectorized fills per tree cost far less than a stamp check and
        // three conditional stores on every edge scanned. Stamping every
        // node keeps the accessor contract: unreached nodes read
        // `INFINITY`/`None` through the now-valid stamp.
        self.stamp.fill(self.epoch);
        self.dist.fill(f64::INFINITY);
        self.parent_net.fill(None);
        self.done.fill(false);
        let s = source.index();
        self.dist[s] = 0.0;
        let mut pops = 0u64;
        let mut relaxations = 0u64;
        self.slot_queue.push(0, s as u32); // 0.0f64.to_bits() == 0
        while let Some((key, node)) = self.slot_queue.pop() {
            pops += 1;
            let v = node as usize;
            if self.done[v] {
                continue;
            }
            let d = f64::from_bits(key);
            self.settle(v);
            let net = CellId::from_index(v);
            let l = length[v];
            assert!(
                l >= 0.0,
                "net length of node {v} must be non-negative and not NaN, got {l}"
            );
            let nd = d + l;
            let bits = nd.to_bits();
            for &w in csr.sinks(net) {
                let wi = w.index();
                if nd < self.dist[wi] {
                    self.dist[wi] = nd;
                    self.parent_net[wi] = Some(net);
                    relaxations += 1;
                    self.slot_queue.push(bits, wi as u32);
                } else if nd == self.dist[wi]
                    && !self.done[wi]
                    && should_replace(self.parent_net[wi], net)
                {
                    self.parent_net[wi] = Some(net);
                }
            }
        }
        self.stats.heap_pops += pops;
        self.stats.relaxations += relaxations;
    }

    /// Restores a cached tree verbatim: every node settles with its
    /// cached distance and parent, no search work at all.
    fn restore_tree(&mut self, nodes: &[CacheNode]) {
        self.begin();
        for e in nodes {
            let v = e.node as usize;
            self.fresh(v);
            self.dist[v] = e.dist;
            self.parent_net[v] = cached_parent(e.parent);
            self.settle(v);
            self.stats.reused += 1;
        }
    }

    /// Incremental run: restores the `valid` subset of a cached tree and
    /// re-searches only the invalidated remainder, seeded by relaxing
    /// every branch from a restored node into the non-restored region.
    ///
    /// Soundness (see `DESIGN.md` §13): congestion weights only ever
    /// increase, so a node whose cached tree path avoids every changed
    /// net keeps its exact distance *and* — because the tie rule picks the
    /// smallest net id among minimal candidates, and non-minimal
    /// candidates only move further from the minimum — its exact parent.
    /// Strictly positive lengths are required (saturation's congestion
    /// distances are ≥ 1): a zero-length branch could tie a node to a
    /// predecessor that a fresh run would settle *after* it, where the
    /// reference blocks the equal-distance parent swap.
    fn run_seeded(
        &mut self,
        csr: &Csr,
        source: CellId,
        length: &[f64],
        cached: &[CacheNode],
        valid: &[bool],
    ) {
        assert_eq!(
            length.len(),
            csr.num_nodes(),
            "one length per net slot required"
        );
        debug_assert_eq!(cached.first().map(|e| e.node), Some(source.index() as u32));
        let _ = source;
        self.begin();
        self.slot_queue.ensure();
        // 1. Restore the still-valid nodes, preserving their relative
        //    settle order (a parent always precedes its children).
        for (e, &ok) in cached.iter().zip(valid) {
            if !ok {
                continue;
            }
            let v = e.node as usize;
            self.fresh(v);
            self.dist[v] = e.dist;
            self.parent_net[v] = cached_parent(e.parent);
            self.settle(v);
            self.stats.reused += 1;
        }
        // 2. Seed: relax every branch leaving a restored node into the
        //    not-yet-settled region. Order does not matter — the improve /
        //    equal-min-net rules make the outcome order-independent.
        let restored = self.visited.len();
        for idx in 0..restored {
            let u = self.visited[idx];
            let ui = u.index();
            let d = self.dist[ui];
            let l = length[ui];
            assert!(
                l > 0.0,
                "incremental SSSP requires strictly positive lengths, got {l} at node {ui}"
            );
            for &w in csr.sinks(u) {
                let wi = w.index();
                self.fresh(wi);
                if self.done[wi] {
                    continue;
                }
                let nd = d + l;
                if nd < self.dist[wi] {
                    self.dist[wi] = nd;
                    self.parent_net[wi] = Some(u);
                    self.stats.relaxations += 1;
                    self.slot_queue.push(nd.to_bits(), wi as u32);
                } else if nd == self.dist[wi] && should_replace(self.parent_net[wi], u) {
                    self.parent_net[wi] = Some(u);
                }
            }
        }
        // 3. Search the invalidated region, exactly the run_fast main loop
        //    (every key pushed here is ≥ the one just popped, as the
        //    slot queue requires; step 2 pushed before any pop).
        while let Some((key, node)) = self.slot_queue.pop() {
            self.stats.heap_pops += 1;
            let v = node as usize;
            if self.done[v] {
                continue;
            }
            let d = f64::from_bits(key);
            self.settle(v);
            self.stats.requeued += 1;
            let net = CellId::from_index(v);
            let l = length[v];
            assert!(
                l > 0.0,
                "incremental SSSP requires strictly positive lengths, got {l} at node {v}"
            );
            for &w in csr.sinks(net) {
                let wi = w.index();
                self.fresh(wi);
                if self.done[wi] {
                    continue;
                }
                let nd = d + l;
                if nd < self.dist[wi] {
                    self.dist[wi] = nd;
                    self.parent_net[wi] = Some(net);
                    self.stats.relaxations += 1;
                    self.slot_queue.push(nd.to_bits(), wi as u32);
                } else if nd == self.dist[wi] && should_replace(self.parent_net[wi], net) {
                    self.parent_net[wi] = Some(net);
                }
            }
        }
    }

    /// Distance of `node` from the last run's source (`INFINITY` when
    /// unreached).
    #[must_use]
    pub fn distance(&self, node: CellId) -> f64 {
        if self.stamp[node.index()] == self.epoch {
            self.dist[node.index()]
        } else {
            f64::INFINITY
        }
    }

    /// The tree parent net of `node`, if reached.
    #[must_use]
    pub fn parent(&self, node: CellId) -> Option<NetId> {
        if self.stamp[node.index()] == self.epoch {
            self.parent_net[node.index()]
        } else {
            None
        }
    }

    /// Nodes settled by the last run, in settle order (source first). An
    /// incremental run lists the restored nodes first (in their cached
    /// relative order), then the re-searched ones.
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

fn cached_parent(raw: u32) -> Option<NetId> {
    (raw != u32::MAX).then(|| CellId::from_index(raw as usize))
}

fn should_replace(current: Option<NetId>, candidate: NetId) -> bool {
    match current {
        None => true,
        Some(c) => candidate < c,
    }
}

/// One cached shortest-path tree plus the clock tick it was built at.
#[derive(Debug, Clone)]
struct CachedTree {
    built_at: u64,
    /// [`SsspCache::note_changed`] total at build time, for the O(1)
    /// nothing-changed and hopeless fast paths.
    changes_at_build: u64,
    nodes: Vec<CacheNode>,
}

/// Incremental single-source shortest-path cache for the saturation loop.
///
/// `Saturate_Network` redraws every source ≥ `min_visit` times while the
/// congestion weights *only ever increase* (flow is only added). Under
/// monotone weight increases a cached tree node stays exact as long as no
/// net on its root path changed — so when a source recurs, the cache
/// revalidates its previous tree with one linear walk and either reuses
/// it wholly (no search at all), reuses the unchanged part and re-relaxes
/// only the invalidated subtrees ([`DijkstraScratch`] seeded run — only
/// worth it when at least half the tree survives), or falls back to a
/// fresh [`DijkstraScratch::run_fast`].
///
/// # Contract
///
/// * Between two [`SsspCache::run`] calls, weights may only **increase**,
///   and every net whose weight changed must be reported via
///   [`SsspCache::note_changed`]. Violating this silently yields stale
///   distances.
/// * Lengths must be ≥ 1 (congestion distances are `exp(non-negative)`):
///   the seeded partial re-search is unsound for zero-length branches.
///
/// Results are bit-identical to fresh runs regardless of cache hits; only
/// the [`DijkstraStats`] work counters (`reused`, `requeued`, and the
/// reduced `heap_pops`/`relaxations`) reveal the shortcut. The cache
/// bounds its memory by `budget_nodes` total cached tree nodes; sources
/// past the budget simply run fresh, which cannot change any result.
///
/// Because any heuristic here is result-invisible, the cache also defends
/// its own overhead: a global change counter gives an O(1) "nothing
/// changed at all" restore that skips the validity walk, and after
/// [`SsspCache::MISS_STREAK_OFF`] consecutive failed reuses it stops
/// *storing* trees until the weights freeze (mid-saturation on a large
/// circuit every tree invalidates everything, so storing is pure waste;
/// once congestion clamps and distances stop moving, storing resumes and
/// full-tree restores kick in).
///
/// # Examples
///
/// ```
/// use ppet_graph::{dijkstra::{DijkstraScratch, SsspCache}, CircuitGraph};
/// use ppet_netlist::data;
///
/// let g = CircuitGraph::from_circuit(&data::s27());
/// let unit = vec![1.0; g.num_nodes()];
/// let mut scratch = DijkstraScratch::new(g.num_nodes());
/// let mut cache = SsspCache::new(g.num_nodes(), 1 << 16);
/// let src = g.find("G0").unwrap();
/// cache.run(&mut scratch, g.csr(), src, &unit);
/// let first: Vec<f64> = g.nodes().map(|v| scratch.distance(v)).collect();
/// // No weight changed: the second run reuses the whole tree.
/// cache.run(&mut scratch, g.csr(), src, &unit);
/// let second: Vec<f64> = g.nodes().map(|v| scratch.distance(v)).collect();
/// assert_eq!(first, second);
/// assert!(scratch.stats().reused > 0);
/// ```
#[derive(Debug, Clone)]
pub struct SsspCache {
    trees: Vec<Option<CachedTree>>,
    last_changed: Vec<u64>,
    clock: u64,
    budget: usize,
    used: usize,
    valid_stamp: Vec<u32>,
    valid_epoch: u32,
    valid_flags: Vec<bool>,
    /// Total [`SsspCache::note_changed`] calls ever; a cached tree built
    /// when this had the same value is trivially fully valid.
    changes: u64,
    /// `changes` as of the previous [`SsspCache::run`] — equal to
    /// `changes` when the weights have frozen.
    changes_at_prev_run: u64,
    /// Consecutive runs that found a cached tree but could not restore
    /// it whole.
    miss_streak: u32,
}

impl SsspCache {
    /// After this many consecutive failed full-tree reuses the cache
    /// stops storing trees (each store copies the whole tree for
    /// nothing) until a run observes zero weight changes — the signal
    /// that congestion has clamped and reuse can start paying again.
    pub const MISS_STREAK_OFF: u32 = 64;

    /// Creates a cache for graphs of `n` nodes holding at most
    /// `budget_nodes` cached tree nodes across all sources.
    #[must_use]
    pub fn new(n: usize, budget_nodes: usize) -> Self {
        Self {
            trees: vec![None; n],
            last_changed: vec![0; n],
            clock: 0,
            budget: budget_nodes,
            used: 0,
            valid_stamp: vec![0; n],
            valid_epoch: 0,
            valid_flags: Vec::new(),
            changes: 0,
            changes_at_prev_run: 0,
            miss_streak: 0,
        }
    }

    /// Records that `net`'s weight changed after the most recent
    /// [`SsspCache::run`]. Call once per changed net per tree.
    pub fn note_changed(&mut self, net: NetId) {
        self.last_changed[net.index()] = self.clock;
        self.changes += 1;
    }

    /// Computes the shortest-path tree from `source` into `scratch`,
    /// reusing whatever the cache proves unchanged. Results in `scratch`
    /// are bit-identical to `scratch.run_fast(csr, source, length)`.
    pub fn run(
        &mut self,
        scratch: &mut DijkstraScratch,
        csr: &Csr,
        source: CellId,
        length: &[f64],
    ) {
        self.clock += 1;
        let frozen = self.changes == self.changes_at_prev_run;
        self.changes_at_prev_run = self.changes;
        let s = source.index();
        match self.trees[s].take() {
            None => scratch.run_fast(csr, source, length),
            Some(tree) => {
                let changes_since = self.changes - tree.changes_at_build;
                if changes_since == 0 {
                    // Nothing anywhere changed since this tree was built.
                    self.miss_streak = 0;
                    scratch.restore_tree(&tree.nodes);
                    self.trees[s] = Some(tree);
                    return;
                }
                self.valid_epoch = self.valid_epoch.wrapping_add(1);
                if self.valid_epoch == 0 {
                    self.valid_stamp.fill(u32::MAX);
                    self.valid_epoch = 1;
                }
                self.valid_flags.clear();
                let mut valid_count = 0usize;
                for e in &tree.nodes {
                    let ok = e.parent == u32::MAX
                        || (self.valid_stamp[e.parent as usize] == self.valid_epoch
                            && self.last_changed[e.parent as usize] < tree.built_at);
                    if ok {
                        self.valid_stamp[e.node as usize] = self.valid_epoch;
                        valid_count += 1;
                    }
                    self.valid_flags.push(ok);
                }
                if valid_count == tree.nodes.len() {
                    self.miss_streak = 0;
                    scratch.restore_tree(&tree.nodes);
                    self.trees[s] = Some(tree);
                    return;
                }
                self.miss_streak = self.miss_streak.saturating_add(1);
                self.used -= tree.nodes.len();
                if 2 * valid_count >= tree.nodes.len() {
                    // Enough survives for the seeded re-search to beat a
                    // fresh run.
                    scratch.run_seeded(csr, source, length, &tree.nodes, &self.valid_flags);
                } else {
                    scratch.run_fast(csr, source, length);
                }
            }
        }
        if self.miss_streak >= Self::MISS_STREAK_OFF && !frozen {
            return;
        }
        let len = scratch.visited_order().len();
        if self.used + len <= self.budget {
            let nodes: Vec<CacheNode> = scratch
                .visited_order()
                .iter()
                .map(|&v| CacheNode {
                    node: v.index() as u32,
                    parent: scratch.parent(v).map_or(u32::MAX, |p| p.index() as u32),
                    dist: scratch.distance(v),
                })
                .collect();
            self.used += len;
            self.trees[s] = Some(CachedTree {
                built_at: self.clock,
                changes_at_build: self.changes,
                nodes,
            });
        }
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
        let mut scratch = DijkstraScratch::new(g.num_nodes());
        scratch.run_fast(g.csr(), source, length);
        scratch
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
        let mut scratch = DijkstraScratch::new(g.num_nodes());
        scratch.run_fast(g.csr(), g.find("G0").unwrap(), &unit);
        let mut from_iter: Vec<(NetId, usize)> = scratch
            .tree_net_counts()
            .map(|(n, c)| (n, c as usize))
            .collect();
        from_iter.sort_unstable();
        assert_eq!(from_iter, scratch.tree_net_branch_counts());
    }

    #[test]
    fn sssp_cache_reuses_and_invalidates_correctly() {
        let g = s27_graph();
        let n = g.num_nodes();
        let mut lengths = vec![1.0; n];
        let src = g.find("G9").unwrap();

        let mut scratch = DijkstraScratch::new(n);
        let mut cache = SsspCache::new(n, 1 << 16);
        cache.run(&mut scratch, g.csr(), src, &lengths);
        let baseline: Vec<u64> = g.nodes().map(|v| scratch.distance(v).to_bits()).collect();

        // Unchanged weights: full reuse, identical results.
        cache.run(&mut scratch, g.csr(), src, &lengths);
        assert!(scratch.stats().reused > 0);
        assert_eq!(scratch.stats().requeued, 0);
        let again: Vec<u64> = g.nodes().map(|v| scratch.distance(v).to_bits()).collect();
        assert_eq!(baseline, again);

        // Increase a weight on the tree: the invalidated part is re-run
        // and the result matches a fresh run bit for bit.
        let changed = scratch.tree_nets()[0];
        lengths[changed.index()] += 2.5;
        cache.note_changed(changed);
        cache.run(&mut scratch, g.csr(), src, &lengths);
        let incremental: Vec<u64> = g.nodes().map(|v| scratch.distance(v).to_bits()).collect();
        let inc_parents: Vec<Option<NetId>> = g.nodes().map(|v| scratch.parent(v)).collect();

        let mut fresh = DijkstraScratch::new(n);
        fresh.run_fast(g.csr(), src, &lengths);
        let want: Vec<u64> = g.nodes().map(|v| fresh.distance(v).to_bits()).collect();
        let want_parents: Vec<Option<NetId>> = g.nodes().map(|v| fresh.parent(v)).collect();
        assert_eq!(incremental, want);
        assert_eq!(inc_parents, want_parents);
    }

    #[test]
    fn sssp_cache_with_zero_budget_always_runs_fresh() {
        let g = s27_graph();
        let n = g.num_nodes();
        let unit = vec![1.0; n];
        let src = g.find("G0").unwrap();
        let mut scratch = DijkstraScratch::new(n);
        let mut cache = SsspCache::new(n, 0);
        cache.run(&mut scratch, g.csr(), src, &unit);
        cache.run(&mut scratch, g.csr(), src, &unit);
        assert_eq!(scratch.stats().reused, 0);
        assert_eq!(scratch.stats().requeued, 0);
    }

    #[test]
    fn csr_run_matches_reference_exactly() {
        let g = s27_graph();
        let lengths: Vec<f64> = (0..g.num_nodes()).map(|i| (i % 7) as f64 * 0.5).collect();
        for src in g.nodes() {
            let mut a = DijkstraScratch::new(g.num_nodes());
            a.run(&g, src, &lengths);
            let mut b = DijkstraScratch::new(g.num_nodes());
            b.run_fast(g.csr(), src, &lengths);
            assert_eq!(a.visited_order(), b.visited_order(), "src {src}");
            assert_eq!(a.stats(), b.stats(), "src {src}");
            for v in g.nodes() {
                assert_eq!(a.distance(v).to_bits(), b.distance(v).to_bits());
                assert_eq!(a.parent(v), b.parent(v));
            }
            assert_eq!(a.tree_nets(), b.tree_nets());
            assert_eq!(a.tree_net_branch_counts(), b.tree_net_branch_counts());
        }
    }

    #[test]
    fn slot_queue_run_matches_reference_exactly() {
        let g = s27_graph();
        // A coarse grid with zeros to force distance ties and absorption-
        // style equal keys — the cases a sloppy drain order would break.
        let lengths: Vec<f64> = (0..g.num_nodes()).map(|i| (i % 4) as f64 * 0.5).collect();
        for src in g.nodes() {
            let mut a = DijkstraScratch::new(g.num_nodes());
            a.run(&g, src, &lengths);
            let mut b = DijkstraScratch::new(g.num_nodes());
            b.run_fast(g.csr(), src, &lengths);
            // Bit-identical in every observable, settle order and work
            // counters included: the slot queue reproduces the binary
            // heap's (distance, node) pop order exactly.
            assert_eq!(a.visited_order(), b.visited_order(), "src {src}");
            assert_eq!(a.stats(), b.stats(), "src {src}");
            for v in g.nodes() {
                assert_eq!(
                    a.distance(v).to_bits(),
                    b.distance(v).to_bits(),
                    "src {src}"
                );
                assert_eq!(a.parent(v), b.parent(v), "src {src}");
            }
            assert_eq!(a.tree_nets(), b.tree_nets());
            assert_eq!(a.tree_net_branch_counts(), b.tree_net_branch_counts());
        }
    }

    #[test]
    fn slot_queue_handles_clamped_congestion_range() {
        let g = s27_graph();
        // Clamped-congestion-sized lengths span the whole f64 exponent
        // range; the fixed slots must cover it without any fallback.
        let mut lengths = vec![1.0; g.num_nodes()];
        let src = g.find("G9").unwrap();
        lengths[src.index()] = 1e300;
        lengths[g.find("G0").unwrap().index()] = 1e-12;
        let mut a = DijkstraScratch::new(g.num_nodes());
        a.run(&g, src, &lengths);
        let mut b = DijkstraScratch::new(g.num_nodes());
        b.run_fast(g.csr(), src, &lengths);
        assert_eq!(a.visited_order(), b.visited_order());
        assert_eq!(a.stats(), b.stats());
        for v in g.nodes() {
            assert_eq!(a.distance(v).to_bits(), b.distance(v).to_bits());
            assert_eq!(a.parent(v), b.parent(v));
        }
    }

    #[test]
    fn slot_queue_pops_in_distance_then_node_order() {
        let mut h = SlotQueue::new();
        h.ensure();
        // 5.0 and 5.125 share a slot (same top 16 bits), so the drain sort
        // and the same-slot tie order are both exercised.
        let keys = [5.0f64, 1.25, 5.0, 0.0, 1.25, 9.75, 5.125];
        for (i, k) in keys.iter().enumerate() {
            h.push(k.to_bits(), i as u32);
        }
        let mut popped = Vec::new();
        while let Some((k, n)) = h.pop() {
            popped.push((f64::from_bits(k), n));
        }
        assert_eq!(
            popped,
            vec![
                (0.0, 3),
                (1.25, 1),
                (1.25, 4),
                (5.0, 0),
                (5.0, 2),
                (5.125, 6),
                (9.75, 5)
            ]
        );
    }

    #[test]
    fn stats_accumulate_and_reset() {
        let g = s27_graph();
        let unit = vec![1.0; g.num_nodes()];
        let mut scratch = DijkstraScratch::new(g.num_nodes());
        scratch.run(&g, g.find("G0").unwrap(), &unit);
        let one = scratch.stats();
        assert!(one.heap_pops >= one.settled);
        assert!(one.settled >= 2);
        assert!(one.relaxations >= one.settled - 1);
        assert_eq!(one.settled, scratch.visited_order().len() as u64);

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

    // The `*_rejected*` tests below are regression tests for a release-mode
    // hole: the length check used to be a `debug_assert!`, so `--release`
    // builds accepted NaN (and negative) lengths and silently corrupted the
    // queue order. CI runs them under the release profile as well, for the
    // reference and for both production paths (fresh and seeded).

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_length_rejected() {
        let g = s27_graph();
        let src = g.find("G0").unwrap();
        let mut lengths = vec![1.0; g.num_nodes()];
        lengths[src.index()] = -1.0; // the source always settles first
        let mut scratch = DijkstraScratch::new(g.num_nodes());
        scratch.run(&g, src, &lengths);
    }

    #[test]
    #[should_panic(expected = "not NaN")]
    fn nan_length_rejected() {
        let g = s27_graph();
        let src = g.find("G0").unwrap();
        let mut lengths = vec![1.0; g.num_nodes()];
        lengths[src.index()] = f64::NAN;
        let mut scratch = DijkstraScratch::new(g.num_nodes());
        scratch.run(&g, src, &lengths);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn slot_queue_rejects_negative_lengths() {
        let g = s27_graph();
        let src = g.find("G0").unwrap();
        let mut lengths = vec![1.0; g.num_nodes()];
        lengths[src.index()] = -0.5; // the source always settles first
        let mut scratch = DijkstraScratch::new(g.num_nodes());
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

    #[test]
    #[should_panic(expected = "strictly positive")]
    fn nan_length_rejected_by_seeded_run() {
        // The cache's partial re-search checks lengths on its own. Poison
        // the net entering the last-settled node: most of the tree stays
        // valid, so the cache takes the seeded path, not a fresh run (whose
        // panic message would not match).
        let g = s27_graph();
        let n = g.num_nodes();
        let src = g.find("G0").unwrap();
        let mut lengths = vec![1.0; n];
        let mut scratch = DijkstraScratch::new(n);
        let mut cache = SsspCache::new(n, 1 << 16);
        cache.run(&mut scratch, g.csr(), src, &lengths);
        let last = *scratch.visited_order().last().unwrap();
        let changed = scratch.parent(last).unwrap();
        lengths[changed.index()] = f64::NAN;
        cache.note_changed(changed);
        cache.run(&mut scratch, g.csr(), src, &lengths);
    }
}
