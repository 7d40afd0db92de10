//! The result of a saturation run.

use ppet_graph::dijkstra::DijkstraStats;
use ppet_netlist::NetId;

/// Per-net congestion data produced by
/// [`saturate_network`](crate::saturate_network).
///
/// Distances and flows are indexed by net (= driver cell) id. Nets with no
/// sinks keep the initial distance `1.0` and zero flow.
#[derive(Debug, Clone, PartialEq)]
pub struct CongestionProfile {
    pub(crate) distance: Vec<f64>,
    pub(crate) flow: Vec<f64>,
    pub(crate) visits: Vec<u32>,
    pub(crate) trees: usize,
    pub(crate) search: DijkstraStats,
    pub(crate) saturated: bool,
    pub(crate) shortfall: Vec<u32>,
}

impl CongestionProfile {
    /// The congestion distance `d(e)` of a net.
    #[must_use]
    pub fn distance(&self, net: NetId) -> f64 {
        self.distance[net.index()]
    }

    /// The accumulated flow of a net.
    #[must_use]
    pub fn flow(&self, net: NetId) -> f64 {
        self.flow[net.index()]
    }

    /// How many times each node served as a Dijkstra source.
    #[must_use]
    pub fn visits(&self) -> &[u32] {
        &self.visits
    }

    /// Total number of shortest-path trees computed.
    #[must_use]
    pub fn num_trees(&self) -> usize {
        self.trees
    }

    /// Aggregate Dijkstra work counters (heap pops, relaxations, settled
    /// nodes) summed across every tree of the run.
    #[must_use]
    pub fn search_stats(&self) -> DijkstraStats {
        self.search
    }

    /// Whether every node met its visit quota before the run stopped.
    ///
    /// `false` means the [`FlowParams::max_trees`](crate::FlowParams)
    /// budget ran out first and the distance function was built from fewer
    /// trees than the paper's STEP 3 loop condition demands — see
    /// [`CongestionProfile::shortfall`] for where the quota was missed.
    #[must_use]
    pub fn is_saturated(&self) -> bool {
        self.saturated
    }

    /// Per-node visit shortfall: how many source visits each node was
    /// short of its quota when the run stopped (all zeros when
    #[must_use]
    pub fn shortfall(&self) -> &[u32] {
        &self.shortfall
    }

    /// Number of nodes that never met their visit quota.
    #[must_use]
    pub fn unsaturated_nodes(&self) -> usize {
        self.shortfall.iter().filter(|&&s| s > 0).count()
    }

    /// True when two profiles agree on every *algorithmic* output —
    /// distances, flows, visit counts, tree count, saturation flag and
    /// shortfall — ignoring the [`DijkstraStats`] work counters.
    ///
    /// This is the equivalence any saturation engine must meet against
    /// the reference; how much search work it spends may differ.
    /// `PartialEq` compares the counters too. Today's production loop
    /// settles in the reference's exact order and matches every counter
    /// but `heap_pops`: it pops a component bitmap and, inside cyclic
    /// components, a heap of its own, not the reference's one heap.
    #[must_use]
    pub fn result_eq(&self, other: &Self) -> bool {
        self.distance == other.distance
            && self.flow == other.flow
            && self.visits == other.visits
            && self.trees == other.trees
            && self.saturated == other.saturated
            && self.shortfall == other.shortfall
    }

    /// The raw distance vector (one slot per net id), for use as Dijkstra
    /// lengths or partitioner boundaries.
    #[must_use]
    pub fn distances(&self) -> &[f64] {
        &self.distance
    }

    /// The distinct distance values, sorted descending — the paper's sorted
    /// stack `D` of `Make_Group` STEP 3, from which clustering boundaries
    /// are popped.
    #[must_use]
    pub fn sorted_boundaries(&self) -> Vec<f64> {
        let mut values: Vec<f64> = self.distance.clone();
        values.sort_by(|a, b| b.partial_cmp(a).unwrap_or(std::cmp::Ordering::Equal));
        values.dedup_by(|a, b| (*a - *b).abs() < f64::EPSILON * a.abs().max(1.0));
        values
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppet_netlist::CellId;

    fn sample() -> CongestionProfile {
        CongestionProfile {
            distance: vec![1.0, 2.5, 2.5, 7.0],
            flow: vec![0.0, 0.2, 0.2, 0.5],
            visits: vec![3, 3, 3, 3],
            trees: 12,
            search: DijkstraStats::default(),
            saturated: true,
            shortfall: vec![0, 0, 0, 0],
        }
    }

    #[test]
    fn accessors() {
        let p = sample();
        assert_eq!(p.distance(CellId::from_index(3)), 7.0);
        assert_eq!(p.flow(CellId::from_index(1)), 0.2);
        assert_eq!(p.num_trees(), 12);
        assert_eq!(p.distances().len(), 4);
        assert!(p.is_saturated());
        assert_eq!(p.unsaturated_nodes(), 0);
    }

    #[test]
    fn shortfall_counts_unsaturated_nodes() {
        let mut p = sample();
        p.saturated = false;
        p.shortfall = vec![0, 2, 0, 1];
        assert!(!p.is_saturated());
        assert_eq!(p.unsaturated_nodes(), 2);
        assert_eq!(p.shortfall(), &[0, 2, 0, 1]);
    }

    #[test]
    fn boundaries_sorted_descending_and_deduplicated() {
        let p = sample();
        assert_eq!(p.sorted_boundaries(), vec![7.0, 2.5, 1.0]);
    }
}
