//! `Make_Group` — congestion-guided clustering (paper Tables 4–7).

use std::collections::HashMap;

use ppet_flow::CongestionProfile;
use ppet_graph::{scc::Scc, CircuitGraph, NetId};
use ppet_netlist::CellId;

use crate::budget::SccBudget;
use crate::cluster::Clustering;

/// Parameters of [`make_group`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MakeGroupParams {
    /// The input constraint `l_k`: every cluster must end up with
    /// `ι(π) ≤ l_k`.
    pub lk: usize,
    /// The SCC cut-budget relaxation `β` of Eq. (6) (the paper's
    /// experiments use 50).
    pub beta: usize,
    /// Cells the user has *locked* (paper Table 5, STEP 2.1): Merced does
    /// not work on them. They form one dedicated cluster that is never
    /// split, never merged with free logic, and exempt from the input
    /// constraint (e.g. a hard macro or pre-tested block).
    pub locked: Vec<CellId>,
}

impl MakeGroupParams {
    /// Parameters with the paper's default `β = 50` and no locked cells.
    #[must_use]
    pub fn new(lk: usize) -> Self {
        Self {
            lk,
            beta: 50,
            locked: Vec::new(),
        }
    }

    /// Overrides `β`.
    #[must_use]
    pub fn with_beta(mut self, beta: usize) -> Self {
        self.beta = beta;
        self
    }

    /// Locks cells out of the partitioner (paper Table 5, STEP 2.1).
    #[must_use]
    pub fn with_locked(mut self, cells: Vec<CellId>) -> Self {
        self.locked = cells;
        self
    }
}

/// The outcome of [`make_group`].
#[derive(Debug, Clone)]
pub struct MakeGroupResult {
    /// The clustering (clusters sorted by descending input count, paper
    /// Table 4 STEP 6).
    pub clustering: Clustering,
    /// All severed (cut) nets.
    pub cut_nets: Vec<NetId>,
    /// Nets the SCC budget forced to stay internal (`d(e) := 0`, paper
    /// Table 7 STEP 2.1.2.1).
    pub forced_internal: Vec<NetId>,
    /// Number of congestion boundaries consumed from the sorted stack.
    pub boundaries_used: usize,
    /// Clusters that still violate the input constraint after the boundary
    /// stack was exhausted (possible when `β` is tight or a cell's fan-in
    /// exceeds `l_k`; empty in the paper's operating regime).
    pub oversized: Vec<usize>,
    /// The cluster holding locked cells, if any were given.
    pub locked_cluster: Option<usize>,
}

/// Sticky per-net severing state: once decided, a net's fate never changes
/// as the boundary descends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum NetState {
    Undecided,
    Severed,
    ForcedInternal,
}

/// Runs the clustering driver of the paper's Table 4:
///
/// 1. build the sorted stack of congestion distances (descending);
/// 2. form clusters by severing every net at least as congested as the
///    current boundary (`Make_Set`, Table 5; severing honours the SCC
///    budget of Eq. (6) — over-budget nets are forced internal instead);
/// 3. while some cluster has more than `l_k` inputs, pop the next boundary
///    and re-split that cluster;
/// 4. sort clusters by input count, descending.
///
/// # Examples
///
/// ```
/// use ppet_flow::{saturate_network, FlowParams};
/// use ppet_graph::{scc::Scc, CircuitGraph};
/// use ppet_netlist::data;
/// use ppet_partition::{make_group, MakeGroupParams};
///
/// let g = CircuitGraph::from_circuit(&data::s27());
/// let scc = Scc::of(&g);
/// let profile = saturate_network(&g, &scc, &FlowParams::paper(), 3);
/// let result = make_group(&g, &scc, &profile, &MakeGroupParams::new(3));
/// assert!(result.oversized.is_empty());
/// ```
#[must_use]
pub fn make_group(
    graph: &CircuitGraph,
    scc: &Scc,
    profile: &CongestionProfile,
    params: &MakeGroupParams,
) -> MakeGroupResult {
    let n = graph.num_nodes();
    let mut state = vec![NetState::Undecided; n];
    let mut budget = SccBudget::new(graph, scc, params.beta);
    let boundaries = profile.sorted_boundaries();
    let mut boundary_iter = boundaries.into_iter();
    let mut boundaries_used = 0usize;

    let mut assignment: Vec<u32> = vec![0; n];
    let mut position = vec![NOT_IN_SUBSET; n];
    let mut next_id: u32 = 0;
    // Live clusters: id -> (members, input count).
    let mut clusters: HashMap<u32, (Vec<CellId>, usize)> = HashMap::new();

    // Locked cells (paper Table 5, STEP 2.1) are fenced off into their own
    // cluster before clustering begins.
    let mut is_locked = vec![false; n];
    for &c in &params.locked {
        is_locked[c.index()] = true;
    }
    let locked_id: Option<u32> = if params.locked.is_empty() {
        None
    } else {
        let id = next_id;
        next_id += 1;
        let mut members: Vec<CellId> = params.locked.clone();
        members.sort_unstable();
        members.dedup();
        for &m in &members {
            assignment[m.index()] = id;
        }
        let inputs = local_input_count(graph, &members, &assignment, id);
        clusters.insert(id, (members, inputs));
        Some(id)
    };

    let all: Vec<CellId> = graph.nodes().filter(|v| !is_locked[v.index()]).collect();
    let first_boundary = boundary_iter.next().unwrap_or(f64::INFINITY);
    boundaries_used += 1;
    split_subset(
        graph,
        profile,
        &all,
        first_boundary,
        &mut state,
        &mut budget,
        &mut assignment,
        &mut next_id,
        &mut clusters,
        &mut position,
    );

    loop {
        // Pick the cluster with the largest input count above l_k
        // (deterministic: smallest id on ties).
        let worst = clusters
            .iter()
            .map(|(&id, &(_, inputs))| (id, inputs))
            .filter(|&(id, inputs)| inputs > params.lk && Some(id) != locked_id)
            .max_by_key(|&(id, inputs)| (inputs, std::cmp::Reverse(id)))
            .map(|(id, _)| id);
        let Some(worst) = worst else { break };
        let Some(boundary) = boundary_iter.next() else {
            break;
        };
        boundaries_used += 1;
        let (members, _) = clusters.remove(&worst).expect("cluster exists");
        split_subset(
            graph,
            profile,
            &members,
            boundary,
            &mut state,
            &mut budget,
            &mut assignment,
            &mut next_id,
            &mut clusters,
            &mut position,
        );
    }

    // Assemble the result; sort clusters by descending input count.
    let mut ordered: Vec<(u32, usize)> = clusters
        .iter()
        .map(|(&id, (_, inputs))| (id, *inputs))
        .collect();
    ordered.sort_by_key(|&(id, inputs)| (std::cmp::Reverse(inputs), id));
    let rank: HashMap<u32, u32> = ordered
        .iter()
        .enumerate()
        .map(|(rank, &(id, _))| (id, rank as u32))
        .collect();
    let dense: Vec<u32> = assignment.iter().map(|c| rank[c]).collect();
    let clustering = Clustering::from_dense(dense, ordered.len());

    let cut_nets = crate::inputs::cut_nets(graph, &clustering);
    let forced_internal: Vec<NetId> = graph
        .nodes()
        .filter(|v| state[v.index()] == NetState::ForcedInternal)
        .collect();
    let locked_cluster = locked_id.map(|id| rank[&id] as usize);
    let oversized: Vec<usize> = clustering
        .iter()
        .filter(|&(id, _)| Some(id.index()) != locked_cluster)
        .filter(|&(id, _)| crate::inputs::input_count(graph, &clustering, id) > params.lk)
        .map(|(id, _)| id.index())
        .collect();

    MakeGroupResult {
        clustering,
        cut_nets,
        forced_internal,
        boundaries_used,
        oversized,
        locked_cluster,
    }
}

/// [`split_subset`]'s `position` of a cell outside the subset.
const NOT_IN_SUBSET: u32 = u32::MAX;

/// `Make_Set` (paper Table 5): splits `subset` into weakly connected
/// components over unsevered nets at `boundary`, registering the new
/// clusters with their input counts.
///
/// `position` is a per-cell scratch array, all [`NOT_IN_SUBSET`] on entry
/// and on return.
#[allow(clippy::too_many_arguments)]
fn split_subset(
    graph: &CircuitGraph,
    profile: &CongestionProfile,
    subset: &[CellId],
    boundary: f64,
    state: &mut [NetState],
    budget: &mut SccBudget,
    assignment: &mut [u32],
    next_id: &mut u32,
    clusters: &mut HashMap<u32, (Vec<CellId>, usize)>,
    position: &mut [u32],
) {
    // Union-find over subset positions.
    for (i, &v) in subset.iter().enumerate() {
        position[v.index()] = i as u32;
    }
    let mut parent: Vec<usize> = (0..subset.len()).collect();
    fn find(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        x
    }

    // Decide nets driven from inside the subset, in ascending net id order
    // for determinism.
    for &u in subset {
        let severed = match state[u.index()] {
            NetState::Severed => true,
            NetState::ForcedInternal => false,
            NetState::Undecided => {
                if graph.net(u).sinks().is_empty() {
                    continue; // nothing to bind or cut
                }
                if profile.distance(u) >= boundary {
                    if budget.try_charge(u) {
                        state[u.index()] = NetState::Severed;
                        true
                    } else {
                        state[u.index()] = NetState::ForcedInternal;
                        false
                    }
                } else {
                    false
                }
            }
        };
        if severed {
            continue;
        }
        let pu = position[u.index()] as usize;
        for &sink in graph.net(u).sinks() {
            let ps = position[sink.index()];
            if ps != NOT_IN_SUBSET {
                let (a, b) = (find(&mut parent, pu), find(&mut parent, ps as usize));
                if a != b {
                    parent[a] = b;
                }
            }
        }
    }

    // Collect components and register them in ascending root order.
    let mut groups: Vec<Vec<CellId>> = vec![Vec::new(); subset.len()];
    for (i, &v) in subset.iter().enumerate() {
        groups[find(&mut parent, i)].push(v);
        position[v.index()] = NOT_IN_SUBSET;
    }
    for members in groups.into_iter().filter(|g| !g.is_empty()) {
        let id = *next_id;
        *next_id += 1;
        for &m in &members {
            assignment[m.index()] = id;
        }
        let inputs = local_input_count(graph, &members, assignment, id);
        clusters.insert(id, (members, inputs));
    }
}

/// ι for a live cluster during construction: distinct external driver nets
/// plus PI nets inside.
fn local_input_count(
    graph: &CircuitGraph,
    members: &[CellId],
    assignment: &[u32],
    id: u32,
) -> usize {
    let mut nets: Vec<CellId> = Vec::new();
    for &m in members {
        for &driver in graph.fanin(m) {
            if assignment[driver.index()] != id || graph.is_input(driver) {
                nets.push(driver);
            }
        }
        if graph.is_input(m) {
            nets.push(m);
        }
    }
    nets.sort_unstable();
    nets.dedup();
    nets.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs;
    use ppet_flow::{saturate_network, FlowParams};
    use ppet_netlist::data;

    fn setup() -> (CircuitGraph, Scc, CongestionProfile) {
        let g = CircuitGraph::from_circuit(&data::s27());
        let scc = Scc::of(&g);
        let profile = saturate_network(&g, &scc, &FlowParams::paper(), 1996);
        (g, scc, profile)
    }

    #[test]
    fn satisfies_input_constraint_on_s27() {
        let (g, scc, profile) = setup();
        for lk in [3usize, 4, 6] {
            let r = make_group(&g, &scc, &profile, &MakeGroupParams::new(lk));
            assert!(r.oversized.is_empty(), "lk={lk}");
            for (id, _) in r.clustering.iter() {
                assert!(
                    inputs::input_count(&g, &r.clustering, id) <= lk,
                    "lk={lk} cluster {id:?}"
                );
            }
        }
    }

    #[test]
    fn clusters_partition_the_node_set() {
        let (g, scc, profile) = setup();
        let r = make_group(&g, &scc, &profile, &MakeGroupParams::new(3));
        let total: usize = r.clustering.iter().map(|(_, m)| m.len()).sum();
        assert_eq!(total, g.num_nodes());
    }

    #[test]
    fn clusters_sorted_by_descending_inputs() {
        let (g, scc, profile) = setup();
        let r = make_group(&g, &scc, &profile, &MakeGroupParams::new(3));
        let counts: Vec<usize> = r
            .clustering
            .iter()
            .map(|(id, _)| inputs::input_count(&g, &r.clustering, id))
            .collect();
        for pair in counts.windows(2) {
            assert!(pair[0] >= pair[1], "{counts:?}");
        }
    }

    #[test]
    fn cut_nets_reported_match_clustering() {
        let (g, scc, profile) = setup();
        let r = make_group(&g, &scc, &profile, &MakeGroupParams::new(3));
        assert_eq!(r.cut_nets, inputs::cut_nets(&g, &r.clustering));
        assert!(!r.cut_nets.is_empty());
    }

    #[test]
    fn tight_beta_forces_nets_internal() {
        let (g, scc, profile) = setup();
        let relaxed = make_group(&g, &scc, &profile, &MakeGroupParams::new(3).with_beta(50));
        let tight = make_group(&g, &scc, &profile, &MakeGroupParams::new(3).with_beta(1));
        // β = 1 on s27 limits SCC cuts to f(SCC) = 3.
        let on_scc_tight = inputs::cuts_on_scc(&g, &scc, &tight.cut_nets);
        assert!(on_scc_tight.len() <= 3, "{on_scc_tight:?}");
        // And the relaxed run cuts at least as many SCC nets.
        let on_scc_relaxed = inputs::cuts_on_scc(&g, &scc, &relaxed.cut_nets);
        assert!(on_scc_relaxed.len() >= on_scc_tight.len());
        if on_scc_relaxed.len() > 3 {
            assert!(!tight.forced_internal.is_empty());
        }
    }

    #[test]
    fn deterministic_given_profile() {
        let (g, scc, profile) = setup();
        let a = make_group(&g, &scc, &profile, &MakeGroupParams::new(3));
        let b = make_group(&g, &scc, &profile, &MakeGroupParams::new(3));
        assert_eq!(a.clustering, b.clustering);
        assert_eq!(a.cut_nets, b.cut_nets);
    }

    #[test]
    fn locked_cells_form_their_own_untouched_cluster() {
        let (g, scc, profile) = setup();
        let locked: Vec<_> = ["G12", "G13", "G7"]
            .iter()
            .map(|n| g.find(n).unwrap())
            .collect();
        let r = make_group(
            &g,
            &scc,
            &profile,
            &MakeGroupParams::new(3).with_locked(locked.clone()),
        );
        let lc = r.locked_cluster.expect("locked cluster exists");
        let members = r.clustering.members(crate::ClusterId(lc as u32));
        let mut expected = locked.clone();
        expected.sort_unstable();
        assert_eq!(members, expected.as_slice());
        // Free clusters still satisfy the constraint.
        assert!(r.oversized.is_empty());
        for (id, _) in r.clustering.iter() {
            if id.index() != lc {
                assert!(inputs::input_count(&g, &r.clustering, id) <= 3);
            }
        }
    }

    #[test]
    fn no_locked_cells_means_no_locked_cluster() {
        let (g, scc, profile) = setup();
        let r = make_group(&g, &scc, &profile, &MakeGroupParams::new(3));
        assert!(r.locked_cluster.is_none());
    }

    #[test]
    fn large_lk_keeps_circuit_whole() {
        let (g, scc, profile) = setup();
        // l_k = 16 > 4 PIs: the whole circuit fits in one cluster after the
        // first boundary (only the most congested nets are severed).
        let r = make_group(&g, &scc, &profile, &MakeGroupParams::new(16));
        assert!(r.oversized.is_empty());
        // Far fewer cuts than at l_k = 3.
        let tight = make_group(&g, &scc, &profile, &MakeGroupParams::new(3));
        assert!(r.cut_nets.len() <= tight.cut_nets.len());
    }
}
