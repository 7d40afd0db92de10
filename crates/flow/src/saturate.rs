//! The `Saturate_Network` procedure (paper Table 3).
//!
//! Each tree `T_v` is a [`dijkstra::DijkstraScratch`] run that settles the
//! graph one strongly connected component at a time, in topological
//! order: nodes on no cycle settle without a priority queue. One scratch
//! serves a whole saturation: it lays the graph out in the condensation
//! order of the compile's STEP 2 components once per call, never per
//! tree.

use ppet_graph::{dijkstra, scc::Scc, CircuitGraph};
use ppet_netlist::CellId;
use ppet_prng::{Rng, Xoshiro256PlusPlus};

use crate::params::FlowParams;
use crate::profile::CongestionProfile;

/// Runs the probabilistic multicommodity-flow saturation on `graph`,
/// whose SCC decomposition ([`Scc::of`], the paper's STEP 2) is `scc`.
///
/// Follows the paper's Table 3:
///
/// ```text
/// STEP 1  d(e) = 1, flow(e) = 0, cap(e) = b            for every net
/// STEP 2  visit(v) = 0                                  for every node
/// STEP 3  while ∃v: visit(v) ≤ min_visit:
///   3.1     pick v next in a random round; visit(v) += 1
///   3.2     T_v = Dijkstra(G, d(E), v)
///   3.3     for each net e ∈ T_v: flow(e) += Δ; d(e) = exp(α·flow/cap)
/// STEP 4  return d(E)
/// ```
///
/// STEP 3.1 picks sources in rounds: each round visits every node once,
/// in a fresh uniformly random order from the workspace PRNG seeded with
/// `seed`, so the whole process is reproducible. Every node is still a
/// uniformly random source, equally often (a stratified sample of the
/// paper's uniform draws). The loop stops after exactly `min_visit + 1`
/// rounds, `(min_visit + 1) · |V|` trees: the fewest that meet STEP 3's
/// condition, where independent uniform draws need 36–45 per node for
/// `min_visit = 20` (a coupon collector).
///
/// The inner loop runs the component-ordered Dijkstra
/// ([`dijkstra::DijkstraScratch::run_fast`]) over the graph renumbered
/// in condensation order, so net lengths, flows and hit counts live in
/// position space until the loop ends and map back to net ids once. The
/// whole profile is bit-identical to [`saturate_network_reference`],
/// which it is tested against, and so are the work counters but
/// `heap_pops`: the two engines pop different queues.
///
/// # Panics
///
/// Panics if `params` fail [`FlowParams::validate`], or if `scc` is not
/// a decomposition of `graph`'s nodes.
///
/// # Examples
///
/// ```
/// use ppet_flow::{saturate_network, FlowParams};
/// use ppet_graph::{scc::Scc, CircuitGraph};
/// use ppet_netlist::data;
///
/// let g = CircuitGraph::from_circuit(&data::s27());
/// let scc = Scc::of(&g);
/// let a = saturate_network(&g, &scc, &FlowParams::quick(), 7);
/// let b = saturate_network(&g, &scc, &FlowParams::quick(), 7);
/// assert_eq!(a, b); // deterministic per seed
/// ```
#[must_use]
pub fn saturate_network(
    graph: &CircuitGraph,
    scc: &Scc,
    params: &FlowParams,
    seed: u64,
) -> CongestionProfile {
    if let Some(problem) = params.validate() {
        panic!("invalid flow parameters: {problem}");
    }
    let n = graph.num_nodes();
    if n == 0 {
        return CongestionProfile {
            distance: Vec::new(),
            flow: Vec::new(),
            visits: Vec::new(),
            trees: 0,
            search: dijkstra::DijkstraStats::default(),
            saturated: true,
            shortfall: Vec::new(),
        };
    }

    let quota = params.min_visit;
    // `distance`, `flow` and `hits` are indexed by condensation position
    // (`scratch.position`) until the loop ends.
    let mut distance = vec![1.0f64; n];
    let mut flow = vec![0.0f64; n];
    let mut visits = vec![0u32; n];
    let mut trees = 0usize;
    let mut scratch = dijkstra::DijkstraScratch::new(graph, scc);
    let mut table = DistTable::new();
    // Per-net tree-membership count: in per-net mode a net's flow is
    // `flow_of[hits[i]]`, read once after the loop.
    let mut hits = vec![0u32; n];
    // STEP 3: `min_visit + 1` rounds of every node once, which meets the
    // paper's loop condition `∃v: visit(v) <= min_visit` exactly.
    for v in sources(n, params, seed) {
        visits[v.index()] += 1;
        scratch.run_fast(v, &distance);
        trees += 1;
        if params.per_branch {
            for (i, count) in scratch.tree_net_positions() {
                flow[i] += params.delta * f64::from(count);
                distance[i] = params.congestion_distance(flow[i]);
            }
        } else {
            for (i, _) in scratch.tree_net_positions() {
                hits[i] += 1;
                let k = hits[i] as usize;
                table.ensure(k, params);
                distance[i] = table.dist_of[k];
            }
        }
    }
    if !params.per_branch {
        for (f, &k) in flow.iter_mut().zip(&hits) {
            *f = table.flow_of[k as usize];
        }
    }
    let distance = scratch.by_node(&distance);
    let flow = scratch.by_node(&flow);
    // Per-node visit shortfall: how many visits each node was short of
    // `min_visit + 1` when the loop stopped (non-zero only when the tree
    // budget ran out first).
    let shortfall: Vec<u32> = visits
        .iter()
        .map(|&v| (quota + 1).saturating_sub(v))
        .collect();
    let saturated = shortfall.iter().all(|&s| s == 0);
    CongestionProfile {
        distance,
        flow,
        visits,
        trees,
        search: scratch.stats(),
        saturated,
        shortfall,
    }
}

/// Seed salt for the saturation PRNG (ASCII "SATURATE").
const SATURATE_SALT: u64 = 0x5341_5455_5241_5445;

/// Table 3's source sequence, shared by the production loop and the
/// reference: `min_visit + 1` rounds, each a fresh uniformly random
/// permutation of all `n` nodes, cut off after
/// [`FlowParams::max_trees`] sources.
fn sources(n: usize, params: &FlowParams, seed: u64) -> impl Iterator<Item = CellId> {
    let mut rng = Xoshiro256PlusPlus::seed_from(seed ^ SATURATE_SALT);
    let mut order: Vec<CellId> = (0..n).map(CellId::from_index).collect();
    let budget = params
        .max_trees
        .map_or(usize::MAX, |cap| usize::try_from(cap).unwrap_or(usize::MAX));
    (0..=params.min_visit)
        .flat_map(move |_| {
            rng.shuffle(&mut order);
            order.clone()
        })
        .take(budget)
}

/// Memoized congestion-distance ladder for per-net flow accounting.
///
/// In per-net mode (the paper default) a net that has appeared in `k`
/// trees has flow `((0 + Δ) + Δ) + …` — the same left-fold for every net
/// — so `flow_of[k]` and `dist_of[k] = exp(α·flow_of[k]/cap)` can be
/// computed once and shared. This removes essentially every `exp` call
/// from the hot loop and is bit-identical to the incremental
/// `flow[i] += Δ; d = exp(…)` updates it replaces, because the shared
/// fold performs the identical sequence of additions.
struct DistTable {
    flow_of: Vec<f64>,
    dist_of: Vec<f64>,
}

impl DistTable {
    fn new() -> Self {
        // k = 0: zero flow, unit distance — exactly congestion_distance(0).
        Self {
            flow_of: vec![0.0],
            dist_of: vec![1.0],
        }
    }

    /// Extends the ladder to cover `k` tree memberships.
    fn ensure(&mut self, k: usize, params: &FlowParams) {
        while self.flow_of.len() <= k {
            let f = self.flow_of.last().expect("never empty") + params.delta;
            self.flow_of.push(f);
            self.dist_of.push(params.congestion_distance(f));
        }
    }
}

/// The reference `Saturate_Network` implementation: binary-heap Dijkstra
/// keyed `(component, distance, node)` over the pointer-rich
/// adjacency ([`dijkstra::DijkstraScratch::run`]), per-tree sorted net
/// lists, one `exp` per touched net.
///
/// Retained on purpose as the executable baseline: the `saturate` bench
/// bin times it against the production path to measure the rewrite's
/// speedup, and the equivalence tests assert the two produce the same
/// [`CongestionProfile`], work counters included except `heap_pops`.
#[must_use]
pub fn saturate_network_reference(
    graph: &CircuitGraph,
    params: &FlowParams,
    seed: u64,
) -> CongestionProfile {
    if let Some(problem) = params.validate() {
        panic!("invalid flow parameters: {problem}");
    }
    let n = graph.num_nodes();
    if n == 0 {
        return CongestionProfile {
            distance: Vec::new(),
            flow: Vec::new(),
            visits: Vec::new(),
            trees: 0,
            search: dijkstra::DijkstraStats::default(),
            saturated: true,
            shortfall: Vec::new(),
        };
    }
    let quota = params.min_visit;
    let mut distance = vec![1.0f64; n];
    let mut flow = vec![0.0f64; n];
    let mut visits = vec![0u32; n];
    let mut trees = 0usize;
    let mut scratch = dijkstra::DijkstraScratch::new(graph, &Scc::of(graph));

    for v in sources(n, params, seed) {
        visits[v.index()] += 1;
        scratch.run(graph, v, &distance);
        trees += 1;
        if params.per_branch {
            for (net, count) in scratch.tree_net_branch_counts() {
                let i = net.index();
                flow[i] += params.delta * count as f64;
                distance[i] = params.congestion_distance(flow[i]);
            }
        } else {
            for net in scratch.tree_nets() {
                let i = net.index();
                flow[i] += params.delta;
                distance[i] = params.congestion_distance(flow[i]);
            }
        }
    }

    let shortfall: Vec<u32> = visits
        .iter()
        .map(|&v| (quota + 1).saturating_sub(v))
        .collect();
    let saturated = shortfall.iter().all(|&s| s == 0);
    CongestionProfile {
        distance,
        flow,
        visits,
        trees,
        search: scratch.stats(),
        saturated,
        shortfall,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppet_graph::scc::Scc;
    use ppet_netlist::data;

    fn s27() -> CircuitGraph {
        CircuitGraph::from_circuit(&data::s27())
    }

    /// A Table 9 stand-in circuit, as the compile pipeline builds it.
    fn table9(name: &str) -> CircuitGraph {
        let record = ppet_netlist::data::table9::find(name).expect("stand-in");
        CircuitGraph::from_circuit(
            &ppet_netlist::Synthesizer::new(ppet_netlist::synth::calibrated_spec(record, 0))
                .build(),
        )
    }

    #[test]
    fn every_node_visited_enough() {
        let g = s27();
        let p = FlowParams::quick();
        let prof = saturate_network(&g, &Scc::of(&g), &p, 1);
        for (i, &v) in prof.visits().iter().enumerate() {
            assert_eq!(v, p.min_visit + 1, "node {i}");
        }
        assert_eq!(prof.num_trees(), g.num_nodes() * (p.min_visit as usize + 1));
    }

    #[test]
    fn a_tree_budget_spreads_visits_evenly() {
        // The cap can fall mid-round, but rounds are permutations: no node
        // is a source twice before every node was one once.
        let g = table9("s510");
        let n = g.num_nodes() as u64;
        for cap in [1, n - 1, n, 2 * n + n / 3] {
            let mut p = FlowParams::paper();
            p.max_trees = Some(cap);
            let prof = saturate_network(&g, &Scc::of(&g), &p, 3);
            assert_eq!(prof.num_trees() as u64, cap);
            let lo = prof.visits().iter().min().unwrap();
            let hi = prof.visits().iter().max().unwrap();
            assert!(hi - lo <= 1, "cap {cap}: visits span {lo}..={hi}");
            assert_eq!(
                prof.visits().iter().map(|&v| u64::from(v)).sum::<u64>(),
                cap
            );
        }
    }

    #[test]
    fn distances_consistent_with_flow() {
        let g = s27();
        let p = FlowParams::quick();
        let prof = saturate_network(&g, &Scc::of(&g), &p, 2);
        for (net, _) in g.nets() {
            let expected = (p.alpha * prof.flow(net) / p.capacity).exp();
            let got = prof.distance(net);
            if prof.flow(net) == 0.0 {
                assert_eq!(got, 1.0);
            } else {
                assert!((got - expected).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn matches_the_reference_implementation_bit_for_bit() {
        // The rewrite contract: CSR adjacency and component-ordered
        // Dijkstra change the cost of the work, never *results*. The
        // distance/flow vectors must agree to the last bit, in both
        // accounting modes, across seeds.
        let g = s27();
        for seed in [0, 1, 7, 42] {
            for per_branch in [false, true] {
                let mut p = FlowParams::quick();
                p.per_branch = per_branch;
                let fast = saturate_network(&g, &Scc::of(&g), &p, seed);
                let slow = saturate_network_reference(&g, &p, seed);
                assert!(fast.result_eq(&slow), "seed {seed} per_branch {per_branch}");
                for (net, _) in g.nets() {
                    assert_eq!(
                        fast.distance(net).to_bits(),
                        slow.distance(net).to_bits(),
                        "seed {seed} per_branch {per_branch} net {net}"
                    );
                    assert_eq!(fast.flow(net).to_bits(), slow.flow(net).to_bits());
                }
            }
        }
    }

    #[test]
    fn whole_profile_matches_the_reference_work_counters_included() {
        // The engines differ only in how they search, never in what they
        // find or how much search work that takes: both settle in the
        // same (component, distance, node) order, so relaxations, settles
        // and tree sizes agree too, not only the algorithmic outputs. The
        // pops count different queues: the reference pops exactly what it
        // pushes, one entry per relaxation plus each tree's source.
        for (name, g) in [
            ("s27", s27()),
            ("s510", table9("s510")),
            ("s641", table9("s641")),
        ] {
            for per_branch in [false, true] {
                let mut p = FlowParams::quick();
                p.per_branch = per_branch;
                let fast = saturate_network(&g, &Scc::of(&g), &p, 1);
                let slow = saturate_network_reference(&g, &p, 1);
                assert!(fast.result_eq(&slow), "{name} per_branch {per_branch}");
                let (f, s) = (fast.search_stats(), slow.search_stats());
                assert_eq!(
                    (f.relaxations, f.settled, f.tree_sizes),
                    (s.relaxations, s.settled, s.tree_sizes),
                    "{name} per_branch {per_branch}"
                );
                assert_eq!(
                    s.heap_pops,
                    s.relaxations + slow.num_trees() as u64,
                    "{name} per_branch {per_branch}"
                );
            }
        }
    }

    #[test]
    fn nets_without_sinks_stay_untouched() {
        let g = s27();
        let prof = saturate_network(&g, &Scc::of(&g), &FlowParams::quick(), 3);
        let g17 = g.find("G17").unwrap(); // primary output, no sinks
        assert_eq!(prof.flow(g17), 0.0);
        assert_eq!(prof.distance(g17), 1.0);
    }

    #[test]
    fn scc_nets_are_more_congested_than_periphery() {
        // The paper's Fig. 5 observation: equiprobable source selection
        // pushes flow onto strongly-connected nets. Compare the mean flow of
        // nets inside the sequential core to the mean over PI nets.
        let g = s27();
        let prof = saturate_network(&g, &Scc::of(&g), &FlowParams::paper(), 4);
        let scc = Scc::of(&g);
        let mut core = Vec::new();
        let mut pi = Vec::new();
        for (net, _) in g.nets() {
            if scc.net_in_cyclic_component(&g, net) {
                core.push(prof.flow(net));
            } else if g.is_input(net) {
                pi.push(prof.flow(net));
            }
        }
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        assert!(
            mean(&core) > mean(&pi),
            "core {:?} vs pi {:?}",
            mean(&core),
            mean(&pi)
        );
    }

    #[test]
    fn per_branch_accumulates_at_least_per_net() {
        let g = s27();
        let mut p = FlowParams::quick();
        let per_net = saturate_network(&g, &Scc::of(&g), &p, 5);
        p.per_branch = true;
        let per_branch = saturate_network(&g, &Scc::of(&g), &p, 5);
        // Same seed => same visit sequence on the first tree; flows cannot
        // be directly compared net-by-net after divergence, but totals can:
        let tot_net: f64 = (0..g.num_nodes())
            .map(|i| per_net.flow(ppet_netlist::CellId::from_index(i)))
            .sum();
        let tot_branch: f64 = (0..g.num_nodes())
            .map(|i| per_branch.flow(ppet_netlist::CellId::from_index(i)))
            .sum();
        assert!(tot_branch >= tot_net * 0.99);
    }

    #[test]
    fn different_seeds_differ() {
        // Not s27: with every node a source equally often, its few trees
        // come out the same in any order.
        let g = table9("s641");
        let a = saturate_network(&g, &Scc::of(&g), &FlowParams::quick(), 1);
        let b = saturate_network(&g, &Scc::of(&g), &FlowParams::quick(), 2);
        assert_ne!(a, b);
    }

    #[test]
    #[should_panic(expected = "invalid flow parameters")]
    fn invalid_parameters_panic() {
        let g = s27();
        let mut p = FlowParams::paper();
        p.alpha = 0.0;
        let _ = saturate_network(&g, &Scc::of(&g), &p, 0);
    }

    /// The pipeline traces `flow.*` from the finished profile's search
    /// stats: they must be reproducible and agree with the run.
    #[test]
    fn tracing_does_not_perturb_results() {
        let (g, p) = (s27(), FlowParams::quick());
        let prof = saturate_network(&g, &Scc::of(&g), &p, 9);
        assert_eq!(prof, saturate_network(&g, &Scc::of(&g), &p, 9));
        let stats = prof.search_stats();
        let sizes = &stats.tree_sizes;
        assert_eq!(sizes.iter().sum::<u64>(), prof.num_trees() as u64);
        assert_eq!(sizes[0], 0, "every tree settles its root");
        let low: u64 = (1..32).map(|b| sizes[b] << (b - 1)).sum();
        let high: u64 = (1..32).map(|b| sizes[b] * ((1 << b) - 1)).sum();
        assert!((low..=high).contains(&stats.settled));
        assert!(stats.heap_pops >= stats.settled && stats.relaxations > 0);
    }

    #[test]
    fn empty_graph_is_fine() {
        let c = ppet_netlist::Circuit::new("empty");
        let g = CircuitGraph::from_circuit(&c);
        let prof = saturate_network(&g, &Scc::of(&g), &FlowParams::quick(), 0);
        assert_eq!(prof.num_trees(), 0);
        assert!(prof.is_saturated());
    }

    /// A two-gate chain: the single internal net absorbs every tree, so a
    /// huge `α` drives the raw `exp(α·flow/cap)` past the finite range
    /// within a handful of trees.
    fn tiny() -> CircuitGraph {
        let c = ppet_netlist::bench_format::parse(
            "tiny",
            "INPUT(a)\nOUTPUT(y)\nb = NOT(a)\ny = NOT(b)\n",
        )
        .unwrap();
        CircuitGraph::from_circuit(&c)
    }

    #[test]
    fn extreme_congestion_saturates_instead_of_overflowing() {
        // Regression: with α = 1e6 a single Δ = 0.01 injection makes the
        // raw exponent 10 000 ≫ 709.78, so before the clamp the first
        // touched net's distance became +inf and every later tree saw it
        // as unreachable.
        let g = tiny();
        let mut p = FlowParams::quick();
        p.alpha = 1e6;
        let prof = saturate_network(&g, &Scc::of(&g), &p, 1);
        assert!(prof.num_trees() > 0);
        for (net, _) in g.nets() {
            let d = prof.distance(net);
            assert!(d.is_finite(), "net {net}: distance overflowed to {d}");
            assert!(d <= FlowParams::MAX_EXPONENT.exp());
            if prof.flow(net) > 0.0 {
                assert_eq!(d, p.congestion_distance(prof.flow(net)));
            }
        }
    }

    #[test]
    fn extreme_congestion_matches_the_reference_too() {
        // In the clamped region the distance stops changing; the ladder
        // and the exact-order engine must still match the reference bit
        // for bit.
        let g = tiny();
        let mut p = FlowParams::quick();
        p.alpha = 1e6;
        let fast = saturate_network(&g, &Scc::of(&g), &p, 1);
        let slow = saturate_network_reference(&g, &p, 1);
        assert!(fast.result_eq(&slow));
    }

    #[test]
    fn full_run_is_saturated_with_no_shortfall() {
        let g = s27();
        let p = FlowParams::quick();
        let prof = saturate_network(&g, &Scc::of(&g), &p, 6);
        assert!(prof.is_saturated());
        assert_eq!(prof.unsaturated_nodes(), 0);
        assert!(prof.shortfall().iter().all(|&s| s == 0));
    }

    #[test]
    fn exhausted_tree_budget_reports_shortfall() {
        // Regression: hitting max_trees used to return silently, with no
        // way to tell the profile was built from too few trees.
        let g = s27();
        let mut p = FlowParams::quick();
        p.max_trees = Some(3); // far below the |V|·min_visit quota
        let prof = saturate_network(&g, &Scc::of(&g), &p, 6);
        assert_eq!(prof.num_trees(), 3);
        assert!(!prof.is_saturated());
        assert!(prof.unsaturated_nodes() > 0);
        // Every node with a shortfall really did miss its quota.
        for (i, &s) in prof.shortfall().iter().enumerate() {
            assert_eq!(
                s,
                (p.min_visit + 1).saturating_sub(prof.visits()[i]),
                "node {i}"
            );
        }
    }
}
