//! `Assign_CBIT` — greedy cluster merging into full CBIT widths
//! (paper Table 8).

use std::collections::{BTreeSet, HashMap};

use ppet_graph::{CircuitGraph, NetId};
use ppet_netlist::CellId;

use crate::cluster::Clustering;
use crate::inputs;

/// One final partition (a CUT) with its CBIT input assignment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    /// Member cells, ascending.
    pub members: Vec<CellId>,
    /// The distinct input nets ι(π) this partition's pattern generator
    /// must drive.
    pub input_nets: Vec<NetId>,
}

impl Partition {
    /// ι(π), the partition's input width.
    #[must_use]
    pub fn input_count(&self) -> usize {
        self.input_nets.len()
    }
}

/// The result of [`assign_cbit`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CbitAssignment {
    /// Final partitions, in the order the greedy pass closed them.
    pub partitions: Vec<Partition>,
    /// The merged clustering (one cluster per partition).
    pub clustering: Clustering,
    /// All cut nets of the final clustering.
    pub cut_nets: Vec<NetId>,
    /// Number of merges performed.
    pub merges: usize,
    /// Number of merge candidates evaluated across the whole greedy pass
    /// (feasible or not) — a measure of how much work step 3.2.1 did.
    pub merge_attempts: usize,
}

/// One live cluster during merging.
struct Live {
    members: Vec<CellId>,
    inputs: Vec<NetId>,
}

/// Runs the greedy merge pass of the paper's Table 8:
///
/// ```text
/// STEP 3 while clusters remain:
///   3.1  O = cluster with the largest input count
///   3.2  while ι(O) < l_k and unvisited clusters remain:
///     3.2.1  pick the best feasible g: maximal gain γ = l_k − ι(O+g) ≥ 0,
///            ties broken by the number of cut nets the merge removes
///     3.2.2  if feasible, O = O + g
///   3.3  close O as a partition
/// ```
///
/// Merging small clusters into one CBIT exploits Table 1's economy of
/// scale: per-bit CBIT cost σ_k falls as the length grows, so one 16-bit
/// CBIT beats four 4-bit ones.
///
/// The implementation avoids the quadratic candidate scan of the literal
/// pseudo-code: a cluster *unrelated* to `O` (no shared input nets, no
/// nets crossing between them) merges to exactly `ι(O) + ι(g)` inputs with
/// zero cut removal, so the best unrelated candidate is simply the live
/// cluster with the smallest ι — kept in an ordered index — while only the
/// (few) related clusters need exact evaluation. The selected merge is
/// identical to the full scan's.
///
/// # Examples
///
/// See the crate-level example, which reproduces the paper's s27
/// walkthrough.
#[must_use]
pub fn assign_cbit(graph: &CircuitGraph, clustering: Clustering, lk: usize) -> CbitAssignment {
    let mut live: Vec<Option<Live>> = clustering
        .iter()
        .map(|(id, members)| {
            Some(Live {
                members: members.to_vec(),
                inputs: inputs::input_nets(graph, &clustering, id),
            })
        })
        .collect();
    let n_nodes = clustering.num_nodes();
    let mut owner: Vec<u32> = (0..n_nodes)
        .map(|i| clustering.cluster_of(CellId::from_index(i)).0)
        .collect();

    // Ordered index of live clusters by (ι, idx) and per-net input index.
    let mut by_iota: BTreeSet<(usize, usize)> = live
        .iter()
        .enumerate()
        .map(|(i, l)| (l.as_ref().expect("all live").inputs.len(), i))
        .collect();
    let mut input_index: HashMap<NetId, BTreeSet<usize>> = HashMap::new();
    for (i, l) in live.iter().enumerate() {
        for &n in &l.as_ref().expect("all live").inputs {
            input_index.entry(n).or_default().insert(i);
        }
    }

    // Merged ι of O ∪ g: inputs of either side whose driver is not in the
    // other side — except PI nets, which always stay inputs.
    let merged_inputs = |a: &Live, b: &Live, owner: &[u32], ida: u32, idb: u32| -> Vec<NetId> {
        let mut out = Vec::with_capacity(a.inputs.len() + b.inputs.len());
        for &n in &a.inputs {
            if owner[n.index()] != idb || graph.is_input(n) {
                out.push(n);
            }
        }
        for &n in &b.inputs {
            if owner[n.index()] != ida || graph.is_input(n) {
                out.push(n);
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    };
    // Cut nets absorbed by merging a and b (Table 8 tie-break).
    let cuts_between = |a: &Live, b: &Live, owner: &[u32], ida: u32, idb: u32| -> usize {
        let mut count = 0;
        for (members, other) in [(&a.members, idb), (&b.members, ida)] {
            for &m in members.iter() {
                let net = graph.net(m);
                if net.sinks().iter().any(|&s| owner[s.index()] == other) {
                    count += 1;
                }
            }
        }
        count
    };

    let mut partitions: Vec<Partition> = Vec::new();
    let mut merges = 0usize;
    let mut merge_attempts = 0usize;
    // O = remaining cluster with the largest input count (ties: the
    // smallest index, matching the paper's deterministic extraction;
    // `next_back` gives max ι but the LARGEST idx on ties, so scan the tie
    // range for the smallest idx).
    while let Some(&(max_iota, last_idx)) = by_iota.iter().next_back() {
        let seed = by_iota
            .range((max_iota, 0)..=(max_iota, usize::MAX))
            .map(|&(_, i)| i)
            .min()
            .unwrap_or(last_idx);
        let mut o = live[seed].take().expect("seed is live");
        let o_id = seed as u32;
        by_iota.remove(&(o.inputs.len(), seed));
        for &n in &o.inputs {
            if let Some(set) = input_index.get_mut(&n) {
                set.remove(&seed);
            }
        }

        while o.inputs.len() < lk {
            // Related clusters: shared input nets, drivers of O's inputs,
            // clusters reading O's member nets.
            let mut related: BTreeSet<usize> = BTreeSet::new();
            for &n in &o.inputs {
                if let Some(sharers) = input_index.get(&n) {
                    related.extend(sharers.iter().copied());
                }
                let d = owner[n.index()] as usize;
                if d != seed && live[d].is_some() {
                    related.insert(d);
                }
            }
            for &m in &o.members {
                for &s in graph.net(m).sinks() {
                    let c = owner[s.index()] as usize;
                    if c != seed && live[c].is_some() {
                        related.insert(c);
                    }
                }
            }

            // Best related candidate, evaluated exactly.
            let mut best: Option<(usize, usize, usize)> = None; // (merged ι, cuts, idx)
            for &i in &related {
                let Some(g) = live[i].as_ref() else { continue };
                merge_attempts += 1;
                let merged = merged_inputs(&o, g, &owner, o_id, i as u32);
                if merged.len() > lk {
                    continue; // infeasible: γ < 0 (Eq. (7))
                }
                let cuts = cuts_between(&o, g, &owner, o_id, i as u32);
                let better = match best {
                    None => true,
                    Some((bm, bc, bi)) => {
                        (merged.len(), std::cmp::Reverse(cuts), i) < (bm, std::cmp::Reverse(bc), bi)
                    }
                };
                if better {
                    best = Some((merged.len(), cuts, i));
                }
            }
            // Best unrelated candidate: smallest (ι, idx) not in `related`;
            // its merged ι is exactly ι(O) + ι(g) and it removes no cuts.
            for &(iota, i) in &by_iota {
                if related.contains(&i) {
                    continue;
                }
                merge_attempts += 1;
                let merged = o.inputs.len() + iota;
                if merged > lk {
                    break; // ordered ascending: nothing further fits
                }
                let better = match best {
                    None => true,
                    Some((bm, bc, bi)) => {
                        (merged, std::cmp::Reverse(0), i) < (bm, std::cmp::Reverse(bc), bi)
                    }
                };
                if better {
                    best = Some((merged, 0, i));
                }
                break; // the first unrelated entry dominates all later ones
            }

            let Some((_, _, gi)) = best else { break };
            let g = live[gi].take().expect("candidate is live");
            by_iota.remove(&(g.inputs.len(), gi));
            for &n in &g.inputs {
                if let Some(set) = input_index.get_mut(&n) {
                    set.remove(&gi);
                }
            }
            for &m in &g.members {
                owner[m.index()] = o_id;
            }
            o.inputs = merged_inputs(&o, &g, &owner, o_id, o_id);
            o.members.extend_from_slice(&g.members);
            o.members.sort_unstable();
            merges += 1;
        }

        partitions.push(Partition {
            members: o.members,
            input_nets: o.inputs,
        });
    }

    // Final clustering from partition membership.
    let mut raw = vec![0u32; n_nodes];
    for (pi, p) in partitions.iter().enumerate() {
        for &m in &p.members {
            raw[m.index()] = pi as u32;
        }
    }
    let merged_clustering = Clustering::from_dense(raw, partitions.len().max(1));
    let cut_nets = inputs::cut_nets(graph, &merged_clustering);

    CbitAssignment {
        partitions,
        clustering: merged_clustering,
        cut_nets,
        merges,
        merge_attempts,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::make_group::{make_group, MakeGroupParams};
    use ppet_flow::{saturate_network, FlowParams};
    use ppet_graph::scc::Scc;
    use ppet_netlist::data;

    fn grouped(lk: usize) -> (CircuitGraph, Clustering) {
        let g = CircuitGraph::from_circuit(&data::s27());
        let scc = Scc::of(&g);
        let profile = saturate_network(&g, &scc, &FlowParams::paper(), 1996);
        let r = make_group(&g, &scc, &profile, &MakeGroupParams::new(lk));
        (g, r.clustering)
    }

    #[test]
    fn partitions_cover_all_nodes_disjointly() {
        let (g, clustering) = grouped(3);
        let a = assign_cbit(&g, clustering, 3);
        let mut seen = vec![false; g.num_nodes()];
        for p in &a.partitions {
            for &m in &p.members {
                assert!(!seen[m.index()], "node {m} in two partitions");
                seen[m.index()] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn input_constraint_respected() {
        for lk in [3usize, 4, 8] {
            let (g, clustering) = grouped(lk);
            let a = assign_cbit(&g, clustering, lk);
            for p in &a.partitions {
                assert!(p.input_count() <= lk, "lk={lk}: {}", p.input_count());
            }
        }
    }

    #[test]
    fn reported_inputs_match_recomputation() {
        let (g, clustering) = grouped(3);
        let a = assign_cbit(&g, clustering, 3);
        for (i, p) in a.partitions.iter().enumerate() {
            let cid = a.clustering.cluster_of(p.members[0]);
            let recomputed = inputs::input_nets(&g, &a.clustering, cid);
            assert_eq!(p.input_nets, recomputed, "partition {i}");
        }
    }

    #[test]
    fn merging_never_increases_cut_count() {
        let (g, clustering) = grouped(3);
        let before = inputs::cut_nets(&g, &clustering).len();
        let a = assign_cbit(&g, clustering, 3);
        assert!(
            a.cut_nets.len() <= before,
            "{} > {before}",
            a.cut_nets.len()
        );
    }

    #[test]
    fn merging_reduces_partition_count_when_gainful() {
        let (g, clustering) = grouped(3);
        let before = clustering.num_clusters();
        let a = assign_cbit(&g, clustering, 3);
        assert!(a.partitions.len() <= before);
        assert_eq!(a.merges, before - a.partitions.len());
    }

    #[test]
    fn s27_walkthrough_yields_few_partitions() {
        let (g, clustering) = grouped(3);
        let a = assign_cbit(&g, clustering, 3);
        assert!(
            (2..=8).contains(&a.partitions.len()),
            "{} partitions",
            a.partitions.len()
        );
    }

    #[test]
    fn deterministic() {
        let (g, c1) = grouped(3);
        let (_, c2) = grouped(3);
        let a = assign_cbit(&g, c1, 3);
        let b = assign_cbit(&g, c2, 3);
        assert_eq!(a.partitions, b.partitions);
    }

    /// The index-based candidate search must agree with the naive full
    /// scan on every step; cross-check the final outcome on several
    /// circuits and l_k values against a reference implementation.
    #[test]
    fn matches_naive_reference() {
        use ppet_netlist::{SynthSpec, Synthesizer};
        for seed in [1u64, 2, 3] {
            let circuit = Synthesizer::new(
                SynthSpec::new("ref")
                    .primary_inputs(6)
                    .flip_flops(8)
                    .dffs_on_scc(5)
                    .gates(60)
                    .inverters(15)
                    .seed(seed),
            )
            .build();
            let g = CircuitGraph::from_circuit(&circuit);
            let scc = Scc::of(&g);
            let profile = saturate_network(&g, &scc, &FlowParams::quick(), seed);
            for lk in [4usize, 8] {
                let grouped = make_group(&g, &scc, &profile, &MakeGroupParams::new(lk));
                let fast = assign_cbit(&g, grouped.clustering.clone(), lk);
                let slow = naive_assign(&g, grouped.clustering, lk);
                assert_eq!(fast.partitions, slow, "seed {seed} lk {lk}");
            }
        }
    }

    /// Reference: the literal O(n²) scan of the paper's Table 8.
    fn naive_assign(graph: &CircuitGraph, clustering: Clustering, lk: usize) -> Vec<Partition> {
        let mut live: Vec<Option<Live>> = clustering
            .iter()
            .map(|(id, members)| {
                Some(Live {
                    members: members.to_vec(),
                    inputs: inputs::input_nets(graph, &clustering, id),
                })
            })
            .collect();
        let mut owner: Vec<u32> = (0..clustering.num_nodes())
            .map(|i| clustering.cluster_of(CellId::from_index(i)).0)
            .collect();
        let merged_inputs = |a: &Live, b: &Live, owner: &[u32], ida: u32, idb: u32| -> Vec<NetId> {
            let mut out = Vec::new();
            for &n in &a.inputs {
                if owner[n.index()] != idb || graph.is_input(n) {
                    out.push(n);
                }
            }
            for &n in &b.inputs {
                if owner[n.index()] != ida || graph.is_input(n) {
                    out.push(n);
                }
            }
            out.sort_unstable();
            out.dedup();
            out
        };
        let cuts_between = |a: &Live, b: &Live, owner: &[u32], ida: u32, idb: u32| -> usize {
            let mut count = 0;
            for (members, other) in [(&a.members, idb), (&b.members, ida)] {
                for &m in members.iter() {
                    if graph
                        .net(m)
                        .sinks()
                        .iter()
                        .any(|&s| owner[s.index()] == other)
                    {
                        count += 1;
                    }
                }
            }
            count
        };
        let mut partitions = Vec::new();
        loop {
            let seed = live
                .iter()
                .enumerate()
                .filter_map(|(i, l)| l.as_ref().map(|l| (i, l.inputs.len())))
                .max_by_key(|&(i, inputs)| (inputs, std::cmp::Reverse(i)))
                .map(|(i, _)| i);
            let Some(seed) = seed else { break };
            let mut o = live[seed].take().unwrap();
            let o_id = seed as u32;
            while o.inputs.len() < lk {
                let mut best: Option<(usize, usize, usize)> = None;
                for (i, slot) in live.iter().enumerate() {
                    let Some(g) = slot.as_ref() else { continue };
                    let merged = merged_inputs(&o, g, &owner, o_id, i as u32);
                    if merged.len() > lk {
                        continue;
                    }
                    let cuts = cuts_between(&o, g, &owner, o_id, i as u32);
                    let better = match best {
                        None => true,
                        Some((bm, bc, bi)) => {
                            (merged.len(), std::cmp::Reverse(cuts), i)
                                < (bm, std::cmp::Reverse(bc), bi)
                        }
                    };
                    if better {
                        best = Some((merged.len(), cuts, i));
                    }
                }
                let Some((_, _, gi)) = best else { break };
                let g = live[gi].take().unwrap();
                for &m in &g.members {
                    owner[m.index()] = o_id;
                }
                o.inputs = merged_inputs(&o, &g, &owner, o_id, o_id);
                o.members.extend_from_slice(&g.members);
                o.members.sort_unstable();
            }
            partitions.push(Partition {
                members: o.members,
                input_nets: o.inputs,
            });
        }
        partitions
    }
}
