//! Property-based tests of the partitioning invariants (paper Eq. (5)/(6))
//! over randomly generated circuits.

use proptest::prelude::*;

use ppet::flow::{saturate_network, FlowParams};
use ppet::graph::{scc::Scc, CircuitGraph};
use ppet::netlist::{SynthSpec, Synthesizer};
use ppet::partition::{assign_cbit, inputs, make_group, validate, MakeGroupParams};

/// Strategy: a small random circuit specification.
fn arb_spec() -> impl Strategy<Value = SynthSpec> {
    (
        2usize..10,   // PIs
        0usize..12,   // DFFs
        5usize..80,   // gates
        0usize..20,   // inverters
        any::<u64>(), // seed
        0usize..12,   // dffs on scc (clamped by the builder)
    )
        .prop_map(|(pis, dffs, gates, invs, seed, on_scc)| {
            SynthSpec::new("prop")
                .primary_inputs(pis)
                .flip_flops(dffs)
                .gates(gates)
                .inverters(invs)
                .dffs_on_scc(on_scc.min(dffs))
                .seed(seed)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn make_group_clusters_partition_nodes_and_respect_lk(spec in arb_spec(), lk in 4usize..12) {
        let circuit = Synthesizer::new(spec).build();
        let graph = CircuitGraph::from_circuit(&circuit);
        let scc = Scc::of(&graph);
        let profile = saturate_network(&graph, &scc, &FlowParams::quick(), 99);
        let result = make_group(&graph, &scc, &profile, &MakeGroupParams::new(lk));

        // Cover every node exactly once.
        let total: usize = result.clustering.iter().map(|(_, m)| m.len()).sum();
        prop_assert_eq!(total, graph.num_nodes());

        // Input constraint (when the boundary stack sufficed).
        if result.oversized.is_empty() {
            prop_assert!(validate::check(&graph, &result.clustering, lk).is_empty());
        }

        // Reported cut set matches the clustering.
        prop_assert_eq!(&result.cut_nets, &inputs::cut_nets(&graph, &result.clustering));
    }

    #[test]
    fn assign_cbit_never_worsens_cuts_or_violates_lk(spec in arb_spec(), lk in 4usize..12) {
        let circuit = Synthesizer::new(spec).build();
        let graph = CircuitGraph::from_circuit(&circuit);
        let scc = Scc::of(&graph);
        let profile = saturate_network(&graph, &scc, &FlowParams::quick(), 7);
        let grouped = make_group(&graph, &scc, &profile, &MakeGroupParams::new(lk));
        prop_assume!(grouped.oversized.is_empty());
        let before = grouped.cut_nets.len();
        let merged = assign_cbit(&graph, grouped.clustering, lk);
        prop_assert!(merged.cut_nets.len() <= before);
        for p in &merged.partitions {
            prop_assert!(p.input_count() <= lk);
        }
        // Partitions cover all nodes disjointly.
        let mut seen = vec![false; graph.num_nodes()];
        for p in &merged.partitions {
            for &m in &p.members {
                prop_assert!(!seen[m.index()]);
                seen[m.index()] = true;
            }
        }
        prop_assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn beta_one_caps_scc_cuts_at_register_count(spec in arb_spec()) {
        let circuit = Synthesizer::new(spec).build();
        let graph = CircuitGraph::from_circuit(&circuit);
        let scc = Scc::of(&graph);
        let profile = saturate_network(&graph, &scc, &FlowParams::quick(), 3);
        let result = make_group(&graph, &scc, &profile, &MakeGroupParams::new(6).with_beta(1));
        // Per cyclic SCC: cut nets inside it never exceed f(SCC) (Eq. (6)
        // with beta = 1).
        let mut per_scc = vec![0usize; scc.len()];
        for &net in &result.cut_nets {
            if scc.net_in_cyclic_component(&graph, net) {
                per_scc[scc.component_of(graph.net(net).src()).index()] += 1;
            }
        }
        for (ci, &count) in per_scc.iter().enumerate() {
            let id = ppet::graph::scc::SccId(ci as u32);
            if scc.is_cyclic(id) {
                prop_assert!(
                    count <= scc.registers_in(id),
                    "SCC {} has {} cuts but {} registers",
                    ci,
                    count,
                    scc.registers_in(id)
                );
            }
        }
    }
}
