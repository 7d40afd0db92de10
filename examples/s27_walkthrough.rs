//! The paper's worked example, end to end on the real `s27` circuit:
//!
//! * Fig. 2 — schematic to multi-pin graph;
//! * Fig. 5 — net congestion after `Saturate_Network`;
//! * Fig. 6 — clusters after `Make_Group` at `l_k = 3`;
//! * Fig. 7 — final partitions after `Assign_CBIT`.
//!
//! ```sh
//! cargo run --example s27_walkthrough
//! ```

use std::error::Error;

use ppet::flow::{saturate_network, FlowParams};
use ppet::graph::{scc::Scc, CircuitGraph};
use ppet::netlist::data;
use ppet::partition::{assign_cbit, inputs, make_group, MakeGroupParams};

fn main() -> Result<(), Box<dyn Error>> {
    let circuit = data::s27();
    let graph = CircuitGraph::from_circuit(&circuit);

    // --- Figure 2: the multi-pin graph --------------------------------
    println!("== Figure 2: multi-pin graph of s27 ==");
    println!(
        "{} nodes, {} nets, {} branches",
        graph.num_nodes(),
        graph.num_nets(),
        graph.num_branches()
    );
    for (net, n) in graph.nets() {
        let sinks: Vec<&str> = n.sinks().iter().map(|&s| graph.node_name(s)).collect();
        println!("  {} -> {}", graph.node_name(net), sinks.join(", "));
    }

    // --- strongly connected components ---------------------------------
    let scc = Scc::of(&graph);
    println!("\n== Strongly connected components ==");
    for (i, comp) in scc.components().iter().enumerate() {
        if comp.len() > 1 {
            let names: Vec<&str> = comp.iter().map(|&v| graph.node_name(v)).collect();
            println!(
                "  SCC {i} (f = {}): {}",
                scc.registers_in(ppet::graph::scc::SccId(i as u32)),
                names.join(", ")
            );
        }
    }

    // --- Figure 5: Saturate_Network ------------------------------------
    let profile = saturate_network(&graph, &scc, &FlowParams::paper(), 1996);
    println!("\n== Figure 5: congestion after Saturate_Network ==");
    println!("  ({} shortest-path trees injected)", profile.num_trees());
    let mut ranked: Vec<_> = graph.nets().map(|(net, _)| net).collect();
    ranked.sort_by(|&a, &b| {
        profile
            .flow(b)
            .partial_cmp(&profile.flow(a))
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    println!("  most congested nets (flow / distance):");
    for &net in ranked.iter().take(6) {
        println!(
            "    {:<4} flow {:>6.3}  d(e) {:>10.3}",
            graph.node_name(net),
            profile.flow(net),
            profile.distance(net)
        );
    }

    // --- Figure 6: Make_Group at l_k = 3 --------------------------------
    let grouped = make_group(&graph, &scc, &profile, &MakeGroupParams::new(3));
    println!("\n== Figure 6: clusters after Make_Group (l_k = 3) ==");
    for (id, members) in grouped.clustering.iter() {
        let names: Vec<&str> = members.iter().map(|&v| graph.node_name(v)).collect();
        println!(
            "  cluster {:>2} (inputs = {}): {}",
            id.index(),
            inputs::input_count(&graph, &grouped.clustering, id),
            names.join(", ")
        );
    }
    println!("  cut nets: {}", grouped.cut_nets.len());

    // --- Figure 7: Assign_CBIT ------------------------------------------
    let assigned = assign_cbit(&graph, grouped.clustering, 3);
    println!("\n== Figure 7: partitions after Assign_CBIT (l_k = 3) ==");
    for (i, p) in assigned.partitions.iter().enumerate() {
        let names: Vec<&str> = p.members.iter().map(|&v| graph.node_name(v)).collect();
        let ins: Vec<&str> = p.input_nets.iter().map(|&v| graph.node_name(v)).collect();
        println!(
            "  partition {i} (inputs: {}): {{ {} }}",
            ins.join(", "),
            names.join(", ")
        );
    }
    println!(
        "  {} partitions, {} cut nets after merging (paper's Fig. 7 shows 4 partitions\n   on its 13-node drawing; the full 17-cell s27 netlist yields a comparable split)",
        assigned.partitions.len(),
        assigned.cut_nets.len()
    );
    Ok(())
}
