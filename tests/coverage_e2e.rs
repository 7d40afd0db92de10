//! End-to-end fault-coverage tests: the PPET premise on whole partitioned
//! circuits (partition → extract segments → exhaustive test → full
//! detectable coverage).

use ppet::flow::{saturate_network, FlowParams};
use ppet::graph::{scc::Scc, CircuitGraph};
use ppet::netlist::{data, SynthSpec, Synthesizer};
use ppet::partition::{assign_cbit, make_group, MakeGroupParams};
use ppet::sim::collapse::collapse;
use ppet::sim::pet::{exhaustive_coverage, extract_segment, random_coverage};

fn partition_members(
    circuit: &ppet::netlist::Circuit,
    lk: usize,
) -> Vec<Vec<ppet::netlist::CellId>> {
    let graph = CircuitGraph::from_circuit(circuit);
    let scc = Scc::of(&graph);
    let profile = saturate_network(&graph, &scc, &FlowParams::quick(), 1996);
    let grouped = make_group(&graph, &scc, &profile, &MakeGroupParams::new(lk));
    let assigned = assign_cbit(&graph, grouped.clustering, lk);
    assigned.partitions.into_iter().map(|p| p.members).collect()
}

#[test]
fn every_s27_segment_reaches_full_detectable_coverage() {
    let circuit = data::s27();
    for members in partition_members(&circuit, 4) {
        let seg = extract_segment(&circuit, &members);
        if seg.circuit.num_inputs() == 0 || seg.circuit.outputs().is_empty() {
            continue;
        }
        let report = exhaustive_coverage(&seg.circuit).expect("small segment");
        // Exhaustive coverage IS the detectable set; assert the simulator
        // is self-consistent (running it twice changes nothing) and that
        // coverage is substantial on real logic.
        let again = exhaustive_coverage(&seg.circuit).expect("small segment");
        assert_eq!(report.detected, again.detected);
        assert!(report.coverage() > 0.9, "{:?}", report);
    }
}

#[test]
fn segment_fault_population_matches_collapsed_list() {
    let circuit = data::s27();
    for members in partition_members(&circuit, 4) {
        let seg = extract_segment(&circuit, &members);
        if seg.circuit.num_inputs() == 0 {
            continue;
        }
        let col = collapse(&seg.circuit);
        let report = exhaustive_coverage(&seg.circuit).expect("small segment");
        assert_eq!(report.total, col.faults.len());
    }
}

#[test]
fn random_testing_is_never_better_than_exhaustive() {
    let circuit = Synthesizer::new(
        SynthSpec::new("cov")
            .primary_inputs(6)
            .flip_flops(8)
            .dffs_on_scc(5)
            .gates(90)
            .inverters(20)
            .seed(13),
    )
    .build();
    for members in partition_members(&circuit, 6) {
        let seg = extract_segment(&circuit, &members);
        let k = seg.circuit.num_inputs();
        if k == 0 || k > 16 || seg.circuit.outputs().is_empty() {
            continue;
        }
        let ex = exhaustive_coverage(&seg.circuit).expect("bounded segment");
        for seed in [1u64, 2] {
            let rnd = random_coverage(&seg.circuit, ex.patterns, seed).expect("levelizes");
            assert!(
                rnd.detected <= ex.detected,
                "random {} > exhaustive {}",
                rnd.detected,
                ex.detected
            );
        }
    }
}

#[test]
fn segments_cover_all_combinational_cells_exactly_once() {
    let circuit = Synthesizer::new(
        SynthSpec::new("covcells")
            .primary_inputs(5)
            .flip_flops(6)
            .dffs_on_scc(4)
            .gates(70)
            .inverters(15)
            .seed(21),
    )
    .build();
    let mut seen = vec![false; circuit.num_cells()];
    for members in partition_members(&circuit, 6) {
        let seg = extract_segment(&circuit, &members);
        for &m in &members {
            if circuit.cell(m).kind().is_combinational() {
                assert!(!seen[m.index()]);
                seen[m.index()] = true;
                // The member appears in the segment circuit by name.
                assert!(seg.circuit.find(circuit.cell(m).name()).is_some());
            }
        }
    }
    for (id, cell) in circuit.iter() {
        if cell.kind().is_combinational() {
            assert!(seen[id.index()], "cell {} in no segment", cell.name());
        }
    }
}
