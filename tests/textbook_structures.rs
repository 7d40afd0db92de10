//! Structural probes: the textbook circuits have exactly predictable loop
//! shapes, so the SCC analysis, the cut budget, and the retiming engine
//! must produce exactly predictable answers on them.

use ppet::cbit::timing::testing_cycles;
use ppet::core::{Merced, MercedConfig};
use ppet::flow::{saturate_network, FlowParams};
use ppet::graph::retime::{CutRealizer, RetimeGraph};
use ppet::graph::{scc::Scc, CircuitGraph};
use ppet::netlist::data::{alu_slice, counter, johnson_counter, shift_register};
use ppet::partition::{make_group, MakeGroupParams};

#[test]
fn counter_has_one_scc_per_bit() {
    for n in [2usize, 5, 9] {
        let c = counter(n);
        let g = CircuitGraph::from_circuit(&c);
        let scc = Scc::of(&g);
        let cyclic = (0..scc.len())
            .filter(|&i| scc.is_cyclic(ppet::graph::scc::SccId(i as u32)))
            .count();
        assert_eq!(cyclic, n, "counter{n}");
        assert_eq!(scc.registers_on_cyclic(), n);
    }
}

#[test]
fn shift_register_has_no_cycles_and_all_cuts_retimable() {
    let c = shift_register(10);
    let g = CircuitGraph::from_circuit(&c);
    let scc = Scc::of(&g);
    assert_eq!(scc.registers_on_cyclic(), 0);
    // Every buffer output can take a register via retiming: the pipeline
    // has 10 registers to slide anywhere.
    let rg = RetimeGraph::from_graph(&g);
    let cuts: Vec<_> = (0..10).map(|i| c.find(&format!("b{i}")).unwrap()).collect();
    let real = CutRealizer::new(&rg).realize(&cuts);
    assert_eq!(real.covered.len(), 10);
    assert!(real.excess.is_empty());
}

#[test]
fn johnson_counter_is_one_scc_with_tight_budget() {
    let n = 6;
    let c = johnson_counter(n);
    let g = CircuitGraph::from_circuit(&c);
    let scc = Scc::of(&g);
    // One cyclic SCC containing all n registers.
    let cyclic: Vec<_> = (0..scc.len())
        .map(|i| ppet::graph::scc::SccId(i as u32))
        .filter(|&i| scc.is_cyclic(i))
        .collect();
    assert_eq!(cyclic.len(), 1);
    assert_eq!(scc.registers_in(cyclic[0]), n);

    // The ring holds n registers: cutting every ring net is exactly
    // coverable, one cut per register.
    let rg = RetimeGraph::from_graph(&g);
    let ring_cuts: Vec<_> = (0..n).map(|i| c.find(&format!("q{i}")).unwrap()).collect();
    let real = CutRealizer::new(&rg).realize(&ring_cuts);
    assert_eq!(real.covered.len(), n);
    assert!(real.excess.is_empty());
}

#[test]
fn johnson_budget_beta_one_limits_ring_cuts() {
    let n = 5;
    let c = johnson_counter(n);
    let g = CircuitGraph::from_circuit(&c);
    let scc = Scc::of(&g);
    let profile = saturate_network(&g, &scc, &FlowParams::quick(), 3);
    // With l_k = 2 the partitioner wants many cuts; β = 1 caps ring cuts
    // at f(SCC) = n.
    let r = make_group(&g, &scc, &profile, &MakeGroupParams::new(2).with_beta(1));
    let on_ring = ppet::partition::inputs::cuts_on_scc(&g, &scc, &r.cut_nets);
    assert!(on_ring.len() <= n, "{} ring cuts", on_ring.len());
}

#[test]
fn alu_slice_is_a_single_cut_free_partition() {
    let c = alu_slice();
    let report = Merced::new(MercedConfig::default().with_cbit_length(8))
        .compile(&c)
        .unwrap();
    // 5 inputs <= 8: one partition, zero internal cuts, one 8-bit CBIT.
    assert_eq!(report.partitions.len(), 1);
    assert_eq!(report.nets_cut, 0);
    assert_eq!(report.partitions[0].inputs, 5);
    assert_eq!(report.partitions[0].cbit_length, 8);
    assert_eq!(report.schedule.total_cycles, testing_cycles(5));
}

#[test]
fn counter_compiles_with_zero_overhead_free_cuts() {
    // A counter at a generous l_k needs no internal cuts at all: the whole
    // circuit is one CUT whose inputs are just `en`.
    let c = counter(6);
    let report = Merced::new(MercedConfig::default().with_cbit_length(16))
        .compile(&c)
        .unwrap();
    assert_eq!(report.nets_cut, 0);
    assert_eq!(report.area.pct_with(), 0.0);
    assert_eq!(report.area.pct_without(), 0.0);
}
