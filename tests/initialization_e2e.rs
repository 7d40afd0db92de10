//! Initialization analysis across retiming — the practical side of the
//! paper's reference [16] (Touati–Brayton, "Computing the Initial States of
//! Retimed Circuits"): retiming preserves steady-state function but may
//! change how (or whether) the circuit initializes from an unknown
//! power-up state. The three-valued simulator quantifies this.

use ppet::graph::retime::{apply, CutRealizer, RetimeGraph};
use ppet::graph::CircuitGraph;
use ppet::netlist::data;
use ppet::sim::xsim::{XSim, XWord};

#[test]
fn shift_register_stays_initializable_after_retiming() {
    let c = data::shift_register(6);
    let g = CircuitGraph::from_circuit(&c);
    let rg = RetimeGraph::from_graph(&g);
    // Cut every buffer output: the retimed circuit carries a register on
    // each of them.
    let cuts: Vec<_> = (0..6).map(|i| c.find(&format!("b{i}")).unwrap()).collect();
    let real = CutRealizer::new(&rg).realize(&cuts);
    assert_eq!(real.covered.len(), 6);
    let retimed = apply(&c, &rg, &real.retiming).unwrap();

    let mut orig = XSim::new(&c).unwrap();
    let mut retd = XSim::new(&retimed).unwrap();
    let d0 = orig.initialization_depth(|_, _| XWord::known(0), 64);
    let d1 = retd.initialization_depth(|_, _| XWord::known(0), 64);
    assert_eq!(d0, Some(6));
    // A feed-forward pipeline initializes in (number of stages on the
    // longest register path) cycles, whatever the retiming did.
    let depth = d1.expect("retimed pipeline initializes");
    assert!(depth >= 1 && depth <= retimed.num_flip_flops() as u64);
}

#[test]
fn johnson_ring_initialization_is_preserved_by_in_ring_retiming() {
    let n = 5;
    let c = data::johnson_counter(n);
    let g = CircuitGraph::from_circuit(&c);
    let rg = RetimeGraph::from_graph(&g);
    // Cut two ring nets: registers redistribute around the ring.
    let cuts = vec![c.find("q1").unwrap(), c.find("q3").unwrap()];
    let real = CutRealizer::new(&rg).realize(&cuts);
    let retimed = apply(&c, &rg, &real.retiming).unwrap();

    // Held in reset (run = 0) both rings flush to known state; the ring
    // length (= register count on the cycle) is preserved by Corollary 2,
    // so the initialization depth stays within one lap of the ring.
    let mut orig = XSim::new(&c).unwrap();
    let mut retd = XSim::new(&retimed).unwrap();
    let d0 = orig
        .initialization_depth(|_, _| XWord::known(0), 32)
        .unwrap();
    let d1 = retd
        .initialization_depth(|_, _| XWord::known(0), 32)
        .unwrap();
    assert_eq!(d0, n as u64);
    assert!(d1 <= 2 * n as u64, "retimed ring took {d1} cycles");
}

#[test]
fn xor_loop_remains_uninitializable_after_retiming() {
    // No retiming can fix a reset-less XOR loop: X is invariant under
    // register repositioning.
    let c = ppet::netlist::bench_format::parse(
        "t",
        "INPUT(en)\nOUTPUT(q)\nq = DFF(d)\nd = XOR(q, en)\n",
    )
    .unwrap();
    let g = CircuitGraph::from_circuit(&c);
    let rg = RetimeGraph::from_graph(&g);
    let cuts = vec![c.find("d").unwrap()];
    let real = CutRealizer::new(&rg).realize(&cuts);
    let retimed = apply(&c, &rg, &real.retiming).unwrap();

    let mut sim = XSim::new(&retimed).unwrap();
    assert_eq!(
        sim.initialization_depth(|_, _| XWord::known(u64::MAX), 64),
        None
    );
}
