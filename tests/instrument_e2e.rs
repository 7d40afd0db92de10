//! End-to-end verification of the PPET hardware conversion
//! (`ppet_core::instrument`):
//!
//! 1. **normal mode is transparent** — the instrumented circuit is
//!    sequentially equivalent to the retimed circuit under `B1 = B2 = 1`
//!    (checked by exhaustive-ish random co-simulation);
//! 2. **test mode works** — with `B1 = 1, B2 = 0` the CBIT registers walk
//!    pattern sequences and their final signature detects an injected
//!    design fault.

use ppet::core::instrument::insert_test_hardware;
use ppet::graph::retime::{apply, CutRealizer, IoLatency, RetimeGraph};
use ppet::graph::CircuitGraph;
use ppet::netlist::{data, Circuit};
use ppet::prng::{Rng, Xoshiro256PlusPlus};
use ppet::sim::logic::{SequentialSim, Simulator};

fn s27_cuts(c: &Circuit) -> Vec<ppet::netlist::NetId> {
    vec![
        c.find("G10").unwrap(),
        c.find("G11").unwrap(),
        c.find("G12").unwrap(),
    ]
}

#[test]
fn normal_mode_is_sequentially_equivalent_to_the_retimed_circuit() {
    let circuit = data::s27();
    let cuts = s27_cuts(&circuit);

    // Reference: the same retiming the instrumenter applies.
    let graph = CircuitGraph::from_circuit(&circuit);
    let rg = RetimeGraph::from_graph(&graph);
    let real = CutRealizer::new(&rg)
        .io_latency(IoLatency::Flexible)
        .realize(&cuts);
    let retimed = apply(&circuit, &rg, &real.retiming).unwrap();

    let inst = insert_test_hardware(&circuit, &[cuts]).unwrap();

    let ref_sim = Simulator::new(&retimed).unwrap();
    let dut_sim = Simulator::new(&inst.circuit).unwrap();
    // Input order: the instrumented circuit appends ppet_b1/ppet_b2 after
    // the original primary inputs.
    assert_eq!(dut_sim.inputs().len(), ref_sim.inputs().len() + 2);

    let mut ref_seq = SequentialSim::new(&ref_sim);
    let mut dut_seq = SequentialSim::new(&dut_sim);
    let mut rng = Xoshiro256PlusPlus::seed_from(2024);
    for cycle in 0..200 {
        let pis: Vec<u64> = (0..ref_sim.inputs().len())
            .map(|_| rng.next_u64())
            .collect();
        let mut dut_pis = pis.clone();
        dut_pis.push(u64::MAX); // B1 = 1
        dut_pis.push(u64::MAX); // B2 = 1 (normal mode)
        let a = ref_seq.clock(&pis);
        let b = dut_seq.clock(&dut_pis);
        assert_eq!(a, b, "outputs diverged at cycle {cycle}");
    }
}

#[test]
fn test_mode_cycles_the_cbit_registers() {
    let circuit = data::s27();
    let inst = insert_test_hardware(&circuit, &[s27_cuts(&circuit)]).unwrap();
    let sim = Simulator::new(&inst.circuit).unwrap();
    let mut seq = SequentialSim::new(&sim);

    let n_pis = sim.inputs().len();
    let regs: Vec<usize> = inst.cbits[0]
        .iter()
        .map(|bit| {
            sim.dffs()
                .iter()
                .position(|&d| d == bit.register)
                .expect("cbit register is a dff")
        })
        .collect();

    // Test mode: B1 = 1, B2 = 0, constant functional inputs.
    let mut states = Vec::new();
    for _ in 0..12 {
        let mut pis = vec![0u64; n_pis];
        pis[n_pis - 2] = 1; // B1 (lane 0)
        pis[n_pis - 1] = 0; // B2
        let _ = seq.clock(&pis);
        let snapshot: Vec<u64> = regs.iter().map(|&r| seq.state()[r] & 1).collect();
        states.push(snapshot);
    }
    // The register bank must not be stuck: several distinct states appear.
    let distinct: std::collections::HashSet<_> = states.iter().collect();
    assert!(distinct.len() >= 3, "CBIT stuck: {states:?}");
}

#[test]
fn test_mode_signature_detects_an_injected_fault() {
    let circuit = data::s27();
    let cuts = s27_cuts(&circuit);

    // Build a faulty twin: flip one gate's function inside the logic
    // (a NOR that becomes an OR — a realistic fabrication/design fault).
    let faulty_src = data::S27_BENCH.replace("G12 = NOR(G1, G7)", "G12 = OR(G1, G7)");
    let faulty = ppet::netlist::bench_format::parse("s27", &faulty_src).unwrap();

    // Signature = the CBIT register values over the last 8 of 64 test
    // cycles. A single 3-bit snapshot aliases with probability 1/8; the
    // window stands in for the wider MISR a real session would size to
    // make aliasing negligible.
    let signature = |c: &Circuit| -> Vec<Vec<u64>> {
        let inst = insert_test_hardware(c, std::slice::from_ref(&cuts)).unwrap();
        let sim = Simulator::new(&inst.circuit).unwrap();
        let mut seq = SequentialSim::new(&sim);
        let n = sim.inputs().len();
        let mut window = Vec::new();
        for cycle in 0..64 {
            let mut pis = vec![0u64; n];
            pis[n - 2] = 1; // B1
            pis[n - 1] = 0; // B2: test mode
            let _ = seq.clock(&pis);
            if cycle >= 56 {
                window.push(
                    inst.cbits[0]
                        .iter()
                        .map(|bit| {
                            let pos = sim.dffs().iter().position(|&d| d == bit.register).unwrap();
                            seq.state()[pos] & 1
                        })
                        .collect(),
                );
            }
        }
        window
    };

    let clean = signature(&circuit);
    let bad = signature(&faulty);
    assert_ne!(clean, bad, "signature failed to catch the injected fault");
}

#[test]
fn instrumentation_counts_add_up() {
    let circuit = data::s27();
    let cuts = s27_cuts(&circuit);
    let inst = insert_test_hardware(&circuit, std::slice::from_ref(&cuts)).unwrap();
    assert_eq!(
        inst.converted_cuts.len() + inst.mux_cuts.len(),
        cuts.len(),
        "every cut realized exactly once"
    );
    let bits: usize = inst.cbits.iter().map(Vec::len).sum();
    assert_eq!(bits, cuts.len());
    // Gate census: each converted bit adds AND+NOR+XOR; each mux bit adds
    // those plus DFF+NOT+2×AND+OR.
    let added_gates = inst
        .circuit
        .iter()
        .filter(|(_, cell)| cell.name().starts_with("ppet_"))
        .count();
    let expected_min = inst.converted_cuts.len() * 3 + inst.mux_cuts.len() * 8;
    assert!(
        added_gates >= expected_min,
        "{added_gates} < {expected_min}"
    );
}

#[test]
fn works_on_synthetic_circuits() {
    use ppet::netlist::{SynthSpec, Synthesizer};
    let circuit = Synthesizer::new(
        SynthSpec::new("inst-syn")
            .primary_inputs(6)
            .flip_flops(10)
            .dffs_on_scc(6)
            .gates(80)
            .inverters(20)
            .seed(17),
    )
    .build();
    // Cut a handful of nets with sinks.
    let graph = CircuitGraph::from_circuit(&circuit);
    let mut rng = Xoshiro256PlusPlus::seed_from(5);
    let cuts: Vec<_> = graph
        .nets()
        .filter(|_| rng.gen_bool(0.08))
        .map(|(net, _)| net)
        .collect();
    assert!(!cuts.is_empty());
    let inst = insert_test_hardware(&circuit, std::slice::from_ref(&cuts)).unwrap();
    assert!(ppet::netlist::validate::find_combinational_cycle(&inst.circuit).is_none());
    assert_eq!(inst.converted_cuts.len() + inst.mux_cuts.len(), {
        let mut c = cuts.clone();
        c.sort_unstable();
        c.dedup();
        c.len()
    });
}

#[test]
fn test_mode_signatures_cover_functional_stuck_at_faults() {
    // The full PPET story in one test: instrument s27, run self-test mode,
    // observe ONLY the CBIT signatures, and measure stuck-at coverage of
    // the functional logic.
    use ppet::sim::fault::{all_faults, FaultSite};
    use ppet::sim::seqsim::{Observe, SequentialFaultSim};

    let circuit = data::s27();
    let inst = insert_test_hardware(&circuit, &[s27_cuts(&circuit)]).unwrap();

    // Faults in the functional logic only (not the inserted test gates).
    let functional = |site: &FaultSite| {
        let cell = match *site {
            FaultSite::Output(c) => c,
            FaultSite::Input { cell, .. } => cell,
        };
        !inst.circuit.cell(cell).name().starts_with("ppet_")
    };
    let faults: Vec<_> = all_faults(&inst.circuit)
        .into_iter()
        .filter(|f| functional(&f.site))
        .collect();
    assert!(!faults.is_empty());

    let signature_regs: Vec<_> = inst.cbits[0].iter().map(|b| b.register).collect();
    let mut sim = SequentialFaultSim::new(
        &inst.circuit,
        faults,
        Observe::RegistersAtEnd(signature_regs),
    )
    .unwrap();

    // Self-test session: B1 = 1, B2 = 0; primary inputs driven by a
    // deterministic pseudo-random stream (the surrogate for the input-side
    // CBIT pattern generator).
    let sim_handle = Simulator::new(&inst.circuit).unwrap();
    let n = sim_handle.inputs().len();
    let mut rng = Xoshiro256PlusPlus::seed_from(31);
    for _ in 0..128 {
        let mut pis: Vec<u64> = (0..n).map(|_| rng.next_u64()).collect();
        pis[n - 2] = u64::MAX; // B1
        pis[n - 1] = 0; // B2: test mode
        sim.clock(&pis);
    }
    sim.finish();
    let report = sim.report();
    assert!(
        report.coverage() > 0.5,
        "signature-only coverage too low: {report:?}"
    );
}
