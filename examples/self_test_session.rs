//! The complete PPET story on one circuit:
//!
//! 1. compile it with Merced (partition + retiming-aware costing);
//! 2. physically insert the test hardware (retiming applied, A_CELLs and
//!    CBIT cascades wired in);
//! 3. run a self-test session in simulation, observing only the CBIT
//!    signatures;
//! 4. report the stuck-at coverage of the functional logic that the
//!    signatures alone achieve.
//!
//! ```sh
//! cargo run --release --example self_test_session
//! ```

use std::error::Error;

use ppet::core::{Merced, MercedConfig};
use ppet::netlist::{data, SynthSpec, Synthesizer};
use ppet::prng::{Rng, Xoshiro256PlusPlus};
use ppet::sim::fault::{all_faults, FaultSite};
use ppet::sim::logic::Simulator;
use ppet::sim::seqsim::{Observe, SequentialFaultSim};
use ppet::trace::Tracer;

fn main() -> Result<(), Box<dyn Error>> {
    let circuits = vec![
        (data::s27(), 3usize),
        (
            Synthesizer::new(
                SynthSpec::new("soc_block")
                    .primary_inputs(8)
                    .flip_flops(14)
                    .dffs_on_scc(9)
                    .gates(120)
                    .inverters(30)
                    .seed(11),
            )
            .build(),
            4,
        ),
    ];

    for (circuit, lk) in circuits {
        println!("=== {} (l_k = {lk}) ===", circuit.name());

        // 1. Compile.
        let compilation =
            Merced::new(MercedConfig::default().with_cbit_length(lk)).compile_detailed(&circuit)?;
        println!(
            "  compiled: {} partitions, {} cut nets, {:.1}% overhead w/ retiming \
             ({:.1}% without)",
            compilation.assignment.partitions.len(),
            compilation.report.nets_cut,
            compilation.report.area.pct_with(),
            compilation.report.area.pct_without(),
        );

        // 2. Insert the hardware.
        let inst = compilation.instrument(&circuit, &Tracer::noop())?;
        if inst.cbits.is_empty() {
            println!("  no internal cuts at this l_k: the whole circuit is one CUT\n");
            continue;
        }
        let bits = inst.cbits.iter().flatten().count();
        let converted = inst.cbits.iter().flatten().filter(|b| b.converted).count();
        println!(
            "  instrumented: {bits} CBIT bits ({converted} converted FFs, {} multiplexed), \
             {} cells total",
            bits - converted,
            inst.circuit.num_cells(),
        );

        // 3. Self-test session against the functional stuck-at faults.
        let functional_faults: Vec<_> = all_faults(&inst.circuit)
            .into_iter()
            .filter(|f| {
                let cell = match f.site {
                    FaultSite::Output(c) => c,
                    FaultSite::Input { cell, .. } => cell,
                };
                !inst.circuit.cell(cell).name().starts_with("ppet_")
            })
            .collect();
        let signature_regs: Vec<_> = inst.cbits.iter().flatten().map(|b| b.register).collect();
        let mut session = SequentialFaultSim::new(
            &inst.circuit,
            functional_faults,
            Observe::RegistersAtEnd(signature_regs),
        )?;

        let sim = Simulator::new(&inst.circuit)?;
        let n = sim.inputs().len();
        let mut rng = Xoshiro256PlusPlus::seed_from(1996);
        let cycles = 256u32;
        for _ in 0..cycles {
            let mut pis: Vec<u64> = (0..n).map(|_| rng.next_u64()).collect();
            pis[n - 2] = u64::MAX; // B1 = 1
            pis[n - 1] = 0; // B2 = 0: self-test mode
            session.clock(&pis);
        }
        session.finish();

        // 4. Report.
        let report = session.report();
        println!(
            "  self-test: {cycles} cycles, signatures alone detect {}/{} functional \
             stuck-at faults ({:.1}%)\n",
            report.detected,
            report.total,
            100.0 * report.coverage(),
        );
    }
    Ok(())
}
