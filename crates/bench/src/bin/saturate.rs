//! Single-thread `Saturate_Network` micro-harness: times the production
//! engine (CSR + component-ordered Dijkstra over one lazily stamped
//! node-state array) against the retained composite-key binary-heap
//! reference on the perf-gate circuits, and backs `scripts/perf_gate.sh`.
//!
//! Before any timing, each circuit's optimized profile is checked
//! [`result_eq`](ppet_flow::CongestionProfile::result_eq)-identical to the
//! reference — a benchmark of a wrong answer is worthless.
//!
//! Usage (see [`ppet_bench::gate::main`]):
//!
//! ```text
//! saturate [out.json]          run and write results (default BENCH_saturate.json)
//! saturate --bless FLOOR.json  run 5 times and (re)write the checked-in floor from the medians
//! saturate --gate FLOOR.json   run and fail if the optimized median is more
//!                              than TOLERANCE× slower than the floor
//! ```
//!
//! The two engines are timed in interleaved pairs, and `--gate` prints
//! the median per-pair `reference / optimized` ratio beside each verdict.
//!
//! The floor JSON is `recorded/BENCH_saturate.json` (schema
//! `ppet-bench-saturate/v1`).

use ppet_bench::build_circuit;
use ppet_bench::gate::{self, time_pairs, Timing};
use ppet_flow::{saturate_network, saturate_network_reference};
use ppet_graph::{scc::Scc, CircuitGraph};
use ppet_netlist::data::table9;

/// Circuits the gate runs on (see DESIGN §13): one mid-size
/// saturation-dominated compile and one small full-quota loop.
const CIRCUITS: [&str; 2] = ["s1423", "s510"];
const SEED: u64 = 7;

fn measure() -> Vec<Timing> {
    CIRCUITS
        .iter()
        .map(|name| {
            let record = table9::find(name).expect("suite circuit");
            let circuit = build_circuit(record);
            let graph = CircuitGraph::from_circuit(&circuit);
            let scc = Scc::of(&graph);
            let flow = ppet_bench::harness_flow(graph.num_nodes());

            // Correctness before speed: the rewrite must be result-identical
            // to the reference on the exact workload being timed.
            let fast = saturate_network(&graph, &scc, &flow, SEED);
            let slow = saturate_network_reference(&graph, &flow, SEED);
            assert!(
                fast.result_eq(&slow),
                "{name}: optimized saturation diverged from the reference"
            );

            let timing = time_pairs(
                name,
                vec![
                    ("cells", circuit.num_cells() as u64),
                    ("trees", fast.num_trees() as u64),
                ],
                || {
                    let _ = saturate_network(&graph, &scc, &flow, SEED);
                },
                || {
                    let _ = saturate_network_reference(&graph, &flow, SEED);
                },
            );
            eprintln!(
                "{name}: reference {:.2} ms, optimized {:.2} ms ({:.2}x per pair), {} trees",
                timing.reference_ns as f64 / 1e6,
                timing.optimized_ns as f64 / 1e6,
                timing.pair_ratio,
                fast.num_trees(),
            );
            timing
        })
        .collect()
}

fn main() {
    gate::main("saturate", SEED, measure);
}
