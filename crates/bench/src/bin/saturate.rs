//! Single-thread `Saturate_Network` micro-harness: times the production
//! engine (CSR + bucket-queue Dijkstra + incremental SSSP cache) against the
//! retained pre-rewrite reference on the perf-gate circuits, and backs
//! `scripts/perf_gate.sh`.
//!
//! Before any timing, each circuit's optimized profile is checked
//! [`result_eq`](ppet_flow::CongestionProfile::result_eq)-identical to the
//! reference — a benchmark of a wrong answer is worthless.
//!
//! Usage:
//!
//! ```text
//! saturate [out.json]          run and write results (default BENCH_saturate.json)
//! saturate --bless FLOOR.json  run and (re)write the checked-in floor
//! saturate --gate FLOOR.json   run and fail if the optimized median is more
//!                              than TOLERANCE× slower than the floor
//! ```
//!
//! The floor JSON (`recorded/BENCH_saturate.json`, schema
//! `ppet-bench-saturate/v1`) records per circuit the reference and
//! optimized median ns and their ratio; `--gate` compares the fresh
//! optimized median against the recorded `optimized_ns` only — the
//! reference column is documentation, not a gate.

use std::time::Instant;

use ppet_bench::build_circuit;
use ppet_flow::{saturate_network, saturate_network_reference};
use ppet_graph::CircuitGraph;
use ppet_netlist::data::table9;
use ppet_trace::json;

/// Circuits the gate runs on (see ISSUE/DESIGN §13): one mid-size
/// saturation-dominated compile and one small full-quota loop.
const CIRCUITS: [&str; 2] = ["s1423", "s510"];
const SEED: u64 = 7;
const REPS: usize = 5;

/// A fresh run may be this much slower than the recorded floor before the
/// gate fails — wide enough for machine noise, tight enough to catch a
/// real regression.
const TOLERANCE: f64 = 1.3;

struct Row {
    circuit: &'static str,
    cells: usize,
    trees: usize,
    reference_ns: u64,
    optimized_ns: u64,
}

impl Row {
    fn speedup(&self) -> f64 {
        self.reference_ns as f64 / self.optimized_ns.max(1) as f64
    }
}

/// Runs `f` `REPS` times and returns the median wall time in ns.
fn median_ns(mut f: impl FnMut()) -> u64 {
    let mut samples: Vec<u64> = (0..REPS)
        .map(|_| {
            let start = Instant::now();
            f();
            u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
        })
        .collect();
    samples.sort_unstable();
    samples[samples.len() / 2]
}

fn measure() -> Vec<Row> {
    CIRCUITS
        .iter()
        .map(|name| {
            let record = table9::find(name).expect("suite circuit");
            let circuit = build_circuit(record);
            let graph = CircuitGraph::from_circuit(&circuit);
            let flow = ppet_bench::harness_flow(graph.num_nodes());

            // Correctness before speed: the rewrite must be result-identical
            // to the reference on the exact workload being timed.
            let fast = saturate_network(&graph, &flow, SEED);
            let slow = saturate_network_reference(&graph, &flow, SEED);
            assert!(
                fast.result_eq(&slow),
                "{name}: optimized saturation diverged from the reference"
            );

            let optimized_ns = median_ns(|| {
                let _ = saturate_network(&graph, &flow, SEED);
            });
            let reference_ns = median_ns(|| {
                let _ = saturate_network_reference(&graph, &flow, SEED);
            });
            eprintln!(
                "{name}: reference {:.2} ms, optimized {:.2} ms ({:.2}x), {} trees",
                reference_ns as f64 / 1e6,
                optimized_ns as f64 / 1e6,
                reference_ns as f64 / optimized_ns.max(1) as f64,
                fast.num_trees(),
            );
            Row {
                circuit: name,
                cells: circuit.num_cells(),
                trees: fast.num_trees(),
                reference_ns,
                optimized_ns,
            }
        })
        .collect()
}

fn render(rows: &[Row]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"schema\": \"ppet-bench-saturate/v1\",\n");
    out.push_str(&format!("  \"seed\": {SEED},\n"));
    out.push_str(&format!("  \"reps\": {REPS},\n"));
    out.push_str(&format!("  \"tolerance\": {TOLERANCE},\n"));
    out.push_str("  \"runs\": [\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"circuit\": \"{}\", \"cells\": {}, \"trees\": {}, \
             \"reference_ns\": {}, \"optimized_ns\": {}, \"speedup\": {:.3}}}{}\n",
            r.circuit,
            r.cells,
            r.trees,
            r.reference_ns,
            r.optimized_ns,
            r.speedup(),
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Reads the recorded floor: circuit name → optimized median ns.
fn read_floor(path: &str) -> Vec<(String, u64)> {
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read floor {path}: {e}"));
    let doc = json::parse(&text).unwrap_or_else(|e| panic!("floor {path} is not JSON: {e}"));
    let schema = doc.get("schema").and_then(json::Value::as_str);
    assert_eq!(
        schema,
        Some("ppet-bench-saturate/v1"),
        "floor {path}: unexpected schema {schema:?}"
    );
    doc.get("runs")
        .and_then(json::Value::as_arr)
        .unwrap_or_else(|| panic!("floor {path}: missing runs array"))
        .iter()
        .map(|run| {
            let circuit = run
                .get("circuit")
                .and_then(json::Value::as_str)
                .expect("run.circuit")
                .to_string();
            let ns = run
                .get("optimized_ns")
                .and_then(json::Value::as_u64)
                .expect("run.optimized_ns");
            (circuit, ns)
        })
        .collect()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("--gate") => {
            let path = args.get(1).expect("--gate needs the floor path");
            let floor = read_floor(path);
            let rows = measure();
            let mut failed = false;
            for row in &rows {
                let Some((_, floor_ns)) = floor.iter().find(|(c, _)| c == row.circuit) else {
                    eprintln!(
                        "GATE {}: no recorded floor — run --bless first",
                        row.circuit
                    );
                    failed = true;
                    continue;
                };
                let limit = (*floor_ns as f64 * TOLERANCE) as u64;
                if row.optimized_ns > limit {
                    eprintln!(
                        "GATE {}: FAIL — median {} ns exceeds {:.1}x floor {} ns (limit {} ns)",
                        row.circuit, row.optimized_ns, TOLERANCE, floor_ns, limit
                    );
                    failed = true;
                } else {
                    eprintln!(
                        "GATE {}: ok — median {} ns within {:.1}x floor {} ns",
                        row.circuit, row.optimized_ns, TOLERANCE, floor_ns
                    );
                }
            }
            if failed {
                eprintln!("perf gate FAILED (bless with: saturate --bless {path})");
                std::process::exit(1);
            }
            eprintln!("perf gate passed");
        }
        Some("--bless") => {
            let path = args.get(1).expect("--bless needs the floor path");
            let rows = measure();
            std::fs::write(path, render(&rows)).expect("write floor");
            println!("blessed {path}");
        }
        Some(path) if !path.starts_with("--") => {
            let rows = measure();
            std::fs::write(path, render(&rows)).expect("write results");
            println!("wrote {path}");
        }
        None => {
            let rows = measure();
            let path = "BENCH_saturate.json";
            std::fs::write(path, render(&rows)).expect("write results");
            println!("wrote {path}");
        }
        Some(flag) => {
            eprintln!(
                "unknown flag {flag}; usage: saturate [--gate|--bless FLOOR.json] [out.json]"
            );
            std::process::exit(2);
        }
    }
}
