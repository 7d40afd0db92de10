//! Measures the wall-clock scaling of the `ppet-exec` consumers —
//! fault-parallel simulation and batch compilation — across worker
//! counts, and writes the results to `BENCH_scaling.json`. (A single
//! compile's saturation is the paper's sequential loop and has nothing to
//! scale.)
//!
//! Worker-count invariance of both results is pinned by
//! `tests/determinism.rs`; this bench only times them. The JSON
//! records the host's available parallelism alongside the numbers: on a
//! single-core machine every worker count necessarily lands within noise
//! of sequential, so speedups are only meaningful when
//! `available_workers > 1`.
//!
//! Usage: `scaling [out.json]` (default `BENCH_scaling.json`).

use std::time::Instant;

use ppet_bench::build_circuit;
use ppet_core::{compile_batch, Merced, MercedConfig};
use ppet_exec::{available_workers, Pool};
use ppet_flow::FlowParams;
use ppet_netlist::data::table9;
use ppet_prng::{Rng, Xoshiro256PlusPlus};
use ppet_sim::fsim::FaultSim;

const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];
const REPS: usize = 3;

/// Runs `f` `REPS` times and returns the fastest wall time in ns.
fn best_ns(mut f: impl FnMut()) -> u64 {
    (0..REPS)
        .map(|_| {
            let start = Instant::now();
            f();
            u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
        })
        .min()
        .unwrap_or(0)
}

struct Row {
    workers: usize,
    fsim_ns: u64,
    batch_ns: u64,
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_scaling.json".to_string());

    // Fault-simulation workload: random pattern blocks over the full
    // collapsed fault list of a mid-size suite circuit.
    let record = table9::find("s1423").expect("suite circuit");
    let circuit = build_circuit(record);
    let mut rng = Xoshiro256PlusPlus::seed_from(3);
    let blocks: Vec<(Vec<u64>, Vec<u64>)> = (0..8)
        .map(|_| {
            let pis = (0..circuit.num_inputs()).map(|_| rng.next_u64()).collect();
            let dffs = (0..circuit.num_flip_flops())
                .map(|_| rng.next_u64())
                .collect();
            (pis, dffs)
        })
        .collect();

    // Batch workload: four smaller circuits compiled concurrently.
    let batch_circuits: Vec<_> = ["s510", "s641", "s713", "s820"]
        .iter()
        .map(|name| build_circuit(table9::find(name).expect("suite circuit")))
        .collect();
    let mut batch_flow = FlowParams::paper();
    batch_flow.max_trees = Some(256);
    let merced = Merced::new(
        MercedConfig::default()
            .with_cbit_length(16)
            .with_flow(batch_flow),
    );

    let mut rows = Vec::new();
    for workers in WORKER_COUNTS {
        let pool = Pool::new(workers);
        let fsim_ns = best_ns(|| {
            let mut fs = FaultSim::new(&circuit).expect("levelizes");
            for (pis, dffs) in &blocks {
                fs.apply_block_par(pis, dffs, &pool);
            }
        });
        let batch_ns = best_ns(|| {
            let outcome = compile_batch(&merced, &batch_circuits, &pool);
            assert_eq!(outcome.failed(), 0);
        });
        eprintln!(
            "workers {workers}: fsim {:.1} ms, batch {:.1} ms",
            fsim_ns as f64 / 1e6,
            batch_ns as f64 / 1e6
        );
        rows.push(Row {
            workers,
            fsim_ns,
            batch_ns,
        });
    }

    let speedup = |ns: &dyn Fn(&Row) -> u64, workers: usize| -> f64 {
        let base = rows.first().map(ns).unwrap_or(1).max(1);
        let at = rows
            .iter()
            .find(|r| r.workers == workers)
            .map(ns)
            .unwrap_or(base)
            .max(1);
        base as f64 / at as f64
    };

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"schema\": \"ppet-bench-scaling/v1\",\n");
    json.push_str(&format!("  \"circuit\": \"{}\",\n", record.name));
    json.push_str(&format!("  \"cells\": {},\n", circuit.num_cells()));
    json.push_str(&format!(
        "  \"available_workers\": {},\n",
        available_workers()
    ));
    json.push_str(&format!(
        "  \"fsim_speedup_4w\": {:.3},\n",
        speedup(&|r: &Row| r.fsim_ns, 4)
    ));
    json.push_str(&format!(
        "  \"batch_speedup_4w\": {:.3},\n",
        speedup(&|r: &Row| r.batch_ns, 4)
    ));
    json.push_str("  \"runs\": [\n");
    for (i, row) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"workers\": {}, \"fsim_ns\": {}, \"batch_ns\": {}}}{}\n",
            row.workers,
            row.fsim_ns,
            row.batch_ns,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");

    std::fs::write(&out_path, &json).expect("write scaling results");
    println!("wrote {out_path}");
}
