//! Measures the wall-clock scaling of batch compilation
//! (`compile_batch`, the one `Pool::par_map` consumer) across worker
//! counts, and writes the results to `BENCH_scaling.json`. (A single
//! compile's saturation is the paper's sequential loop and has nothing to
//! scale.)
//!
//! Worker-count invariance of the batch results is pinned by
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

const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];
const REPS: usize = 3;
const BATCH: [&str; 4] = ["s510", "s641", "s713", "s820"];

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

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_scaling.json".to_string());

    // Batch workload: four smaller circuits compiled concurrently.
    let batch_circuits: Vec<_> = BATCH
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

    let mut rows: Vec<(usize, u64)> = Vec::new();
    for workers in WORKER_COUNTS {
        let pool = Pool::new(workers);
        let batch_ns = best_ns(|| {
            let outcome = compile_batch(&merced, &batch_circuits, &pool);
            assert_eq!(outcome.failed(), 0);
        });
        eprintln!("workers {workers}: batch {:.1} ms", batch_ns as f64 / 1e6);
        rows.push((workers, batch_ns));
    }

    let ns_at = |workers: usize| {
        rows.iter()
            .find(|&&(w, _)| w == workers)
            .map_or(1, |&(_, ns)| ns.max(1))
    };
    let speedup_4w = ns_at(1) as f64 / ns_at(4) as f64;

    let circuits: Vec<String> = BATCH.iter().map(|name| format!("\"{name}\"")).collect();
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"schema\": \"ppet-bench-scaling/v2\",\n");
    json.push_str(&format!("  \"circuits\": [{}],\n", circuits.join(", ")));
    json.push_str(&format!(
        "  \"available_workers\": {},\n",
        available_workers()
    ));
    json.push_str(&format!("  \"batch_speedup_4w\": {speedup_4w:.3},\n"));
    json.push_str("  \"runs\": [\n");
    for (i, (workers, batch_ns)) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"workers\": {workers}, \"batch_ns\": {batch_ns}}}{}\n",
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");

    std::fs::write(&out_path, &json).expect("write scaling results");
    println!("wrote {out_path}");
}
