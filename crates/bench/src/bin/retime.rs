//! Cut-realizer micro-harness: times `CutRealizer::realize` — the
//! `cost_retime` phase's solver under the `solver` cost policy — on the
//! golden-config cut sets of s641 and s713, and backs
//! `scripts/perf_gate.sh`.
//!
//! Each reported time is the median over samples of the mean of a batch
//! of realizations. Before any timing, each circuit's realization is checked equal to the
//! specification below: the constraint system rebuilt on every drop and
//! solved by the plain `n`-round in-place Bellman–Ford pass, the cycle
//! read off its predecessor graph. Covered and excess cuts, iteration
//! count and the lag vector must all match.
//!
//! Usage (see [`ppet_bench::gate::main`]):
//!
//! ```text
//! retime [out.json]          run and write results (default BENCH_retime.json)
//! retime --bless FLOOR.json  run 5 times and (re)write the checked-in floor from the medians
//! retime --gate FLOOR.json   run and fail if the optimized median is more
//!                            than TOLERANCE× slower than the floor
//! ```
//!
//! The floor JSON is `recorded/BENCH_retime.json` (schema
//! `ppet-bench-retime/v1`).

use std::collections::BTreeSet;

use ppet_bench::gate::{self, time_pairs, Timing};
use ppet_core::{resolve_builtin, Merced, MercedConfig};
use ppet_graph::retime::{CutRealization, CutRealizer, RetimeGraph};
use ppet_graph::{CircuitGraph, NetId};

/// s713 is the slowest realization of the `cold_compile` set; s641 is the
/// golden corpus's `solver`-policy recording.
const CIRCUITS: [&str; 2] = ["s641", "s713"];
/// The golden configuration: `l_k = 16` at the default seed.
const LK: usize = 16;
const SEED: u64 = 1996;
/// Realizations per timed sample: one takes only milliseconds, so a
/// sample averages a batch to keep the gate out of timer and scheduler
/// noise.
const BATCH: u64 = 10;

/// Plain in-place Bellman–Ford over `x_u − x_v ≤ w` constraints: `n` full
/// rounds in constraint order, stopping at a round that relaxes nothing.
/// `Err` holds the constraint indices of the predecessor-graph cycle the
/// colored walk finds first.
fn bellman_ford(n: usize, cons: &[(usize, usize, i64)]) -> Result<Vec<i64>, Vec<usize>> {
    let mut dist = vec![0i64; n];
    let mut pred: Vec<Option<usize>> = vec![None; n];
    for _ in 0..n {
        let mut relaxed = false;
        for (ci, &(u, v, w)) in cons.iter().enumerate() {
            if dist[v] + w < dist[u] {
                dist[u] = dist[v] + w;
                pred[u] = Some(ci);
                relaxed = true;
            }
        }
        if !relaxed {
            return Ok(dist);
        }
    }
    let mut color = vec![0u8; n];
    for start in 0..n {
        let mut path = Vec::new();
        let mut v = start;
        while color[v] == 0 {
            color[v] = 1;
            path.push(v);
            match pred[v] {
                Some(ci) => v = cons[ci].1,
                None => break,
            }
        }
        if color[v] == 1 && pred[v].is_some() {
            let pos = path.iter().position(|&x| x == v).expect("on walk");
            return Err(path[pos..]
                .iter()
                .map(|&x| pred[x].expect("pred"))
                .collect());
        }
        for &x in &path {
            color[x] = 2;
        }
    }
    unreachable!("n rounds that still relax leave a predecessor cycle")
}

/// The realizer's specification (flexible I/O latency).
fn realize_reference(rg: &RetimeGraph, cuts: &[NetId]) -> CutRealization {
    let mut active: BTreeSet<NetId> = cuts.iter().copied().collect();
    let mut excess = Vec::new();
    for iterations in 1.. {
        let cons: Vec<(usize, usize, i64)> = rg
            .edges()
            .iter()
            .map(|e| {
                let demand = e.nets.iter().filter(|n| active.contains(n)).count() as i64;
                (e.from.index(), e.to.index(), i64::from(e.weight) - demand)
            })
            .collect();
        match bellman_ford(rg.num_nodes(), &cons) {
            Ok(retiming) => {
                excess.sort_unstable();
                return CutRealization {
                    retiming,
                    covered: active.into_iter().collect(),
                    excess,
                    iterations,
                };
            }
            Err(cycle) => {
                // Drop the active cut on the most cycle edges (ties: larger
                // net id).
                let mut counts: Vec<(NetId, usize)> = Vec::new();
                for &ci in &cycle {
                    for net in rg.edges()[ci].nets.iter().filter(|n| active.contains(n)) {
                        match counts.iter_mut().find(|(n, _)| n == net) {
                            Some((_, k)) => *k += 1,
                            None => counts.push((*net, 1)),
                        }
                    }
                }
                let (victim, _) = *counts
                    .iter()
                    .max_by_key(|&&(n, k)| (k, n))
                    .expect("the cycle crosses an active cut");
                active.remove(&victim);
                excess.push(victim);
            }
        }
    }
    unreachable!("every drop shrinks the active set")
}

fn measure() -> Vec<Timing> {
    CIRCUITS
        .iter()
        .map(|name| {
            let circuit = resolve_builtin(name).expect("Table-9 builtin");
            let cuts = Merced::new(MercedConfig::default().with_cbit_length(LK).with_seed(SEED))
                .compile_detailed(&circuit)
                .expect("golden config compiles")
                .assignment
                .cut_nets;
            let graph = CircuitGraph::from_circuit(&circuit);
            let rg = RetimeGraph::from_graph(&graph);

            // Correctness before speed.
            let fast = CutRealizer::new(&rg).realize(&cuts);
            assert_eq!(
                fast,
                realize_reference(&rg, &cuts),
                "{name}: realizer diverged from the reference"
            );

            let mut timing = time_pairs(
                name,
                vec![
                    ("cuts", cuts.len() as u64),
                    ("iterations", fast.iterations as u64),
                ],
                || {
                    for _ in 0..BATCH {
                        let _ = CutRealizer::new(&rg).realize(&cuts);
                    }
                },
                || {
                    for _ in 0..BATCH {
                        let _ = realize_reference(&rg, &cuts);
                    }
                },
            );
            timing.optimized_ns /= BATCH;
            timing.reference_ns /= BATCH;
            eprintln!(
                "{name}: reference {:.2} ms, optimized {:.2} ms ({:.2}x per pair), \
                 {} cuts, {} iterations",
                timing.reference_ns as f64 / 1e6,
                timing.optimized_ns as f64 / 1e6,
                timing.pair_ratio,
                cuts.len(),
                fast.iterations,
            );
            timing
        })
        .collect()
}

fn main() {
    gate::main("retime", SEED, measure);
}
