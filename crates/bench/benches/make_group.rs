//! Criterion bench: `Make_Group` clustering cost (paper §3.3 bounds it by
//! `O(Γ·(|V|+|E|))`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use ppet_flow::{saturate_network, FlowParams};
use ppet_graph::{scc::Scc, CircuitGraph};
use ppet_netlist::data::table9;
use ppet_partition::{make_group, MakeGroupParams};

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("make_group");
    group.sample_size(10);
    for name in ["s510", "s1423", "s5378"] {
        let record = table9::find(name).expect("known circuit");
        let circuit = ppet_bench::build_circuit(record);
        let graph = CircuitGraph::from_circuit(&circuit);
        let scc = Scc::of(&graph);
        let profile = saturate_network(&graph, &scc, &FlowParams::quick(), 1);
        let params = MakeGroupParams::new(16);
        group.bench_with_input(BenchmarkId::from_parameter(name), &graph, |b, g| {
            b.iter(|| make_group(black_box(g), &scc, &profile, &params));
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
