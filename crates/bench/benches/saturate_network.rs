//! Criterion bench: `Saturate_Network` cost versus circuit size — the
//! complexity driver the paper's §3.3 identifies
//! (`O(([visit]+Var[visit])·|V| log|V|)`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use ppet_flow::{saturate_network, FlowParams};
use ppet_graph::{scc::Scc, CircuitGraph};
use ppet_netlist::data::table9;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("saturate_network");
    group.sample_size(10);
    for name in ["s510", "s820", "s1423"] {
        let record = table9::find(name).expect("known circuit");
        let circuit = ppet_bench::build_circuit(record);
        let graph = CircuitGraph::from_circuit(&circuit);
        let params = FlowParams::quick();
        group.bench_with_input(BenchmarkId::from_parameter(name), &graph, |b, g| {
            b.iter(|| saturate_network(black_box(g), &Scc::of(g), &params, 1));
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
