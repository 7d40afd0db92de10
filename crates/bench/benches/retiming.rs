//! Criterion bench: the Leiserson–Saxe cut-realization solver (difference
//! constraints + negative-cycle dropping) against circuit size and cut
//! density.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use ppet_graph::retime::{CutRealizer, RetimeGraph};
use ppet_graph::CircuitGraph;
use ppet_netlist::data::table9;
use ppet_netlist::NetId;
use ppet_prng::{Rng, Xoshiro256PlusPlus};

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("retiming_solver");
    group.sample_size(10);
    for name in ["s510", "s1423", "s5378"] {
        let record = table9::find(name).expect("known circuit");
        let circuit = ppet_bench::build_circuit(record);
        let graph = CircuitGraph::from_circuit(&circuit);
        let rg = RetimeGraph::from_graph(&graph);
        // A ~5% random cut set.
        let mut rng = Xoshiro256PlusPlus::seed_from(11);
        let cuts: Vec<NetId> = graph
            .nets()
            .filter(|_| rng.gen_bool(0.05))
            .map(|(net, _)| net)
            .collect();
        group.bench_with_input(BenchmarkId::from_parameter(name), &cuts, |b, cuts| {
            b.iter(|| {
                let real = CutRealizer::new(&rg).realize(black_box(cuts));
                black_box(real.covered.len())
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
