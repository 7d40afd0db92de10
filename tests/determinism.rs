//! Cross-crate determinism: every stochastic component must reproduce
//! bit-identical results from the same seed — the property that makes the
//! EXPERIMENTS.md numbers stable.

use ppet::core::{compile_batch, Merced, MercedConfig, PpetReport};
use ppet::exec::Pool;
use ppet::flow::{saturate_network, FlowParams};
use ppet::graph::{scc::Scc, CircuitGraph};
use ppet::netlist::data::table9;
use ppet::netlist::synth::{calibrated_spec, iscas89_like};
use ppet::netlist::{Circuit, Synthesizer};
use ppet::partition::sa::{anneal, SaParams};

#[test]
fn generator_is_reproducible() {
    let r = table9::find("s713").unwrap();
    let a = Synthesizer::new(calibrated_spec(r, 0)).build();
    let b = Synthesizer::new(calibrated_spec(r, 0)).build();
    assert_eq!(a, b);
}

#[test]
fn saturation_is_reproducible() {
    let c = iscas89_like("s510").unwrap();
    let g = CircuitGraph::from_circuit(&c);
    let a = saturate_network(&g, &Scc::of(&g), &FlowParams::paper(), 77);
    let b = saturate_network(&g, &Scc::of(&g), &FlowParams::paper(), 77);
    assert_eq!(a, b);
}

#[test]
fn full_reports_are_reproducible() {
    let c = iscas89_like("s641").unwrap();
    let cfg = MercedConfig::default().with_cbit_length(16).with_seed(5);
    let a = Merced::new(cfg.clone()).compile(&c).unwrap();
    let b = Merced::new(cfg).compile(&c).unwrap();
    assert_eq!(a.nets_cut, b.nets_cut);
    assert_eq!(a.cut_nets_on_scc, b.cut_nets_on_scc);
    assert_eq!(a.partitions, b.partitions);
    assert_eq!(a.area, b.area);
    assert_eq!(a.schedule, b.schedule);
}

#[test]
fn annealer_is_reproducible() {
    let c = iscas89_like("s510").unwrap();
    let g = CircuitGraph::from_circuit(&c);
    let a = anneal(&g, &SaParams::new(16, 4), 11);
    let b = anneal(&g, &SaParams::new(16, 4), 11);
    assert_eq!(a.clustering, b.clustering);
    assert_eq!(a.cost, b.cost);
}

/// The worker counts every parallel entry point must be invariant under.
const JOB_COUNTS: [usize; 3] = [1, 2, 8];

/// Everything in a report except the wall-clock fields and the worker
/// count (a pure resource decision, echoed in both `jobs` and the
/// recorded configuration).
fn deterministic_view(r: &PpetReport) -> PpetReport {
    let mut r = r.clone();
    r.elapsed = std::time::Duration::ZERO;
    r.jobs = 0;
    r.config.jobs = 0;
    for p in &mut r.phases {
        p.wall_ns = 0;
    }
    r
}

#[test]
fn full_compile_is_worker_count_invariant() {
    let c = iscas89_like("s641").unwrap();
    let config = MercedConfig::default().with_cbit_length(16).with_seed(5);
    let baseline = Merced::new(config.clone().with_jobs(1))
        .compile(&c)
        .unwrap();
    for jobs in JOB_COUNTS {
        let report = Merced::new(config.clone().with_jobs(jobs))
            .compile(&c)
            .unwrap();
        assert_eq!(
            deterministic_view(&report),
            deterministic_view(&baseline),
            "jobs = {jobs}"
        );
    }
}

#[test]
fn batch_compiling_table9_at_max_parallelism_is_deterministic() {
    // Every Table 9 circuit through `compile_batch` at high parallelism,
    // with a small saturation tree budget so the stress test stays fast.
    let circuits: Vec<Circuit> = table9::TABLE9
        .iter()
        .map(|r| iscas89_like(r.name).unwrap())
        .collect();
    let mut flow = FlowParams::paper();
    flow.max_trees = Some(64);
    let config = MercedConfig::default()
        .with_cbit_length(16)
        .with_seed(9)
        .with_flow(flow);
    let merced = Merced::new(config);

    let baseline = compile_batch(&merced, &circuits, &Pool::sequential());
    // The tight budget makes a couple of the big circuits fail with
    // PartitionTooWide — that is fine, as long as failures are themselves
    // deterministic and the bulk of the suite compiles.
    assert!(
        baseline.succeeded() >= 15,
        "only {} compiled:\n{}",
        baseline.succeeded(),
        baseline.table()
    );
    let batch = compile_batch(&merced, &circuits, &Pool::new(8));
    assert_eq!(batch.results.len(), table9::TABLE9.len());
    for ((name_a, a), (name_b, b)) in batch.results.iter().zip(&baseline.results) {
        assert_eq!(name_a, name_b);
        match (a, b) {
            (Ok(a), Ok(b)) => {
                assert_eq!(
                    deterministic_view(a),
                    deterministic_view(b),
                    "circuit = {name_a}"
                );
            }
            (a, b) => assert_eq!(a, b, "circuit = {name_a}"),
        }
    }
}

#[test]
fn different_seeds_give_different_flows() {
    let c = iscas89_like("s510").unwrap();
    let g = CircuitGraph::from_circuit(&c);
    let a = saturate_network(&g, &Scc::of(&g), &FlowParams::quick(), 1);
    let b = saturate_network(&g, &Scc::of(&g), &FlowParams::quick(), 2);
    assert_ne!(a, b);
}
