//! End-to-end observability checks: the run manifest a compile produces,
//! the counters a collecting tracer records, and their agreement.

use ppet::core::{Merced, MercedConfig};
use ppet::flow::FlowParams;
use ppet::netlist::data;
use ppet::trace::{RunManifest, Tracer, SCHEMA};

/// The pipeline stages in execution order: the five of the paper's
/// Table 2, plus the power-scheduling pass that prices the result.
const PIPELINE_PHASES: [&str; 6] = [
    "scc",
    "saturate_network",
    "make_group",
    "assign_cbit",
    "cost_retime",
    "power_sched",
];

/// Counters the manifest must always carry (the observability contract).
const REQUIRED_COUNTERS: [&str; 6] = [
    "flow.trees_built",
    "flow.heap_pops",
    "partition.nets_cut",
    "assign.merges",
    "cost.converted_cuts",
    "cost.mux_cuts",
];

fn compile_s27() -> ppet::core::PpetReport {
    Merced::new(MercedConfig::default().with_cbit_length(4))
        .compile(&data::s27())
        .expect("s27 compiles")
}

#[test]
fn manifest_covers_the_table2_pipeline() {
    let manifest = compile_s27().run_manifest();
    assert_eq!(manifest.schema, SCHEMA);
    assert_eq!(manifest.circuit, "s27");
    let names: Vec<&str> = manifest.phases.iter().map(|p| p.name.as_str()).collect();
    assert_eq!(names, PIPELINE_PHASES);
    for phase in &manifest.phases {
        assert!(
            phase.wall_ns >= 1,
            "phase {} has zero wall time",
            phase.name
        );
    }
    for counter in REQUIRED_COUNTERS {
        assert!(
            manifest.total(counter).is_some(),
            "manifest is missing counter {counter}"
        );
    }
    let distinct: std::collections::BTreeSet<&str> =
        manifest.totals.iter().map(|(k, _)| k.as_str()).collect();
    assert!(
        distinct.len() >= 6,
        "only {} distinct counters",
        distinct.len()
    );
}

#[test]
fn manifest_round_trips_through_json() {
    let manifest = compile_s27().run_manifest();
    let text = manifest.to_json();
    let back = RunManifest::from_json(&text).expect("parses");
    assert_eq!(back, manifest);
    assert_eq!(back.to_json(), text, "serialization must be stable");
}

#[test]
fn same_seed_gives_identical_counters() {
    let a = compile_s27().run_manifest();
    let b = compile_s27().run_manifest();
    assert_eq!(a.totals, b.totals);
    for (pa, pb) in a.phases.iter().zip(&b.phases) {
        assert_eq!(pa.name, pb.name);
        assert_eq!(pa.counters, pb.counters, "phase {} diverged", pa.name);
    }
}

#[test]
fn traced_compile_agrees_with_the_manifest() {
    let circuit = data::s27();
    let merced = Merced::new(MercedConfig::default().with_cbit_length(4));
    let plain = merced.compile(&circuit).expect("compiles");
    let (tracer, sink) = Tracer::collecting();
    let traced = merced
        .compile_detailed_traced(&circuit, &tracer)
        .expect("compiles")
        .report;

    // Tracing never perturbs results.
    assert_eq!(plain.nets_cut, traced.nets_cut);
    assert_eq!(plain.partitions, traced.partitions);
    let ma = plain.run_manifest();
    let mb = traced.run_manifest();
    assert_eq!(ma.totals, mb.totals);

    // The span tree mirrors the pipeline: one root with every phase.
    let report = sink.report();
    assert_eq!(report.spans.len(), 1);
    assert_eq!(report.spans[0].name, "merced");
    let children = &report.spans[0].children;
    let names: Vec<&str> = children.iter().map(|s| s.name.as_str()).collect();
    assert_eq!(names, PIPELINE_PHASES);

    // Each phase reports one counter list: its span's increments are
    // exactly the manifest phase's counters, name for name, none missing
    // on either side (a span lists increments, so zero counters show
    // only in the totals, which must match in full).
    assert_eq!(mb.phases.len(), children.len());
    for (phase, span) in mb.phases.iter().zip(children) {
        assert_eq!(phase.name, span.name);
        let nonzero: Vec<(String, u64)> = phase
            .counters
            .iter()
            .filter(|&&(_, value)| value > 0)
            .cloned()
            .collect();
        assert_eq!(nonzero, span.counter_deltas, "phase {}", phase.name);
    }
    let totals: Vec<(String, u64)> = report.counters.clone().into_iter().collect();
    assert_eq!(totals, mb.totals);

    // One histogram sample per saturation tree, summing to the settles.
    let trees = &report.histograms["flow.tree_nodes"];
    assert_eq!(Some(&trees.count), report.counters.get("flow.trees_built"));
    assert_eq!(Some(&trees.sum), report.counters.get("flow.nodes_settled"));
}

#[test]
fn more_flow_work_never_decreases_flow_counters() {
    let circuit = data::s27();
    let quick = Merced::new(
        MercedConfig::default()
            .with_cbit_length(4)
            .with_flow(FlowParams::quick()),
    )
    .compile(&circuit)
    .expect("compiles")
    .run_manifest();
    let paper = Merced::new(MercedConfig::default().with_cbit_length(4))
        .compile(&circuit)
        .expect("compiles")
        .run_manifest();
    // The paper parameters demand more visits per node than the quick
    // preset, so every flow work counter is at least as large.
    for counter in ["flow.trees_built", "flow.heap_pops", "flow.nodes_settled"] {
        let lo = quick.total(counter).expect("present");
        let hi = paper.total(counter).expect("present");
        assert!(hi >= lo, "{counter}: {hi} < {lo}");
    }
}
