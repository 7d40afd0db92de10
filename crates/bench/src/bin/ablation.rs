//! Ablation studies for the design choices DESIGN.md calls out:
//!
//! 1. **β sweep** (Eq. (6)): shrinking the SCC cut budget trades cut count
//!    (and thus testing granularity) against multiplexer-free hardware;
//! 2. **cost policy**: the paper's per-SCC aggregate accounting vs the
//!    exact Leiserson–Saxe cut-realization solver;
//! 3. **flow accounting**: per-net vs per-branch Δ injection (the
//!    multi-pin ambiguity of Table 3);
//! 4. **partitioner**: congestion-guided `Make_Group` vs the simulated-
//!    annealing baseline of the authors' earlier work \[4\];
//! 5. **refinement**: how many cuts an FM-style boundary pass recovers on
//!    top of `Assign_CBIT` (slack the paper's greedy flow leaves behind);
//! 6. **min-area retiming**: registers used by the cut realizer's feasible
//!    retiming vs the exact min-cost-flow optimum (per-edge and shared
//!    objectives) under the same cut coverage.

use ppet_core::cost::realized_with_retiming;
use ppet_core::{CostPolicy, Merced, MercedConfig};
use ppet_flow::{saturate_network, FlowParams};
use ppet_graph::retime::{
    minimize_registers, minimize_shared_registers, shared_register_count, CutRealizer, RetimeGraph,
};
use ppet_graph::{scc::Scc, CircuitGraph};
use ppet_netlist::data::table9;
use ppet_partition::refine::greedy_refine;
use ppet_partition::sa::{anneal, SaParams};
use ppet_partition::{assign_cbit, inputs, make_group, MakeGroupParams};

use ppet_bench::build_circuit;

const CIRCUITS: [&str; 3] = ["s641", "s713", "s1423"];
const LK: usize = 16;

fn main() {
    let json: Option<String> = {
        let mut args = std::env::args().skip(1);
        let mut path = None;
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--json" => path = Some(args.next().expect("--json expects a path")),
                other => panic!("unknown argument `{other}` (usage: ablation [--json out.jsonl])"),
            }
        }
        path
    };
    beta_sweep();
    cost_policy();
    flow_accounting();
    partitioner_comparison();
    refinement();
    min_area_retiming();
    if let Some(path) = json {
        write_manifests(&path);
    }
}

/// Writes one run manifest per ablation circuit (default config, the
/// shared `l_k`) as JSON Lines, so the tables above are attributable to
/// exact per-phase counters and wall times.
fn write_manifests(path: &str) {
    let mut out = String::new();
    for name in CIRCUITS {
        let record = table9::find(name).expect("known circuit");
        let circuit = build_circuit(record);
        let report = Merced::new(MercedConfig::default().with_cbit_length(LK))
            .compile(&circuit)
            .expect("compiles");
        let mut manifest = report.run_manifest();
        manifest.push_config("harness", "ablation");
        // One manifest per line: collapse the pretty-printed JSON.
        let pretty = manifest.to_json();
        let line: Vec<&str> = pretty.lines().map(str::trim).collect();
        out.push_str(&line.join(" "));
        out.push('\n');
    }
    std::fs::write(path, out).expect("manifest path is writable");
    println!("\nwrote {} manifests to {path}", CIRCUITS.len());
}

fn beta_sweep() {
    println!("Ablation 1: beta sweep (l_k = {LK})");
    println!(
        "{:<10} {:>6} {:>10} {:>10} {:>10} {:>12}",
        "Circuit", "beta", "nets cut", "cuts/SCC", "forced", "ovh w/ ret%"
    );
    for name in CIRCUITS {
        let record = table9::find(name).expect("known circuit");
        let circuit = build_circuit(record);
        for beta in [1usize, 2, 5, 50] {
            match Merced::new(MercedConfig::default().with_cbit_length(LK).with_beta(beta))
                .compile(&circuit)
            {
                Ok(r) => println!(
                    "{:<10} {:>6} {:>10} {:>10} {:>10} {:>12.1}",
                    name,
                    beta,
                    r.nets_cut,
                    r.cut_nets_on_scc,
                    r.forced_internal,
                    r.area.pct_with()
                ),
                Err(e) => println!("{:<10} {:>6}   infeasible at this beta: {e}", name, beta),
            }
        }
    }
    println!();
}

fn cost_policy() {
    println!("Ablation 2: per-SCC aggregate vs exact retiming solver (l_k = {LK})");
    println!(
        "{:<10} {:>14} {:>12} {:>14} {:>12}",
        "Circuit", "scc conv/mux", "scc ovh%", "solver c/m", "solver ovh%"
    );
    for name in CIRCUITS {
        let record = table9::find(name).expect("known circuit");
        let circuit = build_circuit(record);
        let scc_run = Merced::new(MercedConfig::default().with_cbit_length(LK))
            .compile(&circuit)
            .expect("compiles");
        let solver_run = Merced::new(
            MercedConfig::default()
                .with_cbit_length(LK)
                .with_cost_policy(CostPolicy::Solver),
        )
        .compile(&circuit)
        .expect("compiles");
        let a = &scc_run.area.with_retiming;
        let b = &solver_run.area.with_retiming;
        println!(
            "{:<10} {:>8}/{:<5} {:>12.1} {:>9}/{:<4} {:>12.1}",
            name,
            a.converted_bits,
            a.mux_bits,
            scc_run.area.pct_with(),
            b.converted_bits,
            b.mux_bits,
            solver_run.area.pct_with()
        );
    }
    println!();
}

fn flow_accounting() {
    println!("Ablation 3: per-net vs per-branch flow accounting (l_k = {LK})");
    println!(
        "{:<10} {:>14} {:>14}",
        "Circuit", "per-net cuts", "per-branch cuts"
    );
    for name in CIRCUITS {
        let record = table9::find(name).expect("known circuit");
        let circuit = build_circuit(record);
        let mut cuts = Vec::new();
        for per_branch in [false, true] {
            let flow = FlowParams {
                per_branch,
                ..FlowParams::paper()
            };
            let r = Merced::new(MercedConfig::default().with_cbit_length(LK).with_flow(flow))
                .compile(&circuit)
                .expect("compiles");
            cuts.push(r.nets_cut);
        }
        println!("{:<10} {:>14} {:>14}", name, cuts[0], cuts[1]);
    }
    println!();
}

fn partitioner_comparison() {
    println!("Ablation 4: flow-guided Make_Group vs simulated annealing [4] (l_k = {LK})");
    println!(
        "{:<10} {:>11} {:>11} {:>12} {:>12}",
        "Circuit", "flow cuts", "sa cuts", "flow parts", "sa clusters"
    );
    for name in CIRCUITS {
        let record = table9::find(name).expect("known circuit");
        let circuit = build_circuit(record);
        let graph = CircuitGraph::from_circuit(&circuit);
        let scc = Scc::of(&graph);
        let profile = saturate_network(&graph, &FlowParams::paper(), 1996);
        let grouped = make_group(&graph, &scc, &profile, &MakeGroupParams::new(LK));
        let flow_result = assign_cbit(&graph, grouped.clustering, LK);

        let sa_clusters = flow_result.partitions.len().max(2);
        let sa_result = anneal(&graph, &SaParams::new(LK, sa_clusters), 1996);
        let sa_cuts = inputs::cut_nets(&graph, &sa_result.clustering).len();

        println!(
            "{:<10} {:>11} {:>11} {:>12} {:>12}",
            name,
            flow_result.cut_nets.len(),
            sa_cuts,
            flow_result.partitions.len(),
            sa_result.clustering.num_clusters()
        );
    }
    println!();
    println!(
        "Note: the SA baseline fixes the cluster count and may violate the\n\
         input constraint on hard instances (penalty-driven); the flow-based\n\
         heuristic always satisfies it. Compare cut counts, not feasibility."
    );
}

fn refinement() {
    println!("Ablation 5: FM-style boundary refinement after Assign_CBIT (l_k = {LK})");
    println!(
        "{:<10} {:>12} {:>12} {:>8} {:>8}",
        "Circuit", "cuts before", "cuts after", "moves", "passes"
    );
    for name in CIRCUITS {
        let record = table9::find(name).expect("known circuit");
        let circuit = build_circuit(record);
        let graph = CircuitGraph::from_circuit(&circuit);
        let scc = Scc::of(&graph);
        let profile = saturate_network(&graph, &FlowParams::paper(), 1996);
        let grouped = make_group(&graph, &scc, &profile, &MakeGroupParams::new(LK));
        let assigned = assign_cbit(&graph, grouped.clustering, LK);
        let before = assigned.cut_nets.len();
        let refined = greedy_refine(&graph, assigned.clustering, LK, 8);
        println!(
            "{:<10} {:>12} {:>12} {:>8} {:>8}",
            name,
            before,
            refined.cut_nets.len(),
            refined.moves,
            refined.passes
        );
    }
}

fn min_area_retiming() {
    println!();
    println!("Ablation 6: min-area retiming under the cut demands (l_k = {LK})");
    println!(
        "{:<10} {:>9} {:>14} {:>14} {:>14} {:>10} {:>12}",
        "Circuit", "cuts", "realizer regs", "min-edge", "min-shared", "new regs", "realized%"
    );
    for name in CIRCUITS {
        let record = table9::find(name).expect("known circuit");
        let circuit = build_circuit(record);
        let graph = CircuitGraph::from_circuit(&circuit);
        let scc = Scc::of(&graph);
        let profile = saturate_network(&graph, &FlowParams::paper(), 1996);
        let grouped = make_group(&graph, &scc, &profile, &MakeGroupParams::new(LK));
        let assigned = assign_cbit(&graph, grouped.clustering, LK);
        let rg = RetimeGraph::from_graph(&graph);
        let real = CutRealizer::new(&rg).realize(&assigned.cut_nets);
        let demands: Vec<i64> = rg
            .edges()
            .iter()
            .map(|e| e.nets.iter().filter(|n| real.covered.contains(n)).count() as i64)
            .collect();
        let realizer_regs = shared_register_count(&rg, &real.retiming);
        let min_edge =
            minimize_registers(&rg, &demands).map(|m| shared_register_count(&rg, &m.retiming));
        let min_shared = minimize_shared_registers(&rg, &demands).map(|m| m.total_registers);
        let realized = realized_with_retiming(&circuit, &real);
        let area = ppet_core::cost::circuit_area_units(&circuit);
        println!(
            "{:<10} {:>9} {:>14} {:>14} {:>14} {:>10} {:>12}",
            name,
            assigned.cut_nets.len(),
            realizer_regs,
            min_edge.map_or("-".to_string(), |v| v.to_string()),
            min_shared.map_or("-".to_string(), |v| v.to_string()),
            realized.map_or("-".to_string(), |r| r.new_registers.to_string()),
            realized.map_or("-".to_string(), |r| format!(
                "{:.1}",
                r.pct_of_circuit(area)
            )),
        );
    }
    println!(
        "\n(registers counted with fan-out sharing; the circuit starts with\n\
         {{s641: 19, s713: 19, s1423: 74}} functional flip-flops)"
    );
}
