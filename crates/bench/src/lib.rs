//! Shared experiment-harness support for the table/figure binaries.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the paper
//! (see `DESIGN.md` §2 for the index); this library holds the common
//! plumbing: building the calibrated benchmark suite, running Merced over
//! it, and printing paper-style rows next to the published values.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod gate;

use ppet_core::{Merced, MercedConfig, PpetReport};
use ppet_flow::FlowParams;
use ppet_netlist::data::table9::{BenchmarkRecord, TABLE9};
use ppet_netlist::synth::{calibrated_spec, Synthesizer};
use ppet_netlist::Circuit;

/// Circuits above this many cells run `Saturate_Network` with a tree
/// budget instead of the unbounded paper loop (see
/// `FlowParams::max_trees`).
pub const BUDGET_THRESHOLD_CELLS: usize = 3000;

/// Trees per node granted to budgeted circuits: six whole rounds of
/// `Saturate_Network`'s source permutations, so every node is a source
/// exactly six times (the paper's quota takes `min_visit + 1 = 21`).
pub const TREES_PER_NODE: u64 = 6;

/// Builds the synthetic stand-in for one published benchmark record.
#[must_use]
pub fn build_circuit(record: &BenchmarkRecord) -> Circuit {
    Synthesizer::new(calibrated_spec(record, 0)).build()
}

/// The flow parameters used by the harnesses for a circuit of `n` cells:
/// paper-faithful below [`BUDGET_THRESHOLD_CELLS`], budgeted above.
#[must_use]
pub fn harness_flow(n: usize) -> FlowParams {
    if n > BUDGET_THRESHOLD_CELLS {
        FlowParams::budgeted(n, TREES_PER_NODE)
    } else {
        FlowParams::paper()
    }
}

/// Runs Merced on one record at the given CBIT length.
#[must_use]
pub fn run_one(record: &BenchmarkRecord, lk: usize) -> PpetReport {
    let circuit = build_circuit(record);
    let config = MercedConfig::default()
        .with_cbit_length(lk)
        .with_flow(harness_flow(circuit.num_cells()));
    Merced::new(config)
        .compile(&circuit)
        .expect("calibrated circuits compile")
}

/// Selects the suite records, optionally capped by a cell-count limit
/// taken from the CLI argument (`--max-cells N`) or the
/// `PPET_MAX_CELLS` environment variable. Useful for quick looks at the
/// small circuits without paying for the 50 000-cell ones.
#[must_use]
pub fn suite_selection() -> Vec<&'static BenchmarkRecord> {
    let mut max_cells = usize::MAX;
    let args: Vec<String> = std::env::args().collect();
    if let Some(pos) = args.iter().position(|a| a == "--max-cells") {
        if let Some(v) = args.get(pos + 1).and_then(|v| v.parse().ok()) {
            max_cells = v;
        }
    } else if let Ok(v) = std::env::var("PPET_MAX_CELLS") {
        if let Ok(v) = v.parse() {
            max_cells = v;
        }
    }
    TABLE9
        .iter()
        .filter(|r| {
            let cells = r.primary_inputs + r.flip_flops + r.gates + r.inverters;
            cells <= max_cells
        })
        .collect()
}

/// Formats a measured-vs-published pair.
#[must_use]
pub fn vs(measured: f64, published: f64) -> String {
    format!("{measured:>7.1} (paper {published:>5.1})")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_small_record() {
        let record = ppet_netlist::data::table9::find("s641").unwrap();
        let c = build_circuit(record);
        assert_eq!(c.num_flip_flops(), 19);
    }

    #[test]
    fn harness_flow_budgets_large_circuits() {
        assert!(harness_flow(100).max_trees.is_none());
        assert!(harness_flow(10_000).max_trees.is_some());
    }

    #[test]
    fn run_one_small() {
        let record = ppet_netlist::data::table9::find("s641").unwrap();
        let r = run_one(record, 16);
        assert_eq!(r.dffs, 19);
        assert_eq!(r.dffs_on_scc, 15);
    }
}
