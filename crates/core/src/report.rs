//! Compilation reports and paper-style table formatting.

use std::fmt;
use std::time::Duration;

use ppet_netlist::CircuitStats;
use ppet_sched::PowerSchedule;
use ppet_trace::{PhaseManifest, RunManifest};

use crate::config::MercedConfig;
use crate::cost::AreaBreakdown;

/// Summary of one final partition (CUT).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionSummary {
    /// Number of member cells.
    pub cells: usize,
    /// Input width ι(π).
    pub inputs: usize,
    /// The standard CBIT length assigned (smallest `l` ≥ ι).
    pub cbit_length: u32,
}

/// The with/without-retiming area comparison (paper Table 12).
#[derive(Debug, Clone, PartialEq)]
pub struct AreaComparison {
    /// Original circuit area in the paper's units.
    pub circuit_area: u64,
    /// With-retiming breakdown.
    pub with_retiming: AreaBreakdown,
    /// Without-retiming breakdown.
    pub without_retiming: AreaBreakdown,
}

impl AreaComparison {
    /// `A_CBIT/A_total` (%) with retiming.
    #[must_use]
    pub fn pct_with(&self) -> f64 {
        self.with_retiming.pct_of_circuit(self.circuit_area)
    }

    /// `A_CBIT/A_total` (%) without retiming.
    #[must_use]
    pub fn pct_without(&self) -> f64 {
        self.without_retiming.pct_of_circuit(self.circuit_area)
    }

    /// Relative CBIT-area saving of retiming, in percent
    /// (`(A_wo − A_w) / A_wo`): the paper's headline "average 20 %
    /// reduction" metric.
    #[must_use]
    pub fn saving_pct(&self) -> f64 {
        let wo = self.without_retiming.deci_dff as f64;
        if wo == 0.0 {
            return 0.0;
        }
        100.0 * (wo - self.with_retiming.deci_dff as f64) / wo
    }
}

/// The Fig. 1 schedule summary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScheduleSummary {
    /// Number of test pipes.
    pub pipes: usize,
    /// Pipelined testing time (clock cycles).
    pub total_cycles: u128,
    /// Sequential (non-pipelined) testing time.
    pub sequential_cycles: u128,
}

/// The full result of a Merced compilation.
#[derive(Debug, Clone, PartialEq)]
pub struct PpetReport {
    /// Circuit statistics (the paper's Table 9 columns).
    pub circuit: CircuitStats,
    /// `l_k` used.
    pub cbit_length: usize,
    /// `β` used.
    pub beta: usize,
    /// Flow seed used.
    pub seed: u64,
    /// Configured worker-thread count. Purely informational: results are
    /// bit-identical at any value (see `MercedConfig::jobs`).
    pub jobs: usize,
    /// The full configuration of the compile that produced this report —
    /// enough to reproduce the run from the manifest alone (see
    /// [`MercedConfig::manifest_entries`]).
    pub config: MercedConfig,
    /// Registers in the circuit ("No. of DFFs").
    pub dffs: usize,
    /// Registers inside cyclic SCCs ("DFFs on SCC").
    pub dffs_on_scc: usize,
    /// Total cut nets ("nets cut").
    pub nets_cut: usize,
    /// Cut nets inside cyclic SCCs ("cut nets on SCC").
    pub cut_nets_on_scc: usize,
    /// Nets the SCC budget forced internal.
    pub forced_internal: usize,
    /// Whether the flow phase met the full visit quota. `false` means the
    /// [`FlowParams::max_trees`](ppet_flow::FlowParams) budget ran out
    /// first, so the congestion profile that fed the partitioner was built
    /// from fewer trees than Table 3 demands (the deliberate large-circuit
    /// trade-off recorded in `EXPERIMENTS.md`).
    pub flow_saturated: bool,
    /// Number of nodes that missed their visit quota (0 when saturated).
    pub flow_shortfall_nodes: usize,
    /// Clusters before the greedy merge.
    pub clusters_before_merge: usize,
    /// Final partitions.
    pub partitions: Vec<PartitionSummary>,
    /// Total CBIT hardware cost `Σ p_k n_k` in DFF equivalents (Eq. (4)).
    pub cbit_cost_dff: f64,
    /// The Table 12 area comparison.
    pub area: AreaComparison,
    /// The Fig. 1 schedule.
    pub schedule: ScheduleSummary,
    /// The power-constrained session schedule (`ppet_sched`): blocks
    /// packed into sequential steps under
    /// [`MercedConfig::power_budget_cdf`] (or the default budget policy).
    pub power: PowerSchedule,
    /// Per-phase wall time and counters, in pipeline order: one record
    /// per paper Table 2 step, named as its span and carrying the
    /// counters that span reports (sorted by name). Every compile fills
    /// it, traced or not, so [`PpetReport::run_manifest`] works on any
    /// report.
    pub phases: Vec<PhaseManifest>,
    /// Wall-clock compile time (the Tables 10–11 "CPU time" column).
    pub elapsed: Duration,
}

impl PpetReport {
    /// Formats the Tables 10/11 row:
    /// `name, DFFs, DFFs on SCC, cut nets on SCC, nets cut, CPU time`.
    #[must_use]
    pub fn table10_row(&self) -> String {
        format!(
            "{:<10} {:>7} {:>8} {:>9} {:>9} {:>9.2}",
            self.circuit.name,
            self.dffs,
            self.dffs_on_scc,
            self.cut_nets_on_scc,
            self.nets_cut,
            self.elapsed.as_secs_f64()
        )
    }

    /// Header matching [`PpetReport::table10_row`].
    #[must_use]
    pub fn table10_header() -> String {
        format!(
            "{:<10} {:>7} {:>8} {:>9} {:>9} {:>9}",
            "Circuit", "DFFs", "DFF/SCC", "cuts/SCC", "nets cut", "CPU(s)"
        )
    }

    /// The Table 12 percentage pair `(with retiming, without retiming)`.
    #[must_use]
    pub fn table12_cells(&self) -> (f64, f64) {
        (self.area.pct_with(), self.area.pct_without())
    }

    /// Serializes every audited claim of this report as manifest `result`
    /// entries: the cut statistics, the per-partition rows
    /// (`cells/inputs/length`), the Eq. (4) cost, the Table 12 breakdowns,
    /// and the Fig. 1 schedule.
    ///
    /// `merced audit` recompiles a recorded manifest and compares these
    /// entries field by field, so the encoding is deterministic (the one
    /// float, `cbit_cost_dff`, is fixed at four decimals).
    #[must_use]
    pub fn result_entries(&self) -> Vec<(String, String)> {
        let mut out: Vec<(String, String)> = [
            ("dffs", self.dffs.to_string()),
            ("dffs_on_scc", self.dffs_on_scc.to_string()),
            ("nets_cut", self.nets_cut.to_string()),
            ("cut_nets_on_scc", self.cut_nets_on_scc.to_string()),
            ("forced_internal", self.forced_internal.to_string()),
            (
                "clusters_before_merge",
                self.clusters_before_merge.to_string(),
            ),
            ("flow.saturated", self.flow_saturated.to_string()),
            (
                "flow.shortfall_nodes",
                self.flow_shortfall_nodes.to_string(),
            ),
            ("circuit_area", self.area.circuit_area.to_string()),
            ("cbit_cost_dff", format!("{:.4}", self.cbit_cost_dff)),
            (
                "with.converted_bits",
                self.area.with_retiming.converted_bits.to_string(),
            ),
            (
                "with.mux_bits",
                self.area.with_retiming.mux_bits.to_string(),
            ),
            (
                "with.deci_dff",
                self.area.with_retiming.deci_dff.to_string(),
            ),
            (
                "without.converted_bits",
                self.area.without_retiming.converted_bits.to_string(),
            ),
            (
                "without.mux_bits",
                self.area.without_retiming.mux_bits.to_string(),
            ),
            (
                "without.deci_dff",
                self.area.without_retiming.deci_dff.to_string(),
            ),
            ("schedule.pipes", self.schedule.pipes.to_string()),
            (
                "schedule.total_cycles",
                self.schedule.total_cycles.to_string(),
            ),
            (
                "schedule.sequential_cycles",
                self.schedule.sequential_cycles.to_string(),
            ),
            ("sched.budget_cdf", self.power.budget_cdf.to_string()),
            ("sched.steps", self.power.steps.len().to_string()),
            ("sched.total_cycles", self.power.total_cycles().to_string()),
            ("sched.peak_cdf", self.power.peak_power_cdf().to_string()),
            ("partitions", self.partitions.len().to_string()),
        ]
        .into_iter()
        .map(|(k, v)| (k.to_owned(), v))
        .collect();
        for (k, p) in self.partitions.iter().enumerate() {
            out.push((
                format!("partition.{k}"),
                format!("{}/{}/{}", p.cells, p.inputs, p.cbit_length),
            ));
        }
        for (k, s) in self.power.steps.iter().enumerate() {
            let ids: Vec<String> = s.blocks.iter().map(ToString::to_string).collect();
            out.push((
                format!("sched.step.{k}"),
                format!("{}/{}:{}", s.cycles, s.power_cdf, ids.join(",")),
            ));
        }
        out
    }

    /// Builds the self-describing JSON run manifest for this compile:
    /// circuit, seed, the full configuration
    /// ([`MercedConfig::manifest_entries`]), the audited result claims
    /// ([`PpetReport::result_entries`]), the per-phase wall times and
    /// counters of [`PpetReport::phases`], and counter totals.
    ///
    /// Counter *values* are deterministic per seed; only `wall_ns` varies
    /// between runs.
    #[must_use]
    pub fn run_manifest(&self) -> RunManifest {
        let mut manifest = RunManifest::new(self.circuit.name.clone(), self.seed);
        manifest.engine = Some(ppet_trace::ENGINE_EPOCH);
        for (key, value) in self.config.manifest_entries() {
            manifest.push_config(key, value);
        }
        for (key, value) in self.result_entries() {
            manifest.push_result(key, value);
        }
        manifest.phases.clone_from(&self.phases);
        manifest.compute_totals();
        manifest
    }
}

impl fmt::Display for PpetReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Merced report for {} (l_k = {}, beta = {}, seed = {})",
            self.circuit.name, self.cbit_length, self.beta, self.seed
        )?;
        writeln!(
            f,
            "  circuit: {} PIs, {} DFFs ({} on SCC), {} gates, {} INVs, area {}",
            self.circuit.primary_inputs,
            self.dffs,
            self.dffs_on_scc,
            self.circuit.gates,
            self.circuit.inverters,
            self.circuit.area
        )?;
        writeln!(
            f,
            "  partitioning: {} clusters -> {} partitions, {} nets cut ({} on SCC, {} forced internal)",
            self.clusters_before_merge,
            self.partitions.len(),
            self.nets_cut,
            self.cut_nets_on_scc,
            self.forced_internal
        )?;
        writeln!(
            f,
            "  CBIT hardware: {:.2} DFF-equivalents across {} CBITs",
            self.cbit_cost_dff,
            self.partitions.len()
        )?;
        writeln!(
            f,
            "  area overhead: {:.1}% with retiming vs {:.1}% without ({:.1}% saving)",
            self.area.pct_with(),
            self.area.pct_without(),
            self.area.saving_pct()
        )?;
        writeln!(
            f,
            "  testing time: {} cycles pipelined over {} pipes ({} sequential)",
            self.schedule.total_cycles, self.schedule.pipes, self.schedule.sequential_cycles
        )?;
        writeln!(
            f,
            "  power schedule: {} steps in {} cycles, peak {} cdf under budget {} cdf",
            self.power.steps.len(),
            self.power.total_cycles(),
            self.power.peak_power_cdf(),
            self.power.budget_cdf
        )?;
        write!(f, "  compile time: {:.3}s", self.elapsed.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> PpetReport {
        PpetReport {
            circuit: CircuitStats {
                name: "s27".into(),
                primary_inputs: 4,
                primary_outputs: 1,
                flip_flops: 3,
                gates: 8,
                inverters: 2,
                area: 51,
            },
            cbit_length: 4,
            beta: 50,
            seed: 1,
            jobs: 1,
            config: MercedConfig::default()
                .with_cbit_length(4)
                .with_seed(1)
                .with_jobs(1),
            dffs: 3,
            dffs_on_scc: 3,
            nets_cut: 5,
            cut_nets_on_scc: 3,
            forced_internal: 0,
            flow_saturated: true,
            flow_shortfall_nodes: 0,
            clusters_before_merge: 6,
            partitions: vec![PartitionSummary {
                cells: 17,
                inputs: 4,
                cbit_length: 4,
            }],
            cbit_cost_dff: 8.14,
            area: AreaComparison {
                circuit_area: 51,
                with_retiming: crate::cost::AreaBreakdown {
                    converted_bits: 5,
                    mux_bits: 0,
                    deci_dff: 45,
                },
                without_retiming: crate::cost::AreaBreakdown {
                    converted_bits: 1,
                    mux_bits: 4,
                    deci_dff: 101,
                },
            },
            schedule: ScheduleSummary {
                pipes: 1,
                total_cycles: 16,
                sequential_cycles: 16,
            },
            power: PowerSchedule {
                budget_cdf: 814,
                steps: vec![ppet_sched::SchedStep {
                    blocks: vec![0],
                    cycles: 16,
                    power_cdf: 814,
                }],
            },
            phases: vec![PhaseManifest {
                name: "saturate_network".into(),
                wall_ns: 1_000,
                counters: vec![("flow.trees_built".into(), 60)],
            }],
            elapsed: Duration::from_millis(12),
        }
    }

    #[test]
    fn saving_formula() {
        let r = sample();
        let expected = 100.0 * (101.0 - 45.0) / 101.0;
        assert!((r.area.saving_pct() - expected).abs() < 1e-12);
    }

    #[test]
    fn rows_align_with_header() {
        let r = sample();
        assert_eq!(PpetReport::table10_header().len(), r.table10_row().len());
        assert!(r.table10_row().starts_with("s27"));
    }

    #[test]
    fn display_mentions_key_numbers() {
        let s = sample().to_string();
        assert!(s.contains("l_k = 4"), "{s}");
        assert!(s.contains("saving"), "{s}");
        assert!(s.contains("pipelined"), "{s}");
    }

    #[test]
    fn table12_cells_order() {
        let r = sample();
        let (w, wo) = r.table12_cells();
        assert!(w < wo);
    }

    #[test]
    fn manifest_reflects_report() {
        let m = sample().run_manifest();
        assert_eq!(m.circuit, "s27");
        assert_eq!(m.seed, 1);
        assert_eq!(m.phases.len(), 1);
        assert_eq!(m.total("flow.trees_built"), Some(60));
        assert!(m.config.contains(&("jobs".to_owned(), "1".to_owned())));
        assert!(m.config.contains(&("policy".to_owned(), "scc".to_owned())));
        let back = RunManifest::from_json(&m.to_json()).expect("round-trips");
        assert_eq!(back, m);
    }

    #[test]
    fn result_entries_carry_every_claim() {
        let r = sample();
        let m = r.run_manifest();
        assert_eq!(m.result_value("nets_cut"), Some("5"));
        assert_eq!(m.result_value("cbit_cost_dff"), Some("8.1400"));
        assert_eq!(m.result_value("with.deci_dff"), Some("45"));
        assert_eq!(m.result_value("without.mux_bits"), Some("4"));
        assert_eq!(m.result_value("partitions"), Some("1"));
        assert_eq!(m.result_value("partition.0"), Some("17/4/4"));
        assert_eq!(m.result_value("flow.saturated"), Some("true"));
        assert_eq!(m.result_value("flow.shortfall_nodes"), Some("0"));
        assert_eq!(m.result_value("schedule.total_cycles"), Some("16"));
        assert_eq!(m.result_value("sched.budget_cdf"), Some("814"));
        assert_eq!(m.result_value("sched.steps"), Some("1"));
        assert_eq!(m.result_value("sched.total_cycles"), Some("16"));
        assert_eq!(m.result_value("sched.peak_cdf"), Some("814"));
        assert_eq!(m.result_value("sched.step.0"), Some("16/814:0"));
        // The recorded config (plus the manifest's own seed field)
        // reconstructs the compile's configuration.
        let back = MercedConfig::from_manifest_entries(&m.config)
            .unwrap()
            .with_seed(m.seed);
        assert_eq!(back, r.config);
    }
}
