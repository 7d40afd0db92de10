//! The Merced compilation pipeline (paper Table 2).

use std::sync::OnceLock;
use std::time::Instant;

use ppet_cbit::cost::CbitCostModel;
use ppet_cbit::schedule::{CutSpec, TestSchedule};
use ppet_flow::saturate_network_traced;
use ppet_graph::retime::{CutRealization, CutRealizer, IoLatency, RetimeGraph};
use ppet_graph::{scc::Scc, CircuitGraph};
use ppet_netlist::{AreaModel, Circuit, CircuitStats};
use ppet_partition::{assign_cbit_traced, inputs, make_group_traced, MakeGroupParams};
use ppet_trace::Tracer;

use ppet_netlist::NetId;
use ppet_partition::CbitAssignment;

use crate::config::{CostPolicy, MercedConfig};
use crate::cost::{self, AreaBreakdown};
use crate::error::MercedError;
use crate::instrument::{insert_test_hardware, Instrumented};
use crate::report::{AreaComparison, PartitionSummary, PhaseMetrics, PpetReport, ScheduleSummary};

/// Elapsed nanoseconds since `start`, clamped to ≥ 1 so a phase that fits
/// inside one clock tick still registers as having happened.
fn phase_ns(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos())
        .unwrap_or(u64::MAX)
        .max(1)
}

/// The compile's cut realization: a legal retiming covering as many of
/// `cuts` as the circuit's loops allow.
fn solve_realization(graph: &CircuitGraph, cuts: &[NetId], io: IoLatency) -> CutRealization {
    CutRealizer::new(&RetimeGraph::from_graph(graph))
        .io_latency(io)
        .realize(cuts)
}

/// A compilation result carrying the full partition data alongside the
/// summary report — for callers that go on to extract segments
/// (`ppet_sim::pet`-style experiments), audit the result, or insert the
/// test hardware ([`Compilation::instrument`]).
#[derive(Debug, Clone)]
pub struct Compilation {
    /// The summary report (what [`Merced::compile`] returns).
    pub report: PpetReport,
    /// The full `Assign_CBIT` output: member cells and input nets of every
    /// partition.
    pub assignment: CbitAssignment,
    /// Per-partition CBIT cut groups: each partition's input nets that are
    /// internal cut nets (the grouping [`crate::instrument`] consumes).
    /// Partitions with no internal cuts contribute empty groups.
    pub cut_groups: Vec<Vec<NetId>>,
    /// Solved by `cost_retime` under [`CostPolicy::Solver`], else on use.
    realization: OnceLock<CutRealization>,
}

impl Compilation {
    /// The cut realization of this compile — the lags, the covered cuts
    /// and the excess (multiplexed) cuts — under the configured I/O
    /// latency. The solver policy prices it; the audit and
    /// [`Compilation::instrument`] read it. `circuit` must be the netlist
    /// the compile ran on.
    pub fn realization(&self, circuit: &Circuit) -> &CutRealization {
        let (cuts, io) = (&self.assignment.cut_nets, self.report.config.io_latency);
        self.realization
            .get_or_init(|| solve_realization(&CircuitGraph::from_circuit(circuit), cuts, io))
    }

    /// [`insert_test_hardware`] over this compile's realization and cut
    /// groups.
    ///
    /// # Errors
    ///
    /// Same as [`insert_test_hardware`].
    pub fn instrument(
        &self,
        circuit: &Circuit,
        tracer: &Tracer,
    ) -> Result<Instrumented, MercedError> {
        insert_test_hardware(circuit, self.realization(circuit), &self.cut_groups, tracer)
    }
}

/// The BIST compiler: partitions a circuit for PPET and costs the test
/// hardware with and without retiming.
///
/// # Examples
///
/// ```
/// use ppet_core::{Merced, MercedConfig};
/// use ppet_netlist::data;
///
/// # fn main() -> Result<(), ppet_core::MercedError> {
/// let merced = Merced::new(MercedConfig::default().with_cbit_length(4));
/// let report = merced.compile(&data::s27())?;
/// assert!(report.nets_cut > 0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Merced {
    config: MercedConfig,
}

impl Merced {
    /// Creates a compiler with the given configuration.
    #[must_use]
    pub fn new(config: MercedConfig) -> Self {
        Self { config }
    }

    /// The configuration in use.
    #[must_use]
    pub fn config(&self) -> &MercedConfig {
        &self.config
    }

    /// Runs the full pipeline on `circuit`.
    ///
    /// # Errors
    ///
    /// * [`MercedError::Config`] for invalid configurations;
    /// * [`MercedError::EmptyCircuit`] for empty circuits;
    /// * [`MercedError::CombinationalCycle`] for non-synchronous netlists;
    /// * [`MercedError::PartitionTooWide`] when a partition exceeds the
    ///   largest standard CBIT (only reachable with pathological `β`);
    /// * [`MercedError::PowerBudgetTooTight`] when an explicit
    ///   `power_budget` cannot hold the hottest partition's CBIT.
    pub fn compile(&self, circuit: &Circuit) -> Result<PpetReport, MercedError> {
        self.compile_detailed(circuit).map(|c| c.report)
    }

    /// [`Merced::compile`] with observability: wraps each pipeline phase
    /// in a span on `tracer` and records phase counters into it.
    ///
    /// The report (including [`PpetReport::phases`]) is identical to the
    /// untraced call up to wall-clock noise; counters are deterministic
    /// per seed.
    ///
    /// # Errors
    ///
    /// Same as [`Merced::compile`].
    pub fn compile_traced(
        &self,
        circuit: &Circuit,
        tracer: &Tracer,
    ) -> Result<PpetReport, MercedError> {
        self.compile_detailed_traced(circuit, tracer)
            .map(|c| c.report)
    }

    /// Like [`Merced::compile`], additionally returning the partition
    /// member sets and per-partition cut groups.
    ///
    /// # Errors
    ///
    /// Same as [`Merced::compile`].
    pub fn compile_detailed(&self, circuit: &Circuit) -> Result<Compilation, MercedError> {
        self.compile_detailed_traced(circuit, &Tracer::noop())
    }

    /// [`Merced::compile_detailed`] with observability (see
    /// [`Merced::compile_traced`]).
    ///
    /// # Errors
    ///
    /// Same as [`Merced::compile`].
    pub fn compile_detailed_traced(
        &self,
        circuit: &Circuit,
        tracer: &Tracer,
    ) -> Result<Compilation, MercedError> {
        if let Some(problem) = self.config.validate() {
            return Err(MercedError::Config { problem });
        }
        if circuit.num_cells() == 0 {
            return Err(MercedError::EmptyCircuit);
        }
        if let Some(cell) = ppet_netlist::validate::find_combinational_cycle(circuit) {
            return Err(MercedError::CombinationalCycle { cell });
        }
        let started = Instant::now();
        let root_span = tracer.span("merced");
        let mut phases = Vec::with_capacity(6);

        // STEPs 1–2: graph representation and strongly connected
        // components.
        let phase_start = Instant::now();
        let (graph, scc) = {
            let _span = tracer.span("scc");
            let graph = CircuitGraph::from_circuit(circuit);
            let scc = Scc::of(&graph);
            tracer.add("scc.components", scc.len() as u64);
            (graph, scc)
        };
        let cyclic_components = scc
            .components()
            .iter()
            .filter(|comp| scc.is_cyclic(scc.component_of(comp[0])))
            .count();
        phases.push(PhaseMetrics {
            name: "scc",
            wall_ns: phase_ns(phase_start),
            counters: vec![
                ("scc.components", scc.len() as u64),
                ("scc.cyclic_components", cyclic_components as u64),
            ],
        });

        // STEP 3: Assign_CBIT = saturate + cluster + merge. Saturation is
        // the paper's sequential Table 3 loop.
        let phase_start = Instant::now();
        let profile = {
            let _span = tracer.span("saturate_network");
            saturate_network_traced(&graph, &self.config.flow, self.config.seed, tracer)
        };
        let search = profile.search_stats();
        let flow_saturated = profile.is_saturated();
        let flow_shortfall_nodes = profile.unsaturated_nodes();
        phases.push(PhaseMetrics {
            name: "saturate_network",
            wall_ns: phase_ns(phase_start),
            counters: vec![
                ("flow.csr.branches", graph.csr().num_branches() as u64),
                ("flow.csr.nodes", graph.csr().num_nodes() as u64),
                ("flow.heap_pops", search.heap_pops),
                ("flow.nodes_settled", search.settled),
                ("flow.relaxations", search.relaxations),
                ("flow.requeue", search.requeued),
                ("flow.reused", search.reused),
                ("flow.shortfall_nodes", flow_shortfall_nodes as u64),
                ("flow.trees_built", profile.num_trees() as u64),
            ],
        });

        let phase_start = Instant::now();
        let grouped = {
            let _span = tracer.span("make_group");
            make_group_traced(
                &graph,
                &scc,
                &profile,
                &MakeGroupParams::new(self.config.cbit_length).with_beta(self.config.beta),
                tracer,
            )
        };
        let clusters_before_merge = grouped.clustering.num_clusters();
        let forced_internal = grouped.forced_internal.len();
        phases.push(PhaseMetrics {
            name: "make_group",
            wall_ns: phase_ns(phase_start),
            counters: vec![
                ("partition.boundaries_used", grouped.boundaries_used as u64),
                ("partition.clusters_formed", clusters_before_merge as u64),
                ("partition.forced_internal", forced_internal as u64),
                ("partition.nets_cut", grouped.cut_nets.len() as u64),
            ],
        });

        let phase_start = Instant::now();
        let assignment = {
            let _span = tracer.span("assign_cbit");
            assign_cbit_traced(&graph, grouped.clustering, self.config.cbit_length, tracer)
        };
        phases.push(PhaseMetrics {
            name: "assign_cbit",
            wall_ns: phase_ns(phase_start),
            counters: vec![
                ("assign.merge_attempts", assignment.merge_attempts as u64),
                ("assign.merges", assignment.merges as u64),
                ("assign.partitions", assignment.partitions.len() as u64),
            ],
        });

        // STEP 4: cost the partition with and without retiming.
        let phase_start = Instant::now();
        let cost_span = tracer.span("cost_retime");

        // Cut statistics.
        let cuts = assignment.cut_nets.clone();
        let cuts_on_scc = inputs::cuts_on_scc(&graph, &scc, &cuts);

        // CBIT sizing (Eq. (4)).
        let cost_model = CbitCostModel::new(self.config.cost_source);
        let mut partitions = Vec::with_capacity(assignment.partitions.len());
        let mut cbit_cost_dff = 0.0;
        for p in &assignment.partitions {
            let width = p.input_count();
            if width == 0 {
                partitions.push(PartitionSummary {
                    cells: p.members.len(),
                    inputs: 0,
                    cbit_length: 0,
                });
                continue;
            }
            let t = cost_model
                .smallest_type_for(width as u32)
                .ok_or(MercedError::PartitionTooWide { inputs: width })?;
            cbit_cost_dff += t.area_dff;
            partitions.push(PartitionSummary {
                cells: p.members.len(),
                inputs: width,
                cbit_length: t.length,
            });
        }

        // Area comparison (Table 12).
        let realization = OnceLock::new();
        let with_retiming = match self.config.cost_policy {
            CostPolicy::PaperScc => cost::with_retiming_scc(&graph, &scc, &cuts),
            CostPolicy::Solver => {
                let real = realization
                    .get_or_init(|| solve_realization(&graph, &cuts, self.config.io_latency));
                AreaBreakdown::from_counts(real.covered.len(), real.excess.len())
            }
        };
        let without_retiming = cost::without_retiming(&graph, &cuts);
        let circuit_area = cost::circuit_area_units(circuit);

        // Test schedule (Fig. 1): each partition's generator CBIT is its
        // own index; it analyzes into the CBITs of the partitions its cut
        // nets feed (plus a dedicated sink CBIT if it drives primary
        // outputs).
        let n_parts = assignment.partitions.len();
        let cut_specs: Vec<CutSpec> = assignment
            .partitions
            .iter()
            .enumerate()
            .map(|(i, p)| {
                let mut analyzers: Vec<usize> = Vec::new();
                for &m in &p.members {
                    let net = graph.net(m);
                    for &s in net.sinks() {
                        let home = assignment.clustering.cluster_of(s).index();
                        if home != i && !analyzers.contains(&home) {
                            analyzers.push(home);
                        }
                    }
                    if graph.outputs().contains(&m) {
                        let sink_id = n_parts + i;
                        if !analyzers.contains(&sink_id) {
                            analyzers.push(sink_id);
                        }
                    }
                }
                CutSpec {
                    id: i,
                    input_width: p.input_count() as u32,
                    generator_cbits: vec![i],
                    analyzer_cbits: analyzers,
                }
            })
            .collect();
        let schedule = TestSchedule::build(&cut_specs);

        let cut_set: std::collections::HashSet<NetId> = cuts.iter().copied().collect();
        let cut_groups: Vec<Vec<NetId>> = assignment
            .partitions
            .iter()
            .map(|p| {
                p.input_nets
                    .iter()
                    .copied()
                    .filter(|n| cut_set.contains(n))
                    .collect()
            })
            .collect();

        tracer.add("cost.converted_cuts", with_retiming.converted_bits as u64);
        tracer.add("cost.mux_cuts", with_retiming.mux_bits as u64);
        tracer.add("cost.cut_nets_on_scc", cuts_on_scc.len() as u64);
        drop(cost_span);
        phases.push(PhaseMetrics {
            name: "cost_retime",
            wall_ns: phase_ns(phase_start),
            counters: vec![
                ("cost.converted_cuts", with_retiming.converted_bits as u64),
                ("cost.cut_nets_on_scc", cuts_on_scc.len() as u64),
                ("cost.mux_cuts", with_retiming.mux_bits as u64),
            ],
        });

        // STEP 5: power-constrained session schedule (ppet-sched). A pure
        // function of the partition summaries, the cost source, and the
        // budget — no randomness, so PPET_JOBS cannot perturb it.
        let phase_start = Instant::now();
        let power = {
            let _span = tracer.span("power_sched");
            let power = crate::power_sched::partition_schedule(
                &partitions,
                self.config.cost_source,
                self.config.power_budget_cdf,
            )?;
            tracer.add("sched.blocks", power.block_count() as u64);
            tracer.add("sched.steps", power.steps.len() as u64);
            tracer.add("sched.peak_cdf", power.peak_power_cdf());
            power
        };
        phases.push(PhaseMetrics {
            name: "power_sched",
            wall_ns: phase_ns(phase_start),
            counters: vec![
                ("sched.blocks", power.block_count() as u64),
                ("sched.budget_cdf", power.budget_cdf),
                ("sched.peak_cdf", power.peak_power_cdf()),
                ("sched.steps", power.steps.len() as u64),
            ],
        });
        drop(root_span);

        let report = PpetReport {
            circuit: CircuitStats::of(circuit, &AreaModel::paper()),
            cbit_length: self.config.cbit_length,
            beta: self.config.beta,
            seed: self.config.seed,
            jobs: self.config.jobs,
            config: self.config.clone(),
            dffs: circuit.num_flip_flops(),
            dffs_on_scc: scc.registers_on_cyclic(),
            nets_cut: cuts.len(),
            cut_nets_on_scc: cuts_on_scc.len(),
            forced_internal,
            flow_saturated,
            flow_shortfall_nodes,
            clusters_before_merge,
            partitions,
            cbit_cost_dff,
            area: AreaComparison {
                circuit_area,
                with_retiming,
                without_retiming,
            },
            schedule: ScheduleSummary {
                pipes: schedule.pipes().len(),
                total_cycles: schedule.total_cycles(),
                sequential_cycles: schedule.sequential_cycles(),
            },
            power,
            phases,
            elapsed: started.elapsed(),
        };
        Ok(Compilation {
            report,
            assignment,
            cut_groups,
            realization,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppet_netlist::data;

    fn compile_s27(lk: usize) -> PpetReport {
        Merced::new(MercedConfig::default().with_cbit_length(lk))
            .compile(&data::s27())
            .expect("s27 compiles")
    }

    #[test]
    fn s27_compiles_and_reports_consistently() {
        let r = compile_s27(4);
        assert_eq!(r.dffs, 3);
        assert_eq!(r.dffs_on_scc, 3);
        assert!(r.nets_cut >= r.cut_nets_on_scc);
        assert!(r.partitions.iter().all(|p| p.inputs <= 4));
        assert!(r.area.pct_with() <= r.area.pct_without());
        assert!(r.schedule.total_cycles <= r.schedule.sequential_cycles);
    }

    #[test]
    fn bigger_cbits_cut_fewer_nets() {
        let small = compile_s27(3);
        let big = compile_s27(8);
        assert!(big.nets_cut <= small.nets_cut);
    }

    #[test]
    fn deterministic_per_seed() {
        let a = compile_s27(4);
        let b = compile_s27(4);
        assert_eq!(a.nets_cut, b.nets_cut);
        assert_eq!(a.partitions, b.partitions);
        let c = Merced::new(MercedConfig::default().with_cbit_length(4).with_seed(7))
            .compile(&data::s27())
            .unwrap();
        // A different seed may (and usually does) change the cut set.
        let _ = c;
    }

    #[test]
    fn unbudgeted_compile_is_saturated_and_tree_budget_is_flagged() {
        let full = compile_s27(4);
        assert!(full.flow_saturated);
        assert_eq!(full.flow_shortfall_nodes, 0);

        let mut config = MercedConfig::default().with_cbit_length(4);
        config.flow.max_trees = Some(2);
        let starved = Merced::new(config).compile(&data::s27()).unwrap();
        assert!(!starved.flow_saturated);
        assert!(starved.flow_shortfall_nodes > 0);
        let m = starved.run_manifest();
        assert_eq!(m.result_value("flow.saturated"), Some("false"));
    }

    #[test]
    fn power_schedule_covers_every_partition_under_budget() {
        let r = compile_s27(4);
        let mut ids: Vec<usize> = r
            .power
            .steps
            .iter()
            .flat_map(|s| s.blocks.clone())
            .collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..r.partitions.len()).collect::<Vec<_>>());
        assert!(r.power.peak_power_cdf() <= r.power.budget_cdf);
        // An explicit generous budget collapses everything into one step.
        let wide = Merced::new(
            MercedConfig::default()
                .with_cbit_length(4)
                .with_power_budget_cdf(Some(1_000_000)),
        )
        .compile(&data::s27())
        .unwrap();
        assert_eq!(wide.power.steps.len(), 1);
        // An explicit infeasible budget fails the compile with the block.
        let err = Merced::new(
            MercedConfig::default()
                .with_cbit_length(4)
                .with_power_budget_cdf(Some(1)),
        )
        .compile(&data::s27())
        .unwrap_err();
        assert!(
            matches!(err, MercedError::PowerBudgetTooTight { .. }),
            "{err}"
        );
    }

    #[test]
    fn empty_circuit_rejected() {
        let e = Merced::new(MercedConfig::default())
            .compile(&Circuit::new("void"))
            .unwrap_err();
        assert_eq!(e, MercedError::EmptyCircuit);
    }

    #[test]
    fn invalid_config_rejected() {
        let e = Merced::new(MercedConfig::default().with_cbit_length(1))
            .compile(&data::s27())
            .unwrap_err();
        assert!(matches!(e, MercedError::Config { .. }));
    }

    #[test]
    fn solver_policy_runs() {
        let r = Merced::new(
            MercedConfig::default()
                .with_cbit_length(4)
                .with_cost_policy(CostPolicy::Solver),
        )
        .compile(&data::s27())
        .unwrap();
        // The exact solver can only do as well or better than the paper's
        // per-SCC aggregate on the mux count... in either direction the
        // totals must stay consistent with the bit counts.
        let b = &r.area.with_retiming;
        assert_eq!(
            b.deci_dff,
            9 * b.converted_bits as u64 + 23 * b.mux_bits as u64
        );
        assert_eq!(b.converted_bits + b.mux_bits, r.nets_cut);
    }

    #[test]
    fn cbit_cost_uses_table1() {
        let r = compile_s27(4);
        // Every partition with 1..=4 inputs costs 8.14 DFF.
        let nonzero = r.partitions.iter().filter(|p| p.inputs > 0).count();
        assert!((r.cbit_cost_dff - 8.14 * nonzero as f64).abs() < 1e-9);
    }

    #[test]
    fn synthetic_circuit_compiles() {
        use ppet_netlist::{SynthSpec, Synthesizer};
        let c = Synthesizer::new(
            SynthSpec::new("syn")
                .primary_inputs(10)
                .flip_flops(12)
                .dffs_on_scc(8)
                .gates(120)
                .inverters(30)
                .seed(3),
        )
        .build();
        let r = Merced::new(MercedConfig::default().with_cbit_length(8))
            .compile(&c)
            .unwrap();
        assert_eq!(r.dffs_on_scc, 8);
        assert!(r.partitions.iter().all(|p| p.inputs <= 8));
    }
}
