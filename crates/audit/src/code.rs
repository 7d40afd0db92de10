//! Named diagnostic codes — the stable vocabulary of audit failures.
//!
//! Every check the auditor runs reports under exactly one code, so a CI
//! failure names the violated invariant directly in the log ("which paper
//! property broke"), and the corruption tests can assert that perturbing a
//! specific field fires a specific code.

use std::fmt;

/// The audit diagnostic codes.
///
/// Each maps to one re-derived invariant; the kebab-case [`AuditCode::name`]
/// is the identifier printed in CI logs and embedded in manifests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[non_exhaustive]
pub enum AuditCode {
    /// Circuit statistics (DFF counts, estimated area) disagree with a
    /// recount from the netlist.
    CircuitStats,
    /// The partitions do not cover every cell exactly once.
    PartitionCoverage,
    /// A partition's re-derived input cone exceeds the constraint `l_k`
    /// (paper Eq. (5)).
    PartitionInputBound,
    /// A partition's recorded input width differs from the re-derived
    /// input cone.
    PartitionInputClaim,
    /// The recorded cut-net set differs from the cut set implied by the
    /// partition membership.
    PartitionCutSet,
    /// A cyclic SCC carries more cuts than its budget `β · f(λ)` allows
    /// (paper Eq. (6)).
    PartitionCutBudget,
    /// The "cut nets on SCC" count disagrees with a recount.
    PartitionCutsOnScc,
    /// The congestion profile that fed the partitioner never met its full
    /// visit quota (the `max_trees` budget ran out first). Reported as a
    /// *warning* — the configuration is still legal, but the distance
    /// function was built from fewer trees than Table 3 demands.
    FlowSaturation,
    /// The retiming witness is malformed (wrong length, unparsable).
    RetimeWitness,
    /// The retiming witness violates Corollary 3: some retimed edge weight
    /// is negative.
    RetimeLegality,
    /// The retiming witness does not place enough registers on the covered
    /// cut nets (an edge's retimed weight is below its cut demand).
    RetimeCoverage,
    /// A cyclic SCC claims more converted (retimed) cut bits than it has
    /// registers — impossible by Corollary 2's cycle invariance.
    RetimeSccSupply,
    /// A sampled cycle changed its register count under the witness
    /// retiming (Corollary 2 violated — the witness is inconsistent).
    RetimeCycleRegisters,
    /// A recorded CBIT length is not the smallest standard length covering
    /// the partition's inputs (Table 1 sizing).
    CbitLength,
    /// A CBIT feedback polynomial failed the independent primitivity
    /// proof (order of `x` must be `2ⁿ − 1`).
    CbitPolyPrimitive,
    /// A MISR built for a CBIT length reports the wrong register width, or
    /// misses its maximal period.
    CbitMisrWidth,
    /// The cascade wiring (generator/analyzer CBIT references of the test
    /// schedule) is inconsistent with the partition graph.
    CbitCascadeWiring,
    /// The total CBIT hardware cost `Σ p_k n_k` (Eq. (4)) disagrees with a
    /// recomputation from Table 1.
    CostCbitTotal,
    /// The with-retiming area breakdown (0.9/2.3 DFF mix) disagrees with
    /// the independent recount.
    CostWithRetiming,
    /// The without-retiming area breakdown disagrees with the independent
    /// recount.
    CostWithoutRetiming,
    /// A `deci_dff` total is not `9·converted + 23·mux`.
    CostDeciDff,
    /// Retiming appears to cost *more* area than not retiming — the
    /// paper's headline saving went negative.
    CostSaving,
    /// The recorded test schedule disagrees with a rebuilt Fig. 1
    /// schedule (pipes or cycle counts).
    ScheduleCycles,
    /// The power schedule does not test every partition block exactly
    /// once.
    SchedCoverage,
    /// A power-schedule step exceeds the recorded budget, or a step's
    /// recorded power/duration disagrees with a recount from the
    /// re-derived block rates.
    SchedPowerBudget,
    /// The recorded power schedule differs from an independent rebuild
    /// with the deterministic list scheduler (steps, total time, or peak
    /// power).
    SchedRebuild,
    /// The recorded manifest could not be interpreted (schema, missing
    /// fields, unknown circuit).
    ManifestSchema,
    /// A recorded manifest field differs from the freshly recomputed run.
    ManifestMismatch,
    /// A recorded manifest was computed by another engine epoch than the
    /// one recomputing it: its results may differ for that reason alone.
    EngineEpoch,
}

impl AuditCode {
    /// The stable kebab-case identifier used in logs and manifests.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::CircuitStats => "circuit-stats",
            Self::PartitionCoverage => "partition-coverage",
            Self::PartitionInputBound => "partition-input-bound",
            Self::PartitionInputClaim => "partition-input-claim",
            Self::PartitionCutSet => "partition-cut-set",
            Self::PartitionCutBudget => "partition-cut-budget",
            Self::PartitionCutsOnScc => "partition-cuts-on-scc",
            Self::FlowSaturation => "flow-saturation",
            Self::RetimeWitness => "retime-witness",
            Self::RetimeLegality => "retime-legality",
            Self::RetimeCoverage => "retime-coverage",
            Self::RetimeSccSupply => "retime-scc-supply",
            Self::RetimeCycleRegisters => "retime-cycle-registers",
            Self::CbitLength => "cbit-length",
            Self::CbitPolyPrimitive => "cbit-poly-primitive",
            Self::CbitMisrWidth => "cbit-misr-width",
            Self::CbitCascadeWiring => "cbit-cascade-wiring",
            Self::CostCbitTotal => "cost-cbit-total",
            Self::CostWithRetiming => "cost-with-retiming",
            Self::CostWithoutRetiming => "cost-without-retiming",
            Self::CostDeciDff => "cost-deci-dff",
            Self::CostSaving => "cost-saving",
            Self::ScheduleCycles => "schedule-cycles",
            Self::SchedCoverage => "sched-coverage",
            Self::SchedPowerBudget => "sched-power-budget",
            Self::SchedRebuild => "sched-rebuild",
            Self::ManifestSchema => "manifest-schema",
            Self::ManifestMismatch => "manifest-mismatch",
            Self::EngineEpoch => "engine-epoch",
        }
    }
}

impl fmt::Display for AuditCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_kebab_case_and_distinct() {
        let all = [
            AuditCode::CircuitStats,
            AuditCode::PartitionCoverage,
            AuditCode::PartitionInputBound,
            AuditCode::PartitionInputClaim,
            AuditCode::PartitionCutSet,
            AuditCode::PartitionCutBudget,
            AuditCode::PartitionCutsOnScc,
            AuditCode::FlowSaturation,
            AuditCode::RetimeWitness,
            AuditCode::RetimeLegality,
            AuditCode::RetimeCoverage,
            AuditCode::RetimeSccSupply,
            AuditCode::RetimeCycleRegisters,
            AuditCode::CbitLength,
            AuditCode::CbitPolyPrimitive,
            AuditCode::CbitMisrWidth,
            AuditCode::CbitCascadeWiring,
            AuditCode::CostCbitTotal,
            AuditCode::CostWithRetiming,
            AuditCode::CostWithoutRetiming,
            AuditCode::CostDeciDff,
            AuditCode::CostSaving,
            AuditCode::ScheduleCycles,
            AuditCode::SchedCoverage,
            AuditCode::SchedPowerBudget,
            AuditCode::SchedRebuild,
            AuditCode::ManifestSchema,
            AuditCode::ManifestMismatch,
            AuditCode::EngineEpoch,
        ];
        let mut names: Vec<&str> = all.iter().map(|c| c.name()).collect();
        for n in &names {
            assert!(n.chars().all(|c| c.is_ascii_lowercase() || c == '-'), "{n}");
        }
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len());
    }
}
