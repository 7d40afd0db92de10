//! Bridging compiled results into the independent `ppet-audit` checker.
//!
//! The auditor ([`ppet_audit::audit`]) deliberately knows nothing about
//! this crate — it re-derives every paper invariant from the original
//! netlist, the partition membership, and the cut set. This module does
//! the one-way translation: a [`Compilation`] plus the circuit it came
//! from becomes an [`AuditSubject`] whose [`Claims`] are the report's
//! numbers, and an [`AuditReport`] becomes the `audit` section of a JSON
//! run manifest.
//!
//! # Examples
//!
//! ```
//! use ppet_core::{Merced, MercedConfig};
//! use ppet_netlist::data;
//!
//! # fn main() -> Result<(), ppet_core::MercedError> {
//! let circuit = data::s27();
//! let compilation = Merced::new(MercedConfig::default().with_cbit_length(4))
//!     .compile_detailed(&circuit)?;
//! let audit = compilation.audit(&circuit);
//! assert!(audit.pass(), "{audit}");
//! # Ok(())
//! # }
//! ```

use ppet_audit::{
    AuditReport, AuditSubject, ClaimedBreakdown, ClaimedPartition, ClaimedPowerStep, Claims,
    RetimingPolicy,
};
use ppet_netlist::Circuit;
use ppet_trace::RunManifest;

use crate::config::CostPolicy;
use crate::cost::AreaBreakdown;
use crate::merced::Compilation;
use crate::report::PpetReport;

fn claimed(b: &AreaBreakdown) -> ClaimedBreakdown {
    ClaimedBreakdown {
        converted_bits: b.converted_bits,
        mux_bits: b.mux_bits,
        deci_dff: b.deci_dff,
    }
}

/// The report's numbers, restated as claims for the auditor to re-derive.
fn claims_of(report: &PpetReport) -> Claims {
    Claims {
        flow_saturated: report.flow_saturated,
        dffs: report.dffs,
        dffs_on_scc: report.dffs_on_scc,
        nets_cut: report.nets_cut,
        cut_nets_on_scc: report.cut_nets_on_scc,
        partitions: report
            .partitions
            .iter()
            .map(|p| ClaimedPartition {
                cells: p.cells,
                inputs: p.inputs,
                cbit_length: p.cbit_length,
            })
            .collect(),
        cbit_cost_dff: report.cbit_cost_dff,
        circuit_area: report.area.circuit_area,
        with_retiming: claimed(&report.area.with_retiming),
        without_retiming: claimed(&report.area.without_retiming),
        schedule_pipes: report.schedule.pipes,
        schedule_total_cycles: report.schedule.total_cycles,
        schedule_sequential_cycles: report.schedule.sequential_cycles,
        power_budget_cdf: report.power.budget_cdf,
        power_steps: report
            .power
            .steps
            .iter()
            .map(|s| ClaimedPowerStep {
                blocks: s.blocks.clone(),
                cycles: s.cycles,
                power_cdf: s.power_cdf,
            })
            .collect(),
    }
}

impl Compilation {
    /// Assembles the audit subject for this compilation: `circuit` must be
    /// the same netlist the compile ran on. Solves the cut realization if
    /// the compile has not yet (see [`Compilation::realization`]).
    #[must_use]
    pub fn audit_subject<'a>(&'a self, circuit: &'a Circuit) -> AuditSubject<'a> {
        let config = &self.report.config;
        AuditSubject {
            circuit,
            cbit_length: config.cbit_length,
            beta: config.beta,
            policy: match config.cost_policy {
                CostPolicy::PaperScc => RetimingPolicy::PaperScc,
                CostPolicy::Solver => RetimingPolicy::Solver(config.io_latency),
            },
            cost_source: config.cost_source,
            partitions: &self.assignment.partitions,
            cut_nets: &self.assignment.cut_nets,
            realization: self.realization(circuit),
            claims: claims_of(&self.report),
        }
    }

    /// Runs the full independent audit over this compilation.
    #[must_use]
    pub fn audit(&self, circuit: &Circuit) -> AuditReport {
        ppet_audit::audit(&self.audit_subject(circuit))
    }
}

/// Embeds an audit verdict as the `audit` section of a run manifest: the
/// overall verdict, one entry per [`ppet_audit::AuditCode`], and the
/// retiming lag witness when one was produced.
pub fn attach_audit(manifest: &mut RunManifest, audit: &AuditReport) {
    for (key, value) in audit.manifest_entries() {
        manifest.push_audit(key, value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MercedConfig;
    use crate::merced::Merced;
    use ppet_audit::AuditCode;
    use ppet_netlist::data;

    fn compiled(lk: usize) -> (Circuit, Compilation) {
        let circuit = data::s27();
        let compilation = Merced::new(MercedConfig::default().with_cbit_length(lk))
            .compile_detailed(&circuit)
            .expect("s27 compiles");
        (circuit, compilation)
    }

    #[test]
    fn s27_compilation_passes_the_audit() {
        let (circuit, compilation) = compiled(4);
        let audit = compilation.audit(&circuit);
        assert!(audit.pass(), "{audit}");
        assert!(audit.witness.is_some(), "retiming witness recorded");
    }

    #[test]
    fn solver_policy_passes_the_audit() {
        let circuit = data::s27();
        let compilation = Merced::new(
            MercedConfig::default()
                .with_cbit_length(4)
                .with_cost_policy(CostPolicy::Solver),
        )
        .compile_detailed(&circuit)
        .expect("compiles");
        let audit = compilation.audit(&circuit);
        assert!(audit.pass(), "{audit}");
    }

    #[test]
    fn under_saturated_profile_warns_but_still_passes() {
        // Regression: a max_trees-starved compile used to feed the
        // partitioner with no signal anywhere; now the audit names it.
        let circuit = data::s27();
        let mut config = MercedConfig::default().with_cbit_length(4);
        config.flow.max_trees = Some(2);
        let compilation = Merced::new(config)
            .compile_detailed(&circuit)
            .expect("compiles");
        assert!(!compilation.report.flow_saturated);
        let audit = compilation.audit(&circuit);
        assert!(audit.pass(), "{audit}");
        assert!(audit.warned(AuditCode::FlowSaturation), "{audit}");
        let mut manifest = compilation.report.run_manifest();
        attach_audit(&mut manifest, &audit);
        let warn = manifest.audit_value("check.flow-saturation").unwrap();
        assert!(warn.starts_with("WARN:"), "{warn}");

        // And a fully saturated compile records a plain pass.
        let (circuit, full) = compiled(4);
        let audit = full.audit(&circuit);
        assert!(!audit.warned(AuditCode::FlowSaturation));
    }

    #[test]
    fn corrupted_claim_is_caught_with_a_named_code() {
        let (circuit, compilation) = compiled(4);
        let mut subject = compilation.audit_subject(&circuit);
        subject.claims.nets_cut += 1;
        let audit = ppet_audit::audit(&subject);
        assert!(!audit.pass());
        assert!(audit.failed(AuditCode::PartitionCutSet), "{audit}");
    }

    #[test]
    fn corrupted_power_schedule_is_caught() {
        let (circuit, compilation) = compiled(4);

        // Dropping a block from a step breaks coverage.
        let mut subject = compilation.audit_subject(&circuit);
        subject.claims.power_steps[0].blocks.remove(0);
        let audit = ppet_audit::audit(&subject);
        assert!(audit.failed(AuditCode::SchedCoverage), "{audit}");

        // An overstated step power breaks the rate recount.
        let mut subject = compilation.audit_subject(&circuit);
        subject.claims.power_steps[0].power_cdf += 1;
        let audit = ppet_audit::audit(&subject);
        assert!(audit.failed(AuditCode::SchedPowerBudget), "{audit}");

        // A repacked schedule (steps in the wrong order) fails the
        // deterministic rebuild even if coverage and budget still hold.
        let mut subject = compilation.audit_subject(&circuit);
        if subject.claims.power_steps.len() > 1 {
            subject.claims.power_steps.reverse();
            let audit = ppet_audit::audit(&subject);
            assert!(audit.failed(AuditCode::SchedRebuild), "{audit}");
        }
    }

    #[test]
    fn audit_section_embeds_into_the_manifest() {
        let (circuit, compilation) = compiled(4);
        let audit = compilation.audit(&circuit);
        let mut manifest = compilation.report.run_manifest();
        attach_audit(&mut manifest, &audit);
        assert_eq!(manifest.audit_value("pass"), Some("true"));
        assert!(manifest.audit_value("retime.lags").is_some());
        assert_eq!(
            manifest.audit_value("check.partition-input-bound"),
            Some("pass")
        );
    }
}
