//! Independent cost accounting: circuit statistics, Eq. (4) CBIT totals,
//! and the Table 12 with/without-retiming breakdowns.

use ppet_cbit::cost::{synthesized_area_dff, CostSource};
use ppet_netlist::AreaModel;

use crate::code::AuditCode;
use crate::ctx::Ctx;
use crate::report::AuditReport;
use crate::subject::{ClaimedBreakdown, RetimingPolicy};

/// The published Table 1 `(l_k, p_k)` pairs — the auditor's own copy.
const PAPER_TABLE1: [(u32, f64); 6] = [
    (4, 8.14),
    (8, 16.68),
    (12, 24.48),
    (16, 32.21),
    (24, 47.66),
    (32, 63.12),
];

/// Converted-FF / multiplexed bit prices in tenths of a DFF (paper Fig. 3:
/// 0.9 and 2.3 DFF).
const CONVERTED_DECI_DFF: u64 = 9;
const MUX_DECI_DFF: u64 = 23;

pub(crate) fn check(ctx: &Ctx<'_>, report: &mut AuditReport) {
    let subject = ctx.subject;
    let claims = &subject.claims;

    // Circuit statistics: register counts and the paper-model area.
    let dffs = ctx.graph.num_registers();
    let dffs_on_scc = ctx.scc.registers_on_cyclic();
    let area = AreaModel::paper().circuit_area(subject.circuit);
    if claims.dffs == dffs && claims.dffs_on_scc == dffs_on_scc && claims.circuit_area == area {
        report.ok(
            AuditCode::CircuitStats,
            format!("{dffs} DFFs ({dffs_on_scc} on SCC), area {area}"),
        );
    } else {
        report.fail(
            AuditCode::CircuitStats,
            format!(
                "claimed {}/{} DFFs (total/SCC) area {}, recount {dffs}/{dffs_on_scc} area {area}",
                claims.dffs, claims.dffs_on_scc, claims.circuit_area
            ),
        );
    }

    // Eq. (4): Σ p_k n_k over the re-derived partition widths.
    let mut total = 0.0f64;
    let mut oversized = false;
    for inputs in &ctx.derived_inputs {
        let width = inputs.len() as u32;
        if width == 0 {
            continue;
        }
        match cbit_area_dff(width, subject.cost_source) {
            Some(p) => total += p,
            None => oversized = true,
        }
    }
    if oversized {
        report.fail(
            AuditCode::CostCbitTotal,
            "a partition exceeds the largest standard CBIT".to_owned(),
        );
    } else if (claims.cbit_cost_dff - total).abs() < 1e-6 {
        report.ok(
            AuditCode::CostCbitTotal,
            format!("Sum p_k n_k = {total:.2} DFF re-derived"),
        );
    } else {
        report.fail(
            AuditCode::CostCbitTotal,
            format!(
                "claimed {:.4} DFF, recomputation gives {total:.4}",
                claims.cbit_cost_dff
            ),
        );
    }

    // Table 12 breakdowns over the recorded cut set.
    let cuts = &ctx.cuts;

    // Without retiming: only register-driven cuts convert in place.
    let converted_wo = cuts.iter().filter(|&&c| ctx.graph.is_register(c)).count();
    let mux_wo = cuts.len() - converted_wo;
    breakdown_check(
        report,
        AuditCode::CostWithoutRetiming,
        "without retiming",
        &claims.without_retiming,
        converted_wo,
        mux_wo,
    );

    // With retiming, under the same policy the compiler used; the solver's
    // mix is the realization's, whose legality `retime` checks.
    let (converted_w, mux_w) = match subject.policy {
        RetimingPolicy::PaperScc => ctx.paper_split(),
        RetimingPolicy::Solver(_) => (
            subject.realization.covered.len(),
            subject.realization.excess.len(),
        ),
    };
    breakdown_check(
        report,
        AuditCode::CostWithRetiming,
        "with retiming",
        &claims.with_retiming,
        converted_w,
        mux_w,
    );

    // Arithmetic identity of both claimed totals.
    let mut deci_bad = Vec::new();
    for (label, b) in [
        ("with", &claims.with_retiming),
        ("without", &claims.without_retiming),
    ] {
        let want = CONVERTED_DECI_DFF * b.converted_bits as u64 + MUX_DECI_DFF * b.mux_bits as u64;
        if b.deci_dff != want {
            deci_bad.push(format!(
                "{label}: {} deci-DFF, 9*{} + 23*{} = {want}",
                b.deci_dff, b.converted_bits, b.mux_bits
            ));
        }
    }
    if deci_bad.is_empty() {
        report.ok(
            AuditCode::CostDeciDff,
            "both totals equal 9*converted + 23*mux".to_owned(),
        );
    } else {
        report.fail(AuditCode::CostDeciDff, deci_bad.join("; "));
    }

    // The headline saving: under the paper's per-SCC rule retiming can
    // never cost more (each converted-without cut also converts with).
    match subject.policy {
        RetimingPolicy::PaperScc => {
            if claims.with_retiming.deci_dff <= claims.without_retiming.deci_dff {
                report.ok(
                    AuditCode::CostSaving,
                    format!(
                        "retiming saves {} deci-DFF",
                        claims.without_retiming.deci_dff - claims.with_retiming.deci_dff
                    ),
                );
            } else {
                report.fail(
                    AuditCode::CostSaving,
                    format!(
                        "retiming claims {} deci-DFF vs {} without — negative saving",
                        claims.with_retiming.deci_dff, claims.without_retiming.deci_dff
                    ),
                );
            }
        }
        RetimingPolicy::Solver(_) => {
            report.ok(
                AuditCode::CostSaving,
                "solver policy: saving not an invariant, totals checked above".to_owned(),
            );
        }
    }
}

/// The audited area of one standard CBIT sized for `width` inputs.
fn cbit_area_dff(width: u32, source: CostSource) -> Option<f64> {
    match source {
        CostSource::PaperTable => PAPER_TABLE1
            .iter()
            .find(|&&(l, _)| l >= width)
            .map(|&(_, p)| p),
        CostSource::Synthesized => PAPER_TABLE1
            .iter()
            .map(|&(l, _)| l)
            .find(|&l| l >= width)
            .map(synthesized_area_dff),
    }
}

fn breakdown_check(
    report: &mut AuditReport,
    code: AuditCode,
    label: &str,
    claimed: &ClaimedBreakdown,
    converted: usize,
    mux: usize,
) {
    if claimed.converted_bits == converted && claimed.mux_bits == mux {
        report.ok(
            code,
            format!("{label}: {converted} converted + {mux} mux bits"),
        );
    } else {
        report.fail(
            code,
            format!(
                "{label}: claimed {} converted + {} mux, recount {converted} + {mux}",
                claimed.converted_bits, claimed.mux_bits
            ),
        );
    }
}
