//! Manifest cross-checking: a recorded run manifest against a freshly
//! recompiled one.
//!
//! Counter values, configuration, and result claims are deterministic per
//! seed, so any divergence between the golden recording and a fresh
//! compile is a regression (or a tampered recording). Wall-clock fields
//! (`wall_ns`) and the worker-count echo (`jobs`) legitimately vary
//! between machines and are excluded, mirroring `scripts/ci.sh`.

use ppet_trace::RunManifest;

use crate::code::AuditCode;
use crate::report::AuditReport;

/// Compares `recorded` against `fresh`, reporting one
/// [`AuditCode::ManifestMismatch`] failure per differing field class.
#[must_use]
pub fn cross_check(recorded: &RunManifest, fresh: &RunManifest) -> AuditReport {
    let mut report = AuditReport::default();
    let mut bad = Vec::new();

    if recorded.schema != fresh.schema {
        report.fail(
            AuditCode::ManifestSchema,
            format!("schema {:?} vs fresh {:?}", recorded.schema, fresh.schema),
        );
    } else {
        report.ok(
            AuditCode::ManifestSchema,
            format!("schema {}", recorded.schema),
        );
    }

    if recorded.circuit != fresh.circuit {
        bad.push(format!(
            "circuit {:?} vs {:?}",
            recorded.circuit, fresh.circuit
        ));
    }
    if recorded.seed != fresh.seed {
        bad.push(format!("seed {} vs {}", recorded.seed, fresh.seed));
    }
    if recorded.engine != fresh.engine {
        bad.push(format!(
            "engine epoch {:?} vs {:?}",
            recorded.engine, fresh.engine
        ));
    }

    let varying = |key: &str| key == "jobs";
    let rec_cfg: Vec<_> = recorded
        .config
        .iter()
        .filter(|(k, _)| !varying(k))
        .collect();
    let new_cfg: Vec<_> = fresh.config.iter().filter(|(k, _)| !varying(k)).collect();
    if rec_cfg != new_cfg {
        bad.push("config entries differ".to_owned());
    }
    if recorded.result != fresh.result {
        let detail = recorded
            .result
            .iter()
            .zip(&fresh.result)
            .find(|(a, b)| a != b)
            .map_or_else(
                || "result key sets differ".to_owned(),
                |(a, b)| format!("result {}: recorded {:?}, fresh {:?}", a.0, a.1, b.1),
            );
        bad.push(detail);
    }

    if recorded.phases.len() != fresh.phases.len() {
        bad.push(format!(
            "{} phases vs {}",
            recorded.phases.len(),
            fresh.phases.len()
        ));
    } else {
        for (r, f) in recorded.phases.iter().zip(&fresh.phases) {
            if r.name != f.name {
                bad.push(format!("phase {:?} vs {:?}", r.name, f.name));
            } else if r.counters != f.counters {
                bad.push(format!("phase {} counters differ", r.name));
            }
        }
    }
    if recorded.totals != fresh.totals {
        bad.push("counter totals differ".to_owned());
    }

    if bad.is_empty() {
        report.ok(
            AuditCode::ManifestMismatch,
            format!(
                "recorded manifest reproduced: {} phases, {} result entries",
                recorded.phases.len(),
                recorded.result.len()
            ),
        );
    } else {
        bad.truncate(3);
        report.fail(AuditCode::ManifestMismatch, bad.join("; "));
    }
    report
}
