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
/// [`AuditCode::ManifestMismatch`] failure per differing field class, and
/// an [`AuditCode::EngineEpoch`] failure when the two engines differ.
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
        // Epoch 0 is every engine before manifests recorded theirs.
        report.fail(
            AuditCode::EngineEpoch,
            format!(
                "recorded by engine epoch {}, recomputed by epoch {}: re-record the manifest",
                recorded.engine.unwrap_or(0),
                fresh.engine.unwrap_or(0)
            ),
        );
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

#[cfg(test)]
mod tests {
    use super::*;

    fn manifest(engine: Option<u32>) -> RunManifest {
        let mut m = RunManifest::new("s27", 7);
        m.engine = engine;
        m.push_config("cbit_length", 4);
        m.push_result("nets_cut", 3);
        m
    }

    #[test]
    fn another_engine_epoch_has_a_code_of_its_own() {
        for recorded in [None, Some(1)] {
            let report = cross_check(&manifest(recorded), &manifest(Some(2)));
            assert!(!report.pass());
            assert_eq!(report.failures().len(), 1, "{report}");
            assert!(report.failed(AuditCode::EngineEpoch));
            assert!(!report.failed(AuditCode::ManifestMismatch));
            let detail = &report.first_failure().unwrap().detail;
            let old = recorded.unwrap_or(0);
            assert!(
                detail.contains(&format!("engine epoch {old},")) && detail.contains("epoch 2"),
                "{detail}"
            );
            assert!(detail.contains("re-record"), "{detail}");
        }
        assert!(cross_check(&manifest(Some(2)), &manifest(Some(2))).pass());
    }
}
