//! The Merced compiler as a [`ppet_serve::CompileBackend`].
//!
//! This is the glue that turns `ppet-serve`'s compiler-agnostic service
//! into `merced serve`: requests resolve through the same builtin table
//! and `.bench` parser as the CLI, per-request `config` entries overlay
//! the server's base [`MercedConfig`] via the `manifest_entries`
//! vocabulary, and the compile emits the exact `ppet-trace/v1` run
//! manifest the CLI's `--trace-json` would write — so a served result is
//! byte-identical to a CLI compile of the same inputs (modulo the
//! `wall_ns`/`jobs` manifest entries, which record the run, not the
//! result).

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use ppet_netlist::canonical::HashedCircuit;
use ppet_serve::{BackendError, CompileBackend, CompileRequest, NormalizedRequest};

use crate::builtin::resolve_builtin;
use crate::{Merced, MercedConfig};

/// Total cells the builtin memo holds. The eight Table-9 stand-ins up to
/// s1423 take 3,250 together and all seventeen 108,004; a builtin that
/// would take the memo past the budget is resolved on every request.
const BUILTIN_MEMO_CELLS: usize = 1 << 15;

/// [`CompileBackend`] implementation backed by [`Merced`].
///
/// A builtin name resolves to the same circuit every time, so the
/// backend resolves and hashes each builtin once and hands later
/// requests a clone of that [`HashedCircuit`]. The memo is shared by
/// clones of the backend and bounded by `BUILTIN_MEMO_CELLS` cells.
#[derive(Debug, Clone)]
pub struct MercedBackend {
    base: MercedConfig,
    builtins: Arc<Mutex<BuiltinMemo>>,
}

/// Resolved builtins by name, and the cells they hold together.
#[derive(Debug, Default)]
struct BuiltinMemo {
    circuits: HashMap<String, HashedCircuit>,
    cells: usize,
}

impl MercedBackend {
    /// A backend compiling over `base`: request `config` entries overlay
    /// it, the request `seed` (when present) replaces its seed, and its
    /// `jobs` always wins — worker counts are the server's resource
    /// decision and never change results.
    #[must_use]
    pub fn new(base: MercedConfig) -> Self {
        Self {
            base,
            builtins: Arc::default(),
        }
    }

    /// The builtin `name`, resolved and hashed on its first request and
    /// memoized while the cell budget allows.
    fn builtin(&self, name: &str) -> Option<HashedCircuit> {
        const NO_PANIC: &str = "nothing panics while holding the builtin memo";
        if let Some(hit) = self.builtins.lock().expect(NO_PANIC).circuits.get(name) {
            return Some(hit.clone());
        }
        let circuit = HashedCircuit::new(resolve_builtin(name)?);
        let mut memo = self.builtins.lock().expect(NO_PANIC);
        let cells = memo.cells + circuit.num_cells();
        if cells <= BUILTIN_MEMO_CELLS && !memo.circuits.contains_key(name) {
            memo.cells = cells;
            memo.circuits.insert(name.to_owned(), circuit.clone());
        }
        Some(circuit)
    }

    fn effective_config(
        &self,
        normalized: &NormalizedRequest,
    ) -> Result<MercedConfig, BackendError> {
        let mut config = MercedConfig::from_manifest_entries(&normalized.config_entries)
            .map_err(|e| BackendError::new("manifest", e))?;
        config.seed = normalized.seed;
        config.jobs = self.base.jobs;
        Ok(config)
    }
}

impl CompileBackend for MercedBackend {
    fn normalize(&self, request: &CompileRequest) -> Result<NormalizedRequest, BackendError> {
        let circuit = match (&request.builtin, &request.bench) {
            (Some(name), None) => self.builtin(name).ok_or_else(|| {
                BackendError::new("usage", format!("unknown builtin circuit `{name}`"))
            })?,
            (None, Some(source)) => {
                let name = request.name.as_deref().unwrap_or("request");
                ppet_netlist::bench_format::parse(name, source)
                    .map_err(|e| BackendError::new("parse", e.to_string()))?
                    .into()
            }
            _ => {
                return Err(BackendError::new(
                    "usage",
                    "request must name exactly one of builtin or bench",
                ));
            }
        };
        let mut config = self.base.clone();
        config
            .apply_manifest_entries(&request.config)
            .map_err(|e| BackendError::new("manifest", e))?;
        if let Some(seed) = request.seed {
            config.seed = seed;
        }
        config.jobs = self.base.jobs;
        if let Some(problem) = config.validate() {
            return Err(BackendError::new("usage", problem));
        }
        // The cache key must be a pure function of the *result*, so the
        // jobs entry (pure resource decision, bit-identical at any value)
        // is excluded from the normalized entries.
        let config_entries = config
            .manifest_entries()
            .into_iter()
            .filter(|(k, _)| k != "jobs")
            .collect();
        Ok(NormalizedRequest {
            circuit,
            config_entries,
            seed: config.seed,
        })
    }

    fn compile(&self, normalized: &NormalizedRequest) -> Result<String, BackendError> {
        self.compile_traced(normalized, &ppet_trace::Tracer::noop())
    }

    /// The traced compile path behind the service's request
    /// observability: pipeline phases land as spans on `tracer` (one
    /// span tree per physical compile, shared by coalesced requests)
    /// while the manifest stays bit-identical to the untraced call.
    fn compile_traced(
        &self,
        normalized: &NormalizedRequest,
        tracer: &ppet_trace::Tracer,
    ) -> Result<String, BackendError> {
        let config = self.effective_config(normalized)?;
        let compiled = Merced::new(config)
            .compile_detailed_traced(&normalized.circuit, tracer)
            .map_err(|e| BackendError::new("compile", e.to_string()))?;
        Ok(compiled.report.run_manifest().to_json())
    }

    /// Semantic integrity gate on the persistent store's read path: the
    /// stored body must parse as a `ppet-trace/v1` run manifest that this
    /// build's engine epoch computed, and whose totals equal the per-name
    /// sums of its own phase counters. The store's CRC layer catches
    /// flipped bits; this catches a manifest that decodes fine but no
    /// longer adds up, or that another engine epoch computed. A failure
    /// names the first failing audit check, `engine-epoch` before
    /// `manifest-mismatch`.
    fn verify_stored(&self, stored: &str) -> Result<(), BackendError> {
        let mut manifest = ppet_trace::RunManifest::from_json(stored).map_err(|e| {
            BackendError::new("audit", format!("stored body is not a manifest: {e}"))
        })?;
        let mut report = ppet_audit::AuditReport::default();
        if manifest.engine != Some(ppet_trace::ENGINE_EPOCH) {
            report.fail(
                ppet_audit::AuditCode::EngineEpoch,
                format!(
                    "recorded by engine epoch {}, recomputed by epoch {}: re-record the manifest",
                    manifest.engine.unwrap_or(0),
                    ppet_trace::ENGINE_EPOCH
                ),
            );
        }
        let recorded_totals = std::mem::take(&mut manifest.totals);
        manifest.compute_totals();
        if manifest.totals != recorded_totals {
            report.fail(
                ppet_audit::AuditCode::ManifestMismatch,
                "counter totals differ",
            );
        }
        match report.first_failure() {
            None => Ok(()),
            Some(check) => Err(BackendError::new(
                "audit",
                format!("stored manifest failed cross-check: {check:?}"),
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppet_serve::CacheKey;
    use ppet_trace::RunManifest;

    fn backend() -> MercedBackend {
        MercedBackend::new(MercedConfig::default().with_cbit_length(4))
    }

    #[test]
    fn normalizes_builtins_and_overlays_config() {
        let req = CompileRequest::builtin("s27")
            .with_config("beta", "7")
            .with_seed(42);
        let norm = backend().normalize(&req).unwrap();
        assert_eq!(norm.circuit.name(), "s27");
        assert_eq!(norm.seed, 42);
        let entry = |k: &str| {
            norm.config_entries
                .iter()
                .find(|(key, _)| key == k)
                .map(|(_, v)| v.as_str())
        };
        assert_eq!(entry("beta"), Some("7"));
        assert_eq!(entry("cbit_length"), Some("4"), "base config survives");
        assert_eq!(entry("jobs"), None, "jobs never reaches the cache key");
    }

    #[test]
    fn jobs_do_not_change_the_cache_key() {
        let req = CompileRequest::builtin("s27").with_config("jobs", "8");
        let with_jobs = backend().normalize(&req).unwrap();
        let without = backend()
            .normalize(&CompileRequest::builtin("s27"))
            .unwrap();
        assert_eq!(CacheKey::of(&with_jobs), CacheKey::of(&without));
    }

    #[test]
    fn the_builtin_memo_is_shared_by_clones_and_bounded_in_cells() {
        let backend = backend();
        let memoized = |name: &str| backend.builtins.lock().unwrap().circuits.contains_key(name);
        let key = |backend: &MercedBackend, name: &str| {
            let norm = backend.normalize(&CompileRequest::builtin(name)).unwrap();
            let derived = CacheKey::derive(&norm.circuit, &norm.config_entries, norm.seed);
            assert_eq!(CacheKey::of(&norm), derived, "{name}");
            derived
        };
        let first = key(&backend, "s38417");
        assert!(memoized("s38417"));
        assert_eq!(key(&backend.clone(), "s38417"), first, "clones share it");
        // 23,843 + 20,717 cells exceed the budget: the second is resolved
        // per request and still keys the same.
        let big = key(&backend, "s38584.1");
        assert!(!memoized("s38584.1"));
        assert_eq!(key(&backend, "s38584.1"), big);
        assert_eq!(backend.builtins.lock().unwrap().cells, 23_843);
    }

    #[test]
    fn rejects_unknown_builtins_and_bad_config() {
        let err = backend()
            .normalize(&CompileRequest::builtin("nonsense"))
            .unwrap_err();
        assert_eq!(err.kind, "usage");
        let err = backend()
            .normalize(&CompileRequest::builtin("s27").with_config("beta", "many"))
            .unwrap_err();
        assert_eq!(err.kind, "manifest");
        let err = backend()
            .normalize(&CompileRequest::builtin("s27").with_config("cbit_length", "99"))
            .unwrap_err();
        assert_eq!(err.kind, "usage");
    }

    #[test]
    fn compile_matches_the_direct_path_bit_for_bit() {
        let backend = backend();
        let req = CompileRequest::builtin("s27").with_seed(7);
        let norm = backend.normalize(&req).unwrap();
        let served = backend.compile(&norm).unwrap();

        let direct = Merced::new(MercedConfig::default().with_cbit_length(4).with_seed(7))
            .compile(&norm.circuit)
            .unwrap()
            .run_manifest()
            .to_json();

        // The manifest is a deterministic function of (circuit, config,
        // seed) except for the wall-clock entry.
        let strip = |s: &str| -> String {
            s.lines()
                .filter(|l| !l.contains("\"wall_ns\""))
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(strip(&served), strip(&direct));
        assert!(RunManifest::from_json(&served).is_ok());
    }

    /// `verify_stored` as it was before it stopped cloning, kept as the
    /// spec: an audit cross-check of the stored manifest against a clone
    /// of itself with the engine epoch set to this build's and the totals
    /// recomputed.
    fn verify_stored_by_cross_check(stored: &str) -> Result<(), BackendError> {
        let recorded = RunManifest::from_json(stored).map_err(|e| {
            BackendError::new("audit", format!("stored body is not a manifest: {e}"))
        })?;
        let mut recomputed = recorded.clone();
        recomputed.engine = Some(ppet_trace::ENGINE_EPOCH);
        recomputed.compute_totals();
        let report = ppet_audit::manifest::cross_check(&recorded, &recomputed);
        if report.pass() {
            Ok(())
        } else {
            let detail = report
                .first_failure()
                .map_or_else(|| "unknown mismatch".to_owned(), |c| format!("{c:?}"));
            Err(BackendError::new(
                "audit",
                format!("stored manifest failed cross-check: {detail}"),
            ))
        }
    }

    /// The golden corpus and damaged variants of each: the verdict, the
    /// error kind and the message all match the cross-check formulation.
    #[test]
    fn verify_stored_matches_the_cross_check_spec() {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../recorded/golden");
        let mut goldens: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|entry| entry.unwrap().path())
            .filter(|path| path.extension().is_some_and(|ext| ext == "json"))
            .collect();
        goldens.sort();
        assert!(goldens.len() >= 5, "{goldens:?}");

        let backend = backend();
        let check = |label: &str, body: &str, want_ok: bool| {
            let got = backend.verify_stored(body);
            assert_eq!(got, verify_stored_by_cross_check(body), "{label}");
            assert_eq!(got.is_ok(), want_ok, "{label}: {got:?}");
            if let Err(e) = got {
                assert_eq!(e.kind, "audit", "{label}");
            }
        };
        type Edit = fn(&mut RunManifest);
        let damaged: [(&str, Edit); 8] = [
            ("no engine", |m| m.engine = None),
            ("epoch 1", |m| m.engine = Some(1)),
            ("next epoch", |m| {
                m.engine = Some(ppet_trace::ENGINE_EPOCH + 1)
            }),
            ("total changed", |m| m.totals[0].1 += 1),
            ("total missing", |m| {
                m.totals.pop();
            }),
            ("extra total", |m| m.totals.push(("zz.extra".to_owned(), 1))),
            ("phase counter changed", |m| {
                let phase = m
                    .phases
                    .iter_mut()
                    .find(|p| !p.counters.is_empty())
                    .unwrap();
                phase.counters[0].1 += 1;
            }),
            ("epoch and total", |m| {
                m.engine = Some(1);
                m.totals[0].1 += 1;
            }),
        ];
        for path in goldens {
            let name = path.display().to_string();
            let text = std::fs::read_to_string(&path).unwrap();
            check(&name, &text, true);
            let golden = RunManifest::from_json(&text).unwrap();
            for (what, edit) in damaged {
                let mut manifest = golden.clone();
                edit(&mut manifest);
                check(&format!("{name}, {what}"), &manifest.to_json(), false);
            }
            let other_schema = text.replace(ppet_trace::SCHEMA, "ppet-trace/v0");
            check(&format!("{name}, other schema"), &other_schema, false);
        }
        for junk in [
            "",
            "{}",
            "[1, 2]",
            "not json",
            "{\"schema\": \"ppet-trace/v1\"}",
        ] {
            check(junk, junk, false);
        }
    }
}
