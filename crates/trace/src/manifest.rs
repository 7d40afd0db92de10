//! The self-describing JSON run manifest: one document that pins down a
//! Merced run — circuit, seed, configuration, per-phase wall time and
//! counters, and run totals — so results are attributable and diffable.

use std::fmt;

use crate::json::{self, Value};

/// Manifest schema tag; bump on breaking layout changes.
pub const SCHEMA: &str = "ppet-trace/v1";

/// The epoch of the compile engine this build runs. Bump it in the same
/// change as anything that alters a compile's results (a manifest line
/// other than `wall_ns`), so stored answers of an older engine stop being
/// served as current: the service's cache key frames it, and a stored
/// manifest that records another [`RunManifest::engine`] fails
/// verification and is recompiled.
///
/// Epoch 0 is every engine before epochs were recorded (manifests with no
/// `engine` field). Epoch 1 picks saturation sources in permutation
/// rounds. Epoch 2 settles each saturation tree one strongly connected
/// component at a time, in topological order, which moves a tree's
/// parent on some exact distance ties.
pub const ENGINE_EPOCH: u32 = 2;

/// One pipeline phase in a [`RunManifest`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseManifest {
    /// Phase name (the span name, e.g. `saturate_network`).
    pub name: String,
    /// Wall-clock nanoseconds spent in the phase.
    pub wall_ns: u64,
    /// Counter values attributed to the phase, sorted by name.
    pub counters: Vec<(String, u64)>,
}

/// A machine-readable record of one compiler run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunManifest {
    /// Schema tag ([`SCHEMA`]).
    pub schema: String,
    /// Circuit name the run compiled.
    pub circuit: String,
    /// PRNG seed the run used.
    pub seed: u64,
    /// [`ENGINE_EPOCH`] of the engine that computed the results; `None`
    /// for manifests that record no compile, and for those written before
    /// epochs existed. Omitted from the JSON when `None`.
    pub engine: Option<u32>,
    /// Configuration key/value pairs, in insertion order.
    pub config: Vec<(String, String)>,
    /// Deterministic result key/value pairs (cut counts, partition shapes,
    /// cost fields), in insertion order. Empty for runs that record only
    /// phase metrics; omitted from the JSON when empty, so pre-existing
    /// manifests keep parsing and serializing byte-identically.
    pub result: Vec<(String, String)>,
    /// The pipeline phases in execution order.
    pub phases: Vec<PhaseManifest>,
    /// Counter totals summed across phases, sorted by name.
    pub totals: Vec<(String, u64)>,
    /// Independent-audit key/value pairs (check verdicts plus the retiming
    /// lag witness), in insertion order. Empty unless an audit ran;
    /// omitted from the JSON when empty.
    pub audit: Vec<(String, String)>,
}

impl RunManifest {
    /// An empty manifest for `circuit` and `seed`.
    #[must_use]
    pub fn new(circuit: impl Into<String>, seed: u64) -> Self {
        RunManifest {
            schema: SCHEMA.to_owned(),
            circuit: circuit.into(),
            seed,
            engine: None,
            config: Vec::new(),
            result: Vec::new(),
            phases: Vec::new(),
            totals: Vec::new(),
            audit: Vec::new(),
        }
    }

    /// Appends a configuration entry (order is preserved).
    pub fn push_config(&mut self, key: impl Into<String>, value: impl fmt::Display) {
        self.config.push((key.into(), value.to_string()));
    }

    /// Appends a deterministic result entry (order is preserved).
    pub fn push_result(&mut self, key: impl Into<String>, value: impl fmt::Display) {
        self.result.push((key.into(), value.to_string()));
    }

    /// Appends an audit entry (order is preserved).
    pub fn push_audit(&mut self, key: impl Into<String>, value: impl fmt::Display) {
        self.audit.push((key.into(), value.to_string()));
    }

    /// Looks up a result entry by key.
    #[must_use]
    pub fn result_value(&self, key: &str) -> Option<&str> {
        self.result
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Looks up an audit entry by key.
    #[must_use]
    pub fn audit_value(&self, key: &str) -> Option<&str> {
        self.audit
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Appends a phase. `counters` is sorted by name for stable output.
    pub fn push_phase(
        &mut self,
        name: impl Into<String>,
        wall_ns: u64,
        mut counters: Vec<(String, u64)>,
    ) {
        counters.sort();
        self.phases.push(PhaseManifest {
            name: name.into(),
            wall_ns,
            counters,
        });
    }

    /// Recomputes [`RunManifest::totals`] as the per-name sum of all
    /// phase counters.
    pub fn compute_totals(&mut self) {
        let mut totals = std::collections::BTreeMap::<&str, u64>::new();
        for phase in &self.phases {
            for (name, value) in &phase.counters {
                *totals.entry(name).or_insert(0) += value;
            }
        }
        self.totals = totals
            .into_iter()
            .map(|(name, value)| (name.to_owned(), value))
            .collect();
    }

    /// Serializes the manifest as pretty-printed JSON (2-space indent,
    /// stable field order — byte-identical for identical runs).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(1024);
        out.push_str("{\n");
        field(&mut out, 1, "schema", &json::escaped(&self.schema), true);
        field(&mut out, 1, "circuit", &json::escaped(&self.circuit), true);
        field(&mut out, 1, "seed", &self.seed.to_string(), true);
        if let Some(engine) = self.engine {
            field(&mut out, 1, "engine", &engine.to_string(), true);
        }

        out.push_str("  \"config\": {");
        for (i, (key, value)) in self.config.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    ");
            out.push_str(&json::escaped(key));
            out.push_str(": ");
            out.push_str(&json::escaped(value));
        }
        if !self.config.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("},\n");

        if !self.result.is_empty() {
            out.push_str("  \"result\": {");
            write_string_entries(&mut out, &self.result);
            out.push_str("},\n");
        }

        out.push_str("  \"phases\": [");
        for (i, phase) in self.phases.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    {\n");
            field(&mut out, 3, "name", &json::escaped(&phase.name), true);
            field(&mut out, 3, "wall_ns", &phase.wall_ns.to_string(), true);
            out.push_str("      \"counters\": {");
            write_counters(&mut out, 4, &phase.counters);
            out.push_str("}\n    }");
        }
        if !self.phases.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("],\n");

        out.push_str("  \"totals\": {");
        write_counters(&mut out, 2, &self.totals);
        out.push('}');
        if !self.audit.is_empty() {
            out.push_str(",\n  \"audit\": {");
            write_string_entries(&mut out, &self.audit);
            out.push('}');
        }
        out.push_str("\n}\n");
        out
    }

    /// Parses a manifest back from [`RunManifest::to_json`] output (or
    /// any JSON document with the same shape). Checks the schema tag.
    /// The strings of the parsed document move into the manifest.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let mut doc = match json::parse(text).map_err(|e| e.to_string())? {
            Value::Obj(entries) => entries,
            _ => Vec::new(),
        };
        let schema = take_str(&mut doc, "schema").ok_or("missing `schema`")?;
        if schema != SCHEMA {
            return Err(format!("unsupported schema `{schema}` (want `{SCHEMA}`)"));
        }
        let circuit = take_str(&mut doc, "circuit").ok_or("missing `circuit`")?;
        let seed = take(&mut doc, "seed")
            .and_then(|v| v.as_u64())
            .ok_or("missing `seed`")?;
        let engine = take(&mut doc, "engine")
            .map(|v| {
                v.as_u64()
                    .and_then(|n| u32::try_from(n).ok())
                    .ok_or("`engine` is not a u32")
            })
            .transpose()?;
        let config = string_entries(
            take_obj(&mut doc, "config").ok_or("missing `config`")?,
            "config",
        )?;
        let result = parse_string_section(&mut doc, "result")?;
        let audit = parse_string_section(&mut doc, "audit")?;
        let phases = match take(&mut doc, "phases") {
            Some(Value::Arr(phases)) => phases,
            _ => return Err("missing `phases`".to_owned()),
        }
        .into_iter()
        .map(parse_phase)
        .collect::<Result<_, _>>()?;
        let totals = counter_entries(
            take_obj(&mut doc, "totals").ok_or("missing `totals`")?,
            "total",
        )?;
        Ok(RunManifest {
            schema,
            circuit,
            seed,
            engine,
            config,
            result,
            phases,
            totals,
            audit,
        })
    }

    /// The counter value `name` summed across all phases, if recorded.
    #[must_use]
    pub fn total(&self, name: &str) -> Option<u64> {
        self.totals.iter().find(|(k, _)| k == name).map(|(_, v)| *v)
    }
}

/// Moves the first value under `key` out of an object's entries, leaving
/// `null` in its place.
fn take(entries: &mut [(String, Value)], key: &str) -> Option<Value> {
    entries
        .iter_mut()
        .find(|(k, _)| k == key)
        .map(|(_, v)| std::mem::replace(v, Value::Null))
}

/// [`take`], if the value is a string.
fn take_str(entries: &mut [(String, Value)], key: &str) -> Option<String> {
    match take(entries, key)? {
        Value::Str(s) => Some(s),
        _ => None,
    }
}

/// [`take`], if the value is an object.
fn take_obj(entries: &mut [(String, Value)], key: &str) -> Option<Vec<(String, Value)>> {
    match take(entries, key)? {
        Value::Obj(obj) => Some(obj),
        _ => None,
    }
}

/// An object's entries as key/string pairs; a non-string value fails
/// naming `what` and its key.
fn string_entries(
    entries: Vec<(String, Value)>,
    what: &str,
) -> Result<Vec<(String, String)>, String> {
    entries
        .into_iter()
        .map(|(k, v)| match v {
            Value::Str(s) => Ok((k, s)),
            _ => Err(format!("{what} `{k}` is not a string")),
        })
        .collect()
}

/// An object's entries as key/count pairs; a value that is not a u64
/// fails naming `what` and its key.
fn counter_entries(
    entries: Vec<(String, Value)>,
    what: &str,
) -> Result<Vec<(String, u64)>, String> {
    entries
        .into_iter()
        .map(|(k, v)| match v {
            Value::Int(n) => Ok((k, n)),
            _ => Err(format!("{what} `{k}` is not a u64")),
        })
        .collect()
}

/// Parses an optional `{"key": "value", ...}` section; a missing section
/// is an empty list.
fn parse_string_section(
    doc: &mut [(String, Value)],
    name: &str,
) -> Result<Vec<(String, String)>, String> {
    match take(doc, name) {
        None => Ok(Vec::new()),
        Some(Value::Obj(section)) => string_entries(section, name),
        Some(_) => Err(format!("`{name}` is not an object")),
    }
}

fn field(out: &mut String, depth: usize, key: &str, rendered: &str, comma: bool) {
    for _ in 0..depth {
        out.push_str("  ");
    }
    out.push_str(&json::escaped(key));
    out.push_str(": ");
    out.push_str(rendered);
    if comma {
        out.push(',');
    }
    out.push('\n');
}

fn write_string_entries(out: &mut String, entries: &[(String, String)]) {
    for (i, (key, value)) in entries.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n    ");
        out.push_str(&json::escaped(key));
        out.push_str(": ");
        out.push_str(&json::escaped(value));
    }
    if !entries.is_empty() {
        out.push_str("\n  ");
    }
}

fn write_counters(out: &mut String, depth: usize, counters: &[(String, u64)]) {
    for (i, (name, value)) in counters.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('\n');
        for _ in 0..depth {
            out.push_str("  ");
        }
        out.push_str(&json::escaped(name));
        out.push_str(": ");
        out.push_str(&value.to_string());
    }
    if !counters.is_empty() {
        out.push('\n');
        for _ in 0..depth.saturating_sub(1) {
            out.push_str("  ");
        }
    }
}

fn parse_phase(value: Value) -> Result<PhaseManifest, String> {
    let mut phase = match value {
        Value::Obj(entries) => entries,
        _ => Vec::new(),
    };
    let name = take_str(&mut phase, "name").ok_or("phase missing `name`")?;
    let wall_ns = take(&mut phase, "wall_ns")
        .and_then(|v| v.as_u64())
        .ok_or("phase missing `wall_ns`")?;
    let counters = counter_entries(
        take_obj(&mut phase, "counters").ok_or("phase missing `counters`")?,
        "counter",
    )?;
    Ok(PhaseManifest {
        name,
        wall_ns,
        counters,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunManifest {
        let mut m = RunManifest::new("s27", 0xdead_beef_dead_beef);
        m.push_config("cbit_length", 4);
        m.push_config("beta", 2.0);
        m.push_phase(
            "saturate_network",
            1_234_567,
            vec![
                ("flow.trees_built".to_owned(), 42),
                ("flow.heap_pops".to_owned(), 999),
            ],
        );
        m.push_phase(
            "make_group",
            89_000,
            vec![("partition.nets_cut".to_owned(), 7)],
        );
        m.compute_totals();
        m
    }

    #[test]
    fn json_round_trips_exactly() {
        let m = sample();
        let text = m.to_json();
        let back = RunManifest::from_json(&text).expect("parses");
        assert_eq!(back, m);
        // And serialization is stable.
        assert_eq!(back.to_json(), text);
    }

    #[test]
    fn phase_counters_are_sorted_and_totalled() {
        let m = sample();
        assert_eq!(
            m.phases[0].counters,
            vec![
                ("flow.heap_pops".to_owned(), 999),
                ("flow.trees_built".to_owned(), 42)
            ]
        );
        assert_eq!(m.total("flow.heap_pops"), Some(999));
        assert_eq!(m.total("partition.nets_cut"), Some(7));
        assert_eq!(m.total("missing"), None);
    }

    #[test]
    fn large_seeds_survive() {
        let m = sample();
        let back = RunManifest::from_json(&m.to_json()).unwrap();
        assert_eq!(back.seed, 0xdead_beef_dead_beef);
    }

    #[test]
    fn schema_mismatch_is_rejected() {
        let text = sample().to_json().replace(SCHEMA, "other/v9");
        assert!(RunManifest::from_json(&text).is_err());
    }

    #[test]
    fn engine_epoch_round_trips_and_is_optional() {
        let mut m = sample();
        assert!(!m.to_json().contains("\"engine\""));
        m.engine = Some(ENGINE_EPOCH);
        let text = m.to_json();
        assert!(text.contains(&format!("\"engine\": {ENGINE_EPOCH},")));
        assert_eq!(RunManifest::from_json(&text).unwrap(), m);
        let bad = text.replace(&format!("\"engine\": {ENGINE_EPOCH}"), "\"engine\": -1");
        assert!(RunManifest::from_json(&bad).is_err());
    }

    #[test]
    fn empty_sections_serialize_cleanly() {
        let m = RunManifest::new("c", 1);
        let back = RunManifest::from_json(&m.to_json()).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn result_and_audit_sections_round_trip() {
        let mut m = sample();
        m.push_result("nets_cut", 7);
        m.push_result("area.with.deci_dff", 45);
        m.push_audit("pass", true);
        m.push_audit("retime.lags", "0:1,3:-2");
        let text = m.to_json();
        assert!(text.contains("\"result\""));
        assert!(text.contains("\"audit\""));
        let back = RunManifest::from_json(&text).expect("parses");
        assert_eq!(back, m);
        assert_eq!(back.to_json(), text, "serialization must be stable");
        assert_eq!(back.result_value("nets_cut"), Some("7"));
        assert_eq!(back.audit_value("pass"), Some("true"));
        assert_eq!(back.audit_value("missing"), None);
    }

    /// The recorded golden manifests, by file name.
    fn golden_corpus() -> Vec<(String, String)> {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../recorded/golden");
        let mut corpus: Vec<_> = std::fs::read_dir(&dir)
            .expect("recorded/golden exists")
            .map(|entry| entry.unwrap().path())
            .filter(|path| path.extension().is_some_and(|ext| ext == "json"))
            .map(|path| {
                let name = path.file_name().unwrap().to_string_lossy().into_owned();
                (name, std::fs::read_to_string(&path).unwrap())
            })
            .collect();
        corpus.sort();
        assert!(!corpus.is_empty(), "no golden manifests");
        corpus
    }

    #[test]
    fn golden_manifests_round_trip_byte_identically() {
        for (name, text) in golden_corpus() {
            let parsed = RunManifest::from_json(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(parsed.to_json(), text, "{name}");
            assert!(
                !parsed.result.is_empty() && !parsed.audit.is_empty(),
                "{name}"
            );
        }
    }

    /// Each malformed field fails with its own message.
    #[test]
    fn malformed_fields_name_themselves() {
        let mut m = sample();
        m.push_result("nets_cut", 7);
        m.push_audit("pass", true);
        let text = m.to_json();
        let broken = |from: &str, to: &str| {
            assert!(text.contains(from), "{from}");
            RunManifest::from_json(&text.replacen(from, to, 1)).unwrap_err()
        };
        assert_eq!(broken("\"config\": {", "\"konfig\": {"), "missing `config`");
        assert_eq!(
            broken("\"nets_cut\": \"7\"", "\"nets_cut\": 7"),
            "result `nets_cut` is not a string"
        );
        assert_eq!(
            broken(
                "\"audit\": {\n    \"pass\": \"true\"\n  }",
                "\"audit\": [1]"
            ),
            "`audit` is not an object"
        );
        assert_eq!(
            broken(
                "\"partition.nets_cut\": 7\n  }",
                "\"partition.nets_cut\": -7\n  }"
            ),
            "total `partition.nets_cut` is not a u64"
        );
        assert_eq!(
            broken("\"circuit\": \"s27\"", "\"circuit\": 27"),
            "missing `circuit`"
        );
        assert_eq!(
            broken("\"cbit_length\": \"4\"", "\"cbit_length\": 4"),
            "config `cbit_length` is not a string"
        );
        assert_eq!(
            broken("\"flow.heap_pops\": 999", "\"flow.heap_pops\": \"999\""),
            "counter `flow.heap_pops` is not a u64"
        );
        assert_eq!(
            broken("\"name\": \"make_group\"", "\"label\": \"make_group\""),
            "phase missing `name`"
        );
        assert_eq!(
            broken("\"schema\": \"ppet-trace/v1\"", "\"schema\": \"other/v9\""),
            "unsupported schema `other/v9` (want `ppet-trace/v1`)"
        );
        assert_eq!(
            RunManifest::from_json("[1, 2]").unwrap_err(),
            "missing `schema`"
        );
        assert!(RunManifest::from_json("{")
            .unwrap_err()
            .starts_with("json parse error at byte 1"));
    }

    #[test]
    fn empty_result_and_audit_are_omitted_from_json() {
        // Pre-existing manifests (no result/audit) must keep serializing
        // byte-identically, so the sections only appear when used.
        let text = sample().to_json();
        assert!(!text.contains("\"result\""));
        assert!(!text.contains("\"audit\""));
        let back = RunManifest::from_json(&text).unwrap();
        assert!(back.result.is_empty());
        assert!(back.audit.is_empty());
    }
}
