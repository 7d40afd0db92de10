//! The compile-request wire format and the backend abstraction.
//!
//! A request is a small JSON object (`schema: "ppet-serve/v1"`) naming a
//! circuit — either an embedded `.bench` source or a `builtin` name the
//! backend resolves — plus optional `config` entries in the
//! `manifest_entries` key/value vocabulary and an optional `seed`. The
//! service never interprets the configuration itself: the
//! [`CompileBackend`] normalizes a request into a circuit, the effective
//! config entries, and the effective seed, and those three (hashed over
//! the circuit's canonical bytes) form the content-addressed cache key.

use std::panic::{catch_unwind, AssertUnwindSafe};

use ppet_netlist::canonical::HashedCircuit;
use ppet_trace::json::{self, Value};
use ppet_trace::Tracer;

use crate::http::error_body;

/// The request schema identifier.
pub const REQUEST_SCHEMA: &str = "ppet-serve/v1";

/// One compile request, as posted to `POST /compile`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CompileRequest {
    /// Builtin circuit name (`s27`, `counter8`, `synth::…` — whatever the
    /// backend's resolver accepts). Mutually exclusive with `bench`.
    pub builtin: Option<String>,
    /// Embedded ISCAS89 `.bench` source. Mutually exclusive with
    /// `builtin`.
    pub bench: Option<String>,
    /// Circuit name used when parsing `bench` (defaults to `request`).
    pub name: Option<String>,
    /// Configuration overrides in the `MercedConfig::manifest_entries`
    /// key/value vocabulary (`cbit_length`, `beta`, `policy`, …), applied
    /// over the server's base configuration.
    pub config: Vec<(String, String)>,
    /// Flow seed; defaults to the server's base seed.
    pub seed: Option<u64>,
}

impl CompileRequest {
    /// A request for a builtin circuit.
    #[must_use]
    pub fn builtin(name: &str) -> Self {
        Self {
            builtin: Some(name.to_owned()),
            ..Self::default()
        }
    }

    /// A request embedding `.bench` source text.
    #[must_use]
    pub fn bench(source: &str) -> Self {
        Self {
            bench: Some(source.to_owned()),
            ..Self::default()
        }
    }

    /// Adds one configuration entry.
    #[must_use]
    pub fn with_config(mut self, key: &str, value: &str) -> Self {
        self.config.push((key.to_owned(), value.to_owned()));
        self
    }

    /// Sets the seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = Some(seed);
        self
    }

    /// Parses a request body.
    ///
    /// # Errors
    ///
    /// A description of the first problem: malformed JSON, wrong schema,
    /// both or neither circuit source, or ill-typed fields.
    pub fn from_json(body: &str) -> Result<Self, String> {
        let value = json::parse(body).map_err(|e| format!("malformed JSON: {e}"))?;
        let obj = value.as_obj().ok_or("request must be a JSON object")?;
        let field = |key: &str| obj.iter().find(|(k, _)| k == key).map(|(_, v)| v);
        match field("schema").and_then(Value::as_str) {
            Some(REQUEST_SCHEMA) => {}
            Some(other) => return Err(format!("unsupported schema {other:?}")),
            None => return Err(format!("missing schema (expected {REQUEST_SCHEMA:?})")),
        }
        let string_field = |key: &str| -> Result<Option<String>, String> {
            match field(key) {
                None => Ok(None),
                Some(v) => v
                    .as_str()
                    .map(|s| Some(s.to_owned()))
                    .ok_or_else(|| format!("{key} must be a string")),
            }
        };
        let builtin = string_field("builtin")?;
        let bench = string_field("bench")?;
        let name = string_field("name")?;
        match (&builtin, &bench) {
            (None, None) => return Err("request names no circuit: set builtin or bench".into()),
            (Some(_), Some(_)) => return Err("builtin and bench are mutually exclusive".into()),
            _ => {}
        }
        let mut config = Vec::new();
        if let Some(v) = field("config") {
            let entries = v.as_obj().ok_or("config must be an object")?;
            for (k, v) in entries {
                let v = v
                    .as_str()
                    .map(str::to_owned)
                    .or_else(|| v.as_u64().map(|n| n.to_string()))
                    .ok_or_else(|| format!("config.{k} must be a string or integer"))?;
                config.push((k.clone(), v));
            }
        }
        let seed = match field("seed") {
            None => None,
            Some(v) => Some(v.as_u64().ok_or("seed must be an unsigned integer")?),
        };
        Ok(Self {
            builtin,
            bench,
            name,
            config,
            seed,
        })
    }

    /// Serializes the request (what clients, tests, and the bench harness
    /// send). Round-trips through [`CompileRequest::from_json`].
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        out.push_str(&format!("\"schema\":{}", json::escaped(REQUEST_SCHEMA)));
        if let Some(b) = &self.builtin {
            out.push_str(&format!(",\"builtin\":{}", json::escaped(b)));
        }
        if let Some(b) = &self.bench {
            out.push_str(&format!(",\"bench\":{}", json::escaped(b)));
        }
        if let Some(n) = &self.name {
            out.push_str(&format!(",\"name\":{}", json::escaped(n)));
        }
        if !self.config.is_empty() {
            out.push_str(",\"config\":{");
            for (i, (k, v)) in self.config.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&format!("{}:{}", json::escaped(k), json::escaped(v)));
            }
            out.push('}');
        }
        if let Some(seed) = self.seed {
            out.push_str(&format!(",\"seed\":{seed}"));
        }
        out.push('}');
        out
    }
}

/// A backend failure, reported to the client as a `ppet-error/v1` body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BackendError {
    /// Stable error kind (the `ppet-error/v1` vocabulary: `parse`,
    /// `compile`, …).
    pub kind: &'static str,
    /// Human-readable description.
    pub message: String,
}

impl BackendError {
    /// Convenience constructor.
    #[must_use]
    pub fn new(kind: &'static str, message: impl Into<String>) -> Self {
        Self {
            kind,
            message: message.into(),
        }
    }
}

impl std::fmt::Display for BackendError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.kind, self.message)
    }
}

/// A normalized request: the resolved circuit plus the *effective*
/// compile parameters. The cache key is derived from exactly these three
/// fields, so backends must exclude anything that cannot change the
/// result (worker counts, for instance) from `config_entries`.
///
/// The circuit carries its content hash, computed when the
/// [`HashedCircuit`] was built, so [`CacheKey::of`](crate::CacheKey::of)
/// hashes only the config and seed. A backend may hand out clones of one
/// `HashedCircuit` for many requests (the Merced backend memoizes its
/// builtin circuits this way); the key is the same either way.
#[derive(Debug, Clone)]
pub struct NormalizedRequest {
    /// The resolved circuit, with its content hash.
    pub circuit: HashedCircuit,
    /// The effective configuration as deterministic key/value entries.
    pub config_entries: Vec<(String, String)>,
    /// The effective seed.
    pub seed: u64,
}

/// The compile engine behind the service.
///
/// `ppet-serve` deliberately does not depend on `ppet-core` (the compiler
/// depends on this crate to mount the `merced serve` subcommand, so the
/// dependency points the other way): the server speaks HTTP, caches, and
/// schedules, while the backend resolves and compiles.
pub trait CompileBackend: Send + Sync + 'static {
    /// Resolves a request into the circuit and effective parameters.
    ///
    /// # Errors
    ///
    /// [`BackendError`] for unknown builtins, unparsable `.bench` bodies,
    /// or invalid configuration entries.
    fn normalize(&self, request: &CompileRequest) -> Result<NormalizedRequest, BackendError>;

    /// Compiles a normalized request into a `ppet-trace/v1` run-manifest
    /// JSON string — byte-identical to what the CLI path would produce
    /// for the same circuit, config, and seed.
    ///
    /// # Errors
    ///
    /// [`BackendError`] for compile failures.
    fn compile(&self, normalized: &NormalizedRequest) -> Result<String, BackendError>;

    /// [`CompileBackend::compile`] with observability: the backend wraps
    /// its pipeline phases in spans on `tracer` so the service can
    /// attach the compile's span tree to the request trace. The manifest
    /// must be identical to the untraced call. The default ignores the
    /// tracer, so backends without internal instrumentation still work —
    /// their requests simply trace as a single opaque compile phase.
    ///
    /// # Errors
    ///
    /// Same as [`CompileBackend::compile`].
    fn compile_traced(
        &self,
        normalized: &NormalizedRequest,
        tracer: &Tracer,
    ) -> Result<String, BackendError> {
        let _ = tracer;
        self.compile(normalized)
    }

    /// Re-verifies a body fetched from the persistent store before it is
    /// served. The store already CRC-checks every record; this hook is
    /// for *semantic* verification — the Merced backend overrides it to
    /// check the manifest's engine epoch and re-derive its totals. A
    /// failure quarantines the stored entry and falls back to a fresh
    /// compile, so returning an error here is safe, never fatal.
    ///
    /// # Errors
    ///
    /// [`BackendError`] when the stored body fails verification.
    fn verify_stored(&self, _stored: &str) -> Result<(), BackendError> {
        Ok(())
    }
}

/// Parses a `POST /compile` body and normalizes it through `backend`
/// behind a panic boundary, so a panicking backend answers a structured
/// error instead of dropping the connection.
///
/// # Errors
///
/// The status and `ppet-error/v1` body to answer with: 400 for a
/// malformed or unresolvable request, 500 for a panicking backend.
pub fn normalize_body<B: CompileBackend>(
    backend: &B,
    body: &str,
) -> Result<NormalizedRequest, (u16, String)> {
    let request = CompileRequest::from_json(body).map_err(|e| (400, error_body("parse", &e)))?;
    match catch_unwind(AssertUnwindSafe(|| backend.normalize(&request))) {
        Ok(Ok(normalized)) => Ok(normalized),
        Ok(Err(e)) => Err((400, error_body(e.kind, &e.message))),
        Err(_) => Err((
            500,
            error_body(
                "compile",
                "request normalization panicked; nothing was cached",
            ),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_builtin_requests() {
        let req = CompileRequest::builtin("s27")
            .with_config("cbit_length", "4")
            .with_seed(7);
        let back = CompileRequest::from_json(&req.to_json()).unwrap();
        assert_eq!(back, req);
    }

    #[test]
    fn round_trips_bench_requests() {
        let req = CompileRequest::bench("INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n");
        let back = CompileRequest::from_json(&req.to_json()).unwrap();
        assert_eq!(back, req);
    }

    #[test]
    fn integer_config_values_accepted() {
        let body = r#"{"schema":"ppet-serve/v1","builtin":"s27","config":{"cbit_length":4}}"#;
        let req = CompileRequest::from_json(body).unwrap();
        assert_eq!(req.config, vec![("cbit_length".to_owned(), "4".to_owned())]);
    }

    #[test]
    fn rejects_bad_requests() {
        for (body, needle) in [
            ("not json", "malformed"),
            ("{}", "schema"),
            (r#"{"schema":"other/v9"}"#, "unsupported schema"),
            (r#"{"schema":"ppet-serve/v1"}"#, "names no circuit"),
            (
                r#"{"schema":"ppet-serve/v1","builtin":"a","bench":"b"}"#,
                "mutually exclusive",
            ),
            (
                r#"{"schema":"ppet-serve/v1","builtin":"s27","seed":"x"}"#,
                "seed",
            ),
        ] {
            let err = CompileRequest::from_json(body).unwrap_err();
            assert!(err.contains(needle), "{body}: {err}");
        }
    }
}
