//! Correctness checks on what the servers answered.

use ppet_serve::CompileRequest;
use ppet_trace::RunManifest;

fn parse(what: &str, text: &str) -> Result<RunManifest, String> {
    RunManifest::from_json(text).map_err(|e| format!("{what} is not a run manifest: {e}"))
}

/// Compares a served manifest with its golden recording, ignoring the
/// phase `wall_ns` and the recording's `audit` block (the service does
/// not audit).
pub fn golden_mismatch(served: &str, golden: &str) -> Option<String> {
    let (served, golden) = match (parse("served body", served), parse("golden", golden)) {
        (Ok(s), Ok(g)) => (s, g),
        (Err(e), _) | (_, Err(e)) => return Some(e),
    };
    let phases = |m: &RunManifest| -> Vec<(String, Vec<(String, u64)>)> {
        m.phases
            .iter()
            .map(|p| (p.name.clone(), p.counters.clone()))
            .collect()
    };
    let fields = [
        ("schema", served.schema == golden.schema),
        ("circuit", served.circuit == golden.circuit),
        ("seed", served.seed == golden.seed),
        ("config", served.config == golden.config),
        ("result", served.result == golden.result),
        ("phases", phases(&served) == phases(&golden)),
        ("totals", served.totals == golden.totals),
    ];
    fields.iter().find(|(_, same)| !same).map(|(field, _)| {
        format!(
            "{} differs from its golden manifest in `{field}`",
            golden.circuit
        )
    })
}

/// Checks that a compile answer is the manifest of the circuit and seed
/// the request named.
pub fn answer_mismatch(request: &CompileRequest, body: &str) -> Option<String> {
    let manifest = match parse("answer", body) {
        Ok(m) => m,
        Err(e) => return Some(e),
    };
    let circuit = request.builtin.as_deref().unwrap_or_default();
    if manifest.circuit != circuit || Some(manifest.seed) != request.seed {
        return Some(format!(
            "asked for {circuit} seed {:?}, got {} seed {}",
            request.seed, manifest.circuit, manifest.seed
        ));
    }
    None
}
