//! Pins the service's content-addressed cache key.
//!
//! Stored entries on disk and router/shard key agreement both depend on
//! `CacheKey` staying byte-identical, so the literal keys of the two
//! golden oracle requests and of one `.bench` request are recorded here.
//! They change when, and only when, `ENGINE_EPOCH` moves.
//! The memoized builtin path must also agree with the spelled-out
//! derivation, on the first (resolving) request and on a repeat.

use ppet_core::{MercedBackend, MercedConfig};
use ppet_netlist::data::S27_BENCH;
use ppet_serve::{CacheKey, CompileBackend, CompileRequest, NormalizedRequest};

fn golden(circuit: &str, policy: &str) -> CompileRequest {
    CompileRequest::builtin(circuit)
        .with_config("cbit_length", "16")
        .with_config("beta", "50")
        .with_config("policy", policy)
        .with_seed(1996)
}

fn bench_request() -> CompileRequest {
    let mut request = CompileRequest::bench(S27_BENCH)
        .with_config("cbit_length", "4")
        .with_seed(7);
    request.name = Some("s27".to_owned());
    request
}

fn derived(normalized: &NormalizedRequest) -> CacheKey {
    CacheKey::derive(
        &normalized.circuit,
        &normalized.config_entries,
        normalized.seed,
    )
}

#[test]
fn cache_keys_are_pinned() {
    let backend = MercedBackend::new(MercedConfig::default());
    for (request, pinned) in [
        (golden("s510", "scc"), "9b368e0a96256fa736d50f022a216424"),
        (golden("s641", "solver"), "46c571c3744485fcec76157c441d8418"),
        (bench_request(), "5d0c737227102c69e56f73b4eb3aeba3"),
    ] {
        // The first builtin request resolves and memoizes the circuit, the
        // second is served from the memo: both must key as `derive` does.
        for pass in ["first", "repeat"] {
            let normalized = backend.normalize(&request).unwrap();
            let key = CacheKey::of(&normalized);
            assert_eq!(key, derived(&normalized), "{pass}: {}", request.to_json());
            assert_eq!(key.to_string(), pinned, "{pass}: {}", request.to_json());
        }
    }
}
