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
        (golden("s510", "scc"), "fedf41aa3d43a37004e28c00a5ac6d75"),
        (golden("s641", "solver"), "eb9d2752f58ad8210bd7f501cc0bdd1b"),
        (bench_request(), "d6168e281a75f857086fc428afeb9ae8"),
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
