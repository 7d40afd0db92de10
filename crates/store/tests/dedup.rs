//! The similarity-based delta engine end to end: family variants delta
//! against their own family, chains form and respect the configured
//! depth and decode budget, base choice is reproduced exactly by log
//! replay, and quarantine cascades through chains.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use ppet_store::{PutOutcome, Store, StoreConfig};

static DIR_SEQ: AtomicUsize = AtomicUsize::new(0);

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "ppet-store-dedup-{tag}-{}-{}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Deterministic pseudo-random body: `words` LCG words from `seed`.
fn body(seed: u64, words: usize) -> Vec<u8> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut out = Vec::with_capacity(words * 8);
    for _ in 0..words {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        out.extend_from_slice(&state.to_le_bytes());
    }
    out
}

/// A family member: a shared 4 KiB body plus a short per-variant tail.
fn variant(family: u64, i: usize) -> Vec<u8> {
    let mut v = body(family, 512);
    v.extend_from_slice(format!("variant {i} of family {family}").as_bytes());
    v
}

/// Chain fodder: `f1` replaces a 1 KiB run in the middle of a 16 KiB
/// `f0` (they still share one super-feature); `f2` is `f1` plus a short
/// tail (sharing all three super-features with `f1` but only one with
/// `f0`). `f2` thus resembles `f1` strictly more than `f0`, and with
/// depth ≥ 2 it deltas against the delta.
fn chain_family() -> (Vec<u8>, Vec<u8>, Vec<u8>) {
    let f0 = body(11, 2048);
    let mut f1 = f0.clone();
    f1.splice(8192..9216, body(12, 128));
    let mut f2 = f1.clone();
    f2.extend_from_slice(b"short tail edit for the leaf variant");
    (f0, f1, f2)
}

#[test]
fn family_variants_delta_against_their_cluster() {
    let dir = fresh_dir("family");
    let store = Store::open(&dir, StoreConfig::default()).expect("open");

    assert!(matches!(
        store.put(0x10, &variant(1, 0)).expect("put first"),
        PutOutcome::InsertedRaw { .. }
    ));
    for i in 1..6 {
        let outcome = store.put(0x10 + i as u128, &variant(1, i)).expect("put");
        assert!(
            matches!(outcome, PutOutcome::InsertedDelta { .. }),
            "family variant {i} should delta, got {outcome:?}"
        );
    }
    // An unrelated family shares no super-feature: it stores raw.
    assert!(matches!(
        store.put(0x20, &variant(2, 0)).expect("put unrelated"),
        PutOutcome::InsertedRaw { .. }
    ));

    for i in 0..6 {
        assert_eq!(
            store.get(0x10 + i as u128),
            Some(variant(1, i)),
            "variant {i} must decode exactly"
        );
    }
    let stats = store.stats();
    assert_eq!(stats.entries, 7);
    assert_eq!(stats.delta_entries, 5);
    assert!(stats.sf_table > 0);
    assert!(
        stats.delta_ratio < 0.1,
        "tail-edit variants must delta tightly, got {}",
        stats.delta_ratio
    );
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

/// The same put sequence lands on the same bases in a fresh store and in
/// a store rebuilt by log replay — byte-identical choices either way.
#[test]
fn base_choice_is_reproduced_by_replay() {
    let dir_a = fresh_dir("replay-a");
    let dir_b = fresh_dir("replay-b");
    let store_a = Store::open(&dir_a, StoreConfig::default()).expect("open a");
    let store_b = Store::open(&dir_b, StoreConfig::default()).expect("open b");

    let puts: Vec<(u128, Vec<u8>)> = (0..4)
        .flat_map(|i| {
            [
                (0x100 + i as u128, variant(1, i)),
                (0x200 + i as u128, variant(2, i)),
            ]
        })
        .collect();
    let outcomes_a: Vec<PutOutcome> = puts
        .iter()
        .map(|(k, d)| store_a.put(*k, d).expect("put a"))
        .collect();
    let outcomes_b: Vec<PutOutcome> = puts
        .iter()
        .map(|(k, d)| store_b.put(*k, d).expect("put b"))
        .collect();
    assert_eq!(
        outcomes_a, outcomes_b,
        "identical sequences must make identical choices"
    );

    // Rebuild A from its log; the never-closed B is the reference.
    store_a.flush().expect("flush");
    drop(store_a);
    let store_a = Store::open(&dir_a, StoreConfig::default()).expect("reopen a");

    let sa = store_a.stats();
    let sb = store_b.stats();
    assert_eq!(
        (sa.entries, sa.delta_entries, sa.sf_table),
        (sb.entries, sb.delta_entries, sb.sf_table),
        "replayed similarity index must match the live one"
    );
    assert_eq!(sa.chain_depths, sb.chain_depths);

    let probe = variant(1, 9);
    let oa = store_a.put(0x900, &probe).expect("probe a");
    let ob = store_b.put(0x900, &probe).expect("probe b");
    assert_eq!(oa, ob, "replayed store must pick the same base");
    assert!(
        matches!(oa, PutOutcome::InsertedDelta { .. }),
        "probe resembles family 1, got {oa:?}"
    );
    assert_eq!(store_a.get(0x900), Some(probe));
    std::fs::remove_dir_all(&dir_a).expect("cleanup");
    std::fs::remove_dir_all(&dir_b).expect("cleanup");
}

#[test]
fn chains_form_to_the_configured_depth() {
    let (f0, f1, f2) = chain_family();

    let dir = fresh_dir("depth2");
    let store = Store::open(&dir, StoreConfig::default()).expect("open");
    assert!(matches!(
        store.put(1, &f0).expect("put f0"),
        PutOutcome::InsertedRaw { .. }
    ));
    assert!(matches!(
        store.put(2, &f1).expect("put f1"),
        PutOutcome::InsertedDelta { base: 1, .. }
    ));
    let outcome = store.put(3, &f2).expect("put f2");
    assert!(
        matches!(outcome, PutOutcome::InsertedDelta { base: 2, .. }),
        "f2 resembles f1 most: expected a depth-2 chain, got {outcome:?}"
    );
    assert_eq!(store.stats().chain_depths, vec![1, 1, 1]);
    for (k, d) in [(1, &f0), (2, &f1), (3, &f2)] {
        assert_eq!(store.get(k).as_ref(), Some(d), "key {k} decodes");
    }
    // Depth survives replay.
    store.flush().expect("flush");
    drop(store);
    let store = Store::open(&dir, StoreConfig::default()).expect("reopen");
    assert_eq!(store.stats().chain_depths, vec![1, 1, 1]);
    assert_eq!(store.get(3), Some(f2.clone()));
    std::fs::remove_dir_all(&dir).expect("cleanup");

    // Depth 1 restores the classic rule: never delta against a delta.
    let dir = fresh_dir("depth1");
    let store = Store::open(&dir, StoreConfig::default().with_chain_depth(1)).expect("open");
    store.put(1, &f0).expect("put f0");
    store.put(2, &f1).expect("put f1");
    store.put(3, &f2).expect("put f2");
    let depths = store.stats().chain_depths;
    assert_eq!(
        depths,
        vec![1, 2],
        "both variants delta straight onto the raw root at depth 1"
    );
    for (k, d) in [(1, &f0), (2, &f1), (3, &f2)] {
        assert_eq!(store.get(k).as_ref(), Some(d), "key {k} decodes");
    }
    std::fs::remove_dir_all(&dir).expect("cleanup");

    // Depth 0 disables delta storage entirely.
    let dir = fresh_dir("depth0");
    let store = Store::open(&dir, StoreConfig::default().with_chain_depth(0)).expect("open");
    store.put(1, &f0).expect("put f0");
    store.put(2, &f1).expect("put f1");
    store.put(3, &f2).expect("put f2");
    assert_eq!(store.stats().delta_entries, 0);
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

/// A decode-budget factor of 1 makes every delta ineligible (decoding a
/// depth-1 chain already materializes base + artifact ≈ 2×), so the
/// write gate forces raw storage.
#[test]
fn decode_budget_gates_delta_eligibility() {
    let dir = fresh_dir("budget-gate");
    let store =
        Store::open(&dir, StoreConfig::default().with_decode_budget_factor(1)).expect("open");
    for i in 0..4 {
        let outcome = store.put(i as u128, &variant(1, i)).expect("put");
        assert!(
            matches!(outcome, PutOutcome::InsertedRaw { .. }),
            "factor 1 leaves no room for any chain, got {outcome:?}"
        );
    }
    assert_eq!(store.stats().delta_entries, 0);
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

/// Quarantining a chain's root takes the whole chain with it — nothing
/// downstream can decode — and the candidate index forgets the members,
/// so the next arrival starts fresh as a raw artifact.
#[test]
fn quarantine_cascades_through_the_chain() {
    let (f0, f1, f2) = chain_family();
    let dir = fresh_dir("cascade");
    let store = Store::open(&dir, StoreConfig::default()).expect("open");
    store.put(1, &f0).expect("put f0");
    store.put(2, &f1).expect("put f1");
    let outcome = store.put(3, &f2).expect("put f2");
    assert!(matches!(outcome, PutOutcome::InsertedDelta { base: 2, .. }));

    store.quarantine(1);
    for k in [1, 2, 3] {
        assert!(!store.contains(k), "key {k} depended on the root");
    }
    let stats = store.stats();
    assert_eq!(stats.quarantined, 3);
    assert_eq!(stats.sf_table, 0, "the candidate index must be emptied");

    // With the family gone there is nothing to delta against.
    assert!(matches!(
        store.put(4, &f2).expect("re-put"),
        PutOutcome::InsertedRaw { .. }
    ));
    assert_eq!(store.get(4), Some(f2));
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

/// A configured depth above the 16 hops a read follows acts as 16: the
/// store never writes a chain it would refuse to read back.
#[test]
fn chain_depth_above_the_read_ceiling_is_capped() {
    let dir = fresh_dir("deep");
    let config = StoreConfig::default()
        .with_chain_depth(40)
        .with_decode_budget_factor(1000);
    let store = Store::open(&dir, config.clone()).expect("open");
    // Each version appends a tail to the last; descending keys make the
    // newest the smaller-key tie-break, so the versions chain linearly.
    let mut data = body(21, 512);
    let mut versions = Vec::new();
    for i in 0..24u128 {
        data.extend_from_slice(format!(" tail edit {i}").as_bytes());
        store.put(1000 - i, &data).expect("put");
        versions.push((1000 - i, data.clone()));
    }
    let depths = store.stats().chain_depths;
    assert_eq!(depths.len(), 17, "chains stop at depth 16, got {depths:?}");
    for (key, data) in &versions {
        assert!(store.get(*key).as_ref() == Some(data), "key {key} decodes");
    }
    assert_eq!(store.stats().quarantined, 0);

    // The same holds for the store rebuilt from its log.
    store.flush().expect("flush");
    drop(store);
    let store = Store::open(&dir, config).expect("reopen");
    assert_eq!(store.stats().quarantined, 0);
    assert_eq!(store.stats().chain_depths, depths);
    std::fs::remove_dir_all(&dir).expect("cleanup");
}
