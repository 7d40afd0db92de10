//! The sketch property the store's delta-base lookup relies on: variants
//! of one body that differ only by a short tail share at least one
//! super-feature *directly*, so each finds its siblings in the store's
//! super-feature index without any transitive grouping.

use ppet_dedup::super_features;
use proptest::prelude::*;

/// `words` LCG words from `seed` — a family's shared body.
fn body(seed: u64, words: usize) -> Vec<u8> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut out = Vec::with_capacity(words * 8 + 32);
    for _ in 0..words {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        out.extend_from_slice(&state.to_le_bytes());
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn tail_variants_share_a_super_feature(
        family in 0u64..1_000_000,
        words in 256usize..2048,
        tails in proptest::collection::vec(any::<u32>(), 2..8),
    ) {
        let base = body(family, words);
        let sketches: Vec<_> = tails
            .iter()
            .map(|tail| {
                let mut v = base.clone();
                v.extend_from_slice(format!("variant {tail}").as_bytes());
                super_features(&v)
            })
            .collect();
        for (i, a) in sketches.iter().enumerate() {
            for b in &sketches[i + 1..] {
                prop_assert!(
                    a.iter().any(|sf| b.contains(sf)),
                    "family {} siblings share no super-feature", family
                );
            }
        }
    }
}
