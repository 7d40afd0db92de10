//! Property tests for the exposition round trip: `parse` must invert
//! `Exposition::render_prometheus` on label values drawn from an
//! alphabet that includes every character the format has to escape or
//! quote (`"`, `\`, newline, comma, `=`, braces), and on families with
//! no observations at all.

use ppet_trace::expo::parse;
use ppet_trace::Metrics;
use proptest::prelude::*;

/// The characters exotic label values are built from — heavy on the
/// ones that break quote-blind label splitting.
const ALPHABET: &[char] = &[
    'a', 'Z', '0', '_', ' ', ',', '"', '\\', '\n', '=', '{', '}', '+',
];

fn label_text(indices: Vec<usize>) -> String {
    indices
        .into_iter()
        .map(|i| ALPHABET[i % ALPHABET.len()])
        .collect()
}

/// A registry with one family of each kind, plus a histogram family
/// that never records (empty families must round-trip too, not vanish).
fn registry(counter: u64, gauge_tenths: u32, samples: &[u64]) -> Metrics {
    let m = Metrics::new();
    m.counter("prop.requests").add(counter);
    m.gauge("prop.depth").set(f64::from(gauge_tenths) / 10.0);
    let h = m.histogram("prop.latency_us{outcome=\"hit\"}");
    for &v in samples {
        h.record(v);
    }
    m.histogram("prop.empty_us");
    m
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Stamping an arbitrary label value onto every series — quotes,
    /// backslashes, newlines, commas, and all — must survive a full
    /// render → parse cycle bit-exactly.
    #[test]
    fn relabeled_expositions_round_trip(
        value in collection::vec(0usize..13, 0..16).prop_map(label_text),
        counter in 0u64..1_000_000,
        gauge_tenths in 0u32..10_000,
        samples in collection::vec(0u64..100_000, 0..12),
    ) {
        let metrics = registry(counter, gauge_tenths, &samples);
        let expo = parse(&metrics.exposition().render_prometheus())
            .map_err(TestCaseError::fail)?;
        let tagged = expo.relabel("src", &value);
        let back = parse(&tagged.render_prometheus())
            .map_err(TestCaseError::fail)?;
        prop_assert_eq!(&back, &tagged, "value {value:?} broke the round trip");
        // The never-recorded family must still be present on both sides.
        prop_assert_eq!(tagged.histograms.len(), 2);
        prop_assert_eq!(back.histograms.len(), 2);
        // A second pass is the identity as well (render is canonical).
        let again = parse(&back.render_prometheus())
            .map_err(TestCaseError::fail)?;
        prop_assert_eq!(again, back);
    }

    /// Unlabeled registries round-trip regardless of the recorded
    /// distribution, including the all-empty one.
    #[test]
    fn bare_registries_round_trip(
        counter in 0u64..1_000_000,
        gauge_tenths in 0u32..10_000,
        samples in collection::vec(0u64..1_000_000_000, 0..20),
    ) {
        let metrics = registry(counter, gauge_tenths, &samples);
        let expo = parse(&metrics.exposition().render_prometheus())
            .map_err(TestCaseError::fail)?;
        let back = parse(&expo.render_prometheus())
            .map_err(TestCaseError::fail)?;
        prop_assert_eq!(back, expo);
    }
}
