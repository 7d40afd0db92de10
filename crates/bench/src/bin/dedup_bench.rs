//! Stress corpus for the similarity-based delta engine: 1000 artifact
//! variants across 40 families pushed straight through
//! [`ppet_store::Store`], measuring how much of the logical volume the
//! super-feature index + delta encoder absorb and how the bounded delta
//! chains distribute. Writes the results to `BENCH_dedup.json`.
//!
//! Each family is a distinct 16 KiB pseudo-random body; each variant
//! overwrites one 256-byte window at a variant-specific offset and
//! appends a short tail — near-duplicates *within* a family, unrelated
//! *across* families. A store that finds similarity correctly deltas
//! every variant against its family and never across families.
//!
//! A second, small corpus holds manifest-shaped text: every family is a
//! list of phases that repeat the same counter keys, so one encoder
//! window recurs in more places than the encoder tries per hash. It
//! reports `text_live_bytes`, and `log_fnv` digests every byte both
//! stores wrote, so a change to the encoder or to base choice that moves
//! a stored byte moves `log_fnv` even where the byte counts stay put.
//!
//! Usage: `dedup_bench [out.json] [--gate]`
//!
//! `--gate` checks that no delta's base lies outside the variant's own
//! family, then replays the corpus twice — once by reopening the same
//! directory (log replay), once into a fresh mirror directory (identical
//! put sequence) — and fails loudly unless base choice, the
//! super-feature table size, the chain-depth histogram and live bytes
//! are byte-for-byte deterministic, and the delta ratio stays under 0.1.

use std::path::Path;
use std::time::Instant;

use ppet_store::{PutOutcome, Store, StoreConfig, StoreStats};

const FAMILIES: u64 = 40;
const VARIANTS_PER_FAMILY: u64 = 25;
const BODY_WORDS: usize = 2048; // 16 KiB per family body

/// The manifest-shaped corpus: families, variants per family, and the
/// phases and counters per phase of each document.
const TEXT_FAMILIES: u64 = 8;
const TEXT_VARIANTS: u64 = 8;
const TEXT_PHASES: usize = 12;
const TEXT_COUNTERS: usize = 10;

fn lcg_bytes(seed: u64, words: usize) -> Vec<u8> {
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

/// Variant `v` of `family`: the family body with one 256-byte window
/// rewritten and a tail appended. Variant 0 is the pristine body.
fn variant(family: u64, v: u64) -> Vec<u8> {
    let mut data = lcg_bytes(family + 1, BODY_WORDS);
    if v > 0 {
        let window = lcg_bytes(family * 10_007 + v, 32);
        let at = (v as usize * 613) % (data.len() - window.len());
        data[at..at + window.len()].copy_from_slice(&window);
        data.extend_from_slice(format!("variant {family}/{v}").as_bytes());
    }
    data
}

/// Variant `v` of manifest-shaped `family`: every phase lists the same
/// counter keys with family-specific values, and a variant rewrites
/// about one value in thirteen.
fn text_variant(family: u64, v: u64) -> Vec<u8> {
    let values = lcg_bytes(family + 101, TEXT_PHASES * TEXT_COUNTERS);
    let mut text = String::from("{\n  \"phases\": [\n");
    for phase in 0..TEXT_PHASES {
        text.push_str(&format!(
            "    {{\n      \"name\": \"phase{phase}\",\n      \"counters\": {{\n"
        ));
        for counter in 0..TEXT_COUNTERS {
            let i = phase * TEXT_COUNTERS + counter;
            let mut value = u64::from(values[i]);
            if v > 0 && (i as u64 * 7 + v) % 13 == 0 {
                value += v * 1000;
            }
            text.push_str(&format!("        \"counter.{counter}\": {value},\n"));
        }
        text.push_str("      }\n    },\n");
    }
    text.push_str("  ]\n}\n");
    text.into_bytes()
}

/// FNV-1a over the segment files of every store directory in `dirs`,
/// file by file in name order.
fn log_fnv(dirs: &[&Path]) -> u64 {
    let mut bytes = Vec::new();
    for dir in dirs {
        let mut files: Vec<_> = std::fs::read_dir(dir)
            .expect("store directory")
            .map(|entry| entry.expect("directory entry").path())
            .collect();
        files.sort();
        for file in files {
            bytes.extend(std::fs::read(file).expect("segment file"));
        }
    }
    ppet_dedup::feature::fnv1a(&bytes)
}

fn key(family: u64, v: u64) -> u128 {
    u128::from(family * 1000 + v)
}

/// The put outcome reduced to what determinism promises: raw, or a
/// delta against exactly which base.
#[derive(PartialEq, Debug, Clone, Copy)]
enum Shape {
    Raw,
    Delta(u128),
}

fn run_corpus(dir: &Path) -> (Store, Vec<Shape>, Vec<u64>) {
    let _ = std::fs::remove_dir_all(dir);
    let store = Store::open(dir, StoreConfig::default()).expect("open store");
    let mut shapes = Vec::new();
    let mut put_ns = Vec::new();
    for family in 0..FAMILIES {
        for v in 0..VARIANTS_PER_FAMILY {
            let data = variant(family, v);
            let start = Instant::now();
            let outcome = store.put(key(family, v), &data).expect("put");
            put_ns.push(u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX));
            shapes.push(match outcome {
                PutOutcome::InsertedDelta { base, .. } => Shape::Delta(base),
                _ => Shape::Raw,
            });
        }
    }
    store.flush().expect("flush");
    (store, shapes, put_ns)
}

/// The deterministic fingerprint of a store's dedup state: everything
/// replay and mirror runs must reproduce exactly.
fn fingerprint(stats: &StoreStats) -> (usize, usize, usize, Vec<u64>, u64) {
    (
        stats.entries,
        stats.delta_entries,
        stats.sf_table,
        stats.chain_depths.clone(),
        stats.live_bytes,
    )
}

fn gate(dir: &Path, live: &StoreStats, shapes: &[Shape]) {
    // Families: every delta's base is a variant of the same family.
    // `run_corpus` puts family-major, so shape `i` belongs to family
    // `i / VARIANTS_PER_FAMILY`.
    for (i, shape) in shapes.iter().enumerate() {
        if let Shape::Delta(base) = *shape {
            let family = i as u64 / VARIANTS_PER_FAMILY;
            assert_eq!(
                base / 1000,
                u128::from(family),
                "variant {i} of family {family} deltas against {base}, across families"
            );
        }
    }

    // Replay: reopen the same directory. Base links and the candidate
    // index are rebuilt from the log and must match the live store.
    let replayed = Store::open(dir, StoreConfig::default()).expect("replay open");
    let replay_stats = replayed.stats();
    assert_eq!(
        fingerprint(live),
        fingerprint(&replay_stats),
        "replay diverged from the live store"
    );
    drop(replayed);

    // Mirror: the identical put sequence into a fresh directory must
    // make the identical raw/delta decisions against identical bases.
    let mirror_dir = dir.with_extension("mirror");
    let (mirror, mirror_shapes, _) = run_corpus(&mirror_dir);
    assert_eq!(
        shapes,
        &mirror_shapes[..],
        "mirror run chose different bases"
    );
    assert_eq!(
        fingerprint(live),
        fingerprint(&mirror.stats()),
        "mirror run diverged in dedup state"
    );
    drop(mirror);
    let _ = std::fs::remove_dir_all(&mirror_dir);

    assert!(
        live.delta_ratio < 0.1,
        "delta_ratio {:.3} breaches the 0.1 gate",
        live.delta_ratio
    );
    eprintln!(
        "gate: bases within family, replay + mirror deterministic, delta_ratio {:.3} < 0.1",
        live.delta_ratio
    );
}

fn main() {
    let mut out_path = "BENCH_dedup.json".to_string();
    let mut gating = false;
    for arg in std::env::args().skip(1) {
        if arg == "--gate" {
            gating = true;
        } else {
            out_path = arg;
        }
    }

    let dir = std::env::temp_dir().join(format!("ppet-dedup-bench-{}", std::process::id()));
    let (store, shapes, put_ns) = run_corpus(&dir);
    let stats = store.stats();
    let total = FAMILIES * VARIANTS_PER_FAMILY;
    assert_eq!(stats.entries as u64, total, "one live entry per variant");
    drop(store);

    if gating {
        gate(&dir, &stats, &shapes);
    }

    let text_dir = dir.with_extension("text");
    let _ = std::fs::remove_dir_all(&text_dir);
    let text_store = Store::open(&text_dir, StoreConfig::default()).expect("open text store");
    for family in 0..TEXT_FAMILIES {
        for v in 0..TEXT_VARIANTS {
            text_store
                .put(key(family, v), &text_variant(family, v))
                .expect("put");
        }
    }
    text_store.flush().expect("flush");
    let text_live_bytes = text_store.stats().live_bytes;
    drop(text_store);
    let digest = log_fnv(&[&dir, &text_dir]);
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&text_dir);

    let put_mean = put_ns.iter().sum::<u64>() / put_ns.len().max(1) as u64;
    let depths: Vec<String> = stats.chain_depths.iter().map(u64::to_string).collect();
    let json = format!(
        "{{\n  \"schema\": \"ppet-bench-dedup/v2\",\n  \"families\": {FAMILIES},\n  \
         \"variants\": {total},\n  \"put_ns_mean\": {put_mean},\n  \
         \"entries\": {},\n  \"delta_entries\": {},\n  \"delta_ratio\": {:.3},\n  \
         \"sf_table\": {},\n  \"chain_depths\": [{}],\n  \
         \"live_bytes\": {},\n  \"logical_bytes\": {},\n  \"dedup_factor\": {:.1},\n  \
         \"text_live_bytes\": {text_live_bytes},\n  \"log_fnv\": \"{digest:016x}\"\n}}\n",
        stats.entries,
        stats.delta_entries,
        stats.delta_ratio,
        stats.sf_table,
        depths.join(", "),
        stats.live_bytes,
        stats.logical_bytes,
        stats.logical_bytes as f64 / stats.live_bytes.max(1) as f64,
    );
    std::fs::write(&out_path, &json).expect("write output");
    print!("{json}");
    eprintln!("wrote {out_path}");
}
