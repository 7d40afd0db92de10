//! Torn-write recovery: a segment truncated at *every* byte offset of
//! its final record must open cleanly with the exact prefix intact, and
//! the `recovered`/`quarantined` counters must tell the truth.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use ppet_store::{Record, SegmentLog, Store, StoreConfig};
use proptest::prelude::*;

static DIR_SEQ: AtomicUsize = AtomicUsize::new(0);

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "ppet-store-recovery-{tag}-{}-{}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Writes `payloads` as raw records into one segment and returns the
/// segment file path plus each record's frame extent `(start, end)`.
fn write_log(dir: &PathBuf, payloads: &[Vec<u8>]) -> (PathBuf, Vec<(u64, u64)>) {
    let (mut log, existing, stats) = SegmentLog::open(dir, 64 << 20).expect("open");
    assert!(existing.is_empty());
    assert_eq!(stats.recovered, 0);
    let mut extents = Vec::new();
    for (i, data) in payloads.iter().enumerate() {
        let loc = log
            .append(&Record::PutRaw {
                key: i as u128 + 1,
                data: data.clone(),
            })
            .expect("append");
        extents.push((loc.offset, loc.offset + loc.frame_len()));
    }
    log.flush().expect("flush");
    let seg = std::fs::read_dir(dir)
        .expect("dir")
        .map(|e| e.expect("entry").path())
        .find(|p| p.extension().is_some_and(|e| e == "log"))
        .expect("one segment file");
    (seg, extents)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Exhaustively truncate the final record at every byte offset.
    #[test]
    fn truncation_at_every_offset_recovers_exact_prefix(
        payloads in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..96),
            1..5,
        ),
    ) {
        let dir = fresh_dir("torn");
        let (seg, extents) = write_log(&dir, &payloads);
        let pristine = std::fs::read(&seg).expect("read segment");
        let (last_start, last_end) = *extents.last().expect("at least one record");
        prop_assert_eq!(last_end, pristine.len() as u64);

        for cut in last_start..=last_end {
            std::fs::write(&seg, &pristine[..cut as usize]).expect("truncate");

            let store = Store::open(&dir, StoreConfig::default()).expect("reopen");
            let stats = store.stats();
            let intact = if cut == last_end { payloads.len() } else { payloads.len() - 1 };
            prop_assert_eq!(stats.entries, intact, "cut at {}", cut);
            prop_assert_eq!(stats.recovered, intact as u64, "cut at {}", cut);
            // Exactly one record was torn — unless the cut landed on the
            // frame boundary (clean end) and nothing was lost.
            let torn = u64::from(cut != last_start && cut != last_end);
            prop_assert_eq!(stats.quarantined, torn, "cut at {}", cut);
            // The surviving prefix is byte-identical.
            for (i, data) in payloads.iter().take(intact).enumerate() {
                let got = store.get(i as u128 + 1);
                prop_assert_eq!(got.as_deref(), Some(&data[..]));
            }
            prop_assert!(intact == payloads.len() || store.get(payloads.len() as u128).is_none());
            drop(store);
            // A store opened after recovery must be appendable: the torn
            // tail was physically truncated, not just skipped.
            let store = Store::open(&dir, StoreConfig::default()).expect("re-reopen");
            store.put(0xFFFF, b"post-recovery append").expect("append after recovery");
            let got = store.get(0xFFFF);
            prop_assert_eq!(got.as_deref(), Some(&b"post-recovery append"[..]));
        }
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }
}

/// A bit flip in a mid-log record quarantines that record only; later
/// records (and an append afterwards) survive.
#[test]
fn mid_log_corruption_quarantines_one_record() {
    let dir = fresh_dir("bitflip");
    let payloads: Vec<Vec<u8>> = (0..4u8).map(|i| vec![i; 80]).collect();
    let (seg, extents) = write_log(&dir, &payloads);
    let mut bytes = std::fs::read(&seg).expect("read");
    // Flip one payload byte of record #2 (index 1).
    let (start, _) = extents[1];
    bytes[start as usize + 8] ^= 0x40;
    std::fs::write(&seg, &bytes).expect("write back");

    let store = Store::open(&dir, StoreConfig::default()).expect("open");
    let stats = store.stats();
    assert_eq!(stats.entries, 3);
    assert_eq!(stats.recovered, 3);
    assert_eq!(stats.quarantined, 1);
    assert!(store.get(2).is_none());
    for key in [1u128, 3, 4] {
        assert_eq!(
            store.get(key).as_deref(),
            Some(&payloads[key as usize - 1][..])
        );
    }
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

/// A delta whose base record was quarantined cannot decode; recovery
/// must quarantine the orphan too instead of serving garbage.
#[test]
fn orphaned_delta_is_quarantined_on_open() {
    let dir = fresh_dir("orphan");
    let base: Vec<u8> = (0..1200u32).flat_map(|i| i.to_le_bytes()).collect();
    let mut similar = base.clone();
    similar.extend_from_slice(b"tail edit");
    {
        let store = Store::open(&dir, StoreConfig::default()).expect("open");
        store.put(1, &base).expect("put base");
        let outcome = store.put(2, &similar).expect("put similar");
        assert!(
            matches!(
                outcome,
                ppet_store::PutOutcome::InsertedDelta { base: 1, .. }
            ),
            "expected a delta against key 1, got {outcome:?}"
        );
        store.flush().expect("flush");
    }
    // Corrupt the base record on disk.
    let seg = std::fs::read_dir(&dir)
        .expect("dir")
        .map(|e| e.expect("entry").path())
        .find(|p| p.extension().is_some_and(|e| e == "log"))
        .expect("segment");
    let mut bytes = std::fs::read(&seg).expect("read");
    bytes[16] ^= 0x01; // payload byte of the first (base) frame
    std::fs::write(&seg, &bytes).expect("write back");

    let store = Store::open(&dir, StoreConfig::default()).expect("reopen");
    let stats = store.stats();
    assert_eq!(stats.entries, 0, "base corrupt, delta orphaned");
    assert_eq!(stats.quarantined, 2);
    assert!(store.get(1).is_none());
    assert!(store.get(2).is_none());
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

/// Corrupting the raw root of a depth-2 chain orphans the whole chain:
/// the mid delta loses its base and the leaf loses its (transitively)
/// — recovery quarantines all three instead of serving garbage.
#[test]
fn orphaned_depth2_chain_is_quarantined_on_open() {
    let dir = fresh_dir("orphan2");
    // The depth-2 trio from tests/dedup.rs: splice then tail-append.
    let mut f0 = Vec::with_capacity(16384);
    let mut state = 11u64.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    for _ in 0..2048 {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        f0.extend_from_slice(&state.to_le_bytes());
    }
    let mut splice = Vec::with_capacity(1024);
    let mut state = 12u64.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    for _ in 0..128 {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        splice.extend_from_slice(&state.to_le_bytes());
    }
    let mut f1 = f0.clone();
    f1.splice(8192..9216, splice);
    let mut f2 = f1.clone();
    f2.extend_from_slice(b"short tail edit for the leaf variant");
    {
        let store = Store::open(&dir, StoreConfig::default()).expect("open");
        store.put(1, &f0).expect("put root");
        let o1 = store.put(2, &f1).expect("put mid");
        assert!(matches!(
            o1,
            ppet_store::PutOutcome::InsertedDelta { base: 1, .. }
        ));
        let o2 = store.put(3, &f2).expect("put leaf");
        assert!(
            matches!(o2, ppet_store::PutOutcome::InsertedDelta { base: 2, .. }),
            "expected a depth-2 chain, got {o2:?}"
        );
        store.flush().expect("flush");
    }
    // Corrupt the root's frame on disk.
    let seg = std::fs::read_dir(&dir)
        .expect("dir")
        .map(|e| e.expect("entry").path())
        .find(|p| p.extension().is_some_and(|e| e == "log"))
        .expect("segment");
    let mut bytes = std::fs::read(&seg).expect("read");
    bytes[16] ^= 0x01; // payload byte of the first (root) frame
    std::fs::write(&seg, &bytes).expect("write back");

    let store = Store::open(&dir, StoreConfig::default()).expect("reopen");
    let stats = store.stats();
    assert_eq!(stats.entries, 0, "root corrupt, whole chain orphaned");
    assert_eq!(stats.quarantined, 3);
    for key in [1u128, 2, 3] {
        assert!(store.get(key).is_none());
    }
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

/// Pins and unpins survive restart.
#[test]
fn pin_state_survives_restart() {
    let dir = fresh_dir("pins");
    {
        let store = Store::open(&dir, StoreConfig::default()).expect("open");
        store.put_pinned(1, b"golden").expect("put pinned");
        store.put(2, b"scratch").expect("put");
        store.pin(2).expect("pin");
        store.unpin(2).expect("unpin");
        store.flush().expect("flush");
    }
    let store = Store::open(&dir, StoreConfig::default()).expect("reopen");
    let stats = store.stats();
    assert_eq!(stats.entries, 2);
    assert_eq!(stats.pinned, 1);
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn a_read_its_caller_rejects_is_quarantined_and_counted_as_a_miss() {
    let dir = fresh_dir("rejected");
    let store = Store::open(&dir, StoreConfig::default()).unwrap();
    store.put(1, b"stale answer").unwrap();
    store.put(2, b"good answer").unwrap();
    assert_eq!(store.get_verified(1, |_| None::<()>), None);
    assert!(!store.contains(1), "the rejected entry is quarantined");
    assert_eq!(
        store.get_verified(2, Some).as_deref(),
        Some(&b"good answer"[..])
    );
    let stats = store.stats();
    assert_eq!((stats.hits, stats.misses, stats.quarantined), (1, 1, 1));
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
}
