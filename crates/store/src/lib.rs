//! `ppet-store` — persistent content-addressed artifact store for the
//! Merced compile pipeline.
//!
//! The compile service (`ppet-serve`) caches finished run manifests by
//! content address; this crate gives that cache a disk: restart the
//! service and previously compiled artifacts are served without
//! recompiling. The design is a single-writer embedded store, std-only,
//! built from five small layers:
//!
//! * [`crc`] — table-driven CRC-32 guarding every record.
//! * [`record`] — the on-disk record vocabulary (put raw / put delta /
//!   evict / pin / unpin) and its framing.
//! * [`segment`] — the append-only segment log: rolling files, fsync
//!   discipline, and the crash-recovery state machine that truncates torn
//!   tails and quarantines corrupt frames instead of refusing to open.
//! * [`delta`] — byte-granular delta encoding (varint copy/literal ops,
//!   bounded decode, windows indexed by `ppet-dedup`'s FNV-1a), so
//!   near-duplicate artifacts (manifests of similar netlists) cost a
//!   fraction of their raw size. Similarity *detection* lives in
//!   `ppet-dedup`: super-feature sketches, which the store indexes to
//!   find delta-base candidates.
//! * [`store`] — the [`Store`] itself: the recovered index, the
//!   super-feature candidate index and its rank rule (most shared
//!   super-features, then smaller key), the delta-vs-raw decision rule
//!   with bounded-depth chains and a decode-cost budget, byte-budget LRU eviction with pinning and
//!   delta-chain awareness, compaction, and `store.*` metrics.
//!
//! # Durability contract
//!
//! Appends go through the OS page cache; a *process* crash (`kill -9`)
//! loses nothing already written. fsync happens on segment roll, on
//! [`Store::flush`], and before compaction deletes old segments — so a
//! *machine* crash loses at most the tail written since the last of
//! those, and recovery truncates any torn frame it left behind. Corrupt
//! or torn records are never served: they are quarantined, counted, and
//! the caller recomputes.
//!
//! # Example
//!
//! ```
//! use ppet_store::{Store, StoreConfig};
//!
//! let dir = std::env::temp_dir().join(format!("ppet-store-doc-{}", std::process::id()));
//! let store = Store::open(&dir, StoreConfig::default())?;
//! store.put(42, b"compiled manifest bytes")?;
//! assert_eq!(store.get(42).as_deref(), Some(&b"compiled manifest bytes"[..]));
//! drop(store);
//!
//! // Reopen: the artifact survived.
//! let store = Store::open(&dir, StoreConfig::default())?;
//! assert_eq!(store.get(42).as_deref(), Some(&b"compiled manifest bytes"[..]));
//! # std::fs::remove_dir_all(&dir)?;
//! # Ok::<(), std::io::Error>(())
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod crc;
pub mod delta;
pub mod record;
pub mod segment;
pub mod store;

pub use record::{Record, RecordError, FRAME_HEADER, MAX_PAYLOAD};
pub use segment::{Location, RecoveryStats, SegmentLog};
pub use store::{GcOutcome, PutOutcome, Store, StoreConfig, StoreStats, VerifyReport};
