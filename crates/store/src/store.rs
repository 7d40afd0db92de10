//! The store proper: index, similarity dedup, budget eviction, recovery.
//!
//! One [`Store`] owns a [`SegmentLog`] plus
//! the in-memory state recovery rebuilds from it: the key index, the
//! super-feature candidate index for delta-base selection, delta base
//! reference counts, LRU ticks, and byte accounting. All mutation
//! happens under one mutex — the store is shared behind an `Arc` by the
//! compile service and its workers.
//!
//! # Decision rule: delta vs raw
//!
//! An incoming artifact is sketched into super-features
//! ([`ppet_dedup::feature`]); the candidate index — super-feature →
//! live keys carrying it — yields every live artifact sharing ≥ 1
//! super-feature. Candidates are ranked by shared-feature count, then
//! smaller key, and the best *eligible* one is the delta-base
//! candidate. Eligible means the resulting chain respects both gates:
//!
//! * **depth** — at most [`StoreConfig::max_chain_depth`] delta hops
//!   before a raw record (depth 0 = raw, depth 1 = classic single
//!   delta), and never more than the 16 hops a read will follow;
//! * **decode cost** — the total bytes materialized to decode the new
//!   artifact (raw base + every intermediate + the artifact itself) may
//!   not exceed [`StoreConfig::decode_budget_factor`] × the artifact's
//!   own length. The same budget is enforced again at read time from
//!   the actual records, so a corrupt chain cannot run away.
//!
//! The artifact is stored as base-ref + delta iff the encoded delta
//! frame is strictly smaller than the raw frame would be; otherwise
//! raw. Because eligible bases may themselves be deltas, chains of up
//! to `max_chain_depth` frames arise naturally.
//!
//! The ranking is a pure function of the live key set and its content —
//! never of insertion order — so an index rebuilt by log replay
//! reproduces the same base choices.
//!
//! # Eviction and pinning
//!
//! When live bytes exceed the budget, the least-recently-used unpinned
//! entry that no live delta references is evicted (a tombstone is
//! appended; the frame becomes dead). A base still referenced by deltas
//! is never evicted directly: if only such bases remain, the policy
//! *rewrites on evict* — each dependent delta is re-stored raw, then the
//! base goes. Pinned entries are never evicted; if pinned entries alone
//! exceed the budget, the store runs over budget rather than break the
//! pin contract. Dead bytes are reclaimed by compaction
//! ([`Store::gc`]), which also runs automatically once dead bytes exceed
//! live bytes plus one segment.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use ppet_dedup::{super_features, SUPER_FEATURES};
use ppet_trace::{Counter, Gauge, Metrics};

use crate::delta;
use crate::record::Record;
use crate::segment::{Location, SegmentLog};

/// Hard ceiling on base-link walks: any chain longer than this is
/// treated as corrupt (a cycle or an impossible depth), never followed
/// further. The write-side depth gate caps `max_chain_depth` here too,
/// so the store never writes a chain it would refuse to read.
const MAX_CHAIN_STEPS: u32 = 16;

/// Segment roll threshold.
const SEGMENT_BYTES: u64 = 4 << 20;

/// Tunables for one store.
#[derive(Debug, Clone)]
pub struct StoreConfig {
    /// Live-byte budget; `None` disables eviction.
    pub budget: Option<u64>,
    /// Maximum delta hops between an artifact and its raw ancestor.
    /// `0` disables delta storage entirely; `1` restores the classic
    /// "deltas never chain" rule; the default `2` lets a delta base
    /// itself be a delta. Depths above 16 act as 16.
    pub max_chain_depth: u8,
    /// Read-amplification ceiling: decoding an artifact may materialize
    /// at most this many times the artifact's own length across its
    /// whole chain. Enforced when choosing a base *and* when reading.
    pub decode_budget_factor: u32,
}

impl Default for StoreConfig {
    fn default() -> Self {
        Self {
            budget: None,
            max_chain_depth: 2,
            decode_budget_factor: 8,
        }
    }
}

impl StoreConfig {
    /// Sets the live-byte budget.
    #[must_use]
    pub fn with_budget(mut self, budget: u64) -> Self {
        self.budget = Some(budget);
        self
    }

    /// Sets the maximum delta chain depth.
    #[must_use]
    pub fn with_chain_depth(mut self, depth: u8) -> Self {
        self.max_chain_depth = depth;
        self
    }

    /// Sets the decode-cost budget factor (clamped to ≥ 1).
    #[must_use]
    pub fn with_decode_budget_factor(mut self, factor: u32) -> Self {
        self.decode_budget_factor = factor.max(1);
        self
    }
}

/// What [`Store::put`] did with the artifact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PutOutcome {
    /// Stored as a full artifact.
    InsertedRaw {
        /// On-disk frame bytes.
        stored_bytes: u64,
    },
    /// Stored as a delta against a similar base.
    InsertedDelta {
        /// On-disk frame bytes (the delta, not the artifact).
        stored_bytes: u64,
        /// The base artifact's key.
        base: u128,
    },
    /// The key was already live — content-addressed stores are
    /// write-once per key, so the bytes were not rewritten (the entry's
    /// LRU position was refreshed).
    AlreadyPresent,
}

/// Point-in-time store statistics (index state plus counter values).
#[derive(Debug, Clone, PartialEq)]
pub struct StoreStats {
    /// Live artifacts.
    pub entries: usize,
    /// Live pinned artifacts.
    pub pinned: usize,
    /// Live artifacts stored as deltas.
    pub delta_entries: usize,
    /// On-disk bytes of live frames.
    pub live_bytes: u64,
    /// Decoded bytes the live artifacts represent.
    pub logical_bytes: u64,
    /// Total segment file bytes (live + dead awaiting compaction).
    pub file_bytes: u64,
    /// Configured budget.
    pub budget: Option<u64>,
    /// Distinct super-feature values in the candidate index.
    pub sf_table: usize,
    /// Live entries per chain depth: `chain_depths[d]` artifacts sit
    /// `d` delta hops from their raw ancestor. Empty when the store is.
    pub chain_depths: Vec<u64>,
    /// Reads answered from the store.
    pub hits: u64,
    /// Reads that found no live entry.
    pub misses: u64,
    /// Entries evicted by the budget policy.
    pub evictions: u64,
    /// Valid records replayed at open.
    pub recovered: u64,
    /// Torn/corrupt records dropped (at open or on read).
    pub quarantined: u64,
    /// Delta stored bytes over delta logical bytes (1.0 when no deltas).
    pub delta_ratio: f64,
}

impl std::fmt::Display for StoreStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "entries        {} ({} pinned, {} delta)",
            self.entries, self.pinned, self.delta_entries
        )?;
        writeln!(
            f,
            "live_bytes     {} (logical {}, files {})",
            self.live_bytes, self.logical_bytes, self.file_bytes
        )?;
        match self.budget {
            Some(b) => writeln!(f, "budget         {b}")?,
            None => writeln!(f, "budget         unlimited")?,
        }
        writeln!(f, "sf table       {}", self.sf_table)?;
        write!(f, "chain_depth   ")?;
        if self.chain_depths.is_empty() {
            write!(f, " -")?;
        }
        for (depth, n) in self.chain_depths.iter().enumerate() {
            write!(f, " {depth}:{n}")?;
        }
        writeln!(f)?;
        writeln!(f, "delta_ratio    {:.3}", self.delta_ratio)?;
        writeln!(f, "hits/misses    {}/{}", self.hits, self.misses)?;
        writeln!(f, "evictions      {}", self.evictions)?;
        write!(
            f,
            "recovered      {} (quarantined {})",
            self.recovered, self.quarantined
        )
    }
}

/// Result of one [`Store::verify`] sweep.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VerifyReport {
    /// Entries read and decoded successfully.
    pub ok: usize,
    /// Entries that failed, with the failure description.
    pub corrupt: Vec<(u128, String)>,
}

impl VerifyReport {
    /// Whether every live entry verified.
    #[must_use]
    pub fn pass(&self) -> bool {
        self.corrupt.is_empty()
    }
}

/// Result of one compaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GcOutcome {
    /// Segment-file bytes before compaction.
    pub before_bytes: u64,
    /// Segment-file bytes after compaction.
    pub after_bytes: u64,
    /// Live entries carried over.
    pub live_entries: usize,
}

#[derive(Debug, Clone)]
struct Entry {
    loc: Location,
    /// `Some(base)` for delta entries; `None` for raw.
    base: Option<u128>,
    logical_len: u32,
    pinned: bool,
    tick: u64,
    /// Delta hops to the raw ancestor ([`Inner::chain_depth`]), set by
    /// [`Inner::insert_entry`].
    depth: u32,
}

#[derive(Debug)]
struct Inner {
    log: SegmentLog,
    index: HashMap<u128, Entry>,
    /// Answers the delta-base candidate query. Rebuilt from decoded
    /// content at open, kept in sync afterwards.
    candidates: SketchIndex,
    /// Live delta count per base key.
    refs: HashMap<u128, u32>,
    /// Live entries per chain depth: `depths[d]` entries sit `d` hops
    /// from their raw ancestor. Never ends in a zero, so its length less
    /// one is the deepest live chain.
    depths: Vec<u64>,
    live_bytes: u64,
    file_bytes: u64,
    delta_stored: u64,
    delta_logical: u64,
    tick: u64,
}

/// The persistent content-addressed artifact store.
#[derive(Debug)]
pub struct Store {
    inner: Mutex<Inner>,
    dir: PathBuf,
    config: StoreConfig,
    hits: Counter,
    misses: Counter,
    evictions: Counter,
    recovered: Counter,
    quarantined: Counter,
    delta_ratio: Gauge,
    chain_depth_gauge: Gauge,
    live_bytes_gauge: Gauge,
    entries_gauge: Gauge,
}

impl Store {
    /// Opens the store in `dir` with a private metrics registry.
    ///
    /// # Errors
    ///
    /// I/O errors from the segment log (corrupt content never errors —
    /// it is quarantined and counted).
    pub fn open(dir: impl AsRef<Path>, config: StoreConfig) -> std::io::Result<Self> {
        Self::open_with_metrics(dir, config, &Metrics::new())
    }

    /// Opens the store, registering its `store.*` counters and gauges in
    /// `metrics` (the compile service passes its own registry so the
    /// counters surface on `/metrics`).
    ///
    /// # Errors
    ///
    /// I/O errors from the segment log.
    pub fn open_with_metrics(
        dir: impl AsRef<Path>,
        config: StoreConfig,
        metrics: &Metrics,
    ) -> std::io::Result<Self> {
        let dir = dir.as_ref().to_path_buf();
        let (log, records, recovery) = SegmentLog::open(&dir, SEGMENT_BYTES)?;

        let mut inner = Inner {
            log,
            index: HashMap::new(),
            candidates: SketchIndex::default(),
            refs: HashMap::new(),
            depths: Vec::new(),
            live_bytes: 0,
            file_bytes: 0,
            delta_stored: 0,
            delta_logical: 0,
            tick: 0,
        };

        let mut replay_quarantined = 0u64;
        for (loc, record) in records {
            inner.replay(loc, record);
        }
        // Counted from disk, not from replay: quarantined mid-log frames
        // still occupy file bytes.
        inner.file_bytes = inner.log.file_bytes()?;
        // Deltas whose base did not survive (quarantined, or the victim
        // of a corrupt eviction interleaving) are unreadable; so is
        // anything chained on top of them — drop to the fixpoint.
        loop {
            let orphans: Vec<u128> = inner
                .index
                .iter()
                .filter(|(_, e)| e.base.is_some_and(|b| !inner.index.contains_key(&b)))
                .map(|(k, _)| *k)
                .collect();
            if orphans.is_empty() {
                break;
            }
            for key in orphans {
                inner.remove_entry(key);
                replay_quarantined += 1;
            }
        }
        // Rebuild the candidate index from decoded content. Key order is
        // irrelevant to the index, but iterate sorted so failures
        // quarantine deterministically.
        let mut keys: Vec<u128> = inner.index.keys().copied().collect();
        keys.sort_unstable();
        for key in keys {
            if !inner.index.contains_key(&key) {
                continue; // removed as a dependent of an earlier failure
            }
            match inner.read_artifact(key, config.decode_budget_factor) {
                Ok(data) => inner.candidates.insert(key, &super_features(&data)),
                Err(_) => {
                    replay_quarantined += inner.remove_transitive(key).len() as u64;
                }
            }
        }
        // Replay set each depth from its base's depth at the time, and a
        // later record may have re-stored that base raw.
        inner.recompute_depths();

        let store = Self {
            inner: Mutex::new(inner),
            dir,
            config,
            hits: metrics.counter("store.hits"),
            misses: metrics.counter("store.misses"),
            evictions: metrics.counter("store.evictions"),
            recovered: metrics.counter("store.recovered"),
            quarantined: metrics.counter("store.quarantined"),
            delta_ratio: metrics.gauge("store.delta_ratio"),
            chain_depth_gauge: metrics.gauge("store.chain_depth"),
            live_bytes_gauge: metrics.gauge("store.live_bytes"),
            entries_gauge: metrics.gauge("store.entries"),
        };
        store.recovered.add(recovery.recovered);
        store
            .quarantined
            .add(recovery.quarantined + replay_quarantined);
        {
            let mut inner = store.inner.lock().unwrap();
            store.enforce_budget(&mut inner)?;
            store.publish_gauges(&inner);
        }
        Ok(store)
    }

    /// The directory this store lives in.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Stores `data` under `key`. Content-addressed keys are write-once:
    /// a live key is refreshed (LRU), not rewritten.
    ///
    /// # Errors
    ///
    /// I/O errors from the append or from budget enforcement.
    pub fn put(&self, key: u128, data: &[u8]) -> std::io::Result<PutOutcome> {
        self.put_inner(key, data, false)
    }

    /// Stores `data` under `key` and pins it: the eviction policy will
    /// never remove it. Pinning an already-live key just sets the pin.
    ///
    /// # Errors
    ///
    /// I/O errors from the append or from budget enforcement.
    pub fn put_pinned(&self, key: u128, data: &[u8]) -> std::io::Result<PutOutcome> {
        self.put_inner(key, data, true)
    }

    fn put_inner(&self, key: u128, data: &[u8], pin: bool) -> std::io::Result<PutOutcome> {
        let mut inner = self.inner.lock().unwrap();
        inner.tick += 1;
        let tick = inner.tick;
        if let Some(entry) = inner.index.get_mut(&key) {
            entry.tick = tick;
            let was_pinned = entry.pinned;
            entry.pinned = entry.pinned || pin;
            if pin && !was_pinned {
                inner.append(&Record::Pin { key })?;
            }
            return Ok(PutOutcome::AlreadyPresent);
        }

        // Similarity: the best eligible candidate.
        let sketch = super_features(data);
        let candidate = self.best_base(&inner, key, &sketch, data.len());
        let mut outcome = None;
        if let Some(base_key) = candidate {
            if let Ok(base_data) = inner.read_artifact(base_key, self.config.decode_budget_factor) {
                let encoded = delta::encode(&base_data, data);
                // The decision rule: delta wins iff its frame is strictly
                // smaller than the raw frame (both share FRAME_HEADER, so
                // compare payloads: delta carries 24 extra header bytes).
                if encoded.len() + 24 < data.len() {
                    let record = Record::PutDelta {
                        key,
                        base: base_key,
                        logical_len: data.len() as u32,
                        delta: encoded,
                    };
                    let loc = inner.append(&record)?;
                    inner.live_bytes += loc.frame_len();
                    inner.delta_stored += loc.frame_len();
                    inner.delta_logical += data.len() as u64;
                    *inner.refs.entry(base_key).or_insert(0) += 1;
                    inner.insert_entry(
                        key,
                        Entry {
                            loc,
                            base: Some(base_key),
                            logical_len: data.len() as u32,
                            pinned: pin,
                            tick,
                            depth: 0,
                        },
                    );
                    outcome = Some(PutOutcome::InsertedDelta {
                        stored_bytes: loc.frame_len(),
                        base: base_key,
                    });
                }
            }
        }
        if outcome.is_none() {
            let record = Record::PutRaw {
                key,
                data: data.to_vec(),
            };
            let loc = inner.append(&record)?;
            inner.live_bytes += loc.frame_len();
            inner.insert_entry(
                key,
                Entry {
                    loc,
                    base: None,
                    logical_len: data.len() as u32,
                    pinned: pin,
                    tick,
                    depth: 0,
                },
            );
            outcome = Some(PutOutcome::InsertedRaw {
                stored_bytes: loc.frame_len(),
            });
        }
        // Raw or delta, the artifact joins the candidate index so it
        // can serve as a base for what arrives next.
        inner.candidates.insert(key, &sketch);
        if pin {
            inner.append(&Record::Pin { key })?;
        }
        self.enforce_budget(&mut inner)?;
        self.maybe_compact(&mut inner)?;
        self.publish_gauges(&inner);
        Ok(outcome.expect("outcome set above"))
    }

    /// Ranks the candidates and returns the first one that passes the
    /// chain-depth and decode-budget gates. The gates walk a candidate's
    /// chain, so they run in rank order and stop at the first pass.
    ///
    /// Rank order: most shared super-features, then the smaller key —
    /// both pure functions of the live key set, so replay reproduces the
    /// choice exactly.
    fn best_base(
        &self,
        inner: &Inner,
        key: u128,
        sketch: &[u64; SUPER_FEATURES],
        data_len: usize,
    ) -> Option<u128> {
        if self.config.max_chain_depth == 0 {
            return None;
        }
        let max_depth = u32::from(self.config.max_chain_depth).min(MAX_CHAIN_STEPS);
        let budget =
            u64::from(self.config.decode_budget_factor).saturating_mul(data_len.max(1) as u64);
        let mut ranked: Vec<(u128, usize)> = inner
            .candidates
            .of(sketch)
            .into_iter()
            .filter(|&(k, _)| k != key)
            .collect();
        ranked.sort_unstable_by_key(|&(k, shared)| (std::cmp::Reverse(shared), k));
        ranked
            .into_iter()
            // Depth gate: chaining on this base stays within max_depth.
            .filter(|&(k, _)| inner.chain_depth(k) < max_depth)
            // Decode-cost gate: materializing the base's whole chain
            // plus the new artifact fits the read budget.
            .find(|&(k, _)| inner.chain_total_logical(k).saturating_add(data_len as u64) <= budget)
            .map(|(k, _)| k)
    }

    /// Fetches the artifact stored under `key`. Corrupt records are
    /// quarantined (removed, tombstoned, counted) and reported as a miss
    /// — the caller recomputes and re-puts.
    pub fn get(&self, key: u128) -> Option<Vec<u8>> {
        self.get_verified(key, Some)
    }

    /// Fetches the artifact stored under `key` and hands it to `verify`,
    /// a caller-level integrity check run without the store's lock. The
    /// read counts as a hit only when `verify` accepts it (returns
    /// `Some`); a rejected entry is quarantined as by [`Store::quarantine`]
    /// and the read counts as a miss, like a corrupt record.
    pub fn get_verified<T>(
        &self,
        key: u128,
        verify: impl FnOnce(Vec<u8>) -> Option<T>,
    ) -> Option<T> {
        let data = {
            let mut inner = self.inner.lock().unwrap();
            if !inner.index.contains_key(&key) {
                self.misses.inc();
                return None;
            }
            match inner.read_artifact(key, self.config.decode_budget_factor) {
                Ok(data) => {
                    inner.tick += 1;
                    let tick = inner.tick;
                    if let Some(entry) = inner.index.get_mut(&key) {
                        entry.tick = tick;
                    }
                    data
                }
                Err(_) => {
                    self.quarantine_locked(&mut inner, key);
                    self.publish_gauges(&inner);
                    self.misses.inc();
                    return None;
                }
            }
        };
        let verified = verify(data);
        if verified.is_some() {
            self.hits.inc();
        } else {
            self.quarantine(key);
            self.misses.inc();
        }
        verified
    }

    /// Whether `key` is live (no counters, no LRU touch).
    #[must_use]
    pub fn contains(&self, key: u128) -> bool {
        self.inner.lock().unwrap().index.contains_key(&key)
    }

    /// Live keys, ascending.
    #[must_use]
    pub fn keys(&self) -> Vec<u128> {
        let inner = self.inner.lock().unwrap();
        let mut keys: Vec<u128> = inner.index.keys().copied().collect();
        keys.sort_unstable();
        keys
    }

    /// Pins `key` (never evicted). No-op if the key is not live.
    ///
    /// # Errors
    ///
    /// I/O errors appending the pin record.
    pub fn pin(&self, key: u128) -> std::io::Result<bool> {
        let mut inner = self.inner.lock().unwrap();
        let Some(entry) = inner.index.get_mut(&key) else {
            return Ok(false);
        };
        if !entry.pinned {
            entry.pinned = true;
            inner.append(&Record::Pin { key })?;
        }
        Ok(true)
    }

    /// Unpins `key`. No-op if the key is not live.
    ///
    /// # Errors
    ///
    /// I/O errors appending the unpin record or enforcing the budget.
    pub fn unpin(&self, key: u128) -> std::io::Result<bool> {
        let mut inner = self.inner.lock().unwrap();
        let Some(entry) = inner.index.get_mut(&key) else {
            return Ok(false);
        };
        if entry.pinned {
            entry.pinned = false;
            inner.append(&Record::Unpin { key })?;
            self.enforce_budget(&mut inner)?;
            self.publish_gauges(&inner);
        }
        Ok(true)
    }

    /// Drops `key` from the store because a *caller-level* integrity
    /// check failed (e.g. the compile service could not re-verify a
    /// stored manifest). Counted under `store.quarantined`.
    pub fn quarantine(&self, key: u128) {
        let mut inner = self.inner.lock().unwrap();
        if inner.index.contains_key(&key) {
            self.quarantine_locked(&mut inner, key);
            self.publish_gauges(&inner);
        }
    }

    /// Fsyncs the log — the explicit durability point.
    ///
    /// # Errors
    ///
    /// The underlying fsync failure.
    pub fn flush(&self) -> std::io::Result<()> {
        self.inner.lock().unwrap().log.flush()
    }

    /// Reads and decodes every live entry, without touching LRU state or
    /// hit/miss counters. Corrupt entries are reported, not removed (use
    /// [`Store::get`]/[`Store::quarantine`] to act on them).
    #[must_use]
    pub fn verify(&self) -> VerifyReport {
        let inner = self.inner.lock().unwrap();
        let mut report = VerifyReport::default();
        let mut keys: Vec<u128> = inner.index.keys().copied().collect();
        keys.sort_unstable();
        for key in keys {
            match inner.read_artifact(key, self.config.decode_budget_factor) {
                Ok(data) => {
                    let expected = inner.index[&key].logical_len as usize;
                    if data.len() == expected {
                        report.ok += 1;
                    } else {
                        report.corrupt.push((
                            key,
                            format!("decoded {} bytes, expected {expected}", data.len()),
                        ));
                    }
                }
                Err(e) => report.corrupt.push((key, e.to_string())),
            }
        }
        report
    }

    /// Compacts the log: live records are rewritten into fresh segments
    /// and dead bytes are reclaimed.
    ///
    /// # Errors
    ///
    /// I/O errors from the rewrite.
    pub fn gc(&self) -> std::io::Result<GcOutcome> {
        let mut inner = self.inner.lock().unwrap();
        let outcome = self.gc_locked(&mut inner)?;
        self.publish_gauges(&inner);
        Ok(outcome)
    }

    fn gc_locked(&self, inner: &mut Inner) -> std::io::Result<GcOutcome> {
        let before_bytes = inner.log.file_bytes()?;
        // Shallow entries first so a half-compacted log never holds a
        // delta whose base only exists in a to-be-deleted segment... it
        // would anyway (old segments survive until the new ones are
        // fsynced), but the ordering also keeps the replay post-pass
        // trivially satisfied at any chain depth.
        let mut keys: Vec<u128> = inner.index.keys().copied().collect();
        keys.sort_unstable_by_key(|&k| (inner.chain_depth(k), k));
        let mut records = Vec::with_capacity(keys.len());
        for &key in &keys {
            records.push(inner.log.read(inner.index[&key].loc)?);
        }
        for &key in &keys {
            if inner.index[&key].pinned {
                records.push(Record::Pin { key });
            }
        }
        let locations = inner.log.compact(&records)?;
        let mut live = 0u64;
        for (key, loc) in keys.iter().zip(&locations) {
            inner.index.get_mut(key).expect("live key").loc = *loc;
            live += loc.frame_len();
        }
        inner.live_bytes = live;
        inner.file_bytes = inner.log.file_bytes()?;
        Ok(GcOutcome {
            before_bytes,
            after_bytes: inner.file_bytes,
            live_entries: keys.len(),
        })
    }

    /// Point-in-time statistics.
    #[must_use]
    pub fn stats(&self) -> StoreStats {
        let inner = self.inner.lock().unwrap();
        let logical: u64 = inner.index.values().map(|e| u64::from(e.logical_len)).sum();
        StoreStats {
            entries: inner.index.len(),
            pinned: inner.index.values().filter(|e| e.pinned).count(),
            delta_entries: inner.index.values().filter(|e| e.base.is_some()).count(),
            live_bytes: inner.live_bytes,
            logical_bytes: logical,
            file_bytes: inner.file_bytes,
            budget: self.config.budget,
            sf_table: inner.candidates.by_feature.len(),
            chain_depths: inner.depths.clone(),
            hits: self.hits.get(),
            misses: self.misses.get(),
            evictions: self.evictions.get(),
            recovered: self.recovered.get(),
            quarantined: self.quarantined.get(),
            delta_ratio: ratio(inner.delta_stored, inner.delta_logical),
        }
    }

    /// Removes `key` and every delta that (transitively) depends on it —
    /// none of them can decode without it. Tombstones are appended
    /// best-effort so the quarantine survives restart.
    fn quarantine_locked(&self, inner: &mut Inner, key: u128) {
        for k in inner.remove_transitive(key) {
            let _ = inner.append(&Record::Evict { key: k });
            self.quarantined.inc();
        }
    }

    /// Evicts least-recently-used unpinned entries until live bytes fit
    /// the budget. Bases with live delta references are rewritten on
    /// evict: dependents are re-stored raw first.
    fn enforce_budget(&self, inner: &mut Inner) -> std::io::Result<()> {
        let Some(budget) = self.config.budget else {
            return Ok(());
        };
        while inner.live_bytes > budget {
            // Preferred victim: LRU among unpinned entries nothing
            // references.
            let victim = inner
                .index
                .iter()
                .filter(|(k, e)| !e.pinned && inner.refs.get(k).copied().unwrap_or(0) == 0)
                .min_by_key(|(k, e)| (e.tick, **k))
                .map(|(k, _)| *k);
            let victim = match victim {
                Some(v) => v,
                None => {
                    // Only referenced bases (or nothing) left unpinned:
                    // rewrite the LRU base's dependents raw, then retry.
                    let Some(base) = inner
                        .index
                        .iter()
                        .filter(|(_, e)| !e.pinned)
                        .min_by_key(|(k, e)| (e.tick, **k))
                        .map(|(k, _)| *k)
                    else {
                        break; // everything live is pinned
                    };
                    self.rewrite_dependents_raw(inner, base)?;
                    continue;
                }
            };
            let removed = inner.remove_entry(victim);
            debug_assert!(removed);
            inner.append(&Record::Evict { key: victim })?;
            self.evictions.inc();
        }
        Ok(())
    }

    /// Re-stores every delta that references `base` as a raw record,
    /// dropping the reference count to zero so `base` becomes evictable.
    /// Grand-dependents are untouched: a rewritten dependent keeps its
    /// key and decoded content, so deltas chained on it still resolve.
    fn rewrite_dependents_raw(&self, inner: &mut Inner, base: u128) -> std::io::Result<()> {
        let dependents: Vec<u128> = inner
            .index
            .iter()
            .filter(|(_, e)| e.base == Some(base))
            .map(|(k, _)| *k)
            .collect();
        for key in dependents {
            let data = inner.read_artifact(key, self.config.decode_budget_factor)?;
            let entry = inner.index.get(&key).expect("dependent is live").clone();
            let loc = inner.append(&Record::PutRaw { key, data })?;
            inner.live_bytes = inner.live_bytes - entry.loc.frame_len() + loc.frame_len();
            inner.delta_stored -= entry.loc.frame_len();
            inner.delta_logical -= u64::from(entry.logical_len);
            if let Some(n) = inner.refs.get_mut(&base) {
                *n = n.saturating_sub(1);
            }
            let e = inner.index.get_mut(&key).expect("dependent is live");
            e.loc = loc;
            e.base = None;
            // The sketch stays indexed: decoded content is unchanged,
            // only the storage form moved.
        }
        inner.refs.remove(&base);
        // The rewritten dependents are raw now, and what chains on them
        // is that much shallower.
        inner.recompute_depths();
        Ok(())
    }

    /// Auto-compaction: reclaim disk once dead bytes exceed live bytes
    /// plus one segment (so small stores never churn).
    fn maybe_compact(&self, inner: &mut Inner) -> std::io::Result<()> {
        let dead = inner.file_bytes.saturating_sub(inner.live_bytes);
        if dead > inner.live_bytes + SEGMENT_BYTES {
            self.gc_locked(inner)?;
        }
        Ok(())
    }

    fn publish_gauges(&self, inner: &Inner) {
        self.delta_ratio
            .set(ratio(inner.delta_stored, inner.delta_logical));
        let max_depth = inner.depths.len().saturating_sub(1);
        self.chain_depth_gauge.set(max_depth as f64);
        self.live_bytes_gauge.set(inner.live_bytes as f64);
        self.entries_gauge.set(inner.index.len() as f64);
    }
}

fn ratio(stored: u64, logical: u64) -> f64 {
    if logical == 0 {
        1.0
    } else {
        stored as f64 / logical as f64
    }
}

impl Inner {
    fn append(&mut self, record: &Record) -> std::io::Result<Location> {
        let loc = self.log.append(record)?;
        self.file_bytes += loc.frame_len();
        Ok(loc)
    }

    /// Reads the decoded bytes of a live entry, re-verifying CRCs along
    /// the way and resolving delta chains base-ward. Two runaway guards:
    /// a hard step ceiling ([`MAX_CHAIN_STEPS`]) against cyclic links,
    /// and the decode-cost budget — the chain may materialize at most
    /// `budget_factor` × the artifact's declared length, enforced from
    /// the records actually read, before any oversized buffer exists.
    fn read_artifact(&self, key: u128, budget_factor: u32) -> std::io::Result<Vec<u8>> {
        let corrupt = |msg: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, msg);
        let entry = self
            .index
            .get(&key)
            .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::NotFound, "not live"))?;
        let budget =
            u64::from(budget_factor.max(1)).saturating_mul(u64::from(entry.logical_len).max(1));

        // Walk base-ward, collecting each hop's delta, until raw.
        let mut chain: Vec<(u32, Vec<u8>)> = Vec::new();
        let mut cursor = key;
        let base_data = loop {
            if chain.len() as u32 > MAX_CHAIN_STEPS {
                return Err(corrupt("delta chain too long (corrupt base links)"));
            }
            let e = self
                .index
                .get(&cursor)
                .ok_or_else(|| corrupt("delta base not live"))?;
            match self.log.read(e.loc)? {
                Record::PutRaw { key: k, data } if k == cursor => break data,
                Record::PutDelta {
                    key: k,
                    base,
                    logical_len,
                    delta,
                } if k == cursor => {
                    chain.push((logical_len, delta));
                    cursor = base;
                }
                _ => return Err(corrupt("frame key changed since indexing")),
            }
        };

        // Apply deltas raw-base-outward, metering decoded bytes.
        let mut decoded_total = base_data.len() as u64;
        let mut data = base_data;
        for (logical_len, delta_bytes) in chain.into_iter().rev() {
            decoded_total = decoded_total.saturating_add(u64::from(logical_len));
            if decoded_total > budget {
                return Err(corrupt("delta chain exceeds decode budget"));
            }
            data = delta::decode(&data, &delta_bytes, logical_len as usize)
                .map_err(|e| corrupt(&e.to_string()))?;
            if data.len() != logical_len as usize {
                return Err(corrupt("decoded length disagrees with record"));
            }
        }
        Ok(data)
    }

    /// Delta hops between `key` and its raw ancestor (0 for raw entries
    /// and for untracked keys), as [`Inner::walk_depth`] counts them:
    /// kept per entry, so no chain is walked.
    fn chain_depth(&self, key: u128) -> u32 {
        self.index.get(&key).map_or(0, |e| e.depth)
    }

    /// Inserts a live entry, setting its depth one past its base's (or
    /// 0 when raw) and counting it in the depth histogram.
    fn insert_entry(&mut self, key: u128, mut entry: Entry) {
        entry.depth = entry
            .base
            .map_or(0, |base| (self.chain_depth(base) + 1).min(MAX_CHAIN_STEPS));
        self.count_depth(entry.depth);
        self.index.insert(key, entry);
    }

    fn count_depth(&mut self, depth: u32) {
        let d = depth as usize;
        if self.depths.len() <= d {
            self.depths.resize(d + 1, 0);
        }
        self.depths[d] += 1;
    }

    /// Sets every entry's depth from a walk of its chain and rebuilds the
    /// histogram: for the rare changes that move a live base (replay,
    /// rewrite-on-evict).
    fn recompute_depths(&mut self) {
        let walked: Vec<(u128, u32)> = self
            .index
            .keys()
            .map(|&k| (k, self.walk_depth(k)))
            .collect();
        self.depths.clear();
        for (key, depth) in walked {
            self.index.get_mut(&key).expect("live key").depth = depth;
            self.count_depth(depth);
        }
    }

    /// Delta hops between `key` and its raw ancestor, counted by walking
    /// the live index: a missing base ends the walk, and cycles are cut
    /// at [`MAX_CHAIN_STEPS`].
    fn walk_depth(&self, key: u128) -> u32 {
        let mut depth = 0u32;
        let mut cursor = self.index.get(&key);
        while let Some(entry) = cursor {
            match entry.base {
                Some(base) if depth < MAX_CHAIN_STEPS => {
                    depth += 1;
                    cursor = self.index.get(&base);
                }
                _ => break,
            }
        }
        depth
    }

    /// Total bytes materialized to decode `key`: its own logical length
    /// plus every link down to (and including) the raw ancestor.
    fn chain_total_logical(&self, key: u128) -> u64 {
        let mut total = 0u64;
        let mut steps = 0u32;
        let mut cursor = self.index.get(&key);
        while let Some(entry) = cursor {
            total = total.saturating_add(u64::from(entry.logical_len));
            match entry.base {
                Some(base) if steps < MAX_CHAIN_STEPS => {
                    steps += 1;
                    cursor = self.index.get(&base);
                }
                _ => break,
            }
        }
        total
    }

    /// Removes `key` and every (transitive) dependent delta from the
    /// in-memory state. Returns the keys actually removed, dependents
    /// in BFS order after the root.
    fn remove_transitive(&mut self, key: u128) -> Vec<u128> {
        let mut doomed = vec![key];
        let mut at = 0;
        while at < doomed.len() {
            let parent = doomed[at];
            at += 1;
            let mut dependents: Vec<u128> = self
                .index
                .iter()
                .filter(|(_, e)| e.base == Some(parent))
                .map(|(k, _)| *k)
                .collect();
            dependents.sort_unstable();
            for d in dependents {
                if !doomed.contains(&d) {
                    doomed.push(d);
                }
            }
        }
        doomed.retain(|&k| self.remove_entry(k));
        doomed
    }

    /// Replays one recovered record into the index (log order).
    fn replay(&mut self, loc: Location, record: Record) {
        self.tick += 1;
        let tick = self.tick;
        match record {
            Record::PutRaw { key, data } => {
                // A repeated put for a live key is an internal rewrite
                // (rewrite-on-evict / compaction): the pin state carries
                // over, even though the pin record precedes this frame.
                let pinned = self.index.get(&key).is_some_and(|e| e.pinned);
                self.displace(key);
                self.live_bytes += loc.frame_len();
                self.insert_entry(
                    key,
                    Entry {
                        loc,
                        base: None,
                        logical_len: data.len() as u32,
                        pinned,
                        tick,
                        depth: 0,
                    },
                );
            }
            Record::PutDelta {
                key,
                base,
                logical_len,
                ..
            } => {
                let pinned = self.index.get(&key).is_some_and(|e| e.pinned);
                self.displace(key);
                self.live_bytes += loc.frame_len();
                self.delta_stored += loc.frame_len();
                self.delta_logical += u64::from(logical_len);
                *self.refs.entry(base).or_insert(0) += 1;
                self.insert_entry(
                    key,
                    Entry {
                        loc,
                        base: Some(base),
                        logical_len,
                        pinned,
                        tick,
                        depth: 0,
                    },
                );
            }
            Record::Evict { key } => {
                self.displace(key);
            }
            Record::Pin { key } => {
                if let Some(entry) = self.index.get_mut(&key) {
                    entry.pinned = true;
                }
            }
            Record::Unpin { key } => {
                if let Some(entry) = self.index.get_mut(&key) {
                    entry.pinned = false;
                }
            }
        }
    }

    /// Removes any live entry for `key` (replay-time overwrite/evict).
    fn displace(&mut self, key: u128) {
        self.remove_entry(key);
    }

    /// Removes `key` from every in-memory structure. Returns whether it
    /// was live. (The on-disk frame becomes dead bytes.)
    fn remove_entry(&mut self, key: u128) -> bool {
        let Some(entry) = self.index.remove(&key) else {
            return false;
        };
        self.depths[entry.depth as usize] -= 1;
        while self.depths.last() == Some(&0) {
            self.depths.pop();
        }
        self.live_bytes = self.live_bytes.saturating_sub(entry.loc.frame_len());
        if let Some(base) = entry.base {
            self.delta_stored = self.delta_stored.saturating_sub(entry.loc.frame_len());
            self.delta_logical = self
                .delta_logical
                .saturating_sub(u64::from(entry.logical_len));
            if let Some(n) = self.refs.get_mut(&base) {
                *n = n.saturating_sub(1);
                if *n == 0 {
                    self.refs.remove(&base);
                }
            }
        }
        // Tolerates unindexed keys: during replay the candidate index is
        // still empty (it is rebuilt from decoded content afterwards).
        self.candidates.remove(key);
        true
    }
}

/// The delta-base candidate index: super-feature value → live keys
/// carrying it (ascending), plus each key's distinct values so removal
/// can unindex it.
#[derive(Debug, Default)]
struct SketchIndex {
    by_feature: HashMap<u64, Vec<u128>>,
    sketches: HashMap<u128, Vec<u64>>,
}

impl SketchIndex {
    /// Indexes `key` under each distinct value of `sketch`.
    fn insert(&mut self, key: u128, sketch: &[u64; SUPER_FEATURES]) {
        let values = distinct(sketch);
        for &sf in &values {
            let keys = self.by_feature.entry(sf).or_default();
            if let Err(at) = keys.binary_search(&key) {
                keys.insert(at, key);
            }
        }
        self.sketches.insert(key, values);
    }

    /// Drops `key` from the index (no-op when unindexed).
    fn remove(&mut self, key: u128) {
        for sf in self.sketches.remove(&key).unwrap_or_default() {
            if let Some(keys) = self.by_feature.get_mut(&sf) {
                if let Ok(at) = keys.binary_search(&key) {
                    keys.remove(at);
                }
                if keys.is_empty() {
                    self.by_feature.remove(&sf);
                }
            }
        }
    }

    /// Every indexed key sharing at least one value with `sketch`, with
    /// its count of shared distinct values — the delta-base candidates.
    fn of(&self, sketch: &[u64; SUPER_FEATURES]) -> HashMap<u128, usize> {
        let mut tally = HashMap::new();
        for sf in distinct(sketch) {
            for &key in self.by_feature.get(&sf).into_iter().flatten() {
                *tally.entry(key).or_insert(0) += 1;
            }
        }
        tally
    }
}

/// The distinct values of a sketch, ascending.
fn distinct(sketch: &[u64; SUPER_FEATURES]) -> Vec<u64> {
    let mut values = sketch.to_vec();
    values.sort_unstable();
    values.dedup();
    values
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn candidates_report_share_counts() {
        let mut index = SketchIndex::default();
        index.insert(1, &[10, 11, 12]);
        index.insert(2, &[10, 11, 99]);
        index.insert(3, &[40, 41, 42]);
        let expected: HashMap<u128, usize> = [(1, 3), (2, 2)].into();
        assert_eq!(index.of(&[10, 11, 12]), expected);
        // Repeated values in the probe count once.
        assert_eq!(index.of(&[10, 10, 10]), [(1, 1), (2, 1)].into());
    }

    /// The base choice before the gates ran lazily, kept as the spec:
    /// gate every candidate, then take the maximum of (shared, smaller
    /// key).
    fn reference_best_base(
        store: &Store,
        inner: &Inner,
        key: u128,
        sketch: &[u64; SUPER_FEATURES],
        data_len: usize,
    ) -> Option<u128> {
        if store.config.max_chain_depth == 0 {
            return None;
        }
        let max_depth = u32::from(store.config.max_chain_depth).min(MAX_CHAIN_STEPS);
        let budget =
            u64::from(store.config.decode_budget_factor).saturating_mul(data_len.max(1) as u64);
        inner
            .candidates
            .of(sketch)
            .into_iter()
            .filter(|&(k, _)| k != key)
            .filter(|&(k, _)| inner.chain_depth(k) < max_depth)
            .filter(|&(k, _)| {
                inner.chain_total_logical(k).saturating_add(data_len as u64) <= budget
            })
            .max_by_key(|&(k, shared)| (shared, std::cmp::Reverse(k)))
            .map(|(k, _)| k)
    }

    /// Candidates that tie on shared super-features, where the top-ranked
    /// ones fail the depth or the decode-budget gate: the pick is the
    /// first passing one in rank order, as the eager `max_by_key` chose.
    #[test]
    fn best_base_skips_gated_candidates_in_rank_order() {
        let dir = std::env::temp_dir().join(format!("ppet-store-best-base-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = StoreConfig::default()
            .with_chain_depth(2)
            .with_decode_budget_factor(4);
        let store = Store::open(&dir, config).unwrap();
        let mut inner = store.inner.lock().unwrap();
        let add = |inner: &mut Inner, key, base, len, sketch: [u64; SUPER_FEATURES]| {
            inner.insert_entry(
                key,
                Entry {
                    loc: Location {
                        segment: 0,
                        offset: 0,
                        payload_len: 0,
                    },
                    base,
                    logical_len: len,
                    pinned: false,
                    tick: 0,
                    depth: 0,
                },
            );
            inner.candidates.insert(key, &sketch);
        };
        let probe: [u64; SUPER_FEATURES] = std::array::from_fn(|i| 1000 + i as u64);
        let sharing = |n: usize| -> [u64; SUPER_FEATURES] {
            std::array::from_fn(|i| if i < n { probe[i] } else { 9000 + i as u64 })
        };
        // A chain 1 ← 2 ← 3: key 3 sits at depth 2, the gate's limit.
        add(&mut inner, 1, None, 100, sharing(1));
        add(&mut inner, 2, Some(1), 100, sharing(1));
        add(&mut inner, 3, Some(2), 100, sharing(3));
        // Key 4 shares as much as 3 but its chain is too long to decode
        // within 4 × 100 bytes once the new artifact is added.
        add(&mut inner, 10, None, 250, sharing(1));
        add(&mut inner, 4, Some(10), 100, sharing(3));
        // Keys 5 and 6 tie below them; 5 is the smaller key and passes.
        add(&mut inner, 6, None, 100, sharing(2));
        add(&mut inner, 5, None, 100, sharing(2));
        add(&mut inner, 7, None, 100, sharing(1));

        let pick = |inner: &Inner, key, len| {
            let lazy = store.best_base(inner, key, &probe, len);
            assert_eq!(lazy, reference_best_base(&store, inner, key, &probe, len));
            lazy
        };
        assert_eq!(pick(&inner, 99, 100), Some(5));
        // A roomier budget lets key 4 through: it ranks first once 3 is
        // gated.
        assert_eq!(pick(&inner, 99, 200), Some(4));
        // The new key never bases on itself.
        assert_eq!(pick(&inner, 5, 100), Some(6));
        // Once raw, key 3 passes both gates and wins its tie with 4 on
        // the smaller key.
        inner.index.get_mut(&3).unwrap().base = None;
        inner.recompute_depths();
        assert_eq!(pick(&inner, 99, 100), Some(3));
        drop(inner);
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// `words` pseudo-random 8-byte words from `seed`.
    fn noise(seed: u64, words: usize) -> Vec<u8> {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        (0..words)
            .flat_map(|_| {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                state.to_le_bytes()
            })
            .collect()
    }

    /// Asserts that every entry's kept depth, the depth histogram and the
    /// published maximum agree with a walk of every chain, and returns
    /// that maximum.
    fn assert_depths_walked(store: &Store, metrics: &Metrics) -> u32 {
        let inner = store.inner.lock().unwrap();
        let mut histogram: Vec<u64> = Vec::new();
        for (&key, entry) in &inner.index {
            let walked = inner.walk_depth(key) as usize;
            assert_eq!(entry.depth as usize, walked, "key {key}");
            if histogram.len() <= walked {
                histogram.resize(walked + 1, 0);
            }
            histogram[walked] += 1;
        }
        assert_eq!(inner.depths, histogram);
        let max = inner.index.keys().map(|&k| inner.walk_depth(k)).max();
        let gauge = metrics.gauge("store.chain_depth").get();
        assert_eq!(gauge, f64::from(max.unwrap_or(0)));
        max.unwrap_or(0)
    }

    /// Chains of near-duplicates, put, evicted under a budget (which
    /// rewrites referenced bases' dependents raw), reopened, quarantined
    /// and compacted: the depths kept since insertion always equal a
    /// full walk, and so does the published maximum.
    #[test]
    fn kept_chain_depths_match_a_full_walk() {
        let dir = std::env::temp_dir().join(format!("ppet-store-depths-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        // Four families of four generations: each splices 1 KiB of fresh
        // bytes into its parent and appends a short tail.
        let mut artifacts = Vec::new();
        for family in 0..4u64 {
            let mut v = noise(family, 2048);
            for generation in 0..4u64 {
                if generation > 0 {
                    let at = 1024 * (2 + 3 * generation as usize);
                    v.splice(at..at + 1024, noise(100 * family + generation, 128));
                    v.extend_from_slice(format!("generation {generation}").as_bytes());
                }
                artifacts.push((u128::from(16 * family + generation), v.clone()));
            }
        }
        let config = StoreConfig::default().with_chain_depth(3);
        let metrics = Metrics::new();
        let store = Store::open_with_metrics(&dir, config.clone(), &metrics).unwrap();
        let mut deepest = 0;
        for (key, data) in &artifacts {
            store.put(*key, data).unwrap();
            deepest = deepest.max(assert_depths_walked(&store, &metrics));
        }
        assert!(deepest >= 2, "no chain formed: deepest {deepest}");
        // Family 1 forms the chain 16 ← 17 ← 18 ← 19. Pin all but its
        // root, and reopen under a budget that holds the chain once 17 is
        // raw and 16 gone, but not before: everything else is evicted,
        // then 17 is rewritten raw so 16 can go, and 18 and 19 each sit
        // one hop nearer a raw ancestor.
        let frame = |key| store.inner.lock().unwrap().index[&key].loc.frame_len();
        assert_eq!(store.inner.lock().unwrap().walk_depth(19), 3);
        let budget = frame(16) + frame(18) + frame(19) + frame(17) / 2;
        for key in 17..=19 {
            store.pin(key).unwrap();
        }
        store.flush().unwrap();
        drop(store);
        let metrics = Metrics::new();
        let tight = config.clone().with_budget(budget);
        let store = Store::open_with_metrics(&dir, tight, &metrics).unwrap();
        assert_depths_walked(&store, &metrics);
        assert_eq!(store.keys(), [17, 18, 19]);
        assert_eq!(store.stats().chain_depths, [1, 1, 1]);
        for (key, data) in artifacts.iter().rev() {
            store.put(*key ^ 0x1000, data).unwrap();
            assert_depths_walked(&store, &metrics);
        }
        store.flush().unwrap();
        drop(store);

        // Without a budget: the replay meets each rewritten base after
        // the deltas chained on it; puts chain again; quarantining a base
        // drops its dependents; compaction keeps every depth.
        let metrics = Metrics::new();
        let store = Store::open_with_metrics(&dir, config, &metrics).unwrap();
        assert_depths_walked(&store, &metrics);
        store.gc().unwrap();
        assert_depths_walked(&store, &metrics);
        for (key, data) in &artifacts {
            store.put(*key ^ 0x2000, data).unwrap();
        }
        assert!(assert_depths_walked(&store, &metrics) >= 2);
        store.quarantine(0x2000);
        assert_depths_walked(&store, &metrics);
        store.gc().unwrap();
        assert_depths_walked(&store, &metrics);
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sf_table_len_tracks_distinct_values() {
        let mut index = SketchIndex::default();
        index.insert(1, &[10, 10, 12]);
        index.insert(2, &[12, 13, 14]);
        assert_eq!(index.by_feature.len(), 4);
        index.remove(1);
        assert_eq!(index.by_feature.len(), 3);
        assert_eq!(index.of(&[10, 12, 99]), [(2, 1)].into());
        index.remove(2);
        index.remove(2);
        assert!(index.by_feature.is_empty() && index.sketches.is_empty());
    }
}
