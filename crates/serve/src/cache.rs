//! The content-addressed result cache with in-flight coalescing.
//!
//! The key is a 128-bit FNV-1a hash over the circuit's canonical
//! `.bench` bytes, the engine epoch ([`ENGINE_EPOCH`]), the effective
//! config entries, and the effective seed —
//! each field length-prefixed so concatenations cannot collide (see
//! [`ppet_netlist::canonical`]). The circuit's frame is hashed once, when
//! its `HashedCircuit` is built; [`CacheKey::of`] resumes from there.
//! Because the compiler is deterministic,
//! equal keys *must* produce byte-identical manifests (modulo the
//! `wall_ns`/`jobs` entries, which are part of the manifest but not the
//! result), so a hit can return the stored body outright.
//!
//! Identical requests that arrive while the first is still compiling
//! coalesce: the first requester inserts a `Pending` slot holding a
//! [`Gate`]; later requesters wait on the gate instead of submitting a
//! second compile. Failures are never cached — the pending slot is
//! removed so the next request retries.

use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use ppet_netlist::canonical::{content_hash, Fnv128};
use ppet_netlist::Circuit;
use ppet_trace::{SpanData, ENGINE_EPOCH};

use crate::request::{BackendError, NormalizedRequest};

/// Locks `mutex`, entering the critical section even if a previous
/// holder panicked. Every lock in this module guards plain data whose
/// invariants hold at every panic point (each write is a single
/// assignment or a `HashMap` operation that is valid before and after),
/// so the poison flag carries no information here — while honouring it
/// would let one panicking request, or a panicking user-supplied
/// backend, permanently kill a cache slot or strand every waiter on a
/// gate.
fn lock_unpoisoned<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The cache key: a 128-bit content hash of `(circuit, engine epoch,
/// config, seed)`.
///
/// The derivation is fixed: stored entries on disk and the router's
/// agreement with its shards both depend on every key staying
/// byte-identical, and a test pins the keys of known requests. The keys
/// change only when [`ENGINE_EPOCH`] does, so an upgraded engine never
/// looks up an older engine's answers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheKey(pub u128);

impl CacheKey {
    /// Derives the key for a normalized request. The circuit's frame was
    /// hashed when its [`HashedCircuit`](ppet_netlist::canonical::HashedCircuit)
    /// was built, so this resumes from that digest and hashes only the
    /// config entries and the seed; the key equals [`CacheKey::derive`]'s.
    #[must_use]
    pub fn of(normalized: &NormalizedRequest) -> Self {
        Self::resume(
            normalized.circuit.content_hash(),
            &normalized.config_entries,
            normalized.seed,
        )
    }

    /// Derives the key from the constituent parts: FNV-1a-128 over the
    /// frames of the circuit's canonical bytes, the engine epoch, each
    /// config key and value, and the seed.
    #[must_use]
    pub fn derive(circuit: &Circuit, config_entries: &[(String, String)], seed: u64) -> Self {
        Self::resume(content_hash(circuit), config_entries, seed)
    }

    /// Continues [`CacheKey::derive`]'s hash after the circuit frame,
    /// whose digest is the circuit's [`content_hash`].
    fn resume(circuit_hash: u128, config_entries: &[(String, String)], seed: u64) -> Self {
        let mut hasher = Fnv128::resume(circuit_hash);
        hasher.write_frame(&ENGINE_EPOCH.to_le_bytes());
        for (k, v) in config_entries {
            hasher.write_frame(k.as_bytes());
            hasher.write_frame(v.as_bytes());
        }
        hasher.write_frame(&seed.to_le_bytes());
        CacheKey(hasher.finish())
    }
}

impl std::fmt::Display for CacheKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

/// The outcome a waiter observes for one compile.
pub type CompileResult = Result<Arc<String>, BackendError>;

/// A one-shot broadcast cell: the owning thread fills it once, any
/// number of coalesced waiters block on it (with a deadline). The
/// payload defaults to a compile outcome; the cluster router coalesces
/// proxied replies through the same cell.
#[derive(Debug)]
pub struct Gate<T = CompileResult> {
    slot: Mutex<Option<T>>,
    ready: Condvar,
    /// The compile's span tree, published by the compiling thread before
    /// it fills the gate so every coalesced waiter can graft the *same*
    /// tree into its own request trace.
    trace: Mutex<Option<Arc<Vec<SpanData>>>>,
}

impl Default for Gate {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Clone> Gate<T> {
    /// An empty gate.
    #[must_use]
    pub fn new() -> Self {
        Self {
            slot: Mutex::new(None),
            ready: Condvar::new(),
            trace: Mutex::new(None),
        }
    }

    /// Fills the gate and wakes all waiters. Later fills are ignored —
    /// the first result wins, matching "the first requester compiles".
    pub fn fill(&self, result: T) {
        let mut slot = lock_unpoisoned(&self.slot);
        if slot.is_none() {
            *slot = Some(result);
        }
        drop(slot);
        self.ready.notify_all();
    }

    /// Publishes the compile's span tree. First write wins; call before
    /// [`Gate::fill`] so waiters observe it once the result is visible.
    pub fn set_trace(&self, spans: Arc<Vec<SpanData>>) {
        let mut trace = lock_unpoisoned(&self.trace);
        if trace.is_none() {
            *trace = Some(spans);
        }
    }

    /// The compile's span tree, shared by every waiter on this gate.
    #[must_use]
    pub fn trace(&self) -> Option<Arc<Vec<SpanData>>> {
        lock_unpoisoned(&self.trace).clone()
    }

    /// Waits up to `timeout` for the result, the deadline starting now.
    /// `None` means the deadline passed with the compile still running.
    /// A timeout too large to represent as a deadline waits indefinitely
    /// (the overflow-safe reading of an astronomical timeout) instead of
    /// panicking.
    #[must_use]
    pub fn wait(&self, timeout: Duration) -> Option<T> {
        self.wait_deadline(Instant::now().checked_add(timeout))
    }

    /// Waits until `deadline` for the result; `None` waits indefinitely.
    ///
    /// The deadline is fixed by the caller — typically at request entry,
    /// so time spent in earlier phases (parsing, normalization, queueing)
    /// counts against the same budget instead of restarting it here. An
    /// already-expired deadline still observes a result that is present,
    /// but otherwise returns `None` immediately: no zero-duration
    /// condvar spin, and a fill that lands later is picked up from the
    /// cache by the client's retry.
    #[must_use]
    pub fn wait_deadline(&self, deadline: Option<Instant>) -> Option<T> {
        let mut slot = lock_unpoisoned(&self.slot);
        loop {
            if let Some(result) = slot.as_ref() {
                return Some(result.clone());
            }
            slot = match deadline {
                Some(deadline) => {
                    let remaining = deadline
                        .checked_duration_since(Instant::now())
                        .filter(|rem| !rem.is_zero())?;
                    self.ready
                        .wait_timeout(slot, remaining)
                        .unwrap_or_else(PoisonError::into_inner)
                        .0
                }
                None => self
                    .ready
                    .wait(slot)
                    .unwrap_or_else(PoisonError::into_inner),
            };
        }
    }
}

#[derive(Debug, Clone)]
enum Slot {
    /// A compile for this key is in flight; waiters block on the gate.
    Pending(Arc<Gate>),
    /// A finished manifest, returned verbatim on every future hit. The
    /// tick orders completed entries for LRU eviction.
    Done { body: Arc<String>, tick: u64 },
}

/// What [`ResultCache::claim`] tells the caller to do.
#[derive(Debug)]
pub enum Claim {
    /// The manifest is cached; return it.
    Hit(Arc<String>),
    /// An identical compile is in flight; wait on this gate.
    Wait(Arc<Gate>),
    /// The caller owns the compile; fill the gate, then
    /// [`ResultCache::complete`] or [`ResultCache::abandon`] the key.
    Compute(Arc<Gate>),
}

#[derive(Debug, Default)]
struct Slots {
    map: HashMap<u128, Slot>,
    tick: u64,
}

/// The content-addressed manifest cache, bounded to a maximum number of
/// *completed* entries (least-recently-used entries are dropped beyond
/// it). Pending slots are exempt — they represent in-flight work and
/// dropping one would orphan coalesced waiters. With the persistent
/// store mounted this cache is the hot tier: an evicted manifest is one
/// store read away, not a recompile.
#[derive(Debug)]
pub struct ResultCache {
    slots: Mutex<Slots>,
    capacity: usize,
}

/// Default bound on completed entries; generous for manifests (a few KiB
/// each) while keeping a long-running server's memory flat.
pub const DEFAULT_CACHE_CAPACITY: usize = 1024;

impl Default for ResultCache {
    fn default() -> Self {
        Self::new()
    }
}

impl ResultCache {
    /// An empty cache with the default capacity.
    #[must_use]
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_CACHE_CAPACITY)
    }

    /// An empty cache bounded to `capacity` completed entries (minimum 1).
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            slots: Mutex::new(Slots::default()),
            capacity: capacity.max(1),
        }
    }

    /// Looks up `key`, registering a pending slot when it is absent. A
    /// hit refreshes the entry's LRU position.
    pub fn claim(&self, key: CacheKey) -> Claim {
        let mut slots = lock_unpoisoned(&self.slots);
        slots.tick += 1;
        let now = slots.tick;
        match slots.map.get_mut(&key.0) {
            Some(Slot::Done { body, tick }) => {
                *tick = now;
                Claim::Hit(Arc::clone(body))
            }
            Some(Slot::Pending(gate)) => Claim::Wait(Arc::clone(gate)),
            None => {
                let gate = Arc::new(Gate::default());
                slots.map.insert(key.0, Slot::Pending(Arc::clone(&gate)));
                Claim::Compute(gate)
            }
        }
    }

    /// Promotes `key` to a cached result (after filling the gate),
    /// evicting the least-recently-used completed entries beyond the
    /// capacity.
    pub fn complete(&self, key: CacheKey, body: Arc<String>) {
        let mut slots = lock_unpoisoned(&self.slots);
        slots.tick += 1;
        let tick = slots.tick;
        slots.map.insert(key.0, Slot::Done { body, tick });
        let mut done: Vec<(u64, u128)> = slots
            .map
            .iter()
            .filter_map(|(k, s)| match s {
                Slot::Done { tick, .. } => Some((*tick, *k)),
                Slot::Pending(_) => None,
            })
            .collect();
        if done.len() > self.capacity {
            done.sort_unstable();
            for &(_, k) in &done[..done.len() - self.capacity] {
                slots.map.remove(&k);
            }
        }
    }

    /// Removes the pending slot for a failed compile so the next request
    /// retries instead of hitting a cached error.
    pub fn abandon(&self, key: CacheKey) {
        let mut slots = lock_unpoisoned(&self.slots);
        if matches!(slots.map.get(&key.0), Some(Slot::Pending(_))) {
            slots.map.remove(&key.0);
        }
    }

    /// Number of completed entries.
    #[must_use]
    pub fn len(&self) -> usize {
        let slots = lock_unpoisoned(&self.slots);
        slots
            .map
            .values()
            .filter(|s| matches!(s, Slot::Done { .. }))
            .count()
    }

    /// Whether no completed entries exist.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    fn circuit() -> Circuit {
        ppet_netlist::bench_format::parse("t", "INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n").unwrap()
    }

    fn normalized(seed: u64) -> NormalizedRequest {
        NormalizedRequest {
            circuit: circuit().into(),
            config_entries: vec![("cbit_length".into(), "4".into())],
            seed,
        }
    }

    #[test]
    fn key_depends_on_all_three_fields() {
        let base = CacheKey::of(&normalized(1));
        assert_eq!(base, CacheKey::of(&normalized(1)));
        let cfg = normalized(1).config_entries;
        assert_eq!(base, CacheKey::derive(&circuit(), &cfg, 1), "same key");
        assert_ne!(base, CacheKey::of(&normalized(2)));

        let mut other_cfg = normalized(1);
        other_cfg.config_entries[0].1 = "8".into();
        assert_ne!(base, CacheKey::of(&other_cfg));

        let mut other_circuit = normalized(1);
        other_circuit.circuit =
            ppet_netlist::bench_format::parse("t", "INPUT(a)\nOUTPUT(y)\ny = BUFF(a)\n")
                .unwrap()
                .into();
        assert_ne!(base, CacheKey::of(&other_circuit));
    }

    #[test]
    fn first_claim_computes_then_hits() {
        let cache = ResultCache::new();
        let key = CacheKey::of(&normalized(1));
        let gate = match cache.claim(key) {
            Claim::Compute(gate) => gate,
            other => panic!("expected Compute, got {other:?}"),
        };
        let body = Arc::new("manifest".to_owned());
        gate.fill(Ok(Arc::clone(&body)));
        cache.complete(key, Arc::clone(&body));
        match cache.claim(key) {
            Claim::Hit(got) => assert_eq!(got, body),
            other => panic!("expected Hit, got {other:?}"),
        }
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn concurrent_claims_coalesce_on_the_gate() {
        let cache = Arc::new(ResultCache::new());
        let key = CacheKey::of(&normalized(3));
        let gate = match cache.claim(key) {
            Claim::Compute(gate) => gate,
            other => panic!("expected Compute, got {other:?}"),
        };
        let waiter_gate = match cache.claim(key) {
            Claim::Wait(gate) => gate,
            other => panic!("expected Wait, got {other:?}"),
        };
        let waiter = thread::spawn(move || waiter_gate.wait(Duration::from_secs(5)));
        gate.fill(Ok(Arc::new("body".to_owned())));
        let got = waiter.join().unwrap().expect("gate filled before timeout");
        assert_eq!(*got.unwrap(), "body");
    }

    #[test]
    fn abandoned_failures_are_not_cached() {
        let cache = ResultCache::new();
        let key = CacheKey::of(&normalized(9));
        let gate = match cache.claim(key) {
            Claim::Compute(gate) => gate,
            other => panic!("expected Compute, got {other:?}"),
        };
        gate.fill(Err(BackendError::new("compile", "boom")));
        cache.abandon(key);
        assert!(matches!(cache.claim(key), Claim::Compute(_)));
    }

    #[test]
    fn capacity_bound_evicts_least_recently_used() {
        let cache = ResultCache::with_capacity(2);
        let keys: Vec<CacheKey> = (0..3).map(|s| CacheKey::of(&normalized(s))).collect();
        for (i, &key) in keys.iter().enumerate() {
            assert!(matches!(cache.claim(key), Claim::Compute(_)));
            cache.complete(key, Arc::new(format!("m{i}")));
            // Touch key 0 so it stays hot.
            if i > 0 {
                assert!(matches!(cache.claim(keys[0]), Claim::Hit(_)));
            }
        }
        assert_eq!(cache.len(), 2, "capacity bound holds");
        // Key 1 was the LRU victim; 0 (touched) and 2 (fresh) survive.
        assert!(matches!(cache.claim(keys[0]), Claim::Hit(_)));
        assert!(matches!(cache.claim(keys[2]), Claim::Hit(_)));
        assert!(matches!(cache.claim(keys[1]), Claim::Compute(_)));
    }

    #[test]
    fn pending_slots_are_exempt_from_the_capacity_bound() {
        let cache = ResultCache::with_capacity(1);
        let pending_key = CacheKey::of(&normalized(100));
        let gate = match cache.claim(pending_key) {
            Claim::Compute(gate) => gate,
            other => panic!("expected Compute, got {other:?}"),
        };
        for s in 0..4 {
            let key = CacheKey::of(&normalized(s));
            assert!(matches!(cache.claim(key), Claim::Compute(_)));
            cache.complete(key, Arc::new("m".to_owned()));
        }
        assert_eq!(cache.len(), 1);
        // The pending slot survived the churn: waiters still coalesce.
        assert!(matches!(cache.claim(pending_key), Claim::Wait(_)));
        gate.fill(Ok(Arc::new("late".to_owned())));
    }

    #[test]
    fn gate_wait_times_out_while_pending() {
        let gate = Gate::default();
        assert!(gate.wait(Duration::from_millis(10)).is_none());
        gate.fill(Ok(Arc::new("late".to_owned())));
        let got = gate.wait(Duration::from_millis(10)).unwrap();
        assert_eq!(*got.unwrap(), "late");
    }

    /// Satellite regression: an astronomical timeout must wait, not
    /// panic. `Instant::now() + Duration::MAX` used to overflow-panic on
    /// the waiter's thread before the fill could ever be observed.
    #[test]
    fn gate_wait_survives_an_unrepresentable_timeout() {
        let gate = Arc::new(Gate::default());
        let filler = Arc::clone(&gate);
        let t = thread::spawn(move || {
            thread::sleep(Duration::from_millis(30));
            filler.fill(Ok(Arc::new("eventually".to_owned())));
        });
        let got = gate.wait(Duration::MAX).expect("filled, not panicked");
        assert_eq!(*got.unwrap(), "eventually");
        t.join().unwrap();
    }

    /// Satellite regression: an already-expired deadline answers
    /// immediately — no zero-duration condvar spin, no waiting out a
    /// restarted budget — while a result that is already present is
    /// still observed (the late-fill path a retry would hit via the
    /// cache).
    #[test]
    fn gate_expired_deadline_fails_fast_but_sees_a_present_result() {
        let gate = Gate::default();
        let expired = Instant::now() - Duration::from_secs(1);
        let started = Instant::now();
        assert!(gate.wait_deadline(Some(expired)).is_none());
        assert!(
            started.elapsed() < Duration::from_millis(100),
            "expired deadline must not block: {:?}",
            started.elapsed()
        );
        gate.fill(Ok(Arc::new("late".to_owned())));
        let got = gate.wait_deadline(Some(expired)).expect("present result");
        assert_eq!(*got.unwrap(), "late");
    }

    /// Satellite regression: a waiter whose thread panics while holding
    /// a gate's lock poisons the mutex; the fill side and every later
    /// waiter must shrug that off instead of cascading the panic.
    #[test]
    fn poisoned_gate_locks_are_recovered_not_propagated() {
        let gate = Arc::new(Gate::default());
        let poisoner = Arc::clone(&gate);
        let _ = thread::spawn(move || {
            let _guard = poisoner.slot.lock().unwrap();
            panic!("poison the slot lock");
        })
        .join();
        gate.fill(Ok(Arc::new("fine".to_owned())));
        let got = gate.wait(Duration::from_millis(50)).expect("filled");
        assert_eq!(*got.unwrap(), "fine");

        let cache = Arc::new(ResultCache::new());
        let key = CacheKey::of(&normalized(77));
        let slots_poisoner = Arc::clone(&cache);
        let _ = thread::spawn(move || {
            let _guard = slots_poisoner.slots.lock().unwrap();
            panic!("poison the cache lock");
        })
        .join();
        assert!(matches!(cache.claim(key), Claim::Compute(_)));
        cache.complete(key, Arc::new("body".to_owned()));
        assert!(matches!(cache.claim(key), Claim::Hit(_)));
    }
}
