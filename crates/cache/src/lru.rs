//! A deterministic, capacity-bounded LRU cache of `Arc`-shared values.
//!
//! Keys are [`Fingerprint`]s: a session id in the serving layer's warm
//! tier, or a content fingerprint of a pure computation's full input, in
//! which case a resident value is by construction the exact output the
//! caller would otherwise compute (see the crate docs' determinism
//! argument). Concurrent use is safe. Two racing misses on the same
//! content key may both compute; the first insertion wins and both
//! callers receive bit-identical values.
//!
//! Telemetry: each probe emits `cache.hit` or `cache.miss`, each eviction
//! `cache.evict` (via `hinn-obs`, no-ops unless a recorder is installed).
//! A capacity-0 cache is *disabled*: it always computes, stores nothing,
//! and stays silent.

use crate::fingerprint::Fingerprint;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

struct Slot<V> {
    value: Arc<V>,
    last_used: u64,
}

struct Inner<V> {
    map: HashMap<u128, Slot<V>>,
    tick: u64,
}

/// See the module docs.
pub struct LruCache<V> {
    capacity: usize,
    inner: Mutex<Inner<V>>,
}

impl<V> LruCache<V> {
    /// A cache holding at most `capacity` values (0 = disabled).
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity,
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                tick: 0,
            }),
        }
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// A capacity-0 cache computes everything and stores nothing.
    pub fn is_disabled(&self) -> bool {
        self.capacity == 0
    }

    /// Resident entries (0 when disabled).
    pub fn len(&self) -> usize {
        if self.is_disabled() {
            return 0;
        }
        self.lock().map.len()
    }

    /// Is the cache empty (always true when disabled)?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop every resident entry.
    pub fn clear(&self) {
        if self.is_disabled() {
            return;
        }
        self.lock().map.clear();
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner<V>> {
        // A panic while holding the lock leaves the map structurally
        // valid (no partial mutation spans an unwind point), so poisoning
        // is recovered rather than propagated.
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Look up `key`, bumping its recency. Emits `cache.hit`/`cache.miss`.
    pub fn get(&self, key: Fingerprint) -> Option<Arc<V>> {
        if self.is_disabled() {
            return None;
        }
        let mut inner = self.lock();
        inner.tick += 1;
        let tick = inner.tick;
        match inner.map.get_mut(&key.0) {
            Some(slot) => {
                slot.last_used = tick;
                hinn_obs::counter("cache.hit", 1);
                Some(slot.value.clone())
            }
            None => {
                hinn_obs::counter("cache.miss", 1);
                None
            }
        }
    }

    /// Insert `value` under `key`, evicting the least-recently-used entry
    /// if the cache is full. If the key is already resident (e.g. a racing
    /// miss computed the same value), the existing entry is kept — both
    /// are bit-identical by the purity contract. Returns the resident
    /// `Arc`.
    pub fn insert(&self, key: Fingerprint, value: V) -> Arc<V> {
        if self.is_disabled() {
            return Arc::new(value);
        }
        let mut inner = self.lock();
        inner.tick += 1;
        let tick = inner.tick;
        if let Some(slot) = inner.map.get_mut(&key.0) {
            slot.last_used = tick;
            return slot.value.clone();
        }
        if inner.map.len() >= self.capacity {
            // Deterministic victim: the smallest last-used tick, with the
            // key ordering breaking (impossible-in-practice) tick ties.
            if let Some(&victim) = inner
                .map
                .iter()
                .min_by(|a, b| a.1.last_used.cmp(&b.1.last_used).then(a.0.cmp(b.0)))
                .map(|(k, _)| k)
            {
                inner.map.remove(&victim);
                hinn_obs::counter("cache.evict", 1);
            }
        }
        let value = Arc::new(value);
        inner.map.insert(
            key.0,
            Slot {
                value: value.clone(),
                last_used: tick,
            },
        );
        value
    }

    /// Remove `key`'s entry, returning it if it was resident. Unlike
    /// eviction this is a caller-initiated *ownership transfer* — used by
    /// stores whose values are checked out and re-inserted under the same
    /// key (e.g. suspended-session snapshots) — so it emits no
    /// `cache.evict` and bumps no probe counters.
    pub fn remove(&self, key: Fingerprint) -> Option<Arc<V>> {
        if self.is_disabled() {
            return None;
        }
        self.lock().map.remove(&key.0).map(|slot| slot.value)
    }

    /// The memoization workhorse: return the resident value for `key`, or
    /// compute it with `build` (outside the lock) and insert it. Disabled
    /// caches just call `build`.
    pub fn get_or_insert_with<F>(&self, key: Fingerprint, build: F) -> Arc<V>
    where
        F: FnOnce() -> V,
    {
        if self.is_disabled() {
            return Arc::new(build());
        }
        if let Some(v) = self.get(key) {
            return v;
        }
        self.insert(key, build())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fp(k: u128) -> Fingerprint {
        Fingerprint(k)
    }

    // Every test takes the crate test lock: cache operations emit global
    // telemetry, and a concurrently installed recorder in another test
    // would otherwise see this test's counters.

    #[test]
    fn hit_returns_the_stored_value() {
        let _x = crate::testlock::exclusive();
        let c: LruCache<u64> = LruCache::new(4);
        let a = c.get_or_insert_with(fp(1), || 42);
        let b = c.get_or_insert_with(fp(1), || panic!("must not recompute"));
        assert_eq!(*a, 42);
        assert!(Arc::ptr_eq(&a, &b), "hit shares the same allocation");
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn evicts_least_recently_used() {
        let _x = crate::testlock::exclusive();
        let c: LruCache<u64> = LruCache::new(2);
        c.insert(fp(1), 10);
        c.insert(fp(2), 20);
        assert!(c.get(fp(1)).is_some()); // 2 is now the LRU entry
        c.insert(fp(3), 30);
        assert_eq!(c.len(), 2);
        assert!(c.get(fp(2)).is_none(), "LRU entry evicted");
        assert!(c.get(fp(1)).is_some());
        assert!(c.get(fp(3)).is_some());
    }

    #[test]
    fn remove_transfers_ownership_out() {
        let _x = crate::testlock::exclusive();
        let c: LruCache<u64> = LruCache::new(2);
        c.insert(fp(1), 10);
        let taken = c.remove(fp(1));
        assert_eq!(taken.as_deref(), Some(&10));
        assert!(c.remove(fp(1)).is_none(), "second remove finds nothing");
        // The slot is genuinely free again: a re-insert under the same key
        // stores the *new* value (insert keeps existing entries otherwise).
        let v = c.insert(fp(1), 11);
        assert_eq!(*v, 11);
    }

    #[test]
    fn capacity_zero_disables_storage() {
        let _x = crate::testlock::exclusive();
        let c: LruCache<u64> = LruCache::new(0);
        let mut calls = 0;
        for _ in 0..3 {
            let v = c.get_or_insert_with(fp(7), || {
                calls += 1;
                9
            });
            assert_eq!(*v, 9);
        }
        assert_eq!(calls, 3, "disabled cache always computes");
        assert_eq!(c.len(), 0);
        assert!(c.is_disabled());
    }

    #[test]
    fn duplicate_insert_keeps_first_value() {
        let _x = crate::testlock::exclusive();
        let c: LruCache<u64> = LruCache::new(4);
        let a = c.insert(fp(1), 1);
        let b = c.insert(fp(1), 2);
        assert_eq!(*a, 1);
        assert_eq!(*b, 1, "first insertion wins");
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn concurrent_use_is_safe_and_consistent() {
        let _x = crate::testlock::exclusive();
        let c: Arc<LruCache<u64>> = Arc::new(LruCache::new(8));
        std::thread::scope(|s| {
            for t in 0..4 {
                let c = c.clone();
                s.spawn(move || {
                    for i in 0..100u128 {
                        let k = i % 16;
                        let v = c.get_or_insert_with(fp(k), || k as u64);
                        assert_eq!(*v, k as u64, "values are pure functions of keys");
                    }
                    let _ = t;
                });
            }
        });
    }

    #[test]
    fn counters_flow_to_obs() {
        let _x = crate::testlock::exclusive();
        let rec = Arc::new(hinn_obs::SessionRecorder::new());
        let report = {
            let _g = hinn_obs::install(rec.clone());
            let c: LruCache<u64> = LruCache::new(1);
            c.get_or_insert_with(fp(1), || 1); // miss
            c.get_or_insert_with(fp(1), || 1); // hit
            c.get_or_insert_with(fp(2), || 2); // miss + evict
            rec.report()
        };
        assert_eq!(report.counter("cache.hit"), 1);
        assert_eq!(report.counter("cache.miss"), 2);
        assert_eq!(report.counter("cache.evict"), 1);
    }

    #[test]
    fn disabled_cache_emits_no_counters() {
        let _x = crate::testlock::exclusive();
        let rec = Arc::new(hinn_obs::SessionRecorder::new());
        let report = {
            let _g = hinn_obs::install(rec.clone());
            let c: LruCache<u64> = LruCache::new(0);
            c.get_or_insert_with(fp(1), || 1);
            c.get_or_insert_with(fp(1), || 1);
            rec.report()
        };
        assert_eq!(report.counter("cache.hit"), 0);
        assert_eq!(report.counter("cache.miss"), 0);
    }
}
