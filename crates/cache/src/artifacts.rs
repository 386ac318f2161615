//! Per-dataset derived artifacts, computed once and shared.
//!
//! A [`DatasetArtifacts`] is the cache home for everything derivable from
//! one immutable point set: the VA-file of the baseline filter, the HNSW
//! candidate graph. The store is type-erased ([`ArtifactStore`]) so
//! downstream crates (`hinn-core`, `hinn-baselines`) can park their own artifact types here
//! without this crate depending on them — keys are a static name plus a
//! `u64` parameter (e.g. `("baselines.vafile", bits)`).
//!
//! [`DatasetArtifacts::for_points`] routes through a small process-global
//! registry keyed by the dataset's content fingerprint, so *repeated
//! sessions on the same dataset* — the batch-serving steady state — share
//! one `Arc` and therefore one copy of every artifact.

use crate::fingerprint::Fingerprint;
use std::any::Any;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

type StoredArtifact = Arc<dyn Any + Send + Sync>;

/// A name-keyed store of `Arc`-shared artifacts (see module docs).
///
/// Artifacts are insert-once: the first computation for a key is kept and
/// every later request shares it. Probes emit `cache.hit`/`cache.miss`.
#[derive(Default)]
pub struct ArtifactStore {
    inner: Mutex<BTreeMap<(&'static str, u64), StoredArtifact>>,
}

impl ArtifactStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of stored artifacts.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// Is the store empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, BTreeMap<(&'static str, u64), StoredArtifact>> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Peek at the artifact under `(name, param)` without computing —
    /// `None` when absent or stored under a different type. Epoch-chained
    /// index builders use this to find a predecessor epoch's structure to
    /// extend instead of rebuilding from scratch.
    pub fn get<T>(&self, name: &'static str, param: u64) -> Option<Arc<T>>
    where
        T: Send + Sync + 'static,
    {
        self.lock()
            .get(&(name, param))
            .cloned()
            .and_then(|stored| stored.downcast::<T>().ok())
    }

    /// The artifact under `(name, param)`, computing and storing it with
    /// `build` on first request. `build` runs outside the lock; if two
    /// threads race, the first insertion wins (both computed the same
    /// value — artifacts are pure functions of the dataset and the key).
    ///
    /// If the artifact stored under this key has a different type than
    /// `T` — a programming error (two call sites sharing a name but not a
    /// type) — the result of `build` is returned without being stored.
    pub fn get_or_insert<T, F>(&self, name: &'static str, param: u64, build: F) -> Arc<T>
    where
        T: Send + Sync + 'static,
        F: FnOnce() -> T,
    {
        if let Some(stored) = self.lock().get(&(name, param)).cloned() {
            hinn_obs::counter("cache.hit", 1);
            return stored.downcast::<T>().unwrap_or_else(|_| Arc::new(build()));
        }
        hinn_obs::counter("cache.miss", 1);
        let value = Arc::new(build());
        let mut inner = self.lock();
        let slot = inner
            .entry((name, param))
            .or_insert_with(|| value.clone() as StoredArtifact);
        slot.clone().downcast::<T>().unwrap_or(value)
    }
}

impl std::fmt::Debug for ArtifactStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let keys: Vec<_> = self.lock().keys().cloned().collect();
        f.debug_struct("ArtifactStore")
            .field("keys", &keys)
            .finish()
    }
}

/// Everything derived from one immutable dataset (see module docs).
#[derive(Debug)]
pub struct DatasetArtifacts {
    fingerprint: Fingerprint,
    n_points: usize,
    dims: usize,
    store: ArtifactStore,
}

/// Bounded process-global registry of datasets recently served.
const REGISTRY_CAPACITY: usize = 8;
static REGISTRY: Mutex<Vec<(u128, Arc<DatasetArtifacts>, u64)>> = Mutex::new(Vec::new());
static REGISTRY_TICK: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

impl DatasetArtifacts {
    /// Compute the artifacts shell for `points` (fingerprint + empty
    /// store). Prefer [`DatasetArtifacts::for_points`], which shares the
    /// shell across sessions.
    pub fn compute(points: &[Vec<f64>]) -> Self {
        Self {
            fingerprint: Fingerprint::of_points(points),
            n_points: points.len(),
            dims: points.first().map(|p| p.len()).unwrap_or(0),
            store: ArtifactStore::new(),
        }
    }

    /// The shared artifacts of `points`: hashes the dataset (`O(n·d)`) and
    /// returns the registry's `Arc` for that fingerprint, creating (and,
    /// beyond `REGISTRY_CAPACITY` datasets, evicting least-recently
    /// used) as needed.
    pub fn for_points(points: &[Vec<f64>]) -> Arc<Self> {
        let dims = points.first().map_or(0, Vec::len);
        Self::for_fingerprint(Fingerprint::of_points(points), points.len(), dims)
    }

    /// The shared artifacts of a dataset already identified by a content
    /// fingerprint — the epoch path: `EpochSnapshot`s carry their chained
    /// fingerprint, so sharing the shell is `O(1)` instead of the
    /// `O(n·d)` re-hash [`DatasetArtifacts::for_points`] pays. Uses the
    /// same registry (same LRU bound, same hit/miss/evict counters); the
    /// caller supplies the shape the shell reports.
    pub fn for_fingerprint(fp: Fingerprint, n_points: usize, dims: usize) -> Arc<Self> {
        let tick = REGISTRY_TICK.fetch_add(1, std::sync::atomic::Ordering::Relaxed) + 1;
        let mut reg = REGISTRY.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(entry) = reg.iter_mut().find(|(k, _, _)| *k == fp.0) {
            entry.2 = tick;
            hinn_obs::counter("cache.hit", 1);
            return entry.1.clone();
        }
        hinn_obs::counter("cache.miss", 1);
        if reg.len() >= REGISTRY_CAPACITY {
            if let Some(pos) = reg
                .iter()
                .enumerate()
                .min_by_key(|(_, (_, _, t))| *t)
                .map(|(i, _)| i)
            {
                reg.swap_remove(pos);
                hinn_obs::counter("cache.evict", 1);
            }
        }
        let arts = Arc::new(Self {
            fingerprint: fp,
            n_points,
            dims,
            store: ArtifactStore::new(),
        });
        reg.push((fp.0, arts.clone(), tick));
        arts
    }

    /// Peek the registry for a fingerprint without creating a shell (and
    /// without touching its LRU position or counters) — for opportunistic
    /// reuse, e.g. extending a predecessor epoch's index instead of
    /// rebuilding. `None` when the dataset was never registered or has
    /// been evicted.
    pub fn lookup(fp: Fingerprint) -> Option<Arc<Self>> {
        let reg = REGISTRY.lock().unwrap_or_else(|e| e.into_inner());
        reg.iter()
            .find(|(k, _, _)| *k == fp.0)
            .map(|(_, arts, _)| arts.clone())
    }

    /// The dataset's content fingerprint.
    pub fn fingerprint(&self) -> Fingerprint {
        self.fingerprint
    }

    /// Number of points in the dataset.
    pub fn n_points(&self) -> usize {
        self.n_points
    }

    /// Dimensionality of the dataset.
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// The artifact store.
    pub fn store(&self) -> &ArtifactStore {
        &self.store
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pts(seed: f64) -> Vec<Vec<f64>> {
        (0..10)
            .map(|i| vec![seed + i as f64, seed * 2.0 - i as f64])
            .collect()
    }

    #[test]
    fn store_computes_once_per_key() {
        let _x = crate::testlock::exclusive();
        let store = ArtifactStore::new();
        let mut calls = 0;
        for _ in 0..3 {
            let v: Arc<Vec<f64>> = store.get_or_insert("test.mean", 0, || {
                calls += 1;
                vec![1.0, 2.0]
            });
            assert_eq!(*v, vec![1.0, 2.0]);
        }
        assert_eq!(calls, 1);
        assert_eq!(store.len(), 1);
        // A different param is a different artifact.
        let _: Arc<Vec<f64>> = store.get_or_insert("test.mean", 1, || vec![9.0]);
        assert_eq!(store.len(), 2);
    }

    #[test]
    fn store_type_mismatch_is_built_unstored_not_panic() {
        let _x = crate::testlock::exclusive();
        let store = ArtifactStore::new();
        let _: Arc<u64> = store.get_or_insert("test.poly", 0, || 5u64);
        let wrong: Arc<String> = store.get_or_insert("test.poly", 0, || "x".to_string());
        assert_eq!(*wrong, "x", "type mismatch must build, not panic");
        assert_eq!(store.get::<u64>("test.poly", 0).as_deref(), Some(&5));
    }

    #[test]
    fn same_dataset_shares_one_arc() {
        let _x = crate::testlock::exclusive();
        let a = DatasetArtifacts::for_points(&pts(1.0));
        let b = DatasetArtifacts::for_points(&pts(1.0));
        assert!(Arc::ptr_eq(&a, &b), "registry must share the shell");
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_eq!(a.n_points(), 10);
        assert_eq!(a.dims(), 2);
        let c = DatasetArtifacts::for_points(&pts(2.0));
        assert_ne!(a.fingerprint(), c.fingerprint());
    }

    #[test]
    fn artifacts_persist_across_sessions_on_one_dataset() {
        let _x = crate::testlock::exclusive();
        let data = pts(3.5);
        let mut calls = 0;
        for _ in 0..3 {
            // A fresh `for_points` per "session" still finds the artifact.
            let arts = DatasetArtifacts::for_points(&data);
            let _: Arc<f64> = arts.store().get_or_insert("test.stat", 7, || {
                calls += 1;
                42.0
            });
        }
        assert_eq!(calls, 1, "artifact computed once across sessions");
    }

    #[test]
    fn get_peeks_without_computing() {
        let _x = crate::testlock::exclusive();
        let store = ArtifactStore::new();
        assert!(store.get::<u64>("test.peek", 0).is_none());
        let _: Arc<u64> = store.get_or_insert("test.peek", 0, || 11u64);
        assert_eq!(store.get::<u64>("test.peek", 0).as_deref(), Some(&11));
        assert!(
            store.get::<String>("test.peek", 0).is_none(),
            "type mismatch must surface as None"
        );
    }

    #[test]
    fn for_fingerprint_shares_the_shell_with_for_points() {
        let _x = crate::testlock::exclusive();
        let data = pts(9.0);
        let a = DatasetArtifacts::for_points(&data);
        let b = DatasetArtifacts::for_fingerprint(a.fingerprint(), data.len(), 2);
        assert!(
            Arc::ptr_eq(&a, &b),
            "fingerprint route must share the shell"
        );
        let c = DatasetArtifacts::for_fingerprint(Fingerprint(0xDEAD), 3, 4);
        assert_eq!(c.n_points(), 3);
        assert_eq!(c.dims(), 4);
        let d = DatasetArtifacts::for_fingerprint(Fingerprint(0xDEAD), 3, 4);
        assert!(Arc::ptr_eq(&c, &d));
    }

    #[test]
    fn registry_is_bounded() {
        let _x = crate::testlock::exclusive();
        for i in 0..(2 * REGISTRY_CAPACITY) {
            let _ = DatasetArtifacts::for_points(&pts(100.0 + i as f64));
        }
        let reg = REGISTRY.lock().unwrap_or_else(|e| e.into_inner());
        assert!(reg.len() <= REGISTRY_CAPACITY);
    }
}
