//! A type-erased, insert-once store of derived artifacts.
//!
//! An [`ArtifactStore`] holds everything derivable from one immutable
//! point set: the VA-file of the baseline filter, the HNSW candidate
//! graph. Its owner is the data it was derived from — each
//! `hinn_data::EpochSnapshot` owns one for its epoch, and all snapshots
//! of one dataset handle share another that holds the longest
//! append-only graph built so far — so an artifact lives exactly as long
//! as the rows it indexes. The store is type-erased so downstream crates
//! (`hinn-core`, `hinn-index`, `hinn-baselines`) can park their own
//! artifact types here without this crate, or `hinn-data`, depending on
//! them: keys are a static name plus a `u64` parameter (e.g.
//! `("baselines.vafile", bits)`).

use std::any::Any;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

type StoredArtifact = Arc<dyn Any + Send + Sync>;

/// A name-keyed store of `Arc`-shared artifacts (see module docs).
///
/// Artifacts are insert-once through [`ArtifactStore::get_or_insert`]:
/// the first computation for a key is kept and every later request
/// shares it. Those probes emit `cache.hit`/`cache.miss`.
/// [`ArtifactStore::replace_if`] is the one way to supersede a stored
/// artifact.
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
    /// `None` when absent or stored under a different type. The epoch
    /// HNSW seed uses this to find the graph it can extend instead of
    /// building from scratch.
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
    /// value — artifacts are pure functions of their rows and the key).
    /// `build` returns an `Arc` so it can hand back an artifact shared
    /// with another store.
    ///
    /// If the artifact stored under this key has a different type than
    /// `T` — a programming error (two call sites sharing a name but not a
    /// type) — the result of `build` is returned without being stored.
    pub fn get_or_insert<T, F>(&self, name: &'static str, param: u64, build: F) -> Arc<T>
    where
        T: Send + Sync + 'static,
        F: FnOnce() -> Arc<T>,
    {
        if let Some(stored) = self.lock().get(&(name, param)).cloned() {
            hinn_obs::counter("cache.hit", 1);
            return stored.downcast::<T>().unwrap_or_else(|_| build());
        }
        hinn_obs::counter("cache.miss", 1);
        let value = build();
        let mut inner = self.lock();
        let slot = inner
            .entry((name, param))
            .or_insert_with(|| value.clone() as StoredArtifact);
        slot.clone().downcast::<T>().unwrap_or(value)
    }

    /// Store `value` under `(name, param)` if the slot is empty, holds
    /// another type, or holds an artifact `stale` rejects (an index over
    /// fewer rows, say). Emits no probe.
    pub fn replace_if<T>(
        &self,
        name: &'static str,
        param: u64,
        value: &Arc<T>,
        stale: impl FnOnce(&T) -> bool,
    ) where
        T: Send + Sync + 'static,
    {
        let mut inner = self.lock();
        let held = inner
            .get(&(name, param))
            .and_then(|s| s.downcast_ref::<T>());
        if held.is_none_or(stale) {
            inner.insert((name, param), value.clone());
        }
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn store_computes_once_per_key() {
        let _x = crate::testlock::exclusive();
        let store = ArtifactStore::new();
        let mut calls = 0;
        for _ in 0..3 {
            let v: Arc<Vec<f64>> = store.get_or_insert("test.mean", 0, || {
                calls += 1;
                Arc::new(vec![1.0, 2.0])
            });
            assert_eq!(*v, vec![1.0, 2.0]);
        }
        assert_eq!(calls, 1);
        assert_eq!(store.len(), 1);
        // A different param is a different artifact.
        let _: Arc<Vec<f64>> = store.get_or_insert("test.mean", 1, || Arc::new(vec![9.0]));
        assert_eq!(store.len(), 2);
    }

    #[test]
    fn store_type_mismatch_is_built_unstored_not_panic() {
        let _x = crate::testlock::exclusive();
        let store = ArtifactStore::new();
        let _: Arc<u64> = store.get_or_insert("test.poly", 0, || Arc::new(5u64));
        let wrong: Arc<String> = store.get_or_insert("test.poly", 0, || Arc::new("x".to_string()));
        assert_eq!(*wrong, "x", "type mismatch must build, not panic");
        assert_eq!(store.get::<u64>("test.poly", 0).as_deref(), Some(&5));
    }

    #[test]
    fn get_peeks_without_computing() {
        let _x = crate::testlock::exclusive();
        let store = ArtifactStore::new();
        assert!(store.get::<u64>("test.peek", 0).is_none());
        let _: Arc<u64> = store.get_or_insert("test.peek", 0, || Arc::new(11u64));
        assert_eq!(store.get::<u64>("test.peek", 0).as_deref(), Some(&11));
        assert!(
            store.get::<String>("test.peek", 0).is_none(),
            "type mismatch must surface as None"
        );
    }

    #[test]
    fn replace_if_supersedes_only_what_it_rejects() {
        let store = ArtifactStore::new();
        let longer = |v: &Arc<Vec<u8>>| {
            let n = v.len();
            move |held: &Vec<u8>| held.len() < n
        };
        let two = Arc::new(vec![0u8; 2]);
        store.replace_if("test.grow", 0, &two, longer(&two));
        let held = store
            .get::<Vec<u8>>("test.grow", 0)
            .expect("empty slot filled");
        assert!(Arc::ptr_eq(&held, &two));
        let one = Arc::new(vec![0u8; 1]);
        store.replace_if("test.grow", 0, &one, longer(&one));
        let held = store.get::<Vec<u8>>("test.grow", 0).expect("kept");
        assert!(Arc::ptr_eq(&held, &two), "a shorter artifact is refused");
        let three = Arc::new(vec![0u8; 3]);
        store.replace_if("test.grow", 0, &three, longer(&three));
        let held = store.get::<Vec<u8>>("test.grow", 0).expect("replaced");
        assert!(Arc::ptr_eq(&held, &three));
        assert_eq!(store.len(), 1);
    }
}
