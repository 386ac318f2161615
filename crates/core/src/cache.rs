//! Session-level memoization: the batch-serving fast path.
//!
//! A [`SessionCache`] holds the engine's four LRU caches, each memoizing
//! one *pure* stage of the minor-iteration pipeline by a content
//! fingerprint of that stage's full input:
//!
//! | cache        | stage                                   | key over |
//! |--------------|-----------------------------------------|----------|
//! | `projection` | the Fig. 3 halving pipeline (plus its degradation events) | alive set, query, search subspace, support, mode |
//! | `profile`    | projected 2-D coordinates + grid KDE (Fig. 5) | alive set, query, 2-D projection, grid/bandwidth settings |
//! | `coords`     | whole-data coordinates inside a search subspace, column-major | alive set, subspace |
//! | `gamma`      | data variance `γ` along one candidate direction | alive set, subspace, direction |
//!
//! Because every cached value is the exact (bit-for-bit) output the
//! engine would otherwise recompute — never an algebraic shortcut — a
//! warm run is bit-identical to a cold run, and both are bit-identical to
//! a run with caching disabled ([`hinn_cache::CachePolicy::disabled`]).
//! `tests/cache_equivalence.rs` proves this across thread budgets.
//!
//! The cache is per-engine by default and *shared* across the sessions of
//! a [`crate::BatchRunner`], which is where it earns its keep: repeated
//! (or near-repeated) queries against one dataset skip the projection
//! search and KDE rendering wholesale, and even a cold session reuses the
//! subspace coordinates across the pipeline's support restarts.

use crate::config::{BandwidthMode, ProjectionMode};
use crate::degrade::DegradationEvent;
use crate::projection::ProjectionResult;
use hinn_cache::{CachePolicy, Fingerprint, Fnv128, LruCache};
use hinn_kde::{ProfileNotes, VisualProfile};
use hinn_linalg::Subspace;

/// The engine's session-level caches (see module docs).
pub struct SessionCache {
    policy: CachePolicy,
    /// Per-view projection results with their degradation events.
    pub(crate) projection: LruCache<(ProjectionResult, Vec<DegradationEvent>)>,
    /// Rendered visual profiles with their build notes.
    pub(crate) profile: LruCache<(VisualProfile, ProfileNotes)>,
    /// Data variances along candidate directions.
    pub(crate) gamma: LruCache<f64>,
    /// Whole-data coordinates inside a search subspace, column-major:
    /// `dim` columns of one value per alive point, end to end.
    pub(crate) coords: LruCache<Vec<f64>>,
}

impl SessionCache {
    /// Fresh caches sized by `policy`.
    pub fn new(policy: CachePolicy) -> Self {
        Self {
            policy,
            projection: LruCache::new(policy.projection_capacity),
            profile: LruCache::new(policy.profile_capacity),
            gamma: LruCache::new(policy.gamma_capacity),
            coords: LruCache::new(policy.coords_capacity),
        }
    }

    /// The policy the caches were sized by.
    pub fn policy(&self) -> CachePolicy {
        self.policy
    }

    /// Is every cache off (the compute-always reference configuration)?
    pub fn is_disabled(&self) -> bool {
        self.policy.is_disabled()
    }

    /// Total resident entries across all four caches.
    pub fn len(&self) -> usize {
        self.projection.len() + self.profile.len() + self.gamma.len() + self.coords.len()
    }

    /// Are all caches empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop every resident entry (the policy is kept).
    pub fn clear(&self) {
        self.projection.clear();
        self.profile.clear();
        self.gamma.clear();
        self.coords.clear();
    }

    /// Fingerprint of the candidate set alive this major iteration:
    /// the dataset's content fingerprint plus the surviving original ids.
    pub fn alive_key(dataset: Fingerprint, alive: &[usize]) -> Fingerprint {
        let mut h = Fnv128::new();
        h.write_str("alive");
        h.write_fingerprint(dataset);
        h.write_usize(alive.len());
        for &id in alive {
            h.write_usize(id);
        }
        h.finish()
    }

    /// Key of one Fig. 3 projection search.
    pub fn projection_key(
        alive: Fingerprint,
        query: &[f64],
        search_subspace: &Subspace,
        support: usize,
        mode: ProjectionMode,
    ) -> Fingerprint {
        let mut h = Fnv128::new();
        h.write_str("projection");
        h.write_fingerprint(alive);
        h.write_usize(query.len());
        h.write_f64s(query);
        write_subspace(&mut h, search_subspace);
        h.write_usize(support);
        h.write_u8(mode_tag(mode));
        h.finish()
    }

    /// Key of whole-data coordinates inside one search subspace.
    pub fn coords_key(alive: Fingerprint, subspace: &Subspace) -> Fingerprint {
        let mut h = Fnv128::new();
        h.write_str("coords");
        h.write_fingerprint(alive);
        write_subspace(&mut h, subspace);
        h.finish()
    }

    /// Key of the data variance along one candidate direction (expressed
    /// in `subspace` coordinates).
    pub fn gamma_key(alive: Fingerprint, subspace: &Subspace, direction: &[f64]) -> Fingerprint {
        Self::gamma_keys(alive, subspace, &[direction])[0]
    }

    /// [`SessionCache::gamma_key`] of every direction in `directions`. The
    /// (alive set, subspace) prefix, which dominates the hashed bytes, is
    /// absorbed once and its hasher state cloned per direction, so each key
    /// is the very fingerprint of its full input.
    pub fn gamma_keys(
        alive: Fingerprint,
        subspace: &Subspace,
        directions: &[&[f64]],
    ) -> Vec<Fingerprint> {
        let mut prefix = Fnv128::new();
        prefix.write_str("gamma");
        prefix.write_fingerprint(alive);
        write_subspace(&mut prefix, subspace);
        directions
            .iter()
            .map(|direction| {
                let mut h = prefix.clone();
                h.write_usize(direction.len());
                h.write_f64s(direction);
                h.finish()
            })
            .collect()
    }

    /// Key of one rendered visual profile.
    #[allow(clippy::too_many_arguments)] // mirrors the profile's full input
    pub fn profile_key(
        alive: Fingerprint,
        query: &[f64],
        projection: &Subspace,
        grid_n: usize,
        bandwidth_scale: f64,
        bandwidth_mode: BandwidthMode,
    ) -> Fingerprint {
        let mut h = Fnv128::new();
        h.write_str("profile");
        h.write_fingerprint(alive);
        h.write_usize(query.len());
        h.write_f64s(query);
        write_subspace(&mut h, projection);
        h.write_usize(grid_n);
        h.write_f64(bandwidth_scale);
        match bandwidth_mode {
            BandwidthMode::Fixed => h.write_u8(0),
            BandwidthMode::Adaptive { alpha } => {
                h.write_u8(1);
                h.write_f64(alpha);
            }
        }
        h.finish()
    }
}

impl std::fmt::Debug for SessionCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SessionCache")
            .field("policy", &self.policy)
            .field("projection_len", &self.projection.len())
            .field("profile_len", &self.profile.len())
            .field("gamma_len", &self.gamma.len())
            .field("coords_len", &self.coords.len())
            .finish()
    }
}

/// Mode discriminant for key composition.
fn mode_tag(mode: ProjectionMode) -> u8 {
    match mode {
        ProjectionMode::Arbitrary => 0,
        ProjectionMode::AxisParallel => 1,
    }
}

/// Absorb a subspace's exact content: ambient dimension plus every basis
/// vector's bit patterns.
fn write_subspace(h: &mut Fnv128, s: &Subspace) {
    h.write_usize(s.ambient_dim());
    h.write_usize(s.dim());
    for b in s.basis() {
        h.write_f64s(b);
    }
}

/// Everything the projection pipeline needs to consult the session's
/// inner caches (coordinates and gammas) while computing a view.
pub struct ProjectionCacheCtx<'a> {
    /// Fingerprint of the candidate set the pipeline runs over.
    pub alive_fp: Fingerprint,
    /// The session's caches.
    pub cache: &'a SessionCache,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plane(d: usize) -> Subspace {
        let mut e0 = vec![0.0; d];
        e0[0] = 1.0;
        let mut e1 = vec![0.0; d];
        e1[1] = 1.0;
        Subspace::from_vectors(d, &[e0, e1])
    }

    #[test]
    fn keys_depend_on_every_component() {
        let alive = Fingerprint(7);
        let q = vec![1.0, 2.0, 3.0];
        let s = plane(3);
        let base = SessionCache::projection_key(alive, &q, &s, 8, ProjectionMode::Arbitrary);
        assert_ne!(
            base,
            SessionCache::projection_key(Fingerprint(8), &q, &s, 8, ProjectionMode::Arbitrary)
        );
        assert_ne!(
            base,
            SessionCache::projection_key(alive, &[1.0, 2.0, 4.0], &s, 8, ProjectionMode::Arbitrary)
        );
        assert_ne!(
            base,
            SessionCache::projection_key(alive, &q, &s, 9, ProjectionMode::Arbitrary)
        );
        assert_ne!(
            base,
            SessionCache::projection_key(alive, &q, &s, 8, ProjectionMode::AxisParallel)
        );
        assert_ne!(
            base,
            SessionCache::projection_key(
                alive,
                &q,
                &Subspace::full(3),
                8,
                ProjectionMode::Arbitrary
            )
        );
    }

    #[test]
    fn gamma_keys_hash_the_full_input_of_each_direction() {
        let alive = Fingerprint(11);
        let s = plane(3);
        let dirs: [&[f64]; 3] = [&[1.0, 0.0], &[0.0, 1.0], &[0.6, -0.8]];
        let keys = SessionCache::gamma_keys(alive, &s, &dirs);
        for (dir, key) in dirs.iter().zip(&keys) {
            let mut h = Fnv128::new();
            h.write_str("gamma");
            h.write_fingerprint(alive);
            write_subspace(&mut h, &s);
            h.write_usize(dir.len());
            h.write_f64s(dir);
            assert_eq!(*key, h.finish());
            assert_eq!(*key, SessionCache::gamma_key(alive, &s, dir));
        }
        assert_ne!(keys[0], keys[1]);
        assert_ne!(keys[1], keys[2]);
    }

    #[test]
    fn alive_key_distinguishes_id_sets() {
        let d = Fingerprint(1);
        assert_ne!(
            SessionCache::alive_key(d, &[0, 1, 2]),
            SessionCache::alive_key(d, &[0, 1, 3])
        );
        assert_ne!(
            SessionCache::alive_key(d, &[0, 1]),
            SessionCache::alive_key(d, &[0, 1, 2])
        );
        assert_eq!(
            SessionCache::alive_key(d, &[0, 1, 2]),
            SessionCache::alive_key(d, &[0, 1, 2])
        );
    }

    #[test]
    fn profile_key_distinguishes_bandwidth_modes() {
        let alive = Fingerprint(3);
        let q = vec![0.5, 0.5];
        let s = plane(4);
        let fixed = SessionCache::profile_key(alive, &q, &s, 40, 0.3, BandwidthMode::Fixed);
        let adaptive = SessionCache::profile_key(
            alive,
            &q,
            &s,
            40,
            0.3,
            BandwidthMode::Adaptive { alpha: 0.5 },
        );
        let adaptive2 = SessionCache::profile_key(
            alive,
            &q,
            &s,
            40,
            0.3,
            BandwidthMode::Adaptive { alpha: 0.25 },
        );
        assert_ne!(fixed, adaptive);
        assert_ne!(adaptive, adaptive2);
        assert_ne!(
            fixed,
            SessionCache::profile_key(alive, &q, &s, 41, 0.3, BandwidthMode::Fixed)
        );
        assert_ne!(
            fixed,
            SessionCache::profile_key(alive, &q, &s, 40, 0.31, BandwidthMode::Fixed)
        );
    }

    #[test]
    fn disabled_policy_disables_every_cache() {
        let c = SessionCache::new(CachePolicy::disabled());
        assert!(c.is_disabled());
        assert!(c.is_empty());
        let v = c.gamma.get_or_insert_with(Fingerprint(1), || 2.5);
        assert_eq!(*v, 2.5);
        assert_eq!(c.len(), 0, "disabled caches store nothing");
    }

    #[test]
    fn clear_empties_but_keeps_policy() {
        let c = SessionCache::new(CachePolicy::default());
        let _ = c.gamma.get_or_insert_with(Fingerprint(1), || 1.0);
        let _ = c.coords.get_or_insert_with(Fingerprint(2), || vec![1.0]);
        assert_eq!(c.len(), 2);
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.policy(), CachePolicy::default());
    }
}
