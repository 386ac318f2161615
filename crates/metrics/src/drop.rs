//! Steep-drop analysis of meaningfulness probabilities (§4.1–§4.2).
//!
//! §4.1: "We sorted the data in order of meaningfulness probability and
//! found that a few of the data points had meaningfulness probability in the
//! range of 0.9 to 1, after which there was a steep drop. … By using the
//! threshold which occurs just before this steep drop, it is possible to
//! isolate the natural set of points related to the query."
//!
//! §4.2: on uniform data "the meaningfulness values do not show the kind of
//! steep drop … it is difficult to isolate a well defined query cluster" —
//! the verdict the detector must also be able to return.

/// Tuning knobs for the drop detector.
#[derive(Clone, Copy, Debug)]
pub struct DropConfig {
    /// Minimum probability the points *above* the cliff must average for
    /// the result to count as meaningful (the paper's 0.9–1.0 band).
    pub min_top_probability: f64,
    /// Minimum size of the probability drop across the window to qualify
    /// as a "steep drop".
    pub min_gap: f64,
    /// The cliff is searched within the first `max_fraction` of the sorted
    /// points (a natural query cluster is a small part of the data).
    pub max_fraction: f64,
    /// Width of the sliding window the drop is measured across
    /// (`sorted[i] − sorted[i + window]`). `None` = auto: 1% of the
    /// points, clamped to `[1, 50]`. A window wider than one rank is what
    /// makes the detector robust on large clusters, where the boundary is a
    /// steep *slope* over a handful of points rather than a single gap.
    pub window: Option<usize>,
}

impl Default for DropConfig {
    fn default() -> Self {
        Self {
            min_top_probability: 0.5,
            min_gap: 0.2,
            max_fraction: 0.5,
            window: None,
        }
    }
}

/// Outcome of the steep-drop analysis.
#[derive(Clone, Debug, PartialEq)]
pub enum DropVerdict {
    /// A steep drop exists: the `natural_k` highest-probability points form
    /// the natural query cluster.
    Meaningful {
        /// Number of points above the cliff.
        natural_k: usize,
        /// Probability gap at the cliff.
        gap: f64,
        /// Mean probability of the points above the cliff.
        top_mean: f64,
    },
    /// No steep drop / no sufficiently confident points: nearest neighbor
    /// search on this data is not meaningful (§4.2's diagnosis).
    NotMeaningful {
        /// Largest gap that was observed (for reporting).
        best_gap: f64,
    },
}

impl DropVerdict {
    /// `true` for the [`DropVerdict::Meaningful`] variant.
    pub fn is_meaningful(&self) -> bool {
        matches!(self, DropVerdict::Meaningful { .. })
    }
}

/// Detect the steep drop in a set of meaningfulness probabilities
/// (unsorted): sorts them descending, then runs
/// [`detect_steep_drop_sorted`].
///
/// Returns [`DropVerdict::NotMeaningful`] when no qualifying cliff exists —
/// either the probabilities decay gradually (uniform-like data) or the top
/// points are not confident enough.
pub fn detect_steep_drop(probabilities: &[f64], config: &DropConfig) -> DropVerdict {
    let mut sorted: Vec<f64> = probabilities.to_vec();
    // Descending. Probabilities are non-negative, so `total_cmp` matches
    // the old partial order; a poisoned (NaN) probability sorts to the
    // top, where its NaN gaps and top-mean fail every threshold below —
    // the verdict degrades to NotMeaningful instead of panicking.
    sorted.sort_by(|a, b| b.total_cmp(a));
    detect_steep_drop_sorted(&sorted, config)
}

/// [`detect_steep_drop`] over probabilities already sorted descending by
/// `total_cmp`: one scan, no copy. A caller that holds its probabilities
/// in sorted runs passes their concatenation and skips the sort.
pub fn detect_steep_drop_sorted(sorted: &[f64], config: &DropConfig) -> DropVerdict {
    if sorted.len() < 2 {
        return DropVerdict::NotMeaningful { best_gap: 0.0 };
    }
    let horizon =
        ((sorted.len() as f64 * config.max_fraction).ceil() as usize).clamp(1, sorted.len() - 1);
    let window = config
        .window
        .unwrap_or_else(|| (sorted.len() / 100).clamp(1, 50))
        .max(1);

    let mut best_idx = 0usize;
    let mut best_gap = f64::NEG_INFINITY;
    for i in 0..horizon {
        let j = (i + window).min(sorted.len() - 1);
        let gap = sorted[i] - sorted[j];
        if gap > best_gap {
            best_gap = gap;
            best_idx = i;
        }
    }

    let natural_k = best_idx + 1;
    let top_mean = sorted[..natural_k].iter().sum::<f64>() / natural_k as f64;
    if best_gap >= config.min_gap && top_mean >= config.min_top_probability {
        DropVerdict::Meaningful {
            natural_k,
            gap: best_gap,
            top_mean,
        }
    } else {
        DropVerdict::NotMeaningful {
            best_gap: best_gap.max(0.0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisoned_probabilities_degrade_to_not_meaningful() {
        // A NaN probability must not panic the diagnosis: it sorts to the
        // top, its gaps and the top-mean go NaN, and every threshold
        // comparison fails — the verdict is NotMeaningful with a finite
        // reported gap.
        let mut probs = vec![0.98, 0.95, f64::NAN, 0.93];
        probs.extend(std::iter::repeat_n(0.1, 40));
        match detect_steep_drop(&probs, &DropConfig::default()) {
            DropVerdict::NotMeaningful { best_gap } => assert!(best_gap.is_finite()),
            DropVerdict::Meaningful { .. } => panic!("NaN input cannot be meaningful"),
        }
        // Even an all-NaN input degrades instead of panicking.
        let all_nan = vec![f64::NAN; 8];
        assert!(!detect_steep_drop(&all_nan, &DropConfig::default()).is_meaningful());
    }

    #[test]
    fn clean_cliff_detected() {
        // 5 confident points, then a cliff to noise.
        let mut probs = vec![0.98, 0.95, 0.97, 0.93, 0.96];
        probs.extend(std::iter::repeat_n(0.1, 95));
        match detect_steep_drop(&probs, &DropConfig::default()) {
            DropVerdict::Meaningful {
                natural_k,
                gap,
                top_mean,
            } => {
                assert_eq!(natural_k, 5);
                assert!(gap > 0.8);
                assert!(top_mean > 0.9);
            }
            v => panic!("expected meaningful, got {v:?}"),
        }
    }

    #[test]
    fn gradual_decay_is_not_meaningful() {
        // Linearly decaying probabilities — no cliff anywhere.
        let probs: Vec<f64> = (0..100).map(|i| 1.0 - i as f64 / 100.0).collect();
        let v = detect_steep_drop(&probs, &DropConfig::default());
        assert!(
            !v.is_meaningful(),
            "gradual decay must not be meaningful: {v:?}"
        );
    }

    #[test]
    fn all_low_probabilities_not_meaningful() {
        // A relative cliff among uniformly low values must not qualify.
        let mut probs = vec![0.30, 0.28];
        probs.extend(std::iter::repeat_n(0.05, 50));
        let v = detect_steep_drop(&probs, &DropConfig::default());
        assert!(!v.is_meaningful(), "low-confidence cliff accepted: {v:?}");
    }

    #[test]
    fn flat_probabilities_not_meaningful() {
        let probs = vec![0.4; 60];
        let v = detect_steep_drop(&probs, &DropConfig::default());
        assert_eq!(v, DropVerdict::NotMeaningful { best_gap: 0.0 });
    }

    #[test]
    fn cliff_beyond_horizon_ignored() {
        // Cliff at 80% of the data — not a small natural cluster.
        let mut probs = vec![0.95; 80];
        probs.extend(std::iter::repeat_n(0.05, 20));
        let cfg = DropConfig {
            max_fraction: 0.5,
            ..DropConfig::default()
        };
        let v = detect_steep_drop(&probs, &cfg);
        assert!(!v.is_meaningful(), "cliff outside horizon accepted: {v:?}");
    }

    #[test]
    fn windowed_detection_catches_steep_slopes() {
        // A large "cluster" of 300 confident points whose boundary is a
        // steep slope spread over ~10 ranks — no single-rank gap exceeds
        // 0.03, but the windowed drop does.
        let mut probs = vec![0.9; 300];
        for k in 0..10 {
            probs.push(0.9 - 0.85 * (k as f64 + 1.0) / 10.0);
        }
        probs.extend(vec![0.05; 690]);
        let single = DropConfig {
            window: Some(1),
            ..DropConfig::default()
        };
        assert!(
            !detect_steep_drop(&probs, &single).is_meaningful(),
            "single-rank gap should miss the sloped cliff"
        );
        let windowed = DropConfig {
            window: Some(10),
            ..DropConfig::default()
        };
        match detect_steep_drop(&probs, &windowed) {
            DropVerdict::Meaningful { natural_k, .. } => {
                assert!(
                    (295..=315).contains(&natural_k),
                    "cliff should sit near the cluster boundary, got {natural_k}"
                );
            }
            v => panic!("windowed detector should fire: {v:?}"),
        }
        // Auto window (1% of 1000 = 10) behaves like the explicit one.
        assert!(detect_steep_drop(&probs, &DropConfig::default()).is_meaningful());
    }

    #[test]
    fn unsorted_input_handled() {
        let probs = vec![0.1, 0.95, 0.1, 0.97, 0.1, 0.96, 0.1, 0.1, 0.1, 0.1];
        match detect_steep_drop(&probs, &DropConfig::default()) {
            DropVerdict::Meaningful { natural_k, .. } => assert_eq!(natural_k, 3),
            v => panic!("expected meaningful, got {v:?}"),
        }
    }

    #[test]
    fn tiny_inputs() {
        assert!(!detect_steep_drop(&[], &DropConfig::default()).is_meaningful());
        assert!(!detect_steep_drop(&[0.9], &DropConfig::default()).is_meaningful());
        // Two points with a huge confident gap: meaningful with k = 1.
        match detect_steep_drop(&[0.95, 0.05], &DropConfig::default()) {
            DropVerdict::Meaningful { natural_k, .. } => assert_eq!(natural_k, 1),
            v => panic!("{v:?}"),
        }
    }
}
