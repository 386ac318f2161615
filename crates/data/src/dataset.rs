//! The common labeled-point-set container used throughout `hinn`.

/// A point set with optional per-point class/cluster labels.
///
/// `labels[i] == None` marks an outlier / unlabeled point. All points share
/// one dimensionality, enforced at construction.
#[derive(Clone, Debug)]
pub struct Dataset {
    /// Human-readable dataset name (used in experiment reports).
    pub name: String,
    /// The points, one `Vec<f64>` row per point.
    pub points: Vec<Vec<f64>>,
    /// Per-point label; `None` = outlier/unlabeled.
    pub labels: Vec<Option<usize>>,
}

impl Dataset {
    /// Construct with validation.
    ///
    /// # Panics
    /// Panics if `points` is empty, rows are ragged, or label count differs
    /// from point count.
    pub fn new(name: impl Into<String>, points: Vec<Vec<f64>>, labels: Vec<Option<usize>>) -> Self {
        assert!(!points.is_empty(), "Dataset: empty point set");
        let d = points[0].len();
        assert!(d > 0, "Dataset: zero-dimensional points");
        assert!(
            points.iter().all(|p| p.len() == d),
            "Dataset: ragged point set"
        );
        assert_eq!(
            points.len(),
            labels.len(),
            "Dataset: label/point count mismatch"
        );
        Self {
            name: name.into(),
            points,
            labels,
        }
    }

    /// Construct with all points unlabeled.
    pub fn unlabeled(name: impl Into<String>, points: Vec<Vec<f64>>) -> Self {
        let labels = vec![None; points.len()];
        Self::new(name, points, labels)
    }

    /// Number of points `N`.
    #[inline]
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// `true` iff the dataset holds no points (never true post-construction;
    /// provided for API completeness).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Dimensionality `d`.
    #[inline]
    pub fn dim(&self) -> usize {
        self.points[0].len()
    }

    /// Number of distinct (non-outlier) labels.
    ///
    /// Counts *distinct* label values, as documented. (This used to
    /// return `max_label + 1`, so sparse label ids like `{0, 5}` reported
    /// six classes — wrong for any consumer sizing per-class work or
    /// computing per-class rates over labels that are not dense from 0.)
    pub fn n_classes(&self) -> usize {
        self.labels
            .iter()
            .flatten()
            .collect::<std::collections::BTreeSet<_>>()
            .len()
    }

    /// Indices of points carrying label `c`.
    pub fn cluster_members(&self, c: usize) -> Vec<usize> {
        self.labels
            .iter()
            .enumerate()
            .filter(|(_, l)| **l == Some(c))
            .map(|(i, _)| i)
            .collect()
    }

    /// Indices of outliers (unlabeled points).
    pub fn outliers(&self) -> Vec<usize> {
        self.labels
            .iter()
            .enumerate()
            .filter(|(_, l)| l.is_none())
            .map(|(i, _)| i)
            .collect()
    }

    /// Per-dimension `(min, max)` bounding box.
    pub fn bounding_box(&self) -> Vec<(f64, f64)> {
        let d = self.dim();
        let mut bb = vec![(f64::INFINITY, f64::NEG_INFINITY); d];
        for p in &self.points {
            for (b, &v) in bb.iter_mut().zip(p) {
                b.0 = b.0.min(v);
                b.1 = b.1.max(v);
            }
        }
        bb
    }

    /// Z-score standardization (per dimension, population σ). Dimensions
    /// with zero variance are left centered but unscaled. Returns the
    /// transformed dataset; `self` is unchanged.
    pub fn standardized(&self) -> Dataset {
        let mean = hinn_linalg::stats::mean_vector(&self.points);
        let var = hinn_linalg::stats::coordinate_variances(&self.points);
        let points = self
            .points
            .iter()
            .map(|p| {
                p.iter()
                    .zip(&mean)
                    .zip(&var)
                    .map(|((x, m), v)| {
                        let c = x - m;
                        if *v > 1e-24 {
                            c / v.sqrt()
                        } else {
                            c
                        }
                    })
                    .collect()
            })
            .collect();
        Dataset {
            name: format!("{} (standardized)", self.name),
            points,
            labels: self.labels.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> Dataset {
        Dataset::new(
            "toy",
            vec![
                vec![0.0, 1.0],
                vec![2.0, 3.0],
                vec![4.0, -1.0],
                vec![6.0, 7.0],
            ],
            vec![Some(0), Some(1), Some(0), None],
        )
    }

    #[test]
    fn basic_accessors() {
        let d = toy();
        assert_eq!(d.len(), 4);
        assert_eq!(d.dim(), 2);
        assert_eq!(d.n_classes(), 2);
        assert!(!d.is_empty());
    }

    #[test]
    fn n_classes_counts_distinct_labels_not_max_plus_one() {
        // Regression: sparse label ids {0, 5} used to report 6 classes.
        let d = Dataset::new(
            "sparse",
            vec![vec![0.0], vec![1.0], vec![2.0]],
            vec![Some(0), Some(5), Some(5)],
        );
        assert_eq!(d.n_classes(), 2);
        // Labels not containing 0 at all.
        let d = Dataset::new(
            "shifted",
            vec![vec![0.0], vec![1.0]],
            vec![Some(7), Some(9)],
        );
        assert_eq!(d.n_classes(), 2);
    }

    #[test]
    fn cluster_members_and_outliers() {
        let d = toy();
        assert_eq!(d.cluster_members(0), vec![0, 2]);
        assert_eq!(d.cluster_members(1), vec![1]);
        assert_eq!(d.cluster_members(7), Vec::<usize>::new());
        assert_eq!(d.outliers(), vec![3]);
    }

    #[test]
    fn bounding_box_correct() {
        let d = toy();
        assert_eq!(d.bounding_box(), vec![(0.0, 6.0), (-1.0, 7.0)]);
    }

    #[test]
    fn standardization_centers_and_scales() {
        let d = toy().standardized();
        let mean = hinn_linalg::stats::mean_vector(&d.points);
        let var = hinn_linalg::stats::coordinate_variances(&d.points);
        for m in mean {
            assert!(m.abs() < 1e-12);
        }
        for v in var {
            assert!((v - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn standardization_handles_constant_dimension() {
        let d = Dataset::unlabeled(
            "const",
            vec![vec![1.0, 5.0], vec![2.0, 5.0], vec![3.0, 5.0]],
        );
        let s = d.standardized();
        for p in &s.points {
            assert_eq!(p[1], 0.0, "constant dimension should center to zero");
            assert!(p[1].is_finite());
        }
    }

    #[test]
    fn unlabeled_constructor() {
        let d = Dataset::unlabeled("u", vec![vec![1.0]]);
        assert_eq!(d.n_classes(), 0);
        assert_eq!(d.outliers(), vec![0]);
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_points_panic() {
        Dataset::unlabeled("bad", vec![vec![1.0, 2.0], vec![3.0]]);
    }

    #[test]
    #[should_panic(expected = "label/point count mismatch")]
    fn label_mismatch_panics() {
        Dataset::new("bad", vec![vec![1.0]], vec![]);
    }
}
