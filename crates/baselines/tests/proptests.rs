//! Property-based tests for the baseline k-NN machinery.

use hinn_baselines::{knn_classify, knn_indices, knn_indices_in_subspace, Metric, VaFile};
use hinn_linalg::Subspace;
use proptest::prelude::*;

fn point_set(d: usize) -> impl Strategy<Value = Vec<Vec<f64>>> {
    proptest::collection::vec(proptest::collection::vec(-50.0..50.0f64, d), 1..40)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn knn_returns_sorted_distances(
        pts in point_set(4),
        q in proptest::collection::vec(-50.0..50.0f64, 4),
        k in 1usize..20,
    ) {
        let nn = knn_indices(&pts, &q, k, Metric::L2);
        prop_assert_eq!(nn.len(), k.min(pts.len()));
        let mut prev = 0.0f64;
        for &i in &nn {
            let d = hinn_linalg::vector::dist(&pts[i], &q);
            prop_assert!(d >= prev - 1e-12, "distances must ascend");
            prev = d;
        }
        // No non-member may be closer than the farthest member.
        if let Some(&last) = nn.last() {
            let dmax = hinn_linalg::vector::dist(&pts[last], &q);
            for (i, p) in pts.iter().enumerate() {
                if !nn.contains(&i) {
                    prop_assert!(
                        hinn_linalg::vector::dist(p, &q) >= dmax - 1e-12,
                        "point {i} closer than k-th neighbor"
                    );
                }
            }
        }
    }

    #[test]
    fn knn_results_are_distinct(
        pts in point_set(3),
        q in proptest::collection::vec(-50.0..50.0f64, 3),
        k in 1usize..40,
    ) {
        let nn = knn_indices(&pts, &q, k, Metric::L1);
        let set: std::collections::HashSet<usize> = nn.iter().copied().collect();
        prop_assert_eq!(set.len(), nn.len(), "duplicate neighbor indices");
    }

    #[test]
    fn growing_k_is_a_prefix(
        pts in point_set(3),
        q in proptest::collection::vec(-50.0..50.0f64, 3),
    ) {
        let big = knn_indices(&pts, &q, pts.len(), Metric::L2);
        for k in 1..pts.len() {
            let small = knn_indices(&pts, &q, k, Metric::L2);
            prop_assert_eq!(&small[..], &big[..k], "k-NN must nest");
        }
    }

    #[test]
    fn subspace_knn_agrees_with_manual_projection(
        pts in point_set(4),
        q in proptest::collection::vec(-50.0..50.0f64, 4),
        k in 1usize..10,
    ) {
        let sub = Subspace::from_vectors(4, &[vec![1.0, 1.0, 0.0, 0.0], vec![0.0, 0.0, 1.0, -1.0]]);
        let a = knn_indices_in_subspace(&pts, &q, k, &sub);
        // Manual: project everything, then plain L2 k-NN.
        let proj_pts: Vec<Vec<f64>> = sub.project_all(&pts);
        let proj_q = sub.project(&q);
        let b = knn_indices(&proj_pts, &proj_q, k, Metric::L2);
        prop_assert_eq!(a, b);
    }

    #[test]
    fn classify_returns_existing_label(
        pts in point_set(3),
        q in proptest::collection::vec(-50.0..50.0f64, 3),
        k in 1usize..10,
    ) {
        let labels: Vec<Option<usize>> = (0..pts.len()).map(|i| Some(i % 3)).collect();
        if let Some(pred) = knn_classify(&pts, &labels, &q, k, Metric::L2, None) {
            prop_assert!(pred < 3);
        }
    }

    #[test]
    fn vafile_is_exact(
        pts in point_set(4),
        q in proptest::collection::vec(-50.0..50.0f64, 4),
        k in 1usize..15,
        bits in 1u32..7,
    ) {
        let va = VaFile::build(pts.len(), |i| &pts[i], bits);
        let (got, stats) = va.knn(&q, k);
        let want = knn_indices(&pts, &q, k, Metric::L2);
        // Index sets must agree; exact order can differ only on ties, so
        // compare distances rank by rank.
        prop_assert_eq!(got.len(), want.len());
        for (a, b) in got.iter().zip(&want) {
            let da = hinn_linalg::vector::dist(&pts[*a], &q);
            let db = hinn_linalg::vector::dist(&pts[*b], &q);
            prop_assert!((da - db).abs() < 1e-9, "distance mismatch: {da} vs {db}");
        }
        prop_assert!(stats.refined <= stats.total);
    }

    #[test]
    fn metric_distances_are_symmetric_and_nonnegative(
        x in proptest::collection::vec(-50.0..50.0f64, 5),
        y in proptest::collection::vec(-50.0..50.0f64, 5),
        p in 0.25..4.0f64,
    ) {
        for m in [Metric::L1, Metric::L2, Metric::LInf, Metric::Lp(p)] {
            let d1 = m.dist(&x, &y);
            let d2 = m.dist(&y, &x);
            prop_assert!(d1 >= 0.0);
            prop_assert!((d1 - d2).abs() < 1e-9, "asymmetric metric");
        }
        prop_assert_eq!(Metric::L2.dist(&x, &x), 0.0);
    }
}
