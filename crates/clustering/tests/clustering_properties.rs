//! Property-based tests over the clustering substrate.

use falcc_clustering::{elbow_k, log_means, KEstimateConfig, KMeans, KdTree};
use falcc_dataset::dataset::ProjectedMatrix;
use proptest::prelude::*;

fn arbitrary_matrix() -> impl Strategy<Value = ProjectedMatrix> {
    (4usize..80, 1usize..4).prop_flat_map(|(n, d)| {
        prop::collection::vec(-100.0f64..100.0, n * d).prop_map(move |data| {
            ProjectedMatrix { data, n_cols: d, n_rows: n }
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn kmeans_invariants(x in arbitrary_matrix(), k in 1usize..8) {
        let model = KMeans::new(k, 1).fit(&x);
        // k capped at the number of rows.
        prop_assert!(model.k() <= k.min(x.n_rows).max(1));
        // Every assignment is in range and matches predict().
        for (i, &c) in model.assignments.iter().enumerate() {
            prop_assert!(c < model.k());
            prop_assert_eq!(model.predict(x.row(i)), c);
        }
        // Centroids are finite.
        for c in &model.centroids {
            prop_assert!(c.iter().all(|v| v.is_finite()));
        }
        // SSE is non-negative and finite.
        prop_assert!(model.sse >= 0.0 && model.sse.is_finite());
    }

    #[test]
    fn kmeans_assigns_each_point_to_its_nearest_centroid(x in arbitrary_matrix(),
                                                         k in 1usize..8) {
        // Lloyd's invariant after convergence: the stored assignment is
        // the argmin over centroid distances, computed here by brute
        // force, independent of `predict`'s implementation.
        let model = KMeans::new(k, 5).fit(&x);
        for (i, &assigned) in model.assignments.iter().enumerate() {
            let p = x.row(i);
            let dist = |c: &[f64]| -> f64 {
                c.iter().zip(p).map(|(a, b)| (a - b) * (a - b)).sum()
            };
            let d_assigned = dist(&model.centroids[assigned]);
            for (c, centroid) in model.centroids.iter().enumerate() {
                prop_assert!(
                    d_assigned <= dist(centroid) + 1e-9,
                    "point {i} assigned to {assigned} but {c} is closer"
                );
            }
        }
    }

    #[test]
    fn kmeans_produces_k_non_empty_clusters(x in arbitrary_matrix(), k in 1usize..8) {
        // Every reported cluster owns at least one point: the model never
        // reports a k with dead clusters.
        let model = KMeans::new(k, 9).fit(&x);
        let mut counts = vec![0usize; model.k()];
        for &c in &model.assignments {
            counts[c] += 1;
        }
        prop_assert!(
            counts.iter().all(|&n| n > 0),
            "empty cluster in counts {counts:?} (k = {})", model.k()
        );
    }

    #[test]
    fn kmeans_sse_non_increasing_in_k(x in arbitrary_matrix()) {
        let sse: Vec<f64> = (1..=4).map(|k| KMeans::new(k, 7).fit(&x).sse).collect();
        for w in sse.windows(2) {
            // k-means++ is randomised, so allow slack for local optima.
            prop_assert!(w[1] <= w[0] * 1.05 + 1e-9, "sse went up materially: {sse:?}");
        }
    }

    #[test]
    fn k_estimators_stay_in_range(x in arbitrary_matrix()) {
        let cfg = KEstimateConfig { k_min: 2, k_max: 8, seed: 3, max_iter: 15, threads: 0 };
        let k_log = log_means(&x, &cfg);
        let k_elbow = elbow_k(&x, &cfg);
        prop_assert!((2..=8).contains(&k_log), "log_means returned {k_log}");
        prop_assert!((2..=8).contains(&k_elbow), "elbow returned {k_elbow}");
    }

    #[test]
    fn kdtree_nearest_is_sorted_and_self_consistent(x in arbitrary_matrix(), k in 1usize..6) {
        let tree = KdTree::build(x.clone());
        for i in 0..x.n_rows.min(10) {
            let got = tree.nearest(x.row(i), k);
            prop_assert!(!got.is_empty());
            // Sorted ascending by distance.
            for w in got.windows(2) {
                prop_assert!(w[0].1 <= w[1].1 + 1e-12);
            }
            // Querying an indexed point returns distance 0 first.
            prop_assert!(got[0].1 < 1e-12, "self distance {}", got[0].1);
        }
    }

    #[test]
    fn kdtree_filter_is_a_subset_of_unfiltered(x in arbitrary_matrix()) {
        let tree = KdTree::build(x.clone());
        let q = vec![0.0; x.n_cols];
        let all = tree.nearest(&q, x.n_rows);
        let even = tree.nearest_filtered(&q, x.n_rows, |i| i % 2 == 0);
        prop_assert!(even.len() <= all.len());
        prop_assert!(even.iter().all(|&(i, _)| i % 2 == 0));
        // The filtered result has exactly the even-index points.
        prop_assert_eq!(even.len(), x.n_rows.div_ceil(2));
    }
}
