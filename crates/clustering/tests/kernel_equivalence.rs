//! Proof-of-equivalence suite for the clustering fast paths: the bounded
//! Lloyd kernel, the serving plane's flat nearest-centroid scan, and the
//! norm-pruned kd-tree search must all return *bit-identical* results to
//! their naive references on arbitrary data, and the k estimators, whose
//! probes run in parallel, must pick the same k at every thread count.
//!
//! These complement the unit tests inside the crate: proptest drives the
//! geometry into the regimes where a sloppy bound would flip a result —
//! duplicated points (distance ties), near-equal norms (prefilter
//! margins), and degenerate k.

use falcc_clustering::{
    elbow_k, log_means, CentroidMatrix, KEstimateConfig, KMeans, KMeansModel, KdTree,
};
use falcc_dataset::dataset::ProjectedMatrix;
use proptest::prelude::*;

/// Matrix with values drawn from a coarse grid so exact duplicate points
/// and exact distance ties occur regularly.
fn tied_matrix() -> impl Strategy<Value = ProjectedMatrix> {
    (6usize..60, 1usize..5).prop_flat_map(|(n, d)| {
        prop::collection::vec(-8i8..=8, n * d).prop_map(move |grid| ProjectedMatrix {
            data: grid.into_iter().map(|v| f64::from(v) * 0.25).collect(),
            n_cols: d,
            n_rows: n,
        })
    })
}

/// The pipeline's k search space for `x`, probed on `threads` threads.
fn k_search(x: &ProjectedMatrix, seed: u64, threads: usize) -> KEstimateConfig {
    KEstimateConfig { threads, ..KEstimateConfig::for_rows(x.n_rows, seed) }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn bounded_lloyd_is_bit_identical(x in tied_matrix(), k in 1usize..9,
                                      seed in 0u64..500) {
        let mut trainer = KMeans::new(k, seed);
        trainer.bounds = false;
        let naive = trainer.fit(&x);
        trainer.bounds = true;
        let fast = trainer.fit(&x);
        prop_assert_eq!(&fast.assignments, &naive.assignments);
        prop_assert_eq!(&fast.centroids, &naive.centroids);
        prop_assert_eq!(fast.sse.to_bits(), naive.sse.to_bits());
    }

    #[test]
    fn centroid_matrix_nearest_is_bit_identical_to_predict(
        x in tied_matrix(), k in 1usize..=40, first in 0usize..60,
    ) {
        // Centroids are grid rows (cycling, so repeats whenever k exceeds
        // the row count), which makes exact ties common at every k —
        // zero-distance duplicates and equidistant grid neighbours — so
        // every column-scan width (k ≤ 4, 8, 16, 32) and the row-major
        // sweep past 32 must break them like `predict`: first centroid wins.
        let centroids = (0..k).map(|c| x.row((first + c) % x.n_rows).to_vec()).collect();
        let model = KMeansModel { centroids, assignments: Vec::new(), sse: 0.0 };
        let matrix = CentroidMatrix::from_model(&model);
        for i in 0..x.n_rows {
            prop_assert_eq!(matrix.nearest(x.row(i)), model.predict(x.row(i)));
        }
    }

    #[test]
    fn kdtree_pruned_equals_reference(x in tied_matrix(), k in 1usize..12) {
        let tree = KdTree::build(x.clone());
        for i in 0..x.n_rows {
            prop_assert_eq!(
                tree.nearest(x.row(i), k),
                tree.nearest_reference(x.row(i), k)
            );
        }
    }

    #[test]
    fn kdtree_filtered_matches_brute_force_filter(x in tied_matrix(),
                                                  k in 1usize..8,
                                                  modulo in 2usize..4) {
        // On exact distance ties the kd-tree keeps whichever point its
        // traversal reached first, so neighbour *identities* can differ
        // from a global index-ordered ranking — but the distance profile
        // cannot, the filter must hold, and each reported distance must be
        // the true distance to that point. The oracle is a full sort of
        // every accepted point by (distance, index).
        let tree = KdTree::build(x.clone());
        let dist = |i: usize, j: usize| -> f64 {
            x.row(i).iter().zip(x.row(j)).map(|(a, b)| (a - b) * (a - b)).sum()
        };
        for i in 0..x.n_rows.min(20) {
            let filtered = tree.nearest_filtered(x.row(i), k, |j| j % modulo == 0);
            let mut reference: Vec<(usize, f64)> = (0..x.n_rows)
                .filter(|j| j % modulo == 0)
                .map(|j| (j, dist(i, j)))
                .collect();
            reference.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
            reference.truncate(k);
            let dist_profile: Vec<f64> = filtered.iter().map(|&(_, d)| d).collect();
            let expected: Vec<f64> = reference.iter().map(|&(_, d)| d).collect();
            prop_assert_eq!(dist_profile, expected);
            for &(j, d) in &filtered {
                prop_assert!(j % modulo == 0, "filter violated for {j}");
                prop_assert_eq!(d.to_bits(), dist(i, j).to_bits());
            }
        }
    }

    #[test]
    fn log_means_is_deterministic_and_in_range(
        x in tied_matrix(), seed in 0u64..200,
    ) {
        // The exponential probes run in parallel: the estimate must not
        // depend on how many threads ran them.
        let k = log_means(&x, &k_search(&x, seed, 1));
        prop_assert!(k >= 1 && k <= x.n_rows);
        for threads in [1, 2, 8] {
            let again = log_means(&x, &k_search(&x, seed, threads));
            prop_assert_eq!(again, k, "threads = {}", threads);
        }
    }

    #[test]
    fn elbow_k_is_deterministic_and_in_range(
        x in tied_matrix(), seed in 0u64..200,
    ) {
        let k = elbow_k(&x, &k_search(&x, seed, 1));
        prop_assert!(k >= 1 && k <= x.n_rows);
        for threads in [1, 2, 8] {
            let again = elbow_k(&x, &k_search(&x, seed, threads));
            prop_assert_eq!(again, k, "threads = {}", threads);
        }
    }
}
