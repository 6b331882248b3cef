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
use falcc_dataset::{SplitRatios, ThreeWaySplit};
use proptest::prelude::*;

/// Matrix with values drawn from a coarse grid so exact duplicate points
/// and exact distance ties occur regularly. Up to 160 rows, so k-means
/// reaches every sweep width and multi-block sweeps with padded tails.
fn tied_matrix() -> impl Strategy<Value = ProjectedMatrix> {
    (6usize..=160, 1usize..=24).prop_flat_map(|(n, d)| {
        prop::collection::vec(-8i8..=8, n * d).prop_map(move |grid| ProjectedMatrix {
            data: grid.into_iter().map(|v| f64::from(v) * 0.25).collect(),
            n_cols: d,
            n_rows: n,
        })
    })
}

/// Squared Euclidean distance in `sq_dist`'s order: the scalar reference.
fn sq_dist(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

/// The pipeline's k search space for `x`, probed on `threads` threads.
fn k_search(x: &ProjectedMatrix, seed: u64, threads: usize) -> KEstimateConfig {
    KEstimateConfig { threads, ..KEstimateConfig::for_rows(x.n_rows, seed) }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn bounded_lloyd_is_bit_identical(x in tied_matrix(), k in 1usize..=70,
                                      seed in 0u64..500) {
        // k is capped at the row count, so every sweep width (4, 8, 16,
        // 32 lanes) and one to three 32-lane blocks run.
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
        x in tied_matrix(), k in 1usize..=100, first in 0usize..160,
    ) {
        // Centroids are grid rows (cycling, so repeats whenever k exceeds
        // the row count), which makes exact ties common at every k —
        // zero-distance duplicates and equidistant grid neighbours — so
        // every sweep width (k ≤ 4, 8, 16, 32) and up to four 32-lane
        // blocks must break them like `predict`: first centroid wins.
        let centroids: Vec<Vec<f64>> =
            (0..k).map(|c| x.row((first + c) % x.n_rows).to_vec()).collect();
        let model = KMeansModel { centroids, assignments: Vec::new(), sse: 0.0 };
        let matrix = CentroidMatrix::from_model(&model);
        for i in 0..x.n_rows {
            let point = x.row(i);
            prop_assert_eq!(matrix.nearest(point), model.predict(point));
            // The nearest-two fold against a scalar scan: the first
            // strict minimum, its distance, and the smallest distance of
            // any other centroid (∞ for one centroid), bit for bit.
            let dists: Vec<f64> = model.centroids.iter().map(|c| sq_dist(point, c)).collect();
            let best = (1..k).fold(0, |b, c| if dists[c] < dists[b] { c } else { b });
            let runner_up = (0..k)
                .filter(|&c| c != best)
                .map(|c| dists[c])
                .fold(f64::INFINITY, f64::min);
            let (c, d1, d2) = matrix.nearest_two(point);
            prop_assert_eq!(c, best);
            prop_assert_eq!(d1.to_bits(), dists[best].to_bits());
            prop_assert_eq!(d2.to_bits(), runner_up.to_bits());
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
        let dist = |i: usize, j: usize| sq_dist(x.row(i), x.row(j));
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

/// The benchmark's k-means at full scale: Adult (sex) at scale 1.0, whose
/// validation split has 16,100 rows, projected on the non-sensitive
/// attributes. LOG-Means' probe settings (two restarts of at most 30
/// iterations) run at k = 33 (two 32-lane blocks, 31 of them padding) and
/// k = 64 (two full blocks); the fit's defaults (four restarts of at most
/// 100) run at k = 3. Release builds only: the naive kernel takes seconds here.
#[test]
#[cfg_attr(debug_assertions, ignore)]
fn bounded_lloyd_equals_naive_at_full_scale() {
    let ds = falcc_dataset::real::adult_sex().generate(9, 1.0).expect("Adult (sex)");
    let validation = ThreeWaySplit::split(&ds, SplitRatios::PAPER, 9).expect("split").validation;
    assert_eq!(validation.len(), 16_100);
    let x = validation.project(&validation.schema().non_sensitive_attrs(), None);
    for (k, n_init, max_iter) in [(33, 2, 30), (64, 2, 30), (3, 4, 100)] {
        let mut trainer = KMeans { n_init, max_iter, ..KMeans::new(k, 9) };
        trainer.bounds = false;
        let naive = trainer.fit(&x);
        trainer.bounds = true;
        let fast = trainer.fit(&x);
        assert_eq!(fast.assignments, naive.assignments, "k = {k}");
        assert_eq!(fast.centroids, naive.centroids, "k = {k}");
        assert_eq!(fast.sse.to_bits(), naive.sse.to_bits(), "k = {k}");
    }
}
