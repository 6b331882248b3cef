//! Lloyd's k-means with k-means++ initialisation.
//!
//! The clustering component of FALCC (paper §3.5) groups the validation
//! dataset into local regions by minimising the sum of squared distances.
//! This implementation is deterministic per seed, handles `k` larger than
//! the number of distinct points (empty clusters are re-seeded from the
//! farthest point), and exposes the trained centroids for the online
//! cluster-matching step.
//!
//! # Two Lloyd kernels, one output
//!
//! Each restart runs either the naive fused Lloyd loop ([`KMeans::bounds`]
//! `== false`) or a Hamerly-style bounded loop (`true`, the default). The
//! bounded loop keeps, per point, a deflated lower bound on the Euclidean
//! distance to the nearest *other* centroid; while the exact distance to
//! the assigned centroid stays below that bound, the full centroid scan is
//! skipped. The scans it does run, and its final assignment, go through
//! [`CentroidMatrix`]'s transposed sweep, whose lanes add exactly the
//! scalar `sq_dist`'s terms in the same order. The naive kernel scans
//! scalar rows and is the reference. Because the exact assigned distance
//! is still computed every iteration (it feeds the SSE/convergence
//! accumulator in the same order), and the bound's safety margins dwarf
//! float rounding, both kernels produce **bit-identical** assignments,
//! centroids, and SSE — a property pinned by the equivalence proptests in
//! `tests/kernel_equivalence.rs`.
//!
//! The textbook `‖x−c‖² = ‖x‖² − 2x·c + ‖c‖²` expansion is deliberately
//! *not* used in the distance path: it changes float summation order and
//! therefore the bits.

use crate::flat::CentroidMatrix;
use falcc_dataset::dataset::ProjectedMatrix;
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;

/// Deflation applied to cached lower bounds so float rounding (relative
/// error ~1e-14 at our dimensionalities) can never turn a pruned candidate
/// into the true winner. Margins of 1e-10 leave four orders of magnitude
/// of slack while costing essentially no pruning power.
pub(crate) const LB_DEFLATE: f64 = 1.0 - 1e-10;
/// Inflation applied to computed centroid movements (same reasoning).
const MOVE_INFLATE: f64 = 1.0 + 1e-10;

/// k-means trainer configuration.
#[derive(Debug, Clone, Copy)]
pub struct KMeans {
    /// Number of clusters.
    pub k: usize,
    /// Maximum Lloyd iterations.
    pub max_iter: usize,
    /// Convergence tolerance on the relative SSE improvement.
    pub tol: f64,
    /// Independent k-means++ restarts; the run with the lowest SSE wins
    /// (scikit-learn's `n_init`). Deterministic per seed.
    pub n_init: usize,
    /// RNG seed (k-means++ sampling).
    pub seed: u64,
    /// Use the Hamerly-style bounded Lloyd kernel. Bit-identical to the
    /// naive kernel (see the module docs); `false` selects the naive
    /// reference the equivalence proptests compare against.
    pub bounds: bool,
}

impl KMeans {
    /// A sensible default configuration for `k` clusters.
    pub fn new(k: usize, seed: u64) -> Self {
        Self { k, max_iter: 100, tol: 1e-6, n_init: 4, seed, bounds: true }
    }

    /// Fits the model to the rows of `x`, keeping the best of
    /// [`Self::n_init`] restarts.
    ///
    /// # Panics
    /// Panics if `k == 0` or `x` has no rows.
    pub fn fit(&self, x: &ProjectedMatrix) -> KMeansModel {
        let mut best: Option<KMeansModel> = None;
        for restart in 0..self.n_init.max(1) {
            let run = self.fit_once(x, self.seed ^ (restart as u64).wrapping_mul(0x9e3779b9));
            if best.as_ref().is_none_or(|b| run.sse < b.sse) {
                best = Some(run);
            }
        }
        best.expect("at least one restart")
    }

    fn fit_once(&self, x: &ProjectedMatrix, seed: u64) -> KMeansModel {
        assert!(self.k > 0, "k must be positive");
        assert!(x.n_rows > 0, "cannot cluster an empty matrix");
        let k = self.k.min(x.n_rows);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
        let centroids = plus_plus_init(x, k, &mut rng);
        if self.bounds {
            self.lloyd_bounded(x, centroids)
        } else {
            self.lloyd_naive(x, centroids)
        }
    }

    /// Reference kernel: one fused pass per iteration computes the
    /// assignment *and* accumulates the per-cluster sums/counts, instead
    /// of materialising each row twice.
    fn lloyd_naive(&self, x: &ProjectedMatrix, mut centroids: Vec<Vec<f64>>) -> KMeansModel {
        let k = centroids.len();
        let d = x.n_cols;
        let mut assignments = vec![0usize; x.n_rows];
        let mut sse = f64::INFINITY;
        let mut iterations = 0u64;

        for _ in 0..self.max_iter {
            iterations += 1;
            let mut new_sse = 0.0;
            let mut sums = vec![0.0f64; k * d];
            let mut counts = vec![0usize; k];
            for (i, slot) in assignments.iter_mut().enumerate() {
                let row = x.row(i);
                let (c, dist) = nearest_centroid(row, &centroids);
                *slot = c;
                new_sse += dist;
                counts[c] += 1;
                for (j, v) in row.iter().enumerate() {
                    sums[c * d + j] += v;
                }
            }
            apply_update(x, &assignments, &sums, &counts, &mut centroids, None);
            // Convergence check on relative SSE improvement.
            let converged =
                sse.is_finite() && (sse - new_sse).abs() <= self.tol * sse.max(1e-12);
            sse = new_sse;
            if converged {
                break;
            }
        }

        falcc_telemetry::counters::LLOYD_ITERATIONS.add(iterations);
        let sse = finalize(x, &mut assignments, |row| nearest_centroid(row, &centroids));
        KMeansModel { centroids, assignments, sse }
    }

    /// Bounded kernel: per point, `lb[i]` is a (deflated) lower bound on
    /// the Euclidean distance to the nearest centroid *other than* the
    /// assigned one. The exact squared distance to the assigned centroid
    /// is recomputed each iteration — it feeds the SSE accumulator in the
    /// same order as the naive kernel — and whenever its root stays below
    /// `lb[i]` the assigned centroid is provably the unique strict argmin,
    /// so the O(k·d) scan is skipped. After each centroid update the
    /// bounds decay by the largest (inflated) centroid movement — or the
    /// second largest for points assigned to the most-moved centroid.
    ///
    /// The centroids are packed into a [`CentroidMatrix`] after every
    /// update (k × d values, next to the n × k × d of one iteration); the
    /// full scans and the final assignment run through its sweep.
    fn lloyd_bounded(&self, x: &ProjectedMatrix, mut centroids: Vec<Vec<f64>>) -> KMeansModel {
        let k = centroids.len();
        let d = x.n_cols;
        let mut matrix = CentroidMatrix::from_rows(&centroids);
        let mut assignments = vec![0usize; x.n_rows];
        let mut lb = vec![0.0f64; x.n_rows]; // forces a full scan first time
        let mut movements = vec![0.0f64; k];
        let mut sse = f64::INFINITY;
        let mut iterations = 0u64;
        let mut bound_skips = 0u64;

        for _ in 0..self.max_iter {
            iterations += 1;
            let mut new_sse = 0.0;
            let mut sums = vec![0.0f64; k * d];
            let mut counts = vec![0usize; k];
            for (i, slot) in assignments.iter_mut().enumerate() {
                let row = x.row(i);
                let d_assigned = sq_dist(row, matrix.row(*slot));
                let (c, dist) = if d_assigned.sqrt() < lb[i] {
                    bound_skips += 1;
                    (*slot, d_assigned)
                } else {
                    let (c, d1, d2) = matrix.nearest_two(row);
                    lb[i] = d2.sqrt() * LB_DEFLATE;
                    (c, d1)
                };
                *slot = c;
                new_sse += dist;
                counts[c] += 1;
                for (j, v) in row.iter().enumerate() {
                    sums[c * d + j] += v;
                }
            }
            apply_update(x, &assignments, &sums, &counts, &mut centroids, Some(&mut movements));
            matrix = CentroidMatrix::from_rows(&centroids);
            // Decay the bounds: any other centroid can have approached a
            // point by at most the largest movement among centroids other
            // than the assigned one (conservatively: the global largest,
            // or the runner-up when the assigned centroid is the largest).
            let (max_c, max1, max2) = top_two_movements(&movements);
            for (i, b) in lb.iter_mut().enumerate() {
                *b -= if assignments[i] == max_c { max2 } else { max1 };
            }
            let converged =
                sse.is_finite() && (sse - new_sse).abs() <= self.tol * sse.max(1e-12);
            sse = new_sse;
            if converged {
                break;
            }
        }

        falcc_telemetry::counters::LLOYD_ITERATIONS.add(iterations);
        falcc_telemetry::counters::LLOYD_BOUND_SKIPS.add(bound_skips);
        let sse = finalize(x, &mut assignments, |row| matrix.nearest_dist(row));
        KMeansModel { centroids, assignments, sse }
    }
}

/// Moves each centroid to the mean of its assigned points; empty clusters
/// are re-seeded from the point farthest from its centroid (the standard
/// collapse fix), intentionally observing the partially updated centroid
/// list exactly as the reference kernel always has. When `movements` is
/// given, it receives each centroid's (inflated) Euclidean displacement.
fn apply_update(
    x: &ProjectedMatrix,
    assignments: &[usize],
    sums: &[f64],
    counts: &[usize],
    centroids: &mut [Vec<f64>],
    mut movements: Option<&mut Vec<f64>>,
) {
    let k = centroids.len();
    let d = x.n_cols;
    let mut old = Vec::new();
    for c in 0..k {
        if movements.is_some() {
            old.clear();
            old.extend_from_slice(&centroids[c]);
        }
        if counts[c] == 0 {
            // Degenerate cluster: re-seed rather than divide by zero. The
            // total order keeps this deterministic even under (injected)
            // non-finite coordinates, and the counter surfaces how often
            // the data forces the collapse fix.
            falcc_telemetry::counters::KMEANS_EMPTY_RESEEDS.incr();
            let far = (0..x.n_rows)
                .max_by(|&a, &b| {
                    let da = sq_dist(x.row(a), &centroids[assignments[a]]);
                    let db = sq_dist(x.row(b), &centroids[assignments[b]]);
                    da.total_cmp(&db)
                })
                .unwrap_or(0);
            centroids[c] = x.row(far).to_vec();
        } else {
            for j in 0..d {
                centroids[c][j] = sums[c * d + j] / counts[c] as f64;
            }
        }
        if let Some(mv) = movements.as_deref_mut() {
            mv[c] = sq_dist(&old, &centroids[c]).sqrt() * MOVE_INFLATE;
        }
    }
}

/// Final consistent assignment against the final centroids, through
/// `nearest` (the nearest centroid and its squared distance); returns
/// the SSE, accumulated in row order.
fn finalize(
    x: &ProjectedMatrix,
    assignments: &mut [usize],
    nearest: impl Fn(&[f64]) -> (usize, f64),
) -> f64 {
    let mut final_sse = 0.0;
    for (i, slot) in assignments.iter_mut().enumerate() {
        let (c, dist) = nearest(x.row(i));
        *slot = c;
        final_sse += dist;
    }
    final_sse
}

/// Largest and second-largest centroid movements, with the index of the
/// largest. With a single centroid the runner-up is 0.
fn top_two_movements(movements: &[f64]) -> (usize, f64, f64) {
    let mut max_c = 0;
    let mut max1 = f64::NEG_INFINITY;
    let mut max2 = 0.0;
    for (c, &m) in movements.iter().enumerate() {
        if m > max1 {
            max2 = if max1.is_finite() { max1 } else { 0.0 };
            max1 = m;
            max_c = c;
        } else if m > max2 {
            max2 = m;
        }
    }
    (max_c, max1.max(0.0), max2)
}

/// A trained k-means model.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct KMeansModel {
    /// Cluster centroids, `k × d`.
    pub centroids: Vec<Vec<f64>>,
    /// Cluster id per training row.
    pub assignments: Vec<usize>,
    /// Final sum of squared distances (inertia).
    pub sse: f64,
}

impl KMeansModel {
    /// Number of clusters.
    #[inline]
    pub fn k(&self) -> usize {
        self.centroids.len()
    }

    /// Assigns a new point to its nearest centroid. This is FALCC's entire
    /// online cluster-matching step — O(k·d).
    ///
    /// # Panics
    /// Panics if `point` has the wrong dimensionality.
    pub fn predict(&self, point: &[f64]) -> usize {
        assert_eq!(
            point.len(),
            self.centroids[0].len(),
            "point dimensionality must match centroids"
        );
        nearest_centroid(point, &self.centroids).0
    }

    /// Per-cluster row-index lists (into the training matrix).
    pub fn cluster_members(&self) -> Vec<Vec<usize>> {
        let mut members = vec![Vec::new(); self.k()];
        for (i, &c) in self.assignments.iter().enumerate() {
            members[c].push(i);
        }
        members
    }
}

fn plus_plus_init(x: &ProjectedMatrix, k: usize, rng: &mut StdRng) -> Vec<Vec<f64>> {
    let first = rng.gen_range(0..x.n_rows);
    let mut centroids = vec![x.row(first).to_vec()];
    let mut min_dist: Vec<f64> =
        (0..x.n_rows).map(|i| sq_dist(x.row(i), &centroids[0])).collect();
    while centroids.len() < k {
        let total: f64 = min_dist.iter().sum();
        let next = if total <= 0.0 {
            // All points coincide with chosen centroids; pick uniformly.
            rng.gen_range(0..x.n_rows)
        } else {
            let mut target = rng.gen_range(0.0..total);
            let mut chosen = x.n_rows - 1;
            for (i, &dd) in min_dist.iter().enumerate() {
                if target < dd {
                    chosen = i;
                    break;
                }
                target -= dd;
            }
            chosen
        };
        let c = x.row(next).to_vec();
        for (i, md) in min_dist.iter_mut().enumerate() {
            *md = md.min(sq_dist(x.row(i), &c));
        }
        centroids.push(c);
    }
    centroids
}

#[inline]
pub(crate) fn sq_dist(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

#[inline]
fn nearest_centroid(point: &[f64], centroids: &[Vec<f64>]) -> (usize, f64) {
    let mut best = (0usize, f64::INFINITY);
    for (c, centroid) in centroids.iter().enumerate() {
        let d = sq_dist(point, centroid);
        if d < best.1 {
            best = (c, d);
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blobs(per_blob: usize, centers: &[(f64, f64)], spread: f64, seed: u64) -> ProjectedMatrix {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut data = Vec::new();
        for &(cx, cy) in centers {
            for _ in 0..per_blob {
                data.push(cx + rng.gen_range(-spread..spread));
                data.push(cy + rng.gen_range(-spread..spread));
            }
        }
        ProjectedMatrix { data, n_cols: 2, n_rows: per_blob * centers.len() }
    }

    #[test]
    fn separates_well_separated_blobs() {
        let x = blobs(50, &[(0.0, 0.0), (10.0, 10.0), (0.0, 10.0)], 0.5, 1);
        let model = KMeans::new(3, 7).fit(&x);
        assert_eq!(model.k(), 3);
        // All members of a blob share a cluster.
        for blob in 0..3 {
            let first = model.assignments[blob * 50];
            for i in 0..50 {
                assert_eq!(model.assignments[blob * 50 + i], first, "blob {blob}");
            }
        }
        // And the three blobs get three distinct clusters.
        let mut ids: Vec<usize> = (0..3).map(|b| model.assignments[b * 50]).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 3);
    }

    #[test]
    fn predict_matches_training_assignment() {
        let x = blobs(30, &[(0.0, 0.0), (8.0, 8.0)], 0.4, 2);
        let model = KMeans::new(2, 3).fit(&x);
        for i in 0..x.n_rows {
            assert_eq!(model.predict(x.row(i)), model.assignments[i]);
        }
        // A brand-new point near blob 1's centre goes to blob 1's cluster.
        let c1 = model.assignments[35];
        assert_eq!(model.predict(&[8.2, 7.9]), c1);
    }

    #[test]
    fn sse_decreases_with_more_clusters() {
        let x = blobs(40, &[(0.0, 0.0), (5.0, 5.0), (9.0, 0.0)], 1.0, 3);
        let sse: Vec<f64> =
            (1..=4).map(|k| KMeans::new(k, 11).fit(&x).sse).collect();
        for w in sse.windows(2) {
            assert!(w[1] <= w[0] + 1e-9, "SSE must be non-increasing: {sse:?}");
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let x = blobs(25, &[(0.0, 0.0), (6.0, 6.0)], 1.0, 4);
        let a = KMeans::new(2, 42).fit(&x);
        let b = KMeans::new(2, 42).fit(&x);
        assert_eq!(a.assignments, b.assignments);
        assert_eq!(a.centroids, b.centroids);
    }

    #[test]
    fn bounded_kernel_is_bit_identical_to_naive() {
        for seed in 0..4u64 {
            let x = blobs(40, &[(0.0, 0.0), (4.0, 4.0), (8.0, 0.0), (4.0, -4.0)], 1.5, seed);
            for k in [1, 2, 3, 5, 8] {
                let mut cfg = KMeans::new(k, seed.wrapping_mul(31) + 1);
                cfg.bounds = true;
                let fast = cfg.fit(&x);
                cfg.bounds = false;
                let naive = cfg.fit(&x);
                assert_eq!(fast.assignments, naive.assignments, "k={k} seed={seed}");
                assert_eq!(fast.centroids, naive.centroids, "k={k} seed={seed}");
                assert_eq!(fast.sse.to_bits(), naive.sse.to_bits(), "k={k} seed={seed}");
            }
        }
    }

    #[test]
    fn k_capped_at_row_count_and_duplicates_handled() {
        let x = ProjectedMatrix { data: vec![1.0, 1.0, 1.0, 1.0], n_cols: 1, n_rows: 4 };
        let model = KMeans::new(10, 0).fit(&x);
        assert!(model.k() <= 4);
        assert!(model.sse < 1e-9);
    }

    #[test]
    fn cluster_members_partition_rows() {
        let x = blobs(20, &[(0.0, 0.0), (7.0, 7.0)], 0.5, 5);
        let model = KMeans::new(2, 1).fit(&x);
        let members = model.cluster_members();
        let total: usize = members.iter().map(|m| m.len()).sum();
        assert_eq!(total, x.n_rows);
        for (c, m) in members.iter().enumerate() {
            for &i in m {
                assert_eq!(model.assignments[i], c);
            }
        }
    }

    #[test]
    #[should_panic(expected = "k must be positive")]
    fn zero_k_panics() {
        let x = ProjectedMatrix { data: vec![0.0], n_cols: 1, n_rows: 1 };
        KMeans::new(0, 0).fit(&x);
    }

    #[test]
    fn single_cluster_centroid_is_the_mean() {
        let x = ProjectedMatrix {
            data: vec![0.0, 2.0, 4.0, 6.0],
            n_cols: 1,
            n_rows: 4,
        };
        let model = KMeans::new(1, 9).fit(&x);
        assert!((model.centroids[0][0] - 3.0).abs() < 1e-9);
    }
}
