//! Flat centroid matrix for the compiled serving plane.
//!
//! [`crate::KMeansModel`] stores its centroids as `Vec<Vec<f64>>` — one
//! heap allocation per centroid, so every nearest-centroid query chases
//! `k` pointers. [`CentroidMatrix`] packs the same centroids into one
//! contiguous row-major `k × d` slab plus a transposed copy, turning the
//! region match into a linear sweep over one cache-resident block.
//!
//! **Equivalence contract**: [`CentroidMatrix::nearest`] replicates
//! [`crate::KMeansModel::predict`] *bit for bit* — the same exact
//! squared-distance summation per centroid and the same
//! strict-improvement argmin in centroid order (first centroid wins
//! ties), whether or not telemetry is recording.

use crate::kmeans::{sq_dist, KMeansModel};

/// Widest centroid count served by the transposed (column-major) scan;
/// beyond it the scan falls back to the row-major four-lane sweep. 32
/// accumulators fit comfortably in registers/L1 and cover every
/// serving-plane configuration (the paper's grids stay below k = 16).
const COLUMN_SCAN_MAX_K: usize = 32;

/// Contiguous centroid slab in both orders.
#[derive(Debug, Clone, PartialEq)]
pub struct CentroidMatrix {
    data: Vec<f64>,
    /// The same centroids transposed and padded: `cols[j * col_stride +
    /// c]` is coordinate `j` of centroid `c`, so one query coordinate
    /// touches all `k` centroids through one contiguous run — the shape
    /// the auto-vectoriser wants for the distance sweep. Padding columns
    /// (up to the power-of-two stride) are zero and never compared.
    cols: Vec<f64>,
    /// Power-of-two row length of `cols` (4–32); `k` rounded up.
    col_stride: usize,
    k: usize,
    n_cols: usize,
}

impl CentroidMatrix {
    /// Packs the centroids of a fitted k-means model.
    ///
    /// # Panics
    /// Panics if the model has no centroids (a fitted model always has
    /// `k ≥ 1`).
    pub fn from_model(model: &KMeansModel) -> Self {
        assert!(!model.centroids.is_empty(), "cannot flatten a centroid-free model");
        let n_cols = model.centroids[0].len();
        let mut data = Vec::with_capacity(model.centroids.len() * n_cols);
        for centroid in &model.centroids {
            data.extend_from_slice(centroid);
        }
        match Self::from_raw(data, model.centroids.len(), n_cols) {
            Ok(matrix) => matrix,
            Err(detail) => unreachable!("fitted model produced invalid slab: {detail}"),
        }
    }

    /// Rebuilds a matrix from its flat parts — the row-major centroid
    /// slab ([`Self::data`]) and its shape. The transposed column slab is
    /// a derived cache and is reconstructed, not transported. Returns a
    /// description of the inconsistency instead of panicking so binary
    /// loaders can surface it as a typed error.
    ///
    /// # Errors
    /// A human-readable detail string when the slab shape is
    /// inconsistent (zero centroids, or `data.len() != k * n_cols`).
    pub fn from_raw(data: Vec<f64>, k: usize, n_cols: usize) -> Result<Self, String> {
        if k == 0 {
            return Err("centroid matrix must hold at least one centroid".into());
        }
        if k.checked_mul(n_cols) != Some(data.len()) {
            return Err(format!(
                "centroid slab holds {} values, expected k={k} × d={n_cols}",
                data.len()
            ));
        }
        let col_stride = k.next_power_of_two().clamp(4, COLUMN_SCAN_MAX_K);
        let mut cols = vec![0.0; col_stride * n_cols];
        if k <= COLUMN_SCAN_MAX_K {
            for (c, centroid) in data.chunks_exact(n_cols.max(1)).enumerate().take(k) {
                for (j, &v) in centroid.iter().enumerate() {
                    cols[j * col_stride + c] = v;
                }
            }
        }
        Ok(Self { data, cols, col_stride, k, n_cols })
    }

    /// The row-major `k × d` centroid slab.
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Transposed distance sweep with a compile-time column width `K`
    /// (== `self.col_stride`): all running sums advance together through
    /// contiguous fixed-shape loads, which the auto-vectoriser turns
    /// into a handful of vector FMAs per query coordinate. Accumulator
    /// `c` receives exactly [`sq_dist`]'s addition sequence for centroid
    /// `c`, and the argmin scan uses the same ascending-order
    /// strict-improvement rule — bit-identical to the scalar scan.
    fn column_scan<const K: usize>(&self, point: &[f64], k: usize) -> usize {
        debug_assert_eq!(self.col_stride, K);
        let mut acc = [0.0f64; K];
        for (&x, col) in point.iter().zip(self.cols.chunks_exact(K)) {
            for (a, &y) in acc.iter_mut().zip(col) {
                let d = x - y;
                *a += d * d;
            }
        }
        let mut best = (0usize, f64::INFINITY);
        for (c, &d) in acc[..k].iter().enumerate() {
            if d < best.1 {
                best = (c, d);
            }
        }
        best.0
    }

    /// Number of centroids.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Centroid dimensionality.
    pub fn n_cols(&self) -> usize {
        self.n_cols
    }

    /// Centroid `c` as a contiguous slice.
    #[inline]
    pub fn row(&self, c: usize) -> &[f64] {
        &self.data[c * self.n_cols..(c + 1) * self.n_cols]
    }

    /// Squared distances from `point` to centroids `c..c + 4` — four
    /// *independent* accumulator chains stepped in lockstep, so their
    /// floating-point add latencies overlap. Each lane performs exactly
    /// [`sq_dist`]'s operation sequence on its own centroid, so every
    /// returned distance carries the same bits as a scalar call.
    #[inline]
    fn sq_dist4(&self, point: &[f64], c: usize) -> [f64; 4] {
        let d = point.len();
        // `[..d]` re-slices teach the optimizer that every row spans the
        // whole loop range, so the inner accesses are bounds-check-free.
        let r0 = &self.row(c)[..d];
        let r1 = &self.row(c + 1)[..d];
        let r2 = &self.row(c + 2)[..d];
        let r3 = &self.row(c + 3)[..d];
        let mut acc = [0.0f64; 4];
        for (j, &x) in point.iter().enumerate() {
            let d0 = x - r0[j];
            acc[0] += d0 * d0;
            let d1 = x - r1[j];
            acc[1] += d1 * d1;
            let d2 = x - r2[j];
            acc[2] += d2 * d2;
            let d3 = x - r3[j];
            acc[3] += d3 * d3;
        }
        acc
    }

    /// Index of the centroid nearest to `point` — bit-identical to
    /// [`KMeansModel::predict`] on the source model.
    ///
    /// Up to [`COLUMN_SCAN_MAX_K`] centroids the transposed sweep
    /// ([`Self::column_scan`]) runs; beyond it, distances are computed
    /// four centroids at a time ([`Self::sq_dist4`]). Either way every
    /// distance carries [`sq_dist`]'s bits and is compared strictly in
    /// centroid order with the same strict-improvement rule, so the
    /// argmin (first centroid wins ties) is unchanged.
    ///
    /// # Panics
    /// Panics if `point.len() != self.n_cols()`.
    pub fn nearest(&self, point: &[f64]) -> usize {
        assert_eq!(point.len(), self.n_cols, "point dimensionality must match centroids");
        let k = self.k;
        // Compile-time widths so the transposed sweep's inner loop is a
        // fixed-shape vector body; k values off the powers of two pad up
        // to the next one (padding columns are zero and ignored by the
        // argmin bound).
        match k {
            1 => return 0,
            2..=4 => return self.column_scan::<4>(point, k),
            5..=8 => return self.column_scan::<8>(point, k),
            9..=16 => return self.column_scan::<16>(point, k),
            17..=COLUMN_SCAN_MAX_K => return self.column_scan::<COLUMN_SCAN_MAX_K>(point, k),
            _ => {}
        }
        let mut best = (0usize, f64::INFINITY);
        let mut c = 0;
        while c + 4 <= k {
            let dists = self.sq_dist4(point, c);
            for (lane, d) in dists.into_iter().enumerate() {
                if d < best.1 {
                    best = (c + lane, d);
                }
            }
            c += 4;
        }
        for tail in c..k {
            let d = sq_dist(point, self.row(tail));
            if d < best.1 {
                best = (tail, d);
            }
        }
        best.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::KMeans;
    use falcc_dataset::dataset::ProjectedMatrix;
    use rand::rngs::StdRng;
    use rand::Rng;
    use rand::SeedableRng;

    fn random_points(n: usize, d: usize, seed: u64) -> ProjectedMatrix {
        let mut rng = StdRng::seed_from_u64(seed);
        let data: Vec<f64> = (0..n * d).map(|_| rng.gen_range(-4.0..4.0)).collect();
        ProjectedMatrix { data, n_cols: d, n_rows: n }
    }

    #[test]
    fn nearest_is_bit_identical_to_predict() {
        for (k, d, seed) in [(1usize, 2usize, 1u64), (4, 3, 2), (9, 5, 3), (16, 1, 4)] {
            let points = random_points(240, d, seed);
            let model = KMeans::new(k, seed).fit(&points);
            let matrix = CentroidMatrix::from_model(&model);
            assert_eq!(matrix.k(), model.k());
            assert_eq!(matrix.n_cols(), d);

            let queries = random_points(300, d, seed ^ 0xABCD);
            for i in 0..queries.n_rows {
                let q = queries.row(i);
                assert_eq!(
                    model.predict(q),
                    matrix.nearest(q),
                    "divergence at k={k} d={d} seed={seed} query {i}"
                );
            }
            // Centroids on their own positions too (zero-distance path).
            for c in 0..model.k() {
                assert_eq!(model.predict(matrix.row(c)), matrix.nearest(matrix.row(c)));
            }
        }
    }

    #[test]
    fn raw_round_trip_is_identical_and_shape_checked() {
        let points = random_points(160, 3, 21);
        let model = KMeans::new(6, 21).fit(&points);
        let matrix = CentroidMatrix::from_model(&model);
        let rebuilt =
            CentroidMatrix::from_raw(matrix.data().to_vec(), matrix.k(), matrix.n_cols()).unwrap();
        assert_eq!(rebuilt, matrix, "raw parts must reproduce the full matrix");
        let queries = random_points(80, 3, 22);
        for i in 0..queries.n_rows {
            assert_eq!(matrix.nearest(queries.row(i)), rebuilt.nearest(queries.row(i)));
        }
        assert!(CentroidMatrix::from_raw(vec![0.0; 5], 2, 3).is_err());
        assert!(CentroidMatrix::from_raw(Vec::new(), 0, 3).is_err());
    }

    #[test]
    fn rows_match_source_centroids() {
        let points = random_points(120, 4, 9);
        let model = KMeans::new(5, 9).fit(&points);
        let matrix = CentroidMatrix::from_model(&model);
        for (c, centroid) in model.centroids.iter().enumerate() {
            assert_eq!(matrix.row(c), centroid.as_slice());
        }
    }
}
