//! Flat centroid matrix: the crate's one nearest-centroid kernel.
//!
//! [`crate::KMeansModel`] stores its centroids as `Vec<Vec<f64>>` — one
//! heap allocation per centroid, so every nearest-centroid query chases
//! `k` pointers. [`CentroidMatrix`] packs the same centroids into one
//! contiguous row-major `k × d` slab plus a transposed copy, turning a
//! nearest-centroid query into a linear sweep over one cache-resident
//! block. The compiled serving plane matches regions through it, and the
//! bounded Lloyd kernel runs its full rescans and its final assignment
//! through it.
//!
//! **Equivalence contract**: [`CentroidMatrix::nearest`] replicates
//! [`crate::KMeansModel::predict`] *bit for bit* — the same exact
//! squared-distance summation per centroid and the same
//! strict-improvement argmin in centroid order (first centroid wins
//! ties). [`CentroidMatrix::nearest_two`] returns the same argmin, its
//! distance and the runner-up distance, each with the bits of the scalar
//! scan over `sq_dist`.

use crate::kmeans::KMeansModel;

/// Widest lane count of the transposed sweep. Up to this many centroids
/// the slab is one block, `k` rounded up to 4, 8, 16 or 32 lanes; beyond
/// it the centroids are cut into blocks of 32. 32 accumulators fit
/// comfortably in registers.
const MAX_LANES: usize = 32;

/// Contiguous centroid slab in both orders.
#[derive(Debug, Clone, PartialEq)]
pub struct CentroidMatrix {
    data: Vec<f64>,
    /// The same centroids transposed, in blocks of `lanes` centroids:
    /// `cols[(b * d + j) * lanes + l]` is coordinate `j` of centroid
    /// `b * lanes + l`, so one query coordinate touches a whole block
    /// through one contiguous run — the shape the auto-vectoriser wants
    /// for the distance sweep. Lanes past `k` in the last block are zero
    /// and never compared.
    cols: Vec<f64>,
    /// Lanes per block (4, 8, 16 or 32): `k` rounded up to the next
    /// power of two, capped at [`MAX_LANES`].
    lanes: usize,
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
        Self::from_rows(&model.centroids)
    }

    /// Packs centroid rows of equal length.
    ///
    /// # Panics
    /// Panics if `centroids` is empty.
    pub(crate) fn from_rows(centroids: &[Vec<f64>]) -> Self {
        assert!(!centroids.is_empty(), "cannot flatten a centroid-free model");
        let n_cols = centroids[0].len();
        let mut data = Vec::with_capacity(centroids.len() * n_cols);
        for centroid in centroids {
            data.extend_from_slice(centroid);
        }
        match Self::from_raw(data, centroids.len(), n_cols) {
            Ok(matrix) => matrix,
            Err(detail) => unreachable!("centroid rows produced an invalid slab: {detail}"),
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
        let lanes = k.next_power_of_two().clamp(4, MAX_LANES);
        let mut cols = vec![0.0; k.div_ceil(lanes) * lanes * n_cols];
        for (c, centroid) in data.chunks_exact(n_cols.max(1)).enumerate().take(k) {
            let (block, lane) = (c / lanes, c % lanes);
            for (j, &v) in centroid.iter().enumerate() {
                cols[(block * n_cols + j) * lanes + lane] = v;
            }
        }
        Ok(Self { data, cols, lanes, k, n_cols })
    }

    /// The row-major `k × d` centroid slab.
    pub fn data(&self) -> &[f64] {
        &self.data
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

    /// Index of the centroid nearest to `point` — bit-identical to
    /// [`KMeansModel::predict`] on the source model.
    ///
    /// # Panics
    /// Panics if `point.len() != self.n_cols()`.
    pub fn nearest(&self, point: &[f64]) -> usize {
        if self.k == 1 {
            assert_eq!(point.len(), self.n_cols, "point dimensionality must match centroids");
            return 0;
        }
        self.nearest_dist(point).0
    }

    /// The nearest centroid and its squared distance, with the bits of
    /// the scalar scan: the strict-improvement argmin in centroid order.
    ///
    /// # Panics
    /// Panics if `point.len() != self.n_cols()`.
    #[inline]
    pub(crate) fn nearest_dist(&self, point: &[f64]) -> (usize, f64) {
        let mut best = (0usize, f64::INFINITY);
        self.sweep(point, |c, d| {
            if d < best.1 {
                best = (c, d);
            }
        });
        best
    }

    /// The nearest centroid, its squared distance and the runner-up
    /// distance (`∞` when `k == 1`). The argmin is [`Self::nearest`]'s;
    /// the runner-up is the smallest distance of any other centroid, so
    /// it equals the best distance when two centroids tie. Every
    /// distance carries the bits of `sq_dist`.
    ///
    /// # Panics
    /// Panics if `point.len() != self.n_cols()`.
    #[inline]
    pub fn nearest_two(&self, point: &[f64]) -> (usize, f64, f64) {
        let mut best = (0usize, f64::INFINITY);
        let mut second = f64::INFINITY;
        self.sweep(point, |c, d| {
            if d < best.1 {
                second = best.1;
                best = (c, d);
            } else if d < second {
                second = d;
            }
        });
        (best.0, best.1, second)
    }

    /// Feeds `fold` every centroid's squared distance to `point`, in
    /// ascending centroid order. Dispatches to the block width this
    /// matrix was packed with, so the accumulation loop has a
    /// compile-time shape.
    #[inline]
    fn sweep(&self, point: &[f64], fold: impl FnMut(usize, f64)) {
        assert_eq!(point.len(), self.n_cols, "point dimensionality must match centroids");
        match self.lanes {
            4 => self.sweep_blocks::<4>(point, fold),
            8 => self.sweep_blocks::<8>(point, fold),
            16 => self.sweep_blocks::<16>(point, fold),
            _ => self.sweep_blocks::<MAX_LANES>(point, fold),
        }
    }

    /// Transposed distance sweep with a compile-time lane count `W`
    /// (== `self.lanes`): one [`block_sums`] per block of `W` centroids,
    /// whose lane `l` belongs to centroid `first + l`. Padded lanes are
    /// dropped before `fold`. A single block (`k ≤ W`, every serving
    /// configuration) skips the block loop and its slicing: in a scratch
    /// timing at k = 3 and 8 that kept the region match at the speed of
    /// the former single-block scan, which the loop form did not.
    #[inline(always)]
    fn sweep_blocks<const W: usize>(&self, point: &[f64], mut fold: impl FnMut(usize, f64)) {
        debug_assert_eq!(self.lanes, W);
        if self.k <= W {
            let acc = block_sums::<W>(point, &self.cols);
            for (c, &d) in acc[..self.k].iter().enumerate() {
                fold(c, d);
            }
            return;
        }
        let block_len = W * self.n_cols;
        let (mut first, mut start) = (0, 0);
        while first < self.k {
            let acc = block_sums::<W>(point, &self.cols[start..start + block_len]);
            for (lane, &d) in acc[..(self.k - first).min(W)].iter().enumerate() {
                fold(first + lane, d);
            }
            first += W;
            start += block_len;
        }
    }
}

/// Squared distances from `point` to the `W` centroids of one transposed
/// block: all `W` running sums advance together through contiguous
/// fixed-shape loads, which the auto-vectoriser turns into a handful of
/// vector operations per query coordinate. Lane `l` receives exactly
/// `sq_dist`'s addition sequence for its centroid: the squares in
/// coordinate order, starting from `+0.0` (a square is never `−0.0`, so
/// the first addition gives the same bits whichever zero a sum starts
/// from), and rustc neither contracts nor reassociates them.
#[inline(always)]
fn block_sums<const W: usize>(point: &[f64], block: &[f64]) -> [f64; W] {
    let mut acc = [0.0f64; W];
    for (&x, col) in point.iter().zip(block.chunks_exact(W)) {
        for (a, &y) in acc.iter_mut().zip(col) {
            let d = x - y;
            *a += d * d;
        }
    }
    acc
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
