//! A kd-tree k-nearest-neighbour index over `f64` points.
//!
//! Used by three parts of the reproduction:
//! * the FALCES baselines' online phase, which computes the kNN of every
//!   new sample (the cost FALCC's offline clustering avoids — Fig. 6);
//! * FALCC's cluster *gap-filling*, which pulls in the nearest
//!   representatives of sensitive groups missing from a cluster (§3.5);
//! * the consistency metric on large inputs.
//!
//! The tree splits on the axis of maximum spread at the median, stores
//! point indices, and answers queries with branch-and-bound pruning. For
//! the dataset sizes in the paper (≤ 72k rows, ≤ 91 dims) this is
//! comfortably fast while remaining dependency-free.
//!
//! Leaf scans carry two exactness-preserving prunes: a cached norm-gap
//! prefilter that skips points whose `(‖q‖−‖p‖)²` lower bound (reverse
//! triangle inequality, conservatively margined) already reaches the
//! incumbent k-th distance, and an early-exit distance accumulation.
//! Norms only *prune*: every surviving point gets the exact [`sq_dist`]
//! summation, never the `‖q‖² − 2q·p + ‖p‖²` expansion, which would
//! change the floats. Both prunes leave the result **bit-identical** to
//! the unpruned scan ([`KdTree::nearest_reference`] keeps that reference
//! path alive for the equivalence tests).

use crate::kmeans::{sq_dist, LB_DEFLATE};
use falcc_dataset::dataset::ProjectedMatrix;

/// Absolute margin, scaled by the norm magnitudes, subtracted from the
/// leaf-scan norm-gap prefilter. The gap's float error is relative to the
/// *norms* rather than the gap itself, so a purely relative deflation
/// would not be conservative.
const NORM_GAP_MARGIN: f64 = 1e-10;

/// A kd-tree over the rows of a [`ProjectedMatrix`].
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct KdTree {
    points: ProjectedMatrix,
    nodes: Vec<Node>,
    root: Option<usize>,
    /// Euclidean norm of each indexed point, cached once at build time
    /// for the leaf-scan norm-gap prefilter.
    norms: Vec<f64>,
}

#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
enum Node {
    Leaf {
        /// Indices into `points`.
        indices: Vec<u32>,
    },
    Split {
        axis: u16,
        value: f64,
        left: usize,
        right: usize,
    },
}

const LEAF_SIZE: usize = 16;

/// Per-query leaf-scan tallies, accumulated in registers during the
/// recursive search and flushed to the telemetry counters once per query
/// (hot loops never touch an atomic per point).
#[derive(Default)]
struct ScanStats {
    scanned: u64,
    norm_gap_pruned: u64,
    early_exit_pruned: u64,
}

impl ScanStats {
    fn flush(&self) {
        falcc_telemetry::counters::KNN_POINTS_SCANNED.add(self.scanned);
        falcc_telemetry::counters::KNN_NORM_GAP_PRUNED.add(self.norm_gap_pruned);
        falcc_telemetry::counters::KNN_EARLY_EXIT_PRUNED.add(self.early_exit_pruned);
    }
}

impl KdTree {
    /// Builds a tree over all rows of `points`. The matrix is moved in; use
    /// [`Self::point`] to read points back.
    pub fn build(points: ProjectedMatrix) -> Self {
        let norms = (0..points.n_rows)
            .map(|i| points.row(i).iter().map(|v| v * v).sum::<f64>().sqrt())
            .collect();
        let mut tree = Self { points, nodes: Vec::new(), root: None, norms };
        if tree.points.n_rows > 0 {
            let mut indices: Vec<u32> = (0..tree.points.n_rows as u32).collect();
            let root = tree.build_node(&mut indices);
            tree.root = Some(root);
        }
        tree
    }

    fn build_node(&mut self, indices: &mut [u32]) -> usize {
        if indices.len() <= LEAF_SIZE {
            self.nodes.push(Node::Leaf { indices: indices.to_vec() });
            return self.nodes.len() - 1;
        }
        // Split on the axis with the largest spread among these points.
        let d = self.points.n_cols;
        let mut axis = 0usize;
        let mut best_spread = f64::MIN;
        for a in 0..d {
            let mut lo = f64::INFINITY;
            let mut hi = f64::NEG_INFINITY;
            for &i in indices.iter() {
                let v = self.points.row(i as usize)[a];
                lo = lo.min(v);
                hi = hi.max(v);
            }
            if hi - lo > best_spread {
                best_spread = hi - lo;
                axis = a;
            }
        }
        if best_spread <= 0.0 {
            // All points identical: leaf regardless of size.
            self.nodes.push(Node::Leaf { indices: indices.to_vec() });
            return self.nodes.len() - 1;
        }
        let mid = indices.len() / 2;
        indices.select_nth_unstable_by(mid, |&a, &b| {
            let va = self.points.row(a as usize)[axis];
            let vb = self.points.row(b as usize)[axis];
            va.partial_cmp(&vb).expect("coordinates are finite")
        });
        let split_value = self.points.row(indices[mid] as usize)[axis];
        let (left_slice, right_slice) = indices.split_at_mut(mid);
        // Recursion order: children are created before the parent node.
        let mut left_vec = left_slice.to_vec();
        let mut right_vec = right_slice.to_vec();
        let left = self.build_node(&mut left_vec);
        let right = self.build_node(&mut right_vec);
        self.nodes.push(Node::Split { axis: axis as u16, value: split_value, left, right });
        self.nodes.len() - 1
    }

    /// Number of indexed points.
    #[inline]
    pub fn len(&self) -> usize {
        self.points.n_rows
    }

    /// `true` when no points are indexed.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.points.n_rows == 0
    }

    /// The coordinates of indexed point `i`.
    #[inline]
    pub fn point(&self, i: usize) -> &[f64] {
        self.points.row(i)
    }

    /// The `k` nearest neighbours of `query`, as `(index, squared
    /// distance)` sorted by ascending distance. Returns fewer than `k`
    /// pairs when the tree holds fewer points.
    ///
    /// # Panics
    /// Panics if the query dimensionality does not match the indexed
    /// points.
    pub fn nearest(&self, query: &[f64], k: usize) -> Vec<(usize, f64)> {
        assert_eq!(query.len(), self.points.n_cols, "query dimensionality mismatch");
        let Some(root) = self.root else { return Vec::new() };
        if k == 0 {
            return Vec::new();
        }
        let mut heap = BoundedMaxHeap::new(k);
        let mut stats = ScanStats::default();
        let q_norm = query.iter().map(|v| v * v).sum::<f64>().sqrt();
        self.search_filtered(root, query, q_norm, &mut heap, &mut |_| true, true, &mut stats);
        stats.flush();
        heap.into_sorted()
    }

    /// [`Self::nearest`] without the leaf-scan prunes — the naive
    /// reference the equivalence tests compare against.
    pub fn nearest_reference(&self, query: &[f64], k: usize) -> Vec<(usize, f64)> {
        assert_eq!(query.len(), self.points.n_cols, "query dimensionality mismatch");
        let Some(root) = self.root else { return Vec::new() };
        if k == 0 {
            return Vec::new();
        }
        let mut heap = BoundedMaxHeap::new(k);
        let mut stats = ScanStats::default();
        self.search_filtered(root, query, 0.0, &mut heap, &mut |_| true, false, &mut stats);
        stats.flush();
        heap.into_sorted()
    }

    /// Like [`Self::nearest`] but keeps only points accepted by `filter`
    /// (e.g. "members of sensitive group g" for FALCC's gap-filling).
    pub fn nearest_filtered(
        &self,
        query: &[f64],
        k: usize,
        mut filter: impl FnMut(usize) -> bool,
    ) -> Vec<(usize, f64)> {
        assert_eq!(query.len(), self.points.n_cols, "query dimensionality mismatch");
        let Some(root) = self.root else { return Vec::new() };
        if k == 0 {
            return Vec::new();
        }
        let mut heap = BoundedMaxHeap::new(k);
        let mut stats = ScanStats::default();
        let q_norm = query.iter().map(|v| v * v).sum::<f64>().sqrt();
        self.search_filtered(root, query, q_norm, &mut heap, &mut filter, true, &mut stats);
        stats.flush();
        heap.into_sorted()
    }

    #[allow(clippy::too_many_arguments)]
    fn search_filtered(
        &self,
        node: usize,
        query: &[f64],
        q_norm: f64,
        heap: &mut BoundedMaxHeap,
        filter: &mut impl FnMut(usize) -> bool,
        pruned: bool,
        stats: &mut ScanStats,
    ) {
        match &self.nodes[node] {
            Node::Leaf { indices } => {
                for &i in indices {
                    let i = i as usize;
                    if !filter(i) {
                        continue;
                    }
                    if !pruned {
                        stats.scanned += 1;
                        heap.push(i, sq_dist(query, self.points.row(i)));
                        continue;
                    }
                    // The heap accepts a point iff it is not full or the
                    // distance strictly undercuts the worst kept one; both
                    // prunes below only ever skip points provably at or
                    // beyond that cutoff, so the heap evolves identically.
                    let cutoff =
                        if heap.is_full() { heap.worst() } else { f64::INFINITY };
                    if cutoff.is_finite() {
                        let gap = (q_norm - self.norms[i]).abs()
                            - NORM_GAP_MARGIN * (q_norm + self.norms[i]);
                        if gap > 0.0 && gap * gap * LB_DEFLATE >= cutoff {
                            stats.norm_gap_pruned += 1;
                            continue;
                        }
                    }
                    stats.scanned += 1;
                    if let Some(d) = sq_dist_within(query, self.points.row(i), cutoff) {
                        heap.push(i, d);
                    } else {
                        stats.early_exit_pruned += 1;
                    }
                }
            }
            Node::Split { axis, value, left, right } => {
                let delta = query[*axis as usize] - value;
                let (near, far) = if delta < 0.0 { (*left, *right) } else { (*right, *left) };
                self.search_filtered(near, query, q_norm, heap, filter, pruned, stats);
                // Visit the far side only if the splitting plane is closer
                // than the current k-th best (or the heap is not full).
                if !heap.is_full() || delta * delta < heap.worst() {
                    self.search_filtered(far, query, q_norm, heap, filter, pruned, stats);
                }
            }
        }
    }
}

/// Squared distance with an early exit: returns `None` as soon as a
/// partial prefix reaches `cutoff`. Because the summands are nonnegative
/// and round-to-nearest is monotone, prefix sums never decrease, so
/// `None` proves the fully-summed distance would satisfy `d >= cutoff` —
/// and a `Some(d)` is summed in exactly [`sq_dist`]'s order, so callers
/// that update a strict incumbent get **bit-identical** results to a
/// full-scan argmin.
#[inline]
fn sq_dist_within(a: &[f64], b: &[f64], cutoff: f64) -> Option<f64> {
    let mut acc = 0.0;
    for (ca, cb) in a.chunks(8).zip(b.chunks(8)) {
        for (x, y) in ca.iter().zip(cb) {
            acc += (x - y) * (x - y);
        }
        if acc >= cutoff {
            return None;
        }
    }
    Some(acc)
}

/// Fixed-capacity max-heap keeping the k smallest distances seen.
struct BoundedMaxHeap {
    k: usize,
    // (distance, index); max element first.
    items: Vec<(f64, usize)>,
}

impl BoundedMaxHeap {
    fn new(k: usize) -> Self {
        Self { k, items: Vec::with_capacity(k + 1) }
    }

    fn is_full(&self) -> bool {
        self.items.len() >= self.k
    }

    fn worst(&self) -> f64 {
        self.items.first().map_or(f64::INFINITY, |&(d, _)| d)
    }

    fn push(&mut self, index: usize, dist: f64) {
        if self.is_full() && dist >= self.worst() {
            return;
        }
        self.items.push((dist, index));
        self.sift_up(self.items.len() - 1);
        if self.items.len() > self.k {
            self.pop_max();
        }
    }

    fn pop_max(&mut self) {
        let last = self.items.len() - 1;
        self.items.swap(0, last);
        self.items.pop();
        self.sift_down(0);
    }

    fn sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.items[i].0 > self.items[parent].0 {
                self.items.swap(i, parent);
                i = parent;
            } else {
                break;
            }
        }
    }

    fn sift_down(&mut self, mut i: usize) {
        loop {
            let (l, r) = (2 * i + 1, 2 * i + 2);
            let mut largest = i;
            if l < self.items.len() && self.items[l].0 > self.items[largest].0 {
                largest = l;
            }
            if r < self.items.len() && self.items[r].0 > self.items[largest].0 {
                largest = r;
            }
            if largest == i {
                break;
            }
            self.items.swap(i, largest);
            i = largest;
        }
    }

    fn into_sorted(self) -> Vec<(usize, f64)> {
        let mut v: Vec<(usize, f64)> =
            self.items.into_iter().map(|(d, i)| (i, d)).collect();
        v.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("distances are finite"));
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::Rng;
    use rand::SeedableRng;

    fn random_matrix(n: usize, d: usize, seed: u64) -> ProjectedMatrix {
        let mut rng = StdRng::seed_from_u64(seed);
        ProjectedMatrix {
            data: (0..n * d).map(|_| rng.gen_range(-10.0..10.0)).collect(),
            n_cols: d,
            n_rows: n,
        }
    }

    fn brute_force(x: &ProjectedMatrix, q: &[f64], k: usize) -> Vec<(usize, f64)> {
        let mut all: Vec<(usize, f64)> =
            (0..x.n_rows).map(|i| (i, sq_dist(q, x.row(i)))).collect();
        all.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap());
        all.truncate(k);
        all
    }

    #[test]
    fn matches_brute_force() {
        let x = random_matrix(500, 5, 1);
        let tree = KdTree::build(x.clone());
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..50 {
            let q: Vec<f64> = (0..5).map(|_| rng.gen_range(-12.0..12.0)).collect();
            let expect = brute_force(&x, &q, 7);
            let got = tree.nearest(&q, 7);
            let e_idx: Vec<f64> = expect.iter().map(|&(_, d)| d).collect();
            let g_idx: Vec<f64> = got.iter().map(|&(_, d)| d).collect();
            assert_eq!(g_idx.len(), 7);
            for (a, b) in e_idx.iter().zip(&g_idx) {
                assert!((a - b).abs() < 1e-9, "distance mismatch");
            }
        }
    }

    #[test]
    fn filtered_query_respects_predicate() {
        let x = random_matrix(200, 3, 3);
        let tree = KdTree::build(x.clone());
        let q = [0.0, 0.0, 0.0];
        // Only even indices allowed.
        let got = tree.nearest_filtered(&q, 5, |i| i % 2 == 0);
        assert_eq!(got.len(), 5);
        assert!(got.iter().all(|&(i, _)| i % 2 == 0));
        // Equals brute force restricted to even indices.
        let mut all: Vec<(usize, f64)> = (0..x.n_rows)
            .filter(|i| i % 2 == 0)
            .map(|i| (i, sq_dist(&q, x.row(i))))
            .collect();
        all.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap());
        for (e, g) in all[..5].iter().zip(&got) {
            assert!((e.1 - g.1).abs() < 1e-9);
        }
    }

    #[test]
    fn fewer_points_than_k() {
        let x = random_matrix(3, 2, 4);
        let tree = KdTree::build(x);
        let got = tree.nearest(&[0.0, 0.0], 10);
        assert_eq!(got.len(), 3);
        // Sorted ascending.
        assert!(got.windows(2).all(|w| w[0].1 <= w[1].1));
    }

    #[test]
    fn duplicate_points_are_handled() {
        let x = ProjectedMatrix {
            data: vec![1.0; 100], // 50 identical 2-d points
            n_cols: 2,
            n_rows: 50,
        };
        let tree = KdTree::build(x);
        let got = tree.nearest(&[1.0, 1.0], 5);
        assert_eq!(got.len(), 5);
        assert!(got.iter().all(|&(_, d)| d < 1e-12));
    }

    #[test]
    fn empty_tree_and_zero_k() {
        let x = ProjectedMatrix { data: vec![], n_cols: 2, n_rows: 0 };
        let tree = KdTree::build(x);
        assert!(tree.is_empty());
        assert!(tree.nearest(&[0.0, 0.0], 3).is_empty());
        let x = random_matrix(10, 2, 5);
        let tree = KdTree::build(x);
        assert!(tree.nearest(&[0.0, 0.0], 0).is_empty());
        assert_eq!(tree.len(), 10);
    }

    #[test]
    fn exact_match_is_found_first() {
        let x = random_matrix(100, 4, 6);
        let target = x.row(42).to_vec();
        let tree = KdTree::build(x);
        let got = tree.nearest(&target, 1);
        assert_eq!(got[0].0, 42);
        assert!(got[0].1 < 1e-12);
    }

    #[test]
    #[should_panic(expected = "dimensionality")]
    fn wrong_dimensionality_panics() {
        let tree = KdTree::build(random_matrix(10, 3, 7));
        tree.nearest(&[0.0, 0.0], 1);
    }
}
