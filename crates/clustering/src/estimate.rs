//! Automatic estimation of the k-means parameter `k`.
//!
//! FALCC's clustering component estimates `k` with **LOG-Means** (Fritz,
//! Behringer & Schwarz, VLDB 2020), chosen by the paper for being
//! runtime-efficient without compromising cluster quality. The classic
//! **Elbow method** is provided for comparison and for the ablation
//! experiment.
//!
//! LOG-Means, as published: evaluate the SSE at exponentially spaced values
//! of `k` within `[k_low, k_high]`; the *SSE ratio* of two neighbouring
//! probes `r = SSE(k_left) / SSE(k_right)` is largest where adding clusters
//! still pays off most; the interval with the largest ratio is bisected
//! recursively (re-using cached SSEs) until it cannot be narrowed further,
//! and the right endpoint of the winning ratio is returned.
//!
//! Probes are independent — each is a fresh seeded k-means at its own k —
//! so the exponential probes (and the elbow's whole range) run through the
//! deterministic parallel layer; the bisection stays sequential. The
//! estimate is therefore the same at every thread count.

use crate::kmeans::KMeans;
use falcc_dataset::dataset::ProjectedMatrix;
use falcc_dataset::parallel::parallel_map;
use std::collections::BTreeMap;

/// Configuration of the `k` search space.
#[derive(Debug, Clone, Copy)]
pub struct KEstimateConfig {
    /// Smallest k considered (≥ 1).
    pub k_min: usize,
    /// Largest k considered.
    pub k_max: usize,
    /// Seed forwarded to the underlying k-means runs.
    pub seed: u64,
    /// Max Lloyd iterations per probe (probes can be cheaper than the final
    /// clustering).
    pub max_iter: usize,
    /// Worker threads for independent probes (0 = available parallelism).
    /// The estimate is identical for every value.
    pub threads: usize,
}

impl KEstimateConfig {
    /// Default search space used by the FALCC pipeline: `k ∈ [2, √n]`
    /// capped to `[2, 64]`, probed on every available core.
    pub fn for_rows(n_rows: usize, seed: u64) -> Self {
        let k_max = ((n_rows as f64).sqrt() as usize).clamp(2, 64);
        Self { k_min: 2, k_max, seed, max_iter: 30, threads: 0 }
    }
}

/// One probe: the SSE of a fresh k-means at `k`, a function of its inputs
/// only.
fn probe(x: &ProjectedMatrix, cfg: &KEstimateConfig, k: usize) -> f64 {
    falcc_telemetry::counters::LOGMEANS_PROBES.incr();
    let mut trainer = KMeans::new(k, cfg.seed);
    trainer.max_iter = cfg.max_iter;
    // Probes only need SSE estimates, not the best possible clustering;
    // two restarts keep the estimator robust without quadrupling its cost.
    trainer.n_init = 2;
    trainer.fit(x).sse.max(1e-12)
}

/// Probes every `k` in `ks` in parallel and returns the SSEs keyed by k.
/// A probe's cost grows with k, so the largest are handed out first.
fn probe_all(
    x: &ProjectedMatrix,
    cfg: &KEstimateConfig,
    mut ks: Vec<usize>,
) -> BTreeMap<usize, f64> {
    ks.sort_unstable_by(|a, b| b.cmp(a));
    let sses = parallel_map(&ks, cfg.threads, |_, &k| probe(x, cfg, k));
    ks.into_iter().zip(sses).collect()
}

/// LOG-Means estimate of `k`.
///
/// # Panics
/// Panics if `k_min < 1`, `k_min > k_max`, or `x` is empty.
pub fn log_means(x: &ProjectedMatrix, cfg: &KEstimateConfig) -> usize {
    assert!(cfg.k_min >= 1 && cfg.k_min <= cfg.k_max, "invalid k range");
    assert!(x.n_rows > 0, "cannot estimate k on an empty matrix");
    let k_max = cfg.k_max.min(x.n_rows);
    let k_min = cfg.k_min.min(k_max);
    if k_min == k_max {
        return k_min;
    }

    // Exponentially spaced probe positions k_min, 2·k_min, 4·k_min, …, k_max.
    let mut probes = vec![k_min];
    let mut k = k_min;
    while k < k_max {
        k = (k * 2).min(k_max);
        probes.push(k);
    }
    let mut cache = probe_all(x, cfg, probes);

    // Recursively bisect the interval with the highest SSE ratio, re-using
    // the cache. Each round narrows the best interval by evaluating its
    // midpoint, until the best interval has width 1.
    loop {
        let keys: Vec<usize> = cache.keys().copied().collect();
        let (mut best_ratio, mut best_pair) = (f64::MIN, (keys[0], keys[0]));
        for w in keys.windows(2) {
            let ratio = cache[&w[0]] / cache[&w[1]];
            if ratio > best_ratio {
                best_ratio = ratio;
                best_pair = (w[0], w[1]);
            }
        }
        let (lo, hi) = best_pair;
        if hi - lo <= 1 {
            return hi;
        }
        // `lo` and `hi` are neighbouring cached keys, so `mid` is new.
        let mid = lo + (hi - lo) / 2;
        cache.insert(mid, probe(x, cfg, mid));
    }
}

/// Elbow-method estimate: evaluates every `k` in the range and returns the
/// point of maximum curvature of the SSE curve (largest second difference).
///
/// O(k_max) k-means runs — provided for the ablation, not for production
/// use.
///
/// # Panics
/// Same conditions as [`log_means`].
pub fn elbow_k(x: &ProjectedMatrix, cfg: &KEstimateConfig) -> usize {
    assert!(cfg.k_min >= 1 && cfg.k_min <= cfg.k_max, "invalid k range");
    assert!(x.n_rows > 0, "cannot estimate k on an empty matrix");
    let k_max = cfg.k_max.min(x.n_rows);
    let k_min = cfg.k_min.min(k_max);
    if k_max - k_min < 2 {
        return k_min;
    }
    let sse: Vec<f64> = probe_all(x, cfg, (k_min..=k_max).collect()).into_values().collect();
    // Second difference: SSE[i-1] − 2·SSE[i] + SSE[i+1]; the elbow is where
    // this is largest (sharpest bend).
    let mut best = (k_min + 1, f64::MIN);
    for i in 1..sse.len() - 1 {
        let curvature = sse[i - 1] - 2.0 * sse[i] + sse[i + 1];
        if curvature > best.1 {
            best = (k_min + i, curvature);
        }
    }
    best.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::Rng;
    use rand::SeedableRng;

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
    fn log_means_finds_clear_cluster_count() {
        let centers = [(0.0, 0.0), (20.0, 0.0), (0.0, 20.0), (20.0, 20.0)];
        let x = blobs(60, &centers, 0.6, 1);
        let cfg = KEstimateConfig { k_min: 2, k_max: 16, seed: 5, max_iter: 50, threads: 0 };
        let k = log_means(&x, &cfg);
        assert!((3..=6).contains(&k), "expected ≈4 clusters, got {k}");
    }

    #[test]
    fn elbow_finds_clear_cluster_count() {
        let centers = [(0.0, 0.0), (25.0, 0.0), (0.0, 25.0)];
        let x = blobs(60, &centers, 0.5, 2);
        let cfg = KEstimateConfig { k_min: 2, k_max: 10, seed: 5, max_iter: 50, threads: 0 };
        let k = elbow_k(&x, &cfg);
        assert!((2..=4).contains(&k), "expected ≈3 clusters, got {k}");
    }

    #[test]
    fn log_means_probes_fewer_ks_than_elbow_range() {
        // Structural property, not a wall-clock claim: with k_max = 64 the
        // exponential + bisection pattern touches O(log²) values.
        let x = blobs(30, &[(0.0, 0.0), (15.0, 15.0)], 1.0, 3);
        let cfg = KEstimateConfig { k_min: 2, k_max: 32, seed: 1, max_iter: 15, threads: 0 };
        // Just verify it terminates and returns something in range.
        let k = log_means(&x, &cfg);
        assert!((2..=32).contains(&k));
    }

    #[test]
    fn degenerate_ranges() {
        let x = blobs(10, &[(0.0, 0.0)], 0.5, 4);
        let cfg = KEstimateConfig { k_min: 3, k_max: 3, seed: 0, max_iter: 10, threads: 0 };
        assert_eq!(log_means(&x, &cfg), 3);
        assert_eq!(elbow_k(&x, &cfg), 3);
    }

    #[test]
    fn for_rows_builds_sane_config() {
        let cfg = KEstimateConfig::for_rows(10_000, 7);
        assert_eq!(cfg.k_min, 2);
        assert_eq!(cfg.k_max, 64);
        let small = KEstimateConfig::for_rows(20, 7);
        assert!(small.k_max >= small.k_min);
    }

    #[test]
    fn deterministic_per_seed() {
        let x = blobs(40, &[(0.0, 0.0), (12.0, 12.0)], 1.0, 8);
        let cfg = KEstimateConfig { k_min: 2, k_max: 12, seed: 9, max_iter: 20, threads: 0 };
        assert_eq!(log_means(&x, &cfg), log_means(&x, &cfg));
    }
}
