//! The metrics registry: counters and gauges, plus the power-of-two
//! bucket layout the live monitors' distance digests use.
//!
//! Metrics are `static` values with `const` constructors — call sites pay
//! one relaxed-atomic enabled check when disabled, and lock-free atomic
//! updates when enabled. A metric registers itself into the global
//! registry on first update, so snapshots enumerate exactly the metrics
//! that were touched (plus previously-touched ones at zero after a
//! [`crate::reset`]).
//!
//! Hot loops should accumulate locally and flush once — e.g. the kd-tree
//! leaf scan counts scanned and pruned points in registers and performs
//! one [`Counter::add`] per counter per query; Lloyd's algorithm adds its
//! per-fit totals once per iteration, not per point.
//!
//! Every metric is a count, never a duration (spans time the phases), so
//! a run's metric values repeat exactly at every thread count. The
//! well-known metric names live in [`counters`] and [`gauges`]; the
//! catalog (name → unit → where recorded) is documented in `DESIGN.md` §6.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

/// Number of digest buckets. Bucket `0` counts zero values; bucket
/// `i ≥ 1` counts values `v` with `2^(i-1) ≤ v < 2^i`; the last bucket is
/// unbounded above.
pub const HISTOGRAM_BUCKETS: usize = 32;

struct Registry {
    counters: Vec<&'static Counter>,
    gauges: Vec<&'static Gauge>,
}

static REGISTRY: Mutex<Registry> =
    Mutex::new(Registry { counters: Vec::new(), gauges: Vec::new() });

pub(crate) fn reset_values() {
    let reg = REGISTRY.lock().expect("metric registry poisoned");
    for c in &reg.counters {
        c.value.store(0, Ordering::Relaxed);
    }
    for g in &reg.gauges {
        g.value.store(0, Ordering::Relaxed);
    }
}

pub(crate) fn collect_counters() -> Vec<(String, u64)> {
    let reg = REGISTRY.lock().expect("metric registry poisoned");
    let mut out: Vec<(String, u64)> = reg
        .counters
        .iter()
        .map(|c| (c.name.to_string(), c.value.load(Ordering::Relaxed)))
        .collect();
    out.sort();
    out
}

pub(crate) fn collect_gauges() -> Vec<(String, u64)> {
    let reg = REGISTRY.lock().expect("metric registry poisoned");
    let mut out: Vec<(String, u64)> = reg
        .gauges
        .iter()
        .map(|g| (g.name.to_string(), g.value.load(Ordering::Relaxed)))
        .collect();
    out.sort();
    out
}

/// A monotonically increasing counter.
pub struct Counter {
    name: &'static str,
    value: AtomicU64,
    registered: AtomicBool,
}

impl Counter {
    /// Creates a counter — use in a `static`.
    pub const fn new(name: &'static str) -> Self {
        Self { name, value: AtomicU64::new(0), registered: AtomicBool::new(false) }
    }

    /// The metric name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Adds `delta`. No-op (one relaxed load) when telemetry is disabled.
    #[inline]
    pub fn add(&'static self, delta: u64) {
        if !crate::enabled() {
            return;
        }
        if !self.registered.swap(true, Ordering::AcqRel) {
            REGISTRY.lock().expect("metric registry poisoned").counters.push(self);
        }
        self.value.fetch_add(delta, Ordering::Relaxed);
    }

    /// Adds 1.
    #[inline]
    pub fn incr(&'static self) {
        self.add(1);
    }

    /// Current value (test/report helper).
    pub fn get(&'static self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A last-write-wins gauge holding a `u64` (sizes, counts, chosen k, …).
pub struct Gauge {
    name: &'static str,
    value: AtomicU64,
    registered: AtomicBool,
}

impl Gauge {
    /// Creates a gauge — use in a `static`.
    pub const fn new(name: &'static str) -> Self {
        Self { name, value: AtomicU64::new(0), registered: AtomicBool::new(false) }
    }

    /// The metric name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Sets the gauge. No-op when telemetry is disabled.
    #[inline]
    pub fn set(&'static self, value: u64) {
        if !crate::enabled() {
            return;
        }
        if !self.registered.swap(true, Ordering::AcqRel) {
            REGISTRY.lock().expect("metric registry poisoned").gauges.push(self);
        }
        self.value.store(value, Ordering::Relaxed);
    }

    /// Current value (test/report helper).
    pub fn get(&'static self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// The bucket a value lands in: `0` for zero, else
/// `min(bit_length(v), HISTOGRAM_BUCKETS - 1)`.
#[inline]
pub fn bucket_index(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        ((64 - value.leading_zeros()) as usize).min(HISTOGRAM_BUCKETS - 1)
    }
}

/// The exclusive upper bound of bucket `i` (`None` for the unbounded last
/// bucket). Bucket 0 covers exactly `{0}`, so its bound is 1.
pub fn bucket_upper_bound(i: usize) -> Option<u64> {
    if i + 1 >= HISTOGRAM_BUCKETS {
        None
    } else {
        Some(1u64 << i)
    }
}

/// Well-known counters. Units and recording sites: `DESIGN.md` §6.
pub mod counters {
    use super::Counter;

    /// Lloyd iterations executed across every k-means descent (offline
    /// clustering + LOG-Means/elbow probes).
    pub static LLOYD_ITERATIONS: Counter = Counter::new("offline.lloyd_iterations");
    /// Points whose full centroid scan a Lloyd iteration skipped thanks to
    /// the Hamerly bound.
    pub static LLOYD_BOUND_SKIPS: Counter = Counter::new("clustering.bound_skips");
    /// SSE probes evaluated by LOG-Means / the elbow estimator (cache
    /// misses; cache hits are free).
    pub static LOGMEANS_PROBES: Counter = Counter::new("clustering.logmeans_probes");
    /// Rows the serving plane classified, added once per call: the
    /// accepted rows of a batch, every row of a dataset, 1 per accepted
    /// single row.
    pub static ONLINE_SAMPLES: Counter = Counter::new("online.samples");
    /// Leaf points reached (post-filter) by kd-tree queries.
    pub static KNN_POINTS_SCANNED: Counter = Counter::new("knn.points_scanned");
    /// Leaf points skipped by the kd-tree norm-gap prefilter.
    pub static KNN_NORM_GAP_PRUNED: Counter = Counter::new("knn.norm_gap_pruned");
    /// Leaf points abandoned by the early-exit distance accumulation.
    pub static KNN_EARLY_EXIT_PRUNED: Counter = Counter::new("knn.early_exit_pruned");
    /// Candidate split positions evaluated while fitting decision trees:
    /// cuts between distinct values that pass the leaf-size and weight
    /// filters. The presorted builder counts only the cuts of blocks it
    /// scans cut by cut; a screened block's cuts are never inspected.
    pub static SPLITS_EVALUATED: Counter = Counter::new("offline.splits_evaluated");
    /// Of those, entropy candidates the presorted builder skipped because
    /// an upper bound on their gain could not beat the node's best split.
    pub static SPLITS_SCREENED: Counter = Counter::new("offline.splits_screened");
    /// Blocks of up to 64 cuts, and sub-blocks of up to 16 within a block
    /// that was not skipped, whose gains the presorted builder bounded
    /// together once their node had a best split.
    pub static SPLIT_BLOCKS_BOUNDED: Counter = Counter::new("offline.split_blocks_bounded");
    /// Of those, blocks and sub-blocks skipped whole because the bound
    /// could not beat the node's best split.
    pub static SPLIT_BLOCKS_SCREENED: Counter = Counter::new("offline.split_blocks_screened");
    /// Hyperparameter grid points fitted for pool training.
    pub static POOL_GRID_POINTS: Counter = Counter::new("pool.grid_points");
    /// Auto-tuning candidates evaluated.
    pub static TUNING_TRIALS: Counter = Counter::new("tuning.trials");
    /// Auto-tuning candidates that failed to fit (skipped).
    pub static TUNING_TRIALS_FAILED: Counter = Counter::new("tuning.trials_failed");
    /// Attributes removed as proxies by the `Remove` mitigation strategy.
    pub static PROXY_ATTRS_REMOVED: Counter = Counter::new("proxy.attrs_removed");
    /// Faults fired by a `falcc::faults::FaultPlan` (deterministic
    /// injection harness). Zero in production runs.
    pub static FAULTS_INJECTED: Counter = Counter::new("faults.injected");
    /// Pool members quarantined during offline intake (injected failure or
    /// a non-finite probability detected on the validation probe).
    pub static POOL_MEMBERS_QUARANTINED: Counter = Counter::new("pool.members_quarantined");
    /// Regions whose assessment set was empty or a single point — served
    /// through the fallback chain instead of per-region assessment.
    pub static DEGENERATE_CLUSTERS: Counter = Counter::new("offline.degenerate_clusters");
    /// (region, group) cells healed by borrowing the nearest covering
    /// region's model choice.
    pub static REGION_GROUP_FALLBACKS: Counter = Counter::new("offline.region_group_fallbacks");
    /// (region, group) cells healed by the global-best combination (no
    /// region covered the group at all).
    pub static REGION_GLOBAL_FALLBACKS: Counter = Counter::new("offline.region_global_fallbacks");
    /// Batch-classification rows rejected with a typed per-row error
    /// (non-finite features, wrong width, out-of-domain sensitive values).
    pub static ONLINE_ROWS_REJECTED: Counter = Counter::new("online.rows_rejected");
    /// Snapshots rejected at load time (corruption, truncation, version
    /// skew, failed checksum).
    pub static SNAPSHOTS_REJECTED: Counter = Counter::new("persist.snapshots_rejected");
    /// Round-trip self-checks performed on snapshot save.
    pub static SNAPSHOT_SELF_CHECKS: Counter = Counter::new("persist.self_checks");
    /// Empty clusters re-seeded from the farthest point during Lloyd
    /// iterations (the degenerate-cluster collapse fix).
    pub static KMEANS_EMPTY_RESEEDS: Counter = Counter::new("clustering.empty_reseeds");
    /// Rows dispatched through per-model buckets by the compiled batch
    /// path.
    pub static SERVE_BUCKET_ROWS: Counter = Counter::new("serve.bucket_rows");
    /// Rows the compiled batch path served in input order instead —
    /// small-arena and kNN-delegate members that skip bucketing. Together
    /// with `serve.bucket_rows` this reconciles with every accepted row,
    /// whatever the member kind.
    pub static SERVE_ORDERED_ROWS: Counter = Counter::new("serve.ordered_rows");
    /// Retries performed by the offline checkpoint journal's bounded
    /// retry layer after a transient I/O failure.
    pub static OFFLINE_RETRIES: Counter = Counter::new("offline.retries");
    /// Checkpoint records committed (record file durable + manifest entry
    /// appended) by the offline journal.
    pub static CHECKPOINTS_WRITTEN: Counter = Counter::new("checkpoint.written");
    /// Pipeline stages satisfied from a journaled checkpoint on resume
    /// instead of being recomputed.
    pub static CHECKPOINTS_RESUMED: Counter = Counter::new("checkpoint.resumed");
    /// Journal entries discarded on resume: torn or corrupt records,
    /// broken manifest chains, and stale-generation suffixes.
    pub static CHECKPOINTS_DISCARDED: Counter = Counter::new("checkpoint.discarded");
    /// Binary serving artifacts rejected at load time (corruption,
    /// truncation, misalignment, version skew, stale fingerprint).
    pub static ARTIFACTS_REJECTED: Counter = Counter::new("artifact.rejected");
    /// Serving starts that preferred a binary artifact but fell back to
    /// the JSON restore+compile path (missing, stale, or damaged
    /// artifact).
    pub static SERVE_ARTIFACT_FALLBACKS: Counter = Counter::new("serve.artifact_fallbacks");
}

/// Well-known gauges.
pub mod gauges {
    use super::Gauge;

    /// Number of local regions (clusters) of the most recently fitted
    /// model.
    pub static OFFLINE_CLUSTERS: Gauge = Gauge::new("offline.clusters");
    /// Pool size of the most recently fitted model.
    pub static OFFLINE_POOL_SIZE: Gauge = Gauge::new("offline.pool_size");
    /// Candidate model combinations assessed per cluster.
    pub static OFFLINE_COMBINATIONS: Gauge = Gauge::new("offline.combinations");
    /// Distinct compiled models in the most recent `compile()` — the
    /// deduplicated reach of the region→group dispatch table (≤ pool
    /// size × groups).
    pub static SERVE_DEDUP_MODELS: Gauge = Gauge::new("serve.dedup_models");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::TEST_LOCK;

    #[test]
    fn bucket_boundaries_are_powers_of_two() {
        // Bucket 0 = {0}; bucket i = [2^(i-1), 2^i).
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(7), 3);
        assert_eq!(bucket_index(8), 4);
        assert_eq!(bucket_index(1023), 10);
        assert_eq!(bucket_index(1024), 11);
        assert_eq!(bucket_index(u64::MAX), HISTOGRAM_BUCKETS - 1);
        // Every value < the bucket's upper bound and >= the previous one.
        for i in 1..HISTOGRAM_BUCKETS - 1 {
            let hi = bucket_upper_bound(i).unwrap();
            assert_eq!(bucket_index(hi - 1), i, "upper boundary of bucket {i}");
            assert_eq!(bucket_index(hi), i + 1, "lower boundary of bucket {}", i + 1);
        }
        assert_eq!(bucket_upper_bound(HISTOGRAM_BUCKETS - 1), None);
    }

    #[test]
    fn counters_and_gauges_register_on_first_touch() {
        static C: Counter = Counter::new("test.counter");
        static G: Gauge = Gauge::new("test.gauge");
        let _guard = TEST_LOCK.lock().unwrap();
        crate::enable();
        crate::reset();
        C.add(3);
        C.incr();
        G.set(9);
        G.set(4);
        crate::disable();
        let snap = crate::snapshot();
        assert_eq!(snap.counter("test.counter"), 4);
        assert_eq!(snap.gauge("test.gauge"), Some(4));
        // Reset zeroes but keeps registration.
        crate::reset();
        assert_eq!(crate::snapshot().counter("test.counter"), 0);
    }

    #[test]
    fn disabled_updates_are_dropped() {
        static C: Counter = Counter::new("test.disabled_counter");
        let _guard = TEST_LOCK.lock().unwrap();
        crate::disable();
        crate::reset();
        C.add(5);
        assert_eq!(crate::snapshot().counter("test.disabled_counter"), 0);
    }
}
