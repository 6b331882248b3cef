//! The traced run: spans recorded by the benchmark around calls into each
//! layer's public functions, and the per-layer metrics derived from them.
//! Nothing is recorded inside the program, and `falcc_telemetry`
//! recording stays off.
//!
//! * The fit is replayed through its public parts: `FalccModel::fit` is
//!   `ModelPool::train_diverse` followed by `FalccModel::fit_with_pool`,
//!   and the replay must reproduce the untraced fit's digest. The steps
//!   inside `fit_with_pool` (proxy, projection, k estimation, k-means,
//!   kd-tree, pool predictions) are then replayed one by one; what they
//!   leave of `fit_with_pool` is gap fill, assessment, fallbacks and the
//!   monitor baseline (`core.offline.assess_rest_s`), the part of the fit
//!   no layer span covers (`trace.unattributed_share`). LOG-Means is
//!   nearly all of `fit_with_pool` at scale 1.0 and repeats only within
//!   about ±15% on this kind of host, so the residual is taken from a
//!   `fit_with_pool` given the estimated k (`FixedK`), which fits the same
//!   model without it.
//!   On the `FixedK` workload, whose fit skips k estimation,
//!   `clustering.k_estimate_s` is what LOG-Means would cost on the same
//!   validation set.
//! * Each bulk batch runs once through its entry point and once split
//!   into stages — group lookup and projection, region match on a
//!   `CentroidMatrix` built from `FalccModel::centroids`, and the member
//!   walk on a `FlatPool` compiled from the reachable members — whose
//!   outputs must equal the reference.
//! * Online requests measure what batches cannot: the 16-row request's
//!   own overhead, the live monitor (on minus off, though no gated
//!   workload installs one) and the rejected malformed rows.

use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use std::path::PathBuf;

use falcc::{
    ClusterSpec, CompiledModel, CompiledModelBuf, FairClassifier, FalccConfig, FalccModel,
    ProxyOutcome, RowFault, SavedFalccModel,
};
use falcc_clustering::{log_means, CentroidMatrix, KEstimateConfig, KMeans, KMeansModel, KdTree};
use falcc_dataset::{GroupId, GroupIndex};
use falcc_models::{
    enumerate_combinations, parallel_map, parallel_map_range, predict_dataset, Classifier,
    FlatPool, ModelPool, PoolConfig,
};

use crate::check::Tally;
use crate::run::{self, Inputs, Prepared};
use crate::schedule::Request;
use crate::stats;
use crate::workload::Workload;
use crate::Metric;

/// Every per-layer metric: name, unit, layer, and the end-to-end metric it
/// should move on which workload. `BENCHMARK.json` lists the same names.
pub const LAYER_METRICS: &[(&str, &str, &str, &str)] = &[
    ("dataset.generate_s", "s", "dataset", "setup_s (all)"),
    ("dataset.project_s", "s", "dataset", "fit_s (fit_adult)"),
    ("core.proxy.apply_s", "s", "core.proxy", "fit_s (fit_adult)"),
    (
        "models.pool.train_s",
        "s",
        "models.pool",
        "fit_s (fit_adult)",
    ),
    (
        "models.pool.predict_s",
        "s",
        "models.pool",
        "fit_s (fit_adult)",
    ),
    (
        "models.pool.grid_trained",
        "count",
        "models.pool",
        "fit_s (fit_adult)",
    ),
    (
        "models.pool.members_kept",
        "count",
        "models.pool",
        "fit_s (fit_adult)",
    ),
    (
        "models.parallel.pool_serial_s",
        "s",
        "models.parallel",
        "fit_s (fit_adult)",
    ),
    (
        "models.parallel.pool_idle_core_s",
        "s",
        "models.parallel",
        "fit_s (fit_adult)",
    ),
    (
        "clustering.k_estimate_s",
        "s",
        "clustering",
        "fit_s (fit_adult)",
    ),
    ("clustering.k", "count", "clustering", "fit_s (fit_adult)"),
    (
        "clustering.kmeans_s",
        "s",
        "clustering",
        "fit_s (fit_adult)",
    ),
    (
        "clustering.kdtree_build_s",
        "s",
        "clustering",
        "fit_s (fit_adult)",
    ),
    (
        "core.offline.fit_with_pool_s",
        "s",
        "core.offline",
        "fit_s (fit_adult)",
    ),
    (
        "core.offline.assess_rest_s",
        "s",
        "core.offline",
        "fit_s (fit_adult)",
    ),
    (
        "core.offline.loss_evals",
        "count",
        "core.offline",
        "fit_s (fit_adult)",
    ),
    (
        "core.compile.lower_ms",
        "ms",
        "core.compile",
        "setup_s (score_bulk)",
    ),
    (
        "core.serve.validate_project_ns",
        "ns",
        "core.serve",
        "batch_rows_per_s (score_bulk, fit_adult)",
    ),
    (
        "clustering.match_ns",
        "ns",
        "clustering",
        "batch_rows_per_s (score_bulk, fit_adult)",
    ),
    (
        "models.flat.walk_ns",
        "ns",
        "models.flat",
        "batch_rows_per_s (score_bulk, fit_adult)",
    ),
    (
        "models.flat.nodes",
        "count",
        "models.flat",
        "batch_rows_per_s (score_bulk, fit_adult)",
    ),
    (
        "models.flat.bucket_row_share",
        "ratio",
        "models.flat",
        "batch_rows_per_s (score_bulk, fit_adult)",
    ),
    (
        "core.serve.orchestration_share",
        "ratio",
        "core.serve",
        "batch_rows_per_s (score_bulk)",
    ),
    (
        "models.parallel.call_us",
        "us",
        "models.parallel",
        "batch_rows_per_s (score_bulk)",
    ),
    (
        "models.parallel.batch_speedup",
        "x",
        "models.parallel",
        "batch_rows_per_s (score_bulk)",
    ),
    (
        "core.serve.microbatch_overhead_us",
        "us",
        "core.serve",
        "microbatch_p50_us (all)",
    ),
    (
        "telemetry.monitor.single_ns",
        "ns",
        "telemetry.monitor",
        "single_p50_us (none: no workload installs a monitor)",
    ),
    (
        "telemetry.monitor.batch_us",
        "us",
        "telemetry.monitor",
        "microbatch_p50_us (none: no workload installs a monitor)",
    ),
    (
        "core.serve.rows_rejected",
        "count",
        "core.serve",
        "failed (all)",
    ),
    (
        "core.artifact.fingerprint_ms",
        "ms",
        "core.artifact",
        "cold_start_p50_ms (none: every workload cold-starts from JSON)",
    ),
    (
        "core.artifact.read_validate_ms",
        "ms",
        "core.artifact",
        "cold_start_p50_ms (none: every workload cold-starts from JSON)",
    ),
    (
        "core.artifact.copy_ms",
        "ms",
        "core.artifact",
        "cold_start_p50_ms (none: every workload cold-starts from JSON)",
    ),
    (
        "core.artifact.bytes",
        "B",
        "core.artifact",
        "cold_start_p50_ms (none: every workload cold-starts from JSON)",
    ),
    (
        "core.artifact.fallbacks",
        "count",
        "core.artifact",
        "cold_start_p50_ms (none: every workload cold-starts from JSON)",
    ),
    (
        "core.persist.parse_ms",
        "ms",
        "core.persist",
        "cold_start_p50_ms (fit_adult, score_bulk)",
    ),
    (
        "core.persist.restore_ms",
        "ms",
        "core.persist",
        "cold_start_p50_ms (fit_adult, score_bulk)",
    ),
    (
        "core.persist.json_bytes",
        "B",
        "core.persist",
        "cold_start_p50_ms (fit_adult, score_bulk)",
    ),
    ("trace.overhead_pct", "%", "trace", "none (all)"),
    (
        "trace.unattributed_share",
        "ratio",
        "trace",
        "none (fit_adult)",
    ),
];

/// Fewest repetitions behind each traced median.
const MIN_REPS: usize = 11;

/// Rounds of `fit_with_pool` and its replayed steps.
const SUBSTEP_ROUNDS: usize = 3;

/// Passes over the schedule whose requests get a span each; later passes
/// time only the monitor, which bounds the trace's size.
const TRACED_PASSES: usize = 1;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct SpanRec {
    /// Span name: the layer function it wraps.
    pub name: &'static str,
    /// Start, since the tracer was created.
    pub start: Duration,
    /// End, since the tracer was created.
    pub end: Duration,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// The request (or replayed step) the span belongs to.
    pub request: u64,
}

/// In-memory span recorder. Spans nest in call order on the benchmark's
/// thread; spans timed on worker threads are added with [`Self::record`].
pub struct Tracer {
    base: Instant,
    spans: Vec<SpanRec>,
    stack: Vec<usize>,
}

impl Tracer {
    /// An empty tracer.
    pub fn new() -> Self {
        Self {
            base: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        request: u64,
        f: impl FnOnce(&mut Self) -> R,
    ) -> R {
        let idx = self.spans.len();
        let parent = self.stack.last().copied();
        self.spans.push(SpanRec {
            name,
            start: Duration::ZERO,
            end: Duration::ZERO,
            parent,
            request,
        });
        self.stack.push(idx);
        let start = self.base.elapsed();
        let out = f(self);
        let end = self.base.elapsed();
        self.stack.pop();
        self.spans[idx].start = start;
        self.spans[idx].end = end;
        out
    }

    /// Adds a span timed elsewhere as a child of the open span.
    pub fn record(&mut self, name: &'static str, request: u64, start: Instant, end: Instant) {
        let parent = self.stack.last().copied();
        let at = |i: Instant| i.saturating_duration_since(self.base);
        self.spans.push(SpanRec {
            name,
            start: at(start),
            end: at(end),
            parent,
            request,
        });
    }

    /// Duration of span `i`, in seconds.
    pub fn duration(&self, i: usize) -> f64 {
        (self.spans[i].end.saturating_sub(self.spans[i].start)).as_secs_f64()
    }

    /// Durations of every span named `name`, in seconds, in record order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        (0..self.spans.len())
            .filter(|&i| self.spans[i].name == name)
            .map(|i| self.duration(i))
            .collect()
    }

    /// Summed duration of every span named `name`, in seconds.
    pub fn total(&self, name: &str) -> f64 {
        self.durations(name).iter().sum()
    }

    /// Index of the last span named `name`.
    fn last(&self, name: &str) -> Option<usize> {
        self.spans.iter().rposition(|s| s.name == name)
    }

    /// The spans as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 96);
        for (i, s) in self.spans.iter().enumerate() {
            out.push_str(&format!(
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}, \"request\": {}}}\n",
                s.name,
                s.start.as_nanos(),
                s.end.as_nanos(),
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.request
            ));
        }
        out
    }
}

/// The serving plane taken apart with public functions: the model's group
/// index and proxy, the benchmark's own dispatch table, a `CentroidMatrix`
/// over the model's centroids, and a `FlatPool` over its reachable members
/// in the same first-seen order `FalccModel::compile` uses.
struct Stages {
    groups: GroupIndex,
    proxy: ProxyOutcome,
    centroids: CentroidMatrix,
    flat: FlatPool,
    dispatch: Vec<usize>,
    n_groups: usize,
}

impl Stages {
    fn new(model: &FalccModel) -> Self {
        let groups = model.schema().group_index();
        let n_groups = groups.len();
        let mut id_of: Vec<Option<usize>> = vec![None; model.pool().len()];
        let mut reachable: Vec<Arc<dyn Classifier>> = Vec::new();
        let mut dispatch = Vec::with_capacity(model.n_regions() * n_groups);
        for region in 0..model.n_regions() {
            for &member in model.combo(region).iter().take(n_groups) {
                let id = *id_of[member].get_or_insert_with(|| {
                    reachable.push(Arc::clone(&model.pool().models[member].model));
                    reachable.len() - 1
                });
                dispatch.push(id);
            }
        }
        let kmeans = KMeansModel {
            centroids: model.centroids().to_vec(),
            assignments: Vec::new(),
            sse: 0.0,
        };
        Self {
            groups,
            proxy: model.proxy_outcome().clone(),
            centroids: CentroidMatrix::from_model(&kmeans),
            flat: FlatPool::compile(&reachable),
            dispatch,
            n_groups,
        }
    }

    fn member(&self, region: usize, group: GroupId) -> usize {
        self.dispatch[region * self.n_groups + group.index()]
    }

    /// The member walk of a batch at one thread: rows of members that
    /// want a bucket go through `predict_bucket`, the rest row by row in
    /// input order. Returns the labels and the bucketed row count.
    fn walk(&self, rows: &[&[f64]], members: &[usize]) -> (Vec<u8>, usize) {
        let mut buckets: Vec<Vec<u32>> = vec![Vec::new(); self.flat.len()];
        let mut out = vec![0u8; rows.len()];
        let mut bucketed = 0;
        for (i, &member) in members.iter().enumerate() {
            if self.flat.wants_bucket(member) {
                buckets[member].push(i as u32);
                bucketed += 1;
            } else {
                out[i] = self.flat.predict_row(member, rows[i]);
            }
        }
        for (member, idxs) in buckets.iter().enumerate().filter(|(_, b)| !b.is_empty()) {
            for (&i, z) in idxs
                .iter()
                .zip(self.flat.predict_bucket(member, rows, idxs))
            {
                out[i as usize] = z;
            }
        }
        (out, bucketed)
    }
}

/// Runs `f(rep)` until `budget` has passed and at least `min` times.
fn repeat(budget: Duration, min: usize, mut f: impl FnMut(usize)) {
    let start = Instant::now();
    let mut rep = 0;
    while rep < min || start.elapsed() < budget {
        f(rep);
        rep += 1;
    }
}

/// The `--emit-artifact` step of `falcc fit`: compiles the snapshot back
/// from its file and writes the fingerprinted sibling artifact.
fn emit_artifact(json_path: &Path) -> Result<PathBuf, String> {
    let bytes = std::fs::read(json_path).map_err(|e| format!("reading snapshot: {e}"))?;
    let fingerprint = falcc::io::fnv1a64(&bytes);
    let compiled = SavedFalccModel::load_file(json_path)
        .map_err(|e| format!("reading snapshot: {e}"))?
        .restore()
        .compile();
    let path = falcc::sibling_artifact_path(json_path);
    compiled
        .save_artifact(&path, fingerprint)
        .map_err(|e| format!("writing artifact: {e}"))?;
    Ok(path)
}

/// One traced run of workload `w`.
///
/// # Errors
/// A fit, persistence or cold-start error ends the run early.
pub fn run(
    w: &Workload,
    seed: u64,
    seconds: f64,
    dir: &Path,
    info: &mut Vec<String>,
) -> Result<(Tally, Vec<Metric>), (Tally, String)> {
    let mut t = Tracer::new();
    let mut tally = Tally::default();
    let mut values: Vec<(&'static str, f64)> = Vec::new();
    let nproc = crate::env::nproc();
    let config = w.config(run::FIT_SEED);
    let budget = |share: f64| Duration::from_secs_f64(seconds * share);

    let inputs: Inputs = t.span("dataset.generate", 0, |_| run::make_inputs(w, seed));
    values.push(("dataset.generate_s", t.total("dataset.generate")));
    let (train, val) = (&inputs.split.train, &inputs.split.validation);

    // The untraced fit: reference for the replay's digest.
    let f0 = Instant::now();
    let fitted = FalccModel::fit(train, val, &config);
    let fit_untraced = f0.elapsed().as_secs_f64();
    tally.record(fitted.is_ok());
    let model = fitted.map_err(|e| (tally, format!("fit failed: {e}")))?;
    let digest = run::digest(&model).map_err(|e| (tally, e))?;
    info.push(format!("model digest {digest:016x}"));

    // The fit replayed as `train_diverse` + `fit_with_pool`, with the pool
    // configuration `FalccModel::fit` derives.
    let mut pool_cfg = config.pool;
    pool_cfg.seed ^= config.seed;
    pool_cfg.threads = config.threads;
    let (pool, replayed) = t.span("fit", 0, |t| {
        let pool = t.span("models.pool.train", 0, |_| {
            ModelPool::train_diverse(train, val, &pool_cfg)
        });
        let replayed = t.span("core.offline.fit_with_pool", 0, |_| {
            FalccModel::fit_with_pool(val, pool.clone(), &config)
        });
        (pool, replayed)
    });
    let replay_ok = replayed.as_ref().ok().and_then(|m| run::digest(m).ok()) == Some(digest);
    tally.record(replay_ok);
    let fit_root = t.last("fit").expect("fit span");

    // The steps inside `fit_with_pool`, one by one. `fit_with_pool` and
    // its replayed steps alternate for a few rounds, and each round also
    // runs `fit_with_pool` untraced, just before or just after the traced
    // run in turn (round 1's traced run is the replay's). The residual and
    // the overhead are taken per round, from runs seconds apart, and their
    // medians reported: the host's speed drifts too much between rounds
    // for a difference of medians to resolve either.
    let k = model.n_regions();
    let estimates_k = !matches!(config.clustering, ClusterSpec::FixedK(_));
    let mut preds: Vec<Vec<u8>> = Vec::new();
    let mut untraced_fwp = Vec::with_capacity(SUBSTEP_ROUNDS);
    let fixed_k = FalccConfig {
        clustering: ClusterSpec::FixedK(k),
        ..config.clone()
    };
    for round in 1..=SUBSTEP_ROUNDS {
        let req = round as u64;
        let traced_first = round % 2 == 1;
        for traced in [traced_first, !traced_first] {
            if traced && round == 1 {
                continue;
            }
            let again = if traced {
                t.span("core.offline.fit_with_pool", req, |_| {
                    FalccModel::fit_with_pool(val, pool.clone(), &config)
                })
            } else {
                let start = Instant::now();
                let again = FalccModel::fit_with_pool(val, pool.clone(), &config);
                untraced_fwp.push(start.elapsed().as_secs_f64());
                again
            };
            tally.record(again.is_ok());
        }
        if estimates_k {
            let same = t.span("core.offline.fit_with_pool_fixed_k", req, |_| {
                FalccModel::fit_with_pool(val, pool.clone(), &fixed_k)
            });
            tally.record(same.is_ok_and(|m| {
                m.centroids() == model.centroids() && (0..k).all(|r| m.combo(r) == model.combo(r))
            }));
        }
        let proxy = t.span("core.proxy.apply", req, |_| config.proxy.apply(val));
        let projected = t.span("dataset.project", req, |_| {
            val.project(&proxy.attrs, proxy.weights.as_deref())
        });
        let est = KEstimateConfig::for_rows(projected.n_rows, config.seed);
        let k_est = t.span("clustering.k_estimate", req, |_| {
            log_means(&projected, &est)
        });
        if estimates_k {
            tally.record(k_est == k);
        }
        if round == 1 {
            info.push(format!(
                "LOG-Means on this validation set picks k = {k_est}; the fit uses k = {k}"
            ));
        }
        let kmeans = t.span("clustering.kmeans", req, |_| {
            KMeans::new(k, config.seed).fit(&projected)
        });
        tally.record(kmeans.centroids.as_slice() == model.centroids());
        t.span("clustering.kdtree_build", req, |_| {
            drop(KdTree::build(projected))
        });
        preds = t.span("models.pool.predict", req, |t| {
            let timed = parallel_map(&pool.models, config.threads, |_, m| {
                let start = Instant::now();
                let z = predict_dataset(m.model.as_ref(), val);
                (start, Instant::now(), z)
            });
            timed
                .into_iter()
                .map(|(start, end, z)| {
                    t.record("models.pool.predict_member", req, start, end);
                    z
                })
                .collect()
        });
    }
    let serial_cfg = PoolConfig {
        threads: 1,
        ..pool_cfg
    };
    let serial = t.span("models.parallel.pool_serial", 1, |_| {
        ModelPool::train_diverse(train, val, &serial_cfg)
    });
    let serial_preds: Vec<Vec<u8>> = serial
        .models
        .iter()
        .map(|m| predict_dataset(m.model.as_ref(), val))
        .collect();
    tally.record(serial_preds == preds);

    let med = |name: &str| stats::median(&t.durations(name));
    let traced_fwp = t.durations("core.offline.fit_with_pool");
    let without_k = if estimates_k {
        t.durations("core.offline.fit_with_pool_fixed_k")
    } else {
        traced_fwp.clone()
    };
    let step_times: Vec<Vec<f64>> = [
        "core.proxy.apply",
        "dataset.project",
        "clustering.kmeans",
        "clustering.kdtree_build",
        "models.pool.predict",
    ]
    .iter()
    .map(|n| t.durations(n))
    .collect();
    let residuals: Vec<f64> = (0..SUBSTEP_ROUNDS)
        .map(|r| without_k[r] - step_times.iter().map(|d| d[r]).sum::<f64>())
        .collect();
    let assess_rest = stats::median(&residuals);
    let fit_with_pool = stats::median(&traced_fwp);
    let train_s = t.total("models.pool.train");
    let serial_s = t.total("models.parallel.pool_serial");
    let n_groups = inputs.draw.group_index().len();
    values.extend([
        ("dataset.project_s", med("dataset.project")),
        ("core.proxy.apply_s", med("core.proxy.apply")),
        ("models.pool.train_s", train_s),
        ("models.pool.predict_s", med("models.pool.predict")),
        (
            "models.pool.grid_trained",
            falcc_models::PAPER_GRID(config.pool.trainer).len() as f64,
        ),
        ("models.pool.members_kept", model.pool().len() as f64),
        ("models.parallel.pool_serial_s", serial_s),
        (
            "models.parallel.pool_idle_core_s",
            nproc as f64 * train_s - serial_s,
        ),
        ("clustering.k_estimate_s", med("clustering.k_estimate")),
        ("clustering.k", k as f64),
        ("clustering.kmeans_s", med("clustering.kmeans")),
        ("clustering.kdtree_build_s", med("clustering.kdtree_build")),
        ("core.offline.fit_with_pool_s", fit_with_pool),
        ("core.offline.assess_rest_s", assess_rest),
        (
            "core.offline.loss_evals",
            (enumerate_combinations(model.pool(), n_groups).len() * k) as f64,
        ),
        (
            "trace.unattributed_share",
            assess_rest / (train_s + fit_with_pool),
        ),
    ]);
    // A traced `fit_with_pool` is one span around seconds of work, so its
    // true overhead is far below the host's run-to-run noise, which this
    // figure mostly shows.
    let ratios: Vec<f64> = traced_fwp
        .iter()
        .zip(&untraced_fwp)
        .map(|(a, b)| a / b)
        .collect();
    let fit_overhead = stats::median(&ratios);
    info.push(format!(
        "fit: {fit_untraced:.3} s untraced, {:.3} s replayed",
        t.duration(fit_root)
    ));
    drop((pool, serial, replayed, preds, serial_preds));

    // Persistence, compilation and the artifact (request 2).
    let p: Prepared = run::prepare(model, &inputs, dir).map_err(|e| (tally, e))?;
    let artifact = emit_artifact(&p.json_path).map_err(|e| (tally, e))?;
    let size = |path: &Path| std::fs::metadata(path).map_or(f64::NAN, |m| m.len() as f64);
    values.push(("core.persist.json_bytes", size(&p.json_path)));
    values.push(("core.artifact.bytes", size(&artifact)));
    repeat(budget(0.05), MIN_REPS, |_| {
        t.span("core.persist.load", 2, |t| {
            match t.span("core.persist.parse", 2, |_| {
                SavedFalccModel::load_file(&p.json_path)
            }) {
                Ok(saved) => {
                    let restored = t.span("core.persist.restore", 2, |_| saved.restore());
                    drop(t.span("core.compile.lower", 2, |_| restored.compile()));
                }
                Err(e) => {
                    info.push(format!("snapshot load failed: {e}"));
                    tally.record(false);
                }
            }
        });
    });
    let mut fallbacks = 0u64;
    repeat(budget(0.05), MIN_REPS, |_| {
        let loaded: Result<CompiledModel, String> = t.span("core.artifact.cold_start", 2, |t| {
            let fingerprint = t.span("core.artifact.fingerprint", 2, |_| {
                std::fs::read(&p.json_path).map(|b| falcc::io::fnv1a64(&b))
            });
            let buf = t.span("core.artifact.read_validate", 2, |_| {
                CompiledModelBuf::read(&artifact)
            });
            t.span("core.artifact.copy", 2, |_| match (fingerprint, buf) {
                (Ok(fp), Ok(buf)) => buf.load_if_fresh(fp).map_err(|e| e.to_string()),
                (Err(e), _) => Err(e.to_string()),
                (_, Err(e)) => Err(e.to_string()),
            })
        });
        let ok = loaded.is_ok_and(|m| m.classify_batch(&p.probe_rows) == p.probe_ref);
        fallbacks += u64::from(!ok);
        tally.record(ok);
    });
    let ms = |name: &str| stats::median(&t.durations(name)) * 1e3;
    values.extend([
        ("core.persist.parse_ms", ms("core.persist.parse")),
        ("core.persist.restore_ms", ms("core.persist.restore")),
        ("core.compile.lower_ms", ms("core.compile.lower")),
        (
            "core.artifact.fingerprint_ms",
            ms("core.artifact.fingerprint"),
        ),
        (
            "core.artifact.read_validate_ms",
            ms("core.artifact.read_validate"),
        ),
        ("core.artifact.copy_ms", ms("core.artifact.copy")),
        ("core.artifact.fallbacks", fallbacks as f64),
    ]);

    // The model the workload serves with, loaded the way it loads it.
    let mut m = run::cold_start(&p, nproc).map_err(|e| (tally, e))?;
    let stages = Stages::new(&p.model);
    tally.record(stages.flat.n_nodes() == m.n_nodes());
    values.push(("models.flat.nodes", stages.flat.n_nodes() as f64));
    values.push(("models.parallel.call_us", {
        let mut calls = Vec::with_capacity(2_001);
        t.span("models.parallel.calls", 3, |_| {
            for _ in 0..2_001 {
                let start = Instant::now();
                std::hint::black_box(parallel_map_range(
                    nproc,
                    nproc,
                    std::hint::black_box(|i| i),
                ));
                calls.push(start.elapsed().as_secs_f64() * 1e6);
            }
        });
        stats::median(&calls)
    }));

    let batch = batch_stages(
        &mut t,
        &mut tally,
        &mut m,
        &stages,
        &inputs,
        &p,
        budget(0.3),
    );
    m.set_threads(run::ONLINE_THREADS);
    let online = online_stages(&mut t, &mut tally, &m, &inputs, &p, budget(0.3));
    values.push(("models.parallel.batch_speedup", batch.speedup));
    values.push(("models.flat.bucket_row_share", batch.bucket_row_share));
    values.push((
        "core.serve.microbatch_overhead_us",
        online.microbatch_overhead_us,
    ));
    values.push(("telemetry.monitor.single_ns", online.monitor_single_ns));
    values.push(("telemetry.monitor.batch_us", online.monitor_batch_us));
    values.push(("core.serve.rows_rejected", online.rows_rejected as f64));
    values.extend([
        ("core.serve.validate_project_ns", batch.validate_project_ns),
        ("clustering.match_ns", batch.match_ns),
        ("models.flat.walk_ns", batch.walk_ns),
        ("core.serve.orchestration_share", batch.orchestration_share),
    ]);
    let overhead = if w.fit_timed() {
        fit_overhead
    } else {
        batch.overhead
    };
    values.push(("trace.overhead_pct", (overhead - 1.0) * 100.0));

    let traces = crate::env::repo_root().join(".perfbench").join("traces");
    let file = traces.join(format!("{}-seed{seed}.jsonl", w.name));
    match std::fs::create_dir_all(&traces).and_then(|()| std::fs::write(&file, t.to_jsonl())) {
        Ok(()) => info.push(format!(
            "{} spans written to {}",
            t.spans.len(),
            file.display()
        )),
        Err(e) => info.push(format!("writing spans: {e}")),
    }

    let mut metrics = Vec::with_capacity(LAYER_METRICS.len());
    let mut tags = Vec::with_capacity(LAYER_METRICS.len());
    for &(name, unit, layer, moves) in LAYER_METRICS {
        let value = values
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
            .ok_or_else(|| (tally, format!("per-layer metric {name} was not measured")))?;
        metrics.push(Metric::new(name, value, unit));
        tags.push(format!(
            "{{\"name\": \"{name}\", \"layer\": \"{layer}\", \"moves\": \"{moves}\", \"workload\": \"{}\"}}",
            w.name
        ));
    }
    println!("{{\"layers\": [{}]}}", tags.join(", "));
    Ok((tally, metrics))
}

/// Per-row stage costs of bulk batches, the entry point's speedup at nproc
/// over one thread, and the median ratio of the entry point traced to
/// untraced.
struct BatchResult {
    validate_project_ns: f64,
    match_ns: f64,
    walk_ns: f64,
    orchestration_share: f64,
    speedup: f64,
    bucket_row_share: f64,
    overhead: f64,
}

/// Bulk batches: through the entry point untraced and traced at nproc, at
/// one thread, and split into stages at one thread.
fn batch_stages(
    t: &mut Tracer,
    tally: &mut Tally,
    m: &mut CompiledModel,
    stages: &Stages,
    inputs: &Inputs,
    p: &Prepared,
    budget: Duration,
) -> BatchResult {
    let nproc = crate::env::nproc();
    let mut overheads = Vec::new();
    let (mut rows_staged, mut bucketed) = (0usize, 0usize);
    let n_batches = inputs.batches.len();
    repeat(budget, MIN_REPS, |rep| {
        for (b, ds) in inputs.batches.iter().enumerate() {
            let req = 1_000 + (rep * n_batches + b) as u64;
            let want = &p.batch_refs[b];
            m.set_threads(nproc);
            // Untraced and traced calls run back to back, in alternating
            // order (the second call finds the batch cached).
            let (mut untraced, mut traced) = (0.0, 0.0);
            let traced_first = (rep + b) % 2 == 0;
            for traced_call in [traced_first, !traced_first] {
                let out = if traced_call {
                    let out = t.span("core.serve.predict_dataset", req, |_| m.predict_dataset(ds));
                    traced = t.duration(t.spans.len() - 1);
                    out
                } else {
                    let start = Instant::now();
                    let out = m.predict_dataset(ds);
                    untraced = start.elapsed().as_secs_f64();
                    out
                };
                tally.record_rows(&out, want);
            }
            overheads.push(traced / untraced);
            m.set_threads(1);
            let out = t.span("core.serve.predict_dataset_1t", req, |_| {
                m.predict_dataset(ds)
            });
            tally.record_rows(&out, want);
            let (out, n_bucketed) = t.span("core.serve.staged", req, |t| {
                let (groups, projected) = t.span("core.serve.validate_project", req, |_| {
                    let groups: Vec<GroupId> = (0..ds.len())
                        .map(|i| {
                            stages
                                .groups
                                .group_of(ds.row(i))
                                .expect("dataset rows lie in the group domain")
                        })
                        .collect();
                    (
                        groups,
                        ds.project(&stages.proxy.attrs, stages.proxy.weights.as_deref()),
                    )
                });
                let regions: Vec<usize> = t.span("clustering.match", req, |_| {
                    (0..ds.len())
                        .map(|i| stages.centroids.nearest(projected.row(i)))
                        .collect()
                });
                t.span("models.flat.walk", req, |_| {
                    let rows: Vec<&[f64]> = (0..ds.len()).map(|i| ds.row(i)).collect();
                    let members: Vec<usize> = regions
                        .iter()
                        .zip(&groups)
                        .map(|(&r, &g)| stages.member(r, g))
                        .collect();
                    stages.walk(&rows, &members)
                })
            });
            tally.record_rows(&out, want);
            rows_staged += ds.len();
            bucketed += n_bucketed;
        }
    });
    m.set_threads(nproc);
    let (vp, mt, wk) = (
        t.total("core.serve.validate_project"),
        t.total("clustering.match"),
        t.total("models.flat.walk"),
    );
    let entry_1t = t.total("core.serve.predict_dataset_1t");
    let per_row = |secs: f64| secs * 1e9 / rows_staged as f64;
    let traced_entry = stats::median(&t.durations("core.serve.predict_dataset"));
    BatchResult {
        validate_project_ns: per_row(vp),
        match_ns: per_row(mt),
        walk_ns: per_row(wk),
        orchestration_share: (entry_1t - (vp + mt + wk)) / entry_1t,
        speedup: stats::median(&t.durations("core.serve.predict_dataset_1t")) / traced_entry,
        bucket_row_share: bucketed as f64 / rows_staged as f64,
        overhead: stats::median(&overheads),
    }
}

struct OnlineResult {
    microbatch_overhead_us: f64,
    monitor_single_ns: f64,
    monitor_batch_us: f64,
    rows_rejected: u64,
}

/// The online schedule: single rows through `try_classify`, 16-row
/// requests through `classify_batch` against 16 `try_classify` calls, and
/// both with and without a live monitor.
fn online_stages(
    t: &mut Tracer,
    tally: &mut Tally,
    m: &CompiledModel,
    inputs: &Inputs,
    p: &Prepared,
    budget: Duration,
) -> OnlineResult {
    let singles: Vec<usize> = (0..inputs.schedule.len())
        .filter(|&i| matches!(inputs.schedule[i], Request::Single(_)))
        .collect();
    let micro: Vec<usize> = (0..inputs.schedule.len())
        .filter(|&i| matches!(inputs.schedule[i], Request::Batch(_)))
        .collect();
    let row = |i: usize| inputs.request_rows[i][0].as_slice();
    let (mut on_single, mut off_single) = (0.0, 0.0);
    let (mut on_batch, mut off_batch) = (Vec::new(), Vec::new());
    let mut passes = 0usize;
    let mut rows_rejected = 0u64;
    repeat(budget, TRACED_PASSES, |pass| {
        let pass_req = 100_000 * (pass as u64 + 1);
        if pass < TRACED_PASSES {
            for &i in &singles {
                let out = t.span("core.serve.try_classify", pass_req + i as u64, |_| {
                    m.try_classify(row(i))
                });
                rows_rejected += u64::from(out.is_err());
                tally.record(out == p.request_refs[i][0]);
            }
            for &i in &micro {
                let rows = &inputs.request_rows[i];
                let req = pass_req + i as u64;
                let out = t.span("core.serve.classify_batch", req, |_| m.classify_batch(rows));
                let one_by_one: Vec<Result<u8, RowFault>> =
                    t.span("core.serve.classify_batch_rows", req, |_| {
                        rows.iter().map(|r| m.try_classify(r)).collect()
                    });
                tally.record(out == p.request_refs[i]);
                tally.record(one_by_one == p.request_refs[i]);
                rows_rejected += out.iter().filter(|z| z.is_err()).count() as u64;
            }
        }
        // Monitored minus unmonitored, over the same requests.
        for monitored in [true, false] {
            let _state = monitored.then(|| {
                falcc_telemetry::monitor::install(p.model.monitor_spec(
                    falcc::baseline::DEFAULT_WINDOW_LEN,
                    falcc::baseline::DEFAULT_WINDOWS,
                ))
            });
            let name = if monitored {
                "telemetry.monitor.on"
            } else {
                "telemetry.monitor.off"
            };
            let start = Instant::now();
            t.span(name, pass_req, |_| {
                for &i in &singles {
                    std::hint::black_box(m.try_classify(row(i))).ok();
                }
            });
            let single_s = start.elapsed().as_secs_f64();
            for &i in &micro {
                let start = Instant::now();
                std::hint::black_box(m.classify_batch(&inputs.request_rows[i]));
                let us = start.elapsed().as_secs_f64() * 1e6;
                if monitored {
                    on_batch.push(us)
                } else {
                    off_batch.push(us)
                }
            }
            falcc_telemetry::monitor::uninstall();
            if monitored {
                on_single += single_s
            } else {
                off_single += single_s
            }
        }
        passes += 1;
    });
    let batch = t.durations("core.serve.classify_batch");
    let rows = t.durations("core.serve.classify_batch_rows");
    let overheads: Vec<f64> = batch
        .iter()
        .zip(&rows)
        .map(|(b, r)| (b - r) * 1e6)
        .collect();
    let injected = inputs
        .schedule
        .iter()
        .map(|r| match r {
            Request::Single(pick) => usize::from(pick.fault.is_some()),
            Request::Batch(picks) => picks.iter().filter(|p| p.fault.is_some()).count(),
        })
        .sum::<usize>() as u64;
    tally.record(rows_rejected == injected);
    OnlineResult {
        microbatch_overhead_us: stats::median(&overheads),
        monitor_single_ns: (on_single - off_single) * 1e9 / (passes * singles.len()) as f64,
        monitor_batch_us: stats::median(&on_batch) - stats::median(&off_batch),
        rows_rejected,
    }
}
