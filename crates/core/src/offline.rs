//! The FALCC offline phase: proxy mitigation → clustering → gap filling →
//! model assessment (paper §3.3–§3.6).

use crate::baseline::MonitorBaseline;
use crate::checkpoint::{fingerprint, CheckpointJournal, ProjectionDigest, Stage};
use crate::config::{ClusterSpec, FalccConfig};
use crate::error::FalccError;
use crate::faults::{FaultPlan, FaultSite};
use crate::proxy::ProxyOutcome;
use falcc_clustering::{elbow_k, log_means, KEstimateConfig, KdTree, KMeans, KMeansModel};
use falcc_dataset::{Dataset, GroupId};
use falcc_metrics::LossConfig;
use falcc_models::{
    enumerate_combinations, parallel_map, predict_dataset, GridCheckpoint, ModelPool, ModelSpec,
    TrainedModel,
};

/// Adapts the checkpoint journal to the models crate's per-member
/// [`GridCheckpoint`] hook. `store` is infallible by signature, so journal
/// I/O errors are buffered here and surfaced once training returns.
struct JournalGrid<'a> {
    journal: &'a mut CheckpointJournal,
    error: Option<FalccError>,
}

impl GridCheckpoint for JournalGrid<'_> {
    fn load(&mut self, slot: usize) -> Option<ModelSpec> {
        self.journal.fetch(Stage::PoolMember(slot))
    }

    fn store(&mut self, slot: usize, spec: &ModelSpec) {
        if self.error.is_none() {
            if let Err(e) = self.journal.commit(Stage::PoolMember(slot), spec) {
                self.error = Some(e);
            }
        }
    }
}

/// Within this loss distance of a region's best combination, assessment
/// prefers the combination using the *fewest distinct models*: near-ties
/// are common on small clusters, and gratuitous per-group model switching
/// hurts individual consistency without buying fairness.
const TIE_TOLERANCE: f64 = 1e-3;

/// One region's assessment outcome, as journaled per region and fed to
/// fallback resolution: the winning combination (`None` for a degenerate
/// region) plus the per-group presence mask.
type RegionAssessment = (Option<Vec<usize>>, Vec<bool>);

/// A fitted FALCC model: everything the online phase needs.
///
/// * the trained, diverse model pool `M`;
/// * the region centroids (in the proxy-mitigated projection space) —
///   only the centroids: the fit's per-row cluster assignments feed gap
///   filling and the monitor baseline, and nothing reads them after;
/// * the per-cluster best model combination `MC` (one pool index per
///   sensitive group);
/// * the proxy outcome so new samples are projected identically.
#[derive(Clone)]
pub struct FalccModel {
    pub(crate) schema: falcc_dataset::Schema,
    pub(crate) pool: ModelPool,
    /// `centroids[region]`, in the proxy-mitigated projection space.
    pub(crate) centroids: Vec<Vec<f64>>,
    /// `combos[cluster][group.index()]` → pool model index.
    pub(crate) combos: Vec<Vec<usize>>,
    pub(crate) proxy: ProxyOutcome,
    pub(crate) group_index: falcc_dataset::GroupIndex,
    pub(crate) loss: LossConfig,
    pub(crate) name: String,
    /// The fit's worker-thread count (0 = available parallelism), carried
    /// over from [`FalccConfig::threads`] as the starting thread count of
    /// [`Self::compile`]'s serving plane; 0 on a restored model.
    pub(crate) threads: usize,
    /// Fault-injection schedule carried over from the fitting config so
    /// `classify_batch` (and the plane [`Self::compile`] builds) honour
    /// [`FaultSite::NonFiniteRow`] injections.
    /// Empty in production; never serialised (restored models get the
    /// default plan).
    pub(crate) faults: FaultPlan,
    /// Per-region validation statistics (occupancy, group mix, training
    /// DP) — the reference the live serving monitors measure drift
    /// against. Persisted with the model.
    pub(crate) baseline: MonitorBaseline,
}

impl FalccModel {
    /// Runs the full offline phase: diverse model training on `train`,
    /// then clustering + assessment on `validation`.
    ///
    /// # Errors
    /// Propagates configuration validation, dataset errors, and coverage
    /// failures ([`FalccError::GroupAbsent`],
    /// [`FalccError::NoApplicableModel`]).
    pub fn fit(
        train: &Dataset,
        validation: &Dataset,
        config: &FalccConfig,
    ) -> Result<Self, FalccError> {
        config.validate()?;
        let _sp = falcc_telemetry::span("offline.fit");
        // Crash consistency: with a checkpoint spec configured, every
        // phase journals its result and a resume picks up after the last
        // valid checkpoint. The journal is advisory state only — each
        // phase below either fetches a bit-exact prior result or computes
        // it from scratch, so the fitted model is identical with or
        // without a journal, interrupted or not, at any thread count.
        let mut journal = match &config.checkpoint {
            Some(spec) => {
                let fp = fingerprint(config, train, validation);
                Some(CheckpointJournal::open(spec, fp, &config.faults)?)
            }
            None => None,
        };
        let mut pool_cfg = config.pool;
        pool_cfg.seed ^= config.seed;
        pool_cfg.threads = config.threads;
        let pool = {
            let _pool_sp = falcc_telemetry::span("offline.pool_training");
            match journal.as_mut() {
                None => ModelPool::train_diverse(train, validation, &pool_cfg),
                Some(journal) => {
                    Self::train_pool_checkpointed(train, validation, &pool_cfg, journal)?
                }
            }
        };
        let model = Self::fit_with_pool_inner(validation, pool, config, journal.as_mut())?;
        if let Some(journal) = &journal {
            journal.check_crash_point_fired()?;
        }
        Ok(model)
    }

    /// Diverse pool training against a journal: per-member
    /// sub-checkpoints via [`JournalGrid`], plus a [`Stage::PoolTraining`]
    /// checkpoint of the selected pool that lets resumes skip diversity
    /// selection entirely.
    fn train_pool_checkpointed(
        train: &Dataset,
        validation: &Dataset,
        pool_cfg: &falcc_models::PoolConfig,
        journal: &mut CheckpointJournal,
    ) -> Result<ModelPool, FalccError> {
        if let Some(saved) = journal.fetch::<Vec<(ModelSpec, Option<GroupId>)>>(Stage::PoolTraining)
        {
            return Ok(ModelPool::from_models(
                saved
                    .into_iter()
                    .map(|(spec, group)| TrainedModel { model: spec.into_classifier(), group })
                    .collect(),
            ));
        }
        let mut hook = JournalGrid { journal, error: None };
        let pool = ModelPool::train_diverse_checkpointed(train, validation, pool_cfg, &mut hook);
        if let Some(e) = hook.error.take() {
            return Err(e);
        }
        // Every built-in trainer exposes a spec; a pool member without one
        // cannot appear here (custom pools enter via `fit_with_pool`,
        // which does not journal), so the selected pool is always
        // checkpointable.
        let specs: Vec<(ModelSpec, Option<GroupId>)> = pool
            .models
            .iter()
            .filter_map(|m| m.model.to_spec().map(|s| (s, m.group)))
            .collect();
        if specs.len() == pool.models.len() {
            journal.commit(Stage::PoolTraining, &specs)?;
        }
        Ok(pool)
    }

    /// Runs the offline phase with an externally provided model pool —
    /// the `FALCC*` configuration of the paper, which plugs in fair
    /// classifiers (LFR, Fair-SMOTE, FaX) as pool members.
    ///
    /// # Errors
    /// Same conditions as [`Self::fit`].
    pub fn fit_with_pool(
        validation: &Dataset,
        pool: ModelPool,
        config: &FalccConfig,
    ) -> Result<Self, FalccError> {
        // External pools may contain custom classifiers with no
        // serialisable spec, and the run fingerprint cannot cover them —
        // so this entry point never journals. Checkpointing lives on
        // [`Self::fit`].
        Self::fit_with_pool_inner(validation, pool, config, None)
    }

    fn fit_with_pool_inner(
        validation: &Dataset,
        mut pool: ModelPool,
        config: &FalccConfig,
        mut journal: Option<&mut CheckpointJournal>,
    ) -> Result<Self, FalccError> {
        config.validate()?;
        if pool.is_empty() {
            return Err(FalccError::NoApplicableModel { group: 0 });
        }

        // Graceful degradation (quarantine): drop pool members whose
        // training failed (injected via the fault plan) or that produce
        // non-finite probabilities on a probe of the validation set, and
        // continue with the survivors as long as the configured floor
        // holds. A diverse pool tolerates losing members — that is the
        // point of training several (§3.3).
        let mut failed: Vec<usize> = (0..pool.len())
            .filter(|&i| config.faults.fires(FaultSite::PoolMember, i as u64))
            .collect();
        failed.extend(pool.unsound_members(validation, 32));
        failed.sort_unstable();
        failed.dedup();
        let quarantined = pool.quarantine(&failed);
        if quarantined > 0 {
            falcc_telemetry::counters::POOL_MEMBERS_QUARANTINED.add(quarantined as u64);
            if falcc_telemetry::enabled() {
                falcc_telemetry::event(
                    "offline.quarantine",
                    format!("{quarantined} pool member(s) quarantined, {} survive", pool.len()),
                );
            }
        }
        if pool.len() < config.min_pool_size {
            return Err(FalccError::PoolDepleted {
                survivors: pool.len(),
                quarantined,
                min_pool_size: config.min_pool_size,
            });
        }

        let group_index = validation.group_index().clone();
        let n_groups = group_index.len();

        // Every group must appear in the validation data — otherwise even
        // gap filling has nothing to pull from.
        let counts = validation.group_counts();
        if let Some(g) = counts.iter().position(|&c| c == 0) {
            return Err(FalccError::GroupAbsent { group: g });
        }

        // §3.4 proxy mitigation → attribute selection/weights for
        // clustering.
        let proxy = {
            let _proxy_sp = falcc_telemetry::span("offline.proxy");
            match journal.as_deref().and_then(|j| j.fetch::<ProxyOutcome>(Stage::Proxy)) {
                Some(resumed) => resumed,
                None => {
                    let fresh = config.proxy.apply(validation);
                    if let Some(j) = journal.as_deref_mut() {
                        j.commit(Stage::Proxy, &fresh)?;
                    }
                    fresh
                }
            }
        };

        // §3.5 clustering of the projected validation set. Projection is
        // cheap, so it is always recomputed; its journal record is a
        // digest-only *verification* checkpoint guarding against a
        // fingerprint collision feeding a resumed run different data.
        let projected = {
            let _proj_sp = falcc_telemetry::span("offline.projection");
            validation.project(&proxy.attrs, proxy.weights.as_deref())
        };
        if let Some(j) = journal.as_deref_mut() {
            let digest = ProjectionDigest::of(projected.n_rows, projected.n_cols, &projected.data);
            match j.fetch::<ProjectionDigest>(Stage::Projection) {
                Some(resumed) if resumed != digest => {
                    return Err(FalccError::CheckpointCorrupt {
                        detail: format!(
                            "projection digest mismatch: journal has {}, this run computed {}",
                            resumed.hash, digest.hash
                        ),
                    });
                }
                Some(_) => {}
                None => j.commit(Stage::Projection, &digest)?,
            }
        }
        let k = {
            let _k_sp = falcc_telemetry::span("offline.k_estimation");
            match journal.as_deref().and_then(|j| j.fetch::<usize>(Stage::KEstimation)) {
                Some(resumed) => resumed,
                None => {
                    let est = KEstimateConfig {
                        threads: config.threads,
                        ..KEstimateConfig::for_rows(projected.n_rows, config.seed)
                    };
                    let fresh = match config.clustering {
                        ClusterSpec::FixedK(k) => k,
                        ClusterSpec::LogMeans => log_means(&projected, &est),
                        ClusterSpec::Elbow => elbow_k(&projected, &est),
                    };
                    if let Some(j) = journal.as_deref_mut() {
                        j.commit(Stage::KEstimation, &fresh)?;
                    }
                    fresh
                }
            }
        };
        let kmeans = {
            let _cluster_sp = falcc_telemetry::span_labeled("offline.clustering", format!("k={k}"));
            match journal.as_deref().and_then(|j| j.fetch::<KMeansModel>(Stage::Clustering)) {
                Some(resumed) => resumed,
                None => {
                    let fresh = KMeans::new(k, config.seed).fit(&projected);
                    if let Some(j) = journal.as_deref_mut() {
                        j.commit(Stage::Clustering, &fresh)?;
                    }
                    fresh
                }
            }
        };
        falcc_telemetry::gauges::OFFLINE_CLUSTERS.set(kmeans.k() as u64);
        falcc_telemetry::gauges::OFFLINE_POOL_SIZE.set(pool.len() as u64);

        // Gap filling (§3.5): make sure every cluster's assessment set has
        // members of every group, pulling in the nearest representatives.
        let (tree, mut assessment_sets) = {
            let _gap_sp = falcc_telemetry::span("offline.gap_fill");
            let tree = KdTree::build(projected);
            let sets = match
                journal.as_deref().and_then(|j| j.fetch::<Vec<Vec<usize>>>(Stage::GapFill))
            {
                Some(resumed) => resumed,
                None => {
                    let fresh =
                        gap_fill(&kmeans, &tree, validation, n_groups, config.gap_fill_k);
                    if let Some(j) = journal.as_deref_mut() {
                        j.commit(Stage::GapFill, &fresh)?;
                    }
                    fresh
                }
            };
            (tree, sets)
        };

        // Fault injection happens *after* gap filling on purpose: earlier
        // damage would simply be healed by the gap filler, and the point
        // is to exercise the degradation paths below it.
        if !config.faults.is_empty() {
            for (c, members) in assessment_sets.iter_mut().enumerate() {
                if config.faults.fires(FaultSite::ClusterEmpty, c as u64) {
                    members.clear();
                    continue;
                }
                let dropped = config.faults.dropped_groups(c as u64);
                if !dropped.is_empty() {
                    members.retain(|&i| !dropped.contains(&validation.group(i).0));
                }
            }
        }

        // §3.3 candidate combinations; §3.6 assessment.
        let candidates = enumerate_combinations(&pool, n_groups);
        if candidates.is_empty() {
            let uncovered = (0..n_groups)
                .find(|&g| pool.applicable(GroupId(g as u16)).is_empty())
                .unwrap_or(0);
            return Err(FalccError::NoApplicableModel { group: uncovered });
        }

        falcc_telemetry::gauges::OFFLINE_COMBINATIONS.set(candidates.len() as u64);

        // Precompute every pool model's predictions on the validation set
        // once — assessment then only gathers. Models predict
        // independently, so this fans out across threads.
        let preds: Vec<Vec<u8>> = {
            let _preds_sp = falcc_telemetry::span("offline.pool_predictions");
            parallel_map(&pool.models, config.threads, |_, m| {
                predict_dataset(m.model.as_ref(), validation)
            })
        };

        // Near-ties within `TIE_TOLERANCE` go to the fewest distinct models.
        let distinct_models = |combo: &[usize]| -> usize {
            let mut sorted = combo.to_vec();
            sorted.sort_unstable();
            sorted.dedup();
            sorted.len()
        };
        // Clusters are assessed independently (shared read-only inputs,
        // no randomness), so the per-cluster loop fans out across threads;
        // the ordered merge keeps `combos[c]` aligned with cluster `c`.
        // Worker spans parent under the assessment span by explicit id
        // with the cluster index as ordinal (deterministic tree for every
        // thread count).
        let assess_sp = falcc_telemetry::span("offline.assessment");
        let assess_sp_id = assess_sp.id();
        // Each cluster yields its best combination *and* which groups its
        // assessment set actually contained; degenerate clusters (empty
        // set, or no finitely-scored candidate) yield no combination and
        // are healed by the fallback chain below.
        let assess_region = |c: usize, members: &Vec<usize>| -> (Option<Vec<usize>>, Vec<bool>) {
            let _w = falcc_telemetry::span_under(assess_sp_id, "offline.assess_cluster", c as u64);
            let mut present = vec![false; n_groups];
            for &i in members.iter() {
                present[validation.group(i).index()] = true;
            }
            if members.is_empty() {
                falcc_telemetry::counters::DEGENERATE_CLUSTERS.incr();
                return (None, present);
            }
            let y: Vec<u8> = members.iter().map(|&i| validation.label(i)).collect();
            let g: Vec<GroupId> = members.iter().map(|&i| validation.group(i)).collect();
            // Individual-fairness mode (§3.6): each member's k nearest
            // neighbours *within this cluster* (local indices into
            // `members`), found via the same kd-tree that served gap
            // filling — the paper's "clusters as substitutes for kNN".
            let neighbors: Option<Vec<Vec<usize>>> =
                config.individual_assessment_k.map(|k| {
                    let local: std::collections::HashMap<usize, usize> = members
                        .iter()
                        .enumerate()
                        .map(|(pos, &i)| (i, pos))
                        .collect();
                    members
                        .iter()
                        .map(|&i| {
                            tree.nearest_filtered(tree.point(i), k + 1, |j| {
                                j != i && local.contains_key(&j)
                            })
                            .into_iter()
                            .take(k)
                            .map(|(j, _)| local[&j])
                            .collect()
                        })
                        .collect()
                });
            let assess = |z: &[u8]| -> f64 {
                match &neighbors {
                    None => config.loss.evaluate(&y, z, &g, n_groups),
                    Some(nbrs) => {
                        let lambda = config.loss.lambda;
                        let inacc = falcc_metrics::inaccuracy(&y, z);
                        let inconsistency =
                            1.0 - falcc_metrics::consistency_with_neighbors(z, nbrs);
                        lambda * inacc + (1.0 - lambda) * inconsistency
                    }
                }
            };
            let mut scored: Vec<(f64, usize)> = candidates
                .iter()
                .enumerate()
                .map(|(ci, combo)| {
                    let z: Vec<u8> = members
                        .iter()
                        .zip(&g)
                        .map(|(&i, gi)| preds[combo[gi.index()]][i])
                        .collect();
                    (assess(&z), ci)
                })
                .collect();
            // A candidate whose loss comes out NaN (e.g. a metric over an
            // injected pathological slice) is unrankable — drop it rather
            // than letting it win a NaN-poisoned sort.
            scored.retain(|&(l, _)| l.is_finite());
            if scored.is_empty() {
                falcc_telemetry::counters::DEGENERATE_CLUSTERS.incr();
                return (None, present);
            }
            scored.sort_by(|a, b| a.0.total_cmp(&b.0));
            let best_loss = scored[0].0;
            let chosen = scored
                .iter()
                .take_while(|&&(l, _)| l <= best_loss + TIE_TOLERANCE)
                .min_by_key(|&&(_, ci)| distinct_models(&candidates[ci]))
                .map(|&(_, ci)| ci)
                .unwrap_or(scored[0].1);
            (Some(candidates[chosen].clone()), present)
        };
        // Clusters assess in parallel in both branches. In the journaled
        // branch, resumed regions are fetched, the rest are assessed with
        // their original cluster ordinals (identical seeds and spans) and
        // committed in index order — a deterministic commit sequence —
        // then the assembled vector gets its own checkpoint.
        let assessed: Vec<RegionAssessment> = match journal {
            None => parallel_map(&assessment_sets, config.threads, |c, members| {
                assess_region(c, members)
            }),
            Some(j) => match j.fetch(Stage::Assessment) {
                Some(resumed) => resumed,
                None => {
                    let mut slots: Vec<Option<RegionAssessment>> =
                        (0..assessment_sets.len()).map(|c| j.fetch(Stage::Region(c))).collect();
                    let missing: Vec<usize> = slots
                        .iter()
                        .enumerate()
                        .filter_map(|(c, s)| s.is_none().then_some(c))
                        .collect();
                    let fresh = parallel_map(&missing, config.threads, |_, &c| {
                        assess_region(c, &assessment_sets[c])
                    });
                    for (&c, value) in missing.iter().zip(&fresh) {
                        j.commit(Stage::Region(c), value)?;
                        slots[c] = Some(value.clone());
                    }
                    let all: Vec<RegionAssessment> =
                        slots.into_iter().flatten().collect();
                    j.commit(Stage::Assessment, &all)?;
                    all
                }
            },
        };
        drop(assess_sp);

        let combos = resolve_fallbacks(
            assessed,
            &kmeans.centroids,
            &preds,
            &candidates,
            validation,
            n_groups,
            &config.loss,
        );

        // The monitor baseline reads the resolved combinations: the DP a
        // region trained to is the DP of the combination it will actually
        // serve, fallbacks included.
        let baseline = MonitorBaseline::compute(&kmeans, validation, &preds, &combos, n_groups);

        Ok(Self {
            schema: validation.schema().clone(),
            pool,
            centroids: kmeans.centroids,
            combos,
            proxy,
            group_index,
            loss: config.loss,
            name: "FALCC".to_string(),
            threads: config.threads,
            faults: config.faults.clone(),
            baseline,
        })
    }

    /// Number of local regions (clusters).
    pub fn n_regions(&self) -> usize {
        self.centroids.len()
    }

    /// The cluster centroids, in the proxy-mitigated projection space
    /// (one per region, aligned with [`Self::combo`] indices).
    pub fn centroids(&self) -> &[Vec<f64>] {
        &self.centroids
    }

    /// The trained model pool.
    pub fn pool(&self) -> &ModelPool {
        &self.pool
    }

    /// The model combination for cluster `c` (pool indices per group).
    pub fn combo(&self, c: usize) -> &[usize] {
        &self.combos[c]
    }

    /// The proxy-mitigation outcome applied before clustering.
    pub fn proxy_outcome(&self) -> &ProxyOutcome {
        &self.proxy
    }

    /// The loss configuration used during assessment.
    pub fn loss_config(&self) -> LossConfig {
        self.loss
    }

    /// Overrides the reported algorithm name (used by the harness to
    /// distinguish FALCC from FALCC*).
    pub fn set_name(&mut self, name: impl Into<String>) {
        self.name = name.into();
    }

    /// The fit's worker-thread count (0 = available parallelism; 0 after
    /// a restore). The reference online phase is serial; this is only the
    /// thread count [`Self::compile`] hands the serving plane, which
    /// [`crate::CompiledModel::set_threads`] adjusts.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The fault-injection schedule [`Self::classify_batch`] and the
    /// compiled plane honour (empty in production).
    pub fn fault_plan(&self) -> &FaultPlan {
        &self.faults
    }

    /// Replaces the online fault-injection schedule — lets robustness
    /// tests poison batch rows on a model fitted (or restored) without
    /// injections.
    pub fn set_fault_plan(&mut self, faults: FaultPlan) {
        self.faults = faults;
    }

    /// The offline monitor baseline: per-region occupancy, group mix, and
    /// training demographic parity on the validation set.
    pub fn monitor_baseline(&self) -> &MonitorBaseline {
        &self.baseline
    }

    /// Builds a live-monitor configuration around this model's baseline —
    /// ready for [`falcc_telemetry::monitor::install`].
    pub fn monitor_spec(&self, window_len: u64, windows: usize) -> falcc_telemetry::MonitorSpec {
        self.baseline.spec(window_len, windows)
    }

    pub(crate) fn group_index(&self) -> &falcc_dataset::GroupIndex {
        &self.group_index
    }

    /// The schema of the data the model was fitted on — used to load
    /// compatible CSV files for prediction.
    pub fn schema(&self) -> &falcc_dataset::Schema {
        &self.schema
    }

    pub(crate) fn name_str(&self) -> &str {
        &self.name
    }
}

/// The degradation fallback chain for region/group coverage holes.
///
/// Assessment can leave holes: a degenerate region contributes no
/// combination at all, and a region whose assessment set lacked a group
/// scored its combination without evidence for that group. Both are healed
/// deterministically, per `(region, group)` cell:
///
/// 1. **Nearest covering region** — copy the group's model choice from the
///    non-degenerate region whose centroid is closest (ties broken by
///    region index) and whose assessment set contained the group.
/// 2. **Global best** — if no region covers the group, fall back to the
///    combination with the lowest loss over the *whole* validation set.
///
/// Every step is pure arithmetic over already-merged, input-ordered data,
/// so degraded models stay bit-identical across thread counts.
fn resolve_fallbacks(
    assessed: Vec<RegionAssessment>,
    centroids: &[Vec<f64>],
    preds: &[Vec<u8>],
    candidates: &[Vec<usize>],
    validation: &Dataset,
    n_groups: usize,
    loss: &LossConfig,
) -> Vec<Vec<usize>> {
    let sq_dist = |a: &[f64], b: &[f64]| -> f64 {
        a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
    };
    // A region only lends coverage for a group if it produced a
    // combination *and* actually saw that group.
    let covers = |r: usize, g: usize| -> bool { assessed[r].0.is_some() && assessed[r].1[g] };
    let needs_fallback = assessed
        .iter()
        .any(|(combo, present)| combo.is_none() || present.iter().any(|&p| !p));
    // Last resort, shared by every hole: the combination that scores best
    // globally. Computed once, only when some hole exists.
    let global_best: Vec<usize> = if needs_fallback {
        let labels = validation.labels();
        let groups = validation.groups();
        let mut best = (f64::INFINITY, 0usize);
        for (ci, combo) in candidates.iter().enumerate() {
            let z: Vec<u8> = (0..validation.len())
                .map(|i| preds[combo[groups[i].index()]][i])
                .collect();
            let l = loss.evaluate(labels, &z, groups, n_groups);
            if l.total_cmp(&best.0) == std::cmp::Ordering::Less {
                best = (l, ci);
            }
        }
        candidates[best.1].clone()
    } else {
        Vec::new()
    };

    assessed
        .iter()
        .enumerate()
        .map(|(c, (base, present))| {
            // A degenerate region trusts none of its (nonexistent)
            // evidence; a healthy one only distrusts uncovered groups.
            let trusted = |g: usize| base.is_some() && present[g];
            let mut resolved = match base {
                Some(combo) => combo.clone(),
                // Scaffold only — every entry is revisited by the loop
                // below, which does the fallback accounting.
                None => global_best.clone(),
            };
            for g in 0..n_groups {
                if trusted(g) {
                    continue;
                }
                let src = (0..assessed.len())
                    .filter(|&r| r != c && covers(r, g))
                    .min_by(|&a, &b| {
                        sq_dist(&centroids[c], &centroids[a])
                            .total_cmp(&sq_dist(&centroids[c], &centroids[b]))
                    });
                match src {
                    Some(r) => {
                        if let Some(combo) = &assessed[r].0 {
                            resolved[g] = combo[g];
                        }
                        falcc_telemetry::counters::REGION_GROUP_FALLBACKS.incr();
                        if falcc_telemetry::enabled() {
                            falcc_telemetry::event(
                                "offline.region_fallback",
                                format!("region {c} group {g}: borrowed from region {r}"),
                            );
                        }
                    }
                    None => {
                        // `global_best` is non-empty here: reaching this
                        // arm implies a hole, which forced its
                        // computation above.
                        resolved[g] = global_best.get(g).copied().unwrap_or(0);
                        falcc_telemetry::counters::REGION_GLOBAL_FALLBACKS.incr();
                        if falcc_telemetry::enabled() {
                            falcc_telemetry::event(
                                "offline.region_fallback",
                                format!("region {c} group {g}: global-best combination"),
                            );
                        }
                    }
                }
            }
            resolved
        })
        .collect()
}

/// Gap filling (§3.5): each cluster's member list, extended so every
/// sensitive group is represented — clusters missing a group pull in that
/// group's `gap_fill_k` nearest validation rows (by centroid distance).
fn gap_fill(
    kmeans: &KMeansModel,
    tree: &KdTree,
    validation: &Dataset,
    n_groups: usize,
    gap_fill_k: usize,
) -> Vec<Vec<usize>> {
    let mut assessment_sets = kmeans.cluster_members();
    for (c, members) in assessment_sets.iter_mut().enumerate() {
        let mut present = vec![false; n_groups];
        for &i in members.iter() {
            present[validation.group(i).index()] = true;
        }
        for (g, &has_members) in present.iter().enumerate() {
            if has_members {
                continue;
            }
            let gid = GroupId(g as u16);
            let fill = tree.nearest_filtered(&kmeans.centroids[c], gap_fill_k, |i| {
                validation.group(i) == gid
            });
            members.extend(fill.iter().map(|&(i, _)| i));
        }
    }
    assessment_sets
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FalccConfig;
    use crate::proxy::ProxyStrategy;
    use falcc_dataset::synthetic::{generate, SyntheticConfig};
    use falcc_dataset::{SplitRatios, ThreeWaySplit};

    fn quick_split(n: usize, seed: u64) -> ThreeWaySplit {
        let mut cfg = SyntheticConfig::social(0.3);
        cfg.n = n;
        let ds = generate(&cfg, seed).unwrap();
        ThreeWaySplit::split(&ds, SplitRatios::PAPER, seed).unwrap()
    }

    fn quick_config() -> FalccConfig {
        let mut cfg = FalccConfig::default();
        cfg.scale_for_tests();
        cfg
    }

    #[test]
    fn fit_produces_combo_per_cluster() {
        let split = quick_split(800, 1);
        let model = FalccModel::fit(&split.train, &split.validation, &quick_config()).unwrap();
        assert_eq!(model.n_regions(), 4);
        for c in 0..model.n_regions() {
            let combo = model.combo(c);
            assert_eq!(combo.len(), 2, "one model per group");
            assert!(combo.iter().all(|&m| m < model.pool().len()));
        }
    }

    /// Brute-force choice of a single region's combination over the
    /// validation rows `members` (its assessment set): every candidate
    /// scored with `loss` on those rows, the candidates within
    /// [`TIE_TOLERANCE`] of the best kept, and among those the fewest
    /// distinct models winning, then the lowest loss, then the first
    /// candidate. Also returns whether the near-tie rule decided it, i.e.
    /// the choice is not the plain lowest-loss one.
    fn single_region_oracle(
        pool: &ModelPool,
        validation: &Dataset,
        members: &[usize],
        loss: &LossConfig,
    ) -> (Vec<usize>, bool) {
        let n_groups = validation.group_index().len();
        let candidates = enumerate_combinations(pool, n_groups);
        let preds: Vec<Vec<u8>> =
            pool.models.iter().map(|m| predict_dataset(m.model.as_ref(), validation)).collect();
        let y: Vec<u8> = members.iter().map(|&i| validation.label(i)).collect();
        let g: Vec<GroupId> = members.iter().map(|&i| validation.group(i)).collect();
        let losses: Vec<f64> = candidates
            .iter()
            .map(|combo| {
                let z: Vec<u8> =
                    members.iter().zip(&g).map(|(&i, gi)| preds[combo[gi.index()]][i]).collect();
                loss.evaluate(&y, &z, &g, n_groups)
            })
            .collect();
        let by_loss = |a: &usize, b: &usize| losses[*a].total_cmp(&losses[*b]);
        let distinct = |c: usize| {
            candidates[c].iter().collect::<std::collections::BTreeSet<_>>().len()
        };
        let lowest = (0..candidates.len()).min_by(by_loss).unwrap();
        let chosen = (0..candidates.len())
            .filter(|&c| losses[c] <= losses[lowest] + TIE_TOLERANCE)
            .min_by(|a, b| distinct(*a).cmp(&distinct(*b)).then(by_loss(a, b)))
            .unwrap();
        (candidates[chosen].clone(), chosen != lowest)
    }

    #[test]
    fn single_cluster_recovers_global_fairness_mode() {
        // With one region FALCC is a global method: the region's
        // combination is the brute-force best over the whole validation
        // set — at λ = 1, the accuracy-optimal combination.
        for seed in [2u64, 3, 10] {
            let split = quick_split(600, seed);
            for lambda in [0.0, 0.5, 1.0] {
                let mut cfg = quick_config();
                cfg.clustering = ClusterSpec::FixedK(1);
                cfg.seed = seed;
                cfg.loss.lambda = lambda;
                let model = FalccModel::fit(&split.train, &split.validation, &cfg).unwrap();
                assert_eq!(model.n_regions(), 1);
                let every_row: Vec<usize> = (0..split.validation.len()).collect();
                let (expected, near_tie) =
                    single_region_oracle(model.pool(), &split.validation, &every_row, &cfg.loss);
                assert_eq!(model.combo(0), expected, "seed {seed}, λ = {lambda}");
                if (seed, lambda) == (10, 1.0) {
                    // A one-model combination within the tolerance of a
                    // lower-loss mixed one: the near-tie rule decides.
                    assert!(near_tie, "seed {seed}, λ = {lambda} is no longer a near tie");
                }
            }
        }
    }

    #[test]
    fn accuracy_mode_gives_each_region_its_accuracy_optimal_combination() {
        // λ = 1 with four regions: each region's combination is the
        // brute-force accuracy-optimal one over its own assessment set,
        // rebuilt as the fit builds it (the proxy's projection, the same
        // seeded k-means, a kd-tree, gap fill), near ties going to the
        // fewest distinct models. Seed 1 has two regions (1 and 3) whose
        // choice the near-tie rule decides.
        let mut near_tie_seen = false;
        for seed in [1u64, 2, 3] {
            let split = quick_split(600, seed);
            let mut cfg = quick_config();
            cfg.clustering = ClusterSpec::FixedK(4);
            cfg.seed = seed;
            cfg.loss.lambda = 1.0;
            let model = FalccModel::fit(&split.train, &split.validation, &cfg).unwrap();
            assert_eq!(model.n_regions(), 4);
            let proxy = model.proxy_outcome();
            let projected = split.validation.project(&proxy.attrs, proxy.weights.as_deref());
            let kmeans = KMeans::new(4, seed).fit(&projected);
            assert_eq!(kmeans.centroids, model.centroids(), "seed {seed}: k-means refit differs");
            let tree = KdTree::build(projected);
            let n_groups = split.validation.group_index().len();
            let sets = gap_fill(&kmeans, &tree, &split.validation, n_groups, cfg.gap_fill_k);
            for (c, members) in sets.iter().enumerate().filter(|(_, m)| !m.is_empty()) {
                let (expected, near_tie) =
                    single_region_oracle(model.pool(), &split.validation, members, &cfg.loss);
                assert_eq!(model.combo(c), expected, "seed {seed}, region {c}");
                near_tie_seen |= near_tie;
            }
        }
        assert!(near_tie_seen, "no region is decided by the near-tie rule any more");
    }

    #[test]
    fn log_means_clustering_runs() {
        let split = quick_split(900, 3);
        let mut cfg = quick_config();
        cfg.clustering = ClusterSpec::LogMeans;
        let model = FalccModel::fit(&split.train, &split.validation, &cfg).unwrap();
        assert!(model.n_regions() >= 2);
    }

    #[test]
    fn proxy_strategies_flow_through() {
        let mut dcfg = SyntheticConfig::implicit(0.4);
        dcfg.n = 900;
        let ds = generate(&dcfg, 4).unwrap();
        let split = ThreeWaySplit::split(&ds, SplitRatios::PAPER, 4).unwrap();
        let mut cfg = quick_config();
        cfg.proxy = ProxyStrategy::Reweigh;
        let model = FalccModel::fit(&split.train, &split.validation, &cfg).unwrap();
        assert!(model.proxy_outcome().weights.is_some());
        cfg.proxy = ProxyStrategy::Remove { delta: 0.3, p_threshold: 0.05 };
        let model = FalccModel::fit(&split.train, &split.validation, &cfg).unwrap();
        assert!(model.proxy_outcome().attrs.len() < 8);
    }

    #[test]
    fn quarantine_degrades_gracefully_until_the_floor() {
        let split = quick_split(800, 8);
        // Pool of 3, one injected training failure → fit continues on 2.
        let mut cfg = quick_config();
        cfg.faults.fail_pool_member(1);
        let model = FalccModel::fit(&split.train, &split.validation, &cfg).unwrap();
        assert_eq!(model.pool().len(), 2);
        let preds = {
            use crate::framework::FairClassifier;
            model.predict_dataset(&split.test)
        };
        assert!(preds.iter().all(|&z| z <= 1));

        // With a floor of 3 the same failure is a typed error, not a panic.
        let mut cfg = quick_config();
        cfg.min_pool_size = 3;
        cfg.faults.fail_pool_member(1);
        match FalccModel::fit(&split.train, &split.validation, &cfg) {
            Err(FalccError::PoolDepleted { survivors, quarantined, min_pool_size }) => {
                assert_eq!((survivors, quarantined, min_pool_size), (2, 1, 3));
            }
            other => panic!("expected PoolDepleted, got {:?}", other.map(|m| m.n_regions())),
        }
    }

    #[test]
    fn degenerate_and_missing_group_regions_fall_back() {
        use crate::framework::FairClassifier;
        let split = quick_split(800, 9);
        let mut cfg = quick_config();
        cfg.faults.empty_cluster(0);
        cfg.faults.drop_group_in_region(1, 0);
        let model = FalccModel::fit(&split.train, &split.validation, &cfg).unwrap();
        assert_eq!(model.n_regions(), 4);
        for c in 0..model.n_regions() {
            let combo = model.combo(c);
            assert_eq!(combo.len(), 2);
            assert!(combo.iter().all(|&m| m < model.pool().len()));
        }
        let preds = model.predict_dataset(&split.test);
        assert_eq!(preds.len(), split.test.len());
        assert!(preds.iter().all(|&z| z <= 1));
    }

    #[test]
    fn every_region_degenerate_falls_back_to_global_best() {
        use crate::framework::FairClassifier;
        let split = quick_split(700, 10);
        let mut cfg = quick_config();
        for c in 0..4 {
            cfg.faults.empty_cluster(c);
        }
        let model = FalccModel::fit(&split.train, &split.validation, &cfg).unwrap();
        // All regions share the global-best combination.
        let first = model.combo(0).to_vec();
        for c in 1..model.n_regions() {
            assert_eq!(model.combo(c), first.as_slice());
        }
        assert_eq!(model.predict_dataset(&split.test).len(), split.test.len());
    }

    #[test]
    fn empty_pool_is_rejected() {
        let split = quick_split(600, 5);
        let pool = ModelPool::from_models(vec![]);
        let err = FalccModel::fit_with_pool(&split.validation, pool, &quick_config());
        assert!(matches!(err, Err(FalccError::NoApplicableModel { .. })));
    }

    #[test]
    fn invalid_config_is_rejected_before_work() {
        let split = quick_split(600, 6);
        let mut cfg = quick_config();
        cfg.gap_fill_k = 0;
        assert!(matches!(
            FalccModel::fit(&split.train, &split.validation, &cfg),
            Err(FalccError::InvalidConfig { .. })
        ));
        let mut cfg = quick_config();
        cfg.individual_assessment_k = Some(0);
        assert!(matches!(
            FalccModel::fit(&split.train, &split.validation, &cfg),
            Err(FalccError::InvalidConfig { .. })
        ));
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(16))]

        /// Gap filling guarantees: after it runs, every cluster's
        /// assessment set contains members of every sensitive group, even
        /// when the clustering itself left groups out — regardless of
        /// seed, cluster count, or how unbalanced the data is.
        #[test]
        fn gap_filled_sets_cover_every_group(
            seed in 0u64..1000,
            k in 1usize..7,
            imbalance in 0.05f64..0.5,
        ) {
            use proptest::prelude::prop_assert;
            let mut dcfg = SyntheticConfig::social(0.3);
            dcfg.n = 300;
            dcfg.p_protected = imbalance;
            let ds = generate(&dcfg, seed).unwrap();
            let n_groups = ds.group_index().len();
            let attrs = ds.schema().non_sensitive_attrs();
            let projected = ds.project(&attrs, None);
            let kmeans = falcc_clustering::KMeans::new(k, seed).fit(&projected);
            let tree = KdTree::build(projected);
            let sets = gap_fill(&kmeans, &tree, &ds, n_groups, 5);
            prop_assert!(sets.len() == kmeans.k());
            for (c, members) in sets.iter().enumerate() {
                prop_assert!(!members.is_empty(), "cluster {c} empty");
                let mut present = vec![false; n_groups];
                for &i in members {
                    present[ds.group(i).index()] = true;
                }
                prop_assert!(
                    present.iter().all(|&p| p),
                    "cluster {c} lacks a group after gap filling: {present:?}"
                );
            }
        }
    }

    #[test]
    fn checkpointed_fit_is_bit_identical_plain_resumed_and_cross_threaded() {
        use crate::checkpoint::{CheckpointSpec, MANIFEST};
        use crate::persist::SavedFalccModel;
        let split = quick_split(700, 11);
        let dir = std::env::temp_dir().join(format!("falcc_fit_ck_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();

        let snapshot = |model: &FalccModel| -> String {
            SavedFalccModel::capture(model).unwrap().to_json().unwrap()
        };
        let mut cfg = quick_config();
        cfg.seed = 11;
        let baseline = snapshot(&FalccModel::fit(&split.train, &split.validation, &cfg).unwrap());

        // A journaled run produces the same bytes as an unjournaled one.
        cfg.checkpoint = Some(CheckpointSpec::new(&dir));
        let journaled = snapshot(&FalccModel::fit(&split.train, &split.validation, &cfg).unwrap());
        assert_eq!(baseline, journaled, "journaling changed the fitted model");

        // Truncate the journal to a prefix — as if the run died mid-way —
        // and resume at a different thread count: still the same bytes.
        let manifest = dir.join(MANIFEST);
        let text = std::fs::read_to_string(&manifest).unwrap();
        let prefix: Vec<&str> = text.lines().take(5).collect();
        std::fs::write(&manifest, format!("{}\n", prefix.join("\n"))).unwrap();
        cfg.checkpoint = Some(CheckpointSpec::new(&dir).resuming());
        cfg.threads = 2;
        let resumed = snapshot(&FalccModel::fit(&split.train, &split.validation, &cfg).unwrap());
        assert_eq!(baseline, resumed, "resume after truncation changed the fitted model");

        // Resume from the now-complete journal: every stage is fetched.
        cfg.threads = 1;
        let replayed = snapshot(&FalccModel::fit(&split.train, &split.validation, &cfg).unwrap());
        assert_eq!(baseline, replayed, "full-journal replay changed the fitted model");

        // A config change makes the journal stale — typed rejection.
        cfg.seed = 12;
        match FalccModel::fit(&split.train, &split.validation, &cfg) {
            Err(FalccError::CheckpointStale { .. }) => {}
            other => panic!("expected CheckpointStale, got {:?}", other.map(|m| m.n_regions())),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn individual_assessment_mode_improves_consistency() {
        use crate::framework::FairClassifier;
        use falcc_metrics::individual::consistency;
        let split = quick_split(2500, 7);
        let fit_with = |k: Option<usize>| {
            let mut cfg = quick_config();
            cfg.individual_assessment_k = k;
            let model =
                FalccModel::fit(&split.train, &split.validation, &cfg).unwrap();
            let preds = model.predict_dataset(&split.test);
            let attrs = split.test.schema().non_sensitive_attrs();
            let projected = split.test.project(&attrs, None);
            consistency(&projected, &preds, 5)
        };
        let group_mode = fit_with(None);
        let individual_mode = fit_with(Some(5));
        // Directional check with a generalisation allowance: the mode
        // optimises consistency on the *validation* clusters, and the test
        // measures it on held-out data with k-NN neighbourhoods, so small
        // regressions are sampling noise, not a defect.
        assert!(
            individual_mode >= group_mode - 0.05,
            "consistency-driven assessment must not reduce consistency: \
             {individual_mode} vs {group_mode}"
        );
    }
}
