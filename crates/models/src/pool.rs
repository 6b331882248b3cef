//! Trained model pools and model-combination enumeration.
//!
//! Diverse model training (paper §3.3) produces the set `M` of candidate
//! models and the candidate combinations `MC_cand`: every assignment of one
//! model per sensitive group such that the model was trained on data
//! comprising that group. Models trained on the whole dataset apply to all
//! groups; models trained on a single group's partition apply to that group
//! only (the "SBT"/split configuration of the FALCES papers).
//!
//! Diversity selection is greedy on the non-pairwise entropy of the pool's
//! predictions over an evaluation dataset, mirroring the paper's grid
//! search for a maximally diverse ensemble.

use crate::bayes::GaussianNb;
use crate::grid::{paper_grid, TrainerKind};
use crate::knn_model::KnnClassifier;
use crate::linear::{LogisticParams, LogisticRegression};
use crate::persist::ModelSpec;
use crate::traits::{predict_dataset, Classifier};
use crate::tree::{DecisionTree, Presort, TreeParams};
use falcc_dataset::parallel::parallel_map;
use falcc_dataset::{Dataset, GroupId};
use falcc_metrics::shannon_entropy_diversity;
use std::sync::Arc;

/// Per-member checkpoint hook for
/// [`ModelPool::train_diverse_checkpointed`]. Slots are numbered in input
/// order — grid points first (`0..grid.len()`), split-training groups
/// after (`grid.len() + position`) — so load/store traffic is identical
/// at every thread count. A resumed slot skips refitting entirely; since
/// [`ModelSpec`] captures a model's full state, a revived member predicts
/// bit-identically to a freshly fitted one.
///
/// The hook lives here (and not in the checkpoint journal's crate) so
/// this crate stays free of persistence concerns; `store` is infallible
/// by signature — implementations buffer I/O errors and surface them
/// after training returns.
pub trait GridCheckpoint {
    /// Returns the previously journaled spec for `slot`, if any.
    fn load(&mut self, slot: usize) -> Option<ModelSpec>;
    /// Journals the spec fitted for `slot`.
    fn store(&mut self, slot: usize, spec: &ModelSpec);
}

/// A pool member: a trained model plus its applicability.
#[derive(Clone)]
pub struct TrainedModel {
    /// The classifier.
    pub model: Arc<dyn Classifier>,
    /// `None` → applicable to every group (trained on the full data);
    /// `Some(g)` → applicable only to group `g`.
    pub group: Option<GroupId>,
}

impl std::fmt::Debug for TrainedModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TrainedModel")
            .field("name", &self.model.name())
            .field("group", &self.group)
            .finish()
    }
}

/// Configuration of diverse model training.
#[derive(Debug, Clone, Copy)]
pub struct PoolConfig {
    /// Trainer family (the paper defaults to AdaBoost).
    pub trainer: TrainerKind,
    /// Keep the `pool_size` most diversity-contributing models of the grid
    /// (0 keeps the whole grid).
    pub pool_size: usize,
    /// Also train one grid-best model per sensitive group on that group's
    /// partition (split training).
    pub split_by_group: bool,
    /// Candidates whose validation accuracy trails the best candidate by
    /// more than this margin are excluded *before* diversity selection.
    /// The default of 1.0 disables the floor — the paper selects purely by
    /// non-pairwise entropy; tighten this when the grid contains members
    /// too weak for the task (see the pool-size ablation).
    pub accuracy_margin: f64,
    /// RNG seed.
    pub seed: u64,
    /// Worker threads for grid fitting and prediction precompute
    /// (0 = available parallelism). Results are identical for every value:
    /// each grid point's seed is derived from its index, and outputs are
    /// merged in grid order (see [`falcc_dataset::parallel`]).
    pub threads: usize,
}

impl Default for PoolConfig {
    fn default() -> Self {
        Self {
            trainer: TrainerKind::AdaBoost,
            pool_size: 5,
            split_by_group: false,
            accuracy_margin: 1.0,
            seed: 0,
            threads: 0,
        }
    }
}

/// A set of trained models ready for combination enumeration.
#[derive(Debug, Clone, Default)]
pub struct ModelPool {
    /// The pool members.
    pub models: Vec<TrainedModel>,
}

impl ModelPool {
    /// Wraps externally trained models (e.g. the fair classifiers of the
    /// `FALCC*` / `Decouple*` configurations).
    pub fn from_models(models: Vec<TrainedModel>) -> Self {
        Self { models }
    }

    /// Diverse model training: fits the paper's hyperparameter grid on
    /// `train`, then greedily keeps the subset of `cfg.pool_size` models
    /// whose joint predictions on `diversity_eval` have maximal
    /// non-pairwise entropy. With `split_by_group`, additionally trains one
    /// default-parameter model per group partition.
    ///
    /// # Panics
    /// Panics if `train` is empty (propagated from the trainers).
    pub fn train_diverse(train: &Dataset, diversity_eval: &Dataset, cfg: &PoolConfig) -> Self {
        Self::train_diverse_inner(train, diversity_eval, cfg, None)
    }

    /// [`Self::train_diverse`] with per-member checkpointing: slots the
    /// hook already holds are revived from their specs instead of
    /// refitted, and every freshly fitted slot is stored — in slot order,
    /// after the parallel fit, so the store sequence is deterministic.
    /// Each slot's RNG seed derives from its slot index exactly as in the
    /// uncheckpointed path, so the resulting pool is bit-identical
    /// whether training ran straight through, resumed, or used a
    /// different thread count.
    ///
    /// # Panics
    /// Panics if `train` is empty (propagated from the trainers).
    pub fn train_diverse_checkpointed(
        train: &Dataset,
        diversity_eval: &Dataset,
        cfg: &PoolConfig,
        ckpt: &mut dyn GridCheckpoint,
    ) -> Self {
        Self::train_diverse_inner(train, diversity_eval, cfg, Some(ckpt))
    }

    fn train_diverse_inner(
        train: &Dataset,
        diversity_eval: &Dataset,
        cfg: &PoolConfig,
        mut ckpt: Option<&mut dyn GridCheckpoint>,
    ) -> Self {
        let _sp = falcc_telemetry::span("pool.train_diverse");
        let attrs: Vec<usize> = (0..train.n_attrs()).collect();
        let all_idx: Vec<usize> = (0..train.len()).collect();
        let grid = paper_grid(cfg.trainer);
        falcc_telemetry::counters::POOL_GRID_POINTS.add(grid.len() as u64);
        // Grid points are independent: fit them in parallel, handed out
        // largest first (rounds × depth) so no worker idles while another
        // still has a 20-round depth-7 point to go. Each point's seed is a function of
        // its grid index only, and every result lands in its grid slot, so
        // the pool is identical for every thread count. Worker spans parent
        // under the grid-fit span by explicit id with the grid index as
        // ordinal, so the trace tree is likewise identical for every
        // thread count.
        let grid_sp = falcc_telemetry::span("pool.grid_fit");
        let grid_sp_id = grid_sp.id();
        let mut slots: Vec<Option<Arc<dyn Classifier>>> = (0..grid.len())
            .map(|i| {
                ckpt.as_deref_mut()
                    .and_then(|c| c.load(i))
                    .map(ModelSpec::into_classifier)
            })
            .collect();
        let missing: Vec<usize> = slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.is_none().then_some(i))
            .collect();
        let mut by_cost = missing.clone();
        by_cost.sort_by_key(|&i| std::cmp::Reverse(grid[i].n_estimators * grid[i].max_depth));
        // Every AdaBoost point trains on the same rows, so they all share
        // one presort; random-forest points bootstrap their own rows.
        let presort = (cfg.trainer == TrainerKind::AdaBoost && !missing.is_empty())
            .then(|| Presort::new(train, &attrs, &all_idx));
        let fitted = parallel_map(&by_cost, cfg.threads, |_, &i| {
            let _w = falcc_telemetry::span_under(grid_sp_id, "pool.grid_point", i as u64);
            let seed = cfg.seed ^ (i as u64) << 8;
            match &presort {
                Some(presort) => grid[i].fit_presorted(presort, seed),
                None => grid[i].fit(train, &attrs, &all_idx, seed),
            }
        });
        drop(presort); // freed before diversity selection allocates
        for (&i, model) in by_cost.iter().zip(fitted) {
            slots[i] = Some(model);
        }
        // Journal in slot order, whatever order the points were fitted in.
        if let Some(c) = ckpt.as_deref_mut() {
            for &i in &missing {
                if let Some(spec) = slots[i].as_ref().and_then(|m| m.to_spec()) {
                    c.store(i, &spec);
                }
            }
        }
        let candidates: Vec<Arc<dyn Classifier>> = slots.into_iter().flatten().collect();
        drop(grid_sp);

        let sel_sp = falcc_telemetry::span("pool.diversity_select");
        let keep = if cfg.pool_size == 0 || cfg.pool_size >= candidates.len() {
            (0..candidates.len()).collect()
        } else {
            let preds: Vec<Vec<u8>> = parallel_map(&candidates, cfg.threads, |_, m| {
                predict_dataset(m.as_ref(), diversity_eval)
            });
            // Accuracy floor: drop candidates far behind the best one.
            let labels = diversity_eval.labels();
            let accs: Vec<f64> = preds
                .iter()
                .map(|z| {
                    z.iter().zip(labels).filter(|(a, b)| a == b).count() as f64
                        / labels.len() as f64
                })
                .collect();
            let best_acc = accs.iter().cloned().fold(0.0, f64::max);
            let competitive: Vec<usize> = (0..candidates.len())
                .filter(|&i| accs[i] >= best_acc - cfg.accuracy_margin)
                .collect();
            if competitive.len() <= cfg.pool_size {
                competitive
            } else {
                let comp_preds: Vec<Vec<u8>> =
                    competitive.iter().map(|&i| preds[i].clone()).collect();
                greedy_diverse_subset(&comp_preds, cfg.pool_size)
                    .into_iter()
                    .map(|j| competitive[j])
                    .collect()
            }
        };

        drop(sel_sp);

        let mut models: Vec<TrainedModel> = keep
            .into_iter()
            .map(|i| TrainedModel { model: candidates[i].clone(), group: None })
            .collect();

        if cfg.split_by_group {
            let _split_sp = falcc_telemetry::span("pool.split_training");
            // Group partitions are likewise independent; seeds depend on
            // the group id, and the ordered merge keeps the pool layout
            // stable across thread counts. Checkpoint slots continue
            // after the grid (`grid.len() + position`); a group too small
            // to train on stores nothing and is cheaply re-skipped on
            // resume.
            let groups: Vec<GroupId> = train.group_index().ids().collect();
            let base = grid.len();
            let mut split_slots: Vec<Option<Option<TrainedModel>>> = groups
                .iter()
                .enumerate()
                .map(|(pos, &g)| {
                    ckpt.as_deref_mut().and_then(|c| c.load(base + pos)).map(|spec| {
                        Some(TrainedModel { model: spec.into_classifier(), group: Some(g) })
                    })
                })
                .collect();
            let missing: Vec<usize> = split_slots
                .iter()
                .enumerate()
                .filter_map(|(pos, s)| s.is_none().then_some(pos))
                .collect();
            let fitted = parallel_map(&missing, cfg.threads, |_, &pos| {
                let g = groups[pos];
                let idx = train.indices_of_group(g);
                if idx.len() < 4 {
                    return None; // too small to train on
                }
                let point = grid[grid.len() - 1]; // strongest configuration
                let model = point.fit(train, &attrs, &idx, cfg.seed ^ 0xbeef ^ g.0 as u64);
                Some(TrainedModel { model, group: Some(g) })
            });
            for (&pos, trained) in missing.iter().zip(&fitted) {
                if let (Some(c), Some(t)) = (ckpt.as_deref_mut(), trained) {
                    if let Some(spec) = t.model.to_spec() {
                        c.store(base + pos, &spec);
                    }
                }
                split_slots[pos] = Some(trained.clone());
            }
            models.extend(split_slots.into_iter().flatten().flatten());
        }
        Self { models }
    }

    /// The "5 standard classifiers" pool used by the Decouple/FALCES
    /// baselines' default configuration: CART, AdaBoost, logistic
    /// regression, Gaussian naive Bayes, kNN — all trained on the whole
    /// dataset.
    pub fn standard_five(train: &Dataset, seed: u64) -> Self {
        let attrs: Vec<usize> = (0..train.n_attrs()).collect();
        let idx: Vec<usize> = (0..train.len()).collect();
        let tree = TreeParams { max_depth: 7, ..Default::default() };
        let models: Vec<TrainedModel> = vec![
            TrainedModel {
                model: Arc::new(DecisionTree::fit(train, &attrs, &idx, None, &tree, seed)),
                group: None,
            },
            TrainedModel {
                model: crate::grid::GridPoint {
                    trainer: TrainerKind::AdaBoost,
                    n_estimators: 20,
                    max_depth: 1,
                    criterion: crate::tree::SplitCriterion::Gini,
                }
                .fit(train, &attrs, &idx, seed ^ 1),
                group: None,
            },
            TrainedModel {
                model: Arc::new(LogisticRegression::fit(
                    train,
                    &attrs,
                    &idx,
                    &LogisticParams::default(),
                )),
                group: None,
            },
            TrainedModel {
                model: Arc::new(GaussianNb::fit(train, &attrs, &idx)),
                group: None,
            },
            TrainedModel {
                model: Arc::new(KnnClassifier::fit(train, &attrs, &idx, 15)),
                group: None,
            },
        ];
        Self { models }
    }

    /// Number of models in the pool.
    pub fn len(&self) -> usize {
        self.models.len()
    }

    /// `true` when the pool has no models.
    pub fn is_empty(&self) -> bool {
        self.models.is_empty()
    }

    /// Removes the members at `failed` indices (duplicates and
    /// out-of-range entries are ignored), returning how many were removed.
    /// Used by the fault-tolerant offline intake to quarantine members
    /// whose training diverged; remaining members keep their relative
    /// order, so the surviving pool layout is deterministic.
    pub fn quarantine(&mut self, failed: &[usize]) -> usize {
        if failed.is_empty() {
            return 0;
        }
        let before = self.models.len();
        let mut drop = vec![false; before];
        for &i in failed {
            if i < before {
                drop[i] = true;
            }
        }
        let mut keep_iter = drop.iter();
        self.models.retain(|_| !*keep_iter.next().unwrap_or(&false));
        before - self.models.len()
    }

    /// Indices of members that look unsound on an evaluation probe: a
    /// member whose predicted probability is NaN/±∞ on any of the first
    /// `probe_rows` rows of `eval` has diverged during training and would
    /// poison assessment. Deterministic: the probe is a fixed prefix.
    pub fn unsound_members(&self, eval: &Dataset, probe_rows: usize) -> Vec<usize> {
        let probe = probe_rows.min(eval.len());
        self.models
            .iter()
            .enumerate()
            .filter(|(_, m)| {
                (0..probe).any(|i| !m.model.predict_proba_row(eval.row(i)).is_finite())
            })
            .map(|(i, _)| i)
            .collect()
    }

    /// Pool-member indices applicable to group `g`.
    pub fn applicable(&self, g: GroupId) -> Vec<usize> {
        self.models
            .iter()
            .enumerate()
            .filter(|(_, m)| m.group.is_none() || m.group == Some(g))
            .map(|(i, _)| i)
            .collect()
    }

    /// Non-pairwise entropy of the pool's predictions on `eval`.
    pub fn entropy_diversity(&self, eval: &Dataset) -> f64 {
        let preds: Vec<Vec<u8>> = self
            .models
            .iter()
            .map(|m| predict_dataset(m.model.as_ref(), eval))
            .collect();
        shannon_entropy_diversity(&preds)
    }
}

/// Greedy forward selection maximising ensemble entropy: seeds with the
/// pair of models with maximal pairwise disagreement, then adds whichever
/// model lifts the subset entropy most.
fn greedy_diverse_subset(preds: &[Vec<u8>], k: usize) -> Vec<usize> {
    let n_models = preds.len();
    if k >= n_models {
        return (0..n_models).collect();
    }
    // Seed pair: maximal disagreement.
    let mut best_pair = (0, 1, f64::MIN);
    for i in 0..n_models {
        for j in i + 1..n_models {
            let disagree = preds[i]
                .iter()
                .zip(&preds[j])
                .filter(|(a, b)| a != b)
                .count() as f64;
            if disagree > best_pair.2 {
                best_pair = (i, j, disagree);
            }
        }
    }
    let mut selected = vec![best_pair.0, best_pair.1];
    while selected.len() < k {
        let mut best = (usize::MAX, f64::MIN);
        for cand in 0..n_models {
            if selected.contains(&cand) {
                continue;
            }
            let mut subset: Vec<Vec<u8>> =
                selected.iter().map(|&i| preds[i].clone()).collect();
            subset.push(preds[cand].clone());
            let e = shannon_entropy_diversity(&subset);
            if e > best.1 {
                best = (cand, e);
            }
        }
        if best.0 == usize::MAX {
            break;
        }
        selected.push(best.0);
    }
    selected.sort_unstable();
    selected.truncate(k);
    selected
}

/// Enumerates the candidate model combinations `MC_cand`: every assignment
/// of one applicable pool index per group. Returned as vectors indexed by
/// `GroupId`.
///
/// Returns an empty list if any group has no applicable model (the caller
/// decides how to handle that — FALCC's gap filling prevents it).
pub fn enumerate_combinations(pool: &ModelPool, n_groups: usize) -> Vec<Vec<usize>> {
    let per_group: Vec<Vec<usize>> =
        (0..n_groups).map(|g| pool.applicable(GroupId(g as u16))).collect();
    if per_group.iter().any(|v| v.is_empty()) {
        return Vec::new();
    }
    let total: usize = per_group.iter().map(|v| v.len()).product();
    let mut combos = Vec::with_capacity(total);
    let mut current = vec![0usize; n_groups];
    fill(&per_group, 0, &mut current, &mut combos);
    combos
}

fn fill(
    per_group: &[Vec<usize>],
    depth: usize,
    current: &mut Vec<usize>,
    out: &mut Vec<Vec<usize>>,
) {
    if depth == per_group.len() {
        out.push(current.clone());
        return;
    }
    for &m in &per_group[depth] {
        current[depth] = m;
        fill(per_group, depth + 1, current, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use falcc_dataset::synthetic::{generate, SyntheticConfig};
    use falcc_dataset::{SplitRatios, ThreeWaySplit};

    fn small_split() -> ThreeWaySplit {
        let mut cfg = SyntheticConfig::social(0.3);
        cfg.n = 600;
        let ds = generate(&cfg, 1).unwrap();
        ThreeWaySplit::split(&ds, SplitRatios::PAPER, 42).unwrap()
    }

    #[test]
    fn diverse_training_produces_requested_pool_size() {
        let split = small_split();
        let cfg = PoolConfig { pool_size: 4, ..Default::default() };
        let pool = ModelPool::train_diverse(&split.train, &split.validation, &cfg);
        assert_eq!(pool.len(), 4);
        assert!(pool.models.iter().all(|m| m.group.is_none()));
    }

    #[test]
    fn pool_size_zero_keeps_whole_grid() {
        let split = small_split();
        let cfg = PoolConfig { pool_size: 0, ..Default::default() };
        let pool = ModelPool::train_diverse(&split.train, &split.validation, &cfg);
        assert_eq!(pool.len(), 8);
    }

    #[test]
    fn diversity_selection_beats_arbitrary_prefix() {
        // The greedy subset should be at least as diverse as the first k
        // grid models.
        let split = small_split();
        let all = ModelPool::train_diverse(
            &split.train,
            &split.validation,
            &PoolConfig { pool_size: 0, ..Default::default() },
        );
        // Margin 1.0 disables the accuracy floor, isolating the greedy
        // entropy selection this test is about.
        let selected = ModelPool::train_diverse(
            &split.train,
            &split.validation,
            &PoolConfig { pool_size: 3, accuracy_margin: 1.0, ..Default::default() },
        );
        let prefix = ModelPool::from_models(all.models[..3].to_vec());
        let e_selected = selected.entropy_diversity(&split.validation);
        let e_prefix = prefix.entropy_diversity(&split.validation);
        assert!(
            e_selected >= e_prefix - 1e-9,
            "greedy {e_selected} < prefix {e_prefix}"
        );
    }

    #[test]
    fn split_training_adds_group_specific_models() {
        let split = small_split();
        let cfg = PoolConfig { pool_size: 2, split_by_group: true, ..Default::default() };
        let pool = ModelPool::train_diverse(&split.train, &split.validation, &cfg);
        let group_models: Vec<_> =
            pool.models.iter().filter(|m| m.group.is_some()).collect();
        assert_eq!(group_models.len(), 2, "one per binary group");
        // Applicability: group 0 sees global models + its own.
        let app0 = pool.applicable(GroupId(0));
        assert_eq!(app0.len(), 3);
        let app1 = pool.applicable(GroupId(1));
        assert_eq!(app1.len(), 3);
        assert_ne!(app0, app1);
    }

    #[test]
    fn standard_five_trains_five_distinct_families() {
        let split = small_split();
        let pool = ModelPool::standard_five(&split.train, 7);
        assert_eq!(pool.len(), 5);
        let names: std::collections::HashSet<&str> =
            pool.models.iter().map(|m| m.model.name()).collect();
        assert_eq!(names.len(), 5, "models should have distinct names: {names:?}");
    }

    #[test]
    fn combination_enumeration_is_cartesian() {
        let split = small_split();
        let pool = ModelPool::train_diverse(
            &split.train,
            &split.validation,
            &PoolConfig { pool_size: 3, ..Default::default() },
        );
        let combos = enumerate_combinations(&pool, 2);
        assert_eq!(combos.len(), 9, "3 models × 2 groups → 9 combinations");
        // Every combination is distinct.
        let set: std::collections::HashSet<&Vec<usize>> = combos.iter().collect();
        assert_eq!(set.len(), 9);
    }

    #[test]
    fn combinations_respect_group_applicability() {
        let split = small_split();
        let cfg = PoolConfig { pool_size: 2, split_by_group: true, ..Default::default() };
        let pool = ModelPool::train_diverse(&split.train, &split.validation, &cfg);
        let combos = enumerate_combinations(&pool, 2);
        // 3 applicable per group → 9 combos.
        assert_eq!(combos.len(), 9);
        for combo in &combos {
            for (g, &m) in combo.iter().enumerate() {
                let model = &pool.models[m];
                assert!(
                    model.group.is_none() || model.group == Some(GroupId(g as u16)),
                    "model {m} not applicable to group {g}"
                );
            }
        }
    }

    #[test]
    fn empty_applicability_yields_no_combos() {
        let pool = ModelPool::from_models(vec![]);
        assert!(enumerate_combinations(&pool, 2).is_empty());
    }

    #[test]
    fn quarantine_removes_members_in_order() {
        let split = small_split();
        let mut pool = ModelPool::standard_five(&split.train, 7);
        let names: Vec<String> =
            pool.models.iter().map(|m| m.model.name().to_string()).collect();
        // Duplicates and out-of-range indices are tolerated.
        let removed = pool.quarantine(&[1, 3, 3, 99]);
        assert_eq!(removed, 2);
        assert_eq!(pool.len(), 3);
        let survivors: Vec<String> =
            pool.models.iter().map(|m| m.model.name().to_string()).collect();
        assert_eq!(survivors, vec![names[0].clone(), names[2].clone(), names[4].clone()]);
        assert_eq!(pool.quarantine(&[]), 0);
    }

    #[derive(Default)]
    struct MemoryCheckpoint {
        slots: std::collections::BTreeMap<usize, ModelSpec>,
        stored: Vec<usize>,
        loaded: Vec<usize>,
    }

    impl GridCheckpoint for MemoryCheckpoint {
        fn load(&mut self, slot: usize) -> Option<ModelSpec> {
            let hit = self.slots.get(&slot).cloned();
            if hit.is_some() {
                self.loaded.push(slot);
            }
            hit
        }
        fn store(&mut self, slot: usize, spec: &ModelSpec) {
            self.stored.push(slot);
            self.slots.insert(slot, spec.clone());
        }
    }

    #[test]
    fn checkpointed_training_resumes_bit_identically() {
        // Workers claim grid points largest first, yet the journal must
        // see slots in slot order at every thread count.
        let split = small_split();
        let plain_cfg = PoolConfig { pool_size: 3, split_by_group: true, ..Default::default() };
        let plain = ModelPool::train_diverse(&split.train, &split.validation, &plain_cfg);
        for threads in [1, 2, 8] {
            let cfg = PoolConfig {
                threads,
                ..plain_cfg
            };
            resumes_bit_identically(&split, &cfg, &plain);
        }
    }

    fn resumes_bit_identically(split: &ThreeWaySplit, cfg: &PoolConfig, plain: &ModelPool) {
        // First checkpointed run stores every slot in slot order.
        let mut ckpt = MemoryCheckpoint::default();
        let first =
            ModelPool::train_diverse_checkpointed(&split.train, &split.validation, cfg, &mut ckpt);
        assert_eq!(ckpt.stored, (0..10).collect::<Vec<_>>(), "8 grid + 2 split slots");
        assert!(ckpt.loaded.is_empty());

        // Second run revives everything without storing anything new.
        let partial: Vec<usize> = ckpt.stored.clone();
        ckpt.stored.clear();
        let resumed =
            ModelPool::train_diverse_checkpointed(&split.train, &split.validation, cfg, &mut ckpt);
        assert!(ckpt.stored.is_empty(), "no refits on a full journal");
        assert_eq!(ckpt.loaded, partial);

        // Partial journal: drop half the slots, resume refits exactly those.
        let mut half = MemoryCheckpoint::default();
        for (&slot, spec) in ckpt.slots.iter().filter(|(s, _)| *s % 2 == 0) {
            half.slots.insert(slot, spec.clone());
        }
        let halfway =
            ModelPool::train_diverse_checkpointed(&split.train, &split.validation, cfg, &mut half);
        assert_eq!(half.stored, vec![1, 3, 5, 7, 9]);

        // All four pools predict identically row for row.
        for pool in [&first, &resumed, &halfway] {
            assert_eq!(pool.len(), plain.len());
            for (a, b) in plain.models.iter().zip(&pool.models) {
                assert_eq!(a.group, b.group);
                assert_eq!(a.model.name(), b.model.name());
                for i in 0..split.test.len() {
                    assert_eq!(
                        a.model.predict_proba_row(split.test.row(i)).to_bits(),
                        b.model.predict_proba_row(split.test.row(i)).to_bits(),
                        "probability drift at row {i}"
                    );
                }
            }
        }
    }

    #[test]
    fn unsound_members_flags_non_finite_probabilities() {
        use crate::traits::Classifier;
        use std::sync::Arc;
        struct Diverged;
        impl Classifier for Diverged {
            fn predict_proba_row(&self, _row: &[f64]) -> f64 {
                f64::NAN
            }
            fn name(&self) -> &str {
                "diverged"
            }
        }
        let split = small_split();
        let mut pool = ModelPool::standard_five(&split.train, 7);
        pool.models.push(TrainedModel { model: Arc::new(Diverged), group: None });
        let bad = pool.unsound_members(&split.validation, 16);
        assert_eq!(bad, vec![5], "only the diverged member is flagged");
    }
}
