//! The FALCC online phase (paper §3.7): sample processing → cluster
//! matching → model lookup → classification.
//!
//! All three steps are cheap: projecting the sample is O(d), the nearest
//! centroid scan is O(k·d), and the model lookup is O(1). Compare with
//! FALCES, which per sample computes kNN over the validation set *and*
//! assesses every model combination on those neighbours.

use crate::error::RowFault;
use crate::faults::FaultSite;
use crate::framework::FairClassifier;
use crate::offline::FalccModel;
use falcc_dataset::{AttrId, GroupId, GroupIndex};
use falcc_models::parallel_map_range;

/// Single-row projections at or below this width use a stack buffer
/// instead of a heap allocation (FALCC's non-sensitive projections are a
/// handful of attributes; anything wider falls back to a `Vec`).
pub(crate) const PROJ_STACK_DIMS: usize = 32;

/// Left-to-right squared Euclidean distance — shared by both serving
/// planes to feed the live monitors' distance-to-centroid digests, so the
/// streams agree bit-for-bit (the offline fallback resolver uses the same
/// arithmetic).
pub(crate) fn sq_dist(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

/// Projects `row` into `out` — the same arithmetic, in the same order, as
/// [`falcc_dataset::Dataset::project_row`], writing into caller-provided
/// storage instead of allocating.
pub(crate) fn project_row_into(
    row: &[f64],
    attrs: &[AttrId],
    weights: Option<&[f64]>,
    out: &mut [f64],
) {
    debug_assert_eq!(out.len(), attrs.len());
    match weights {
        Some(w) => {
            for ((o, &a), &wa) in out.iter_mut().zip(attrs).zip(w) {
                *o = row[a] * wa;
            }
        }
        None => {
            for (o, &a) in out.iter_mut().zip(attrs) {
                *o = row[a];
            }
        }
    }
}

/// Row validation shared by the interpreted and compiled serving planes —
/// both defer to this one function so the fault order (width, then
/// finiteness, then group domain) can never drift between them.
/// Resolving the group *is* the domain check, so callers must not look it
/// up again.
///
/// # Errors
/// The first [`RowFault`] detected.
pub(crate) fn validate_row_against(
    n_attrs: usize,
    group_index: &GroupIndex,
    row: &[f64],
) -> Result<GroupId, RowFault> {
    if row.len() != n_attrs {
        return Err(RowFault::WrongWidth { expected: n_attrs, found: row.len() });
    }
    if let Some(column) = row.iter().position(|v| !v.is_finite()) {
        return Err(RowFault::NonFinite { column });
    }
    group_index.group_of(row).map_err(|_| RowFault::GroupOutOfDomain)
}

impl FalccModel {
    /// Step 2 of the online phase: which local region a (full-width) sample
    /// falls into. Exposed separately so the evaluation can compute local
    /// bias on the test set with FALCC's own regions.
    pub fn assign_region(&self, row: &[f64]) -> usize {
        let projected = self.proxy_outcome().project_row(row);
        self.kmeans().predict(&projected)
    }

    /// The full online phase for one sample.
    ///
    /// # Panics
    /// Panics if the row is malformed — wrong width, non-finite values, or
    /// sensitive values outside the declared domains. Callers holding
    /// unvalidated rows should use [`Self::try_classify`] instead.
    pub fn classify(&self, row: &[f64]) -> u8 {
        match self.try_classify(row) {
            Ok(z) => z,
            Err(fault) => panic!("cannot classify row: {fault}"),
        }
    }

    /// The full online phase for one sample, rejecting malformed rows with
    /// a typed [`RowFault`] instead of panicking: wrong attribute count,
    /// NaN/infinite features, or out-of-domain sensitive values.
    ///
    /// # Errors
    /// The first [`RowFault`] detected, checked in that order.
    pub fn try_classify(&self, row: &[f64]) -> Result<u8, RowFault> {
        // The monitor gate is one acquire load; when no monitor is
        // installed the path below computes exactly what it always did.
        let monitoring = falcc_telemetry::monitor::active();
        let t0 = monitoring.then(std::time::Instant::now);
        // Validation resolves the sensitive group as a side effect; thread
        // it through instead of looking it up a second time.
        let group = match self.validate_row(row) {
            Ok(g) => g,
            Err(fault) => {
                falcc_telemetry::counters::ONLINE_ROWS_REJECTED.incr();
                if monitoring {
                    falcc_telemetry::monitor::single(
                        None,
                        None,
                        t0.map_or(0, |t| t.elapsed().as_nanos() as u64),
                    );
                }
                return Err(fault);
            }
        };
        let proxy = self.proxy_outcome();
        // Steady-state the single-row path allocates nothing: the
        // projection lands in a stack buffer (same arithmetic as the
        // heap-allocating `project_row`, so the same prediction).
        let mut stack = [0.0f64; PROJ_STACK_DIMS];
        let heap;
        let projected: &[f64] = if proxy.attrs.len() <= PROJ_STACK_DIMS {
            let buf = &mut stack[..proxy.attrs.len()];
            project_row_into(row, &proxy.attrs, proxy.weights.as_deref(), buf);
            buf
        } else {
            heap = proxy.project_row(row);
            &heap
        };
        let (pred, region) = self.classify_routed_in(row, projected, group);
        if monitoring {
            falcc_telemetry::monitor::single(
                Some((
                    region,
                    group.index(),
                    sq_dist(projected, &self.kmeans().centroids[region]),
                )),
                Some(pred),
                t0.map_or(0, |t| t.elapsed().as_nanos() as u64),
            );
        }
        Ok(pred)
    }

    /// Validation shared by the single-row and batch entry points,
    /// returning the row's sensitive group on success — resolving the
    /// group *is* the domain check, so callers must not look it up again.
    ///
    /// # Errors
    /// The first [`RowFault`] detected: width, then finiteness, then
    /// group domain.
    pub(crate) fn validate_row(&self, row: &[f64]) -> Result<GroupId, RowFault> {
        validate_row_against(self.schema().n_attrs(), self.group_index(), row)
    }

    /// Classification of one sample whose projection is already computed
    /// and whose sensitive group is already resolved — the batch paths
    /// project a whole batch into one flat buffer and feed each row's
    /// slice here, instead of allocating one projection per call. The
    /// projection arithmetic is identical either way, so so is the
    /// prediction. Returns the prediction *and* the matched region, which
    /// the callers feed to the live monitors.
    fn classify_routed_in(&self, row: &[f64], projected: &[f64], group: GroupId) -> (u8, usize) {
        // Both arms run the identical match; the enabled arm additionally
        // times it. The disabled path never reads the clock.
        let cluster = if falcc_telemetry::enabled() {
            let t0 = std::time::Instant::now();
            let cluster = self.kmeans().predict(projected);
            falcc_telemetry::histograms::ONLINE_MATCH_NS.record_ns(t0.elapsed());
            falcc_telemetry::counters::ONLINE_SAMPLES.incr();
            cluster
        } else {
            self.kmeans().predict(projected)
        };
        let model_idx = self.combo(cluster)[group.index()];
        (self.pool().models[model_idx].model.predict_row(row), cluster)
    }

    /// The online phase for a batch of samples, fanned out over worker
    /// threads ([`Self::threads`], 0 = available parallelism).
    ///
    /// Each sample's classification is independent — region assignment,
    /// combination lookup, and model prediction read only shared fitted
    /// state — and results come back in input order, so the output equals
    /// `rows.iter().map(|r| self.try_classify(r))` exactly, for every
    /// thread count.
    ///
    /// Malformed rows degrade to a per-row [`RowFault`] — one poisoned
    /// sample never poisons (or panics) the rest of the batch. Rows armed
    /// as [`FaultSite::NonFiniteRow`] in the model's fault plan are
    /// rejected as if they carried a NaN in column 0.
    pub fn classify_batch(&self, rows: &[Vec<f64>]) -> Vec<Result<u8, RowFault>> {
        let _sp = falcc_telemetry::span("online.classify_batch");
        // One ordinal block per batch; workers stash routes lock-free and
        // the fold happens once at the end, so window contents are
        // identical for every thread count.
        let rec = falcc_telemetry::monitor::batch(rows.len());
        let t0 = rec.as_ref().map(|_| std::time::Instant::now());
        let proxy = self.proxy_outcome();
        let plan = self.fault_plan();
        // Validation comes first because the shared projection pass
        // indexes every row by schema position — a short row would fault
        // inside projection, before any per-row error could be produced.
        // It also resolves each valid row's group, consumed downstream
        // instead of a second lookup.
        let checked: Vec<Result<GroupId, RowFault>> = rows
            .iter()
            .enumerate()
            .map(|(i, row)| {
                if plan.fires(FaultSite::NonFiniteRow, i as u64) {
                    return Err(RowFault::NonFinite { column: 0 });
                }
                self.validate_row(row)
            })
            .collect();
        let rejected = checked.iter().filter(|r| r.is_err()).count();
        let out = if rejected == 0 {
            // Happy path: one flat projection buffer for the whole batch.
            let projected = falcc_dataset::Dataset::project_rows(
                rows,
                &proxy.attrs,
                proxy.weights.as_deref(),
            );
            parallel_map_range(rows.len(), self.threads(), |i| match &checked[i] {
                Ok(group) => {
                    let (pred, region) =
                        self.classify_routed_in(&rows[i], projected.row(i), *group);
                    if let Some(rec) = &rec {
                        rec.stash(
                            i,
                            region,
                            group.index(),
                            sq_dist(projected.row(i), &self.kmeans().centroids[region]),
                        );
                    }
                    Ok(pred)
                }
                Err(fault) => Err(fault.clone()),
            })
        } else {
            falcc_telemetry::counters::ONLINE_ROWS_REJECTED.add(rejected as u64);
            if falcc_telemetry::enabled() {
                falcc_telemetry::event(
                    "online.rows_rejected",
                    format!("{rejected} of {} batch rows rejected", rows.len()),
                );
            }
            // Degraded path: substitute a neutral stand-in for each
            // rejected row so the batch projection stays shape-safe, then
            // surface the recorded fault instead of the stand-in's
            // prediction.
            let stand_in = vec![0.0; self.schema().n_attrs()];
            let safe: Vec<Vec<f64>> = rows
                .iter()
                .zip(&checked)
                .map(|(row, check)| if check.is_err() { stand_in.clone() } else { row.clone() })
                .collect();
            let projected = falcc_dataset::Dataset::project_rows(
                &safe,
                &proxy.attrs,
                proxy.weights.as_deref(),
            );
            parallel_map_range(rows.len(), self.threads(), |i| match &checked[i] {
                Ok(group) => {
                    let (pred, region) =
                        self.classify_routed_in(&rows[i], projected.row(i), *group);
                    if let Some(rec) = &rec {
                        rec.stash(
                            i,
                            region,
                            group.index(),
                            sq_dist(projected.row(i), &self.kmeans().centroids[region]),
                        );
                    }
                    Ok(pred)
                }
                Err(fault) => Err(fault.clone()),
            })
        };
        if let (Some(rec), Some(t0)) = (rec, t0) {
            // Rejected rows never stashed a route; commit folds them into
            // the window's rejection tally.
            rec.commit(|i| out[i].as_ref().ok().copied(), t0.elapsed().as_nanos() as u64);
        }
        out
    }
}

impl FairClassifier for FalccModel {
    fn predict_row(&self, row: &[f64]) -> u8 {
        self.classify(row)
    }

    fn name(&self) -> &str {
        self.name_str()
    }

    /// Batched override of the default row-by-row loop: same results
    /// (ordered merge, no per-thread state, one batch-level projection
    /// buffer instead of one allocation per sample), higher throughput.
    fn predict_dataset(&self, ds: &falcc_dataset::Dataset) -> Vec<u8> {
        let _sp = falcc_telemetry::span("online.classify_batch");
        let rec = falcc_telemetry::monitor::batch(ds.len());
        let t0 = rec.as_ref().map(|_| std::time::Instant::now());
        let proxy = self.proxy_outcome();
        let projected = ds.project(&proxy.attrs, proxy.weights.as_deref());
        let preds = parallel_map_range(ds.len(), self.threads(), |i| {
            // Dataset rows passed schema validation at construction; a
            // group lookup can only fail on an unvalidated row.
            let group = match self.group_index().group_of(ds.row(i)) {
                Ok(g) => g,
                Err(_) => {
                    panic!("caller passed an unvalidated row: {}", RowFault::GroupOutOfDomain)
                }
            };
            let (pred, region) = self.classify_routed_in(ds.row(i), projected.row(i), group);
            if let Some(rec) = &rec {
                rec.stash(
                    i,
                    region,
                    group.index(),
                    sq_dist(projected.row(i), &self.kmeans().centroids[region]),
                );
            }
            pred
        });
        if let (Some(rec), Some(t0)) = (rec, t0) {
            rec.commit(|i| Some(preds[i]), t0.elapsed().as_nanos() as u64);
        }
        preds
    }
}

#[cfg(test)]
mod tests {
    use crate::config::FalccConfig;
    use crate::framework::FairClassifier;
    use crate::offline::FalccModel;
    use falcc_dataset::synthetic::{generate, SyntheticConfig};
    use falcc_dataset::{SplitRatios, ThreeWaySplit};
    use falcc_metrics::{accuracy, FairnessMetric};

    fn fitted(n: usize, seed: u64) -> (FalccModel, ThreeWaySplit) {
        let mut dcfg = SyntheticConfig::social(0.3);
        dcfg.n = n;
        let ds = generate(&dcfg, seed).unwrap();
        let split = ThreeWaySplit::split(&ds, SplitRatios::PAPER, seed).unwrap();
        let mut cfg = FalccConfig::default();
        cfg.scale_for_tests();
        let model = FalccModel::fit(&split.train, &split.validation, &cfg).unwrap();
        (model, split)
    }

    #[test]
    fn predictions_are_binary_and_deterministic() {
        let (model, split) = fitted(800, 1);
        let a = model.predict_dataset(&split.test);
        let b = model.predict_dataset(&split.test);
        assert_eq!(a, b);
        assert!(a.iter().all(|&z| z <= 1));
        assert_eq!(a.len(), split.test.len());
    }

    #[test]
    fn accuracy_is_well_above_chance() {
        let (model, split) = fitted(1500, 2);
        let preds = model.predict_dataset(&split.test);
        let acc = accuracy(split.test.labels(), &preds);
        assert!(acc > 0.65, "accuracy {acc}");
    }

    #[test]
    fn fairness_is_better_than_the_labels() {
        // The social30 labels carry a 30-point parity gap; FALCC's
        // predictions should shrink it.
        let (model, split) = fitted(3000, 3);
        let preds = model.predict_dataset(&split.test);
        let label_bias = FairnessMetric::DemographicParity.bias(
            split.test.labels(),
            split.test.labels(),
            split.test.groups(),
            2,
        );
        let pred_bias = FairnessMetric::DemographicParity.bias(
            split.test.labels(),
            &preds,
            split.test.groups(),
            2,
        );
        assert!(
            pred_bias < label_bias,
            "prediction bias {pred_bias} should undercut label bias {label_bias}"
        );
    }

    #[test]
    fn region_assignment_is_stable_and_in_range() {
        let (model, split) = fitted(800, 4);
        for i in 0..split.test.len().min(100) {
            let r = model.assign_region(split.test.row(i));
            assert!(r < model.n_regions());
            assert_eq!(r, model.assign_region(split.test.row(i)));
        }
    }

    #[test]
    fn similar_samples_in_different_groups_may_get_different_models() {
        // The running-example property: the classification routes through
        // the group-specific member of the cluster's combination.
        let (model, split) = fitted(800, 5);
        let mut saw_group_divergence = false;
        for c in 0..model.n_regions() {
            let combo = model.combo(c);
            if combo[0] != combo[1] {
                saw_group_divergence = true;
            }
        }
        // Not guaranteed for every run, but with a diverse pool across 4
        // clusters at least one cluster usually differentiates; if not,
        // the model still must classify coherently.
        let preds = model.predict_dataset(&split.test);
        assert_eq!(preds.len(), split.test.len());
        let _ = saw_group_divergence;
    }

    #[test]
    fn name_reports_falcc() {
        let (model, _) = fitted(600, 6);
        assert_eq!(model.name(), "FALCC");
    }

    #[test]
    fn malformed_rows_get_typed_faults_not_panics() {
        use crate::error::RowFault;
        let (model, split) = fitted(700, 7);
        let good = split.test.row(0).to_vec();
        assert!(model.try_classify(&good).is_ok());

        let short = vec![0.0];
        assert!(matches!(
            model.try_classify(&short),
            Err(RowFault::WrongWidth { found: 1, .. })
        ));

        let mut poisoned = good.clone();
        poisoned[2] = f64::NAN;
        assert_eq!(model.try_classify(&poisoned), Err(RowFault::NonFinite { column: 2 }));

        let mut alien = good.clone();
        alien[0] = 42.0; // sensitive attribute outside {0, 1}
        assert_eq!(model.try_classify(&alien), Err(RowFault::GroupOutOfDomain));
    }

    #[test]
    fn one_poisoned_row_does_not_poison_the_batch() {
        use crate::error::RowFault;
        let (model, split) = fitted(700, 8);
        let mut rows: Vec<Vec<f64>> =
            (0..10).map(|i| split.test.row(i).to_vec()).collect();
        rows[4][1] = f64::INFINITY;
        rows[7] = vec![1.0, 2.0]; // wrong width
        let out = model.classify_batch(&rows);
        assert_eq!(out.len(), 10);
        assert_eq!(out[4], Err(RowFault::NonFinite { column: 1 }));
        assert!(matches!(out[7], Err(RowFault::WrongWidth { found: 2, .. })));
        for (i, r) in out.iter().enumerate() {
            if i != 4 && i != 7 {
                assert_eq!(*r, Ok(model.classify(&rows[i])), "row {i}");
            }
        }
    }

    #[test]
    fn injected_row_faults_reject_exactly_the_armed_rows() {
        let (mut model, split) = fitted(700, 9);
        let rows: Vec<Vec<f64>> =
            (0..8).map(|i| split.test.row(i).to_vec()).collect();
        let clean: Vec<u8> =
            model.classify_batch(&rows).into_iter().map(|r| r.unwrap()).collect();
        let mut plan = crate::faults::FaultPlan::default();
        plan.poison_row(3);
        model.set_fault_plan(plan);
        let out = model.classify_batch(&rows);
        for (i, r) in out.iter().enumerate() {
            if i == 3 {
                assert!(r.is_err());
            } else {
                assert_eq!(*r, Ok(clean[i]), "row {i} unaffected by injection");
            }
        }
    }
}
