//! The FALCC online phase (paper §3.7) as a plain reference: project the
//! sample, find the nearest region, and ask the pool member that region's
//! combination names for the sample's sensitive group.
//!
//! All three steps are cheap: projecting the sample is O(d), the nearest
//! centroid scan is O(k·d), and the model lookup is O(1). Compare with
//! FALCES, which per sample computes kNN over the validation set *and*
//! assesses every model combination on those neighbours.
//!
//! Serving goes through the compiled plane ([`FalccModel::compile`]);
//! these entry points are the reference it is checked against — by the
//! `compiled_equivalence` suite and by the benchmark's per-row output
//! check. To keep that a comparison of two independent code paths, the
//! reference is deliberately plain: one serial loop, no telemetry, no
//! live monitors, no threads, and nothing shared with the compiled plane
//! but its two input checks, [`validate_row_against`] and
//! [`check_columns`], so the fault order and the column contract cannot
//! drift.

use crate::error::RowFault;
use crate::faults::FaultSite;
use crate::framework::FairClassifier;
use crate::offline::FalccModel;
use falcc_clustering::kmeans::nearest_centroid;
use falcc_dataset::{Dataset, GroupId, GroupIndex, Schema};

/// Row validation shared by the reference and the compiled serving plane —
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

/// Checks that a dataset's attribute columns are the model's: the same
/// names in the same order. Rows are served by position, so a missing,
/// moved, swapped or renamed column would otherwise panic deep inside
/// serving or silently serve the wrong feature. Both serving planes'
/// `predict_dataset` and the CLI's data loading run it once per call.
///
/// # Errors
/// A description listing both column lists when they differ.
pub fn check_columns(model: &Schema, data: &Schema) -> Result<(), String> {
    let (expected, found) = (model.attr_names(), data.attr_names());
    if found == expected {
        return Ok(());
    }
    Err(format!(
        "the model expects columns [{}], found [{}]",
        expected.join(", "),
        found.join(", ")
    ))
}

impl FalccModel {
    /// Step 2 of the online phase: which local region a (full-width) sample
    /// falls into. Exposed separately so the evaluation can compute local
    /// bias on the test set with FALCC's own regions.
    pub fn assign_region(&self, row: &[f64]) -> usize {
        let projected = self.proxy_outcome().project_row(row);
        nearest_centroid(&projected, self.centroids()).0
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
        let group = validate_row_against(self.schema().n_attrs(), self.group_index(), row)?;
        let member = self.combo(self.assign_region(row))[group.index()];
        Ok(self.pool().models[member].model.predict_row(row))
    }

    /// The online phase for a batch of samples: [`Self::try_classify`] on
    /// each row in turn, so one malformed row degrades to its own
    /// [`RowFault`] and never poisons (or panics) the rest of the batch.
    /// Rows armed as [`FaultSite::NonFiniteRow`] in the model's fault plan
    /// are rejected as if they carried a NaN in column 0.
    pub fn classify_batch(&self, rows: &[Vec<f64>]) -> Vec<Result<u8, RowFault>> {
        let plan = self.fault_plan();
        rows.iter()
            .enumerate()
            .map(|(i, row)| {
                if plan.fires(FaultSite::NonFiniteRow, i as u64) {
                    return Err(RowFault::NonFinite { column: 0 });
                }
                self.try_classify(row)
            })
            .collect()
    }
}

impl FairClassifier for FalccModel {
    fn predict_row(&self, row: &[f64]) -> u8 {
        self.classify(row)
    }

    fn name(&self) -> &str {
        self.name_str()
    }

    /// The trait's row loop behind a column check.
    ///
    /// # Panics
    /// Panics with `column mismatch` and both column lists when `ds`'s
    /// attribute columns are not the model's, in the model's order
    /// ([`check_columns`]).
    fn predict_dataset(&self, ds: &Dataset) -> Vec<u8> {
        if let Err(detail) = check_columns(self.schema(), ds.schema()) {
            panic!("column mismatch: {detail}");
        }
        (0..ds.len()).map(|i| self.predict_row(ds.row(i))).collect()
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
