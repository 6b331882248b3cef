//! The compiled serving plane: flattened inference artifacts with
//! region-batched dispatch.
//!
//! [`FalccModel::compile`] lowers a fitted model into a [`CompiledModel`]
//! built for the online hot path:
//!
//! * **Flat members** — every *distinct* pool member reachable from the
//!   region→group dispatch table is compiled once into
//!   structure-of-arrays form ([`falcc_models::FlatPool`]): trees become
//!   index-linked parallel slabs traversed by a tight compare-and-jump
//!   loop, ensembles share one node arena with per-tree offsets, and
//!   linear/Bayes members get dense parameter slabs.
//! * **Flat region match** — the centroids move into one contiguous
//!   [`falcc_clustering::CentroidMatrix`], scanned with the same exact
//!   distances and tie-break as the interpreted match.
//! * **Deduplicated dispatch** — `dispatch[region · n_groups + group]`
//!   maps straight to a compiled-member id; a pool member referenced by
//!   many (region, group) cells is compiled exactly once
//!   (`serve.dedup_models`).
//!
//! [`CompiledModel::classify_batch`] buckets validated rows by compiled
//! member and runs each distinct member once over its whole bucket, so a
//! member's slabs stay cache-resident instead of being evicted by
//! row-order interleaving. Predictions are scattered back in input
//! order; combined with the deterministic ordered-merge parallel layer
//! this keeps the batch output equal to the row-by-row sequence for
//! every thread count.
//!
//! **Equivalence contract**: every entry point is *bit-identical* to its
//! interpreted counterpart — [`CompiledModel::try_classify`] to
//! [`FalccModel::try_classify`] (same `Result<u8, RowFault>`, including
//! injected faults), [`CompiledModel::classify_batch`] to
//! [`FalccModel::classify_batch`], and the [`FairClassifier`]
//! `predict_dataset` override to the interpreted one. The
//! `compiled_equivalence` suite and the `exp_serving --smoke` CI gate
//! pin this.

use crate::error::RowFault;
use crate::faults::{FaultPlan, FaultSite};
use crate::framework::FairClassifier;
use crate::offline::FalccModel;
use crate::online::{project_row_into, sq_dist, validate_row_against, PROJ_STACK_DIMS};
use crate::proxy::ProxyOutcome;
use falcc_clustering::CentroidMatrix;
use falcc_dataset::{Dataset, GroupId, GroupIndex, Schema};
use falcc_models::{parallel_map, parallel_map_range, FlatPool};
use std::sync::Arc;

/// Bucket slices handed to worker threads. Large buckets are cut into
/// chunks this size so parallelism survives a dispatch table dominated by
/// one member, without perturbing results (each row is pure).
const BUCKET_CHUNK: usize = 512;

/// Assignment sentinel for rows that failed validation.
const SKIP: u32 = u32::MAX;

/// Validation metadata the serving plane carries alongside its flat
/// slabs: everything a row needs before it reaches a compiled member —
/// the schema (row width), the group index (sensitive-group domain), the
/// proxy projection, and the display name.
#[derive(Clone)]
pub(crate) struct ServeMeta {
    pub(crate) schema: Schema,
    pub(crate) group_index: GroupIndex,
    pub(crate) proxy: ProxyOutcome,
    pub(crate) name: String,
}

/// A fitted FALCC model lowered into flat serving artifacts. Fully
/// self-contained: the validation metadata (schema, group index, proxy
/// projection) is owned, so a compiled model outlives its source — it
/// can be persisted as a binary artifact ([`crate::artifact`]) and
/// loaded without the source model ever existing in the process.
///
/// The thread count and fault plan are snapshotted from the source at
/// [`FalccModel::compile`] time (and default to auto / empty on artifact
/// load); [`CompiledModel::set_threads`] / [`CompiledModel::set_fault_plan`]
/// adjust them afterwards.
pub struct CompiledModel {
    pub(crate) meta: ServeMeta,
    pub(crate) centroids: CentroidMatrix,
    pub(crate) pool: FlatPool,
    /// `dispatch[region * n_groups + group.index()]` → compiled member id.
    pub(crate) dispatch: Vec<u32>,
    pub(crate) n_groups: usize,
    pub(crate) threads: usize,
    pub(crate) faults: FaultPlan,
}

impl FalccModel {
    /// Lowers the fitted model into the compiled serving plane.
    ///
    /// Compilation cost is `serve.compile_ns`; the deduplicated member
    /// count lands in `serve.dedup_models`. Every classification entry
    /// point of the result is bit-identical to the interpreted one here.
    pub fn compile(&self) -> CompiledModel {
        let _sp = falcc_telemetry::span("serve.compile");
        let t0 = std::time::Instant::now();
        let n_groups = self.group_index().len();
        let n_regions = self.n_regions();
        // Dedup: first-seen order over (region, group) cells, so compiled
        // ids are deterministic and independent of pool layout churn.
        let mut compiled_id: Vec<Option<u32>> = vec![None; self.pool().models.len()];
        let mut reachable = Vec::new();
        let mut dispatch = Vec::with_capacity(n_regions * n_groups);
        for region in 0..n_regions {
            let combo = self.combo(region);
            for &pool_idx in combo.iter().take(n_groups) {
                let id = *compiled_id[pool_idx].get_or_insert_with(|| {
                    reachable.push(Arc::clone(&self.pool().models[pool_idx].model));
                    (reachable.len() - 1) as u32
                });
                dispatch.push(id);
            }
        }
        let pool = FlatPool::compile(&reachable);
        let centroids = CentroidMatrix::from_model(self.kmeans());
        falcc_telemetry::counters::SERVE_COMPILE_NS.add(t0.elapsed().as_nanos() as u64);
        falcc_telemetry::gauges::SERVE_DEDUP_MODELS.set(pool.len() as u64);
        CompiledModel {
            meta: ServeMeta {
                schema: self.schema().clone(),
                group_index: self.group_index().clone(),
                proxy: self.proxy_outcome().clone(),
                name: self.name_str().to_string(),
            },
            centroids,
            pool,
            dispatch,
            n_groups,
            threads: self.threads(),
            faults: self.fault_plan().clone(),
        }
    }
}

impl CompiledModel {
    /// Sets the worker-thread count for the batch entry points
    /// (0 = available parallelism), like [`FalccModel::set_threads`].
    pub fn set_threads(&mut self, threads: usize) {
        self.threads = threads;
    }

    /// Installs a deterministic fault-injection plan for the batch entry
    /// points, like [`FalccModel::set_fault_plan`].
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.faults = plan;
    }

    /// Distinct compiled members — the deduplicated reach of the
    /// dispatch table (≤ pool size, often far below regions × groups).
    pub fn n_models(&self) -> usize {
        self.pool.len()
    }

    /// Number of local regions.
    pub fn n_regions(&self) -> usize {
        self.centroids.k()
    }

    /// Total flat tree nodes across all compiled members (diagnostics).
    pub fn n_nodes(&self) -> usize {
        self.pool.n_nodes()
    }

    /// The schema the model was fitted against (row width, sensitive
    /// columns and their domains).
    pub fn schema(&self) -> &Schema {
        &self.meta.schema
    }

    /// Compiled member id serving `(region, group)`.
    fn member_of(&self, region: usize, group: GroupId) -> u32 {
        self.dispatch[region * self.n_groups + group.index()]
    }

    /// Compiled single-row classification — bit-identical to
    /// [`FalccModel::try_classify`], allocation-free in steady state.
    ///
    /// # Errors
    /// The same first [`RowFault`] the interpreted path reports.
    pub fn try_classify(&self, row: &[f64]) -> Result<u8, RowFault> {
        let monitoring = falcc_telemetry::monitor::active();
        let t0 = monitoring.then(std::time::Instant::now);
        let group = match validate_row_against(
            self.meta.schema.n_attrs(),
            &self.meta.group_index,
            row,
        ) {
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
        let proxy = &self.meta.proxy;
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
        let region = self.match_region(projected);
        let pred = self.pool.predict_row(self.member_of(region, group) as usize, row);
        if monitoring {
            // `CentroidMatrix::row` returns the source centroid bits, so
            // the distance matches the interpreted plane's exactly.
            falcc_telemetry::monitor::single(
                Some((region, group.index(), sq_dist(projected, self.centroids.row(region)))),
                Some(pred),
                t0.map_or(0, |t| t.elapsed().as_nanos() as u64),
            );
        }
        Ok(pred)
    }

    /// Compiled single-row classification.
    ///
    /// # Panics
    /// Panics on malformed rows, like [`FalccModel::classify`]; use
    /// [`Self::try_classify`] for unvalidated rows.
    pub fn classify(&self, row: &[f64]) -> u8 {
        match self.try_classify(row) {
            Ok(z) => z,
            Err(fault) => panic!("cannot classify row: {fault}"),
        }
    }

    /// Nearest-centroid region match over the flat matrix, with the same
    /// telemetry the interpreted path records.
    #[inline]
    fn match_region(&self, projected: &[f64]) -> usize {
        if falcc_telemetry::enabled() {
            let t0 = std::time::Instant::now();
            let region = self.centroids.nearest(projected);
            falcc_telemetry::histograms::ONLINE_MATCH_NS.record_ns(t0.elapsed());
            falcc_telemetry::counters::ONLINE_SAMPLES.incr();
            region
        } else {
            self.centroids.nearest(projected)
        }
    }

    /// Compiled batch classification — bit-identical to
    /// [`FalccModel::classify_batch`] (same per-row `Result` sequence,
    /// same honoured fault plan) for every thread count.
    ///
    /// One fused pass per row — fault plan, validation, stack-buffer
    /// projection, flat region match, member lookup — keeps the row hot
    /// in L1 across all phases instead of re-streaming the batch once
    /// per phase. The resolved members then drive the **bucketed**
    /// prediction pass: each distinct large member runs once over its
    /// whole bucket (cache-resident slabs, zero per-row allocations),
    /// and predictions scatter back to input order. Projection uses the
    /// same arithmetic in the same order as the interpreted batch
    /// buffer, so the assignments are identical; rejected rows never
    /// reach projection and surface the same fault the interpreted
    /// plane records.
    pub fn classify_batch(&self, rows: &[Vec<f64>]) -> Vec<Result<u8, RowFault>> {
        let _sp = falcc_telemetry::span("serve.classify_batch");
        let rec = falcc_telemetry::monitor::batch(rows.len());
        let t0 = rec.as_ref().map(|_| std::time::Instant::now());
        let proxy = &self.meta.proxy;
        let plan = &self.faults;
        let threads = self.threads;
        let checked: Vec<Result<u32, RowFault>> =
            parallel_map_range(rows.len(), threads, |i| {
                if plan.fires(FaultSite::NonFiniteRow, i as u64) {
                    return Err(RowFault::NonFinite { column: 0 });
                }
                let group = validate_row_against(
                    self.meta.schema.n_attrs(),
                    &self.meta.group_index,
                    &rows[i],
                )?;
                let mut stack = [0.0f64; PROJ_STACK_DIMS];
                let heap;
                let projected: &[f64] = if proxy.attrs.len() <= PROJ_STACK_DIMS {
                    let buf = &mut stack[..proxy.attrs.len()];
                    project_row_into(&rows[i], &proxy.attrs, proxy.weights.as_deref(), buf);
                    buf
                } else {
                    heap = proxy.project_row(&rows[i]);
                    &heap
                };
                let region = self.match_region(projected);
                if let Some(rec) = &rec {
                    rec.stash(
                        i,
                        region,
                        group.index(),
                        sq_dist(projected, self.centroids.row(region)),
                    );
                }
                Ok(self.member_of(region, group))
            });
        let rejected = checked.iter().filter(|r| r.is_err()).count();
        if rejected > 0 {
            falcc_telemetry::counters::ONLINE_ROWS_REJECTED.add(rejected as u64);
            if falcc_telemetry::enabled() {
                falcc_telemetry::event(
                    "online.rows_rejected",
                    format!("{rejected} of {} batch rows rejected", rows.len()),
                );
            }
        }
        let assignment: Vec<u32> =
            checked.iter().map(|check| *check.as_ref().unwrap_or(&SKIP)).collect();
        let row_slices: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        let preds = self.run_buckets(&row_slices, &assignment, threads);
        let out: Vec<Result<u8, RowFault>> = checked
            .into_iter()
            .enumerate()
            .map(|(i, check)| check.map(|_| preds[i]))
            .collect();
        if let (Some(rec), Some(t0)) = (rec, t0) {
            rec.commit(|i| out[i].as_ref().ok().copied(), t0.elapsed().as_nanos() as u64);
        }
        out
    }

    /// Runs every validated row through its compiled member and scatters
    /// predictions back to input order. Positions whose `assignment` is
    /// [`SKIP`] stay 0 (masked by the caller).
    ///
    /// Rows split two ways by the member that serves them
    /// ([`FlatPool::wants_bucket`]): rows of *small* members are served
    /// in input order — those members all sit in L1 together, so the
    /// winning layout is a sequential stream over the row data — while
    /// each *large* member gets a contiguous bucket evaluated
    /// stage-major, keeping one tree at a time cache-resident instead of
    /// re-streaming the whole ensemble per row. Work is cut into
    /// [`BUCKET_CHUNK`]-row chunks and fanned out through the ordered
    /// deterministic parallel layer; every row's prediction is a pure
    /// function of shared state, so the scatter is thread-count
    /// invariant.
    fn run_buckets(&self, rows: &[&[f64]], assignment: &[u32], threads: usize) -> Vec<u8> {
        let mut buckets: Vec<Vec<u32>> = vec![Vec::new(); self.pool.len()];
        let mut ordered: Vec<u32> = Vec::new();
        let mut bucketed = 0u64;
        for (i, &member) in assignment.iter().enumerate() {
            if member != SKIP {
                if self.pool.wants_bucket(member as usize) {
                    buckets[member as usize].push(i as u32);
                    bucketed += 1;
                } else {
                    ordered.push(i as u32);
                }
            }
        }
        falcc_telemetry::counters::SERVE_BUCKET_ROWS.add(bucketed);
        falcc_telemetry::counters::SERVE_ORDERED_ROWS.add(ordered.len() as u64);
        // One chunk stream covers both layouts: `Some(member)` is a
        // bucket slice of that member, `None` an input-order slice of
        // small-member rows resolved per row via `assignment`.
        let chunks: Vec<(Option<u32>, &[u32])> = buckets
            .iter()
            .enumerate()
            .flat_map(|(member, idxs)| {
                idxs.chunks(BUCKET_CHUNK).map(move |chunk| (Some(member as u32), chunk))
            })
            .chain(ordered.chunks(BUCKET_CHUNK).map(|chunk| (None, chunk)))
            .collect();
        let chunk_preds: Vec<Vec<u8>> = parallel_map(&chunks, threads, |_, (member, idxs)| {
            match member {
                Some(member) => self.pool.predict_bucket(*member as usize, rows, idxs),
                None => idxs
                    .iter()
                    .map(|&i| {
                        self.pool
                            .predict_row(assignment[i as usize] as usize, rows[i as usize])
                    })
                    .collect(),
            }
        });
        let mut out = vec![0u8; rows.len()];
        for ((_, idxs), preds) in chunks.iter().zip(&chunk_preds) {
            for (&i, &p) in idxs.iter().zip(preds) {
                out[i as usize] = p;
            }
        }
        out
    }
}

impl FairClassifier for CompiledModel {
    fn predict_row(&self, row: &[f64]) -> u8 {
        self.classify(row)
    }

    fn name(&self) -> &str {
        &self.meta.name
    }

    /// Bucketed override for schema-validated datasets — bit-identical
    /// to the interpreted [`FalccModel`] `predict_dataset`. Like
    /// [`CompiledModel::classify_batch`], group resolution, projection,
    /// and region match fuse into one pass per row (the stack-buffer
    /// projection performs the same arithmetic as the interpreted
    /// batch buffer, so the assignments are identical).
    fn predict_dataset(&self, ds: &Dataset) -> Vec<u8> {
        let _sp = falcc_telemetry::span("serve.classify_batch");
        let rec = falcc_telemetry::monitor::batch(ds.len());
        let t0 = rec.as_ref().map(|_| std::time::Instant::now());
        let proxy = &self.meta.proxy;
        let threads = self.threads;
        let assignment: Vec<u32> = parallel_map_range(ds.len(), threads, |i| {
            // Same group resolution as the interpreted dataset path (the
            // model's own index; dataset rows passed schema validation).
            let group = match self.meta.group_index.group_of(ds.row(i)) {
                Ok(g) => g,
                Err(_) => {
                    panic!("dataset row escaped validation: {}", RowFault::GroupOutOfDomain)
                }
            };
            let mut stack = [0.0f64; PROJ_STACK_DIMS];
            let heap;
            let projected: &[f64] = if proxy.attrs.len() <= PROJ_STACK_DIMS {
                let buf = &mut stack[..proxy.attrs.len()];
                project_row_into(ds.row(i), &proxy.attrs, proxy.weights.as_deref(), buf);
                buf
            } else {
                heap = proxy.project_row(ds.row(i));
                &heap
            };
            let region = self.match_region(projected);
            if let Some(rec) = &rec {
                rec.stash(
                    i,
                    region,
                    group.index(),
                    sq_dist(projected, self.centroids.row(region)),
                );
            }
            self.member_of(region, group)
        });
        let rows: Vec<&[f64]> = (0..ds.len()).map(|i| ds.row(i)).collect();
        let preds = self.run_buckets(&rows, &assignment, threads);
        if let (Some(rec), Some(t0)) = (rec, t0) {
            rec.commit(|i| Some(preds[i]), t0.elapsed().as_nanos() as u64);
        }
        preds
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FalccConfig;
    use falcc_dataset::synthetic::{generate, SyntheticConfig};
    use falcc_dataset::{SplitRatios, ThreeWaySplit};

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
    fn dispatch_covers_every_region_group_cell_and_dedups() {
        let (model, _) = fitted(700, 21);
        let compiled = model.compile();
        assert_eq!(compiled.dispatch.len(), model.n_regions() * compiled.n_groups);
        assert!(compiled.n_models() >= 1);
        // Dedup can never exceed the pool, and every id is in range.
        assert!(compiled.n_models() <= model.pool().models.len());
        assert!(compiled
            .dispatch
            .iter()
            .all(|&id| (id as usize) < compiled.n_models()));
        assert_eq!(compiled.n_regions(), model.n_regions());
    }

    #[test]
    fn single_row_matches_interpreted_bit_for_bit() {
        let (model, split) = fitted(900, 22);
        let compiled = model.compile();
        for i in 0..split.test.len() {
            let row = split.test.row(i);
            assert_eq!(model.try_classify(row), compiled.try_classify(row), "row {i}");
        }
        // Malformed rows fault identically.
        let mut bad = split.test.row(0).to_vec();
        bad[2] = f64::NAN;
        assert_eq!(model.try_classify(&bad), compiled.try_classify(&bad));
        assert_eq!(model.try_classify(&[1.0]), compiled.try_classify(&[1.0]));
    }

    #[test]
    fn batch_and_dataset_paths_match_interpreted() {
        let (model, split) = fitted(900, 23);
        let compiled = model.compile();
        let rows: Vec<Vec<f64>> =
            (0..split.test.len()).map(|i| split.test.row(i).to_vec()).collect();
        assert_eq!(model.classify_batch(&rows), compiled.classify_batch(&rows));
        assert_eq!(model.predict_dataset(&split.test), compiled.predict_dataset(&split.test));
    }

    #[test]
    fn fault_plan_is_honoured_identically() {
        let (mut model, split) = fitted(700, 24);
        let mut plan = crate::faults::FaultPlan::default();
        plan.poison_row(2);
        model.set_fault_plan(plan);
        let compiled = model.compile();
        let rows: Vec<Vec<f64>> = (0..8).map(|i| split.test.row(i).to_vec()).collect();
        let interpreted = model.classify_batch(&rows);
        let out = compiled.classify_batch(&rows);
        assert!(out[2].is_err());
        assert_eq!(interpreted, out);
    }
}
