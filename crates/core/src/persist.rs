//! Persistence of fitted FALCC models.
//!
//! The offline phase is the expensive part of FALCC (paper §3.1); a real
//! deployment runs it once and ships the result. [`SavedFalccModel`]
//! captures everything the online phase needs — the model pool, the
//! cluster centroids, the per-cluster combinations, and the proxy
//! projection — as plain JSON.
//!
//! ## Hardened envelope
//!
//! Snapshots are wrapped in the versioned envelope of [`crate::io`],
//! `{"magic":"falcc-model","version":3,"checksum":"…","payload":{…}}`,
//! where the payload is the snapshot's JSON embedded as a value and
//! `checksum` is the FNV-1a 64-bit hash of exactly those payload bytes.
//! Loading parses the file once, then checks magic → version → checksum
//! and deserialises the payload from that same parse. Any corruption —
//! flipped bytes, truncation, invalid UTF-8 — is caught by the parse or
//! the checksum and surfaces as [`FalccError::SnapshotCorrupt`]; an
//! intact envelope from a different format version (v2 carried the
//! payload as an escaped string) surfaces as
//! [`FalccError::SnapshotVersionSkew`]. Saving is atomic
//! (write-temp-then-rename) and round-trips the serialised bytes through
//! the loader as a self-check before publishing the file.
//!
//! ```
//! use falcc::{FairClassifier, FalccConfig, FalccModel, SavedFalccModel};
//! use falcc_dataset::{synthetic, SplitRatios, ThreeWaySplit};
//!
//! let data = synthetic::social30(7).unwrap();
//! let data = data.subset(&(0..900).collect::<Vec<_>>()).unwrap();
//! let split = ThreeWaySplit::split(&data, SplitRatios::PAPER, 7).unwrap();
//! let mut config = FalccConfig::default();
//! config.scale_for_tests();
//! let model = FalccModel::fit(&split.train, &split.validation, &config).unwrap();
//!
//! let json = SavedFalccModel::capture(&model).unwrap().to_json().unwrap();
//! let revived = SavedFalccModel::from_json(&json).unwrap().restore();
//! assert_eq!(revived.predict_row(split.test.row(0)),
//!            model.predict_row(split.test.row(0)));
//! ```

use crate::baseline::MonitorBaseline;
use crate::error::FalccError;
use crate::io::{atomic_durable_write, open_envelope, seal_envelope, EnvelopeFault};
use crate::offline::FalccModel;
use crate::proxy::ProxyOutcome;
use falcc_clustering::KMeansModel;
use falcc_dataset::{GroupId, GroupIndex};
use falcc_metrics::LossConfig;
use falcc_models::{ModelPool, ModelSpec, TrainedModel};
use serde::{Deserialize, Serialize};
use std::path::Path;

/// A serialisable snapshot of a fitted [`FalccModel`].
#[derive(Debug, Serialize, Deserialize)]
pub struct SavedFalccModel {
    schema: falcc_dataset::Schema,
    pool: Vec<(ModelSpec, Option<GroupId>)>,
    kmeans: KMeansModel,
    combos: Vec<Vec<usize>>,
    proxy: ProxyOutcome,
    group_index: GroupIndex,
    loss: LossConfig,
    name: String,
    baseline: MonitorBaseline,
}

/// Current snapshot format version. v2 introduced the checksummed
/// envelope with the payload as an escaped string; v3 embeds the payload
/// as a JSON value. Older snapshots are rejected with
/// [`FalccError::SnapshotVersionSkew`].
pub const FORMAT_VERSION: u32 = 3;

/// Envelope magic — lets the loader distinguish "not a snapshot at all"
/// from "a damaged snapshot".
const MAGIC: &str = "falcc-model";

/// Typed rejection + telemetry on one line.
fn corrupt(detail: impl Into<String>) -> FalccError {
    falcc_telemetry::counters::SNAPSHOTS_REJECTED.incr();
    FalccError::SnapshotCorrupt { detail: detail.into() }
}

impl SavedFalccModel {
    /// Captures a fitted model. Fails if the pool contains a model that
    /// does not support persistence (a custom [`falcc_models::Classifier`]
    /// returning `None` from `to_spec`).
    ///
    /// # Errors
    /// [`FalccError::InvalidConfig`] naming the unsupported model.
    pub fn capture(model: &FalccModel) -> Result<Self, FalccError> {
        let mut pool = Vec::with_capacity(model.pool.models.len());
        for member in &model.pool.models {
            let spec = member.model.to_spec().ok_or_else(|| FalccError::InvalidConfig {
                detail: format!(
                    "model {:?} does not support persistence",
                    member.model.name()
                ),
            })?;
            pool.push((spec, member.group));
        }
        Ok(Self {
            schema: model.schema.clone(),
            pool,
            kmeans: model.kmeans.clone(),
            combos: model.combos.clone(),
            proxy: model.proxy.clone(),
            group_index: model.group_index.clone(),
            loss: model.loss,
            name: model.name.clone(),
            baseline: model.baseline.clone(),
        })
    }

    /// Rehydrates the snapshot into a usable model.
    pub fn restore(self) -> FalccModel {
        let models: Vec<TrainedModel> = self
            .pool
            .into_iter()
            .map(|(spec, group)| TrainedModel { model: spec.into_classifier(), group })
            .collect();
        FalccModel {
            schema: self.schema,
            pool: ModelPool::from_models(models),
            kmeans: self.kmeans,
            combos: self.combos,
            proxy: self.proxy,
            group_index: self.group_index,
            // Thread count is a runtime knob, not part of the fitted
            // model: restored models default to auto.
            threads: 0,
            loss: self.loss,
            name: self.name,
            // Fault schedules are a test-harness concern, never part of a
            // shipped model.
            faults: crate::faults::FaultPlan::default(),
            baseline: self.baseline,
        }
    }

    /// Serialises to a JSON string: the checksummed envelope wrapping the
    /// snapshot payload.
    ///
    /// # Errors
    /// [`FalccError::InvalidConfig`] wrapping the serde failure (cannot
    /// occur for snapshots produced by [`Self::capture`]).
    pub fn to_json(&self) -> Result<String, FalccError> {
        let payload = serde_json::to_string(self).map_err(|e| FalccError::InvalidConfig {
            detail: format!("serialisation failed: {e}"),
        })?;
        seal_envelope(MAGIC, FORMAT_VERSION, &payload).map_err(|e| {
            FalccError::InvalidConfig { detail: format!("envelope serialisation failed: {e}") }
        })
    }

    /// Parses a snapshot from JSON in one pass, then verifies the
    /// envelope magic, format version, and payload checksum before
    /// deserialising the already-parsed payload.
    ///
    /// # Errors
    /// [`FalccError::SnapshotCorrupt`] on any integrity failure;
    /// [`FalccError::SnapshotVersionSkew`] when an intact envelope was
    /// written by a different format version.
    pub fn from_json(json: &str) -> Result<Self, FalccError> {
        let (payload, _) = match open_envelope(MAGIC, FORMAT_VERSION, json) {
            Ok(opened) => opened,
            Err(EnvelopeFault::Corrupt(detail)) => return Err(corrupt(detail)),
            Err(EnvelopeFault::VersionSkew(found)) => {
                falcc_telemetry::counters::SNAPSHOTS_REJECTED.incr();
                return Err(FalccError::SnapshotVersionSkew {
                    found,
                    expected: FORMAT_VERSION,
                });
            }
        };
        Self::from_value(&payload).map_err(|e| corrupt(format!("unreadable payload: {e}")))
    }

    /// Writes the snapshot to a file, atomically and durably: the bytes
    /// land in a sibling temp file, are re-parsed as a round-trip
    /// self-check, then fsynced and renamed over `path` (with a parent
    /// directory fsync) — a crash mid-save can leave a stale temp file but
    /// never a half-written snapshot at the target, and a completed save
    /// survives power loss.
    ///
    /// # Errors
    /// Serialisation, self-check, and I/O failures;
    /// [`FalccError::CrossDeviceRename`] when the temp file cannot be
    /// renamed over `path` because they sit on different filesystems.
    pub fn save_file(&self, path: impl AsRef<Path>) -> Result<(), FalccError> {
        let path = path.as_ref();
        let json = self.to_json()?;
        // Self-check: the exact bytes about to be published must verify
        // and parse. Catches serialisation bugs at save time, where the
        // model is still in memory, instead of at the next load.
        Self::from_json(&json)?;
        falcc_telemetry::counters::SNAPSHOT_SELF_CHECKS.incr();
        atomic_durable_write(path, json.as_bytes())
    }

    /// Reads a snapshot from a file.
    ///
    /// # Errors
    /// I/O failures, plus everything [`Self::from_json`] rejects —
    /// including non-UTF-8 bytes, reported as
    /// [`FalccError::SnapshotCorrupt`].
    pub fn load_file(path: impl AsRef<Path>) -> Result<Self, FalccError> {
        let bytes = std::fs::read(path)
            .map_err(|e| FalccError::Dataset(falcc_dataset::DatasetError::Io(e)))?;
        let json = String::from_utf8(bytes)
            .map_err(|e| corrupt(format!("snapshot is not UTF-8: {e}")))?;
        Self::from_json(&json)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FalccConfig;
    use crate::framework::FairClassifier;
    use falcc_dataset::synthetic::{generate, SyntheticConfig};
    use falcc_dataset::{SplitRatios, ThreeWaySplit};
    use falcc_models::Classifier;
    use std::sync::Arc;

    fn fitted() -> (FalccModel, ThreeWaySplit) {
        let mut dcfg = SyntheticConfig::social(0.3);
        dcfg.n = 800;
        let ds = generate(&dcfg, 11).unwrap();
        let split = ThreeWaySplit::split(&ds, SplitRatios::PAPER, 11).unwrap();
        let mut cfg = FalccConfig::default();
        cfg.scale_for_tests();
        let model = FalccModel::fit(&split.train, &split.validation, &cfg).unwrap();
        (model, split)
    }

    #[test]
    fn json_round_trip_preserves_every_prediction() {
        let (model, split) = fitted();
        let json = SavedFalccModel::capture(&model).unwrap().to_json().unwrap();
        let revived = SavedFalccModel::from_json(&json).unwrap().restore();
        assert_eq!(revived.name(), model.name());
        assert_eq!(revived.n_regions(), model.n_regions());
        assert_eq!(
            revived.predict_dataset(&split.test),
            model.predict_dataset(&split.test)
        );
        // Region assignments survive too (centroids + proxy projection).
        for i in 0..split.test.len().min(50) {
            assert_eq!(
                revived.assign_region(split.test.row(i)),
                model.assign_region(split.test.row(i))
            );
        }
    }

    #[test]
    fn file_round_trip() {
        let (model, split) = fitted();
        let path = std::env::temp_dir().join("falcc_model_test.json");
        SavedFalccModel::capture(&model).unwrap().save_file(&path).unwrap();
        let revived = SavedFalccModel::load_file(&path).unwrap().restore();
        assert_eq!(
            revived.predict_dataset(&split.test),
            model.predict_dataset(&split.test)
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn version_skew_is_a_typed_rejection() {
        let (model, _) = fitted();
        let json = SavedFalccModel::capture(&model).unwrap().to_json().unwrap();
        // Rewrite the envelope version without breaking the payload
        // checksum: skew must be reported as skew, not generic corruption.
        let skewed = json.replace(
            &format!("\"version\":{FORMAT_VERSION}"),
            "\"version\":999",
        );
        assert_ne!(skewed, json, "envelope must carry the version field");
        assert!(matches!(
            SavedFalccModel::from_json(&skewed),
            Err(FalccError::SnapshotVersionSkew { found: 999, expected: FORMAT_VERSION })
        ));
        assert!(matches!(
            SavedFalccModel::from_json("not json"),
            Err(FalccError::SnapshotCorrupt { .. })
        ));
        assert!(matches!(
            SavedFalccModel::from_json("{\"magic\":\"other\",\"version\":2,\"checksum\":\"0\",\"payload\":\"\"}"),
            Err(FalccError::SnapshotCorrupt { .. })
        ));
    }

    #[test]
    fn payload_is_embedded_verbatim_and_v2_snapshots_are_skew() {
        let (model, _) = fitted();
        let saved = SavedFalccModel::capture(&model).unwrap();
        let payload = serde_json::to_string(&saved).unwrap();
        let checksum = format!("{:016x}", crate::io::fnv1a64(payload.as_bytes()));
        assert_eq!(
            saved.to_json().unwrap(),
            format!(
                "{{\"magic\":\"falcc-model\",\"version\":3,\"checksum\":\"{checksum}\",\"payload\":{payload}}}"
            ),
            "the checksum covers exactly the embedded payload bytes"
        );
        // A v2 snapshot of the same model, as v2 wrote it: the payload
        // carried as an escaped string under the same checksum.
        let v2 = format!(
            "{{\"magic\":\"falcc-model\",\"version\":2,\"checksum\":\"{checksum}\",\"payload\":{}}}",
            serde_json::to_string(&payload).unwrap()
        );
        assert!(matches!(
            SavedFalccModel::from_json(&v2),
            Err(FalccError::SnapshotVersionSkew { found: 2, expected: 3 })
        ));
    }

    #[test]
    fn corrupted_payload_bytes_fail_the_checksum() {
        let (model, _) = fitted();
        let json = SavedFalccModel::capture(&model).unwrap().to_json().unwrap();
        // Flip one digit inside the payload. The envelope still parses,
        // so only the checksum stands between the damage and the loader.
        let target = json.rfind("0.").map(|i| i + 2).unwrap_or(json.len() / 2);
        let mut bytes = json.into_bytes();
        bytes[target] = if bytes[target] == b'1' { b'2' } else { b'1' };
        let tampered = String::from_utf8(bytes).unwrap();
        assert!(matches!(
            SavedFalccModel::from_json(&tampered),
            Err(FalccError::SnapshotCorrupt { .. })
        ));
    }

    #[test]
    fn truncated_snapshots_are_rejected() {
        let (model, _) = fitted();
        let json = SavedFalccModel::capture(&model).unwrap().to_json().unwrap();
        for keep in [0, 1, json.len() / 2, json.len() - 1] {
            assert!(
                matches!(
                    SavedFalccModel::from_json(&json[..keep]),
                    Err(FalccError::SnapshotCorrupt { .. })
                ),
                "truncation to {keep} bytes must be caught"
            );
        }
    }

    #[test]
    fn save_is_atomic_and_self_checked() {
        let (model, _) = fitted();
        let path = std::env::temp_dir().join("falcc_model_atomic_test.json");
        let saved = SavedFalccModel::capture(&model).unwrap();
        saved.save_file(&path).unwrap();
        // No temp file left behind after a successful save.
        let mut tmp = path.as_os_str().to_os_string();
        tmp.push(".tmp");
        assert!(!std::path::Path::new(&tmp).exists());
        assert!(SavedFalccModel::load_file(&path).is_ok());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn unsupported_custom_model_fails_loudly() {
        struct Custom;
        impl Classifier for Custom {
            fn predict_proba_row(&self, _row: &[f64]) -> f64 {
                0.5
            }
            fn name(&self) -> &str {
                "custom"
            }
        }
        let (mut model, _) = fitted();
        model.pool.models[0] = falcc_models::TrainedModel {
            model: Arc::new(Custom),
            group: None,
        };
        let err = SavedFalccModel::capture(&model);
        assert!(matches!(err, Err(FalccError::InvalidConfig { .. })));
    }
}
