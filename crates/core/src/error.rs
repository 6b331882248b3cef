//! Error type for the FALCC pipeline.

use falcc_dataset::DatasetError;
use std::fmt;

/// Errors raised while fitting or applying a FALCC model.
#[derive(Debug)]
pub enum FalccError {
    /// Underlying dataset manipulation failed.
    Dataset(DatasetError),
    /// The model pool contains no model applicable to some group, so no
    /// combination can be formed.
    NoApplicableModel {
        /// The uncovered group index.
        group: usize,
    },
    /// The validation set lacks any sample of a sensitive group entirely,
    /// so even gap-filling cannot assess that group.
    GroupAbsent {
        /// The absent group index.
        group: usize,
    },
    /// Configuration is internally inconsistent.
    InvalidConfig {
        /// Human-readable description.
        detail: String,
    },
    /// So many pool members were quarantined (training failures, non-finite
    /// predictions) that the surviving pool fell below the configured
    /// floor. Graceful degradation stops here: a pool this thin cannot
    /// honour the diversity assumption of §3.3.
    PoolDepleted {
        /// Members still usable after quarantine.
        survivors: usize,
        /// Members removed by quarantine.
        quarantined: usize,
        /// The configured [`crate::FalccConfig::min_pool_size`] floor.
        min_pool_size: usize,
    },
    /// A model snapshot failed an integrity check: bad envelope, checksum
    /// mismatch, truncation, or an unparseable payload.
    SnapshotCorrupt {
        /// What exactly failed to verify.
        detail: String,
    },
    /// A model snapshot has a valid envelope but was written by a
    /// different format version.
    SnapshotVersionSkew {
        /// Version recorded in the snapshot.
        found: u32,
        /// Version this build reads and writes.
        expected: u32,
    },
    /// An atomic save could not publish its temp file because the rename
    /// would cross filesystems (the temp file and target must share one).
    CrossDeviceRename {
        /// Target path of the failed publish.
        path: String,
    },
    /// A checkpoint journal failed an integrity check: torn record, bad
    /// manifest chain, unreadable envelope, or checksum mismatch. Resume
    /// falls back to the last valid prefix; this error surfaces only when
    /// the journal cannot be used at all.
    CheckpointCorrupt {
        /// What exactly failed to verify.
        detail: String,
    },
    /// A checkpoint journal was written by a run with a different config
    /// fingerprint (different config, seed, or input data) — resuming
    /// from it would splice incompatible generations together.
    CheckpointStale {
        /// Fingerprint recorded in the journal (hex).
        found: String,
        /// Fingerprint of the current run (hex).
        expected: String,
    },
    /// A journaled fit finished with its fault plan's crash point still
    /// armed. Had the point fired, the process would have aborted, so its
    /// ordinal lies outside the commits this run made: past the last one,
    /// or among those a resume skipped.
    CrashPointUnreached {
        /// The crash point that never fired.
        point: crate::faults::CrashPoint,
        /// Commits the run resumed from the journal (ordinals below this).
        resumed: u64,
        /// Commits in the journal when the fit finished.
        commits: u64,
    },
    /// The bounded retry layer exhausted its budget on transient I/O
    /// failures while journaling a checkpoint.
    RetriesExhausted {
        /// The operation that kept failing.
        op: String,
        /// Retries attempted before giving up.
        attempts: u32,
    },
    /// A binary serving artifact failed an integrity or structural check:
    /// bad magic, checksum mismatch, truncation, misaligned or
    /// overlapping sections, or slabs that fail the serving plane's
    /// structural validation.
    ArtifactCorrupt {
        /// What exactly failed to verify.
        detail: String,
    },
    /// A binary serving artifact has an intact header but was written by
    /// a different format version.
    ArtifactVersionSkew {
        /// Version recorded in the artifact.
        found: u32,
        /// Version this build reads and writes.
        expected: u32,
    },
    /// A binary serving artifact was compiled from a different source
    /// snapshot than the one on disk — loading it would serve a stale
    /// model. Callers fall back to the JSON restore+compile path.
    ArtifactStale {
        /// Source fingerprint recorded in the artifact.
        found: u64,
        /// Fingerprint of the current source snapshot.
        expected: u64,
    },
}

impl fmt::Display for FalccError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Dataset(e) => write!(f, "dataset error: {e}"),
            Self::NoApplicableModel { group } => {
                write!(f, "no model in the pool is applicable to group {group}")
            }
            Self::GroupAbsent { group } => {
                write!(f, "validation data contains no sample of group {group}")
            }
            Self::InvalidConfig { detail } => write!(f, "invalid configuration: {detail}"),
            Self::PoolDepleted { survivors, quarantined, min_pool_size } => write!(
                f,
                "model pool depleted: {survivors} members survive after quarantining \
                 {quarantined} (minimum {min_pool_size})"
            ),
            Self::SnapshotCorrupt { detail } => {
                write!(f, "snapshot corrupt: {detail}")
            }
            Self::SnapshotVersionSkew { found, expected } => write!(
                f,
                "snapshot format v{found} unsupported (this build reads v{expected})"
            ),
            Self::CrossDeviceRename { path } => write!(
                f,
                "cannot publish {path:?} atomically: temp file and target are on \
                 different filesystems"
            ),
            Self::CheckpointCorrupt { detail } => {
                write!(f, "checkpoint journal corrupt: {detail}")
            }
            Self::CheckpointStale { found, expected } => write!(
                f,
                "checkpoint journal belongs to a different run: fingerprint {found} \
                 recorded, this run is {expected}"
            ),
            Self::CrashPointUnreached { point, resumed, commits } => {
                write!(
                    f,
                    "crash point {}:{} never fired: this run made {} checkpoint commits",
                    point.ordinal,
                    point.phase.name(),
                    commits.saturating_sub(*resumed)
                )?;
                if commits > resumed {
                    write!(f, ", ordinals {resumed} to {}", commits - 1)?;
                }
                if *resumed > 0 {
                    write!(f, " after resuming {resumed}")?;
                }
                Ok(())
            }
            Self::RetriesExhausted { op, attempts } => write!(
                f,
                "transient I/O failure persisted through {attempts} retries during {op}"
            ),
            Self::ArtifactCorrupt { detail } => {
                write!(f, "artifact corrupt: {detail}")
            }
            Self::ArtifactVersionSkew { found, expected } => write!(
                f,
                "artifact format v{found} unsupported (this build reads v{expected})"
            ),
            Self::ArtifactStale { found, expected } => write!(
                f,
                "artifact compiled from a different snapshot: fingerprint \
                 {found:016x} recorded, current snapshot is {expected:016x}"
            ),
        }
    }
}

/// Why one row of an online batch was rejected instead of classified.
///
/// [`crate::FalccModel::classify_batch`] returns one `Result` per row so a
/// single poisoned sample degrades to one typed error instead of poisoning
/// (or panicking) the whole batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RowFault {
    /// The row has the wrong number of attributes for the fitted schema.
    WrongWidth {
        /// Attribute count the schema declares.
        expected: usize,
        /// Attribute count the row carries.
        found: usize,
    },
    /// The row carries a NaN or infinite feature value.
    NonFinite {
        /// First offending column.
        column: usize,
    },
    /// The row's sensitive values fall outside the declared domains, so it
    /// belongs to no known group.
    GroupOutOfDomain,
}

impl fmt::Display for RowFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::WrongWidth { expected, found } => {
                write!(f, "row has {found} attributes, schema expects {expected}")
            }
            Self::NonFinite { column } => {
                write!(f, "non-finite feature value in column {column}")
            }
            Self::GroupOutOfDomain => {
                write!(f, "sensitive attribute values outside the declared domains")
            }
        }
    }
}

impl std::error::Error for RowFault {}

impl std::error::Error for FalccError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Dataset(e) => Some(e),
            _ => None,
        }
    }
}

impl From<DatasetError> for FalccError {
    fn from(e: DatasetError) -> Self {
        Self::Dataset(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats() {
        assert!(FalccError::NoApplicableModel { group: 2 }.to_string().contains("group 2"));
        assert!(FalccError::GroupAbsent { group: 1 }.to_string().contains("group 1"));
        let e: FalccError = DatasetError::Empty.into();
        assert!(e.to_string().contains("empty"));
    }

    #[test]
    fn robustness_variants_format() {
        let msg = FalccError::PoolDepleted { survivors: 1, quarantined: 4, min_pool_size: 2 }
            .to_string();
        assert!(msg.contains('1') && msg.contains('4') && msg.contains('2'), "{msg}");
        assert!(FalccError::SnapshotCorrupt { detail: "checksum".into() }
            .to_string()
            .contains("checksum"));
        let msg = FalccError::SnapshotVersionSkew { found: 9, expected: 2 }.to_string();
        assert!(msg.contains("v9") && msg.contains("v2"), "{msg}");
    }

    #[test]
    fn checkpoint_variants_format() {
        let msg = FalccError::CrossDeviceRename { path: "out/m.json".into() }.to_string();
        assert!(msg.contains("out/m.json") && msg.contains("filesystems"), "{msg}");
        assert!(FalccError::CheckpointCorrupt { detail: "torn manifest".into() }
            .to_string()
            .contains("torn manifest"));
        let msg = FalccError::CheckpointStale {
            found: "00aa".into(),
            expected: "00bb".into(),
        }
        .to_string();
        assert!(msg.contains("00aa") && msg.contains("00bb"), "{msg}");
        let msg = FalccError::RetriesExhausted { op: "manifest append".into(), attempts: 3 }
            .to_string();
        assert!(msg.contains("manifest append") && msg.contains('3'), "{msg}");
        let point = crate::faults::CrashPoint {
            ordinal: 5,
            phase: crate::faults::CrashPhase::AfterCommit,
        };
        assert_eq!(
            FalccError::CrashPointUnreached { point, resumed: 0, commits: 19 }.to_string(),
            "crash point 5:after-commit never fired: this run made 19 checkpoint commits, \
             ordinals 0 to 18"
        );
        assert_eq!(
            FalccError::CrashPointUnreached { point, resumed: 12, commits: 19 }.to_string(),
            "crash point 5:after-commit never fired: this run made 7 checkpoint commits, \
             ordinals 12 to 18 after resuming 12"
        );
        assert_eq!(
            FalccError::CrashPointUnreached { point, resumed: 19, commits: 19 }.to_string(),
            "crash point 5:after-commit never fired: this run made 0 checkpoint commits \
             after resuming 19"
        );
    }

    #[test]
    fn artifact_variants_format() {
        assert!(FalccError::ArtifactCorrupt { detail: "section 3 checksum".into() }
            .to_string()
            .contains("section 3 checksum"));
        let msg = FalccError::ArtifactVersionSkew { found: 9, expected: 3 }.to_string();
        assert!(msg.contains("v9") && msg.contains("v3"), "{msg}");
        let msg = FalccError::ArtifactStale { found: 0xaa, expected: 0xbb }.to_string();
        assert!(msg.contains("00000000000000aa") && msg.contains("00000000000000bb"), "{msg}");
    }

    #[test]
    fn row_fault_formats() {
        assert!(RowFault::WrongWidth { expected: 3, found: 2 }.to_string().contains("3"));
        assert!(RowFault::NonFinite { column: 5 }.to_string().contains("column 5"));
        assert!(!RowFault::GroupOutOfDomain.to_string().is_empty());
    }
}
