//! Crash-consistent checkpoint journal for the offline phase.
//!
//! The offline phase is the expensive part of FALCC; at production scale
//! it runs for hours, and a crash should cost *the current stage*, not the
//! whole run. [`CheckpointJournal`] journals phase-granular checkpoints —
//! pool training (with per-member sub-checkpoints) → proxy → projection →
//! k-estimation → clustering → gap-fill → assessment (with per-region
//! sub-checkpoints) — into a checkpoint directory, and
//! `FalccModel::fit` with [`crate::FalccConfig::checkpoint`] set resumes
//! after the last valid checkpoint, producing a model **bit-identical** to
//! an uninterrupted run at any thread count.
//!
//! ## On-disk format
//!
//! * One **record file** per checkpoint, `ck_<seq>_<stage>.json`: the
//!   stage payload wrapped in the same v3 checksummed envelope as model
//!   snapshots (magic `falcc-checkpoint`), written atomically and durably
//!   (tmp + fsync + rename + parent-directory fsync). A record of another
//!   format version is discarded like any damaged record, and its stage
//!   is recomputed.
//! * An append-only **manifest**, `manifest.jsonl`: one JSON entry per
//!   committed record carrying the record file's checksum, the checksum of
//!   the *previous* manifest line (a hash chain), the run-config
//!   fingerprint, and its own line checksum.
//!
//! A record is **committed** only once its manifest entry is durable; the
//! commit order is the pipeline order, identical at every thread count.
//! On resume the manifest is scanned front to back and the journal falls
//! back to the longest prefix whose chain, checksums, sequence numbers,
//! fingerprint, and record files all verify — torn manifest lines,
//! bit-flipped records, truncation, and mixed-generation suffixes are all
//! detected and discarded (counted on `checkpoint.discarded`). A journal
//! whose *entire* manifest belongs to a different run-config fingerprint
//! is rejected with the typed [`FalccError::CheckpointStale`].
//!
//! ## Fault injection
//!
//! The journal honours two [`crate::faults`] extensions: `TransientIo`
//! (an I/O attempt fails once; absorbed by the bounded retry layer with a
//! counted *virtual* backoff — deterministic, no wall clock) and
//! [`CrashPoint`] (the process hard-aborts at an exact commit phase; the
//! chaos harness sweeps every site and asserts resume produces
//! byte-identical snapshots).

use crate::config::FalccConfig;
use crate::error::FalccError;
use crate::faults::{CrashPhase, CrashPoint, FaultPlan, FaultSite};
use crate::io::{
    atomic_durable_write, fnv1a64, open_envelope, seal_envelope, EnvelopeFault,
};
use falcc_dataset::Dataset;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::{Path, PathBuf};

/// Envelope magic for checkpoint record files — distinct from model
/// snapshots so a record can never be mistaken for a model.
const MAGIC: &str = "falcc-checkpoint";

/// Checkpoint format version; shares the v3 envelope of model snapshots.
pub const CHECKPOINT_VERSION: u32 = 3;

/// Manifest file name inside the checkpoint directory.
pub const MANIFEST: &str = "manifest.jsonl";

/// Hash-chain seed for the first manifest entry.
const CHAIN_SEED: &str = "0000000000000000";

/// Where and how the offline phase journals its checkpoints. Carried on
/// [`FalccConfig::checkpoint`]; `None` (the default) disables journaling.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointSpec {
    /// Directory holding the record files and manifest (created if
    /// missing).
    pub dir: PathBuf,
    /// Resume from an existing journal instead of starting fresh. A fresh
    /// (non-resume) open wipes any prior journal in `dir`.
    pub resume: bool,
    /// Retries the bounded retry layer grants each journal I/O operation
    /// before surfacing [`FalccError::RetriesExhausted`].
    pub retry_budget: u32,
}

impl CheckpointSpec {
    /// A fresh-run spec with the default retry budget.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self { dir: dir.into(), resume: false, retry_budget: 3 }
    }

    /// The same spec with resume enabled.
    pub fn resuming(mut self) -> Self {
        self.resume = true;
        self
    }
}

/// A checkpointed pipeline stage. Indexed variants are the sub-checkpoint
/// sites (per pool member, per region); the index is an input-order index,
/// so stage keys — and therefore commit order — are thread-count
/// independent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// One fitted pool candidate (grid slot or split-training slot).
    PoolMember(usize),
    /// The selected, diverse pool (specs + applicability).
    PoolTraining,
    /// Proxy-mitigation outcome (§3.4).
    Proxy,
    /// Digest of the projected validation matrix — a cheap verification
    /// checkpoint (projection is recomputed, then checked).
    Projection,
    /// The estimated cluster count.
    KEstimation,
    /// The fitted k-means model.
    Clustering,
    /// Gap-filled per-region assessment sets.
    GapFill,
    /// One region's assessment outcome.
    Region(usize),
    /// The assembled assessment vector.
    Assessment,
}

impl Stage {
    /// The stable string key naming this stage in record files and
    /// manifest entries.
    pub fn key(self) -> String {
        match self {
            Self::PoolMember(i) => format!("pool_member.{i}"),
            Self::PoolTraining => "pool_training".to_string(),
            Self::Proxy => "proxy".to_string(),
            Self::Projection => "projection".to_string(),
            Self::KEstimation => "k_estimation".to_string(),
            Self::Clustering => "clustering".to_string(),
            Self::GapFill => "gap_fill".to_string(),
            Self::Region(c) => format!("region.{c}"),
            Self::Assessment => "assessment".to_string(),
        }
    }
}

/// Digest of the projected validation matrix, journaled by the
/// [`Stage::Projection`] verification checkpoint.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProjectionDigest {
    /// Projected rows.
    pub rows: u64,
    /// Projected dimensions.
    pub dims: u64,
    /// FNV-1a 64 over the matrix values' bit patterns, hex.
    pub hash: String,
}

impl ProjectionDigest {
    /// Digests a projected matrix (row-major values).
    pub fn of(rows: usize, dims: usize, values: &[f64]) -> Self {
        let mut bytes = Vec::with_capacity(values.len() * 8);
        for v in values {
            bytes.extend_from_slice(&v.to_bits().to_le_bytes());
        }
        Self {
            rows: rows as u64,
            dims: dims as u64,
            hash: format!("{:016x}", fnv1a64(&bytes)),
        }
    }
}

/// One manifest line. `check` hashes the entry serialised with `check`
/// empty; `prev` hashes the previous full line (the chain).
#[derive(Debug, Clone, Serialize, Deserialize)]
struct ManifestEntry {
    seq: u64,
    stage: String,
    file: String,
    record: String,
    prev: String,
    fingerprint: String,
    check: String,
}

impl ManifestEntry {
    fn checksum(&self) -> Result<u64, FalccError> {
        let mut unsealed = self.clone();
        unsealed.check = String::new();
        let json = serde_json::to_string(&unsealed).map_err(|e| {
            FalccError::CheckpointCorrupt { detail: format!("manifest entry unserialisable: {e}") }
        })?;
        Ok(fnv1a64(json.as_bytes()))
    }
}

/// The run-config fingerprint: a hash over every input that determines
/// the fitted model — config knobs (loss, proxy, clustering, gap-fill,
/// pool, seed, …) and digests of the train/validation datasets. Thread
/// count, fault schedules, and the checkpoint spec itself are excluded:
/// they never change the result, so resuming at a different thread count
/// is legal (and must stay bit-identical).
pub fn fingerprint(config: &FalccConfig, train: &Dataset, validation: &Dataset) -> u64 {
    let pool = &config.pool;
    let canonical = format!(
        "loss={:?};proxy={:?};clustering={:?};gap_fill_k={};pool=({:?},{},{},{},{});\
         individual_k={:?};seed={};min_pool_size={};train={};validation={}",
        config.loss,
        config.proxy,
        config.clustering,
        config.gap_fill_k,
        pool.trainer,
        pool.pool_size,
        pool.split_by_group,
        pool.accuracy_margin,
        pool.seed,
        config.individual_assessment_k,
        config.seed,
        config.min_pool_size,
        dataset_digest(train),
        dataset_digest(validation),
    );
    fnv1a64(canonical.as_bytes())
}

/// FNV-1a 64 over a dataset's dimensions, feature bit patterns, labels,
/// and group assignments, hex-encoded.
fn dataset_digest(ds: &Dataset) -> String {
    let mut bytes = Vec::with_capacity(ds.len() * (ds.n_attrs() + 1) * 8);
    bytes.extend_from_slice(&(ds.len() as u64).to_le_bytes());
    bytes.extend_from_slice(&(ds.n_attrs() as u64).to_le_bytes());
    for v in ds.flat() {
        bytes.extend_from_slice(&v.to_bits().to_le_bytes());
    }
    bytes.extend_from_slice(ds.labels());
    for g in ds.groups() {
        bytes.extend_from_slice(&g.0.to_le_bytes());
    }
    format!("{:016x}", fnv1a64(&bytes))
}

/// What a resume scan recovered — exposed for tests and operator logging.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ResumeReport {
    /// Manifest entries accepted (the valid prefix).
    pub resumed: usize,
    /// Manifest lines discarded (torn, corrupt, chain break, stale
    /// suffix).
    pub discarded: usize,
}

/// A live checkpoint journal. See the module docs for the format and the
/// crash-consistency argument.
pub struct CheckpointJournal {
    dir: PathBuf,
    fingerprint: String,
    retry_budget: u32,
    faults: FaultPlan,
    /// Sequence number of the next commit (== accepted entries so far).
    next_seq: u64,
    /// Hash of the last accepted manifest line (chain tail).
    chain_tail: String,
    /// Stage key → record payload, for every accepted or committed record.
    loaded: BTreeMap<String, String>,
    /// Global I/O-attempt counter — the `TransientIo` fault ordinal.
    io_attempts: u64,
    /// Accumulated *virtual* backoff units spent on retries (1, 2, 4, …
    /// per successive retry of one operation). Deterministic: no clock.
    virtual_backoff: u64,
    /// What the resume scan recovered.
    report: ResumeReport,
}

impl CheckpointJournal {
    /// Opens (or creates) the journal described by `spec`.
    ///
    /// A fresh open wipes any prior journal in the directory. A resume
    /// open scans the manifest, keeps the longest valid prefix, rewrites
    /// the manifest down to that prefix, and deletes unreferenced record
    /// files.
    ///
    /// # Errors
    /// I/O failures; [`FalccError::CheckpointStale`] when the journal's
    /// entries all carry a different run-config fingerprint.
    pub fn open(
        spec: &CheckpointSpec,
        fingerprint: u64,
        faults: &FaultPlan,
    ) -> Result<Self, FalccError> {
        let io = |e: std::io::Error| FalccError::Dataset(falcc_dataset::DatasetError::Io(e));
        std::fs::create_dir_all(&spec.dir).map_err(io)?;
        let mut journal = Self {
            dir: spec.dir.clone(),
            fingerprint: format!("{fingerprint:016x}"),
            retry_budget: spec.retry_budget,
            faults: faults.clone(),
            next_seq: 0,
            chain_tail: CHAIN_SEED.to_string(),
            loaded: BTreeMap::new(),
            io_attempts: 0,
            virtual_backoff: 0,
            report: ResumeReport::default(),
        };
        if spec.resume {
            journal.scan_manifest()?;
        } else {
            journal.wipe()?;
        }
        Ok(journal)
    }

    /// The journal directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The manifest path.
    pub fn manifest_path(&self) -> PathBuf {
        self.dir.join(MANIFEST)
    }

    /// Records committed so far (resumed + written this run).
    pub fn records(&self) -> u64 {
        self.next_seq
    }

    /// What the resume scan recovered (zeros for a fresh open).
    pub fn resume_report(&self) -> ResumeReport {
        self.report
    }

    /// Accumulated virtual backoff units spent on retries.
    pub fn virtual_backoff(&self) -> u64 {
        self.virtual_backoff
    }

    /// Deletes every journal artifact in the directory (fresh-run open).
    fn wipe(&self) -> Result<(), FalccError> {
        let io = |e: std::io::Error| FalccError::Dataset(falcc_dataset::DatasetError::Io(e));
        let manifest = self.manifest_path();
        if manifest.exists() {
            std::fs::remove_file(&manifest).map_err(io)?;
        }
        self.remove_records(|_| true)
    }

    /// Deletes `ck_*.json` files whose name satisfies `doomed`.
    fn remove_records(&self, doomed: impl Fn(&str) -> bool) -> Result<(), FalccError> {
        let io = |e: std::io::Error| FalccError::Dataset(falcc_dataset::DatasetError::Io(e));
        for entry in std::fs::read_dir(&self.dir).map_err(io)? {
            let entry = entry.map_err(io)?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if name.starts_with("ck_") && name.ends_with(".json") && doomed(name) {
                std::fs::remove_file(entry.path()).map_err(io)?;
            }
        }
        Ok(())
    }

    /// Resume scan: accepts the longest valid manifest prefix, discards
    /// the rest, and compacts the on-disk state down to that prefix.
    fn scan_manifest(&mut self) -> Result<(), FalccError> {
        let manifest = self.manifest_path();
        if !manifest.exists() {
            // Nothing to resume — behave like a fresh open, but clear any
            // orphaned record files from a run that died before its first
            // manifest append.
            return self.remove_records(|_| true);
        }
        let io = |e: std::io::Error| FalccError::Dataset(falcc_dataset::DatasetError::Io(e));
        let raw = std::fs::read(&manifest).map_err(io)?;
        let text = String::from_utf8_lossy(&raw);
        let lines: Vec<&str> = text.lines().filter(|l| !l.trim().is_empty()).collect();
        let mut accepted: Vec<String> = Vec::new();
        let mut saw_foreign_generation = false;
        for line in &lines {
            match self.accept_line(line) {
                Ok(()) => accepted.push((*line).to_string()),
                Err(LineFault::ForeignGeneration) => {
                    saw_foreign_generation = true;
                    break;
                }
                Err(LineFault::Invalid(_)) => break,
            }
        }
        if accepted.is_empty() && saw_foreign_generation {
            // The whole journal belongs to a different run: splicing would
            // mix generations, so reject loudly instead of silently
            // recomputing over foreign state.
            return Err(FalccError::CheckpointStale {
                found: first_fingerprint(&lines).unwrap_or_else(|| "unreadable".to_string()),
                expected: self.fingerprint.clone(),
            });
        }
        let discarded = lines.len() - accepted.len();
        self.report = ResumeReport { resumed: accepted.len(), discarded };
        falcc_telemetry::counters::CHECKPOINTS_RESUMED.add(accepted.len() as u64);
        falcc_telemetry::counters::CHECKPOINTS_DISCARDED.add(discarded as u64);
        if falcc_telemetry::enabled() {
            falcc_telemetry::event(
                "checkpoint.resume",
                format!(
                    "accepted {} checkpoint(s), discarded {discarded} from {}",
                    accepted.len(),
                    self.dir.display(),
                ),
            );
        }
        if discarded > 0 {
            // Compact: the manifest must end exactly at the valid prefix
            // so subsequent appends extend a verified chain.
            let mut compact = accepted.join("\n");
            if !compact.is_empty() {
                compact.push('\n');
            }
            atomic_durable_write(&manifest, compact.as_bytes())?;
        }
        // Drop record files the accepted prefix does not reference —
        // orphans from after-record crashes and stale generations.
        let referenced: std::collections::BTreeSet<String> = accepted
            .iter()
            .filter_map(|l| serde_json::from_str::<ManifestEntry>(l).ok())
            .map(|e| e.file)
            .collect();
        self.remove_records(|name| !referenced.contains(name))
    }

    /// Validates one manifest line against the running chain state and
    /// loads its record payload on success.
    fn accept_line(&mut self, line: &str) -> Result<(), LineFault> {
        let entry: ManifestEntry = serde_json::from_str(line)
            .map_err(|e| LineFault::Invalid(format!("unreadable manifest line: {e}")))?;
        let declared = u64::from_str_radix(&entry.check, 16)
            .map_err(|_| LineFault::Invalid("unparseable line checksum".into()))?;
        let actual = entry
            .checksum()
            .map_err(|e| LineFault::Invalid(e.to_string()))?;
        if declared != actual {
            return Err(LineFault::Invalid("manifest line checksum mismatch".into()));
        }
        if entry.prev != self.chain_tail {
            return Err(LineFault::Invalid("manifest chain break".into()));
        }
        if entry.seq != self.next_seq {
            return Err(LineFault::Invalid(format!(
                "manifest sequence skew: entry {} at position {}",
                entry.seq, self.next_seq
            )));
        }
        if entry.fingerprint != self.fingerprint {
            return Err(LineFault::ForeignGeneration);
        }
        let path = self.dir.join(&entry.file);
        let bytes = std::fs::read(&path)
            .map_err(|e| LineFault::Invalid(format!("record {} unreadable: {e}", entry.file)))?;
        if format!("{:016x}", fnv1a64(&bytes)) != entry.record {
            return Err(LineFault::Invalid(format!("record {} checksum mismatch", entry.file)));
        }
        let json = String::from_utf8(bytes)
            .map_err(|_| LineFault::Invalid(format!("record {} is not UTF-8", entry.file)))?;
        let payload = match open_envelope(MAGIC, CHECKPOINT_VERSION, &json) {
            Ok((_, text)) => text.to_string(),
            Err(EnvelopeFault::Corrupt(detail)) => {
                return Err(LineFault::Invalid(format!("record {}: {detail}", entry.file)))
            }
            Err(EnvelopeFault::VersionSkew(found)) => {
                return Err(LineFault::Invalid(format!(
                    "record {} written by checkpoint format v{found}",
                    entry.file
                )))
            }
        };
        self.loaded.insert(entry.stage.clone(), payload);
        self.chain_tail = format!("{:016x}", fnv1a64(line.as_bytes()));
        self.next_seq += 1;
        Ok(())
    }

    /// Returns the resumed value for `stage`, if the journal holds one.
    /// Payloads that fail to parse as `T` are treated as missing — the
    /// stage is simply recomputed.
    pub fn fetch<T: Deserialize>(&self, stage: Stage) -> Option<T> {
        let payload = self.loaded.get(&stage.key())?;
        serde_json::from_str(payload).ok()
    }

    /// Whether the journal already holds a record for `stage`.
    pub fn contains(&self, stage: Stage) -> bool {
        self.loaded.contains_key(&stage.key())
    }

    /// Commits a checkpoint: seals the payload in an envelope, publishes
    /// the record file atomically and durably, then appends the chained
    /// manifest entry. A no-op when the stage was already resumed.
    ///
    /// # Errors
    /// Serialisation failures, I/O failures (after the bounded retry
    /// layer), and [`FalccError::RetriesExhausted`].
    pub fn commit<T: Serialize>(&mut self, stage: Stage, value: &T) -> Result<(), FalccError> {
        let key = stage.key();
        if self.loaded.contains_key(&key) {
            return Ok(());
        }
        let seq = self.next_seq;
        self.maybe_crash(seq, CrashPhase::BeforeWrite);
        let payload = serde_json::to_string(value).map_err(|e| {
            FalccError::InvalidConfig { detail: format!("checkpoint serialisation failed: {e}") }
        })?;
        let sealed =
            seal_envelope(MAGIC, CHECKPOINT_VERSION, &payload).map_err(|e| {
                FalccError::InvalidConfig { detail: format!("checkpoint envelope failed: {e}") }
            })?;
        let file = format!("ck_{seq:04}_{key}.json");
        let record_path = self.dir.join(&file);
        self.with_retries("checkpoint record write", |_| {
            atomic_durable_write(&record_path, sealed.as_bytes())
        })?;
        self.maybe_crash(seq, CrashPhase::AfterRecord);

        let mut entry = ManifestEntry {
            seq,
            stage: key.clone(),
            file,
            record: format!("{:016x}", fnv1a64(sealed.as_bytes())),
            prev: self.chain_tail.clone(),
            fingerprint: self.fingerprint.clone(),
            check: String::new(),
        };
        entry.check = format!("{:016x}", entry.checksum()?);
        let line = serde_json::to_string(&entry).map_err(|e| {
            FalccError::InvalidConfig { detail: format!("manifest serialisation failed: {e}") }
        })?;
        self.append_manifest(&line, seq)?;
        self.chain_tail = format!("{:016x}", fnv1a64(line.as_bytes()));
        self.next_seq += 1;
        self.loaded.insert(key, payload);
        falcc_telemetry::counters::CHECKPOINTS_WRITTEN.incr();
        self.maybe_crash(seq, CrashPhase::AfterCommit);
        Ok(())
    }

    /// Appends one manifest line durably, honouring the `MidManifest`
    /// crash point by tearing the line halfway before aborting.
    fn append_manifest(&mut self, line: &str, seq: u64) -> Result<(), FalccError> {
        let manifest = self.manifest_path();
        let torn = self
            .faults
            .crash_point()
            .is_some_and(|p| p == CrashPoint { ordinal: seq, phase: CrashPhase::MidManifest });
        let dir = self.dir.clone();
        self.with_retries("manifest append", |_| {
            let io =
                |e: std::io::Error| FalccError::Dataset(falcc_dataset::DatasetError::Io(e));
            let created = !manifest.exists();
            let mut f = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(&manifest)
                .map_err(io)?;
            if torn {
                // Simulated torn append: half the line reaches the disk,
                // then the process dies mid-write.
                let half = &line.as_bytes()[..line.len() / 2];
                f.write_all(half).map_err(io)?;
                f.sync_all().map_err(io)?;
                std::process::abort();
            }
            f.write_all(line.as_bytes()).map_err(io)?;
            f.write_all(b"\n").map_err(io)?;
            f.sync_all().map_err(io)?;
            if created {
                std::fs::File::open(&dir).and_then(|d| d.sync_all()).map_err(io)?;
            }
            Ok(())
        })
    }

    /// The bounded retry layer: runs `op`, absorbing transient failures
    /// (injected via `TransientIo` or real) up to the retry budget with a
    /// counted virtual backoff — deterministic by construction, since the
    /// backoff is an accumulator, not a sleep.
    fn with_retries(
        &mut self,
        what: &str,
        mut op: impl FnMut(&mut Self) -> Result<(), FalccError>,
    ) -> Result<(), FalccError> {
        let mut attempts = 0u32;
        let mut backoff = 1u64;
        loop {
            let ordinal = self.io_attempts;
            self.io_attempts += 1;
            let result = if self.faults.fires(FaultSite::TransientIo, ordinal) {
                Err(FalccError::Dataset(falcc_dataset::DatasetError::Io(
                    std::io::Error::new(
                        std::io::ErrorKind::Interrupted,
                        "injected transient I/O failure",
                    ),
                )))
            } else {
                op(self)
            };
            match result {
                Ok(()) => return Ok(()),
                Err(e) => {
                    if attempts >= self.retry_budget {
                        return Err(FalccError::RetriesExhausted {
                            op: what.to_string(),
                            attempts,
                        });
                    }
                    attempts += 1;
                    self.virtual_backoff += backoff;
                    backoff = backoff.saturating_mul(2);
                    falcc_telemetry::counters::OFFLINE_RETRIES.incr();
                    if falcc_telemetry::enabled() {
                        falcc_telemetry::event(
                            "offline.retry",
                            format!(
                                "{what}: retry {attempts} after {e} \
                                 (virtual backoff {})",
                                self.virtual_backoff
                            ),
                        );
                    }
                }
            }
        }
    }

    /// Hard-aborts the process when the armed crash point matches —
    /// simulating `kill -9` at an exact journal state.
    fn maybe_crash(&self, ordinal: u64, phase: CrashPhase) {
        if self.faults.crash_point() == Some(CrashPoint { ordinal, phase }) {
            std::process::abort();
        }
    }
}

/// Why a manifest line was not accepted during the resume scan.
enum LineFault {
    /// Damaged or inconsistent — the valid prefix ends here.
    Invalid(#[allow(dead_code)] String),
    /// Intact but written by a different run-config fingerprint.
    ForeignGeneration,
}

/// The fingerprint of the first parseable manifest line, for the
/// stale-generation error message.
fn first_fingerprint(lines: &[&str]) -> Option<String> {
    lines
        .iter()
        .find_map(|l| serde_json::from_str::<ManifestEntry>(l).ok())
        .map(|e| e.fingerprint)
}

#[cfg(test)]
mod tests {
    use super::*;
    use falcc_dataset::synthetic::{generate, SyntheticConfig};

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("falcc_ckpt_{tag}_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    fn spec(dir: &Path) -> CheckpointSpec {
        CheckpointSpec::new(dir)
    }

    #[derive(Debug, PartialEq, Serialize, Deserialize)]
    struct Payload {
        items: Vec<u64>,
        note: String,
    }

    fn sample(n: u64) -> Payload {
        Payload { items: (0..n).collect(), note: format!("payload-{n}") }
    }

    #[test]
    fn commit_then_resume_round_trips_every_stage() {
        let dir = tmp_dir("roundtrip");
        let plan = FaultPlan::default();
        let mut j = CheckpointJournal::open(&spec(&dir), 7, &plan).unwrap();
        j.commit(Stage::Proxy, &sample(3)).unwrap();
        j.commit(Stage::KEstimation, &sample(1)).unwrap();
        j.commit(Stage::Region(2), &sample(5)).unwrap();
        assert_eq!(j.records(), 3);

        let r = CheckpointJournal::open(&spec(&dir).resuming(), 7, &plan).unwrap();
        assert_eq!(r.resume_report(), ResumeReport { resumed: 3, discarded: 0 });
        assert_eq!(r.fetch::<Payload>(Stage::Proxy), Some(sample(3)));
        assert_eq!(r.fetch::<Payload>(Stage::KEstimation), Some(sample(1)));
        assert_eq!(r.fetch::<Payload>(Stage::Region(2)), Some(sample(5)));
        assert!(r.fetch::<Payload>(Stage::Clustering).is_none());
        assert!(r.contains(Stage::Proxy));
        assert!(!r.contains(Stage::GapFill));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fresh_open_wipes_previous_journal() {
        let dir = tmp_dir("wipe");
        let plan = FaultPlan::default();
        let mut j = CheckpointJournal::open(&spec(&dir), 7, &plan).unwrap();
        j.commit(Stage::Proxy, &sample(2)).unwrap();
        let j = CheckpointJournal::open(&spec(&dir), 7, &plan).unwrap();
        assert_eq!(j.records(), 0);
        assert!(!j.contains(Stage::Proxy));
        assert!(!j.manifest_path().exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn commit_is_idempotent_for_resumed_stages() {
        let dir = tmp_dir("idem");
        let plan = FaultPlan::default();
        let mut j = CheckpointJournal::open(&spec(&dir), 7, &plan).unwrap();
        j.commit(Stage::Proxy, &sample(2)).unwrap();
        let mut r = CheckpointJournal::open(&spec(&dir).resuming(), 7, &plan).unwrap();
        r.commit(Stage::Proxy, &sample(99)).unwrap(); // ignored: already held
        assert_eq!(r.records(), 1);
        assert_eq!(r.fetch::<Payload>(Stage::Proxy), Some(sample(2)));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_manifest_line_falls_back_to_valid_prefix() {
        let dir = tmp_dir("torn");
        let plan = FaultPlan::default();
        let mut j = CheckpointJournal::open(&spec(&dir), 7, &plan).unwrap();
        j.commit(Stage::Proxy, &sample(2)).unwrap();
        j.commit(Stage::KEstimation, &sample(3)).unwrap();
        // Tear the last line in half — the classic mid-append crash.
        let manifest = j.manifest_path();
        let text = std::fs::read_to_string(&manifest).unwrap();
        let keep = text.len() - text.lines().last().unwrap().len() / 2 - 1;
        std::fs::write(&manifest, &text.as_bytes()[..keep]).unwrap();

        let r = CheckpointJournal::open(&spec(&dir).resuming(), 7, &plan).unwrap();
        assert_eq!(r.resume_report(), ResumeReport { resumed: 1, discarded: 1 });
        assert!(r.contains(Stage::Proxy));
        assert!(!r.contains(Stage::KEstimation));
        // The manifest was compacted to the valid prefix: appending works.
        let mut r = r;
        r.commit(Stage::Clustering, &sample(4)).unwrap();
        let r2 = CheckpointJournal::open(&spec(&dir).resuming(), 7, &plan).unwrap();
        assert_eq!(r2.resume_report(), ResumeReport { resumed: 2, discarded: 0 });
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn chain_break_discards_the_suffix() {
        let dir = tmp_dir("chain");
        let plan = FaultPlan::default();
        let mut j = CheckpointJournal::open(&spec(&dir), 7, &plan).unwrap();
        for (i, stage) in
            [Stage::Proxy, Stage::KEstimation, Stage::Clustering].into_iter().enumerate()
        {
            j.commit(stage, &sample(i as u64)).unwrap();
        }
        // Remove the middle line: entry 2's `prev` no longer matches.
        let manifest = j.manifest_path();
        let text = std::fs::read_to_string(&manifest).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        std::fs::write(&manifest, format!("{}\n{}\n", lines[0], lines[2])).unwrap();

        let r = CheckpointJournal::open(&spec(&dir).resuming(), 7, &plan).unwrap();
        assert_eq!(r.resume_report(), ResumeReport { resumed: 1, discarded: 1 });
        assert!(r.contains(Stage::Proxy));
        assert!(!r.contains(Stage::Clustering));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_record_file_ends_the_prefix() {
        let dir = tmp_dir("record");
        let plan = FaultPlan::default();
        let mut j = CheckpointJournal::open(&spec(&dir), 7, &plan).unwrap();
        j.commit(Stage::Proxy, &sample(2)).unwrap();
        j.commit(Stage::KEstimation, &sample(3)).unwrap();
        // Flip one byte of the second record file.
        let file = dir.join("ck_0001_k_estimation.json");
        let mut bytes = std::fs::read(&file).unwrap();
        let mid = bytes.len() / 2;
        assert!(crate::faults::flip_byte(&mut bytes, mid));
        std::fs::write(&file, &bytes).unwrap();

        let r = CheckpointJournal::open(&spec(&dir).resuming(), 7, &plan).unwrap();
        assert_eq!(r.resume_report(), ResumeReport { resumed: 1, discarded: 1 });
        assert!(r.contains(Stage::Proxy));
        assert!(!r.contains(Stage::KEstimation));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stale_generation_is_rejected_whole_and_spliced_suffixes_discarded() {
        let dir = tmp_dir("stale");
        let plan = FaultPlan::default();
        let mut j = CheckpointJournal::open(&spec(&dir), 7, &plan).unwrap();
        j.commit(Stage::Proxy, &sample(2)).unwrap();
        // Resuming with a different fingerprint: typed rejection.
        match CheckpointJournal::open(&spec(&dir).resuming(), 8, &plan) {
            Err(FalccError::CheckpointStale { found, expected }) => {
                assert_eq!(found, format!("{:016x}", 7u64));
                assert_eq!(expected, format!("{:016x}", 8u64));
            }
            other => panic!("expected CheckpointStale, got {:?}", other.map(|j| j.records())),
        }
        // A same-generation prefix with a stale suffix falls back to the
        // prefix instead.
        let mut j8 = CheckpointJournal::open(&spec(&dir), 8, &plan).unwrap();
        j8.commit(Stage::Proxy, &sample(1)).unwrap();
        // Splice a foreign-generation line on top (chain-valid but wrong
        // fingerprint) by hand-appending a fingerprint-7 journal's line.
        let other_dir = tmp_dir("stale_other");
        let mut j7 = CheckpointJournal::open(&spec(&other_dir), 7, &plan).unwrap();
        j7.commit(Stage::Proxy, &sample(1)).unwrap();
        j7.commit(Stage::KEstimation, &sample(2)).unwrap();
        let foreign = std::fs::read_to_string(j7.manifest_path()).unwrap();
        let foreign_line = foreign.lines().nth(1).unwrap();
        let manifest = j8.manifest_path();
        let mut text = std::fs::read_to_string(&manifest).unwrap();
        text.push_str(foreign_line);
        text.push('\n');
        std::fs::write(&manifest, text).unwrap();
        let r = CheckpointJournal::open(&spec(&dir).resuming(), 8, &plan).unwrap();
        assert_eq!(r.resume_report(), ResumeReport { resumed: 1, discarded: 1 });
        std::fs::remove_dir_all(&dir).ok();
        std::fs::remove_dir_all(&other_dir).ok();
    }

    #[test]
    fn transient_io_is_retried_with_counted_backoff() {
        let dir = tmp_dir("retry");
        let mut plan = FaultPlan::default();
        plan.fail_io_attempt(0).fail_io_attempt(1);
        let mut j = CheckpointJournal::open(&spec(&dir), 7, &plan).unwrap();
        j.commit(Stage::Proxy, &sample(2)).unwrap();
        // Two injected failures → two retries, virtual backoff 1 + 2.
        assert_eq!(j.virtual_backoff(), 3);
        assert_eq!(j.records(), 1);
        // The journal is intact despite the turbulence.
        let r = CheckpointJournal::open(&spec(&dir).resuming(), 7, &FaultPlan::default())
            .unwrap();
        assert_eq!(r.fetch::<Payload>(Stage::Proxy), Some(sample(2)));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn exhausted_retries_surface_the_typed_error() {
        let dir = tmp_dir("exhaust");
        let mut plan = FaultPlan::default();
        for ordinal in 0..8 {
            plan.fail_io_attempt(ordinal);
        }
        let mut cfg = spec(&dir);
        cfg.retry_budget = 2;
        let mut j = CheckpointJournal::open(&cfg, 7, &plan).unwrap();
        match j.commit(Stage::Proxy, &sample(2)) {
            Err(FalccError::RetriesExhausted { op, attempts }) => {
                assert_eq!(op, "checkpoint record write");
                assert_eq!(attempts, 2);
            }
            other => panic!("expected RetriesExhausted, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn older_format_records_are_recomputed_on_resume() {
        use crate::offline::FalccModel;
        use crate::persist::SavedFalccModel;
        use falcc_dataset::{SplitRatios, ThreeWaySplit};

        let mut dcfg = SyntheticConfig::social(0.3);
        dcfg.n = 700;
        let split =
            ThreeWaySplit::split(&generate(&dcfg, 13).unwrap(), SplitRatios::PAPER, 13).unwrap();
        let mut cfg = FalccConfig::default();
        cfg.scale_for_tests();
        cfg.seed = 13;
        let fit = |cfg: &FalccConfig| {
            let model = FalccModel::fit(&split.train, &split.validation, cfg).unwrap();
            SavedFalccModel::capture(&model).unwrap().to_json().unwrap()
        };
        let reference = fit(&cfg);
        let dir = tmp_dir("older_format");
        cfg.checkpoint = Some(spec(&dir));
        assert_eq!(fit(&cfg), reference);

        // Rewrite the second half of the records as v2 envelopes (payload
        // as an escaped string) and reseal their manifest lines and the
        // chain, so only the record version tells them apart.
        let manifest = dir.join(MANIFEST);
        let text = std::fs::read_to_string(&manifest).unwrap();
        let mut entries: Vec<ManifestEntry> =
            text.lines().map(|l| serde_json::from_str(l).unwrap()).collect();
        let keep = entries.len() / 2;
        let mut prev = CHAIN_SEED.to_string();
        let mut lines = Vec::new();
        for (i, entry) in entries.iter_mut().enumerate() {
            if i >= keep {
                let path = dir.join(&entry.file);
                let v3 = std::fs::read_to_string(&path).unwrap();
                let (_, payload) = open_envelope(MAGIC, CHECKPOINT_VERSION, &v3).unwrap();
                let v2 = format!(
                    "{{\"magic\":\"{MAGIC}\",\"version\":2,\"checksum\":\"{:016x}\",\"payload\":{}}}",
                    fnv1a64(payload.as_bytes()),
                    serde_json::to_string(payload).unwrap()
                );
                assert!(matches!(
                    open_envelope(MAGIC, CHECKPOINT_VERSION, &v2),
                    Err(EnvelopeFault::VersionSkew(2))
                ));
                std::fs::write(&path, &v2).unwrap();
                entry.record = format!("{:016x}", fnv1a64(v2.as_bytes()));
            }
            entry.prev = prev;
            entry.check = format!("{:016x}", entry.checksum().unwrap());
            let line = serde_json::to_string(&*entry).unwrap();
            prev = format!("{:016x}", fnv1a64(line.as_bytes()));
            lines.push(line);
        }
        std::fs::write(&manifest, lines.join("\n") + "\n").unwrap();

        let fp = fingerprint(&cfg, &split.train, &split.validation);
        let report = CheckpointJournal::open(&spec(&dir).resuming(), fp, &FaultPlan::default())
            .unwrap()
            .resume_report();
        assert_eq!(report, ResumeReport { resumed: keep, discarded: entries.len() - keep });
        cfg.checkpoint = Some(spec(&dir).resuming());
        assert_eq!(fit(&cfg), reference, "recomputed stages changed the fitted model");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fingerprint_tracks_config_and_data_but_not_threads() {
        let mut dcfg = SyntheticConfig::social(0.3);
        dcfg.n = 120;
        let a = generate(&dcfg, 1).unwrap();
        let b = generate(&dcfg, 2).unwrap();
        let mut cfg = FalccConfig::default();
        cfg.scale_for_tests();
        let base = fingerprint(&cfg, &a, &b);
        assert_eq!(base, fingerprint(&cfg, &a, &b), "fingerprint is a pure function");

        let mut threaded = cfg.clone();
        threaded.threads = 8;
        assert_eq!(base, fingerprint(&threaded, &a, &b), "threads are excluded");

        let mut seeded = cfg.clone();
        seeded.seed = 99;
        assert_ne!(base, fingerprint(&seeded, &a, &b));
        let mut knobs = cfg.clone();
        knobs.gap_fill_k += 1;
        assert_ne!(base, fingerprint(&knobs, &a, &b));
        assert_ne!(base, fingerprint(&cfg, &b, &a), "data order matters");
    }

    #[test]
    fn projection_digest_is_value_sensitive() {
        let d1 = ProjectionDigest::of(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        let d2 = ProjectionDigest::of(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(d1, d2);
        let d3 = ProjectionDigest::of(2, 2, &[1.0, 2.0, 3.0, 4.0000001]);
        assert_ne!(d1, d3);
    }
}
