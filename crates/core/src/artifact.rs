//! Binary serving artifacts (v5): the compiled plane, persisted.
//!
//! [`crate::persist`] ships fitted models as JSON — robust and
//! diff-friendly, but every serving start pays for parsing the text
//! envelope, rebuilding the pool, and re-lowering it into the flat
//! serving plane. This module persists the *result* of that work: a
//! [`crate::CompiledModel`] written as a sectioned little-endian binary
//! container, so a cold start is one file read, checksum validation, and
//! validated bulk copies into the flat slabs — no per-field parsing, no
//! tree lowering.
//!
//! ## Container layout
//!
//! ```text
//! offset  size  field
//! 0       8     magic  "falccbv3" (unchanged since v3, so an older
//!               file reads as version skew, not as damage)
//! 8       4     format version (little-endian u32, currently 5)
//! 12      4     section count (always 11)
//! 16      8     source fingerprint: FNV-1a-64 of the JSON snapshot's
//!               on-disk bytes this artifact was compiled from
//! 24      8     table checksum: FNV-1a-64 of the section table
//! 32      11×32 section table; per entry:
//!               {id u32, kind u32, offset u64, len u64, checksum u64}
//! ...           section bodies, each at an 8-aligned offset, padded
//!               with zeros between sections; the last body ends the file
//! ```
//!
//! Every byte is covered by exactly one check, so each body is hashed
//! once: the header fields are each checked by value, the table by the
//! table checksum, each body by its own section checksum, and the padding
//! by the rule that it is zero.
//!
//! Sections, in fixed id order: the JSON metadata blob (schema, group
//! index, proxy projection, name, shape including the region count `k`,
//! opaque member specs), the four node-arena slabs, member
//! footprints/records/payloads, the centroid data, and the dispatch
//! table. Numeric sections are raw little-endian `f64`/`u32` runs whose
//! length must divide 8 / 4.
//!
//! ## Validation
//!
//! [`CompiledModelBuf::from_bytes`] verifies the magic, version, section
//! count, table checksum, and for every table entry: fixed id order,
//! expected kind, 8-byte alignment, in-bounds non-overlapping extent,
//! zero padding before the body, and the per-section checksum; then that
//! the last body ends the file. [`CompiledModelBuf::load`] then re-validates
//! every structural invariant the serving plane relies on (node links,
//! attribute bounds, payload shapes, dispatch reach) through
//! [`falcc_models::FlatPool::from_parts`] /
//! [`falcc_clustering::CentroidMatrix::from_raw`]. Any damage — bit
//! flips, truncation, misalignment — surfaces as a typed
//! [`FalccError::ArtifactCorrupt`] / [`FalccError::ArtifactVersionSkew`],
//! never as UB or a panic; decoding uses no `unsafe`.
//!
//! ## Staleness
//!
//! The header records the FNV-1a-64 fingerprint of the JSON snapshot the
//! artifact was compiled from. [`CompiledModelBuf::load_if_fresh`]
//! rejects a mismatch as [`FalccError::ArtifactStale`], and serving
//! callers fall back to the JSON restore+compile path (counted in
//! `serve.artifact_fallbacks`).
//!
//! ## Sharing
//!
//! [`CompiledModelBuf`] owns the raw bytes; [`CompiledModelBuf::load`]
//! borrows them and can be called repeatedly — N replicas or test
//! harnesses share one read-only buffer and materialise independent
//! [`crate::CompiledModel`]s from it.
//!
//! **Equivalence contract**: a loaded artifact classifies bit-identically
//! to the JSON→restore→compile path — same `Result<u8, RowFault>`
//! sequences at every thread count. The `compiled_equivalence` suite and
//! the `exp_artifacts --smoke` CI gate pin this.

use crate::compile::{CompiledModel, ServeMeta};
use crate::error::FalccError;
use crate::faults::FaultPlan;
use crate::io::{atomic_durable_write, fnv1a64};
use crate::proxy::ProxyOutcome;
use falcc_clustering::CentroidMatrix;
use falcc_dataset::{GroupIndex, Schema};
use falcc_models::{Classifier, FlatPool, FlatPoolParts, ModelSpec};
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Current artifact format version.
pub const ARTIFACT_VERSION: u32 = 5;

/// File extension serving callers probe for next to a JSON snapshot.
pub const ARTIFACT_EXTENSION: &str = "falccb";

const MAGIC: [u8; 8] = *b"falccbv3";
const HEADER_LEN: usize = 32;
const ENTRY_LEN: usize = 32;
const N_SECTIONS: usize = 11;

/// Section kinds: raw little-endian `f64` slab, `u32` slab, or opaque
/// bytes (the JSON metadata blob).
const K_F64: u32 = 0;
const K_U32: u32 = 1;
const K_BYTES: u32 = 2;

/// Section ids, in the fixed order they appear in the table and file.
const S_META: usize = 0;
const S_NODE_THR: usize = 1;
const S_NODE_FEAT: usize = 2;
const S_NODE_LEFT: usize = 3;
const S_NODE_PROBA: usize = 4;
const S_FOOTPRINTS: usize = 5;
const S_MEMBER_RECS: usize = 6;
const S_MEMBER_U32: usize = 7;
const S_MEMBER_F64: usize = 8;
const S_CENTROID_DATA: usize = 9;
const S_DISPATCH: usize = 10;

/// Expected kind of each section id.
fn kind_of(id: usize) -> u32 {
    match id {
        S_META => K_BYTES,
        S_NODE_FEAT | S_NODE_LEFT | S_FOOTPRINTS | S_MEMBER_RECS | S_MEMBER_U32
        | S_DISPATCH => K_U32,
        _ => K_F64,
    }
}

/// Typed rejection + telemetry on one line.
fn corrupt(detail: impl Into<String>) -> FalccError {
    falcc_telemetry::counters::ARTIFACTS_REJECTED.incr();
    FalccError::ArtifactCorrupt { detail: detail.into() }
}

/// Everything that has no flat numeric form: validation metadata and the
/// serialised specs of opaque pool members. Small, so it travels as one
/// JSON blob inside the binary container.
#[derive(Serialize, Deserialize)]
struct ArtifactMeta {
    schema: Schema,
    group_index: GroupIndex,
    proxy: ProxyOutcome,
    name: String,
    n_groups: u32,
    /// Number of regions (centroids).
    k: u32,
    n_cols: u32,
    opaque_specs: Vec<ModelSpec>,
}

fn u32le(bytes: &[u8], at: usize) -> u32 {
    u32::from_le_bytes([bytes[at], bytes[at + 1], bytes[at + 2], bytes[at + 3]])
}

fn u64le(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes([
        bytes[at],
        bytes[at + 1],
        bytes[at + 2],
        bytes[at + 3],
        bytes[at + 4],
        bytes[at + 5],
        bytes[at + 6],
        bytes[at + 7],
    ])
}

fn encode_f64(vals: &[f64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(vals.len() * 8);
    for v in vals {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

fn encode_u32(vals: &[u32]) -> Vec<u8> {
    let mut out = Vec::with_capacity(vals.len() * 4);
    for v in vals {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

/// Bulk copy of a validated section body (length already known to divide
/// 8) into an `f64` slab — `to_le_bytes` round-trips every bit pattern,
/// so the slab is bit-identical to the one the writer held.
fn decode_f64(bytes: &[u8]) -> Vec<f64> {
    bytes
        .chunks_exact(8)
        .map(|c| f64::from_le_bytes([c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7]]))
        .collect()
}

fn decode_u32(bytes: &[u8]) -> Vec<u32> {
    bytes.chunks_exact(4).map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]])).collect()
}

/// The sibling path serving callers probe for a binary artifact next to
/// a JSON snapshot: the snapshot path with its extension replaced by
/// `.falccb`.
pub fn sibling_artifact_path(model_path: &Path) -> PathBuf {
    model_path.with_extension(ARTIFACT_EXTENSION)
}

/// A validated artifact buffer: owns the raw bytes of one `.falccb` file
/// whose envelope (header, section table, checksums) has already been
/// verified. [`Self::load`] materialises a [`CompiledModel`] from it and
/// can be called any number of times — replicas share the buffer.
pub struct CompiledModelBuf {
    bytes: Vec<u8>,
    /// Validated `(offset, len)` of each section body, by section id.
    sections: [(usize, usize); N_SECTIONS],
    source_fingerprint: u64,
}

impl CompiledModelBuf {
    /// Reads and validates an artifact file.
    ///
    /// # Errors
    /// I/O failures, plus everything [`Self::from_bytes`] rejects.
    pub fn read(path: impl AsRef<Path>) -> Result<Self, FalccError> {
        let bytes = std::fs::read(path)
            .map_err(|e| FalccError::Dataset(falcc_dataset::DatasetError::Io(e)))?;
        Self::from_bytes(bytes)
    }

    /// Validates the binary envelope: magic, version, section count,
    /// table checksum, then every section-table entry (fixed id order,
    /// expected kind, 8-byte alignment, in-bounds non-overlapping extent,
    /// element-size divisibility, zero padding, per-section checksum), and
    /// finally that the last section ends the file.
    ///
    /// # Errors
    /// [`FalccError::ArtifactCorrupt`] on any integrity failure;
    /// [`FalccError::ArtifactVersionSkew`] when an intact header was
    /// written by a different format version.
    pub fn from_bytes(bytes: Vec<u8>) -> Result<Self, FalccError> {
        if bytes.len() < HEADER_LEN {
            return Err(corrupt(format!(
                "file is {} bytes, smaller than the {HEADER_LEN}-byte header",
                bytes.len()
            )));
        }
        if bytes[..8] != MAGIC {
            return Err(corrupt(format!("bad magic {:?}", &bytes[..8])));
        }
        let version = u32le(&bytes, 8);
        if version != ARTIFACT_VERSION {
            falcc_telemetry::counters::ARTIFACTS_REJECTED.incr();
            return Err(FalccError::ArtifactVersionSkew {
                found: version,
                expected: ARTIFACT_VERSION,
            });
        }
        let n_sections = u32le(&bytes, 12) as usize;
        if n_sections != N_SECTIONS {
            return Err(corrupt(format!(
                "section count {n_sections}, this format always carries {N_SECTIONS}"
            )));
        }
        let source_fingerprint = u64le(&bytes, 16);
        let table_end = HEADER_LEN + N_SECTIONS * ENTRY_LEN;
        if bytes.len() < table_end {
            return Err(corrupt("truncated section table"));
        }
        let declared = u64le(&bytes, 24);
        let actual = fnv1a64(&bytes[HEADER_LEN..table_end]);
        if declared != actual {
            return Err(corrupt(format!(
                "table checksum mismatch: declared {declared:016x}, table hashes to {actual:016x}"
            )));
        }
        let mut sections = [(0usize, 0usize); N_SECTIONS];
        let mut prev_end = table_end as u64;
        for (id, slot) in sections.iter_mut().enumerate() {
            let at = HEADER_LEN + id * ENTRY_LEN;
            let found_id = u32le(&bytes, at);
            let kind = u32le(&bytes, at + 4);
            let offset = u64le(&bytes, at + 8);
            let len = u64le(&bytes, at + 16);
            let checksum = u64le(&bytes, at + 24);
            if found_id as usize != id {
                return Err(corrupt(format!("table slot {id} carries section id {found_id}")));
            }
            if kind != kind_of(id) {
                return Err(corrupt(format!(
                    "section {id} carries kind {kind}, expected {}",
                    kind_of(id)
                )));
            }
            if !offset.is_multiple_of(8) {
                return Err(corrupt(format!("section {id} at misaligned offset {offset}")));
            }
            if offset < prev_end {
                return Err(corrupt(format!(
                    "section {id} at offset {offset} overlaps bytes before {prev_end}"
                )));
            }
            let end = offset
                .checked_add(len)
                .filter(|&end| end <= bytes.len() as u64)
                .ok_or_else(|| {
                    corrupt(format!("section {id} ({len} bytes at {offset}) escapes the file"))
                })?;
            let elem = match kind_of(id) {
                K_F64 => 8,
                K_U32 => 4,
                _ => 1,
            };
            if !len.is_multiple_of(elem) {
                return Err(corrupt(format!(
                    "section {id} length {len} is not a multiple of its {elem}-byte element"
                )));
            }
            // Padding is covered by no checksum, so it must be exactly
            // what the writer puts there.
            if bytes[prev_end as usize..offset as usize].iter().any(|&b| b != 0) {
                return Err(corrupt(format!("nonzero padding before section {id}")));
            }
            let body = &bytes[offset as usize..end as usize];
            let actual = fnv1a64(body);
            if actual != checksum {
                return Err(corrupt(format!(
                    "section {id} checksum mismatch: declared {checksum:016x}, \
                     body hashes to {actual:016x}"
                )));
            }
            *slot = (offset as usize, len as usize);
            prev_end = end;
        }
        if prev_end != bytes.len() as u64 {
            return Err(corrupt(format!(
                "{} trailing bytes after the last section",
                bytes.len() as u64 - prev_end
            )));
        }
        Ok(Self { bytes, sections, source_fingerprint })
    }

    /// The FNV-1a-64 fingerprint of the JSON snapshot this artifact was
    /// compiled from, as recorded in the header.
    pub fn source_fingerprint(&self) -> u64 {
        self.source_fingerprint
    }

    /// One section's body, borrowed from the shared buffer.
    fn section(&self, id: usize) -> &[u8] {
        let (offset, len) = self.sections[id];
        &self.bytes[offset..offset + len]
    }

    /// Materialises a ready-to-classify [`CompiledModel`] by validated
    /// bulk copies out of the buffer. The result is bit-identical to the
    /// JSON→restore→`compile()` model the artifact was written from; its
    /// thread count defaults to auto and its fault plan to empty, exactly
    /// like a JSON-restored model.
    ///
    /// # Errors
    /// [`FalccError::ArtifactCorrupt`] when the decoded slabs fail the
    /// serving plane's structural validation (impossible for artifacts
    /// that passed the checksums, short of a writer bug).
    pub fn load(&self) -> Result<CompiledModel, FalccError> {
        let meta_json = std::str::from_utf8(self.section(S_META))
            .map_err(|e| corrupt(format!("metadata is not UTF-8: {e}")))?;
        let meta: ArtifactMeta = serde_json::from_str(meta_json)
            .map_err(|e| corrupt(format!("unreadable metadata: {e}")))?;
        let parts = FlatPoolParts {
            node_thr: decode_f64(self.section(S_NODE_THR)),
            node_feat: decode_u32(self.section(S_NODE_FEAT)),
            node_left: decode_u32(self.section(S_NODE_LEFT)),
            node_proba: decode_f64(self.section(S_NODE_PROBA)),
            footprints: decode_u32(self.section(S_FOOTPRINTS)),
            member_recs: decode_u32(self.section(S_MEMBER_RECS)),
            member_u32: decode_u32(self.section(S_MEMBER_U32)),
            member_f64: decode_f64(self.section(S_MEMBER_F64)),
        };
        let opaque: Vec<Arc<dyn Classifier>> =
            meta.opaque_specs.into_iter().map(ModelSpec::into_classifier).collect();
        let pool = FlatPool::from_parts(parts, &opaque, meta.schema.n_attrs())
            .map_err(|d| corrupt(format!("pool slabs rejected: {d}")))?;
        let centroids = CentroidMatrix::from_raw(
            decode_f64(self.section(S_CENTROID_DATA)),
            meta.k as usize,
            meta.n_cols as usize,
        )
        .map_err(|d| corrupt(format!("centroid slab rejected: {d}")))?;
        let n_groups = meta.n_groups as usize;
        if n_groups != meta.group_index.len() {
            return Err(corrupt(format!(
                "{n_groups} dispatch groups for a {}-group index",
                meta.group_index.len()
            )));
        }
        if meta.proxy.attrs.len() != meta.n_cols as usize {
            return Err(corrupt(format!(
                "projection width {} does not match {}-wide centroids",
                meta.proxy.attrs.len(),
                meta.n_cols
            )));
        }
        let dispatch = decode_u32(self.section(S_DISPATCH));
        if dispatch.len() != centroids.k() * n_groups {
            return Err(corrupt(format!(
                "dispatch table holds {} cells, expected {} regions × {n_groups} groups",
                dispatch.len(),
                centroids.k()
            )));
        }
        if let Some(&id) = dispatch.iter().find(|&&id| id as usize >= pool.len()) {
            return Err(corrupt(format!(
                "dispatch references member {id} of a {}-member pool",
                pool.len()
            )));
        }
        Ok(CompiledModel {
            meta: ServeMeta {
                schema: meta.schema,
                group_index: meta.group_index,
                proxy: meta.proxy,
                name: meta.name,
            },
            centroids,
            pool,
            dispatch,
            n_groups,
            threads: 0,
            faults: FaultPlan::default(),
        })
    }

    /// [`Self::load`], gated on the source fingerprint: an artifact
    /// compiled from a different snapshot than `expected` is rejected as
    /// [`FalccError::ArtifactStale`] so the caller can fall back to the
    /// JSON path instead of serving a stale model.
    ///
    /// # Errors
    /// [`FalccError::ArtifactStale`] on fingerprint mismatch, plus
    /// everything [`Self::load`] rejects.
    pub fn load_if_fresh(&self, expected: u64) -> Result<CompiledModel, FalccError> {
        if self.source_fingerprint != expected {
            falcc_telemetry::counters::ARTIFACTS_REJECTED.incr();
            return Err(FalccError::ArtifactStale {
                found: self.source_fingerprint,
                expected,
            });
        }
        self.load()
    }
}

impl CompiledModel {
    /// Serialises the compiled plane into the v5 binary container.
    /// `source_fingerprint` is the FNV-1a-64 hash of the JSON snapshot's
    /// on-disk bytes this plane was compiled from (0 for a free-standing
    /// artifact).
    ///
    /// # Errors
    /// [`FalccError::InvalidConfig`] when a pool member does not support
    /// persistence or the metadata cannot be serialised.
    pub fn to_artifact_bytes(&self, source_fingerprint: u64) -> Result<Vec<u8>, FalccError> {
        let (parts, opaque_specs) = self
            .pool
            .to_parts()
            .map_err(|detail| FalccError::InvalidConfig { detail })?;
        let meta = ArtifactMeta {
            schema: self.meta.schema.clone(),
            group_index: self.meta.group_index.clone(),
            proxy: self.meta.proxy.clone(),
            name: self.meta.name.clone(),
            n_groups: self.n_groups as u32,
            k: self.centroids.k() as u32,
            n_cols: self.centroids.n_cols() as u32,
            opaque_specs,
        };
        let meta_json = serde_json::to_string(&meta).map_err(|e| FalccError::InvalidConfig {
            detail: format!("metadata serialisation failed: {e}"),
        })?;
        let bodies: [Vec<u8>; N_SECTIONS] = [
            meta_json.into_bytes(),
            encode_f64(&parts.node_thr),
            encode_u32(&parts.node_feat),
            encode_u32(&parts.node_left),
            encode_f64(&parts.node_proba),
            encode_u32(&parts.footprints),
            encode_u32(&parts.member_recs),
            encode_u32(&parts.member_u32),
            encode_f64(&parts.member_f64),
            encode_f64(self.centroids.data()),
            encode_u32(&self.dispatch),
        ];
        let table_end = HEADER_LEN + N_SECTIONS * ENTRY_LEN;
        let mut out = vec![0u8; table_end];
        for (id, body) in bodies.iter().enumerate() {
            while !out.len().is_multiple_of(8) {
                out.push(0);
            }
            let at = HEADER_LEN + id * ENTRY_LEN;
            let offset = out.len() as u64;
            out[at..at + 4].copy_from_slice(&(id as u32).to_le_bytes());
            out[at + 4..at + 8].copy_from_slice(&kind_of(id).to_le_bytes());
            out[at + 8..at + 16].copy_from_slice(&offset.to_le_bytes());
            out[at + 16..at + 24].copy_from_slice(&(body.len() as u64).to_le_bytes());
            out[at + 24..at + 32].copy_from_slice(&fnv1a64(body).to_le_bytes());
            out.extend_from_slice(body);
        }
        out[..8].copy_from_slice(&MAGIC);
        out[8..12].copy_from_slice(&ARTIFACT_VERSION.to_le_bytes());
        out[12..16].copy_from_slice(&(N_SECTIONS as u32).to_le_bytes());
        out[16..24].copy_from_slice(&source_fingerprint.to_le_bytes());
        let checksum = fnv1a64(&out[HEADER_LEN..table_end]);
        out[24..32].copy_from_slice(&checksum.to_le_bytes());
        Ok(out)
    }

    /// Writes the compiled plane to `path` as a binary artifact,
    /// atomically and durably through the shared tmp+fsync+rename layer.
    /// Before publishing, the exact bytes are validated and loaded back
    /// as a round-trip self-check, so a writer bug surfaces at save time
    /// with the model still in memory.
    ///
    /// # Errors
    /// Serialisation, self-check, and I/O failures;
    /// [`FalccError::CrossDeviceRename`] when the temp file and target
    /// sit on different filesystems.
    pub fn save_artifact(
        &self,
        path: impl AsRef<Path>,
        source_fingerprint: u64,
    ) -> Result<(), FalccError> {
        let bytes = self.to_artifact_bytes(source_fingerprint)?;
        CompiledModelBuf::from_bytes(bytes.clone())?.load()?;
        atomic_durable_write(path.as_ref(), &bytes)
    }

    /// Reads, validates, and loads an artifact file in one call.
    ///
    /// # Errors
    /// Everything [`CompiledModelBuf::read`] and
    /// [`CompiledModelBuf::load`] reject.
    pub fn load_artifact(path: impl AsRef<Path>) -> Result<Self, FalccError> {
        CompiledModelBuf::read(path)?.load()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FalccConfig;
    use crate::framework::FairClassifier;
    use crate::offline::FalccModel;
    use falcc_dataset::synthetic::{generate, SyntheticConfig};
    use falcc_dataset::{SplitRatios, ThreeWaySplit};

    fn fitted() -> (FalccModel, ThreeWaySplit) {
        let mut dcfg = SyntheticConfig::social(0.3);
        dcfg.n = 800;
        let ds = generate(&dcfg, 31).unwrap();
        let split = ThreeWaySplit::split(&ds, SplitRatios::PAPER, 31).unwrap();
        let mut cfg = FalccConfig::default();
        cfg.scale_for_tests();
        let model = FalccModel::fit(&split.train, &split.validation, &cfg).unwrap();
        (model, split)
    }

    #[test]
    fn bytes_round_trip_preserves_every_prediction() {
        let (model, split) = fitted();
        let compiled = model.compile();
        let bytes = compiled.to_artifact_bytes(0xfeed).unwrap();
        let buf = CompiledModelBuf::from_bytes(bytes).unwrap();
        assert_eq!(buf.source_fingerprint(), 0xfeed);
        let loaded = buf.load_if_fresh(0xfeed).unwrap();
        assert_eq!(loaded.name(), compiled.name());
        assert_eq!(loaded.n_models(), compiled.n_models());
        assert_eq!(loaded.n_regions(), compiled.n_regions());
        assert_eq!(loaded.n_nodes(), compiled.n_nodes());
        for i in 0..split.test.len() {
            let row = split.test.row(i);
            assert_eq!(compiled.try_classify(row), loaded.try_classify(row), "row {i}");
        }
        assert_eq!(
            compiled.predict_dataset(&split.test),
            loaded.predict_dataset(&split.test)
        );
        // One buffer serves many replicas.
        let replica = buf.load().unwrap();
        assert_eq!(
            replica.predict_dataset(&split.test),
            loaded.predict_dataset(&split.test)
        );
    }

    #[test]
    fn file_round_trip_is_atomic_and_self_checked() {
        let (model, split) = fitted();
        let compiled = model.compile();
        let path = std::env::temp_dir().join("falcc_artifact_test.falccb");
        compiled.save_artifact(&path, 7).unwrap();
        let mut tmp = path.as_os_str().to_os_string();
        tmp.push(".tmp");
        assert!(!std::path::Path::new(&tmp).exists(), "no temp file left behind");
        let loaded = CompiledModel::load_artifact(&path).unwrap();
        assert_eq!(
            compiled.predict_dataset(&split.test),
            loaded.predict_dataset(&split.test)
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn stale_fingerprint_is_a_typed_rejection() {
        let (model, _) = fitted();
        let compiled = model.compile();
        let bytes = compiled.to_artifact_bytes(0xaaaa).unwrap();
        let buf = CompiledModelBuf::from_bytes(bytes).unwrap();
        assert!(matches!(
            buf.load_if_fresh(0xbbbb),
            Err(FalccError::ArtifactStale { found: 0xaaaa, expected: 0xbbbb })
        ));
        // The buffer itself stays usable for the matching fingerprint.
        assert!(buf.load_if_fresh(0xaaaa).is_ok());
    }

    #[test]
    fn version_skew_and_magic_damage_are_typed() {
        let (model, _) = fitted();
        let bytes = model.compile().to_artifact_bytes(0).unwrap();

        let mut skewed = bytes.clone();
        skewed[8] = 99; // version lives outside the table checksum
        assert!(matches!(
            CompiledModelBuf::from_bytes(skewed),
            Err(FalccError::ArtifactVersionSkew { found: 99, expected: ARTIFACT_VERSION })
        ));
        // The magic is shared since v3, so v3 and v4 files are version
        // skew too.
        for older in [3u32, 4] {
            let mut old = bytes.clone();
            old[8..12].copy_from_slice(&older.to_le_bytes());
            assert!(matches!(
                CompiledModelBuf::from_bytes(old),
                Err(FalccError::ArtifactVersionSkew { found, expected: ARTIFACT_VERSION })
                    if found == older
            ));
        }

        let mut bad_magic = bytes.clone();
        bad_magic[0] ^= 0x01;
        assert!(matches!(
            CompiledModelBuf::from_bytes(bad_magic),
            Err(FalccError::ArtifactCorrupt { .. })
        ));

        let mut flipped_body = bytes;
        let last = flipped_body.len() - 1;
        flipped_body[last] ^= 0x01;
        assert!(matches!(
            CompiledModelBuf::from_bytes(flipped_body),
            Err(FalccError::ArtifactCorrupt { .. })
        ));
    }

    #[test]
    fn misaligned_section_is_rejected_even_with_valid_checksums() {
        let (model, _) = fitted();
        let mut bytes = model.compile().to_artifact_bytes(0).unwrap();
        // Knock section 1's offset off alignment and re-seal both the
        // section checksum and the table checksum, so only the alignment
        // rule stands between the damage and the loader.
        let at = HEADER_LEN + ENTRY_LEN; // section 1's table entry
        let offset = u64le(&bytes, at + 8);
        bytes[at + 8..at + 16].copy_from_slice(&(offset + 1).to_le_bytes());
        let len = u64le(&bytes, at + 16) as usize;
        let body_start = (offset + 1) as usize;
        let reseal = fnv1a64(&bytes[body_start..body_start + len]);
        bytes[at + 24..at + 32].copy_from_slice(&reseal.to_le_bytes());
        let table_checksum = fnv1a64(&bytes[HEADER_LEN..HEADER_LEN + N_SECTIONS * ENTRY_LEN]);
        bytes[24..32].copy_from_slice(&table_checksum.to_le_bytes());
        match CompiledModelBuf::from_bytes(bytes) {
            Err(FalccError::ArtifactCorrupt { detail }) => {
                assert!(detail.contains("misaligned"), "{detail}");
            }
            other => panic!("expected misalignment rejection, got {:?}", other.is_ok()),
        }
    }

    #[test]
    fn sibling_path_swaps_the_extension() {
        assert_eq!(
            sibling_artifact_path(Path::new("out/model.json")),
            PathBuf::from("out/model.falccb")
        );
    }
}
