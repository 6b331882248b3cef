//! Shared durable-write and integrity primitives.
//!
//! Three on-disk writers — model snapshots ([`crate::persist`]),
//! checkpoint journals ([`crate::checkpoint`]), and binary artifacts
//! ([`crate::artifact`]) — share the same hardening recipe: an FNV-1a
//! checksum over the exact published bytes, and an atomic
//! write-temp/fsync/rename/dir-fsync publish step. This module is the
//! single home for those helpers so the recipe cannot drift between
//! writers.
//!
//! Snapshots and checkpoint records also share one JSON envelope,
//! `{"magic":…,"version":…,"checksum":"…","payload":<JSON>}`, and one
//! format version, 4. The payload is embedded as a JSON value and the
//! checksum covers exactly its bytes in the file, so [`open_envelope`]
//! verifies the payload and hands it back parsed from a single pass over
//! the text. The envelope has not changed since format 3; format 4
//! changed what the payloads hold (flat post-order trees, centroid-only
//! regions; see [`crate::persist`]).

use crate::error::FalccError;
use serde::Value;
use std::path::Path;

/// FNV-1a 64-bit: tiny, dependency-free, and plenty to catch the
/// accidental corruption this guards against (not an adversarial MAC).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Why [`open_envelope`] rejected its input — the envelope consumers
/// (model snapshots in [`crate::persist`], checkpoint journals in
/// [`crate::checkpoint`]) map these onto their own typed errors.
#[derive(Debug)]
pub(crate) enum EnvelopeFault {
    /// Damaged bytes: unparseable envelope, wrong magic, bad checksum.
    Corrupt(String),
    /// Intact envelope written by a different format version.
    VersionSkew(u32),
}

/// Wraps `payload` (JSON text) in the checksummed integrity envelope
/// shared by model snapshots and checkpoint records:
/// `{"magic":…,"version":…,"checksum":"…","payload":<payload>}`. The
/// payload is embedded as a JSON value, not as an escaped string, and
/// `checksum` is the FNV-1a 64-bit hash of exactly its bytes,
/// hex-encoded (a string survives JSON readers that clamp integers to
/// 53 bits).
pub(crate) fn seal_envelope(magic: &str, version: u32, payload: &str) -> Result<String, String> {
    let magic = serde_json::to_string(magic).map_err(|e| e.to_string())?;
    Ok(format!(
        "{{\"magic\":{magic},\"version\":{version},\"checksum\":\"{:016x}\",\"payload\":{payload}}}",
        fnv1a64(payload.as_bytes())
    ))
}

/// Opens an envelope from one parse of `json`: checks the magic, then the
/// version, then the checksum over the payload's exact bytes, and returns
/// the payload both as the parsed value and as its text.
pub(crate) fn open_envelope<'a>(
    magic: &str,
    version: u32,
    json: &'a str,
) -> Result<(Value<'a>, &'a str), EnvelopeFault> {
    let (mut members, spans) = serde_json::parse_object_spans(json)
        .map_err(|e| EnvelopeFault::Corrupt(format!("unreadable envelope: {e}")))?;
    let find = |key: &str| members.iter().position(|(k, _)| k == key);
    let field = |key: &str| find(key).map(|i| &members[i].1);
    match field("magic") {
        Some(Value::Str(found)) if found == magic => {}
        other => return Err(EnvelopeFault::Corrupt(format!("bad magic {other:?}"))),
    }
    let found = match field("version") {
        Some(&Value::I64(found)) => u32::try_from(found).ok(),
        _ => None,
    }
    .ok_or_else(|| EnvelopeFault::Corrupt(format!("bad version {:?}", field("version"))))?;
    if found != version {
        return Err(EnvelopeFault::VersionSkew(found));
    }
    let declared = match field("checksum") {
        Some(Value::Str(hex)) => u64::from_str_radix(hex, 16).ok(),
        _ => None,
    }
    .ok_or_else(|| {
        EnvelopeFault::Corrupt(format!("unparseable checksum {:?}", field("checksum")))
    })?;
    let at = find("payload").ok_or_else(|| EnvelopeFault::Corrupt("no payload".into()))?;
    let text = &json[spans[at].clone()];
    let actual = fnv1a64(text.as_bytes());
    if declared != actual {
        return Err(EnvelopeFault::Corrupt(format!(
            "checksum mismatch: declared {declared:016x}, payload hashes to {actual:016x}"
        )));
    }
    Ok((members.swap_remove(at).1, text))
}

/// Renames `tmp` over `path`, surfacing a cross-filesystem rename as the
/// typed [`FalccError::CrossDeviceRename`] instead of a generic I/O error
/// (the temp file is cleaned up — it can never be adopted as the target).
pub(crate) fn rename_typed(tmp: &Path, path: &Path) -> Result<(), FalccError> {
    std::fs::rename(tmp, path).map_err(|e| {
        if e.kind() == std::io::ErrorKind::CrossesDevices {
            let _ = std::fs::remove_file(tmp);
            FalccError::CrossDeviceRename { path: path.display().to_string() }
        } else {
            FalccError::Dataset(falcc_dataset::DatasetError::Io(e))
        }
    })
}

/// Writes `bytes` to `path` atomically *and durably*: the bytes land in a
/// sibling `.tmp` file which is fsynced before the rename, and the parent
/// directory is fsynced after it so the rename itself survives a crash.
/// A crash at any point leaves either the old content or the new — never
/// a torn file.
pub(crate) fn atomic_durable_write(path: &Path, bytes: &[u8]) -> Result<(), FalccError> {
    use std::io::Write;
    let io = |e: std::io::Error| FalccError::Dataset(falcc_dataset::DatasetError::Io(e));
    let mut tmp_name = path.as_os_str().to_os_string();
    tmp_name.push(".tmp");
    let tmp = std::path::PathBuf::from(tmp_name);
    {
        let mut f = std::fs::File::create(&tmp).map_err(io)?;
        f.write_all(bytes).map_err(io)?;
        f.sync_all().map_err(io)?;
    }
    rename_typed(&tmp, path)?;
    if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        // Without the directory fsync the rename may be lost on power
        // failure even though the file data was synced.
        std::fs::File::open(parent).and_then(|d| d.sync_all()).map_err(io)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn envelope_helpers_round_trip_and_reject() {
        let payload = r#"{"note":"a \"quoted\" payload","items":[1,2.5]}"#;
        let sealed = seal_envelope("falcc-test", 7, payload).unwrap();
        assert_eq!(
            sealed,
            format!(
                "{{\"magic\":\"falcc-test\",\"version\":7,\"checksum\":\"{:016x}\",\"payload\":{payload}}}",
                fnv1a64(payload.as_bytes())
            ),
            "the payload is embedded verbatim, not as an escaped string"
        );
        let (value, text) = open_envelope("falcc-test", 7, &sealed).unwrap();
        assert_eq!(text, payload);
        assert_eq!(value, serde_json::parse_value(payload).unwrap());
        assert!(matches!(
            open_envelope("falcc-other", 7, &sealed),
            Err(EnvelopeFault::Corrupt(_))
        ));
        assert!(matches!(
            open_envelope("falcc-test", 8, &sealed),
            Err(EnvelopeFault::VersionSkew(7))
        ));
        let tampered = sealed.replace("quoted", "quotes");
        assert!(matches!(
            open_envelope("falcc-test", 7, &tampered),
            Err(EnvelopeFault::Corrupt(_))
        ));
        // The same payload in the older layout, carried as an escaped
        // string: an intact envelope of another version is skew, whatever
        // its payload looks like.
        let escaped = serde_json::to_string(payload).unwrap();
        let older = format!(
            "{{\"magic\":\"falcc-test\",\"version\":2,\"checksum\":\"{:016x}\",\"payload\":{escaped}}}",
            fnv1a64(payload.as_bytes())
        );
        assert!(matches!(
            open_envelope("falcc-test", 7, &older),
            Err(EnvelopeFault::VersionSkew(2))
        ));
        for missing in ["magic", "version", "checksum", "payload"] {
            let renamed = sealed.replacen(&format!("\"{missing}\""), "\"other\"", 1);
            assert!(
                matches!(open_envelope("falcc-test", 7, &renamed), Err(EnvelopeFault::Corrupt(_))),
                "an envelope without {missing} must be corrupt"
            );
        }
    }

    #[test]
    fn cross_filesystem_rename_is_a_typed_error() {
        // Opportunistic: only meaningful when the machine has a second
        // filesystem to rename across (tmpfs at /dev/shm on most Linux
        // boxes). Sibling renames — the only ones the save path issues —
        // can never trigger this, so the helper is exercised directly.
        let shm = Path::new("/dev/shm");
        if !shm.is_dir() {
            return;
        }
        let tmp = shm.join("falcc_exdev_probe.tmp");
        if std::fs::write(&tmp, b"probe").is_err() {
            return;
        }
        let target = std::env::temp_dir().join("falcc_exdev_probe.json");
        match rename_typed(&tmp, &target) {
            Ok(()) => {
                // Same filesystem after all — nothing to assert.
                std::fs::remove_file(&target).ok();
            }
            Err(FalccError::CrossDeviceRename { path }) => {
                assert!(path.contains("falcc_exdev_probe"));
                assert!(!tmp.exists(), "temp file must be cleaned up");
            }
            Err(other) => panic!("expected CrossDeviceRename, got {other}"),
        }
        std::fs::remove_file(&tmp).ok();
    }

    #[test]
    fn fnv1a64_matches_reference_vectors() {
        // Published FNV-1a 64-bit test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }
}
