//! Kill-point chaos harness: re-execs `falcc train` on a CSV fixture,
//! hard-kills it at every crash point of the checkpoint journal, resumes,
//! and asserts the resumed model snapshot is byte-identical to an
//! uninterrupted run.
//!
//! The sweep covers the full [`CrashPoint::catalog`]: every checkpoint
//! commit ordinal crossed with every [`CrashPhase`] (before the record
//! write, after it, mid-manifest-append with a torn half-line synced to
//! disk, and after the commit). CI runs the suite at 1, 2, and 8 worker
//! threads via `FALCC_TEST_THREADS`; the crashed and resumed processes
//! deliberately use that thread count while the reference run uses one
//! thread, so the sweep re-proves the determinism contract too.

use falcc::CrashPoint;
use falcc_dataset::csv::write_csv;
use falcc_dataset::synthetic::{generate, SyntheticConfig};
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// Checkpoint commits `train` performs on the fixture with 4 regions (8
/// AdaBoost grid slots + pool training + proxy + projection +
/// k-estimation + clustering + gap fill + 4 regions + assessment). The
/// pool commits once per grid slot, never per kept member, so the count
/// does not depend on the pool size. The sweep asserts this against the
/// journal, so a pipeline change that shifts the commit count fails
/// loudly instead of silently shrinking the kill-point catalog.
const COMMITS: u64 = 19;

fn falcc(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_falcc"))
        .args(args)
        .output()
        .expect("spawn falcc binary")
}

fn assert_ok(out: &Output, what: &str) {
    assert!(
        out.status.success(),
        "{what} failed with {:?}:\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
}

/// Thread count for crashed/resumed runs. CI pins 1, 2, and 8.
fn threads_under_test() -> String {
    std::env::var("FALCC_TEST_THREADS").unwrap_or_else(|_| "2".to_string())
}

fn path_str(p: &Path) -> &str {
    p.to_str().expect("utf-8 path")
}

/// A fresh directory holding the CSV fixture every run in this suite
/// fits: 400 synthetic social30 rows (seed 11) — small keeps the
/// 2 × catalog process spawns fast, large enough for 4 stable regions.
fn fresh_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("falcc_chaos").join(name);
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("mkdir");
    let mut cfg = SyntheticConfig::social(0.30);
    cfg.n = 400;
    let mut text = Vec::new();
    write_csv(&generate(&cfg, 11).expect("generate fixture"), &mut text).expect("fixture csv");
    std::fs::write(dir.join("data.csv"), text).expect("write fixture");
    dir
}

/// `falcc train` on the fixture in `dir` with 4 regions and proxy
/// removal, writing the snapshot to `out`; `extra` adds flags.
fn train(dir: &Path, out: &Path, extra: &[&str]) -> Output {
    let data = dir.join("data.csv");
    let base = [
        "train", "--data", path_str(&data), "--sensitive", "sens", "--clusters", "4",
        "--proxy", "remove", "--out", path_str(out), "--quiet",
    ];
    falcc(&[&base[..], extra].concat())
}

/// The uninterrupted single-threaded reference snapshot all resumed runs
/// must reproduce byte for byte.
fn reference_snapshot(dir: &Path) -> Vec<u8> {
    let out = dir.join("reference.json");
    assert_ok(&train(dir, &out, &["--threads", "1"]), "reference fit");
    std::fs::read(&out).expect("read reference snapshot")
}

#[test]
fn kill_point_sweep_resumes_bit_identically() {
    let dir = fresh_dir("sweep");
    let threads = threads_under_test();
    let reference = reference_snapshot(&dir);

    // An uninterrupted journaled run pins the commit count the catalog
    // is derived from (and must itself match the journal-less reference).
    let full_out = dir.join("full.json");
    let full_ck = dir.join("ck_full");
    let journal = ["--checkpoint-dir", path_str(&full_ck), "--threads", &threads];
    let run = train(&dir, &full_out, &journal);
    assert_ok(&run, "uninterrupted journaled fit");
    assert_eq!(
        std::fs::read(&full_out).expect("read"),
        reference,
        "journaled run must match the journal-less reference"
    );
    let manifest = std::fs::read_to_string(full_ck.join(falcc::checkpoint::MANIFEST))
        .expect("read manifest");
    assert_eq!(
        manifest.lines().count() as u64,
        COMMITS,
        "commit count changed — update COMMITS so the sweep stays exhaustive"
    );

    for point in CrashPoint::catalog(COMMITS) {
        let tag = format!("{}_{}", point.ordinal, point.phase.name());
        let ck = dir.join(format!("ck_{tag}"));
        let out = dir.join(format!("model_{tag}.json"));
        let crash_at = format!("{}:{}", point.ordinal, point.phase.name());

        let journal = ["--checkpoint-dir", path_str(&ck), "--threads", &threads];
        let crashed = train(&dir, &out, &[&journal[..], &["--crash-at", &crash_at]].concat());
        assert!(
            !crashed.status.success(),
            "crash point {crash_at}: the armed kill must abort the process"
        );
        assert!(
            !out.exists(),
            "crash point {crash_at}: no model snapshot may appear from a killed run"
        );

        let resumed = train(&dir, &out, &[&journal[..], &["--resume"]].concat());
        assert_ok(&resumed, &format!("resume after crash at {crash_at}"));
        assert_eq!(
            std::fs::read(&out).expect("read resumed snapshot"),
            reference,
            "crash point {crash_at}: resumed snapshot must be byte-identical"
        );
    }

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn transient_io_faults_are_retried_and_exhaustion_is_a_clean_failure() {
    let dir = fresh_dir("retries");
    let reference = reference_snapshot(&dir);

    // Scattered transient failures: absorbed by the bounded retry layer,
    // model unchanged.
    let out = dir.join("retried.json");
    let ck = dir.join("ck_retried");
    let run = train(&dir, &out, &[
        "--checkpoint-dir", path_str(&ck), "--threads", "1", "--inject", "io:0,io:3,io:7",
    ]);
    assert_ok(&run, "fit with scattered transient I/O faults");
    assert_eq!(
        std::fs::read(&out).expect("read"),
        reference,
        "absorbed transient faults must not change the model"
    );

    // Four consecutive failures of one operation exceed the budget of 3:
    // a typed runtime error (exit 1), not a panic or partial snapshot.
    let out = dir.join("exhausted.json");
    let ck = dir.join("ck_exhausted");
    let burst =
        ["--checkpoint-dir", path_str(&ck), "--threads", "1", "--inject", "io:0,io:1,io:2,io:3"];
    let run = train(&dir, &out, &burst);
    assert_eq!(run.status.code(), Some(1), "retry exhaustion is a runtime failure");
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert!(
        stderr.contains("transient I/O failure persisted through 3 retries"),
        "stderr must carry the typed exhaustion message, got:\n{stderr}"
    );
    assert!(!out.exists(), "no model snapshot after an exhausted fit");

    // A raised budget absorbs the same burst.
    let run = train(&dir, &out, &[&burst[..], &["--retry-budget", "6"]].concat());
    assert_ok(&run, "fit with raised retry budget");
    assert_eq!(std::fs::read(&out).expect("read"), reference);

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn resume_rejects_a_stale_generation_journal() {
    let dir = fresh_dir("stale");
    let ck = dir.join("ck");
    let out = dir.join("model.json");
    let journal = ["--checkpoint-dir", path_str(&ck), "--threads", "1"];
    let run = train(&dir, &out, &[&journal[..], &["--seed", "11"]].concat());
    assert_ok(&run, "seed-11 journaled fit");

    // Same journal, different run config: every manifest entry carries a
    // foreign fingerprint, so resuming must fail typed instead of reviving
    // checkpoints from another run.
    let run = train(&dir, &out, &[&journal[..], &["--seed", "12", "--resume"]].concat());
    assert_eq!(run.status.code(), Some(1), "stale-generation resume is a runtime failure");
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert!(stderr.contains("belongs to a different run"), "{stderr}");

    // Without --resume the same directory is wiped and refitted cleanly.
    let run = train(&dir, &out, &[&journal[..], &["--seed", "12"]].concat());
    assert_ok(&run, "fresh fit over a stale journal");

    std::fs::remove_dir_all(&dir).ok();
}
