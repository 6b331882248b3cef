//! Fault-tolerance suite: deterministic fault injection, graceful
//! degradation, and hardened persistence.
//!
//! Three claims are exercised end to end:
//!
//! 1. **No panics** — the pipeline never panics on malformed input:
//!    arbitrary finite/non-finite rows degrade to typed per-row errors,
//!    and every injected fault either degrades gracefully or surfaces a
//!    typed `FalccError`.
//! 2. **Deterministic degradation** — the same `FaultPlan` produces
//!    bit-identical degraded models and predictions at 1, 2, and 8 worker
//!    threads (run in CI under all three via `FALCC_TEST_THREADS`).
//! 3. **Hardened persistence** — a corruption matrix (bit flips at many
//!    offsets, truncations at many lengths, version skew) is always
//!    caught by the snapshot envelope and rejected with a typed error.
//! 4. **Crash-consistent checkpoints** — the same corruption matrix
//!    applied to a checkpoint journal never poisons a resumed fit: every
//!    damaged record or manifest line is detected and the resume falls
//!    back to the last valid prefix, reproducing the uninterrupted model
//!    bit for bit (stale-generation journals are rejected typed instead).
//! 5. **Hardened binary artifacts** — the same corruption matrix applied
//!    to the binary serving artifact (bit flips across header, section
//!    table, slab bytes and padding; truncation buckets; alignment
//!    violations; version skew; stale fingerprints) is always rejected
//!    with a typed error — never UB, never a panic, never a silently
//!    different model.

use falcc::checkpoint::MANIFEST;
use falcc::faults::{flip_byte, truncate_bytes};
use falcc::{
    CheckpointSpec, CompiledModel, FairClassifier, FalccConfig, FalccError, FalccModel,
    FaultPlan, RowFault, SavedFalccModel,
};
use falcc_dataset::{synthetic, SplitRatios, ThreeWaySplit};
use std::path::Path;

/// Thread counts to exercise. CI pins `FALCC_TEST_THREADS` to 1, 2, and 8
/// in separate jobs; locally every count runs in-process too.
const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

fn fixture(n: usize, seed: u64) -> ThreeWaySplit {
    let ds = synthetic::social30(seed).expect("generate");
    let ds = ds.subset(&(0..n).collect::<Vec<_>>()).expect("subset");
    ThreeWaySplit::split(&ds, SplitRatios::PAPER, seed).expect("split")
}

fn config(seed: u64, threads: usize) -> FalccConfig {
    let mut cfg = FalccConfig::default();
    cfg.scale_for_tests();
    cfg.seed = seed;
    cfg.threads = threads;
    cfg
}

/// A plan touching every offline fault site at once.
fn stacked_plan() -> FaultPlan {
    let mut plan = FaultPlan::default();
    plan.fail_pool_member(1)
        .empty_cluster(0)
        .drop_group_in_region(1, 0)
        .drop_group_in_region(2, 1)
        .poison_row(5);
    plan
}

#[test]
fn degraded_pipeline_is_bit_identical_across_thread_counts() {
    let split = fixture(1200, 31);
    let run = |threads: usize| {
        let mut cfg = config(31, threads);
        cfg.faults = stacked_plan();
        let model =
            FalccModel::fit(&split.train, &split.validation, &cfg).expect("degraded fit");
        let rows: Vec<Vec<f64>> =
            (0..split.test.len()).map(|i| split.test.row(i).to_vec()).collect();
        let combos: Vec<Vec<usize>> =
            (0..model.n_regions()).map(|c| model.combo(c).to_vec()).collect();
        let preds = model.classify_batch(&rows);
        // The serving plane, at the fit's thread count.
        let served = model.compile().classify_batch(&rows);
        (model.pool().len(), combos, preds, served)
    };
    let env_threads: Option<usize> =
        std::env::var("FALCC_TEST_THREADS").ok().and_then(|v| v.parse().ok());
    let reference = run(1);
    // Row 5 is injected as poisoned; everything else classifies.
    assert!(reference.2[5].is_err(), "injected row fault must fire");
    assert!(
        reference.2.iter().enumerate().all(|(i, r)| r.is_ok() || i == 5),
        "only the injected row degrades"
    );
    assert_eq!(reference.3, reference.2, "serving plane diverged from the reference");
    for threads in THREAD_COUNTS.into_iter().chain(env_threads) {
        let run_t = run(threads);
        assert_eq!(run_t.0, reference.0, "pool size differs at {threads} threads");
        assert_eq!(run_t.1, reference.1, "combos differ at {threads} threads");
        assert_eq!(run_t.2, reference.2, "degraded predictions differ at {threads} threads");
        assert_eq!(run_t.3, reference.3, "served predictions differ at {threads} threads");
    }
}

#[test]
fn seeded_plans_reproduce_their_degradation() {
    let split = fixture(900, 32);
    let fit = |plan: FaultPlan| {
        let mut cfg = config(32, 1);
        cfg.faults = plan;
        FalccModel::fit(&split.train, &split.validation, &cfg)
            .map(|m| (0..m.n_regions()).map(|c| m.combo(c).to_vec()).collect::<Vec<_>>())
    };
    let a = fit(FaultPlan::seeded(99, 3, 4, 0));
    let b = fit(FaultPlan::seeded(99, 3, 4, 0));
    match (a, b) {
        (Ok(x), Ok(y)) => assert_eq!(x, y),
        (Err(x), Err(y)) => assert_eq!(x.to_string(), y.to_string()),
        _ => panic!("same seeded plan must degrade identically"),
    }
}

#[test]
fn pool_depletion_is_typed_and_total_depletion_never_panics() {
    let split = fixture(800, 33);
    // Quarantine the whole 3-member pool.
    let mut cfg = config(33, 0);
    for i in 0..3 {
        cfg.faults.fail_pool_member(i);
    }
    match FalccModel::fit(&split.train, &split.validation, &cfg) {
        Err(FalccError::PoolDepleted { survivors, quarantined, min_pool_size }) => {
            assert_eq!((survivors, quarantined, min_pool_size), (0, 3, 1));
        }
        Err(other) => panic!("expected PoolDepleted, got {other}"),
        Ok(_) => panic!("a fully quarantined pool cannot fit"),
    }
}

/// Shared fixture for the property test below: fit (and compile) once,
/// probe many times.
fn arbitrary_row_fixture() -> &'static (FalccModel, CompiledModel, Vec<f64>) {
    use std::sync::OnceLock;
    static FIXTURE: OnceLock<(FalccModel, CompiledModel, Vec<f64>)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let split = fixture(800, 34);
        let model = FalccModel::fit(&split.train, &split.validation, &config(34, 0))
            .expect("fit");
        let compiled = model.compile();
        let good = split.test.row(0).to_vec();
        (model, compiled, good)
    })
}

proptest::proptest! {
    #![proptest_config(proptest::prelude::ProptestConfig::with_cases(128))]

    // Rows span empty to over-wide, with a cell optionally poisoned by
    // NaN, infinities, or an out-of-domain sensitive code. The serving
    // plane and the reference must answer every one with the same typed
    // result — never a panic — and a bad row in a batch must not disturb
    // its neighbours.
    #[test]
    fn online_phase_never_panics_on_arbitrary_rows(
        width in 0usize..20,
        cells in proptest::collection::vec(-1e6f64..1e6, 20usize),
        poison_col in 0usize..20,
        poison_kind in 0u8..5,
    ) {
        let (model, compiled, good) = arbitrary_row_fixture();
        let mut r: Vec<f64> = cells[..width].to_vec();
        if poison_col < width {
            r[poison_col] = match poison_kind {
                0 => f64::NAN,
                1 => f64::INFINITY,
                2 => f64::NEG_INFINITY,
                3 => 7.5, // out of domain when it lands on a sensitive column
                _ => r[poison_col], // leave the finite draw in place
            };
        }
        // try_classify: typed result, never a panic.
        let single = compiled.try_classify(&r);
        if let Ok(z) = single {
            proptest::prop_assert!(z <= 1);
        }
        // Batched alongside known-good rows: the good rows' results
        // are unaffected by the arbitrary neighbour.
        let rows = [good.clone(), r.clone(), good.clone()];
        let batch = compiled.classify_batch(&rows);
        proptest::prop_assert_eq!(batch.len(), 3);
        proptest::prop_assert!(batch[0].is_ok() && batch[2].is_ok());
        proptest::prop_assert_eq!(batch[0].clone(), batch[2].clone());
        proptest::prop_assert_eq!(&single, &batch[1], "single and batched verdicts disagree");
        // Both verdicts are the reference's.
        proptest::prop_assert_eq!(&single, &model.try_classify(&r));
        proptest::prop_assert_eq!(&batch, &model.classify_batch(&rows));
    }
}

#[test]
fn row_faults_carry_actionable_context() {
    let split = fixture(700, 35);
    let model = FalccModel::fit(&split.train, &split.validation, &config(35, 0))
        .expect("fit");
    let compiled = model.compile();
    let d = split.test.n_attrs();
    let good = split.test.row(0).to_vec();
    let mut bad = good.clone();
    bad[d - 1] = f64::NAN;
    let mut alien = good;
    alien[0] = -3.0;

    let check = |plane: &str, try_classify: &dyn Fn(&[f64]) -> Result<u8, RowFault>| {
        assert!(
            matches!(
                try_classify(&[]),
                Err(RowFault::WrongWidth { found: 0, expected }) if expected == d
            ),
            "{plane}"
        );
        assert_eq!(try_classify(&bad), Err(RowFault::NonFinite { column: d - 1 }), "{plane}");
        assert_eq!(try_classify(&alien), Err(RowFault::GroupOutOfDomain), "{plane}");
    };
    check("reference", &|row| model.try_classify(row));
    check("compiled", &|row| compiled.try_classify(row));
}

#[test]
fn snapshot_corruption_matrix_is_always_caught() {
    let split = fixture(800, 36);
    let model = FalccModel::fit(&split.train, &split.validation, &config(36, 0))
        .expect("fit");
    let saved = SavedFalccModel::capture(&model).expect("capture");
    let json = saved.to_json().expect("serialise");
    let reference = SavedFalccModel::from_json(&json)
        .expect("pristine snapshot loads")
        .restore()
        .predict_dataset(&split.test);

    // Bit flips across the whole snapshot, via the fault harness. Every
    // mangled snapshot either fails typed, or — when the flip lands in
    // JSON whitespace/structure that serde normalises away — restores to
    // the identical model. It must never load as a *different* model.
    let stride = (json.len() / 97).max(1);
    for offset in (0..json.len()).step_by(stride) {
        let mut plan = FaultPlan::default();
        plan.flip_snapshot_byte(offset);
        let mut bytes = json.clone().into_bytes();
        plan.mangle_snapshot(&mut bytes);
        let mangled = String::from_utf8_lossy(&bytes).into_owned();
        match SavedFalccModel::from_json(&mangled) {
            Err(
                FalccError::SnapshotCorrupt { .. } | FalccError::SnapshotVersionSkew { .. },
            ) => {}
            Err(other) => panic!("flip at {offset}: wrong error type {other}"),
            Ok(loaded) => {
                assert_eq!(
                    loaded.restore().predict_dataset(&split.test),
                    reference,
                    "flip at {offset} silently changed the model"
                );
            }
        }
    }

    // Truncations at every length bucket.
    for keep in [0, 1, 2, json.len() / 4, json.len() / 2, json.len() - 2, json.len() - 1] {
        let mut plan = FaultPlan::default();
        plan.truncate_snapshot(keep);
        let mut bytes = json.clone().into_bytes();
        plan.mangle_snapshot(&mut bytes);
        let mangled = String::from_utf8_lossy(&bytes).into_owned();
        assert!(
            matches!(
                SavedFalccModel::from_json(&mangled),
                Err(FalccError::SnapshotCorrupt { .. })
            ),
            "truncation to {keep} bytes must be SnapshotCorrupt"
        );
    }
}

#[test]
fn artifact_corruption_matrix_is_always_caught() {
    let split = fixture(800, 38);
    let model = FalccModel::fit(&split.train, &split.validation, &config(38, 0))
        .expect("fit");
    let compiled = model.compile();
    const FP: u64 = 0xdead_beef_cafe_f00d;
    let bytes = compiled.to_artifact_bytes(FP).expect("serialise");
    let reference = falcc::CompiledModelBuf::from_bytes(bytes.clone())
        .expect("pristine artifact validates")
        .load_if_fresh(FP)
        .expect("pristine artifact loads")
        .predict_dataset(&split.test);
    assert_eq!(reference, compiled.predict_dataset(&split.test));

    // Bit flips at a stride across the whole file (header, section
    // table, slab bytes), plus every inter-section padding byte, which no
    // checksum covers. Unlike the JSON envelope (where serde may normalise
    // whitespace damage away), the binary envelope has no slack: every
    // flipped byte must be rejected typed, with the error variant
    // determined by where the flip landed.
    let mut padding = Vec::new();
    let mut prev_end = 32 + 11 * 32;
    for id in 0..11 {
        let entry = 32 + id * 32;
        let field = |at: usize| {
            u64::from_le_bytes(bytes[entry + at..entry + at + 8].try_into().expect("8 bytes"))
                as usize
        };
        padding.extend(prev_end..field(8));
        prev_end = field(8) + field(16);
    }
    assert_eq!(prev_end, bytes.len(), "the last section ends the file");
    assert!(!padding.is_empty(), "the fixture's layout must carry padding");
    let stride = (bytes.len() / 97).max(1);
    for offset in (0..bytes.len()).step_by(stride).chain([8, 16, 24]).chain(padding) {
        let mut mangled = bytes.clone();
        flip_byte(&mut mangled, offset);
        let outcome = falcc::CompiledModelBuf::from_bytes(mangled)
            .and_then(|buf| buf.load_if_fresh(FP));
        match outcome {
            Err(FalccError::ArtifactCorrupt { .. }) => {}
            Err(FalccError::ArtifactVersionSkew { .. }) => {
                assert!(
                    (8..12).contains(&offset),
                    "flip at {offset} misreported as version skew"
                );
            }
            Err(FalccError::ArtifactStale { .. }) => {
                assert!(
                    (16..24).contains(&offset),
                    "flip at {offset} misreported as stale"
                );
            }
            Err(other) => panic!("flip at {offset}: wrong error type {other}"),
            Ok(_) => panic!("flip at {offset} loaded anyway"),
        }
    }

    // Truncations at every length bucket, including mid-header and
    // mid-slab cuts.
    for keep in
        [0, 1, 2, 31, 100, bytes.len() / 4, bytes.len() / 2, bytes.len() - 2, bytes.len() - 1]
    {
        let mut mangled = bytes.clone();
        truncate_bytes(&mut mangled, keep);
        assert!(
            matches!(
                falcc::CompiledModelBuf::from_bytes(mangled),
                Err(FalccError::ArtifactCorrupt { .. })
            ),
            "truncation to {keep} bytes must be ArtifactCorrupt"
        );
    }

    // Bytes appended after the last section are covered by no checksum;
    // the end-of-file rule rejects them.
    let mut longer = bytes.clone();
    longer.extend_from_slice(&[0; 8]);
    assert!(matches!(
        falcc::CompiledModelBuf::from_bytes(longer),
        Err(FalccError::ArtifactCorrupt { .. })
    ));

    // Alignment violation with *valid* checksums: shift a section offset
    // off the 8-byte grid and re-seal both the section checksum and the
    // table checksum, so only the alignment rule can catch it.
    let mut mangled = bytes.clone();
    let entry = 32 + 32; // section 1's table entry
    let offset =
        u64::from_le_bytes(mangled[entry + 8..entry + 16].try_into().expect("8 bytes"));
    let len =
        u64::from_le_bytes(mangled[entry + 16..entry + 24].try_into().expect("8 bytes"));
    mangled[entry + 8..entry + 16].copy_from_slice(&(offset + 4).to_le_bytes());
    let body = &mangled[(offset + 4) as usize..(offset + 4 + len) as usize];
    let reseal = falcc::io::fnv1a64(body);
    mangled[entry + 24..entry + 32].copy_from_slice(&reseal.to_le_bytes());
    let table_checksum = falcc::io::fnv1a64(&mangled[32..32 + 11 * 32]);
    mangled[24..32].copy_from_slice(&table_checksum.to_le_bytes());
    match falcc::CompiledModelBuf::from_bytes(mangled) {
        Err(FalccError::ArtifactCorrupt { detail }) => {
            assert!(detail.contains("misaligned"), "{detail}");
        }
        Err(other) => panic!("misalignment: wrong error type {other}"),
        Ok(_) => panic!("misaligned section validated anyway"),
    }

    // Version skew on an otherwise intact file is its own typed variant.
    let mut skewed = bytes.clone();
    skewed[8] = 9;
    assert!(matches!(
        falcc::CompiledModelBuf::from_bytes(skewed),
        Err(FalccError::ArtifactVersionSkew {
            found: 9,
            expected: falcc::artifact::ARTIFACT_VERSION
        })
    ));

    // Stale fingerprint: the buffer validates but refuses to serve a
    // model compiled from a different snapshot.
    let rejected_before = falcc_telemetry::counters::ARTIFACTS_REJECTED.get();
    let buf = falcc::CompiledModelBuf::from_bytes(bytes).expect("validate");
    assert!(matches!(
        buf.load_if_fresh(FP ^ 1),
        Err(FalccError::ArtifactStale { found: FP, .. })
    ));
    if falcc_telemetry::enabled() {
        let rejected_after = falcc_telemetry::counters::ARTIFACTS_REJECTED.get();
        assert!(
            rejected_after > rejected_before,
            "typed artifact rejections must tick artifact.rejected"
        );
    }
    // The same buffer still serves the matching fingerprint.
    let again = buf.load_if_fresh(FP).expect("fresh load").predict_dataset(&split.test);
    assert_eq!(again, reference);
}

#[test]
fn corrupted_artifact_files_are_rejected_on_load() {
    let split = fixture(700, 39);
    let model = FalccModel::fit(&split.train, &split.validation, &config(39, 0))
        .expect("fit");
    let dir = std::env::temp_dir().join("falcc_artifact_robustness_test");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let path = dir.join("model.falccb");

    let compiled = model.compile();
    compiled.save_artifact(&path, 5).expect("save");
    let loaded = falcc::CompiledModel::load_artifact(&path).expect("pristine file loads");
    assert_eq!(
        loaded.predict_dataset(&split.test),
        compiled.predict_dataset(&split.test)
    );

    // Corrupt the file on disk, as a crash/bad-disk stand-in, and reload.
    let mut bytes = std::fs::read(&path).expect("read");
    let mid = bytes.len() / 2;
    flip_byte(&mut bytes, mid);
    std::fs::write(&path, &bytes).expect("write");
    assert!(matches!(
        falcc::CompiledModel::load_artifact(&path),
        Err(FalccError::ArtifactCorrupt { .. })
    ));

    // Arbitrary garbage is corruption too, not a panic.
    std::fs::write(&path, [0x00u8, 0x11, 0x22]).expect("write");
    assert!(matches!(
        falcc::CompiledModel::load_artifact(&path),
        Err(FalccError::ArtifactCorrupt { .. })
    ));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupted_snapshot_files_are_rejected_on_load() {
    let split = fixture(700, 37);
    let model = FalccModel::fit(&split.train, &split.validation, &config(37, 0))
        .expect("fit");
    let dir = std::env::temp_dir().join("falcc_robustness_test");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let path = dir.join("model.json");

    let saved = SavedFalccModel::capture(&model).expect("capture");
    saved.save_file(&path).expect("save");
    assert!(SavedFalccModel::load_file(&path).is_ok(), "pristine file loads");

    // Corrupt the file on disk through the harness, as a crash/bad-disk
    // stand-in, and reload.
    let mut bytes = std::fs::read(&path).expect("read");
    let mut plan = FaultPlan::default();
    plan.flip_snapshot_byte(bytes.len() / 2).truncate_snapshot(bytes.len() - 7);
    plan.mangle_snapshot(&mut bytes);
    std::fs::write(&path, &bytes).expect("write");
    assert!(matches!(
        SavedFalccModel::load_file(&path),
        Err(FalccError::SnapshotCorrupt { .. })
    ));

    // Non-UTF-8 garbage is corruption too, not an I/O panic.
    std::fs::write(&path, [0xFFu8, 0xFE, 0x00, 0x9F]).expect("write");
    assert!(matches!(
        SavedFalccModel::load_file(&path),
        Err(FalccError::SnapshotCorrupt { .. })
    ));

    std::fs::remove_dir_all(&dir).ok();
}

/// Fits on `split`, optionally journaling into `ckpt`, and returns the
/// serialised snapshot — the byte string all resumed runs must reproduce.
fn fit_snapshot(
    split: &ThreeWaySplit,
    seed: u64,
    ckpt: Option<(&Path, bool)>,
) -> Result<String, FalccError> {
    let mut cfg = config(seed, 0);
    if let Some((dir, resume)) = ckpt {
        let mut spec = CheckpointSpec::new(dir);
        spec.resume = resume;
        cfg.checkpoint = Some(spec);
    }
    let model = FalccModel::fit(&split.train, &split.validation, &cfg)?;
    SavedFalccModel::capture(&model).and_then(|s| s.to_json())
}

/// The snapshot corruption matrix, extended to checkpoint journals: bit
/// flips in every record file, manifest truncation buckets, and a
/// manifest-chain break all degrade to a shorter valid prefix — the
/// resumed model stays bit-identical to the uninterrupted run.
#[test]
fn checkpoint_journal_corruption_matrix_resumes_from_last_valid_prefix() {
    let split = fixture(700, 41);
    let root = std::env::temp_dir().join("falcc_journal_matrix");
    std::fs::remove_dir_all(&root).ok();
    std::fs::create_dir_all(&root).expect("mkdir");

    // Reference: one journaled run, equal to the journal-less fit, whose
    // journal files become the pristine state every case damages.
    let pristine_dir = root.join("pristine");
    let reference =
        fit_snapshot(&split, 41, Some((&pristine_dir, false))).expect("journaled fit");
    assert_eq!(
        reference,
        fit_snapshot(&split, 41, None).expect("plain fit"),
        "journaling must not change the fitted model"
    );
    let mut pristine: Vec<(String, Vec<u8>)> = std::fs::read_dir(&pristine_dir)
        .expect("read journal dir")
        .map(|e| {
            let e = e.expect("dir entry");
            let name = e.file_name().to_string_lossy().into_owned();
            (name.clone(), std::fs::read(e.path()).expect("read journal file"))
        })
        .collect();
    pristine.sort();
    let records: Vec<String> = pristine
        .iter()
        .map(|(n, _)| n.clone())
        .filter(|n| n.starts_with("ck_"))
        .collect();
    assert!(records.len() >= 10, "expected a multi-record journal, got {records:?}");

    let scratch = root.join("scratch");
    let restore = || {
        std::fs::remove_dir_all(&scratch).ok();
        std::fs::create_dir_all(&scratch).expect("mkdir scratch");
        for (name, bytes) in &pristine {
            std::fs::write(scratch.join(name), bytes).expect("restore journal file");
        }
    };
    let resume = || fit_snapshot(&split, 41, Some((&scratch, true)));

    // Bit-flip sweep: damage each record file in turn, once a third of
    // the way in and once near the tail. The manifest's record checksum
    // catches the flip and the prefix ends just before it.
    for name in &records {
        for offset_num in [3usize, 1usize] {
            restore();
            let path = scratch.join(name);
            let mut bytes = std::fs::read(&path).expect("read record");
            let offset = bytes.len() / offset_num - 3;
            assert!(flip_byte(&mut bytes, offset), "record files are never empty");
            std::fs::write(&path, &bytes).expect("write mangled record");
            assert_eq!(
                resume().expect("resume over flipped record"),
                reference,
                "flip in {name} at {offset} must fall back to the valid prefix"
            );
        }
    }

    // Truncation buckets on the manifest: empty file, mid-first-line tear,
    // quarter/half tears, and a torn final line (the mid-manifest crash
    // shape). Each yields a shorter valid prefix, never a wrong model.
    let manifest_len = pristine
        .iter()
        .find(|(n, _)| n == MANIFEST)
        .map(|(_, b)| b.len())
        .expect("manifest in pristine journal");
    for keep in [0, 10, manifest_len / 4, manifest_len / 2, manifest_len - 5] {
        restore();
        let path = scratch.join(MANIFEST);
        let mut bytes = std::fs::read(&path).expect("read manifest");
        assert!(truncate_bytes(&mut bytes, keep));
        std::fs::write(&path, &bytes).expect("write truncated manifest");
        assert_eq!(
            resume().expect("resume over truncated manifest"),
            reference,
            "manifest truncated to {keep} bytes must fall back to the valid prefix"
        );
    }

    // Chain break: splice out a middle manifest line. The successor's
    // predecessor-checksum no longer matches, so the prefix ends at the
    // splice even though every remaining line is individually pristine.
    restore();
    let path = scratch.join(MANIFEST);
    let text = std::fs::read_to_string(&path).expect("read manifest");
    let lines: Vec<&str> = text.lines().collect();
    let spliced: Vec<&str> = lines
        .iter()
        .enumerate()
        .filter(|(i, _)| *i != lines.len() / 2)
        .map(|(_, l)| *l)
        .collect();
    std::fs::write(&path, spliced.join("\n") + "\n").expect("write spliced manifest");
    assert_eq!(
        resume().expect("resume over spliced manifest"),
        reference,
        "a manifest-chain break must fall back to the valid prefix"
    );

    // Stale generation: a journal written under one seed must be rejected
    // typed when resumed under another — never spliced in.
    restore();
    match fit_snapshot(&split, 42, Some((&scratch, true))) {
        Err(FalccError::CheckpointStale { found, expected }) => {
            assert_ne!(found, expected);
        }
        Err(other) => panic!("expected CheckpointStale, got {other}"),
        Ok(_) => panic!("a foreign-generation journal must not resume"),
    }
    // ... while a fresh (non-resume) fit wipes it and proceeds.
    assert!(fit_snapshot(&split, 42, Some((&scratch, false))).is_ok());

    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn degraded_models_survive_a_persistence_round_trip() {
    // Degradation (quarantine + fallbacks) must not produce a model that
    // fails to serialise or round-trips to different predictions.
    let split = fixture(900, 38);
    let mut cfg = config(38, 0);
    cfg.faults = stacked_plan();
    let model = FalccModel::fit(&split.train, &split.validation, &cfg).expect("fit");
    let json = SavedFalccModel::capture(&model)
        .expect("capture degraded model")
        .to_json()
        .expect("serialise");
    let revived = SavedFalccModel::from_json(&json).expect("reload").restore();
    assert_eq!(
        revived.predict_dataset(&split.test),
        model.predict_dataset(&split.test),
        "degraded model round-trips bit-identically"
    );
    // Restored models carry no fault schedule.
    assert!(revived.fault_plan().is_empty());
}
