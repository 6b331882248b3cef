//! Efficiency integration tests — the paper's headline claim (Fig. 6) as a
//! testable invariant: FALCC's online phase must be substantially cheaper
//! than FALCES's, because FALCC replaces per-sample kNN + combination
//! assessment with a nearest-centroid lookup. FALCC is timed on the plane
//! that serves it, `FalccModel::compile`.
//!
//! Wall-clock assertions are inherently jittery; the margins here are an
//! order of magnitude below the real gap (typically 10–100×), so the tests
//! stay robust on loaded machines.
//!
//! Two ignored tests hold bounds that only mean something in a release
//! build at benchmark scale (Adult (sex) at scale 0.10, seed 11); run them
//! with `cargo test --release --test efficiency -- --ignored`. Both fail
//! at this commit, each for the reason its `ignore` attribute gives.

use falcc::{
    CheckpointSpec, ClusterSpec, CompiledModel, FairClassifier, FalccConfig, FalccModel,
    SavedFalccModel,
};
use falcc_baselines::{Falces, FalcesConfig};
use falcc_dataset::{real, synthetic};
use falcc_dataset::{SplitRatios, ThreeWaySplit};
use falcc_metrics::{FairnessMetric, LossConfig};
use falcc_models::{ModelPool, PoolConfig, TrainerKind};
use std::hint::black_box;
use std::time::Instant;

fn timed_predict(model: &dyn FairClassifier, test: &falcc_dataset::Dataset) -> f64 {
    // Warm up once, then take the best of three (noise-resistant).
    let _ = model.predict_dataset(test);
    (0..3)
        .map(|_| {
            let start = Instant::now();
            let _ = model.predict_dataset(test);
            start.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

#[test]
fn falcc_online_phase_is_faster_than_falces() {
    let ds = synthetic::social30(1).expect("generate");
    let ds = ds.subset(&(0..4000).collect::<Vec<_>>()).expect("subset");
    let split = ThreeWaySplit::split(&ds, SplitRatios::PAPER, 1).expect("split");

    let mut cfg = FalccConfig::default();
    cfg.scale_for_tests();
    let falcc = FalccModel::fit(&split.train, &split.validation, &cfg).expect("falcc").compile();

    let pool = ModelPool::standard_five(&split.train, 1);
    let falces =
        Falces::fit(pool, &split.validation, &FalcesConfig::default()).expect("falces");

    let t_falcc = timed_predict(&falcc, &split.test);
    let t_falces = timed_predict(&falces, &split.test);
    assert!(
        t_falcc < t_falces,
        "FALCC online ({t_falcc:.4}s) must beat FALCES ({t_falces:.4}s)"
    );
}

#[test]
fn falcc_online_cost_does_not_explode_with_group_count() {
    // Fit on 2-group and 4-group data of identical size; FALCC's online
    // cost is O(k·d) + one model call regardless of |G| (combination
    // lookup is O(1)), so the per-sample cost should stay within a small
    // factor. (FALCES, by contrast, scales its combination assessment with
    // |combos| = |M|^|G| — the paper's Adult(2) vs Adult(4) observation.)
    use falcc_dataset::real;
    let two = real::adult_sex().generate(2, 0.03).expect("2-group");
    let four = real::adult_sex_race().generate(2, 0.03).expect("4-group");

    let per_sample = |ds: falcc_dataset::Dataset| {
        let split = ThreeWaySplit::split(&ds, SplitRatios::PAPER, 2).expect("split");
        let mut cfg = FalccConfig::default();
        cfg.scale_for_tests();
        let model = FalccModel::fit(&split.train, &split.validation, &cfg).expect("fit");
        timed_predict(&model.compile(), &split.test) / split.test.len() as f64
    };
    let t2 = per_sample(two);
    let t4 = per_sample(four);
    assert!(
        t4 < t2 * 10.0,
        "4-group per-sample cost {t4:.2e}s vs 2-group {t2:.2e}s — should not explode"
    );
}

#[test]
fn offline_phase_is_where_the_cost_lives() {
    // Sanity on the design: offline fit >> total online pass (on equal
    // data). This is the trade the paper's architecture makes explicit.
    let ds = synthetic::social30(2).expect("generate");
    let ds = ds.subset(&(0..3000).collect::<Vec<_>>()).expect("subset");
    let split = ThreeWaySplit::split(&ds, SplitRatios::PAPER, 2).expect("split");
    let mut cfg = FalccConfig::default();
    cfg.scale_for_tests();

    let start = Instant::now();
    let model = FalccModel::fit(&split.train, &split.validation, &cfg).expect("fit");
    let offline = start.elapsed().as_secs_f64();
    let online = timed_predict(&model.compile(), &split.test);
    assert!(
        offline > online,
        "offline ({offline:.4}s) should dominate one online pass ({online:.4}s)"
    );
}

/// Seed and split of the two benchmark-scale tests below.
const SEED: u64 = 11;

/// The benchmark-scale tests time wall clock, so they take turns instead
/// of sharing the host's cores on cargo's parallel test threads.
static TIMING: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn adult_sex_at_benchmark_scale() -> ThreeWaySplit {
    let ds = real::adult_sex().generate(SEED, 0.10).expect("generate");
    ThreeWaySplit::split(&ds, SplitRatios::PAPER, SEED).expect("split")
}

/// The binary artifact must load at least this many times faster than
/// JSON restore+compile. The bound catches a load path that has
/// degenerated back into per-field parsing. It was set against snapshot
/// format 3; format 4's leaner JSON path leaves the artifact about 4×
/// ahead, so the test below fails.
const COLD_START_MIN_SPEEDUP: f64 = 10.0;

/// Minimum per-call milliseconds of `a` and of `b` over `samples`
/// samples each, alternating `a` and `b` so host drift hits both alike.
/// Each sample repeats its call until it spans about 4 ms, and the
/// minimum is the sample least disturbed by the rest of the host.
fn alternated_minima(samples: usize, mut a: impl FnMut(), mut b: impl FnMut()) -> (f64, f64) {
    fn calls_per_sample(f: &mut impl FnMut()) -> usize {
        let start = Instant::now();
        f();
        (0.004 / start.elapsed().as_secs_f64().max(1e-9)).ceil().clamp(1.0, 100_000.0) as usize
    }
    fn sample_ms(f: &mut impl FnMut(), calls: usize) -> f64 {
        let start = Instant::now();
        for _ in 0..calls {
            f();
        }
        start.elapsed().as_secs_f64() * 1_000.0 / calls as f64
    }
    let (calls_a, calls_b) = (calls_per_sample(&mut a), calls_per_sample(&mut b));
    let (mut min_a, mut min_b) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..samples {
        min_a = min_a.min(sample_ms(&mut a, calls_a));
        min_b = min_b.min(sample_ms(&mut b, calls_b));
    }
    (min_a, min_b)
}

/// Serving cold start: the binary artifact against the JSON snapshot's
/// read, parse, restore and compile, both read back from disk on every
/// call. The model is ensemble-heavy: the whole AdaBoost grid
/// (`pool_size` 0) with k = 8.
#[test]
#[ignore = "fails at this commit: snapshot format 4 made JSON restore+compile about 3x \
            faster while the artifact load did not change, so the artifact is about 4x ahead, \
            not 10x; run with --release -- --ignored"]
fn artifact_cold_start_beats_json_restore_and_compile() {
    let _turn = TIMING.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let split = adult_sex_at_benchmark_scale();
    let cfg = FalccConfig {
        clustering: ClusterSpec::FixedK(8),
        pool: PoolConfig {
            trainer: TrainerKind::AdaBoost,
            pool_size: 0,
            seed: SEED,
            ..Default::default()
        },
        seed: SEED,
        ..FalccConfig::default()
    };
    let model = FalccModel::fit(&split.train, &split.validation, &cfg).expect("fit");
    let dir = std::env::temp_dir().join(format!("falcc_cold_start_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let json_path = dir.join("model.json");
    let artifact_path = falcc::sibling_artifact_path(&json_path);
    SavedFalccModel::capture(&model).expect("capture").save_file(&json_path).expect("save");
    let fingerprint = falcc::io::fnv1a64(&std::fs::read(&json_path).expect("read snapshot"));
    model.compile().save_artifact(&artifact_path, fingerprint).expect("save artifact");

    let (json_ms, artifact_ms) = alternated_minima(
        15,
        || {
            let saved = SavedFalccModel::load_file(&json_path).expect("load snapshot");
            black_box(saved.restore().compile());
        },
        || {
            black_box(CompiledModel::load_artifact(&artifact_path).expect("load artifact"));
        },
    );
    std::fs::remove_dir_all(&dir).ok();
    let speedup = json_ms / artifact_ms;
    println!("cold start: JSON {json_ms:.3} ms, artifact {artifact_ms:.3} ms, {speedup:.1}x");
    assert!(
        speedup >= COLD_START_MIN_SPEEDUP,
        "artifact cold start only {speedup:.1}x faster than JSON restore+compile \
         (bound {COLD_START_MIN_SPEEDUP}x)"
    );
}

/// Bound on what checkpoint journaling adds to an end-to-end run at
/// benchmark scale, where the journal's atomic writes amortise over
/// real pool training.
const CHECKPOINT_OVERHEAD_MAX_PCT: f64 = 3.0;

/// Milliseconds of one end-to-end run — fit, compile, and
/// `predict_dataset` on the test split — on one thread, journaling into
/// a fresh journal in `journal` when given.
fn end_to_end_ms(split: &ThreeWaySplit, journal: Option<&std::path::Path>) -> f64 {
    let mut cfg = FalccConfig {
        loss: LossConfig::balanced(FairnessMetric::DemographicParity),
        seed: SEED,
        threads: 1,
        checkpoint: journal.map(CheckpointSpec::new),
        ..Default::default()
    };
    cfg.pool.seed = SEED;
    let start = Instant::now();
    let model = FalccModel::fit(&split.train, &split.validation, &cfg).expect("fit");
    black_box(model.compile().predict_dataset(&split.test));
    start.elapsed().as_secs_f64() * 1_000.0
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

#[test]
#[ignore = "fails at this commit: the fit is about 5x faster than when this bound was set, \
            while the journal's durable commits cost the same, so journaling adds 15% to 40%; \
            run with --release -- --ignored"]
fn checkpoint_journaling_costs_under_three_percent() {
    let _turn = TIMING.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let split = adult_sex_at_benchmark_scale();
    let journal = std::env::temp_dir().join(format!("falcc_journal_cost_{}", std::process::id()));
    end_to_end_ms(&split, None);
    end_to_end_ms(&split, Some(&journal));
    let (mut plain, mut journaled) = (Vec::new(), Vec::new());
    for pair in 0..10 {
        // Alternate which side runs first so host drift hits both alike.
        if pair % 2 == 0 {
            plain.push(end_to_end_ms(&split, None));
            journaled.push(end_to_end_ms(&split, Some(&journal)));
        } else {
            journaled.push(end_to_end_ms(&split, Some(&journal)));
            plain.push(end_to_end_ms(&split, None));
        }
    }
    std::fs::remove_dir_all(&journal).ok();
    let (plain_ms, journaled_ms) = (median(plain), median(journaled));
    let overhead_pct = (journaled_ms - plain_ms) / plain_ms * 100.0;
    println!("plain {plain_ms:.1} ms, journaled {journaled_ms:.1} ms: {overhead_pct:+.1}%");
    assert!(
        overhead_pct < CHECKPOINT_OVERHEAD_MAX_PCT,
        "checkpoint journaling cost {overhead_pct:+.1}% end to end \
         (bound {CHECKPOINT_OVERHEAD_MAX_PCT}%)"
    );
}
