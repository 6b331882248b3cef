//! Efficiency integration tests — the paper's headline claim (Fig. 6) as a
//! testable invariant: FALCC's online phase must be substantially cheaper
//! than FALCES's, because FALCC replaces per-sample kNN + combination
//! assessment with a nearest-centroid lookup. FALCC is timed on the plane
//! that serves it, `FalccModel::compile`.
//!
//! Wall-clock assertions are inherently jittery; the margins here are an
//! order of magnitude below the real gap (typically 10–100×), so the tests
//! stay robust on loaded machines.

use falcc::{FairClassifier, FalccConfig, FalccModel};
use falcc_baselines::{Falces, FalcesConfig};
use falcc_dataset::synthetic;
use falcc_dataset::{SplitRatios, ThreeWaySplit};
use falcc_models::ModelPool;
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
