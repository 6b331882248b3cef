//! E-F6 — regenerates the paper's **Fig. 6**: online-phase runtime of
//! FALCC vs FALCES-FASTEST vs OTHER-FASTEST across datasets, including the
//! Adult dataset with 2 and 4 sensitive groups (FALCES scales poorly in
//! the group count; FALCC does not).
//!
//! "FASTEST" follows the paper: among the FALCES family the variant with
//! the lowest per-sample latency (in practice a PFA variant), and among
//! the remaining algorithms the fastest one (which is rarely the most
//! accurate — the point is the envelope).

use falcc_bench::algos::{fit_algorithm, Algo, PoolSet};
use falcc_bench::report::write_csv;
use falcc_bench::{BenchDataset, Opts, Table};
use falcc_dataset::{Dataset, SplitRatios, ThreeWaySplit};
use falcc::{CompiledModel, FairClassifier, FalccConfig, FalccModel};
use falcc_metrics::LossConfig;
use std::time::Instant;

/// Median-of-runs per-sample latency of one model's online phase, in
/// microseconds.
fn online_micros(model: &dyn FairClassifier, test: &Dataset, reps: usize) -> f64 {
    let mut times: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let start = Instant::now();
            let preds = model.predict_dataset(test);
            let elapsed = start.elapsed().as_nanos() as f64;
            assert_eq!(preds.len(), test.len());
            elapsed / test.len() as f64 / 1_000.0
        })
        .collect();
    times.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    times[times.len() / 2]
}

/// Median-of-runs per-sample latency of the serving plane's batched
/// entry point (`classify_batch`), in microseconds.
fn batched_micros(compiled: &CompiledModel, rows: &[Vec<f64>], reps: usize) -> f64 {
    let mut times: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let start = Instant::now();
            let preds = compiled.classify_batch(rows);
            let elapsed = start.elapsed().as_nanos() as f64;
            assert_eq!(preds.len(), rows.len());
            assert!(preds.iter().all(Result::is_ok));
            elapsed / rows.len() as f64 / 1_000.0
        })
        .collect();
    times.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    times[times.len() / 2]
}

fn main() {
    let opts = Opts::from_args();
    let out = opts.ensure_out_dir().to_path_buf();
    let metric = falcc_metrics::FairnessMetric::DemographicParity;
    let datasets = [
        BenchDataset::Compas,
        BenchDataset::CreditCard,
        BenchDataset::AdultSex,     // "Adult Data (2)" in the paper
        BenchDataset::AdultSexRace, // "Adult Data (4)"
        BenchDataset::Implicit30,
    ];

    let mut table = Table::new(
        "Fig. 6 — online-phase runtime, microseconds per sample (median of reps)",
        &["dataset", "groups", "FALCC", "FALCC-batch", "compiled rows/s", "FALCES-FASTEST", "(variant)", "OTHER-FASTEST", "(algo)"],
    );

    for dataset in datasets {
        let seed = opts.seed;
        let ds = dataset.generate(seed, opts.scale);
        let split = ThreeWaySplit::split(&ds, SplitRatios::PAPER, seed).expect("split");
        let n_groups = split.test.group_index().len();
        let pools = PoolSet::build(&split, seed);

        // The FALCC configuration `fit_algorithm` uses.
        let mut cfg = FalccConfig { loss: LossConfig::balanced(metric), seed, ..Default::default() };
        cfg.pool.seed = seed;
        let falcc =
            FalccModel::fit(&split.train, &split.validation, &cfg).expect("group coverage");

        // FALCC serves through its compiled plane. Per-sample latency
        // (Fig. 6 proper) stays sequential so the comparison with the
        // single-threaded baselines is apples to apples; the batch
        // columns show the deployed throughput on every core.
        let mut compiled = falcc.compile();
        compiled.set_threads(1);
        let falcc_us = online_micros(&compiled, &split.test, 3);
        let rows: Vec<Vec<f64>> =
            (0..split.test.len()).map(|i| split.test.row(i).to_vec()).collect();
        compiled.set_threads(0);
        let falcc_batch_us = batched_micros(&compiled, &rows, 3);
        let compiled_rows_s = 1_000_000.0 / falcc_batch_us.max(1e-9);
        drop(compiled);

        // FALCES family → fastest variant.
        let falces = fit_algorithm(Algo::FalcesBest, &split, &pools, metric, seed);
        let (falces_us, falces_name) = falces
            .iter()
            .map(|f| (online_micros(f.model.as_ref(), &split.test, 3), f.name.clone()))
            .min_by(|a, b| a.0.partial_cmp(&b.0).expect("finite"))
            .expect("four variants");

        // Other algorithms → fastest.
        let mut other: Option<(f64, String)> = None;
        for algo in [Algo::FairBoost, Algo::Lfr, Algo::IFair, Algo::Fax, Algo::FairSmote, Algo::Decouple] {
            for f in fit_algorithm(algo, &split, &pools, metric, seed) {
                let us = online_micros(f.model.as_ref(), &split.test, 3);
                if other.as_ref().is_none_or(|(best, _)| us < *best) {
                    other = Some((us, f.name.clone()));
                }
            }
        }
        let (other_us, other_name) = other.expect("at least one other algorithm");

        table.push(vec![
            dataset.name().into(),
            n_groups.to_string(),
            format!("{falcc_us:.2}"),
            format!("{falcc_batch_us:.2}"),
            format!("{compiled_rows_s:.0}"),
            format!("{falces_us:.2}"),
            falces_name,
            format!("{other_us:.2}"),
            other_name,
        ]);
        falcc_telemetry::progress(format!(
            "[exp_runtime] finished dataset {}",
            dataset.name()
        ));
    }

    print!("{}", table.render());
    write_csv(&table, &out, "fig6_runtime.csv");
    opts.finish_telemetry();
}
