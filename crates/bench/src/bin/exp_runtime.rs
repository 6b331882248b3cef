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

/// The FALCC configuration `fit_algorithm` uses, with an explicit thread
/// count — for the offline-phase scaling measurement.
fn falcc_config(metric: falcc_metrics::FairnessMetric, seed: u64, threads: usize) -> FalccConfig {
    let mut cfg = FalccConfig {
        loss: LossConfig::balanced(metric),
        seed,
        threads,
        ..Default::default()
    };
    cfg.pool.seed = seed;
    cfg
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
    let mut offline_table = Table::new(
        "Offline-phase fit wall-clock (seconds) vs worker threads — identical models",
        &["dataset", "threads=1", "threads=4", "speedup"],
    );

    for dataset in datasets {
        let seed = opts.seed;
        let ds = dataset.generate(seed, opts.scale);
        let split = ThreeWaySplit::split(&ds, SplitRatios::PAPER, seed).expect("split");
        let n_groups = split.test.group_index().len();
        let pools = PoolSet::build(&split, seed);

        // FALCC: fit once per thread count — wall-clock scaling for the
        // offline table, and a determinism spot-check (the parallel layer
        // guarantees bit-identical models for every thread count).
        let start = Instant::now();
        let falcc_seq =
            FalccModel::fit(&split.train, &split.validation, &falcc_config(metric, seed, 1))
                .expect("group coverage");
        let fit_1t = start.elapsed().as_secs_f64();
        let start = Instant::now();
        let falcc =
            FalccModel::fit(&split.train, &split.validation, &falcc_config(metric, seed, 4))
                .expect("group coverage");
        let fit_4t = start.elapsed().as_secs_f64();
        assert_eq!(
            falcc_seq.predict_dataset(&split.test),
            falcc.predict_dataset(&split.test),
            "thread count changed the fitted model"
        );
        offline_table.push(vec![
            dataset.name().into(),
            format!("{fit_1t:.3}"),
            format!("{fit_4t:.3}"),
            format!("{:.2}x", fit_1t / fit_4t),
        ]);

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
    print!("{}", offline_table.render());
    write_csv(&table, &out, "fig6_runtime.csv");
    write_csv(&offline_table, &out, "offline_scaling.csv");

    // Serving cold start next to the runtime numbers: the JSON
    // restore+compile path a replica pays today vs the persisted binary
    // artifact (see `exp_artifacts` for the JSON report and the gates).
    let art = falcc_bench::bench_artifacts(opts.scale, opts.seed, if opts.smoke { 1 } else { 3 });
    let mut art_table = Table::new(
        "Serving cold start — JSON restore+compile vs binary artifact, Adult (sex)",
        &["path", "ms", "speedup", "equivalent"],
    );
    art_table.push(vec![
        "json restore+compile".into(),
        format!("{:.2}", art.json_cold_ms),
        "baseline".into(),
        "-".into(),
    ]);
    art_table.push(vec![
        "binary artifact load".into(),
        format!("{:.2}", art.artifact_cold_ms),
        format!("{:.1}x", art.cold_start_speedup),
        art.equivalent.to_string(),
    ]);
    print!("{}", art_table.render());
    write_csv(&art_table, &out, "cold_start.csv");

    // Any --profile/--trace-out output covers the comparison above; the
    // sections below manage telemetry state themselves.
    opts.finish_telemetry();
    phase_breakdown(&opts, &out);
    overhead_report(&opts);
}

/// Per-phase wall-clock of one FALCC fit + batch classification through
/// the serving plane, from the telemetry span tree — the paper's Fig. 6
/// split into pipeline stages.
fn phase_breakdown(opts: &Opts, out: &std::path::Path) {
    let was_enabled = falcc_telemetry::enabled();
    falcc_telemetry::enable();
    falcc_telemetry::reset();

    let seed = opts.seed;
    let ds = BenchDataset::AdultSex.generate(seed, opts.scale);
    let split = ThreeWaySplit::split(&ds, SplitRatios::PAPER, seed).expect("split");
    let metric = falcc_metrics::FairnessMetric::DemographicParity;
    let model =
        FalccModel::fit(&split.train, &split.validation, &falcc_config(metric, seed, 1))
            .expect("group coverage");
    let preds = model.compile().predict_dataset(&split.test);
    assert_eq!(preds.len(), split.test.len());

    let snap = falcc_telemetry::snapshot();
    let total = snap.total_ns("offline.fit");
    let phases = [
        ("offline.proxy", "proxy analysis"),
        ("offline.projection", "projection"),
        ("offline.k_estimation", "k estimation"),
        ("offline.clustering", "clustering"),
        ("offline.pool_training", "pool training"),
        ("offline.gap_fill", "gap fill"),
        ("offline.pool_predictions", "pool predictions"),
        ("offline.assessment", "assessment"),
        ("serve.classify_batch", "online (batch)"),
    ];
    let mut table = Table::new(
        "Per-phase wall-clock — one FALCC fit + test classification, Adult (sex)",
        &["phase", "span", "time", "% of offline"],
    );
    for (span_name, label) in phases {
        let ns = snap.total_ns(span_name);
        let pct = if total > 0 && span_name.starts_with("offline.") {
            format!("{:.1}", ns as f64 / total as f64 * 100.0)
        } else {
            "-".into()
        };
        table.push(vec![
            label.into(),
            span_name.into(),
            falcc_telemetry::sink::fmt_ns(ns),
            pct,
        ]);
    }
    print!("{}", table.render());
    write_csv(&table, out, "phase_breakdown.csv");

    if !was_enabled {
        falcc_telemetry::disable();
    }
    falcc_telemetry::reset();
}

/// Measures telemetry overhead (enabled vs disabled) and writes
/// `BENCH_telemetry.json` at the repo root. In `--smoke` mode the
/// disabled-path cost gates CI.
fn overhead_report(opts: &Opts) {
    let was_enabled = falcc_telemetry::enabled();
    falcc_telemetry::disable();
    let (scale, reps) = if opts.smoke { (0.02, 1) } else { (opts.scale, 3) };
    let report = falcc_bench::measure_overhead(scale, opts.seed, reps);

    let mut table = Table::new(
        "Telemetry overhead — end-to-end fit + classify, Adult (sex)",
        &["state", "median_ms", "overhead"],
    );
    table.push(vec!["disabled".into(), format!("{:.1}", report.disabled_ms), "baseline".into()]);
    table.push(vec![
        "enabled".into(),
        format!("{:.1}", report.enabled_ms),
        format!("{:+.2}%", report.enabled_overhead_pct),
    ]);
    table.push(vec![
        "monitored".into(),
        format!("{:.1}", report.monitor_ms),
        format!("{:+.2}%", report.monitor_overhead_pct),
    ]);
    table.push(vec![
        "checkpointed".into(),
        format!("{:.1}", report.checkpoint_ms),
        format!("{:+.2}%", report.checkpoint_overhead_pct),
    ]);
    print!("{}", table.render());
    println!(
        "disabled hot path: {:.1} ns/counter update, {:.1} ns/span guard, \
         {:.1} ns/uninstalled monitor probe \
         ({} spans recorded when enabled; predictions identical: {})",
        report.disabled_counter_ns,
        report.disabled_span_ns,
        report.disabled_monitor_ns,
        report.spans_recorded,
        report.predictions_identical,
    );
    println!(
        "live monitors: {} window(s) retained; predictions identical with \
         monitors installed: {}",
        report.monitor_windows_recorded, report.monitor_predictions_identical,
    );
    println!(
        "checkpoint journaling: {} commit(s) per run, {:+.2}% end-to-end; \
         predictions identical with journaling on: {}",
        report.checkpoint_commits,
        report.checkpoint_overhead_pct,
        report.checkpoint_predictions_identical,
    );

    let json = serde_json::to_string(&report).expect("serialise report");
    std::fs::write("BENCH_telemetry.json", json).expect("write BENCH_telemetry.json");
    falcc_telemetry::progress("wrote BENCH_telemetry.json");

    assert!(report.predictions_identical, "telemetry perturbed predictions");
    assert!(report.monitor_predictions_identical, "live monitors perturbed predictions");
    assert!(
        report.checkpoint_predictions_identical,
        "checkpoint journaling perturbed predictions"
    );
    // The checkpoint-overhead bound only means something once pool
    // training dominates: gate it at benchmark scale, where the journal's
    // ~20 atomic writes amortise over real fitting work. Smoke scale
    // (0.02) records the number without gating — there the fixed fsync
    // cost dwarfs the tiny fit and the percentage is pure noise.
    if !opts.smoke && scale >= 0.10 {
        let bound = falcc_bench::overhead::CHECKPOINT_OVERHEAD_MAX_PCT;
        if report.checkpoint_overhead_pct >= bound {
            eprintln!(
                "checkpoint journaling cost {:+.2}% end-to-end at scale {scale} \
                 (bound {bound}%)",
                report.checkpoint_overhead_pct
            );
            std::process::exit(1);
        }
    }
    if opts.smoke {
        // The end-to-end percentage is too noisy to gate CI at smoke
        // scale; the disabled-path cost is the stable regression signal.
        let bound = falcc_bench::overhead::DISABLED_PATH_MAX_NS;
        if report.disabled_counter_ns > bound
            || report.disabled_span_ns > bound
            || report.disabled_monitor_ns > bound
        {
            eprintln!(
                "disabled-path overhead regressed: counter {:.1} ns, span {:.1} ns, \
                 monitor probe {:.1} ns (bound {bound} ns)",
                report.disabled_counter_ns, report.disabled_span_ns, report.disabled_monitor_ns
            );
            std::process::exit(1);
        }
    }
    if was_enabled {
        falcc_telemetry::enable();
    }
}
