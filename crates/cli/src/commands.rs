//! Implementation of the CLI subcommands. Each returns its stdout text so
//! the whole flow is unit-testable in-process.

use crate::args::{Command, ModelDataArgs, MonitorArgs, PredictArgs, RunArgs, TrainArgs};
use crate::{CliError, USAGE};
use falcc::{
    auto_tune, sibling_artifact_path, CheckpointSpec, CompiledModel, CompiledModelBuf,
    FairClassifier, FalccConfig, FalccError, FalccModel, SavedFalccModel,
};
use falcc_dataset::{csv, split, Dataset, SplitRatios, ThreeWaySplit};
use falcc_metrics::individual::consistency;
use falcc_metrics::{accuracy, FairnessMetric, LossConfig};
use std::fmt::Write as _;

/// Executes one parsed command.
///
/// # Errors
/// [`CliError`] with exit code 1 on runtime failures.
pub fn execute(command: Command) -> Result<String, CliError> {
    match command {
        Command::Help => Ok(USAGE.to_string()),
        Command::Train(args) => train(args),
        Command::Predict(args) => predict(args),
        Command::Audit(args) => audit(args),
        Command::Info { model } => info(&model),
        Command::Run(args) => run_demo(args),
        Command::Monitor(args) => monitor_report(&args),
    }
}

/// `falcc run`: the full pipeline on a synthetic benchmark dataset — no
/// input files needed. Exists mainly as a profiling target: with
/// `--profile`/`--trace-out` it exercises every instrumented phase of the
/// offline and online stack in one invocation.
fn run_demo(args: RunArgs) -> Result<String, CliError> {
    use falcc_dataset::synthetic::{generate, SyntheticConfig};

    let mut dcfg = SyntheticConfig::social(0.30);
    dcfg.n = ((dcfg.n as f64 * args.scale) as usize).max(600);
    falcc_telemetry::progress(format!(
        "generating synthetic social dataset: {} rows, seed {}",
        dcfg.n, args.seed
    ));
    let data = generate(&dcfg, args.seed)
        .map_err(|e| CliError::runtime(format!("generating data: {e}")))?;
    let split = ThreeWaySplit::split(&data, SplitRatios::PAPER, args.seed)
        .map_err(|e| CliError::runtime(format!("splitting data: {e}")))?;

    let injecting = !args.faults.is_empty();
    let config = FalccConfig {
        proxy: falcc::ProxyStrategy::PAPER_REMOVE,
        seed: args.seed,
        threads: args.threads,
        faults: args.faults,
        ..FalccConfig::default()
    };
    falcc_telemetry::progress(if injecting {
        "fitting FALCC (offline phase, with injected faults)"
    } else {
        "fitting FALCC (offline phase)"
    });
    let model = FalccModel::fit(&split.train, &split.validation, &config)
        .map_err(|e| CliError::runtime(format!("fitting FALCC: {e}")))?;
    // Live monitors observe the classification pass without perturbing
    // it: they write to stderr and the stream file only, so stdout is
    // byte-identical with monitors on or off.
    let monitor = args.monitor_out.as_ref().map(|path| {
        falcc_telemetry::progress(format!(
            "live monitors armed: ring of {} windows × {} rows",
            falcc::baseline::DEFAULT_WINDOWS,
            falcc::baseline::DEFAULT_WINDOW_LEN,
        ));
        let spec = model.monitor_spec(
            falcc::baseline::DEFAULT_WINDOW_LEN,
            falcc::baseline::DEFAULT_WINDOWS,
        );
        (path.clone(), falcc_telemetry::monitor::install(spec))
    });
    falcc_telemetry::progress("classifying test split (compiled serving plane)");
    // Served through `classify_batch`, which honours the plan's
    // `row:<i>` faults (`predict_dataset` does not); rejected rows are
    // counted and left out of the scores below.
    let rows: Vec<Vec<f64>> = (0..split.test.len()).map(|i| split.test.row(i).to_vec()).collect();
    let served = model.compile().classify_batch(&rows);
    if let Some((path, state)) = monitor {
        falcc_telemetry::monitor::uninstall();
        state
            .snapshot()
            .write_jsonl(std::path::Path::new(&path))
            .map_err(|e| CliError::runtime(format!("writing monitor stream {path}: {e}")))?;
        falcc_telemetry::progress(format!("monitor stream written to {path}"));
    }

    let accepted: Vec<usize> = (0..served.len()).filter(|&i| served[i].is_ok()).collect();
    let preds: Vec<u8> = served.iter().filter_map(|r| r.as_ref().ok().copied()).collect();
    let y: Vec<u8> = accepted.iter().map(|&i| split.test.label(i)).collect();
    let g: Vec<_> = accepted.iter().map(|&i| split.test.group(i)).collect();
    let rejected = served.len() - accepted.len();
    let n_groups = split.test.group_index().len();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "fitted on {} train / {} validation rows: pool of {} models, {} local regions",
        split.train.len(),
        split.validation.len(),
        model.pool().len(),
        model.n_regions()
    );
    let _ = writeln!(
        out,
        "test ({} rows): accuracy {:.2}%, demographic parity bias {:.2}%",
        split.test.len(),
        accuracy(&y, &preds) * 100.0,
        FairnessMetric::DemographicParity.bias(&y, &preds, &g, n_groups) * 100.0
    );
    if injecting || rejected > 0 {
        let _ = writeln!(
            out,
            "rejected rows: {rejected} of {} (accuracy and bias score the {} accepted rows)",
            served.len(),
            accepted.len()
        );
    }
    if injecting {
        // Degradation counters record only while telemetry is on; without
        // it, still confirm the run was degraded-by-design.
        if falcc_telemetry::enabled() {
            let _ = writeln!(
                out,
                "injected faults: {} fired, {} pool member(s) quarantined, \
                 {} degenerate region(s), {} region fallback(s)",
                falcc_telemetry::counters::FAULTS_INJECTED.get(),
                falcc_telemetry::counters::POOL_MEMBERS_QUARANTINED.get(),
                falcc_telemetry::counters::DEGENERATE_CLUSTERS.get(),
                falcc_telemetry::counters::REGION_GROUP_FALLBACKS.get()
                    + falcc_telemetry::counters::REGION_GLOBAL_FALLBACKS.get(),
            );
        } else {
            let _ = writeln!(
                out,
                "injected faults were active (add --profile for degradation counters)"
            );
        }
    }
    Ok(out)
}

/// Compiles the JSON snapshot at `json_path` into a sibling `.falccb`
/// binary artifact fingerprinted against the snapshot's on-disk bytes.
/// Going back through the file (rather than the in-memory model) makes
/// the artifact bit-identical to what any later JSON restore+compile
/// would produce.
fn emit_artifact(json_path: &str) -> Result<String, CliError> {
    let bytes = std::fs::read(json_path)
        .map_err(|e| CliError::runtime(format!("reading back {json_path}: {e}")))?;
    let fingerprint = falcc::io::fnv1a64(&bytes);
    let compiled = SavedFalccModel::load_file(json_path)
        .map_err(|e| CliError::runtime(format!("reading back {json_path}: {e}")))?
        .restore()
        .compile();
    let path = sibling_artifact_path(std::path::Path::new(json_path));
    compiled
        .save_artifact(&path, fingerprint)
        .map_err(|e| CliError::runtime(format!("writing artifact: {e}")))?;
    Ok(path.display().to_string())
}

/// `falcc monitor`: renders a windowed monitor stream (JSONL written by
/// `falcc run --monitor-out`) as a per-window, per-region drift and
/// fairness report with threshold WARN lines, or as Prometheus-style
/// text exposition with `--exposition`.
fn monitor_report(args: &MonitorArgs) -> Result<String, CliError> {
    let text = std::fs::read_to_string(&args.input)
        .map_err(|e| CliError::runtime(format!("reading {}: {e}", args.input)))?;
    // An empty stream (monitors armed but the process never observed a
    // row, or an empty --monitor-out file) is a report of its own, not a
    // parse error — and exposition must stay machine-parseable (no rows =
    // no samples).
    if text.lines().all(|l| l.trim().is_empty()) {
        return Ok(if args.exposition {
            String::new()
        } else {
            "monitor stream: empty (no baseline or windows recorded)\n".to_string()
        });
    }
    let snap = parse_monitor_stream(&text)
        .map_err(|e| CliError::runtime(format!("parsing {}: {e}", args.input)))?;
    if args.exposition {
        return Ok(snap.render_exposition());
    }
    // Percentage cell that renders `-` for values no rows back up
    // (zero-row windows/regions) or that are not finite.
    let pct = |x: f64| {
        if x.is_finite() { format!("{:.2}%", x * 100.0) } else { "-".to_string() }
    };

    let spec = &snap.spec;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "monitor stream: {} row(s) observed, {} retained window(s) of {} rows \
         ({} regions × {} groups)",
        snap.rows_seen,
        snap.windows.len(),
        spec.window_len,
        spec.n_regions,
        spec.n_groups
    );
    let mut warns = 0usize;
    for w in &snap.windows {
        let start = w.id * spec.window_len;
        let rows_in_window: u64 =
            (0..spec.n_regions).map(|r| w.region_rows(spec.n_groups, r)).sum();
        let skew = w.occupancy_skew(spec);
        // A window with no classified rows has no occupancy to skew —
        // render `-` rather than a misleading 0.0000 (or a NaN from a
        // degenerate baseline).
        let skew_cell = if rows_in_window == 0 || !skew.is_finite() {
            "-".to_string()
        } else {
            format!("{skew:.4}")
        };
        let _ = writeln!(
            out,
            "\nwindow {} [rows {}..{}): observed {}, rejected {}, occupancy skew {}",
            w.id,
            start,
            start + spec.window_len,
            w.observed,
            w.rejected,
            skew_cell
        );
        let _ = writeln!(
            out,
            "  {:<8} {:>6} {:>8} {:>8} {:>7} {:>9} {:>9}",
            "region", "rows", "dp gap", "base dp", "shift", "dist p50", "dist p90"
        );
        let reject_rate =
            if w.observed > 0 { w.rejected as f64 / w.observed as f64 } else { 0.0 };
        if reject_rate > args.warn_reject {
            let _ = writeln!(
                out,
                "  WARN window {}: rejection rate {:.2}% exceeds {:.2}%",
                w.id,
                reject_rate * 100.0,
                args.warn_reject * 100.0
            );
            warns += 1;
        }
        if rows_in_window > 0 && skew.is_finite() && skew > args.warn_skew {
            let _ = writeln!(
                out,
                "  WARN window {}: occupancy skew {:.4} exceeds {:.4} — serving \
                 traffic has drifted from the validation region mix",
                w.id, skew, args.warn_skew
            );
            warns += 1;
        }
        if rows_in_window == 0 {
            let _ = writeln!(out, "  (no rows observed in this window)");
        }
        for r in 0..spec.n_regions {
            if w.region_rows(spec.n_groups, r) == 0 {
                continue;
            }
            let dp = w.dp_gap(spec.n_groups, r);
            let shift = w.group_shift(spec, r);
            let quantile = |q: f64| {
                w.dist_quantile(r, q).map_or_else(|| "-".to_string(), |b| b.to_string())
            };
            let _ = writeln!(
                out,
                "  C{:<7} {:>6} {:>8} {:>8} {:>7} {:>9} {:>9}",
                r + 1,
                w.region_rows(spec.n_groups, r),
                pct(dp),
                pct(spec.baseline_dp[r]),
                pct(shift),
                quantile(0.5),
                quantile(0.9)
            );
            if dp.is_finite() && dp > args.warn_dp {
                let _ = writeln!(
                    out,
                    "  WARN window {} region C{}: live demographic-parity gap {:.2}% \
                     exceeds {:.2}% (offline baseline {:.2}%)",
                    w.id,
                    r + 1,
                    dp * 100.0,
                    args.warn_dp * 100.0,
                    spec.baseline_dp[r] * 100.0
                );
                warns += 1;
            }
            if shift.is_finite() && shift > args.warn_shift {
                let _ = writeln!(
                    out,
                    "  WARN window {} region C{}: group-mix shift {:.2}% exceeds {:.2}%",
                    w.id,
                    r + 1,
                    shift * 100.0,
                    args.warn_shift * 100.0
                );
                warns += 1;
            }
        }
    }
    let _ = writeln!(out);
    if warns == 0 {
        let _ = writeln!(out, "all windows within thresholds");
    } else {
        let _ = writeln!(out, "{warns} warning(s)");
    }
    Ok(out)
}

/// Reconstructs a [`falcc_telemetry::MonitorSnapshot`] from its
/// deterministic JSONL serialisation (wall-clock latency is never in the
/// stream, so those fields come back as zero).
fn parse_monitor_stream(text: &str) -> Result<falcc_telemetry::MonitorSnapshot, String> {
    use falcc_telemetry::metrics::HISTOGRAM_BUCKETS;
    use falcc_telemetry::monitor::WindowSnapshot;

    let mut spec: Option<falcc_telemetry::MonitorSpec> = None;
    let mut rows_seen = 0u64;
    let mut windows: Vec<WindowSnapshot> = Vec::new();
    for (at, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let lineno = at + 1;
        let v = serde_json::parse_value(line)
            .map_err(|e| format!("line {lineno}: {e}"))?;
        let kind: &str = match v.get("type") {
            Some(serde_json::Value::Str(s)) => s,
            _ => return Err(format!("line {lineno}: missing \"type\"")),
        };
        match kind {
            "monitor_baseline" => {
                rows_seen = get_u64(&v, "rows_seen").map_err(|e| format!("line {lineno}: {e}"))?;
                spec = Some(falcc_telemetry::MonitorSpec {
                    window_len: get_u64(&v, "window_len")
                        .map_err(|e| format!("line {lineno}: {e}"))?,
                    windows: get_u64(&v, "windows")
                        .map_err(|e| format!("line {lineno}: {e}"))?
                        as usize,
                    n_regions: get_u64(&v, "n_regions")
                        .map_err(|e| format!("line {lineno}: {e}"))?
                        as usize,
                    n_groups: get_u64(&v, "n_groups")
                        .map_err(|e| format!("line {lineno}: {e}"))?
                        as usize,
                    baseline_occupancy: get_f64s(&v, "occupancy")
                        .map_err(|e| format!("line {lineno}: {e}"))?,
                    baseline_group_mix: get_f64s(&v, "group_mix")
                        .map_err(|e| format!("line {lineno}: {e}"))?,
                    baseline_dp: get_f64s(&v, "dp")
                        .map_err(|e| format!("line {lineno}: {e}"))?,
                });
            }
            "monitor_window" => {
                let spec = spec
                    .as_ref()
                    .ok_or_else(|| format!("line {lineno}: window before baseline"))?;
                windows.push(WindowSnapshot {
                    id: get_u64(&v, "window").map_err(|e| format!("line {lineno}: {e}"))?,
                    observed: get_u64(&v, "observed")
                        .map_err(|e| format!("line {lineno}: {e}"))?,
                    rejected: get_u64(&v, "rejected")
                        .map_err(|e| format!("line {lineno}: {e}"))?,
                    rows: vec![0; spec.n_regions * spec.n_groups],
                    positives: vec![0; spec.n_regions * spec.n_groups],
                    dist: vec![0; spec.n_regions * HISTOGRAM_BUCKETS],
                    latency_ns: 0,
                    latency_rows: 0,
                });
            }
            "monitor_region" => {
                let spec = spec
                    .as_ref()
                    .ok_or_else(|| format!("line {lineno}: region before baseline"))?;
                let w = windows
                    .last_mut()
                    .ok_or_else(|| format!("line {lineno}: region before window"))?;
                let r = get_u64(&v, "region").map_err(|e| format!("line {lineno}: {e}"))?
                    as usize;
                if r >= spec.n_regions {
                    return Err(format!("line {lineno}: region {r} out of range"));
                }
                let rows = get_u64s(&v, "rows").map_err(|e| format!("line {lineno}: {e}"))?;
                let positives =
                    get_u64s(&v, "positives").map_err(|e| format!("line {lineno}: {e}"))?;
                let dist =
                    get_u64s(&v, "dist_buckets").map_err(|e| format!("line {lineno}: {e}"))?;
                if rows.len() != spec.n_groups
                    || positives.len() != spec.n_groups
                    || dist.len() != HISTOGRAM_BUCKETS
                {
                    return Err(format!("line {lineno}: array length mismatch"));
                }
                let g0 = r * spec.n_groups;
                w.rows[g0..g0 + spec.n_groups].copy_from_slice(&rows);
                w.positives[g0..g0 + spec.n_groups].copy_from_slice(&positives);
                let d0 = r * HISTOGRAM_BUCKETS;
                w.dist[d0..d0 + HISTOGRAM_BUCKETS].copy_from_slice(&dist);
            }
            other => return Err(format!("line {lineno}: unknown type {other:?}")),
        }
    }
    let spec = spec.ok_or("missing monitor_baseline line")?;
    Ok(falcc_telemetry::MonitorSnapshot { spec, rows_seen, windows })
}

fn get_u64(v: &serde_json::Value<'_>, key: &str) -> Result<u64, String> {
    match v.get(key) {
        Some(serde_json::Value::U64(n)) => Ok(*n),
        Some(serde_json::Value::I64(n)) if *n >= 0 => Ok(*n as u64),
        Some(other) => Err(format!("field {key:?}: expected unsigned integer, got {other:?}")),
        None => Err(format!("missing field {key:?}")),
    }
}

fn num_f64(v: &serde_json::Value<'_>) -> Option<f64> {
    match v {
        serde_json::Value::F64(x) => Some(*x),
        serde_json::Value::I64(n) => Some(*n as f64),
        serde_json::Value::U64(n) => Some(*n as f64),
        _ => None,
    }
}

fn get_f64s(v: &serde_json::Value<'_>, key: &str) -> Result<Vec<f64>, String> {
    match v.get(key) {
        Some(serde_json::Value::Array(items)) => items
            .iter()
            .map(|item| {
                num_f64(item).ok_or_else(|| format!("field {key:?}: non-numeric element"))
            })
            .collect(),
        _ => Err(format!("field {key:?}: expected array")),
    }
}

fn get_u64s(v: &serde_json::Value<'_>, key: &str) -> Result<Vec<u64>, String> {
    match v.get(key) {
        Some(serde_json::Value::Array(items)) => items
            .iter()
            .map(|item| match item {
                serde_json::Value::U64(n) => Ok(*n),
                serde_json::Value::I64(n) if *n >= 0 => Ok(*n as u64),
                other => Err(format!("field {key:?}: expected unsigned element, got {other:?}")),
            })
            .collect(),
        _ => Err(format!("field {key:?}: expected array")),
    }
}

fn load_dataset(path: &str, sensitive: &[(&str, Vec<f64>)]) -> Result<Dataset, CliError> {
    csv::read_csv_file(path, sensitive)
        .map_err(|e| CliError::runtime(format!("reading {path}: {e}")))
}

fn load_model(path: &str) -> Result<FalccModel, CliError> {
    Ok(SavedFalccModel::load_file(path)
        .map_err(|e| CliError::runtime(format!("loading model {path}: {e}")))?
        .restore())
}

/// `falcc train`: fits FALCC on a CSV file and saves the model snapshot.
/// With `--checkpoint-dir` the fit journals phase-granular checkpoints;
/// `--resume` picks up after the last valid one and writes a snapshot
/// byte-identical to an uninterrupted run. The chaos harness drives this
/// subcommand, hard-killing it at `--crash-at` and asserting exactly that
/// equality.
fn train(args: TrainArgs) -> Result<String, CliError> {
    let sensitive: Vec<(&str, Vec<f64>)> =
        args.sensitive.iter().map(|s| (s.as_str(), vec![0.0, 1.0])).collect();
    let data = load_dataset(&args.data, &sensitive)?;

    // Internal train/validation split (no test part — the caller keeps
    // their own held-out data for `audit`).
    let (train, validation) = split::train_validation(&data, 1.0 - args.val_split, args.seed)
        .map_err(|e| CliError::runtime(format!("splitting data: {e}")))?;

    let mut config = FalccConfig {
        loss: LossConfig { lambda: args.lambda, metric: args.metric },
        proxy: args.proxy,
        clustering: args.clusters,
        seed: args.seed,
        threads: args.threads,
        faults: args.faults,
        ..FalccConfig::default()
    };
    config.pool.seed = args.seed;

    let mut out = String::new();
    if args.tune {
        // The trials fit on a slice of the validation data, so they run
        // without the journal: a journaled trial would wipe it, and under
        // --resume would be refused as a different run. Only the final fit
        // below journals, and a resumed run repeats the deterministic
        // search before resuming it.
        let report = auto_tune(&train, &validation, &config)
            .map_err(|e| CliError::runtime(format!("auto-tuning: {e}")))?;
        let _ = writeln!(
            out,
            "auto-tune chose {:?} with pool size {} (best holdout local L-hat {:.4})",
            report.chosen.clustering,
            report.chosen.pool.pool_size,
            report.trials[0].holdout_local_l_hat
        );
        config = report.chosen;
    }
    config.checkpoint = args.checkpoint_dir.as_ref().map(|dir| {
        let mut spec = CheckpointSpec::new(dir);
        spec.resume = args.resume;
        spec.retry_budget = args.retry_budget;
        spec
    });

    // A crash point the run never reached is a mistyped kill point, not
    // a failed fit: exit 2, before any output is written.
    let model = FalccModel::fit(&train, &validation, &config).map_err(|e| match e {
        FalccError::CrashPointUnreached { .. } => CliError::usage(format!("--crash-at: {e}")),
        e => CliError::runtime(format!("fitting FALCC: {e}")),
    })?;
    SavedFalccModel::capture(&model)
        .and_then(|saved| saved.save_file(&args.out))
        .map_err(|e| CliError::runtime(format!("saving model: {e}")))?;
    let artifact_path = args.emit_artifact.then(|| emit_artifact(&args.out)).transpose()?;

    let _ = writeln!(
        out,
        "trained FALCC on {} rows ({} train / {} validation): pool of {} models, {} local regions",
        data.len(),
        train.len(),
        validation.len(),
        model.pool().len(),
        model.n_regions()
    );
    if config.checkpoint.is_some() && falcc_telemetry::enabled() {
        let _ = writeln!(
            out,
            "checkpoints: {} written, {} resumed, {} discarded; {} transient retries",
            falcc_telemetry::counters::CHECKPOINTS_WRITTEN.get(),
            falcc_telemetry::counters::CHECKPOINTS_RESUMED.get(),
            falcc_telemetry::counters::CHECKPOINTS_DISCARDED.get(),
            falcc_telemetry::counters::OFFLINE_RETRIES.get(),
        );
    }
    let _ = writeln!(out, "model written to {}", args.out);
    if let Some(path) = artifact_path {
        let _ = writeln!(out, "artifact written to {path}");
    }
    Ok(out)
}

fn predict(args: PredictArgs) -> Result<String, CliError> {
    // A fresh sibling binary artifact serves the compiled plane without
    // JSON parsing or recompilation. Anything wrong with it — corrupt,
    // version skew, stale fingerprint — falls back to the JSON path with
    // the reason surfaced as progress and counted in telemetry.
    let mut compiled = match load_artifact_for(&args.model) {
        Some(Ok(compiled)) => compiled,
        _ => load_model(&args.model)?.compile(),
    };
    // The batch pass fans out over worker threads; predictions are
    // identical for every thread count.
    compiled.set_threads(args.threads);
    let data = load_model_data(compiled.schema(), &args.data)?;
    render_predictions(compiled.predict_dataset(&data), &args.out)
}

/// Tries the binary-artifact fast path for the snapshot at `model_path`:
/// a sibling `.falccb` whose recorded fingerprint matches the snapshot's
/// current on-disk bytes. Returns `None` when there is no artifact to
/// try, and the typed rejection (after counting the fallback) when the
/// artifact is unusable.
fn load_artifact_for(model_path: &str) -> Option<Result<CompiledModel, FalccError>> {
    let path = sibling_artifact_path(std::path::Path::new(model_path));
    if !path.exists() {
        return None;
    }
    // Unreadable snapshot: let the JSON path report the I/O error.
    let fingerprint = falcc::io::fnv1a64(&std::fs::read(model_path).ok()?);
    let loaded = CompiledModelBuf::read(&path).and_then(|buf| buf.load_if_fresh(fingerprint));
    match &loaded {
        Ok(_) => falcc_telemetry::progress("serving from binary artifact"),
        Err(e) => {
            falcc_telemetry::counters::SERVE_ARTIFACT_FALLBACKS.incr();
            falcc_telemetry::progress(format!(
                "artifact unusable ({e}); falling back to JSON snapshot"
            ));
        }
    }
    Some(loaded)
}

fn render_predictions(preds: Vec<u8>, out: &Option<String>) -> Result<String, CliError> {
    let mut body = String::with_capacity(preds.len() * 2 + 16);
    body.push_str("prediction\n");
    for p in &preds {
        body.push(if *p == 1 { '1' } else { '0' });
        body.push('\n');
    }
    match out {
        Some(path) => {
            std::fs::write(path, &body)
                .map_err(|e| CliError::runtime(format!("writing {path}: {e}")))?;
            Ok(format!("wrote {} predictions to {path}\n", preds.len()))
        }
        None => Ok(body),
    }
}

fn audit(args: ModelDataArgs) -> Result<String, CliError> {
    let model = load_model(&args.model)?;
    let data = load_model_data(model.schema(), &args.data)?;
    let preds = model.compile().predict_dataset(&data);
    let y = data.labels();
    let g = data.groups();
    let n_groups = data.group_index().len();

    let mut out = String::new();
    let _ = writeln!(out, "samples: {}   regions: {}", data.len(), model.n_regions());
    let _ = writeln!(out, "accuracy: {:.2}%", accuracy(y, &preds) * 100.0);
    for metric in FairnessMetric::ALL {
        let _ = writeln!(
            out,
            "{:<22} {:.2}%",
            format!("{metric}:"),
            metric.bias(y, &preds, g, n_groups) * 100.0
        );
    }
    let attrs = data.schema().non_sensitive_attrs();
    let projected = data.project(&attrs, None);
    let _ = writeln!(
        out,
        "consistency (k=5):     {:.2}%",
        consistency(&projected, &preds, 5) * 100.0
    );

    // Per-region breakdown over the model's own regions.
    let _ = writeln!(out, "\nper-region (demographic parity):");
    let _ = writeln!(out, "{:<8} {:>6} {:>10} {:>9}", "region", "size", "accuracy", "dp bias");
    let regions: Vec<usize> =
        (0..data.len()).map(|i| model.assign_region(data.row(i))).collect();
    for r in 0..model.n_regions() {
        let idx: Vec<usize> = (0..data.len()).filter(|&i| regions[i] == r).collect();
        if idx.is_empty() {
            continue;
        }
        let yr: Vec<u8> = idx.iter().map(|&i| y[i]).collect();
        let zr: Vec<u8> = idx.iter().map(|&i| preds[i]).collect();
        let gr: Vec<_> = idx.iter().map(|&i| g[i]).collect();
        let _ = writeln!(
            out,
            "C{:<7} {:>6} {:>9.1}% {:>8.2}%",
            r + 1,
            idx.len(),
            accuracy(&yr, &zr) * 100.0,
            FairnessMetric::DemographicParity.bias(&yr, &zr, &gr, n_groups) * 100.0
        );
    }
    Ok(out)
}

fn info(model_path: &str) -> Result<String, CliError> {
    let model = load_model(model_path)?;
    let mut out = String::new();
    let _ = writeln!(out, "algorithm: {}", model.name());
    let _ = writeln!(out, "local regions: {}", model.n_regions());
    let _ = writeln!(out, "model pool ({} members):", model.pool().len());
    for (i, m) in model.pool().models.iter().enumerate() {
        let scope = match m.group {
            None => "all groups".to_string(),
            Some(g) => format!("group {g}"),
        };
        let _ = writeln!(out, "  m{i}: {} [{scope}]", m.model.name());
    }
    let proxy = model.proxy_outcome();
    let _ = writeln!(
        out,
        "clustering attributes: {} ({} removed as proxies, weights: {})",
        proxy.attrs.len(),
        proxy.removed.len(),
        if proxy.weights.is_some() { "yes" } else { "no" }
    );
    let _ = writeln!(out, "assessment: λ = {}, metric = {}", model.loss_config().lambda, model.loss_config().metric);
    for c in 0..model.n_regions() {
        let combo: Vec<String> =
            model.combo(c).iter().map(|m| format!("m{m}")).collect();
        let _ = writeln!(out, "  region C{}: [{}]", c + 1, combo.join(", "));
    }
    Ok(out)
}

/// Loads the CSV at `path` for a model fitted on `schema`, refusing it
/// with a runtime error unless its attribute columns are the model's, in
/// the model's order (`falcc::online::check_columns`); serving such data
/// would panic.
fn load_model_data(schema: &falcc_dataset::Schema, path: &str) -> Result<Dataset, CliError> {
    let data = load_dataset(path, &as_refs(&sensitive_decl(schema)))?;
    falcc::online::check_columns(schema, data.schema())
        .map_err(|detail| CliError::runtime(format!("column mismatch in {path}: {detail}")))?;
    Ok(data)
}

/// The `(name, domain)` sensitive declaration the model was trained with,
/// read from its stored schema, for CSV loading by header name.
fn sensitive_decl(schema: &falcc_dataset::Schema) -> Vec<(String, Vec<f64>)> {
    schema
        .sensitive()
        .iter()
        .map(|s| (schema.attr_name(s.attr).to_string(), s.domain.clone()))
        .collect()
}

fn as_refs(decl: &[(String, Vec<f64>)]) -> Vec<(&str, Vec<f64>)> {
    decl.iter().map(|(n, d)| (n.as_str(), d.clone())).collect()
}

#[cfg(test)]
mod tests {
    use super::{emit_artifact, load_artifact_for, load_dataset, load_model, FalccError};
    use crate::args;

    fn v(items: &[&str]) -> Vec<String> {
        items.iter().map(|s| s.to_string()).collect()
    }

    /// Writes a small learnable-but-biased CSV and returns its path.
    fn write_csv(path: &std::path::Path, n: usize, seed: u64) -> String {
        use std::fmt::Write as _;
        let mut text = String::from("sex,f0,f1,label\n");
        let mut state = seed;
        let mut rand = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            // Top 31 bits scaled into [-1, 1).
            ((state >> 33) as f64 / (1u64 << 30) as f64) - 1.0
        };
        for _ in 0..n {
            let sex = u8::from(rand() > 0.0);
            let f0 = rand() * 2.0;
            let f1 = rand() * 2.0;
            let threshold = if sex == 1 { 0.5 } else { -0.2 };
            let label = u8::from(f0 + 0.5 * f1 > threshold);
            let _ = writeln!(text, "{sex},{f0:.4},{f1:.4},{label}");
        }
        std::fs::write(path, text).unwrap();
        path.to_string_lossy().into_owned()
    }

    /// Writes `n` synthetic social30 rows drawn with `seed` as CSV (its
    /// sensitive column is `sens`) and returns its path.
    fn social_csv(path: &std::path::Path, n: usize, seed: u64) -> String {
        use falcc_dataset::synthetic::{generate, SyntheticConfig};
        let mut cfg = SyntheticConfig::social(0.30);
        cfg.n = n;
        let mut text = Vec::new();
        falcc_dataset::csv::write_csv(&generate(&cfg, seed).unwrap(), &mut text).unwrap();
        std::fs::write(path, text).unwrap();
        path.to_string_lossy().into_owned()
    }

    #[test]
    fn train_emits_artifact_and_predict_prefers_it_with_typed_fallback() {
        let dir = std::env::temp_dir().join("falcc_cli_artifact_test");
        std::fs::create_dir_all(dir.join("json_only")).unwrap();
        let model_path = dir.join("model.json").to_string_lossy().into_owned();
        let artifact_path = dir.join("model.falccb");
        let train_csv = social_csv(&dir.join("train.csv"), 400, 9);
        // Serve rows drawn from the same synthetic family (fresh seed).
        let data_csv = social_csv(&dir.join("data.csv"), 150, 33);
        let train = |seed: &str, extra: &[&str]| {
            let base = [
                "train", "--data", &train_csv, "--sensitive", "sens", "--clusters", "4",
                "--proxy", "remove", "--out", &model_path, "--seed", seed,
            ];
            crate::run(&v(&[&base[..], extra].concat())).unwrap()
        };
        let predict = |model: &str| {
            crate::run(&v(&["predict", "--model", model, "--data", &data_csv])).unwrap()
        };
        // A copy of the snapshot with no sibling artifact serves through
        // the JSON path.
        let via_json = || {
            let copy = dir.join("json_only").join("model.json");
            std::fs::copy(&model_path, &copy).unwrap();
            predict(&copy.to_string_lossy())
        };

        let out = train("9", &["--emit-artifact"]);
        assert!(out.contains("model written to"), "{out}");
        assert!(out.contains("artifact written to"), "{out}");
        assert!(artifact_path.exists());

        let via_artifact = predict(&model_path);
        let json = via_json();
        assert_eq!(via_artifact.lines().count(), 151);
        assert_eq!(via_artifact, json, "artifact and JSON paths must agree");
        let served = load_artifact_for(&model_path);
        assert!(matches!(served, Some(Ok(_))), "fresh artifact serves");

        // A corrupt artifact degrades to the JSON path, bit-identically.
        let pristine = std::fs::read(&artifact_path).unwrap();
        let mut damaged = pristine.clone();
        let mid = damaged.len() / 2;
        damaged[mid] ^= 0xff;
        std::fs::write(&artifact_path, &damaged).unwrap();
        assert_eq!(predict(&model_path), json);
        let rejected = load_artifact_for(&model_path);
        assert!(
            matches!(rejected, Some(Err(FalccError::ArtifactCorrupt { .. }))),
            "corrupt artifact must be rejected as corrupt: {:?}",
            rejected.map(|r| r.err())
        );

        // A stale artifact (snapshot refitted underneath it) also degrades.
        std::fs::write(&artifact_path, &pristine).unwrap();
        train("10", &[]);
        let stale = predict(&model_path);
        assert_eq!(stale, via_json(), "stale artifact must serve the new snapshot");
        let rejected = load_artifact_for(&model_path);
        assert!(
            matches!(rejected, Some(Err(FalccError::ArtifactStale { .. }))),
            "refitted snapshot must reject its old artifact as stale: {:?}",
            rejected.map(|r| r.err())
        );

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn tuned_train_resumes_its_journal_byte_identically() {
        let dir = std::env::temp_dir().join("falcc_cli_tune_resume_test");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let train_csv = write_csv(&dir.join("train.csv"), 600, 1);
        let ck = dir.join("ck").to_string_lossy().into_owned();
        let train = |out: &str, extra: &[&str]| {
            let out = dir.join(out).to_string_lossy().into_owned();
            let base = [
                "train", "--data", &train_csv, "--sensitive", "sex", "--out", &out,
                "--seed", "5", "--tune", "--checkpoint-dir", &ck,
            ];
            crate::run(&v(&[&base[..], extra].concat())).unwrap();
            std::fs::read(&out).unwrap()
        };
        // The resumed run repeats the tuning search, unjournaled, and then
        // resumes the final fit's journal.
        let fresh = train("fresh.json", &[]);
        let resumed = train("resumed.json", &["--resume"]);
        assert!(fresh == resumed, "resumed tuned fit must write the same snapshot");

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn crash_points_the_run_never_reaches_exit_two_without_output() {
        let dir = std::env::temp_dir().join("falcc_cli_unreached_crash_test");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let train_csv = write_csv(&dir.join("train.csv"), 400, 1);
        let ck = dir.join("ck");
        let manifest = ck.join(falcc::checkpoint::MANIFEST);
        let out = dir.join("model.json");
        let artifact = falcc::sibling_artifact_path(&out);
        let train = |extra: &[&str]| {
            let base = [
                "train", "--data", &train_csv, "--sensitive", "sex", "--clusters", "3",
                "--out", &out.to_string_lossy(), "--checkpoint-dir", &ck.to_string_lossy(),
                "--emit-artifact",
            ];
            crate::run(&v(&[&base[..], extra].concat()))
        };
        train(&[]).unwrap();
        let commits = std::fs::read_to_string(&manifest).unwrap().lines().count();
        std::fs::remove_file(&out).unwrap();
        std::fs::remove_file(&artifact).unwrap();

        // One ordinal past the last commit.
        let err = train(&["--crash-at", &format!("{commits}:after-commit")]).unwrap_err();
        assert_eq!(err.exit_code, 2, "{}", err.message);
        assert_eq!(
            err.message,
            format!(
                "--crash-at: crash point {commits}:after-commit never fired: this run made \
                 {commits} checkpoint commits, ordinals 0 to {}",
                commits - 1
            )
        );
        assert!(!out.exists() && !artifact.exists(), "no output from an unreached crash point");

        // A resume that starts past the ordinal: keep the journal's first
        // five commits, then arm a point among them.
        let kept: String = std::fs::read_to_string(&manifest)
            .unwrap()
            .lines()
            .take(5)
            .map(|line| format!("{line}\n"))
            .collect();
        std::fs::write(&manifest, kept).unwrap();
        let err = train(&["--resume", "--crash-at", "2:before-write"]).unwrap_err();
        assert_eq!(err.exit_code, 2, "{}", err.message);
        assert_eq!(
            err.message,
            format!(
                "--crash-at: crash point 2:before-write never fired: this run made {} \
                 checkpoint commits, ordinals 5 to {} after resuming 5",
                commits - 5,
                commits - 1
            )
        );
        assert!(!out.exists() && !artifact.exists(), "no output from an unreached crash point");

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn end_to_end_train_predict_audit_info() {
        let dir = std::env::temp_dir().join("falcc_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let train_csv = write_csv(&dir.join("train.csv"), 600, 1);
        let test_csv = write_csv(&dir.join("test.csv"), 150, 2);
        let model_path = dir.join("model.json").to_string_lossy().into_owned();

        let out = crate::run(&v(&[
            "train", "--data", &train_csv, "--sensitive", "sex", "--out", &model_path,
            "--clusters", "3", "--seed", "5",
        ]))
        .unwrap();
        // Every input row is either a train or a validation row.
        assert!(out.contains("trained FALCC on 600 rows (360 train / 240 validation)"), "{out}");
        assert!(std::path::Path::new(&model_path).exists());

        let preds = crate::run(&v(&[
            "predict", "--model", &model_path, "--data", &test_csv,
        ]))
        .unwrap();
        assert!(preds.starts_with("prediction\n"));
        assert_eq!(preds.lines().count(), 151);

        let audit_out =
            crate::run(&v(&["audit", "--model", &model_path, "--data", &test_csv]))
                .unwrap();
        assert!(audit_out.contains("accuracy:"), "{audit_out}");
        assert!(audit_out.contains("demographic parity"), "{audit_out}");
        assert!(audit_out.contains("per-region"), "{audit_out}");

        let info_out = crate::run(&v(&["info", "--model", &model_path])).unwrap();
        assert!(info_out.contains("local regions"), "{info_out}");
        assert!(info_out.contains("m0:"), "{info_out}");

        std::fs::remove_dir_all(&dir).ok();
    }

    /// Copies the CSV at `src` to `dst` keeping the columns `order` picks,
    /// in that order, and renaming header cells as `rename` says.
    fn reshape_csv(
        src: &str,
        dst: &std::path::Path,
        order: &[usize],
        rename: &[(usize, &str)],
    ) -> String {
        let mut text = String::new();
        for (n, line) in std::fs::read_to_string(src).unwrap().lines().enumerate() {
            let cells: Vec<&str> = line.split(',').collect();
            let mut picked: Vec<&str> = order.iter().map(|&c| cells[c]).collect();
            if n == 0 {
                for &(at, name) in rename {
                    picked[at] = name;
                }
            }
            text.push_str(&picked.join(","));
            text.push('\n');
        }
        std::fs::write(dst, text).unwrap();
        dst.to_string_lossy().into_owned()
    }

    #[test]
    fn predict_and_audit_refuse_columns_that_differ_from_the_model() {
        use falcc::FairClassifier;

        let dir = std::env::temp_dir().join("falcc_cli_columns_test");
        std::fs::create_dir_all(&dir).unwrap();
        let train_csv = write_csv(&dir.join("train.csv"), 600, 1);
        let test_csv = write_csv(&dir.join("test.csv"), 50, 2);
        let model_path = dir.join("model.json").to_string_lossy().into_owned();
        crate::run(&v(&[
            "train", "--data", &train_csv, "--sensitive", "sex", "--out", &model_path,
            "--clusters", "3", "--seed", "5",
        ]))
        .unwrap();

        // A matching header serves exactly the reference's labels.
        let model = load_model(&model_path).unwrap();
        let data = load_dataset(&test_csv, &[("sex", vec![0.0, 1.0])]).unwrap();
        let expected: String = std::iter::once("prediction".to_string())
            .chain(model.predict_dataset(&data).iter().map(|z| z.to_string()))
            .map(|line| line + "\n")
            .collect();
        let predict =
            |csv: &str| crate::run(&v(&["predict", "--model", &model_path, "--data", csv]));
        assert_eq!(predict(&test_csv).unwrap(), expected);

        // `write_csv` columns: 0 = sex, 1 = f0, 2 = f1, 3 = label.
        let reshaped = [
            ("one column fewer", "sex, f0", vec![0, 1, 3], vec![]),
            ("sensitive column moved", "f0, sex, f1", vec![1, 0, 2, 3], vec![]),
            ("features swapped", "sex, f1, f0", vec![0, 2, 1, 3], vec![]),
            ("columns renamed", "sex, a, b", vec![0, 1, 2, 3], vec![(1, "a"), (2, "b")]),
        ]
        .into_iter()
        .enumerate()
        .map(|(i, (what, found, order, rename))| {
            let csv = reshape_csv(&test_csv, &dir.join(format!("test{i}.csv")), &order, &rename);
            (what, found, csv)
        })
        .collect::<Vec<_>>();
        let assert_refused = |what: &str, found: &str, result: Result<String, crate::CliError>| {
            let err = result.expect_err(what);
            assert_eq!(err.exit_code, 1, "{what}: {}", err.message);
            assert!(
                err.message.contains("expects columns [sex, f0, f1], found [")
                    && err.message.contains(&format!("found [{found}]")),
                "{what}: {}",
                err.message
            );
        };
        for (what, found, csv) in &reshaped {
            assert_refused(what, found, predict(csv));
            let audit = crate::run(&v(&["audit", "--model", &model_path, "--data", csv]));
            assert_refused(what, found, audit);
        }

        // The artifact path checks the same columns.
        emit_artifact(&model_path).unwrap();
        assert!(matches!(load_artifact_for(&model_path), Some(Ok(_))));
        assert_eq!(predict(&test_csv).unwrap(), expected);
        for (what, found, csv) in &reshaped {
            assert_refused(what, found, predict(csv));
        }

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn run_with_profile_and_trace_emits_tree_and_jsonl() {
        let dir = std::env::temp_dir().join("falcc_cli_run_test");
        std::fs::create_dir_all(&dir).unwrap();
        let trace = dir.join("trace.jsonl").to_string_lossy().into_owned();

        let out = crate::run(&v(&[
            "run", "--scale", "0.05", "--seed", "7", "--profile", "--trace-out", &trace,
            "--quiet",
        ]))
        .unwrap();
        assert!(out.contains("fitted on"), "{out}");
        assert!(out.contains("-- profile --"), "{out}");
        assert!(out.contains("offline.fit"), "{out}");

        let jsonl = std::fs::read_to_string(&trace).unwrap();
        assert!(!jsonl.is_empty());
        for line in jsonl.lines() {
            assert!(line.starts_with('{') && line.ends_with('}'), "bad line: {line}");
        }
        assert!(jsonl.contains("\"name\":\"offline.clustering\""), "{jsonl}");
        assert!(jsonl.contains("\"type\":\"counter\""), "{jsonl}");

        falcc_telemetry::disable();
        falcc_telemetry::reset();
        falcc_telemetry::set_quiet(false);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn run_monitor_out_writes_stream_and_monitor_renders_it() {
        let dir = std::env::temp_dir().join("falcc_cli_monitor_test");
        std::fs::create_dir_all(&dir).unwrap();
        let stream = dir.join("monitor.jsonl").to_string_lossy().into_owned();

        let out = crate::run(&v(&[
            "run", "--scale", "0.05", "--seed", "9", "--monitor-out", &stream, "--quiet",
        ]))
        .unwrap();
        assert!(out.contains("fitted on"), "{out}");
        let jsonl = std::fs::read_to_string(&stream).unwrap();
        assert!(jsonl.contains("\"type\":\"monitor_baseline\""), "{jsonl}");
        assert!(jsonl.contains("\"type\":\"monitor_window\""), "{jsonl}");
        assert!(jsonl.contains("\"type\":\"monitor_region\""), "{jsonl}");

        // The report renders per-window tables from the stream alone.
        let report =
            crate::run(&v(&["monitor", "--input", &stream, "--quiet"])).unwrap();
        assert!(report.contains("monitor stream:"), "{report}");
        assert!(report.contains("window "), "{report}");
        assert!(report.contains("dp gap"), "{report}");
        // Absurdly tight thresholds must trip WARN lines.
        let warned = crate::run(&v(&[
            "monitor", "--input", &stream, "--warn-dp", "0.0000001", "--quiet",
        ]))
        .unwrap();
        assert!(warned.contains("WARN"), "{warned}");
        // Exposition mode: every line is `name{labels} value`.
        let exposition = crate::run(&v(&[
            "monitor", "--input", &stream, "--exposition", "--quiet",
        ]))
        .unwrap();
        for line in exposition.lines() {
            let (name_labels, value) = line.rsplit_once(' ').unwrap();
            assert!(name_labels.contains('{') && name_labels.ends_with('}'), "{line}");
            assert!(value.parse::<f64>().is_ok(), "{line}");
        }

        falcc_telemetry::set_quiet(false);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn run_inject_row_rejects_exactly_that_row() {
        let out = crate::run(&v(&["run", "--scale", "0.05", "--inject", "row:3", "--quiet"]))
            .unwrap();
        assert!(out.contains("rejected rows: 1 of "), "{out}");
        falcc_telemetry::set_quiet(false);
    }

    #[test]
    fn runtime_errors_have_exit_code_one() {
        let err = crate::run(&v(&[
            "predict", "--model", "/nonexistent/model.json", "--data", "x.csv",
        ]))
        .unwrap_err();
        assert_eq!(err.exit_code, 1);
        let err = args::parse(&v(&["train"])).unwrap_err();
        assert_eq!(err.exit_code, 2);
    }
}
