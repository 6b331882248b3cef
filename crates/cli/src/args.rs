//! Argument parsing for the `falcc` binary (hand-rolled; the dependency
//! policy admits no CLI crate).

use crate::CliError;
use falcc::{ClusterSpec, CrashPhase, FaultPlan, ProxyStrategy};
use falcc_metrics::FairnessMetric;

/// The parsed subcommand with its options.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Fit a FALCC model from a CSV file and save it, optionally
    /// journaling the fit (`--checkpoint-dir`) and writing the binary
    /// serving artifact (`--emit-artifact`).
    Train(TrainArgs),
    /// Classify a CSV file with a saved model.
    Predict(PredictArgs),
    /// Fairness audit of a saved model on labeled data.
    Audit(ModelDataArgs),
    /// Describe a saved model.
    Info {
        /// Path to the saved model JSON.
        model: String,
    },
    /// Self-contained end-to-end demo on synthetic data (fit + classify),
    /// mainly useful with `--profile`/`--trace-out`.
    Run(RunArgs),
    /// Render a live-monitor stream (`falcc run --monitor-out …`) as a
    /// per-region drift & fairness report with threshold WARN lines.
    Monitor(MonitorArgs),
    /// Print usage.
    Help,
}

/// Global observability options, accepted by every subcommand and
/// extracted from the argument vector before subcommand parsing.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TelemetryOpts {
    /// Print the per-phase span tree and metrics after the command.
    pub profile: bool,
    /// Write the full trace as JSON lines to this path.
    pub trace_out: Option<String>,
    /// Suppress progress output on stderr (recorded progress events still
    /// land in the trace, so `--quiet --trace-out t.jsonl` keeps the log).
    pub quiet: bool,
}

impl TelemetryOpts {
    /// `true` when the command should record telemetry.
    pub fn recording(&self) -> bool {
        self.profile || self.trace_out.is_some()
    }
}

/// Splits the global `--profile` / `--trace-out <path>` / `--quiet` flags
/// out of `argv`, returning the remaining arguments and the parsed options.
///
/// # Errors
/// [`CliError`] (exit code 2) when `--trace-out` is missing its path.
pub fn extract_telemetry(argv: &[String]) -> Result<(Vec<String>, TelemetryOpts), CliError> {
    let mut rest = Vec::with_capacity(argv.len());
    let mut opts = TelemetryOpts::default();
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--profile" => opts.profile = true,
            "--quiet" => opts.quiet = true,
            "--trace-out" => {
                let path = it
                    .next()
                    .ok_or_else(|| CliError::usage("missing value for --trace-out"))?;
                opts.trace_out = Some(path.clone());
            }
            _ => rest.push(arg.clone()),
        }
    }
    Ok((rest, opts))
}

/// `falcc run` options.
#[derive(Debug, Clone, PartialEq)]
pub struct RunArgs {
    /// RNG seed for data generation and fitting.
    pub seed: u64,
    /// Row-count scale of the synthetic dataset in `(0, 1]`.
    pub scale: f64,
    /// Worker threads (0 = available parallelism).
    pub threads: usize,
    /// Deterministic fault-injection schedule from `--inject` (empty by
    /// default) — demonstrates the degradation paths end to end.
    pub faults: FaultPlan,
    /// Install the live serving monitors around the classification pass
    /// and write the windowed monitor stream (JSONL) to this path.
    pub monitor_out: Option<String>,
}

/// `falcc monitor` options.
#[derive(Debug, Clone, PartialEq)]
pub struct MonitorArgs {
    /// Path to a windowed monitor stream (JSONL), as written by
    /// `falcc run --monitor-out`.
    pub input: String,
    /// WARN when a window/region demographic-parity gap exceeds this.
    pub warn_dp: f64,
    /// WARN when a window's occupancy skew score exceeds this.
    pub warn_skew: f64,
    /// WARN when a region's group-mix shift exceeds this.
    pub warn_shift: f64,
    /// WARN when a window's rejection rate exceeds this.
    pub warn_reject: f64,
    /// Print Prometheus-style text exposition instead of the report.
    pub exposition: bool,
}

/// `falcc train` options.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainArgs {
    pub data: String,
    pub sensitive: Vec<String>,
    pub out: String,
    pub metric: FairnessMetric,
    pub lambda: f64,
    pub proxy: ProxyStrategy,
    pub clusters: ClusterSpec,
    pub val_split: f64,
    pub seed: u64,
    pub tune: bool,
    /// Worker threads (0 = available parallelism). Pure throughput knob:
    /// the fitted model is bit-identical for every value, including when
    /// a resumed run uses a different count than the crashed one.
    pub threads: usize,
    /// Checkpoint journal directory; `None` fits without journaling.
    pub checkpoint_dir: Option<String>,
    /// Resume from the journal's last valid checkpoint instead of wiping.
    pub resume: bool,
    /// Transient-I/O retry budget for journal writes.
    pub retry_budget: u32,
    /// Deterministic fault schedule from `--crash-at` / `--inject`.
    pub faults: FaultPlan,
    /// Also compile the fitted model and write it as a binary serving
    /// artifact (`.falccb`) next to the JSON snapshot, so later serving
    /// starts skip JSON parsing and recompilation.
    pub emit_artifact: bool,
}

/// `falcc predict` options.
#[derive(Debug, Clone, PartialEq)]
pub struct PredictArgs {
    pub model: String,
    pub data: String,
    pub out: Option<String>,
    pub threads: usize,
}

/// Shared `--model` + `--data` options.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelDataArgs {
    pub model: String,
    pub data: String,
}

/// Alias kept for the library root re-export.
pub type ParsedArgs = Command;

struct Cursor<'a> {
    args: &'a [String],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn next_value(&mut self, flag: &str) -> Result<&'a str, CliError> {
        self.at += 1;
        self.args
            .get(self.at - 1)
            .map(|s| s.as_str())
            .ok_or_else(|| CliError::usage(format!("missing value for {flag}")))
    }
}

fn parse_num<T: std::str::FromStr>(s: &str, flag: &str) -> Result<T, CliError> {
    s.parse().map_err(|_| CliError::usage(format!("invalid value {s:?} for {flag}")))
}

/// Parses a full argument vector (without the program name).
///
/// # Errors
/// [`CliError`] (exit code 2) on unknown subcommands/flags or missing
/// required options.
pub fn parse(argv: &[String]) -> Result<Command, CliError> {
    let Some(sub) = argv.first() else {
        return Ok(Command::Help);
    };
    match sub.as_str() {
        "--help" | "-h" | "help" => Ok(Command::Help),
        "train" => parse_train(&argv[1..]),
        "predict" => parse_predict(&argv[1..]),
        "run" => parse_run(&argv[1..]),
        "monitor" => parse_monitor(&argv[1..]),
        "audit" => parse_model_data(&argv[1..]).map(Command::Audit),
        "info" => {
            let mut model = None;
            let mut cur = Cursor { args: &argv[1..], at: 0 };
            while cur.at < cur.args.len() {
                let flag = cur.args[cur.at].clone();
                cur.at += 1;
                match flag.as_str() {
                    "--model" => model = Some(cur.next_value("--model")?.to_string()),
                    other => {
                        return Err(CliError::usage(format!("unknown flag {other}")))
                    }
                }
            }
            Ok(Command::Info {
                model: model.ok_or_else(|| CliError::usage("info requires --model"))?,
            })
        }
        other => Err(CliError::usage(format!("unknown subcommand {other:?}; see --help"))),
    }
}

fn parse_train(args: &[String]) -> Result<Command, CliError> {
    let mut out = TrainArgs {
        data: String::new(),
        sensitive: Vec::new(),
        out: String::new(),
        metric: FairnessMetric::DemographicParity,
        lambda: 0.5,
        proxy: ProxyStrategy::None,
        clusters: ClusterSpec::LogMeans,
        val_split: 0.4,
        seed: 42,
        tune: false,
        threads: 0,
        checkpoint_dir: None,
        resume: false,
        retry_budget: 3,
        faults: FaultPlan::default(),
        emit_artifact: false,
    };
    let mut cur = Cursor { args, at: 0 };
    while cur.at < cur.args.len() {
        let flag = cur.args[cur.at].clone();
        cur.at += 1;
        match flag.as_str() {
            "--data" => out.data = cur.next_value("--data")?.to_string(),
            "--sensitive" => out.sensitive.push(cur.next_value("--sensitive")?.to_string()),
            "--out" => out.out = cur.next_value("--out")?.to_string(),
            "--metric" => {
                out.metric = match cur.next_value("--metric")? {
                    "dp" => FairnessMetric::DemographicParity,
                    "eq_od" => FairnessMetric::EqualizedOdds,
                    "eq_op" => FairnessMetric::EqualOpportunity,
                    "tr_eq" => FairnessMetric::TreatmentEquality,
                    other => {
                        return Err(CliError::usage(format!(
                            "unknown metric {other:?} (dp|eq_od|eq_op|tr_eq)"
                        )))
                    }
                }
            }
            "--lambda" => out.lambda = parse_num(cur.next_value("--lambda")?, "--lambda")?,
            "--proxy" => {
                out.proxy = match cur.next_value("--proxy")? {
                    "none" => ProxyStrategy::None,
                    "reweigh" => ProxyStrategy::Reweigh,
                    "remove" => ProxyStrategy::PAPER_REMOVE,
                    other => {
                        return Err(CliError::usage(format!(
                            "unknown proxy strategy {other:?} (none|reweigh|remove)"
                        )))
                    }
                }
            }
            "--clusters" => {
                let v = cur.next_value("--clusters")?;
                out.clusters = match v {
                    "auto" => ClusterSpec::LogMeans,
                    "elbow" => ClusterSpec::Elbow,
                    k => ClusterSpec::FixedK(parse_num(k, "--clusters")?),
                };
            }
            "--val-split" => {
                out.val_split = parse_num(cur.next_value("--val-split")?, "--val-split")?
            }
            "--seed" => out.seed = parse_num(cur.next_value("--seed")?, "--seed")?,
            "--tune" => out.tune = true,
            "--threads" => {
                out.threads = parse_num(cur.next_value("--threads")?, "--threads")?
            }
            "--checkpoint-dir" => {
                out.checkpoint_dir = Some(cur.next_value("--checkpoint-dir")?.to_string())
            }
            "--resume" => out.resume = true,
            "--retry-budget" => {
                out.retry_budget =
                    parse_num(cur.next_value("--retry-budget")?, "--retry-budget")?
            }
            "--crash-at" => parse_crash_at(&mut out.faults, cur.next_value("--crash-at")?)?,
            "--inject" => parse_inject(&mut out.faults, cur.next_value("--inject")?)?,
            "--emit-artifact" => out.emit_artifact = true,
            other => return Err(CliError::usage(format!("unknown flag {other}"))),
        }
    }
    if out.data.is_empty() {
        return Err(CliError::usage("train requires --data"));
    }
    if out.sensitive.is_empty() {
        return Err(CliError::usage("train requires at least one --sensitive column"));
    }
    if out.out.is_empty() {
        return Err(CliError::usage("train requires --out"));
    }
    if !(0.0..=1.0).contains(&out.lambda) {
        return Err(CliError::usage("--lambda must be in [0, 1]"));
    }
    if !(out.val_split > 0.0 && out.val_split < 1.0) {
        return Err(CliError::usage("--val-split must be in (0, 1)"));
    }
    if out.checkpoint_dir.is_none() && (out.resume || out.faults.crash_point().is_some()) {
        return Err(CliError::usage(
            "--resume and --crash-at require --checkpoint-dir",
        ));
    }
    Ok(Command::Train(out))
}

fn parse_run(args: &[String]) -> Result<Command, CliError> {
    let mut out = RunArgs {
        seed: 11,
        scale: 0.10,
        threads: 0,
        faults: FaultPlan::default(),
        monitor_out: None,
    };
    let mut cur = Cursor { args, at: 0 };
    while cur.at < cur.args.len() {
        let flag = cur.args[cur.at].clone();
        cur.at += 1;
        match flag.as_str() {
            "--seed" => out.seed = parse_num(cur.next_value("--seed")?, "--seed")?,
            "--scale" => out.scale = parse_num(cur.next_value("--scale")?, "--scale")?,
            "--threads" => {
                out.threads = parse_num(cur.next_value("--threads")?, "--threads")?
            }
            "--inject" => parse_inject(&mut out.faults, cur.next_value("--inject")?)?,
            "--monitor-out" => {
                out.monitor_out = Some(cur.next_value("--monitor-out")?.to_string())
            }
            other => return Err(CliError::usage(format!("unknown flag {other}"))),
        }
    }
    if !(out.scale > 0.0 && out.scale <= 1.0) {
        return Err(CliError::usage("--scale must be in (0, 1]"));
    }
    Ok(Command::Run(out))
}

fn parse_monitor(args: &[String]) -> Result<Command, CliError> {
    let mut out = MonitorArgs {
        input: String::new(),
        warn_dp: 0.10,
        warn_skew: 0.50,
        warn_shift: 0.25,
        warn_reject: 0.05,
        exposition: false,
    };
    let mut cur = Cursor { args, at: 0 };
    while cur.at < cur.args.len() {
        let flag = cur.args[cur.at].clone();
        cur.at += 1;
        match flag.as_str() {
            "--input" => out.input = cur.next_value("--input")?.to_string(),
            "--warn-dp" => out.warn_dp = parse_num(cur.next_value("--warn-dp")?, "--warn-dp")?,
            "--warn-skew" => {
                out.warn_skew = parse_num(cur.next_value("--warn-skew")?, "--warn-skew")?
            }
            "--warn-shift" => {
                out.warn_shift = parse_num(cur.next_value("--warn-shift")?, "--warn-shift")?
            }
            "--warn-reject" => {
                out.warn_reject =
                    parse_num(cur.next_value("--warn-reject")?, "--warn-reject")?
            }
            "--exposition" => out.exposition = true,
            other => return Err(CliError::usage(format!("unknown flag {other}"))),
        }
    }
    if out.input.is_empty() {
        return Err(CliError::usage("monitor requires --input"));
    }
    Ok(Command::Monitor(out))
}

/// Parses an `--inject` fault schedule into `plan`: comma-separated
/// `pool:<i>` | `trial:<i>` | `cluster:<c>` | `row:<i>` | `drop:<c>/<g>`
/// | `io:<a>` items, e.g. `--inject pool:1,cluster:0,drop:2/1`.
fn parse_inject(plan: &mut FaultPlan, spec: &str) -> Result<(), CliError> {
    for item in spec.split(',').filter(|s| !s.trim().is_empty()) {
        let item = item.trim();
        let bad =
            || CliError::usage(format!("invalid --inject item {item:?}; see --help"));
        let (kind, value) = item.split_once(':').ok_or_else(bad)?;
        match kind {
            "pool" => {
                plan.fail_pool_member(value.parse().map_err(|_| bad())?);
            }
            "trial" => {
                plan.fail_tuning_trial(value.parse().map_err(|_| bad())?);
            }
            "cluster" => {
                plan.empty_cluster(value.parse().map_err(|_| bad())?);
            }
            "row" => {
                plan.poison_row(value.parse().map_err(|_| bad())?);
            }
            "drop" => {
                let (c, g) = value.split_once('/').ok_or_else(bad)?;
                plan.drop_group_in_region(
                    c.parse().map_err(|_| bad())?,
                    g.parse().map_err(|_| bad())?,
                );
            }
            "io" => {
                plan.fail_io_attempt(value.parse().map_err(|_| bad())?);
            }
            _ => return Err(bad()),
        }
    }
    Ok(())
}

/// Arms the `--crash-at <ordinal>:<phase>` kill point in `plan`.
fn parse_crash_at(plan: &mut FaultPlan, spec: &str) -> Result<(), CliError> {
    let bad = || {
        CliError::usage(format!(
            "invalid --crash-at {spec:?}; expected <ordinal>:<phase> with \
             phase one of before-write|after-record|mid-manifest|after-commit"
        ))
    };
    let (ord, phase) = spec.split_once(':').ok_or_else(bad)?;
    plan.crash_at(ord.parse().map_err(|_| bad())?, CrashPhase::parse(phase).ok_or_else(bad)?);
    Ok(())
}

fn parse_predict(args: &[String]) -> Result<Command, CliError> {
    let mut model = None;
    let mut data = None;
    let mut out = None;
    let mut threads = 0;
    let mut cur = Cursor { args, at: 0 };
    while cur.at < cur.args.len() {
        let flag = cur.args[cur.at].clone();
        cur.at += 1;
        match flag.as_str() {
            "--model" => model = Some(cur.next_value("--model")?.to_string()),
            "--data" => data = Some(cur.next_value("--data")?.to_string()),
            "--out" => out = Some(cur.next_value("--out")?.to_string()),
            "--threads" => threads = parse_num(cur.next_value("--threads")?, "--threads")?,
            other => return Err(CliError::usage(format!("unknown flag {other}"))),
        }
    }
    Ok(Command::Predict(PredictArgs {
        model: model.ok_or_else(|| CliError::usage("predict requires --model"))?,
        data: data.ok_or_else(|| CliError::usage("predict requires --data"))?,
        out,
        threads,
    }))
}

fn parse_model_data(args: &[String]) -> Result<ModelDataArgs, CliError> {
    let mut model = None;
    let mut data = None;
    let mut cur = Cursor { args, at: 0 };
    while cur.at < cur.args.len() {
        let flag = cur.args[cur.at].clone();
        cur.at += 1;
        match flag.as_str() {
            "--model" => model = Some(cur.next_value("--model")?.to_string()),
            "--data" => data = Some(cur.next_value("--data")?.to_string()),
            other => return Err(CliError::usage(format!("unknown flag {other}"))),
        }
    }
    Ok(ModelDataArgs {
        model: model.ok_or_else(|| CliError::usage("this command requires --model"))?,
        data: data.ok_or_else(|| CliError::usage("this command requires --data"))?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn empty_and_help() {
        assert_eq!(parse(&v(&[])).unwrap(), Command::Help);
        assert_eq!(parse(&v(&["--help"])).unwrap(), Command::Help);
        assert_eq!(parse(&v(&["help"])).unwrap(), Command::Help);
    }

    #[test]
    fn train_full_flags() {
        let cmd = parse(&v(&[
            "train", "--data", "d.csv", "--sensitive", "sex", "--sensitive", "race",
            "--out", "m.json", "--metric", "eq_od", "--lambda", "0.7",
            "--proxy", "reweigh", "--clusters", "8", "--val-split", "0.3",
            "--seed", "9", "--tune",
        ]))
        .unwrap();
        let Command::Train(t) = cmd else { panic!("expected train") };
        assert_eq!(t.sensitive, vec!["sex", "race"]);
        assert_eq!(t.metric, FairnessMetric::EqualizedOdds);
        assert_eq!(t.lambda, 0.7);
        assert_eq!(t.proxy, ProxyStrategy::Reweigh);
        assert_eq!(t.clusters, ClusterSpec::FixedK(8));
        assert_eq!(t.val_split, 0.3);
        assert_eq!(t.seed, 9);
        assert!(t.tune);
    }

    #[test]
    fn train_defaults() {
        let cmd = parse(&v(&[
            "train", "--data", "d.csv", "--sensitive", "sex", "--out", "m.json",
        ]))
        .unwrap();
        let Command::Train(t) = cmd else { panic!() };
        assert_eq!(t.metric, FairnessMetric::DemographicParity);
        assert_eq!(t.clusters, ClusterSpec::LogMeans);
        assert!(!t.tune);
    }

    #[test]
    fn missing_required_flags_are_usage_errors() {
        for bad in [
            vec!["train", "--sensitive", "s", "--out", "m"],
            vec!["train", "--data", "d", "--out", "m"],
            vec!["train", "--data", "d", "--sensitive", "s"],
            vec!["predict", "--data", "d"],
            vec!["audit", "--model", "m"],
            vec!["info"],
        ] {
            let err = parse(&v(&bad)).unwrap_err();
            assert_eq!(err.exit_code, 2, "{bad:?}");
        }
    }

    #[test]
    fn invalid_values_are_rejected() {
        let err = parse(&v(&[
            "train", "--data", "d", "--sensitive", "s", "--out", "m",
            "--lambda", "1.5",
        ]))
        .unwrap_err();
        assert!(err.message.contains("lambda"));
        let err = parse(&v(&[
            "train", "--data", "d", "--sensitive", "s", "--out", "m",
            "--metric", "nope",
        ]))
        .unwrap_err();
        assert!(err.message.contains("metric"));
        let err = parse(&v(&["frobnicate"])).unwrap_err();
        assert!(err.message.contains("subcommand"));
    }

    #[test]
    fn predict_and_audit_parse() {
        let cmd =
            parse(&v(&["predict", "--model", "m.json", "--data", "d.csv"])).unwrap();
        assert_eq!(
            cmd,
            Command::Predict(PredictArgs {
                model: "m.json".into(),
                data: "d.csv".into(),
                out: None,
                threads: 0,
            })
        );
        let cmd = parse(&v(&["audit", "--model", "m", "--data", "d"])).unwrap();
        assert!(matches!(cmd, Command::Audit(_)));
        let cmd = parse(&v(&["info", "--model", "m"])).unwrap();
        assert!(matches!(cmd, Command::Info { .. }));
    }

    #[test]
    fn run_defaults_and_flags() {
        let cmd = parse(&v(&["run"])).unwrap();
        assert_eq!(
            cmd,
            Command::Run(RunArgs {
                seed: 11,
                scale: 0.10,
                threads: 0,
                faults: FaultPlan::default(),
                monitor_out: None,
            })
        );
        let cmd = parse(&v(&["run", "--seed", "3", "--scale", "0.25", "--threads", "2"]))
            .unwrap();
        assert_eq!(
            cmd,
            Command::Run(RunArgs {
                seed: 3,
                scale: 0.25,
                threads: 2,
                faults: FaultPlan::default(),
                monitor_out: None,
            })
        );
        assert_eq!(parse(&v(&["run", "--scale", "0"])).unwrap_err().exit_code, 2);
        assert_eq!(parse(&v(&["run", "--scale", "1.5"])).unwrap_err().exit_code, 2);
    }

    #[test]
    fn monitor_flags_parse() {
        let cmd = parse(&v(&["run", "--monitor-out", "m.jsonl"])).unwrap();
        match cmd {
            Command::Run(args) => assert_eq!(args.monitor_out.as_deref(), Some("m.jsonl")),
            other => panic!("unexpected command {other:?}"),
        }
        let cmd = parse(&v(&["monitor", "--input", "m.jsonl"])).unwrap();
        assert_eq!(
            cmd,
            Command::Monitor(MonitorArgs {
                input: "m.jsonl".into(),
                warn_dp: 0.10,
                warn_skew: 0.50,
                warn_shift: 0.25,
                warn_reject: 0.05,
                exposition: false,
            })
        );
        let cmd = parse(&v(&[
            "monitor",
            "--input",
            "m.jsonl",
            "--warn-dp",
            "0.2",
            "--warn-skew",
            "1.0",
            "--warn-shift",
            "0.4",
            "--warn-reject",
            "0.01",
            "--exposition",
        ]))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Monitor(MonitorArgs {
                input: "m.jsonl".into(),
                warn_dp: 0.2,
                warn_skew: 1.0,
                warn_shift: 0.4,
                warn_reject: 0.01,
                exposition: true,
            })
        );
        assert_eq!(parse(&v(&["monitor"])).unwrap_err().exit_code, 2);
    }

    #[test]
    fn inject_specs_parse_into_fault_plans() {
        let cmd = parse(&v(&[
            "run", "--inject", "pool:1,cluster:0,drop:2/1,row:3,trial:4,io:6",
        ]))
        .unwrap();
        let Command::Run(r) = cmd else { panic!("expected run") };
        let mut expected = FaultPlan::default();
        expected
            .fail_pool_member(1)
            .empty_cluster(0)
            .drop_group_in_region(2, 1)
            .poison_row(3)
            .fail_tuning_trial(4)
            .fail_io_attempt(6);
        assert_eq!(r.faults, expected);

        for bad in ["pool", "pool:x", "drop:2", "drop:a/b", "gremlin:1", "io:x"] {
            let err = parse(&v(&["run", "--inject", bad])).unwrap_err();
            assert_eq!(err.exit_code, 2, "{bad}");
        }
    }

    #[test]
    fn train_journal_and_artifact_flags() {
        let base = ["train", "--data", "d.csv", "--sensitive", "sens", "--out", "m.json"];
        let Command::Train(t) = parse(&v(&base)).unwrap() else { panic!("expected train") };
        assert_eq!(t.checkpoint_dir, None);
        assert!(!t.resume && !t.emit_artifact);
        assert_eq!(t.retry_budget, 3);
        assert_eq!(t.faults, FaultPlan::default());

        let mut argv = base.to_vec();
        argv.extend([
            "--checkpoint-dir", "ck", "--resume", "--threads", "2", "--retry-budget", "5",
            "--crash-at", "7:after-record", "--inject", "io:2", "--emit-artifact",
        ]);
        let Command::Train(t) = parse(&v(&argv)).unwrap() else { panic!("expected train") };
        assert_eq!(t.checkpoint_dir.as_deref(), Some("ck"));
        assert!(t.resume && t.emit_artifact);
        assert_eq!((t.threads, t.retry_budget), (2, 5));
        let mut expected = FaultPlan::default();
        expected.crash_at(7, CrashPhase::AfterRecord).fail_io_attempt(2);
        assert_eq!(t.faults, expected);
    }

    #[test]
    fn train_journal_usage_errors() {
        let base = ["train", "--data", "d", "--sensitive", "s", "--out", "m"];
        for extra in [
            // --resume / --crash-at without a journal directory
            vec!["--resume"],
            vec!["--crash-at", "1:after-record"],
            // malformed crash points and retry budgets
            vec!["--checkpoint-dir", "ck", "--crash-at", "1"],
            vec!["--checkpoint-dir", "ck", "--crash-at", "x:after-record"],
            vec!["--checkpoint-dir", "ck", "--crash-at", "1:nope"],
            vec!["--checkpoint-dir", "ck", "--retry-budget", "-1"],
            // the removed `--rows` of the old synthetic fit
            vec!["--rows", "400"],
        ] {
            let argv = [&base[..], &extra[..]].concat();
            let err = parse(&v(&argv)).unwrap_err();
            assert_eq!(err.exit_code, 2, "{extra:?}");
        }
        let err = parse(&v(&[&base[..], &["--resume"]].concat())).unwrap_err();
        assert!(err.message.contains("require --checkpoint-dir"), "{}", err.message);
        let err = parse(&v(&["fit", "--out", "m.json"])).unwrap_err();
        assert!(err.message.contains("unknown subcommand"), "{}", err.message);
    }

    #[test]
    fn telemetry_flags_extract_from_anywhere() {
        let (rest, t) = extract_telemetry(&v(&[
            "--profile", "run", "--trace-out", "t.jsonl", "--seed", "5", "--quiet",
        ]))
        .unwrap();
        assert_eq!(rest, v(&["run", "--seed", "5"]));
        assert!(t.profile && t.quiet);
        assert_eq!(t.trace_out.as_deref(), Some("t.jsonl"));
        assert!(t.recording());

        let (rest, t) = extract_telemetry(&v(&["audit", "--model", "m"])).unwrap();
        assert_eq!(rest, v(&["audit", "--model", "m"]));
        assert_eq!(t, TelemetryOpts::default());
        assert!(!t.recording());

        let err = extract_telemetry(&v(&["run", "--trace-out"])).unwrap_err();
        assert_eq!(err.exit_code, 2);
    }
}
