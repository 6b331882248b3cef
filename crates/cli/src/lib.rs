//! # falcc-cli
//!
//! Command-line workflow around the `falcc` library:
//!
//! ```text
//! falcc train   --data train.csv --sensitive sex --out model.json
//! falcc predict --model model.json --data new.csv --out predictions.csv
//! falcc audit   --model model.json --data test.csv
//! falcc info    --model model.json
//! ```
//!
//! CSV format: header row, numeric cells, binary label in the **last**
//! column (see `falcc_dataset::csv`). Sensitive attributes are named by
//! header and must be `0/1`-coded; pass `--sensitive` repeatedly for
//! intersectional groups.
//!
//! The command logic lives in this library crate (returning the output as
//! a `String`) so it is unit-testable without spawning processes; the
//! `falcc` binary is a thin `main` around [`run`].

pub mod args;
pub mod commands;

pub use args::{Command, ParsedArgs};

/// Error type for CLI operations: a human-readable message plus the
/// process exit code to use.
#[derive(Debug)]
pub struct CliError {
    /// The message printed to stderr.
    pub message: String,
    /// Process exit code (2 = usage, 1 = runtime failure).
    pub exit_code: i32,
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for CliError {}

impl CliError {
    pub(crate) fn usage(message: impl Into<String>) -> Self {
        Self { message: message.into(), exit_code: 2 }
    }

    pub(crate) fn runtime(message: impl Into<String>) -> Self {
        Self { message: message.into(), exit_code: 1 }
    }
}

/// Parses and executes one CLI invocation, returning the text to print.
///
/// The global `--profile`, `--trace-out <path>`, and `--quiet` flags are
/// accepted anywhere on the command line and handled here: they activate
/// telemetry before the command runs, and afterwards append the phase-tree
/// report (`--profile`) and/or write the JSON-lines trace (`--trace-out`).
///
/// # Errors
/// [`CliError`] with a usage (exit 2) or runtime (exit 1) failure.
pub fn run(argv: &[String]) -> Result<String, CliError> {
    let (argv, telemetry) = args::extract_telemetry(argv)?;
    falcc_telemetry::set_quiet(telemetry.quiet);
    if telemetry.recording() {
        falcc_telemetry::enable();
        falcc_telemetry::reset();
    }
    let parsed = args::parse(&argv)?;
    let mut output = commands::execute(parsed)?;
    if telemetry.recording() {
        let snap = falcc_telemetry::snapshot();
        if let Some(path) = &telemetry.trace_out {
            snap.write_jsonl(std::path::Path::new(path)).map_err(|e| {
                CliError::runtime(format!("cannot write trace to {path}: {e}"))
            })?;
        }
        if telemetry.profile {
            output.push_str("\n-- profile --\n");
            output.push_str(&snap.render_tree());
        }
    }
    Ok(output)
}

/// Usage text shown by `--help` and on argument errors.
pub const USAGE: &str = "\
falcc — locally fair and accurate classification (FALCC, EDBT 2024)

USAGE:
  falcc train   --data <csv> --sensitive <col> [--sensitive <col>…] --out <model.json>
                [--metric dp|eq_od|eq_op|tr_eq] [--lambda <0..1>]
                [--proxy none|reweigh|remove] [--clusters auto|elbow|<k>]
                [--val-split <0..1>] [--seed <u64>] [--tune] [--threads <n>]
                [--checkpoint-dir <dir>] [--resume] [--retry-budget <n>]
                [--crash-at <ordinal>:<phase>] [--inject <spec>] [--emit-artifact]
  falcc predict --model <model.json> --data <csv> [--out <csv>] [--threads <n>]
  falcc audit   --model <model.json> --data <csv>
  falcc info    --model <model.json>
  falcc run     [--seed <u64>] [--scale <0..1>] [--threads <n>]
                [--inject <spec>] [--monitor-out <jsonl>]
  falcc monitor --input <jsonl> [--warn-dp <gap>] [--warn-skew <score>]
                [--warn-shift <tv>] [--warn-reject <rate>] [--exposition]

GLOBAL FLAGS (any subcommand):
  --profile            print a per-phase span tree and metrics afterwards
  --trace-out <path>   write the full trace as JSON lines
  --quiet              suppress progress output on stderr

`falcc run` fits and classifies a synthetic benchmark dataset end to end —
no input files needed; combine with --profile / --trace-out to inspect the
pipeline, e.g. `falcc run --profile --trace-out trace.jsonl`.

--inject arms the deterministic fault harness: a comma-separated list of
pool:<i> (quarantine pool member i), trial:<i> (fail tuning trial i),
cluster:<c> (empty region c), drop:<c>/<g> (remove group g from region
c), row:<i> (poison online batch row i), io:<a> (fail checkpoint-journal
I/O attempt a, absorbed by the bounded retry layer) — e.g. `falcc run
--inject pool:1,cluster:0 --profile` shows graceful degradation plus its
counters. Under train, io: items fire only with --checkpoint-dir and
trial: items only with --tune; row: items fire only in run, which serves
rows.

train fits on a seeded shuffle of the CSV: the --val-split share of the
rows is the validation set, every other row trains the pool. With
--checkpoint-dir it journals the offline fit in phase-granular
checkpoints (atomic records + a chained, fingerprinted manifest). After a
crash — or a hard kill injected via --crash-at <ordinal>:<phase>, phase
one of before-write|after-record|mid-manifest|after-commit — re-running
the same command with --resume picks up after the last valid checkpoint
and writes a model snapshot byte-identical to an uninterrupted run, at
any --threads value. A --crash-at point the run never reaches (an
ordinal past its last commit, or one that --resume skips) exits 2
without writing the model. --retry-budget (default 3) bounds the retries
of a transient journal I/O failure. With --tune only the final fit is
journaled: the tuning trials run without it, and a resumed run repeats
the deterministic search before resuming the fit.

CSV format: header row, numeric cells, binary label in the last column.
Sensitive columns must be 0/1-coded. predict and audit require the
model's attribute columns, with the names and in the order it was
trained on; any other header is refused with a column-mismatch error.

--threads 0 (the default) uses every available core. The thread count is
a throughput knob only: trained models and predictions are bit-identical
for every value.

predict, audit and run classify through the compiled serving plane
(flattened inference artifacts with region-batched dispatch), which
serves labels bit-identical to the fitted model's plain reference
online phase.

`train --emit-artifact` additionally compiles the snapshot and writes
the serving plane as a binary artifact next to the JSON (same path,
.falccb extension). predict prefers a sibling .falccb when its recorded
fingerprint matches the JSON snapshot on disk, skipping parse, restore
and compile for a millisecond cold start; a stale, corrupt or truncated
artifact is rejected with a typed error and predict silently falls back
to the JSON path (counted in serve.artifact_fallbacks). Predictions are
bit-identical either way.

--monitor-out installs the live serving monitors around the run's
classification pass and writes the windowed fairness/drift stream as
JSON lines (predictions and stdout are identical with monitors on or
off). `falcc monitor` renders such a stream as a per-window, per-region
report — live demographic-parity gap, occupancy skew and group-mix
shift against the model's offline baseline, distance-to-centroid drift
quantiles — emitting WARN lines where the --warn-* thresholds are
exceeded, or Prometheus-style text exposition with --exposition.
";
