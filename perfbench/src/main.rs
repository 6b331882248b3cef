//! FALCC performance benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload fit_adult|score_bulk --seed N --seconds S --trace 0|1
//! ```
//!
//! One workload per process. `--trace 0` measures the end-to-end metrics
//! with nothing but the benchmark's own stopwatches around library calls;
//! `--trace 1` is a separate run that records spans around calls into each
//! layer's public functions and derives the per-layer metrics from them.
//! Neither mode turns on `falcc_telemetry` recording: with recording on,
//! `CentroidMatrix::nearest` takes its norm-prefiltered scan and the
//! compiled plane reads the clock twice per row, so a recording run would
//! measure a different program. The live monitor is separate from
//! recording; only the traced run installs it, to measure it.
//!
//! End-to-end timings are given at a reference host speed: each run also
//! times a fixed gauge of the benchmark's own ([`gauge`]) and scales its
//! timings by the gauge's reference time over its measured time; a note
//! line prints the wall-clock values. The per-layer metrics are wall
//! clock.
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. The lines before it are the
//! environment block (JSON), notes, and every metric by name and unit.

mod check;
mod env;
mod gauge;
mod run;
mod schedule;
mod stats;
mod trace;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;

use check::Tally;
use workload::Workload;

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// The value as measured.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

impl Metric {
    /// A metric.
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Self { name, value, unit }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::by_name(&value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} outside (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                });
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if falcc_telemetry::enabled() {
        eprintln!("perfbench: FALCC_TELEMETRY turns on recording, which changes the measured program; unset it");
        return ExitCode::from(2);
    }
    let root = env::repo_root();
    let dir: PathBuf = root.join(".perfbench").join(format!(
        "{}-{}-{}",
        args.workload.name,
        args.seed,
        std::process::id()
    ));
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("perfbench: creating {}: {e}", dir.display());
        return ExitCode::from(1);
    }

    let w = args.workload;
    let nproc = env::nproc();
    println!(
        "{{\"env\": {{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"commit\": {}, \"source_digest\": {}, \"nproc\": {nproc}, \"target_cpu\": {}, \"rustc\": {}, \"fit_scale\": {}, \"draw_scale\": 1.0, \"fit_threads\": {nproc}, \"batch_threads\": {}, \"online_threads\": {}}}}}",
        env::json_str(w.name),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        env::git_commit(&root).map_or("null".to_string(), |c| env::json_str(&c)),
        env::json_str(&env::source_digest(&root)),
        env::json_str(&env::target_cpu()),
        env::json_str(env!("PERFBENCH_RUSTC")),
        w.fit_scale,
        w.batch_threads.get(),
        run::ONLINE_THREADS,
    );

    let mut notes = Vec::new();
    let outcome = if args.trace {
        trace::run(&w, args.seed, args.seconds, &dir, &mut notes)
    } else {
        run::run(&w, args.seed, args.seconds, &dir, &mut notes)
    };
    if let Err(e) = std::fs::remove_dir_all(&dir) {
        notes.push(format!("could not remove {}: {e}", dir.display()));
    }
    // The parent directory is shared by concurrent runs; remove it only
    // when this run was the last one in it.
    let _ = std::fs::remove_dir(root.join(".perfbench"));

    for note in &notes {
        println!("# {note}");
    }
    let (tally, metrics, code) = match outcome {
        Ok((tally, metrics)) => (tally, metrics, ExitCode::SUCCESS),
        Err((tally, e)) => {
            println!("# run failed: {e}");
            (
                Tally {
                    failed: tally.failed.max(1),
                    attempted: tally.attempted.max(1),
                },
                Vec::new(),
                ExitCode::from(1),
            )
        }
    };
    for m in &metrics {
        println!("{:<40} {:>16.6} {}", m.name, m.value, m.unit);
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                env::json_str(m.name),
                json_num(m.value),
                env::json_str(m.unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.correct(),
        tally.attempted,
        tally.failed,
        body.join(", ")
    );
    code
}

/// A JSON number with every digit Rust's shortest round-trip formatting
/// gives (non-finite values, which JSON cannot carry, become `null`).
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}
