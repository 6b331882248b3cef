//! Cold-start benchmark: JSON restore+compile vs the binary serving
//! artifact, with the JSON path broken down by stage. Writes
//! `BENCH_artifacts.json` at the repo root.
//!
//! `--smoke` shrinks the data and repetition count for CI; a bit-identity
//! divergence between the artifact-loaded plane and the JSON path exits
//! non-zero in every mode. At benchmark scale (no `--smoke`, scale ≥
//! 0.10) the cold-start speedup additionally gates against
//! [`falcc_bench::artifacts::COLD_START_MIN_SPEEDUP`].

use falcc_bench::artifacts::COLD_START_MIN_SPEEDUP;
use falcc_bench::{bench_artifacts, Opts};

fn main() {
    let opts = Opts::from_args();
    // The minimum over repeated cold starts is the figure of merit; more
    // repetitions pin the floor on shared boxes.
    let (scale, reps) = if opts.smoke { (0.02, 1) } else { (opts.scale, 15) };

    falcc_telemetry::progress(format!(
        "benchmarking cold starts at scale {scale} (reps {reps}, seed {})",
        opts.seed
    ));
    let report = bench_artifacts(scale, opts.seed, reps);

    println!(
        "cold start              ms\n\
         json read+parse    {:>7.2}\n\
         restore            {:>7.4}\n\
         compile            {:>7.2}\n\
         json total         {:>7.2}\n\
         artifact validate  {:>7.2}\n\
         artifact total     {:>7.2}\n\
         speedup            {:>6.1}x",
        report.json_parse_ms,
        report.restore_ms,
        report.compile_ms,
        report.json_cold_ms,
        report.artifact_validate_ms,
        report.artifact_cold_ms,
        report.cold_start_speedup,
    );
    println!(
        "snapshot {} KiB json / {} KiB artifact; {} pool members, {} regions, \
         {} flat nodes; equivalent: {}",
        report.json_bytes / 1024,
        report.artifact_bytes / 1024,
        report.pool_models,
        report.n_regions,
        report.flat_nodes,
        report.equivalent,
    );

    let json = serde_json::to_string(&report).expect("serialise report");
    let out = "BENCH_artifacts.json";
    std::fs::write(out, json).expect("write BENCH_artifacts.json");
    falcc_telemetry::progress(format!("wrote {out} ({} test rows)", report.test_rows));
    opts.finish_telemetry();

    if !report.equivalent {
        falcc_telemetry::progress(
            "artifact-loaded plane diverged from the JSON restore+compile path",
        );
        std::process::exit(1);
    }
    if !opts.smoke && scale >= 0.10 && report.cold_start_speedup < COLD_START_MIN_SPEEDUP {
        eprintln!(
            "artifact cold start only {:.1}x faster than JSON restore+compile at \
             scale {scale} (bound {COLD_START_MIN_SPEEDUP}x)",
            report.cold_start_speedup
        );
        std::process::exit(1);
    }
}
