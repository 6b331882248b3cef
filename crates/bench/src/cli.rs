//! Minimal flag parsing shared by all experiment binaries (no CLI crate in
//! the allowed dependency set).

use std::path::PathBuf;

/// Common experiment options.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Base RNG seed; run `r` uses `seed + r`.
    pub seed: u64,
    /// Number of runs (dataset splits) to average over. The paper uses 4.
    pub runs: usize,
    /// Row-count scale of the emulated datasets in `(0, 1]`.
    pub scale: f64,
    /// Output directory for CSV files.
    pub out: PathBuf,
    /// Record telemetry and print the per-phase profile (`--profile`).
    pub profile: bool,
    /// Record telemetry and write the trace as JSON lines here.
    pub trace_out: Option<PathBuf>,
    /// Suppress progress output on stderr (`--quiet`).
    pub quiet: bool,
}

impl Default for Opts {
    fn default() -> Self {
        Self {
            seed: 11,
            runs: 4,
            scale: 0.10,
            out: PathBuf::from("bench_results"),
            profile: false,
            trace_out: None,
            quiet: false,
        }
    }
}

impl Opts {
    /// Parses `--seed`, `--runs`, `--scale`, `--out`, `--profile`,
    /// `--trace-out`, `--quiet` from the process args, then
    /// activates telemetry accordingly ([`Self::activate_telemetry`]).
    /// Unknown flags abort with a usage message — silent typos would waste
    /// long experiment runs.
    pub fn from_args() -> Self {
        let opts = Self::parse(std::env::args().skip(1));
        opts.activate_telemetry();
        opts
    }

    /// Applies the telemetry flags: `--quiet` silences progress output,
    /// and `--profile`/`--trace-out` turn recording on.
    pub fn activate_telemetry(&self) {
        falcc_telemetry::set_quiet(self.quiet);
        if self.profile || self.trace_out.is_some() {
            falcc_telemetry::enable();
        }
    }

    /// Final telemetry output: writes the JSON-lines trace when
    /// `--trace-out` was given and prints the phase tree when `--profile`
    /// was. Call once at the end of an experiment binary.
    pub fn finish_telemetry(&self) {
        if !(self.profile || self.trace_out.is_some()) {
            return;
        }
        let snap = falcc_telemetry::snapshot();
        if let Some(path) = &self.trace_out {
            if let Err(e) = snap.write_jsonl(path) {
                eprintln!("cannot write trace to {}: {e}", path.display());
                std::process::exit(1);
            }
        }
        if self.profile {
            println!("\n-- profile --\n{}", snap.render_tree());
        }
    }

    fn parse(args: impl Iterator<Item = String>) -> Self {
        let mut opts = Self::default();
        let mut args = args.peekable();
        while let Some(flag) = args.next() {
            let mut value = |name: &str| -> String {
                args.next().unwrap_or_else(|| {
                    eprintln!("missing value for {name}");
                    std::process::exit(2);
                })
            };
            match flag.as_str() {
                "--seed" => opts.seed = parse_or_die(&value("--seed"), "--seed"),
                "--runs" => opts.runs = parse_or_die(&value("--runs"), "--runs"),
                "--scale" => opts.scale = parse_or_die(&value("--scale"), "--scale"),
                "--out" => opts.out = PathBuf::from(value("--out")),
                "--profile" => opts.profile = true,
                "--trace-out" => opts.trace_out = Some(PathBuf::from(value("--trace-out"))),
                "--quiet" => opts.quiet = true,
                "--help" | "-h" => {
                    println!(
                        "flags: --seed <u64> --runs <n> --scale <0..1] --out <dir>\n\
                         \x20      --profile --trace-out <path> --quiet\n\
                         defaults: --seed 11 --runs 4 --scale 0.10 --out bench_results"
                    );
                    std::process::exit(0);
                }
                other => {
                    eprintln!("unknown flag {other}; see --help");
                    std::process::exit(2);
                }
            }
        }
        if !(opts.scale > 0.0 && opts.scale <= 1.0) {
            eprintln!("--scale must be in (0, 1], got {}", opts.scale);
            std::process::exit(2);
        }
        if opts.runs == 0 {
            eprintln!("--runs must be positive");
            std::process::exit(2);
        }
        opts
    }

    /// The per-run seeds.
    pub fn run_seeds(&self) -> Vec<u64> {
        (0..self.runs as u64).map(|r| self.seed + r).collect()
    }

    /// Ensures the output directory exists and returns it.
    ///
    /// # Panics
    /// Panics if the directory cannot be created.
    pub fn ensure_out_dir(&self) -> &std::path::Path {
        std::fs::create_dir_all(&self.out).expect("create output directory");
        &self.out
    }
}

fn parse_or_die<T: std::str::FromStr>(s: &str, flag: &str) -> T {
    s.parse().unwrap_or_else(|_| {
        eprintln!("invalid value {s:?} for {flag}");
        std::process::exit(2);
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Opts {
        Opts::parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults_without_flags() {
        let o = parse(&[]);
        assert_eq!(o.seed, 11);
        assert_eq!(o.runs, 4);
        assert!((o.scale - 0.10).abs() < 1e-12);
    }

    #[test]
    fn flags_override_defaults() {
        let o = parse(&["--seed", "99", "--runs", "2", "--scale", "0.5", "--out", "/tmp/x"]);
        assert_eq!(o.seed, 99);
        assert_eq!(o.runs, 2);
        assert!((o.scale - 0.5).abs() < 1e-12);
        assert_eq!(o.out, PathBuf::from("/tmp/x"));
    }

    #[test]
    fn telemetry_flags_parse() {
        let o = parse(&["--profile", "--trace-out", "t.jsonl", "--quiet"]);
        assert!(o.profile);
        assert!(o.quiet);
        assert_eq!(o.trace_out, Some(PathBuf::from("t.jsonl")));
        let o = parse(&[]);
        assert!(!o.profile && !o.quiet && o.trace_out.is_none());
    }

    #[test]
    fn run_seeds_are_consecutive() {
        let o = parse(&["--seed", "5", "--runs", "3"]);
        assert_eq!(o.run_seeds(), vec![5, 6, 7]);
    }
}
