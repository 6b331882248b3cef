//! A fixed reference workload that gauges the host's speed during a run,
//! so that a run's timings can be given at one reference speed.
//!
//! On the 2-vCPU KVM guest this benchmark was defined on, the host's speed
//! drifted over minutes as other tenants came and went: the same fit at
//! scale 1.0 took 14.3 s, 9–12 s and 5.3 s at different times of one
//! morning, and bulk scoring ran at 2.9 to 11.9 M rows/s, every timing of
//! a run moving together. Nothing in a run's own timings can tell a slower
//! program from a slower host, so each run also times this gauge — code
//! of the benchmark's own, calling nothing in the program — interleaved
//! with the program's phases, and scales every timing by
//! [`REFERENCE_S`] over the gauge's time in that run.
//!
//! A pass walks rows through a synthetic forest of complete decision trees
//! and sorts floating-point keys: branchy, cache-bound work like the
//! program's tree walks and sorts, which slows with the host the way the
//! program does. A dependent integer-multiply loop did not (it kept its
//! speed while single-row requests slowed 1.5x), and a pointer chase over
//! 16 MiB did only in part. Over ten fit_adult runs that spanned two of
//! the host's speeds (interquartile range over the median, wall clock →
//! scaled): fit_s 16.4% → 3.9%, cold_start_p50_ms 19.5% → 1.4%,
//! single_p50_us 17.7% → 3.2%, microbatch_p50_us 18.1% → 2.2%,
//! batch_rows_per_s 26.8% → 12.2%; over five score_bulk runs,
//! batch_rows_per_s 12.6% → 2.0%. When the host later ran 1.7x slower
//! (a pass took 0.86–1.11 ms against 0.52–0.64 ms), every scaled timing
//! stayed within 14% of its median in the faster stretch, while the wall
//! clock moved by 1.5–2x.
//!
//! The gauge runs on the benchmark's one thread, between the program's
//! phases, never alongside them. Timed on nproc threads at once, to
//! match the nproc-thread batches and fits, it tracked them no better.

use std::time::Instant;

use crate::schedule::SplitMix;

/// Trees in the synthetic forest.
const TREES: usize = 32;
/// Depth of each complete tree.
const DEPTH: usize = 12;
/// Features per row.
const FEATURES: usize = 12;
/// Rows walked through every tree per pass.
const ROWS: usize = 256;
/// Passes whose rows differ before the rows repeat.
const ROW_SETS: usize = 16;
/// Keys sorted per pass.
const KEYS: usize = 16_384;

/// The gauge time per pass that timings are given at: about a pass's time
/// on that host in its fastest stretches, so that values there read close
/// to wall-clock time.
pub const REFERENCE_S: f64 = 0.5e-3;

/// The gauge's fixed inputs, from a constant seed.
pub struct Gauge {
    feature: Vec<u32>,
    threshold: Vec<f64>,
    rows: Vec<f64>,
    keys: Vec<f64>,
}

impl Gauge {
    /// Builds the gauge's fixed inputs.
    pub fn new() -> Self {
        let mut rng = SplitMix::new(0x6A06E);
        let nodes = TREES * ((1 << DEPTH) - 1);
        Self {
            feature: (0..nodes).map(|_| rng.below(FEATURES) as u32).collect(),
            threshold: (0..nodes).map(|_| rng.next_f64()).collect(),
            rows: (0..ROW_SETS * ROWS * FEATURES)
                .map(|_| rng.next_f64())
                .collect(),
            keys: (0..KEYS).map(|_| rng.next_f64()).collect(),
        }
    }

    /// Time of pass number `n`, in seconds.
    pub fn time(&self, n: usize) -> f64 {
        let t0 = Instant::now();
        let out = self.pass(n);
        let dt = t0.elapsed().as_secs_f64();
        std::hint::black_box(out);
        dt
    }

    /// One pass: the forest walk over the pass's rows, then the sort.
    /// Returns a checksum of both.
    fn pass(&self, n: usize) -> usize {
        let per_tree = (1 << DEPTH) - 1;
        let rows = &self.rows[(n % ROW_SETS) * ROWS * FEATURES..][..ROWS * FEATURES];
        let mut leaves = 0usize;
        for row in rows.chunks_exact(FEATURES) {
            for tree in 0..TREES {
                let base = tree * per_tree;
                let mut i = 0usize;
                while i < per_tree / 2 {
                    let f = self.feature[base + i] as usize;
                    i = 2 * i + 1 + usize::from(row[f] > self.threshold[base + i]);
                }
                leaves = leaves.wrapping_add(i);
            }
        }
        let mut keys = self.keys.clone();
        keys.sort_unstable_by(f64::total_cmp);
        leaves ^ keys[KEYS / 2].to_bits() as usize
    }
}
