//! Order statistics over timing samples.
//!
//! A percentile is only reported together with its sample count, and only
//! when at least [`MIN_BEYOND`] samples lie beyond it: a p99 over 300
//! samples rests on three values and moved 15–86% between runs of one
//! commit, so it is refused instead of printed.
//!
//! A run's timings are taken in blocks: each block is a short stretch of
//! one kind of operation (at least [`crate::run::STEP`]) and yields its
//! own median or percentile, and the run reports the mean of its block
//! values with the highest and lowest [`TRIM`] of the blocks left out.
//! On the 2-vCPU KVM guest this benchmark was defined on, the same code
//! on either vCPU ran at one of two speeds about 1.5x apart (single-row
//! requests took 37–42 µs or 55–64 µs per 200 rows, in 0.25 s slices,
//! while a dependent integer-multiply loop kept its speed), and the speed
//! flipped every fraction of a second to a few seconds. The share
//! of slow time changed from run to run. A median over a whole run jumps
//! from one speed to the other when the slow share crosses one half, and
//! a low quantile when the fast share crosses it: runs of one commit read
//! up to 39% apart that way. The trimmed mean moves only in proportion to
//! the share, and a rare stall does not move it.

/// Samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// A percentile with the sample count it was taken from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The percentile's value, in the samples' unit.
    pub value: f64,
    /// Samples the percentile was taken from.
    pub samples: usize,
    /// Samples strictly beyond the percentile's rank.
    pub beyond: usize,
}

/// Nearest-rank percentile `q` (in `(0, 1)`) of `sorted`, which must be in
/// ascending order.
///
/// # Errors
/// A description of the refusal when fewer than [`MIN_BEYOND`] samples lie
/// beyond the percentile's rank.
pub fn percentile(sorted: &[f64], q: f64) -> Result<Percentile, String> {
    assert!(q > 0.0 && q < 1.0, "percentile rank {q} outside (0, 1)");
    debug_assert!(
        sorted.windows(2).all(|w| w[0] <= w[1]),
        "samples must be sorted"
    );
    let n = sorted.len();
    let rank = (q * n as f64).ceil() as usize;
    let beyond = n.saturating_sub(rank.max(1));
    if n == 0 || beyond < MIN_BEYOND {
        return Err(format!(
            "p{} refused: {beyond} of {n} samples beyond it, {MIN_BEYOND} needed",
            q * 100.0
        ));
    }
    Ok(Percentile {
        value: sorted[rank - 1],
        samples: n,
        beyond,
    })
}

/// Share of blocks left out at each end before averaging.
pub const TRIM: f64 = 0.1;

/// Fewest blocks a run's value is taken over.
pub const MIN_BLOCKS: usize = 20;

/// Mean of `blocks` without the highest and lowest [`TRIM`] of them.
///
/// # Errors
/// A description of the refusal when there are fewer than [`MIN_BLOCKS`]
/// blocks.
pub fn trimmed_mean(blocks: &[f64]) -> Result<f64, String> {
    if blocks.len() < MIN_BLOCKS {
        return Err(format!("{} blocks, {MIN_BLOCKS} needed", blocks.len()));
    }
    let mut sorted = blocks.to_vec();
    sort(&mut sorted);
    let cut = (TRIM * sorted.len() as f64).floor() as usize;
    let kept = &sorted[cut..sorted.len() - cut];
    Ok(kept.iter().sum::<f64>() / kept.len() as f64)
}

/// Samples needed before percentile `q` can be reported.
pub fn samples_needed(q: f64) -> usize {
    // n − ceil(q·n) ≥ MIN_BEYOND  ⇐  n ≥ MIN_BEYOND / (1 − q), plus one
    // for the rounding of the rank.
    (MIN_BEYOND as f64 / (1.0 - q)).ceil() as usize + 1
}

/// Sorts `samples` in place (total order; timings are never NaN).
pub fn sort(samples: &mut [f64]) {
    samples.sort_by(f64::total_cmp);
}

/// Median of `samples` (sorted copy; the mean of the middle pair for an
/// even count).
///
/// # Panics
/// Panics on an empty slice.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut s = samples.to_vec();
    sort(&mut s);
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_reports_its_sample_count() {
        let samples: Vec<f64> = (1..=200).map(f64::from).collect();
        let p90 = percentile(&samples, 0.90).expect("20 samples beyond p90");
        assert_eq!(p90.samples, 200);
        assert_eq!(p90.beyond, 20);
        assert_eq!(p90.value, 180.0);
        let p50 = percentile(&samples, 0.50).expect("100 samples beyond p50");
        assert_eq!((p50.value, p50.samples, p50.beyond), (100.0, 200, 100));
    }

    #[test]
    fn percentile_with_fewer_than_ten_samples_beyond_is_refused() {
        let samples: Vec<f64> = (1..=500).map(f64::from).collect();
        // p99 of 500 samples has five beyond it.
        let err = percentile(&samples, 0.99).expect_err("5 beyond p99");
        assert!(err.contains("5 of 500"), "{err}");
        // Exactly ten beyond is enough.
        assert!(percentile(&samples[..100], 0.90).is_ok());
        assert!(percentile(&samples[..99], 0.90).is_err());
        assert!(percentile(&[], 0.5).is_err());
    }

    #[test]
    fn samples_needed_is_the_smallest_accepted_count() {
        for q in [0.5, 0.9, 0.99] {
            let n = samples_needed(q);
            let s: Vec<f64> = (0..n).map(|i| i as f64).collect();
            assert!(percentile(&s, q).is_ok(), "q={q} n={n}");
        }
    }

    #[test]
    fn trimmed_mean_leaves_out_a_tenth_at_each_end() {
        // 20 blocks: one stall and one outlier below are left out.
        let mut blocks = vec![1.0; 18];
        blocks.push(100.0);
        blocks.push(0.0);
        assert_eq!(trimmed_mean(&blocks), Ok(1.0));
        // Between two speeds, the value follows the share of each.
        let mixed: Vec<f64> = (0..40).map(|i| if i < 10 { 40.0 } else { 60.0 }).collect();
        assert_eq!(trimmed_mean(&mixed), Ok((6.0 * 40.0 + 26.0 * 60.0) / 32.0));
        // Too few blocks are refused.
        let err = trimmed_mean(&blocks[..MIN_BLOCKS - 1]).expect_err("too few blocks");
        assert!(err.contains("19 blocks"), "{err}");
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
