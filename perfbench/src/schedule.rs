//! Workload inputs derived from the seed: the scored draw cut into
//! uniform batches, and the online request schedule.

use falcc_dataset::Dataset;

/// Share of online requests that are single rows; the rest are
/// [`MICROBATCH_ROWS`]-row `classify_batch` requests.
pub const SINGLE_SHARE: f64 = 0.90;

/// Rows per micro-batch request. One size only: a mix of 1-, 4-, 16- and
/// 64-row requests put the median between modes and it spread 14–27%.
pub const MICROBATCH_ROWS: usize = 16;

/// Share of scheduled rows that are malformed (wrong width, NaN, or a
/// sensitive value outside its domain), in both request classes.
pub const MALFORMED_SHARE: f64 = 0.01;

/// SplitMix64: a tiny deterministic generator, so the schedule is a pure
/// function of the seed and independent of any library's RNG.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_f64() * n as f64) as usize
    }
}

/// Cuts `0..n` into batches of exactly `batch` rows. Throughput is taken
/// from the median time of uniform batches, so a short remainder batch
/// would be a different measurement: `n` must be a multiple of `batch`.
///
/// # Errors
/// When `batch` is 0 or does not divide `n`.
pub fn uniform_batches(n: usize, batch: usize) -> Result<Vec<std::ops::Range<usize>>, String> {
    if batch == 0 || n == 0 || !n.is_multiple_of(batch) {
        return Err(format!(
            "{n} rows do not cut into uniform {batch}-row batches"
        ));
    }
    Ok((0..n / batch).map(|b| b * batch..(b + 1) * batch).collect())
}

/// How a scheduled row was made malformed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Malformation {
    /// One attribute too many.
    WrongWidth,
    /// A NaN in a non-sensitive column.
    NaN,
    /// The sensitive attribute set outside its domain.
    GroupOutOfDomain,
}

/// One scheduled row: where it comes from in the draw, and whether it was
/// made malformed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RowPick {
    /// Row index into the draw.
    pub source: usize,
    /// The malformation applied, if any.
    pub fault: Option<Malformation>,
}

/// One online request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// A single row through `try_classify`.
    Single(RowPick),
    /// [`MICROBATCH_ROWS`] rows through `classify_batch`.
    Batch(Vec<RowPick>),
}

/// Draws the request schedule: `n_requests` requests over a draw of
/// `draw_rows` rows. A pure function of its arguments.
pub fn request_schedule(seed: u64, n_requests: usize, draw_rows: usize) -> Vec<Request> {
    let mut rng = SplitMix::new(seed ^ 0x5C4E_D01E);
    let pick = |rng: &mut SplitMix| {
        let source = rng.below(draw_rows);
        let fault = (rng.next_f64() < MALFORMED_SHARE).then(|| match rng.below(3) {
            0 => Malformation::WrongWidth,
            1 => Malformation::NaN,
            _ => Malformation::GroupOutOfDomain,
        });
        RowPick { source, fault }
    };
    (0..n_requests)
        .map(|_| {
            if rng.next_f64() < SINGLE_SHARE {
                Request::Single(pick(&mut rng))
            } else {
                Request::Batch((0..MICROBATCH_ROWS).map(|_| pick(&mut rng)).collect())
            }
        })
        .collect()
}

/// Materialises one scheduled row from the draw.
pub fn materialise(draw: &Dataset, pick: RowPick) -> Vec<f64> {
    let mut row = draw.row(pick.source).to_vec();
    let sensitive = draw.schema().sensitive_attrs()[0];
    match pick.fault {
        None => {}
        Some(Malformation::WrongWidth) => row.push(0.5),
        Some(Malformation::NaN) => {
            let col = if sensitive == row.len() - 1 {
                0
            } else {
                row.len() - 1
            };
            row[col] = f64::NAN;
        }
        Some(Malformation::GroupOutOfDomain) => row[sensitive] = 42.0,
    }
    row
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_a_pure_function_of_the_seed() {
        let a = request_schedule(7, 2_000, 500);
        assert_eq!(a, request_schedule(7, 2_000, 500));
        assert_ne!(a, request_schedule(8, 2_000, 500));
        let singles = a.iter().filter(|r| matches!(r, Request::Single(_))).count();
        assert!(
            (1_700..1_900).contains(&singles),
            "{singles} singles of 2000"
        );
        let rows = a.iter().flat_map(|r| match r {
            Request::Single(p) => vec![*p],
            Request::Batch(ps) => ps.clone(),
        });
        let (mut n, mut bad) = (0usize, 0usize);
        for p in rows {
            n += 1;
            bad += usize::from(p.fault.is_some());
            assert!(p.source < 500);
        }
        assert!(
            bad > 0 && (bad as f64 / n as f64) < 0.03,
            "{bad} malformed of {n}"
        );
        assert!(a.iter().all(|r| match r {
            Request::Single(_) => true,
            Request::Batch(ps) => ps.len() == MICROBATCH_ROWS,
        }));
    }

    #[test]
    fn batches_are_uniform_with_no_short_remainder() {
        let batches = uniform_batches(46_000, 23_000).expect("divides");
        assert_eq!(batches, vec![0..23_000, 23_000..46_000]);
        assert!(batches.iter().all(|b| b.len() == 23_000));
        assert!(uniform_batches(46_001, 23_000).is_err());
        assert!(uniform_batches(46_000, 0).is_err());
    }
}
