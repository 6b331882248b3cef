//! Seeded random splitting of a dataset into train / validation / test.
//!
//! The paper's evaluation (§4.1.1) splits every dataset 50% / 35% / 15% and
//! repeats each experiment on four different random splits ("the same four
//! randomstates for each algorithm"). [`ThreeWaySplit::split`] is the exact
//! analogue: a seeded Fisher–Yates shuffle followed by contiguous slicing,
//! so the same `(dataset, seed)` pair always yields the same split for every
//! algorithm under comparison. [`train_validation`] cuts the same shuffle
//! once, for callers that keep their own test data.

use crate::dataset::Dataset;
use crate::error::DatasetError;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Fractions of the dataset assigned to train / validation / test.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SplitRatios {
    /// Fraction used for model training (`D_tr`).
    pub train: f64,
    /// Fraction used for validation / local-region construction (`D_val`).
    pub validation: f64,
    /// Fraction held out for prediction-time evaluation.
    pub test: f64,
}

impl SplitRatios {
    /// The paper's default: 50% train, 35% validation, 15% test.
    pub const PAPER: Self = Self { train: 0.50, validation: 0.35, test: 0.15 };

    /// Validates the ratios: each positive, summing to 1 within 1e-9.
    ///
    /// # Errors
    /// [`DatasetError::InvalidSplit`] on violation.
    pub fn validate(&self) -> Result<(), DatasetError> {
        let sum = self.train + self.validation + self.test;
        if self.train <= 0.0 || self.validation <= 0.0 || self.test <= 0.0 {
            return Err(DatasetError::InvalidSplit {
                detail: format!("all ratios must be positive: {self:?}"),
            });
        }
        if (sum - 1.0).abs() > 1e-9 {
            return Err(DatasetError::InvalidSplit {
                detail: format!("ratios sum to {sum}, expected 1"),
            });
        }
        Ok(())
    }
}

impl Default for SplitRatios {
    fn default() -> Self {
        Self::PAPER
    }
}

/// The result of a three-way split.
#[derive(Debug, Clone)]
pub struct ThreeWaySplit {
    /// Training partition `D_tr`.
    pub train: Dataset,
    /// Validation partition `D_val`.
    pub validation: Dataset,
    /// Held-out test partition.
    pub test: Dataset,
}

impl ThreeWaySplit {
    /// Splits `ds` according to `ratios` using the RNG seed `seed`.
    ///
    /// Boundaries are computed by rounding the cumulative fractions, so the
    /// three parts always partition the dataset exactly. Each part is
    /// guaranteed at least one row for datasets with ≥ 3 rows.
    ///
    /// # Errors
    /// Propagates ratio validation errors and [`DatasetError::Empty`] when
    /// the dataset has fewer than 3 rows.
    pub fn split(ds: &Dataset, ratios: SplitRatios, seed: u64) -> Result<Self, DatasetError> {
        ratios.validate()?;
        let n = ds.len();
        if n < 3 {
            return Err(DatasetError::Empty);
        }
        let idx = shuffled(n, seed);

        let mut cut1 = (ratios.train * n as f64).round() as usize;
        let mut cut2 = ((ratios.train + ratios.validation) * n as f64).round() as usize;
        // Guarantee non-empty parts.
        cut1 = cut1.clamp(1, n - 2);
        cut2 = cut2.clamp(cut1 + 1, n - 1);

        Ok(Self {
            train: ds.subset(&idx[..cut1])?,
            validation: ds.subset(&idx[cut1..cut2])?,
            test: ds.subset(&idx[cut2..])?,
        })
    }

    /// The paper's four canonical seeds, used across every experiment so all
    /// algorithms see identical splits.
    pub const PAPER_SEEDS: [u64; 4] = [11, 23, 42, 77];
}

/// Splits `ds` into a training part of `train × n` rows (rounded, at least
/// one, leaving at least one) and a validation part of every other row.
///
/// Both parts slice [`ThreeWaySplit::split`]'s shuffle at its first cut,
/// so the training part is the one a three-way split with the same
/// `train` fraction and seed draws (unless that split had to pull its cut
/// back to leave a test row), and the validation part also holds the rows
/// its test part would have taken.
///
/// # Errors
/// [`DatasetError::InvalidSplit`] unless `0 < train < 1`, and
/// [`DatasetError::Empty`] when the dataset has fewer than 2 rows.
pub fn train_validation(
    ds: &Dataset,
    train: f64,
    seed: u64,
) -> Result<(Dataset, Dataset), DatasetError> {
    if !(train > 0.0 && train < 1.0) {
        return Err(DatasetError::InvalidSplit {
            detail: format!("train fraction {train} outside (0, 1)"),
        });
    }
    let n = ds.len();
    if n < 2 {
        return Err(DatasetError::Empty);
    }
    let idx = shuffled(n, seed);
    let cut = ((train * n as f64).round() as usize).clamp(1, n - 1);
    Ok((ds.subset(&idx[..cut])?, ds.subset(&idx[cut..])?))
}

/// The row indices `0..n` in the seeded Fisher–Yates order every split
/// slices.
fn shuffled(n: usize, seed: u64) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..n).collect();
    idx.shuffle(&mut StdRng::seed_from_u64(seed));
    idx
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;

    fn dataset(n: usize) -> Dataset {
        let schema =
            Schema::with_binary_sensitive(vec!["s".into(), "f".into()], 0, "y").unwrap();
        let rows: Vec<Vec<f64>> = (0..n).map(|i| vec![(i % 2) as f64, i as f64]).collect();
        let labels: Vec<u8> = (0..n).map(|i| (i % 3 == 0) as u8).collect();
        Dataset::from_rows(schema, rows, labels).unwrap()
    }

    #[test]
    fn split_partitions_exactly() {
        let ds = dataset(100);
        let s = ThreeWaySplit::split(&ds, SplitRatios::PAPER, 42).unwrap();
        assert_eq!(s.train.len() + s.validation.len() + s.test.len(), 100);
        assert_eq!(s.train.len(), 50);
        assert_eq!(s.validation.len(), 35);
        assert_eq!(s.test.len(), 15);
    }

    #[test]
    fn split_is_deterministic_per_seed() {
        let ds = dataset(60);
        let a = ThreeWaySplit::split(&ds, SplitRatios::PAPER, 7).unwrap();
        let b = ThreeWaySplit::split(&ds, SplitRatios::PAPER, 7).unwrap();
        assert_eq!(a.train.flat(), b.train.flat());
        assert_eq!(a.test.labels(), b.test.labels());
        let c = ThreeWaySplit::split(&ds, SplitRatios::PAPER, 8).unwrap();
        assert_ne!(a.train.flat(), c.train.flat());
    }

    #[test]
    fn rows_are_disjoint_across_parts() {
        let ds = dataset(40);
        let s = ThreeWaySplit::split(&ds, SplitRatios::PAPER, 1).unwrap();
        // Feature column "f" is a unique id per row; no value may repeat.
        let mut seen = std::collections::HashSet::new();
        for part in [&s.train, &s.validation, &s.test] {
            for i in 0..part.len() {
                assert!(seen.insert(part.value(i, 1) as i64));
            }
        }
        assert_eq!(seen.len(), 40);
    }

    #[test]
    fn tiny_datasets_still_get_three_parts() {
        let ds = dataset(3);
        let s = ThreeWaySplit::split(&ds, SplitRatios::PAPER, 0).unwrap();
        assert_eq!(s.train.len(), 1);
        assert_eq!(s.validation.len(), 1);
        assert_eq!(s.test.len(), 1);
    }

    #[test]
    fn train_validation_keeps_the_three_way_train_part_and_every_other_row() {
        let ds = dataset(600);
        let (train, validation) = train_validation(&ds, 0.6, 5).unwrap();
        assert_eq!((train.len(), validation.len()), (360, 240));
        let ratios = SplitRatios { train: 0.6, validation: 0.4 * 0.999, test: 0.4 * 0.001 };
        let three = ThreeWaySplit::split(&ds, ratios, 5).unwrap();
        assert_eq!(train.flat(), three.train.flat());
        let rest = [three.validation.flat(), three.test.flat()].concat();
        assert_eq!(validation.flat(), &rest[..]);

        assert!(train_validation(&ds, 0.0, 5).is_err());
        assert!(train_validation(&ds, 1.0, 5).is_err());
        assert!(train_validation(&dataset(1), 0.5, 5).is_err());
        let (one, other) = train_validation(&dataset(2), 0.99, 5).unwrap();
        assert_eq!((one.len(), other.len()), (1, 1));
    }

    #[test]
    fn invalid_ratios_rejected() {
        let ds = dataset(10);
        let bad = SplitRatios { train: 0.9, validation: 0.2, test: 0.1 };
        assert!(ThreeWaySplit::split(&ds, bad, 0).is_err());
        let neg = SplitRatios { train: -0.5, validation: 1.0, test: 0.5 };
        assert!(ThreeWaySplit::split(&ds, neg, 0).is_err());
    }
}
