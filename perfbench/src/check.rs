//! Output checking: every served output is compared with a reference the
//! interpreted plane computed in set-up, and every difference is a failed
//! operation.

/// Operations attempted and failed over one run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations attempted: fits, cold starts, scored batch rows and
    /// online requests.
    pub attempted: u64,
    /// Operations whose output differed from the reference, cold starts
    /// that were rejected or fell back, and fits that errored.
    pub failed: u64,
}

impl Tally {
    /// Counts one operation, failed unless `ok`.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// Counts a scored batch: one operation per row, failed where the row's
    /// output differs from its reference (a length mismatch fails every
    /// row).
    pub fn record_rows<T: PartialEq>(&mut self, got: &[T], want: &[T]) {
        self.attempted += want.len() as u64;
        if got.len() != want.len() {
            self.failed += want.len() as u64;
        } else if got != want {
            self.failed += got.iter().zip(want).filter(|(g, w)| g != w).count() as u64;
        }
    }

    /// Whether every attempted operation matched its reference.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_output_mismatch_counts_as_a_failed_operation() {
        let mut t = Tally::default();
        t.record_rows(&[1u8, 0, 1, 1], &[1u8, 0, 1, 1]);
        assert_eq!(
            t,
            Tally {
                attempted: 4,
                failed: 0
            }
        );
        assert!(t.correct());
        t.record_rows(&[1u8, 1, 1, 0], &[1u8, 0, 1, 1]);
        assert_eq!(
            t,
            Tally {
                attempted: 8,
                failed: 2
            }
        );
        t.record_rows(&[1u8], &[1u8, 0]);
        assert_eq!(
            t,
            Tally {
                attempted: 10,
                failed: 4
            }
        );
        t.record(false);
        t.record(true);
        assert_eq!(
            t,
            Tally {
                attempted: 12,
                failed: 5
            }
        );
        assert!(!t.correct());
    }

    #[test]
    fn typed_faults_are_compared_too() {
        use falcc::RowFault;
        let want: Vec<Result<u8, RowFault>> = vec![Ok(1), Err(RowFault::GroupOutOfDomain)];
        let mut t = Tally::default();
        t.record_rows(&[Ok(1), Err(RowFault::GroupOutOfDomain)], &want);
        t.record_rows(&[Ok(1), Err(RowFault::NonFinite { column: 3 })], &want);
        t.record_rows(&[Ok(1), Ok(0)], &want);
        assert_eq!(
            t,
            Tally {
                attempted: 6,
                failed: 2
            }
        );
    }

    #[test]
    fn nothing_attempted_is_not_correct() {
        assert!(!Tally::default().correct());
    }
}
