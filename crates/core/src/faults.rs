//! Deterministic fault injection for the FALCC pipeline.
//!
//! Robustness claims are only testable if failures can be *provoked on
//! demand and reproduced exactly*. A [`FaultPlan`] is a declarative
//! schedule of faults, each keyed by a **site** (which pipeline stage) and
//! an **ordinal** (which item at that stage — pool member index, tuning
//! grid position, cluster index, batch row index). Because every parallel
//! stage in this workspace processes items by index with an ordered merge
//! (see `falcc_dataset::parallel`), keying injections by ordinal makes
//! the schedule — and therefore the degraded output — **bit-identical for
//! every thread count**. The determinism suite exploits exactly that: the
//! same plan at 1, 2, and 8 threads must produce the same degraded model.
//!
//! The plan is plain data: arming a fault never touches a clock or a
//! global RNG, and an empty plan (the default, used by every production
//! path) adds one `BTreeSet` lookup per guarded item. Each *firing* is
//! counted on the `faults.injected` telemetry counter so a test can assert
//! the schedule actually executed.
//!
//! ```
//! use falcc::faults::{FaultPlan, FaultSite};
//!
//! let mut plan = FaultPlan::default();
//! plan.fail_pool_member(2);
//! plan.empty_cluster(0);
//! assert!(plan.fires(FaultSite::PoolMember, 2));
//! assert!(!plan.fires(FaultSite::PoolMember, 3));
//! ```

use std::collections::BTreeSet;

/// A pipeline stage where a fault can be injected. The meaning of the
/// ordinal differs per site — always an *input-order index*, never a
/// scheduling-order one, so injection is thread-count independent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FaultSite {
    /// Pool-member training failure. Ordinal: the member's index in the
    /// trained pool. The member is quarantined before assessment.
    PoolMember,
    /// Tuning-trial failure. Ordinal: the candidate's position in the
    /// tuning grid. The trial is skipped, as if its fit had failed.
    TuningTrial,
    /// Degenerate cluster: the region's assessment set is emptied *after*
    /// gap filling. Ordinal: the cluster index.
    ClusterEmpty,
    /// Poisoned online sample: the batch row behaves as if it carried a
    /// non-finite feature. Ordinal: the row index within the batch.
    NonFiniteRow,
    /// Transient checkpoint-journal I/O failure: the write attempt fails
    /// once and is retried by the bounded retry layer. Ordinal: the
    /// journal's global I/O-attempt counter (arm consecutive ordinals to
    /// exhaust the retry budget).
    TransientIo,
}

/// Where within one checkpoint commit the process is hard-killed by an
/// armed [`CrashPoint`]. The four phases cover every distinct on-disk
/// state a crash can leave behind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum CrashPhase {
    /// Before anything is written: the commit left no trace.
    BeforeWrite,
    /// After the record file is durable but before its manifest entry —
    /// an orphaned record the manifest never references.
    AfterRecord,
    /// Mid-manifest-append: half the entry line reached the disk (a torn
    /// line the resume scan must detect and drop).
    MidManifest,
    /// After the commit completed (record and manifest entry durable).
    AfterCommit,
}

impl CrashPhase {
    /// Every phase, in commit order.
    pub const ALL: [Self; 4] =
        [Self::BeforeWrite, Self::AfterRecord, Self::MidManifest, Self::AfterCommit];

    /// The kebab-case name used by `falcc train --crash-at`.
    pub fn name(self) -> &'static str {
        match self {
            Self::BeforeWrite => "before-write",
            Self::AfterRecord => "after-record",
            Self::MidManifest => "mid-manifest",
            Self::AfterCommit => "after-commit",
        }
    }

    /// Parses a [`Self::name`] string.
    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|p| p.name() == s)
    }
}

/// A crash site for the chaos harness: the checkpoint journal aborts the
/// process (simulating `kill -9`) at `phase` of its `ordinal`-th commit.
/// Commits are counted in pipeline order — the same order at every thread
/// count — so a crash point pins an exact on-disk journal state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashPoint {
    /// Which commit (0-based, in pipeline commit order).
    pub ordinal: u64,
    /// Where within that commit.
    pub phase: CrashPhase,
}

impl CrashPoint {
    /// The full kill-point catalog for a run known to perform `commits`
    /// checkpoint commits: every commit ordinal crossed with every
    /// [`CrashPhase`]. The chaos harness sweeps this exhaustively.
    pub fn catalog(commits: u64) -> Vec<Self> {
        (0..commits)
            .flat_map(|ordinal| CrashPhase::ALL.map(|phase| Self { ordinal, phase }))
            .collect()
    }
}

/// A deterministic schedule of injected faults. See the module docs.
///
/// The default (empty) plan injects nothing and is what every production
/// code path carries.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    armed: BTreeSet<(FaultSite, u64)>,
    /// `(cluster, group)` pairs whose validation rows are dropped from the
    /// region's assessment set after gap filling.
    group_drops: BTreeSet<(u64, u16)>,
    /// Byte offset to XOR-flip in a serialised snapshot.
    snapshot_flip: Option<usize>,
    /// Length to truncate a serialised snapshot to.
    snapshot_truncate: Option<usize>,
    /// Hard-kill site for the checkpoint chaos harness.
    crash: Option<CrashPoint>,
}

impl FaultPlan {
    /// True when the plan injects nothing at all.
    pub fn is_empty(&self) -> bool {
        self.armed.is_empty()
            && self.group_drops.is_empty()
            && self.snapshot_flip.is_none()
            && self.snapshot_truncate.is_none()
            && self.crash.is_none()
    }

    /// Arms a training failure for pool member `index`.
    pub fn fail_pool_member(&mut self, index: u64) -> &mut Self {
        self.armed.insert((FaultSite::PoolMember, index));
        self
    }

    /// Arms a failure of tuning-grid candidate `ordinal`.
    pub fn fail_tuning_trial(&mut self, ordinal: u64) -> &mut Self {
        self.armed.insert((FaultSite::TuningTrial, ordinal));
        self
    }

    /// Arms emptying of cluster `cluster`'s assessment set.
    pub fn empty_cluster(&mut self, cluster: u64) -> &mut Self {
        self.armed.insert((FaultSite::ClusterEmpty, cluster));
        self
    }

    /// Arms removal of group `group`'s rows from region `cluster`'s
    /// assessment set (a *missing-group region*).
    pub fn drop_group_in_region(&mut self, cluster: u64, group: u16) -> &mut Self {
        self.group_drops.insert((cluster, group));
        self
    }

    /// Arms poisoning of batch row `row` in the online phase.
    pub fn poison_row(&mut self, row: u64) -> &mut Self {
        self.armed.insert((FaultSite::NonFiniteRow, row));
        self
    }

    /// Arms an XOR bit-flip of snapshot byte `offset` (modulo length) for
    /// [`Self::mangle_snapshot`].
    pub fn flip_snapshot_byte(&mut self, offset: usize) -> &mut Self {
        self.snapshot_flip = Some(offset);
        self
    }

    /// Arms truncation of the snapshot to `len` bytes for
    /// [`Self::mangle_snapshot`].
    pub fn truncate_snapshot(&mut self, len: usize) -> &mut Self {
        self.snapshot_truncate = Some(len);
        self
    }

    /// Arms a transient failure of checkpoint-journal I/O attempt
    /// `ordinal` (the journal's global attempt counter). The bounded
    /// retry layer absorbs isolated failures; arming enough consecutive
    /// ordinals exhausts the budget into
    /// [`crate::FalccError::RetriesExhausted`].
    pub fn fail_io_attempt(&mut self, ordinal: u64) -> &mut Self {
        self.armed.insert((FaultSite::TransientIo, ordinal));
        self
    }

    /// Arms a hard process kill at `phase` of checkpoint commit
    /// `ordinal` — the chaos harness's kill switch.
    pub fn crash_at(&mut self, ordinal: u64, phase: CrashPhase) -> &mut Self {
        self.crash = Some(CrashPoint { ordinal, phase });
        self
    }

    /// The armed crash point, if any.
    pub fn crash_point(&self) -> Option<CrashPoint> {
        self.crash
    }

    /// A pseudo-random plan derived entirely from `seed`: arms one fault
    /// per site with a SplitMix64-derived ordinal below the given bounds.
    /// Two calls with the same seed arm the identical schedule — handy for
    /// fuzzing degraded pipelines reproducibly.
    pub fn seeded(seed: u64, pool_size: u64, clusters: u64, batch_rows: u64) -> Self {
        let mut state = seed;
        let mut next = move || {
            // SplitMix64: the canonical seed expander, no dependencies.
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let mut plan = Self::default();
        if pool_size > 0 {
            plan.fail_pool_member(next() % pool_size);
        }
        if clusters > 0 {
            plan.empty_cluster(next() % clusters);
        }
        if batch_rows > 0 {
            plan.poison_row(next() % batch_rows);
        }
        plan
    }

    /// Whether the fault armed at `(site, ordinal)` fires. Each firing is
    /// counted on the `faults.injected` telemetry counter.
    pub fn fires(&self, site: FaultSite, ordinal: u64) -> bool {
        let hit = self.armed.contains(&(site, ordinal));
        if hit {
            falcc_telemetry::counters::FAULTS_INJECTED.incr();
            if falcc_telemetry::enabled() {
                falcc_telemetry::event(
                    "faults.fired",
                    format!("{site:?} ordinal {ordinal}"),
                );
            }
        }
        hit
    }

    /// The groups whose rows are dropped from region `cluster`, in
    /// ascending order. Each returned drop counts as one injected fault.
    pub fn dropped_groups(&self, cluster: u64) -> Vec<u16> {
        let dropped: Vec<u16> = self
            .group_drops
            .range((cluster, u16::MIN)..=(cluster, u16::MAX))
            .map(|&(_, g)| g)
            .collect();
        if !dropped.is_empty() {
            falcc_telemetry::counters::FAULTS_INJECTED.add(dropped.len() as u64);
        }
        dropped
    }

    /// Applies the armed snapshot corruptions (bit flip, truncation) to a
    /// serialised snapshot in place. No-op when neither is armed.
    pub fn mangle_snapshot(&self, bytes: &mut Vec<u8>) {
        if let Some(off) = self.snapshot_flip {
            if flip_byte(bytes, off) {
                falcc_telemetry::counters::FAULTS_INJECTED.incr();
            }
        }
        if let Some(len) = self.snapshot_truncate {
            if truncate_bytes(bytes, len) {
                falcc_telemetry::counters::FAULTS_INJECTED.incr();
            }
        }
    }
}

/// XOR-flips one bit of byte `offset % len`, returning whether anything
/// changed. The shared corruption primitive behind [`FaultPlan::
/// mangle_snapshot`] and the snapshot/journal corruption matrices — one
/// definition so every suite damages bytes the same way.
pub fn flip_byte(bytes: &mut [u8], offset: usize) -> bool {
    if bytes.is_empty() {
        return false;
    }
    let i = offset % bytes.len();
    bytes[i] ^= 0x01;
    true
}

/// Truncates `bytes` to `len`, returning whether anything was cut. The
/// counterpart of [`flip_byte`] for torn-write corruption.
pub fn truncate_bytes(bytes: &mut Vec<u8>, len: usize) -> bool {
    if len >= bytes.len() {
        return false;
    }
    bytes.truncate(len);
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_plan_is_empty_and_never_fires() {
        let plan = FaultPlan::default();
        assert!(plan.is_empty());
        for site in [
            FaultSite::PoolMember,
            FaultSite::TuningTrial,
            FaultSite::ClusterEmpty,
            FaultSite::NonFiniteRow,
            FaultSite::TransientIo,
        ] {
            for ordinal in 0..8 {
                assert!(!plan.fires(site, ordinal));
            }
        }
        assert!(plan.dropped_groups(0).is_empty());
        let mut bytes = b"snapshot".to_vec();
        plan.mangle_snapshot(&mut bytes);
        assert_eq!(bytes, b"snapshot");
    }

    #[test]
    fn armed_faults_fire_exactly_where_armed() {
        let mut plan = FaultPlan::default();
        plan.fail_pool_member(1).fail_tuning_trial(4).empty_cluster(2).poison_row(7);
        assert!(!plan.is_empty());
        assert!(plan.fires(FaultSite::PoolMember, 1));
        assert!(!plan.fires(FaultSite::PoolMember, 2));
        assert!(plan.fires(FaultSite::TuningTrial, 4));
        assert!(plan.fires(FaultSite::ClusterEmpty, 2));
        assert!(!plan.fires(FaultSite::ClusterEmpty, 1));
        assert!(plan.fires(FaultSite::NonFiniteRow, 7));
    }

    #[test]
    fn group_drops_are_per_region() {
        let mut plan = FaultPlan::default();
        plan.drop_group_in_region(0, 1).drop_group_in_region(2, 0).drop_group_in_region(2, 1);
        assert_eq!(plan.dropped_groups(0), vec![1]);
        assert_eq!(plan.dropped_groups(1), Vec::<u16>::new());
        assert_eq!(plan.dropped_groups(2), vec![0, 1]);
    }

    #[test]
    fn snapshot_mangling_flips_and_truncates() {
        let mut plan = FaultPlan::default();
        plan.flip_snapshot_byte(3);
        let mut bytes = vec![0u8; 8];
        plan.mangle_snapshot(&mut bytes);
        assert_eq!(bytes[3], 1);

        let mut plan = FaultPlan::default();
        plan.truncate_snapshot(5);
        let mut bytes = vec![7u8; 8];
        plan.mangle_snapshot(&mut bytes);
        assert_eq!(bytes.len(), 5);
        // Truncation longer than the buffer is a no-op.
        let mut plan = FaultPlan::default();
        plan.truncate_snapshot(100);
        let mut bytes = vec![7u8; 8];
        plan.mangle_snapshot(&mut bytes);
        assert_eq!(bytes.len(), 8);
    }

    #[test]
    fn transient_io_and_crash_points_arm_like_other_sites() {
        let mut plan = FaultPlan::default();
        plan.fail_io_attempt(3).crash_at(2, CrashPhase::AfterRecord);
        assert!(!plan.is_empty());
        assert!(plan.fires(FaultSite::TransientIo, 3));
        assert!(!plan.fires(FaultSite::TransientIo, 4));
        assert_eq!(
            plan.crash_point(),
            Some(CrashPoint { ordinal: 2, phase: CrashPhase::AfterRecord })
        );
        // A crash point alone makes the plan non-empty.
        let mut plan = FaultPlan::default();
        plan.crash_at(0, CrashPhase::BeforeWrite);
        assert!(!plan.is_empty());
    }

    #[test]
    fn crash_phase_names_round_trip_and_catalog_is_complete() {
        for phase in CrashPhase::ALL {
            assert_eq!(CrashPhase::parse(phase.name()), Some(phase));
        }
        assert_eq!(CrashPhase::parse("nonsense"), None);
        let catalog = CrashPoint::catalog(3);
        assert_eq!(catalog.len(), 12, "3 commits x 4 phases");
        assert_eq!(catalog[0], CrashPoint { ordinal: 0, phase: CrashPhase::BeforeWrite });
        assert_eq!(catalog[11], CrashPoint { ordinal: 2, phase: CrashPhase::AfterCommit });
    }

    #[test]
    fn corruption_primitives_report_effect() {
        let mut bytes = vec![0u8; 4];
        assert!(flip_byte(&mut bytes, 6));
        assert_eq!(bytes, vec![0, 0, 1, 0]);
        assert!(!flip_byte(&mut [], 0));
        let mut bytes = vec![7u8; 4];
        assert!(truncate_bytes(&mut bytes, 2));
        assert_eq!(bytes.len(), 2);
        assert!(!truncate_bytes(&mut bytes, 2));
    }

    #[test]
    fn seeded_plans_are_reproducible_and_bounded() {
        let a = FaultPlan::seeded(42, 5, 4, 100);
        let b = FaultPlan::seeded(42, 5, 4, 100);
        assert_eq!(a, b);
        assert!(!a.is_empty());
        let c = FaultPlan::seeded(43, 5, 4, 100);
        // Different seeds *may* collide per site, but the full schedule
        // almost surely differs; at minimum it stays within bounds.
        for ordinal in 5..10 {
            assert!(!c.fires(FaultSite::PoolMember, ordinal));
        }
        assert_eq!(FaultPlan::seeded(1, 0, 0, 0), FaultPlan::default());
    }
}
