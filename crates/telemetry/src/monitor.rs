//! Live serving monitors: windowed fairness/drift aggregation for the
//! online phase, keyed by **row ordinal** — not wall clock.
//!
//! FALCC's guarantee is *local* fairness: each region's model combination
//! is only as good as the assumption that serving traffic resembles the
//! validation data that carved the regions. This module watches that
//! assumption live. The serving plane (`falcc`'s `CompiledModel`; the
//! fitted model's reference online phase records nothing) feeds every
//! classified row's `(region, group, distance-to-centroid, verdict)`
//! into a ring of N fixed-size windows; each window aggregates decision
//! counts per `(region, group)` cell, rejection counts, and quantized
//! distance-to-centroid digests, from which the sinks derive live
//! demographic-parity gaps, region-occupancy skew against the offline
//! [`MonitorSpec`] baseline, group-mix shift, and drift quantiles.
//!
//! The same three telemetry invariants hold here:
//!
//! 1. **Zero cost when uninstalled.** The hot-path gate is one acquire
//!    load of an [`AtomicPtr`] plus a null check ([`batch`] returns
//!    `None`); the release-only test `tests/disabled_path.rs` pins this
//!    under the same 50 ns bound as the disabled counter/span paths.
//! 2. **Observation never perturbs results.** Recording is write-only:
//!    predictions are bit-identical with monitors on or off
//!    (`tests/monitoring.rs`).
//! 3. **Deterministic streams.** Window boundaries are a pure function
//!    of the row ordinal (`window = ordinal / window_len`), batch
//!    recorders claim contiguous ordinal blocks, and all folding is
//!    commutative integer addition — so the windowed JSONL stream is
//!    bit-identical across thread counts (`tests/monitoring.rs`).
//!    Wall-clock latency is the one nondeterministic signal; it appears
//!    only in the exposition sink, never in the windowed JSONL.
//!
//! ## Recording protocol
//!
//! Batch paths call [`batch`]`(n)` once to claim `n` ordinals, have
//! their parallel workers [`BatchRecorder::stash`] each row's route
//! lock-free (one relaxed store per row into a preallocated slot), and
//! finally fold everything into the window ring with
//! [`BatchRecorder::commit`] once per batch. Single-row paths call
//! [`single`]. Rows rejected with a typed fault are counted in the
//! window's `rejected` tally and never contribute a route.

use crate::metrics::{bucket_index, bucket_upper_bound, HISTOGRAM_BUCKETS};
use std::fmt::Write as _;
use std::ptr;
use std::sync::atomic::{AtomicPtr, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Distances are quantized to `(dist² · DIST_SCALE) as u64` before
/// landing in the power-of-two digest buckets, preserving sub-unit
/// resolution near the centroids (the saturating float→int cast maps
/// non-finite values to the extremes deterministically).
pub const DIST_SCALE: f64 = 256.0;

/// Slot tag for a window slot that has never been claimed.
const EMPTY: u64 = u64::MAX;

/// Route-word flag marking a stashed (accepted) row.
const STASHED: u64 = 1 << 63;

/// Static configuration of a monitor: window geometry plus the offline
/// baseline drift is measured against. Plain data — the telemetry crate
/// stays dependency-free; `falcc` builds one from its `MonitorBaseline`.
#[derive(Debug, Clone, PartialEq)]
pub struct MonitorSpec {
    /// Rows per window (window id = ordinal / `window_len`).
    pub window_len: u64,
    /// Number of ring slots: the N most recent windows are retained.
    pub windows: usize,
    /// Local regions (clusters) of the served model.
    pub n_regions: usize,
    /// Sensitive groups of the served model.
    pub n_groups: usize,
    /// Offline validation occupancy per region (sums to 1).
    pub baseline_occupancy: Vec<f64>,
    /// Offline group mix per region, region-major `[r * n_groups + g]`
    /// (each region's row sums to 1 where the region is non-empty).
    pub baseline_group_mix: Vec<f64>,
    /// Training-time demographic-parity gap per region.
    pub baseline_dp: Vec<f64>,
}

impl MonitorSpec {
    fn cells(&self) -> usize {
        self.n_regions * self.n_groups
    }
}

struct WindowSlot {
    /// Window id this slot currently holds ([`EMPTY`] when unused).
    id: AtomicU64,
    observed: AtomicU64,
    rejected: AtomicU64,
    /// Accepted rows per `(region, group)` cell, region-major.
    rows: Vec<AtomicU64>,
    /// Positive predictions per `(region, group)` cell, region-major.
    positives: Vec<AtomicU64>,
    /// Quantized distance-to-centroid digest, `[region * HISTOGRAM_BUCKETS + bucket]`.
    dist: Vec<AtomicU64>,
    latency_ns: AtomicU64,
    latency_rows: AtomicU64,
}

impl WindowSlot {
    fn new(spec: &MonitorSpec) -> Self {
        Self {
            id: AtomicU64::new(EMPTY),
            observed: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            rows: (0..spec.cells()).map(|_| AtomicU64::new(0)).collect(),
            positives: (0..spec.cells()).map(|_| AtomicU64::new(0)).collect(),
            dist: (0..spec.n_regions * HISTOGRAM_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            latency_ns: AtomicU64::new(0),
            latency_rows: AtomicU64::new(0),
        }
    }

    fn clear(&self) {
        self.observed.store(0, Ordering::Relaxed);
        self.rejected.store(0, Ordering::Relaxed);
        for v in self.rows.iter().chain(&self.positives).chain(&self.dist) {
            v.store(0, Ordering::Relaxed);
        }
        self.latency_ns.store(0, Ordering::Relaxed);
        self.latency_rows.store(0, Ordering::Relaxed);
    }
}

/// Aggregation state of one installed monitor. Created by [`install`];
/// kept alive for the process lifetime (see `RETAINED`), so snapshots
/// remain readable after [`uninstall`].
pub struct MonitorState {
    spec: MonitorSpec,
    next_ordinal: AtomicU64,
    slots: Vec<WindowSlot>,
    /// Serialises window folding/eviction (commits and snapshots). The
    /// per-row hot path never takes it — only [`BatchRecorder::commit`],
    /// [`single`], and [`MonitorState::snapshot`] do, once per batch.
    fold: Mutex<()>,
}

impl MonitorState {
    fn new(spec: MonitorSpec) -> Self {
        let slots = (0..spec.windows.max(1)).map(|_| WindowSlot::new(&spec)).collect();
        Self { spec, next_ordinal: AtomicU64::new(0), slots, fold: Mutex::new(()) }
    }

    /// The spec this monitor was installed with.
    pub fn spec(&self) -> &MonitorSpec {
        &self.spec
    }

    /// The slot for `ordinal`'s window, claiming (and clearing) the ring
    /// slot if the window is newer than the slot's tenant. Returns `None`
    /// for ordinals whose window has already been evicted. Caller holds
    /// the fold lock.
    fn slot_for(&self, ordinal: u64) -> Option<&WindowSlot> {
        let wid = ordinal / self.spec.window_len.max(1);
        let slot = &self.slots[(wid % self.slots.len() as u64) as usize];
        let tag = slot.id.load(Ordering::Relaxed);
        if tag == wid {
            return Some(slot);
        }
        if tag == EMPTY || tag < wid {
            slot.clear();
            slot.id.store(wid, Ordering::Relaxed);
            return Some(slot);
        }
        None
    }

    fn fold_row(
        &self,
        slot: &WindowSlot,
        route: Option<(usize, usize, u64)>,
        pred: Option<u8>,
    ) {
        slot.observed.fetch_add(1, Ordering::Relaxed);
        match (route, pred) {
            (Some((region, group, distq)), Some(pred))
                if region < self.spec.n_regions && group < self.spec.n_groups =>
            {
                let cell = region * self.spec.n_groups + group;
                slot.rows[cell].fetch_add(1, Ordering::Relaxed);
                if pred != 0 {
                    slot.positives[cell].fetch_add(1, Ordering::Relaxed);
                }
                let bucket = region * HISTOGRAM_BUCKETS + bucket_index(distq);
                slot.dist[bucket].fetch_add(1, Ordering::Relaxed);
            }
            _ => {
                slot.rejected.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Copies the ring into an immutable, id-sorted [`MonitorSnapshot`].
    pub fn snapshot(&self) -> MonitorSnapshot {
        let _fold = self.fold.lock().expect("monitor fold lock poisoned");
        let mut windows: Vec<WindowSnapshot> = self
            .slots
            .iter()
            .filter(|s| s.id.load(Ordering::Relaxed) != EMPTY)
            .map(|s| WindowSnapshot {
                id: s.id.load(Ordering::Relaxed),
                observed: s.observed.load(Ordering::Relaxed),
                rejected: s.rejected.load(Ordering::Relaxed),
                rows: s.rows.iter().map(|v| v.load(Ordering::Relaxed)).collect(),
                positives: s.positives.iter().map(|v| v.load(Ordering::Relaxed)).collect(),
                dist: s.dist.iter().map(|v| v.load(Ordering::Relaxed)).collect(),
                latency_ns: s.latency_ns.load(Ordering::Relaxed),
                latency_rows: s.latency_rows.load(Ordering::Relaxed),
            })
            .collect();
        windows.sort_by_key(|w| w.id);
        MonitorSnapshot {
            spec: self.spec.clone(),
            rows_seen: self.next_ordinal.load(Ordering::Relaxed),
            windows,
        }
    }
}

static ACTIVE: AtomicPtr<MonitorState> = AtomicPtr::new(ptr::null_mut());
/// Every state ever installed, retained for the process lifetime: this
/// is what makes the lock-free `ACTIVE` pointer dereference sound
/// without hazard pointers. Monitors are installed once per serving
/// session and weigh a few KB, so the leak is bounded and deliberate.
static RETAINED: Mutex<Vec<Arc<MonitorState>>> = Mutex::new(Vec::new());

/// Installs a monitor, making it the recording target of both serving
/// planes. Returns the state handle for later [`MonitorState::snapshot`]
/// calls (still valid after [`uninstall`]).
pub fn install(spec: MonitorSpec) -> Arc<MonitorState> {
    let state = Arc::new(MonitorState::new(spec));
    let raw = Arc::as_ptr(&state) as *mut MonitorState;
    RETAINED.lock().expect("monitor registry poisoned").push(Arc::clone(&state));
    ACTIVE.store(raw, Ordering::Release);
    state
}

/// Stops recording. Existing [`MonitorState`] handles stay readable.
pub fn uninstall() {
    ACTIVE.store(ptr::null_mut(), Ordering::Release);
}

/// Whether a monitor is currently installed.
#[inline]
pub fn active() -> bool {
    !ACTIVE.load(Ordering::Acquire).is_null()
}

#[inline]
fn active_ref() -> Option<&'static MonitorState> {
    let raw = ACTIVE.load(Ordering::Acquire);
    if raw.is_null() {
        None
    } else {
        // SAFETY: every pointer ever stored in ACTIVE came from an Arc
        // pushed into RETAINED, which never removes entries — the
        // pointee lives until process exit.
        Some(unsafe { &*raw })
    }
}

fn quantize(dist_sq: f64) -> u64 {
    // `as` saturates: negatives/NaN → 0, overflow → u64::MAX.
    (dist_sq * DIST_SCALE) as u64
}

/// Claims `n` consecutive row ordinals for a batch, or `None` when no
/// monitor is installed — the disabled hot path is this one acquire
/// load plus the null check.
#[inline]
pub fn batch(n: usize) -> Option<BatchRecorder> {
    let state = active_ref()?;
    let base = state.next_ordinal.fetch_add(n as u64, Ordering::Relaxed);
    Some(BatchRecorder {
        state,
        base,
        routes: (0..n).map(|_| AtomicU64::new(0)).collect(),
        dists: (0..n).map(|_| AtomicU64::new(0)).collect(),
    })
}

/// Records one single-row classification (the `try_classify` paths).
/// `route` is `(region, group, dist²)` for accepted rows, `None` for
/// rejected ones; `pred` is the emitted label, `None` on rejection.
#[inline]
pub fn single(route: Option<(usize, usize, f64)>, pred: Option<u8>, elapsed_ns: u64) {
    let Some(state) = active_ref() else { return };
    let ordinal = state.next_ordinal.fetch_add(1, Ordering::Relaxed);
    let _fold = state.fold.lock().expect("monitor fold lock poisoned");
    let Some(slot) = state.slot_for(ordinal) else { return };
    state.fold_row(slot, route.map(|(r, g, d)| (r, g, quantize(d))), pred);
    slot.latency_ns.fetch_add(elapsed_ns, Ordering::Relaxed);
    slot.latency_rows.fetch_add(1, Ordering::Relaxed);
}

/// A claimed ordinal block for one batch. Parallel workers [`stash`]
/// routes lock-free; the batch entry point [`commit`]s once at the end.
///
/// [`stash`]: BatchRecorder::stash
/// [`commit`]: BatchRecorder::commit
pub struct BatchRecorder {
    state: &'static MonitorState,
    base: u64,
    routes: Vec<AtomicU64>,
    dists: Vec<AtomicU64>,
}

impl BatchRecorder {
    /// Records row `i`'s route: matched region, sensitive group, and
    /// squared distance to the matched centroid. Lock-free (two relaxed
    /// stores into the row's preallocated slots); safe to call from any
    /// worker thread. Rows that never stash are folded as rejected.
    #[inline]
    pub fn stash(&self, i: usize, region: usize, group: usize, dist_sq: f64) {
        let packed = STASHED | ((region as u64) << 16) | (group as u64 & 0xffff);
        self.routes[i].store(packed, Ordering::Relaxed);
        self.dists[i].store(quantize(dist_sq), Ordering::Relaxed);
    }

    /// Folds the batch into the window ring: `pred_of(i)` returns row
    /// `i`'s emitted label, or `None` if the row was rejected with a
    /// typed fault. `elapsed_ns` is the batch wall-clock, attributed to
    /// the window of the batch's first ordinal (latency never enters
    /// the deterministic JSONL stream). Folding is commutative integer
    /// addition under the fold lock, so concurrent batches and any
    /// worker-thread count produce identical window counts.
    pub fn commit(self, pred_of: impl Fn(usize) -> Option<u8>, elapsed_ns: u64) {
        let state = self.state;
        let _fold = state.fold.lock().expect("monitor fold lock poisoned");
        for i in 0..self.routes.len() {
            let Some(slot) = state.slot_for(self.base + i as u64) else { continue };
            let packed = self.routes[i].load(Ordering::Relaxed);
            let route = (packed & STASHED != 0).then(|| {
                (((packed >> 16) & 0x7fff_ffff) as usize, (packed & 0xffff) as usize,
                 self.dists[i].load(Ordering::Relaxed))
            });
            state.fold_row(slot, route, pred_of(i));
        }
        if let Some(slot) = state.slot_for(self.base) {
            slot.latency_ns.fetch_add(elapsed_ns, Ordering::Relaxed);
            slot.latency_rows.fetch_add(self.routes.len() as u64, Ordering::Relaxed);
        }
    }
}

/// Aggregated state of one window at snapshot time.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowSnapshot {
    /// Window id (`ordinal / window_len`).
    pub id: u64,
    /// Rows observed (accepted + rejected).
    pub observed: u64,
    /// Rows rejected with a typed per-row fault.
    pub rejected: u64,
    /// Accepted rows per `(region, group)` cell, region-major.
    pub rows: Vec<u64>,
    /// Positive predictions per `(region, group)` cell, region-major.
    pub positives: Vec<u64>,
    /// Distance digest, `[region * HISTOGRAM_BUCKETS + bucket]`.
    pub dist: Vec<u64>,
    /// Wall-clock nanoseconds of batches starting in this window.
    pub latency_ns: u64,
    /// Rows those batches carried.
    pub latency_rows: u64,
}

impl WindowSnapshot {
    /// Accepted rows in `region`, summed over groups.
    pub fn region_rows(&self, n_groups: usize, region: usize) -> u64 {
        self.rows[region * n_groups..(region + 1) * n_groups].iter().sum()
    }

    /// Live demographic-parity gap of `region`: mean absolute difference
    /// between each represented group's positive-prediction rate and the
    /// region's overall rate — the exact semantics of
    /// `falcc_metrics::FairnessMetric::DemographicParity` (groups with
    /// no rows are excluded; 0 when fewer than two groups contribute),
    /// recomputed from counts so this crate stays dependency-free.
    /// `tests/monitoring.rs` cross-checks the two implementations.
    pub fn dp_gap(&self, n_groups: usize, region: usize) -> f64 {
        let rows = &self.rows[region * n_groups..(region + 1) * n_groups];
        let positives = &self.positives[region * n_groups..(region + 1) * n_groups];
        let total: u64 = rows.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let p_overall = positives.iter().sum::<u64>() as f64 / total as f64;
        let mut sum = 0.0;
        let mut contributing = 0usize;
        for g in 0..n_groups {
            if rows[g] > 0 {
                sum += (positives[g] as f64 / rows[g] as f64 - p_overall).abs();
                contributing += 1;
            }
        }
        if contributing < 2 {
            0.0
        } else {
            sum / contributing as f64
        }
    }

    /// Chi-square-style skew of this window's region occupancy against
    /// the baseline: `Σ_r (obs_rate − base_rate)² / base_rate` over
    /// regions with a positive baseline rate. 0 for an empty window.
    pub fn occupancy_skew(&self, spec: &MonitorSpec) -> f64 {
        let total: u64 = self.rows.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let mut skew = 0.0;
        for r in 0..spec.n_regions {
            let base = spec.baseline_occupancy[r];
            if base > 0.0 {
                let obs = self.region_rows(spec.n_groups, r) as f64 / total as f64;
                skew += (obs - base) * (obs - base) / base;
            }
        }
        skew
    }

    /// Total-variation distance between `region`'s observed group mix
    /// and its baseline mix: `½ Σ_g |obs − base|`. 0 when the region saw
    /// no rows in this window.
    pub fn group_shift(&self, spec: &MonitorSpec, region: usize) -> f64 {
        let total = self.region_rows(spec.n_groups, region);
        if total == 0 {
            return 0.0;
        }
        let mut shift = 0.0;
        for g in 0..spec.n_groups {
            let obs = self.rows[region * spec.n_groups + g] as f64 / total as f64;
            shift += (obs - spec.baseline_group_mix[region * spec.n_groups + g]).abs();
        }
        0.5 * shift
    }

    /// Smallest digest-bucket upper bound covering at least `q` of
    /// `region`'s quantized distances (drift quantile; `None` when the
    /// region saw no rows). Units: `dist² · DIST_SCALE`, exact to the
    /// power-of-two bucket.
    pub fn dist_quantile(&self, region: usize, q: f64) -> Option<u64> {
        let buckets = &self.dist[region * HISTOGRAM_BUCKETS..(region + 1) * HISTOGRAM_BUCKETS];
        let count: u64 = buckets.iter().sum();
        if count == 0 {
            return None;
        }
        let target = ((q.clamp(0.0, 1.0) * count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, b) in buckets.iter().enumerate() {
            seen += b;
            if seen >= target {
                return bucket_upper_bound(i).or(Some(u64::MAX));
            }
        }
        Some(u64::MAX)
    }
}

/// An immutable copy of a monitor's spec and retained windows, with the
/// two export sinks: deterministic windowed JSONL ([`to_jsonl`]) and
/// Prometheus-style text exposition ([`render_exposition`]).
///
/// [`to_jsonl`]: MonitorSnapshot::to_jsonl
/// [`render_exposition`]: MonitorSnapshot::render_exposition
#[derive(Debug, Clone, PartialEq)]
pub struct MonitorSnapshot {
    /// The installed spec (window geometry + offline baseline).
    pub spec: MonitorSpec,
    /// Total ordinals claimed so far.
    pub rows_seen: u64,
    /// Retained windows, sorted by id.
    pub windows: Vec<WindowSnapshot>,
}

impl MonitorSnapshot {
    /// Serialises the stream as JSON lines: one `monitor_baseline` line,
    /// then per window a `monitor_window` line and one `monitor_region`
    /// line per region that saw rows. Contains **only deterministic
    /// fields** — no wall-clock — so the serving plane produces
    /// byte-identical output at any thread count.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{{\"type\":\"monitor_baseline\",\"window_len\":{},\"windows\":{},\"n_regions\":{},\"n_groups\":{},\"rows_seen\":{},\"occupancy\":{},\"group_mix\":{},\"dp\":{}}}",
            self.spec.window_len,
            self.spec.windows,
            self.spec.n_regions,
            self.spec.n_groups,
            self.rows_seen,
            json_f64s(&self.spec.baseline_occupancy),
            json_f64s(&self.spec.baseline_group_mix),
            json_f64s(&self.spec.baseline_dp),
        );
        for w in &self.windows {
            let _ = writeln!(
                out,
                "{{\"type\":\"monitor_window\",\"window\":{},\"start\":{},\"observed\":{},\"rejected\":{}}}",
                w.id,
                w.id * self.spec.window_len,
                w.observed,
                w.rejected,
            );
            for r in 0..self.spec.n_regions {
                if w.region_rows(self.spec.n_groups, r) == 0 {
                    continue;
                }
                let g0 = r * self.spec.n_groups;
                let d0 = r * HISTOGRAM_BUCKETS;
                let _ = writeln!(
                    out,
                    "{{\"type\":\"monitor_region\",\"window\":{},\"region\":{},\"rows\":{},\"positives\":{},\"dist_buckets\":{}}}",
                    w.id,
                    r,
                    json_u64s(&w.rows[g0..g0 + self.spec.n_groups]),
                    json_u64s(&w.positives[g0..g0 + self.spec.n_groups]),
                    json_u64s(&w.dist[d0..d0 + HISTOGRAM_BUCKETS]),
                );
            }
        }
        out
    }

    /// Writes [`MonitorSnapshot::to_jsonl`] to a file.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_jsonl())
    }

    /// Renders Prometheus-style text exposition: every line is
    /// `name{labels} value`, no comment lines, hand-rolled like
    /// [`MonitorSnapshot::to_jsonl`] so the crate stays dependency-free.
    /// The `falcc_monitor_latency_*` lines carry wall-clock and are the
    /// only nondeterministic values; equivalence checks filter them.
    pub fn render_exposition(&self) -> String {
        let mut out = String::new();
        for r in 0..self.spec.n_regions {
            let _ = writeln!(
                out,
                "falcc_monitor_baseline_occupancy{{region=\"{r}\"}} {}",
                self.spec.baseline_occupancy[r]
            );
            let _ = writeln!(
                out,
                "falcc_monitor_baseline_dp{{region=\"{r}\"}} {}",
                self.spec.baseline_dp[r]
            );
        }
        let _ = writeln!(out, "falcc_monitor_rows_seen{{}} {}", self.rows_seen);
        for w in &self.windows {
            let wid = w.id;
            let _ = writeln!(out, "falcc_monitor_observed{{window=\"{wid}\"}} {}", w.observed);
            let _ = writeln!(out, "falcc_monitor_rejected{{window=\"{wid}\"}} {}", w.rejected);
            let _ = writeln!(
                out,
                "falcc_monitor_occupancy_skew{{window=\"{wid}\"}} {}",
                w.occupancy_skew(&self.spec)
            );
            for r in 0..self.spec.n_regions {
                let region_rows = w.region_rows(self.spec.n_groups, r);
                if region_rows == 0 {
                    continue;
                }
                let _ = writeln!(
                    out,
                    "falcc_monitor_region_rows{{window=\"{wid}\",region=\"{r}\"}} {region_rows}"
                );
                let _ = writeln!(
                    out,
                    "falcc_monitor_dp_gap{{window=\"{wid}\",region=\"{r}\"}} {}",
                    w.dp_gap(self.spec.n_groups, r)
                );
                let _ = writeln!(
                    out,
                    "falcc_monitor_group_shift{{window=\"{wid}\",region=\"{r}\"}} {}",
                    w.group_shift(&self.spec, r)
                );
                for (label, q) in [("0.5", 0.5), ("0.9", 0.9), ("0.99", 0.99)] {
                    if let Some(bound) = w.dist_quantile(r, q) {
                        let _ = writeln!(
                            out,
                            "falcc_monitor_dist_quantile{{window=\"{wid}\",region=\"{r}\",q=\"{label}\"}} {bound}"
                        );
                    }
                }
                for g in 0..self.spec.n_groups {
                    let rows = w.rows[r * self.spec.n_groups + g];
                    if rows == 0 {
                        continue;
                    }
                    let positives = w.positives[r * self.spec.n_groups + g];
                    let _ = writeln!(
                        out,
                        "falcc_monitor_rows{{window=\"{wid}\",region=\"{r}\",group=\"{g}\"}} {rows}"
                    );
                    let _ = writeln!(
                        out,
                        "falcc_monitor_positive_rate{{window=\"{wid}\",region=\"{r}\",group=\"{g}\"}} {}",
                        positives as f64 / rows as f64
                    );
                }
            }
            let _ = writeln!(
                out,
                "falcc_monitor_latency_ns_sum{{window=\"{wid}\"}} {}",
                w.latency_ns
            );
            let _ = writeln!(
                out,
                "falcc_monitor_latency_rows{{window=\"{wid}\"}} {}",
                w.latency_rows
            );
        }
        out
    }
}

fn json_u64s(values: &[u64]) -> String {
    let items: Vec<String> = values.iter().map(|v| v.to_string()).collect();
    format!("[{}]", items.join(","))
}

fn json_f64s(values: &[f64]) -> String {
    // `{:?}` keeps a ".0" on integral floats (shortest round-trip), the
    // same convention the vendored serde_json writer uses.
    let items: Vec<String> = values.iter().map(|v| format!("{v:?}")).collect();
    format!("[{}]", items.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::TEST_LOCK;

    fn spec(window_len: u64, windows: usize) -> MonitorSpec {
        MonitorSpec {
            window_len,
            windows,
            n_regions: 2,
            n_groups: 2,
            baseline_occupancy: vec![0.5, 0.5],
            baseline_group_mix: vec![0.5, 0.5, 0.5, 0.5],
            baseline_dp: vec![0.0, 0.0],
        }
    }

    #[test]
    fn uninstalled_batch_is_none_and_single_is_inert() {
        let _guard = TEST_LOCK.lock().unwrap();
        uninstall();
        assert!(!active());
        assert!(batch(4).is_none());
        single(Some((0, 0, 1.0)), Some(1), 10); // must not panic
    }

    #[test]
    fn windows_fold_by_ordinal_and_evict_oldest() {
        let _guard = TEST_LOCK.lock().unwrap();
        let state = install(spec(2, 2));
        // 6 rows → windows 0, 1, 2 at 2 rows each; ring of 2 keeps 1, 2.
        for i in 0..6u8 {
            let rec = batch(1).expect("installed");
            rec.stash(0, (i % 2) as usize, 0, 1.0);
            rec.commit(|_| Some(i % 2), 1);
        }
        uninstall();
        let snap = state.snapshot();
        assert_eq!(snap.rows_seen, 6);
        assert_eq!(snap.windows.len(), 2);
        assert_eq!(snap.windows[0].id, 1);
        assert_eq!(snap.windows[1].id, 2);
        assert_eq!(snap.windows[0].observed, 2);
        // Each window holds one row per region (ordinals alternate).
        assert_eq!(snap.windows[1].region_rows(2, 0), 1);
        assert_eq!(snap.windows[1].region_rows(2, 1), 1);
    }

    #[test]
    fn unstashed_rows_count_as_rejected() {
        let _guard = TEST_LOCK.lock().unwrap();
        let state = install(spec(8, 2));
        let rec = batch(3).expect("installed");
        rec.stash(0, 0, 1, 0.25);
        rec.stash(2, 1, 0, 4.0);
        rec.commit(|i| if i == 1 { None } else { Some(1) }, 100);
        uninstall();
        let snap = state.snapshot();
        let w = &snap.windows[0];
        assert_eq!(w.observed, 3);
        assert_eq!(w.rejected, 1);
        assert_eq!(w.rows, vec![0, 1, 1, 0]);
        assert_eq!(w.positives, vec![0, 1, 1, 0]);
        assert_eq!(w.latency_ns, 100);
        assert_eq!(w.latency_rows, 3);
    }

    #[test]
    fn dp_gap_matches_hand_computation() {
        // Region 0: group 0 rate 2/3, group 1 rate 1/3, overall 1/2 →
        // gap (|2/3−1/2| + |1/3−1/2|)/2 = 1/6 (fairness.rs convention).
        let w = WindowSnapshot {
            id: 0,
            observed: 6,
            rejected: 0,
            rows: vec![3, 3],
            positives: vec![2, 1],
            dist: vec![0; HISTOGRAM_BUCKETS],
            latency_ns: 0,
            latency_rows: 0,
        };
        assert!((w.dp_gap(2, 0) - 1.0 / 6.0).abs() < 1e-12);
        // A single contributing group is unbiased by convention.
        let single_group = WindowSnapshot { rows: vec![4, 0], positives: vec![4, 0], ..w };
        assert_eq!(single_group.dp_gap(2, 0), 0.0);
    }

    #[test]
    fn skew_and_shift_detect_departures_from_baseline() {
        let sp = spec(8, 2);
        let balanced = WindowSnapshot {
            id: 0,
            observed: 8,
            rejected: 0,
            rows: vec![2, 2, 2, 2],
            positives: vec![0; 4],
            dist: vec![0; 2 * HISTOGRAM_BUCKETS],
            latency_ns: 0,
            latency_rows: 0,
        };
        assert!(balanced.occupancy_skew(&sp).abs() < 1e-12);
        assert!(balanced.group_shift(&sp, 0).abs() < 1e-12);
        // All traffic in region 0, all of it group 0.
        let skewed = WindowSnapshot { rows: vec![8, 0, 0, 0], ..balanced };
        assert!((skewed.occupancy_skew(&sp) - 1.0).abs() < 1e-12, "2·(0.5²/0.5)");
        assert!((skewed.group_shift(&sp, 0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn jsonl_is_deterministic_and_exposition_is_well_formed() {
        let _guard = TEST_LOCK.lock().unwrap();
        let run = || {
            let state = install(spec(4, 4));
            let rec = batch(8).expect("installed");
            for i in 0..8 {
                rec.stash(i, i % 2, i % 2, i as f64 * 0.5);
            }
            rec.commit(|i| Some((i % 2) as u8), 1234);
            uninstall();
            state.snapshot()
        };
        let (a, b) = (run(), run());
        // Same inputs → byte-identical JSONL, latency excluded by design.
        assert_eq!(a.to_jsonl(), b.to_jsonl());
        assert!(a.to_jsonl().contains("\"type\":\"monitor_baseline\""));
        assert!(a.to_jsonl().contains("\"type\":\"monitor_window\""));
        for line in a.render_exposition().lines() {
            let (name_labels, value) = line.rsplit_once(' ').expect("space-separated");
            let open = name_labels.find('{').expect("labels open");
            assert!(name_labels.ends_with('}'), "labels close: {line}");
            assert!(
                name_labels[..open]
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
                "metric name: {line}"
            );
            assert!(value.parse::<f64>().is_ok(), "numeric value: {line}");
        }
    }

    #[test]
    fn quantized_distance_quantiles_cover_the_digest() {
        let sp = spec(64, 1);
        let _guard = TEST_LOCK.lock().unwrap();
        let state = install(sp);
        let rec = batch(4).expect("installed");
        // dist² 0, 0.5, 2, 1000 → quantized 0, 128, 512, 256000.
        for (i, d) in [0.0, 0.5, 2.0, 1000.0].iter().enumerate() {
            rec.stash(i, 0, 0, *d);
        }
        rec.commit(|_| Some(0), 1);
        uninstall();
        let w = &state.snapshot().windows[0];
        assert_eq!(w.dist_quantile(0, 0.0), Some(1)); // bucket 0 holds the zero
        assert!(w.dist_quantile(0, 1.0).unwrap() >= 256_000);
        assert_eq!(w.dist_quantile(1, 0.5), None); // region 1 saw nothing
    }
}
