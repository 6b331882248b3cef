//! The span/event core: RAII guards with monotonic timing, a thread-safe
//! collector, and deterministic tree structure.
//!
//! # Parenting and ordering
//!
//! Spans opened with [`span`]/[`span_labeled`] parent under the innermost
//! open span *of the same thread* (a thread-local stack), in program
//! order. Code that fans work out to worker threads — where thread-local
//! stacks start empty and scheduling order is nondeterministic — uses
//! [`span_under`] instead: an explicit parent id plus an **ordinal**, the
//! work item's index. Snapshots sort siblings by `(ordinal, id)`, so the
//! merged tree is identical for every thread count: the same guarantee
//! `falcc_dataset::parallel` gives for data, extended to traces.
//!
//! Durations come from a single process-wide [`Instant`] epoch, so span
//! start offsets are comparable across threads.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Identifier of a recorded span. `0` is reserved (inert guards / "no
/// parent"); ids increase in creation order within a thread.
pub type SpanId = u64;

/// Ordinal value meaning "no explicit ordering — fall back to id order".
pub const UNORDERED: u64 = u64::MAX;

/// One finished span or event, as stored by the collector.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    /// Unique id (creation order within a thread).
    pub id: SpanId,
    /// Parent span id, `0` for roots.
    pub parent: SpanId,
    /// Static span name, e.g. `offline.clustering`.
    pub name: &'static str,
    /// Optional free-form label, e.g. `k=12`.
    pub label: Option<String>,
    /// Explicit sibling ordering key ([`UNORDERED`] = use id order).
    pub ordinal: u64,
    /// Start offset from the collector epoch, nanoseconds.
    pub start_ns: u64,
    /// Duration in nanoseconds (0 for events).
    pub dur_ns: u64,
    /// `true` for instantaneous events.
    pub is_event: bool,
}

struct Collector {
    epoch: Instant,
    spans: Mutex<Vec<SpanRecord>>,
}

static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static COLLECTOR: OnceLock<Collector> = OnceLock::new();

thread_local! {
    static STACK: RefCell<Vec<SpanId>> = const { RefCell::new(Vec::new()) };
}

fn collector() -> &'static Collector {
    COLLECTOR.get_or_init(|| Collector { epoch: Instant::now(), spans: Mutex::new(Vec::new()) })
}

pub(crate) fn reset_collector() {
    let c = collector();
    c.spans.lock().expect("span collector poisoned").clear();
    // Restart ids so tree ordering is reproducible run-to-run within a
    // process (tests reset before each run whose trace they compare).
    NEXT_ID.store(1, Ordering::Relaxed);
}

pub(crate) fn drain_records() -> Vec<SpanRecord> {
    collector().spans.lock().expect("span collector poisoned").clone()
}

/// An RAII span guard: created by [`span`]/[`span_labeled`]/[`span_under`],
/// records itself into the collector on drop. Inert (id 0, no work on
/// drop) when telemetry was disabled at creation.
#[must_use = "a span measures the scope it is alive in; binding it to _ drops it immediately"]
pub struct Span {
    id: SpanId,
    parent: SpanId,
    name: &'static str,
    label: Option<String>,
    ordinal: u64,
    start: Option<Instant>,
}

impl Span {
    /// This span's id — pass to [`span_under`] in worker closures to
    /// parent their spans here. Returns 0 for inert guards (disabled
    /// telemetry); `span_under(0, ..)` yields root spans, which keeps the
    /// call sites branch-free.
    pub fn id(&self) -> SpanId {
        self.id
    }

    fn inert() -> Self {
        Self { id: 0, parent: 0, name: "", label: None, ordinal: UNORDERED, start: None }
    }

    fn open(parent: Option<SpanId>, name: &'static str, label: Option<String>, ordinal: u64) -> Self {
        if !crate::enabled() {
            return Self::inert();
        }
        let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
        let parent = match parent {
            Some(p) => p,
            None => STACK.with(|s| s.borrow().last().copied().unwrap_or(0)),
        };
        STACK.with(|s| s.borrow_mut().push(id));
        // Touch the collector now so the epoch predates the span start.
        let _ = collector();
        Self { id, parent, name, label, ordinal, start: Some(Instant::now()) }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(start) = self.start else { return };
        let dur_ns = start.elapsed().as_nanos() as u64;
        let c = collector();
        let start_ns = start.duration_since(c.epoch).as_nanos() as u64;
        STACK.with(|s| {
            let mut stack = s.borrow_mut();
            // Well-nested drops pop our own id; tolerate (and repair)
            // out-of-order drops rather than corrupting later parents.
            if let Some(pos) = stack.iter().rposition(|&x| x == self.id) {
                stack.truncate(pos);
            }
        });
        c.spans.lock().expect("span collector poisoned").push(SpanRecord {
            id: self.id,
            parent: self.parent,
            name: self.name,
            label: self.label.take(),
            ordinal: self.ordinal,
            start_ns,
            dur_ns,
            is_event: false,
        });
    }
}

/// Opens a span parented under the innermost open span of this thread.
/// Returns an inert guard when telemetry is disabled.
#[inline]
pub fn span(name: &'static str) -> Span {
    Span::open(None, name, None, UNORDERED)
}

/// [`span`] with a free-form label (shown in the phase tree and trace).
/// The label is only materialised when telemetry is enabled — pass it
/// through a closure-free `format!` only on hot paths you have measured.
#[inline]
pub fn span_labeled(name: &'static str, label: impl Into<String>) -> Span {
    if !crate::enabled() {
        return Span::inert();
    }
    Span::open(None, name, Some(label.into()), UNORDERED)
}

/// Opens a span under an explicit parent with an explicit sibling ordinal —
/// the entry point for worker threads, where implicit (stack) parenting
/// would be nondeterministic. `ordinal` should be the work item's index;
/// snapshots sort siblings by `(ordinal, id)`, so the tree is identical
/// for every thread count.
#[inline]
pub fn span_under(parent: SpanId, name: &'static str, ordinal: u64) -> Span {
    Span::open(Some(parent), name, None, ordinal)
}

/// Records an instantaneous event under the innermost open span of this
/// thread. No-op when telemetry is disabled.
pub fn event(name: &'static str, label: impl AsRef<str>) {
    if !crate::enabled() {
        return;
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = STACK.with(|s| s.borrow().last().copied().unwrap_or(0));
    let c = collector();
    let start_ns = c.epoch.elapsed().as_nanos() as u64;
    c.spans.lock().expect("span collector poisoned").push(SpanRecord {
        id,
        parent,
        name,
        label: Some(label.as_ref().to_string()),
        ordinal: UNORDERED,
        start_ns,
        dur_ns: 0,
        is_event: true,
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::TEST_LOCK;

    #[test]
    fn nesting_follows_program_order() {
        let _guard = TEST_LOCK.lock().unwrap();
        crate::enable();
        crate::reset();
        {
            let _root = span("root");
            {
                let _a = span_labeled("child", "first");
                let _aa = span("grandchild");
            }
            let _b = span_labeled("child", "second");
        }
        crate::disable();
        let snap = crate::snapshot();
        let roots = snap.roots();
        assert_eq!(roots.len(), 1);
        assert_eq!(roots[0].name, "root");
        let children = snap.children_of(roots[0].id);
        assert_eq!(children.len(), 2);
        assert_eq!(children[0].label.as_deref(), Some("first"));
        assert_eq!(children[1].label.as_deref(), Some("second"));
        let grand = snap.children_of(children[0].id);
        assert_eq!(grand.len(), 1);
        assert_eq!(grand[0].name, "grandchild");
        assert!(snap.children_of(children[1].id).is_empty());
    }

    #[test]
    fn events_attach_to_the_open_span() {
        let _guard = TEST_LOCK.lock().unwrap();
        crate::enable();
        crate::reset();
        {
            let _root = span("root");
            event("marker", "hello");
        }
        crate::disable();
        let snap = crate::snapshot();
        let root = snap.roots()[0].clone();
        let kids = snap.children_of(root.id);
        assert_eq!(kids.len(), 1);
        assert!(kids[0].is_event);
        assert_eq!(kids[0].dur_ns, 0);
        assert_eq!(kids[0].label.as_deref(), Some("hello"));
    }

    #[test]
    fn inert_guards_cost_nothing_and_record_nothing() {
        let _guard = TEST_LOCK.lock().unwrap();
        crate::disable();
        crate::reset();
        let s = span("nope");
        assert_eq!(s.id(), 0);
        drop(s);
        assert!(crate::snapshot().spans.is_empty());
    }

    #[test]
    fn explicit_parenting_merges_deterministically_across_threads() {
        let _guard = TEST_LOCK.lock().unwrap();
        // The PR-1 contract, extended to traces: same tree for any
        // thread count, because workers order by item index.
        let shape = |threads: usize| -> Vec<(String, u64)> {
            crate::enable();
            crate::reset();
            {
                let parent = span("fanout");
                let pid = parent.id();
                let n = 12usize;
                let chunk = n.div_ceil(threads);
                std::thread::scope(|scope| {
                    for t in 0..threads {
                        scope.spawn(move || {
                            for i in (t * chunk)..((t + 1) * chunk).min(n) {
                                let _w = span_under(pid, "item", i as u64);
                            }
                        });
                    }
                });
            }
            crate::disable();
            let snap = crate::snapshot();
            let root = snap.roots()[0].clone();
            snap.children_of(root.id)
                .iter()
                .map(|s| (s.name.to_string(), s.ordinal))
                .collect()
        };
        let reference = shape(1);
        assert_eq!(reference.len(), 12);
        assert_eq!(reference[0].1, 0);
        assert_eq!(reference[11].1, 11);
        for threads in [2, 8] {
            assert_eq!(shape(threads), reference, "tree differs at {threads} threads");
        }
    }
}
