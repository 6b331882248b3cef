//! Sinks: the in-memory [`Snapshot`], the human-readable phase-tree
//! report, and the JSON-lines export.
//!
//! A snapshot is an immutable copy of everything collected so far; it can
//! be queried in tests ([`Snapshot::counter`], [`Snapshot::children_of`]),
//! rendered for humans ([`Snapshot::render_tree`]), or exported one JSON
//! object per line ([`Snapshot::to_jsonl`] / [`Snapshot::write_jsonl`]).
//! The JSON writer is hand-rolled — this crate takes no dependencies —
//! and emits spans in deterministic tree order (siblings sorted by
//! `(ordinal, id)`, depth-first), so two runs with the same program
//! structure produce line-for-line comparable traces modulo ids and
//! timings.

use crate::span::{SpanRecord, UNORDERED};
use std::fmt::Write as _;

/// An immutable copy of all collected spans and metrics.
pub struct Snapshot {
    /// Every finished span and event, in collection order.
    pub spans: Vec<SpanRecord>,
    /// `(name, value)` for every registered counter, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` for every registered gauge, sorted by name.
    pub gauges: Vec<(String, u64)>,
}

impl Snapshot {
    /// Copies the current collector and registry state.
    pub fn collect() -> Self {
        Self {
            spans: crate::span::drain_records(),
            counters: crate::metrics::collect_counters(),
            gauges: crate::metrics::collect_gauges(),
        }
    }

    /// Value of the named counter (0 if never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.iter().find(|(n, _)| n == name).map_or(0, |(_, v)| *v)
    }

    /// Value of the named gauge, if it was ever set.
    pub fn gauge(&self, name: &str) -> Option<u64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// Root spans (parent 0), sorted by `(ordinal, id)`.
    pub fn roots(&self) -> Vec<&SpanRecord> {
        self.children_of(0)
    }

    /// Children of the given span, sorted by `(ordinal, id)` — the
    /// deterministic sibling order ([`crate::span_under`]).
    pub fn children_of(&self, id: crate::SpanId) -> Vec<&SpanRecord> {
        let mut kids: Vec<&SpanRecord> = self.spans.iter().filter(|s| s.parent == id).collect();
        kids.sort_by_key(|s| (s.ordinal, s.id));
        kids
    }

    /// Renders the phase tree: one line per span, indented by depth,
    /// siblings in deterministic order, durations humanised. Events render
    /// as `· name: label` without a duration. Metrics follow the tree.
    pub fn render_tree(&self) -> String {
        let mut out = String::new();
        for root in self.roots() {
            self.render_span(&mut out, root, 0);
        }
        if !self.counters.is_empty() || !self.gauges.is_empty() {
            out.push_str("-- metrics --\n");
            for (name, v) in &self.counters {
                let _ = writeln!(out, "  {name} = {v}");
            }
            for (name, v) in &self.gauges {
                let _ = writeln!(out, "  {name} = {v} (gauge)");
            }
        }
        out
    }

    fn render_span(&self, out: &mut String, s: &SpanRecord, depth: usize) {
        for _ in 0..depth {
            out.push_str("  ");
        }
        if s.is_event {
            let _ = writeln!(out, "· {}: {}", s.name, s.label.as_deref().unwrap_or(""));
            return;
        }
        match &s.label {
            Some(l) => {
                let _ = writeln!(out, "{} [{}]  {}", s.name, l, fmt_ns(s.dur_ns));
            }
            None => {
                let _ = writeln!(out, "{}  {}", s.name, fmt_ns(s.dur_ns));
            }
        }
        for child in self.children_of(s.id) {
            self.render_span(out, child, depth + 1);
        }
    }

    /// Serialises the snapshot as JSON lines: spans in deterministic tree
    /// order (`{"type":"span"|"event",...}`), then counters and gauges.
    /// Every line is a complete JSON object.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for root in self.roots() {
            self.jsonl_span(&mut out, root);
        }
        for (name, v) in &self.counters {
            let _ = writeln!(out, "{{\"type\":\"counter\",\"name\":{},\"value\":{v}}}", json_str(name));
        }
        for (name, v) in &self.gauges {
            let _ = writeln!(out, "{{\"type\":\"gauge\",\"name\":{},\"value\":{v}}}", json_str(name));
        }
        out
    }

    fn jsonl_span(&self, out: &mut String, s: &SpanRecord) {
        let kind = if s.is_event { "event" } else { "span" };
        let _ = write!(
            out,
            "{{\"type\":\"{kind}\",\"id\":{},\"parent\":{},\"name\":{}",
            s.id,
            s.parent,
            json_str(s.name),
        );
        if let Some(l) = &s.label {
            let _ = write!(out, ",\"label\":{}", json_str(l));
        }
        if s.ordinal != UNORDERED {
            let _ = write!(out, ",\"ordinal\":{}", s.ordinal);
        }
        let _ = writeln!(out, ",\"start_ns\":{},\"dur_ns\":{}}}", s.start_ns, s.dur_ns);
        for child in self.children_of(s.id) {
            self.jsonl_span(out, child);
        }
    }

    /// Writes [`Snapshot::to_jsonl`] to a file.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_jsonl())
    }
}

/// Formats nanoseconds with an adaptive unit: `123 ns`, `45.6 µs`,
/// `7.89 ms`, `1.23 s`.
pub fn fmt_ns(ns: u64) -> String {
    if ns < 1_000 {
        format!("{ns} ns")
    } else if ns < 1_000_000 {
        format!("{:.1} µs", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else {
        format!("{:.2} s", ns as f64 / 1e9)
    }
}

/// JSON string literal with escaping for quotes, backslashes, and control
/// characters.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::TEST_LOCK;

    #[test]
    fn jsonl_lines_are_well_formed_objects() {
        let _guard = TEST_LOCK.lock().unwrap();
        crate::enable();
        crate::reset();
        {
            let _root = crate::span("root");
            let _child = crate::span_labeled("child", "with \"quotes\" and \\slashes\\");
            crate::event("note", "line\nbreak");
            crate::metrics::counters::ONLINE_SAMPLES.add(2);
        }
        crate::disable();
        let jsonl = crate::snapshot().to_jsonl();
        assert!(!jsonl.is_empty());
        for line in jsonl.lines() {
            assert!(line.starts_with('{') && line.ends_with('}'), "not an object: {line}");
            // Escapes must leave no raw control chars or unbalanced quotes.
            assert!(!line.contains('\u{0}'));
            let quotes = line.chars().filter(|&c| c == '"').count();
            assert_eq!(quotes % 2, 0, "unbalanced quotes: {line}");
        }
        assert!(jsonl.contains("\\\"quotes\\\""));
        assert!(jsonl.contains("line\\nbreak"));
        assert!(jsonl.contains("\"type\":\"counter\""));
    }

    #[test]
    fn render_tree_shows_nesting_and_metrics() {
        let _guard = TEST_LOCK.lock().unwrap();
        crate::enable();
        crate::reset();
        {
            let _root = crate::span("offline.fit");
            let _child = crate::span("offline.clustering");
            crate::metrics::counters::LLOYD_ITERATIONS.add(12);
        }
        crate::disable();
        let tree = crate::snapshot().render_tree();
        let root_line = tree.lines().position(|l| l.starts_with("offline.fit")).unwrap();
        let child_line = tree.lines().position(|l| l.starts_with("  offline.clustering")).unwrap();
        assert!(child_line > root_line, "child must be indented under parent:\n{tree}");
        assert!(tree.contains("offline.lloyd_iterations = 12"), "{tree}");
    }

    #[test]
    fn fmt_ns_units() {
        assert_eq!(fmt_ns(37), "37 ns");
        assert_eq!(fmt_ns(1_500), "1.5 µs");
        assert_eq!(fmt_ns(2_500_000), "2.50 ms");
        assert_eq!(fmt_ns(3_000_000_000), "3.00 s");
    }
}
