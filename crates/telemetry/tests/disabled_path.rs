//! The zero-cost-when-disabled invariant as a release-build bound: with
//! recording off and no monitor installed, one counter update, one span
//! guard and one monitor probe must each cost under
//! [`DISABLED_PATH_MAX_NS`].
//!
//! This is its own test binary, with one test, so no other test can turn
//! recording on or install a monitor while it measures. Debug builds
//! ignore it: unoptimised code is not what the bound is about.

use falcc_telemetry::Counter;
use std::hint::black_box;
use std::time::Instant;

/// Generous over the expected cost (a few nanoseconds; about 10 for a
/// span guard, the slowest), so shared hosts do not flake.
const DISABLED_PATH_MAX_NS: f64 = 50.0;

const CALLS: u64 = 4_000_000;

static PROBE: Counter = Counter::new("test.disabled_probe");

/// Mean nanoseconds per call of `f` over [`CALLS`] calls.
fn ns_per_call(mut f: impl FnMut(u64)) -> f64 {
    let start = Instant::now();
    for i in 0..CALLS {
        f(black_box(i));
    }
    start.elapsed().as_nanos() as f64 / CALLS as f64
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release-only bound; CI runs it in release")]
fn disabled_recording_and_uninstalled_monitors_cost_under_the_bound() {
    // `FALCC_TELEMETRY=1` would otherwise turn recording on at first use.
    falcc_telemetry::disable();
    let counter_ns = ns_per_call(|i| PROBE.add(i & 1));
    let span_ns = ns_per_call(|_| {
        let _s = falcc_telemetry::span(black_box("disabled.probe"));
    });
    let monitor_ns = ns_per_call(|i| {
        black_box(falcc_telemetry::monitor::batch(i as usize & 1).is_none());
    });
    println!(
        "disabled path: {counter_ns:.1} ns/counter update, {span_ns:.1} ns/span guard, \
         {monitor_ns:.1} ns/uninstalled monitor probe"
    );
    for (what, ns) in [
        ("counter update", counter_ns),
        ("span guard", span_ns),
        ("monitor probe", monitor_ns),
    ] {
        assert!(
            ns < DISABLED_PATH_MAX_NS,
            "disabled {what} took {ns:.1} ns (bound {DISABLED_PATH_MAX_NS} ns)"
        );
    }
    assert_eq!(PROBE.get(), 0, "a disabled counter must not count");
    assert!(
        falcc_telemetry::snapshot().spans.is_empty(),
        "a disabled span must not record"
    );
}
