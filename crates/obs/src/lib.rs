//! # s2-obs
//!
//! The observability layer of the S2 workspace, dependency-free by
//! construction (std only). Five concerns live here:
//!
//! * [`time`] — the *only* sanctioned home of `std::time::Instant` in
//!   the workspace (enforced by the `r5-obs-clock` lint). Supervision
//!   code measures elapsed time through [`time::Stopwatch`] and bounds
//!   waits through [`time::Deadline`]; trace timestamps come from the
//!   [`time::Clock`] trait so tests can substitute a manual clock.
//! * [`metrics`] — typed counters/gauges/log-bucketed histograms and
//!   the [`metrics::MetricsSnapshot`] merge/encode path that subsumes
//!   the runtime's ad-hoc stats structs. Snapshots encode to JSON with
//!   BTreeMap key order, so equal snapshots produce identical bytes
//!   (the workspace R2 discipline).
//! * [`expo`] — Prometheus text-exposition rendering of metrics
//!   snapshots (controller aggregate plus per-worker labeled series
//!   and liveness gauges), the scrape surface behind the daemon's
//!   `metrics` admin command, with the format validator used by
//!   `cargo xtask expo-check`.
//! * [`trace`] — a structured tracing core: thread-local span stack,
//!   per-thread lanes (controller / worker *n*), a bounded global
//!   event sink, and a Chrome `trace_event` exporter viewable in
//!   `chrome://tracing` or Perfetto. Compiled only with the `obs`
//!   feature; without it the [`span!`]/[`event!`] macros expand to
//!   nothing. With the feature on but tracing not enabled, the
//!   fast path of every instrumentation point is one atomic load.
//! * [`recorder`] — the flight recorder: a fixed-size lock-free ring
//!   of recent trace events, dumped on barrier-deadline expiry,
//!   recovery epoch bumps, OOM degradation, or panic, so chaos-test
//!   failures come with evidence instead of guesswork.
//!
//! [`json`] carries the hand-rolled JSON value/parser/writer shared by
//! the metrics encoding, the resilience report, and the trace
//! validator in `cargo xtask trace-check`. [`lock`] is the workspace's
//! one mutex-lock helper.

#![deny(missing_docs)]

pub mod expo;
pub mod json;
pub mod metrics;
pub mod recorder;
pub mod time;
pub mod trace;

pub use json::{parse_json, Json};
pub use metrics::{Counter, Gauge, Histogram, MetricsSnapshot, Registry};
pub use time::{Clock, Deadline, ManualClock, MonotonicClock, Stopwatch};

/// Locks `m`, recovering the guard if another thread panicked while
/// holding it: shared state stays usable after a panic, and no call
/// site needs an `unwrap`.
pub fn lock<T>(m: &std::sync::Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}
