//! Monotonic-clock discipline for the workspace.
//!
//! `std::time::Instant` is quarantined here: every other crate measures
//! elapsed time through [`Stopwatch`], bounds a wait through
//! [`Deadline`], and timestamps trace events through a [`Clock`].
//! `clippy.toml` bans the `Instant`/`SystemTime` types everywhere else
//! (rules r3 and r5), which keeps the determinism story honest: code
//! outside this module cannot observe a clock except through these
//! narrow, test-substitutable wrappers.

#![expect(
    clippy::disallowed_types,
    reason = "the one module that reads the monotonic clock; every other crate goes through it"
)]

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// A source of monotonic nanosecond timestamps.
///
/// Trace events and metrics samples take their timestamps from a
/// `Clock` so tests can drive time by hand with [`ManualClock`].
pub trait Clock: Send + Sync {
    /// Nanoseconds since an arbitrary (per-clock) epoch. Monotonic:
    /// successive calls never go backwards.
    fn now_ns(&self) -> u64;
}

/// Anchor instant for [`MonotonicClock`], fixed on first use so all
/// timestamps within a process share one epoch.
fn anchor() -> Instant {
    static ANCHOR: OnceLock<Instant> = OnceLock::new();
    *ANCHOR.get_or_init(Instant::now)
}

/// The process-wide monotonic clock: nanoseconds since the first
/// observability call in this process.
#[derive(Debug, Clone, Copy, Default)]
pub struct MonotonicClock;

impl Clock for MonotonicClock {
    fn now_ns(&self) -> u64 {
        u64::try_from(anchor().elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

/// Nanoseconds since the process anchor, from the global
/// [`MonotonicClock`]. Convenience for instrumentation macros.
pub fn now_ns() -> u64 {
    MonotonicClock.now_ns()
}

/// A hand-driven clock for tests: starts at zero, advances only when
/// told to.
#[derive(Debug, Default)]
pub struct ManualClock {
    ns: AtomicU64,
}

impl ManualClock {
    /// A manual clock reading zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Advance the clock by `d`.
    pub fn advance(&self, d: Duration) {
        let ns = u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
        self.ns.fetch_add(ns, Ordering::Relaxed);
    }
}

impl Clock for ManualClock {
    fn now_ns(&self) -> u64 {
        self.ns.load(Ordering::Relaxed)
    }
}

/// Measures elapsed wall-clock time from its creation. The workspace
/// replacement for `let t = Instant::now(); ... t.elapsed()`.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    started: Instant,
}

impl Stopwatch {
    /// Start timing now.
    pub fn start() -> Self {
        Self {
            started: Instant::now(),
        }
    }

    /// Time elapsed since [`Stopwatch::start`].
    pub fn elapsed(&self) -> Duration {
        self.started.elapsed()
    }
}

impl Default for Stopwatch {
    fn default() -> Self {
        Self::start()
    }
}

/// A point in the future to wait until. The workspace replacement for
/// `Instant::now() + timeout`; bound a channel wait by passing
/// [`Deadline::remaining`] to `recv_timeout`.
#[derive(Debug, Clone, Copy)]
pub struct Deadline {
    at: Instant,
}

impl Deadline {
    /// A deadline `timeout` from now.
    pub fn after(timeout: Duration) -> Self {
        Self {
            at: Instant::now() + timeout,
        }
    }

    /// Whether the deadline has passed.
    pub fn expired(&self) -> bool {
        Instant::now() >= self.at
    }

    /// Time left before the deadline; zero once expired. Feed this to
    /// `recv_timeout` to bound a blocking wait by the deadline.
    pub fn remaining(&self) -> Duration {
        self.at.saturating_duration_since(Instant::now())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monotonic_clock_never_goes_backwards() {
        let c = MonotonicClock;
        let mut prev = c.now_ns();
        for _ in 0..1000 {
            let now = c.now_ns();
            assert!(now >= prev);
            prev = now;
        }
    }

    #[test]
    fn manual_clock_advances_only_when_told() {
        let c = ManualClock::new();
        assert_eq!(c.now_ns(), 0);
        c.advance(Duration::from_micros(7));
        assert_eq!(c.now_ns(), 7_000);
        assert_eq!(c.now_ns(), 7_000);
    }

    #[test]
    fn deadline_expires_and_remaining_hits_zero() {
        let d = Deadline::after(Duration::from_millis(0));
        std::thread::sleep(Duration::from_millis(1));
        assert!(d.expired());
        assert_eq!(d.remaining(), Duration::ZERO);

        let far = Deadline::after(Duration::from_secs(3600));
        assert!(!far.expired());
        assert!(far.remaining() > Duration::from_secs(3000));
    }

    #[test]
    fn stopwatch_measures_forward_time() {
        let sw = Stopwatch::start();
        std::thread::sleep(Duration::from_millis(1));
        assert!(sw.elapsed() >= Duration::from_millis(1));
    }
}
