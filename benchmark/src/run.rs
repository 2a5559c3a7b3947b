//! What the three workload drivers share: the run's parameters, the
//! measured phase's clock, and the outcome they hand back.

use crate::doc::{RunResult, Values, END_TO_END, PER_LAYER};
use crate::plan::{Sizes, Workload};
use crate::stats::{beyond, median, quantile, MIN_BEYOND};
use std::time::Instant;

/// Ops a measured phase runs at least, however short `--seconds` is.
const MIN_OPS: usize = 3;

/// One run's parameters.
#[derive(Debug, Clone, Copy)]
pub struct Ctx {
    pub workload: Workload,
    pub sizes: Sizes,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
}

impl Ctx {
    /// Seconds the op loop runs: all of them untraced, a third traced
    /// (the probes take the rest).
    pub fn op_seconds(&self) -> f64 {
        if self.traced {
            self.seconds / 3.0
        } else {
            self.seconds
        }
    }
}

/// Seconds of CPU (user + system, every thread) this process has used.
fn cpu_seconds() -> f64 {
    // Fields 14 and 15 of /proc/self/stat, counted after the command
    // name (which may itself hold spaces), in USER_HZ = 100 ticks.
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| {
            let rest = s.rsplit_once(')')?.1;
            let mut f = rest.split_whitespace().skip(11);
            Some((f.next()?.parse::<f64>().ok()? + f.next()?.parse::<f64>().ok()?) / 100.0)
        })
        .unwrap_or(0.0)
}

/// High-water mark of this process's resident set, MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// The measured phase: a closed loop with one client that runs ops
/// until the time is up.
pub struct Phase {
    start: Instant,
    cpu_start: f64,
    seconds: f64,
}

impl Phase {
    pub fn start(seconds: f64) -> Self {
        Phase {
            start: Instant::now(),
            cpu_start: cpu_seconds(),
            seconds,
        }
    }

    pub fn done(&self, ops: usize) -> bool {
        ops >= MIN_OPS && self.start.elapsed().as_secs_f64() >= self.seconds
    }

    /// CPU milliseconds the process has burned since the phase began.
    pub fn cpu_ms(&self) -> f64 {
        (cpu_seconds() - self.cpu_start) * 1e3
    }
}

/// What a workload driver hands back.
pub struct Outcome {
    pub attempted: usize,
    pub failed: usize,
    pub errors: Vec<String>,
    /// Lines for the person reading the run, printed above the table.
    pub notes: Vec<String>,
    pub setup_s: Vec<f64>,
    pub peak_rss_mb: f64,
    pub op_list_hash: u64,
    pub e2e: Values,
    pub layers: Values,
}

impl Outcome {
    pub fn new() -> Self {
        Outcome {
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
            notes: Vec::new(),
            setup_s: Vec::new(),
            peak_rss_mb: 0.0,
            op_list_hash: 0,
            e2e: Values::new(END_TO_END),
            layers: Values::new(PER_LAYER),
        }
    }

    /// Runs one set-up and times it; `setup_s` is the median of them
    /// all. Drivers spread their set-ups over the run (before it,
    /// between ops, after it): the first half second of a process runs
    /// at whatever speed the host happens to wake up at.
    pub fn timed_setup<T>(&mut self, set_up: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let made = set_up();
        self.setup_s.push(t.elapsed().as_secs_f64());
        made
    }

    /// Sets the primary op's median and tail. The tail's percentile is
    /// pinned per workload: one that moved with the sample count would
    /// have two runs report different things. The note says how many
    /// samples lie beyond it, and when that is short of the rule.
    pub fn set_primary_op(&mut self, workload: Workload, samples: &[f64]) {
        let (n, p) = (samples.len(), workload.tail_percentile());
        self.e2e.set("op_p50_ms", median(samples), n);
        self.e2e.set("op_tail_ms", quantile(samples, p), n);
        let left = beyond(n, p);
        self.notes.push(format!(
            "op_tail_ms is p{} of {n} samples, {left} beyond it{}",
            p * 100.0,
            if left < MIN_BEYOND {
                " (the percentile rule asks for ten)"
            } else {
                ""
            }
        ));
    }

    /// Counts one failed op. An op that errored, was rejected, went
    /// undetermined or gave a verdict other than the known answer fails.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        self.attempted = self.attempted.max(self.failed);
        self.errors.push(why);
    }

    /// The run's result: the end-to-end values of an untraced run, the
    /// per-layer values of a traced one.
    pub fn result(mut self, traced: bool) -> RunResult {
        if !self.setup_s.is_empty() {
            self.e2e
                .set("setup_s", median(&self.setup_s), self.setup_s.len());
        }
        self.e2e.set("peak_rss_mb", self.peak_rss_mb, 1);
        let metrics = if traced { self.layers } else { self.e2e }.complete();
        RunResult {
            correct: self.failed == 0,
            attempted: self.attempted.max(1),
            failed: self.failed,
            metrics,
        }
    }
}
