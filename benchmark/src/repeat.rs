//! `--repeat-check`: the same commit measured twice. Two sets of runs
//! on the same ten seeds must agree within each metric's bound — the
//! A/A criterion a later change's A/B comparison stands on.

use crate::doc::{MetricDef, RunResult, END_TO_END};
use crate::plan::Workload;
use crate::stats::{median, quartiles};
use crate::{run_child, Args};
use std::fmt::Write as _;
use std::process::Command;

/// Runs a set: what the driver's acceptance rule uses.
const RUNS: usize = 10;

/// What two sets of runs say about one metric on one workload.
#[derive(Debug, PartialEq)]
struct Row {
    first: f64,
    second: f64,
    /// How much worse the second median is, as a share of the first
    /// (negative: better).
    worse_by: f64,
    /// The wider of the two sets' interquartile ranges over its median.
    spread: f64,
    verdict: &'static str,
}

fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values).abs().max(f64::MIN_POSITIVE)
}

/// `exact`: the metric is a count that must repeat bit for bit on the
/// same seed, so any pair of runs that differs fails whatever the bound.
fn compare(def: &MetricDef, first: &[f64], second: &[f64], exact: bool) -> Row {
    let (a, b) = (median(first), median(second));
    let change = (b - a) / a.abs().max(f64::MIN_POSITIVE);
    let worse_by = if def.higher_is_better {
        -change
    } else {
        change
    };
    let bound = def.bound.unwrap_or(f64::INFINITY);
    let spread = spread(first).max(spread(second));
    let verdict = if worse_by > bound || (exact && first != second) {
        "FAIL"
    } else if spread > bound {
        "unresolved"
    } else {
        "ok"
    };
    Row {
        first: a,
        second: b,
        worse_by,
        spread,
        verdict,
    }
}

/// `S2Report::peak_worker_memory()` is a modelled count: on the cold
/// workloads one seed gives one value. The daemon's and the sweep's
/// scraped gauges move by a few hundredths of a percent with thread
/// timing and with how many cycles fit, so they only have the bound.
fn must_repeat_exactly(def: &MetricDef, w: Workload) -> bool {
    def.name == "peak_worker_bytes" && matches!(w, Workload::FattreeCold | Workload::DcnCold)
}

/// The commit the numbers belong to, if this is a git checkout.
fn git_describe() -> String {
    Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

pub fn check(args: &Args) -> Result<(), String> {
    let mut report = format!(
        "s2bench repeat-check: commit {} nproc {} seeds {}..{} twice ({RUNS} runs a set, {} s a run)\n",
        git_describe(),
        crate::nproc(),
        args.seed,
        args.seed + RUNS as u64 - 1,
        args.seconds()
    );
    let _ = writeln!(
        report,
        "{:<14} {:<20} {:>14} {:>14} {:>9} {:>8} {:>7}  verdict",
        "workload", "metric", "median_1", "median_2", "worse_by", "spread", "bound"
    );
    let mut bad = 0;
    let mut raw = String::from("every run's value, in the order the runs were made:\n");
    for w in Workload::ALL {
        let mut sets: [Vec<RunResult>; 2] = Default::default();
        for i in 0..2 * RUNS {
            // Alternate the sets so that slow drift of the host lands
            // on both.
            let seed = args.seed + (i / 2) as u64;
            sets[i % 2].push(run_child(args, w, seed, false, false)?);
            eprintln!("{} run {}/{} done", w.name(), i + 1, 2 * RUNS);
        }
        for def in END_TO_END {
            let values = |set: &[RunResult]| {
                set.iter()
                    .filter_map(|r| r.get(def.name))
                    .collect::<Vec<f64>>()
            };
            let (first, second) = (values(&sets[0]), values(&sets[1]));
            let row = compare(def, &first, &second, must_repeat_exactly(def, w));
            let _ = writeln!(raw, "{} {} set 1: {first:?}", w.name(), def.name);
            let _ = writeln!(raw, "{} {} set 2: {second:?}", w.name(), def.name);
            bad += usize::from(row.verdict != "ok");
            let _ = writeln!(
                report,
                "{:<14} {:<20} {:>14.4} {:>14.4} {:>+8.2}% {:>7.2}% {:>6.0}%  {}",
                w.name(),
                def.name,
                row.first,
                row.second,
                row.worse_by * 100.0,
                row.spread * 100.0,
                def.bound.unwrap_or(0.0) * 100.0,
                row.verdict
            );
        }
    }
    report.push_str(&raw);
    print!("{report}");
    let path = crate::out_dir().join("repeat_check.txt");
    std::fs::write(&path, &report).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("written to {}", path.display());
    if bad == 0 {
        Ok(())
    } else {
        Err(format!(
            "{bad} (metric, workload) pairs did not resolve within their bound"
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LATENCY: MetricDef = MetricDef {
        name: "op_p50_ms",
        unit: "ms",
        higher_is_better: false,
        bound: Some(0.10),
    };
    const RATE: MetricDef = MetricDef {
        name: "ops_per_s",
        unit: "1/s",
        higher_is_better: true,
        bound: Some(0.10),
    };

    fn around(center: f64, step: f64) -> Vec<f64> {
        (0..10).map(|i| center + (i as f64 - 4.5) * step).collect()
    }

    #[test]
    fn verdicts_follow_bound_and_spread() {
        assert_eq!(
            compare(&LATENCY, &around(100.0, 0.5), &around(104.0, 0.5), false).verdict,
            "ok"
        );
        assert_eq!(
            compare(&LATENCY, &around(100.0, 0.5), &around(115.0, 0.5), false).verdict,
            "FAIL"
        );
        // Getting better never fails, whichever way "better" points.
        assert_eq!(
            compare(&LATENCY, &around(100.0, 0.5), &around(80.0, 0.5), false).verdict,
            "ok"
        );
        assert_eq!(
            compare(&RATE, &around(100.0, 0.5), &around(80.0, 0.5), false).verdict,
            "FAIL"
        );
        assert_eq!(
            compare(&RATE, &around(100.0, 0.5), &around(120.0, 0.5), false).verdict,
            "ok"
        );
        // A set wider than the bound cannot show agreement.
        assert_eq!(
            compare(&LATENCY, &around(100.0, 5.0), &around(100.0, 0.5), false).verdict,
            "unresolved"
        );
        // A count that must repeat exactly fails on any difference,
        // however far inside the bound.
        let mut off_by_one = around(100.0, 0.5);
        off_by_one[3] += 1e-9;
        assert_eq!(
            compare(&LATENCY, &around(100.0, 0.5), &off_by_one, true).verdict,
            "FAIL"
        );
        assert_eq!(
            compare(&LATENCY, &around(100.0, 0.5), &around(100.0, 0.5), true).verdict,
            "ok"
        );
    }

    #[test]
    fn worse_by_is_signed_toward_worse() {
        let row = compare(&RATE, &around(100.0, 0.1), &around(95.0, 0.1), false);
        assert!((row.worse_by - 0.05).abs() < 1e-9, "{row:?}");
    }
}
