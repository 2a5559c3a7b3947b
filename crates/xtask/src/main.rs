//! `cargo xtask` — workspace automation entry point.
//!
//! Subcommands:
//!
//! * `trace-check <trace.json> [--require <span>]... [--min-lanes <n>]`
//!   — validate a Chrome trace emitted by `--trace-out` (see
//!   `xtask::obscheck`). With no `--require`, the S2 controller spans
//!   (`verify`, `cp.round`, `barrier`) are required.
//! * `obs-symbols <binary> [--needle <s>]...` — fail if a compiled
//!   binary contains tracing span-name literals (the obs-off
//!   compile-time-zero check).
//! * `expo-check <metrics.txt> [--require <series>]...` — validate a
//!   Prometheus text-exposition scrape (as returned by the daemon's
//!   `metrics` admin command) and require specific series.

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    match args.next().as_deref() {
        Some("trace-check") => trace_check(args.collect()),
        Some("obs-symbols") => obs_symbols(args.collect()),
        Some("expo-check") => expo_check(args.collect()),
        Some(other) => {
            eprintln!(
                "unknown xtask command {other:?}; available: trace-check, obs-symbols, expo-check"
            );
            ExitCode::from(2)
        }
        None => {
            eprintln!(
                "usage: cargo xtask <command>\n  \
                 trace-check <trace.json> [--require <span>]... [--min-lanes <n>]\n  \
                 obs-symbols <binary> [--needle <s>]...\n  \
                 expo-check <metrics.txt> [--require <series>]..."
            );
            ExitCode::from(2)
        }
    }
}

fn expo_check(args: Vec<String>) -> ExitCode {
    let mut path: Option<PathBuf> = None;
    let mut required: Vec<String> = Vec::new();

    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--require" => match it.next() {
                Some(series) => required.push(series),
                None => {
                    eprintln!("--require needs a series substring");
                    return ExitCode::from(2);
                }
            },
            other if path.is_none() && !other.starts_with('-') => {
                path = Some(PathBuf::from(other));
            }
            other => {
                eprintln!("unknown expo-check flag {other:?}");
                return ExitCode::from(2);
            }
        }
    }
    let Some(path) = path else {
        eprintln!("expo-check needs a metrics file path");
        return ExitCode::from(2);
    };
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("expo-check: cannot read {}: {e}", path.display());
            return ExitCode::from(2);
        }
    };
    match xtask::obscheck::check_expo(&text, &required) {
        Ok((families, samples)) => {
            println!(
                "expo-check: {} OK — {families} familie(s), {samples} sample(s)",
                path.display()
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("expo-check: {}: {e}", path.display());
            ExitCode::FAILURE
        }
    }
}

fn trace_check(args: Vec<String>) -> ExitCode {
    let mut path: Option<PathBuf> = None;
    let mut required: Vec<String> = Vec::new();
    let mut min_lanes = 1usize;

    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--require" => match it.next() {
                Some(name) => required.push(name),
                None => {
                    eprintln!("--require needs a span name");
                    return ExitCode::from(2);
                }
            },
            "--min-lanes" => match it.next().and_then(|n| n.parse().ok()) {
                Some(n) => min_lanes = n,
                None => {
                    eprintln!("--min-lanes needs a number");
                    return ExitCode::from(2);
                }
            },
            other if path.is_none() && !other.starts_with('-') => {
                path = Some(PathBuf::from(other));
            }
            other => {
                eprintln!("unknown trace-check flag {other:?}");
                return ExitCode::from(2);
            }
        }
    }
    let Some(path) = path else {
        eprintln!("trace-check needs a trace file path");
        return ExitCode::from(2);
    };
    if required.is_empty() {
        required = ["verify", "cp.round", "barrier"]
            .map(String::from)
            .to_vec();
    }
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("trace-check: cannot read {}: {e}", path.display());
            return ExitCode::from(2);
        }
    };
    match xtask::obscheck::check_trace(&text, &required, min_lanes) {
        Ok(s) => {
            println!(
                "trace-check: {} OK — {} events, {} lane(s), {} span name(s)",
                path.display(),
                s.events,
                s.lanes.len(),
                s.names.len()
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("trace-check: {}: {e}", path.display());
            ExitCode::FAILURE
        }
    }
}

fn obs_symbols(args: Vec<String>) -> ExitCode {
    let mut path: Option<PathBuf> = None;
    let mut needles: Vec<String> = Vec::new();

    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--needle" => match it.next() {
                Some(n) => needles.push(n),
                None => {
                    eprintln!("--needle needs a string");
                    return ExitCode::from(2);
                }
            },
            other if path.is_none() && !other.starts_with('-') => {
                path = Some(PathBuf::from(other));
            }
            other => {
                eprintln!("unknown obs-symbols flag {other:?}");
                return ExitCode::from(2);
            }
        }
    }
    let Some(path) = path else {
        eprintln!("obs-symbols needs a binary path");
        return ExitCode::from(2);
    };
    if needles.is_empty() {
        needles = xtask::obscheck::SPAN_NEEDLES.map(String::from).to_vec();
    }
    let bytes = match std::fs::read(&path) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("obs-symbols: cannot read {}: {e}", path.display());
            return ExitCode::from(2);
        }
    };
    let needle_refs: Vec<&str> = needles.iter().map(String::as_str).collect();
    let hits = xtask::obscheck::find_symbols(&bytes, &needle_refs);
    if hits.is_empty() {
        println!(
            "obs-symbols: {} OK — none of {} span-name needle(s) present",
            path.display(),
            needle_refs.len()
        );
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "obs-symbols: {} contains span names ({}); the obs-off build must not",
            path.display(),
            hits.join(", ")
        );
        ExitCode::FAILURE
    }
}
