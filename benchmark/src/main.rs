//! `s2bench`: the repo's pinned benchmark. See README.md beside
//! Cargo.toml for what each workload and metric means.
//!
//! ```text
//! s2bench --workload W --seed N --seconds S --trace 0|1   one run; last stdout line is its JSON
//! s2bench [--seed N] [--smoke]                            every workload, untraced then traced
//! s2bench --repeat-check [--smoke]                        two sets of ten untraced runs per workload, compared
//! ```

mod answers;
mod cold;
mod daemon;
mod doc;
mod plan;
mod probes;
mod repeat;
mod rng;
mod run;
mod spans;
mod stats;
mod sweep;

use doc::RunResult;
use plan::{Sizes, Workload};
use run::Ctx;
use spans::Recorder;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

/// `run_seconds` of BENCHMARK.json: what a run measures for when nobody
/// says otherwise.
pub const DEFAULT_SECONDS: f64 = 20.0;
const SMOKE_SECONDS: f64 = 0.3;

/// Where a run may write: `out/` beside this package's Cargo.toml.
pub fn out_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).expect("benchmark/out is writable");
    dir
}

#[derive(Debug, Clone)]
pub struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: Option<f64>,
    traced: bool,
    smoke: bool,
    repeat_check: bool,
}

impl Args {
    fn parse(argv: &[String]) -> Result<Args, String> {
        let mut a = Args {
            workload: None,
            seed: 1,
            seconds: None,
            traced: false,
            smoke: false,
            repeat_check: false,
        };
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or(format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => {
                    let v = value()?;
                    a.workload = Some(Workload::parse(v).ok_or(format!("unknown workload {v}"))?);
                }
                "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
                "--seconds" => {
                    a.seconds = Some(value()?.parse().map_err(|e| format!("--seconds: {e}"))?)
                }
                "--trace" => a.traced = value()? == "1",
                "--smoke" => a.smoke = true,
                "--repeat-check" => a.repeat_check = true,
                other => return Err(format!("unknown argument {other}")),
            }
        }
        Ok(a)
    }

    fn seconds(&self) -> f64 {
        self.seconds.unwrap_or(if self.smoke {
            SMOKE_SECONDS
        } else {
            DEFAULT_SECONDS
        })
    }
}

/// One run of one workload in this process.
fn run_one(args: &Args, workload: Workload) -> RunResult {
    let ctx = Ctx {
        workload,
        sizes: if args.smoke {
            Sizes::SMOKE
        } else {
            Sizes::FULL
        },
        seed: args.seed,
        seconds: args.seconds(),
        traced: args.traced,
    };
    let mut rec = Recorder::new(ctx.traced);
    let outcome = match workload {
        Workload::FattreeCold | Workload::DcnCold => cold::run(&ctx, &mut rec),
        Workload::DaemonChurn => daemon::run(&ctx, &mut rec),
        Workload::SweepK1k2 => sweep::run(&ctx, &mut rec),
    };
    println!(
        "workload {} seed {} seconds {} trace {} nproc {} op_list_hash {:#018x}",
        workload.name(),
        ctx.seed,
        ctx.seconds,
        u8::from(ctx.traced),
        nproc(),
        outcome.op_list_hash
    );
    for note in &outcome.notes {
        println!("{note}");
    }
    for e in outcome.errors.iter().take(10) {
        println!("MISMATCH {e}");
    }
    if ctx.traced {
        let path = out_dir().join(format!("trace-{}.json", workload.name()));
        std::fs::write(&path, rec.to_json(workload.name())).expect("trace file is writable");
        println!("trace {} spans -> {}", rec.spans.len(), path.display());
    }
    let result = outcome.result(ctx.traced);
    print!("{}", result.render());
    result
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Runs one workload in a child process (so that peak RSS is its own),
/// relays what it printed, and returns the result on its last line.
pub fn run_child(
    args: &Args,
    workload: Workload,
    seed: u64,
    traced: bool,
    echo: bool,
) -> Result<RunResult, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload.name(), "--seed", &seed.to_string()])
        .args([
            "--seconds",
            &args.seconds().to_string(),
            "--trace",
            if traced { "1" } else { "0" },
        ]);
    if args.smoke {
        cmd.arg("--smoke");
    }
    // The daemon logs one stderr line per committed delta.
    let out = cmd
        .stderr(Stdio::null())
        .output()
        .map_err(|e| e.to_string())?;
    let text = String::from_utf8_lossy(&out.stdout);
    let (body, last) = text
        .trim_end()
        .rsplit_once('\n')
        .unwrap_or(("", text.trim_end()));
    if echo {
        println!("{body}");
    }
    let result = RunResult::parse(last)
        .map_err(|e| format!("{} (exit {:?}): {e}", workload.name(), out.status.code()))?;
    if !out.status.success() || !result.correct {
        return Err(format!(
            "{}: {}/{} ops failed",
            workload.name(),
            result.failed,
            result.attempted
        ));
    }
    Ok(result)
}

/// Every workload, untraced then traced, then one JSON summary.
fn run_all(args: &Args) -> Result<(), String> {
    let mut summary = format!(
        "{{\"schema\": \"s2bench/v1\", \"seed\": {}, \"nproc\": {}, \"smoke\": {}, \"workloads\": [",
        args.seed,
        nproc(),
        args.smoke
    );
    for (i, w) in Workload::ALL.into_iter().enumerate() {
        let end_to_end = run_child(args, w, args.seed, false, true)?;
        let per_layer = run_child(args, w, args.seed, true, true)?;
        if i > 0 {
            summary.push_str(", ");
        }
        summary.push_str(&format!(
            "{{\"name\": \"{}\", \"end_to_end\": {}, \"per_layer\": {}}}",
            w.name(),
            end_to_end.to_json(),
            per_layer.to_json()
        ));
    }
    // This benchmark changes no code it measures; it claims nothing.
    summary.push_str("], \"claim\": null}");
    println!("{summary}");
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("s2bench: {e}");
            return ExitCode::from(64);
        }
    };
    let done = if let Some(workload) = args.workload {
        let result = run_one(&args, workload);
        println!("{}", result.to_json());
        if result.correct {
            Ok(())
        } else {
            Err(format!(
                "{} of {} ops failed",
                result.failed, result.attempted
            ))
        }
    } else if args.repeat_check {
        repeat::check(&args)
    } else {
        run_all(&args)
    };
    match done {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("s2bench: {e}");
            ExitCode::from(2)
        }
    }
}
