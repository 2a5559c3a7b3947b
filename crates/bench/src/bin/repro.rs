//! Regenerates every figure of the paper's evaluation and prints the
//! rows/series. Run with `--release`; pass figure ids (e.g. `fig5 fig9`)
//! to restrict, `--quick` for the small sweep. Any other argument is
//! rejected with exit status 2.
//!
//! ```text
//! cargo run -p bench --bin repro --release                    # everything
//! cargo run -p bench --bin repro --release -- fig5            # one figure
//! cargo run -p bench --bin repro --release -- --quick fig9    # small sweep
//! ```
//!
//! Performance is measured by the pinned benchmark (`benchmark/`, see
//! `BENCHMARK.json`); traces and metrics come from `s2 verify
//! --trace-out/--metrics-out`.

use bench::figs;
use std::process::ExitCode;

/// Every figure id `repro` knows, in print order.
const FIGURES: [&str; 8] = ["fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11"];

/// Parsed command line.
#[derive(Debug, PartialEq)]
struct Args {
    /// Small sweep instead of the full one.
    quick: bool,
    /// Figures to print; empty means all of them.
    figures: Vec<String>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args { quick: false, figures: Vec::new() };
    for a in args {
        if a == "--quick" {
            parsed.quick = true;
        } else if FIGURES.contains(&a.as_str()) {
            parsed.figures.push(a.clone());
        } else if a.starts_with('-') {
            return Err(format!("unknown flag: {a}"));
        } else {
            return Err(format!("unknown figure id: {a}"));
        }
    }
    Ok(parsed)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Args { quick, figures } = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            eprintln!("usage: repro [--quick] [FIGURE...]; figures: {}", FIGURES.join(" "));
            return ExitCode::from(2);
        }
    };
    let want = |name: &str| figures.is_empty() || figures.iter().any(|f| f == name);

    let (fig5_ks, fig8_ks, fig6_workers, fig9_shards): (&[usize], &[usize], &[u32], &[usize]) =
        if quick {
            (&[4, 6], &[4, 6], &[1, 2, 4], &[1, 5, 10])
        } else {
            (&[4, 6, 8, 10], &[6, 8, 10], &[1, 2, 4, 8, 16], &[1, 2, 5, 10, 15, 20, 30])
        };

    if want("fig4") {
        print!("{}", figs::fig4().render());
    }
    if want("fig5") {
        print!("{}", figs::fig5(fig5_ks).render());
    }
    if want("fig6") {
        print!("{}", figs::fig6(10, fig6_workers).render());
    }
    if want("fig7") {
        print!("{}", figs::fig7(8, 4).render());
    }
    if want("fig8") {
        print!("{}", figs::fig8(fig8_ks, 4).render());
    }
    if want("fig9") {
        print!("{}", figs::fig9(8, 4, fig9_shards).render());
    }
    if want("fig10") {
        print!("{}", figs::fig10(&fig5_ks[..fig5_ks.len().min(3)]).render());
    }
    if want("fig11") {
        print!("{}", figs::fig11().render());
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn accepts_quick_and_known_figures() {
        assert_eq!(parse(&[]), Ok(Args { quick: false, figures: vec![] }));
        assert_eq!(
            parse(&["--quick", "fig9", "fig11"]),
            Ok(Args { quick: true, figures: vec!["fig9".into(), "fig11".into()] })
        );
    }

    #[test]
    fn rejects_unknown_figures_and_flags() {
        assert_eq!(parse(&["fig12"]), Err("unknown figure id: fig12".into()));
        assert_eq!(parse(&["fig5", "--json"]), Err("unknown flag: --json".into()));
        assert!(parse(&["--trace-out", "t.json"]).is_err());
    }
}
