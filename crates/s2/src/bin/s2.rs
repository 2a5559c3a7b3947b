//! The `s2` command-line verifier.
//!
//! ```text
//! s2 verify --topology topo.txt --configs confdir/ [--workers N] [--shards M]
//!           [--source HOST]... [--expect HOST=PREFIX]... [--dst-space PREFIX]
//!           [--threads T] [--transport channel|tcp] [--listen ADDR]
//! s2 simulate --topology topo.txt --configs confdir/ [--workers N] [--shards M]
//!             [--threads T] [--transport channel|tcp] [--listen ADDR]
//! s2 worker --topology topo.txt --configs confdir/ --connect ADDR [--bind ADDR]
//! s2 gen-fattree K OUTDIR          # synthesize a demo network to verify
//! s2 sweep (--fattree K | --topology topo.txt --configs confdir/ --expect HOST=PREFIX...)
//!          [--max-failures N] [--json FILE] [--workers N] [--threads T]
//!          [--deadline-secs S]
//! ```
//!
//! `verify` checks all-pair reachability between the `--expect` endpoints
//! (each of which also acts as a source unless `--source` is given);
//! `simulate` prints the converged RIB summary only.
//!
//! Multi-process mode: start the controller with `--listen ADDR`, then
//! start `--workers` separate `s2 worker` processes pointing `--connect`
//! at that address (each with the same topology + configs). Workers form
//! their own TCP data fabric; `--bind` sets the local address of a
//! worker's data listener (default `127.0.0.1:0` — set a routable
//! address when workers run on different hosts). Single-process runs can
//! still exercise the TCP fabric with `--transport tcp`.
//!
//! `--threads T` sets the *intra-worker* pool: each worker evaluates
//! independent switches on up to `T` threads within a round. Results are
//! byte-identical to `--threads 1`; in multi-process mode the value is
//! shipped to worker processes in their setup frame.
//!
//! Observability: `--trace-out FILE` enables structured tracing and
//! writes a Chrome `trace_event` JSON file on exit (open it in
//! `chrome://tracing` or <https://ui.perfetto.dev>); crash flight dumps
//! go to `FILE` with a `.flight.json` extension. `--metrics-out FILE`
//! (verify only) writes the unified per-worker + aggregate metrics
//! snapshot as JSON.

use s2::{
    ingest, topofile, Daemon, DaemonConfig, S2Options, S2Verifier, ScenarioStatus, SweepOptions,
    VerificationRequest,
};
use s2_net::topology::NodeId;
use s2_net::Prefix;
use s2_runtime::admin::{parse_text_command, render_text_response, AdminRequest, DeltaSpec};
use s2_runtime::TransportKind;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  s2 verify   (--fattree K | --topology FILE --configs DIR) [--workers N] [--shards M] \\\n              [--expect HOST=PREFIX]... [--source HOST]... [--dst-space PREFIX] \\\n              [--threads T] [--transport channel|tcp] [--listen ADDR] \\\n              [--trace-out FILE] [--metrics-out FILE] [--verdict-hash]\n  s2 simulate --topology FILE --configs DIR [--workers N] [--shards M] \\\n              [--threads T] [--transport channel|tcp] [--listen ADDR] \\\n              [--trace-out FILE]\n  s2 sweep    (--fattree K | --topology FILE --configs DIR --expect HOST=PREFIX...) \\\n              [--max-failures N] [--json FILE] [--deadline-secs S] \\\n              [--workers N] [--threads T] [--trace-out FILE]\n  s2 daemon   (--fattree K | --topology FILE --configs DIR --expect HOST=PREFIX...) \\\n              [--admin ADDR] [--checkpoint FILE] [--deadline-secs S] \\\n              [--workers N] [--threads T] [--trace-out FILE]\n  s2 admin    --connect ADDR (status | stats | metrics | healthz | shutdown | \\\n              link-down A B | link-up A B | \\\n              prefix-add HOST PREFIX | prefix-withdraw HOST PREFIX | \\\n              route-map-edit HOST CONFIG_FILE)\n  s2 worker   --topology FILE --configs DIR --connect ADDR [--bind ADDR]\n  s2 gen-fattree K OUTDIR"
    );
    ExitCode::from(2)
}

struct Args {
    topology: PathBuf,
    configs: PathBuf,
    workers: u32,
    shards: usize,
    threads: usize,
    expects: Vec<(String, Prefix)>,
    sources: Vec<String>,
    dst_space: Prefix,
    transport: TransportKind,
    listen: Option<String>,
    connect: Option<String>,
    bind: String,
    trace_out: Option<PathBuf>,
    metrics_out: Option<PathBuf>,
    fattree: Option<usize>,
    max_failures: usize,
    json_out: Option<PathBuf>,
    deadline_secs: u64,
    admin: String,
    checkpoint: Option<PathBuf>,
    verdict_hash: bool,
}

fn parse_args(mut argv: std::vec::IntoIter<String>) -> Result<Args, String> {
    let mut args = Args {
        topology: PathBuf::new(),
        configs: PathBuf::new(),
        workers: 1,
        shards: 1,
        threads: 1,
        expects: Vec::new(),
        sources: Vec::new(),
        dst_space: "0.0.0.0/0".parse().expect("valid"),
        transport: TransportKind::Channel,
        listen: None,
        connect: None,
        bind: "127.0.0.1:0".to_string(),
        trace_out: None,
        metrics_out: None,
        fattree: None,
        max_failures: 1,
        json_out: None,
        deadline_secs: 30,
        admin: "127.0.0.1:0".to_string(),
        checkpoint: None,
        verdict_hash: false,
    };
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--topology" => args.topology = PathBuf::from(value()?),
            "--configs" => args.configs = PathBuf::from(value()?),
            "--workers" => args.workers = value()?.parse().map_err(|e| format!("--workers: {e}"))?,
            "--shards" => args.shards = value()?.parse().map_err(|e| format!("--shards: {e}"))?,
            "--threads" => args.threads = value()?.parse().map_err(|e| format!("--threads: {e}"))?,
            "--dst-space" => {
                args.dst_space = value()?.parse().map_err(|e| format!("--dst-space: {e}"))?
            }
            "--source" => args.sources.push(value()?),
            "--expect" => {
                let v = value()?;
                let (host, prefix) = v
                    .split_once('=')
                    .ok_or_else(|| format!("--expect wants HOST=PREFIX, got {v}"))?;
                let prefix: Prefix = prefix.parse().map_err(|e| format!("--expect: {e}"))?;
                args.expects.push((host.to_string(), prefix));
            }
            "--transport" => {
                args.transport = match value()?.as_str() {
                    "channel" => TransportKind::Channel,
                    "tcp" => TransportKind::tcp(),
                    other => return Err(format!("--transport wants channel|tcp, got {other}")),
                }
            }
            "--listen" => args.listen = Some(value()?),
            "--connect" => args.connect = Some(value()?),
            "--bind" => args.bind = value()?,
            "--trace-out" => args.trace_out = Some(PathBuf::from(value()?)),
            "--metrics-out" => args.metrics_out = Some(PathBuf::from(value()?)),
            "--fattree" => {
                args.fattree = Some(value()?.parse().map_err(|e| format!("--fattree: {e}"))?)
            }
            "--max-failures" => {
                args.max_failures =
                    value()?.parse().map_err(|e| format!("--max-failures: {e}"))?
            }
            "--json" => args.json_out = Some(PathBuf::from(value()?)),
            "--deadline-secs" => {
                args.deadline_secs =
                    value()?.parse().map_err(|e| format!("--deadline-secs: {e}"))?
            }
            "--admin" => args.admin = value()?,
            "--checkpoint" => args.checkpoint = Some(PathBuf::from(value()?)),
            "--verdict-hash" => args.verdict_hash = true,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if args.fattree.is_none()
        && (args.topology.as_os_str().is_empty() || args.configs.as_os_str().is_empty())
    {
        return Err("--topology and --configs are required".into());
    }
    Ok(args)
}

fn load(args: &Args) -> Result<s2::NetworkModel, String> {
    let topo_text = std::fs::read_to_string(&args.topology)
        .map_err(|e| format!("{}: {e}", args.topology.display()))?;
    let topology = topofile::parse(&topo_text).map_err(|e| e.to_string())?;
    let mut texts = Vec::new();
    let mut entries: Vec<_> = std::fs::read_dir(&args.configs)
        .map_err(|e| format!("{}: {e}", args.configs.display()))?
        .collect::<Result<_, _>>()
        .map_err(|e| e.to_string())?;
    entries.sort_by_key(|e| e.path());
    for entry in entries {
        let path = entry.path();
        if path.extension().is_some_and(|e| e == "cfg") {
            texts.push(
                std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?,
            );
        }
    }
    if texts.is_empty() {
        return Err(format!("no .cfg files in {}", args.configs.display()));
    }
    ingest(topology, &texts).map_err(|e| e.to_string())
}

fn resolve(model: &s2::NetworkModel, host: &str) -> Result<NodeId, String> {
    model
        .topology
        .node_by_name(host)
        .ok_or_else(|| format!("unknown host {host}"))
}

/// Builds the verifier for the selected mode: in-process (channel or TCP
/// fabric) or multi-process controller (`--listen`).
fn make_verifier(model: s2::NetworkModel, args: &Args) -> Result<S2Verifier, String> {
    let mut opts = S2Options {
        workers: args.workers,
        shards: args.shards,
        intra_worker_threads: args.threads.max(1),
        ..Default::default()
    };
    opts.runtime.transport = args.transport.clone();
    match &args.listen {
        None => S2Verifier::new(model, &opts).map_err(|e| e.to_string()),
        Some(addr) => {
            let listener =
                std::net::TcpListener::bind(addr).map_err(|e| format!("--listen {addr}: {e}"))?;
            eprintln!(
                "listening on {} for {} worker process(es)...",
                listener.local_addr().map_err(|e| e.to_string())?,
                args.workers
            );
            S2Verifier::listen(model, &opts, listener).map_err(|e| e.to_string())
        }
    }
}

/// Turns tracing on when `--trace-out` was given: structured spans flow
/// into the in-process sink, the flight recorder dumps next to the trace
/// file, and panics dump the recorder ring before unwinding.
fn obs_begin(args: &Args) {
    if let Some(path) = &args.trace_out {
        s2_obs::trace::set_enabled(true);
        s2_obs::recorder::set_dump_path(Some(path.with_extension("flight.json")));
        s2_obs::recorder::install_panic_hook();
    }
}

/// Writes the Chrome `trace_event` JSON for this run, draining the sink.
fn obs_finish(args: &Args) -> Result<(), String> {
    if let Some(path) = &args.trace_out {
        let events = s2_obs::trace::take_events();
        let json = s2_obs::trace::export_chrome_trace(&events);
        std::fs::write(path, json).map_err(|e| format!("--trace-out {}: {e}", path.display()))?;
        eprintln!("trace: {} events -> {}", events.len(), path.display());
    }
    Ok(())
}

/// Builds the verification request from `--expect`/`--source`/
/// `--dst-space` against a loaded model.
fn build_request(model: &s2::NetworkModel, args: &Args) -> Result<VerificationRequest, String> {
    let mut expected = Vec::new();
    for (host, prefix) in &args.expects {
        let node = resolve(model, host)?;
        match expected.iter_mut().find(|(n, _): &&mut (NodeId, Vec<Prefix>)| *n == node) {
            Some((_, ps)) => ps.push(*prefix),
            None => expected.push((node, vec![*prefix])),
        }
    }
    if expected.is_empty() {
        return Err("at least one --expect HOST=PREFIX is required".into());
    }
    let sources: Vec<NodeId> = if args.sources.is_empty() {
        expected.iter().map(|(n, _)| *n).collect()
    } else {
        args.sources
            .iter()
            .map(|h| resolve(model, h))
            .collect::<Result<_, _>>()?
    };
    Ok(VerificationRequest {
        sources,
        expected,
        dst_space: args.dst_space,
        transits: Vec::new(),
    })
}

fn cmd_verify(args: Args) -> Result<(), String> {
    let (model, request) = load_model_request(&args)?;
    for d in &model.session_diagnostics {
        eprintln!("warning: session diagnostic: {d:?}");
    }
    obs_begin(&args);
    let verifier = make_verifier(model, &args)?;
    let report = verifier.verify(&request).map_err(|e| e.to_string())?;
    verifier.shutdown();
    obs_finish(&args)?;
    if let Some(path) = &args.metrics_out {
        std::fs::write(path, report.metrics.to_json())
            .map_err(|e| format!("--metrics-out {}: {e}", path.display()))?;
        eprintln!("metrics: -> {}", path.display());
    }
    println!("{}", report.summary());
    print!("{}", report.metrics_table());
    for (s, d) in &report.dpv.unreachable_pairs {
        println!("UNREACHABLE: {s} -> {d}");
    }
    if args.verdict_hash {
        println!(
            "verdict-hash: {:016x}",
            s2_runtime::admin::verdict_hash(&report.dpv.verdict_sets)
        );
    }
    if report.all_clear() {
        println!("verdict: CLEAN");
        Ok(())
    } else {
        Err("verdict: VIOLATIONS FOUND".into())
    }
}

/// Builds the (model, request) pair for sweep/daemon modes: `--fattree K`
/// synthesizes the network and an all-pair edge-reachability request
/// in-memory; otherwise the topology, configs and `--expect` endpoints
/// are loaded as in `verify`.
fn load_model_request(args: &Args) -> Result<(s2::NetworkModel, VerificationRequest), String> {
    match args.fattree {
        Some(k) => {
            let ft = s2_topogen::fattree::generate(s2_topogen::fattree::FatTreeParams::new(k));
            let model = s2::NetworkModel::build(ft.topology.clone(), ft.configs.clone())
                .map_err(|e| e.to_string())?;
            let ft_ref = &ft;
            let endpoints = (0..k)
                .flat_map(|p| {
                    (0..k / 2).map(move |e| {
                        (ft_ref.edge(p, e), vec![s2_topogen::fattree::FatTree::server_prefix(p, e)])
                    })
                })
                .collect();
            let request = VerificationRequest::all_pair_reachability(
                endpoints,
                "10.0.0.0/8".parse().expect("valid"),
            );
            Ok((model, request))
        }
        None => {
            let model = load(args)?;
            let request = build_request(&model, args)?;
            Ok((model, request))
        }
    }
}

/// Runs a resilience sweep: baseline verification once over a warm
/// runtime, then every ≤`--max-failures` link-failure scenario
/// re-verified incrementally. `--fattree K` synthesizes the network and
/// an all-pair edge-reachability request in-memory; otherwise the
/// topology, configs and `--expect` endpoints are loaded as in `verify`.
fn cmd_sweep(args: Args) -> Result<(), String> {
    let (model, request) = load_model_request(&args)?;
    let topo = model.topology.clone();
    obs_begin(&args);
    let verifier = make_verifier(model, &args)?;
    let sweep_opts = SweepOptions {
        max_failures: args.max_failures,
        scenario_deadline: std::time::Duration::from_secs(args.deadline_secs),
        ..Default::default()
    };
    let report = verifier.sweep(&request, &sweep_opts).map_err(|e| e.to_string())?;
    verifier.shutdown();
    obs_finish(&args)?;
    println!("{}", report.summary());
    let link_name = |((a, ai), (b, bi)): &s2::sweep::LinkKey| {
        format!("{}#{ai}<->{}#{bi}", topo.name(*a), topo.name(*b))
    };
    for set in &report.minimal_breaking {
        let links: Vec<String> = set.iter().map(link_name).collect();
        println!("BREAKING: {{{}}}", links.join(", "));
    }
    for outcome in &report.outcomes {
        if let ScenarioStatus::Undetermined { reason, attempts } = &outcome.status {
            let links: Vec<String> = outcome.links.iter().map(link_name).collect();
            println!(
                "UNDETERMINED: {{{}}} after {attempts} attempt(s): {reason}",
                links.join(", ")
            );
        }
    }
    if let Some(path) = &args.json_out {
        let json = report.to_json();
        s2::sweep::validate_str(&json).map_err(|e| format!("internal: report schema: {e}"))?;
        std::fs::write(path, json).map_err(|e| format!("--json {}: {e}", path.display()))?;
        eprintln!("report: -> {}", path.display());
    }
    if report.undetermined == 0 {
        println!("sweep: COMPLETE");
        Ok(())
    } else {
        Err(format!("sweep: {} scenario(s) undetermined", report.undetermined))
    }
}

/// Runs the incremental verification daemon: verify the snapshot once
/// (with a matching journal's failed links baked in, at its
/// generation), then serve verify-then-commit deltas
/// over the `--admin` TCP socket until a `shutdown` request.
fn cmd_daemon(args: Args) -> Result<(), String> {
    let (model, request) = load_model_request(&args)?;
    obs_begin(&args);
    let mut cfg = DaemonConfig::new(
        model.topology.clone(),
        model.configs.iter().map(|c| (**c).clone()).collect(),
        request,
    );
    cfg.opts = S2Options {
        workers: args.workers,
        shards: args.shards,
        intra_worker_threads: args.threads.max(1),
        ..Default::default()
    };
    cfg.checkpoint = args.checkpoint.clone();
    cfg.delta_deadline = std::time::Duration::from_secs(args.deadline_secs);
    let listener = std::net::TcpListener::bind(&args.admin)
        .map_err(|e| format!("--admin {}: {e}", args.admin))?;
    let daemon = Daemon::open(cfg).map_err(|e| e.to_string())?;
    eprintln!(
        "daemon: generation {} ({}) baseline {:.1} ms verdict-hash {:016x}",
        daemon.generation(),
        if daemon.warm_start() { "journal adopted" } else { "cold start" },
        daemon.baseline_ms(),
        daemon.verdict_hash(),
    );
    daemon.serve(listener).map_err(|e| format!("daemon: {e}"))?;
    obs_finish(&args)?;
    Ok(())
}

/// One-shot admin client: sends a single text-grammar command to a
/// running daemon over the binary protocol and prints the JSON reply.
/// Exits non-zero when the daemon rejects the delta.
fn cmd_admin(argv: Vec<String>) -> Result<(), String> {
    let mut connect = None;
    let mut words = Vec::new();
    let mut it = argv.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--connect" => {
                connect = Some(it.next().ok_or_else(|| "--connect needs a value".to_string())?)
            }
            _ => words.push(arg),
        }
    }
    let addr = connect.ok_or_else(|| "s2 admin requires --connect ADDR".to_string())?;
    if words.is_empty() {
        return Err("s2 admin requires a command (try: status)".into());
    }
    // `stats` is the human view of the metrics endpoint: a table of
    // key gauges and histogram quantiles instead of a JSON dump.
    if words[0] == "stats" {
        if words.len() != 1 {
            return Err("stats takes no arguments".into());
        }
        let resp = s2::daemon::admin_roundtrip(&addr, &AdminRequest::Metrics)
            .map_err(|e| format!("admin {addr}: {e}"))?;
        return match resp {
            s2_runtime::admin::AdminResponse::Metrics { aggregate, workers } => {
                print!("{}", render_stats(&aggregate, &workers));
                Ok(())
            }
            other => Err(format!("unexpected reply: {}", render_text_response(&other))),
        };
    }
    // `route-map-edit HOST FILE` carries a whole config text, so the
    // file is read here rather than squeezed through the line grammar.
    let req = if words[0] == "route-map-edit" {
        if words.len() != 3 {
            return Err("route-map-edit wants HOST CONFIG_FILE".into());
        }
        let config = std::fs::read_to_string(&words[2])
            .map_err(|e| format!("route-map-edit {}: {e}", words[2]))?;
        AdminRequest::ApplyDelta(DeltaSpec::RouteMapEdit { device: words[1].clone(), config })
    } else {
        parse_text_command(&words.join(" "))?
    };
    let resp = s2::daemon::admin_roundtrip(&addr, &req)
        .map_err(|e| format!("admin {addr}: {e}"))?;
    println!("{}", render_text_response(&resp));
    match resp {
        s2_runtime::admin::AdminResponse::Rejected { reason, .. } => {
            Err(format!("rejected: {reason}"))
        }
        s2_runtime::admin::AdminResponse::Error(message) => Err(format!("error: {message}")),
        _ => Ok(()),
    }
}

/// Renders the `s2 admin stats` table: daemon/worker liveness, every
/// gauge and counter of the merged aggregate, and p50/p90/p99 per
/// histogram (computed via [`HistogramSnapshot::quantile`] on the
/// decoded snapshot — the daemon ships state, not derived numbers).
///
/// [`HistogramSnapshot::quantile`]: s2_obs::HistogramSnapshot::quantile
fn render_stats(
    aggregate: &s2_obs::MetricsSnapshot,
    workers: &[s2_runtime::WorkerMetrics],
) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "workers");
    for w in workers {
        let _ = writeln!(
            out,
            "  {:<6} {:<6} {}",
            w.id,
            if w.up { "up" } else { "DOWN" },
            if w.stale { "stale" } else { "fresh" },
        );
    }
    let _ = writeln!(out, "\ngauges");
    for (name, v) in &aggregate.gauges {
        let _ = writeln!(out, "  {name:<36} {v:>12}");
    }
    let _ = writeln!(out, "\ncounters");
    for (name, v) in &aggregate.counters {
        let _ = writeln!(out, "  {name:<36} {v:>12}");
    }
    let _ = writeln!(
        out,
        "\nhistograms\n  {:<36} {:>8} {:>8} {:>8} {:>8} {:>8}",
        "name", "count", "p50", "p90", "p99", "max"
    );
    for (name, h) in &aggregate.histograms {
        let _ = writeln!(
            out,
            "  {:<36} {:>8} {:>8} {:>8} {:>8} {:>8}",
            name,
            h.count,
            h.quantile(0.5),
            h.quantile(0.9),
            h.quantile(0.99),
            h.max,
        );
    }
    out
}

fn cmd_simulate(args: Args) -> Result<(), String> {
    let model = load(&args)?;
    obs_begin(&args);
    let verifier = make_verifier(model, &args)?;
    let (rib, stats, shards) = verifier.simulate().map_err(|e| e.to_string())?;
    verifier.shutdown();
    obs_finish(&args)?;
    println!(
        "converged: {} routes, {} BGP rounds over {} shards, ospf {} rounds",
        rib.total_routes(),
        stats.bgp_rounds,
        shards,
        stats.ospf_rounds
    );
    println!("per-worker peak bytes: {:?}", stats.per_worker_peak);
    println!("protocol histogram: {:?}", rib.protocol_histogram());
    let t = &stats.traffic;
    println!(
        "transport: {} messages ({} bytes), {} reconnects, {} heartbeats, {} protocol violations",
        t.messages, t.bytes, t.reconnects, t.heartbeats, t.protocol_violations
    );
    Ok(())
}

/// Runs one worker process: builds the same model as the controller,
/// registers, and serves commands until shutdown.
fn cmd_worker(args: Args) -> Result<(), String> {
    let connect = args
        .connect
        .as_deref()
        .ok_or_else(|| "s2 worker requires --connect ADDR".to_string())?;
    let model = load(&args)?;
    s2_runtime::remote::serve(std::sync::Arc::new(model), connect, &args.bind)
        .map_err(|e| format!("worker: {e}"))
}

fn cmd_gen_fattree(k: usize, outdir: &Path) -> Result<(), String> {
    let ft = s2_topogen::fattree::generate(s2_topogen::fattree::FatTreeParams::new(k));
    std::fs::create_dir_all(outdir).map_err(|e| e.to_string())?;
    let topo_path = outdir.join("topology.txt");
    std::fs::write(&topo_path, topofile::emit(&ft.topology)).map_err(|e| e.to_string())?;
    let confdir = outdir.join("configs");
    std::fs::create_dir_all(&confdir).map_err(|e| e.to_string())?;
    for (host, text) in s2_topogen::emit_configs(&ft.configs) {
        std::fs::write(confdir.join(format!("{host}.cfg")), text).map_err(|e| e.to_string())?;
    }
    println!(
        "wrote {} configs + {} — try:\n  s2 verify --topology {} --configs {} \\\n    --expect pod0-edge0=10.0.0.0/24 --expect pod1-edge0=10.1.0.0/24 --dst-space 10.0.0.0/8",
        ft.configs.len(),
        topo_path.display(),
        topo_path.display(),
        confdir.display()
    );
    Ok(())
}

fn main() -> ExitCode {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.is_empty() {
        return usage();
    }
    let cmd = argv.remove(0);
    let result = match cmd.as_str() {
        "verify" => parse_args(argv.into_iter()).and_then(cmd_verify),
        "simulate" => parse_args(argv.into_iter()).and_then(cmd_simulate),
        "sweep" => parse_args(argv.into_iter()).and_then(cmd_sweep),
        "daemon" => parse_args(argv.into_iter()).and_then(cmd_daemon),
        "admin" => cmd_admin(argv),
        "worker" => parse_args(argv.into_iter()).and_then(cmd_worker),
        "gen-fattree" => {
            if argv.len() != 2 {
                return usage();
            }
            match argv[0].parse::<usize>() {
                Ok(k) => cmd_gen_fattree(k, Path::new(&argv[1])),
                Err(e) => Err(format!("bad k: {e}")),
            }
        }
        _ => return usage(),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}
