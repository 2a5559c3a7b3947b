//! Integration tests for the `s2` command-line binary: generate a network
//! to disk, then verify and simulate it through the real CLI surface.

use std::path::PathBuf;
use std::process::Command;

fn s2_bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_s2"))
}

fn gen_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("s2-cli-test-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let status = s2_bin()
        .args(["gen-fattree", "4"])
        .arg(&dir)
        .status()
        .expect("s2 binary runs");
    assert!(status.success());
    dir
}

#[test]
fn gen_writes_topology_and_configs() {
    let dir = gen_dir("gen");
    assert!(dir.join("topology.txt").is_file());
    let configs: Vec<_> = std::fs::read_dir(dir.join("configs"))
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    assert_eq!(configs.len(), 20);
    assert!(configs.iter().all(|p| p.extension().unwrap() == "cfg"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn verify_clean_network_exits_zero() {
    let dir = gen_dir("verify");
    let trace_path = dir.join("trace.json");
    let metrics_path = dir.join("metrics.json");
    let out = s2_bin()
        .args([
            "verify",
            "--topology",
            dir.join("topology.txt").to_str().unwrap(),
            "--configs",
            dir.join("configs").to_str().unwrap(),
            "--workers",
            "2",
            "--shards",
            "3",
            "--expect",
            "pod0-edge0=10.0.0.0/24",
            "--expect",
            "pod2-edge1=10.2.1.0/24",
            "--dst-space",
            "10.0.0.0/8",
            "--trace-out",
            trace_path.to_str().unwrap(),
            "--metrics-out",
            metrics_path.to_str().unwrap(),
        ])
        .output()
        .expect("s2 binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    assert!(stdout.contains("verdict: CLEAN"), "{stdout}");

    // The in-process fleet traces every worker on its own lane beside
    // the controller's.
    let trace = std::fs::read_to_string(&trace_path).expect("trace file written");
    let tdoc = s2_obs::parse_json(&trace).expect("trace JSON parses");
    let Some(s2_obs::Json::Arr(events)) = tdoc.get("traceEvents") else {
        panic!("traceEvents must be an array");
    };
    let mut lanes = std::collections::BTreeSet::new();
    let mut names = std::collections::BTreeSet::new();
    for e in events {
        if matches!(e.get("ph").and_then(|v| v.as_str()), Some("X" | "i")) {
            lanes.insert(e.get("tid").and_then(|v| v.as_num()).expect("numeric tid") as u64);
            names.insert(e.get("name").and_then(|v| v.as_str()).expect("string name"));
        }
    }
    assert!(lanes.len() >= 3, "controller + 2 worker lanes, got {lanes:?}");
    for span in ["verify", "cp.round"] {
        assert!(names.contains(span), "trace missing {span}: {names:?}");
    }

    let metrics = std::fs::read_to_string(&metrics_path).expect("metrics file written");
    let doc = s2_obs::parse_json(&metrics).expect("metrics JSON parses");
    let lookups = doc
        .get("aggregate")
        .and_then(|a| a.get("counters"))
        .and_then(|c| c.get("bdd.unique.lookups"))
        .and_then(|v| v.as_num())
        .unwrap_or(0.0);
    assert!(lookups > 0.0, "metrics must carry BDD unique-table lookups");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn verify_broken_network_exits_nonzero() {
    let dir = gen_dir("broken");
    // Remove the network statement from one edge switch's config text.
    let victim = dir.join("configs/pod0-edge0.cfg");
    let text = std::fs::read_to_string(&victim).unwrap();
    let patched: String = text
        .lines()
        .filter(|l| !l.contains("network 10.0.0.0/24"))
        .map(|l| format!("{l}\n"))
        .collect();
    assert_ne!(text, patched, "the statement must have been present");
    std::fs::write(&victim, patched).unwrap();

    let out = s2_bin()
        .args([
            "verify",
            "--topology",
            dir.join("topology.txt").to_str().unwrap(),
            "--configs",
            dir.join("configs").to_str().unwrap(),
            "--expect",
            "pod0-edge0=10.0.0.0/24",
            "--expect",
            "pod1-edge0=10.1.0.0/24",
            "--dst-space",
            "10.0.0.0/8",
        ])
        .output()
        .expect("s2 binary runs");
    assert!(!out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("UNREACHABLE"), "{stdout}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn simulate_prints_route_summary() {
    let dir = gen_dir("simulate");
    let out = s2_bin()
        .args([
            "simulate",
            "--topology",
            dir.join("topology.txt").to_str().unwrap(),
            "--configs",
            dir.join("configs").to_str().unwrap(),
            "--workers",
            "2",
        ])
        .output()
        .expect("s2 binary runs");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("converged: 224 routes"), "{stdout}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn multi_process_verify_over_tcp() {
    use std::io::BufRead;

    let dir = gen_dir("remote");
    let topo = dir.join("topology.txt");
    let confs = dir.join("configs");
    let common = [
        "--topology",
        topo.to_str().unwrap(),
        "--configs",
        confs.to_str().unwrap(),
    ];

    // Controller on an ephemeral port; it announces the bound address on
    // stderr before it starts accepting workers. Metrics and trace files
    // exercise the Command::Metrics wire path: each worker process
    // bridges its own snapshot over TCP and the controller merges them.
    let metrics_path = dir.join("metrics.json");
    let trace_path = dir.join("trace.json");
    let mut controller = s2_bin()
        .args([
            "verify",
            "--workers",
            "2",
            "--listen",
            "127.0.0.1:0",
            "--expect",
            "pod0-edge0=10.0.0.0/24",
            "--expect",
            "pod2-edge1=10.2.1.0/24",
            "--dst-space",
            "10.0.0.0/8",
            "--metrics-out",
            metrics_path.to_str().unwrap(),
            "--trace-out",
            trace_path.to_str().unwrap(),
        ])
        .args(common)
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("controller spawns");
    let mut stderr = std::io::BufReader::new(controller.stderr.take().unwrap());
    let mut line = String::new();
    stderr.read_line(&mut line).unwrap();
    let addr = line
        .strip_prefix("listening on ")
        .and_then(|rest| rest.split(' ').next())
        .unwrap_or_else(|| panic!("unexpected controller banner: {line:?}"))
        .to_string();
    // Keep draining stderr so the controller never blocks on a full pipe.
    let drain = std::thread::spawn(move || {
        for _ in stderr.lines() {}
    });

    let workers: Vec<_> = (0..2)
        .map(|_| {
            s2_bin()
                .args(["worker", "--connect", &addr])
                .args(common)
                .spawn()
                .expect("worker spawns")
        })
        .collect();

    let out = controller.wait_with_output().expect("controller finishes");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    assert!(stdout.contains("verdict: CLEAN"), "{stdout}");
    for mut w in workers {
        let status = w.wait().expect("worker finishes");
        assert!(status.success(), "worker must exit cleanly after shutdown");
    }
    drain.join().unwrap();

    // Snapshot merge correctness across the two worker *processes*: one
    // snapshot each, shipped over the control connection, and for every
    // counter the aggregate covers the per-worker sum (the aggregate
    // additionally folds in controller-side sources).
    let metrics = std::fs::read_to_string(&metrics_path).expect("metrics file written");
    let doc = s2_obs::parse_json(&metrics).expect("metrics JSON parses");
    assert_eq!(
        doc.get("schema").and_then(|v| v.as_str()),
        Some("s2-metrics-report/v1")
    );
    let workers_json = match doc.get("per_worker") {
        Some(s2_obs::Json::Arr(a)) => a.clone(),
        other => panic!("per_worker must be an array, got {other:?}"),
    };
    assert_eq!(workers_json.len(), 2, "one snapshot per worker process");
    let counter = |j: &s2_obs::Json, name: &str| -> u64 {
        j.get("counters")
            .and_then(|c| c.get(name))
            .and_then(|v| v.as_num())
            .unwrap_or(0.0) as u64
    };
    let per_worker_sum: u64 = workers_json
        .iter()
        .map(|w| counter(w, "bdd.unique.lookups"))
        .sum();
    let aggregate = doc.get("aggregate").expect("aggregate present");
    assert!(per_worker_sum > 0, "workers did BDD work");
    assert!(counter(aggregate, "bdd.unique.lookups") >= per_worker_sum);

    // The controller-side trace is valid Chrome trace JSON with the
    // barrier/CP-round spans (worker-process spans stay local to the
    // worker processes by design).
    let trace = std::fs::read_to_string(&trace_path).expect("trace file written");
    let tdoc = s2_obs::parse_json(&trace).expect("trace JSON parses");
    match tdoc.get("traceEvents") {
        Some(s2_obs::Json::Arr(events)) => assert!(!events.is_empty()),
        other => panic!("traceEvents must be an array, got {other:?}"),
    }
    for name in ["\"barrier\"", "\"cp.round\"", "\"verify\""] {
        assert!(trace.contains(name), "trace missing {name}");
    }

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bad_flags_fail_gracefully() {
    for args in [
        vec!["verify"],                      // missing everything
        vec!["frobnicate"],                  // unknown subcommand
        vec!["verify", "--topology"],        // dangling flag
        vec!["gen-fattree", "nope", "/tmp"], // bad k
    ] {
        let out = s2_bin().args(&args).output().expect("s2 binary runs");
        assert!(!out.status.success(), "{args:?} should fail");
    }
}
