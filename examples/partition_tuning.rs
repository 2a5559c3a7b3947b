//! Partition tuning: compare the §5.6 partition schemes on one topology —
//! edge cut, load imbalance, and what they cost a real verification run.
//!
//! ```text
//! cargo run --example partition_tuning --release
//! ```

use s2::{S2Options, S2Verifier, Scheme, VerificationRequest};
use s2_obs::Stopwatch;
use s2_partition::estimate::estimate_loads;
use s2_partition::schemes::compute;
use s2_routing::NetworkModel;
use s2_topogen::fattree::{generate, FatTree, FatTreeParams};

fn main() {
    let k = 6;
    let workers = 4;
    let ft = generate(FatTreeParams::new(k));
    let model = NetworkModel::build(ft.topology.clone(), ft.configs.clone()).expect("valid model");
    let mut endpoints = Vec::new();
    for p in 0..k {
        for e in 0..k / 2 {
            endpoints.push((ft.edge(p, e), vec![FatTree::server_prefix(p, e)]));
        }
    }
    let request =
        VerificationRequest::all_pair_reachability(endpoints, "10.0.0.0/8".parse().unwrap());
    let loads = estimate_loads(&model.topology);

    println!("FatTree{k} on {workers} workers — partition scheme comparison\n");
    println!(
        "{:<12} {:>8} {:>10} {:>10} {:>12} {:>10}",
        "scheme", "cut", "imbalance", "time", "peak/worker", "verdict"
    );

    for scheme in [
        Scheme::Metis,
        Scheme::Random { seed: 42 },
        Scheme::Expert,
        Scheme::Imbalanced,
        Scheme::CommHeavy,
    ] {
        let partition = compute(&model.topology, workers, scheme);
        let cut = partition.edge_cut(&model.topology);
        let imbalance = partition.load_imbalance(&loads);

        let t0 = Stopwatch::start();
        let verifier = S2Verifier::with_partition(
            model.clone(),
            partition,
            &S2Options {
                workers,
                shards: 5,
                ..Default::default()
            },
        )
        .expect("fleet spawns");
        let report = verifier.verify(&request).expect("verification completes");
        verifier.shutdown();
        let elapsed = t0.elapsed();

        assert!(report.dpv.unreachable_pairs.is_empty(), "results are scheme-invariant");
        println!(
            "{:<12} {:>8} {:>10.2} {:>8.0}ms {:>12} {:>10}",
            scheme.name(),
            cut,
            imbalance,
            elapsed.as_secs_f64() * 1e3,
            format!("{}KiB", report.peak_worker_memory() / 1024),
            if report.all_clear() { "clean" } else { "violations" },
        );
    }

    println!(
        "\nthe verdicts are identical under every scheme (results never depend \
         on the partition); what changes is the peak per-worker memory — the \
         imbalanced scheme concentrates ~3/4 of the network on one worker — \
         and, at scale, the runtime. This is the paper's §5.6 finding: balance \
         matters, communication volume barely does."
    );
}
