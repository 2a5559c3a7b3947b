//! Chaos demo: kill a worker mid-BGP, drop and corrupt frames, then cap
//! worker memory — the verifier converges to the fault-free result anyway.
//!
//! ```text
//! cargo run --release --example fault_injection
//! ```

use s2::{ingest, FaultPlan, NetworkModel, RuntimeConfig, S2Options, S2Verifier};
use std::time::Duration;

fn model() -> NetworkModel {
    let ft = s2_topogen::fattree::generate(s2_topogen::fattree::FatTreeParams::new(4));
    let texts: Vec<String> = s2_topogen::emit_configs(&ft.configs)
        .into_iter()
        .map(|(_, text)| text)
        .collect();
    ingest(ft.topology, &texts).expect("fat-tree model ingests")
}

fn simulate(opts: &S2Options) -> (s2::RibSnapshot, s2_runtime::CpRunStats, usize) {
    let verifier = S2Verifier::new(model(), opts).expect("verifier builds");
    let out = verifier.simulate().expect("simulation converges");
    verifier.shutdown();
    out
}

fn main() {
    let base = S2Options { workers: 4, shards: 8, ..Default::default() };
    let (reference, ref_stats, _) = simulate(&base);
    println!(
        "reference:  {} routes, {} BGP rounds, clean run",
        reference.total_routes(),
        ref_stats.bgp_rounds
    );

    // 1. Kill worker 1 before its 30th command, drop the 5th cross-worker
    //    frame, flip a byte in the 9th. The controller respawns the worker,
    //    replays the in-flight shard from the checkpoint, and resyncs the
    //    incremental BGP export caches over the lost/corrupted frames.
    let chaos = S2Options {
        runtime: RuntimeConfig {
            barrier_timeout: Duration::from_secs(5),
            faults: FaultPlan::new()
                .kill_worker(1, 30)
                .drop_message(5)
                .corrupt_message(9),
            ..RuntimeConfig::default()
        },
        ..base.clone()
    };
    let (rib, stats, shards) = simulate(&chaos);
    println!(
        "chaos:      {} routes over {} shards; recoveries={} shard_retries={} \
         resyncs={} wire_errors={}",
        rib.total_routes(),
        shards,
        stats.recoveries,
        stats.shard_retries,
        stats.resyncs,
        stats.wire_errors
    );
    assert_eq!(rib, reference, "chaos run must be bit-identical to the reference");
    assert!(stats.recoveries >= 1, "the killed worker must have been recovered");

    // 2. Cap per-worker memory between the all-prefixes peak and the peak of
    //    an 8-way split: the single shard goes over budget and the runtime
    //    degrades by bisecting it along DPDG components instead of failing.
    let (_, full_stats, _) = simulate(&S2Options { shards: 1, ..base.clone() });
    let full_peak = full_stats.per_worker_peak.iter().copied().max().unwrap_or(0);
    let split_peak = ref_stats.per_worker_peak.iter().copied().max().unwrap_or(0);
    let budget = (full_peak + split_peak) / 2;
    let capped = S2Options {
        shards: 1,
        runtime: RuntimeConfig { memory_budget: Some(budget), ..base.runtime.clone() },
        ..base.clone()
    };
    let (rib, stats, shards) = simulate(&capped);
    println!(
        "oom-capped: {} routes; budget {} bytes forced {} bisections -> {} shards",
        rib.total_routes(),
        budget,
        stats.oom_splits,
        shards
    );
    assert_eq!(rib, reference, "bisected run must be bit-identical to the reference");
    assert!(stats.oom_splits >= 1, "the budget must have forced a bisection");

    println!("all three runs produced bit-identical RIBs ✔");
}
