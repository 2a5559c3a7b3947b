//! The verification report returned by [`S2Verifier`](crate::S2Verifier).

use s2_partition::Partition;
use s2_routing::{RibSnapshot, SessionDiagnostic};
use s2_runtime::{CpRunStats, DpvRunStats, RunMetrics};
use std::sync::Arc;

/// Everything a verification run produced.
#[derive(Debug)]
pub struct S2Report {
    /// The converged RIBs of every node (the snapshot the data plane
    /// was verified against).
    pub rib: Arc<RibSnapshot>,
    /// The partition used.
    pub partition: Partition,
    /// Control-plane phase statistics (rounds, shards, per-worker peaks,
    /// cross-worker traffic).
    pub cp: CpRunStats,
    /// Data-plane phase statistics and property verdicts.
    pub dpv: DpvRunStats,
    /// BGP sessions that failed to establish (misconfigurations surfaced
    /// during model building).
    pub session_diagnostics: Vec<SessionDiagnostic>,
    /// Number of prefix shards executed.
    pub shards: usize,
    /// Unified per-worker and aggregate metrics collected over the
    /// control protocol after the data-plane phase.
    pub metrics: RunMetrics,
}

impl S2Report {
    /// Total routes in the final RIBs.
    pub fn total_routes(&self) -> usize {
        self.rib.total_routes()
    }

    /// Whether every checked property held: full reachability, no loops,
    /// no waypoint or multipath violations, and all sessions established.
    pub fn all_clear(&self) -> bool {
        self.dpv.all_clear() && self.session_diagnostics.is_empty()
    }

    /// The paper's headline memory metric: the maximum per-worker peak.
    pub fn peak_worker_memory(&self) -> usize {
        self.cp
            .max_worker_peak()
            .max(self.dpv.per_worker_peak.iter().copied().max().unwrap_or(0))
    }

    /// A one-paragraph human-readable summary.
    pub fn summary(&self) -> String {
        let mut s = format!(
            "{} nodes on {} workers, {} shards: {} routes, {} BGP rounds; \
             reachability {}/{} pairs, {} loops, {} blackhole verdicts, \
             {} waypoint violations, {} multipath violations; \
             peak worker memory {} bytes; {} cross-worker messages ({} bytes)",
            self.partition.assignment.len(),
            self.partition.num_workers,
            self.shards,
            self.total_routes(),
            self.cp.bgp_rounds,
            self.dpv.reachable_pairs,
            self.dpv.reachable_pairs + self.dpv.unreachable_pairs.len(),
            self.dpv.loops,
            self.dpv.blackholes,
            self.dpv.waypoint_violations.len(),
            self.dpv.multipath_violations.len(),
            self.peak_worker_memory(),
            self.cp.messages,
            self.cp.bytes,
        );
        let recoveries = self.cp.recoveries + self.dpv.recoveries;
        let wire_errors = self.cp.wire_errors + self.dpv.wire_errors;
        if recoveries + self.cp.oom_splits > 0 || wire_errors > 0 {
            s.push_str(&format!(
                "; survived {} worker recoveries, {} OOM shard splits \
                 ({} shard retries), {} wire errors",
                recoveries, self.cp.oom_splits, self.cp.shard_retries, wire_errors,
            ));
        }
        let t = self.traffic();
        if t.reconnects + t.protocol_violations + t.heartbeats > 0 {
            s.push_str(&format!(
                "; transport: {} reconnects, {} heartbeats, {} protocol violations",
                t.reconnects, t.heartbeats, t.protocol_violations,
            ));
        }
        s
    }

    /// Renders the unified metrics as two fixed-width text tables: one
    /// row per metric in the aggregate, then one row per metric across
    /// workers. Deterministic (snapshot maps are key-ordered); empty
    /// sections are elided.
    pub fn metrics_table(&self) -> String {
        let mut out = String::new();
        let agg = &self.metrics.aggregate;
        if !agg.counters.is_empty() || !agg.gauges.is_empty() {
            out.push_str("metrics (aggregate):\n");
            for (name, v) in agg.counters.iter().chain(agg.gauges.iter()) {
                out.push_str(&format!("  {name:<28} {v}\n"));
            }
        }
        if !self.metrics.per_worker.is_empty() {
            out.push_str("metrics (per worker):\n");
            let mut names: Vec<&str> = Vec::new();
            for w in &self.metrics.per_worker {
                for name in w.counters.keys().chain(w.gauges.keys()) {
                    if !names.contains(&name.as_str()) {
                        names.push(name);
                    }
                }
            }
            names.sort_unstable();
            for name in names {
                out.push_str(&format!("  {name:<28}"));
                for w in &self.metrics.per_worker {
                    let v = w
                        .counters
                        .get(name)
                        .or_else(|| w.gauges.get(name))
                        .copied()
                        .unwrap_or(0);
                    out.push_str(&format!(" {v:>12}"));
                }
                out.push('\n');
            }
        }
        out
    }

    /// Transport/traffic counters summed over both phases. The
    /// data-plane phase snapshot is cumulative over the run (counters
    /// are never reset), so it alone already covers the control plane;
    /// use the later (larger) snapshot rather than double-counting.
    pub fn traffic(&self) -> s2_runtime::TrafficSnapshot {
        if self.dpv.traffic.messages >= self.cp.traffic.messages {
            self.dpv.traffic
        } else {
            self.cp.traffic
        }
    }
}
