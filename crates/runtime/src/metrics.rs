//! Bridges between the runtime's bespoke stat structs and the unified
//! [`s2_obs`] metrics registry.
//!
//! The runtime predates the observability layer and carries several
//! hand-rolled counter structs: [`MemReport`] (per-worker memory and
//! BDD cache stats) and [`TrafficSnapshot`] (sidecar wire traffic).
//! Rather than migrating every producer at once, this module converts
//! those structs into [`MetricsSnapshot`]s under the unified
//! `<subsystem>.<thing>[.<aspect>]` naming scheme, and converts back
//! where legacy consumers (report fields, tests) still want the struct
//! form. Conversions are exact: counter merge is summation, matching
//! `CacheStats::merge` and `TrafficStats::merge`, so aggregating
//! per-worker snapshots and converting back yields byte-identical
//! legacy stats.

use crate::memstats::MemReport;
use crate::sidecar::TrafficSnapshot;
use s2_bdd::CacheStats;
use s2_obs::MetricsSnapshot;

/// Per-run metrics collected over the control protocol: one snapshot
/// per worker plus the controller-side aggregate (worker snapshots
/// merged, then cluster-wide traffic and the process-global registry
/// folded in once).
#[derive(Debug, Clone, Default)]
pub struct RunMetrics {
    /// One snapshot per worker, in worker-index order.
    pub per_worker: Vec<MetricsSnapshot>,
    /// Merge of all worker snapshots plus controller-only sources.
    pub aggregate: MetricsSnapshot,
}

impl RunMetrics {
    /// Canonical JSON document for `--metrics-out`: the aggregate plus
    /// one snapshot per worker. Deterministic — snapshots serialize
    /// their maps in key order.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"schema\":\"s2-metrics-report/v1\",\"aggregate\":");
        out.push_str(&self.aggregate.to_json());
        out.push_str(",\"per_worker\":[");
        for (i, m) in self.per_worker.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&m.to_json());
        }
        out.push_str("]}");
        out
    }
}

/// Convert a worker's [`MemReport`] into registry form: the BDD cache
/// counters become `bdd.*` counters, the byte/node watermarks become
/// `mem.*` / `bdd.*` gauges.
pub fn mem_metrics(mem: &MemReport) -> MetricsSnapshot {
    let mut s = MetricsSnapshot::default();
    let c = &mem.bdd_cache;
    s.counter("bdd.unique.lookups", c.unique_lookups);
    s.counter("bdd.unique.hits", c.unique_hits);
    s.counter("bdd.unique.probe_misses", c.unique_probe_misses);
    s.counter("bdd.unique.resizes", c.unique_resizes);
    s.counter("bdd.bin.lookups", c.bin_lookups);
    s.counter("bdd.bin.hits", c.bin_hits);
    s.counter("bdd.not.lookups", c.not_lookups);
    s.counter("bdd.not.hits", c.not_hits);
    s.counter("bdd.memo.lookups", c.memo_lookups);
    s.counter("bdd.memo.hits", c.memo_hits);
    s.counter("bdd.generation_clears", c.generation_clears);
    s.gauge_max("mem.route_bytes", mem.route_bytes as u64);
    s.gauge_max("mem.bdd_bytes", mem.bdd_bytes as u64);
    s.gauge_max("mem.peak_bytes", mem.peak_bytes as u64);
    s.gauge_max("bdd.peak_nodes", mem.bdd_peak_nodes as u64);
    s
}

/// Inverse of the `bdd.*` half of [`mem_metrics`]: rebuild a
/// [`CacheStats`] from a (possibly merged) snapshot. Exact because
/// counter merge and [`CacheStats::merge`] are both summation.
pub fn cache_stats_of(s: &MetricsSnapshot) -> CacheStats {
    CacheStats {
        unique_lookups: s.counter_value("bdd.unique.lookups"),
        unique_hits: s.counter_value("bdd.unique.hits"),
        unique_probe_misses: s.counter_value("bdd.unique.probe_misses"),
        unique_resizes: s.counter_value("bdd.unique.resizes"),
        bin_lookups: s.counter_value("bdd.bin.lookups"),
        bin_hits: s.counter_value("bdd.bin.hits"),
        not_lookups: s.counter_value("bdd.not.lookups"),
        not_hits: s.counter_value("bdd.not.hits"),
        memo_lookups: s.counter_value("bdd.memo.lookups"),
        memo_hits: s.counter_value("bdd.memo.hits"),
        generation_clears: s.counter_value("bdd.generation_clears"),
    }
}

/// The memory fields of `CpRunStats` and `DpvRunStats` from one
/// `Command::Metrics` snapshot per worker: the per-worker peaks, the
/// largest BDD node table and the merged cache counters (counter merge
/// is summation, gauge merge is max). A remote worker's proxy merges its
/// process registry into its snapshot, but no shipped code writes a
/// `bdd.*` or `mem.*` name there, so that merge leaves these numbers
/// alone.
pub(crate) fn fold_mem(per_worker: &[MetricsSnapshot]) -> (Vec<usize>, usize, CacheStats) {
    let mut merged = MetricsSnapshot::default();
    for s in per_worker {
        merged.merge(s);
    }
    let peaks = per_worker
        .iter()
        .map(|s| s.gauge_value("mem.peak_bytes") as usize)
        .collect();
    (
        peaks,
        merged.gauge_value("bdd.peak_nodes") as usize,
        cache_stats_of(&merged),
    )
}

/// Convert a cluster-wide [`TrafficSnapshot`] into `net.*` / `tcp.*` /
/// `dp.*` counters. Called once at the controller (the snapshot
/// already merges local and remote sidecars), never per worker, so
/// traffic is not double-counted.
pub fn traffic_metrics(t: &TrafficSnapshot) -> MetricsSnapshot {
    let mut s = MetricsSnapshot::default();
    s.counter("net.messages", t.messages);
    s.counter("net.bytes", t.bytes);
    s.counter("net.wire_errors", t.wire_errors);
    s.counter("net.dup_skips", t.dup_skips);
    s.counter("net.seq_gaps", t.seq_gaps);
    s.counter("net.stale_drops", t.stale_drops);
    s.counter("net.injected_drops", t.injected_drops);
    s.counter("net.injected_dups", t.injected_dups);
    s.counter("net.injected_corruptions", t.injected_corruptions);
    s.counter("net.injected_delays", t.injected_delays);
    s.counter("tcp.reconnects", t.reconnects);
    s.counter("tcp.heartbeats", t.heartbeats);
    s.counter("net.protocol_violations", t.protocol_violations);
    s.counter("dp.scratch_reuses", t.scratch_reuses);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_mem(seed: u64) -> MemReport {
        let c = CacheStats {
            unique_lookups: seed + 1,
            unique_hits: seed + 2,
            unique_probe_misses: seed + 3,
            unique_resizes: seed + 4,
            bin_lookups: seed + 5,
            bin_hits: seed + 6,
            not_lookups: seed + 7,
            not_hits: seed + 8,
            memo_lookups: seed + 9,
            memo_hits: seed + 10,
            generation_clears: seed + 11,
        };
        MemReport {
            route_bytes: (seed as usize) * 3 + 1,
            bdd_bytes: (seed as usize) * 5 + 2,
            peak_bytes: (seed as usize) * 7 + 3,
            bdd_peak_nodes: (seed as usize) * 11 + 4,
            bdd_cache: c,
        }
    }

    #[test]
    fn cache_stats_roundtrip_through_snapshot() {
        let mem = sample_mem(100);
        assert_eq!(cache_stats_of(&mem_metrics(&mem)), mem.bdd_cache);
    }

    #[test]
    fn merged_snapshots_match_cache_stats_merge() {
        let a = sample_mem(10);
        let b = sample_mem(2000);
        let mut merged_legacy = a.bdd_cache;
        merged_legacy.merge(&b.bdd_cache);
        let mut snap = mem_metrics(&a);
        snap.merge(&mem_metrics(&b));
        assert_eq!(cache_stats_of(&snap), merged_legacy);
        // Gauges take the max across workers.
        assert_eq!(
            snap.gauge_value("mem.peak_bytes"),
            a.peak_bytes.max(b.peak_bytes) as u64
        );
    }

    #[test]
    fn run_metrics_json_is_schema_tagged_and_parseable() {
        let run = RunMetrics {
            per_worker: vec![mem_metrics(&sample_mem(1)), mem_metrics(&sample_mem(2))],
            aggregate: {
                let mut a = mem_metrics(&sample_mem(1));
                a.merge(&mem_metrics(&sample_mem(2)));
                a
            },
        };
        let json = run.to_json();
        let parsed = s2_obs::parse_json(&json).unwrap();
        assert_eq!(
            parsed.get("schema").and_then(|v| v.as_str()),
            Some("s2-metrics-report/v1")
        );
        match parsed.get("per_worker") {
            Some(s2_obs::Json::Arr(workers)) => assert_eq!(workers.len(), 2),
            other => panic!("per_worker must be an array, got {other:?}"),
        }
        assert!(parsed.get("aggregate").is_some());
    }

    #[test]
    fn traffic_snapshot_bridges_every_field() {
        let t = TrafficSnapshot {
            messages: 1,
            bytes: 2,
            wire_errors: 3,
            dup_skips: 4,
            seq_gaps: 5,
            stale_drops: 6,
            injected_drops: 7,
            injected_dups: 8,
            injected_corruptions: 9,
            injected_delays: 10,
            reconnects: 11,
            heartbeats: 12,
            protocol_violations: 13,
            scratch_reuses: 14,
        };
        let s = traffic_metrics(&t);
        assert_eq!(s.counter_value("net.messages"), 1);
        assert_eq!(s.counter_value("tcp.reconnects"), 11);
        assert_eq!(s.counter_value("tcp.heartbeats"), 12);
        assert_eq!(s.counter_value("dp.scratch_reuses"), 14);
        // Sum of all counters equals the sum of all fields: nothing
        // dropped in translation.
        let total: u64 = (1..=14).sum();
        let json = s.to_json();
        let parsed = s2_obs::parse_json(&json).unwrap();
        let counters = parsed.get("counters").unwrap();
        let mut sum = 0u64;
        if let s2_obs::Json::Obj(fields) = counters {
            assert_eq!(fields.len(), 14);
            for (_, v) in fields {
                sum += v.as_num().unwrap() as u64;
            }
        } else {
            panic!("counters must be an object");
        }
        assert_eq!(sum, total);
    }
}
