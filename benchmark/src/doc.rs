//! The metric catalogue and the result document a run prints.

use s2_obs::json::{push_str, Json};
use std::fmt::Write as _;

/// One declared metric. `bound` is the share of the parent's median by
/// which an end-to-end metric may worsen; per-layer metrics have none.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    pub bound: Option<f64>,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    higher_is_better: bool,
    bound: f64,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, higher_is_better: bool) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better,
        bound: None,
    }
}

/// What a user of the verifier sees. Every workload reports every one;
/// README.md says what "op" means on each workload.
pub const END_TO_END: &[MetricDef] = &[
    e2e("op_p50_ms", "ms", false, 0.25),
    e2e("op_tail_ms", "ms", false, 0.25),
    e2e("ops_per_s", "1/s", true, 0.25),
    e2e("ready_ms", "ms", false, 0.25),
    e2e("peak_worker_bytes", "bytes", false, 0.06),
    e2e("peak_rss_mb", "MiB", false, 0.12),
    e2e("setup_s", "s", false, 0.25),
];

/// One crate, one prefix. A metric a workload does not exercise reads 0.
pub const PER_LAYER: &[MetricDef] = &[
    layer("topogen.gen_ms", "ms", false),
    layer("net.parse_ms", "ms", false),
    layer("net.parse_mb_s", "MB/s", true),
    layer("net.config_bytes", "bytes", false),
    layer("routing.model_build_ms", "ms", false),
    layer("routing.mono_cp_ms", "ms", false),
    layer("routing.bgp_rounds", "count", false),
    layer("routing.routes", "count", false),
    layer("partition.compute_ms", "ms", false),
    layer("partition.edge_cut", "count", false),
    layer("partition.load_imbalance", "ratio", false),
    layer("partition.commheavy_slowdown", "ratio", false),
    layer("shard.plan_ms", "ms", false),
    layer("shard.count", "count", false),
    layer("shard.max_prefix_share", "ratio", false),
    layer("runtime.fleet_start_ms", "ms", false),
    layer("runtime.cp_ms", "ms", false),
    layer("runtime.cp_msgs", "count", false),
    layer("runtime.cp_bytes", "bytes", false),
    layer("runtime.wire.encode_mb_s", "MB/s", true),
    layer("runtime.wire.decode_mb_s", "MB/s", true),
    layer("runtime.collect_ms", "ms", false),
    layer("runtime.shutdown_ms", "ms", false),
    layer("runtime.cpu_ms_per_op", "ms", false),
    layer("runtime.scaleout_w2_over_w1", "ratio", true),
    layer("runtime.pool_cp_speedup_t2", "ratio", true),
    layer("dataplane.fib_build_ms", "ms", false),
    layer("dataplane.pred_ms", "ms", false),
    layer("dataplane.fwd_ms", "ms", false),
    layer("dataplane.fwd_rounds", "count", false),
    layer("dataplane.packets", "count", false),
    layer("dataplane.remote_packet_share", "ratio", false),
    layer("dataplane.scoped.space_share", "ratio", false),
    layer("dataplane.scoped.skipped_source_share", "ratio", true),
    layer("dataplane.scoped.fallback_full", "count", false),
    layer("bdd.unique_lookups", "count", false),
    layer("bdd.unique_hit_rate", "ratio", true),
    layer("bdd.bin_lookups", "count", false),
    layer("bdd.bin_hit_rate", "ratio", true),
    layer("bdd.peak_nodes", "count", false),
    layer("bdd.serialize_mb_s", "MB/s", true),
    layer("bdd.deserialize_mb_s", "MB/s", true),
    layer("bdd.splice_ops_per_delta", "count", false),
    layer("s2.verify_unattributed_share", "ratio", false),
    layer("s2.daemon.open_ms", "ms", false),
    layer("s2.daemon.delta_down_p50_ms", "ms", false),
    layer("s2.daemon.delta_up_p50_ms", "ms", false),
    layer("s2.daemon.delta_escalated_p50_ms", "ms", false),
    layer("s2.daemon.stage_ms", "ms", false),
    layer("s2.daemon.validate_ms", "ms", false),
    layer("s2.daemon.dpv_ms", "ms", false),
    layer("s2.daemon.commit_ms", "ms", false),
    layer("s2.daemon.checkpoint_ms", "ms", false),
    layer("s2.daemon.unattributed_share", "ratio", false),
    layer("s2.daemon.checkpoint_bytes", "bytes", false),
    layer("s2.daemon.scrape_p50_ms", "ms", false),
    layer("s2.sweep.baseline_ms", "ms", false),
    layer("s2.sweep.class_share", "ratio", false),
    layer("s2.sweep.warm_rounds_mean", "count", false),
    layer("s2.sweep.speedup_vs_cold", "ratio", true),
    layer("obs.trace_overhead_share", "ratio", false),
    layer("obs.trace_events", "count", false),
];

/// One measured value. `samples` is how many observations are behind it
/// (printed beside it; the contract's JSON line has no field for it).
#[derive(Debug, Clone, PartialEq)]
pub struct Value {
    pub name: String,
    pub value: f64,
    pub unit: String,
    pub samples: usize,
}

/// Collects a run's values against a catalogue, so that a typo in a
/// metric name fails the run instead of dropping a number.
pub struct Values {
    defs: &'static [MetricDef],
    values: Vec<Value>,
}

impl Values {
    pub fn new(defs: &'static [MetricDef]) -> Self {
        Values {
            defs,
            values: Vec::new(),
        }
    }

    pub fn set(&mut self, name: &str, value: f64, samples: usize) {
        let def = self
            .defs
            .iter()
            .find(|d| d.name == name)
            .unwrap_or_else(|| panic!("undeclared metric {name}"));
        assert!(value.is_finite(), "{name} is not a number");
        self.values.retain(|v| v.name != name);
        self.values.push(Value {
            name: name.into(),
            value,
            unit: def.unit.into(),
            samples,
        });
    }

    /// Every declared metric, in catalogue order; unset ones read 0.
    pub fn complete(mut self) -> Vec<Value> {
        self.defs
            .iter()
            .map(
                |d| match self.values.iter().position(|v| v.name == d.name) {
                    Some(i) => self.values.swap_remove(i),
                    None => Value {
                        name: d.name.into(),
                        value: 0.0,
                        unit: d.unit.into(),
                        samples: 0,
                    },
                },
            )
            .collect()
    }
}

/// What one run of one workload reports; its JSON form is the last
/// line of the run's standard output.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    pub correct: bool,
    pub attempted: usize,
    pub failed: usize,
    pub metrics: Vec<Value>,
}

impl RunResult {
    /// The one-line JSON object. Numbers print with every digit `f64`
    /// carries, so two runs never read alike by rounding.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            push_str(&mut out, &m.name);
            let _ = write!(out, ": {{\"value\": {}, \"unit\": ", m.value);
            push_str(&mut out, &m.unit);
            out.push('}');
        }
        out.push_str("}}");
        out
    }

    /// Reads a document [`RunResult::to_json`] wrote (sample counts are
    /// not carried and come back 0).
    pub fn parse(text: &str) -> Result<RunResult, String> {
        let doc = s2_obs::parse_json(text)?;
        let count = |key: &str| {
            doc.get(key)
                .and_then(Json::as_num)
                .map(|n| n as usize)
                .ok_or(format!("missing {key}"))
        };
        let correct = match doc.get("correct") {
            Some(Json::Bool(b)) => *b,
            _ => return Err("missing correct".into()),
        };
        let Some(Json::Obj(fields)) = doc.get("metrics") else {
            return Err("missing metrics".into());
        };
        let metrics = fields
            .iter()
            .map(|(name, m)| {
                let value = m
                    .get("value")
                    .and_then(Json::as_num)
                    .ok_or(format!("{name}: no value"))?;
                let unit = m
                    .get("unit")
                    .and_then(Json::as_str)
                    .ok_or(format!("{name}: no unit"))?;
                Ok(Value {
                    name: name.clone(),
                    value,
                    unit: unit.into(),
                    samples: 0,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(RunResult {
            correct,
            attempted: count("attempted")?,
            failed: count("failed")?,
            metrics,
        })
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The table a person reads: name, value, unit, sample count.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            let _ = writeln!(
                out,
                "  {:<40} {:>16.4} {:<6} n={}",
                m.name, m.value, m.unit, m.samples
            );
        }
        let _ = writeln!(
            out,
            "  {:<40} {:>11}/{}",
            "fail_share", self.failed, self.attempted
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunResult {
        let mut v = Values::new(END_TO_END);
        v.set("op_p50_ms", 612.034_871_229_1, 31);
        v.set("op_tail_ms", 650.5, 31);
        v.set("ops_per_s", 1.0 / 3.0, 31);
        v.set("peak_worker_bytes", 24_012_344.0, 31);
        RunResult {
            correct: true,
            attempted: 32,
            failed: 0,
            metrics: v.complete(),
        }
    }

    #[test]
    fn writer_and_reader_round_trip() {
        let r = sample();
        let text = r.to_json();
        assert!(!text.contains('\n'));
        let mut back = RunResult::parse(&text).unwrap();
        for (b, m) in back.metrics.iter_mut().zip(&r.metrics) {
            b.samples = m.samples;
        }
        assert_eq!(back, r);
        assert_eq!(back.get("ops_per_s"), Some(1.0 / 3.0));
        assert_eq!(r.metrics.len(), END_TO_END.len());
    }

    #[test]
    #[should_panic(expected = "undeclared metric")]
    fn an_undeclared_name_is_refused() {
        Values::new(PER_LAYER).set("net.parse_s", 1.0, 1);
    }

    fn ok_name(s: &str, max: usize, extra: &str) -> bool {
        !s.is_empty()
            && s.len() <= max
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
    }

    #[test]
    fn names_and_units_are_well_formed_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(ok_name(d.name, 64, "_.-"), "{}", d.name);
            assert!(ok_name(d.unit, 16, "_/%.-"), "{}", d.unit);
            assert!(seen.insert(d.name), "{} declared twice", d.name);
            assert!(d.bound.is_none_or(|b| (0.0..=0.25).contains(&b)));
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        assert!(END_TO_END
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s" && !d.higher_is_better));
    }

    /// BENCHMARK.json is what the driver reads; it must say what this
    /// catalogue says.
    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = s2_obs::parse_json(&std::fs::read_to_string(path).unwrap()).unwrap();
        for (key, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed = doc.get(key).and_then(Json::as_arr).unwrap();
            assert_eq!(listed.len(), defs.len(), "{key}");
            for (j, d) in listed.iter().zip(defs) {
                assert_eq!(j.get("name").and_then(Json::as_str), Some(d.name));
                assert_eq!(j.get("unit").and_then(Json::as_str), Some(d.unit));
                let better = if d.higher_is_better {
                    "higher"
                } else {
                    "lower"
                };
                assert_eq!(
                    j.get("better").and_then(Json::as_str),
                    Some(better),
                    "{}",
                    d.name
                );
                assert_eq!(j.get("bound").and_then(Json::as_num), d.bound, "{}", d.name);
            }
        }
        assert_eq!(
            doc.get("run_seconds").and_then(Json::as_num),
            Some(crate::DEFAULT_SECONDS)
        );
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .filter_map(|w| w.get("name").and_then(Json::as_str))
            .collect();
        let ours: Vec<&str> = crate::plan::Workload::ALL
            .iter()
            .map(|w| w.name())
            .collect();
        assert_eq!(workloads, ours);
    }
}
