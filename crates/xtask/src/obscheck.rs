//! Observability artifact checks behind `cargo xtask trace-check` and
//! `cargo xtask obs-symbols`.
//!
//! `trace-check` validates a Chrome `trace_event` JSON document the way
//! `chrome://tracing` / Perfetto would load it — top-level
//! `traceEvents` array, well-formed `ph:"X"` / `ph:"i"` / `ph:"M"`
//! records — and additionally enforces the S2-specific shape: required
//! span names present and a minimum number of distinct lanes (one per
//! worker plus the controller).
//!
//! `obs-symbols` proves the obs-off build really is compile-time zero:
//! it scans a compiled binary for the dotted span-name literals and
//! fails if any survived into the image (the no-op `span!`/`event!`
//! macros discard the name tokens at expansion, so none should).

use s2_obs::{parse_json, Json};

/// What a validated trace contained, for human-readable reporting.
#[derive(Debug, PartialEq, Eq)]
pub struct TraceSummary {
    /// Span/instant events (metadata records excluded).
    pub events: usize,
    /// Distinct lanes (`tid`s) that carried at least one event.
    pub lanes: Vec<u64>,
    /// Distinct event names, sorted.
    pub names: Vec<String>,
}

fn num_field(e: &Json, key: &str) -> Option<f64> {
    e.get(key).and_then(Json::as_num)
}

/// Validates `text` as a Chrome trace and checks the S2 shape: every
/// name in `required` appears, and at least `min_lanes` distinct lanes
/// carried events.
pub fn check_trace(text: &str, required: &[String], min_lanes: usize) -> Result<TraceSummary, String> {
    let doc = parse_json(text).map_err(|e| format!("not valid JSON: {e}"))?;
    let Some(Json::Arr(rows)) = doc.get("traceEvents") else {
        return Err("top-level 'traceEvents' array missing".to_string());
    };

    let mut events = 0usize;
    let mut lanes: Vec<u64> = Vec::new();
    let mut names: Vec<String> = Vec::new();
    for (i, row) in rows.iter().enumerate() {
        let name = row
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("event {i}: missing string 'name'"))?;
        let ph = row
            .get("ph")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("event {i}: missing string 'ph'"))?;
        let tid = num_field(row, "tid").ok_or_else(|| format!("event {i}: missing numeric 'tid'"))?;
        if num_field(row, "pid").is_none() {
            return Err(format!("event {i}: missing numeric 'pid'"));
        }
        match ph {
            "M" => continue, // thread_name metadata: no timestamp
            "X" => {
                let ts = num_field(row, "ts")
                    .ok_or_else(|| format!("event {i} ({name}): span missing 'ts'"))?;
                let dur = num_field(row, "dur")
                    .ok_or_else(|| format!("event {i} ({name}): span missing 'dur'"))?;
                if ts < 0.0 || dur < 0.0 {
                    return Err(format!("event {i} ({name}): negative ts/dur"));
                }
            }
            "i" => {
                if num_field(row, "ts").is_none() {
                    return Err(format!("event {i} ({name}): instant missing 'ts'"));
                }
            }
            // The cross-lane stitch arrows: decoration on spans counted
            // above, not events of their own.
            "s" | "f" => {
                if num_field(row, "ts").is_none() {
                    return Err(format!("event {i} ({name}): flow missing 'ts'"));
                }
                continue;
            }
            other => return Err(format!("event {i} ({name}): unsupported ph {other:?}")),
        }
        events += 1;
        let lane = tid as u64;
        if !lanes.contains(&lane) {
            lanes.push(lane);
        }
        if !names.iter().any(|n| n == name) {
            names.push(name.to_string());
        }
    }
    lanes.sort_unstable();
    names.sort_unstable();

    for want in required {
        if !names.iter().any(|n| n == want) {
            return Err(format!(
                "required span {want:?} absent (trace has: {})",
                names.join(", ")
            ));
        }
    }
    if lanes.len() < min_lanes {
        return Err(format!(
            "only {} lane(s) carried events, need at least {min_lanes}",
            lanes.len()
        ));
    }
    Ok(TraceSummary {
        events,
        lanes,
        names,
    })
}

/// Validates a Prometheus text-exposition document (what `echo metrics
/// | nc` returns from a daemon admin socket) and checks that every
/// `required` series substring appears. Returns the family count and
/// sample count for reporting.
pub fn check_expo(text: &str, required: &[String]) -> Result<(usize, usize), String> {
    let stats = s2_obs::expo::validate(text)?;
    for series in required {
        if !text.contains(series.as_str()) {
            return Err(format!("required series {series:?} not found in exposition"));
        }
    }
    Ok((stats.families.len(), stats.samples))
}

/// The dotted span-name literals the obs-off binary must not contain.
/// Dotted forms are used verbatim nowhere else, so a hit means the
/// tracing macros compiled the name in. Span names that are a prefix of
/// an always-on metric name (e.g. the `tcp.reconnect` span vs. the
/// `tcp.reconnects` counter) are excluded — metrics are compiled in
/// regardless of the `obs` feature.
pub const SPAN_NEEDLES: [&str; 13] = [
    "cp.round",
    "bgp.export",
    "bgp.encode",
    "bgp.decode",
    "bgp.receive",
    "bgp.decide",
    "shard.wave",
    "bdd.reencode",
    "bdd.encode",
    "verify.dpv",
    "credit.stall",
    "recovery.epoch",
    "dpv.compile_preds",
];

/// Scans `bytes` (a compiled binary) for `needles`; returns the ones
/// found. Empty result = the build carries no tracing span names.
pub fn find_symbols<'a>(bytes: &[u8], needles: &'a [&'a str]) -> Vec<&'a str> {
    needles
        .iter()
        .filter(|n| {
            let n = n.as_bytes();
            !n.is_empty() && bytes.windows(n.len()).any(|w| w == n)
        })
        .copied()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(names: &[&str]) -> Vec<String> {
        names.iter().map(|s| s.to_string()).collect()
    }

    const GOOD: &str = r#"{"traceEvents":[
        {"ph":"M","pid":1,"tid":0,"name":"thread_name","args":{"name":"controller"}},
        {"name":"cp.round","ph":"X","pid":1,"tid":0,"ts":1.5,"dur":20.0,"args":{"arg":3,"depth":0}},
        {"name":"barrier","ph":"X","pid":1,"tid":1,"ts":2.0,"dur":5.0,"args":{"arg":0,"depth":1}},
        {"name":"bdd.resize","ph":"i","s":"t","pid":1,"tid":2,"ts":4.0,"args":{"arg":16,"depth":0}},
        {"ph":"s","cat":"stitch","name":"stitch","id":7,"pid":1,"tid":0,"ts":2.0},
        {"ph":"f","bp":"e","cat":"stitch","name":"stitch","id":7,"pid":1,"tid":1,"ts":2.0}
    ]}"#;

    #[test]
    fn valid_trace_summarizes_names_and_lanes() {
        let s = check_trace(GOOD, &req(&["cp.round", "barrier"]), 3).unwrap();
        assert_eq!(s.events, 3, "metadata rows and stitch arrows are not events");
        assert_eq!(s.lanes, vec![0, 1, 2]);
        assert_eq!(s.names, vec!["barrier", "bdd.resize", "cp.round"]);
    }

    #[test]
    fn missing_required_span_and_short_lanes_fail() {
        let err = check_trace(GOOD, &req(&["shard.wave"]), 1).unwrap_err();
        assert!(err.contains("shard.wave"), "{err}");
        let err = check_trace(GOOD, &req(&[]), 4).unwrap_err();
        assert!(err.contains("lane"), "{err}");
    }

    #[test]
    fn malformed_documents_are_rejected() {
        for (text, why) in [
            ("{", "JSON"),
            ("{\"other\":[]}", "traceEvents"),
            ("{\"traceEvents\":[{\"ph\":\"X\"}]}", "name"),
            (
                "{\"traceEvents\":[{\"name\":\"a\",\"ph\":\"X\",\"pid\":1,\"tid\":0,\"ts\":1}]}",
                "dur",
            ),
            (
                "{\"traceEvents\":[{\"name\":\"a\",\"ph\":\"Q\",\"pid\":1,\"tid\":0}]}",
                "ph",
            ),
        ] {
            let err = check_trace(text, &[], 0).unwrap_err();
            assert!(err.contains(why), "{text} -> {err}");
        }
    }

    #[test]
    fn expo_check_validates_and_requires_series() {
        let mut snap = s2_obs::MetricsSnapshot::default();
        snap.counter("dpv.scoped.runs", 3);
        snap.gauge_max("daemon.generation", 2);
        let doc = s2_obs::expo::render(&snap, &[]);
        let (families, samples) = check_expo(&doc, &req(&["s2_dpv_scoped_runs 3"])).unwrap();
        assert_eq!(families, 2);
        assert!(samples >= 2);

        let err = check_expo(&doc, &req(&["s2_missing_series"])).unwrap_err();
        assert!(err.contains("s2_missing_series"), "{err}");
        let err = check_expo("not an exposition {", &[]).unwrap_err();
        assert!(!err.is_empty());
    }

    #[test]
    fn symbol_scan_finds_only_present_needles() {
        let image = b"...rodata...cp.round...more...credit.stall...";
        let hits = find_symbols(image, &SPAN_NEEDLES);
        assert_eq!(hits, vec!["cp.round", "credit.stall"]);
        assert!(find_symbols(b"clean binary", &SPAN_NEEDLES).is_empty());
    }
}
