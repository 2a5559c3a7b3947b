//! Prometheus text-exposition rendering of metrics snapshots — the
//! scrape surface of the live telemetry plane. Dependency-free by the
//! workspace rule: the format is line-oriented and simple enough that
//! a hand-rolled writer (plus the [`validate`] checker used by tests
//! and `cargo xtask expo-check`) costs less than a client library.
//!
//! Layout: every metric family is announced with one `# TYPE` line,
//! followed by the controller-aggregate sample (no labels) and one
//! sample per worker (`{worker="N"}`). Counters and gauges map
//! directly; log2 histograms render as Prometheus *summaries* —
//! `{quantile="0.5|0.9|0.99"}` derived via
//! [`HistogramSnapshot::quantile`] plus `_sum`/`_count` series. Worker
//! liveness is its own pair of gauges (`s2_worker_up`,
//! `s2_worker_stale`) so a dead worker degrades the scrape (stale
//! last-known values, `up 0`) instead of wedging it.
//!
//! Rendering is deterministic: families in `BTreeMap` name order,
//! workers ascending by id — equal inputs produce identical bytes.

use crate::metrics::{HistogramSnapshot, MetricsSnapshot};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

/// Quantiles every summary family exports.
pub const QUANTILES: [(f64, &str); 3] = [(0.5, "0.5"), (0.9, "0.9"), (0.99, "0.99")];

/// One worker's contribution to a scrape: liveness, staleness, and the
/// last snapshot pulled from it (`None` when none was ever received).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WorkerSeries {
    /// Worker index (the `worker="N"` label value).
    pub id: u32,
    /// Whether the worker answered the metrics poll this scrape.
    pub up: bool,
    /// Whether `snapshot` is a stale last-known value rather than a
    /// fresh pull.
    pub stale: bool,
    /// The most recent snapshot pulled from this worker.
    pub snapshot: Option<MetricsSnapshot>,
}

/// Map a registry metric name (`daemon.delta.ms`) to a valid
/// Prometheus metric name (`s2_daemon_delta_ms`): the `s2_` namespace
/// prefix, then every character outside `[a-zA-Z0-9_:]` replaced with
/// `_`.
pub fn metric_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 3);
    out.push_str("s2_");
    for c in name.chars() {
        if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

/// Escape a label value per the exposition format: backslash, double
/// quote, and newline.
pub fn escape_label_value(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out
}

/// Push a label set like `{worker="0",quantile="0.5"}`; empty pairs
/// render nothing.
fn push_labels(o: &mut String, pairs: &[(&str, &str)]) {
    if pairs.is_empty() {
        return;
    }
    o.push('{');
    for (i, (k, v)) in pairs.iter().enumerate() {
        if i > 0 {
            o.push(',');
        }
        let _ = write!(o, "{k}=\"{}\"", escape_label_value(v));
    }
    o.push('}');
}

fn push_sample(o: &mut String, name: &str, labels: &[(&str, &str)], value: u64) {
    o.push_str(name);
    push_labels(o, labels);
    let _ = writeln!(o, " {value}");
}

/// The names of one metric kind across the aggregate and every worker
/// snapshot, deduplicated in sorted order. The aggregate is normally a
/// superset (it merges the workers), but the union keeps a series
/// visible even if a name only exists worker-side.
fn family_names<'a, T>(
    agg: &'a BTreeMap<String, T>,
    workers: &'a [WorkerSeries],
    pick: impl Fn(&'a MetricsSnapshot) -> &'a BTreeMap<String, T>,
) -> BTreeSet<&'a str> {
    let mut names: BTreeSet<&str> = agg.keys().map(String::as_str).collect();
    for w in workers {
        if let Some(s) = &w.snapshot {
            names.extend(pick(s).keys().map(String::as_str));
        }
    }
    names
}

fn push_summary(o: &mut String, name: &str, labels: &[(&str, &str)], h: &HistogramSnapshot) {
    for (q, qs) in QUANTILES {
        let mut pairs: Vec<(&str, &str)> = labels.to_vec();
        pairs.push(("quantile", qs));
        o.push_str(name);
        push_labels(o, &pairs);
        let _ = writeln!(o, " {}", h.quantile(q));
    }
    push_sample(o, &format!("{name}_sum"), labels, h.sum);
    push_sample(o, &format!("{name}_count"), labels, h.count);
}

/// A family name not yet used in this document. Sanitization can
/// collide distinct registry names (`a.b` and `a_b`), and the same
/// name may exist as two metric kinds; Prometheus forbids duplicate
/// `# TYPE` declarations, so later claimants get a deterministic
/// `_<kind>`(+counter) suffix instead.
fn claim_name(used: &mut BTreeSet<String>, pname: String, kind: &str) -> String {
    if used.insert(pname.clone()) {
        return pname;
    }
    let suffixed = format!("{pname}_{kind}");
    if used.insert(suffixed.clone()) {
        return suffixed;
    }
    let mut i = 2u32;
    loop {
        let numbered = format!("{pname}_{kind}{i}");
        if used.insert(numbered.clone()) {
            return numbered;
        }
        i += 1;
    }
}

/// Render the controller-aggregate snapshot plus per-worker series as
/// a Prometheus text-exposition document.
pub fn render(aggregate: &MetricsSnapshot, workers: &[WorkerSeries]) -> String {
    let mut o = String::new();
    let mut used: BTreeSet<String> = BTreeSet::new();
    let worker_ids: Vec<String> = workers.iter().map(|w| w.id.to_string()).collect();

    // Worker liveness first: these exist even when a worker never
    // produced a snapshot, and a scraper alerting on `up == 0` should
    // not have to read past the payload series to find them.
    if !workers.is_empty() {
        used.insert("s2_worker_up".to_string());
        used.insert("s2_worker_stale".to_string());
        o.push_str("# TYPE s2_worker_up gauge\n");
        for (w, id) in workers.iter().zip(&worker_ids) {
            push_sample(&mut o, "s2_worker_up", &[("worker", id)], u64::from(w.up));
        }
        o.push_str("# TYPE s2_worker_stale gauge\n");
        for (w, id) in workers.iter().zip(&worker_ids) {
            push_sample(&mut o, "s2_worker_stale", &[("worker", id)], u64::from(w.stale));
        }
    }

    for (kind, names) in [
        ("counter", family_names(&aggregate.counters, workers, |s| &s.counters)),
        ("gauge", family_names(&aggregate.gauges, workers, |s| &s.gauges)),
    ] {
        for name in names {
            let pname = claim_name(&mut used, metric_name(name), kind);
            let _ = writeln!(o, "# TYPE {pname} {kind}");
            let value = |s: &MetricsSnapshot| match kind {
                "counter" => s.counters.get(name).copied(),
                _ => s.gauges.get(name).copied(),
            };
            if let Some(v) = value(aggregate) {
                push_sample(&mut o, &pname, &[], v);
            }
            for (w, id) in workers.iter().zip(&worker_ids) {
                if let Some(v) = w.snapshot.as_ref().and_then(&value) {
                    push_sample(&mut o, &pname, &[("worker", id)], v);
                }
            }
        }
    }

    for name in family_names(&aggregate.histograms, workers, |s| &s.histograms) {
        let pname = claim_name(&mut used, metric_name(name), "summary");
        let _ = writeln!(o, "# TYPE {pname} summary");
        if let Some(h) = aggregate.histograms.get(name) {
            push_summary(&mut o, &pname, &[], h);
        }
        for (w, id) in workers.iter().zip(&worker_ids) {
            if let Some(h) = w.snapshot.as_ref().and_then(|s| s.histograms.get(name)) {
                push_summary(&mut o, &pname, &[("worker", id)], h);
            }
        }
    }
    o
}

/// What [`validate`] learned about a document.
#[derive(Debug, Clone, Default)]
pub struct ExpoStats {
    /// Total sample lines.
    pub samples: usize,
    /// Declared metric families (`# TYPE` lines), name → type.
    pub families: BTreeMap<String, String>,
}

fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// Parse the `{k="v",...}` label block starting at `rest` (which
/// begins with `{`), returning the remainder after `}`.
fn parse_labels(rest: &str, line_no: usize) -> Result<&str, String> {
    let mut rest = &rest[1..];
    loop {
        if let Some(r) = rest.strip_prefix('}') {
            return Ok(r);
        }
        let eq = rest
            .find('=')
            .ok_or_else(|| format!("line {line_no}: label without '='"))?;
        let key = &rest[..eq];
        if !valid_name(key) {
            return Err(format!("line {line_no}: bad label name {key:?}"));
        }
        rest = rest[eq + 1..]
            .strip_prefix('"')
            .ok_or_else(|| format!("line {line_no}: label value must be quoted"))?;
        // Scan the escaped value for its closing quote.
        let mut chars = rest.char_indices();
        let close = loop {
            match chars.next() {
                Some((_, '\\')) => {
                    match chars.next() {
                        Some((_, '\\' | '"' | 'n')) => {}
                        _ => return Err(format!("line {line_no}: bad escape in label value")),
                    };
                }
                Some((i, '"')) => break i,
                Some(_) => {}
                None => return Err(format!("line {line_no}: unterminated label value")),
            }
        };
        rest = &rest[close + 1..];
        rest = rest.strip_prefix(',').unwrap_or(rest);
    }
}

/// Validate a Prometheus text-exposition document: every line is a
/// comment, blank, `# TYPE`, or a well-formed sample whose family was
/// declared first; names match the Prometheus charset; label values
/// are properly quoted/escaped; values parse as numbers. Strictness is
/// deliberate — the renderer always declares types, so an undeclared
/// sample means renderer drift, not operator creativity.
pub fn validate(text: &str) -> Result<ExpoStats, String> {
    let mut stats = ExpoStats::default();
    for (i, line) in text.lines().enumerate() {
        let line_no = i + 1;
        let line = line.trim_end();
        if line.is_empty() {
            continue;
        }
        if let Some(decl) = line.strip_prefix("# TYPE ") {
            let mut it = decl.split_whitespace();
            let (Some(name), Some(kind), None) = (it.next(), it.next(), it.next()) else {
                return Err(format!("line {line_no}: malformed TYPE line"));
            };
            if !valid_name(name) {
                return Err(format!("line {line_no}: bad metric name {name:?}"));
            }
            if !["counter", "gauge", "summary", "histogram", "untyped"].contains(&kind) {
                return Err(format!("line {line_no}: unknown metric type {kind:?}"));
            }
            if stats.families.insert(name.to_string(), kind.to_string()).is_some() {
                return Err(format!("line {line_no}: duplicate TYPE for {name}"));
            }
            continue;
        }
        if line.starts_with('#') {
            continue; // HELP or free-form comment
        }
        let name_end = line
            .find(|c: char| c == '{' || c.is_ascii_whitespace())
            .ok_or_else(|| format!("line {line_no}: sample without value"))?;
        let name = &line[..name_end];
        if !valid_name(name) {
            return Err(format!("line {line_no}: bad metric name {name:?}"));
        }
        let family_declared = |n: &str| stats.families.contains_key(n);
        let summary_child = |n: &str, suffix: &str| {
            n.strip_suffix(suffix).is_some_and(|base| {
                matches!(stats.families.get(base).map(String::as_str), Some("summary" | "histogram"))
            })
        };
        if !family_declared(name) && !summary_child(name, "_sum") && !summary_child(name, "_count") {
            return Err(format!("line {line_no}: sample {name:?} precedes its TYPE declaration"));
        }
        let mut rest = &line[name_end..];
        if rest.starts_with('{') {
            rest = parse_labels(rest, line_no)?;
        }
        let value = rest.trim();
        if value.is_empty() {
            return Err(format!("line {line_no}: sample without value"));
        }
        let numeric = value.parse::<f64>().is_ok()
            || ["+Inf", "-Inf", "NaN"].contains(&value);
        if !numeric {
            return Err(format!("line {line_no}: bad sample value {value:?}"));
        }
        stats.samples += 1;
    }
    if stats.samples == 0 {
        return Err("no samples in document".to_string());
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{Histogram, Registry};

    fn sample_snapshot() -> MetricsSnapshot {
        let r = Registry::new();
        r.counter("dpv.scoped.runs").add(3);
        r.counter("daemon.delta.committed").add(7);
        r.gauge("daemon.slo.commit_p99_us").set(1200);
        let h = r.histogram("daemon.delta.ms");
        for v in [2, 3, 5, 40] {
            h.record(v);
        }
        r.snapshot()
    }

    fn workers(snap: &MetricsSnapshot) -> Vec<WorkerSeries> {
        vec![
            WorkerSeries { id: 0, up: true, stale: false, snapshot: Some(snap.clone()) },
            WorkerSeries { id: 1, up: false, stale: true, snapshot: Some(snap.clone()) },
        ]
    }

    #[test]
    fn render_validates_and_covers_every_name() {
        let snap = sample_snapshot();
        let text = render(&snap, &workers(&snap));
        let stats = validate(&text).expect("renderer output validates");
        for name in snap.counters.keys().chain(snap.gauges.keys()).chain(snap.histograms.keys()) {
            assert!(
                stats.families.contains_key(&metric_name(name)),
                "{name} missing from exposition"
            );
        }
        // Worker-labeled series and liveness gauges are present.
        assert!(text.contains("s2_dpv_scoped_runs{worker=\"0\"} 3"), "{text}");
        assert!(text.contains("s2_worker_up{worker=\"1\"} 0"), "{text}");
        assert!(text.contains("s2_worker_stale{worker=\"1\"} 1"), "{text}");
        assert!(text.contains("s2_daemon_delta_ms{quantile=\"0.99\"}"), "{text}");
        assert!(text.contains("s2_daemon_delta_ms_count 4"), "{text}");
    }

    #[test]
    fn rendering_is_deterministic() {
        let snap = sample_snapshot();
        let a = render(&snap, &workers(&snap));
        let b = render(&snap, &workers(&snap));
        assert_eq!(a, b);
    }

    #[test]
    fn a_worker_without_snapshot_still_exports_liveness() {
        let snap = sample_snapshot();
        let ws = vec![WorkerSeries { id: 2, up: false, stale: false, snapshot: None }];
        let text = render(&snap, &ws);
        validate(&text).expect("valid");
        assert!(text.contains("s2_worker_up{worker=\"2\"} 0"));
        assert!(!text.contains("{worker=\"2\"} 3"));
    }

    #[test]
    fn label_values_are_escaped() {
        assert_eq!(escape_label_value("a\\b\"c\nd"), "a\\\\b\\\"c\\nd");
        // A snapshot whose *name* holds hostile characters sanitizes
        // into the metric name, never into a label.
        let mut s = MetricsSnapshot::default();
        s.counter("weird \"quoted\" name", 1);
        let text = render(&s, &[]);
        validate(&text).expect("sanitized name validates");
        assert!(text.contains("s2_weird__quoted__name 1"));
    }

    #[test]
    fn validator_rejects_malformed_documents() {
        assert!(validate("").is_err());
        assert!(validate("# TYPE x counter\n").is_err(), "no samples");
        assert!(validate("x 1\n").is_err(), "sample precedes TYPE");
        assert!(validate("# TYPE x counter\nx{l=\"v} 1\n").is_err(), "unterminated label");
        assert!(validate("# TYPE x counter\nx notanumber\n").is_err());
        assert!(validate("# TYPE 0bad counter\n0bad 1\n").is_err());
        assert!(validate("# TYPE x counter\n# TYPE x gauge\nx 1\n").is_err(), "dup TYPE");
        assert!(validate("# TYPE x summary\nx_sum 3\nx_count 2\n").is_ok());
        assert!(validate("# TYPE x wat\nx 1\n").is_err());
    }

    #[test]
    fn summary_quantiles_come_from_the_histogram() {
        let h = Histogram::default();
        for _ in 0..100 {
            h.record(10);
        }
        let mut s = MetricsSnapshot::default();
        s.histograms.insert("lat".into(), h.snapshot());
        let text = render(&s, &[]);
        assert!(text.contains("s2_lat{quantile=\"0.5\"} 10"), "{text}");
        assert!(text.contains("s2_lat_sum 1000"), "{text}");
    }
}
