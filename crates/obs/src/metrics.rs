//! The metrics registry: typed counters, gauges, and log-bucketed
//! histograms with an allocation-free hot path, plus the
//! [`MetricsSnapshot`] merge/encode layer that ships per-worker values
//! over the control protocol and aggregates them at the controller.
//!
//! Naming scheme: `<subsystem>.<thing>[.<aspect>]`, e.g.
//! `bdd.unique.hits`, `tcp.reconnects`, `pool.tasks_claimed`,
//! `mem.peak_bytes`. Counters sum across workers, gauges take the
//! maximum (they record high-water marks), histogram buckets add.

use crate::json::{self, Json};
use crate::lock;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Schema identifier embedded in every encoded snapshot.
pub const SCHEMA: &str = "s2-metrics/v1";

/// Number of histogram buckets: bucket `i` holds values whose bit
/// length is `i` (bucket 0 is exactly zero), so any `u64` lands in
/// `[0, 64]`.
pub const HIST_BUCKETS: usize = 65;

/// A monotonically increasing sum. Cross-worker merge: addition.
#[derive(Debug, Default)]
pub struct Counter {
    v: AtomicU64,
}

impl Counter {
    /// Add one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.v.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.v.load(Ordering::Relaxed)
    }
}

/// A high-water mark. Cross-worker merge: maximum.
#[derive(Debug, Default)]
pub struct Gauge {
    v: AtomicU64,
}

impl Gauge {
    /// Overwrite the value.
    pub fn set(&self, n: u64) {
        self.v.store(n, Ordering::Relaxed);
    }

    /// Raise the value to at least `n`.
    pub fn record_max(&self, n: u64) {
        self.v.fetch_max(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.v.load(Ordering::Relaxed)
    }
}

/// A log2-bucketed histogram over `u64` samples. The bucket array is
/// fixed at construction; recording is two relaxed atomic adds and
/// never allocates.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HIST_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }
}

/// The bucket index a sample lands in: its bit length.
fn bucket_of(v: u64) -> usize {
    (u64::BITS - v.leading_zeros()) as usize
}

impl Histogram {
    /// Record one sample.
    pub fn record(&self, v: u64) {
        self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// An immutable copy of the current state.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = Vec::new();
        for (i, b) in self.buckets.iter().enumerate() {
            let n = b.load(Ordering::Relaxed);
            if n > 0 {
                buckets.push((i as u32, n));
            }
        }
        let count = self.count.load(Ordering::Relaxed);
        HistogramSnapshot {
            count,
            sum: self.sum.load(Ordering::Relaxed),
            // The sentinel min (u64::MAX when nothing was recorded)
            // must not leak into snapshots: an empty histogram reads
            // as min = max = 0.
            min: if count == 0 { 0 } else { self.min.load(Ordering::Relaxed) },
            max: self.max.load(Ordering::Relaxed),
            buckets,
        }
    }
}

/// Frozen histogram state: total count/sum plus the non-empty buckets
/// as `(bucket_index, count)` pairs sorted by index.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Number of recorded samples.
    pub count: u64,
    /// Sum of recorded samples.
    pub sum: u64,
    /// Smallest recorded sample (0 when `count == 0`).
    pub min: u64,
    /// Largest recorded sample (0 when `count == 0`).
    pub max: u64,
    /// Non-empty buckets, ascending by index. Bucket `i` covers values
    /// of bit length `i` (`[2^(i-1), 2^i)`; bucket 0 is exactly zero).
    pub buckets: Vec<(u32, u64)>,
}

/// Smallest value bucket `i` can hold.
fn bucket_lo(i: u32) -> u64 {
    if i == 0 { 0 } else { 1u64 << (i - 1) }
}

/// Largest value bucket `i` can hold.
fn bucket_hi(i: u32) -> u64 {
    if i == 0 {
        0
    } else if i >= 64 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

impl HistogramSnapshot {
    /// Bucket-wise addition of `other` into `self`, preserving the
    /// true min/max of the union (a plain `min()` would let an empty
    /// side's 0 clobber the real minimum).
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        if other.count > 0 {
            self.min = if self.count == 0 { other.min } else { self.min.min(other.min) };
            self.max = self.max.max(other.max);
        }
        self.count += other.count;
        self.sum += other.sum;
        let mut merged: BTreeMap<u32, u64> = self.buckets.iter().copied().collect();
        for &(i, n) in &other.buckets {
            *merged.entry(i).or_insert(0) += n;
        }
        self.buckets = merged.into_iter().collect();
    }

    /// The `q`-quantile (`q` in `[0, 1]`) estimated from the log2
    /// buckets: walk the cumulative counts to the bucket holding the
    /// rank, take the bucket midpoint, and clamp into `[min, max]` so
    /// degenerate shapes (one sample, one bucket) return exact values
    /// instead of bucket-resolution artifacts. Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        // The extremes are tracked exactly; don't pay bucket
        // resolution for them.
        if q == 0.0 {
            return self.min;
        }
        if q == 1.0 {
            return self.max;
        }
        // Rank in [1, count]: the smallest value with at least q·count
        // samples at or below it (the "nearest-rank" definition).
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for &(i, n) in &self.buckets {
            seen = seen.saturating_add(n);
            if seen >= rank {
                let lo = bucket_lo(i);
                let hi = bucket_hi(i);
                let mid = lo + (hi - lo) / 2;
                return mid.clamp(self.min, self.max);
            }
        }
        // Bucket counts disagreeing with `count` only happens on
        // hand-assembled snapshots; fall back to the recorded maximum.
        self.max
    }
}

/// A named family of metrics. Lookups take a lock and may allocate;
/// callers cache the returned `Arc` so the recording hot path touches
/// only the atomic inside.
#[derive(Debug, Default)]
pub struct Registry {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<String, Arc<Gauge>>>,
    hists: Mutex<BTreeMap<String, Arc<Histogram>>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The process-wide registry instrumentation records into.
    pub fn global() -> &'static Registry {
        static GLOBAL: OnceLock<Registry> = OnceLock::new();
        GLOBAL.get_or_init(Registry::new)
    }

    /// The counter named `name`, created on first use.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        Arc::clone(lock(&self.counters).entry(name.to_string()).or_default())
    }

    /// The gauge named `name`, created on first use.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        Arc::clone(lock(&self.gauges).entry(name.to_string()).or_default())
    }

    /// The histogram named `name`, created on first use.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        Arc::clone(lock(&self.hists).entry(name.to_string()).or_default())
    }

    /// The value of counter `name`, zero if absent (and it stays absent).
    pub fn counter_value(&self, name: &str) -> u64 {
        lock(&self.counters).get(name).map_or(0, |c| c.get())
    }

    /// Freeze every metric into a snapshot.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: lock(&self.counters).iter().map(|(k, v)| (k.clone(), v.get())).collect(),
            gauges: lock(&self.gauges).iter().map(|(k, v)| (k.clone(), v.get())).collect(),
            histograms: lock(&self.hists)
                .iter()
                .map(|(k, v)| (k.clone(), v.snapshot()))
                .collect(),
        }
    }
}

/// A frozen, mergeable, JSON-serializable view of a registry (or of
/// hand-assembled values bridged from legacy stats structs).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Counter values by name. Merge: sum.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name. Merge: max.
    pub gauges: BTreeMap<String, u64>,
    /// Histogram states by name. Merge: bucket-wise add.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// Set a counter value (bridging helper for legacy stats structs).
    pub fn counter(&mut self, name: &str, v: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += v;
    }

    /// Raise a gauge to at least `v`.
    pub fn gauge_max(&mut self, name: &str, v: u64) {
        let g = self.gauges.entry(name.to_string()).or_insert(0);
        *g = (*g).max(v);
    }

    /// The value of counter `name`, zero if absent.
    pub fn counter_value(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// The value of gauge `name`, zero if absent.
    pub fn gauge_value(&self, name: &str) -> u64 {
        self.gauges.get(name).copied().unwrap_or(0)
    }

    /// Merge `other` into `self`: counters sum, gauges max, histogram
    /// buckets add. Commutative and associative, so the controller can
    /// fold worker snapshots in any order.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, v) in &other.gauges {
            let g = self.gauges.entry(k.clone()).or_insert(0);
            *g = (*g).max(*v);
        }
        for (k, h) in &other.histograms {
            self.histograms.entry(k.clone()).or_default().merge(h);
        }
    }

    /// Deterministic JSON encoding: BTreeMap key order, integer
    /// values. Equal snapshots produce byte-identical output.
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut o = String::new();
        o.push_str("{\n");
        let _ = writeln!(o, "  \"schema\": \"{SCHEMA}\",");
        o.push_str("  \"counters\": {");
        push_u64_map(&mut o, &self.counters);
        o.push_str("},\n  \"gauges\": {");
        push_u64_map(&mut o, &self.gauges);
        o.push_str("},\n  \"histograms\": {");
        for (i, (k, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                o.push(',');
            }
            o.push_str("\n    ");
            json::push_str(&mut o, k);
            let _ = write!(
                o,
                ": {{ \"count\": {}, \"sum\": {}, \"min\": {}, \"max\": {}, \"buckets\": [",
                h.count, h.sum, h.min, h.max
            );
            for (j, (b, n)) in h.buckets.iter().enumerate() {
                if j > 0 {
                    o.push_str(", ");
                }
                let _ = write!(o, "[{b}, {n}]");
            }
            o.push_str("] }");
        }
        if !self.histograms.is_empty() {
            o.push_str("\n  ");
        }
        o.push_str("}\n}\n");
        o
    }

    /// Decode a snapshot previously produced by [`Self::to_json`].
    pub fn from_json(text: &str) -> Result<Self, String> {
        let doc = json::parse_json(text)?;
        if doc.get("schema").and_then(Json::as_str) != Some(SCHEMA) {
            return Err(format!("schema key missing or not '{SCHEMA}'"));
        }
        let counters = u64_map(&doc, "counters")?;
        let gauges = u64_map(&doc, "gauges")?;
        let Some(Json::Obj(raw_hists)) = doc.get("histograms") else {
            return Err("missing 'histograms' object".to_string());
        };
        let mut histograms = BTreeMap::new();
        for (name, h) in raw_hists {
            let path = format!("histograms.{name}");
            let count = field_u64(h, "count", &path)?;
            let sum = field_u64(h, "sum", &path)?;
            let raw = h
                .get("buckets")
                .and_then(Json::as_arr)
                .ok_or_else(|| format!("{name}: missing buckets"))?;
            let mut buckets = Vec::with_capacity(raw.len());
            for pair in raw {
                let pair = pair.as_arr().ok_or_else(|| format!("{name}: bad bucket pair"))?;
                let (Some(b), Some(n)) = (
                    pair.first().and_then(Json::as_num),
                    pair.get(1).and_then(Json::as_num),
                ) else {
                    return Err(format!("{name}: bad bucket pair"));
                };
                let bpath = format!("histograms.{name}.buckets");
                buckets.push((
                    checked_u64(b, &bpath)? as u32,
                    checked_u64(n, &bpath)?,
                ));
            }
            // min/max joined the schema after v1 shipped; tolerate
            // their absence (older encoders) by deriving conservative
            // bounds from the bucket envelope.
            let derived_min = buckets.first().map_or(0, |&(b, _)| bucket_lo(b));
            let derived_max = buckets.last().map_or(0, |&(b, _)| bucket_hi(b));
            let min = match h.get("min") {
                Some(v) => {
                    let n = v.as_num().ok_or_else(|| format!("{path}.min: not a number"))?;
                    checked_u64(n, &format!("{path}.min"))?
                }
                None => derived_min,
            };
            let max = match h.get("max") {
                Some(v) => {
                    let n = v.as_num().ok_or_else(|| format!("{path}.max: not a number"))?;
                    checked_u64(n, &format!("{path}.max"))?
                }
                None => derived_max,
            };
            histograms.insert(
                name.clone(),
                HistogramSnapshot {
                    count,
                    sum,
                    min,
                    max,
                    buckets,
                },
            );
        }
        Ok(MetricsSnapshot {
            counters,
            gauges,
            histograms,
        })
    }
}

fn push_u64_map(o: &mut String, m: &BTreeMap<String, u64>) {
    use std::fmt::Write as _;
    for (i, (k, v)) in m.iter().enumerate() {
        if i > 0 {
            o.push(',');
        }
        o.push_str("\n    ");
        json::push_str(o, k);
        let _ = write!(o, ": {v}");
    }
    if !m.is_empty() {
        o.push_str("\n  ");
    }
}

fn u64_map(doc: &Json, key: &str) -> Result<BTreeMap<String, u64>, String> {
    let Some(Json::Obj(fields)) = doc.get(key) else {
        return Err(format!("missing '{key}' object"));
    };
    let mut out = BTreeMap::new();
    for (k, v) in fields {
        let n = v.as_num().ok_or_else(|| format!("{key}.{k}: not a number"))?;
        out.insert(k.clone(), checked_u64(n, &format!("{key}.{k}"))?);
    }
    Ok(out)
}

/// Counts and durations are unsigned: a NaN or negative value would be
/// silently cast to garbage, so name the offending key path instead.
fn checked_u64(n: f64, path: &str) -> Result<u64, String> {
    if !n.is_finite() {
        return Err(format!("{path}: non-finite value"));
    }
    if n < 0.0 {
        return Err(format!("{path}: negative value ({n})"));
    }
    Ok(n as u64)
}

fn field_u64(v: &Json, key: &str, path: &str) -> Result<u64, String> {
    let n = v
        .get(key)
        .and_then(Json::as_num)
        .ok_or_else(|| format!("{path}.{key}: missing or not a number"))?;
    checked_u64(n, &format!("{path}.{key}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A read agrees with the snapshot and leaves an absent counter
    /// absent, so reading does not change what a scrape shows.
    #[test]
    fn counter_value_reads_without_creating() {
        let reg = Registry::new();
        reg.counter("a").add(3);
        assert_eq!(reg.counter_value("a"), 3);
        assert_eq!(reg.counter_value("b"), 0);
        let snap = reg.snapshot();
        assert_eq!(snap.counters.keys().collect::<Vec<_>>(), ["a"]);
        assert_eq!(snap.counter_value("a"), reg.counter_value("a"));
    }

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), 64);
    }

    #[test]
    fn histogram_records_without_allocating_new_buckets() {
        let h = Histogram::default();
        for v in [0, 1, 2, 3, 1000, u64::MAX] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 6);
        assert!(s.buckets.iter().all(|&(i, _)| (i as usize) < HIST_BUCKETS));
        assert_eq!(s.buckets.iter().map(|&(_, n)| n).sum::<u64>(), 6);
    }

    #[test]
    fn quantile_of_empty_histogram_is_zero() {
        let s = HistogramSnapshot::default();
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(s.quantile(q), 0);
        }
    }

    #[test]
    fn quantile_of_single_bucket_clamps_to_exact_value() {
        // All samples identical: every quantile must return the value
        // itself, not the bucket midpoint.
        let h = Histogram::default();
        for _ in 0..10 {
            h.record(1000);
        }
        let s = h.snapshot();
        assert_eq!((s.min, s.max), (1000, 1000));
        for q in [0.0, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(s.quantile(q), 1000, "q={q}");
        }
    }

    #[test]
    fn quantile_of_saturated_top_bucket() {
        // u64::MAX lands in bucket 64 whose midpoint math must not
        // overflow, and the result must clamp to the recorded max.
        let h = Histogram::default();
        h.record(u64::MAX);
        h.record(u64::MAX - 1);
        let s = h.snapshot();
        assert_eq!(s.quantile(1.0), u64::MAX);
        assert!(s.quantile(0.5) >= s.min);
        assert!(s.quantile(0.5) <= s.max);
    }

    #[test]
    fn quantile_walks_cumulative_buckets() {
        let h = Histogram::default();
        for _ in 0..90 {
            h.record(4); // bucket 3
        }
        for _ in 0..10 {
            h.record(1 << 20); // far tail
        }
        let s = h.snapshot();
        // p50 lives in the dense low bucket, p99 in the tail.
        assert!(s.quantile(0.5) <= 7, "p50 = {}", s.quantile(0.5));
        assert!(s.quantile(0.99) >= 1 << 19, "p99 = {}", s.quantile(0.99));
        assert_eq!(s.quantile(1.0), 1 << 20);
        assert_eq!(s.quantile(0.0), 4);
    }

    #[test]
    fn merge_preserves_min_max_across_workers() {
        let a_h = Histogram::default();
        a_h.record(100);
        a_h.record(200);
        let b_h = Histogram::default();
        b_h.record(3);
        b_h.record(5000);
        let mut a = a_h.snapshot();
        let b = b_h.snapshot();
        a.merge(&b);
        assert_eq!((a.min, a.max), (3, 5000));
        assert_eq!(a.count, 4);

        // Merging an empty side must not clobber min with 0.
        let mut c = a.clone();
        c.merge(&HistogramSnapshot::default());
        assert_eq!((c.min, c.max), (3, 5000));
        // ... and merging into an empty side adopts the other's bounds.
        let mut d = HistogramSnapshot::default();
        d.merge(&a);
        assert_eq!((d.min, d.max), (3, 5000));
    }

    #[test]
    fn min_max_survive_json_and_old_encodings_derive_bounds() {
        let r = Registry::new();
        r.histogram("lat").record(7);
        r.histogram("lat").record(90_000);
        let snap = r.snapshot();
        let back = MetricsSnapshot::from_json(&snap.to_json()).unwrap();
        let lat = &back.histograms["lat"];
        assert_eq!((lat.min, lat.max), (7, 90_000));

        // A pre-min/max document still decodes, with bucket-envelope
        // bounds substituted.
        let old = "{\"schema\": \"s2-metrics/v1\", \"counters\": {}, \"gauges\": {}, \
                   \"histograms\": {\"lat\": {\"count\": 1, \"sum\": 6, \"buckets\": [[3, 1]]}}}";
        let back = MetricsSnapshot::from_json(old).unwrap();
        let lat = &back.histograms["lat"];
        assert_eq!((lat.min, lat.max), (4, 7));
    }

    #[test]
    fn registry_snapshot_and_merge() {
        let r = Registry::new();
        r.counter("bdd.unique.hits").add(10);
        r.counter("bdd.unique.hits").add(5);
        r.gauge("mem.peak_bytes").record_max(100);
        r.gauge("mem.peak_bytes").record_max(50);
        r.histogram("tcp.frame_bytes").record(256);

        let mut a = r.snapshot();
        assert_eq!(a.counter_value("bdd.unique.hits"), 15);
        assert_eq!(a.gauge_value("mem.peak_bytes"), 100);

        let mut b = MetricsSnapshot::default();
        b.counter("bdd.unique.hits", 7);
        b.gauge_max("mem.peak_bytes", 300);
        a.merge(&b);
        assert_eq!(a.counter_value("bdd.unique.hits"), 22);
        assert_eq!(a.gauge_value("mem.peak_bytes"), 300);
    }

    #[test]
    fn json_roundtrip_is_exact_and_deterministic() {
        let r = Registry::new();
        r.counter("z.last").inc();
        r.counter("a.first").add(3);
        r.gauge("g").set(9);
        r.histogram("h").record(5);
        r.histogram("h").record(0);
        let snap = r.snapshot();
        let text = snap.to_json();
        let back = MetricsSnapshot::from_json(&text).expect("own output decodes");
        assert_eq!(back, snap);
        assert_eq!(back.to_json(), text);
        // BTreeMap ordering: "a.first" precedes "z.last" in the bytes.
        let a = text.find("a.first").unwrap();
        let z = text.find("z.last").unwrap();
        assert!(a < z);
    }

    #[test]
    fn empty_snapshot_roundtrips() {
        let snap = MetricsSnapshot::default();
        let back = MetricsSnapshot::from_json(&snap.to_json()).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn nan_and_negative_values_rejected_with_key_path() {
        let mk = |counters: &str, hist: &str| {
            format!(
                "{{\"schema\": \"s2-metrics/v1\", \"counters\": {{{counters}}}, \
                 \"gauges\": {{}}, \"histograms\": {{{hist}}}}}"
            )
        };
        let err = MetricsSnapshot::from_json(&mk("\"cp.rounds\": -3", "")).unwrap_err();
        assert!(err.contains("counters.cp.rounds"), "{err}");
        assert!(err.contains("negative"), "{err}");

        let err = MetricsSnapshot::from_json(&mk("\"x\": 1e999", "")).unwrap_err();
        assert!(err.contains("counters.x"), "{err}");
        assert!(err.contains("non-finite"), "{err}");

        let err = MetricsSnapshot::from_json(&mk(
            "",
            "\"lat\": {\"count\": -1, \"sum\": 0, \"buckets\": []}",
        ))
        .unwrap_err();
        assert!(err.contains("histograms.lat.count"), "{err}");

        let err = MetricsSnapshot::from_json(&mk(
            "",
            "\"lat\": {\"count\": 1, \"sum\": 2, \"buckets\": [[0, -7]]}",
        ))
        .unwrap_err();
        assert!(err.contains("histograms.lat.buckets"), "{err}");

        // Sane docs still parse.
        assert!(MetricsSnapshot::from_json(&mk("\"ok\": 3", "")).is_ok());
    }
}
