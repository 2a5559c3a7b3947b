//! The benchmark's own span recorder: one span around each call into a
//! layer, kept in memory and written out when the run ends.

use s2_obs::json::push_str;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval. `parent` indexes [`Recorder::spans`].
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// The op the span belongs to; spans of one op share it.
    pub op: u64,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// Records spans on the driver thread. Disabled (the untraced run) it
/// only runs the closure, so the end-to-end numbers carry no recorder.
pub struct Recorder {
    enabled: bool,
    origin: Instant,
    pub spans: Vec<Span>,
    stack: Vec<usize>,
    op: u64,
}

impl Recorder {
    pub fn new(enabled: bool) -> Self {
        Recorder {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Starts the next op; later spans carry its identifier.
    pub fn next_op(&mut self) {
        self.op += 1;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span called `name`, a child of the span open on
    /// this thread. Returns `f`'s value and the span's wall in ms (timed
    /// even when disabled: callers report it either way).
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> T) -> (T, f64) {
        if !self.enabled {
            let t = Instant::now();
            let out = f(self);
            return (out, t.elapsed().as_secs_f64() * 1e3);
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            op: self.op,
        });
        self.stack.push(id);
        let out = f(self);
        self.stack.pop();
        self.spans[id].end_ns = self.now_ns();
        let ms = self.spans[id].ms();
        (out, ms)
    }

    /// Adds children to the span that just closed from durations the
    /// callee reported about itself (`S2Report`'s phase timers), laid
    /// end to end from the parent's start. What they leave uncovered
    /// is the parent's self time: the part nobody accounts for.
    pub fn reported_children(&mut self, parent: usize, parts: &[(&'static str, f64)]) {
        if !self.enabled {
            return;
        }
        let (mut at, end, op) = {
            let p = &self.spans[parent];
            (p.start_ns, p.end_ns, p.op)
        };
        for &(name, ms) in parts {
            let stop = (at + (ms * 1e6) as u64).min(end);
            self.spans.push(Span {
                name,
                start_ns: at,
                end_ns: stop,
                parent: Some(parent),
                op,
            });
            at = stop;
        }
    }

    /// Index of the most recently opened span called `name`.
    pub fn last(&self, name: &str) -> Option<usize> {
        self.spans.iter().rposition(|s| s.name == name)
    }

    /// Walls (ms) of every span called `name`.
    pub fn walls(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect()
    }

    /// Sum over every span called `name` of `(wall, self time)`, ms.
    pub fn wall_and_self(&self, name: &str) -> (f64, f64) {
        let mut wall = 0.0;
        let mut own = 0.0;
        for (i, s) in self
            .spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
        {
            wall += s.ms();
            own += self_time_ns(&self.spans, i) as f64 / 1e6;
        }
        (wall, own)
    }

    /// The trace as one JSON document.
    pub fn to_json(&self, workload: &str) -> String {
        let mut out = String::from("{\"schema\":\"s2bench-trace/v1\",\"workload\":");
        push_str(&mut out, workload);
        out.push_str(",\"spans\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n{\"id\":");
            let _ = write!(out, "{i},\"name\":");
            push_str(&mut out, s.name);
            let _ = write!(
                out,
                ",\"start_ns\":{},\"end_ns\":{},\"parent\":",
                s.start_ns, s.end_ns
            );
            match s.parent {
                Some(p) => {
                    let _ = write!(out, "{p}");
                }
                None => out.push_str("null"),
            }
            let _ = write!(
                out,
                ",\"op\":{},\"self_ns\":{}}}",
                s.op,
                self_time_ns(&self.spans, i)
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

/// A span's duration minus the part of it its direct children cover
/// (overlapping children count once).
pub fn self_time_ns(spans: &[Span], i: usize) -> u64 {
    let s = &spans[i];
    let mut kids: Vec<(u64, u64)> = spans
        .iter()
        .filter(|c| c.parent == Some(i))
        .map(|c| (c.start_ns.max(s.start_ns), c.end_ns.min(s.end_ns)))
        .filter(|(a, b)| b > a)
        .collect();
    kids.sort_unstable();
    let mut covered = 0;
    let mut reach = s.start_ns;
    for (a, b) in kids {
        let a = a.max(reach);
        if b > a {
            covered += b - a;
            reach = b;
        }
    }
    (s.end_ns - s.start_ns) - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            op: 1,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("op", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 30, 60, Some(0)),       // overlaps a by 10
            span("c", 90, 120, Some(0)),      // clipped to the parent
            span("a.inner", 10, 20, Some(1)), // a grandchild does not count
        ];
        assert_eq!(self_time_ns(&spans, 0), 100 - 50 - 10);
        assert_eq!(self_time_ns(&spans, 1), 30 - 10);
        assert_eq!(self_time_ns(&spans, 2), 30);
    }

    #[test]
    fn recorder_nests_and_reports_children() {
        let mut rec = Recorder::new(true);
        rec.next_op();
        let ((), _) = rec.span("op", |rec| {
            rec.span("verify", |_| {
                std::thread::sleep(std::time::Duration::from_millis(4))
            });
        });
        let verify = rec.last("verify").unwrap();
        assert_eq!(rec.spans[verify].parent, rec.last("op"));
        rec.reported_children(verify, &[("cp", 1.0), ("fwd", 2.0)]);
        let (wall, own) = rec.wall_and_self("verify");
        assert!(
            wall >= 4.0 && (wall - own - 3.0).abs() < 1e-6,
            "{wall} {own}"
        );
        let doc = s2_obs::parse_json(&rec.to_json("t")).unwrap();
        assert_eq!(
            doc.get("spans").and_then(|s| s.as_arr()).map(<[_]>::len),
            Some(4)
        );
    }

    #[test]
    fn disabled_recorder_keeps_nothing() {
        let mut rec = Recorder::new(false);
        let (v, ms) = rec.span("op", |_| 7);
        assert_eq!(v, 7);
        assert!(ms >= 0.0 && rec.spans.is_empty());
    }
}
