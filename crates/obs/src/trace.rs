//! The structured tracing core: interned span names, a per-thread lane
//! and span-depth, a bounded global event sink, and a Chrome
//! `trace_event` exporter (open the output in `chrome://tracing` or
//! [Perfetto](https://ui.perfetto.dev)).
//!
//! Everything here is compiled only with the `obs` feature; without it
//! the [`span!`](crate::span) / [`event!`](crate::event) macros expand
//! to nothing and none of these symbols exist. With the feature on but
//! tracing not [`enabled`], each instrumentation point costs one
//! relaxed atomic load.

#[cfg(feature = "obs")]
mod imp {
    use crate::json;
    use crate::lock;
    use crate::recorder;
    use crate::time;
    use std::cell::Cell;
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::Mutex;

    /// Event kind: a completed span with a duration.
    pub const KIND_SPAN: u8 = 0;
    /// Event kind: an instantaneous point event.
    pub const KIND_INSTANT: u8 = 1;

    /// Cap on buffered events; beyond it new events are counted in
    /// `dropped` instead of growing the sink without bound.
    const SINK_CAP: usize = 1 << 21;

    /// One trace event. `name` indexes the intern table; `lane` is the
    /// logical thread (0 = controller, `n + 1` = worker `n`); `depth`
    /// is the span-stack depth at emission. `span`/`parent` stitch the
    /// causal tree: every span gets a process-unique id, and `parent`
    /// is the span that was open — on this thread, or adopted from a
    /// propagated trace context — when the event began (0 = root).
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct Event {
        /// Interned name id (see [`name_of`]).
        pub name: u16,
        /// [`KIND_SPAN`] or [`KIND_INSTANT`].
        pub kind: u8,
        /// Logical thread lane.
        pub lane: u16,
        /// Span-stack depth when the event was emitted.
        pub depth: u16,
        /// Start timestamp, nanoseconds since the process anchor.
        pub ts_ns: u64,
        /// Duration in nanoseconds (zero for instants).
        pub dur_ns: u64,
        /// One free-form numeric argument.
        pub arg: u64,
        /// This span's id (0 for instants).
        pub span: u64,
        /// The causally enclosing span's id (0 = root).
        pub parent: u64,
    }

    impl Event {
        /// Pack into six words for the flight-recorder ring.
        pub fn pack(&self) -> [u64; 6] {
            let meta = u64::from(self.name)
                | (u64::from(self.kind) << 16)
                | (u64::from(self.lane) << 24)
                | (u64::from(self.depth) << 40);
            [self.ts_ns, self.dur_ns, self.arg, meta, self.span, self.parent]
        }

        /// Inverse of [`Event::pack`].
        pub fn unpack(w: [u64; 6]) -> Event {
            Event {
                name: (w[3] & 0xffff) as u16,
                kind: ((w[3] >> 16) & 0xff) as u8,
                lane: ((w[3] >> 24) & 0xffff) as u16,
                depth: ((w[3] >> 40) & 0xffff) as u16,
                ts_ns: w[0],
                dur_ns: w[1],
                arg: w[2],
                span: w[4],
                parent: w[5],
            }
        }
    }

    static ENABLED: AtomicBool = AtomicBool::new(false);
    static DROPPED: AtomicU64 = AtomicU64::new(0);
    static NAMES: Mutex<Vec<&'static str>> = Mutex::new(Vec::new());
    static SINK: Mutex<Vec<Event>> = Mutex::new(Vec::new());

    /// Span-id allocation: a per-process counter in the low 48 bits,
    /// an id-space tag in the high 16. The controller process keeps
    /// tag 0; a remote worker process is tagged with `worker + 1`
    /// (see [`set_id_space`]) so ids allocated on both sides of the
    /// control protocol never collide when traces are stitched.
    static NEXT_SPAN: AtomicU64 = AtomicU64::new(1);
    static ID_SPACE: AtomicU64 = AtomicU64::new(0);
    /// Trace epoch: bumped on recovery/restart boundaries so a stale
    /// propagated context (from before the bump) is not adopted as a
    /// parent afterwards.
    static EPOCH: AtomicU64 = AtomicU64::new(1);
    /// The last published trace context, read by in-process worker
    /// threads at command-dispatch time (see [`publish_ctx`]).
    static PUB_EPOCH: AtomicU64 = AtomicU64::new(0);
    static PUB_PARENT: AtomicU64 = AtomicU64::new(0);

    thread_local! {
        static LANE: Cell<u16> = const { Cell::new(0) };
        static DEPTH: Cell<u16> = const { Cell::new(0) };
        /// Innermost open span on this thread (0 = none).
        static CURRENT: Cell<u64> = const { Cell::new(0) };
        /// Parent adopted from a propagated cross-thread/cross-process
        /// context; used when no local span is open.
        static ADOPTED: Cell<u64> = const { Cell::new(0) };
    }

    /// Whether tracing is on. The disabled fast path of every
    /// instrumentation point is exactly this load.
    #[inline]
    pub fn enabled() -> bool {
        ENABLED.load(Ordering::Relaxed)
    }

    /// Turn tracing on or off process-wide.
    pub fn set_enabled(on: bool) {
        ENABLED.store(on, Ordering::Relaxed);
    }

    /// Intern a span/event name, returning its stable id. Called once
    /// per call site (cached in a `OnceLock` by the macros).
    pub fn intern(name: &'static str) -> u16 {
        let mut names = lock(&NAMES);
        if let Some(i) = names.iter().position(|&n| n == name) {
            return i as u16;
        }
        let id = names.len().min(u16::MAX as usize) as u16;
        if (id as usize) == names.len() {
            names.push(name);
        }
        id
    }

    /// The name behind an interned id.
    pub fn name_of(id: u16) -> &'static str {
        lock(&NAMES).get(id as usize).copied().unwrap_or("?")
    }

    /// Intern a name that is not a compile-time literal (event batches
    /// shipped from a remote worker arrive as strings). Reuses an
    /// existing entry when the spelling matches, so the leak is
    /// bounded by the number of *distinct* span names in the fleet.
    pub fn intern_owned(name: &str) -> u16 {
        if let Some(i) = lock(&NAMES).iter().position(|&n| n == name) {
            return i as u16;
        }
        intern(Box::leak(name.to_string().into_boxed_str()))
    }

    /// Bind this process to a span-id space (`worker + 1` for a remote
    /// worker process; the controller keeps the default 0) so ids from
    /// different processes never collide in a stitched trace.
    pub fn set_id_space(tag: u16) {
        ID_SPACE.store(u64::from(tag) << 48, Ordering::Relaxed);
    }

    fn next_span_id() -> u64 {
        ID_SPACE.load(Ordering::Relaxed)
            | (NEXT_SPAN.fetch_add(1, Ordering::Relaxed) & ((1u64 << 48) - 1))
    }

    /// The current trace epoch.
    pub fn epoch() -> u64 {
        EPOCH.load(Ordering::Relaxed)
    }

    /// Advance the trace epoch (recovery / restart boundary): contexts
    /// published or shipped under the old epoch stop being adopted.
    pub fn bump_epoch() {
        EPOCH.fetch_add(1, Ordering::Relaxed);
    }

    /// Fast-forward this process's epoch to a propagated one (remote
    /// worker processes follow the controller's epoch through the
    /// trace contexts attached to protocol commands). The epoch only
    /// ever moves forward, so a reordered stale context cannot rewind
    /// it — it simply fails the [`adopt`] equality check.
    pub fn sync_epoch(e: u64) {
        EPOCH.fetch_max(e, Ordering::Relaxed);
    }

    /// The innermost span causally active on this thread: the local
    /// open span if any, else the adopted cross-thread/process parent.
    pub fn current_span() -> u64 {
        let cur = CURRENT.with(Cell::get);
        if cur != 0 {
            cur
        } else {
            ADOPTED.with(Cell::get)
        }
    }

    /// Publish this thread's `(epoch, current span)` as the fleet
    /// trace context. The controller calls this before dispatching
    /// commands; worker threads adopt it via [`adopt_published`].
    pub fn publish_ctx() {
        PUB_PARENT.store(current_span(), Ordering::Relaxed);
        PUB_EPOCH.store(epoch(), Ordering::Release);
    }

    /// The last published `(epoch, parent)` context — what a remote
    /// proxy attaches to outgoing protocol commands.
    pub fn published_ctx() -> (u64, u64) {
        let e = PUB_EPOCH.load(Ordering::Acquire);
        (e, PUB_PARENT.load(Ordering::Relaxed))
    }

    /// Adopt a propagated trace context as this thread's parent for
    /// spans opened outside any local span. A context from another
    /// epoch is stale (pre-recovery) and clears the adoption instead.
    pub fn adopt(ctx_epoch: u64, parent: u64) {
        let parent = if ctx_epoch == epoch() { parent } else { 0 };
        ADOPTED.with(|a| a.set(parent));
    }

    /// Adopt the last published context (in-process worker threads, at
    /// command dispatch).
    pub fn adopt_published() {
        let (e, p) = published_ctx();
        adopt(e, p);
    }

    /// Bind this thread to a logical lane (0 = controller, `n + 1` =
    /// worker `n`). Worker threads call this once at spawn.
    pub fn set_lane(lane: u16) {
        LANE.with(|l| l.set(lane));
    }

    /// This thread's lane.
    pub fn lane() -> u16 {
        LANE.with(Cell::get)
    }

    /// Record an event into the sink and the flight-recorder ring.
    pub fn record(e: Event) {
        recorder::push(e);
        let mut sink = lock(&SINK);
        if sink.len() < SINK_CAP {
            sink.push(e);
        } else {
            DROPPED.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Emit an instant event.
    pub fn instant(name: u16, arg: u64) {
        record(Event {
            name,
            kind: KIND_INSTANT,
            lane: lane(),
            depth: DEPTH.with(Cell::get),
            ts_ns: time::now_ns(),
            dur_ns: 0,
            arg,
            span: 0,
            parent: current_span(),
        });
    }

    /// Drain all buffered events, in emission order per lane.
    pub fn take_events() -> Vec<Event> {
        std::mem::take(&mut *lock(&SINK))
    }

    /// Events dropped because the sink was full.
    pub fn dropped() -> u64 {
        DROPPED.load(Ordering::Relaxed)
    }

    /// An RAII guard that records a [`KIND_SPAN`] event when dropped.
    /// Constructed by the [`span!`](crate::span) macro.
    #[derive(Debug)]
    pub struct SpanGuard {
        name: u16,
        lane: u16,
        depth: u16,
        start_ns: u64,
        arg: u64,
        span: u64,
        parent: u64,
        /// The previously open span, restored on drop.
        prev: u64,
    }

    impl SpanGuard {
        /// Open a span now on this thread.
        pub fn enter(name: u16, arg: u64) -> SpanGuard {
            let depth = DEPTH.with(|d| {
                let v = d.get();
                d.set(v.saturating_add(1));
                v
            });
            let parent = current_span();
            let span = next_span_id();
            let prev = CURRENT.with(|c| c.replace(span));
            SpanGuard {
                name,
                lane: lane(),
                depth,
                start_ns: time::now_ns(),
                arg,
                span,
                parent,
                prev,
            }
        }

        /// This span's id (to parent work dispatched elsewhere).
        pub fn id(&self) -> u64 {
            self.span
        }
    }

    impl Drop for SpanGuard {
        fn drop(&mut self) {
            DEPTH.with(|d| d.set(d.get().saturating_sub(1)));
            CURRENT.with(|c| c.set(self.prev));
            let now = time::now_ns();
            record(Event {
                name: self.name,
                kind: KIND_SPAN,
                lane: self.lane,
                depth: self.depth,
                ts_ns: self.start_ns,
                dur_ns: now.saturating_sub(self.start_ns),
                arg: self.arg,
                span: self.span,
                parent: self.parent,
            });
        }
    }

    /// Render events as a Chrome `trace_event` JSON document
    /// (`{"traceEvents": [...]}`): one `ph:"X"` complete event per
    /// span, `ph:"i"` per instant, plus `thread_name` metadata so
    /// Perfetto labels lanes "controller" / "worker-N". Every event's
    /// `args` carries its `span`/`parent` ids, and spans whose parent
    /// sits on a *different* lane additionally get a `ph:"s"`/`ph:"f"`
    /// flow pair so the stitched cross-process causality renders as
    /// arrows between lanes instead of disjoint timelines.
    pub fn export_chrome_trace(events: &[Event]) -> String {
        use std::fmt::Write as _;
        let mut lanes: Vec<u16> = events.iter().map(|e| e.lane).collect();
        lanes.sort_unstable();
        lanes.dedup();
        // Span id -> lane, for cross-lane flow detection.
        let span_lane: std::collections::BTreeMap<u64, u16> = events
            .iter()
            .filter(|e| e.span != 0)
            .map(|e| (e.span, e.lane))
            .collect();
        let mut o = String::new();
        o.push_str("{\"traceEvents\":[\n");
        let mut first = true;
        for lane in &lanes {
            if !first {
                o.push_str(",\n");
            }
            first = false;
            let label = if *lane == 0 {
                "controller".to_string()
            } else {
                format!("worker-{}", lane - 1)
            };
            let _ = write!(
                o,
                "{{\"ph\":\"M\",\"pid\":1,\"tid\":{lane},\"name\":\"thread_name\",\"args\":{{\"name\":"
            );
            json::push_str(&mut o, &label);
            o.push_str("}}");
        }
        for e in events {
            if !first {
                o.push_str(",\n");
            }
            first = false;
            o.push('{');
            o.push_str("\"name\":");
            json::push_str(&mut o, name_of(e.name));
            let ts_us = e.ts_ns as f64 / 1e3;
            match e.kind {
                KIND_SPAN => {
                    let dur_us = (e.dur_ns as f64 / 1e3).max(0.001);
                    let _ = write!(o, ",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":", e.lane);
                    json::push_f64(&mut o, ts_us);
                    o.push_str(",\"dur\":");
                    json::push_f64(&mut o, dur_us);
                }
                _ => {
                    let _ = write!(o, ",\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":{},\"ts\":", e.lane);
                    json::push_f64(&mut o, ts_us);
                }
            }
            let _ = write!(
                o,
                ",\"args\":{{\"arg\":{},\"depth\":{},\"span\":{},\"parent\":{}}}}}",
                e.arg, e.depth, e.span, e.parent
            );
            // A span causally parented on another lane: draw the
            // stitch as a flow arrow from the parent's lane to this
            // span's start. Both bind points share the child's
            // timestamp; Perfetto attaches them to the enclosing
            // slices.
            if e.kind == KIND_SPAN && e.parent != 0 {
                if let Some(&plane) = span_lane.get(&e.parent) {
                    if plane != e.lane {
                        let _ = write!(
                            o,
                            ",\n{{\"ph\":\"s\",\"cat\":\"stitch\",\"name\":\"stitch\",\
                             \"id\":{},\"pid\":1,\"tid\":{plane},\"ts\":",
                            e.span
                        );
                        json::push_f64(&mut o, ts_us);
                        let _ = write!(
                            o,
                            "}},\n{{\"ph\":\"f\",\"bp\":\"e\",\"cat\":\"stitch\",\
                             \"name\":\"stitch\",\"id\":{},\"pid\":1,\"tid\":{},\"ts\":",
                            e.span, e.lane
                        );
                        json::push_f64(&mut o, ts_us);
                        o.push('}');
                    }
                }
            }
        }
        o.push_str("\n]}\n");
        o
    }
}

#[cfg(feature = "obs")]
pub use imp::*;

#[cfg(not(feature = "obs"))]
mod noop {
    /// Event kind: a completed span with a duration.
    pub const KIND_SPAN: u8 = 0;
    /// Event kind: an instantaneous point event.
    pub const KIND_INSTANT: u8 = 1;

    /// Stub event type so obs-off callers can hold `Vec<Event>`
    /// unconditionally (the remote-protocol codec also decodes into
    /// it); nothing records or exports these without the feature.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct Event {
        /// Interned name id.
        pub name: u16,
        /// [`KIND_SPAN`] or [`KIND_INSTANT`].
        pub kind: u8,
        /// Logical thread lane.
        pub lane: u16,
        /// Span-stack depth when the event was emitted.
        pub depth: u16,
        /// Start timestamp, nanoseconds since the process anchor.
        pub ts_ns: u64,
        /// Duration in nanoseconds (zero for instants).
        pub dur_ns: u64,
        /// One free-form numeric argument.
        pub arg: u64,
        /// This span's id (0 for instants).
        pub span: u64,
        /// The causally enclosing span's id (0 = root).
        pub parent: u64,
    }

    /// Always false without the `obs` feature.
    #[inline]
    pub fn enabled() -> bool {
        false
    }

    /// No-op without the `obs` feature.
    pub fn set_id_space(_tag: u16) {}

    /// Always epoch 1 without the `obs` feature.
    pub fn epoch() -> u64 {
        1
    }

    /// No-op without the `obs` feature.
    pub fn bump_epoch() {}

    /// No-op without the `obs` feature.
    pub fn sync_epoch(_e: u64) {}

    /// Always 0 (no span) without the `obs` feature.
    pub fn current_span() -> u64 {
        0
    }

    /// No-op without the `obs` feature.
    pub fn publish_ctx() {}

    /// Always `(0, 0)` without the `obs` feature.
    pub fn published_ctx() -> (u64, u64) {
        (0, 0)
    }

    /// No-op without the `obs` feature.
    pub fn adopt(_ctx_epoch: u64, _parent: u64) {}

    /// No-op without the `obs` feature.
    pub fn adopt_published() {}

    /// Always id 0 without the `obs` feature (nothing records).
    pub fn intern_owned(_name: &str) -> u16 {
        0
    }

    /// Always `"?"` without the `obs` feature.
    pub fn name_of(_id: u16) -> &'static str {
        "?"
    }

    /// No-op without the `obs` feature (dropping imported events is
    /// fine: tracing can never be enabled without it).
    pub fn record(_e: Event) {}

    /// No-op without the `obs` feature.
    pub fn set_enabled(_on: bool) {}

    /// No-op without the `obs` feature.
    pub fn set_lane(_lane: u16) {}

    /// Always lane 0 without the `obs` feature.
    pub fn lane() -> u16 {
        0
    }

    /// Always empty without the `obs` feature.
    pub fn take_events() -> Vec<Event> {
        Vec::new()
    }

    /// Always zero without the `obs` feature.
    pub fn dropped() -> u64 {
        0
    }

    /// An empty Chrome `trace_event` document (there are never events
    /// to export without the `obs` feature).
    pub fn export_chrome_trace(_events: &[Event]) -> String {
        "{\"traceEvents\":[\n]}\n".to_string()
    }
}

#[cfg(not(feature = "obs"))]
pub use noop::*;

/// Open a span that closes (and records a complete event) when the
/// returned guard drops. `span!("name")` or `span!("name", arg)` where
/// `arg` is any expression convertible to `u64` with `as`. Expands to
/// nothing without the `obs` feature.
#[cfg(feature = "obs")]
#[macro_export]
macro_rules! span {
    ($name:literal) => {
        $crate::span!($name, 0u64)
    };
    ($name:literal, $arg:expr) => {
        if $crate::trace::enabled() {
            static __S2_OBS_NAME: ::std::sync::OnceLock<u16> = ::std::sync::OnceLock::new();
            let __id = *__S2_OBS_NAME.get_or_init(|| $crate::trace::intern($name));
            ::core::option::Option::Some($crate::trace::SpanGuard::enter(__id, ($arg) as u64))
        } else {
            ::core::option::Option::None
        }
    };
}

/// Record an instantaneous event. `event!("name")` or
/// `event!("name", arg)`. Expands to nothing without the `obs`
/// feature.
#[cfg(feature = "obs")]
#[macro_export]
macro_rules! event {
    ($name:literal) => {
        $crate::event!($name, 0u64)
    };
    ($name:literal, $arg:expr) => {
        if $crate::trace::enabled() {
            static __S2_OBS_NAME: ::std::sync::OnceLock<u16> = ::std::sync::OnceLock::new();
            let __id = *__S2_OBS_NAME.get_or_init(|| $crate::trace::intern($name));
            $crate::trace::instant(__id, ($arg) as u64);
        }
    };
}

/// No-op `span!`: the tokens (including the name literal) are
/// discarded at expansion, so they never reach the binary.
#[cfg(not(feature = "obs"))]
#[macro_export]
macro_rules! span {
    ($name:literal $(, $arg:expr)?) => {
        ()
    };
}

/// No-op `event!` (see [`span!`](crate::span)).
#[cfg(not(feature = "obs"))]
#[macro_export]
macro_rules! event {
    ($name:literal $(, $arg:expr)?) => {};
}

#[cfg(all(test, feature = "obs"))]
mod tests {
    use super::*;

    /// Trace state is process-global, so exercise it from one test to
    /// avoid cross-test interference under the parallel test runner.
    #[test]
    fn spans_events_and_export() {
        set_enabled(true);
        let _ = take_events();
        {
            let _outer = crate::span!("test.outer");
            let _inner = crate::span!("test.inner", 42u64);
            crate::event!("test.instant", 7u64);
        }
        set_enabled(false);
        let events = take_events();
        assert_eq!(events.len(), 3);
        // Instant first (spans record on close), inner closes before outer.
        assert_eq!(name_of(events[0].name), "test.instant");
        assert_eq!(events[0].kind, KIND_INSTANT);
        assert_eq!(events[0].arg, 7);
        assert_eq!(name_of(events[1].name), "test.inner");
        assert_eq!(events[1].depth, 1);
        assert_eq!(name_of(events[2].name), "test.outer");
        assert_eq!(events[2].depth, 0);
        assert!(events[2].dur_ns >= events[1].dur_ns);

        // Stitching: the instant is parented on the inner span it was
        // emitted in, the inner span on the outer; the outer is a root.
        let outer = &events[2];
        assert_ne!(outer.span, 0);
        assert_eq!(outer.parent, 0);
        assert_eq!(events[1].parent, outer.span);
        assert_eq!(events[0].parent, events[1].span);
        assert_ne!(events[1].span, outer.span);
        // The span stack unwound fully.
        assert_eq!(current_span(), 0);

        let json = export_chrome_trace(&events);
        let doc = crate::json::parse_json(&json).expect("exporter output is valid JSON");
        let te = doc.get("traceEvents").and_then(crate::json::Json::as_arr).unwrap();
        // 1 lane metadata + 3 events (all same-lane: no flow arrows).
        assert_eq!(te.len(), 4);
        assert!(json.contains("\"parent\":"));

        // Disabled: no events recorded, cost is the enabled() check.
        {
            let _g = crate::span!("test.disabled");
            crate::event!("test.disabled.instant");
        }
        assert!(take_events().is_empty());

        // Phase 2 (same test: trace state is process-global): a
        // thread with no local span adopts the published context as
        // its parent, and a stale-epoch context is refused.
        set_enabled(true);
        let _ = take_events();
        let parent_id;
        {
            let _outer = crate::span!("test.ctx.outer");
            publish_ctx();
            parent_id = current_span();
            assert_ne!(parent_id, 0);
        }
        let t = std::thread::spawn(move || {
            adopt_published();
            {
                let _w = crate::span!("test.ctx.worker");
            }
            adopt(epoch() + 1, 4242);
            {
                let _w = crate::span!("test.ctx.orphan");
            }
        });
        t.join().unwrap();
        set_enabled(false);
        let events = take_events();
        let find = |n: &str| {
            events
                .iter()
                .find(|e| name_of(e.name) == n)
                .unwrap_or_else(|| panic!("{n} missing"))
        };
        assert_eq!(find("test.ctx.worker").parent, parent_id);
        assert_eq!(find("test.ctx.orphan").parent, 0);

        // Cross-lane parents export flow arrows.
        let mut stitched = *find("test.ctx.worker");
        stitched.lane = 3;
        let mut outer = *find("test.ctx.outer");
        outer.lane = 0;
        let stitched_json = export_chrome_trace(&[outer, stitched]);
        assert!(stitched_json.contains("\"ph\":\"s\""), "{stitched_json}");
        assert!(stitched_json.contains("\"ph\":\"f\""), "{stitched_json}");
        crate::json::parse_json(&stitched_json).expect("stitched export is valid JSON");
    }

    #[test]
    fn event_pack_roundtrips() {
        let e = Event {
            name: 513,
            kind: KIND_SPAN,
            lane: 9,
            depth: 3,
            ts_ns: 123_456_789,
            dur_ns: 42,
            arg: u64::MAX,
            span: (7 << 48) | 12345,
            parent: 99,
        };
        assert_eq!(Event::unpack(e.pack()), e);
    }

    #[test]
    fn intern_owned_reuses_existing_names() {
        let a = intern("test.interned.name");
        let b = intern_owned("test.interned.name");
        assert_eq!(a, b);
        let c = intern_owned("test.interned.other");
        assert_eq!(name_of(c), "test.interned.other");
    }
}
