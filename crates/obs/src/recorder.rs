//! The crash flight recorder: a fixed-size lock-free ring of the most
//! recent trace events, dumped when something goes wrong (barrier
//! deadline expiry, recovery epoch bump, OOM degradation, panic) so a
//! chaos-test failure comes with the events leading up to it.
//!
//! The ring is a seqlock per slot: a writer claims an index with one
//! `fetch_add`, marks the slot odd, writes the packed event, marks it
//! even. Readers validate the sequence word before and after copying
//! and skip torn slots, so writers never block and never wait for
//! readers. Compiled only with the `obs` feature; without it every
//! function here is a no-op stub.

#[cfg(feature = "obs")]
mod imp {
    use crate::lock;
    use crate::trace::Event;
    use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
    use std::sync::{Mutex, OnceLock};

    /// Ring capacity in events (power of two).
    pub const RING_CAP: usize = 4096;

    struct Slot {
        /// `2*claim + 1` while the slot is being written, `2*claim + 2`
        /// once the write of claim `claim` is complete, 0 when never
        /// written.
        seq: AtomicU64,
        w: [AtomicU64; 6],
    }

    struct Ring {
        head: AtomicUsize,
        slots: Vec<Slot>,
    }

    fn ring() -> &'static Ring {
        static RING: OnceLock<Ring> = OnceLock::new();
        RING.get_or_init(|| Ring {
            head: AtomicUsize::new(0),
            slots: (0..RING_CAP)
                .map(|_| Slot {
                    seq: AtomicU64::new(0),
                    w: std::array::from_fn(|_| AtomicU64::new(0)),
                })
                .collect(),
        })
    }

    static DUMP_PATH: Mutex<Option<std::path::PathBuf>> = Mutex::new(None);
    static DUMPS: AtomicU64 = AtomicU64::new(0);

    /// Append a trace event to the ring (called from
    /// [`crate::trace::record`] for every event).
    pub fn push(e: Event) {
        let r = ring();
        let claim = r.head.fetch_add(1, Ordering::Relaxed) as u64;
        let slot = &r.slots[(claim as usize) & (RING_CAP - 1)];
        slot.seq.store(claim * 2 + 1, Ordering::Release);
        for (dst, src) in slot.w.iter().zip(e.pack()) {
            dst.store(src, Ordering::Relaxed);
        }
        slot.seq.store(claim * 2 + 2, Ordering::Release);
    }

    /// The ring's current contents, oldest first. Slots being written
    /// concurrently (torn) are skipped. Never returns more than
    /// [`RING_CAP`] events.
    pub fn recent() -> Vec<Event> {
        let r = ring();
        let head = r.head.load(Ordering::Acquire);
        let mut out: Vec<(u64, Event)> = Vec::with_capacity(RING_CAP.min(head));
        for slot in &r.slots {
            let s1 = slot.seq.load(Ordering::Acquire);
            if s1 == 0 || s1 % 2 == 1 {
                continue;
            }
            let w = [
                slot.w[0].load(Ordering::Relaxed),
                slot.w[1].load(Ordering::Relaxed),
                slot.w[2].load(Ordering::Relaxed),
                slot.w[3].load(Ordering::Relaxed),
                slot.w[4].load(Ordering::Relaxed),
                slot.w[5].load(Ordering::Relaxed),
            ];
            let s2 = slot.seq.load(Ordering::Acquire);
            if s1 != s2 {
                continue;
            }
            out.push(((s1 - 2) / 2, Event::unpack(w)));
        }
        out.sort_unstable_by_key(|&(claim, _)| claim);
        out.into_iter().map(|(_, e)| e).collect()
    }

    /// Where [`dump`] writes (appends). Unset, dumps go to stderr.
    pub fn set_dump_path(path: Option<std::path::PathBuf>) {
        *lock(&DUMP_PATH) = path;
    }

    /// Number of dumps taken so far in this process.
    pub fn dumps() -> u64 {
        DUMPS.load(Ordering::Relaxed)
    }

    /// Render the ring as a JSON dump record and write it to the
    /// configured dump path (or stderr). Returns the rendered document
    /// so tests and callers can assert on its contents.
    pub fn dump(trigger: &str) -> String {
        use std::fmt::Write as _;
        DUMPS.fetch_add(1, Ordering::Relaxed);
        let events = recent();
        let mut o = String::new();
        o.push_str("{\"schema\":\"s2-flight-recorder/v1\",\"trigger\":");
        crate::json::push_str(&mut o, trigger);
        let _ = write!(o, ",\"events\":{}", events.len());
        // One record per line (JSONL): flatten the exporter's pretty
        // newlines so a dump file with several records (e.g. a barrier
        // deadline followed by the recovery epoch bump) splits cleanly
        // on line boundaries.
        o.push_str(",\"trace\":");
        let trace = crate::trace::export_chrome_trace(&events);
        o.push_str(&trace.trim_end().replace('\n', " "));
        o.push_str("}\n");
        let path = lock(&DUMP_PATH).clone();
        match path {
            Some(p) => {
                use std::io::Write as _;
                let write = std::fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(&p)
                    .and_then(|mut f| f.write_all(o.as_bytes()));
                if let Err(e) = write {
                    eprintln!("s2-obs: flight-recorder dump to {} failed: {e}", p.display());
                }
            }
            None => eprintln!("s2-obs: flight-recorder dump (trigger: {trigger}): {o}"),
        }
        o
    }

    /// Chain a panic hook that dumps the flight recorder before the
    /// default handler runs. Idempotent per process.
    pub fn install_panic_hook() {
        static INSTALLED: OnceLock<()> = OnceLock::new();
        INSTALLED.get_or_init(|| {
            let prev = std::panic::take_hook();
            std::panic::set_hook(Box::new(move |info| {
                let _ = dump("panic");
                prev(info);
            }));
        });
    }
}

#[cfg(feature = "obs")]
pub use imp::*;

#[cfg(not(feature = "obs"))]
mod noop {
    /// Always empty without the `obs` feature.
    pub fn recent() -> Vec<crate::trace::Event> {
        Vec::new()
    }

    /// No-op without the `obs` feature.
    pub fn set_dump_path(_path: Option<std::path::PathBuf>) {}

    /// No-op without the `obs` feature; always zero.
    pub fn dumps() -> u64 {
        0
    }

    /// No-op without the `obs` feature; returns an empty document.
    pub fn dump(_trigger: &str) -> String {
        String::new()
    }

    /// No-op without the `obs` feature.
    pub fn install_panic_hook() {}
}

#[cfg(not(feature = "obs"))]
pub use noop::*;

#[cfg(all(test, feature = "obs"))]
mod tests {
    use super::*;
    use crate::trace::{Event, KIND_INSTANT};

    /// Lane tag for this test's events, so assertions filter out
    /// events other tests in this binary push into the shared ring.
    const TEST_LANE: u16 = 4242;

    fn ev(i: u64) -> Event {
        Event {
            name: 0,
            kind: KIND_INSTANT,
            lane: TEST_LANE,
            depth: 0,
            ts_ns: i,
            dur_ns: 0,
            arg: i,
            span: 0,
            parent: 0,
        }
    }

    fn ours() -> Vec<Event> {
        recent().into_iter().filter(|e| e.lane == TEST_LANE).collect()
    }

    /// The ring is process-global, so all phases run in one test.
    #[test]
    fn ring_is_bounded_ordered_and_dumpable() {
        // Phase 1: concurrent pushers with readers in flight — torn
        // slots must be skipped, so every observed payload is one we
        // actually pushed.
        let threads: Vec<_> = (0..4)
            .map(|t: u64| {
                std::thread::spawn(move || {
                    for i in 0..2000u64 {
                        push(ev(t * 1_000_000 + i));
                    }
                })
            })
            .collect();
        for _ in 0..50 {
            for e in ours() {
                assert!(e.arg % 1_000_000 < 2000);
            }
        }
        for t in threads {
            t.join().expect("pusher thread");
        }
        assert!(ours().len() <= RING_CAP);

        // Phase 2: overflow the ring sequentially — it stays bounded,
        // keeps the newest events, and reads back in claim order.
        let total = RING_CAP as u64 * 2 + 100;
        for i in 0..total {
            push(ev(i + 10_000_000));
        }
        let events = ours();
        assert!(events.len() <= RING_CAP);
        assert!(!events.is_empty());
        for pair in events.windows(2) {
            assert!(pair[0].arg < pair[1].arg, "claim order preserved");
        }
        assert_eq!(events.last().map(|e| e.arg), Some(10_000_000 + total - 1));

        // Phase 3: a dump renders the trigger and valid JSON.
        let doc = dump("unit-test");
        let parsed = crate::json::parse_json(doc.trim()).expect("dump is valid JSON");
        assert_eq!(
            parsed.get("trigger").and_then(crate::json::Json::as_str),
            Some("unit-test")
        );
        assert!(parsed.get("trace").is_some());
        assert!(dumps() >= 1);
    }
}
