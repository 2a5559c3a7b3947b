//! A peer's bytes size no allocation they cannot back.
//!
//! Every decoder a worker, controller or daemon runs on bytes from a
//! socket or a file — data-frame messages, the control channel, the
//! admin protocol, the checkpoint, and the BDD bodies inside packet
//! batches — is fed each golden vector with every 4-byte window set to
//! `0xffff_ffff` (so every count and length field in turn claims four
//! billion elements), and random short inputs. Each decode must return
//! `Ok` or `Err` without any single allocation above 1 MiB. Clippy's
//! panic lints cannot state this rule; a counting allocator can.

#[path = "golden/vectors.rs"]
mod vectors;

use bytes::Bytes;
use proptest::prelude::*;
use s2_bdd::BddManager;
use s2_runtime::admin::{self, AdminRequest, AdminResponse, WarmCheckpoint};
use s2_runtime::remote::{Register, Setup};
use s2_runtime::wire::{self, Message};
use s2_runtime::worker::{Command, Reply};
use s2_runtime::Wire;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The largest single allocation a decode may make.
const LIMIT: usize = 1 << 20;

thread_local! {
    /// The largest allocation this thread made since [`largest_during`]
    /// armed it; `None` while disarmed (the harness's own allocations).
    static LARGEST: Cell<Option<usize>> = const { Cell::new(None) };
}

/// `System`, noting each armed thread's largest request.
struct Counting;

impl Counting {
    fn note(size: usize) -> bool {
        LARGEST
            .try_with(|l| {
                let Some(max) = l.get() else { return true };
                l.set(Some(max.max(size)));
                // Past the limit the test has failed already; refuse what
                // would only stress the host.
                size <= 64 * LIMIT
            })
            .unwrap_or(true)
    }
}

// SAFETY: every call forwards to `System` with the caller's arguments; a
// refused request returns null, which `GlobalAlloc` permits.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if !Self::note(layout.size()) {
            return std::ptr::null_mut();
        }
        // SAFETY: forwarded unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if !Self::note(layout.size()) {
            return std::ptr::null_mut();
        }
        // SAFETY: forwarded unchanged.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if !Self::note(new_size) {
            return std::ptr::null_mut();
        }
        // SAFETY: forwarded unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded unchanged.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// The largest single allocation `f` makes on this thread.
fn largest_during(f: impl FnOnce()) -> usize {
    LARGEST.with(|l| l.set(Some(0)));
    f();
    LARGEST.with(|l| l.replace(None)).unwrap_or(0)
}

fn unhex(s: &str) -> Vec<u8> {
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).expect("hex digit"))
        .collect()
}

/// Runs every decoder on `bytes`. A decoded packet batch also has each
/// of its BDD bodies decoded, as the receiving worker does.
fn decode_all(bytes: &[u8]) {
    let b = Bytes::from(bytes.to_vec());
    if let Ok(Message::PacketBatch { bdds, .. }) = wire::decode(b.clone()) {
        let mut m = BddManager::new(64);
        for bdd in &bdds {
            let _ = s2_bdd::serialize::from_bytes(&mut m, bdd);
        }
    }
    let _ = Register::from_bytes(b.clone());
    let _ = Setup::from_bytes(b.clone());
    let _ = Command::from_bytes(b.clone());
    let _ = Reply::from_bytes(b.clone());
    let _ = AdminRequest::from_bytes(b.clone());
    let _ = AdminResponse::from_bytes(b.clone());
    let _ = WarmCheckpoint::from_bytes(b);
    if let Ok(payload) = admin::unframe_checkpoint(bytes) {
        let _ = WarmCheckpoint::from_bytes(Bytes::from(payload.to_vec()));
    }
    let _ = s2_bdd::serialize::from_bytes(&mut BddManager::new(64), bytes);
}

/// Every golden and retired vector, every framed file image, and a
/// BDD body with shared structure.
fn corpus() -> Vec<Vec<u8>> {
    let mut out: Vec<Vec<u8>> = Vec::new();
    out.extend(vectors::messages().into_iter().map(|(_, h)| unhex(h)));
    out.extend(vectors::registers().into_iter().map(|(_, h)| unhex(h)));
    out.extend(vectors::setups().into_iter().map(|(_, h)| unhex(h)));
    out.extend(vectors::commands().into_iter().map(|(_, h)| unhex(h)));
    out.extend(vectors::replies().into_iter().map(|(_, h)| unhex(h)));
    out.extend(vectors::requests().into_iter().map(|(_, h)| unhex(h)));
    out.extend(vectors::responses().into_iter().map(|(_, h)| unhex(h)));
    let (ckpt, file) = vectors::checkpoint();
    out.push(ckpt.to_bytes().to_vec());
    out.push(unhex(file));
    out.extend(vectors::retired_messages().into_iter().map(|(h, _)| unhex(h)));
    out.extend(vectors::retired_commands().into_iter().map(|(h, _)| unhex(h)));
    out.extend(vectors::retired_replies().into_iter().map(|(h, _)| unhex(h)));
    out.extend(vectors::retired_checkpoints().into_iter().map(unhex));
    let mut m = BddManager::new(8);
    let (a, b, c) = (m.var(0), m.var(3), m.nvar(5));
    let ab = m.and(a, b);
    let f = m.or(ab, c);
    out.push(s2_bdd::serialize::to_bytes(&m, f));
    out
}

#[test]
fn every_field_claiming_four_billion_elements_allocates_within_bounds() {
    let mut decodes = 0;
    for vector in corpus() {
        for at in 0..vector.len().saturating_sub(3) {
            let mut bytes = vector.clone();
            bytes[at..at + 4].fill(0xff);
            let largest = largest_during(|| decode_all(&bytes));
            assert!(largest <= LIMIT, "{largest} bytes allocated for {bytes:02x?}");
            decodes += 1;
        }
    }
    assert!(decodes > 1000, "only {decodes} mutated vectors");
}

#[test]
fn a_bdd_body_of_one_huge_count_is_rejected() {
    for body in [vec![0xff; 4], [vec![0xff; 4], vec![0; 64]].concat()] {
        let mut m = BddManager::new(8);
        let largest = largest_during(|| {
            assert!(s2_bdd::serialize::from_bytes(&mut m, &body).is_err());
        });
        assert!(largest <= LIMIT, "{largest} bytes allocated for {body:02x?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn random_short_inputs_allocate_within_bounds(
        bytes in proptest::collection::vec(any::<u8>(), 0..=256),
    ) {
        let largest = largest_during(|| decode_all(&bytes));
        prop_assert!(largest <= LIMIT, "{} bytes allocated for {:02x?}", largest, bytes);
    }
}
