//! Exhaustive model checks of the TCP transport's drain-ack accounting.
//!
//! Built only with `RUSTFLAGS="--cfg loom"`:
//!
//! ```text
//! RUSTFLAGS="--cfg loom" cargo test -p s2-runtime --test loom --release
//! ```
//!
//! The production writer / credit-reader / dial threads all mutate one
//! [`CreditLedger`] under the link mutex; what the chaos tests can only
//! sample, these models explore exhaustively — every interleaving of
//! the pop, write, ack, requeue, and epoch-fence (reconnect) operations
//! — and assert the invariants the controller's convergence detection
//! depends on after every step:
//!
//! * **An ack racing the write is never lost**: the writer writes a
//!   frame outside the lock and records it after, so the receiver can
//!   drain and ack in between; the frame was counted when it was popped,
//!   so the ack always finds it and the count returns to exactly zero.
//! * **No undercount**: a frame on the wire and not yet acked is always
//!   in `outstanding()`, so `in_flight` can never report quiescence
//!   while a frame is still pending.
//! * **Epoch fence**: a credit reader holding a stale connection
//!   generation can neither ack on nor kill a newer connection, in any
//!   ordering of its delivery relative to the reconnect.
//!
//! The models mirror the lock discipline of `tcp.rs`: every ledger
//! transition happens under one mutex, and the schedule points are the
//! lock acquisitions and the socket write — exactly the granularity at
//! which the real threads interleave.

#![cfg(loom)]

use loom::sync::atomic::{AtomicBool, Ordering};
use loom::sync::{Arc, Mutex};
use loom::thread;
use s2_runtime::credit::CreditLedger;

/// The writer pops, writes and records a frame; the receiver drains
/// and acks it if it finds it on the wire, possibly between the write
/// and the writer's `sent()`. In every interleaving the frame is counted
/// when its ack lands, and it stays counted exactly when it was never
/// acked.
#[test]
fn ack_racing_the_write_is_never_lost() {
    loom::model(|| {
        let ledger = Arc::new(Mutex::new(CreditLedger::default()));
        let gen = ledger.lock().unwrap().reconnect();
        // Set once the frame is written to the socket, where the
        // receiver can drain it.
        let written = Arc::new(AtomicBool::new(false));

        let writer = {
            let (ledger, written) = (ledger.clone(), written.clone());
            thread::spawn(move || {
                ledger.lock().unwrap().begin_send();
                // The write happens outside the link lock.
                written.store(true, Ordering::SeqCst);
                ledger.lock().unwrap().sent();
            })
        };

        let receiver = {
            let (ledger, written) = (ledger.clone(), written.clone());
            thread::spawn(move || {
                if !written.load(Ordering::SeqCst) {
                    return false;
                }
                let mut l = ledger.lock().unwrap();
                assert_eq!(l.outstanding(), 1, "a frame on the wire was not counted");
                assert!(l.ack(1, gen));
                true
            })
        };

        writer.join().unwrap();
        let acked = receiver.join().unwrap();

        let l = ledger.lock().unwrap();
        assert_eq!(
            l.outstanding(),
            usize::from(!acked),
            "acked: {acked}; an ack was lost or a frame uncounted"
        );
    });
}

/// A stale credit reader (from a connection that died) races the
/// redial: in no interleaving may its ack uncount the frame the fresh
/// connection carries, nor its death notice kill the new connection.
#[test]
fn stale_reader_is_epoch_fenced() {
    loom::model(|| {
        let ledger = Arc::new(Mutex::new(CreditLedger::default()));
        // One frame written on the old connection, not yet acked.
        let old_gen = {
            let mut l = ledger.lock().unwrap();
            let old_gen = l.reconnect();
            l.begin_send();
            l.sent();
            old_gen
        };

        // Writer: pops the next frame, finds the connection dead,
        // redials and writes it on the new one.
        let dialer = {
            let ledger = ledger.clone();
            thread::spawn(move || {
                ledger.lock().unwrap().begin_send();
                let new_gen = ledger.lock().unwrap().reconnect();
                ledger.lock().unwrap().sent();
                new_gen
            })
        };

        // Stale reader: acks the old connection's frame, then reports
        // the old connection dead, interleaved arbitrarily with the
        // redial above.
        let stale = {
            let ledger = ledger.clone();
            thread::spawn(move || {
                {
                    let mut l = ledger.lock().unwrap();
                    if l.ack(1, old_gen) {
                        // Only legal before the reconnect happened.
                        assert_eq!(l.generation(), old_gen);
                    }
                }
                let mut l = ledger.lock().unwrap();
                if l.connection_lost(old_gen) {
                    assert_eq!(l.generation(), old_gen);
                }
                if l.generation() != old_gen {
                    assert_eq!(
                        l.outstanding(),
                        1,
                        "a stale reader uncounted the new connection's frame"
                    );
                }
            })
        };

        let new_gen = dialer.join().unwrap();
        stale.join().unwrap();

        let mut l = ledger.lock().unwrap();
        assert_eq!(l.generation(), new_gen);
        assert_eq!(
            l.outstanding(),
            1,
            "the new connection's unacked frame must stay counted"
        );
        // A death notice that raced in *before* the reconnect was
        // already cleared by it; one arriving after was fenced. Either
        // way the new connection must not observe a death it didn't have.
        assert!(
            !l.take_conn_dead(),
            "stale reader killed the new connection"
        );
    });
}
