//! Pure drain-ack accounting for one link of the TCP transport.
//!
//! A *credit* is a drain ack: the receiver returns one (in a `Credit`
//! envelope) each time its **worker** pops a frame of the connection,
//! not when the socket reads it. Credits bound nothing; they only tell
//! the sender which frames have left the fabric, so that
//! `TcpTransport::in_flight` can count a frame from `send` until the
//! destination worker has it.
//!
//! [`CreditLedger`] holds the race-prone part of a link's sending state
//! — the count of frames not yet acked, the connection generation
//! fence, and the frame-in-hand marker — with no I/O, no locking, and
//! no clock, so the exact transition rules the writer / credit-reader /
//! dial threads race over can be model-checked exhaustively. `tcp.rs`
//! embeds one ledger per link under the existing link mutex; the loom
//! test (`tests/loom.rs`, built with `RUSTFLAGS="--cfg loom"`) drives
//! the same type through every interleaving of those three roles and
//! checks the invariants the controller's convergence detection depends
//! on:
//!
//! * a frame is counted from the moment the writer pops it, so an ack
//!   that races the write of its own frame always finds the frame
//!   counted and is never lost;
//! * an ack or connection-death notice carrying a stale generation is
//!   a no-op (a reader of a dead connection cannot affect a newer one);
//! * `outstanding()` never undercounts: a frame accepted from the
//!   sender is visible in `outbox.len() + outstanding()` until the
//!   receiver drains it, which is what keeps "cluster quiescent" honest.

/// Unacked count, generation fence, and in-hand marker for one link.
///
/// All methods are total and non-panicking; generation-fenced methods
/// return whether they applied so callers can count stale events.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CreditLedger {
    /// Frames the writer popped on the current connection (the one in
    /// hand included) whose drain ack has not come back.
    unacked: u32,
    /// Bumped per successful dial so a stale credit reader cannot kill
    /// or ack on a newer connection.
    conn_gen: u64,
    /// Set by the credit reader when the current connection died.
    conn_dead: bool,
    /// A frame the writer popped but has not yet written or requeued.
    /// A reconnect keeps it counted: it is the one frame the fresh
    /// connection carries before any ack can come back.
    in_hand: bool,
}

impl CreditLedger {
    /// The writer pops a frame: it is in hand and counted until its ack
    /// comes back or it is requeued.
    pub fn begin_send(&mut self) {
        self.unacked = self.unacked.saturating_add(1);
        self.in_hand = true;
    }

    /// The in-hand frame reached the socket; it stays counted until the
    /// receiver pops it and acks.
    pub fn sent(&mut self) {
        self.in_hand = false;
    }

    /// The in-hand frame went back to the outbox (connection loss or
    /// partition), where the outbox length counts it instead.
    pub fn requeue(&mut self) {
        self.in_hand = false;
        self.unacked = self.unacked.saturating_sub(1);
    }

    /// A successful dial: fences off every older reader by bumping the
    /// generation and clears the death flag. Frames written on the old
    /// connection will never be acked on this one, so only the frame in
    /// hand stays counted (losses in the old connection are exposed by
    /// the reconnect counter instead). Returns the new generation for
    /// the connection's credit reader.
    pub fn reconnect(&mut self) -> u64 {
        self.conn_gen += 1;
        self.conn_dead = false;
        self.unacked = self.in_hand as u32;
        self.conn_gen
    }

    /// `n` drain acks from the receiver. Applied only if `gen` matches
    /// the current connection; returns whether it applied (a stale
    /// reader's acks must not uncount frames of a newer connection).
    pub fn ack(&mut self, n: u32, gen: u64) -> bool {
        if self.conn_gen != gen {
            return false;
        }
        self.unacked = self.unacked.saturating_sub(n);
        true
    }

    /// Death notice from a credit reader. Applied only if `gen` matches
    /// the current connection; returns whether it applied (a stale
    /// reader must not kill a newer connection).
    pub fn connection_lost(&mut self, gen: u64) -> bool {
        if self.conn_gen != gen {
            return false;
        }
        self.conn_dead = true;
        true
    }

    /// The writer acknowledges a death notice (and will drop its
    /// socket); clears the flag so one loss is observed exactly once.
    pub fn take_conn_dead(&mut self) -> bool {
        std::mem::take(&mut self.conn_dead)
    }

    /// Frames accounted by this ledger: the one in the writer's hand
    /// plus every frame written but not yet drained by the receiver. The
    /// link's `in_flight` is `outbox.len() + outstanding()`.
    pub fn outstanding(&self) -> usize {
        self.unacked as usize
    }

    /// Current connection generation (model-check observability).
    pub fn generation(&self) -> u64 {
        self.conn_gen
    }
}

#[cfg(test)]
mod tests {
    use super::CreditLedger;

    #[test]
    fn consume_refill_round_trip() {
        let mut l = CreditLedger::default();
        let gen = l.reconnect();
        l.begin_send();
        assert_eq!(l.outstanding(), 1);
        l.sent();
        assert_eq!(l.outstanding(), 1, "written, not yet drained");
        assert!(l.ack(1, gen));
        assert_eq!(l.outstanding(), 0);
    }

    #[test]
    fn stale_generation_is_fenced() {
        let mut l = CreditLedger::default();
        let old = l.reconnect();
        l.begin_send();
        l.sent();
        let fresh = l.reconnect();
        assert_ne!(old, fresh);
        l.begin_send();
        l.sent();
        assert!(!l.ack(4, old), "stale ack must not apply");
        assert!(!l.connection_lost(old), "stale death must not apply");
        assert!(!l.take_conn_dead());
        assert_eq!(
            l.outstanding(),
            1,
            "the fresh connection's frame stays counted"
        );
    }

    #[test]
    fn requeue_returns_only_spent_credits() {
        let mut l = CreditLedger::default();
        l.reconnect();
        l.begin_send();
        l.requeue();
        assert_eq!(l.outstanding(), 0, "the outbox counts a requeued frame");
        l.begin_send();
        l.sent();
        l.begin_send();
        l.requeue();
        assert_eq!(l.outstanding(), 1, "a requeue uncounts only its own frame");
    }

    #[test]
    fn reconnect_keeps_only_the_frame_in_hand() {
        let mut l = CreditLedger::default();
        l.reconnect();
        l.begin_send();
        l.sent();
        l.begin_send();
        // The connection died with one frame unacked; the frame in hand
        // goes out on the fresh one.
        let gen = l.reconnect();
        assert_eq!(l.outstanding(), 1);
        l.sent();
        assert!(l.ack(1, gen));
        assert_eq!(l.outstanding(), 0);
    }

    #[test]
    fn ack_racing_the_write_is_not_lost() {
        let mut l = CreditLedger::default();
        let gen = l.reconnect();
        l.begin_send();
        // The receiver drains and acks before the writer records the
        // write: the frame was counted at pop, so the ack lands on it.
        assert!(l.ack(1, gen));
        l.sent();
        assert_eq!(l.outstanding(), 0);
    }
}
