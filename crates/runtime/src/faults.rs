//! Deterministic fault injection for the distributed runtime.
//!
//! A [`FaultPlan`] describes *when* things go wrong — a worker crash
//! before its n-th command, a hang, the loss / duplication / corruption /
//! delay of the n-th cross-worker frame — and is threaded into
//! [`Cluster`](crate::Cluster) construction through
//! [`RuntimeConfig`](crate::RuntimeConfig). Every trigger is indexed by a
//! deterministic counter (commands processed per worker, frames attempted
//! cluster-wide), so a given plan reproduces the same failure on every
//! run. The chaos tests drive recovery with these plans and assert the
//! recovered result is bit-identical to an undisturbed run.

use s2_net::topology::NodeId;
use s2_obs::{lock, Clock, MonotonicClock};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Worker index (mirrors [`crate::sidecar::WorkerId`]).
type WorkerId = u32;

/// The phases of a daemon delta application, used to place
/// [`FaultPlan::crash_daemon`] triggers. Each committed delta walks the
/// phases in order; a crash trigger fires the first time the daemon
/// *enters* the named phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum DaemonPhase {
    /// Parsing / resolving the delta against the current model.
    Validate,
    /// Staging the scenario overlay (checkpoint rollback + begin).
    Stage,
    /// Warm control-plane replay of the staged overlay.
    Replay,
    /// Patched data-plane verification of the staged overlay.
    Dpv,
    /// Atomic swap of the committed verdict state.
    Commit,
    /// Writing the on-disk warm checkpoint.
    Checkpoint,
}

/// A deterministic schedule of injected failures.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    kill: Option<(WorkerId, u64)>,
    hang: Option<(WorkerId, u64)>,
    drop_nth: Vec<u64>,
    duplicate_nth: Vec<u64>,
    corrupt_nth: Vec<u64>,
    delay_nth: Vec<(u64, u32)>,
    /// (src, dst, nth data frame on that link) — TCP backend only.
    sever: Vec<(WorkerId, WorkerId, u64)>,
    /// (worker, armed after the nth cluster-wide send, duration).
    partition: Option<(WorkerId, u64, Duration)>,
    /// (src, dst, per-frame delay in ms) — TCP backend only.
    throttle: Vec<(WorkerId, WorkerId, u64)>,
    /// Model-level failed links, as topology node pairs.
    fail_links: Vec<(NodeId, NodeId)>,
    /// Daemon crash points: abort the daemon on entering these phases.
    crash_daemon: Vec<DaemonPhase>,
    /// Admin connections to drop, by 0-based accepted-request index.
    drop_admin: Vec<u64>,
    /// Checkpoint writes to corrupt, by 0-based write index.
    corrupt_checkpoint: Vec<u64>,
}

impl FaultPlan {
    /// No faults.
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Kills worker `worker` immediately before it processes its `nth`
    /// command (1-based; each controller barrier is one command). The
    /// thread simply exits — the crash model of a lost logical server.
    /// Fires once: the respawned worker is not re-killed.
    pub fn kill_worker(mut self, worker: WorkerId, nth_command: u64) -> Self {
        self.kill = Some((worker, nth_command));
        self
    }

    /// Hangs worker `worker` from its `nth` command on: it keeps draining
    /// commands but never replies again, forcing the controller's barrier
    /// timeout. Fires once.
    pub fn hang_worker(mut self, worker: WorkerId, nth_command: u64) -> Self {
        self.hang = Some((worker, nth_command));
        self
    }

    /// Silently drops the `nth` cross-worker frame (0-based attempt
    /// index, counted cluster-wide in send order).
    pub fn drop_message(mut self, nth: u64) -> Self {
        self.drop_nth.push(nth);
        self
    }

    /// Delivers the `nth` cross-worker frame twice with the same
    /// sequence number (the receiver must deduplicate).
    pub fn duplicate_message(mut self, nth: u64) -> Self {
        self.duplicate_nth.push(nth);
        self
    }

    /// Flips a byte of the `nth` cross-worker frame so the receiver's
    /// checksum rejects it.
    pub fn corrupt_message(mut self, nth: u64) -> Self {
        self.corrupt_nth.push(nth);
        self
    }

    /// Holds the `nth` cross-worker frame for `rounds` barrier rounds
    /// before delivering it.
    pub fn delay_message(mut self, nth: u64, rounds: u32) -> Self {
        self.delay_nth.push((nth, rounds));
        self
    }

    /// Severs the live TCP connection of link `src → dst` as it is about
    /// to carry its `nth` data frame (0-based, per link). The frame
    /// itself travels on the replacement connection; frames buffered in
    /// the dead one may be lost. TCP backend only — the channel backend
    /// has no connections to sever.
    pub fn sever_connection(mut self, src: WorkerId, dst: WorkerId, nth_frame: u64) -> Self {
        self.sever.push((src, dst, nth_frame));
        self
    }

    /// Cuts every link to and from `worker` for `window` once the
    /// cluster-wide send counter passes `after_nth` (the counter
    /// [`FaultState::next_send_index`] claims). TCP backend only.
    pub fn partition_worker(mut self, worker: WorkerId, after_nth: u64, window: Duration) -> Self {
        self.partition = Some((worker, after_nth, window));
        self
    }

    /// Slows link `src → dst` down to one data frame per `per_frame_ms`
    /// milliseconds, so its outbox fills while the frames trickle out.
    /// TCP backend only.
    pub fn throttle_link(mut self, src: WorkerId, dst: WorkerId, per_frame_ms: u64) -> Self {
        self.throttle.push((src, dst, per_frame_ms));
        self
    }

    /// Fails the physical link between model nodes `a` and `b` for the
    /// whole run: both endpoint switches treat their interface on that
    /// link as down from construction on, so the simulated control plane
    /// converges around the failure. This is a **model-level** fault —
    /// the *simulated network* degrades and the verification result is
    /// expected to change — in contrast to [`FaultPlan::sever_connection`]
    /// and friends, which break the *runtime transport* between workers
    /// and must be invisible in the verification result.
    pub fn fail_link(mut self, a: NodeId, b: NodeId) -> Self {
        self.fail_links.push((a, b));
        self
    }

    /// The model-level failed links of the plan.
    pub fn failed_links(&self) -> &[(NodeId, NodeId)] {
        &self.fail_links
    }

    /// Crashes the daemon the first time it enters `phase` of a delta
    /// application (the process aborts as if `kill -9`'d; the chaos
    /// harness restarts it from the warm checkpoint). Fires once per
    /// registered phase.
    pub fn crash_daemon(mut self, phase: DaemonPhase) -> Self {
        self.crash_daemon.push(phase);
        self
    }

    /// Drops the admin connection serving the `nth` accepted request
    /// (0-based) before a reply is written, so the client sees an abrupt
    /// close mid-exchange.
    pub fn drop_admin_conn(mut self, nth: u64) -> Self {
        self.drop_admin.push(nth);
        self
    }

    /// Flips a byte of the `nth` on-disk checkpoint write (0-based), so
    /// the restart path must detect it by checksum and fall back to a
    /// cold start.
    pub fn corrupt_checkpoint(mut self, nth: u64) -> Self {
        self.corrupt_checkpoint.push(nth);
        self
    }

    /// Whether the plan injects anything at all.
    pub fn is_empty(&self) -> bool {
        self.kill.is_none()
            && self.hang.is_none()
            && self.drop_nth.is_empty()
            && self.duplicate_nth.is_empty()
            && self.corrupt_nth.is_empty()
            && self.delay_nth.is_empty()
            && self.sever.is_empty()
            && self.partition.is_none()
            && self.throttle.is_empty()
            && self.fail_links.is_empty()
            && self.crash_daemon.is_empty()
            && self.drop_admin.is_empty()
            && self.corrupt_checkpoint.is_empty()
    }
}

/// Runtime state of a plan: one-shot flags plus the frame counter.
/// Shared by every sidecar and worker of a cluster.
pub struct FaultState {
    plan: FaultPlan,
    kill_fired: AtomicBool,
    hang_fired: AtomicBool,
    send_index: AtomicU64,
    /// One-shot flags, parallel to `plan.sever`.
    sever_fired: Vec<AtomicBool>,
    /// One-shot flags, parallel to `plan.crash_daemon`.
    crash_fired: Vec<AtomicBool>,
    /// Accepted-admin-request counter (0-based, accept order).
    admin_index: AtomicU64,
    /// Checkpoint-write counter (0-based, write order).
    checkpoint_index: AtomicU64,
    /// Time source for the partition window. Production uses the
    /// process-wide monotonic clock; tests substitute a [`ManualClock`]
    /// so window expiry is deterministic.
    ///
    /// [`ManualClock`]: s2_obs::ManualClock
    clock: Arc<dyn Clock>,
    /// Absolute `clock` nanosecond at which the armed partition window
    /// closes (`None` until the trigger fires).
    partition_until_ns: Mutex<Option<u64>>,
}

impl std::fmt::Debug for FaultState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultState")
            .field("plan", &self.plan)
            .field("send_index", &self.send_index)
            .field("partition_until_ns", &*lock(&self.partition_until_ns))
            .finish_non_exhaustive()
    }
}

impl Default for FaultState {
    fn default() -> Self {
        FaultState::new(FaultPlan::default())
    }
}

impl FaultState {
    /// Arms a plan against the process-wide monotonic clock.
    pub fn new(plan: FaultPlan) -> Self {
        FaultState::with_clock(plan, Arc::new(MonotonicClock))
    }

    /// Arms a plan against an explicit clock (tests drive a
    /// [`ManualClock`](s2_obs::ManualClock) by hand).
    pub fn with_clock(plan: FaultPlan, clock: Arc<dyn Clock>) -> Self {
        let sever_fired = plan.sever.iter().map(|_| AtomicBool::new(false)).collect();
        let crash_fired = plan
            .crash_daemon
            .iter()
            .map(|_| AtomicBool::new(false))
            .collect();
        FaultState {
            plan,
            kill_fired: AtomicBool::new(false),
            hang_fired: AtomicBool::new(false),
            send_index: AtomicU64::new(0),
            sever_fired,
            crash_fired,
            admin_index: AtomicU64::new(0),
            checkpoint_index: AtomicU64::new(0),
            clock,
            partition_until_ns: Mutex::new(None),
        }
    }

    /// The armed plan.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Whether `worker` must crash before processing command number
    /// `command` (1-based). Consumes the trigger.
    pub fn should_kill(&self, worker: WorkerId, command: u64) -> bool {
        match self.plan.kill {
            Some((w, n)) if w == worker && n == command => {
                !self.kill_fired.swap(true, Ordering::Relaxed)
            }
            _ => false,
        }
    }

    /// Whether `worker` must hang from command number `command` (1-based)
    /// on. Consumes the trigger.
    pub fn should_hang(&self, worker: WorkerId, command: u64) -> bool {
        match self.plan.hang {
            Some((w, n)) if w == worker && n == command => {
                !self.hang_fired.swap(true, Ordering::Relaxed)
            }
            _ => false,
        }
    }

    /// Claims the next cluster-wide frame index (0-based, in send order).
    /// Passing a scheduled partition trigger arms the partition window.
    pub fn next_send_index(&self) -> u64 {
        let idx = self.send_index.fetch_add(1, Ordering::Relaxed);
        if let Some((_, after_nth, window)) = self.plan.partition {
            if idx == after_nth {
                let window_ns = u64::try_from(window.as_nanos()).unwrap_or(u64::MAX);
                *lock(&self.partition_until_ns) =
                    Some(self.clock.now_ns().saturating_add(window_ns));
            }
        }
        idx
    }

    /// Whether frame `idx` is scheduled to be dropped.
    pub fn drops(&self, idx: u64) -> bool {
        self.plan.drop_nth.contains(&idx)
    }

    /// Whether frame `idx` is scheduled to be duplicated.
    pub fn duplicates(&self, idx: u64) -> bool {
        self.plan.duplicate_nth.contains(&idx)
    }

    /// Whether frame `idx` is scheduled to be corrupted.
    pub fn corrupts(&self, idx: u64) -> bool {
        self.plan.corrupt_nth.contains(&idx)
    }

    /// The delay (in barrier rounds) scheduled for frame `idx`, if any.
    pub fn delay_of(&self, idx: u64) -> Option<u32> {
        self.plan
            .delay_nth
            .iter()
            .find(|(n, _)| *n == idx)
            .map(|(_, r)| *r)
    }

    /// Whether the connection of link `src → dst` must be severed before
    /// carrying its data frame `idx` (0-based, per link). Fires at the
    /// first frame at or after the planned index — the transport only
    /// asks when a live connection exists to sever, and connections are
    /// dialed lazily, so the planned frame itself may be the one that
    /// establishes the connection. Consumes the trigger.
    // r1: peer bytes reach this function (DESIGN.md § "Static analysis").
    #[deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)]
    #[deny(clippy::todo, clippy::unimplemented, clippy::indexing_slicing)]
    pub fn should_sever(&self, src: WorkerId, dst: WorkerId, idx: u64) -> bool {
        self.plan
            .sever
            .iter()
            .zip(&self.sever_fired)
            .any(|(&(s, d, n), fired)| {
                s == src && d == dst && idx >= n && !fired.swap(true, Ordering::Relaxed)
            })
    }

    /// Whether link `src → dst` is currently inside an armed partition
    /// window (either endpoint being the partitioned worker).
    // r1: peer bytes reach this function (DESIGN.md § "Static analysis").
    #[deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)]
    #[deny(clippy::todo, clippy::unimplemented, clippy::indexing_slicing)]
    pub fn partition_active(&self, src: WorkerId, dst: WorkerId) -> bool {
        let Some((w, _, _)) = self.plan.partition else {
            return false;
        };
        if w != src && w != dst {
            return false;
        }
        matches!(*lock(&self.partition_until_ns), Some(until) if self.clock.now_ns() < until)
    }

    /// Whether the daemon must crash on entering `phase`. Consumes the
    /// matching trigger (one-shot per registered phase).
    pub fn should_crash_daemon(&self, phase: DaemonPhase) -> bool {
        self.plan
            .crash_daemon
            .iter()
            .zip(&self.crash_fired)
            .any(|(&p, fired)| p == phase && !fired.swap(true, Ordering::Relaxed))
    }

    /// Claims the next admin-request index (0-based, accept order).
    pub fn next_admin_index(&self) -> u64 {
        self.admin_index.fetch_add(1, Ordering::Relaxed)
    }

    /// Whether the admin connection serving request `idx` must be
    /// dropped before the reply.
    pub fn drops_admin_conn(&self, idx: u64) -> bool {
        self.plan.drop_admin.contains(&idx)
    }

    /// Claims the next checkpoint-write index (0-based, write order).
    pub fn next_checkpoint_index(&self) -> u64 {
        self.checkpoint_index.fetch_add(1, Ordering::Relaxed)
    }

    /// Whether checkpoint write `idx` must be corrupted on disk.
    pub fn corrupts_checkpoint(&self, idx: u64) -> bool {
        self.plan.corrupt_checkpoint.contains(&idx)
    }

    /// The per-frame delay (ms) scheduled for link `src → dst`, if any.
    // r1: peer bytes reach this function (DESIGN.md § "Static analysis").
    #[deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)]
    #[deny(clippy::todo, clippy::unimplemented, clippy::indexing_slicing)]
    pub fn throttle_of(&self, src: WorkerId, dst: WorkerId) -> Option<u64> {
        self.plan
            .throttle
            .iter()
            .find(|&&(s, d, _)| s == src && d == dst)
            .map(|&(_, _, ms)| ms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kill_trigger_fires_exactly_once() {
        let s = FaultState::new(FaultPlan::new().kill_worker(1, 3));
        assert!(!s.should_kill(1, 2));
        assert!(!s.should_kill(0, 3), "wrong worker");
        assert!(s.should_kill(1, 3));
        assert!(!s.should_kill(1, 3), "one-shot");
    }

    #[test]
    fn frame_triggers_index_deterministically() {
        let s = FaultState::new(
            FaultPlan::new()
                .drop_message(0)
                .corrupt_message(2)
                .duplicate_message(2)
                .delay_message(5, 3),
        );
        assert_eq!(s.next_send_index(), 0);
        assert_eq!(s.next_send_index(), 1);
        assert!(s.drops(0) && !s.drops(1));
        assert!(s.corrupts(2) && s.duplicates(2));
        assert_eq!(s.delay_of(5), Some(3));
        assert_eq!(s.delay_of(4), None);
    }

    #[test]
    fn empty_plan_reports_empty() {
        assert!(FaultPlan::new().is_empty());
        assert!(!FaultPlan::new().drop_message(1).is_empty());
        assert!(!FaultPlan::new().sever_connection(0, 1, 0).is_empty());
        assert!(!FaultPlan::new().throttle_link(0, 1, 5).is_empty());
        assert!(!FaultPlan::new()
            .partition_worker(0, 0, Duration::from_millis(1))
            .is_empty());
    }

    #[test]
    fn sever_trigger_fires_once_per_link_frame() {
        let s = FaultState::new(FaultPlan::new().sever_connection(0, 1, 2));
        assert!(!s.should_sever(0, 1, 1));
        assert!(!s.should_sever(1, 0, 2), "wrong direction");
        assert!(s.should_sever(0, 1, 3), "fires at or after the index");
        assert!(!s.should_sever(0, 1, 4), "one-shot");
    }

    #[test]
    fn partition_arms_on_send_index_and_expires() {
        let clock = Arc::new(s2_obs::ManualClock::new());
        let s = FaultState::with_clock(
            FaultPlan::new().partition_worker(1, 1, Duration::from_millis(40)),
            clock.clone(),
        );
        assert!(!s.partition_active(0, 1), "not armed yet");
        s.next_send_index(); // 0
        assert!(!s.partition_active(0, 1));
        s.next_send_index(); // 1: trigger
        assert!(s.partition_active(0, 1));
        assert!(s.partition_active(1, 0));
        assert!(!s.partition_active(0, 2), "uninvolved link unaffected");
        clock.advance(Duration::from_millis(39));
        assert!(s.partition_active(0, 1), "window still open");
        clock.advance(Duration::from_millis(2));
        assert!(!s.partition_active(0, 1), "window elapsed");
    }

    #[test]
    fn fail_link_is_a_model_level_trigger() {
        let plan = FaultPlan::new().fail_link(NodeId(1), NodeId(2));
        assert!(!plan.is_empty());
        assert_eq!(plan.failed_links(), &[(NodeId(1), NodeId(2))]);
        // No runtime trigger: FaultState carries it passively.
        let s = FaultState::new(plan);
        assert!(!s.should_kill(1, 1));
        assert_eq!(s.plan().failed_links().len(), 1);
    }

    #[test]
    fn daemon_crash_trigger_fires_once_per_phase() {
        let s = FaultState::new(
            FaultPlan::new()
                .crash_daemon(DaemonPhase::Commit)
                .crash_daemon(DaemonPhase::Replay),
        );
        assert!(!s.should_crash_daemon(DaemonPhase::Validate));
        assert!(s.should_crash_daemon(DaemonPhase::Replay));
        assert!(!s.should_crash_daemon(DaemonPhase::Replay), "one-shot");
        assert!(s.should_crash_daemon(DaemonPhase::Commit));
        assert!(!s.should_crash_daemon(DaemonPhase::Commit), "one-shot");
    }

    #[test]
    fn admin_and_checkpoint_triggers_index_deterministically() {
        let s = FaultState::new(
            FaultPlan::new()
                .drop_admin_conn(1)
                .corrupt_checkpoint(0)
                .corrupt_checkpoint(2),
        );
        assert!(!s.plan().is_empty());
        assert_eq!(s.next_admin_index(), 0);
        assert_eq!(s.next_admin_index(), 1);
        assert!(s.drops_admin_conn(1) && !s.drops_admin_conn(0));
        assert_eq!(s.next_checkpoint_index(), 0);
        assert!(s.corrupts_checkpoint(0));
        assert!(!s.corrupts_checkpoint(1));
        assert!(s.corrupts_checkpoint(2));
    }

    #[test]
    fn throttle_applies_per_directed_link() {
        let s = FaultState::new(FaultPlan::new().throttle_link(0, 1, 7));
        assert_eq!(s.throttle_of(0, 1), Some(7));
        assert_eq!(s.throttle_of(1, 0), None);
    }
}
