//! The delta engine: the one place where a delta becomes work.
//!
//! A [`WarmFleet`] is a verifier whose fleet is held **warm** for one
//! standing query (converged switches, compiled predicates, the full
//! baseline DPV outcome, a scenario checkpoint on every worker).
//! Re-verifying a perturbation of it is a few *steps* — `begin`,
//! `reconverge`, `check`, `restore_baseline` — that callers sequence
//! themselves, so no step ever asks who called it; what the sweep and
//! the daemon share beyond the steps is the *retry policy*,
//! [`WarmFleet::fenced`]. See DESIGN.md, "Delta engine".

use crate::query::VerificationRequest;
use crate::verifier::{S2Error, S2Verifier};
use s2_net::topology::{InterfaceId, NodeId};
use s2_obs::{Deadline, Stopwatch};
use s2_routing::RibSnapshot;
use s2_runtime::{
    Cluster, ClusterOptions, DpvQuery, DpvRunStats, PatchStage, RuntimeError, ScenarioPass,
};
use std::borrow::Borrow;
use std::sync::Arc;
use std::time::Duration;

/// The warm baseline a fleet re-verifies against.
pub(crate) struct WarmBaseline {
    /// Converged RIBs: every scenario RIB is this one with the rows the
    /// workers patched.
    pub(crate) rib: Arc<RibSnapshot>,
    /// Full baseline DPV outcome (verdict sets, unreachable pairs,
    /// multipath violations).
    pub(crate) dpv: DpvRunStats,
    /// Milliseconds to build (control plane + DPV + checkpoint).
    pub(crate) ms: f64,
}

/// Why one attempt failed, for retry classification.
#[derive(Debug)]
pub(crate) enum ScenarioFail {
    /// A worker crashed or hung: recover, re-warm, retry.
    Lost(RuntimeError),
    /// The fence's deadline expired: the whole budget is spent.
    Deadline,
    /// Not retryable (OOM, non-convergence, protocol bug): give up
    /// with this reason.
    Fatal(String),
    /// An injected daemon crash point fired (fault injection only).
    /// The fence unwinds at once and leaves the fleet exactly as the
    /// crash found it, like the `kill -9` it stands for.
    Crash,
}

impl ScenarioFail {
    /// `Err(Deadline)` once `deadline` has passed — callers place this
    /// between steps.
    pub(crate) fn if_expired(deadline: &Deadline) -> Result<(), ScenarioFail> {
        if deadline.expired() {
            Err(ScenarioFail::Deadline)
        } else {
            Ok(())
        }
    }
}

fn classify(e: RuntimeError) -> ScenarioFail {
    match e {
        RuntimeError::WorkerLost { .. } => ScenarioFail::Lost(e),
        RuntimeError::OutOfMemory { .. } => ScenarioFail::Fatal("oom".into()),
        RuntimeError::NotConverged { .. } => ScenarioFail::Fatal("not-converged".into()),
        other => ScenarioFail::Fatal(format!("runtime-error: {other}")),
    }
}

/// Deterministic retry backoff: exponential in the attempt number with
/// a jitter derived from the attempt (no RNG, so chaos runs reproduce
/// exactly), in the `s2_runtime::tcp` reconnect style. The fence caps
/// the result at its remaining budget.
fn retry_backoff(base: Duration, attempt: usize) -> Duration {
    let base = base.max(Duration::from_millis(1));
    let exp = base.saturating_mul(1u32 << attempt.min(6) as u32);
    let jitter_ms = (attempt as u64).wrapping_mul(7919) % (base.as_millis().max(1) as u64);
    exp + Duration::from_millis(jitter_ms)
}

/// The budget of one [`WarmFleet::fenced`] run.
pub(crate) struct FenceBudget {
    /// Total wall clock for all attempts, backoff sleeps included.
    pub(crate) deadline: Duration,
    /// Retries after a lost worker before giving up.
    pub(crate) max_retries: usize,
    /// Base sleep between attempts (see [`retry_backoff`]).
    pub(crate) backoff: Duration,
    /// Flight-recorder trigger dumped when an attempt loses a worker.
    pub(crate) lost_dump: &'static str,
}

/// A fenced run that produced no result.
#[derive(Debug)]
pub(crate) struct FenceFail {
    /// Why (`"deadline"`, `"oom"`, `"worker-lost: …"`, …).
    pub(crate) reason: String,
    /// Attempts spent, the failing one included.
    pub(crate) attempts: usize,
}

/// A verifier plus everything that makes its fleet warm for one
/// standing query. Its checkpoint is the warm-up state until
/// [`WarmFleet::commit`] makes a verified scenario the next one; the
/// steps below diff and splice against whichever it holds, and the
/// warm baseline stays the warm-up outcome. `V` is `S2Verifier` where
/// the fleet is owned (the daemon swaps whole fleets on escalation) and
/// `&S2Verifier` where it is borrowed for one call (a sweep).
pub(crate) struct WarmFleet<V: Borrow<S2Verifier> = S2Verifier> {
    verifier: V,
    copts: ClusterOptions,
    query: DpvQuery,
    baseline: WarmBaseline,
}

impl<V: Borrow<S2Verifier>> WarmFleet<V> {
    /// Warms `verifier`'s fleet for `request`. On failure the verifier
    /// comes back with the error so an owning caller can shut it down.
    pub(crate) fn warm_up(
        verifier: V,
        request: &VerificationRequest,
    ) -> Result<Self, (V, S2Error)> {
        let copts = verifier.borrow().cluster_opts();
        let query = request.dpv_query();
        match build_baseline(verifier.borrow(), &query, &copts) {
            Ok(baseline) => Ok(WarmFleet { verifier, copts, query, baseline }),
            Err(e) => Err((verifier, e)),
        }
    }

    /// Rebuilds the warm baseline in place (after [`Cluster::recover`]
    /// respawned workers whose control plane is cold).
    pub(crate) fn rewarm(&mut self) -> Result<(), S2Error> {
        self.baseline = build_baseline(self.verifier.borrow(), &self.query, &self.copts)?;
        Ok(())
    }

    /// The verifier whose fleet this is.
    pub(crate) fn verifier(&self) -> &S2Verifier {
        self.verifier.borrow()
    }

    /// Gives the verifier back (to shut an owned fleet down).
    pub(crate) fn into_verifier(self) -> V {
        self.verifier
    }

    /// The baseline every step diffs and splices against.
    pub(crate) fn baseline(&self) -> &WarmBaseline {
        &self.baseline
    }

    fn cluster(&self) -> &Cluster {
        &self.verifier().cluster
    }

    /// Warm verification cannot replay an IGP topology change (only
    /// the BGP fix point runs warm), so failing a port that carries an
    /// OSPF adjacency is outside what the steps below can verify.
    pub(crate) fn ospf_gate(&self, ports: &[(NodeId, InterfaceId)]) -> Option<String> {
        let ospf_adj = &self.verifier().model.ospf_adj;
        ports
            .iter()
            .any(|&(n, i)| {
                ospf_adj
                    .get(n.index())
                    .is_some_and(|adj| adj.iter().any(|a| a.local_if == i))
            })
            .then(|| "ospf-adjacency-on-failed-link".into())
    }

    /// Step: put the fleet on its checkpoint and make `ports` (besides
    /// the model-level failures) exactly the failed ports: a port failed
    /// at the checkpoint and not in `ports` is repaired.
    pub(crate) fn begin(&self, ports: &[(NodeId, InterfaceId)]) -> Result<(), ScenarioFail> {
        self.cluster().scenario_begin(ports).map_err(classify)
    }

    /// Step: replay the warm BGP fix point; returns the rounds taken.
    /// What it converged to stays on the workers until [`Self::check`].
    pub(crate) fn reconverge(&self) -> Result<usize, ScenarioFail> {
        self.cluster().run_warm_fixpoint(&self.copts).map_err(classify)
    }

    /// Step: re-check the data plane at `stage` with `ports` masked:
    /// the transient stage under the baseline rows, the reconverged one
    /// recompiling only the rows that moved off the baseline. Either
    /// re-verifies only the destination space the stage perturbs, and
    /// returns the stage's RIB with its outcome.
    pub(crate) fn check(
        &self,
        stage: PatchStage,
        ports: &[(NodeId, InterfaceId)],
    ) -> Result<ScenarioPass, ScenarioFail> {
        self.cluster()
            .run_scenario_dpv(stage, ports.to_vec(), &self.query)
            .map_err(classify)
    }

    /// Step: commit the scenario `pass` verified. The fleet's current
    /// state becomes its checkpoint, so the next [`Self::begin`]
    /// restores it and replays only what differs from it. If a worker
    /// is lost on the way the fleet is recovered and re-warmed, which
    /// leaves the warm-up checkpoint; a begin with the whole set of
    /// failed ports replays from that one just as well.
    pub(crate) fn commit(&mut self, pass: &ScenarioPass) -> Result<(), S2Error> {
        if self.cluster().scenario_commit(&pass.rib).is_ok() {
            return Ok(());
        }
        s2_obs::recorder::dump("delta-commit-worker-lost");
        self.cluster().recover()?;
        self.rewarm()
    }

    /// Step: return the fleet to its checkpoint — fence (discard every
    /// in-flight frame of the finished or aborted scenario), then
    /// restore the checkpoint and clear the pass's forwarding state.
    pub(crate) fn restore_baseline(&self) -> Result<(), RuntimeError> {
        self.cluster().fence()?;
        self.cluster().scenario_rollback()
    }

    /// Runs `attempt` inside a fence — the only copy of the retry
    /// policy:
    ///
    /// | attempt outcome | fleet | next |
    /// |---|---|---|
    /// | `Ok` | left as the attempt left it | return it |
    /// | `Lost`, or any failure whose restore fails | restore, recover, re-warm | retry while `≤ max_retries`, else `worker-lost: …` |
    /// | `Deadline` | restored | give up: `deadline` |
    /// | `Fatal(reason)` | restored | give up: `reason` |
    /// | `Crash` | untouched | give up at once |
    ///
    /// One deadline covers every attempt and every (jittered,
    /// exponential) backoff sleep, so retries never overshoot the
    /// budget. A failed recovery or re-warm is final.
    pub(crate) fn fenced<T>(
        &mut self,
        budget: &FenceBudget,
        mut attempt: impl FnMut(&Self, &Deadline) -> Result<T, ScenarioFail>,
    ) -> Result<T, FenceFail> {
        let fence = Deadline::after(budget.deadline);
        let mut attempts = 0;
        loop {
            attempts += 1;
            let give_up = |reason: String| FenceFail { reason, attempts };
            let final_reason = match attempt(self, &fence) {
                Ok(value) => return Ok(value),
                Err(ScenarioFail::Crash) => return Err(give_up("crash".into())),
                Err(ScenarioFail::Lost(e)) => Err(e),
                Err(ScenarioFail::Deadline) => Ok("deadline".to_string()),
                Err(ScenarioFail::Fatal(reason)) => Ok(reason),
            };
            // Whatever failed, nothing else may touch the fleet before
            // the aborted scenario's frames are fenced off and the
            // baseline is back.
            let lost = match (final_reason, self.restore_baseline()) {
                (Ok(reason), Ok(())) => return Err(give_up(reason)),
                (Err(e), _) | (Ok(_), Err(e)) => e,
            };
            // The warm state died with the worker, and without it the
            // next scenario would silently go cold: recover, re-warm,
            // and retry for a verdict over an intact baseline.
            s2_obs::recorder::dump(budget.lost_dump);
            s2_obs::event!("delta.abort", attempts);
            if let Err(e) = self.cluster().recover() {
                return Err(give_up(format!("unrecoverable: {e}")));
            }
            if let Err(e) = self.rewarm() {
                return Err(give_up(format!("re-warm failed: {e}")));
            }
            if attempts > budget.max_retries {
                return Err(give_up(format!("worker-lost: {lost}")));
            }
            if fence.expired() {
                return Err(give_up("deadline".into()));
            }
            std::thread::sleep(retry_backoff(budget.backoff, attempts).min(fence.remaining()));
        }
    }
}

/// Builds the warm baseline: OSPF, a single-shard warm control plane,
/// the full baseline DPV, and a scenario checkpoint on every worker.
///
/// Sharding is forced to 1 regardless of `S2Options::shards`: warm
/// incremental re-verification needs every worker's in-memory state to
/// cover all prefixes at once, which a multi-shard schedule only
/// guarantees for the last shard.
fn build_baseline(
    verifier: &S2Verifier,
    query: &DpvQuery,
    copts: &ClusterOptions,
) -> Result<WarmBaseline, S2Error> {
    let _span = s2_obs::span!("sweep.warm_up");
    let sw = Stopwatch::start();
    let cluster = &verifier.cluster;
    let mut attempts = verifier.opts.runtime.max_recoveries + 1;
    loop {
        attempts -= 1;
        let run = || -> Result<WarmBaseline, RuntimeError> {
            // Survivors may still carry the failed interfaces of an
            // aborted or a committed scenario; give every switch the
            // model's own failure set before the cold rebuild (a no-op
            // on freshly respawned workers).
            cluster.scenario_begin(&[])?;
            cluster.run_ospf(copts)?;
            let plan = cluster.plan_shards(1, verifier.opts.shard_seed)?;
            let rib = Arc::new(cluster.run_control_plane(&plan, copts)?.0);
            let dpv = cluster.run_dpv(rib.clone(), query, copts)?;
            if dpv.recoveries > 0 {
                // A worker died inside DPV: its replay restored the
                // forwarding state but the respawned worker's control
                // plane is cold, which would corrupt warm fix points.
                // Rebuild from the top.
                return Err(RuntimeError::WorkerLost {
                    worker: u32::MAX,
                    during: "warm-up-dpv",
                });
            }
            cluster.scenario_checkpoint(&rib)?;
            Ok(WarmBaseline {
                rib,
                dpv,
                ms: sw.elapsed().as_secs_f64() * 1000.0,
            })
        };
        match run() {
            Ok(b) => return Ok(b),
            Err(RuntimeError::WorkerLost { .. }) if attempts > 0 => {
                s2_obs::recorder::dump("sweep-warm-up-retry");
                cluster.recover()?;
            }
            Err(e) => return Err(e.into()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::tests::fattree_request;
    use crate::verifier::S2Options;
    use s2_routing::NetworkModel;
    use s2_topogen::fattree::{generate, FatTreeParams};

    #[test]
    fn retry_backoff_is_deterministic_exponential_and_jittered() {
        let base = Duration::from_millis(100);
        // Deterministic: same attempt, same sleep.
        assert_eq!(retry_backoff(base, 1), retry_backoff(base, 1));
        // Exponential growth.
        assert!(retry_backoff(base, 3) >= 2 * retry_backoff(base, 1) - Duration::from_millis(100));
        // Jitter: consecutive attempts never collapse onto one value.
        assert_ne!(retry_backoff(base, 1), retry_backoff(base, 2));
        // Saturates instead of overflowing.
        assert!(retry_backoff(base, usize::MAX) > retry_backoff(base, 1));
        // A zero base stays schedulable.
        assert!(retry_backoff(Duration::ZERO, 5) > Duration::ZERO);
    }

    const BUDGET: FenceBudget = FenceBudget {
        deadline: Duration::from_secs(60),
        max_retries: 2,
        backoff: Duration::from_millis(1),
        lost_dump: "test-fence-lost",
    };

    fn lost() -> ScenarioFail {
        ScenarioFail::Lost(RuntimeError::WorkerLost { worker: 1, during: "scripted" })
    }

    /// Runs a fence whose every attempt fails with `fail()`; returns
    /// the give-up reason, the attempts reported, and the calls made.
    fn always(fleet: &mut WarmFleet, fail: fn() -> ScenarioFail) -> (String, usize, usize) {
        let mut calls = 0;
        let out = fleet.fenced(&BUDGET, |_, _| -> Result<(), _> {
            calls += 1;
            Err(fail())
        });
        let fail = out.unwrap_err();
        (fail.reason, fail.attempts, calls)
    }

    /// The one retry policy, driven with scripted attempts on a real
    /// k=4 fleet: the fleet stays healthy throughout, so every
    /// recover/re-warm below is the fence's own doing.
    #[test]
    fn fenced_applies_the_retry_policy_to_scripted_attempts() {
        let ft = generate(FatTreeParams::new(4));
        let model = NetworkModel::build(ft.topology.clone(), ft.configs.clone()).unwrap();
        let opts = S2Options { workers: 2, ..Default::default() };
        let verifier = S2Verifier::new(model, &opts).unwrap();
        let mut fleet = WarmFleet::warm_up(verifier, &fattree_request(&ft))
            .map_err(|(_, e)| e)
            .unwrap();
        let rib_before = fleet.baseline().rib.clone();
        let verdicts_before = fleet.baseline().dpv.verdict_sets.clone();

        // `Lost` once, then `Ok`: one retry, hence exactly one recover
        // + re-warm, and the rebuilt baseline is byte-identical to the
        // pre-failure one.
        let mut calls = 0;
        let out = fleet.fenced(&BUDGET, |_, _| {
            calls += 1;
            if calls == 1 { Err(lost()) } else { Ok(calls) }
        });
        assert_eq!((out.unwrap(), calls), (2, 2));
        let rewarmed = fleet.baseline().rib.clone();
        assert!(!Arc::ptr_eq(&rewarmed, &rib_before), "a lost worker must re-warm");
        assert_eq!(*rewarmed, *rib_before);
        assert_eq!(fleet.baseline().dpv.verdict_sets, verdicts_before);

        // `Deadline`, `Fatal` and `Crash` are final: one attempt each,
        // the reason passed through, no re-warm.
        assert_eq!(always(&mut fleet, || ScenarioFail::Deadline), ("deadline".into(), 1, 1));
        assert_eq!(always(&mut fleet, || ScenarioFail::Fatal("oom".into())), ("oom".into(), 1, 1));
        assert_eq!(always(&mut fleet, || ScenarioFail::Crash), ("crash".into(), 1, 1));
        assert!(Arc::ptr_eq(&fleet.baseline().rib, &rewarmed));

        // `Lost` forever: `max_retries + 1` attempts, then give up —
        // with the fleet re-warmed for the next caller.
        let (reason, attempts, calls) = always(&mut fleet, lost);
        assert_eq!((attempts, calls), (3, 3));
        assert!(reason.starts_with("worker-lost:"), "{reason}");
        assert_eq!(fleet.baseline().dpv.verdict_sets, verdicts_before);

        fleet.into_verifier().shutdown();
    }
}
