//! Resilience sweeps: every ≤k link-failure scenario, re-verified
//! incrementally over a warm runtime.
//!
//! A sweep runs the baseline verification once and keeps the fleet's
//! state warm (converged switches, compiled forwarding predicates, a
//! scenario checkpoint). Each failure scenario is then resolved without
//! a cold restart:
//!
//! 1. **Impact classification** — scenarios whose failed links the
//!    baseline never forwards over are *baseline-equivalent* (no
//!    verdict can change); scenarios with the same relevant link set
//!    share one re-verification ([`s2_shard::impact`]).
//! 2. **Transient stage** — the failed ports are masked in the
//!    forwarding step against the *baseline* predicates: the data
//!    plane before the control plane reacts.
//! 3. **Reconverged stage** — the warm BGP fix point replays only the
//!    deltas the failure induces (no `BgpBegin` reset), the RIB is
//!    diffed against the baseline, and only the changed nodes'
//!    predicates are recompiled before the data plane is re-checked.
//!
//! Stages 2 and 3 are steps of the delta engine ([`crate::delta`]),
//! run inside its fence; the sweep adds the rollback after every
//! scenario and the verdict diff. Scenarios that exhaust the fence (or
//! hit conditions the warm path cannot verify, e.g. an OSPF adjacency
//! on a failed link) degrade gracefully to `undetermined(reason)`
//! instead of failing the sweep.

use crate::delta::{FenceBudget, ScenarioFail, WarmFleet};
use crate::query::VerificationRequest;
use crate::verifier::{S2Error, S2Verifier};
use s2_dataplane::{verdict_delta, PacketSpace};
use s2_net::topology::{InterfaceId, NodeId};
use s2_obs::json::{parse_json, push_f64, push_str, Json};
use s2_obs::Stopwatch;
use s2_runtime::{DpvRunStats, PatchStage};
use s2_shard::dpdg::Dpdg;
use s2_shard::impact::{link_key, scenario_impact, LinkUsage};
pub use s2_shard::impact::LinkKey;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::time::Duration;

/// Scenario-fencing and enumeration options for a resilience sweep.
#[derive(Debug, Clone)]
pub struct SweepOptions {
    /// Maximum simultaneous link failures per scenario (the `k` in
    /// "≤k failures"). Scenario count grows as `C(links, 1) + … +
    /// C(links, k)`.
    pub max_failures: usize,
    /// Total wall-clock budget per scenario, **all retries and backoff
    /// sleeps included**. A blown deadline rolls the fleet back to the
    /// warm baseline and degrades the scenario to `undetermined` — the
    /// fence is shared across attempts, so retries can never overshoot
    /// it.
    pub scenario_deadline: Duration,
    /// Retries after a failed attempt before the scenario degrades to
    /// `undetermined`.
    pub max_retries: usize,
    /// Base sleep between retry attempts; the actual sleep grows
    /// exponentially with the attempt, carries deterministic jitter,
    /// and is capped at the fence's remaining budget.
    pub retry_backoff: Duration,
}

impl Default for SweepOptions {
    fn default() -> Self {
        SweepOptions {
            max_failures: 1,
            scenario_deadline: Duration::from_secs(30),
            max_retries: 2,
            retry_backoff: Duration::from_millis(100),
        }
    }
}

/// Enumerates every non-empty failure set of at most `max_failures`
/// links out of `num_links`, as sorted index vectors in lexicographic
/// order grouped by size. Every set appears exactly once.
pub fn enumerate_failure_sets(num_links: usize, max_failures: usize) -> Vec<Vec<usize>> {
    let mut out = Vec::new();
    for size in 1..=max_failures.min(num_links) {
        let mut combo: Vec<usize> = (0..size).collect();
        'combos: loop {
            out.push(combo.clone());
            // Advance to the next combination: bump the rightmost index
            // that still has room, reset everything after it.
            let mut i = size;
            while i > 0 {
                i -= 1;
                if combo[i] < num_links - size + i {
                    combo[i] += 1;
                    for j in i + 1..size {
                        combo[j] = combo[j - 1] + 1;
                    }
                    continue 'combos;
                }
            }
            break;
        }
    }
    out
}

/// Per-property verdict changes of one scenario stage relative to the
/// warm baseline.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StageDelta {
    /// Sources with headers that blackhole under the scenario but not
    /// in the baseline.
    pub new_blackholes: Vec<NodeId>,
    /// Sources with headers that loop under the scenario but not in
    /// the baseline.
    pub new_loops: Vec<NodeId>,
    /// Sources whose baseline-arriving headers no longer all arrive.
    pub lost_arrivals: Vec<NodeId>,
    /// `(src, dst)` pairs unreachable under the scenario but reachable
    /// in the baseline.
    pub new_unreachable: Vec<(NodeId, NodeId)>,
    /// Sources with multipath-consistency violations absent from the
    /// baseline.
    pub new_multipath: Vec<NodeId>,
}

impl StageDelta {
    /// Whether every baseline verdict survived this stage.
    pub fn is_clean(&self) -> bool {
        self.reachability_ok()
            && self.blackhole_free()
            && self.loop_free()
            && self.multipath_ok()
    }

    /// Reachability survived (no lost arrivals, no new unreachable
    /// pairs).
    pub fn reachability_ok(&self) -> bool {
        self.lost_arrivals.is_empty() && self.new_unreachable.is_empty()
    }

    /// Blackhole-freedom survived.
    pub fn blackhole_free(&self) -> bool {
        self.new_blackholes.is_empty()
    }

    /// Loop-freedom survived.
    pub fn loop_free(&self) -> bool {
        self.new_loops.is_empty()
    }

    /// Multipath consistency survived.
    pub fn multipath_ok(&self) -> bool {
        self.new_multipath.is_empty()
    }
}

/// The verdict of an executed (representative) scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioVerdict {
    /// Warm BGP fix-point rounds the failure induced.
    pub warm_rounds: usize,
    /// Verdict changes before the control plane reacts (failed ports
    /// masked against baseline predicates).
    pub transient: StageDelta,
    /// Verdict changes after warm reconvergence.
    pub reconverged: StageDelta,
    /// Wall-clock milliseconds for the successful attempt.
    pub elapsed_ms: f64,
}

/// How a scenario was resolved.
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioStatus {
    /// Executed end to end. Boxed: the verdict dwarfs the other
    /// variants and outcomes are stored per enumerated scenario.
    Resolved(Box<ScenarioVerdict>),
    /// Impact-equivalent to an earlier scenario; shares the verdict of
    /// `outcomes[i]`.
    SharedWith(usize),
    /// No baseline path crosses any failed link: every verdict is
    /// provably unchanged, nothing to execute.
    BaselineEquivalent,
    /// The scenario could not be verified within its fence. The warm
    /// state was rolled back; the sweep continued.
    Undetermined {
        /// Why (e.g. `"deadline"`, `"oom"`, `"worker-lost: …"`).
        reason: String,
        /// Attempts spent before degrading.
        attempts: usize,
    },
}

/// One enumerated scenario and its resolution.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioOutcome {
    /// The failed links.
    pub links: Vec<LinkKey>,
    /// The resolution.
    pub status: ScenarioStatus,
}

/// Survival counts of one property across the sweep.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageSurvival {
    /// Scenarios where the property survived the transient stage.
    pub transient: usize,
    /// Scenarios where the property survived reconvergence.
    pub reconverged: usize,
    /// Scenarios with a determinable verdict (everything but
    /// `undetermined`).
    pub evaluated: usize,
}

/// Per-property survival across all evaluated scenarios.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PropertySurvival {
    /// All-pairs reachability.
    pub reachability: StageSurvival,
    /// Blackhole-freedom.
    pub blackhole_freedom: StageSurvival,
    /// Loop-freedom.
    pub loop_freedom: StageSurvival,
    /// Multipath consistency.
    pub multipath_consistency: StageSurvival,
}

/// The result of a resilience sweep.
#[derive(Debug, Clone)]
pub struct ResilienceReport {
    /// The `k` the sweep enumerated up to.
    pub max_failures: usize,
    /// Links in the topology.
    pub link_count: usize,
    /// Distinct impact-equivalence classes actually executed.
    pub class_count: usize,
    /// Scenarios resolved without execution (no used link failed).
    pub baseline_equivalent: usize,
    /// Scenarios sharing an earlier class representative's verdict.
    pub shared: usize,
    /// Scenarios that degraded to `undetermined`.
    pub undetermined: usize,
    /// Every scenario, in enumeration order.
    pub outcomes: Vec<ScenarioOutcome>,
    /// Per-property survival over the evaluated scenarios.
    pub survival: PropertySurvival,
    /// Subset-minimal failure sets whose *reconverged* stage breaks at
    /// least one property — the network's true resilience gaps (purely
    /// transient breakage heals on its own).
    pub minimal_breaking: Vec<Vec<LinkKey>>,
    /// Wall-clock milliseconds of the warm baseline (control plane +
    /// full DPV + checkpoint).
    pub baseline_ms: f64,
    /// Wall-clock milliseconds of the whole sweep, baseline included.
    pub sweep_ms: f64,
}

impl ResilienceReport {
    /// Total enumerated scenarios.
    pub fn scenario_count(&self) -> usize {
        self.outcomes.len()
    }

    /// Scenarios resolved per second, baseline excluded.
    pub fn scenarios_per_sec(&self) -> f64 {
        let post = (self.sweep_ms - self.baseline_ms).max(1e-9) / 1000.0;
        self.outcomes.len() as f64 / post
    }

    /// What re-verifying every scenario with a cold full run would have
    /// cost (scenario count × baseline time) — the yardstick the warm
    /// sweep must beat.
    pub fn est_serial_full_ms(&self) -> f64 {
        self.outcomes.len() as f64 * self.baseline_ms
    }

    /// Speedup of the warm sweep over the serial-full estimate.
    pub fn speedup_vs_serial_full(&self) -> f64 {
        self.est_serial_full_ms() / self.sweep_ms.max(1e-9)
    }

    /// The effective verdict of `outcomes[i]`, following `SharedWith`
    /// references to the class representative.
    pub fn effective_status(&self, i: usize) -> &ScenarioStatus {
        match &self.outcomes[i].status {
            ScenarioStatus::SharedWith(rep) => &self.outcomes[*rep].status,
            other => other,
        }
    }

    /// One-line human summary.
    pub fn summary(&self) -> String {
        format!(
            "sweep k<={}: {} scenarios ({} classes, {} baseline-equivalent, {} shared, \
             {} undetermined), {} minimal breaking set(s), {:.1}ms baseline, {:.1}ms total \
             ({:.2} scenarios/s, {:.1}x vs serial full re-verify)",
            self.max_failures,
            self.outcomes.len(),
            self.class_count,
            self.baseline_equivalent,
            self.shared,
            self.undetermined,
            self.minimal_breaking.len(),
            self.baseline_ms,
            self.sweep_ms,
            self.scenarios_per_sec(),
            self.speedup_vs_serial_full(),
        )
    }

    /// Serializes the report as `s2-resilience-report/v1` JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(4096 + self.outcomes.len() * 128);
        out.push_str("{\n  \"schema\": \"s2-resilience-report/v1\",\n");
        let _ = writeln!(out, "  \"max_failures\": {},", self.max_failures);
        let _ = writeln!(out, "  \"links\": {},", self.link_count);
        let _ = writeln!(out, "  \"scenarios\": {},", self.outcomes.len());
        let _ = writeln!(out, "  \"classes\": {},", self.class_count);
        let _ = writeln!(
            out,
            "  \"baseline_equivalent\": {},",
            self.baseline_equivalent
        );
        let _ = writeln!(out, "  \"shared\": {},", self.shared);
        let _ = writeln!(out, "  \"undetermined\": {},", self.undetermined);
        out.push_str("  \"baseline_ms\": ");
        push_f64(&mut out, self.baseline_ms);
        out.push_str(",\n  \"sweep_ms\": ");
        push_f64(&mut out, self.sweep_ms);
        out.push_str(",\n  \"scenarios_per_sec\": ");
        push_f64(&mut out, self.scenarios_per_sec());
        out.push_str(",\n  \"est_serial_full_ms\": ");
        push_f64(&mut out, self.est_serial_full_ms());
        out.push_str(",\n  \"speedup_vs_serial_full\": ");
        push_f64(&mut out, self.speedup_vs_serial_full());
        out.push_str(",\n  \"survival\": {\n");
        let props = [
            ("reachability", &self.survival.reachability),
            ("blackhole_freedom", &self.survival.blackhole_freedom),
            ("loop_freedom", &self.survival.loop_freedom),
            ("multipath_consistency", &self.survival.multipath_consistency),
        ];
        for (i, (name, s)) in props.iter().enumerate() {
            let _ = writeln!(
                out,
                "    \"{name}\": {{\"transient\": {}, \"reconverged\": {}, \"evaluated\": {}}}{}",
                s.transient,
                s.reconverged,
                s.evaluated,
                if i + 1 < props.len() { "," } else { "" }
            );
        }
        out.push_str("  },\n  \"minimal_breaking\": [");
        for (i, set) in self.minimal_breaking.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            push_links(&mut out, set);
        }
        out.push_str("],\n  \"outcomes\": [\n");
        for (i, o) in self.outcomes.iter().enumerate() {
            out.push_str("    {\"links\": ");
            push_links(&mut out, &o.links);
            match &o.status {
                ScenarioStatus::Resolved(v) => {
                    let _ = write!(
                        out,
                        ", \"status\": \"resolved\", \"warm_rounds\": {}, \"ms\": ",
                        v.warm_rounds
                    );
                    push_f64(&mut out, v.elapsed_ms);
                    let _ = write!(
                        out,
                        ", \"transient_clean\": {}, \"reconverged_clean\": {}",
                        v.transient.is_clean(),
                        v.reconverged.is_clean()
                    );
                }
                ScenarioStatus::SharedWith(rep) => {
                    let _ = write!(out, ", \"status\": \"shared\", \"with\": {rep}");
                }
                ScenarioStatus::BaselineEquivalent => {
                    out.push_str(", \"status\": \"baseline-equivalent\"");
                }
                ScenarioStatus::Undetermined { reason, attempts } => {
                    out.push_str(", \"status\": \"undetermined\", \"reason\": ");
                    push_str(&mut out, reason);
                    let _ = write!(out, ", \"attempts\": {attempts}");
                }
            }
            out.push('}');
            if i + 1 < self.outcomes.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// Writes a link set as `[[aNode, aIface, bNode, bIface], …]`.
fn push_links(out: &mut String, links: &[LinkKey]) {
    out.push('[');
    for (i, ((an, ai), (bn, bi))) in links.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "[{}, {}, {}, {}]", an.0, ai.0, bn.0, bi.0);
    }
    out.push(']');
}

/// A finite, non-negative number at `path`, or an error naming the
/// offending key path — durations and counts are never NaN or negative,
/// and a validator that only checks presence would wave those through.
fn checked_num(value: Option<&Json>, path: &str) -> Result<f64, String> {
    let n = value
        .and_then(Json::as_num)
        .ok_or_else(|| format!("{path}: missing or not a number"))?;
    if !n.is_finite() {
        return Err(format!("{path}: non-finite value"));
    }
    if n < 0.0 {
        return Err(format!("{path}: negative value ({n})"));
    }
    Ok(n)
}

/// Validates a parsed `s2-resilience-report/v1` document (used by the
/// CLI after writing and by the CI smoke job). Rejects NaN/negative
/// durations and counts, naming the offending key path.
pub fn validate(doc: &Json) -> Result<(), String> {
    match doc.get("schema").and_then(Json::as_str) {
        Some("s2-resilience-report/v1") => {}
        other => return Err(format!("bad schema field: {other:?}")),
    }
    for key in [
        "max_failures",
        "links",
        "scenarios",
        "classes",
        "baseline_equivalent",
        "shared",
        "undetermined",
        "baseline_ms",
        "sweep_ms",
        "scenarios_per_sec",
        "est_serial_full_ms",
        "speedup_vs_serial_full",
    ] {
        checked_num(doc.get(key), key)?;
    }
    let survival = doc.get("survival").ok_or("missing survival")?;
    for prop in [
        "reachability",
        "blackhole_freedom",
        "loop_freedom",
        "multipath_consistency",
    ] {
        let s = survival
            .get(prop)
            .ok_or_else(|| format!("missing survival.{prop}"))?;
        for stage in ["transient", "reconverged", "evaluated"] {
            checked_num(s.get(stage), &format!("survival.{prop}.{stage}"))?;
        }
    }
    let check_links = |value: &Json, what: &str| -> Result<(), String> {
        let arr = value.as_arr().ok_or_else(|| format!("{what} not an array"))?;
        for link in arr {
            let parts = link.as_arr().ok_or_else(|| format!("{what} link not an array"))?;
            if parts.len() != 4 || parts.iter().any(|p| p.as_num().is_none()) {
                return Err(format!("{what} link is not [node, iface, node, iface]"));
            }
        }
        Ok(())
    };
    for set in doc
        .get("minimal_breaking")
        .and_then(Json::as_arr)
        .ok_or("missing minimal_breaking array")?
    {
        check_links(set, "minimal_breaking")?;
    }
    let outcomes = doc
        .get("outcomes")
        .and_then(Json::as_arr)
        .ok_or("missing outcomes array")?;
    let scenarios = doc.get("scenarios").and_then(Json::as_num).unwrap_or(0.0);
    if outcomes.len() as f64 != scenarios {
        return Err(format!(
            "outcomes length {} != scenarios {scenarios}",
            outcomes.len()
        ));
    }
    for (i, o) in outcomes.iter().enumerate() {
        check_links(o.get("links").ok_or_else(|| format!("outcome {i}: no links"))?, "outcome")?;
        match o.get("status").and_then(Json::as_str) {
            Some("resolved") => {
                for key in ["warm_rounds", "ms"] {
                    checked_num(o.get(key), &format!("outcomes[{i}].{key}"))?;
                }
                for key in ["transient_clean", "reconverged_clean"] {
                    match o.get(key) {
                        Some(Json::Bool(_)) => {}
                        _ => return Err(format!("outcome {i}: resolved without bool {key}")),
                    }
                }
            }
            Some("shared") => {
                let with = checked_num(o.get("with"), &format!("outcomes[{i}].with"))?;
                if with < 0.0 || with >= i as f64 {
                    return Err(format!("outcome {i}: shared with {with} out of range"));
                }
            }
            Some("baseline-equivalent") => {}
            Some("undetermined") => {
                o.get("reason")
                    .and_then(Json::as_str)
                    .ok_or_else(|| format!("outcome {i}: undetermined without reason"))?;
            }
            other => return Err(format!("outcome {i}: bad status {other:?}")),
        }
    }
    Ok(())
}

/// Parses and validates a serialized report in one step.
pub fn validate_str(text: &str) -> Result<(), String> {
    validate(&parse_json(text)?)
}

/// Both endpoints of every failed link, as the runtime's port list.
pub(crate) fn scenario_ports(links: &[LinkKey]) -> Vec<(NodeId, InterfaceId)> {
    let mut ports: Vec<(NodeId, InterfaceId)> =
        links.iter().flat_map(|&(a, b)| [a, b]).collect();
    ports.sort_unstable();
    ports.dedup();
    ports
}

impl S2Verifier {
    /// Sweeps every ≤`opts.max_failures` link-failure scenario of the
    /// model's topology against `request`, reusing the warm runtime
    /// between scenarios.
    pub fn sweep(
        &self,
        request: &VerificationRequest,
        opts: &SweepOptions,
    ) -> Result<ResilienceReport, S2Error> {
        let links: Vec<LinkKey> = self.model.topology.links().iter().map(link_key).collect();
        let scenarios: Vec<Vec<LinkKey>> =
            enumerate_failure_sets(links.len(), opts.max_failures)
                .into_iter()
                .map(|set| set.into_iter().map(|i| links[i]).collect())
                .collect();
        self.sweep_scenarios(request, opts, &scenarios)
    }

    /// Sweeps an explicit scenario list (each scenario a set of failed
    /// links). [`S2Verifier::sweep`] enumerates and delegates here;
    /// tests use this to pin exact scenarios.
    pub fn sweep_scenarios(
        &self,
        request: &VerificationRequest,
        opts: &SweepOptions,
        scenarios: &[Vec<LinkKey>],
    ) -> Result<ResilienceReport, S2Error> {
        let _span = s2_obs::span!("sweep");
        let total = Stopwatch::start();
        let mut fleet = WarmFleet::warm_up(self, request).map_err(|(_, e)| e)?;
        let usage = LinkUsage::from_baseline(&fleet.baseline().rib);
        let (prefixes, aggregates, deps) = self.cluster.collect_prefixes()?;
        let dpdg = Dpdg::build_with_deps(&prefixes, &aggregates, &deps);
        // Verdict-set BDDs are decoded into a local manager sized like
        // the workers' packet space (one meta var per waypoint).
        let space = PacketSpace::new(request.transits.len() as u16);
        let mut manager = space.manager();
        let budget = FenceBudget {
            deadline: opts.scenario_deadline,
            max_retries: opts.max_retries,
            backoff: opts.retry_backoff,
            lost_dump: "scenario-abort:worker-lost",
        };

        let mut outcomes: Vec<ScenarioOutcome> = Vec::with_capacity(scenarios.len());
        let mut class_reps: BTreeMap<Vec<LinkKey>, usize> = BTreeMap::new();
        for scenario in scenarios {
            let impact = scenario_impact(scenario, &usage, &dpdg);
            let status = if impact.is_baseline_equivalent() {
                ScenarioStatus::BaselineEquivalent
            } else if let Some(&rep) = class_reps.get(&impact.relevant) {
                ScenarioStatus::SharedWith(rep)
            } else {
                let ports = scenario_ports(scenario);
                let status = if let Some(reason) = fleet.ospf_gate(&ports) {
                    ScenarioStatus::Undetermined { reason, attempts: 0 }
                } else {
                    run_scenario(&mut fleet, &budget, &ports, &mut manager)
                };
                // Later members of the class share this verdict either
                // way — re-running an undetermined representative would
                // just re-fail.
                class_reps.insert(impact.relevant.clone(), outcomes.len());
                status
            };
            outcomes.push(ScenarioOutcome {
                links: scenario.clone(),
                status,
            });
        }

        let report = assemble_report(
            opts.max_failures,
            self.model.topology.links().len(),
            class_reps.len(),
            outcomes,
            fleet.baseline().ms,
            total.elapsed().as_secs_f64() * 1000.0,
        );
        s2_obs::event!("sweep.done", report.outcomes.len());
        Ok(report)
    }
}

/// One fenced scenario. Each attempt fails the ports, checks the
/// transient data plane (baseline predicates, failure mask only),
/// replays the warm fix point, re-checks the reconverged data plane,
/// diffs both stages against the baseline, and rolls the fleet back —
/// so the next scenario, whatever happened to this one, starts from the
/// fenced warm baseline.
fn run_scenario(
    fleet: &mut WarmFleet<&S2Verifier>,
    budget: &FenceBudget,
    ports: &[(NodeId, InterfaceId)],
    manager: &mut s2_bdd::BddManager,
) -> ScenarioStatus {
    let outcome = fleet.fenced(budget, |fleet, deadline| {
        let sw = Stopwatch::start();
        let baseline = fleet.baseline();
        fleet.begin(ports)?;
        let transient = fleet.check(PatchStage::Transient, ports)?.dpv;
        ScenarioFail::if_expired(deadline)?;
        let warm_rounds = fleet.reconverge()?;
        ScenarioFail::if_expired(deadline)?;
        let reconverged = fleet.check(PatchStage::Reconverged, ports)?.dpv;
        ScenarioFail::if_expired(deadline)?;
        let verdict = ScenarioVerdict {
            warm_rounds,
            transient: stage_delta(manager, &baseline.dpv, &transient)?,
            reconverged: stage_delta(manager, &baseline.dpv, &reconverged)?,
            elapsed_ms: sw.elapsed().as_secs_f64() * 1000.0,
        };
        // A verdict from an attempt whose cleanup lost a worker is
        // still trustworthy, but the warm state is not: hand it to the
        // fence as a loss and retry over an intact baseline.
        fleet.restore_baseline().map_err(ScenarioFail::Lost)?;
        Ok(verdict)
    });
    match outcome {
        Ok(verdict) => ScenarioStatus::Resolved(Box::new(verdict)),
        Err(fail) => {
            if fail.reason == "deadline" {
                s2_obs::recorder::dump("scenario-abort:deadline");
            }
            ScenarioStatus::Undetermined {
                reason: fail.reason,
                attempts: fail.attempts,
            }
        }
    }
}

/// Diffs one stage's DPV outcome against the baseline.
pub(crate) fn stage_delta(
    manager: &mut s2_bdd::BddManager,
    baseline: &DpvRunStats,
    stage: &DpvRunStats,
) -> Result<StageDelta, ScenarioFail> {
    let vd = verdict_delta(manager, &baseline.verdict_sets, &stage.verdict_sets)
        .map_err(|e| ScenarioFail::Fatal(format!("verdict-delta: {e}")))?;
    let base_unreachable: BTreeSet<(NodeId, NodeId)> =
        baseline.unreachable_pairs.iter().copied().collect();
    let base_multipath: BTreeSet<NodeId> =
        baseline.multipath_violations.iter().copied().collect();
    Ok(StageDelta {
        new_blackholes: vd.new_blackholes,
        new_loops: vd.new_loops,
        lost_arrivals: vd.lost_arrivals,
        new_unreachable: stage
            .unreachable_pairs
            .iter()
            .filter(|p| !base_unreachable.contains(p))
            .copied()
            .collect(),
        new_multipath: stage
            .multipath_violations
            .iter()
            .filter(|n| !base_multipath.contains(n))
            .copied()
            .collect(),
    })
}

/// Folds outcomes into survival counts, minimal breaking sets, and the
/// final report.
fn assemble_report(
    max_failures: usize,
    link_count: usize,
    class_count: usize,
    outcomes: Vec<ScenarioOutcome>,
    baseline_ms: f64,
    sweep_ms: f64,
) -> ResilienceReport {
    let mut survival = PropertySurvival::default();
    let mut baseline_equivalent = 0;
    let mut shared = 0;
    let mut undetermined = 0;
    let mut breaking: Vec<BTreeSet<LinkKey>> = Vec::new();
    let clean = StageDelta::default();
    for o in outcomes.iter() {
        let effective = match &o.status {
            ScenarioStatus::SharedWith(rep) => {
                shared += 1;
                &outcomes[*rep].status
            }
            other => other,
        };
        let (transient, reconverged) = match effective {
            ScenarioStatus::Resolved(v) => (&v.transient, &v.reconverged),
            ScenarioStatus::BaselineEquivalent => {
                if matches!(o.status, ScenarioStatus::BaselineEquivalent) {
                    baseline_equivalent += 1;
                }
                (&clean, &clean)
            }
            ScenarioStatus::Undetermined { .. } => {
                undetermined += 1;
                continue;
            }
            ScenarioStatus::SharedWith(_) => unreachable!("representatives are never shared"),
        };
        for (s, t, r) in [
            (
                &mut survival.reachability,
                transient.reachability_ok(),
                reconverged.reachability_ok(),
            ),
            (
                &mut survival.blackhole_freedom,
                transient.blackhole_free(),
                reconverged.blackhole_free(),
            ),
            (
                &mut survival.loop_freedom,
                transient.loop_free(),
                reconverged.loop_free(),
            ),
            (
                &mut survival.multipath_consistency,
                transient.multipath_ok(),
                reconverged.multipath_ok(),
            ),
        ] {
            s.evaluated += 1;
            s.transient += t as usize;
            s.reconverged += r as usize;
        }
        if !reconverged.is_clean() {
            breaking.push(o.links.iter().copied().collect());
        }
    }
    // Subset-minimal breaking sets: drop any breaking set that strictly
    // contains another breaking set.
    let mut minimal: Vec<Vec<LinkKey>> = breaking
        .iter()
        .filter(|s| {
            !breaking
                .iter()
                .any(|t| t.len() < s.len() && t.is_subset(s))
        })
        .map(|s| s.iter().copied().collect())
        .collect();
    minimal.sort();
    minimal.dedup();
    ResilienceReport {
        max_failures,
        link_count,
        class_count,
        baseline_equivalent,
        shared,
        undetermined,
        outcomes,
        survival,
        minimal_breaking: minimal,
        baseline_ms,
        sweep_ms,
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    #[test]
    fn enumerator_counts_match_binomials() {
        // C(5,1) + C(5,2) = 5 + 10.
        assert_eq!(enumerate_failure_sets(5, 2).len(), 15);
        // C(4,1) + C(4,2) + C(4,3) = 4 + 6 + 4.
        assert_eq!(enumerate_failure_sets(4, 3).len(), 14);
        // k beyond n saturates at the power set minus empty.
        assert_eq!(enumerate_failure_sets(3, 9).len(), 7);
        assert!(enumerate_failure_sets(0, 2).is_empty());
    }

    #[test]
    fn enumerator_yields_sorted_unique_sets() {
        let sets = enumerate_failure_sets(6, 3);
        let mut seen = BTreeSet::new();
        for s in &sets {
            assert!(s.windows(2).all(|w| w[0] < w[1]), "unsorted: {s:?}");
            assert!(s.iter().all(|&i| i < 6));
            assert!(seen.insert(s.clone()), "duplicate: {s:?}");
        }
        assert_eq!(seen.len(), 6 + 15 + 20);
    }

    #[test]
    fn minimal_breaking_filters_supersets() {
        fn key(a: u32, b: u32) -> LinkKey {
            (
                (NodeId(a), InterfaceId(0)),
                (NodeId(b), InterfaceId(0)),
            )
        }
        let broken = |links: Vec<LinkKey>| ScenarioOutcome {
            links,
            status: ScenarioStatus::Resolved(Box::new(ScenarioVerdict {
                warm_rounds: 1,
                transient: StageDelta::default(),
                reconverged: StageDelta {
                    new_blackholes: vec![NodeId(0)],
                    ..StageDelta::default()
                },
                elapsed_ms: 1.0,
            })),
        };
        let outcomes = vec![
            broken(vec![key(0, 1)]),
            broken(vec![key(0, 1), key(2, 3)]),
            broken(vec![key(4, 5), key(6, 7)]),
        ];
        let report = assemble_report(2, 8, 3, outcomes, 10.0, 20.0);
        // {0-1, 2-3} ⊃ {0-1} is dropped; the disjoint pair stays.
        assert_eq!(report.minimal_breaking.len(), 2);
        assert_eq!(report.minimal_breaking[0], vec![key(0, 1)]);
        assert_eq!(report.survival.blackhole_freedom.reconverged, 0);
        assert_eq!(report.survival.blackhole_freedom.transient, 3);
        assert_eq!(report.survival.loop_freedom.reconverged, 3);
    }

    #[test]
    fn report_json_roundtrips_through_validator() {
        let outcomes = vec![
            ScenarioOutcome {
                links: vec![((NodeId(0), InterfaceId(0)), (NodeId(1), InterfaceId(1)))],
                status: ScenarioStatus::Resolved(Box::new(ScenarioVerdict {
                    warm_rounds: 2,
                    transient: StageDelta {
                        new_blackholes: vec![NodeId(0)],
                        ..StageDelta::default()
                    },
                    reconverged: StageDelta::default(),
                    elapsed_ms: 12.5,
                })),
            },
            ScenarioOutcome {
                links: vec![((NodeId(0), InterfaceId(0)), (NodeId(2), InterfaceId(0)))],
                status: ScenarioStatus::SharedWith(0),
            },
            ScenarioOutcome {
                links: vec![((NodeId(3), InterfaceId(0)), (NodeId(4), InterfaceId(0)))],
                status: ScenarioStatus::BaselineEquivalent,
            },
            ScenarioOutcome {
                links: vec![((NodeId(5), InterfaceId(0)), (NodeId(6), InterfaceId(0)))],
                status: ScenarioStatus::Undetermined {
                    reason: "deadline".into(),
                    attempts: 3,
                },
            },
        ];
        let report = assemble_report(1, 10, 1, outcomes, 100.0, 250.0);
        let json = report.to_json();
        validate_str(&json).unwrap();
        // Survival excludes the undetermined scenario.
        assert_eq!(report.survival.reachability.evaluated, 3);
        assert_eq!(report.undetermined, 1);
        assert_eq!(report.shared, 1);
        assert_eq!(report.baseline_equivalent, 1);
        assert!(report.summary().contains("4 scenarios"));
        // Tampered docs are rejected.
        assert!(validate_str(&json.replace("resolved", "solved")).is_err());
        assert!(validate_str(&json.replace("\"schema\": \"s2-resilience-report/v1\",", "")).is_err());
    }

    #[test]
    fn validator_rejects_nan_and_negative_with_key_path() {
        let outcomes = vec![ScenarioOutcome {
            links: vec![((NodeId(0), InterfaceId(0)), (NodeId(1), InterfaceId(1)))],
            status: ScenarioStatus::Resolved(Box::new(ScenarioVerdict {
                warm_rounds: 2,
                transient: StageDelta::default(),
                reconverged: StageDelta::default(),
                elapsed_ms: 12.5,
            })),
        }];
        let report = assemble_report(1, 10, 1, outcomes, 100.0, 250.0);
        let json = report.to_json();
        validate_str(&json).unwrap();

        let err =
            validate_str(&json.replace("\"baseline_ms\": 100.000", "\"baseline_ms\": -100.000"))
                .unwrap_err();
        assert!(err.contains("baseline_ms"), "{err}");
        assert!(err.contains("negative"), "{err}");

        let err = validate_str(&json.replace("\"ms\": 12.500", "\"ms\": -12.500")).unwrap_err();
        assert!(err.contains("outcomes[0].ms"), "{err}");

        let err = validate_str(&json.replace("\"sweep_ms\": 250.000", "\"sweep_ms\": 1e999"))
            .unwrap_err();
        assert!(err.contains("sweep_ms"), "{err}");
        assert!(err.contains("non-finite"), "{err}");

        let err = validate_str(
            &json.replace("\"transient\": 1, \"reconverged\": 1", "\"transient\": -1, \"reconverged\": 1"),
        )
        .unwrap_err();
        assert!(err.contains("survival."), "{err}");
    }

    use crate::verifier::S2Options;
    use crate::S2Verifier;
    use proptest::prelude::*;
    use s2_routing::NetworkModel;
    use s2_topogen::fattree::{generate, FatTree, FatTreeParams};

    /// All-pair reachability among `ft`'s edge switches — the standing
    /// request of every warm-fleet test in this crate.
    pub(crate) fn fattree_request(ft: &FatTree) -> VerificationRequest {
        let k = ft.params.k;
        let endpoints = (0..k)
            .flat_map(|p| {
                (0..k / 2).map(move |e| (ft.edge(p, e), vec![FatTree::server_prefix(p, e)]))
            })
            .collect();
        VerificationRequest::all_pair_reachability(endpoints, "10.0.0.0/8".parse().unwrap())
    }

    fn fattree_verifier(k: usize, workers: u32) -> (S2Verifier, VerificationRequest, FatTree) {
        let ft = generate(FatTreeParams::new(k));
        let model = NetworkModel::build(ft.topology.clone(), ft.configs.clone()).unwrap();
        let request = fattree_request(&ft);
        let opts = S2Options {
            workers,
            ..Default::default()
        };
        let verifier = S2Verifier::new(model, &opts).unwrap();
        (verifier, request, ft)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        /// The enumerator yields every non-empty ≤k subset exactly once.
        #[test]
        fn enumerator_is_exact_and_complete(n in 0usize..9, k in 1usize..5) {
            let sets = enumerate_failure_sets(n, k);
            let mut seen = BTreeSet::new();
            for s in &sets {
                prop_assert!(!s.is_empty() && s.len() <= k.min(n));
                prop_assert!(s.windows(2).all(|w| w[0] < w[1]));
                prop_assert!(s.iter().all(|&i| i < n));
                prop_assert!(seen.insert(s.clone()), "duplicate {s:?}");
            }
            // Completeness: walk the power set of 0..n and count the
            // non-empty subsets of size ≤ k.
            let mut expected = 0usize;
            for mask in 1u32..(1u32 << n) {
                let size = mask.count_ones() as usize;
                if size <= k {
                    expected += 1;
                }
            }
            prop_assert_eq!(sets.len(), expected);
        }
    }

    /// The tentpole end-to-end check: a full k=1 sweep over FatTree
    /// k=4 on a warm 2-worker fleet. Every link carries ECMP traffic,
    /// so every scenario is its own class; every failure transiently
    /// breaks blackhole-freedom (packets in flight toward the dead
    /// port drop) while reachability *survives* through the remaining
    /// ECMP copies; and after warm reconvergence BGP has healed every
    /// single-link failure completely.
    #[test]
    fn fattree4_single_failure_sweep_resolves_everything() {
        let (verifier, request, _ft) = fattree_verifier(4, 2);
        let report = verifier.sweep(&request, &SweepOptions::default()).unwrap();
        verifier.shutdown();
        assert_eq!(report.scenario_count(), 32);
        assert_eq!(report.class_count, 32);
        assert_eq!(report.undetermined, 0);
        assert_eq!(report.baseline_equivalent, 0);
        assert_eq!(report.shared, 0);
        for (i, o) in report.outcomes.iter().enumerate() {
            let ScenarioStatus::Resolved(v) = report.effective_status(i) else {
                panic!("scenario {:?} not resolved: {:?}", o.links, o.status);
            };
            assert!(v.warm_rounds >= 1, "{:?}: failure induced no warm rounds", o.links);
            // Transient: blackhole-freedom breaks, reachability holds.
            assert!(!v.transient.blackhole_free(), "{:?}", o.links);
            assert!(v.transient.reachability_ok(), "{:?}", o.links);
            // Reconverged: BGP routes around any single link failure.
            assert!(v.reconverged.is_clean(), "{:?}: {:?}", o.links, v.reconverged);
        }
        // No permanent damage from any single failure.
        assert!(report.minimal_breaking.is_empty());
        assert_eq!(report.survival.reachability.evaluated, 32);
        assert_eq!(report.survival.reachability.transient, 32);
        assert_eq!(report.survival.blackhole_freedom.transient, 0);
        assert_eq!(report.survival.blackhole_freedom.reconverged, 32);
        validate_str(&report.to_json()).unwrap();
    }

    /// Losing *both* uplinks of an edge switch isolates it — the
    /// reconverged stage must report the lost reachability, and the
    /// pair must surface as a minimal breaking set (its supersets
    /// pruned).
    #[test]
    fn double_uplink_failure_is_a_minimal_breaking_set() {
        let (verifier, request, ft) = fattree_verifier(4, 2);
        let links: Vec<LinkKey> = ft.topology.links().iter().map(link_key).collect();
        let victim = ft.edge(0, 0);
        let uplinks: Vec<LinkKey> = links
            .iter()
            .copied()
            .filter(|((a, _), (b, _))| *a == victim || *b == victim)
            .collect();
        assert_eq!(uplinks.len(), 2);
        let unrelated = links
            .iter()
            .copied()
            .find(|((a, _), (b, _))| ft.cores.contains(a) || ft.cores.contains(b))
            .unwrap();
        // The pair, and the pair padded with an unrelated core link:
        // the padded superset must not appear as minimal.
        let scenarios = vec![uplinks.clone(), {
            let mut s = uplinks.clone();
            s.push(unrelated);
            s
        }];
        let report = verifier
            .sweep_scenarios(&request, &SweepOptions::default(), &scenarios)
            .unwrap();
        verifier.shutdown();
        assert_eq!(report.undetermined, 0);
        let ScenarioStatus::Resolved(v) = report.effective_status(0) else {
            panic!("not resolved: {:?}", report.outcomes[0].status);
        };
        assert!(!v.reconverged.reachability_ok(), "victim should be isolated");
        // Every lost pair involves the victim.
        for (a, b) in &v.reconverged.new_unreachable {
            assert!(*a == victim || *b == victim, "unrelated pair ({a}, {b}) lost");
        }
        let mut sorted = uplinks.clone();
        sorted.sort();
        assert_eq!(report.minimal_breaking, vec![sorted]);
        validate_str(&report.to_json()).unwrap();
    }

    /// Oracle equivalence: for a spread of 1- and 2-link scenarios the
    /// warm incremental re-verification must agree exactly with a cold
    /// full re-verify (`s2_baselines::verify` with `failed_links`) on
    /// the reconverged reachability outcome.
    #[test]
    fn warm_sweep_matches_cold_oracle() {
        let ft = generate(FatTreeParams::new(4));
        let model = NetworkModel::build(ft.topology.clone(), ft.configs.clone()).unwrap();
        let request = fattree_request(&ft);
        let links: Vec<LinkKey> = ft.topology.links().iter().map(link_key).collect();
        // Singles across both tiers, plus every 5th pair of links —
        // includes same-edge double-uplinks and cross-tier pairs.
        let mut scenarios: Vec<Vec<LinkKey>> =
            links.iter().take(6).map(|&l| vec![l]).collect();
        scenarios.extend(
            enumerate_failure_sets(links.len(), 2)
                .into_iter()
                .filter(|s| s.len() == 2)
                .step_by(97)
                .map(|s| s.into_iter().map(|i| links[i]).collect()),
        );
        let opts = S2Options {
            workers: 2,
            ..Default::default()
        };
        let verifier = S2Verifier::new(model.clone(), &opts).unwrap();
        let report = verifier
            .sweep_scenarios(&request, &SweepOptions::default(), &scenarios)
            .unwrap();
        verifier.shutdown();
        for (i, scenario) in scenarios.iter().enumerate() {
            let failed_links: Vec<(NodeId, NodeId)> =
                scenario.iter().map(|((a, _), (b, _))| (*a, *b)).collect();
            let oracle = s2_baselines::verify(
                &model,
                &request.expected,
                request.dst_space,
                &s2_baselines::MonolithicOptions {
                    failed_links,
                    ..Default::default()
                },
            )
            .unwrap();
            let mut oracle_unreachable = oracle.dpv.unreachable_pairs.clone();
            oracle_unreachable.sort_unstable();
            let warm_unreachable = match report.effective_status(i) {
                ScenarioStatus::Resolved(v) => {
                    let mut u = v.reconverged.new_unreachable.clone();
                    u.sort_unstable();
                    u
                }
                ScenarioStatus::BaselineEquivalent => Vec::new(),
                other => panic!("scenario {scenario:?} not comparable: {other:?}"),
            };
            assert_eq!(
                warm_unreachable, oracle_unreachable,
                "scenario {scenario:?}: warm reconverged disagrees with cold oracle"
            );
            assert_eq!(oracle.dpv.loops, 0);
        }
    }

    /// Chaos: a worker killed mid-sweep must be recovered, the baseline
    /// re-warmed, the interrupted scenario retried, and the report
    /// still complete — with the abort recorded by the flight recorder.
    #[test]
    fn worker_killed_mid_sweep_recovers_and_completes() {
        let ft = generate(FatTreeParams::new(4));
        let model = NetworkModel::build(ft.topology.clone(), ft.configs.clone()).unwrap();
        let request = fattree_request(&ft);
        let opts = S2Options {
            workers: 2,
            runtime: s2_runtime::RuntimeConfig {
                // Well past the warm-up barriers: lands inside an early
                // scenario's begin/DPV/fix-point command stream.
                faults: s2_runtime::FaultPlan::new().kill_worker(1, 400),
                ..Default::default()
            },
            ..Default::default()
        };
        let verifier = S2Verifier::new(model, &opts).unwrap();
        let dumps_before = s2_obs::recorder::dumps();
        let report = verifier.sweep(&request, &SweepOptions::default()).unwrap();
        verifier.shutdown();
        assert_eq!(report.scenario_count(), 32);
        assert_eq!(report.undetermined, 0, "{}", report.summary());
        for (i, o) in report.outcomes.iter().enumerate() {
            assert!(
                matches!(report.effective_status(i), ScenarioStatus::Resolved(_)),
                "scenario {:?}: {:?}",
                o.links,
                o.status
            );
        }
        if cfg!(feature = "obs") {
            assert!(
                s2_obs::recorder::dumps() > dumps_before,
                "the abort should have dumped the flight recorder"
            );
        }
    }

    #[test]
    fn scenario_ports_dedup_both_endpoints() {
        let l1 = ((NodeId(1), InterfaceId(0)), (NodeId(2), InterfaceId(1)));
        let l2 = ((NodeId(1), InterfaceId(0)), (NodeId(2), InterfaceId(1)));
        let ports = scenario_ports(&[l1, l2]);
        assert_eq!(
            ports,
            vec![(NodeId(1), InterfaceId(0)), (NodeId(2), InterfaceId(1))]
        );
    }
}
