//! Known answers: what every verdict must be, worked out from the
//! generator parameters and the op plan, never from the run under test.

use crate::plan::{ColdInput, DeltaKind, PlannedDelta};
use crate::run::Outcome;
use s2::sweep::{ResilienceReport, ScenarioStatus};
use s2::{NetworkModel, VerificationRequest};
use s2_baselines::batfish::{self, MonolithicOptions};
use s2_net::topology::NodeId;
use s2_runtime::admin::AdminResponse;
use s2_runtime::DpvRunStats;
use std::collections::BTreeSet;

/// Expected reachability of a request on a snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reachability {
    pub reachable: usize,
    pub unreachable: BTreeSet<(NodeId, NodeId)>,
}

impl Reachability {
    /// Every requested pair is reachable except those into `faulty`, the
    /// node whose prefix nobody originates.
    pub fn expect(request: &VerificationRequest, faulty: Option<NodeId>) -> Self {
        let unreachable: BTreeSet<(NodeId, NodeId)> = faulty
            .filter(|f| request.expected.iter().any(|(d, _)| d == f))
            .map(|f| {
                request
                    .sources
                    .iter()
                    .filter(|&&s| s != f)
                    .map(|&s| (s, f))
                    .collect()
            })
            .unwrap_or_default();
        Reachability {
            reachable: request.pair_count() - unreachable.len(),
            unreachable,
        }
    }

    pub fn of_cold(input: &ColdInput) -> Self {
        Self::expect(&input.request, input.faulty)
    }

    fn compare(
        &self,
        what: &str,
        reachable: usize,
        unreachable: &[(NodeId, NodeId)],
        loops: usize,
    ) -> Result<(), String> {
        let got: BTreeSet<(NodeId, NodeId)> = unreachable.iter().copied().collect();
        if reachable != self.reachable || got != self.unreachable {
            return Err(format!(
                "{what}: {reachable} reachable / {} unreachable, expected {} / {}",
                got.len(),
                self.reachable,
                self.unreachable.len()
            ));
        }
        if loops != 0 {
            return Err(format!("{what}: {loops} forwarding loops, expected none"));
        }
        Ok(())
    }

    /// Checks a distributed run's verdict.
    pub fn check(&self, dpv: &DpvRunStats) -> Result<(), String> {
        self.compare("s2", dpv.reachable_pairs, &dpv.unreachable_pairs, dpv.loops)
    }

    /// The second opinion: the monolithic baseline on the same model
    /// must give the known answer too, once per entry of `failures`
    /// (links failed before convergence; an empty entry fails none).
    /// Counts one op per entry into `out`. Drivers call it last, after
    /// peak RSS is read, so the baseline's memory is not charged to S2.
    pub fn second_opinion(
        &self,
        out: &mut Outcome,
        model: Result<NetworkModel, impl std::fmt::Display>,
        request: &VerificationRequest,
        failures: impl IntoIterator<Item = Vec<(NodeId, NodeId)>>,
    ) {
        let model = match model {
            Ok(model) => model,
            Err(e) => {
                out.attempted += 1;
                return out.fail(format!("second opinion: {e}"));
            }
        };
        for failed in failures {
            out.attempted += 1;
            if let Err(e) = self.check_baseline(&model, request, failed) {
                out.fail(e);
            }
        }
    }

    fn check_baseline(
        &self,
        model: &NetworkModel,
        request: &VerificationRequest,
        failed_links: Vec<(NodeId, NodeId)>,
    ) -> Result<(), String> {
        let opts = MonolithicOptions {
            failed_links,
            ..MonolithicOptions::default()
        };
        let (rib, _) = batfish::simulate_control_plane(model, &opts)
            .map_err(|e| format!("baseline cp: {e}"))?;
        let dpv = batfish::run_dpv_with_failures(
            model,
            &rib,
            &request.sources,
            &request.expected,
            request.dst_space,
            None,
            &batfish::failed_ports(model, &opts.failed_links),
        )
        .map_err(|e| format!("baseline dpv: {e}"))?;
        self.compare(
            "baseline",
            dpv.reachable_pairs,
            &dpv.unreachable_pairs,
            dpv.loops,
        )
    }
}

/// Checks the daemon's reply to `delta`: committed, with every property
/// still holding (the planner never fails enough links to cut a switch
/// off), link deltas on the warm path and prefix deltas through a
/// blue/green rebuild (they arrive with every link up, so no rebuild
/// bakes a failed link into the model and no link-up has to escalate).
pub fn check_delta(delta: &PlannedDelta, resp: &AdminResponse) -> Result<(), String> {
    let want = delta.kind == DeltaKind::Prefix;
    match resp {
        AdminResponse::Committed {
            escalated,
            all_clear: true,
            ..
        } if *escalated == want => Ok(()),
        other => Err(format!(
            "{:?}: expected committed, escalated={want}, all clear; got {other:?}",
            delta.spec
        )),
    }
}

/// Checks a sweep: every scenario enumerated and determined, reachability
/// holding after reconvergence in each, no breaking failure set.
pub fn check_sweep(report: &ResilienceReport, scenarios: usize) -> Result<(), String> {
    if report.outcomes.len() != scenarios {
        return Err(format!(
            "{} outcomes for {scenarios} scenarios",
            report.outcomes.len()
        ));
    }
    if report.undetermined != 0 {
        return Err(format!("{} scenarios undetermined", report.undetermined));
    }
    for i in 0..report.outcomes.len() {
        match report.effective_status(i) {
            ScenarioStatus::Resolved(v) if !v.reconverged.reachability_ok() => {
                return Err(format!(
                    "scenario {i} loses reachability after reconvergence"
                ));
            }
            ScenarioStatus::Undetermined { reason, .. } => {
                return Err(format!("scenario {i} undetermined: {reason}"));
            }
            _ => {}
        }
    }
    if !report.minimal_breaking.is_empty() {
        return Err(format!(
            "{} minimal breaking sets, expected none",
            report.minimal_breaking.len()
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{self, Sizes};

    #[test]
    fn fattree_expects_every_pair() {
        let input = plan::fattree_cold(&Sizes::SMOKE);
        let n = input.request.sources.len();
        let want = Reachability::of_cold(&input);
        assert_eq!(want.reachable, n * (n - 1));
        assert!(want.unreachable.is_empty());
    }

    #[test]
    fn dcn_expects_only_the_pairs_into_the_faulty_tor() {
        for seed in 0..6 {
            let input = plan::dcn_cold(&Sizes::SMOKE, seed);
            let faulty = input.faulty.unwrap();
            let want = Reachability::of_cold(&input);
            let in_sources = input.request.sources.contains(&faulty);
            assert_eq!(
                want.unreachable.len(),
                input.request.sources.len() - usize::from(in_sources)
            );
            assert!(want
                .unreachable
                .iter()
                .all(|&(s, d)| d == faulty && s != faulty));
            assert_eq!(
                want.reachable + want.unreachable.len(),
                input.request.pair_count()
            );
        }
    }
}
