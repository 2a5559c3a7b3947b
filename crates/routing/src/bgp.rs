//! The BGP decision process: best-path comparison and ECMP selection.

use crate::route::BgpRoute;
use s2_net::Ipv4Addr;
use std::cmp::Ordering;

/// A best-path candidate: a route plus the identity of the advertising
/// peer (used for the final deterministic tie-break). The owned form the
/// local RIB installs; selection runs over [`CandidateRef`]s.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Candidate {
    /// The route after import processing.
    pub route: BgpRoute,
    /// The advertising peer's address; `None` for local origination.
    pub peer: Option<Ipv4Addr>,
    /// The session index on the receiving node; `u32::MAX` for local.
    pub session: u32,
}

impl Candidate {
    /// The borrowed view the decision process compares.
    pub fn view(&self) -> CandidateRef<'_> {
        CandidateRef {
            route: &self.route,
            peer: self.peer,
            session: self.session,
        }
    }
}

/// A borrowed best-path candidate. A learned route's next hop is its
/// peer's address, so `route` may come straight from a shared
/// advertisement body whose own next hop is unspecified: the next hop is
/// written when the candidate is materialised ([`CandidateRef::materialise`]).
#[derive(Debug, Clone, Copy)]
pub struct CandidateRef<'a> {
    /// The route, next hop aside.
    pub route: &'a BgpRoute,
    /// The advertising peer's address; `None` for local origination.
    pub peer: Option<Ipv4Addr>,
    /// The session index on the receiving node; `u32::MAX` for local.
    pub session: u32,
}

impl CandidateRef<'_> {
    /// The candidate's next hop: the peer for a learned route, the
    /// route's own (unspecified) for a local one.
    pub fn next_hop(&self) -> Ipv4Addr {
        self.peer.unwrap_or(self.route.next_hop)
    }

    /// Clones the candidate, next hop written.
    pub fn materialise(&self) -> Candidate {
        let mut route = self.route.clone();
        route.next_hop = self.next_hop();
        Candidate {
            route,
            peer: self.peer,
            session: self.session,
        }
    }

    /// Whether materialising this candidate would give `installed`.
    pub fn matches(&self, installed: &Candidate) -> bool {
        self.session == installed.session
            && self.peer == installed.peer
            && installed.route.next_hop == self.next_hop()
            && self.route.same_attributes(&installed.route)
    }
}

/// Compares two candidates by the BGP decision process. `Ordering::Less`
/// means `a` is **preferred** over `b` (so sorting ascending puts the best
/// path first).
///
/// Steps (all-eBGP network, matching the paper's DCN):
/// 1. higher weight (local-only, Cisco semantics)
/// 2. higher LOCAL_PREF
/// 3. shorter AS path
/// 4. lower ORIGIN (IGP < INCOMPLETE)
/// 5. lower MED
/// 6. lower peer address (deterministic tie-break standing in for
///    router-id; `None`/local sorts first)
pub fn compare(a: &CandidateRef, b: &CandidateRef) -> Ordering {
    b.route
        .weight
        .cmp(&a.route.weight)
        .then_with(|| b.route.local_pref.cmp(&a.route.local_pref))
        .then_with(|| a.route.as_path.len().cmp(&b.route.as_path.len()))
        .then_with(|| a.route.origin.cmp(&b.route.origin))
        .then_with(|| a.route.med.cmp(&b.route.med))
        .then_with(|| a.peer.cmp(&b.peer))
}

/// Whether two candidates tie on every step *before* the deterministic
/// tie-break — i.e. they are equal-cost and eligible for ECMP.
pub fn equal_cost(a: &CandidateRef, b: &CandidateRef) -> bool {
    a.route.weight == b.route.weight
        && a.route.local_pref == b.route.local_pref
        && a.route.as_path.len() == b.route.as_path.len()
        && a.route.origin == b.route.origin
        && a.route.med == b.route.med
}

/// Selects the multipath set from `candidates`: the best route plus every
/// equal-cost alternative, capped at `max_ecmp`, in deterministic
/// (tie-break) order. The sort is stable, so candidates that tie on the
/// tie-break too keep their input order. Returns an empty vector iff
/// `candidates` is empty.
pub fn select_multipath(
    mut candidates: Vec<CandidateRef<'_>>,
    max_ecmp: u8,
) -> Vec<CandidateRef<'_>> {
    candidates.sort_by(compare);
    let Some(&best) = candidates.first() else { return candidates };
    let cap = (max_ecmp as usize).max(1);
    candidates.retain(|c| equal_cost(&best, c));
    candidates.truncate(cap);
    candidates
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::route::{Origin, DEFAULT_LOCAL_PREF, LOCAL_WEIGHT};
    use s2_net::policy::Protocol;
    use s2_net::Prefix;

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    fn cand(path_len: usize, peer_last_octet: u8) -> Candidate {
        let mut r = BgpRoute::local(p("10.0.0.0/24"), Origin::Igp, Protocol::Bgp);
        r.weight = 0;
        r.as_path = vec![100; path_len].into();
        Candidate {
            route: r,
            peer: Some(Ipv4Addr::new(10, 0, 0, peer_last_octet)),
            session: peer_last_octet as u32,
        }
    }

    #[test]
    fn weight_beats_everything() {
        let mut a = cand(10, 1);
        a.route.weight = LOCAL_WEIGHT;
        let mut b = cand(1, 2);
        b.route.local_pref = 999;
        assert_eq!(compare(&a.view(), &b.view()), Ordering::Less);
    }

    #[test]
    fn local_pref_beats_path_length() {
        let mut a = cand(10, 1);
        a.route.local_pref = 200;
        let b = cand(1, 2);
        assert_eq!(compare(&a.view(), &b.view()), Ordering::Less);
    }

    #[test]
    fn shorter_path_wins() {
        let a = cand(1, 2);
        let b = cand(2, 1);
        assert_eq!(compare(&a.view(), &b.view()), Ordering::Less);
        assert_eq!(compare(&b.view(), &a.view()), Ordering::Greater);
    }

    #[test]
    fn origin_breaks_path_tie() {
        let a = cand(2, 1);
        let mut b = cand(2, 2);
        b.route.origin = Origin::Incomplete;
        assert_eq!(compare(&a.view(), &b.view()), Ordering::Less);
    }

    #[test]
    fn med_breaks_origin_tie() {
        let a = cand(2, 2);
        let mut b = cand(2, 1);
        b.route.med = 50;
        assert_eq!(compare(&a.view(), &b.view()), Ordering::Less);
    }

    #[test]
    fn peer_address_is_final_tiebreak() {
        let a = cand(2, 1);
        let b = cand(2, 2);
        assert_eq!(compare(&a.view(), &b.view()), Ordering::Less);
        assert!(equal_cost(&a.view(), &b.view()));
    }

    #[test]
    fn multipath_selects_equal_cost_up_to_cap() {
        let cands = [cand(2, 3), cand(1, 2), cand(1, 4), cand(1, 1), cand(2, 5)];
        let sel = select_multipath(cands.iter().map(Candidate::view).collect(), 8);
        assert_eq!(sel.len(), 3);
        // Deterministic order by peer address.
        let peers: Vec<u32> = sel.iter().map(|c| c.session).collect();
        assert_eq!(peers, vec![1, 2, 4]);

        let sel2 = select_multipath(cands.iter().map(Candidate::view).collect(), 2);
        assert_eq!(sel2.len(), 2);
        assert_eq!(sel2[0].session, 1);
    }

    #[test]
    fn multipath_cap_zero_still_installs_best() {
        let cands = [cand(1, 1), cand(1, 2)];
        let sel = select_multipath(cands.iter().map(Candidate::view).collect(), 0);
        assert_eq!(sel.len(), 1);
    }

    #[test]
    fn multipath_empty_input() {
        assert!(select_multipath(Vec::new(), 4).is_empty());
    }

    #[test]
    fn defaults_are_bgp_defaults() {
        let r = BgpRoute::local(p("10.0.0.0/24"), Origin::Igp, Protocol::Bgp);
        assert_eq!(r.local_pref, DEFAULT_LOCAL_PREF);
    }
}
