//! Route-map evaluation against BGP routes.
//!
//! Follows Cisco semantics: clauses are tried in sequence order, all match
//! conditions of a clause must hold, the first matching clause decides
//! (permit ⇒ apply actions, deny ⇒ reject), and a route matching no clause
//! is rejected. Vendor-specific `remove-private-as` semantics are honoured
//! through [`RemovePrivateAsMode`].

use crate::route::BgpRoute;
use s2_net::config::DeviceConfig;
use s2_net::policy::{
    is_private_asn, AsPathAction, CommunityAction, MatchCondition, PolicyAction,
    RemovePrivateAsMode, RouteMap, RouteMapDisposition,
};
use std::sync::Arc;

/// Outcome of running a route map over a route.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PolicyVerdict {
    /// Route accepted; the (possibly modified) route is returned.
    Permit(BgpRoute),
    /// Route rejected.
    Deny,
}

/// Evaluates the route map named `map_name` from `cfg` against `route`.
///
/// The device configuration provides the prefix lists referenced by match
/// conditions. An unknown map name denies everything (configurations are
/// validated up front, so this only happens for deliberately broken inputs).
pub fn run_route_map(cfg: &DeviceConfig, map_name: &str, route: &BgpRoute) -> PolicyVerdict {
    match cfg.route_maps.get(map_name) {
        Some(rm) => run(cfg, rm, route),
        None => PolicyVerdict::Deny,
    }
}

/// Evaluates `rm` against `route` with `cfg` supplying named objects.
pub fn run(cfg: &DeviceConfig, rm: &RouteMap, route: &BgpRoute) -> PolicyVerdict {
    for clause in &rm.clauses {
        if clause.matches.iter().all(|m| matches(cfg, m, route)) {
            return match clause.disposition {
                RouteMapDisposition::Deny => PolicyVerdict::Deny,
                RouteMapDisposition::Permit => {
                    let mut out = route.clone();
                    for action in &clause.actions {
                        apply(&mut out, action);
                    }
                    PolicyVerdict::Permit(out)
                }
            };
        }
    }
    PolicyVerdict::Deny
}

fn matches(cfg: &DeviceConfig, m: &MatchCondition, route: &BgpRoute) -> bool {
    match m {
        MatchCondition::PrefixList(name) => cfg
            .prefix_lists
            .get(name)
            .map(|pl| pl.permits(route.prefix))
            .unwrap_or(false),
        MatchCondition::Community(c) => route.has_community(*c),
        MatchCondition::AsPathContains(asn) => route.as_path_contains(*asn),
        MatchCondition::AsPathEmpty => route.as_path.is_empty(),
        MatchCondition::PrefixLenRange(lo, hi) => {
            (*lo..=*hi).contains(&route.prefix.len())
        }
        MatchCondition::Protocol(p) => route.source_protocol == *p,
    }
}

/// Applies one action. The attribute lists are shared, so an action on
/// them builds the new list and assigns it (copy-on-write).
fn apply(route: &mut BgpRoute, action: &PolicyAction) {
    match action {
        PolicyAction::SetLocalPref(v) => route.local_pref = *v,
        PolicyAction::SetMed(v) => route.med = *v,
        PolicyAction::Community(CommunityAction::Add(c)) => route.add_community(*c),
        PolicyAction::Community(CommunityAction::Delete(c)) => route.remove_community(*c),
        PolicyAction::Community(CommunityAction::Set(cs)) => {
            let mut set = cs.clone();
            set.sort_unstable();
            set.dedup();
            route.communities = set.into();
        }
        PolicyAction::AsPath(AsPathAction::Prepend { asn, count }) => {
            let prepended = std::iter::repeat_n(*asn, *count as usize);
            route.as_path = prepended.chain(route.as_path.iter().copied()).collect();
        }
        PolicyAction::AsPath(AsPathAction::Overwrite(asns)) => {
            route.as_path = asns.as_slice().into();
        }
        PolicyAction::AsPath(AsPathAction::RemovePrivate(mode)) => {
            remove_private_as(&mut route.as_path, *mode);
        }
    }
}

/// Strips private ASNs from `path` according to the vendor mode — the
/// paper's flagship example of a vendor-specific behaviour. A path with
/// nothing to strip keeps its list.
pub fn remove_private_as(path: &mut Arc<[u32]>, mode: RemovePrivateAsMode) {
    let stripped = prepend_path(&[], path, Some(mode));
    if stripped.len() != path.len() {
        *path = stripped;
    }
}

/// `first`, then the ASNs of `path` that `remove-private-as` in `mode`
/// keeps (all of them for `None`). Only `All`, whose length the filter
/// decides, collects through a scratch list.
pub(crate) fn prepend_path(
    first: &[u32],
    path: &[u32],
    mode: Option<RemovePrivateAsMode>,
) -> Arc<[u32]> {
    let kept = match mode {
        None => path,
        Some(RemovePrivateAsMode::LeadingOnly) => {
            let lead = path.iter().take_while(|a| is_private_asn(**a)).count();
            path.get(lead..).unwrap_or_default()
        }
        Some(RemovePrivateAsMode::All) => {
            let kept = path.iter().filter(|a| !is_private_asn(**a));
            return first.iter().chain(kept).copied().collect();
        }
    };
    first.iter().chain(kept).copied().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use s2_net::config::Vendor;
    use s2_net::ip::Prefix;
    use s2_net::policy::{
        community, PrefixList, PrefixListEntry, Protocol, RouteMapClause,
    };
    use crate::route::Origin;

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    fn route(prefix: &str) -> BgpRoute {
        BgpRoute::local(p(prefix), Origin::Igp, Protocol::Bgp)
    }

    fn cfg_with(rm: RouteMap) -> DeviceConfig {
        let mut cfg = DeviceConfig::new("r", Vendor::A);
        cfg.prefix_lists.insert(
            "PL".into(),
            PrefixList {
                entries: vec![PrefixListEntry {
                    prefix: p("10.0.0.0/8"),
                    ge: Some(8),
                    le: Some(32),
                    permit: true,
                }],
            },
        );
        cfg.route_maps.insert("RM".into(), rm);
        cfg
    }

    fn permit_clause(seq: u32, matches: Vec<MatchCondition>, actions: Vec<PolicyAction>) -> RouteMapClause {
        RouteMapClause {
            seq,
            disposition: RouteMapDisposition::Permit,
            matches,
            actions,
        }
    }

    #[test]
    fn empty_map_denies() {
        let cfg = cfg_with(RouteMap::default());
        assert_eq!(run_route_map(&cfg, "RM", &route("10.0.0.0/24")), PolicyVerdict::Deny);
    }

    #[test]
    fn unknown_map_denies() {
        let cfg = cfg_with(RouteMap::permit_all());
        assert_eq!(run_route_map(&cfg, "NOPE", &route("10.0.0.0/24")), PolicyVerdict::Deny);
    }

    #[test]
    fn prefix_list_gates_clause() {
        let mut rm = RouteMap::default();
        rm.push_clause(permit_clause(
            10,
            vec![MatchCondition::PrefixList("PL".into())],
            vec![PolicyAction::SetLocalPref(200)],
        ));
        let cfg = cfg_with(rm);
        match run_route_map(&cfg, "RM", &route("10.1.0.0/16")) {
            PolicyVerdict::Permit(r) => assert_eq!(r.local_pref, 200),
            other => panic!("{other:?}"),
        }
        assert_eq!(run_route_map(&cfg, "RM", &route("192.168.0.0/16")), PolicyVerdict::Deny);
    }

    #[test]
    fn first_matching_clause_wins() {
        let mut rm = RouteMap::default();
        rm.push_clause(RouteMapClause {
            seq: 10,
            disposition: RouteMapDisposition::Deny,
            matches: vec![MatchCondition::PrefixLenRange(24, 32)],
            actions: vec![],
        });
        rm.push_clause(permit_clause(20, vec![], vec![]));
        let cfg = cfg_with(rm);
        assert_eq!(run_route_map(&cfg, "RM", &route("10.0.0.0/24")), PolicyVerdict::Deny);
        assert!(matches!(
            run_route_map(&cfg, "RM", &route("10.0.0.0/16")),
            PolicyVerdict::Permit(_)
        ));
    }

    #[test]
    fn all_conditions_must_match() {
        let mut rm = RouteMap::default();
        rm.push_clause(permit_clause(
            10,
            vec![
                MatchCondition::PrefixList("PL".into()),
                MatchCondition::Community(community(65000, 1)),
            ],
            vec![],
        ));
        let cfg = cfg_with(rm);
        // Prefix matches but community missing.
        assert_eq!(run_route_map(&cfg, "RM", &route("10.0.0.0/24")), PolicyVerdict::Deny);
        let mut r = route("10.0.0.0/24");
        r.add_community(community(65000, 1));
        assert!(matches!(run_route_map(&cfg, "RM", &r), PolicyVerdict::Permit(_)));
    }

    #[test]
    fn community_actions() {
        let mut rm = RouteMap::default();
        rm.push_clause(permit_clause(
            10,
            vec![],
            vec![
                PolicyAction::Community(CommunityAction::Add(community(1, 1))),
                PolicyAction::Community(CommunityAction::Add(community(1, 2))),
                PolicyAction::Community(CommunityAction::Delete(community(1, 1))),
            ],
        ));
        let cfg = cfg_with(rm);
        match run_route_map(&cfg, "RM", &route("10.0.0.0/24")) {
            PolicyVerdict::Permit(r) => assert_eq!(r.communities, vec![community(1, 2)].into()),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn community_set_replaces() {
        let mut rm = RouteMap::default();
        rm.push_clause(permit_clause(
            10,
            vec![],
            vec![PolicyAction::Community(CommunityAction::Set(vec![community(9, 9)]))],
        ));
        let cfg = cfg_with(rm);
        let mut r = route("10.0.0.0/24");
        r.add_community(community(1, 1));
        match run_route_map(&cfg, "RM", &r) {
            PolicyVerdict::Permit(out) => assert_eq!(out.communities, vec![community(9, 9)].into()),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn as_path_prepend_and_overwrite() {
        let mut rm = RouteMap::default();
        rm.push_clause(permit_clause(
            10,
            vec![],
            vec![PolicyAction::AsPath(AsPathAction::Prepend { asn: 65000, count: 2 })],
        ));
        let cfg = cfg_with(rm);
        let mut r = route("10.0.0.0/24");
        r.as_path = vec![1, 2].into();
        match run_route_map(&cfg, "RM", &r) {
            PolicyVerdict::Permit(out) => assert_eq!(out.as_path, vec![65000, 65000, 1, 2].into()),
            other => panic!("{other:?}"),
        }

        let mut rm2 = RouteMap::default();
        rm2.push_clause(permit_clause(
            10,
            vec![MatchCondition::AsPathContains(2)],
            vec![PolicyAction::AsPath(AsPathAction::Overwrite(vec![65009]))],
        ));
        let cfg2 = cfg_with(rm2);
        match run_route_map(&cfg2, "RM", &r) {
            PolicyVerdict::Permit(out) => assert_eq!(out.as_path, vec![65009].into()),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn remove_private_modes_differ() {
        // 64512 and 64513 are private, 1000 is not.
        let mut all = vec![64512, 1000, 64513].into();
        remove_private_as(&mut all, RemovePrivateAsMode::All);
        assert_eq!(all, vec![1000].into());

        let mut leading = vec![64512, 1000, 64513].into();
        remove_private_as(&mut leading, RemovePrivateAsMode::LeadingOnly);
        assert_eq!(leading, vec![1000, 64513].into());
    }

    #[test]
    fn prepend_path_strips_only_the_old_path() {
        // 64600 is private too: the prepended ASN is never stripped.
        let path = [64512, 1000, 64513];
        assert_eq!(*prepend_path(&[64600], &path, None), [64600, 64512, 1000, 64513]);
        assert_eq!(*prepend_path(&[64600], &path, Some(RemovePrivateAsMode::All)), [64600, 1000]);
        let leading = prepend_path(&[64600], &path, Some(RemovePrivateAsMode::LeadingOnly));
        assert_eq!(*leading, [64600, 1000, 64513]);
        assert!(prepend_path(&[], &[], None).is_empty());
    }

    #[test]
    fn remove_private_keeps_a_clean_path_shared() {
        let mut path: Arc<[u32]> = vec![1000, 2000].into();
        let before = path.clone();
        remove_private_as(&mut path, RemovePrivateAsMode::All);
        assert!(Arc::ptr_eq(&before, &path));
    }

    #[test]
    fn protocol_match_for_redistribution_filters() {
        let mut rm = RouteMap::default();
        rm.push_clause(permit_clause(
            10,
            vec![MatchCondition::Protocol(Protocol::Ospf)],
            vec![],
        ));
        let cfg = cfg_with(rm);
        let mut r = route("10.0.0.0/24");
        r.source_protocol = Protocol::Ospf;
        assert!(matches!(run_route_map(&cfg, "RM", &r), PolicyVerdict::Permit(_)));
        r.source_protocol = Protocol::Bgp;
        assert_eq!(run_route_map(&cfg, "RM", &r), PolicyVerdict::Deny);
    }
}
