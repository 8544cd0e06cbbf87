//! Execution semantics for the parsed configuration: section 6.2's
//! route-selection rules and the requester's negotiation trigger. The
//! responder's statements compile into
//! [`miro_core::export::ResponderConfig`] instead
//! ([`crate::bridge::responder`]).

use crate::parse::{Config, NegotiationDecl, RouteMapClause};

/// A route as the policy layer sees it: the AS-number path (next hop
/// first, origin last) and its local-preference value.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PolicyRoute {
    pub path: Vec<u32>,
    pub local_pref: u32,
}

/// A negotiation request produced by a `try negotiation` clause firing.
#[derive(Clone, Debug, PartialEq)]
pub struct Trigger {
    /// The negotiation block to execute.
    pub negotiation: String,
    /// Budget from `start negotiation ... with maximum cost`.
    pub max_cost: Option<u32>,
    /// ASes to avoid, recovered from the deny rules of the access list
    /// that came up empty (the 312 of `deny _312_`).
    pub avoid: Vec<u32>,
    /// Candidate negotiation targets: the ASes sitting between the
    /// requester and the first avoided AS on each matching path
    /// (section 6.2.1's targeting heuristic), in path order, deduplicated.
    pub targets: Vec<u32>,
}

impl Config {
    /// Access-list evaluation: the first rule whose regex matches decides;
    /// an unmatched path is denied (the Cisco implicit deny-all).
    pub fn acl_permits(&self, id: u32, path: &[u32]) -> bool {
        let Some(rules) = self.acl(id) else { return false };
        for rule in rules {
            if rule.regex.is_match(path) {
                return rule.permit;
            }
        }
        false
    }

    /// Apply route-map `name` to a candidate set: returns the surviving
    /// (possibly modified) routes, and any negotiation triggers fired by
    /// `match empty path` entries (section 6.3's AVOID_AS example).
    pub fn apply_route_map(
        &self,
        name: &str,
        routes: &[PolicyRoute],
    ) -> (Vec<PolicyRoute>, Vec<Trigger>) {
        let mut entries: Vec<_> =
            self.route_maps.iter().filter(|rm| rm.name == name).collect();
        entries.sort_by_key(|rm| rm.seq);

        // Per-route filtering by the non-trigger entries.
        let mut kept = Vec::new();
        'routes: for route in routes {
            for rm in &entries {
                // Trigger entries don't classify individual routes.
                if rm.clauses.iter().any(|c| matches!(c, RouteMapClause::MatchEmptyPath(_))) {
                    continue;
                }
                let matches = rm.clauses.iter().all(|c| match c {
                    RouteMapClause::MatchAsPath(acl) => self.acl_permits(*acl, &route.path),
                    _ => true,
                });
                if matches {
                    if rm.permit {
                        let mut out = route.clone();
                        for c in &rm.clauses {
                            if let RouteMapClause::SetLocalPref(lp) = c {
                                out.local_pref = *lp;
                            }
                        }
                        kept.push(out);
                    }
                    continue 'routes; // first matching entry decides
                }
            }
            // No entry matched: implicit deny.
        }

        // Trigger entries: fire when the ACL-filtered candidate set is
        // empty.
        let mut triggers = Vec::new();
        for rm in &entries {
            let empty_acls: Vec<u32> = rm
                .clauses
                .iter()
                .filter_map(|c| match c {
                    RouteMapClause::MatchEmptyPath(id) => Some(*id),
                    _ => None,
                })
                .collect();
            if empty_acls.is_empty() {
                continue;
            }
            let fired = empty_acls
                .iter()
                .all(|&acl| routes.iter().all(|r| !self.acl_permits(acl, &r.path)));
            if !fired {
                continue;
            }
            let avoid: Vec<u32> = empty_acls
                .iter()
                .flat_map(|&acl| {
                    self.acl(acl)
                        .into_iter()
                        .flatten()
                        .filter(|r| !r.permit)
                        .flat_map(|r| r.regex.literals())
                })
                .collect();
            for c in &rm.clauses {
                if let RouteMapClause::TryNegotiation(nname) = c {
                    let decl = self.negotiation(nname);
                    let targets = decl
                        .map(|d| negotiation_targets(d, routes, &avoid))
                        .unwrap_or_default();
                    triggers.push(Trigger {
                        negotiation: nname.clone(),
                        max_cost: decl.and_then(|d| d.max_cost),
                        avoid: avoid.clone(),
                        targets,
                    });
                }
            }
        }
        (kept, triggers)
    }
}

/// Target mining for the section 6.2.1 heuristic: on every candidate path
/// matching the negotiation's `match all path` regex, the ASes *before*
/// the first avoided AS are plausible responders (they sit between the
/// requester and the offender). Order follows path position; duplicates
/// removed.
pub fn negotiation_targets(
    decl: &NegotiationDecl,
    routes: &[PolicyRoute],
    avoid: &[u32],
) -> Vec<u32> {
    let mut out: Vec<u32> = Vec::new();
    for r in routes {
        if let Some(re) = &decl.path_regex {
            if !re.is_match(&r.path) {
                continue;
            }
        }
        let cut = r
            .path
            .iter()
            .position(|a| avoid.contains(a))
            .unwrap_or(r.path.len());
        for &hop in &r.path[..cut] {
            if !out.contains(&hop) {
                out.push(hop);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_config;

    const REQUESTER: &str = "\
router bgp 100
route-map AVOID_AS permit 10
match empty path 200
try negotiation NEG-312
ip as-path access-list 200 deny _312_
ip as-path access-list 200 permit .*
negotiation NEG-312
match all path _312_
start negotiation #1 with maximum cost 250
";

    fn route(path: &[u32], lp: u32) -> PolicyRoute {
        PolicyRoute { path: path.to_vec(), local_pref: lp }
    }

    #[test]
    fn acl_first_match_and_implicit_deny() {
        let e = parse_config(REQUESTER).unwrap();
        assert!(!e.acl_permits(200, &[7, 312, 9]), "deny rule hits first");
        assert!(e.acl_permits(200, &[7, 9]), "falls through to permit .*");
        assert!(!e.acl_permits(999, &[7]), "unknown list denies");
        // Implicit deny when no rule matches at all.
        let only_deny = parse_config("ip as-path access-list 1 deny _5_\n").unwrap();
        assert!(!only_deny.acl_permits(1, &[7, 9]));
    }

    #[test]
    fn trigger_fires_only_when_candidates_all_traverse_the_bad_as() {
        let e = parse_config(REQUESTER).unwrap();
        // Both candidates go through 312: trigger fires.
        let routes = [route(&[2, 312, 6], 450), route(&[4, 312, 6], 450)];
        let (kept, triggers) = e.apply_route_map("AVOID_AS", &routes);
        assert!(kept.is_empty(), "no clean route survives the intent");
        assert_eq!(triggers.len(), 1);
        let t = &triggers[0];
        assert_eq!(t.negotiation, "NEG-312");
        assert_eq!(t.max_cost, Some(250));
        assert_eq!(t.avoid, vec![312]);
        // Targets: ASes before 312 on the matching paths.
        assert_eq!(t.targets, vec![2, 4]);
        // One clean candidate exists: no trigger.
        let routes = [route(&[2, 312, 6], 450), route(&[4, 5, 6], 450)];
        let (_, triggers) = e.apply_route_map("AVOID_AS", &routes);
        assert!(triggers.is_empty());
    }

    #[test]
    fn section_6_1_route_map_sets_local_pref() {
        let text = "\
route-map FIX-LOCALPREF permit
match as-path 200
set local-preference 250
ip as-path access-list 200 deny _312_
ip as-path access-list 200 permit .*
";
        let e = parse_config(text).unwrap();
        let routes = [route(&[1, 2], 100), route(&[1, 312], 100)];
        let (kept, _) = e.apply_route_map("FIX-LOCALPREF", &routes);
        // The clean route is accepted with local-pref 250; the 312 route
        // fails the match and hits the implicit deny.
        assert_eq!(kept, vec![route(&[1, 2], 250)]);
    }

    #[test]
    fn target_mining_respects_regex_and_cut() {
        let decl = NegotiationDecl {
            name: "N".into(),
            path_regex: Some(crate::aspath::AsPathRegex::parse("_312_").unwrap()),
            start_index: Some(1),
            max_cost: Some(9),
        };
        let routes = [
            route(&[2, 3, 312, 6], 0),
            route(&[4, 5, 6], 0), // does not match the regex: ignored
            route(&[3, 312, 7], 0),
        ];
        let t = negotiation_targets(&decl, &routes, &[312]);
        assert_eq!(t, vec![2, 3], "prefix ASes, deduplicated, path order");
    }
}
