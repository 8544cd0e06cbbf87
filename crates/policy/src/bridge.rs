//! Bridge from the Chapter 6 policy language to the live MIRO control
//! plane: a parsed configuration *drives* negotiations, on both sides.
//!
//! Section 4.3 envisions exactly this split: "each AS defines a set of
//! local policies regarding tunnel management, and then some software on
//! the routers or end hosts can automatically monitor current routing
//! situations and conduct the negotiations. This is similar to the
//! current BGP protocol, where BGP policies are defined by human
//! operators and actual path selections are performed by programs on
//! routers." [`run_policy`] is that software: it evaluates the
//! requester's route-maps against its current candidate set, and for
//! every fired trigger executes the negotiation through
//! [`miro_core::node::MiroNetwork`], honoring the configured budget,
//! avoid set, and target list; [`responder`] compiles the responder's
//! statements into the [`ResponderConfig`] whose
//! [`offers`](ResponderConfig::offers) every negotiation reads.

use crate::eval::{PolicyRoute, Trigger};
use crate::parse::Config;
use miro_bgp::solver::RoutingState;
use miro_core::negotiate::{Constraint, NegotiationError};
use miro_core::export::ResponderConfig;
use miro_core::node::MiroNetwork;
use miro_core::tunnel::TunnelId;
use miro_topology::{AsId, NodeId, RouteClass, Topology};

/// The outcome of executing one fired trigger.
#[derive(Debug)]
pub struct TriggerOutcome {
    pub trigger: Trigger,
    /// Per contacted target (in configuration order): the result.
    pub attempts: Vec<(NodeId, Result<TunnelId, NegotiationError>)>,
    /// The first successful tunnel, if any.
    pub tunnel: Option<TunnelId>,
}

/// Evaluate route-map `map_name` for `requester` against its live BGP
/// candidate set and execute any fired negotiations. Returns the
/// surviving policy routes and per-trigger outcomes.
pub fn run_policy(
    cfg: &Config,
    net: &mut MiroNetwork<'_>,
    st: &RoutingState<'_>,
    requester: NodeId,
    map_name: &str,
) -> (Vec<PolicyRoute>, Vec<TriggerOutcome>) {
    let topo = st.topology();
    // The candidate set as the policy layer sees it: AS-number paths
    // with conventional local preferences.
    let routes: Vec<PolicyRoute> = st
        .candidates(requester)
        .into_iter()
        .map(|c| PolicyRoute {
            path: c.path.iter().map(|&h| topo.asn(h).0).collect(),
            local_pref: c.class.local_pref(),
        })
        .collect();
    let (kept, triggers) = cfg.apply_route_map(map_name, &routes);

    let mut outcomes = Vec::new();
    for trigger in triggers {
        let constraints: Vec<Constraint> = trigger
            .avoid
            .iter()
            .filter_map(|&asn| topo.node(AsId(asn)))
            .map(Constraint::AvoidAs)
            .collect();
        let budget = trigger.max_cost.unwrap_or(u32::MAX);
        let mut attempts = Vec::new();
        let mut tunnel = None;
        for &target_asn in &trigger.targets {
            let Some(target) = topo.node(AsId(target_asn)) else { continue };
            let r = net.negotiate(st, requester, target, constraints.clone(), budget);
            let ok = r.is_ok();
            attempts.push((target, r));
            if ok {
                tunnel = attempts.last().and_then(|(_, r)| r.as_ref().ok().copied());
                break; // one tunnel satisfies the objective (section 7.4)
            }
        }
        outcomes.push(TriggerOutcome { trigger, attempts, tunnel });
    }
    (kept, outcomes)
}

/// Compile a `router bgp` block's responder statements (sections 6.2.1
/// and 6.3) into the [`ResponderConfig`] every negotiation reads, with
/// ASNs mapped to `topo`'s nodes (an unknown one is an error). No `accept
/// negotiation` statement refuses every requester; no `when
/// tunnel_number < N` sets no tunnel limit. The one `negotiation filter`
/// ladder prices each route class at its [`RouteClass::local_pref`]: the
/// first `filter permit local_pref > N` that admits it sets the price (0
/// without a `set tunnel_cost`), and a class none admits is not offered.
/// Without a filter the default prices stand, and the export level, which
/// the dialect cannot state, is always the default.
pub fn responder(cfg: &Config, topo: &Topology) -> Result<ResponderConfig, String> {
    let mut out = ResponderConfig { allow: Some(Vec::new()), ..ResponderConfig::default() };
    if let Some(acc) = &cfg.accept {
        out.max_tunnels = acc.max_tunnels.and_then(|n| usize::try_from(n).ok()).unwrap_or(usize::MAX);
        let node = |&asn: &u32| topo.node(AsId(asn)).ok_or(format!("unknown AS {asn}"));
        out.allow = acc.allowed.as_ref().map(|list| list.iter().map(node).collect()).transpose()?;
    }
    match cfg.filters.as_slice() {
        [] => {}
        [f] => {
            out.prices = RouteClass::ALL.map(|class| {
                let rule = f.rules.iter().find(|r| class.local_pref() > r.min_local_pref);
                rule.map(|r| r.tunnel_cost.unwrap_or(0))
            })
        }
        _ => return Err("more than one `negotiation filter` block".to_string()),
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_config;
    use miro_topology::gen::figure_1_1;

    /// The full Chapter 6 loop on Figure 1.1: AS A (ASN 1) configured to
    /// avoid AS E (ASN 5) toward F; the trigger fires, the bridge
    /// negotiates with B (ASN 2), and the BCF tunnel comes up — all from
    /// configuration text.
    #[test]
    fn configuration_text_drives_a_real_negotiation() {
        let (topo, [a, b, c, _d, _e, f]) = figure_1_1();
        let config_text = "\
router bgp 1
route-map AVOID_AS permit 10
match empty path 200
try negotiation NEG-5
ip as-path access-list 200 deny _5_
ip as-path access-list 200 permit .*
negotiation NEG-5
match all path _5_
start negotiation #1 with maximum cost 250
";
        let cfg = parse_config(config_text).expect("parses");
        let st = RoutingState::solve(&topo, f);
        let mut net = MiroNetwork::new(&topo);
        let (kept, outcomes) = run_policy(&cfg, &mut net, &st, a, "AVOID_AS");
        assert!(kept.is_empty(), "both candidates cross AS 5");
        assert_eq!(outcomes.len(), 1);
        let out = &outcomes[0];
        assert_eq!(out.trigger.avoid, vec![5]);
        // Targets mined from the matching candidate paths: B (2) and D (4)
        // precede E (5) on A's candidates.
        assert_eq!(out.trigger.targets, vec![2, 4]);
        let tid = out.tunnel.expect("negotiation succeeded");
        let lease = &net.leases()[0];
        assert_eq!(lease.id, tid);
        assert_eq!(lease.upstream, a);
        assert_eq!(lease.downstream, b);
        assert_eq!(lease.path, vec![c, f], "the BCF alternate");
        assert_eq!(lease.budget, 250, "budget from `maximum cost`");
    }

    /// When the budget is below every offer, the bridge tries each target
    /// and reports the failures faithfully.
    #[test]
    fn insufficient_budget_fails_all_targets() {
        let (topo, [a, ..]) = figure_1_1();
        let f = topo.node(miro_topology::AsId(6)).expect("F");
        let config_text = "\
router bgp 1
route-map AVOID_AS permit 10
match empty path 200
try negotiation NEG-5
ip as-path access-list 200 deny _5_
ip as-path access-list 200 permit .*
negotiation NEG-5
match all path _5_
start negotiation #1 with maximum cost 10
";
        let cfg = parse_config(config_text).expect("parses");
        let st = RoutingState::solve(&topo, f);
        let mut net = MiroNetwork::new(&topo);
        let (_, outcomes) = run_policy(&cfg, &mut net, &st, a, "AVOID_AS");
        let out = &outcomes[0];
        assert!(out.tunnel.is_none());
        assert_eq!(out.attempts.len(), 2, "both targets were tried");
        assert!(net.leases().is_empty());
    }

    /// A clean candidate suppresses the trigger entirely: no negotiation
    /// traffic is generated (the pull-based economy of section 3.2).
    #[test]
    fn no_trigger_no_messages() {
        let (topo, [_a, b, ..]) = figure_1_1();
        let f = topo.node(miro_topology::AsId(6)).expect("F");
        // B avoiding AS 3 (C): B's best BEF already avoids it.
        let config_text = "\
router bgp 2
route-map AVOID_AS permit 10
match empty path 200
try negotiation NEG-3
route-map AVOID_AS permit 20
match as-path 200
ip as-path access-list 200 deny _3_
ip as-path access-list 200 permit .*
negotiation NEG-3
match all path _3_
start negotiation #1 with maximum cost 250
";
        let cfg = parse_config(config_text).expect("parses");
        let st = RoutingState::solve(&topo, f);
        let mut net = MiroNetwork::new(&topo);
        let (kept, outcomes) = run_policy(&cfg, &mut net, &st, b, "AVOID_AS");
        assert!(!kept.is_empty(), "the clean BEF candidate survives");
        assert!(outcomes.is_empty());
        assert!(net.log.is_empty(), "zero control-plane overhead");
    }

    /// The statements each compile to one field; what the dialect cannot
    /// map is an error, not a guess.
    #[test]
    fn responder_statements_compile_field_by_field() {
        let (topo, [a, _b, _c, d, ..]) = figure_1_1();
        let compile = |text: &str| responder(&parse_config(text).expect("parses"), &topo);
        let listed = compile("accept negotiation from 1 4\nwhen tunnel_number < 7\n").unwrap();
        assert_eq!((listed.allow, listed.max_tunnels), (Some(vec![a, d]), 7));
        let open = compile("accept negotiation from any\n").unwrap();
        assert_eq!((open.allow, open.max_tunnels), (None, usize::MAX));
        assert_eq!(open.prices, ResponderConfig::default().prices, "no filter: default prices");
        // A rule without `set tunnel_cost` gives the class away.
        let free = compile("negotiation filter F\nfilter permit local_pref > 100\n").unwrap();
        assert_eq!(free.prices, [Some(0), Some(0), None]);
        assert_eq!(free.allow, Some(vec![]), "no accept statement refuses everyone");
        assert_eq!(compile("accept negotiation from 1 99\n"), Err("unknown AS 99".to_string()));
        let two = compile("negotiation filter F\nnegotiation filter G\n");
        assert!(two.unwrap_err().contains("more than one"));
    }
}
