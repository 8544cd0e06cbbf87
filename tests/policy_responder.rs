//! Section 6.3's responder statements, compiled by
//! `miro_policy::bridge::responder`, are what both handshake drivers
//! enforce: the compiled form, the offers it yields against the default
//! configuration's (in the handshake and in Chapter 5's route count, which
//! both ask `ResponderConfig::offers`), and its refusals through
//! `MiroNetwork` and `ReliableNet` alike. Then what `offers` leaves out:
//! the responder's best path, which the requester already holds.

use miro_bgp::route::ExportScope;
use miro_bgp::solver::RoutingState;
use miro_core::chan::FaultConfig;
use miro_core::export::{export_rel_toward, ExportPolicy, ResponderConfig};
use miro_core::negotiate::{Message, NegotiationError, RejectReason};
use miro_core::node::MiroNetwork;
use miro_core::reliable::{FailReason, ReliableNet};
use miro_core::strategy::{count_available_routes, TargetStrategy};
use miro_eval::datasets::{Dataset, EvalConfig};
use miro_policy::{bridge, parse_config};
use miro_topology::gen::{figure_1_1, DatasetPreset, GenParams};
use miro_topology::{NodeId, RouteClass, Topology};

/// Section 6.3's responding AS, with FILTER-1's thresholds in the
/// local-preference bands of section 2.2.2.
const SECTION_6_3: &str = "\
router bgp 2
accept negotiation from any
when tunnel_number < 1000
negotiation filter FILTER-1
filter permit local_pref > 400
set tunnel_cost 120
filter permit local_pref > 200
set tunnel_cost 180
";

fn compile(text: &str, topo: &Topology) -> ResponderConfig {
    bridge::responder(&parse_config(text).expect("parses"), topo).expect("compiles")
}

/// (a) The text compiles to exactly the four fields.
#[test]
fn section_6_3_compiles_to_one_responder_config() {
    let (topo, _) = figure_1_1();
    assert_eq!(
        compile(SECTION_6_3, &topo),
        ResponderConfig {
            policy: ExportPolicy::RespectExport,
            max_tunnels: 1000,
            allow: None,
            prices: [Some(120), Some(180), None],
        }
    );
}

/// What the responder answered last: its offers, or why it refused.
fn answer(net: &MiroNetwork<'_>) -> Result<Vec<miro_core::export::Offer>, RejectReason> {
    match net.log.last() {
        Some((_, _, Message::Offers { offers, .. })) => Ok(offers.clone()),
        Some((_, _, Message::Reject { reason, .. })) => Err(*reason),
        other => panic!("no answer logged: {other:?}"),
    }
}

/// (b) Every (requester, responder, destination) triple: the compiled
/// config offers the default config's offers minus provider-class routes,
/// at the same prices — or `NoCandidates` when none are left. Under either
/// config the handshake's answer is `ResponderConfig::offers`, and
/// Figure 5.2's route count under the compiled config is the default
/// count minus the provider-class offers.
#[test]
fn filter_1_offers_are_the_default_offers_without_provider_routes() {
    let tiny = GenParams::tiny(7).generate();
    let (mut dropped, mut uncounted) = (0, 0);
    let default = ResponderConfig::default();
    for (topo, step) in [(figure_1_1().0, 1), (tiny, 7)] {
        let compiled = compile(SECTION_6_3, &topo);
        let (mut default_net, mut filtered_net) =
            (MiroNetwork::new(&topo), MiroNetwork::new(&topo));
        for node in topo.nodes() {
            *filtered_net.config_mut(node) = compiled.clone();
        }
        let mut compared = 0;
        for dest in topo.nodes().step_by(step) {
            let st = RoutingState::solve(&topo, dest);
            for requester in topo.nodes().step_by(step) {
                let provider_offers: usize = (TargetStrategy::OnPath.targets(&st, requester, None))
                    .into_iter()
                    .flat_map(|r| default.offers(&st, requester, r, false))
                    .filter(|o| o.route.class == RouteClass::Provider)
                    .count();
                let count = |cfg| count_available_routes(&st, requester, cfg, TargetStrategy::OnPath);
                assert_eq!(
                    count(&compiled),
                    count(&default) - provider_offers,
                    "{requester} counts routes to {dest}"
                );
                uncounted += provider_offers;
                for responder in topo.nodes().step_by(step) {
                    // A budget of 0 buys nothing, so no lease changes state.
                    let plain = default_net.negotiate(&st, requester, responder, vec![], 0);
                    if plain == Err(NegotiationError::SelfNegotiation) {
                        continue;
                    }
                    let _ = filtered_net.negotiate(&st, requester, responder, vec![], 0);
                    let expected = answer(&default_net).map(|mut offers| {
                        let all = offers.len();
                        offers.retain(|o| o.route.class != RouteClass::Provider);
                        dropped += all - offers.len();
                        offers
                    });
                    let expected = match expected {
                        Ok(offers) if offers.is_empty() => Err(RejectReason::NoCandidates),
                        other => other,
                    };
                    assert_eq!(
                        answer(&filtered_net),
                        expected,
                        "{requester} asks {responder} for {dest}"
                    );
                    for (net, cfg) in [(&default_net, &default), (&filtered_net, &compiled)] {
                        let direct = cfg.offers(&st, requester, responder, false);
                        match answer(net) {
                            Ok(offers) => assert_eq!(offers, direct, "{requester} asks {responder}"),
                            Err(why) => assert_eq!(
                                (why, direct.len()),
                                (RejectReason::NoCandidates, 0),
                                "{requester} asks {responder} for {dest}"
                            ),
                        }
                    }
                    compared += 1;
                }
            }
        }
        assert!(
            compared > 100 && default_net.leases().is_empty() && filtered_net.leases().is_empty()
        );
    }
    assert!(dropped > 0, "FILTER-1 took some provider route off sale");
    assert!(uncounted > 0, "FILTER-1 moved some Figure 5.2 route count");
}

/// (c) An allow list refuses with `NotAllowed`, `tunnel_number < 1` with
/// `TunnelLimit` once one tunnel is sold — through both drivers.
#[test]
fn admission_statements_refuse_through_both_drivers() {
    let (topo, [a, b, _c, d, e, f]) = figure_1_1();
    let st = RoutingState::solve(&topo, f);
    let avoid_e = || vec![miro_core::negotiate::Constraint::AvoidAs(e)];
    // (config, who buys the only tunnel first, who is then refused, why)
    let cases = [
        (
            "router bgp 2\naccept negotiation from 4\n",
            None,
            a,
            RejectReason::NotAllowed,
        ),
        (
            "router bgp 2\naccept negotiation from any\nwhen tunnel_number < 1\n",
            Some(a),
            d,
            RejectReason::TunnelLimit,
        ),
    ];
    for (text, first, asker, reason) in cases {
        let cfg = compile(text, &topo);
        let mut net = MiroNetwork::new(&topo);
        *net.config_mut(b) = cfg.clone();
        if let Some(buyer) = first {
            net.negotiate(&st, buyer, b, avoid_e(), 250)
                .expect("the first tunnel fits");
        }
        let got = net.negotiate(&st, asker, b, avoid_e(), 250);
        assert_eq!(got, Err(NegotiationError::Rejected(reason)), "{text}");

        let mut rel = ReliableNet::new(&topo, FaultConfig::PERFECT, 1);
        *rel.config_mut(b) = cfg;
        for requester in first.into_iter().chain([asker]) {
            rel.start(&st, requester, b, avoid_e(), 250)
                .expect("starts");
            rel.run_until_settled(&st, 50);
        }
        let results: Vec<_> = rel.outcomes().iter().map(|o| o.result).collect();
        let expected: Vec<_> = first
            .map(|_| net.leases()[0].id)
            .into_iter()
            .map(Ok)
            .chain([Err(FailReason::Rejected(reason))])
            .collect();
        assert_eq!(results, expected, "{text}");
    }
}

/// (d) A block with no `accept` statement refuses every requester.
#[test]
fn no_accept_statement_refuses_everyone() {
    let (topo, [_a, b, _c, _d, _e, f]) = figure_1_1();
    let st = RoutingState::solve(&topo, f);
    let mut net = MiroNetwork::new(&topo);
    *net.config_mut(b) = compile(
        "router bgp 2\nnegotiation filter FILTER-1\nfilter permit local_pref > 0\n",
        &topo,
    );
    for requester in topo.nodes().filter(|&n| n != b && n != f) {
        let got = net.negotiate(&st, requester, b, vec![], u32::MAX);
        assert_eq!(
            got,
            Err(NegotiationError::Rejected(RejectReason::NotAllowed)),
            "AS{requester}"
        );
    }
}

/// (e) `ResponderConfig::offers` drops the responder's best path because
/// the requester already holds it. On a Gao 2005 stride, whenever a level
/// would reveal that best path toward the requester, the requester holds
/// it as a candidate or as its own default path's suffix, or the path
/// runs through the requester — for on-path and 1-hop responders under
/// every level, except 1-hop `/a`, which reveals routes BGP's export rule
/// withheld from the requester.
#[test]
fn dropped_best_path_is_one_the_requester_already_holds() {
    let topo = Dataset::build(DatasetPreset::Gao2005, &EvalConfig::default()).topo;
    // Per (strategy, level): bests revealed, and of those, held and
    // looping through the requester; the rest the requester lacks.
    let strategies = [TargetStrategy::OnPath, TargetStrategy::OneHop];
    let mut counts = [[(0usize, 0usize, 0usize); 3]; 2];
    for dest in topo.nodes().step_by(17) {
        let st = RoutingState::solve(&topo, dest);
        for requester in topo.nodes().step_by(5).filter(|&r| r != dest) {
            let candidates = st.candidates(requester);
            let default = st.path(requester).unwrap_or_default();
            for (s, strategy) in strategies.into_iter().enumerate() {
                for responder in strategy.targets(&st, requester, None) {
                    let (Some(best), Some(path)) = (st.best(responder), st.path(responder)) else {
                        continue;
                    };
                    let toward = export_rel_toward(&st, requester, responder);
                    let via: Vec<NodeId> =
                        std::iter::once(responder).chain(path.iter().copied()).collect();
                    let held = candidates.iter().any(|c| c.path == via)
                        || default
                            .iter()
                            .position(|&x| x == responder)
                            .is_some_and(|i| default[i + 1..] == path[..]);
                    let loops = path.contains(&requester);
                    for (l, policy) in ExportPolicy::ALL.into_iter().enumerate() {
                        // Every level reveals a route of the best's own
                        // class wherever the export rule allows it; `/a`
                        // reveals it everywhere.
                        if policy == ExportPolicy::Flexible
                            || ExportScope::allows(best.class, toward)
                        {
                            let c = &mut counts[s][l];
                            c.0 += 1;
                            c.1 += usize::from(held);
                            c.2 += usize::from(!held && loops);
                        }
                    }
                }
            }
        }
    }
    for (s, strategy) in strategies.into_iter().enumerate() {
        for (l, policy) in ExportPolicy::ALL.into_iter().enumerate() {
            let (revealed, held, loops) = counts[s][l];
            let lacks = revealed - held - loops;
            let strategy = strategy.label();
            println!(
                "{strategy} {}: {revealed} bests revealed, {held} held, {loops} through the requester, {lacks} lacking",
                policy.label()
            );
            if (strategy, policy) == ("1-hop", ExportPolicy::Flexible) {
                assert!(lacks > 0, "1-hop /a reveals bests the requester was never sent");
            } else {
                assert_eq!(
                    lacks,
                    0,
                    "{strategy} {} reveals a best the requester lacks",
                    policy.label()
                );
                assert!(revealed > 0);
            }
        }
    }
}
