//! Fuzz the configuration parser the way the shard, serve and churn codecs
//! are fuzzed: arbitrary-Unicode line soup, dialect token soup, every
//! single-byte flip of the shipped configurations, and truncation at every
//! cut. Each input parses or fails with a line number inside the text;
//! every config that parses runs each of its route-maps over Figure 1.1's
//! candidates and compiles through `bridge::responder` without panicking.

use miro_bgp::solver::RoutingState;
use miro_policy::eval::PolicyRoute;
use miro_policy::{bridge, parse_config};
use miro_topology::gen::figure_1_1;
use miro_topology::Topology;
use proptest::prelude::*;

/// Section 6.3's responder, as `tests/policy_responder.rs` compiles it.
const RESPONDER: &str = "\
router bgp 2
accept negotiation from any
when tunnel_number < 1000
negotiation filter FILTER-1
filter permit local_pref > 400
set tunnel_cost 120
filter permit local_pref > 200
set tunnel_cost 180
";

#[rustfmt::skip]
const TOKENS: &[&str] = &[
    "router", "bgp", "neighbor", "remote-as", "route-map", "permit", "deny", "in", "out", "match",
    "as-path", "empty", "path", "all", "set", "local-preference", "try", "negotiation", "ip",
    "access-list", "start", "#1", "with", "maximum", "cost", "accept", "from", "any", "when",
    "tunnel_number", "<", ">", "filter", "local_pref", "tunnel_cost", "!", "0", "1", "2", "5", "6",
    "250", "1000", "4294967295", "4294967296", "_5_", "^1", ".*", "$", "_", "+", "?", "*", "\n",
    "\n", "\n",
];

/// Figure 1.1's candidate sets, one per (AS, destination), as AS-number
/// paths with conventional local preferences.
fn figure_candidates(topo: &Topology) -> Vec<Vec<PolicyRoute>> {
    let mut sets = Vec::new();
    for dest in topo.nodes() {
        let st = RoutingState::solve(topo, dest);
        for x in topo.nodes() {
            let routes = st.candidates(x).into_iter().map(|c| PolicyRoute {
                path: c.path.iter().map(|&h| topo.asn(h).0).collect(),
                local_pref: c.class.local_pref(),
            });
            sets.push(routes.collect());
        }
    }
    sets
}

/// The contract for one input.
fn check(text: &str, topo: &Topology, sets: &[Vec<PolicyRoute>]) {
    match parse_config(text) {
        Err(e) => assert!(
            (1..=text.lines().count()).contains(&e.line),
            "error line {} outside the {}-line input {text:?}",
            e.line,
            text.lines().count()
        ),
        Ok(cfg) => {
            for rm in &cfg.route_maps {
                for routes in sets {
                    let _ = cfg.apply_route_map(&rm.name, routes);
                }
            }
            let _ = bridge::responder(&cfg, topo);
        }
    }
}

fn shipped() -> [String; 2] {
    let demo = concat!(env!("CARGO_MANIFEST_DIR"), "/../../data/policy_demo.conf");
    [
        std::fs::read_to_string(demo).expect("the demo config ships with the repo"),
        RESPONDER.to_string(),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Lines of arbitrary Unicode scalar values.
    #[test]
    fn unicode_line_soup_parses_or_names_a_line(raw in proptest::collection::vec(any::<u32>(), 0..400)) {
        let text: String = raw
            .iter()
            .map(|&x| match x % 8 {
                0 => '\n',
                1 => ' ',
                _ => char::from_u32(x >> 11).unwrap_or('\u{fffd}'),
            })
            .collect();
        let (topo, _) = figure_1_1();
        check(&text, &topo, &figure_candidates(&topo));
    }

    /// Dialect keywords, numbers and regex pieces in any order: mostly
    /// near-misses of real statements.
    #[test]
    fn token_soup_parses_or_names_a_line(picks in proptest::collection::vec(0usize..TOKENS.len(), 0..160)) {
        let text = picks.iter().map(|&i| TOKENS[i]).collect::<Vec<_>>().join(" ");
        let (topo, _) = figure_1_1();
        check(&text, &topo, &figure_candidates(&topo));
    }
}

#[test]
fn every_single_byte_flip_of_the_shipped_configs() {
    let (topo, _) = figure_1_1();
    let sets = figure_candidates(&topo);
    for text in shipped() {
        let bytes = text.as_bytes();
        for at in 0..bytes.len() {
            for flip in 1..=255u8 {
                let mut bad = bytes.to_vec();
                bad[at] ^= flip;
                if let Ok(bad) = String::from_utf8(bad) {
                    check(&bad, &topo, &sets);
                }
            }
        }
    }
}

#[test]
fn truncation_at_every_cut() {
    let (topo, _) = figure_1_1();
    let sets = figure_candidates(&topo);
    for text in shipped() {
        for cut in (0..=text.len()).filter(|&c| text.is_char_boundary(c)) {
            check(&text[..cut], &topo, &sets);
        }
    }
}
