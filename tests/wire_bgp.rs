//! The wire-level rung of the oracle chain: one [`Speaker`] per AS,
//! talking real OPEN / UPDATE / NOTIFICATION bytes, must converge to the
//! table the AS-level solver computes — heap ≡ kernel ≡ delta ≡ speakers.
//!
//! The wiring is the whole translation between the two models:
//!
//! * a neighbour's relationship becomes its `PeerConfig`: LOCAL_PREF is
//!   the class's conventional band (Guideline A), and `full_export` is
//!   "this neighbour is my customer" (the export rule of section 2.2.1);
//! * peers are added in ascending-ASN order, so decision step 7
//!   (`router_id` = peer index) is the solver's lowest-next-hop-ASN
//!   tie-break;
//! * a link failure is a NOTIFICATION into both ends of the session.
//!
//! What the wiring cannot express is refused with a typed error rather
//! than approximated: a two-valued export flag has no sibling transit,
//! and the codec carries 16-bit AS numbers.

use miro_bgp::solver::RoutingState;
use miro_bgp::session::State;
use miro_bgp::speaker::{pump, PeerConfig, Speaker};
use miro_bgp::wire::{BgpMessage, WirePrefix};
use miro_topology::gen::figure_1_1;
use miro_topology::{AsId, GenParams, NodeId, Rel, RouteClass, Topology};

/// Why a topology cannot be wired up speaker by speaker.
#[derive(Debug, PartialEq, Eq)]
enum Unwirable {
    /// `PeerConfig::full_export` is customer / not-customer; a sibling
    /// link (transit both ways, class inherited) fits neither.
    SiblingLink(AsId, AsId),
    /// The wire codec encodes 2-octet AS numbers.
    WideAsn(AsId),
}

/// How to derive the sessions from the relationships. `SOLVER` is the
/// wiring under test; the other two are the mutants that show the rung
/// can fail.
#[derive(Clone, Copy)]
struct Wiring {
    descending_peers: bool,
    peers_get_full_export: bool,
}

const SOLVER: Wiring = Wiring { descending_peers: false, peers_get_full_export: false };

/// One speaker per AS (index = `NodeId`) and the sessions between them.
struct Fabric<'t> {
    topo: &'t Topology,
    speakers: Vec<Speaker>,
    /// (speaker a, peer index at a, speaker b, peer index at b), a < b.
    links: Vec<(usize, usize, usize, usize)>,
    prefix: WirePrefix,
}

impl<'t> Fabric<'t> {
    /// Wire `topo` up, originate one prefix at `dest`, and converge.
    fn converge(topo: &'t Topology, dest: NodeId, wiring: Wiring) -> Result<Fabric<'t>, Unwirable> {
        let short = |x: NodeId| u16::try_from(topo.asn(x).0).map_err(|_| Unwirable::WideAsn(topo.asn(x)));
        // Each node's neighbours in session order.
        let order: Vec<Vec<(NodeId, Rel)>> = topo
            .nodes()
            .map(|x| {
                let mut ns = topo.neighbors(x).to_vec();
                ns.sort_by_key(|&(y, _)| topo.asn(y));
                if wiring.descending_peers {
                    ns.reverse();
                }
                ns
            })
            .collect();
        let mut speakers = Vec::with_capacity(topo.num_nodes());
        for x in topo.nodes() {
            let mut s = Speaker::new(short(x)?, x);
            for &(y, rel) in &order[x as usize] {
                let (class, full_export) = match rel {
                    Rel::Customer => (RouteClass::Customer, true),
                    Rel::Peer => (RouteClass::Peer, wiring.peers_get_full_export),
                    Rel::Provider => (RouteClass::Provider, false),
                    Rel::Sibling => return Err(Unwirable::SiblingLink(topo.asn(x), topo.asn(y))),
                };
                s.add_peer(PeerConfig::ebgp(short(y)?, class.local_pref(), full_export));
            }
            speakers.push(s);
        }
        let index_at = |x: NodeId, y: NodeId| {
            order[x as usize].iter().position(|&(n, _)| n == y).expect("links are symmetric")
        };
        let links = topo
            .nodes()
            .flat_map(|x| order[x as usize].iter().map(move |&(y, _)| (x, y)))
            .filter(|&(x, y)| x < y)
            .map(|(x, y)| (x as usize, index_at(x, y), y as usize, index_at(y, x)))
            .collect();
        let prefix = WirePrefix::new(0x0a00_0000, 8);
        speakers[dest as usize].originate(prefix);
        speakers.iter_mut().for_each(Speaker::start);
        let mut fabric = Fabric { topo, speakers, links, prefix };
        pump(&mut fabric.speakers, &fabric.links);
        Ok(fabric)
    }

    /// Take the `a`-`b` session out of the pump set.
    fn cut(&mut self, a: NodeId, b: NodeId) -> (usize, usize, usize, usize) {
        let (lo, hi) = (a.min(b) as usize, a.max(b) as usize);
        let at = self.links.iter().position(|l| (l.0, l.2) == (lo, hi)).expect("a live link");
        self.links.remove(at)
    }

    /// The session between `a` and `b` dies: a NOTIFICATION (cease) lands
    /// on both ends, the transport is gone, everyone re-converges.
    fn fail_link(&mut self, a: NodeId, b: NodeId) {
        let (x, px, y, py) = self.cut(a, b);
        let cease = BgpMessage::Notification { code: 6, subcode: 0, data: vec![] }
            .emit()
            .expect("NOTIFICATION encodes");
        self.speakers[x].input(px, &cease);
        self.speakers[y].input(py, &cease);
        pump(&mut self.speakers, &self.links);
    }

    /// The same failure, noticed the slow way: the link goes silent and
    /// both ends' hold timers (90) run out, while KEEPALIVEs every 30 keep
    /// every other session up.
    fn silence_link(&mut self, a: NodeId, b: NodeId) {
        self.cut(a, b);
        for now in (30..=120).step_by(30) {
            self.speakers.iter_mut().for_each(|s| s.tick(now));
            pump(&mut self.speakers, &self.links);
        }
    }

    /// Every AS's selected AS path, as AS numbers.
    fn table(&self) -> Vec<Option<Vec<u32>>> {
        self.speakers.iter().map(|s| s.best_path(self.prefix)).collect()
    }

    /// The first AS (if any) whose speaker disagrees with `st`.
    fn disagreement(&self, st: &RoutingState<'_>) -> Option<String> {
        self.topo.nodes().find_map(|x| {
            let want = st.path(x).map(|p| p.iter().map(|&h| self.topo.asn(h).0).collect::<Vec<_>>());
            let got = self.speakers[x as usize].best_path(self.prefix);
            (got != want).then(|| {
                format!(
                    "AS{} toward AS{}: speaker {got:?}, solver {want:?}",
                    self.topo.asn(x),
                    self.topo.asn(st.dest())
                )
            })
        })
    }
}

#[track_caller]
fn assert_agrees(fabric: &Fabric<'_>, st: &RoutingState<'_>) {
    if let Some(diff) = fabric.disagreement(st) {
        panic!("{diff}");
    }
}

/// The generated graph of the rung: `GenParams::tiny` without its four
/// sibling links (120 ASes, ASNs 100..460).
fn tiny(seed: u64) -> Topology {
    GenParams { target_sibling_links: 0, ..GenParams::tiny(seed) }.generate()
}

/// At least sixteen destinations spread over the tiers (core first, stubs last).
fn sampled_dests(topo: &Topology) -> impl Iterator<Item = NodeId> + '_ {
    topo.nodes().step_by(topo.num_nodes() / 16)
}

/// Figure 1.1 (A..F = AS 1..6), every destination, every AS.
///
/// ```text
///   provider -> customer        peer == peer
///   B -> A     D -> A           B == C
///   B -> E     D -> E           C == E
///   C -> F     E -> F
/// ```
#[test]
fn figure_1_1_speakers_converge_to_the_solver_table() {
    let (topo, [a, b, c, d, e, f]) = figure_1_1();
    for dest in topo.nodes() {
        let fabric = Fabric::converge(&topo, dest, SOLVER).expect("no siblings, small ASNs");
        assert_agrees(&fabric, &RoutingState::solve(&topo, dest));
    }
    // The paper's running example, spelled out: toward F, A goes via B
    // and E, while B holds — but does not announce — the BCF alternate.
    let fabric = Fabric::converge(&topo, f, SOLVER).expect("wirable");
    let table = fabric.table();
    assert_eq!(table[a as usize], Some(vec![2, 5, 6]), "A: B E F");
    assert_eq!(table[b as usize], Some(vec![5, 6]), "B: E F (customer route beats the peer's)");
    assert_eq!(table[c as usize], Some(vec![6]));
    assert_eq!(table[d as usize], Some(vec![5, 6]));
    assert_eq!(table[e as usize], Some(vec![6]));
    assert_eq!(table[f as usize], Some(vec![]), "the origin's null path");
}

#[test]
fn generated_topology_speakers_converge_to_the_solver_table() {
    let topo = tiny(7);
    let mut checked = 0;
    for dest in sampled_dests(&topo) {
        let fabric = Fabric::converge(&topo, dest, SOLVER).expect("sibling-free, small ASNs");
        assert_agrees(&fabric, &RoutingState::solve(&topo, dest));
        checked += 1;
    }
    assert!(checked >= 16, "{checked} destinations");
}

/// Session loss ≡ `solve_without_link`: on Figure 1.1 the E-F link every
/// default path crosses, by NOTIFICATION and by hold-timer expiry; on the
/// generated graph, for each sampled destination, the last link of the
/// longest best path.
#[test]
fn a_dropped_session_reconverges_to_solve_without_link() {
    let (fig, [.., e, f]) = figure_1_1();
    let mut fabric = Fabric::converge(&fig, f, SOLVER).expect("wirable");
    fabric.fail_link(e, f);
    assert_agrees(&fabric, &RoutingState::solve_without_link(&fig, f, e, f));
    let mut fabric = Fabric::converge(&fig, f, SOLVER).expect("wirable");
    fabric.silence_link(e, f);
    assert_agrees(&fabric, &RoutingState::solve_without_link(&fig, f, e, f));
    let up = |s: &Speaker, peers| (0..peers).filter(|&i| s.session_state(i) == State::Established).count();
    assert_eq!(up(&fabric.speakers[e as usize], 4), 3, "E lost F, kept B, C and D");
    assert_eq!(up(&fabric.speakers[f as usize], 2), 1, "F lost E, kept C");

    let topo = tiny(7);
    let mut failures = 0;
    for dest in sampled_dests(&topo) {
        let st = RoutingState::solve(&topo, dest);
        let far = topo.nodes().max_by_key(|&x| st.best(x).map_or(0, |b| b.len)).expect("nodes");
        let path = st.path(far).expect("routed");
        // The last link of that path: the destination's busiest access link.
        let (a, b) = match path.as_slice() {
            [.., a, b] => (*a, *b),
            [b] => (far, *b),
            [] => continue,
        };
        let mut fabric = Fabric::converge(&topo, dest, SOLVER).expect("wirable");
        fabric.fail_link(a, b);
        let after = RoutingState::solve_without_link(&topo, dest, a, b);
        assert_ne!(after.path(far), Some(path), "the failed link was on a best path");
        assert_agrees(&fabric, &after);
        failures += 1;
    }
    assert!(failures >= 10, "{failures} single-link failures");
}

/// The rung is an oracle, not a tautology: break either half of the
/// wiring and some AS lands on a different path than the solver's.
#[test]
fn a_wrong_wiring_disagrees_with_the_solver() {
    let (topo, _) = figure_1_1();
    for (what, wiring) in [
        ("descending-ASN peer order", Wiring { descending_peers: true, ..SOLVER }),
        ("full export to peers", Wiring { peers_get_full_export: true, ..SOLVER }),
    ] {
        let caught = topo.nodes().any(|dest| {
            let fabric = Fabric::converge(&topo, dest, wiring).expect("wirable");
            fabric.disagreement(&RoutingState::solve(&topo, dest)).is_some()
        });
        assert!(caught, "{what} went unnoticed");
    }
}

/// The rung's limit, stated as a test: the CAIDA-style fixture has the
/// 10/11 sibling pair, and a widened AS number does not fit the codec.
#[test]
fn siblings_and_wide_asns_are_refused_not_approximated() {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/data/caida_sample.txt"))
        .expect("fixture ships with the repo");
    let (caida, _) = miro_topology::io::stream::parse(text.as_bytes()).expect("parses");
    let err = Fabric::converge(&caida, 0, SOLVER).err().expect("caida_sample has a sibling link");
    assert!(
        matches!(err, Unwirable::SiblingLink(a, b) if [a.0, b.0] == [10, 11] || [a.0, b.0] == [11, 10]),
        "{err:?}"
    );

    let mut b = miro_topology::TopologyBuilder::new();
    b.add_as(AsId(70_000));
    b.add_as(AsId(7));
    b.provider_customer(AsId(70_000), AsId(7));
    let wide = b.build().expect("valid");
    let err = Fabric::converge(&wide, 0, SOLVER).err().expect("70000 > 65535");
    assert_eq!(err, Unwirable::WideAsn(AsId(70_000)));
}
