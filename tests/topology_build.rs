//! Tier-1 rung for topology ingest. The production `TopologyBuilder`
//! (one sort of every link declaration) is held to a copy of the builder
//! it replaced — a hash-map edge store, one sort per neighbour list and
//! class partitions by filtering — on Figure 1.1, every preset, the
//! Internet-scale preset and proptest soups of duplicates, conflicting
//! redeclarations, self-loops and isolated ASes. `stream::parse` and
//! `TopologyDoc::build` are held to the same reference declaration by
//! declaration (counters, or the first error with its line and byte),
//! `to_text`'s line order to string order, and the text and cache bytes
//! of the benchmark's graph to FNV digests.

use miro_shard::fnv1a;
use miro_topology::gen::{figure_1_1, DatasetPreset};
use miro_topology::io::stream::{self, ErrorKind, IngestCache, ParseStats};
use miro_topology::io::{self, TopologyDoc};
use miro_topology::{AsId, NodeId, Rel, Topology, TopologyBuilder, TopologyError, MAX_DEGREE, SLOT_ORDER};
use proptest::prelude::*;
use std::collections::HashMap;

// --- The reference: the builder as it was, kept only here ---------------

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Outcome {
    Added,
    Duplicate,
    Conflict,
    SelfLoop,
}

#[derive(Default)]
struct Reference {
    asns: Vec<AsId>,
    index: HashMap<AsId, NodeId>,
    edges: HashMap<(NodeId, NodeId), Rel>,
    duplicate: Option<AsId>,
    unknown: Option<AsId>,
    self_loop: Option<AsId>,
    conflict: Option<(AsId, AsId)>,
}

/// What the reference builds: each node's id-sorted list, slot order,
/// back slots and transit-down slice, and the sinks.
struct Built {
    asns: Vec<AsId>,
    lists: Vec<Vec<(NodeId, Rel)>>,
    slots: Vec<Vec<NodeId>>,
    back: Vec<Vec<u16>>,
    tdown: Vec<Vec<NodeId>>,
    sinks: Vec<NodeId>,
}

impl Reference {
    fn add_as(&mut self, asn: AsId) {
        let fresh = self.asns.len();
        self.intern_as(asn);
        if self.asns.len() == fresh {
            self.duplicate = Some(asn);
        }
    }

    fn intern_as(&mut self, asn: AsId) -> NodeId {
        let asns = &mut self.asns;
        *self.index.entry(asn).or_insert_with(|| {
            asns.push(asn);
            (asns.len() - 1) as NodeId
        })
    }

    /// The edge map holds each link once, from the lower id's side; the
    /// first declaration of a pair is the one kept.
    fn record(&mut self, ia: NodeId, ib: NodeId, rel: Rel) -> Outcome {
        let (key, stored) = if ia < ib { ((ia, ib), rel) } else { ((ib, ia), rel.reverse()) };
        match self.edges.get(&key) {
            Some(&r) if r == stored => Outcome::Duplicate,
            Some(_) => Outcome::Conflict,
            None => {
                self.edges.insert(key, stored);
                Outcome::Added
            }
        }
    }

    fn link(&mut self, a: AsId, b: AsId, rel: Rel) {
        if a == b {
            self.self_loop = Some(a);
            return;
        }
        let (Some(&ia), Some(&ib)) = (self.index.get(&a), self.index.get(&b)) else {
            self.unknown = Some(if self.index.contains_key(&a) { b } else { a });
            return;
        };
        if self.record(ia, ib, rel) == Outcome::Conflict {
            self.conflict = Some((a, b));
        }
    }

    fn try_link(&mut self, a: AsId, b: AsId, rel: Rel) -> Outcome {
        if a == b {
            return Outcome::SelfLoop;
        }
        let (ia, ib) = (self.intern_as(a), self.intern_as(b));
        self.record(ia, ib, rel)
    }

    fn build(self) -> Result<Built, TopologyError> {
        if let Some(a) = self.duplicate {
            return Err(TopologyError::DuplicateAs(a));
        }
        if let Some(a) = self.unknown {
            return Err(TopologyError::UnknownAs(a));
        }
        if let Some(a) = self.self_loop {
            return Err(TopologyError::SelfLoop(a));
        }
        if let Some((a, b)) = self.conflict {
            return Err(TopologyError::ConflictingEdge(a, b));
        }
        let n = self.asns.len();
        let mut lists = vec![Vec::new(); n];
        for (&(x, y), &rel) in &self.edges {
            lists[x as usize].push((y, rel));
            lists[y as usize].push((x, rel.reverse()));
        }
        for (x, list) in lists.iter_mut().enumerate() {
            if list.len() > MAX_DEGREE {
                return Err(TopologyError::DegreeTooHigh(self.asns[x], list.len()));
            }
            list.sort_unstable_by_key(|&(y, _)| y);
        }
        let class = |x: usize, c: Rel| lists[x].iter().filter(move |&&(_, r)| r == c).map(|&(y, _)| y);
        let slots: Vec<Vec<NodeId>> = (0..n).map(|x| SLOT_ORDER.iter().flat_map(|&c| class(x, c)).collect()).collect();
        let slot_of = |y: NodeId, x: usize| slots[y as usize].iter().position(|&z| z as usize == x).unwrap() as u16;
        let back = (0..n).map(|x| slots[x].iter().map(|&y| slot_of(y, x)).collect()).collect();
        let transit = |x: NodeId| lists[x as usize].iter().any(|&(_, r)| matches!(r, Rel::Customer | Rel::Sibling));
        let tdown = (0..n)
            .map(|x| class(x, Rel::Sibling).chain(class(x, Rel::Customer).filter(|&y| transit(y))).collect())
            .collect();
        let sinks = (0..n as NodeId).filter(|&x| !transit(x)).collect();
        Ok(Built { asns: self.asns, lists, slots, back, tdown, sinks })
    }
}

/// The production topology equals the reference's, read through every
/// accessor the solver and the table file use.
fn assert_same(t: &Topology, r: &Built) {
    assert_eq!(t.num_nodes(), r.asns.len());
    for (i, &asn) in r.asns.iter().enumerate() {
        let x = i as NodeId;
        assert_eq!((t.asn(x), t.node(asn)), (asn, Some(x)));
        assert_eq!(t.neighbors(x), &r.lists[i][..], "AS {asn}'s neighbours");
        let (ys, backs) = t.slot_offers(x);
        assert_eq!((t.slot_neighbors(x), ys), (&r.slots[i][..], &r.slots[i][..]), "AS {asn}'s slot order");
        assert_eq!(backs, &r.back[i][..], "AS {asn}'s back slots");
        let (down, down_backs) = t.transit_down_offers(x);
        assert_eq!(down, &r.tdown[i][..], "AS {asn}'s transit-down slice");
        for (&y, &b) in down.iter().zip(down_backs) {
            assert_eq!(r.slots[y as usize][b as usize], x, "AS {asn}'s transit-down back slots");
        }
    }
    assert_eq!(t.sinks(), &r.sinks[..]);
    for absent in [0, 1, 2, u32::MAX] {
        let absent = AsId(absent);
        assert_eq!(t.node(absent), r.asns.iter().position(|&a| a == absent).map(|i| i as NodeId));
    }
}

fn check(t: &Result<Topology, TopologyError>, r: Result<Built, TopologyError>) {
    match (t, r) {
        (Ok(t), Ok(r)) => assert_same(t, &r),
        (Err(t), Err(r)) => assert_eq!(t, &r),
        (t, r) => panic!("production {:?}, reference {:?}", t.as_ref().map(|_| ()), r.map(|_| ())),
    }
}

// --- Soups --------------------------------------------------------------

const RELS: [Rel; 4] = [Rel::Customer, Rel::Provider, Rel::Peer, Rel::Sibling];

/// A small pool of ASNs of every width, so soups collide often.
fn asn(i: u32) -> AsId {
    const POOL: [u32; 12] = [0, 9, 10, 12, 99, 100, 120, 123, 1200, 65_536, 1_200_000_000, u32::MAX];
    AsId(POOL[i as usize % POOL.len()])
}

fn soup() -> impl Strategy<Value = Vec<(u32, u32, u8)>> {
    proptest::collection::vec((0u32..12, 0u32..12, 0u8..4), 0..40)
}

/// The same soup declared through `link` to both builders: `registered`
/// ASes added first (`twice` adds one of them again), and every
/// declaration kept (`clean` drops self-loops and unknown endpoints, so
/// conflicts are what decides).
fn link_both(soup: &[(u32, u32, u8)], registered: u32, twice: bool, clean: bool) {
    let (mut b, mut r) = (TopologyBuilder::new(), Reference::default());
    for i in 0..registered {
        b.add_as(asn(i));
        r.add_as(asn(i));
    }
    if twice && registered > 0 {
        b.add_as(asn(0));
        r.add_as(asn(0));
    }
    for &(x, y, rel) in soup {
        if clean && (x == y || x >= registered || y >= registered) {
            continue;
        }
        b.link(asn(x), asn(y), RELS[rel as usize]);
        r.link(asn(x), asn(y), RELS[rel as usize]);
    }
    check(&b.build(), r.build());
}

/// A soup rendered as a snapshot: one record per declaration (CAIDA form
/// where `caida` says so and the relationship has one), a comment or a
/// blank or a line padded past 255 bytes here and there, and a truncated
/// record at line `bad` if it is in range. Returns the text and, per
/// line, its number, its start and what it holds.
type Line = (usize, u64, Record);

#[derive(Clone, Copy)]
enum Record {
    Skipped,
    Malformed,
    Declares(AsId, AsId, Rel),
}

fn render(soup: &[(u32, u32, u8)], caida: u32, bad: usize) -> (String, Vec<Line>) {
    let (mut text, mut lines) = (String::new(), Vec::new());
    for (i, &(x, y, rel)) in soup.iter().enumerate() {
        let (a, c, rel) = (asn(x), asn(y), RELS[rel as usize]);
        let start = text.len() as u64;
        if lines.len() + 1 == bad {
            text.push_str("17 18\n");
            lines.push((lines.len() + 1, start, Record::Malformed));
            continue;
        }
        let (record, a, c, rel) = match (caida >> (i % 32) & 1 == 1, rel) {
            (true, Rel::Customer) => (format!("{a}|{c}|-1\n"), a, c, rel),
            (true, Rel::Provider) => (format!("{c}|{a}|-1|bgp\n"), c, a, Rel::Customer),
            (true, Rel::Peer) => (format!("{a}|{c}|0\n"), a, c, rel),
            (true, Rel::Sibling) => (format!("{a} | {c} | 1\r\n"), a, c, rel),
            (false, _) if i % 7 == 3 => (format!("{a}{}{c}\t{}\n", " ".repeat(300), rel.tag()), a, c, rel),
            (false, _) => (format!("{a} {c} {}\n", rel.tag()), a, c, rel),
        };
        text.push_str(&record);
        lines.push((lines.len() + 1, start, Record::Declares(a, c, rel)));
        if i % 5 == 2 {
            let start = text.len() as u64;
            text.push_str(if i % 2 == 0 { "# a comment\n" } else { "\n" });
            lines.push((lines.len() + 1, start, Record::Skipped));
        }
    }
    (text, lines)
}

/// What `stream::parse` of `render`'s text must return, line by line
/// through the reference: the first conflict or malformed record,
/// whichever comes first, else the counters and the graph.
fn expected_parse(text: &str, lines: &[Line]) -> Result<(Built, ParseStats), stream::ParseError> {
    let (mut r, mut stats) = (Reference::default(), ParseStats::default());
    for &(line, offset, record) in lines {
        stats.lines += 1;
        let at = |kind| stream::ParseError { line, offset, kind };
        let (a, c, rel) = match record {
            Record::Skipped => {
                stats.comments += 1;
                continue;
            }
            Record::Malformed => return Err(at(ErrorKind::BadLine)),
            Record::Declares(a, c, rel) => (a, c, rel),
        };
        match r.try_link(a, c, rel) {
            Outcome::Added => stats.edges += 1,
            Outcome::Duplicate => stats.duplicate_edges += 1,
            Outcome::SelfLoop => stats.self_loops += 1,
            Outcome::Conflict => return Err(at(ErrorKind::ConflictingEdge(a.min(c), a.max(c)))),
        }
    }
    stats.bytes = text.len() as u64;
    if stats.edges + stats.duplicate_edges + stats.self_loops == 0 {
        return Err(stream::ParseError { line: 0, offset: stats.bytes, kind: ErrorKind::Empty });
    }
    stats.nodes = r.asns.len();
    Ok((r.build().expect("a soup with no conflict builds"), stats))
}

fn parse_matches(text: &str, lines: &[Line]) {
    match (stream::parse_str(text), expected_parse(text, lines)) {
        (Ok((t, stats)), Ok((r, want))) => {
            assert_eq!(stats, want);
            assert_same(&t, &r);
        }
        (Err(e), Err(want)) => assert_eq!(e, want, "{text}"),
        (got, want) => panic!("parse gave {:?}, the reference {:?}\n{text}", got.map(|(_, s)| s), want.map(|(_, s)| s)),
    }
}

/// What `TopologyDoc::build` must return, through the reference: the
/// first bad tag, self-loop or conflict in link order, else the graph.
fn doc_matches(doc: &TopologyDoc) {
    let mut r = Reference::default();
    for &a in &doc.isolated {
        r.intern_as(AsId(a));
    }
    let mut want = None;
    for &(x, y, tag) in &doc.links {
        let Some(rel) = Rel::from_tag(tag) else {
            want = Some(io::ParseError::BadTag(0, tag));
            break;
        };
        let refused = match r.try_link(AsId(x), AsId(y), rel) {
            Outcome::Added | Outcome::Duplicate => continue,
            Outcome::SelfLoop => TopologyError::SelfLoop(AsId(x)),
            Outcome::Conflict => TopologyError::ConflictingEdge(AsId(x), AsId(y)),
        };
        want = Some(io::ParseError::Invalid(refused));
        break;
    }
    match (doc.build(), want) {
        (Err(e), Some(want)) => assert_eq!(e, want),
        (Ok(t), None) => assert_same(&t, &r.build().expect("builds")),
        (got, want) => panic!("doc build gave {:?}, the reference {want:?}", got.map(|_| ())),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    #[test]
    fn link_soups_build_as_the_reference_does(
        soup in soup(), registered in 0u32..13, twice in 0u8..4, clean in 0u8..3,
    ) {
        link_both(&soup, registered, twice == 0, clean > 0);
    }

    #[test]
    fn parsed_soups_count_and_fail_as_the_reference_does(
        soup in soup(), caida in proptest::prelude::any::<u32>(), bad in 0usize..60,
    ) {
        let (text, lines) = render(&soup, caida, bad);
        parse_matches(&text, &lines);
    }

    #[test]
    fn cached_soups_build_as_the_reference_does(
        soup in soup(), isolated in proptest::collection::vec(0u32..16, 0..4), bad_tag in 0usize..80,
    ) {
        let mut links: Vec<(u32, u32, char)> =
            soup.iter().map(|&(x, y, r)| (asn(x).0, asn(y).0, RELS[r as usize].tag())).collect();
        if let Some(link) = links.get_mut(bad_tag) {
            link.2 = 'x';
        }
        doc_matches(&TopologyDoc { links, isolated: isolated.into_iter().map(|i| asn(i).0).collect() });
    }

    /// ASNs of 1 to 10 digits, prefixes of one another among them: the
    /// numeric key must give string order byte for byte.
    #[test]
    fn to_text_is_in_string_order(
        picks in proptest::collection::vec((0u32..24, 0u32..24, 0u8..4, 1u32..11, proptest::prelude::any::<u32>()), 0..60),
    ) {
        let mut b = TopologyBuilder::new();
        let mut seen = std::collections::HashSet::new();
        for (x, y, rel, digits, noise) in picks {
            // Half the ASNs from the prefix-heavy pool, half of a random width.
            let pick = |i: u32| if i < 12 { asn(i) } else { of_width(digits, noise ^ i) };
            let (a, c) = (pick(x), pick(y));
            if a != c && seen.insert((a.min(c), a.max(c))) {
                b.intern_as(a);
                b.intern_as(c);
                b.link(a, c, RELS[rel as usize]);
            }
        }
        let t = b.build().expect("no conflicts");
        prop_assert_eq!(io::to_text(&t), reference_text(&t));
    }
}

/// An ASN of `digits` decimal digits (1 to 10), picked by `noise`.
fn of_width(digits: u32, noise: u32) -> AsId {
    let lo = if digits == 1 { 0 } else { 10u64.pow(digits - 1) };
    let hi = 10u64.pow(digits).min(1 << 32);
    AsId((lo + u64::from(noise) % (hi - lo)) as u32)
}

/// `to_text` as it was: one `String` a line, sorted as strings.
fn reference_text(t: &Topology) -> String {
    let mut lines: Vec<String> = Vec::new();
    for x in t.nodes() {
        for &(y, rel) in t.neighbors(x) {
            if t.asn(x) < t.asn(y) {
                lines.push(format!("{} {} {}\n", t.asn(x), t.asn(y), rel.tag()));
            }
        }
    }
    lines.sort();
    lines.concat()
}

// --- Fixed graphs ---------------------------------------------------------

/// A generated graph against the reference three ways: its own links
/// declared in id order, its text parsed, and its cache rebuilt.
fn check_graph(t: &Topology) {
    let mut r = Reference::default();
    for x in t.nodes() {
        r.add_as(t.asn(x));
    }
    for x in t.nodes() {
        for &(y, rel) in t.neighbors(x) {
            r.link(t.asn(x), t.asn(y), rel);
        }
    }
    assert_same(t, &r.build().expect("a generated graph builds"));

    let text = io::to_text(t);
    assert_eq!(text, reference_text(t));
    let mut lines = Vec::new();
    let mut offset = 0;
    for (i, line) in text.lines().enumerate() {
        let f: Vec<&str> = line.split(' ').collect();
        let decl = (AsId(f[0].parse().unwrap()), AsId(f[1].parse().unwrap()), Rel::from_tag(f[2].chars().next().unwrap()).unwrap());
        lines.push((i + 1, offset, Record::Declares(decl.0, decl.1, decl.2)));
        offset += line.len() as u64 + 1;
    }
    parse_matches(&text, &lines);
    let (parsed, _) = stream::parse_str(&text).expect("parses");
    doc_matches(&TopologyDoc::of(&parsed));
}

#[test]
fn figure_every_preset_and_the_internet_preset_build_as_the_reference_does() {
    check_graph(&figure_1_1().0);
    for preset in DatasetPreset::ALL.into_iter().chain([DatasetPreset::InternetScale]) {
        check_graph(&preset.params(0.05, 42).generate());
    }
}

#[test]
fn a_conflict_before_a_malformed_line_wins_and_one_after_it_does_not() {
    let err = stream::parse_str("1 2 c\n3 4 e\n# note\n2 1 c\n5 6\n1 3 p\n").unwrap_err();
    assert_eq!((err.line, err.offset, err.kind), (4, 19, ErrorKind::ConflictingEdge(AsId(1), AsId(2))));
    let err = stream::parse_str("1 2 c\n3 4 e\n5 6\n# note\n2 1 c\n").unwrap_err();
    assert_eq!((err.line, err.offset, err.kind), (3, 12, ErrorKind::BadLine));
    // Of several conflicts, the first in the file is named.
    let err = stream::parse_str("1 2 c\n3 4 e\n4 3 c\n1 2 e\n").unwrap_err();
    assert_eq!((err.line, err.offset), (3, 12));
}

#[test]
fn a_builder_with_several_conflicts_names_the_last_as_declared() {
    let mut b = TopologyBuilder::new();
    for a in 1..=4 {
        b.add_as(AsId(a));
    }
    b.link(AsId(1), AsId(2), Rel::Customer).link(AsId(3), AsId(4), Rel::Peer);
    b.link(AsId(4), AsId(3), Rel::Provider).link(AsId(1), AsId(2), Rel::Provider);
    b.link(AsId(2), AsId(1), Rel::Customer);
    assert_eq!(b.build().unwrap_err(), TopologyError::ConflictingEdge(AsId(2), AsId(1)));
}

#[test]
fn to_text_orders_prefixes_as_strings_do() {
    let mut b = TopologyBuilder::new();
    let asns = [12, 123, 120, 1200, 1_200_000_000, 0, 9, 10, 99, 100, u32::MAX, 1, 2];
    for a in asns {
        b.add_as(AsId(a));
    }
    for w in asns.windows(2) {
        b.peering(AsId(w[0]), AsId(w[1]));
    }
    b.provider_customer(AsId(12), AsId(1));
    b.provider_customer(AsId(u32::MAX), AsId(2));
    let t = b.build().unwrap();
    assert_eq!(io::to_text(&t), reference_text(&t));
}

/// The benchmark's graph: Gao 2005 at half scale, seed 42, rendered to
/// text, parsed back and written as an ingest cache — the bytes every
/// `benchmark/` set-up and `tests/solver_pins.rs` start from.
#[test]
fn the_benchmark_graphs_text_and_cache_are_pinned() {
    let generated = DatasetPreset::Gao2005.params(0.5, 42).generate();
    let text = io::to_text(&generated);
    let (parsed, stats) = stream::parse_str(&text).expect("parses");
    let cache = IngestCache::new("benchmark".into(), "generated".into(), stats, TopologyDoc::of(&parsed));
    let json = serde_json::to_string(&cache).expect("serializes");
    assert_eq!((text.len(), json.len()), (280_269, 372_117));
    assert_eq!(fnv1a(text.as_bytes()), 0x50f0_37d5_b542_88d6, "text: {:#018x}", fnv1a(text.as_bytes()));
    assert_eq!(fnv1a(json.as_bytes()), 0x1e8e_82e9_1546_718c, "cache: {:#018x}", fnv1a(json.as_bytes()));
}
