//! (De)serialization of annotated AS graphs.
//!
//! Three formats:
//!
//! * a line-oriented text format in the spirit of the CAIDA AS-relationship
//!   files the measurement community uses (`<asn> <asn> <tag>` where the tag
//!   says what the *second* AS is to the first),
//! * the real CAIDA/RouteViews `as1|as2|rel` format, via the allocation-free
//!   streaming loader in [`stream`] (which also reads the format above), and
//! * the JSON ingest cache ([`stream::IngestCache`]): written through
//!   `serde`, read back by [`stream::load_cache`] in one pass.
//!
//! [`from_text`] here is the strict whole-string parser: any self-loop or
//! duplicate is a hard error, which is what generated fixtures deserve.
//! [`stream::parse`] is the lenient, `BufRead`-based ingest path for
//! multi-megabyte real-world snapshots; see the module docs for how the
//! two differ.

pub mod stream;

use crate::graph::{AsId, Rel, Topology, TopologyBuilder, TopologyError};
use serde::Serialize;

/// Errors from parsing the text format.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// Line did not have three whitespace-separated fields.
    BadLine(usize),
    /// An AS number field was not a number.
    BadAsn(usize),
    /// Unknown relationship tag.
    BadTag(usize, char),
    /// The resulting edge set failed topology validation.
    Invalid(TopologyError),
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::BadLine(l) => write!(f, "line {l}: expected `<asn> <asn> <tag>`"),
            ParseError::BadAsn(l) => write!(f, "line {l}: bad AS number"),
            ParseError::BadTag(l, c) => write!(f, "line {l}: unknown relationship tag {c:?}"),
            ParseError::Invalid(e) => write!(f, "invalid topology: {e}"),
        }
    }
}

impl std::error::Error for ParseError {}

/// Serialize to the text format. Each link appears once, from the
/// lower-numbered AS's perspective; lines are in string order, so equal
/// topologies serialize identically.
///
/// Lines are sorted as numbers, not strings: a line's key is
/// `text_key` of its first AS, then of its second, then its tag, which
/// orders the lines as their text would sort.
pub fn to_text(topo: &Topology) -> String {
    let mut keys: Vec<(u64, u64)> = Vec::with_capacity(topo.num_edges());
    for x in topo.nodes() {
        let ax = topo.asn(x);
        for &(y, rel) in topo.neighbors(x) {
            let ay = topo.asn(y);
            if ax < ay {
                keys.push((text_key(ax.0), text_key(ay.0) << 8 | rel.tag() as u64));
            }
        }
    }
    keys.sort_unstable();
    let mut out = String::with_capacity(keys.len() * 16);
    for (a, c) in keys {
        push_digits(&mut out, a);
        out.push(' ');
        push_digits(&mut out, c >> 8);
        out.push(' ');
        out.push(c as u8 as char);
        out.push('\n');
    }
    out
}

/// Where `asn`'s decimal text falls in string order: its digits
/// left-aligned in ten places, then its length — `"12"` sorts before
/// `"120"` (equal digits, shorter), `"120"` before `"13"`, `"1200000000"`
/// before `"9"`. Text that follows a number starts with a space, which
/// sorts below every digit, so a line's order is its first number's key,
/// then its second's.
fn text_key(asn: u32) -> u64 {
    let len = asn.checked_ilog10().unwrap_or(0) + 1;
    (u64::from(asn) * 10u64.pow(10 - len)) << 4 | u64::from(len)
}

/// Append the number a [`text_key`] holds.
fn push_digits(out: &mut String, key: u64) {
    let mut digits = [b'0'; 10];
    let mut aligned = key >> 4;
    for d in digits.iter_mut().rev() {
        *d = b'0' + (aligned % 10) as u8;
        aligned /= 10;
    }
    out.push_str(std::str::from_utf8(&digits[..(key & 15) as usize]).expect("ASCII digits"));
}

/// Parse the text format. Blank lines and `#` comments are ignored.
pub fn from_text(text: &str) -> Result<Topology, ParseError> {
    let mut b = TopologyBuilder::new();
    for (i, raw) in text.lines().enumerate() {
        let lineno = i + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        let (Some(a), Some(c), Some(t)) = (parts.next(), parts.next(), parts.next()) else {
            return Err(ParseError::BadLine(lineno));
        };
        if parts.next().is_some() {
            return Err(ParseError::BadLine(lineno));
        }
        let a: u32 = a.parse().map_err(|_| ParseError::BadAsn(lineno))?;
        let c: u32 = c.parse().map_err(|_| ParseError::BadAsn(lineno))?;
        let tag = t.chars().next().filter(|_| t.len() == 1);
        let rel = tag
            .and_then(Rel::from_tag)
            .ok_or(ParseError::BadTag(lineno, t.chars().next().unwrap_or('?')))?;
        b.intern_as(AsId(a));
        b.intern_as(AsId(c));
        b.link(AsId(a), AsId(c), rel);
    }
    b.build().map_err(ParseError::Invalid)
}

/// Serde-friendly mirror of a topology: what an [`stream::IngestCache`]
/// stores, written by `serde` and read by [`stream::IngestCache::from_json`].
#[derive(Serialize, Clone, Debug, PartialEq, Eq)]
pub struct TopologyDoc {
    /// `[a, b, tag]` triples; tag as in [`Rel::tag`].
    pub links: Vec<(u32, u32, char)>,
    /// ASes with no links (so empty graphs round-trip).
    pub isolated: Vec<u32>,
}

impl TopologyDoc {
    /// Capture a topology.
    pub fn of(topo: &Topology) -> TopologyDoc {
        let mut links = Vec::with_capacity(topo.num_edges());
        let mut isolated = Vec::new();
        for x in topo.nodes() {
            if topo.neighbors(x).is_empty() {
                isolated.push(topo.asn(x).0);
            }
            for &(y, rel) in topo.neighbors(x) {
                let (ax, ay) = (topo.asn(x), topo.asn(y));
                if ax < ay {
                    links.push((ax.0, ay.0, rel.tag()));
                }
            }
        }
        links.sort_unstable();
        isolated.sort_unstable();
        TopologyDoc { links, isolated }
    }

    /// Rebuild the topology. Nodes are numbered in order of first
    /// appearance: isolated ASes, then each link's endpoints in turn. The
    /// first bad tag, self-loop or conflicting redeclaration in link order
    /// is the error.
    pub fn build(&self) -> Result<Topology, ParseError> {
        let mut b = TopologyBuilder::with_capacity(self.links.len());
        for &asn in &self.isolated {
            b.intern_as(AsId(asn));
        }
        let mut refused = None;
        for &(x, y, tag) in &self.links {
            refused = match Rel::from_tag(tag) {
                None => Some(ParseError::BadTag(0, tag)),
                Some(_) if x == y => Some(ParseError::Invalid(TopologyError::SelfLoop(AsId(x)))),
                Some(rel) => {
                    b.declare(AsId(x), AsId(y), rel);
                    continue;
                }
            };
            break;
        }
        // A conflict among the links before the refused one came first.
        if let Some((_, x, y)) = b.tally().conflict {
            return Err(ParseError::Invalid(TopologyError::ConflictingEdge(x, y)));
        }
        match refused {
            Some(e) => Err(e),
            None => b.build().map_err(ParseError::Invalid),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::GenParams;

    #[test]
    fn text_round_trip() {
        let t = GenParams::tiny(9).generate();
        let text = to_text(&t);
        let u = from_text(&text).unwrap();
        assert_eq!(to_text(&u), text);
        assert_eq!(t.num_nodes(), u.num_nodes());
        assert_eq!(t.num_edges(), u.num_edges());
    }

    #[test]
    fn text_parses_comments_and_blanks() {
        let t = from_text("# header\n\n1 2 c\n2 3 e\n").unwrap();
        assert_eq!(t.num_nodes(), 3);
        assert_eq!(t.num_edges(), 2);
        let (a, b) = (t.node(AsId(1)).unwrap(), t.node(AsId(2)).unwrap());
        assert_eq!(t.rel(a, b), Some(Rel::Customer));
    }

    #[test]
    fn text_rejects_garbage() {
        assert!(matches!(from_text("1 2"), Err(ParseError::BadLine(1))));
        assert!(matches!(from_text("x 2 c"), Err(ParseError::BadAsn(1))));
        assert!(matches!(from_text("1 2 z"), Err(ParseError::BadTag(1, 'z'))));
        assert!(matches!(from_text("1 2 c d"), Err(ParseError::BadLine(1))));
        assert!(matches!(from_text("1 1 c"), Err(ParseError::Invalid(_))));
    }

    #[test]
    fn json_round_trip() {
        let t = GenParams::tiny(11).generate();
        let doc = TopologyDoc::of(&t);
        let cache = stream::IngestCache::new("tiny".into(), "test".into(), Default::default(), doc);
        let json = serde_json::to_string(&cache).unwrap();
        let back = stream::IngestCache::from_json(&json).unwrap();
        assert_eq!(back, cache);
        let u = back.topology.build().unwrap();
        assert_eq!(to_text(&t), to_text(&u));
    }

    #[test]
    fn doc_build_refuses_self_loops_and_conflicts() {
        let doc = |links: &[(u32, u32, char)]| TopologyDoc { links: links.to_vec(), isolated: vec![] };
        let err = doc(&[(1, 2, 'c'), (3, 3, 'e')]).build().unwrap_err();
        assert_eq!(err, ParseError::Invalid(TopologyError::SelfLoop(AsId(3))));
        let err = doc(&[(1, 2, 'c'), (2, 1, 'c')]).build().unwrap_err();
        assert_eq!(err, ParseError::Invalid(TopologyError::ConflictingEdge(AsId(2), AsId(1))));
        // The same fact stated from both ends is one link.
        assert_eq!(doc(&[(1, 2, 'c'), (2, 1, 'p')]).build().unwrap().num_edges(), 1);
    }
}
