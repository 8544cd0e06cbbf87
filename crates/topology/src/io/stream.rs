//! Streaming ingest of real-world AS-relationship snapshots.
//!
//! [`from_text`](super::from_text) is fine for generated fixtures, but it
//! wants the whole file in one `String` and allocates per line — at
//! RouteViews scale (~70k ASes, ~350k edges, tens of MB of text) that is
//! the wrong shape. This module parses from any [`BufRead`] line by line
//! into a [`TopologyBuilder`] with **zero per-line allocation**: one
//! reusable byte buffer, field splitting and integer parsing directly on
//! `&[u8]`, and AS numbers remapped to dense node ids by the builder's
//! interner as they are first seen. Each record becomes one entry in the
//! builder's declaration list; nothing is looked up per link.
//!
//! Two record formats are auto-detected per line:
//!
//! * the repo's whitespace format `<asn> <asn> <tag>` (tags as in
//!   [`Rel::tag`]: `c`/`p`/`e`/`s`), and
//! * the CAIDA AS-relationship format `<as1>|<as2>|<rel>` where `-1`
//!   means *as1 is a provider of as2*, `0` means peering, and `1` means
//!   sibling (the serial-2 files' trailing `|<source>` field is ignored).
//!
//! `#` comments and blank lines are skipped; CRLF line endings and a
//! missing final newline are accepted. Real snapshots contain junk, so the
//! parser is lenient where the strict loader is not: exact duplicate edges
//! and self-loops are *counted and dropped* (see [`ParseStats`]) rather
//! than rejected. A duplicate edge with a **conflicting** relationship is
//! still an error — silently picking one annotation would corrupt every
//! policy computation downstream.
//!
//! Duplicates and conflicts are found after the read, by the builder's one
//! sort of the declarations ([`TopologyBuilder::tally`]), which also gives
//! each conflict's declaration index; a byte a declaration records where
//! its line started. The error is the one the file reaches first: a read
//! stops at the first malformed or unreadable line, and a conflict before
//! it is reported instead of it. Errors carry the 1-based line number and
//! the byte offset of the start of the offending line, so
//! `dataset.txt:193417` style messages point at the actual record even in
//! a 30 MB file.
//!
//! The JSON [`IngestCache`] of such a parse is read back the same way:
//! [`load_cache`] walks the file once with `serde_json`'s tokenizer
//! ([`Reader`]), each `[a, b, "t"]` link straight into the [`TopologyDoc`]
//! vector with no document tree, and refuses out-of-range numbers, unknown
//! tags and deep nesting.

use super::TopologyDoc;
use crate::graph::{AsId, Rel, Topology, TopologyBuilder, TopologyError};
use serde::Serialize;
use serde_json::{Reader, Step};
use std::io::BufRead;
use std::path::Path;

/// Summary counters for one streaming parse.
#[derive(Serialize, Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ParseStats {
    /// Total lines seen, including comments and blanks.
    pub lines: usize,
    /// Comment and blank lines skipped.
    pub comments: usize,
    /// Edge records accepted into the builder.
    pub edges: usize,
    /// Exact duplicate edge declarations dropped.
    pub duplicate_edges: usize,
    /// Self-loop records dropped.
    pub self_loops: usize,
    /// Distinct ASes interned.
    pub nodes: usize,
    /// Total bytes consumed from the reader.
    pub bytes: u64,
}

/// Where and why a streaming parse failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number of the offending record (0 for end-of-input
    /// conditions such as [`ErrorKind::Empty`]).
    pub line: usize,
    /// Byte offset of the start of that line.
    pub offset: u64,
    pub kind: ErrorKind,
}

/// The failure class of a [`ParseError`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ErrorKind {
    /// The line did not have the expected number of fields (covers a
    /// truncated final record: `1 2` with the tag cut off).
    BadLine,
    /// An AS-number field was not a decimal number.
    BadAsn,
    /// An AS-number field was numeric but exceeds `u32::MAX`.
    AsnOverflow,
    /// Unknown single-letter relationship tag (whitespace format).
    BadTag(char),
    /// Unknown numeric relationship code (CAIDA format expects -1, 0, 1).
    BadRel(i64),
    /// The same AS pair was declared twice with different relationships.
    ConflictingEdge(AsId, AsId),
    /// No edge records at all (only comments/blanks, or nothing).
    Empty,
    /// The accumulated edge set failed topology validation.
    Invalid(TopologyError),
    /// The underlying reader failed.
    Io(String),
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let at = format_args!("line {} (byte {})", self.line, self.offset);
        match &self.kind {
            ErrorKind::BadLine => {
                write!(f, "{at}: expected `<asn> <asn> <tag>` or `<as1>|<as2>|<rel>`")
            }
            ErrorKind::BadAsn => write!(f, "{at}: bad AS number"),
            ErrorKind::AsnOverflow => write!(f, "{at}: AS number exceeds u32::MAX"),
            ErrorKind::BadTag(c) => write!(f, "{at}: unknown relationship tag {c:?}"),
            ErrorKind::BadRel(r) => {
                write!(f, "{at}: unknown CAIDA relationship code {r} (expected -1, 0 or 1)")
            }
            ErrorKind::ConflictingEdge(a, b) => {
                write!(f, "{at}: conflicting relationship redeclared for link {a}-{b}")
            }
            ErrorKind::Empty => write!(f, "no edge records in input"),
            ErrorKind::Invalid(e) => write!(f, "invalid topology: {e}"),
            ErrorKind::Io(e) => write!(f, "{at}: read error: {e}"),
        }
    }
}

impl std::error::Error for ParseError {}

/// On-disk format version of [`IngestCache`] documents. Version 1 is the
/// original unstamped layout (files without a `format_version` field read
/// as 1); bump this whenever the cache schema changes shape. Loaders must
/// reject any other version — a stale cache silently reinterpreted is a
/// corrupted experiment, and the fix (re-run `miro ingest`) is cheap.
pub const CACHE_FORMAT_VERSION: u32 = 2;

/// The JSON cache `miro ingest` writes and every `--cache` reader loads
/// (through [`load_cache`]): the parsed topology plus enough provenance
/// to label result tables.
#[derive(Serialize, Clone, Debug, PartialEq, Eq)]
pub struct IngestCache {
    /// Schema version ([`CACHE_FORMAT_VERSION`] at write time).
    pub format_version: u32,
    /// Dataset label (defaults to the source file name).
    pub name: String,
    /// Where the snapshot came from.
    pub source: String,
    /// Parse counters recorded at ingest time.
    pub stats: ParseStats,
    /// The annotated graph itself.
    pub topology: TopologyDoc,
}

impl IngestCache {
    /// Assemble a cache stamped with the current format version.
    pub fn new(name: String, source: String, stats: ParseStats, topology: TopologyDoc) -> Self {
        IngestCache { format_version: CACHE_FORMAT_VERSION, name, source, stats, topology }
    }

    /// Decode a cache in one pass over its bytes: members in any order,
    /// unknown ones skipped. A member of the wrong shape is skipped and
    /// reported only after `format_version` has passed, so a version
    /// mismatch reports itself first; malformed JSON is refused outright.
    pub fn from_json(json: impl AsRef<[u8]>) -> Result<IngestCache, String> {
        let mut r = Reader::new(json.as_ref());
        if r.peek() != Some(b'{') {
            return Err("not an ingest cache: top level is not an object".to_string());
        }
        // Pre-versioning caches carried no stamp at all.
        let (mut version, mut shape_error) = (Ok(1), None);
        let (mut name, mut source, mut stats, mut topology) = (None, None, None, None);
        r.object(|r, key| {
            let mark = r.clone();
            let decoded = match &*key {
                "format_version" => r.integer(u64::MAX).map(|v| version = Ok(v)),
                "name" => r.string().map(|s| name = Some(s.into_owned())),
                "source" => r.string().map(|s| source = Some(s.into_owned())),
                "stats" => read_stats(r).map(|s| stats = Some(s)),
                "topology" => read_topology(r).map(|t| topology = Some(t)),
                _ => r.skip(),
            };
            if let Err(e) = decoded {
                // Well-formed JSON of the wrong shape: skip it, read on.
                let start = mark.pos();
                *r = mark;
                r.skip()?;
                let text = r.since(start);
                let found = String::from_utf8_lossy(&text[..text.len().min(40)]);
                if key == "format_version" {
                    version = Err(format!("format_version is not a number (found {})", found.trim()));
                } else {
                    shape_error.get_or_insert(format!("{key}: {e}"));
                }
            }
            Ok(())
        })
        .and_then(|()| r.end())
        .map_err(|e| format!("not an ingest cache: {e}"))?;
        let version = version?;
        if version != u64::from(CACHE_FORMAT_VERSION) {
            return Err(format!(
                "cache format version {version}, but this build reads version \
                 {CACHE_FORMAT_VERSION} — re-run `miro ingest` to regenerate it"
            ));
        }
        let missing = |member| format!("not an ingest cache: missing member {member:?}");
        match shape_error {
            Some(e) => Err(format!("not an ingest cache: {e}")),
            None => Ok(IngestCache {
                format_version: CACHE_FORMAT_VERSION,
                name: name.ok_or_else(|| missing("name"))?,
                source: source.ok_or_else(|| missing("source"))?,
                stats: stats.ok_or_else(|| missing("stats"))?,
                topology: topology.ok_or_else(|| missing("topology"))?,
            }),
        }
    }
}

/// Read a `miro ingest` cache and build its topology: the one loader
/// behind every `--cache` flag. Errors name the file.
pub fn load_cache(path: impl AsRef<Path>) -> Result<(IngestCache, Topology), String> {
    let path = path.as_ref();
    let bytes = std::fs::read(path).map_err(|e| format!("cannot read cache {path:?}: {e}"))?;
    let cache = IngestCache::from_json(bytes).map_err(|e| format!("cache {path:?}: {e}"))?;
    let topo = cache.topology.build().map_err(|e| format!("cache {path:?} holds an invalid topology: {e}"))?;
    Ok((cache, topo))
}

/// An object holding every one of `names`, in any order, and maybe
/// others, which are skipped: `member(r, i)` consumes `names[i]`'s value.
fn members(r: &mut Reader, names: &[&str], mut member: impl FnMut(&mut Reader, usize) -> Step) -> Step {
    let mut seen = vec![false; names.len()];
    r.object(|r, key| match names.iter().position(|&n| n == key) {
        Some(i) => member(r, i).map(|()| seen[i] = true).map_err(|e| format!("{key}: {e}")),
        None => r.skip(),
    })?;
    seen.iter().position(|&s| !s).map_or(Ok(()), |i| Err(format!("missing member {:?}", names[i])))
}

fn read_stats(r: &mut Reader) -> Step<ParseStats> {
    let names = ["lines", "comments", "edges", "duplicate_edges", "self_loops", "nodes", "bytes"];
    let mut v = [0; 7];
    members(r, &names, |r, i| r.integer(usize::MAX as u64).map(|n| v[i] = n as usize))?;
    let [lines, comments, edges, duplicate_edges, self_loops, nodes, bytes] = v;
    Ok(ParseStats { lines, comments, edges, duplicate_edges, self_loops, nodes, bytes: bytes as u64 })
}

fn read_topology(r: &mut Reader) -> Step<TopologyDoc> {
    let (mut links, mut isolated) = (Vec::new(), Vec::new());
    members(r, &["links", "isolated"], |r, member| match member {
        0 => r.array(|r, i| read_link(r).map(|l| links.push(l)).map_err(|e| format!("link {i}: {e}"))),
        _ => r.array(|r, i| read_asn(r).map(|a| isolated.push(a)).map_err(|e| format!("AS {i}: {e}"))),
    })?;
    Ok(TopologyDoc { links, isolated })
}

fn read_asn(r: &mut Reader) -> Step<u32> {
    r.integer(u32::MAX.into()).map(|v| v as u32)
}

/// One `[a, b, "t"]` link, decoded without allocating.
fn read_link(r: &mut Reader) -> Step<(u32, u32, char)> {
    r.expect(b'[')?;
    let a = read_asn(r).map_err(|e| format!("field 0: {e}"))?;
    r.expect(b',')?;
    let b = read_asn(r).map_err(|e| format!("field 1: {e}"))?;
    r.expect(b',')?;
    let tag = r.string().map_err(|e| format!("field 2: {e}"))?;
    let mut chars = tag.chars();
    match (chars.next().filter(|&c| Rel::from_tag(c).is_some()), chars.next()) {
        (Some(c), None) => r.expect(b']').map(|()| (a, b, c)),
        _ => Err(format!("field 2: unknown relationship tag {tag:?}")),
    }
}

/// Parse a snapshot from any buffered reader. Returns the validated
/// topology plus the [`ParseStats`] counters.
///
/// The hot loop reuses one line buffer and parses fields straight from the
/// bytes — no per-line `String`s, no `split_whitespace` collect. An input
/// with no edge records at all yields [`ErrorKind::Empty`]: ingesting an
/// empty snapshot is always a mistake, and catching it here beats
/// reporting "0 routes reachable" three experiment stages later.
pub fn parse<R: BufRead>(mut reader: R) -> Result<(Topology, ParseStats), ParseError> {
    let mut b = TopologyBuilder::new();
    let mut stats = ParseStats::default();
    let mut starts = LineStarts::default();
    let mut buf: Vec<u8> = Vec::with_capacity(256);
    let mut offset = 0u64;
    let mut lineno = 0usize;
    // The first unreadable or malformed line ends the read; a conflict
    // the build finds before it still comes first.
    let mut refused = None;
    loop {
        buf.clear();
        let line_start = offset;
        let n = match reader.read_until(b'\n', &mut buf) {
            Ok(0) => break,
            Ok(n) => n,
            Err(e) => {
                refused = Some(ParseError { line: lineno + 1, offset: line_start, kind: ErrorKind::Io(e.to_string()) });
                break;
            }
        };
        offset += n as u64;
        lineno += 1;
        stats.lines += 1;
        // Strip the newline and any CRLF carriage return.
        let mut line: &[u8] = &buf;
        if line.last() == Some(&b'\n') {
            line = &line[..line.len() - 1];
        }
        if line.last() == Some(&b'\r') {
            line = &line[..line.len() - 1];
        }
        let line = trim_ascii(line);
        if line.is_empty() || line[0] == b'#' {
            stats.comments += 1;
            continue;
        }
        let record = if line.contains(&b'|') { parse_caida(line) } else { parse_whitespace(line) };
        match record {
            Err(kind) => {
                refused = Some(ParseError { line: lineno, offset: line_start, kind });
                break;
            }
            Ok((a, c, _)) if a == c => stats.self_loops += 1,
            Ok((a, c, rel)) => {
                b.declare(AsId(a), AsId(c), rel);
                starts.push(lineno, line_start);
            }
        }
    }
    let tally = b.tally();
    if let Some((k, a, c)) = tally.conflict {
        let (line, offset) = starts.get(k);
        return Err(ParseError { line, offset, kind: ErrorKind::ConflictingEdge(a.min(c), a.max(c)) });
    }
    if let Some(e) = refused {
        return Err(e);
    }
    drop(starts);
    (stats.bytes, stats.edges, stats.duplicate_edges) = (offset, tally.links, tally.duplicates);
    if stats.edges == 0 && stats.self_loops == 0 && stats.duplicate_edges == 0 {
        return Err(ParseError { line: 0, offset, kind: ErrorKind::Empty });
    }
    let topo = b.build().map_err(|e| ParseError {
        line: 0,
        offset,
        kind: ErrorKind::Invalid(e),
    })?;
    stats.nodes = topo.num_nodes();
    Ok((topo, stats))
}

/// Where each declaration's line starts, at a byte a declaration: the
/// distance from the previous declaration's start when that was the line
/// before and under 256 bytes long, else an anchor holding the line
/// number and offset outright (comments, blanks, self-loops and long
/// lines between two declarations make one).
#[derive(Default)]
struct LineStarts {
    gaps: Vec<u8>,
    /// `(declaration, line, offset)`, by declaration.
    anchors: Vec<(usize, usize, u64)>,
    last: (usize, u64),
}

impl LineStarts {
    fn push(&mut self, line: usize, offset: u64) {
        let k = self.gaps.len();
        match u8::try_from(offset - self.last.1) {
            Ok(gap) if k > 0 && line == self.last.0 + 1 => self.gaps.push(gap),
            _ => {
                self.gaps.push(0);
                self.anchors.push((k, line, offset));
            }
        }
        self.last = (line, offset);
    }

    /// The line number and offset of declaration `k`.
    fn get(&self, k: usize) -> (usize, u64) {
        let (i, line, offset) = self.anchors[self.anchors.partition_point(|a| a.0 <= k) - 1];
        (line + (k - i), offset + self.gaps[i + 1..=k].iter().map(|&g| u64::from(g)).sum::<u64>())
    }
}

/// Convenience wrapper for in-memory text (tests, proptests).
pub fn parse_str(text: &str) -> Result<(Topology, ParseStats), ParseError> {
    parse(std::io::Cursor::new(text.as_bytes()))
}

/// One whitespace-format record: `<asn> <asn> <tag>`.
fn parse_whitespace(line: &[u8]) -> Result<(u32, u32, Rel), ErrorKind> {
    let mut fields = Fields::new(line, |b| b == b' ' || b == b'\t');
    let (Some(fa), Some(fc), Some(ft)) = (fields.next(), fields.next(), fields.next()) else {
        return Err(ErrorKind::BadLine);
    };
    if fields.next().is_some() {
        return Err(ErrorKind::BadLine);
    }
    let a = parse_u32(fa)?;
    let c = parse_u32(fc)?;
    if ft.len() != 1 {
        return Err(ErrorKind::BadTag(first_char(ft)));
    }
    let rel = Rel::from_tag(ft[0] as char).ok_or(ErrorKind::BadTag(ft[0] as char))?;
    Ok((a, c, rel))
}

/// One CAIDA record: `<as1>|<as2>|<rel>[|<source>]` — the relationship
/// code is what *as2 is to as1* after mapping: -1 provider→customer,
/// 0 peer, 1 sibling.
fn parse_caida(line: &[u8]) -> Result<(u32, u32, Rel), ErrorKind> {
    let mut fields = Fields::new(line, |b| b == b'|');
    let (Some(fa), Some(fc), Some(fr)) = (fields.next(), fields.next(), fields.next()) else {
        return Err(ErrorKind::BadLine);
    };
    // serial-2 files append `|<source>` (e.g. `|bgp`); ignore one trailing
    // field, reject anything beyond that.
    let _source = fields.next();
    if fields.next().is_some() {
        return Err(ErrorKind::BadLine);
    }
    let a = parse_u32(trim_ascii(fa))?;
    let c = parse_u32(trim_ascii(fc))?;
    let rel = match parse_i64(trim_ascii(fr))? {
        // as1 is a provider of as2: as2 is as1's customer.
        -1 => Rel::Customer,
        0 => Rel::Peer,
        1 => Rel::Sibling,
        other => return Err(ErrorKind::BadRel(other)),
    };
    Ok((a, c, rel))
}

/// Split on a delimiter predicate, skipping empty fields for whitespace
/// runs but preserving them for `|` (an empty `||` field is bad input).
struct Fields<'a, F: Fn(u8) -> bool> {
    rest: &'a [u8],
    is_delim: F,
    skip_empty: bool,
    done: bool,
}

impl<'a, F: Fn(u8) -> bool> Fields<'a, F> {
    fn new(line: &'a [u8], is_delim: F) -> Self {
        // Whitespace splitting collapses runs; `|` splitting must not.
        let skip_empty = is_delim(b' ');
        Fields { rest: line, is_delim, skip_empty, done: false }
    }
}

impl<'a, F: Fn(u8) -> bool> Iterator for Fields<'a, F> {
    type Item = &'a [u8];

    fn next(&mut self) -> Option<&'a [u8]> {
        if self.skip_empty {
            while let Some(&b) = self.rest.first() {
                if (self.is_delim)(b) {
                    self.rest = &self.rest[1..];
                } else {
                    break;
                }
            }
            if self.rest.is_empty() {
                return None;
            }
        } else if self.done {
            return None;
        }
        let end = self
            .rest
            .iter()
            .position(|&b| (self.is_delim)(b))
            .unwrap_or(self.rest.len());
        let field = &self.rest[..end];
        if end < self.rest.len() {
            self.rest = &self.rest[end + 1..];
        } else {
            self.rest = &[];
            self.done = true;
        }
        Some(field)
    }
}

fn trim_ascii(mut s: &[u8]) -> &[u8] {
    while let Some(&b) = s.first() {
        if b.is_ascii_whitespace() {
            s = &s[1..];
        } else {
            break;
        }
    }
    while let Some(&b) = s.last() {
        if b.is_ascii_whitespace() {
            s = &s[..s.len() - 1];
        } else {
            break;
        }
    }
    s
}

/// Decimal `u32` from bytes, distinguishing "not a number" from
/// "a number too large for an AS number".
fn parse_u32(s: &[u8]) -> Result<u32, ErrorKind> {
    if s.is_empty() {
        return Err(ErrorKind::BadAsn);
    }
    let mut v: u64 = 0;
    for &b in s {
        if !b.is_ascii_digit() {
            return Err(ErrorKind::BadAsn);
        }
        v = v * 10 + (b - b'0') as u64;
        if v > u32::MAX as u64 {
            // Keep consuming digits? No — the verdict cannot change.
            return Err(ErrorKind::AsnOverflow);
        }
    }
    Ok(v as u32)
}

/// Decimal `i64` (optional leading `-`) for the CAIDA relationship code.
fn parse_i64(s: &[u8]) -> Result<i64, ErrorKind> {
    let (neg, digits) = match s.first() {
        Some(&b'-') => (true, &s[1..]),
        _ => (false, s),
    };
    if digits.is_empty() || digits.len() > 18 {
        return Err(ErrorKind::BadLine);
    }
    let mut v: i64 = 0;
    for &b in digits {
        if !b.is_ascii_digit() {
            return Err(ErrorKind::BadLine);
        }
        v = v * 10 + (b - b'0') as i64;
    }
    Ok(if neg { -v } else { v })
}

fn first_char(s: &[u8]) -> char {
    s.first().map(|&b| b as char).unwrap_or('?')
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::GenParams;
    use crate::io::to_text;

    #[test]
    fn parses_whitespace_format_like_from_text() {
        let t = GenParams::tiny(5).generate();
        let text = to_text(&t);
        let (u, stats) = parse_str(&text).unwrap();
        assert_eq!(to_text(&u), text);
        assert_eq!(stats.edges, t.num_edges());
        assert_eq!(stats.nodes, t.num_nodes());
        assert_eq!(stats.duplicate_edges, 0);
        assert_eq!(stats.bytes, text.len() as u64);
    }

    #[test]
    fn parses_caida_format() {
        // 701 provides 88 and 99; 701-1239 peer; 88-99 siblings.
        let text = "# CAIDA-ish header\n701|88|-1\n701|99|-1\n701|1239|0\n88|99|1\n";
        let (t, stats) = parse_str(text).unwrap();
        assert_eq!(stats.edges, 4);
        assert_eq!(stats.comments, 1);
        let n = |a: u32| t.node(AsId(a)).unwrap();
        assert_eq!(t.rel(n(88), n(701)), Some(Rel::Provider));
        assert_eq!(t.rel(n(701), n(1239)), Some(Rel::Peer));
        assert_eq!(t.rel(n(88), n(99)), Some(Rel::Sibling));
    }

    #[test]
    fn caida_serial2_source_field_is_ignored() {
        let (t, _) = parse_str("1|2|-1|bgp\n1|3|0|mlp\n").unwrap();
        assert_eq!(t.num_edges(), 2);
        // ... but a fifth field is still garbage.
        let err = parse_str("1|2|-1|bgp|x\n").unwrap_err();
        assert_eq!(err.kind, ErrorKind::BadLine);
    }

    #[test]
    fn mixed_formats_in_one_file() {
        let (t, _) = parse_str("1 2 c\n1|3|0\n").unwrap();
        assert_eq!(t.num_edges(), 2);
    }

    #[test]
    fn duplicates_and_self_loops_are_counted_and_dropped() {
        let text = "1 2 c\n1 2 c\n2 1 p\n3 3 e\n1 4 e\n";
        let (t, stats) = parse_str(text).unwrap();
        assert_eq!(t.num_edges(), 2);
        assert_eq!(stats.duplicate_edges, 2, "both restatements counted");
        assert_eq!(stats.self_loops, 1);
        assert!(t.node(AsId(3)).is_none(), "self-loop endpoints are not interned");
    }

    #[test]
    fn missing_final_newline_is_fine() {
        let (t, stats) = parse_str("1 2 c\n3 4 e").unwrap();
        assert_eq!(t.num_edges(), 2);
        assert_eq!(stats.lines, 2);
    }

    // --- the malformed-input matrix -------------------------------------

    #[test]
    fn truncated_last_line_reports_bad_line_with_location() {
        // The tag of the final record was cut off mid-write.
        let err = parse_str("1 2 c\n3 4").unwrap_err();
        assert_eq!(err.kind, ErrorKind::BadLine);
        assert_eq!(err.line, 2);
        assert_eq!(err.offset, 6, "second line starts at byte 6");
        let msg = err.to_string();
        assert!(msg.contains("line 2"), "{msg}");
        assert!(msg.contains("byte 6"), "{msg}");
    }

    #[test]
    fn crlf_endings_parse_cleanly() {
        let (t, stats) = parse_str("# dos file\r\n1 2 c\r\n3|4|0\r\n").unwrap();
        assert_eq!(t.num_edges(), 2);
        assert_eq!(stats.comments, 1);
        // A lone CR must not leak into the tag field.
        assert_eq!(t.rel(t.node(AsId(1)).unwrap(), t.node(AsId(2)).unwrap()), Some(Rel::Customer));
    }

    #[test]
    fn conflicting_duplicate_is_an_error_at_the_offending_line() {
        let err = parse_str("1 2 c\n5 6 e\n2 1 c\n").unwrap_err();
        assert_eq!(err.kind, ErrorKind::ConflictingEdge(AsId(1), AsId(2)));
        assert_eq!(err.line, 3);
        assert_eq!(err.offset, 12);
        // CAIDA-format conflicts too.
        let err = parse_str("1|2|-1\n1|2|0\n").unwrap_err();
        assert_eq!(err.kind, ErrorKind::ConflictingEdge(AsId(1), AsId(2)));
        assert_eq!(err.line, 2);
    }

    #[test]
    fn asn_beyond_u32_reports_overflow_not_bad_asn() {
        // 4294967296 == u32::MAX + 1.
        let err = parse_str("4294967296 2 c\n").unwrap_err();
        assert_eq!(err.kind, ErrorKind::AsnOverflow);
        assert_eq!(err.line, 1);
        // ... while u32::MAX itself is a legal (if reserved) AS number.
        let (t, _) = parse_str("4294967295 2 c\n").unwrap();
        assert!(t.node(AsId(u32::MAX)).is_some());
        // Non-numeric stays BadAsn.
        let err = parse_str("banana 2 c\n").unwrap_err();
        assert_eq!(err.kind, ErrorKind::BadAsn);
        // CAIDA side of the same distinction.
        let err = parse_str("4294967296|2|-1\n").unwrap_err();
        assert_eq!(err.kind, ErrorKind::AsnOverflow);
    }

    #[test]
    fn empty_inputs_report_empty() {
        for text in ["", "\n\n", "# only comments\n# here\n", "   \n"] {
            let err = parse_str(text).unwrap_err();
            assert_eq!(err.kind, ErrorKind::Empty, "input {text:?}");
            assert_eq!(err.line, 0);
        }
    }

    #[test]
    fn bad_tags_and_rels_are_distinct_errors() {
        let err = parse_str("1 2 z\n").unwrap_err();
        assert_eq!(err.kind, ErrorKind::BadTag('z'));
        let err = parse_str("1 2 cc\n").unwrap_err();
        assert_eq!(err.kind, ErrorKind::BadTag('c'));
        let err = parse_str("1|2|7\n").unwrap_err();
        assert_eq!(err.kind, ErrorKind::BadRel(7));
        let err = parse_str("1|2|-2\n").unwrap_err();
        assert_eq!(err.kind, ErrorKind::BadRel(-2));
        let err = parse_str("1||-1\n").unwrap_err();
        assert_eq!(err.kind, ErrorKind::BadAsn, "empty CAIDA field");
        let err = parse_str("1 2 c d\n").unwrap_err();
        assert_eq!(err.kind, ErrorKind::BadLine, "too many fields");
    }

    #[test]
    fn ingest_cache_round_trips_through_json() {
        let (t, stats) = parse_str("1 2 c\n2 3 e\n").unwrap();
        let cache =
            IngestCache::new("sample".to_string(), "unit test".to_string(), stats, TopologyDoc::of(&t));
        assert_eq!(cache.format_version, CACHE_FORMAT_VERSION);
        let json = serde_json::to_string(&cache).unwrap();
        let back = IngestCache::from_json(&json).unwrap();
        assert_eq!(back.name, "sample");
        assert_eq!(back.stats, stats);
        assert_eq!(back.format_version, CACHE_FORMAT_VERSION);
        let u = back.topology.build().unwrap();
        assert_eq!(to_text(&t), to_text(&u));
    }

    #[test]
    fn ingest_cache_rejects_mismatched_format_versions() {
        let (t, stats) = parse_str("1 2 c\n").unwrap();
        let cache =
            IngestCache::new("v".to_string(), "unit test".to_string(), stats, TopologyDoc::of(&t));
        let json = serde_json::to_string(&cache).unwrap();

        // A future version must be refused, not guessed at.
        let newer = json.replace(
            &format!("\"format_version\":{CACHE_FORMAT_VERSION}"),
            &format!("\"format_version\":{}", CACHE_FORMAT_VERSION + 7),
        );
        assert_ne!(newer, json, "replacement found the version field");
        let err = IngestCache::from_json(&newer).unwrap_err();
        assert!(err.contains(&format!("cache format version {}", CACHE_FORMAT_VERSION + 7)), "{err}");
        assert!(err.contains("re-run `miro ingest`"), "{err}");

        // A pre-versioning cache (no stamp at all) reads as version 1.
        let unstamped = json.replace(&format!("\"format_version\":{CACHE_FORMAT_VERSION},"), "");
        assert_ne!(unstamped, json);
        let err = IngestCache::from_json(&unstamped).unwrap_err();
        assert!(err.contains("cache format version 1"), "{err}");

        // Garbage in the field is its own error, not a silent default.
        let garbage = json.replace(
            &format!("\"format_version\":{CACHE_FORMAT_VERSION}"),
            "\"format_version\":\"two\"",
        );
        let err = IngestCache::from_json(&garbage).unwrap_err();
        assert!(err.contains("format_version is not a number"), "{err}");

        // The version is checked before a member of the wrong shape is
        // reported, wherever the two sit in the document.
        let shape = json.replace("\"stats\":{", "\"stats\":[1],\"old_stats\":{");
        assert_ne!(shape, json);
        let err = IngestCache::from_json(&shape).unwrap_err();
        assert!(err.contains("not an ingest cache: stats: expected '{'"), "{err}");
        let err = IngestCache::from_json(shape.replace(
            &format!("\"format_version\":{CACHE_FORMAT_VERSION},"),
            "",
        ) + " ")
        .unwrap_err();
        assert!(err.contains("cache format version 1"), "{err}");
    }

    fn one_link_cache(link: &str) -> String {
        format!(
            r#"{{"format_version":2,"name":"n","source":"s","stats":{{"lines":1,"comments":0,"edges":1,"duplicate_edges":0,"self_loops":0,"nodes":2,"bytes":6}},"topology":{{"links":[[1,2,"c"],{link}],"isolated":[]}}}}"#
        )
    }

    #[test]
    fn ingest_cache_refuses_numbers_out_of_range_and_bad_tags() {
        let ok = IngestCache::from_json(one_link_cache(r#"[4294967295, 0, "p"]"#)).unwrap();
        assert_eq!(ok.topology.links[1], (u32::MAX, 0, 'p'));
        for (link, field) in [
            (r#"[-1, 2, "c"]"#, "link 1: field 0: expected an integer in 0..=4294967295"),
            (r#"[1, 4294967296, "c"]"#, "link 1: field 1: expected an integer in 0..=4294967295"),
            (r#"[1.5, 2, "c"]"#, "link 1: field 0: expected an integer"),
            (r#"[1, 2e0, "c"]"#, "link 1: field 1: expected an integer"),
            (r#"[1, 2, "cc"]"#, "link 1: field 2: unknown relationship tag \"cc\""),
            (r#"[1, 2, "x"]"#, "link 1: field 2: unknown relationship tag \"x\""),
            (r#"[1, 2, "c", 4]"#, "link 1: expected ']'"),
        ] {
            let err = IngestCache::from_json(one_link_cache(link)).unwrap_err();
            assert!(err.starts_with(&format!("not an ingest cache: topology: links: {field}")), "{link}: {err}");
        }
        let err = IngestCache::from_json(one_link_cache("[1,2,\"c\"]").replace("\"lines\":1", "\"lines\":-1"))
            .unwrap_err();
        assert!(err.contains("stats: lines: expected an integer"), "{err}");
    }

    #[test]
    fn ingest_cache_nesting_is_bounded() {
        // A cache nests four deep; 64 levels still read, one more does
        // not, and a megabyte of `[` is an error, not a stack overflow.
        let nested = |levels: usize| {
            one_link_cache(r#"[1,3,"e"]"#)
                .replacen('{', &format!("{{\"junk\":{}{},", "[".repeat(levels), "]".repeat(levels)), 1)
        };
        use serde_json::MAX_DEPTH;
        assert!(IngestCache::from_json(nested(MAX_DEPTH - 1)).is_ok());
        let err = IngestCache::from_json(nested(MAX_DEPTH)).unwrap_err();
        assert!(err.contains(&format!("nesting deeper than {MAX_DEPTH}")), "{err}");
        let err = IngestCache::from_json(format!("{{\"junk\":{}", "[".repeat(1 << 20))).unwrap_err();
        assert!(err.starts_with("not an ingest cache: nesting deeper than"), "{err}");
        let err = IngestCache::from_json("[".repeat(1 << 20)).unwrap_err();
        assert!(err.starts_with("not an ingest cache: top level is not an object"), "{err}");
    }

    #[test]
    fn ingest_cache_strings_decode_escapes_and_trailing_bytes_are_refused() {
        let cache = one_link_cache("[1,3,\"e\"]").replace(r#""name":"n""#, r#""name":"a\"b\\cé\n\/""#);
        assert_eq!(IngestCache::from_json(&cache).unwrap().name, "a\"b\\c\u{e9}\n/");
        for bad in [r#""a\u12""#, r#""a\ud800""#, r#""a\q""#, r#""a"#] {
            let doc = one_link_cache("[1,3,\"e\"]").replace(r#""n""#, bad);
            assert!(IngestCache::from_json(&doc).unwrap_err().starts_with("not an ingest cache"), "{bad}");
        }
        let err = IngestCache::from_json(one_link_cache("[1,3,\"e\"]") + " {}").unwrap_err();
        assert!(err.contains("expected the end at byte"), "{err}");
        let err = IngestCache::from_json(one_link_cache("[1,3,\"e\"]").replace(",\"name\":\"n\"", "")).unwrap_err();
        assert!(err.contains("missing member \"name\""), "{err}");
    }
}
