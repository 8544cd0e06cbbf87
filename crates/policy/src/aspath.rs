//! Cisco-style AS-path regular expressions, from scratch.
//!
//! The dialect operators (section 6.1's `ip as-path access-list 200 deny
//! _312_` example):
//!
//! * `NNN` — a literal AS number;
//! * `.` — any single AS number;
//! * `_` — a boundary (start of path, end of path, or the gap between two
//!   AS numbers). Over tokenized AS paths every inter-AS position *is* a
//!   boundary, so `_` is a zero-width assertion that also documents
//!   intent, exactly like the Cisco idiom;
//! * `^` / `$` — anchors;
//! * `*`, `+`, `?` — quantifiers on the preceding atom.
//!
//! Matching is unanchored unless `^`/`$` say otherwise, over `&[u32]`
//! paths (source end first, origin last — direction does not matter to
//! the engine).

/// A compiled AS-path regex.
///
/// ```
/// use miro_policy::AsPathRegex;
///
/// // The dissertation's `ip as-path access-list 200 deny _312_`:
/// let re = AsPathRegex::parse("_312_").unwrap();
/// assert!(re.is_match(&[100, 312, 200]));
/// assert!(!re.is_match(&[100, 200]));
/// // Anchored forms work too:
/// assert!(AsPathRegex::parse("^701 .*$").unwrap().is_match(&[701, 1, 2]));
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AsPathRegex {
    pattern: String,
    anchored_start: bool,
    anchored_end: bool,
    items: Vec<Item>,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Atom {
    Asn(u32),
    Any,
    Boundary,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Quant {
    One,
    Star,
    Plus,
    Opt,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Item {
    atom: Atom,
    quant: Quant,
}

/// Regex compilation errors.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RegexError {
    /// A quantifier with nothing before it.
    DanglingQuantifier(usize),
    /// `^` not at the start or `$` not at the end.
    MisplacedAnchor(usize),
    /// Character the dialect does not know.
    BadChar(usize, char),
    /// The pattern is empty.
    Empty,
}

impl std::fmt::Display for RegexError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RegexError::DanglingQuantifier(i) => write!(f, "dangling quantifier at {i}"),
            RegexError::MisplacedAnchor(i) => write!(f, "misplaced anchor at {i}"),
            RegexError::BadChar(i, c) => write!(f, "unsupported character {c:?} at {i}"),
            RegexError::Empty => write!(f, "empty pattern"),
        }
    }
}

impl std::error::Error for RegexError {}

impl AsPathRegex {
    /// Compile a pattern.
    pub fn parse(pattern: &str) -> Result<AsPathRegex, RegexError> {
        let chars: Vec<char> = pattern.chars().collect();
        let mut items: Vec<Item> = Vec::new();
        let mut anchored_start = false;
        let mut anchored_end = false;
        let mut i = 0;
        while i < chars.len() {
            let c = chars[i];
            match c {
                '^' => {
                    if i != 0 {
                        return Err(RegexError::MisplacedAnchor(i));
                    }
                    anchored_start = true;
                    i += 1;
                }
                '$' => {
                    if i != chars.len() - 1 {
                        return Err(RegexError::MisplacedAnchor(i));
                    }
                    anchored_end = true;
                    i += 1;
                }
                '_' => {
                    items.push(Item { atom: Atom::Boundary, quant: Quant::One });
                    i += 1;
                }
                '.' => {
                    items.push(Item { atom: Atom::Any, quant: Quant::One });
                    i += 1;
                }
                '*' | '+' | '?' => {
                    let quant = match c {
                        '*' => Quant::Star,
                        '+' => Quant::Plus,
                        _ => Quant::Opt,
                    };
                    match items.last_mut() {
                        Some(item) if item.quant == Quant::One => item.quant = quant,
                        _ => return Err(RegexError::DanglingQuantifier(i)),
                    }
                    i += 1;
                }
                ' ' => {
                    // Whitespace between numbers reads as a boundary too.
                    items.push(Item { atom: Atom::Boundary, quant: Quant::One });
                    i += 1;
                }
                d if d.is_ascii_digit() => {
                    let start = i;
                    while i < chars.len() && chars[i].is_ascii_digit() {
                        i += 1;
                    }
                    let n: u32 = chars[start..i]
                        .iter()
                        .collect::<String>()
                        .parse()
                        .map_err(|_| RegexError::BadChar(start, d))?;
                    items.push(Item { atom: Atom::Asn(n), quant: Quant::One });
                }
                other => return Err(RegexError::BadChar(i, other)),
            }
        }
        if items.is_empty() && !anchored_start && !anchored_end {
            return Err(RegexError::Empty);
        }
        Ok(AsPathRegex {
            pattern: pattern.to_string(),
            anchored_start,
            anchored_end,
            items,
        })
    }

    /// The source text.
    pub fn pattern(&self) -> &str {
        &self.pattern
    }

    /// Does the regex match anywhere in `path` (subject to anchors)?
    ///
    /// One pass over the path carrying the set of items live at each
    /// position, so the work is O(items × hops) whatever the quantifiers.
    pub fn is_match(&self, path: &[u32]) -> bool {
        let n = self.items.len();
        let (mut live, mut next) = (vec![false; n + 1], vec![false; n + 1]);
        self.reach(&mut live, 0);
        for &asn in path {
            if live[n] && !self.anchored_end {
                return true;
            }
            next.fill(false);
            for (i, it) in self.items.iter().enumerate() {
                let eats = match it.atom {
                    Atom::Asn(a) => a == asn,
                    Atom::Any => true,
                    Atom::Boundary => false, // zero-width: crossed by `reach`
                };
                if live[i] && eats {
                    if matches!(it.quant, Quant::Star | Quant::Plus) {
                        self.reach(&mut next, i);
                    }
                    self.reach(&mut next, i + 1);
                }
            }
            if !self.anchored_start {
                self.reach(&mut next, 0);
            }
            std::mem::swap(&mut live, &mut next);
        }
        live[n]
    }

    /// Mark item `i` live, and every item after it that can match empty
    /// (a boundary — every token gap, start and end — or `?` / `*`).
    fn reach(&self, live: &mut [bool], mut i: usize) {
        while !live[i] {
            live[i] = true;
            match self.items.get(i) {
                Some(it) if it.atom == Atom::Boundary || matches!(it.quant, Quant::Opt | Quant::Star) => i += 1,
                _ => return,
            }
        }
    }

    /// The literal AS numbers in the pattern, in order — used by the
    /// policy evaluator to recover "the AS this rule is about" (e.g. the
    /// 312 of `_312_`).
    pub fn literals(&self) -> Vec<u32> {
        self.items
            .iter()
            .filter_map(|it| match it.atom {
                Atom::Asn(n) => Some(n),
                _ => None,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(pat: &str, path: &[u32]) -> bool {
        AsPathRegex::parse(pat).unwrap().is_match(path)
    }

    #[test]
    fn the_paper_pattern_underscore_312_underscore() {
        assert!(m("_312_", &[100, 312, 200]));
        assert!(m("_312_", &[312]));
        assert!(m("_312_", &[312, 5]));
        assert!(!m("_312_", &[100, 200]));
        assert!(!m("_312_", &[3120, 3, 12]));
    }

    #[test]
    fn anchors() {
        assert!(m("^701", &[701, 1, 2]));
        assert!(!m("^701", &[1, 701]));
        assert!(m("88$", &[1, 2, 88]));
        assert!(!m("88$", &[88, 1]));
        assert!(m("^$", &[]));
        assert!(!m("^$", &[1]));
        assert!(m("^1 2$", &[1, 2]));
        assert!(!m("^1 2$", &[1, 2, 3]));
    }

    #[test]
    fn dot_and_quantifiers() {
        assert!(m("^.$", &[42]));
        assert!(!m("^.$", &[]));
        assert!(m("^.*$", &[]));
        assert!(m("^.*$", &[1, 2, 3]));
        assert!(m("^.+$", &[1]));
        assert!(!m("^.+$", &[]));
        assert!(m("^1 .? 2$", &[1, 2]));
        assert!(m("^1 .? 2$", &[1, 9, 2]));
        assert!(!m("^1 .? 2$", &[1, 9, 9, 2]));
    }

    #[test]
    fn literal_repetition() {
        // Prepended paths like "1239 7018 88 88 88" (Table 1.1).
        assert!(m("88 88 88$", &[1239, 7018, 88, 88, 88]));
        assert!(m("^1239 7018 88+$", &[1239, 7018, 88, 88, 88]));
        assert!(!m("^1239 88+$", &[1239, 7018, 88]));
        assert!(m("7018*", &[1, 2])); // zero repetitions allowed, matches anywhere
    }

    #[test]
    fn subsequence_matching_is_contiguous() {
        assert!(m("2 3", &[1, 2, 3, 4]));
        assert!(!m("1 3", &[1, 2, 3]));
        assert!(m("1 .* 3", &[1, 2, 9, 3]));
    }

    #[test]
    fn parse_errors() {
        assert_eq!(AsPathRegex::parse("*1").unwrap_err(), RegexError::DanglingQuantifier(0));
        assert_eq!(AsPathRegex::parse("1^"), Err(RegexError::MisplacedAnchor(1)));
        assert_eq!(AsPathRegex::parse("$1"), Err(RegexError::MisplacedAnchor(0)));
        assert!(matches!(AsPathRegex::parse("a"), Err(RegexError::BadChar(0, 'a'))));
        assert_eq!(AsPathRegex::parse(""), Err(RegexError::Empty));
        assert!(matches!(
            AsPathRegex::parse("__*"),
            Err(RegexError::DanglingQuantifier(_)) | Ok(_)
        ));
    }

    #[test]
    fn starred_boundary_terminates() {
        // A zero-width starred atom must not hang the matcher.
        if let Ok(r) = AsPathRegex::parse("_* 5") {
            assert!(r.is_match(&[5]));
            assert!(!r.is_match(&[6]));
        }
    }

    #[test]
    fn literals_extraction() {
        let r = AsPathRegex::parse("^100 .* _312_ 7$").unwrap();
        assert_eq!(r.literals(), vec![100, 312, 7]);
        assert!(AsPathRegex::parse("^.*$").unwrap().literals().is_empty());
    }

    /// A recursive backtracker, the oracle for `is_match`: short and
    /// obviously right, but C(hops + k, k) calls per start for k stars
    /// before a missing ASN.
    fn backtrack(re: &AsPathRegex, path: &[u32]) -> bool {
        fn eat(atom: Atom, path: &[u32], pos: usize) -> Option<usize> {
            match atom {
                Atom::Boundary => Some(pos),
                Atom::Any => (pos < path.len()).then_some(pos + 1),
                Atom::Asn(n) => (pos < path.len() && path[pos] == n).then_some(pos + 1),
            }
        }
        fn here(re: &AsPathRegex, item: usize, path: &[u32], pos: usize) -> bool {
            let Some(&it) = re.items.get(item) else {
                return !re.anchored_end || pos == path.len();
            };
            let then = |next| here(re, item + 1, path, next);
            match it.quant {
                Quant::One => eat(it.atom, path, pos).is_some_and(then),
                Quant::Opt => then(pos) || eat(it.atom, path, pos).is_some_and(then),
                Quant::Star | Quant::Plus => {
                    let mut at = pos;
                    if it.quant == Quant::Plus {
                        match eat(it.atom, path, at) {
                            Some(next) => at = next,
                            None => return false,
                        }
                    }
                    loop {
                        if then(at) {
                            return true;
                        }
                        match eat(it.atom, path, at) {
                            Some(next) if next != at => at = next,
                            _ => return false,
                        }
                    }
                }
            }
        }
        if re.anchored_start {
            here(re, 0, path, 0)
        } else {
            (0..=path.len()).any(|s| here(re, 0, path, s))
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(2048))]

        /// The one-pass matcher answers as the backtracker does over the
        /// dialect alphabet (small ASNs, so literals do hit).
        #[test]
        fn linear_matcher_equals_the_backtracker(
            pattern in "[1-3 ._*+?^$]{0,12}",
            path in proptest::collection::vec(1u32..4, 0..8),
        ) {
            if let Ok(re) = AsPathRegex::parse(&pattern) {
                proptest::prop_assert_eq!(re.is_match(&path), backtrack(&re, &path), "{:?} on {:?}", pattern, path);
            }
        }
    }

    /// 32 stars before an ASN the path lacks: over 10^40 backtracking
    /// calls on 255 hops, one pass here.
    #[test]
    fn stars_before_a_missing_asn_stay_linear() {
        let re = AsPathRegex::parse(&format!("{}_9999", ".*".repeat(32))).unwrap();
        let path: Vec<u32> = (1..=255).collect();
        assert!(!re.is_match(&path));
        let mut hit = path.clone();
        hit[200] = 9999;
        assert!(re.is_match(&hit));
    }
}
