//! Parser for the dissertation's extended route-map configuration dialect
//! (sections 6.1 and 6.3).
//!
//! Line-oriented, like the router configurations it imitates: `!` lines
//! are comments, indentation is ignored, and `match`/`set`/`try`/`when`/
//! `filter` lines attach to the block most recently opened by a
//! `route-map`, `negotiation`, `accept negotiation` or `negotiation
//! filter` statement.

use crate::aspath::AsPathRegex;

/// One clause inside a `route-map` block.
#[derive(Clone, Debug, PartialEq)]
pub enum RouteMapClause {
    /// `match as-path <acl>`: the route's AS path must be permitted by the
    /// access list.
    MatchAsPath(u32),
    /// `match empty path <acl>`: fires when filtering the candidate set by
    /// the access list leaves *nothing* — the negotiation trigger of
    /// section 6.3 ("initiate a negotiation if the 'deny AS 312' rule
    /// results in an empty candidate set").
    MatchEmptyPath(u32),
    /// `set local-preference <n>`.
    SetLocalPref(u32),
    /// `try negotiation <name>`.
    TryNegotiation(String),
}

/// A `route-map <name> (permit|deny) <seq>` block.
#[derive(Clone, Debug, PartialEq)]
pub struct RouteMap {
    pub name: String,
    pub permit: bool,
    pub seq: u32,
    pub clauses: Vec<RouteMapClause>,
}

/// One `ip as-path access-list` rule.
#[derive(Clone, Debug, PartialEq)]
pub struct AclRule {
    pub permit: bool,
    pub regex: AsPathRegex,
}

/// A `negotiation <name>` block (requester side).
#[derive(Clone, Debug, PartialEq)]
pub struct NegotiationDecl {
    pub name: String,
    /// `match all path <regex>`: which candidate paths to mine for
    /// negotiation targets.
    pub path_regex: Option<AsPathRegex>,
    /// `start negotiation #<n> with maximum cost <c>`.
    pub start_index: Option<u32>,
    pub max_cost: Option<u32>,
}

/// `accept negotiation from ...` (responder side).
#[derive(Clone, Debug, PartialEq)]
pub struct AcceptDecl {
    /// An explicit AS list; `None` is `from any`.
    pub allowed: Option<Vec<u32>>,
    /// `when tunnel_number < N`.
    pub max_tunnels: Option<u64>,
}

/// One `filter permit local_pref > N` + `set tunnel_cost C` pair inside a
/// `negotiation filter` block.
#[derive(Clone, Debug, PartialEq)]
pub struct FilterRule {
    pub min_local_pref: u32,
    pub tunnel_cost: Option<u32>,
}

/// A `negotiation filter <name>` block.
#[derive(Clone, Debug, PartialEq)]
pub struct FilterDecl {
    pub name: String,
    pub rules: Vec<FilterRule>,
}

/// A neighbor statement.
#[derive(Clone, Debug, PartialEq)]
pub struct NeighborDecl {
    pub addr: String,
    pub remote_as: Option<u32>,
    pub route_map_in: Option<String>,
    pub route_map_out: Option<String>,
}

/// A parsed configuration.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Config {
    pub router_asn: Option<u32>,
    pub neighbors: Vec<NeighborDecl>,
    pub route_maps: Vec<RouteMap>,
    pub access_lists: Vec<(u32, Vec<AclRule>)>,
    pub negotiations: Vec<NegotiationDecl>,
    pub accept: Option<AcceptDecl>,
    pub filters: Vec<FilterDecl>,
}

impl Config {
    /// Find an access list by id.
    pub fn acl(&self, id: u32) -> Option<&[AclRule]> {
        self.access_lists
            .iter()
            .find(|&&(i, _)| i == id)
            .map(|(_, rules)| rules.as_slice())
    }

    /// Find a negotiation declaration by name.
    pub fn negotiation(&self, name: &str) -> Option<&NegotiationDecl> {
        self.negotiations.iter().find(|n| n.name == name)
    }
}

/// Parse failures, with the 1-based line number.
#[derive(Clone, Debug, PartialEq)]
pub struct ParseError {
    pub line: usize,
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

enum Block {
    None,
    RouteMap,
    Negotiation,
    Accept,
    Filter,
}

/// Parse a configuration document.
///
/// ```
/// let cfg = miro_policy::parse_config("\
/// router bgp 100
/// route-map AVOID permit 10
/// match as-path 200
/// set local-preference 250
/// ip as-path access-list 200 deny _312_
/// ip as-path access-list 200 permit .*
/// ").unwrap();
/// assert_eq!(cfg.router_asn, Some(100));
/// assert_eq!(cfg.acl(200).unwrap().len(), 2);
/// ```
pub fn parse_config(text: &str) -> Result<Config, ParseError> {
    let mut cfg = Config::default();
    let mut block = Block::None;
    let err = |line: usize, msg: &str| ParseError { line, message: msg.to_string() };

    for (idx, raw) in text.lines().enumerate() {
        let lineno = idx + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('!') || line.starts_with('#') {
            continue;
        }
        let words: Vec<&str> = line.split_whitespace().collect();
        let num = |s: &str, what: &str| -> Result<u32, ParseError> {
            s.parse().map_err(|_| err(lineno, &format!("bad {what}: {s:?}")))
        };
        match words.as_slice() {
            ["router", "bgp", asn] => {
                cfg.router_asn = Some(num(asn, "AS number")?);
                block = Block::None;
            }
            ["neighbor", addr, "remote-as", asn] => {
                let n = neighbor_mut(&mut cfg, addr);
                n.remote_as = Some(num(asn, "AS number")?);
            }
            ["neighbor", addr, "route-map", name, dir] => {
                let name = name.to_string();
                let n = neighbor_mut(&mut cfg, addr);
                match *dir {
                    "in" => n.route_map_in = Some(name),
                    "out" => n.route_map_out = Some(name),
                    _ => return Err(err(lineno, "route-map direction must be in|out")),
                }
            }
            ["route-map", name, action, rest @ ..] => {
                let permit = match *action {
                    "permit" => true,
                    "deny" => false,
                    _ => return Err(err(lineno, "route-map action must be permit|deny")),
                };
                let seq = match rest {
                    [] => 10,
                    [s] => num(s, "sequence number")?,
                    _ => return Err(err(lineno, "trailing tokens after route-map")),
                };
                cfg.route_maps.push(RouteMap {
                    name: name.to_string(),
                    permit,
                    seq,
                    clauses: Vec::new(),
                });
                block = Block::RouteMap;
            }
            ["ip", "as-path", "access-list", id, action, rest @ ..] => {
                let id = num(id, "access-list id")?;
                let permit = match *action {
                    "permit" => true,
                    "deny" => false,
                    _ => return Err(err(lineno, "access-list action must be permit|deny")),
                };
                if rest.is_empty() {
                    return Err(err(lineno, "access-list needs a pattern"));
                }
                let pattern = rest.join(" ");
                let regex = AsPathRegex::parse(&pattern)
                    .map_err(|e| err(lineno, &format!("bad pattern: {e}")))?;
                match cfg.access_lists.iter_mut().find(|(i, _)| *i == id) {
                    Some((_, rules)) => rules.push(AclRule { permit, regex }),
                    None => cfg.access_lists.push((id, vec![AclRule { permit, regex }])),
                }
            }
            ["negotiation", "filter", name] => {
                cfg.filters.push(FilterDecl { name: name.to_string(), rules: Vec::new() });
                block = Block::Filter;
            }
            ["negotiation", name] => {
                cfg.negotiations.push(NegotiationDecl {
                    name: name.to_string(),
                    path_regex: None,
                    start_index: None,
                    max_cost: None,
                });
                block = Block::Negotiation;
            }
            ["accept", "negotiation", "from", rest @ ..] => {
                let allowed = match rest {
                    ["any"] => None,
                    list => Some(list.iter().map(|a| num(a, "AS number")).collect::<Result<_, _>>()?),
                };
                cfg.accept = Some(AcceptDecl { allowed, max_tunnels: None });
                block = Block::Accept;
            }
            ["when", "tunnel_number", "<", n] => match block {
                Block::Accept => {
                    let acc = cfg.accept.as_mut().expect("accept block open");
                    acc.max_tunnels = Some(
                        n.parse().map_err(|_| err(lineno, "bad tunnel limit"))?,
                    );
                }
                _ => return Err(err(lineno, "`when` outside accept block")),
            },
            ["match", rest @ ..] => match block {
                Block::RouteMap => {
                    let rm = cfg.route_maps.last_mut().expect("route-map open");
                    let clause = match rest {
                        ["as-path", id] => RouteMapClause::MatchAsPath(num(id, "acl id")?),
                        ["empty", "path", id] => {
                            RouteMapClause::MatchEmptyPath(num(id, "acl id")?)
                        }
                        _ => return Err(err(lineno, "unknown route-map match")),
                    };
                    rm.clauses.push(clause);
                }
                Block::Negotiation => {
                    let ng = cfg.negotiations.last_mut().expect("negotiation open");
                    match rest {
                        ["all", "path", pat @ ..] if !pat.is_empty() => {
                            let pattern = pat.join(" ");
                            ng.path_regex = Some(
                                AsPathRegex::parse(&pattern)
                                    .map_err(|e| err(lineno, &format!("bad pattern: {e}")))?,
                            );
                        }
                        _ => return Err(err(lineno, "unknown negotiation match")),
                    }
                }
                _ => return Err(err(lineno, "`match` outside a block")),
            },
            ["set", rest @ ..] => match (&block, rest) {
                (Block::RouteMap, ["local-preference", n]) => {
                    cfg.route_maps
                        .last_mut()
                        .expect("route-map open")
                        .clauses
                        .push(RouteMapClause::SetLocalPref(num(n, "local preference")?));
                }
                (Block::Filter, ["tunnel_cost", n]) => {
                    let f = cfg.filters.last_mut().expect("filter open");
                    match f.rules.last_mut() {
                        Some(rule) => rule.tunnel_cost = Some(num(n, "tunnel cost")?),
                        None => return Err(err(lineno, "set tunnel_cost before any filter rule")),
                    }
                }
                _ => return Err(err(lineno, "unknown set statement")),
            },
            ["try", "negotiation", name] => match block {
                Block::RouteMap => {
                    cfg.route_maps
                        .last_mut()
                        .expect("route-map open")
                        .clauses
                        .push(RouteMapClause::TryNegotiation(name.to_string()));
                }
                _ => return Err(err(lineno, "`try negotiation` outside route-map")),
            },
            ["start", "negotiation", index, "with", "maximum", "cost", c] => match block {
                Block::Negotiation => {
                    let ng = cfg.negotiations.last_mut().expect("negotiation open");
                    let idx = index.trim_start_matches('#');
                    ng.start_index = Some(num(idx, "negotiation index")?);
                    ng.max_cost = Some(num(c, "maximum cost")?);
                }
                _ => return Err(err(lineno, "`start negotiation` outside negotiation block")),
            },
            ["filter", action, "local_pref", ">", n] => match block {
                Block::Filter => {
                    if *action != "permit" {
                        return Err(err(lineno, "only `filter permit` is supported"));
                    }
                    cfg.filters
                        .last_mut()
                        .expect("filter open")
                        .rules
                        .push(FilterRule {
                            min_local_pref: num(n, "local preference")?,
                            tunnel_cost: None,
                        });
                }
                _ => return Err(err(lineno, "`filter` outside filter block")),
            },
            _ => return Err(err(lineno, &format!("unrecognized statement: {line:?}"))),
        }
    }
    Ok(cfg)
}

fn neighbor_mut<'c>(cfg: &'c mut Config, addr: &str) -> &'c mut NeighborDecl {
    if let Some(i) = cfg.neighbors.iter().position(|n| n.addr == addr) {
        return &mut cfg.neighbors[i];
    }
    cfg.neighbors.push(NeighborDecl {
        addr: addr.to_string(),
        remote_as: None,
        route_map_in: None,
        route_map_out: None,
    });
    cfg.neighbors.last_mut().expect("just pushed")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The exact section 6.1 example.
    const CISCO_EXAMPLE: &str = "\
router bgp 100
!
neighbor 12.34.56.1 route-map FIX-LOCALPREF in
neighbor 12.34.56.1 remote-as 1
!
route-map FIX-LOCALPREF permit
match as-path 200
set local-preference 250
!
ip as-path access-list 200 deny _312_
";

    /// The section 6.3 requesting-AS example.
    const REQUESTER_EXAMPLE: &str = "\
router bgp 100
!
route-map AVOID_AS permit 10
match empty path 200
try negotiation NEG-312
!
ip as-path access-list 200 deny _312_
ip as-path access-list 200 permit .*
!
negotiation NEG-312
match all path _312_
start negotiation #1 with maximum cost 250
";

    /// The section 6.3 responding-AS example.
    const RESPONDER_EXAMPLE: &str = "\
router bgp 150
!
accept negotiation from any
when tunnel_number < 1000
!
negotiation filter FILTER-1
filter permit local_pref > 200
set tunnel_cost 120
filter permit local_pref > 100
set tunnel_cost 180
";

    #[test]
    fn parses_the_section_6_1_example() {
        let cfg = parse_config(CISCO_EXAMPLE).unwrap();
        assert_eq!(cfg.router_asn, Some(100));
        assert_eq!(cfg.neighbors.len(), 1);
        assert_eq!(cfg.neighbors[0].remote_as, Some(1));
        assert_eq!(cfg.neighbors[0].route_map_in.as_deref(), Some("FIX-LOCALPREF"));
        let rm = &cfg.route_maps[0];
        assert!(rm.permit);
        assert_eq!(rm.seq, 10);
        assert_eq!(
            rm.clauses,
            vec![RouteMapClause::MatchAsPath(200), RouteMapClause::SetLocalPref(250)]
        );
        let acl = cfg.acl(200).unwrap();
        assert_eq!(acl.len(), 1);
        assert!(!acl[0].permit);
        assert!(acl[0].regex.is_match(&[1, 312, 9]));
    }

    #[test]
    fn parses_the_section_6_3_requester() {
        let cfg = parse_config(REQUESTER_EXAMPLE).unwrap();
        let rm = &cfg.route_maps[0];
        assert_eq!(rm.name, "AVOID_AS");
        assert_eq!(
            rm.clauses,
            vec![
                RouteMapClause::MatchEmptyPath(200),
                RouteMapClause::TryNegotiation("NEG-312".into())
            ]
        );
        let ng = cfg.negotiation("NEG-312").unwrap();
        assert_eq!(ng.start_index, Some(1));
        assert_eq!(ng.max_cost, Some(250));
        assert!(ng.path_regex.as_ref().unwrap().is_match(&[7, 312]));
        assert_eq!(cfg.acl(200).unwrap().len(), 2);
    }

    #[test]
    fn parses_the_section_6_3_responder() {
        let cfg = parse_config(RESPONDER_EXAMPLE).unwrap();
        assert_eq!(cfg.router_asn, Some(150));
        let acc = cfg.accept.as_ref().unwrap();
        assert_eq!(acc.allowed, None, "from any");
        assert_eq!(acc.max_tunnels, Some(1000));
        let f = &cfg.filters[0];
        assert_eq!(f.name, "FILTER-1");
        assert_eq!(
            f.rules,
            vec![
                FilterRule { min_local_pref: 200, tunnel_cost: Some(120) },
                FilterRule { min_local_pref: 100, tunnel_cost: Some(180) },
            ]
        );
    }

    #[test]
    fn accept_from_explicit_list() {
        let cfg = parse_config("accept negotiation from 100 200 300\n").unwrap();
        let acc = cfg.accept.unwrap();
        assert_eq!(acc.allowed, Some(vec![100, 200, 300]));
        assert_eq!(acc.max_tunnels, None);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let e = parse_config("router bgp 100\nbogus line here\n").unwrap_err();
        assert_eq!(e.line, 2);
        let e = parse_config("match as-path 200\n").unwrap_err();
        assert!(e.message.contains("outside"));
        let e = parse_config("ip as-path access-list 5 permit [junk]\n").unwrap_err();
        assert!(e.message.contains("bad pattern"));
        let e = parse_config("when tunnel_number < 10\n").unwrap_err();
        assert!(e.message.contains("outside accept"));
    }

    #[test]
    fn multiple_route_map_entries_keep_order() {
        let cfg = parse_config(
            "route-map M permit 10\nmatch as-path 1\nroute-map M deny 20\nmatch as-path 2\nip as-path access-list 1 permit .*\nip as-path access-list 2 permit .*\n",
        )
        .unwrap();
        assert_eq!(cfg.route_maps.len(), 2);
        assert_eq!(cfg.route_maps[0].seq, 10);
        assert!(!cfg.route_maps[1].permit);
    }
}
