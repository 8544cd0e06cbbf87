//! Property-based tests for the policy layer: the AS-path regex engine
//! and the configuration parser are total (no panics), and their
//! semantics satisfy algebraic invariants.

use miro_policy::eval::PolicyRoute;
use miro_policy::{parse_config, AsPathRegex};
use proptest::prelude::*;

fn arb_path() -> impl Strategy<Value = Vec<u32>> {
    proptest::collection::vec(1u32..1000, 0..8)
}

proptest! {
    /// A literal pattern built from a path matches that path, anchored
    /// and unanchored.
    #[test]
    fn literal_pattern_matches_itself(path in proptest::collection::vec(1u32..1000, 1..8)) {
        let body = path.iter().map(|n| n.to_string()).collect::<Vec<_>>().join(" ");
        let unanchored = AsPathRegex::parse(&body).expect("valid literal pattern");
        prop_assert!(unanchored.is_match(&path));
        let anchored = AsPathRegex::parse(&format!("^{body}$")).expect("valid");
        prop_assert!(anchored.is_match(&path));
        // Anchored pattern must not match the path with an extra hop.
        let mut longer = path.clone();
        longer.push(1);
        prop_assert!(!anchored.is_match(&longer));
    }

    /// `_N_` matches exactly the paths containing N.
    #[test]
    fn underscore_literal_is_containment(n in 1u32..1000, path in arb_path()) {
        let re = AsPathRegex::parse(&format!("_{n}_")).expect("valid");
        prop_assert_eq!(re.is_match(&path), path.contains(&n));
    }

    /// `^.*$` matches everything; `^$` matches only the empty path.
    #[test]
    fn universal_and_empty_patterns(path in arb_path()) {
        prop_assert!(AsPathRegex::parse("^.*$").expect("valid").is_match(&path));
        prop_assert_eq!(AsPathRegex::parse("^$").expect("valid").is_match(&path), path.is_empty());
    }

    /// An unanchored pattern that matches still matches after adding
    /// arbitrary prefix/suffix hops (substring semantics).
    #[test]
    fn unanchored_matching_is_substring_closed(
        core in proptest::collection::vec(1u32..1000, 1..5),
        pre in arb_path(),
        post in arb_path(),
    ) {
        let body = core.iter().map(|n| n.to_string()).collect::<Vec<_>>().join(" ");
        let re = AsPathRegex::parse(&body).expect("valid");
        let mut full = pre;
        full.extend(&core);
        full.extend(&post);
        prop_assert!(re.is_match(&full));
    }

    /// The regex parser is total over arbitrary strings from the dialect
    /// alphabet: it returns Ok or Err, never panics, and the matcher
    /// terminates on every accepted pattern, up to 64-character patterns
    /// over 255-hop paths.
    #[test]
    fn regex_engine_is_total(
        pattern in "[0-9 ._*+?^$]{0,64}",
        path in proptest::collection::vec(1u32..1000, 0..256),
    ) {
        if let Ok(re) = AsPathRegex::parse(&pattern) {
            let _ = re.is_match(&path); // must terminate without panic
        }
    }

    /// The configuration parser never panics on arbitrary line soup, and
    /// accepts-or-rejects deterministically.
    #[test]
    fn config_parser_is_total(text in "[a-z0-9 <>#!._\\-\n]{0,400}") {
        let a = parse_config(&text);
        let b = parse_config(&text);
        prop_assert_eq!(a.is_ok(), b.is_ok());
    }

    /// ACL semantics: permit-all permits everything; deny-then-permit is
    /// first-match (the deny wins for covered paths).
    #[test]
    fn acl_first_match_semantics(n in 1u32..1000, path in arb_path()) {
        let cfg = format!(
            "ip as-path access-list 9 deny _{n}_\nip as-path access-list 9 permit .*\n"
        );
        let e = parse_config(&cfg).expect("valid config");
        prop_assert_eq!(e.acl_permits(9, &path), !path.contains(&n));
    }

    /// Route-map filter + trigger coherence: the AVOID trigger fires iff
    /// no candidate survives the ACL, for arbitrary candidate sets.
    #[test]
    fn trigger_fires_iff_no_clean_candidate(
        n in 1u32..1000,
        paths in proptest::collection::vec(proptest::collection::vec(1u32..1000, 1..6), 1..6),
    ) {
        let cfg = format!(
            "route-map M permit 10\nmatch empty path 9\ntry negotiation N\n\
             ip as-path access-list 9 deny _{n}_\nip as-path access-list 9 permit .*\n\
             negotiation N\nstart negotiation #1 with maximum cost 100\n"
        );
        let e = parse_config(&cfg).expect("valid config");
        let routes: Vec<PolicyRoute> = paths
            .iter()
            .map(|p| PolicyRoute { path: p.clone(), local_pref: 100 })
            .collect();
        let (_, triggers) = e.apply_route_map("M", &routes);
        let any_clean = paths.iter().any(|p| !p.contains(&n));
        prop_assert_eq!(triggers.is_empty(), any_clean);
    }
}
