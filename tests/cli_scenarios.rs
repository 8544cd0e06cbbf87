//! Keep the shipped demo scenarios honest: run `data/*.miro` through the
//! shell and check the narrative beats.

#[test]
fn demo_scenario_plays_through() {
    let beats: [(&str, &[&str]); 2] = [
        (
            "demo.miro",
            &[
                "loaded topology: 6 ASes, 8 links",
                "tunnel 0 established",
                "AS1 buys [3 6] from AS2 at price 180",
                "1 lease(s) dropped, 0 survive\n  tunnel 0 torn down: AS1 -> AS2 for AS6 via [3 6]",
            ],
        ),
        // Chapter 6: the same tunnel, asked for by configuration text and
        // sold under B's own: FILTER-1's peer price, and D refused.
        (
            "policy_demo.miro",
            &[
                "policy for AS1: 2 route-map entries, 1 negotiation block(s)",
                "policy for AS2: 0 route-map entries, 0 negotiation block(s)\n\
                 accepts negotiation from [1], tunnel limit none, prices 120/180/- (customer/peer/provider)",
                "route-map AVOID_AS: 0 of 2 candidate(s) kept",
                "negotiation NEG-5: avoid [5], budget 250, targets [2 4]",
                "  AS2: tunnel 0 established",
                "tunnel 0: AS1 -> AS2 for AS6 via [3 6] price 180",
                "error: negotiation failed: responder rejected: NotAllowed",
                "route-map AVOID_AS: 1 of 1 candidate(s) kept\n  keep [2 3] local-pref 80",
            ],
        ),
    ];
    let data = concat!(env!("CARGO_MANIFEST_DIR"), "/data/");
    for (name, expected) in beats {
        let script = std::fs::read_to_string(format!("{data}{name}"))
            .expect("demo scenarios ship with the repo");
        // Rebase the `load data/...` paths onto the manifest dir so the
        // test is cwd-independent.
        let script = script.replace("load data/", &format!("load {data}"));
        let out = miro_cli::Repl::new().run_script(&script);
        for beat in expected {
            assert!(out.contains(beat), "{name}: missing {beat:?} in\n{out}");
        }
        // The only errors are the refusals the scenario plays on purpose.
        let mut errors = out.lines().filter(|l| l.starts_with("error:"));
        assert!(errors.all(|e| expected.contains(&e)), "{name} must be clean: {out}");
        assert!(out.trim_end().ends_with("bye"), "{name}: {out}");
    }
}
